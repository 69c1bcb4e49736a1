//! Facts about the host and the process, taken from outside the
//! simulator: CPU times, peak resident memory, and the manifest that
//! identifies where a result came from.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::stats::fnv1a;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage and /proc as laid out on 64-bit Linux");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process (all threads) has run so far, from
/// `CLOCK_PROCESS_CPUTIME_ID` at nanosecond resolution. On a guest with
/// paravirtual steal-time accounting this excludes time the host gave
/// the vCPU to someone else.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec` with the
    // 64-bit Linux layout, and the process CPU clock always exists.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User and system CPU seconds of the whole process (all threads) so
/// far, from `getrusage(RUSAGE_SELF)`.
pub fn cpu_times() -> (f64, f64) {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout (checked by the `compile_error!` gate above),
    // and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (secs(&usage.ru_utime), secs(&usage.ru_stime))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where a result came from: code, host, and configuration.
pub struct Manifest {
    /// Git commit, or `none` outside a git checkout.
    pub git_rev: String,
    /// Uncommitted changes to tracked files (`None` outside git).
    pub git_dirty: Option<bool>,
    /// FNV-1a over the simulator's and the benchmark's sources, so
    /// checkouts without git history still tell their code apart.
    pub source_hash: u64,
    /// CPU model name.
    pub cpu_model: String,
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
}

fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    // Stop git from searching above the checkout for a repository.
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    command_output(
        Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "work" || n == "target")
            {
                continue;
            }
            source_files(&path, out);
        } else if kind.is_file()
            && path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path);
        }
    }
}

impl Manifest {
    /// Collects the manifest, run from the checkout's root.
    pub fn collect() -> Manifest {
        let git_rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
        let git_dirty =
            git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
        source_files(Path::new("crates"), &mut files);
        source_files(Path::new("perfbench"), &mut files);
        files.sort();
        let mut bytes = Vec::new();
        for f in &files {
            bytes.extend_from_slice(f.to_string_lossy().as_bytes());
            bytes.extend(std::fs::read(f).unwrap_or_default());
        }
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Manifest {
            git_rev,
            git_dirty,
            source_hash: fnv1a(&bytes),
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_output(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}
