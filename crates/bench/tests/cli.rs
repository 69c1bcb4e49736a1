//! Command-line refusals of the `hpsim` and `repro` binaries.
//!
//! Each test runs a built binary and checks its exit status and
//! stderr. A usage error exits 2. Traces are written with
//! [`Hpt2Writer`] into a temporary directory instead of being recorded
//! by a simulation, so every test runs in well under a second.

use hpage_trace::Hpt2Writer;
use hpage_types::{MemoryAccess, VirtAddr};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const HPSIM: &str = env!("CARGO_BIN_EXE_hpsim");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Runs `bin` under the fast test profile.
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("HPAGE_PROFILE", "test")
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"))
}

/// Asserts a usage error: exit 2, with `needle` on stderr.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "expected {needle:?} in: {stderr}");
}

/// A fresh per-test directory under the system temp dir.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpage-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Writes an HPT2 trace of `records` reads over a 16 MiB range, cut
/// into blocks of 64 records.
fn write_trace(path: &Path, records: u64) {
    let file = File::create(path).expect("create trace");
    let mut w = Hpt2Writer::with_block_records(BufWriter::new(file), 64).expect("header");
    w.write_all(
        (0..records)
            .map(|i| MemoryAccess::read(VirtAddr::new(0x4000_0000 + (i * 4160) % (16 << 20)))),
    )
    .expect("blocks");
    w.finish().expect("trailer");
}

#[test]
fn hpsim_refuses_zero_sim_threads() {
    let out = run(HPSIM, &["--app", "bfs", "--sim-threads", "0", "--quiet"]);
    assert_usage_error(&out, "--sim-threads must be at least 1");
}

#[test]
fn repro_refuses_zero_jobs() {
    let out = run(REPRO, &["--figure", "7", "--jobs", "0", "--quiet"]);
    assert_usage_error(&out, "--jobs must be at least 1");
}

#[test]
fn hpsim_refuses_pcc_placement_without_nested() {
    let out = run(
        HPSIM,
        &["--app", "bfs", "--pcc-placement", "host", "--quiet"],
    );
    assert_usage_error(&out, "--pcc-placement requires --nested");
}

#[test]
fn hpsim_refuses_truncated_trace_with_and_without_mmap() {
    let dir = test_dir("truncated");
    let whole = dir.join("whole.hpt2");
    write_trace(&whole, 1000);
    let bytes = std::fs::read(&whole).expect("read trace");
    let cut = dir.join("cut.hpt2");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).expect("write cut trace");
    let cut = cut.to_str().expect("utf-8 path");
    for mmap in [None, Some("--mmap")] {
        let mut args = vec!["--trace-in", cut, "--quiet"];
        args.extend(mmap);
        let out = run(HPSIM, &args);
        assert_usage_error(&out, &format!("{cut}: truncated HPT2 trace"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hpsim_refuses_hpt1_trace() {
    let dir = test_dir("hpt1");
    let path = dir.join("old.hpt");
    // An HPT1 stream: magic, then one header byte and varint delta.
    std::fs::write(&path, b"HPT1\x00\x80\x20").expect("write HPT1 file");
    let path = path.to_str().expect("utf-8 path");
    let out = run(HPSIM, &["--trace-in", path, "--quiet"]);
    assert_usage_error(&out, "no longer supported");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_info_prints_the_written_record_count() {
    let dir = test_dir("info");
    let path = dir.join("trace.hpt2");
    write_trace(&path, 1000);
    let out = run(HPSIM, &["--trace-info", path.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("records"))
        .map(str::trim)
        .collect();
    assert_eq!(records, ["1000"], "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
