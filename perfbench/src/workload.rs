//! The benchmark's workloads: how each is set up from a seed, and the
//! simulation legs it runs.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hpage_os::DegradationConfig;
use hpage_sim::{PolicyChoice, ProcessSpec, SimProfile, Simulation};
use hpage_trace::{instantiate, AnyWorkload, AppId, Dataset, Hpt2Writer, MmapTrace, Workload};
use hpage_types::{derive_seed, NestedConfig, PccPlacement, PromotionPolicyKind, SystemConfig};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// BFS on a scale-20 Kronecker graph, native, 4 KiB then PCC leg.
    Bfs20Native,
    /// Two synthetic VMs under nested translation.
    Virt2Vm,
    /// Two HPT2-replayed processes on 90%-fragmented memory with
    /// demotion, degradation, audit and ledger.
    Frag90Mmap,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::Bfs20Native,
        WorkloadId::Virt2Vm,
        WorkloadId::Frag90Mmap,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Bfs20Native => "bfs20_native",
            WorkloadId::Virt2Vm => "virt_2vm",
            WorkloadId::Frag90Mmap => "frag90_mmap",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The profile every workload is sized from (the `hpsim` default).
pub fn profile() -> SimProfile {
    SimProfile::scaled()
}

/// One simulation configuration, kept as plain data so that both the
/// engine ([`LegSpec::simulation`]) and the benchmark's replay can be
/// built from it.
#[derive(Debug, Clone)]
pub struct LegSpec {
    /// Leg label in reports.
    pub label: &'static str,
    /// Simulated machine.
    pub system: SystemConfig,
    /// Guest (or native) promotion policy: base pages or PCC.
    pub policy: PolicyChoice,
    /// Fragmentation percentage and seed.
    pub frag: Option<(u8, u64)>,
    /// Graceful degradation of the PCC policy.
    pub degradation: Option<DegradationConfig>,
    /// Invariant audit every interval.
    pub audit: bool,
    /// Promotion ledger.
    pub ledger: bool,
    /// Nested (2D) translation.
    pub nested: Option<NestedConfig>,
    /// Per-core trace cap.
    pub max_accesses_per_core: Option<u64>,
}

impl LegSpec {
    /// The engine configured as this leg, at `threads` shard threads.
    pub fn simulation(&self, threads: usize) -> Simulation {
        let mut sim =
            Simulation::new(self.system.clone(), self.policy.clone()).with_sim_threads(threads);
        if let Some((pct, seed)) = self.frag {
            sim = sim.with_fragmentation(pct, seed);
        }
        if let Some(cfg) = self.degradation {
            sim = sim.with_degradation(cfg);
        }
        if self.audit {
            sim = sim.with_audit();
        }
        if self.ledger {
            sim = sim.with_ledger();
        }
        if let Some(nc) = self.nested {
            sim = sim.with_nested(nc);
        }
        if let Some(n) = self.max_accesses_per_core {
            sim = sim.with_max_accesses_per_core(n);
        }
        sim
    }

    /// The same machine and inputs under 4 KiB pages only (both
    /// dimensions when nested), without audit or ledger: the modelled
    /// baseline the speed-up is taken against.
    pub fn baseline(&self) -> LegSpec {
        LegSpec {
            label: "base-4k",
            policy: PolicyChoice::BasePages,
            degradation: None,
            audit: false,
            ledger: false,
            nested: self.nested.map(|nc| nc.with_placement(PccPlacement::None)),
            ..self.clone()
        }
    }
}

/// A process's input: generated in memory, or replayed from a mapped
/// HPT2 file.
pub enum Input {
    /// Graph kernel or synthetic generator.
    Generated(AnyWorkload),
    /// Zero-copy HPT2 replay.
    Mapped(MmapTrace),
}

impl Input {
    /// The input as the simulator consumes it.
    pub fn workload(&self) -> &dyn Workload {
        match self {
            Input::Generated(w) => w,
            Input::Mapped(w) => w,
        }
    }
}

/// A workload after set-up: its processes' inputs and its legs.
pub struct Prepared {
    /// One input per process, in pid order.
    pub inputs: Vec<Input>,
    /// Legs, run in order.
    pub legs: Vec<LegSpec>,
    /// Seconds generating inputs (graph or synthetic build).
    pub generate_s: f64,
    /// Seconds recording HPT2 files and validating them at open.
    pub record_s: f64,
    /// Recorded trace files, removed on drop.
    files: Vec<PathBuf>,
}

impl Prepared {
    /// One single-threaded process per input.
    pub fn specs(&self) -> Vec<ProcessSpec<'_>> {
        self.inputs
            .iter()
            .map(|i| ProcessSpec::new(i.workload()))
            .collect()
    }

    /// The inputs as workloads.
    pub fn workloads(&self) -> Vec<&dyn Workload> {
        self.inputs.iter().map(Input::workload).collect()
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // Unmap before unlinking; a failed removal only leaves a file
        // in the benchmark's own work directory.
        self.inputs.clear();
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
        // Removes the work directory once no set-up has files in it.
        if let Some(dir) = self.files.first().and_then(|f| f.parent()) {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Set-ups that recorded HPT2 files in this process.
static SETUPS: AtomicU64 = AtomicU64::new(0);

/// Records `w` to an HPT2 file at `path` and maps it back (the open
/// validates every block checksum and the trailer).
fn record_and_map(w: &dyn Workload, path: &Path) -> std::io::Result<MmapTrace> {
    let mut writer = Hpt2Writer::new(BufWriter::new(File::create(path)?))?;
    writer.write_all(w.trace())?;
    writer.finish()?.flush()?;
    MmapTrace::open(format!("mapped:{}", w.name()), path)
}

/// Builds `id`'s inputs and legs from `seed`: everything the workload
/// needs before its first run, including memory sizing. HPT2 files go
/// to `work_dir`.
///
/// # Errors
///
/// I/O errors recording or mapping the HPT2 files.
pub fn prepare(id: WorkloadId, seed: u64, work_dir: &Path) -> std::io::Result<Prepared> {
    prepare_with(id, seed, work_dir, &profile())
}

/// [`prepare`] under an explicit profile (tests use a small one).
pub fn prepare_with(
    id: WorkloadId,
    seed: u64,
    work_dir: &Path,
    profile: &SimProfile,
) -> std::io::Result<Prepared> {
    let t0 = Instant::now();
    let apps: &[AppId] = match id {
        WorkloadId::Bfs20Native => &[AppId::Bfs],
        WorkloadId::Virt2Vm => &[AppId::Canneal, AppId::Omnetpp],
        WorkloadId::Frag90Mmap => &[AppId::Xalancbmk, AppId::Dedup],
    };
    let generated: Vec<AnyWorkload> = apps
        .iter()
        .map(|&app| instantiate(app, Dataset::Kronecker, profile.workloads, seed))
        .collect();
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut files = Vec::new();
    let inputs: Vec<Input> = if id == WorkloadId::Frag90Mmap {
        std::fs::create_dir_all(work_dir)?;
        let mut mapped = Vec::new();
        for (pid, w) in generated.iter().enumerate() {
            // Unique per set-up: a live mapping must never be truncated
            // by a later set-up of the same process.
            let path = work_dir.join(format!(
                "{}-{seed}-{pid}-{}-{}.hpt2",
                id.name(),
                std::process::id(),
                SETUPS.fetch_add(1, Ordering::Relaxed)
            ));
            files.push(path.clone());
            mapped.push(Input::Mapped(record_and_map(w, &path)?));
        }
        mapped
    } else {
        generated.into_iter().map(Input::Generated).collect()
    };
    let record_s = t1.elapsed().as_secs_f64();

    let footprint: u64 = inputs.iter().map(|i| i.workload().footprint_bytes()).sum();
    let system = profile.clone().sized_for(footprint).system;
    let cap = profile.max_accesses_per_core;
    let pcc = PolicyChoice::pcc_default();
    let legs = match id {
        // Run like `hpsim`, but over the full trace: the 4 KiB baseline,
        // then the paper's default PCC configuration.
        WorkloadId::Bfs20Native => vec![
            LegSpec {
                label: "base-4k",
                system: system.clone(),
                policy: PolicyChoice::BasePages,
                frag: None,
                degradation: None,
                audit: false,
                ledger: false,
                nested: None,
                max_accesses_per_core: None,
            },
            LegSpec {
                label: "pcc",
                system,
                policy: pcc,
                frag: None,
                degradation: None,
                audit: false,
                ledger: false,
                nested: None,
                max_accesses_per_core: None,
            },
        ],
        WorkloadId::Virt2Vm => vec![LegSpec {
            label: "pcc-nested-both",
            system,
            policy: pcc,
            frag: None,
            degradation: None,
            audit: false,
            ledger: false,
            nested: Some(NestedConfig::typical()),
            max_accesses_per_core: cap,
        }],
        WorkloadId::Frag90Mmap => vec![LegSpec {
            label: "pcc-demote-frag90",
            system,
            policy: PolicyChoice::Pcc {
                selection: PromotionPolicyKind::HighestFrequency,
                demotion: true,
                bias: Vec::new(),
            },
            frag: Some((90, derive_seed(seed, "frag"))),
            degradation: Some(DegradationConfig::default()),
            audit: true,
            ledger: true,
            nested: None,
            max_accesses_per_core: cap,
        }],
    };
    Ok(Prepared {
        inputs,
        legs,
        generate_s,
        record_s,
        files,
    })
}
