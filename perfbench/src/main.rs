//! The hpage benchmark: runs one named workload from a seed, checks the
//! simulator's outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bfs20_native --seed 7 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` runs the traced per-layer replay instead. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are a human-readable
//! summary and one JSON record per run, each carrying the manifest.

mod calib;
mod host;
mod replay;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;
use std::time::{Duration, Instant};

use hpage_sim::SimReport;
use hpage_types::HpageError;

use calib::Calibrator;
use host::Manifest;
use replay::{replay, ReplayReport};
use spans::{clock_read_ns, HostClock, Kind, SpanBook};
use stats::{fnv1a, lower_quartile, median, summary_line, tail_percentile, OpTally, RunOutcome};
use workload::{prepare, Prepared, WorkloadId};

const USAGE: &str = "usage: perfbench --workload <bfs20_native|virt_2vm|frag90_mmap> \
--seed <n> --seconds <n> --trace <0|1>";

/// An untraced run times set-up in batches of back-to-back set-ups
/// lasting at least [`SETUP_BATCH_S`] each: one set-up for every
/// workload but the microsecond-scale synthetic one, whose batches also
/// time the tear-down of all but their last set-up. It times at least
/// [`SETUP_MIN_BATCHES`] batches, and more until [`SETUP_MIN_S`] have
/// been spent; `setup_s` is the median batch's CPU time per set-up in
/// reference seconds (see [`calib`]).
const SETUP_BATCH_S: f64 = 0.01;
const SETUP_MIN_BATCHES: usize = 3;
const SETUP_MIN_S: f64 = 0.5;

/// Fewest repetitions of the workload's legs in an untraced run, so the
/// determinism check always has a second run to compare.
const MIN_REPS: usize = 2;

/// How far the replay's accesses, walks, walk references and
/// promotions may differ from the engine's.
const REPLAY_TOLERANCE: f64 = 0.01;

/// How far the sum of span self times (plus clock overhead) may differ
/// from the traced replay's wall time.
const SPAN_TOLERANCE: f64 = 0.05;

/// Simulation threads of the untraced runs. Two threads on a shared
/// 2-vCPU host need both vCPUs at every barrier round, so any stall on
/// either one stalls the run: `virt_2vm` at 2 threads measured a
/// quartile spread of 0.45 across seeds, against 0.12–0.22 for
/// single-threaded runs. The traced run measures the engine at 2
/// threads instead (`sim.*`).
const E2E_SIM_THREADS: usize = 1;

/// Where HPT2 recordings are written, relative to the checkout.
const WORK_DIR: &str = "perfbench/work";

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = match value.parse::<u64>() {
                    Ok(s @ 1..=3600) => Some(s),
                    _ => usage("--seconds must be 1..=3600"),
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Escapes `s` as a JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", js(k), num(*v), js(u))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Result context shared by every record line.
struct Context {
    manifest: Manifest,
    workload: WorkloadId,
    seed: u64,
    traced: bool,
}

impl Context {
    fn manifest_json(&self) -> String {
        let m = &self.manifest;
        format!(
            "{{\"git_rev\": {}, \"git_dirty\": {}, \"source_hash\": \"{:016x}\", \
\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}, \"profile\": \"scaled\", \
\"workload\": {}, \"seed\": {}, \"traced\": {}}}",
            js(&m.git_rev),
            m.git_dirty.map_or("null".into(), |d| d.to_string()),
            m.source_hash,
            js(&m.cpu_model),
            m.nproc,
            js(&m.rustc),
            js(self.workload.name()),
            self.seed,
            self.traced
        )
    }

    fn record(&self, run_index: usize, kind: &str, fields: &str) {
        println!(
            "{{\"record\": {}, \"run_index\": {run_index}, \"manifest\": {}, {fields}}}",
            js(kind),
            self.manifest_json()
        );
    }
}

/// Digest of what a run computed: every counter, the promotion
/// schedule, and the audit findings.
fn digest(r: &SimReport) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}|{:?}|{:?}",
        r.aggregate,
        r.per_process,
        r.huge_pages_at_end,
        r.promotion_failures,
        r.schedule,
        r.audit_violations
    );
    fnv1a(text.as_bytes())
}

fn outcome(result: &Result<SimReport, HpageError>, audited: bool) -> RunOutcome {
    match result {
        Ok(r) => RunOutcome {
            errored: false,
            digest: digest(r),
            audited_intervals: if audited {
                r.interval_series.len() as u64
            } else {
                0
            },
            violation_intervals: r.audit_violations.iter().map(|(i, _)| *i).collect(),
        },
        Err(_) => RunOutcome {
            errored: true,
            digest: 0,
            audited_intervals: 0,
            violation_intervals: Default::default(),
        },
    }
}

/// The variant name of an audit violation.
fn violation_kind(v: &impl std::fmt::Debug) -> String {
    format!("{v:?}")
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect()
}

/// Modelled cycles per access of a run under the profile's timing.
fn cpa(r: &SimReport, prepared: &Prepared, leg: usize) -> f64 {
    let timing = prepared.legs[leg].system.timing;
    r.aggregate.cycles(&timing) / r.aggregate.accesses.max(1) as f64
}

fn setup(args: &Args) -> Prepared {
    prepare(args.workload, args.seed, Path::new(WORK_DIR)).unwrap_or_else(|e| {
        eprintln!("perfbench: set-up failed: {e}");
        exit(1)
    })
}

/// Everything a run reports at its end.
struct Outcome {
    correct: bool,
    tally: OpTally,
    metrics: Metrics,
}

/// The untraced run: time the set-up (see [`SETUP_BATCH_S`]), then
/// repeat the workload's legs for `seconds`, checking every repetition
/// against the first. The calibration kernel runs between every two
/// timed steps, so each step's CPU time is scaled by the host's speed
/// on both sides of it.
fn end_to_end(args: &Args, ctx: &Context) -> Outcome {
    let mut cal = Calibrator::new();
    // The first measurement also warms the kernel's memory and code.
    cal.measure();
    let mut cal_prev = cal.measure();
    let mut setup_samples: Vec<f64> = Vec::new();
    let mut setup_raw: Vec<f64> = Vec::new();
    let mut spent = 0.0;
    let mut prepared = None;
    while setup_samples.len() < SETUP_MIN_BATCHES || spent < SETUP_MIN_S {
        // The previous batch's last set-up is torn down outside the
        // timed region; within a batch, each set-up but the last is.
        drop(prepared.take());
        let t0 = Instant::now();
        let c0 = host::cpu_s();
        let mut count = 0u32;
        loop {
            let p = setup(args);
            count += 1;
            if t0.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                prepared = Some(p);
                break;
            }
        }
        let cpu = host::cpu_s() - c0;
        spent += t0.elapsed().as_secs_f64();
        let cal_next = cal.measure();
        setup_raw.push(cpu / f64::from(count));
        setup_samples.push(Calibrator::to_reference(cpu, cal_prev, cal_next) / f64::from(count));
        cal_prev = cal_next;
    }
    let prepared = prepared.expect("set up at least once");
    let specs = prepared.specs();
    let audited = prepared.legs.iter().any(|l| l.audit);
    let cpa_leg = prepared.legs.len() - 1;

    let mut tally = OpTally::default();
    let mut correct = true;
    let mut references: Vec<Option<u64>> = vec![None; prepared.legs.len()];
    let mut cpas: Vec<f64> = Vec::new();
    let mut rep_rates = Vec::new();
    // Per leg: accesses of one run, and the wall time and reference
    // time of every run.
    let mut leg_accesses = vec![0u64; prepared.legs.len()];
    let mut leg_walls: Vec<Vec<f64>> = vec![Vec::new(); prepared.legs.len()];
    let mut leg_refs: Vec<Vec<f64>> = vec![Vec::new(); prepared.legs.len()];
    let mut violations: BTreeMap<String, usize> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rep = 0usize;
    while rep < MIN_REPS || Instant::now() < deadline {
        let (mut accesses, mut rep_ref_s) = (0u64, 0f64);
        for (li, leg) in prepared.legs.iter().enumerate() {
            let sim = leg.simulation(E2E_SIM_THREADS);
            let c0 = host::cpu_s();
            let t0 = Instant::now();
            let result = sim.try_run(&specs);
            let took = t0.elapsed().as_secs_f64();
            let cpu = host::cpu_s() - c0;
            let cal_next = cal.measure();
            let ref_s = Calibrator::to_reference(cpu, cal_prev, cal_next);
            let cal_before = std::mem::replace(&mut cal_prev, cal_next);
            let out = outcome(&result, audited);
            tally.add(&out, references[li]);
            references[li].get_or_insert(out.digest);
            match &result {
                Ok(r) => {
                    accesses += r.aggregate.accesses;
                    rep_ref_s += ref_s;
                    leg_accesses[li] = r.aggregate.accesses;
                    leg_walls[li].push(took);
                    leg_refs[li].push(ref_s);
                    for (_, v) in &r.audit_violations {
                        *violations.entry(violation_kind(v)).or_insert(0) += 1;
                    }
                    let leg_cpa = cpa(r, &prepared, li);
                    if li == cpa_leg {
                        if cpas.first().is_some_and(|&c| c != leg_cpa) {
                            eprintln!("perfbench: sim_cpa changed between runs of one seed");
                            correct = false;
                        }
                        cpas.push(leg_cpa);
                    }
                    ctx.record(
                        rep,
                        "run",
                        &format!(
                            "\"leg\": {}, \"accesses\": {}, \"wall_s\": {}, \"cpu_s\": {}, \"calib_s\": [{}, {}], \
\"ref_s\": {}, \"sim_cpa\": {}, \
\"digest\": \"{:016x}\", \"audit_violations\": {}, \"violation_intervals\": {}",
                            js(leg.label),
                            r.aggregate.accesses,
                            num(took),
                            num(cpu),
                            num(cal_before),
                            num(cal_next),
                            num(ref_s),
                            num(leg_cpa),
                            out.digest,
                            r.audit_violations.len(),
                            out.violation_intervals.len()
                        ),
                    );
                }
                Err(e) => {
                    eprintln!("perfbench: {} run failed: {e}", leg.label);
                    ctx.record(
                        rep,
                        "run",
                        &format!(
                            "\"leg\": {}, \"error\": {}",
                            js(leg.label),
                            js(&e.to_string())
                        ),
                    );
                }
            }
        }
        if rep_ref_s > 0.0 {
            rep_rates.push(accesses as f64 / rep_ref_s);
        }
        rep += 1;
    }
    if tally.digest_mismatches > 0 {
        eprintln!(
            "perfbench: {} run(s) computed different counters than the first run of the seed",
            tally.digest_mismatches
        );
        correct = false;
    }
    if cpas.is_empty() || leg_walls.iter().any(Vec::is_empty) {
        eprintln!("perfbench: a leg never completed");
        exit(1);
    }
    // Each leg's lower-quartile run in reference seconds (see `calib`):
    // other tenants of a shared host only add time to a deterministic
    // run, and the quartile, unlike the fastest run, also discounts the
    // rare run whose neighbouring calibrations were slowed. The host's
    // unscaled speed, from each leg's fastest wall time, is printed
    // beside it.
    let accesses: u64 = leg_accesses.iter().sum();
    let ref_s: f64 = leg_refs.iter().map(|r| lower_quartile(r)).sum();
    let accesses_per_s = accesses as f64 / ref_s;
    let fastest: f64 = leg_walls
        .iter()
        .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    let peak = host::peak_rss_mb();
    println!(
        "{} on seed {}: {rep} repetitions; host times are scaled to the reference host",
        args.workload.name(),
        args.seed
    );
    println!(
        "{}  host speed {:.6e} (fastest wall time)",
        summary_line("accesses_per_s", "1/s", &rep_rates),
        accesses as f64 / fastest
    );
    println!(
        "{}  host speed {:.6e} s (median CPU time)",
        summary_line("setup_s", "s", &setup_samples),
        median(&setup_raw)
    );
    println!("{}", summary_line("peak_rss_mb", "MiB", &[peak]));
    println!("{}", summary_line("sim_cpa", "cycles", &cpas));
    let kinds: Vec<String> = violations.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!(
        "failed_ops_share   ratio  {:.6} ({} of {} operations failed: {} audited intervals with \
violations [{}], {} counter-digest mismatches)",
        tally.failed_share(),
        tally.failed,
        tally.attempted,
        tally.violation_intervals,
        kinds.join(", "),
        tally.digest_mismatches
    );
    let mut metrics = Metrics::default();
    metrics.set("accesses_per_s", accesses_per_s, "1/s");
    metrics.set("setup_s", median(&setup_samples), "s");
    metrics.set("peak_rss_mb", peak, "MiB");
    metrics.set("sim_cpa", cpas[0], "cycles");
    ctx.record(
        rep,
        "summary",
        &format!(
            "\"failed_ops_share\": {}, \"audit_violations\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
            num(tally.failed_share()),
            violations
                .iter()
                .map(|(k, n)| format!("{}: {n}", js(k)))
                .collect::<Vec<_>>()
                .join(", "),
            tally.attempted,
            tally.failed,
            metrics.json()
        ),
    );
    Outcome {
        correct,
        tally,
        metrics,
    }
}

/// Within `tol` of `reference`, relatively.
fn close(value: u64, reference: u64, tol: f64) -> bool {
    (value as f64 - reference as f64).abs() <= tol * (reference as f64).max(1.0)
}

/// Sums of per-leg figures in the traced run.
#[derive(Default)]
struct Traced {
    /// Engine wall time at 1 simulation thread.
    engine_s: f64,
    /// Engine wall time at 2 simulation threads (`getrusage` around it).
    engine_2t_s: f64,
    user_s: f64,
    sys_s: f64,
    replay_off_s: f64,
    replay_on_s: f64,
    self_ns: [u64; spans::KINDS],
    overhead_ns: u64,
    span_total_ns: u64,
    interval_ns: Vec<u64>,
    trace_records: u64,
    tlb_lookups: u64,
    l1_hits: u64,
    l2_hits: u64,
    shootdown_entries: u64,
    walks: u64,
    walk_levels: u64,
    accesses: u64,
    pcc_updates: u64,
    pcc_hits: u64,
    pcc_filtered: u64,
    pcc_evictions: u64,
    intervals: u64,
    faults: u64,
    promotions: u64,
    host_promotions: u64,
    promotion_failures: u64,
    pages_migrated: u64,
    demotions: u64,
    violations: u64,
    prediction_accuracy: Option<f64>,
}

impl Traced {
    fn add_replay(&mut self, r: &ReplayReport, book: &SpanBook<HostClock>) {
        for (i, k) in Kind::ALL.iter().enumerate() {
            self.self_ns[i] += book.self_ns(*k);
        }
        self.overhead_ns += book.overhead_ns();
        self.span_total_ns += book.total_ns();
        self.interval_ns.extend(&r.interval_ns);
        self.trace_records += r.trace_records;
        self.tlb_lookups += r.tlb.accesses;
        self.l1_hits += r.tlb.l1_hits;
        self.l2_hits += r.tlb.l2_hits;
        self.shootdown_entries += r.shootdown_entries;
        let a = &r.aggregate;
        self.walks += a.walks;
        self.walk_levels += a.walk_levels;
        self.accesses += a.accesses;
        self.pcc_updates += r.pcc.walks_reported;
        self.pcc_hits += r.pcc.hits;
        self.pcc_filtered += r.pcc.cold_filtered;
        self.pcc_evictions += r.pcc.evictions;
        self.intervals += r.intervals;
        self.faults += a.faults_base + a.faults_huge;
        self.promotions += a.promotions;
        self.host_promotions += a.host_promotions;
        self.promotion_failures += r.promotion_failures;
        self.pages_migrated += a.pages_migrated;
        self.demotions += a.demotions;
        self.violations += r.violations;
        if r.prediction_accuracy.is_some() {
            self.prediction_accuracy = r.prediction_accuracy;
        }
    }

    fn busy_s(&self, kinds: &[Kind]) -> f64 {
        kinds.iter().map(|k| self.self_ns[*k as usize]).sum::<u64>() as f64 * 1e-9
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: per leg, the engine at both thread counts, then the
/// replay with spans off and on; then the modelled baseline.
fn traced(args: &Args, ctx: &Context) -> Outcome {
    let prepared = setup(args);
    let specs = prepared.specs();
    let workloads = prepared.workloads();
    let audited = prepared.legs.iter().any(|l| l.audit);
    let read_cost = clock_read_ns(&mut HostClock::new());
    let mut t = Traced::default();
    let mut tally = OpTally::default();
    let mut correct = true;
    let mut engine_reports = Vec::new();

    for (li, leg) in prepared.legs.iter().enumerate() {
        let t0 = Instant::now();
        let result = leg.simulation(1).try_run(&specs);
        t.engine_s += t0.elapsed().as_secs_f64();
        let out = outcome(&result, audited);
        tally.add(&out, None);
        let (u0, s0) = host::cpu_times();
        let t1 = Instant::now();
        let sharded = leg.simulation(2).try_run(&specs);
        t.engine_2t_s += t1.elapsed().as_secs_f64();
        let (u1, s1) = host::cpu_times();
        t.user_s += u1 - u0;
        t.sys_s += s1 - s0;
        tally.add(&outcome(&sharded, audited), Some(out.digest));
        let report = match (result, sharded) {
            (Ok(r), Ok(o)) => {
                if r != o {
                    eprintln!(
                        "perfbench: {} reports differ at 1 and 2 simulation threads",
                        leg.label
                    );
                    correct = false;
                }
                r
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench: {} run failed: {e}", leg.label);
                return Outcome {
                    correct: false,
                    tally,
                    metrics: Metrics::default(),
                };
            }
        };

        let mut off = SpanBook::new(HostClock::new(), false, read_cost);
        let t2 = Instant::now();
        let replay_off = replay(leg, &workloads, &mut off);
        t.replay_off_s += t2.elapsed().as_secs_f64();
        let mut book = SpanBook::new(HostClock::new(), true, read_cost);
        let t3 = Instant::now();
        let replay_on = replay(leg, &workloads, &mut book);
        let on_s = t3.elapsed().as_secs_f64();
        t.replay_on_s += on_s;
        let (replay_off, replay_on) = match (replay_off, replay_on) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench: {} replay failed: {e}", leg.label);
                return Outcome {
                    correct: false,
                    tally,
                    metrics: Metrics::default(),
                };
            }
        };
        let (e, r) = (&report.aggregate, &replay_on.aggregate);
        let matches = close(r.accesses, e.accesses, REPLAY_TOLERANCE)
            && close(r.walks, e.walks, REPLAY_TOLERANCE)
            && close(r.walk_levels, e.walk_levels, REPLAY_TOLERANCE)
            && close(r.promotions, e.promotions, REPLAY_TOLERANCE);
        if !matches || replay_off.aggregate != replay_on.aggregate {
            eprintln!(
                "perfbench: {} replay counters diverge from the engine: replay {r:?} engine {e:?}",
                leg.label
            );
            correct = false;
        }
        let coverage = book.total_ns() as f64 * 1e-9 / on_s;
        if (coverage - 1.0).abs() > SPAN_TOLERANCE {
            eprintln!(
                "perfbench: {} span self times cover {:.1}% of the traced wall time",
                leg.label,
                coverage * 100.0
            );
            correct = false;
        }
        ctx.record(
            li,
            "traced_leg",
            &format!(
                "\"leg\": {}, \"engine_accesses\": {}, \"replay_accesses\": {}, \"engine_walks\": {}, \
\"replay_walks\": {}, \"engine_walk_levels\": {}, \"replay_walk_levels\": {}, \
\"engine_promotions\": {}, \"replay_promotions\": {}, \"exact\": {}, \"span_coverage\": {}",
                js(leg.label),
                e.accesses,
                r.accesses,
                e.walks,
                r.walks,
                e.walk_levels,
                r.walk_levels,
                e.promotions,
                r.promotions,
                report.aggregate == replay_on.aggregate,
                num(coverage)
            ),
        );
        t.add_replay(&replay_on, &book);
        engine_reports.push(report);
    }

    // The modelled baseline: bfs20_native's own 4 KiB leg, otherwise a
    // 4 KiB run of the same machine and inputs.
    let last = prepared.legs.len() - 1;
    let base_counters = if prepared.legs.len() > 1 {
        engine_reports[0].aggregate
    } else {
        match prepared.legs[last].baseline().simulation(1).try_run(&specs) {
            Ok(r) => r.aggregate,
            Err(e) => {
                eprintln!("perfbench: baseline run failed: {e}");
                correct = false;
                engine_reports[last].aggregate
            }
        }
    };
    let timing = prepared.legs[last].system.timing;
    let run_counters = &engine_reports[last].aggregate;

    let intervals_ms: Vec<f64> = t.interval_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    let interval_median = if intervals_ms.is_empty() {
        0.0
    } else {
        median(&intervals_ms)
    };
    let interval_tail = tail_percentile(&intervals_ms);
    let os_kinds = [Kind::Os, Kind::OsFault, Kind::OsAudit, Kind::OsLedger];
    let mut m = Metrics::default();
    let busy = |k: Kind| t.busy_s(&[k]);
    m.set("trace.busy_s", busy(Kind::Trace), "s");
    m.set(
        "trace.ns_per_record",
        busy(Kind::Trace) * 1e9 / t.trace_records.max(1) as f64,
        "ns",
    );
    m.set("trace.records", t.trace_records as f64, "count");
    m.set("setup.graph_s", prepared.generate_s, "s");
    m.set("setup.record_s", prepared.record_s, "s");
    m.set("tlb.busy_s", busy(Kind::Tlb), "s");
    m.set(
        "tlb.ns_per_lookup",
        busy(Kind::Tlb) * 1e9 / t.tlb_lookups.max(1) as f64,
        "ns",
    );
    m.set("tlb.lookups", t.tlb_lookups as f64, "count");
    m.set("tlb.l1_hit_ratio", ratio(t.l1_hits, t.tlb_lookups), "ratio");
    m.set("tlb.l2_hit_ratio", ratio(t.l2_hits, t.tlb_lookups), "ratio");
    m.set("tlb.shootdown_entries", t.shootdown_entries as f64, "count");
    m.set("walk.busy_s", busy(Kind::Walk), "s");
    m.set(
        "walk.ns_per_walk",
        busy(Kind::Walk) * 1e9 / t.walks.max(1) as f64,
        "ns",
    );
    m.set("walk.walks", t.walks as f64, "count");
    m.set("walk.refs_per_walk", ratio(t.walk_levels, t.walks), "refs");
    m.set(
        "walk.refs_per_access",
        ratio(t.walk_levels, t.accesses),
        "refs",
    );
    m.set("pcc.busy_s", busy(Kind::Pcc), "s");
    m.set(
        "pcc.ns_per_update",
        busy(Kind::Pcc) * 1e9 / t.pcc_updates.max(1) as f64,
        "ns",
    );
    m.set("pcc.updates", t.pcc_updates as f64, "count");
    m.set("pcc.hit_ratio", ratio(t.pcc_hits, t.pcc_updates), "ratio");
    m.set(
        "pcc.filtered_ratio",
        ratio(t.pcc_filtered, t.pcc_updates),
        "ratio",
    );
    m.set("pcc.evictions", t.pcc_evictions as f64, "count");
    m.set("os.busy_s", t.busy_s(&os_kinds), "s");
    m.set("os.intervals", t.intervals as f64, "count");
    m.set("os.interval_ms", interval_median, "ms");
    m.set(
        "os.interval_ms_tail",
        interval_tail.map_or(interval_median, |(_, v)| v),
        "ms",
    );
    m.set("os.faults", t.faults as f64, "count");
    m.set("os.fault_busy_s", busy(Kind::OsFault), "s");
    m.set("os.promotions", t.promotions as f64, "count");
    m.set("os.host_promotions", t.host_promotions as f64, "count");
    m.set(
        "os.promotion_success_ratio",
        ratio(
            t.promotions + t.host_promotions,
            t.promotions + t.host_promotions + t.promotion_failures,
        ),
        "ratio",
    );
    m.set("os.pages_migrated", t.pages_migrated as f64, "count");
    m.set("os.demotions", t.demotions as f64, "count");
    m.set("os.audit_busy_s", busy(Kind::OsAudit), "s");
    m.set("os.audit_violations", t.violations as f64, "count");
    m.set("os.ledger_busy_s", busy(Kind::OsLedger), "s");
    m.set(
        "os.prediction_accuracy",
        t.prediction_accuracy.unwrap_or(0.0),
        "ratio",
    );
    m.set("sim.loop_busy_s", busy(Kind::Sim), "s");
    m.set("sim.user_s", t.user_s, "s");
    m.set("sim.sys_s", t.sys_s, "s");
    m.set(
        "sim.cpu_util",
        (t.user_s + t.sys_s) / t.engine_2t_s,
        "ratio",
    );
    m.set("sim.engine_gap_s", t.engine_s - t.replay_off_s, "s");
    m.set("sim.thread_speedup", t.engine_s / t.engine_2t_s, "x");
    m.set(
        "model.base_cpa",
        base_counters.cycles(&timing) / base_counters.accesses.max(1) as f64,
        "cycles",
    );
    m.set(
        "model.speedup",
        run_counters.speedup_over(&base_counters, &timing),
        "x",
    );
    m.set(
        "model.translation_overhead",
        run_counters.translation_overhead(&timing),
        "ratio",
    );
    m.set(
        "bench.trace_overhead_s",
        t.replay_on_s - t.replay_off_s,
        "s",
    );
    m.set("bench.clock_overhead_s", t.overhead_ns as f64 * 1e-9, "s");
    m.set(
        "bench.span_coverage",
        t.span_total_ns as f64 * 1e-9 / t.replay_on_s,
        "ratio",
    );

    println!(
        "{} on seed {}: traced replay of {} leg(s), clock read {read_cost} ns",
        args.workload.name(),
        args.seed,
        prepared.legs.len()
    );
    println!(
        "engine {:.3} s at 1 simulation thread, {:.3} s at 2; replay {:.3} s untraced, {:.3} s traced",
        t.engine_s, t.engine_2t_s, t.replay_off_s, t.replay_on_s
    );
    match interval_tail {
        Some((p, v)) => println!(
            "os.interval_ms     ms     n={} median {interval_median:.6}  p{p} {v:.6}",
            intervals_ms.len()
        ),
        None => println!(
            "os.interval_ms     ms     n={} median {interval_median:.6}  no tail percentile",
            intervals_ms.len()
        ),
    }
    for (name, (v, unit)) in &m.0 {
        println!("{name:<28} {unit:<6} {v:.6}");
    }
    ctx.record(
        0,
        "summary",
        &format!(
            "\"attempted\": {}, \"failed\": {}, \"metrics\": {}",
            tally.attempted,
            tally.failed,
            m.json()
        ),
    );
    Outcome {
        correct,
        tally,
        metrics: m,
    }
}

fn main() {
    let args = parse_args();
    let ctx = Context {
        manifest: Manifest::collect(),
        workload: args.workload,
        seed: args.seed,
        traced: args.trace,
    };
    let out = if args.trace {
        traced(&args, &ctx)
    } else {
        end_to_end(&args, &ctx)
    };
    if out.metrics.0.is_empty() {
        exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.tally.attempted.max(1),
        out.tally.failed,
        out.metrics.json()
    );
}
