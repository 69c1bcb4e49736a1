//! Hot-path baselines: the component costs every simulated access pays
//! (TLB lookup, page-table walk, PCC update) and end-to-end simulator
//! throughput on a scale-18 BFS workload.
//!
//! Unlike the figure benches, this suite persists its measurements:
//! results are written to `BENCH_hotpath.json` (override with
//! `HPAGE_BENCH_OUT`) so the repository accumulates a throughput
//! trajectory across PRs.
//!
//! Environment:
//! - `HPAGE_BENCH_SMOKE=1` — CI mode: fewer samples, shorter window.
//! - `HPAGE_BENCH_OUT=<path>` — where to write the JSON artifact.
//! - `HPAGE_BENCH_BASELINE=<path>` — committed baseline to compare
//!   against; prints a (non-blocking) warning on a >20% end-to-end
//!   throughput drop.

use criterion::{Criterion, Throughput};
use hpage_obs::json::num;
use hpage_pcc::Pcc;
use hpage_sim::{PolicyChoice, ProcessSpec, SimProfile, Simulation};
use hpage_tlb::{PageTable, SetAssocTlb, Translation};
use hpage_trace::{instantiate, AppId, Dataset, SynthScale, Workload, WorkloadScale};
use hpage_types::{PageSize, PccConfig, Pfn, TlbLevelConfig, VirtAddr, Vpn};
use std::hint::black_box;

/// End-to-end accesses/sec measured on the seed commit (pre hot-path
/// pass) on the reference machine, full mode — the denominator of the
/// `speedup_vs_pre_pr` field. 0.0 means "not yet recorded".
const PRE_PR_BFS18_ACCESSES_PER_S: f64 = 30_694_337.0;

fn bench(c: &mut Criterion, smoke: bool) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(if smoke { 3 } else { 10 });
    g.throughput(Throughput::Elements(1));

    // Component: single-level TLB lookup, hit path.
    g.bench_function("tlb_lookup", |b| {
        let mut tlb = SetAssocTlb::new(TlbLevelConfig::new(64, 4));
        for i in 0..64u64 {
            tlb.insert(Translation {
                vpn: Vpn::new(i, PageSize::Base4K),
                pfn: Pfn::new(i, PageSize::Base4K),
            });
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(tlb.lookup(Vpn::new(i, PageSize::Base4K)))
        });
    });

    // Component: warm 4-level page-table walk (4 KiB leaves).
    g.bench_function("page_table_walk", |b| {
        let mut pt = PageTable::new();
        for i in 0..4096u64 {
            pt.map(Vpn::new(i, PageSize::Base4K), Pfn::new(i, PageSize::Base4K))
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(pt.walk(VirtAddr::new(i << 12)).unwrap())
        });
    });

    // Component: PCC frequency update on the hit path.
    g.bench_function("pcc_record_walk", |b| {
        let mut pcc = Pcc::new(PccConfig::paper_2m(), PageSize::Huge2M);
        for i in 0..32u64 {
            pcc.record_walk(Vpn::new(i, PageSize::Huge2M), true);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 32;
            black_box(pcc.record_walk(Vpn::new(i, PageSize::Huge2M), true))
        });
    });

    // End to end: the full TLB+PCC+OS pipeline on a scale-18 BFS
    // workload (the acceptance benchmark for the hot-path pass).
    let scale = WorkloadScale {
        graph_scale: 18,
        synth: SynthScale::BENCH,
        dbg_sorted: false,
    };
    let w = instantiate(AppId::Bfs, Dataset::Kronecker, scale, 0xC0FFEE);
    let profile = SimProfile::scaled().sized_for(w.footprint_bytes());

    // Trace pipeline: HPT2 decode throughput through the mmap-backed
    // zero-copy window path — the rate a recorded trace feeds the
    // simulator, excluding simulation itself.
    let trace_records: u64 = 2_000_000;
    let trace_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("hpage-hotpath-{}.hpt2", std::process::id()));
        let file = std::fs::File::create(&p).expect("create bench trace");
        let mut wtr =
            hpage_trace::Hpt2Writer::new(std::io::BufWriter::new(file)).expect("hpt2 header");
        let mut s = w.thread_stream(0, 1);
        let mut left = trace_records;
        while left > 0 {
            let win = s.next_window(left.min(4096) as usize);
            if win.is_empty() {
                break;
            }
            left -= win.len() as u64;
            wtr.write_all(win.iter().copied()).expect("hpt2 block");
        }
        wtr.finish().expect("hpt2 trailer");
        p
    };
    let mapped = hpage_trace::MmapTrace::open("bench", &trace_path).expect("mmap bench trace");
    g.throughput(Throughput::Elements(trace_records));
    g.bench_function("hpt2_mmap_decode", |b| {
        b.iter(|| {
            let mut s = mapped.thread_stream(0, 1);
            let mut total = 0u64;
            loop {
                let win = s.next_window(4096);
                if win.is_empty() {
                    break;
                }
                total += win.len() as u64;
                black_box(win);
            }
            total
        })
    });

    // Meta-effect: streaming over the simulator's huge-page-aligned
    // working buffers (`HugeVec`, 2 MiB-aligned + MADV_HUGEPAGE) vs the
    // same traversal over a plain `Vec` — the dTLB-relief the tracing
    // buffers themselves get from THP.
    let words: usize = if smoke { 1 << 21 } else { 1 << 23 };
    let mut huge: hpage_trace::HugeVec<u64> = hpage_trace::HugeVec::with_capacity(words);
    let mut plain: Vec<u64> = Vec::with_capacity(words);
    for i in 0..words as u64 {
        huge.push(i.wrapping_mul(0x9E3779B97F4A7C15));
        plain.push(i.wrapping_mul(0x9E3779B97F4A7C15));
    }
    // Strided touch (one read per cache line) so the page-locality
    // difference, not memory bandwidth, dominates.
    let stride = 8;
    g.throughput(Throughput::Elements((words / stride) as u64));
    g.bench_function("hugevec_stream", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let s = huge.as_slice();
            let mut i = 0;
            while i < s.len() {
                acc = acc.wrapping_add(s[i]);
                i += stride;
            }
            black_box(acc)
        })
    });
    g.bench_function("vec_stream", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let mut i = 0;
            while i < plain.len() {
                acc = acc.wrapping_add(plain[i]);
                i += stride;
            }
            black_box(acc)
        })
    });
    // Same access cap in both modes: elems/s must be comparable against
    // the committed full-mode baseline (a shorter window over-weights
    // the cold pre-promotion phase and reads ~40% slow), so smoke mode
    // only trims the sample count. The cap is a fraction of the cost of
    // instantiating the scale-18 graph, which both modes pay anyway.
    let cap: u64 = 2_000_000;
    g.throughput(Throughput::Elements(cap));
    g.sample_size(if smoke { 2 } else { 5 });
    g.bench_function("bfs18_e2e", |b| {
        b.iter(|| {
            black_box(
                Simulation::new(profile.system.clone(), PolicyChoice::pcc_default())
                    .with_max_accesses_per_core(cap)
                    .run(&[ProcessSpec::new(&w)]),
            )
        })
    });
    g.finish();
    drop(mapped);
    let _ = std::fs::remove_file(&trace_path);
}

/// Serializes the captured results plus the pre-PR reference point.
fn artifact_json(c: &Criterion, mode: &str) -> String {
    let results: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"min_ns\":{},\"median_ns\":{},\"mean_ns\":{},\"elems_per_s\":{}}}",
                r.id,
                num(r.min_ns),
                num(r.median_ns),
                num(r.mean_ns),
                r.elems_per_sec.map_or("null".into(), num),
            )
        })
        .collect();
    let bfs = bfs_eps(c);
    let speedup = match bfs {
        Some(eps) if PRE_PR_BFS18_ACCESSES_PER_S > 0.0 => num(eps / PRE_PR_BFS18_ACCESSES_PER_S),
        _ => "null".into(),
    };
    format!(
        "{{\"artifact\":\"hotpath-bench\",\"mode\":\"{mode}\",\"results\":[{}],\
         \"reference\":{{\"pre_pr_bfs18_accesses_per_s\":{},\"speedup_vs_pre_pr\":{}}}}}",
        results.join(","),
        num(PRE_PR_BFS18_ACCESSES_PER_S),
        speedup,
    )
}

fn bfs_eps(c: &Criterion) -> Option<f64> {
    c.results()
        .iter()
        .find(|r| r.id == "bfs18_e2e")
        .and_then(|r| r.elems_per_sec)
}

/// Extracts `bfs18_e2e`'s `elems_per_s` from a committed artifact
/// without a JSON parser: finds the id, then the next numeric field.
fn baseline_bfs_eps(text: &str) -> Option<f64> {
    let at = text.find("\"id\":\"bfs18_e2e\"")?;
    let rest = &text[at..];
    let key = "\"elems_per_s\":";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}

fn main() {
    let smoke = std::env::var("HPAGE_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c, smoke);

    let out = std::env::var("HPAGE_BENCH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    let json = artifact_json(&c, mode);
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("hotpath: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("hotpath: results written to {out} ({mode} mode)");

    // Non-blocking regression check against a committed baseline.
    if let Ok(path) = std::env::var("HPAGE_BENCH_BASELINE") {
        match std::fs::read_to_string(&path) {
            Ok(text) => match (bfs_eps(&c), baseline_bfs_eps(&text)) {
                (Some(now), Some(then)) if now < 0.8 * then => eprintln!(
                    "hotpath: warning: bfs18_e2e throughput {now:.0} elem/s is >20% below \
                     the committed baseline {then:.0} elem/s ({path})"
                ),
                (Some(_), Some(_)) => {}
                _ => eprintln!("hotpath: warning: no bfs18_e2e datum to compare in {path}"),
            },
            Err(e) => eprintln!("hotpath: warning: cannot read baseline {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn baseline_parse() {
        let t = r#"{"results":[{"id":"x","elems_per_s":1.0},{"id":"bfs18_e2e","min_ns":3.0,"elems_per_s":2500000.5}]}"#;
        assert_eq!(super::baseline_bfs_eps(t), Some(2_500_000.5));
        assert_eq!(super::baseline_bfs_eps("{}"), None);
    }
}
