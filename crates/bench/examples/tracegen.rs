//! Scratch profiling harness: where does an end-to-end simulated access go?
use hpage_sim::{PolicyChoice, ProcessSpec, SimProfile, Simulation};
use hpage_trace::{
    instantiate, AppId, Dataset, RecordedWorkload, SynthScale, Workload, WorkloadScale,
};
use std::time::Instant;

fn main() {
    let scale = WorkloadScale {
        graph_scale: 18,
        synth: SynthScale::BENCH,
        dbg_sorted: false,
    };
    let w = instantiate(AppId::Bfs, Dataset::Kronecker, scale, 0xC0FFEE);
    const N: usize = 2_000_000;

    // 1. Trace generation alone (stream path).
    let mut s = w.thread_stream(0, 1);
    let t0 = Instant::now();
    let mut total = 0usize;
    while total < N {
        let got = s.next_window(256.min(N - total)).len();
        if got == 0 {
            break;
        }
        total += got;
    }
    let dt = t0.elapsed();
    println!(
        "tracegen: {total} accesses in {dt:?} = {:.1}M/s ({:.1} ns/access)",
        total as f64 / dt.as_secs_f64() / 1e6,
        dt.as_nanos() as f64 / total as f64
    );

    // 2. Full e2e on the live workload.
    let profile = SimProfile::scaled().sized_for(w.footprint_bytes());
    let run_live = || {
        Simulation::new(profile.system.clone(), PolicyChoice::pcc_default())
            .with_max_accesses_per_core(N as u64)
            .run(&[ProcessSpec::new(&w)])
    };
    run_live(); // warm
    let t0 = Instant::now();
    let r = run_live();
    let dt = t0.elapsed();
    println!(
        "e2e live: {} accesses in {dt:?} = {:.1}M/s ({:.1} ns/access)",
        r.aggregate.accesses,
        r.aggregate.accesses as f64 / dt.as_secs_f64() / 1e6,
        dt.as_nanos() as f64 / r.aggregate.accesses as f64
    );

    // 3. e2e on a pre-recorded trace (sim loop without generation).
    let mut accesses = Vec::with_capacity(N);
    {
        let mut s = w.thread_stream(0, 1);
        while accesses.len() < N {
            let window = s.next_window(N - accesses.len());
            if window.is_empty() {
                break;
            }
            accesses.extend_from_slice(window);
        }
    }
    let rec = RecordedWorkload::new("bfs18-recorded", accesses);
    let run_rec = || {
        Simulation::new(profile.system.clone(), PolicyChoice::pcc_default())
            .with_max_accesses_per_core(N as u64)
            .run(&[ProcessSpec::new(&rec)])
    };
    run_rec(); // warm
    let t0 = Instant::now();
    let r = run_rec();
    let dt = t0.elapsed();
    println!(
        "e2e recorded: {} accesses in {dt:?} = {:.1}M/s ({:.1} ns/access)",
        r.aggregate.accesses,
        r.aggregate.accesses as f64 / dt.as_secs_f64() / 1e6,
        dt.as_nanos() as f64 / r.aggregate.accesses as f64
    );
    println!("counters: {:?}", r.aggregate);

    // 4. Hierarchy-only replay: the recorded trace through one core's
    //    TLB hierarchy with an identity fill on miss.
    let accesses: Vec<hpage_types::MemoryAccess> = rec.trace().collect();
    let mut tlb = hpage_tlb::TlbHierarchy::new(profile.system.tlb);
    let t0 = Instant::now();
    let mut walks = 0u64;
    for a in &accesses {
        match tlb.lookup(a.addr) {
            hpage_tlb::TlbOutcome::L1Hit(_) | hpage_tlb::TlbOutcome::L2Hit(_) => {}
            hpage_tlb::TlbOutcome::Miss => {
                walks += 1;
                let vpn = a.addr.vpn(hpage_types::PageSize::Base4K);
                tlb.fill(hpage_tlb::Translation {
                    vpn,
                    pfn: hpage_types::Pfn::new(vpn.index(), hpage_types::PageSize::Base4K),
                });
            }
        }
    }
    let dt = t0.elapsed();
    println!(
        "tlb-only replay: {} accesses ({walks} walks) in {dt:?} = {:.1} ns/access",
        accesses.len(),
        dt.as_nanos() as f64 / accesses.len() as f64
    );

    // 5. PWC reference-rate sweep: every fig1 app under the scaled
    //    profile with the TLB-proportional PWC geometry (paper band for
    //    effective PWCs: 1.1-1.4 mean references/walk).
    for app in AppId::ALL {
        let pw = instantiate(app, Dataset::Kronecker, profile.workloads, 0xC0FFEE);
        let mut p = profile.clone().sized_for(pw.footprint_bytes());
        p.system.pwc = Some(hpage_types::PwcConfig::scaled_to_tlb(
            p.system.tlb.l2.entries,
        ));
        let r = Simulation::new(p.system.clone(), PolicyChoice::BasePages)
            .with_max_accesses_per_core(2_000_000)
            .run(&[ProcessSpec::new(&pw)]);
        println!(
            "pwc {:?}: walks={} walk_levels={} mean={:.3}",
            app,
            r.aggregate.walks,
            r.aggregate.walk_levels,
            r.aggregate.walk_levels as f64 / r.aggregate.walks as f64
        );
    }
}
