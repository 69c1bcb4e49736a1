//! The traced replay: the engine's single-threaded datapath, rebuilt
//! from each layer's public functions so that spans can sit around the
//! calls into every layer without instrumenting the engine.
//!
//! It follows the sharded engine's canonical order: rounds of up to
//! [`CHUNK`] accesses per core, truncated so the round never crosses a
//! promotion-interval boundary; page faults served in waves in core
//! order; the 2 MiB and 1 GiB PCC feeds batched per chunk; and at each
//! boundary the interval block (ledger settlement, policy, shootdowns,
//! audit, then the host block of a nested run). Each process must run
//! one thread. Fault plans, the data-cache model, victim-cache mode and
//! a nested run's host ledger are outside the replay's scope.

use hpage_os::{
    AddressSpace, Auditor, BasePagesPolicy, FaultGrant, FaultOutcome, HugePagePolicy, OsState,
    PccPolicy, PhysicalMemory, PromotionBudget, PromotionLedger, RegionWalks,
};
use hpage_pcc::{PccBank, PccStats, ReplacementPolicy};
use hpage_perf::RunCounters;
use hpage_sim::PolicyChoice;
use hpage_tlb::{
    data_gpa, HostSpace, NestedPwc, PageWalkCache, TlbHierarchy, TlbHierarchyStats, TlbOutcome,
    WalkResult,
};
use hpage_trace::{TraceStream, Workload};
use hpage_types::{
    derive_seed, CoreId, HpageError, MemoryAccess, PageSize, PromotionPolicyKind, SystemConfig,
    VirtAddr, Vpn,
};

use crate::spans::{Clock, Kind, SpanBook};
use crate::workload::LegSpec;

/// Accesses per core per round, as in the engine.
const CHUNK: u64 = 256;

/// What one replay did, per layer.
pub struct ReplayReport {
    /// Sum over processes.
    pub aggregate: RunCounters,
    /// Failed promotion attempts (guest and host).
    pub promotion_failures: u64,
    /// Audit violations found.
    pub violations: u64,
    /// Interval blocks run.
    pub intervals: u64,
    /// Wall time of each interval block, in nanoseconds (spans on only).
    pub interval_ns: Vec<u64>,
    /// TLB statistics summed over cores.
    pub tlb: TlbHierarchyStats,
    /// TLB entries flushed by shootdowns.
    pub shootdown_entries: u64,
    /// PCC statistics summed over every guest and host PCC.
    pub pcc: PccStats,
    /// Records the trace layer produced.
    pub trace_records: u64,
    /// Ledger prediction accuracy (`None` without a ledger).
    pub prediction_accuracy: Option<f64>,
}

/// Builds the promotion policy a [`PolicyChoice`] names, as the engine
/// does.
///
/// # Panics
///
/// Panics for policies the replay does not support.
fn build_policy(choice: &PolicyChoice, system: &SystemConfig) -> Box<dyn HugePagePolicy> {
    match choice {
        PolicyChoice::BasePages => Box::new(BasePagesPolicy),
        PolicyChoice::Pcc {
            selection,
            demotion,
            bias,
        } => Box::new(
            PccPolicy::new(*selection, system.regions_to_promote)
                .with_bias(bias.clone())
                .with_demotion(*demotion),
        ),
        other => panic!(
            "the replay supports base pages and PCC, not {}",
            other.label()
        ),
    }
}

/// The host half of a nested VM: its own physical memory, address
/// space, promotion policy, one-core host PCC bank and auditor.
struct HostVm {
    os: OsState,
    policy: Box<dyn HugePagePolicy>,
    bank: Option<PccBank>,
    auditor: Option<Auditor>,
}

impl HostVm {
    fn new(spec: &LegSpec, pid: usize) -> Result<HostVm, HpageError> {
        let nested = spec.nested.expect("nested leg");
        let mut phys = PhysicalMemory::new(spec.system.phys_mem_bytes * 2 + (64 << 20));
        if let Some((pct, seed)) = spec.frag {
            phys.fragment(pct, derive_seed(seed, &format!("host-frag-{pid}")));
        }
        let os = OsState::new(phys, 1, vec![0])?;
        let host_pcc = nested.placement.host_enabled();
        let policy: Box<dyn HugePagePolicy> = if host_pcc {
            Box::new(PccPolicy::new(
                PromotionPolicyKind::HighestFrequency,
                spec.system.regions_to_promote,
            ))
        } else {
            Box::new(BasePagesPolicy)
        };
        let bank = host_pcc.then(|| {
            PccBank::with_replacement(
                1,
                spec.system.pcc_2m,
                PageSize::Huge2M,
                ReplacementPolicy::default(),
            )
        });
        let auditor = spec.audit.then(|| Auditor::new(&os));
        Ok(HostVm {
            os,
            policy,
            bank,
            auditor,
        })
    }
}

/// The benchmark's [`HostSpace`]: a host walk that finds the
/// guest-physical page unmapped faults it in with a base frame, inside
/// a fault span nested in the walk span.
struct BenchHost<'a, C: Clock> {
    space: &'a mut AddressSpace,
    phys: &'a mut PhysicalMemory,
    book: &'a mut SpanBook<C>,
}

impl<C: Clock> HostSpace for BenchHost<'_, C> {
    fn walk_gpa(&mut self, gpa: VirtAddr) -> Result<WalkResult, HpageError> {
        if self.space.page_table().translate(gpa).is_none() {
            self.book.enter(Kind::OsFault);
            let faulted = self.space.fault(gpa, false, self.phys);
            self.book.exit();
            faulted?;
        }
        self.space.page_table_mut().walk(gpa)
    }
}

/// Per-core replay state.
#[derive(Default)]
struct CoreState {
    remaining: u64,
    live: bool,
    chunk_len: usize,
    pos: usize,
    in_round: bool,
    resume_walk: bool,
    pending: Option<FaultGrant>,
    counters: RunCounters,
    pcc_feed: Vec<(Vpn, bool)>,
    pcc_feed_1g: Vec<(Vpn, bool)>,
}

/// State the per-access path shares across cores.
struct Shared<'a, C: Clock> {
    book: &'a mut SpanBook<C>,
    prefer_huge: bool,
    ledger_on: bool,
    has_pcc: bool,
    has_pcc_1g: bool,
    region_walks: &'a mut RegionWalks,
    host_scratch: &'a mut Vec<WalkResult>,
}

/// Runs one core until its chunk ends (`Ok(None)`) or it page-faults
/// (`Ok(Some(wants_huge))`).
#[allow(clippy::too_many_arguments)]
fn run_core<C: Clock>(
    pid: usize,
    st: &mut CoreState,
    chunk: &[MemoryAccess],
    tlb: &mut TlbHierarchy,
    mut pwc: Option<&mut PageWalkCache>,
    mut npwc: Option<&mut NestedPwc>,
    space: &mut AddressSpace,
    mut vm: Option<&mut HostVm>,
    sh: &mut Shared<'_, C>,
) -> Result<Option<bool>, HpageError> {
    if let Some(grant) = st.pending.take() {
        sh.book.enter(Kind::OsFault);
        let installed = space.install_grant(chunk[st.pos].addr, grant);
        sh.book.exit();
        match installed? {
            FaultOutcome::Base(_) => st.counters.faults_base += 1,
            FaultOutcome::Huge(_) => st.counters.faults_huge += 1,
        }
        st.resume_walk = true;
    }
    while st.pos < st.chunk_len {
        let access = chunk[st.pos];
        if st.resume_walk {
            st.resume_walk = false;
            sh.book.enter(Kind::Walk);
        } else {
            sh.book.enter(Kind::Tlb);
            let outcome = tlb.lookup(access.addr);
            if !matches!(outcome, TlbOutcome::Miss) {
                sh.book.exit();
                st.pos += 1;
                continue;
            }
            sh.book.exit();
            sh.book.enter(Kind::Walk);
        }
        let walk = match space.page_table_mut().walk(access.addr) {
            Ok(walk) => walk,
            Err(_) => {
                sh.book.exit();
                sh.book.enter(Kind::OsFault);
                let wants_huge = space.fault_wants_huge(access.addr, sh.prefer_huge);
                sh.book.exit();
                return Ok(Some(wants_huge));
            }
        };
        let effective = if let Some(npwc) = npwc.as_deref_mut() {
            let vm = vm.as_deref_mut().expect("nested cores have a VM");
            let gpa = data_gpa(&walk, access.addr);
            let OsState { phys, spaces, .. } = &mut vm.os;
            let mut host = BenchHost {
                space: &mut spaces[0],
                phys,
                book: &mut *sh.book,
            };
            let refs = npwc.walk(
                access.addr,
                walk.levels_referenced,
                gpa,
                &mut host,
                sh.host_scratch,
            )?;
            if let Some(bank) = vm.bank.as_mut() {
                if !sh.host_scratch.is_empty() {
                    sh.book.enter(Kind::Pcc);
                    for hw in sh.host_scratch.iter() {
                        if hw.translation.size() != PageSize::Huge1G {
                            let region = hw.translation.vpn.base().vpn(PageSize::Huge2M);
                            bank.pcc_mut(CoreId(0))
                                .record_walk(region, hw.pmd_accessed_before);
                        }
                    }
                    sh.book.exit();
                }
            }
            refs
        } else {
            match pwc.as_deref_mut() {
                Some(pwc) => pwc.walk(access.addr, walk.levels_referenced),
                None => walk.levels_referenced,
            }
        };
        st.counters.walk_levels += u64::from(effective);
        sh.book.exit();
        if sh.ledger_on {
            sh.book.enter(Kind::OsLedger);
            let key = (pid as u32, access.addr.vpn(PageSize::Huge2M).index());
            *sh.region_walks.entry(key).or_insert(0) += 1;
            sh.book.exit();
        }
        sh.book.enter(Kind::Tlb);
        tlb.fill(walk.translation);
        sh.book.exit();
        if sh.has_pcc && walk.translation.size() != PageSize::Huge1G {
            st.pcc_feed
                .push((access.addr.vpn(PageSize::Huge2M), walk.pmd_accessed_before));
        }
        if sh.has_pcc_1g {
            st.pcc_feed_1g
                .push((access.addr.vpn(PageSize::Huge1G), walk.pud_accessed_before));
        }
        st.pos += 1;
    }
    st.in_round = false;
    Ok(None)
}

/// Replays `spec` over `workloads` (one single-threaded process each)
/// with spans recorded into `book`.
///
/// # Errors
///
/// Errors the layers return (out of memory, page-table failures).
pub fn replay<C: Clock>(
    spec: &LegSpec,
    workloads: &[&dyn Workload],
    book: &mut SpanBook<C>,
) -> Result<ReplayReport, HpageError> {
    assert!(
        !(spec.ledger && spec.nested.is_some()),
        "the replay does not keep a nested run's host ledger"
    );
    let sys = &spec.system;
    let n = workloads.len();
    let mut phys = PhysicalMemory::new(sys.phys_mem_bytes);
    if let Some((pct, seed)) = spec.frag {
        phys.fragment(pct, seed);
    }
    let mut os = OsState::new(phys, n as u32, (0..n).collect())?;
    let mut policy = build_policy(&spec.policy, sys);
    if let Some(cfg) = spec.degradation {
        policy.configure_degradation(cfg);
    }
    let uses_pcc = matches!(spec.policy, PolicyChoice::Pcc { .. });
    let mut bank = uses_pcc.then(|| {
        PccBank::with_replacement(
            n as u32,
            sys.pcc_2m,
            PageSize::Huge2M,
            ReplacementPolicy::default(),
        )
    });
    let mut bank_1g = match (uses_pcc, sys.pcc_1g) {
        (true, Some(cfg)) => Some(PccBank::with_replacement(
            n as u32,
            cfg,
            PageSize::Huge1G,
            ReplacementPolicy::default(),
        )),
        _ => None,
    };
    let auditor = spec.audit.then(|| Auditor::new(&os));
    let mut ledger = spec.ledger.then(PromotionLedger::new);
    let mut region_walks = RegionWalks::default();
    let mut budget = PromotionBudget::UNLIMITED;
    let mut tlbs: Vec<TlbHierarchy> = (0..n).map(|_| TlbHierarchy::new(sys.tlb)).collect();
    let mut pwcs: Vec<Option<PageWalkCache>> = (0..n)
        .map(|_| match spec.nested {
            Some(_) => None,
            None => sys
                .pwc
                .map(|c| PageWalkCache::new(c.pml4e_entries, c.pdpte_entries, c.pde_entries)),
        })
        .collect();
    let mut npwcs: Vec<Option<NestedPwc>> = (0..n)
        .map(|_| spec.nested.as_ref().map(NestedPwc::new))
        .collect();
    let mut vms: Vec<Option<HostVm>> = (0..n)
        .map(|pid| spec.nested.map(|_| HostVm::new(spec, pid)).transpose())
        .collect::<Result<_, _>>()?;
    let mut streams: Vec<Box<dyn TraceStream + Send + '_>> =
        workloads.iter().map(|w| w.thread_stream(0, 1)).collect();
    let mut cores: Vec<CoreState> = (0..n)
        .map(|_| CoreState {
            remaining: spec.max_accesses_per_core.unwrap_or(u64::MAX),
            live: true,
            ..CoreState::default()
        })
        .collect();
    let mut per_process = vec![RunCounters::default(); n];
    let mut host_scratch = Vec::new();
    let mut promotion_failures = 0u64;
    let mut violations = 0u64;
    let mut interval_ns = Vec::new();
    let mut shootdown_entries = 0u64;
    let mut trace_records = 0u64;
    let mut total = 0u64;
    let mut next_interval = sys.promotion_interval_accesses;
    let mut interval_index = 0u64;
    let mut live_count = n;

    while live_count > 0 {
        // Quotas, truncated in core order at the interval boundary.
        let mut left = next_interval - total;
        let mut round_total = 0u64;
        for (core, st) in cores.iter_mut().enumerate() {
            if !st.live {
                continue;
            }
            let quota = CHUNK.min(st.remaining).min(left);
            left -= quota;
            if quota == 0 {
                continue;
            }
            book.enter(Kind::Trace);
            let got = streams[core].next_window(quota as usize).len() as u64;
            book.exit();
            trace_records += got;
            st.chunk_len = got as usize;
            st.pos = 0;
            st.resume_walk = false;
            st.in_round = got > 0;
            st.remaining -= got;
            if got < quota || st.remaining == 0 {
                st.live = false;
                live_count -= 1;
            }
            round_total += got;
        }
        if round_total == 0 {
            continue;
        }
        // Execute, serving fault waves in core order.
        loop {
            let mut requests: Vec<(usize, bool)> = Vec::new();
            for core in 0..n {
                if !cores[core].in_round {
                    continue;
                }
                let OsState { spaces, .. } = &mut os;
                let mut sh = Shared {
                    book: &mut *book,
                    prefer_huge: policy.fault_prefers_huge(),
                    ledger_on: spec.ledger,
                    has_pcc: bank.is_some(),
                    has_pcc_1g: bank_1g.is_some(),
                    region_walks: &mut region_walks,
                    host_scratch: &mut host_scratch,
                };
                let fault = run_core(
                    core,
                    &mut cores[core],
                    streams[core].window(),
                    &mut tlbs[core],
                    pwcs[core].as_mut(),
                    npwcs[core].as_mut(),
                    &mut spaces[core],
                    vms[core].as_mut(),
                    &mut sh,
                )?;
                match fault {
                    Some(wants_huge) => requests.push((core, wants_huge)),
                    None => {
                        // Chunk complete: replay the batched PCC feeds.
                        let st = &mut cores[core];
                        if !st.pcc_feed.is_empty() || !st.pcc_feed_1g.is_empty() {
                            book.enter(Kind::Pcc);
                            if let Some(bank) = bank.as_mut() {
                                let pcc = bank.pcc_mut(CoreId(core as u32));
                                for &(region, a_bit) in &st.pcc_feed {
                                    pcc.record_walk(region, a_bit);
                                }
                            }
                            if let Some(bank) = bank_1g.as_mut() {
                                let pcc = bank.pcc_mut(CoreId(core as u32));
                                for &(region, a_bit) in &st.pcc_feed_1g {
                                    pcc.record_walk(region, a_bit);
                                }
                            }
                            book.exit();
                        }
                        st.pcc_feed.clear();
                        st.pcc_feed_1g.clear();
                    }
                }
            }
            if requests.is_empty() {
                break;
            }
            book.enter(Kind::OsFault);
            for (core, wants_huge) in requests {
                match AddressSpace::allocate_grant(&mut os.phys, wants_huge) {
                    Ok(grant) => cores[core].pending = Some(grant),
                    Err(e) => {
                        book.exit();
                        return Err(e);
                    }
                }
            }
            book.exit();
        }
        total += round_total;
        if total != next_interval {
            continue;
        }

        // The interval block.
        let t0 = book.now_ns();
        if let Some(ledger) = ledger.as_mut() {
            book.enter(Kind::OsLedger);
            ledger.observe_interval(&region_walks);
            region_walks.clear();
            book.exit();
        }
        book.enter(Kind::Os);
        let report = policy.run_interval(&mut os, bank.as_mut(), total, &mut budget);
        promotion_failures += report.failures;
        for rec in &report.promotions {
            let p = &mut per_process[rec.process.0 as usize];
            p.promotions += 1;
            p.pages_migrated += rec.outcome.pages_migrated;
            p.pages_collapsed += rec.outcome.pages_collapsed;
        }
        for (pid, _) in &report.demotions {
            per_process[pid.0 as usize].demotions += 1;
        }
        book.exit();
        if let Some(ledger) = ledger.as_mut() {
            book.enter(Kind::OsLedger);
            for rec in &report.promotions {
                ledger.record_promotion(
                    rec.process,
                    rec.outcome.region,
                    total,
                    rec.predicted_walks,
                );
            }
            for (pid, region) in &report.demotions {
                ledger.record_demotion(*pid, *region);
            }
            book.exit();
        }
        book.enter(Kind::Tlb);
        for (pid, region) in report.shootdown_regions() {
            let core = pid.0 as usize;
            shootdown_entries += tlbs[core].shootdown(region) as u64;
            if let Some(pwc) = pwcs[core].as_mut() {
                pwc.invalidate_region(region);
            }
            if let Some(npwc) = npwcs[core].as_mut() {
                npwc.invalidate_guest_region(region);
            }
            per_process[core].shootdowns += 1;
        }
        book.exit();
        if let Some(auditor) = auditor.as_ref() {
            book.enter(Kind::OsAudit);
            let mut found = auditor.run(&os, &tlbs, bank.as_ref());
            if let Some(ledger) = ledger.as_ref() {
                found.extend(auditor.check_ledger(&os, ledger));
            }
            book.exit();
            if !found.is_empty() {
                violations += found.len() as u64;
            }
        }
        for (pid, vm) in vms.iter_mut().enumerate() {
            let Some(vm) = vm.as_mut() else { continue };
            book.enter(Kind::Os);
            let mut host_budget = PromotionBudget::UNLIMITED;
            let report =
                vm.policy
                    .run_interval(&mut vm.os, vm.bank.as_mut(), total, &mut host_budget);
            promotion_failures += report.failures;
            for rec in &report.promotions {
                per_process[pid].host_promotions += 1;
                per_process[pid].pages_migrated += rec.outcome.pages_migrated;
                per_process[pid].pages_collapsed += rec.outcome.pages_collapsed;
            }
            book.exit();
            book.enter(Kind::Walk);
            for (_, region) in report.shootdown_regions() {
                if let Some(npwc) = npwcs[pid].as_mut() {
                    npwc.invalidate_host_region(region);
                    per_process[pid].host_shootdowns += 1;
                }
            }
            book.exit();
            if let Some(auditor) = vm.auditor.as_ref() {
                book.enter(Kind::OsAudit);
                let found = auditor.run(&vm.os, &[], vm.bank.as_ref());
                book.exit();
                if !found.is_empty() {
                    violations += found.len() as u64;
                }
            }
        }
        interval_index += 1;
        next_interval += sys.promotion_interval_accesses;
        if book.is_on() {
            interval_ns.push(book.now_ns() - t0);
        }
    }
    book.close();

    let mut tlb_sum = TlbHierarchyStats::default();
    for (core, (tlb, st)) in tlbs.iter().zip(&cores).enumerate() {
        let s = tlb.stats();
        let c = RunCounters {
            accesses: s.accesses,
            l1_hits: s.l1_hits,
            l2_hits: s.l2_hits,
            walks: s.walks,
            ..st.counters
        };
        per_process[core] = per_process[core].merged(&c);
        tlb_sum.accesses += s.accesses;
        tlb_sum.l1_hits += s.l1_hits;
        tlb_sum.l2_hits += s.l2_hits;
        tlb_sum.walks += s.walks;
    }
    let aggregate = per_process
        .iter()
        .fold(RunCounters::default(), |acc, c| acc.merged(c));
    let mut pcc = PccStats::default();
    let banks = bank
        .iter()
        .chain(bank_1g.iter())
        .chain(vms.iter().flatten().filter_map(|vm| vm.bank.as_ref()));
    for b in banks {
        for core in 0..b.cores() {
            let s = b.pcc(CoreId(core)).stats();
            pcc.walks_reported += s.walks_reported;
            pcc.cold_filtered += s.cold_filtered;
            pcc.hits += s.hits;
            pcc.insertions += s.insertions;
            pcc.evictions += s.evictions;
            pcc.invalidations += s.invalidations;
            pcc.decays += s.decays;
        }
    }
    Ok(ReplayReport {
        aggregate,
        promotion_failures,
        violations,
        intervals: interval_index,
        interval_ns,
        tlb: tlb_sum,
        shootdown_entries,
        pcc,
        trace_records,
        prediction_accuracy: ledger.map(|l| l.summary().prediction_accuracy),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::HostClock;
    use crate::workload::{prepare_with, WorkloadId};
    use hpage_sim::SimProfile;

    /// Every workload at the small test profile: the replay, traced or
    /// not, computes exactly the engine's counters, promotion failures
    /// and audit findings.
    #[test]
    fn replay_matches_the_engine_on_every_workload() {
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        let mut profile = SimProfile::test();
        profile.max_accesses_per_core = Some(400_000);
        for id in WorkloadId::ALL {
            let prepared = prepare_with(id, 7, &dir, &profile).expect("set up");
            let specs = prepared.specs();
            let workloads = prepared.workloads();
            for leg in &prepared.legs {
                let engine = leg.simulation(1).try_run(&specs).expect("engine run");
                for on in [false, true] {
                    let mut book = SpanBook::new(HostClock::new(), on, 0);
                    let r = replay(leg, &workloads, &mut book).expect("replay");
                    let what = format!("{} {} spans {on}", id.name(), leg.label);
                    assert_eq!(r.aggregate, engine.aggregate, "{what}");
                    assert_eq!(r.promotion_failures, engine.promotion_failures, "{what}");
                    assert_eq!(r.violations, engine.audit_violations.len() as u64, "{what}");
                    assert_eq!(r.intervals, engine.interval_series.len() as u64, "{what}");
                    assert_eq!(r.trace_records, engine.aggregate.accesses, "{what}");
                    assert_eq!(r.tlb.walks, engine.aggregate.walks, "{what}");
                    if on {
                        assert_eq!(r.interval_ns.len() as u64, r.intervals, "{what}");
                    }
                }
                assert!(engine.aggregate.accesses > 0);
            }
            if id == WorkloadId::Frag90Mmap {
                assert!(prepared.record_s > 0.0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
