//! Supervised-execution suite: panic isolation, deterministic retry,
//! deadlines, and the failure surface the harness exposes to drivers.
//! These are the guarantees that make long `repro` runs survivable: one
//! bad cell degrades one row, never the grid.

use hpage::faults::{FaultKind, FaultPlan, FaultWindow};
use hpage::sim::{
    Cell, CellFailure, Event, Harness, PolicyChoice, SharedWorkload, Simulation, SupervisorConfig,
};
use hpage::telemetry::TelemetryRecorder;
use hpage::trace::{Pattern, SyntheticBuilder};
use hpage::types::SystemConfig;
use std::sync::Arc;

fn workload(seed: u64) -> SharedWorkload {
    let mut b = SyntheticBuilder::new("sup", seed);
    let a = b.array(8, (2 << 20) / 8);
    b.phase(a, Pattern::UniformRandom { count: 50_000 }, 0);
    Arc::new(b.build())
}

/// A workload with almost no simulated work, so a cell running it stays
/// far inside the deadlines these tests set even on a loaded host.
fn idle_workload(seed: u64) -> SharedWorkload {
    let mut b = SyntheticBuilder::new("idle", seed);
    let a = b.array(8, 512);
    b.phase(
        a,
        Pattern::Sequential {
            stride: 1,
            count: 16,
        },
        0,
    );
    Arc::new(b.build())
}

fn cells(n: u64) -> Vec<Cell> {
    cells_of(n, workload)
}

fn cells_of(n: u64, workload: fn(u64) -> SharedWorkload) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            Cell::new(
                format!("cell/{i}"),
                Simulation::new(SystemConfig::tiny(), PolicyChoice::pcc_default()),
                workload(i),
            )
        })
        .collect()
}

/// A plan that panics the first `failures` attempts of cell `at`.
fn panic_plan(at: u64, failures: u32) -> FaultPlan {
    FaultPlan::new(
        "test-panic",
        vec![FaultWindow {
            kind: FaultKind::CellPanic { failures },
            at,
            duration: 1,
        }],
    )
    .unwrap()
}

fn stall_plan(at: u64, duration: u64, millis: u64) -> FaultPlan {
    FaultPlan::new(
        "test-stall",
        vec![FaultWindow {
            kind: FaultKind::CellStall { millis },
            at,
            duration,
        }],
    )
    .unwrap()
}

#[test]
fn panicking_cell_fails_alone_while_the_grid_survives() {
    let h = Harness::new(2).with_supervisor(
        SupervisorConfig::default()
            .with_max_retries(0)
            .with_faults(panic_plan(1, 1)),
    );
    let results = h.run_supervised(cells(3));
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok(), "cell 0 must survive cell 1's panic");
    assert!(results[2].is_ok(), "cell 2 must survive cell 1's panic");
    match &results[1] {
        Err(CellFailure::Panicked { message, attempts }) => {
            assert_eq!(*attempts, 1);
            assert!(message.contains("injected cell panic"), "{message}");
        }
        other => panic!("cell 1 should have panicked, got {other:?}"),
    }
    // The failure is on the log and the event stream.
    let failures = h.log().failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].label, "cell/1");
    assert!(h.supervisor_events().iter().any(|e| matches!(
        e,
        Event::CellPanicked {
            cell: 1,
            attempt: 1
        }
    )));
}

#[test]
fn run_panics_with_an_aggregate_message_only_after_the_grid_completes() {
    let h = Harness::new(2).with_supervisor(
        SupervisorConfig::default()
            .with_max_retries(0)
            .with_faults(panic_plan(0, 1)),
    );
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.run(cells(2))));
    let msg = match out {
        Err(payload) => *payload.downcast::<String>().expect("aggregate message"),
        Ok(_) => panic!("run() must surface the failed cell"),
    };
    assert!(msg.contains("1 cell(s) failed"), "{msg}");
    assert!(msg.contains("cell/0"), "{msg}");
    // The healthy cell still ran to completion before the panic.
    assert!(
        h.log().cells().iter().any(|c| c.label == "cell/1"),
        "surviving cell must complete before the aggregate panic"
    );
}

#[test]
fn retried_run_is_identical_to_a_clean_run() {
    let clean = Harness::new(4).run(cells(4));
    let h = Harness::new(4).with_supervisor(
        SupervisorConfig::default()
            .with_max_retries(3)
            .with_faults(panic_plan(2, 2)),
    );
    let retried = h.run(cells(4));
    assert_eq!(clean, retried, "retries must not perturb results");
    // Two failed attempts → attempts 2 and 3 were retries.
    let retries = h.log().retries();
    assert_eq!(retries.len(), 2, "{retries:?}");
    assert!(retries.iter().all(|r| r.label == "cell/2"));
    assert!(h
        .supervisor_events()
        .iter()
        .any(|e| matches!(e, Event::CellRetried { cell: 2, .. })));
}

#[test]
fn soft_deadline_flags_the_overrun_but_the_cell_completes() {
    let h = Harness::new(2).with_supervisor(
        SupervisorConfig::default()
            .with_soft_deadline_ms(10)
            .with_faults(stall_plan(0, 1, 80)),
    );
    let results = h.run_supervised(cells(2));
    assert!(
        results.iter().all(Result::is_ok),
        "soft deadline never kills"
    );
    let flags = h.log().deadline_flags();
    assert!(!flags.is_empty(), "the stalled cell must be flagged");
    assert!(flags.iter().all(|f| !f.hard));
    assert!(h
        .supervisor_events()
        .iter()
        .any(|e| matches!(e, Event::CellSoftDeadline { cell: 0, .. })));
}

#[test]
fn hard_deadline_abandons_the_stalled_cell() {
    let h = Harness::new(2).with_supervisor(
        SupervisorConfig::default()
            .with_max_retries(0)
            .with_soft_deadline_ms(5)
            .with_hard_deadline_ms(40)
            .with_faults(stall_plan(0, 1, 400)),
    );
    // The healthy cell runs under the same 40 ms deadline, so it gets
    // next to no work: its outcome must not hinge on host load.
    let results = h.run_supervised(cells_of(2, idle_workload));
    match &results[0] {
        Err(CellFailure::HardDeadline { limit_ms, attempts }) => {
            assert_eq!(*limit_ms, 40);
            assert_eq!(*attempts, 1);
        }
        other => panic!("stalled cell should hit the hard deadline, got {other:?}"),
    }
    assert!(results[1].is_ok(), "the healthy cell is unaffected");
    let flags = h.log().deadline_flags();
    assert!(flags.iter().any(|f| f.hard), "{flags:?}");
    assert!(h.supervisor_events().iter().any(|e| matches!(
        e,
        Event::CellHardDeadline {
            cell: 0,
            attempt: 1
        }
    )));
}

#[test]
fn backoff_is_seeded_per_cell_and_bounded() {
    let a = SupervisorConfig::default()
        .with_retry_seed(7)
        .with_max_backoff_ms(20);
    let b = SupervisorConfig::default()
        .with_retry_seed(7)
        .with_max_backoff_ms(20);
    for attempt in 2..6 {
        assert_eq!(
            a.backoff_ms("fig7/BFS/pcc", attempt),
            b.backoff_ms("fig7/BFS/pcc", attempt),
            "backoff must be a pure function of (seed, label, attempt)"
        );
        assert!(a.backoff_ms("fig7/BFS/pcc", attempt) <= 20);
    }
    // A different seed moves the schedule (with overwhelming likelihood
    // over four attempts × 21 buckets).
    let c = SupervisorConfig::default()
        .with_retry_seed(8)
        .with_max_backoff_ms(20);
    assert!(
        (2..6).any(|n| a.backoff_ms("fig7/BFS/pcc", n) != c.backoff_ms("fig7/BFS/pcc", n)),
        "different retry seeds should produce different schedules"
    );
    // Zero budget means no sleeping at all.
    let z = SupervisorConfig::default().with_max_backoff_ms(0);
    assert_eq!(z.backoff_ms("any", 2), 0);
}

#[test]
fn supervisor_events_flow_into_telemetry_counters() {
    let h = Harness::new(2).with_supervisor(
        SupervisorConfig::default()
            .with_max_retries(1)
            .with_faults(panic_plan(0, 1)),
    );
    let _ = h.run(cells(2));
    let mut t = TelemetryRecorder::new();
    for e in h.supervisor_events() {
        use hpage::sim::Recorder;
        t.record(0, e);
    }
    assert_eq!(t.metrics().counter("cell.panic"), 1);
    assert_eq!(t.metrics().counter("cell.retry"), 1);
}
