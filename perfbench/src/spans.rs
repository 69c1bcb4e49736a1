//! Span book for the traced replay: nested spans around calls into each
//! layer, kept as per-kind self time in memory.
//!
//! One clock read per span boundary. Each read charges the time since
//! the previous read to the span on top of the stack, so a span's
//! charge is its duration minus the part its child spans cover: its
//! self time. The cost of the clock read itself is measured once and
//! charged to a separate overhead account instead of the layer, so the
//! self times of all kinds plus the overhead sum to the traced wall
//! time between the first and last read.

use std::time::Instant;

/// What a span covers. `Sim` is the root: the replay loop's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The replay loop itself (round planning, fault waves).
    Sim,
    /// `TraceStream::next_window`.
    Trace,
    /// `TlbHierarchy::lookup`, `fill` and `shootdown`.
    Tlb,
    /// `PageTable::walk` plus the native or nested walk caches.
    Walk,
    /// `Pcc::record_walk`.
    Pcc,
    /// The interval block's policy (`HugePagePolicy::run_interval`).
    Os,
    /// Page faults through `AddressSpace`.
    OsFault,
    /// `Auditor::run` and `Auditor::check_ledger`.
    OsAudit,
    /// Promotion-ledger tallies and settlement.
    OsLedger,
}

/// Number of span kinds.
pub const KINDS: usize = 9;

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; KINDS] = [
        Kind::Sim,
        Kind::Trace,
        Kind::Tlb,
        Kind::Walk,
        Kind::Pcc,
        Kind::Os,
        Kind::OsFault,
        Kind::OsAudit,
        Kind::OsLedger,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// A monotonic nanosecond clock.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&mut self) -> u64;
}

/// The host's monotonic clock.
pub struct HostClock(Instant);

impl HostClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        HostClock(Instant::now())
    }
}

impl Clock for HostClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Median cost of one read of `clock`, in nanoseconds.
pub fn clock_read_ns<C: Clock>(clock: &mut C) -> u64 {
    let mut samples: Vec<u64> = (0..64)
        .map(|_| {
            let t0 = clock.now_ns();
            for _ in 0..1000 {
                std::hint::black_box(clock.now_ns());
            }
            (clock.now_ns() - t0) / 1000
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Per-kind self time and span counts of one traced replay.
pub struct SpanBook<C: Clock> {
    clock: C,
    on: bool,
    stack: Vec<Kind>,
    last: u64,
    read_cost_ns: u64,
    self_ns: [u64; KINDS],
    overhead_ns: u64,
}

impl<C: Clock> SpanBook<C> {
    /// A book rooted at [`Kind::Sim`]. With `on == false` every call is
    /// a no-op, which is how the untraced replay runs the same code.
    /// `read_cost_ns` is charged to the overhead account per read.
    pub fn new(mut clock: C, on: bool, read_cost_ns: u64) -> Self {
        let last = if on { clock.now_ns() } else { 0 };
        SpanBook {
            clock,
            on,
            stack: vec![Kind::Sim],
            last,
            read_cost_ns,
            self_ns: [0; KINDS],
            overhead_ns: 0,
        }
    }

    fn charge(&mut self) {
        let now = self.clock.now_ns();
        let elapsed = now.saturating_sub(self.last);
        let overhead = elapsed.min(self.read_cost_ns);
        self.overhead_ns += overhead;
        let top = *self.stack.last().expect("the root span is never closed");
        self.self_ns[top.index()] += elapsed - overhead;
        self.last = now;
    }

    /// Opens a child span of the current one.
    #[inline]
    pub fn enter(&mut self, kind: Kind) {
        if self.on {
            self.charge();
            self.stack.push(kind);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            self.charge();
            assert!(self.stack.len() > 1, "exit without a matching enter");
            self.stack.pop();
        }
    }

    /// Charges the time since the last read to the open span; call once
    /// at the end of the replay.
    pub fn close(&mut self) {
        if self.on {
            self.charge();
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Reads the clock (0 when spans are off).
    pub fn now_ns(&mut self) -> u64 {
        if self.on {
            self.clock.now_ns()
        } else {
            0
        }
    }

    /// Self time of `kind`, in nanoseconds.
    pub fn self_ns(&self, kind: Kind) -> u64 {
        self.self_ns[kind.index()]
    }

    /// Clock-read cost charged outside the layers, in nanoseconds.
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// Sum of every kind's self time plus the overhead account.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum::<u64>() + self.overhead_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that returns scripted readings in order.
    struct Scripted(Vec<u64>);

    impl Clock for Scripted {
        fn now_ns(&mut self) -> u64 {
            assert!(!self.0.is_empty(), "script long enough");
            self.0.remove(0)
        }
    }

    fn book(readings: &[u64], read_cost: u64) -> SpanBook<Scripted> {
        SpanBook::new(Scripted(readings.to_vec()), true, read_cost)
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        // root 0..100, walk 10..60, fault inside walk 20..35, pcc 70..80.
        let mut b = book(&[0, 10, 20, 35, 60, 70, 80, 100], 0);
        b.enter(Kind::Walk);
        b.enter(Kind::OsFault);
        b.exit();
        b.exit();
        b.enter(Kind::Pcc);
        b.exit();
        b.close();
        assert_eq!(b.self_ns(Kind::OsFault), 15);
        assert_eq!(b.self_ns(Kind::Walk), 50 - 15);
        assert_eq!(b.self_ns(Kind::Pcc), 10);
        assert_eq!(b.self_ns(Kind::Sim), 100 - 50 - 10);
        assert_eq!(b.total_ns(), 100);
    }

    #[test]
    fn read_cost_moves_to_the_overhead_account() {
        // Each interval loses up to 3 ns to the overhead account; an
        // interval shorter than the read cost is all overhead.
        let mut b = book(&[0, 10, 12, 30], 3);
        b.enter(Kind::Tlb);
        b.exit();
        b.close();
        assert_eq!(b.self_ns(Kind::Sim), (10 - 3) + (30 - 12 - 3));
        assert_eq!(b.self_ns(Kind::Tlb), 0);
        assert_eq!(b.overhead_ns(), 3 + 2 + 3);
        assert_eq!(b.total_ns(), 30);
    }

    #[test]
    fn off_book_reads_no_clock() {
        // An empty script panics on any read.
        let mut b = SpanBook::new(Scripted(Vec::new()), false, 0);
        b.enter(Kind::Walk);
        b.exit();
        b.close();
        assert_eq!(b.total_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "exit without a matching enter")]
    fn unbalanced_exit_panics() {
        let mut b = book(&[0, 1], 0);
        b.exit();
    }
}
