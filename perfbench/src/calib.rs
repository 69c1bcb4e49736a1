//! Host-speed calibration: a fixed kernel timed between the runs it
//! normalises.
//!
//! A shared host's speed moves in phases of seconds to minutes (other
//! tenants' load on the physical cores, turbo frequency). A phase that
//! lasts a whole benchmark run slows every run in it alike, so neither
//! the fastest nor the median run of the simulator can tell it from a
//! slower simulator. The calibration kernel can: it is the benchmark's
//! own code, independent of the simulator's crates, and does the same
//! work on every host and every revision. Timing it right before and
//! right after each measured run gives the host's speed at that moment,
//! and the run's time over the kernel's time removes most of the phase.
//! Not all of it: in slow phases measured on the reference host the
//! kernel slowed by less than the simulator (see `perfbench/README.md`).
//!
//! The kernel mixes what the simulator spends its time on: a PRNG,
//! dependent and independent loads from a table larger than L1, stores
//! into it, and a true-LRU scan of small set-associative arrays.

use std::hint::black_box;

use crate::host::cpu_s;
use crate::stats::median;

/// Table size in 8-byte words: 1 MiB, beyond L1, within L2.
const TABLE_WORDS: usize = 1 << 17;
/// Sets of the LRU arrays (8 ways each, 32 KiB of tags and stamps).
const LRU_SETS: usize = 256;
const LRU_WAYS: usize = 8;
/// Iterations of one pass of the kernel, about 5 ms on the reference
/// host.
const ITERS: u64 = 360_000;
/// Passes of one measurement; the median counts.
const PASSES: usize = 7;

/// About the CPU seconds one measurement takes on the reference host, a
/// 2-vCPU Intel Xeon VM, at its quiet speed (5.1 ms measured). Reported
/// host times are scaled to this speed; see [`Calibrator::to_reference`].
pub const REFERENCE_S: f64 = 0.005;

/// The calibration kernel with its working memory, allocated once.
pub struct Calibrator {
    table: Vec<u64>,
    tags: Vec<[u64; LRU_WAYS]>,
    stamps: Vec<[u64; LRU_WAYS]>,
}

impl Calibrator {
    /// Allocates the kernel's memory.
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            tags: vec![[0; LRU_WAYS]; LRU_SETS],
            stamps: vec![[0; LRU_WAYS]; LRU_SETS],
        }
    }

    /// Resets the memory so that every measurement does the same work.
    fn reset(&mut self) {
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        for set in self.tags.iter_mut().chain(self.stamps.iter_mut()) {
            *set = [0; LRU_WAYS];
        }
    }

    /// Runs the kernel `iters` times and returns its checksum.
    fn kernel(&mut self, iters: u64) -> u64 {
        let mask = TABLE_WORDS - 1;
        let (mut x, mut acc) = (0x2545_f491_4f6c_dd1du64, 0u64);
        let mut misses = 0u64;
        for now in 1..=iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // One load that depends on the previous one, one that does
            // not, and a store.
            let dep = self.table[(acc ^ x) as usize & mask];
            let ind = self.table[(x >> 24) as usize & mask];
            acc = acc.wrapping_add(dep ^ ind).rotate_left(7);
            self.table[(x >> 40) as usize & mask] = dep.wrapping_add(x);
            // A true-LRU lookup-or-fill of a 4 KiB-page tag.
            let tag = (x >> 12) & 0xfff;
            let set = (tag as usize) % LRU_SETS;
            let (tags, stamps) = (&mut self.tags[set], &mut self.stamps[set]);
            let way = match tags.iter().position(|&t| t == tag) {
                Some(w) => w,
                None => {
                    misses += 1;
                    let victim = (0..LRU_WAYS)
                        .min_by_key(|&w| stamps[w])
                        .expect("ways exist");
                    tags[victim] = tag;
                    victim
                }
            };
            stamps[way] = now;
        }
        acc ^ misses
    }

    /// CPU seconds of one measurement of the kernel: the median of
    /// [`PASSES`] passes. In a noisy phase host speed changes within
    /// 100 ms, and a measured run sees its average speed; the median
    /// follows that average, where the fastest pass would follow the
    /// host's best moments. It still ignores an interrupt or a context
    /// switch during a minority of passes.
    pub fn measure(&mut self) -> f64 {
        let passes: Vec<f64> = (0..PASSES)
            .map(|_| {
                self.reset();
                let c0 = cpu_s();
                black_box(self.kernel(black_box(ITERS)));
                cpu_s() - c0
            })
            .collect();
        median(&passes)
    }

    /// Host CPU seconds `cpu_s`, measured between kernel measurements
    /// that took `before` and `after`, scaled to the reference host's
    /// speed.
    pub fn to_reference(cpu_s: f64, before: f64, after: f64) -> f64 {
        cpu_s * REFERENCE_S / ((before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut c = Calibrator::new();
        c.reset();
        let a = c.kernel(10_000);
        c.reset();
        assert_eq!(c.kernel(10_000), a);
    }

    #[test]
    fn scaling_cancels_host_speed() {
        // A host twice as slow doubles both the run and the kernel.
        let fast = Calibrator::to_reference(1.0, 0.02, 0.04);
        let slow = Calibrator::to_reference(2.0, 0.04, 0.08);
        assert!((fast - slow).abs() < 1e-12);
        assert!((fast - REFERENCE_S / 0.03).abs() < 1e-12);
    }
}
