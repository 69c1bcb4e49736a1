//! Sample statistics and failed-operation accounting.

use std::collections::BTreeSet;

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Lower quartile of `samples`: the median of the lower half of the
/// sorted samples, which includes the middle one for an odd count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "quartile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    median(&s[..s.len().div_ceil(2)])
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest whole percentile that has at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, with its nearest-rank
/// value, as `(percentile, value)`. `None` when that percentile would
/// not be above the median (fewer than 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 2 * TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pct = (100 * (n - TAIL_SAMPLES_BEYOND) / n) as u32;
    // Nearest rank: the ceil(p·n/100)-th smallest sample (1-based).
    let rank = (pct as usize * n).div_ceil(100).max(1);
    debug_assert!(n - rank >= TAIL_SAMPLES_BEYOND);
    Some((pct, s[rank - 1]))
}

/// A metric's samples, rendered as count, median and tail percentile.
pub fn summary_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail_percentile(samples) {
        Some((p, v)) => format!("p{p} {v:.6e}"),
        None => format!(
            "no tail percentile (needs {} samples)",
            2 * TAIL_SAMPLES_BEYOND
        ),
    };
    format!(
        "{name:<18} {unit:<6} n={:<4} median {:.6e}  {tail}",
        samples.len(),
        median(samples)
    )
}

/// What one `Simulation::run` produced, reduced to what failure
/// accounting needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The run returned an error.
    pub errored: bool,
    /// Digest of the run's counters (ignored when `errored`).
    pub digest: u64,
    /// Intervals the auditor checked (0 when the audit is off).
    pub audited_intervals: u64,
    /// Interval indices with at least one audit violation.
    pub violation_intervals: BTreeSet<u64>,
}

/// Attempted and failed operations of a benchmark run.
///
/// An operation is one `Simulation::run`, or one interval the auditor
/// checked. A failure is a run that errored, a run whose counter digest
/// differs from the first run of the same seed and leg, or an audited
/// interval with at least one violation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed runs whose digest differed from the reference.
    pub digest_mismatches: u64,
    /// Audited intervals with violations.
    pub violation_intervals: u64,
}

impl OpTally {
    /// Counts one run against `reference`, the digest of the first run
    /// of the same seed and leg (`None` for that first run itself).
    pub fn add(&mut self, run: &RunOutcome, reference: Option<u64>) {
        self.attempted += 1;
        if run.errored {
            self.failed += 1;
            return;
        }
        if reference.is_some_and(|d| d != run.digest) {
            self.failed += 1;
            self.digest_mismatches += 1;
        }
        self.attempted += run.audited_intervals;
        let bad = run.violation_intervals.len() as u64;
        self.failed += bad;
        self.violation_intervals += bad;
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_quartile_is_the_median_of_the_lower_half() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[9.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.5);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.5);
        let nine: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&nine), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90, 90.0)));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        // 100·30/40 = 75: the 30th smallest, with 10 beyond it.
        assert_eq!(tail_percentile(&forty), Some((75, 30.0)));
        let thirty_six: Vec<f64> = (1..=36).map(f64::from).collect();
        let (p, v) = tail_percentile(&thirty_six).unwrap();
        assert_eq!(p, 72);
        assert!(36 - v as usize >= TAIL_SAMPLES_BEYOND);
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&nineteen), None);
        assert!(tail_percentile(&[1.0; 20]).is_some());
    }

    #[test]
    fn summary_line_states_count_median_and_tail() {
        let line = summary_line("x", "ms", &[1.0, 2.0, 3.0]);
        assert!(line.contains("n=3"), "{line}");
        assert!(line.contains("median 2.000000e0"), "{line}");
        assert!(line.contains("no tail percentile"), "{line}");
    }

    fn ok_run(digest: u64, audited: u64, bad: &[u64]) -> RunOutcome {
        RunOutcome {
            errored: false,
            digest,
            audited_intervals: audited,
            violation_intervals: bad.iter().copied().collect(),
        }
    }

    #[test]
    fn clean_runs_count_runs_and_audited_intervals() {
        let mut t = OpTally::default();
        t.add(&ok_run(7, 16, &[]), None);
        t.add(&ok_run(7, 16, &[]), Some(7));
        assert_eq!(t.attempted, 2 + 32);
        assert_eq!(t.failed, 0);
        assert_eq!(t.failed_share(), 0.0);
    }

    #[test]
    fn violations_mismatches_and_errors_fail() {
        let mut t = OpTally::default();
        // Three intervals with violations out of 16 audited.
        t.add(&ok_run(7, 16, &[4, 9, 12]), None);
        // A digest that differs from the first run of the seed.
        t.add(&ok_run(8, 0, &[]), Some(7));
        // An errored run counts once, whatever else it carries.
        t.add(
            &RunOutcome {
                errored: true,
                ..ok_run(7, 16, &[1])
            },
            Some(7),
        );
        assert_eq!(t.attempted, 17 + 1 + 1);
        assert_eq!(t.failed, 3 + 1 + 1);
        assert_eq!(t.digest_mismatches, 1);
        assert_eq!(t.violation_intervals, 3);
        assert!((t.failed_share() - 5.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
