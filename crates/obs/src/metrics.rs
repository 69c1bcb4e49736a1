//! Per-interval metric series: one row of rates and counters per
//! promotion interval of a simulation.

use crate::json::num;

/// Metrics for one promotion interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalRow {
    /// Fraction of this interval's accesses that walked the page table.
    pub walk_rate: f64,
    /// Fraction that hit an L1 TLB.
    pub l1_hit_rate: f64,
    /// Fraction that hit the unified L2 TLB.
    pub l2_hit_rate: f64,
    /// Regions promoted during this interval's policy run.
    pub promotions: u64,
    /// Regions demoted during this interval's policy run.
    pub demotions: u64,
    /// Live entries across all per-core PCCs at the boundary.
    pub pcc_occupancy: u64,
    /// Huge (2 MiB) frames resident at the boundary.
    pub huge_pages_resident: u64,
    /// Total memory bloat at the boundary, in bytes.
    pub bloat_bytes: u64,
}

impl IntervalRow {
    /// Renders the row as one JSON Lines record (no trailing newline).
    pub fn to_jsonl(&self, index: usize) -> String {
        format!(
            "{{\"interval\":{},\"walk_rate\":{},\"l1_rate\":{},\"l2_rate\":{},\
             \"promotions\":{},\"demotions\":{},\"pcc_occupancy\":{},\
             \"huge_resident\":{},\"bloat_bytes\":{}}}",
            index,
            num(self.walk_rate),
            num(self.l1_hit_rate),
            num(self.l2_hit_rate),
            self.promotions,
            self.demotions,
            self.pcc_occupancy,
            self.huge_pages_resident,
            self.bloat_bytes
        )
    }
}

/// The full per-interval time series of one simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalSeries {
    rows: Vec<IntervalRow>,
}

impl IntervalSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one interval's row.
    pub fn push(&mut self, row: IntervalRow) {
        self.rows.push(row);
    }

    /// The recorded rows, in interval order.
    pub fn rows(&self) -> &[IntervalRow] {
        &self.rows
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no interval completed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Just the walk rates, in interval order: the time-to-benefit
    /// curve.
    pub fn walk_rates(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.walk_rate).collect()
    }

    /// Renders the whole series as JSON Lines, one row per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&row.to_jsonl(i));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::assert_json_shape;

    #[test]
    fn series_round_trip() {
        let mut s = IntervalSeries::new();
        assert!(s.is_empty());
        s.push(IntervalRow {
            walk_rate: 0.3,
            l1_hit_rate: 0.6,
            l2_hit_rate: 0.1,
            promotions: 4,
            demotions: 1,
            pcc_occupancy: 99,
            huge_pages_resident: 7,
            bloat_bytes: 2048,
        });
        s.push(IntervalRow::default());
        assert_eq!(s.len(), 2);
        assert_eq!(s.walk_rates(), vec![0.3, 0.0]);
        let jsonl = s.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert_json_shape(line);
        }
        assert!(jsonl.starts_with("{\"interval\":0,\"walk_rate\":0.300000"));
    }
}
