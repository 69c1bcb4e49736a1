//! Graph substrate: CSR storage, synthetic network generators, and
//! degree-based grouping (DBG) reordering.
//!
//! The paper evaluates BFS/SSSP/PageRank on a synthetic power-law network
//! (Kronecker scale 25), a social network (Twitter) and a web crawl
//! (Sd1 Arc), each in DBG-sorted and unsorted variants. We generate
//! R-MAT/Kronecker graphs with tunable skew to stand in for all three
//! (see DESIGN.md), at configurable scale.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A directed graph in Compressed Sparse Row form.
///
/// `offsets` has `n + 1` entries; the out-neighbours of vertex `u` are
/// `neighbors[offsets[u]..offsets[u+1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list over `n` vertices.
    /// Self-loops are kept; duplicate edges are kept (multigraph), which
    /// matches how R-MAT generators feed the GAP kernels.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u64; n as usize];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            degree[u as usize] += 1;
        }
        Self::from_counted_edges(degree, edges)
    }

    /// Builds the CSR from edges whose endpoints are known to be in
    /// range and whose out-degrees are already counted in `degree`
    /// (one entry per vertex). A stable counting sort: each vertex's
    /// neighbours keep their order in `edges`.
    fn from_counted_edges(degree: Vec<u64>, edges: &[(u32, u32)]) -> Self {
        let offsets = prefix_offsets(degree.iter().copied());
        // Reuse the degree buffer as the per-vertex write cursor.
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..offsets.len() - 1]);
        let mut neighbors = vec![0u32; edges.len()];
        for &(u, v) in edges {
            let c = &mut cursor[u as usize];
            neighbors[*c as usize] = v;
            *c += 1;
        }
        CsrGraph { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// Out-degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: u32) -> u64 {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The CSR offset array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The CSR neighbour array.
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Out-neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors_of(&self, u: u32) -> &[u32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Relabels vertices with `perm` (new id = `perm[old id]`), returning
    /// the renumbered graph. Used by [`degree_based_grouping`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[u32]) -> CsrGraph {
        let n = self.vertex_count();
        assert_eq!(perm.len(), n as usize, "perm length must equal n");
        // inverse[new id] = old id; u32::MAX (never a vertex id, as
        // n <= u32::MAX) marks a new id not yet claimed.
        let mut inverse = vec![u32::MAX; n as usize];
        for (old, &p) in perm.iter().enumerate() {
            assert!(
                p < n && inverse[p as usize] == u32::MAX,
                "perm must be a permutation"
            );
            inverse[p as usize] = old as u32;
        }
        let offsets = prefix_offsets(inverse.iter().map(|&old| self.degree(old)));
        // Vertex `new` takes `inverse[new]`'s neighbours, renamed, in
        // their original order: the graph `from_edges` would build from
        // the renamed edge list, without materialising that list.
        let mut neighbors = vec![0u32; self.neighbors.len()];
        for (new, &old) in inverse.iter().enumerate() {
            let out = &mut neighbors[offsets[new] as usize..offsets[new + 1] as usize];
            for (slot, &v) in out.iter_mut().zip(self.neighbors_of(old)) {
                *slot = perm[v as usize];
            }
        }
        CsrGraph { offsets, neighbors }
    }
}

/// CSR offsets (`n + 1` entries, starting at 0) from per-vertex degrees.
fn prefix_offsets(degrees: impl ExactSizeIterator<Item = u64>) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for d in degrees {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

/// Parameters of the R-MAT (recursive matrix) generator, the standard
/// Kronecker-graph construction used by Graph500 and the GAP suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// `log2` of the vertex count.
    pub scale: u32,
    /// Average directed edges per vertex.
    pub edge_factor: u32,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// Graph500/GAP Kronecker parameters (A=0.57, B=C=0.19): a heavily
    /// skewed power-law network, the paper's "Kronecker 25" at smaller
    /// scales.
    pub fn kronecker(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// A milder skew approximating social networks (the Twitter stand-in).
    pub fn social(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 24,
            a: 0.50,
            b: 0.23,
            c: 0.23,
        }
    }

    /// Skew with locality bias approximating web crawls (the Sd1 Web
    /// stand-in): stronger diagonal, so ids cluster.
    pub fn web(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 20,
            a: 0.62,
            b: 0.15,
            c: 0.15,
        }
    }

    /// Uniform Erdős–Rényi-style edges (no skew); used to contrast
    /// power-law behaviour in tests.
    pub fn uniform(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.25,
            b: 0.25,
            c: 0.25,
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn vertex_count(&self) -> u32 {
        1u32 << self.scale
    }

    /// Number of generated directed edges.
    pub fn edge_count(&self) -> u64 {
        u64::from(self.vertex_count()) * u64::from(self.edge_factor)
    }
}

/// Generates an R-MAT graph deterministically from `seed`.
///
/// Each edge descends `scale` levels of the adjacency matrix; at every
/// level one uniform draw `r` picks a quadrant by the cascade
/// `r < a`, `r < a+b`, `r < a+b+c`. The draw is `rng.random::<f64>()`,
/// which is exactly `k · 2⁻⁵³` with `k = next_u64() >> 11`, so `r < p`
/// holds exactly when `k < ceil(p · 2⁵³)` (see `draw_threshold`). The
/// cascade is therefore evaluated on integers, without a data-dependent
/// branch, and yields the same graph as the `f64` cascade for every
/// seed and parameter set (the reference-model tests in
/// `tests/trace_properties.rs`).
///
/// # Panics
///
/// Panics if `scale` is 0 or ≥ 31, or the quadrant probabilities exceed 1.
pub fn generate_rmat(params: &RmatParams, seed: u64) -> CsrGraph {
    assert!(
        params.scale > 0 && params.scale < 31,
        "scale must be 1..=30"
    );
    let d = 1.0 - params.a - params.b - params.c;
    assert!(d >= -1e-9, "quadrant probabilities must sum to <= 1");
    let n = params.vertex_count();
    // Thresholds of the same f64 sums the cascade compares against,
    // made non-decreasing: that keeps the cascade's first match, and
    // with ordered thresholds the quadrant takes no branch.
    let t_a = draw_threshold(params.a);
    let t_ab = draw_threshold(params.a + params.b).max(t_a);
    let t_abc = draw_threshold(params.a + params.b + params.c).max(t_ab);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(params.edge_count() as usize);
    // Out-degrees are counted as edges are drawn, so the CSR build
    // needs no counting pass over the edge list. Every endpoint has
    // `scale` bits, hence is below `n`.
    let mut degree = vec![0u64; n as usize];
    for _ in 0..params.edge_count() {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..params.scale {
            let k = rng.next_u64() >> 11;
            let ge_a = u32::from(k >= t_a);
            let ge_ab = u32::from(k >= t_ab);
            let ge_abc = u32::from(k >= t_abc);
            // (u, v) bits: (0,0) below t_a, (0,1) below t_ab, (1,0)
            // below t_abc, (1,1) from there on.
            u = (u << 1) | ge_ab;
            v = (v << 1) | (ge_a ^ ge_ab ^ ge_abc);
        }
        degree[u as usize] += 1;
        edges.push((u, v));
    }
    CsrGraph::from_counted_edges(degree, &edges)
}

/// The least 53-bit draw `k` for which `k · 2⁻⁵³ < p` fails:
/// `ceil(p · 2⁵³)`. Scaling by a power of two is exact, and the cast
/// saturates (negative or NaN `p` → 0, so no draw is below it; `p`
/// above 1 → beyond every draw), which is what the `f64` comparison
/// does at those extremes.
fn draw_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Degree-Based Grouping (Faldu et al., IISWC'19): coarsely reorders
/// vertices so that similarly-hot (high-degree) vertices share pages,
/// improving cache and TLB locality. Vertices are bucketed by
/// `floor(log2(degree + 1))`, buckets ordered hottest-first, original
/// order preserved within a bucket. Returns the relabeled graph and the
/// permutation used (`perm[old] = new`).
pub fn degree_based_grouping(graph: &CsrGraph) -> (CsrGraph, Vec<u32>) {
    let n = graph.vertex_count();
    let bucket_of = |u: u32| 64 - (graph.degree(u) + 1).leading_zeros(); // ~log2
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&u| core::cmp::Reverse(bucket_of(u)));
    let mut perm = vec![0u32; n as usize];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as u32;
    }
    (graph.relabel(&perm), perm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3, plus hub 0 -> {2, 3}
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)])
    }

    #[test]
    fn csr_construction() {
        let g = path_graph();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 0);
        let mut n0 = g.neighbors_of(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2, 3]);
        assert_eq!(g.offsets().len(), 5);
        assert_eq!(*g.offsets().last().unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn rmat_is_deterministic() {
        let p = RmatParams::kronecker(8);
        let g1 = generate_rmat(&p, 42);
        let g2 = generate_rmat(&p, 42);
        assert_eq!(g1, g2);
        let g3 = generate_rmat(&p, 43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_counts_match_params() {
        let p = RmatParams::kronecker(10);
        let g = generate_rmat(&p, 1);
        assert_eq!(g.vertex_count(), 1024);
        assert_eq!(g.edge_count(), 1024 * 16);
    }

    #[test]
    fn kronecker_is_skewed_uniform_is_not() {
        let gk = generate_rmat(&RmatParams::kronecker(12), 7);
        let gu = generate_rmat(&RmatParams::uniform(12), 7);
        let max_deg = |g: &CsrGraph| (0..g.vertex_count()).map(|u| g.degree(u)).max().unwrap();
        // Power-law: the hottest vertex is far above the mean degree (16);
        // uniform: it stays near the mean.
        assert!(max_deg(&gk) > 10 * 16, "kronecker max degree too low");
        assert!(max_deg(&gu) < 5 * 16, "uniform max degree too high");
    }

    #[test]
    fn draw_threshold_splits_the_f64_draw_exactly() {
        // `random::<f64>()` as the vendored generator computes it.
        let draw = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        let top = 1u64 << 53; // one past the largest draw
        let ps = [
            0.0,
            1e-300,
            0.1,
            0.19,
            0.23,
            0.25,
            1.0 / 3.0,
            0.57,
            0.76,
            0.95,
            0.96,
            1.0,
            1.0 + 1e-9,
            -0.1,
            f64::NAN,
            1e300,
        ];
        for p in ps {
            let t = draw_threshold(p);
            let below = |k: u64| draw(k) < p;
            // Every draw under the threshold is below p (the largest
            // such draw suffices), and the threshold draw itself is not.
            if t > 0 {
                let k = t.min(top) - 1;
                assert!(below(k), "draw {k} must be below {p}");
            }
            if t < top {
                assert!(!below(t), "draw {t} must not be below {p}");
            }
        }
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = path_graph();
        let perm = vec![3, 2, 1, 0]; // reverse ids
        let r = g.relabel(&perm);
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.degree(3), 3); // old vertex 0
        let mut n3 = r.neighbors_of(3).to_vec();
        n3.sort_unstable();
        assert_eq!(n3, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_non_permutation() {
        let g = path_graph();
        let _ = g.relabel(&[0, 0, 1, 2]);
    }

    #[test]
    fn dbg_sorts_hot_vertices_first() {
        let g = generate_rmat(&RmatParams::kronecker(10), 3);
        let (sorted, perm) = degree_based_grouping(&g);
        assert_eq!(sorted.edge_count(), g.edge_count());
        // The new id 0 vertex must come from the hottest bucket.
        let old_of_new0 = perm.iter().position(|&p| p == 0).unwrap() as u32;
        let hottest = (0..g.vertex_count()).map(|u| g.degree(u)).max().unwrap();
        let bucket = |d: u64| 64 - (d + 1).leading_zeros();
        assert_eq!(bucket(g.degree(old_of_new0)), bucket(hottest));
        // Degrees are non-increasing at bucket granularity.
        let degs: Vec<u64> = (0..sorted.vertex_count())
            .map(|u| sorted.degree(u))
            .collect();
        let buckets: Vec<u32> = degs.iter().map(|&d| bucket(d)).collect();
        assert!(buckets.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn dbg_is_involution_safe() {
        // Applying DBG to an already-sorted graph keeps it sorted.
        let g = generate_rmat(&RmatParams::kronecker(9), 11);
        let (s1, _) = degree_based_grouping(&g);
        let (s2, _) = degree_based_grouping(&s1);
        let degs = |g: &CsrGraph| {
            (0..g.vertex_count())
                .map(|u| g.degree(u))
                .collect::<Vec<_>>()
        };
        assert_eq!(degs(&s1), degs(&s2));
    }
}
