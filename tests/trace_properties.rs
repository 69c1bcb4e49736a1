//! Property-based tests over the workload substrate: graph invariants,
//! synthetic-trace budgets, reuse-distance accounting, and PWC bounds.

use hpage::tlb::PageWalkCache;
use hpage::trace::{
    degree_based_grouping, generate_rmat, CsrGraph, Pattern, ReuseAnalyzer, RmatParams,
    SyntheticBuilder, Workload,
};
use hpage::types::VirtAddr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The R-MAT generator as first written: one `f64` draw per level and a
/// three-way branch cascade on it. [`generate_rmat`] evaluates the same
/// cascade on integer thresholds; this is the model it must reproduce
/// edge for edge.
fn reference_rmat(params: &RmatParams, seed: u64) -> CsrGraph {
    let n = params.vertex_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(params.edge_count() as usize);
    for _ in 0..params.edge_count() {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..params.scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.random();
            if r < params.a {
                // top-left: neither bit set
            } else if r < params.a + params.b {
                v |= 1;
            } else if r < params.a + params.b + params.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        edges.push((u % n, v % n));
    }
    CsrGraph::from_edges(n, &edges)
}

/// The relabel model: rename every edge, then rebuild the CSR from the
/// renamed edge list.
fn reference_relabel(g: &CsrGraph, perm: &[u32]) -> CsrGraph {
    let mut edges = Vec::new();
    for u in 0..g.vertex_count() {
        for &v in g.neighbors_of(u) {
            edges.push((perm[u as usize], perm[v as usize]));
        }
    }
    CsrGraph::from_edges(g.vertex_count(), &edges)
}

const PRESETS: [fn(u32) -> RmatParams; 4] = [
    RmatParams::kronecker,
    RmatParams::social,
    RmatParams::web,
    RmatParams::uniform,
];

/// Asserts the generator and the reference agree on `params` and `seed`
/// (comparing without `assert_eq!`, whose failure would print both
/// graphs in full).
fn assert_matches_reference(params: &RmatParams, seed: u64) {
    let fast = generate_rmat(params, seed);
    assert!(
        fast == reference_rmat(params, seed),
        "generate_rmat diverged from the f64 cascade: {params:?}, seed {seed}"
    );
}

/// FNV-1a over the CSR arrays (offsets as little-endian `u64`, then
/// neighbours as little-endian `u32`).
fn csr_digest(g: &CsrGraph) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let offsets = g.offsets().iter().flat_map(|o| o.to_le_bytes());
    let neighbors = g.neighbors().iter().flat_map(|v| v.to_le_bytes());
    for b in offsets.chain(neighbors) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn rmat_matches_reference_when_probabilities_sum_to_exactly_one() {
    for (a, b, c) in [(0.57, 0.19, 0.24), (0.5, 0.25, 0.25)] {
        assert_eq!(a + b + c, 1.0, "the case must hit the boundary exactly");
        let params = RmatParams {
            scale: 10,
            edge_factor: 16,
            a,
            b,
            c,
        };
        for seed in [0, 7, u64::MAX] {
            assert_matches_reference(&params, seed);
        }
    }
}

#[test]
fn rmat_matches_reference_at_the_allowed_overshoot() {
    // The generator accepts a+b+c up to 1 + 1e-9, which puts the
    // bottom-right threshold above 2^53, beyond every 53-bit draw.
    let params = RmatParams {
        scale: 10,
        edge_factor: 16,
        a: 0.57,
        b: 0.19,
        c: 0.24 + 1e-9,
    };
    assert!(params.a + params.b + params.c > 1.0);
    for seed in [0, 7, u64::MAX] {
        assert_matches_reference(&params, seed);
    }
}

#[test]
fn rmat_matches_reference_on_degenerate_quadrants() {
    // Empty quadrants, a certain quadrant, and an out-of-order set (a
    // negative b) whose cascade skips a branch: first match still wins.
    let cases = [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 0.5, 0.5),
        (0.5, -0.2, 0.5),
    ];
    for (a, b, c) in cases {
        let params = RmatParams {
            scale: 8,
            edge_factor: 8,
            a,
            b,
            c,
        };
        for seed in [1, 99] {
            assert_matches_reference(&params, seed);
        }
    }
}

#[test]
fn rmat_kronecker_16_digest_is_pinned() {
    // Captured from the f64-cascade generator before the integer
    // rewrite; any change to the edge stream or CSR layout moves it.
    let g = generate_rmat(&RmatParams::kronecker(16), 7);
    assert_eq!(csr_digest(&g), 0x2a6e_9557_002e_82a9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The integer-threshold generator yields the f64 cascade's graph
    /// for every preset, scale and seed.
    #[test]
    fn rmat_matches_f64_reference(
        preset in 0usize..4,
        scale in 1u32..13,
        seed in any::<u64>(),
    ) {
        assert_matches_reference(&PRESETS[preset](scale), seed);
    }

    /// ... and for arbitrary quadrant probabilities (in thousandths,
    /// summing to at most 1, zeros included).
    #[test]
    fn rmat_matches_f64_reference_on_any_probabilities(
        (a, b, c) in (0u32..1001, 0u32..1001, 0u32..1001),
        seed in any::<u64>(),
    ) {
        let b = b % (1001 - a);
        let c = c % (1001 - a - b);
        let milli = |x: u32| f64::from(x) / 1000.0;
        let params = RmatParams { scale: 9, edge_factor: 8, a: milli(a), b: milli(b), c: milli(c) };
        assert_matches_reference(&params, seed);
    }

    /// Relabelling in place equals renaming the edge list and rebuilding.
    #[test]
    fn relabel_matches_edge_list_reference(scale in 1u32..11, seed in any::<u64>()) {
        let g = generate_rmat(&RmatParams::kronecker(scale), seed);
        let mut perm: Vec<u32> = (0..g.vertex_count()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed));
        prop_assert!(g.relabel(&perm) == reference_relabel(&g, &perm));
    }

    /// CSR construction: offsets are monotonic, end at the edge count,
    /// and each vertex's neighbour slice length equals its degree.
    #[test]
    fn csr_offsets_consistent(
        n in 2u32..64,
        edges in prop::collection::vec((0u32..64, 0u32..64), 0..256),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(g.vertex_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len() as u64);
        prop_assert!(g.offsets().windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*g.offsets().last().unwrap(), edges.len() as u64);
        let degree_sum: u64 = (0..n).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, edges.len() as u64);
        for u in 0..n {
            prop_assert_eq!(g.neighbors_of(u).len() as u64, g.degree(u));
        }
    }

    /// DBG relabeling preserves the degree multiset and edge count.
    #[test]
    fn dbg_preserves_degree_multiset(scale in 4u32..9, seed in 0u64..1000) {
        let g = generate_rmat(&RmatParams::kronecker(scale), seed);
        let (sorted, perm) = degree_based_grouping(&g);
        prop_assert_eq!(g.edge_count(), sorted.edge_count());
        let mut d1: Vec<u64> = (0..g.vertex_count()).map(|u| g.degree(u)).collect();
        let mut d2: Vec<u64> = (0..sorted.vertex_count()).map(|u| sorted.degree(u)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        // perm maps each old vertex's degree onto the same new degree.
        for u in 0..g.vertex_count() {
            prop_assert_eq!(g.degree(u), sorted.degree(perm[u as usize]));
        }
    }

    /// A synthetic workload emits exactly the sum of its phase budgets,
    /// every access inside its declared regions.
    #[test]
    fn synth_trace_budget_and_bounds(
        counts in prop::collection::vec(1u64..200, 1..4),
        seed in 0u64..100,
    ) {
        let mut b = SyntheticBuilder::new("prop", seed);
        let a = b.array(8, 4096);
        for (i, &c) in counts.iter().enumerate() {
            let pattern = match i % 4 {
                0 => Pattern::Sequential { stride: 1, count: c },
                1 => Pattern::UniformRandom { count: c },
                2 => Pattern::Zipf { count: c, exponent: 0.8 },
                _ => Pattern::PointerChase { count: c },
            };
            b.phase(a, pattern, 20);
        }
        let w = b.build();
        let total: u64 = counts.iter().sum();
        let regions = w.regions();
        let mut n = 0u64;
        for acc in w.trace() {
            prop_assert!(regions.iter().any(|r| r.contains(acc.addr)));
            n += 1;
        }
        prop_assert_eq!(n, total);
    }

    /// Reuse-distance bookkeeping: per-page access counts sum to the
    /// total, and no mean distance can exceed the trace length.
    #[test]
    fn reuse_accounting(addrs in prop::collection::vec(0u64..64, 1..500)) {
        let mut a = ReuseAnalyzer::new();
        for &p in &addrs {
            a.observe_addr(VirtAddr::new(p * 0x1000));
        }
        let profiles = a.profiles();
        let total: u64 = profiles.iter().map(|p| p.accesses).sum();
        prop_assert_eq!(total, addrs.len() as u64);
        for p in &profiles {
            if let Some(d) = p.reuse_4k {
                prop_assert!(d >= 0.0 && d < addrs.len() as f64);
            }
        }
        let (f, h, l) = a.class_counts();
        prop_assert_eq!(f + h + l, profiles.len() as u64);
    }

    /// The PWC never reports more references than the raw walk needs,
    /// never fewer than 1, and its stats counters add up.
    #[test]
    fn pwc_reference_bounds(
        walks in prop::collection::vec((0u64..(1 << 34), 2u8..5), 1..300),
    ) {
        let mut pwc = PageWalkCache::typical();
        for &(addr, leaf) in &walks {
            let refs = pwc.walk(VirtAddr::new(addr), leaf);
            prop_assert!(refs >= 1 && refs <= leaf);
        }
        let s = *pwc.stats();
        prop_assert_eq!(s.walks, walks.len() as u64);
        prop_assert_eq!(
            s.pde_hits + s.pdpte_hits + s.pml4e_hits + s.misses,
            s.walks
        );
        prop_assert!(s.levels_referenced >= s.walks);
    }
}
