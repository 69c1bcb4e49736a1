//! Page Walk Cache (PWC): caches upper-level page-table entries so a
//! walk can skip levels it has recently resolved.
//!
//! The paper's §5.4.1 discusses PWCs as a design alternative to the PCC:
//! they shorten walks to ~1.1–1.4 memory references but cannot identify
//! promotion candidates (they are size-blind). This model lets the walk
//! cost in `hpage-perf` reflect PWC hits: the effective number of levels a
//! walk references is `4 - skipped`.
//!
//! Intel-style split paging-structure caches are modelled: arrays for
//! PML4E (512 GiB tags), PDPTE (1 GiB tags) and PDE (2 MiB tags) entries.
//! A hit at a level lets the walk resume below it, down to a single leaf
//! reference on a PDE hit. [`StructureCache`] holds the three arrays of
//! one translation dimension and the walk rule; [`PageWalkCache`] uses
//! one for native walks and [`NestedPwc`](crate::NestedPwc) one per
//! dimension of a 2D walk.

use hpage_types::{PageSize, PwcConfig, VirtAddr, Vpn};

/// Statistics for one PWC instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PwcStats {
    /// Walks that consulted the PWC.
    pub walks: u64,
    /// Walks that skipped straight to the leaf PTE (PDE-cache hit).
    pub pde_hits: u64,
    /// Walks that skipped down to the PD level (PDPTE-cache hit).
    pub pdpte_hits: u64,
    /// Walks that skipped only the top level (PML4E-cache hit).
    pub pml4e_hits: u64,
    /// Walks with no PWC hit (full walk).
    pub misses: u64,
    /// Total page-table levels actually referenced.
    pub levels_referenced: u64,
}

impl PwcStats {
    /// Mean page-table references per walk (the paper quotes 1.1–1.4 for
    /// real PWCs; a leaf PTE reference is always needed).
    pub fn mean_references(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.levels_referenced as f64 / self.walks as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    stamp: u64,
}

/// Fully associative LRU array keyed by a region tag. Recency comes
/// from the owner's stamp counter, bumped on *every* touch, so stamps
/// are unique and the LRU victim is always unique.
#[derive(Debug, Clone)]
pub(crate) struct LruArray {
    entries: Vec<Entry>,
    capacity: usize,
}

impl LruArray {
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "PWC arrays need at least one entry");
        LruArray {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
        }
    }

    /// Looks `tag` up, refreshing its recency on a hit.
    pub(crate) fn probe(&mut self, tag: u64, stamp: &mut u64) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) {
            *stamp += 1;
            e.stamp = *stamp;
            true
        } else {
            false
        }
    }

    /// Inserts `tag` (or refreshes it), evicting the LRU entry when full.
    pub(crate) fn install(&mut self, tag: u64, stamp: &mut u64) {
        if self.probe(tag, stamp) {
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.entries.swap_remove(lru);
        }
        *stamp += 1;
        self.entries.push(Entry { tag, stamp: *stamp });
    }

    /// Drops every entry whose tag fails `keep`; returns entries dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| keep(e.tag));
        before - self.entries.len()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The split paging-structure caches of one translation dimension:
/// `levels[0]` holds PML4Es (tags `addr >> 39`), `levels[1]` PDPTEs
/// (`addr >> 30`) and `levels[2]` PDEs (`addr >> 21`). The address is a
/// virtual address natively and in the guest dimension, and a
/// guest-physical one in the host dimension.
#[derive(Debug, Clone)]
pub(crate) struct StructureCache {
    levels: [LruArray; 3],
}

impl StructureCache {
    /// # Panics
    ///
    /// Panics if any array in `config` is empty.
    pub(crate) fn new(config: &PwcConfig) -> Self {
        StructureCache {
            levels: [
                LruArray::new(config.pml4e_entries),
                LruArray::new(config.pdpte_entries),
                LruArray::new(config.pde_entries),
            ],
        }
    }

    /// Accounts one walk for `addr` whose leaf sits at `leaf` radix
    /// levels from the root (2..=4) and returns the deepest level that
    /// hit (1 = PML4E, 2 = PDPTE, 3 = PDE; 0 on a full miss). The walk
    /// references `leaf - hit` levels.
    ///
    /// Deepest hit wins; arrays above the hit are not referenced, so
    /// they are left untouched. The walk then installs every non-leaf
    /// entry it actually traverses: a PDE is only a non-leaf on 4 KiB-
    /// leaf walks, and a 1 GiB-leaf walk's PDPTE is the translation
    /// itself — paging-structure caches never hold leaves.
    pub(crate) fn walk(&mut self, addr: VirtAddr, leaf: u8, stamp: &mut u64) -> u8 {
        let tag = |level: u8| addr.raw() >> (48 - 9 * u32::from(level));
        let hit = (1..leaf)
            .rev()
            .find(|&level| self.levels[usize::from(level) - 1].probe(tag(level), stamp))
            .unwrap_or(0);
        for level in hit + 1..leaf {
            self.levels[usize::from(level) - 1].install(tag(level), stamp);
        }
        hit
    }

    /// Drops the entries overlapping a 2 MiB region: its PDE and,
    /// conservatively, the covering PDPTE. Returns entries dropped.
    pub(crate) fn invalidate_region(&mut self, region: Vpn) -> usize {
        let g = region.containing(PageSize::Huge1G).index();
        let m = region.index();
        self.levels[1].retain(|tag| tag != g) + self.levels[2].retain(|tag| tag != m)
    }

    /// Empties all three arrays.
    pub(crate) fn clear(&mut self) {
        self.levels.iter_mut().for_each(LruArray::clear);
    }
}

/// A fully-software model of a split paging-structure cache (Intel
/// terminology) for native walks.
#[derive(Debug, Clone)]
pub struct PageWalkCache {
    cache: StructureCache,
    stamp: u64,
    stats: PwcStats,
}

impl PageWalkCache {
    /// Creates a PWC with the given capacities (fully associative, LRU).
    /// Skylake-era parts have roughly 4×PML4E, 16–32×PDPTE and
    /// 32–64×PDE entries.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero.
    pub fn new(pml4e_entries: u32, pdpte_entries: u32, pde_entries: u32) -> Self {
        PageWalkCache {
            cache: StructureCache::new(&PwcConfig {
                pml4e_entries,
                pdpte_entries,
                pde_entries,
            }),
            stamp: 0,
            stats: PwcStats::default(),
        }
    }

    /// A typical modern-CPU geometry (4 PML4E, 32 PDPTE, 64 PDE).
    pub fn typical() -> Self {
        PageWalkCache::new(4, 32, 64)
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &PwcStats {
        &self.stats
    }

    /// Accounts one hardware walk for `va` whose leaf sits at
    /// `leaf_levels` radix levels from the root (4 for a 4 KiB PTE, 3
    /// for a 2 MiB PMD leaf, 2 for a 1 GiB PUD leaf). Returns the number
    /// of page-table levels actually referenced after PWC skipping, and
    /// installs the walked prefix entries.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_levels` is outside `2..=4`.
    pub fn walk(&mut self, va: VirtAddr, leaf_levels: u8) -> u8 {
        assert!((2..=4).contains(&leaf_levels), "leaf level out of range");
        self.stats.walks += 1;
        let hit = self.cache.walk(va, leaf_levels, &mut self.stamp);
        *match hit {
            0 => &mut self.stats.misses,
            1 => &mut self.stats.pml4e_hits,
            2 => &mut self.stats.pdpte_hits,
            _ => &mut self.stats.pde_hits,
        } += 1;
        let referenced = leaf_levels - hit;
        self.stats.levels_referenced += u64::from(referenced);
        referenced
    }

    /// Invalidates cached structure entries overlapping a huge region. A
    /// promotion/demotion rewrites the region's PDE, so the PDE-cache
    /// copy must go (and, conservatively, the covering PDPTE entry).
    pub fn invalidate_region(&mut self, region: Vpn) -> usize {
        self.cache.invalidate_region(region)
    }

    /// Empties all arrays.
    pub fn flush(&mut self) {
        self.cache.clear();
    }
}

impl Default for PageWalkCache {
    fn default() -> Self {
        PageWalkCache::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_walk_references_all_levels() {
        let mut pwc = PageWalkCache::typical();
        assert_eq!(pwc.walk(VirtAddr::new(0x1234_5000), 4), 4);
        assert_eq!(pwc.stats().misses, 1);
    }

    #[test]
    fn repeat_walk_same_2m_region_hits_pde() {
        let mut pwc = PageWalkCache::typical();
        pwc.walk(VirtAddr::new(0x1234_5000), 4);
        // Same 2MB region: PDE hit, only the leaf PTE referenced.
        assert_eq!(pwc.walk(VirtAddr::new(0x1234_6000), 4), 1);
        assert_eq!(pwc.stats().pde_hits, 1);
        // Same 1GB region, different 2MB region: PDPTE hit (2 refs).
        assert_eq!(pwc.walk(VirtAddr::new(0x1255_0000), 4), 2);
        assert_eq!(pwc.stats().pdpte_hits, 1);
        assert!(pwc.stats().mean_references() < 4.0);
    }

    #[test]
    fn cross_1g_same_512g_skips_top_only() {
        let mut pwc = PageWalkCache::typical();
        pwc.walk(VirtAddr::new(0), 4);
        // Different 1GB region, same 512GB region: PML4E hit.
        assert_eq!(pwc.walk(VirtAddr::new(1 << 30), 4), 3);
        assert_eq!(pwc.stats().pml4e_hits, 1);
    }

    #[test]
    fn huge_leaf_walks_are_shorter() {
        let mut pwc = PageWalkCache::typical();
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 3), 3); // cold 2MB leaf
        assert_eq!(pwc.walk(VirtAddr::new(0x4020_0000), 3), 1); // PDPTE hit
                                                                // A 1GB leaf with a PDPTE hit still needs the leaf reference.
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 2), 1);
    }

    #[test]
    fn lru_eviction_in_pdpte_array() {
        let mut pwc = PageWalkCache::new(4, 2, 64);
        pwc.walk(VirtAddr::new(0), 4);
        pwc.walk(VirtAddr::new(1 << 30), 4);
        pwc.walk(VirtAddr::new(2 << 30), 4); // evicts 1GB region 0
                                             // Region 0 misses the PDPTE array (but hits the PDE cache from
                                             // its own earlier walk — same 2MB region).
        assert_eq!(pwc.walk(VirtAddr::new(0), 4), 1);
        // A *different* 2MB page in region 0 must pay the PML4E-only
        // path (PDE and PDPTE both miss).
        assert_eq!(pwc.walk(VirtAddr::new(0x40_0000), 4), 3);
    }

    #[test]
    fn huge_1g_leaf_does_not_seed_structure_cache() {
        // A 1 GiB-leaf walk's PDPTE *is* the translation, not a pointer
        // to a lower table; paging-structure caches never hold leaves.
        let mut pwc = PageWalkCache::typical();
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 2), 2);
        // A later 4 KiB-leaf walk in the same 1 GiB region must pay the
        // PML4E-hit path (3 references), not a bogus PDPTE hit seeded by
        // the huge leaf above it.
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_1000), 4), 3);
        assert_eq!(pwc.stats().pml4e_hits, 1);
        assert_eq!(pwc.stats().pdpte_hits, 0);
    }

    #[test]
    fn steady_state_approaches_paper_reference_rate() {
        // Hammer a handful of 1GB regions: mean references/walk should
        // approach the 1.1–1.4 the paper quotes for effective PWCs.
        let mut pwc = PageWalkCache::typical();
        for i in 0..10_000u64 {
            pwc.walk(VirtAddr::new((i % 8) << 30 | (i * 0x1000) & 0x3FFF_F000), 4);
        }
        let mean = pwc.stats().mean_references();
        assert!((1.0..1.5).contains(&mean), "mean refs {mean}");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut pwc = PageWalkCache::typical();
        pwc.walk(VirtAddr::new(0x4000_0000), 4);
        let region = VirtAddr::new(0x4000_0000).vpn(PageSize::Huge2M);
        // Both the PDE entry and the covering PDPTE entry are dropped.
        assert_eq!(pwc.invalidate_region(region), 2);
        pwc.walk(VirtAddr::new(0x4000_0000), 4);
        pwc.flush();
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 4), 4);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = PageWalkCache::new(0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "leaf level")]
    fn bad_leaf_level_panics() {
        let mut pwc = PageWalkCache::typical();
        pwc.walk(VirtAddr::new(0), 5);
    }
}
