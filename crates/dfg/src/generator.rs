//! Input-stream (workload) generators — §3.2, Figures 3 and 4.
//!
//! "To generate each type of input stream, we have written a software which
//! accepts for an input a series of kernels and each kernel has its own data
//! size. This series of kernels is then fit into the model/type of DFG,
//! either DFG Type-1 or DFG Type-2." This module is that software:
//!
//! * [`generate_kernels`] produces the seeded random series of kernels
//!   (drawn one at a time by [`KernelSampler`]),
//! * [`build_type1`] / [`build_type2`] fit a series into the two DFG shapes,
//! * [`generate`] is the one-call combination.
//!
//! **DFG Type-1** (Figure 3): with `n` kernels, `n−1` are independent
//! ("level-1") and the `n`-th becomes ready only after all of them complete.
//!
//! **DFG Type-2** (Figure 4): a mix of individual kernels, dependent chains,
//! and three diamond-shaped "kernel graph blocks" (one kernel at the top,
//! multiple independent kernels in the middle, one at the bottom). When `n`
//! changes only the number of independent kernels inside the blocks changes;
//! the overall structure is fixed, exactly as the paper describes.
//!
//! The thesis does not publish its ten concrete kernel series, so the series
//! here are reconstructed: kernel kinds are drawn with per-graph random
//! weights (graphs differ in their mix, mirroring the paper's observation
//! that e.g. its graph 1 "happened to have a lot more kernels with relatively
//! smaller execution times"), and swept kernels get a uniformly chosen
//! measured data size.

use crate::graph::{Dag, NodeId};
use crate::kernel::{Kernel, KernelKind};
use crate::lookup::LookupTable;
use crate::rng::SplitMix64;
use crate::KernelDag;
use serde::{Deserialize, Serialize};

/// Kernel counts of the paper's ten experiments (Tables 15/16), shared by
/// both DFG types.
pub const EXPERIMENT_KERNEL_COUNTS: [usize; 10] = [46, 58, 50, 73, 69, 81, 125, 93, 132, 157];

/// Which DFG family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DfgType {
    /// Independent level-1 kernels with a single fan-in sink (Figure 3).
    Type1,
    /// Dependency-rich mix with diamond blocks (Figure 4).
    Type2,
}

impl DfgType {
    /// Both families.
    pub const ALL: [DfgType; 2] = [DfgType::Type1, DfgType::Type2];

    /// Label used in tables ("Type-1" / "Type-2").
    pub const fn label(self) -> &'static str {
        match self {
            DfgType::Type1 => "Type-1",
            DfgType::Type2 => "Type-2",
        }
    }
}

/// Configuration for a random kernel series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Number of kernels in the series.
    pub len: usize,
    /// PRNG seed; identical seeds give identical series forever.
    pub seed: u64,
    /// If true (default), each graph draws its own random kind weights in
    /// `1..=4`, so graphs differ in composition; if false, kinds are uniform.
    pub weighted_mix: bool,
}

impl StreamConfig {
    /// A weighted-mix series of `len` kernels from `seed`.
    pub const fn new(len: usize, seed: u64) -> Self {
        StreamConfig {
            len,
            seed,
            weighted_mix: true,
        }
    }

    /// Uniform-mix variant.
    pub const fn uniform(len: usize, seed: u64) -> Self {
        StreamConfig {
            len,
            seed,
            weighted_mix: false,
        }
    }
}

/// Structural parameters of the Type-2 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Type2Config {
    /// Number of diamond "kernel graph blocks" (the paper uses three).
    pub diamond_blocks: usize,
    /// Length of each dependent chain group.
    pub chain_len: usize,
    /// Percentage (0–100) of the non-block kernels placed in chains; the
    /// rest are independent singletons.
    pub chain_percent: u8,
}

impl Default for Type2Config {
    fn default() -> Self {
        Type2Config {
            diamond_blocks: 3,
            chain_len: 3,
            chain_percent: 40,
        }
    }
}

/// How the Type-2 generator partitioned `n` kernels (exposed for tests and
/// for the ASCII renderer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Type2Layout {
    /// Number of middle kernels in each diamond block.
    pub diamond_middles: Vec<usize>,
    /// Number of chains of `chain_len` kernels (a final shorter chain may
    /// exist; its length is `short_chain`).
    pub chains: usize,
    /// Length of the trailing shorter chain (0 if none).
    pub short_chain: usize,
    /// Number of independent singleton kernels.
    pub singletons: usize,
}

impl Type2Layout {
    /// Total kernels covered by this layout.
    pub fn total(&self, cfg: &Type2Config) -> usize {
        let blocks: usize = self.diamond_middles.iter().map(|m| m + 2).sum();
        blocks + self.chains * cfg.chain_len + self.short_chain + self.singletons
    }
}

/// Generate the seeded random kernel series described in the module docs.
pub fn generate_kernels(cfg: &StreamConfig, lookup: &LookupTable) -> Vec<Kernel> {
    let mut sampler = KernelSampler::new(cfg);
    (0..cfg.len).map(|_| sampler.next_kernel(lookup)).collect()
}

/// The draw behind [`generate_kernels`], one kernel at a time: the series'
/// kind weights first, then per kernel a weighted kind and, for swept
/// kinds, a data-size index. The weights live on the stack, so drawing
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct KernelSampler {
    rng: SplitMix64,
    weights: [u64; KernelKind::ALL.len()],
}

impl KernelSampler {
    /// A sampler over the series `cfg` describes (`cfg.len` is not
    /// enforced: the caller decides how many kernels to draw).
    pub fn new(cfg: &StreamConfig) -> KernelSampler {
        let mut rng = SplitMix64::new(cfg.seed);
        let mut weights = [1; KernelKind::ALL.len()];
        if cfg.weighted_mix {
            for w in &mut weights {
                *w = 1 + rng.gen_range(4);
            }
        }
        KernelSampler { rng, weights }
    }

    /// Draw the next kernel as a `(kind, size index)` key: the index into
    /// `lookup`'s ascending size list for swept kinds, 0 for kinds with a
    /// canonical size (which consume no size draw). [`kernel_at`] turns the
    /// key into the kernel.
    pub fn next_key(&mut self, lookup: &LookupTable) -> (KernelKind, usize) {
        let kind = KernelKind::ALL[self.rng.choose_weighted(&self.weights)];
        let index = match kind.canonical_size() {
            Some(_) => 0,
            // Index into the table's size index directly — same RNG stream
            // as `choose(&sizes_for(kind))` without materializing the size
            // list per kernel.
            None => self.rng.gen_index(lookup.size_count(kind)),
        };
        (kind, index)
    }

    /// Draw the next kernel.
    pub fn next_kernel(&mut self, lookup: &LookupTable) -> Kernel {
        let (kind, index) = self.next_key(lookup);
        kernel_at(kind, index, lookup)
    }
}

/// The kernel a [`KernelSampler::next_key`] key names.
pub fn kernel_at(kind: KernelKind, size_index: usize, lookup: &LookupTable) -> Kernel {
    let data_size = match kind.canonical_size() {
        Some(s) => s,
        None => lookup.size_at(kind, size_index),
    };
    Kernel::new(kind, data_size)
}

/// Fit a kernel series into the DFG Type-1 shape (Figure 3): kernels
/// `0..n−1` are mutually independent; kernel `n−1` depends on all of them.
pub fn build_type1(kernels: &[Kernel]) -> KernelDag {
    let mut g = Dag::with_capacity(kernels.len());
    for &k in kernels {
        g.add_node(k);
    }
    for (from, to) in type1_edges(kernels.len()) {
        g.add_edge(NodeId::new(from), NodeId::new(to))
            .expect("type-1 edges are fresh and acyclic");
    }
    g
}

/// The edges of the Type-1 shape over `n` kernels, in the order
/// [`build_type1`] adds them: `(i, n−1)` for every `i < n−1`.
pub fn type1_edges(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let last = n.saturating_sub(1);
    (0..last).map(move |i| (i, last))
}

/// Salt for the Type-2 partition RNG stream: layout draws must not share
/// a stream with the kernel-series draws of the same `seed`, or changing
/// the partition logic would retroactively shift every kernel size. Named
/// per the workspace RNG-stream discipline (`apt-lint` `rng-salt` rule):
/// every derived stream is `seed ^ *_STREAM_SALT`, greppable by suffix.
pub const TYPE2_PARTITION_STREAM_SALT: u64 = 0x5EED_D1A6;

/// Compute the Type-2 partition of `n` kernels (deterministic in `seed`).
pub fn type2_layout(n: usize, seed: u64, cfg: &Type2Config) -> Type2Layout {
    let mut rng = SplitMix64::new(seed ^ TYPE2_PARTITION_STREAM_SALT);
    // Each diamond needs top + bottom + ≥1 middle. If n is too small for the
    // configured block count, scale the block count down.
    let blocks = cfg.diamond_blocks.min(n / 3);
    let mut diamond_middles = vec![1usize; blocks];
    let mut remaining = n - blocks * 3;

    if blocks > 0 {
        // Roughly 40% of the spare kernels widen the diamonds, split randomly.
        let widen = (remaining * 2) / 5;
        for _ in 0..widen {
            let b = rng.gen_index(blocks);
            diamond_middles[b] += 1;
        }
        remaining -= widen;
    }

    // Of the rest, `chain_percent` go into chains of `chain_len`.
    let chained = remaining * cfg.chain_percent as usize / 100;
    let chains = chained / cfg.chain_len.max(1);
    let mut short_chain = chained % cfg.chain_len.max(1);
    if short_chain == 1 {
        // A 1-kernel "chain" is just a singleton; classify it as such.
        short_chain = 0;
    }
    let used_in_chains = chains * cfg.chain_len + short_chain;
    let singletons = remaining - used_in_chains;

    Type2Layout {
        diamond_middles,
        chains,
        short_chain,
        singletons,
    }
}

/// Fit a kernel series into the DFG Type-2 shape (Figure 4).
///
/// Kernels are consumed in series order: first the diamond blocks (top,
/// middles, bottom), then the chains, then the singletons — mirroring the
/// "order of occurrence in the system" annotation of Figure 4.
///
/// The layout walk is **index-backed**: node ids are dense `0..n` in series
/// order, so each group is addressed as an id range off a running cursor
/// instead of materializing per-group `Vec<NodeId>` lists (which the bench
/// `engine/generate/Type-2` showed within ~2× of the simulator itself).
pub fn build_type2(kernels: &[Kernel], seed: u64, cfg: &Type2Config) -> KernelDag {
    let layout = type2_layout(kernels.len(), seed, cfg);
    let mut g = Dag::with_capacity(kernels.len());
    for &k in kernels {
        g.add_node(k);
    }

    let mut next = 0usize;

    for &middles in &layout.diamond_middles {
        let top = NodeId::new(next);
        let bottom = NodeId::new(next + middles + 1);
        for j in 0..middles {
            let m = NodeId::new(next + 1 + j);
            g.add_edge(top, m).expect("fresh edge");
            g.add_edge(m, bottom).expect("fresh edge");
        }
        if middles == 0 {
            g.add_edge(top, bottom).expect("fresh edge");
        }
        next += middles + 2;
    }

    let mut chain = |next: &mut usize, len: usize| {
        for i in *next..*next + len.saturating_sub(1) {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1))
                .expect("fresh edge");
        }
        *next += len;
    };
    for _ in 0..layout.chains {
        chain(&mut next, cfg.chain_len);
    }
    if layout.short_chain > 0 {
        chain(&mut next, layout.short_chain);
    }

    // Singletons: the rest of the series, no edges.
    next += layout.singletons;
    debug_assert_eq!(next, kernels.len(), "layout must cover the whole series");

    g
}

/// One-call generation: seeded series + shape fit + validation.
///
/// ```
/// use apt_dfg::generator::{generate, DfgType, StreamConfig};
/// use apt_dfg::LookupTable;
///
/// let dfg = generate(DfgType::Type2, &StreamConfig::new(20, 7), LookupTable::paper());
/// assert_eq!(dfg.len(), 20);
/// dfg.validate().unwrap();
/// // Regeneration from the same seed is bit-identical.
/// assert_eq!(dfg, generate(DfgType::Type2, &StreamConfig::new(20, 7), LookupTable::paper()));
/// ```
pub fn generate(ty: DfgType, cfg: &StreamConfig, lookup: &LookupTable) -> KernelDag {
    let kernels = generate_kernels(cfg, lookup);
    let g = match ty {
        DfgType::Type1 => build_type1(&kernels),
        DfgType::Type2 => build_type2(&kernels, cfg.seed, &Type2Config::default()),
    };
    g.validate().expect("generators produce DAGs");
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup() -> &'static LookupTable {
        LookupTable::paper()
    }

    #[test]
    fn stream_is_deterministic_and_sized() {
        let cfg = StreamConfig::new(46, 0xA11CE);
        let a = generate_kernels(&cfg, lookup());
        let b = generate_kernels(&cfg, lookup());
        assert_eq!(a, b);
        assert_eq!(a.len(), 46);
        // Different seed, different stream (overwhelmingly likely).
        let c = generate_kernels(&StreamConfig::new(46, 0xB0B), lookup());
        assert_ne!(a, c);
    }

    #[test]
    fn stream_kernels_all_have_lookup_entries() {
        let cfg = StreamConfig::new(200, 7);
        for k in generate_kernels(&cfg, lookup()) {
            assert!(lookup().row(&k).is_ok(), "missing entry for {k}");
        }
    }

    #[test]
    fn type1_shape_matches_figure3() {
        let kernels = generate_kernels(&StreamConfig::new(9, 1), lookup());
        let g = build_type1(&kernels);
        g.validate().unwrap();
        // Figure 3: with 9 kernels, 8 run in parallel, the 9th afterwards.
        assert_eq!(g.len(), 9);
        assert_eq!(g.edge_count(), 8);
        let last = NodeId::new(8);
        assert_eq!(g.in_degree(last), 8);
        for i in 0..8 {
            let n = NodeId::new(i);
            assert_eq!(g.in_degree(n), 0);
            assert_eq!(g.succs(n), &[last]);
        }
        let levels = g.levels().unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 8);
    }

    #[test]
    fn type1_tiny_graphs() {
        let one = build_type1(&generate_kernels(&StreamConfig::new(1, 1), lookup()));
        assert_eq!(one.len(), 1);
        assert_eq!(one.edge_count(), 0);
        let two = build_type1(&generate_kernels(&StreamConfig::new(2, 1), lookup()));
        assert_eq!(two.edge_count(), 1);
        let empty = build_type1(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn type2_layout_covers_everything() {
        let cfg = Type2Config::default();
        for n in [14usize, 46, 58, 73, 125, 157] {
            for seed in 0..5u64 {
                let layout = type2_layout(n, seed, &cfg);
                assert_eq!(layout.total(&cfg), n, "n={n} seed={seed}");
                assert_eq!(layout.diamond_middles.len(), 3);
                assert!(layout.diamond_middles.iter().all(|&m| m >= 1));
            }
        }
    }

    #[test]
    fn type2_has_three_diamonds_and_valid_structure() {
        let kernels = generate_kernels(&StreamConfig::new(46, 42), lookup());
        let g = build_type2(&kernels, 42, &Type2Config::default());
        g.validate().unwrap();
        assert_eq!(g.len(), 46);
        // Three diamond tops: out-degree = middles ≥ 1, in-degree 0.
        // Count nodes that look like diamond bottoms: in-degree ≥ 1 matching a top.
        let layout = type2_layout(46, 42, &Type2Config::default());
        let mut idx = 0;
        for &m in &layout.diamond_middles {
            let top = NodeId::new(idx);
            let bottom = NodeId::new(idx + m + 1);
            assert_eq!(g.out_degree(top), m);
            assert_eq!(g.in_degree(bottom), m);
            for j in 0..m {
                let mid = NodeId::new(idx + 1 + j);
                assert_eq!(g.preds(mid), &[top]);
                assert_eq!(g.succs(mid), &[bottom]);
            }
            idx += m + 2;
        }
    }

    #[test]
    fn type2_small_n_degrades_gracefully() {
        for n in 0..14usize {
            let kernels = generate_kernels(&StreamConfig::new(n, 3), lookup());
            let g = build_type2(&kernels, 3, &Type2Config::default());
            g.validate().unwrap();
            assert_eq!(g.len(), n);
        }
    }

    #[test]
    fn generate_both_types_for_all_paper_sizes() {
        for (i, &n) in EXPERIMENT_KERNEL_COUNTS.iter().enumerate() {
            for ty in DfgType::ALL {
                let g = generate(ty, &StreamConfig::new(n, 1000 + i as u64), lookup());
                assert_eq!(g.len(), n);
                g.validate().unwrap();
            }
        }
    }

    #[test]
    fn type2_has_more_dependency_structure_than_type1_sources() {
        // Type-1 has n−1 sources; Type-2's diamonds/chains reduce that.
        let n = 81;
        let t1 = generate(DfgType::Type1, &StreamConfig::new(n, 9), lookup());
        let t2 = generate(DfgType::Type2, &StreamConfig::new(n, 9), lookup());
        assert!(t2.sources().len() < t1.sources().len());
        // And deeper levels.
        assert!(t2.levels().unwrap().len() >= 2);
    }

    #[test]
    fn uniform_mix_hits_every_kind_eventually() {
        let cfg = StreamConfig::uniform(500, 11);
        let kernels = generate_kernels(&cfg, lookup());
        for kind in KernelKind::ALL {
            assert!(
                kernels.iter().any(|k| k.kind == kind),
                "kind {kind} never drawn"
            );
        }
    }
}
