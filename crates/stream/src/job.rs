//! Job templates: the unit an arrival source yields.
//!
//! A *job* is a small DAG of kernels submitted to the system as one
//! arrival — the open-system generalization of the paper's fixed input
//! streams (§3.2). [`JobTemplate`] carries the kernels in stream order plus
//! intra-job dependency edges over their local indices, and optionally a
//! *relative deadline* (an SLO: the job should finish within this much time
//! of its arrival); [`JobFamily`] instantiates the DAG shapes the repo
//! already knows (Type-1/Type-2 via the `apt-dfg` generators, plus the
//! chain and diamond micro-shapes of the examples) with per-job seeded
//! kernel draws.
//!
//! A template's kernel and edge lists are shared slices, so cloning a
//! template copies no list. Sources use that to intern what repeats: a
//! per-source `TemplateCache` holds the family's edge list (the same for
//! every chain, diamond or Type-1 job of one size) and one pre-validated
//! template per single-kernel `(kind, size index)` draw. A single-kernel
//! arrival therefore allocates nothing once its kernel has been seen, and
//! a chain, diamond or Type-1 arrival allocates only its kernel list.

use apt_base::{BaseError, SimDuration};
use apt_dfg::generator::{generate, kernel_at, type1_edges, KernelSampler, StreamConfig};
use apt_dfg::{DfgType, Kernel, KernelDag, KernelKind, LookupTable, SplitMix64};
use std::sync::Arc;

/// One job: kernels in stream order, ascending intra-job edges, and an
/// optional relative deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTemplate {
    kernels: Arc<[Kernel]>,
    edges: Arc<[(u32, u32)]>,
    deadline: Option<SimDuration>,
}

impl JobTemplate {
    /// Build a template. Jobs must carry at least one kernel, and edges
    /// must be ascending over local kernel indices
    /// (`from < to < kernels.len()`) with no duplicates — the numbering
    /// every generator in the workspace already produces, and a structural
    /// guarantee of acyclicity. Validation is the engine's own
    /// [`apt_hetsim::validate_job`], so a template that constructs can
    /// never fail admission mid-way.
    pub fn new(kernels: Vec<Kernel>, edges: Vec<(u32, u32)>) -> Result<JobTemplate, BaseError> {
        JobTemplate::from_shared(kernels.into(), edges.into())
    }

    /// [`JobTemplate::new`] over lists that may be shared with other
    /// templates.
    fn from_shared(
        kernels: Arc<[Kernel]>,
        edges: Arc<[(u32, u32)]>,
    ) -> Result<JobTemplate, BaseError> {
        apt_hetsim::validate_job(kernels.len(), &edges)?;
        Ok(JobTemplate {
            kernels,
            edges,
            deadline: None,
        })
    }

    /// Tag this job with a relative deadline: it should finish within
    /// `deadline` of its arrival instant. The streaming driver converts
    /// this to an absolute deadline on admission.
    pub fn with_deadline(mut self, deadline: SimDuration) -> JobTemplate {
        self.deadline = Some(deadline);
        self
    }

    /// The job's relative deadline, if it carries one.
    pub fn deadline(&self) -> Option<SimDuration> {
        self.deadline
    }

    /// Lower bound on this job's response time: the critical path through
    /// the job DAG with every kernel at its table-minimum execution time
    /// (kernels without a table row weigh zero). This is the `CostModel`'s
    /// per-category minimum aggregated over the job — what
    /// proportional-deadline generators and feasibility-estimate admission
    /// gates scale from.
    ///
    /// It runs once per offered arrival (deadline tagging, feasibility
    /// gates), so the common case allocates nothing: every family's edge
    /// list is grouped by source, and a job of at most 64 kernels runs the
    /// DP on stack scratch. Only a larger job (heap scratch) or a
    /// hand-built list whose edges are not grouped by source (heap scratch
    /// plus a sorted copy) allocates.
    pub fn critical_path_min(&self, lookup: &LookupTable) -> SimDuration {
        let n = self.kernels.len();
        let grouped = self.edges.is_sorted_by_key(|&(a, _)| a);
        if grouped && n <= CP_STACK_KERNELS {
            let mut scratch = [[0u64; 2]; CP_STACK_KERNELS];
            return longest_path(&self.kernels, &self.edges, lookup, &mut scratch[..n]);
        }
        let sorted_edges;
        let edges: &[(u32, u32)] = if grouped {
            &self.edges
        } else {
            sorted_edges = {
                let mut e = self.edges.to_vec();
                e.sort_unstable_by_key(|&(a, _)| a);
                e
            };
            &sorted_edges
        };
        longest_path(&self.kernels, edges, lookup, &mut vec![[0u64; 2]; n])
    }

    /// Convert a generated [`KernelDag`] (whose edges the generators number
    /// ascending) into a template.
    pub fn from_dag(dag: &KernelDag) -> Result<JobTemplate, BaseError> {
        let kernels = dag.iter().map(|(_, k)| *k).collect();
        let edges = dag
            .edges()
            .map(|(a, b)| (a.index() as u32, b.index() as u32))
            .collect();
        JobTemplate::from_shared(kernels, edges)
    }

    /// The kernels, in stream order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The intra-job edges over local indices.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Always false — [`JobTemplate::new`] rejects zero-kernel jobs —
    /// but kept for API completeness next to [`JobTemplate::len`].
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

/// DAG families an arrival source instantiates per job. Kernel kinds and
/// data sizes are drawn from the source's seeded RNG, so two sources with
/// the same seed produce identical job sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFamily {
    /// One kernel per job.
    Single,
    /// A dependent chain of `len` kernels.
    Chain {
        /// Chain length (≥ 1).
        len: usize,
    },
    /// A fork-join diamond: one source, `width` independent middles, one
    /// sink (`width + 2` kernels).
    Diamond {
        /// Number of independent middle kernels (≥ 1).
        width: usize,
    },
    /// A paper DFG Type-1 graph of `len` kernels (Figure 3), seeded per
    /// job.
    Type1 {
        /// Kernel count.
        len: usize,
    },
    /// A paper DFG Type-2 graph of `len` kernels (Figure 4), seeded per
    /// job.
    Type2 {
        /// Kernel count.
        len: usize,
    },
}

impl JobFamily {
    /// Number of kernels every job of this family has.
    pub fn kernels_per_job(self) -> usize {
        match self {
            JobFamily::Single => 1,
            JobFamily::Chain { len } => len.max(1),
            JobFamily::Diamond { width } => width.max(1) + 2,
            JobFamily::Type1 { len } | JobFamily::Type2 { len } => len,
        }
    }

    /// Draw one job instance. Deterministic in the RNG state.
    pub fn instantiate(self, rng: &mut SplitMix64, lookup: &LookupTable) -> JobTemplate {
        self.draw(rng, lookup, &mut TemplateCache::default())
    }

    /// [`JobFamily::instantiate`] with repeating parts interned in `cache`:
    /// the same draws and the same template, but a single kernel seen
    /// before costs a clone of its cached template, and a chain, diamond
    /// or Type-1 job reuses the cached edge list. `cache` must only ever see one family
    /// and one `lookup`.
    pub(crate) fn draw(
        self,
        rng: &mut SplitMix64,
        lookup: &LookupTable,
        cache: &mut TemplateCache,
    ) -> JobTemplate {
        // Sub-seed per job: the family generators own their kind/size draw
        // streams, so family structure changes never shift the arrival
        // process draws (and vice versa).
        let seed = rng.next_u64();
        match self {
            JobFamily::Type1 { len } => {
                // `generate`'s Type-1 graph without building it: the same
                // kernel series, and edges that depend only on `len`.
                let edges = cache.edges(|| {
                    type1_edges(len)
                        .map(|(a, b)| (a as u32, b as u32))
                        .collect()
                });
                let kernels = kernel_series(&StreamConfig::new(len, seed), lookup);
                JobTemplate::from_shared(kernels, edges).expect("generator edges are ascending")
            }
            JobFamily::Type2 { len } => {
                let dag = generate(DfgType::Type2, &StreamConfig::new(len, seed), lookup);
                JobTemplate::from_dag(&dag).expect("generator edges are ascending")
            }
            JobFamily::Single => {
                // The one-kernel case of the micro-shapes' uniform series.
                let (kind, index) =
                    KernelSampler::new(&StreamConfig::uniform(1, seed)).next_key(lookup);
                cache.single(kind, index, lookup)
            }
            JobFamily::Chain { len } => {
                let len = len.max(1);
                let edges = cache.edges(|| {
                    (0..len.saturating_sub(1))
                        .map(|i| (i as u32, i as u32 + 1))
                        .collect()
                });
                let kernels = kernel_series(&StreamConfig::uniform(len, seed), lookup);
                JobTemplate::from_shared(kernels, edges).expect("chain edges ascend")
            }
            JobFamily::Diamond { width } => {
                let width = width.max(1);
                let edges = cache.edges(|| diamond_edges(width));
                let kernels = kernel_series(&StreamConfig::uniform(width + 2, seed), lookup);
                JobTemplate::from_shared(kernels, edges).expect("diamond edges ascend")
            }
        }
    }
}

/// The parts of one source's jobs that repeat: the family's edge list
/// (chains, diamonds and Type-1 graphs of one size draw new kernels but
/// never new edges) and the single-kernel templates, one per `(kind, size index)`
/// key of [`KernelSampler::next_key`]. It starts empty, so building a
/// source allocates nothing; each part is built the first time a draw
/// needs it, and every later use is a pointer clone.
#[derive(Debug, Clone, Default)]
pub(crate) struct TemplateCache {
    edges: Option<Arc<[(u32, u32)]>>,
    singles: [Vec<Option<JobTemplate>>; KernelKind::ALL.len()],
}

impl TemplateCache {
    /// The family's edge list, built by `make` on first use.
    fn edges(&mut self, make: impl FnOnce() -> Vec<(u32, u32)>) -> Arc<[(u32, u32)]> {
        Arc::clone(self.edges.get_or_insert_with(|| make().into()))
    }

    /// The single-kernel template for `(kind, size_index)` under `lookup`.
    fn single(&mut self, kind: KernelKind, size_index: usize, lookup: &LookupTable) -> JobTemplate {
        let row = &mut self.singles[kind.index()];
        if row.len() <= size_index {
            row.resize(size_index + 1, None);
        }
        row[size_index]
            .get_or_insert_with(|| {
                JobTemplate::new(vec![kernel_at(kind, size_index, lookup)], Vec::new())
                    .expect("one kernel, no edges")
            })
            .clone()
    }
}

/// A width-`width` diamond's edges in ascending order: the fan-out
/// `(0, 1), …, (0, width)`, then the fan-in `(1, sink), …, (width, sink)`.
/// An ascending list skips both `validate_job`'s duplicate scan and
/// [`JobTemplate::critical_path_min`]'s sort.
fn diamond_edges(width: usize) -> Vec<(u32, u32)> {
    let sink = (width + 1) as u32;
    let middles = 1..=width as u32;
    middles
        .clone()
        .map(|m| (0, m))
        .chain(middles.map(|m| (m, sink)))
        .collect()
}

/// [`apt_dfg::generator::generate_kernels`], collected straight into a
/// shared slice. The micro-shapes use the uniform mix.
fn kernel_series(cfg: &StreamConfig, lookup: &LookupTable) -> Arc<[Kernel]> {
    let mut sampler = KernelSampler::new(cfg);
    (0..cfg.len).map(|_| sampler.next_kernel(lookup)).collect()
}

/// Jobs of up to this many kernels take [`JobTemplate::critical_path_min`]'s
/// stack-scratch path: every family at the sizes the sweeps and the
/// benchmark draw (Type-1 jobs of 46 kernels are the largest).
const CP_STACK_KERNELS: usize = 64;

/// The critical-path DP over `edges` grouped by source, with
/// `scratch[i] = [exec, start]` of kernel `i` (zeroed on entry). Every edge
/// ascends (`from < to`), so edges grouped by ascending source form a
/// topological sweep: all edges *into* `a` (sources `< a`) are processed
/// before any edge *out of* `a`, so `start[a]` is final by the time it
/// propagates.
fn longest_path(
    kernels: &[Kernel],
    edges: &[(u32, u32)],
    lookup: &LookupTable,
    scratch: &mut [[u64; 2]],
) -> SimDuration {
    for (slot, k) in scratch.iter_mut().zip(kernels) {
        slot[0] = lookup.best_category(k).map(|(_, t)| t.as_ns()).unwrap_or(0);
    }
    for &(a, b) in edges {
        let [exec, start] = scratch[a as usize];
        let finish = start + exec;
        let to = &mut scratch[b as usize][1];
        *to = (*to).max(finish);
    }
    let total = scratch.iter().map(|&[e, s]| s + e).max().unwrap_or(0);
    SimDuration::from_ns(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup() -> &'static LookupTable {
        LookupTable::paper()
    }

    #[test]
    fn templates_validate_edges() {
        let ks = kernel_series(&StreamConfig::uniform(3, 1), lookup()).to_vec();
        assert!(JobTemplate::new(ks.clone(), vec![(0, 1), (1, 2)]).is_ok());
        assert!(JobTemplate::new(ks.clone(), vec![(1, 1)]).is_err());
        assert!(JobTemplate::new(ks.clone(), vec![(2, 1)]).is_err());
        assert!(JobTemplate::new(ks.clone(), vec![(0, 9)]).is_err());
        assert!(JobTemplate::new(ks, vec![(0, 1), (0, 1)]).is_err());
        assert!(JobTemplate::new(Vec::new(), Vec::new()).is_err());
    }

    #[test]
    fn families_have_the_advertised_shapes() {
        let mut rng = SplitMix64::new(7);
        let single = JobFamily::Single.instantiate(&mut rng, lookup());
        assert_eq!(single.len(), 1);
        assert!(single.edges().is_empty());

        let chain = JobFamily::Chain { len: 4 }.instantiate(&mut rng, lookup());
        assert_eq!(chain.len(), 4);
        assert_eq!(chain.edges(), &[(0, 1), (1, 2), (2, 3)]);

        let diamond = JobFamily::Diamond { width: 3 }.instantiate(&mut rng, lookup());
        assert_eq!(diamond.len(), 5);
        assert_eq!(diamond.edges().len(), 6);

        let t1 = JobFamily::Type1 { len: 9 }.instantiate(&mut rng, lookup());
        assert_eq!(t1.len(), 9);
        assert_eq!(t1.edges().len(), 8);

        let t2 = JobFamily::Type2 { len: 20 }.instantiate(&mut rng, lookup());
        assert_eq!(t2.len(), 20);
        assert_eq!(JobFamily::Diamond { width: 3 }.kernels_per_job(), 5);
    }

    #[test]
    fn deadlines_tag_and_report() {
        let ks = kernel_series(&StreamConfig::uniform(2, 1), lookup()).to_vec();
        let plain = JobTemplate::new(ks, vec![(0, 1)]).unwrap();
        assert_eq!(plain.deadline(), None);
        let tagged = plain.clone().with_deadline(SimDuration::from_ms(250));
        assert_eq!(tagged.deadline(), Some(SimDuration::from_ms(250)));
        // Tagging does not alter the structural identity inputs.
        assert_eq!(tagged.kernels(), plain.kernels());
        assert_eq!(tagged.edges(), plain.edges());
        assert_ne!(tagged, plain, "deadline participates in equality");
    }

    #[test]
    fn critical_path_uses_minimum_execution_times() {
        use apt_dfg::{Kernel, KernelKind};
        let bfs = Kernel::canonical(KernelKind::Bfs); // best 106 ms (FPGA)
        let nw = Kernel::canonical(KernelKind::NeedlemanWunsch); // best 112 ms (CPU)
                                                                 // Chain bfs → nw: CP = 106 + 112.
        let chain = JobTemplate::new(vec![bfs, nw], vec![(0, 1)]).unwrap();
        assert_eq!(chain.critical_path_min(lookup()), SimDuration::from_ms(218));
        // Independent pair: CP = max(106, 112).
        let par = JobTemplate::new(vec![bfs, nw], vec![]).unwrap();
        assert_eq!(par.critical_path_min(lookup()), SimDuration::from_ms(112));
        // A hand-built diamond with an interleaved edge listing (not grouped
        // by source) takes the sorted-copy path and still sweeps
        // topologically.
        let drawn = JobFamily::Diamond { width: 2 }.instantiate(&mut SplitMix64::new(5), lookup());
        let d = JobTemplate::new(
            drawn.kernels().to_vec(),
            vec![(0, 1), (1, 3), (0, 2), (2, 3)],
        )
        .unwrap();
        assert!(!d.edges().is_sorted_by_key(|&(a, _)| a));
        let by_hand = {
            let e: Vec<u64> = d
                .kernels()
                .iter()
                .map(|k| {
                    lookup()
                        .best_category(k)
                        .map(|(_, t)| t.as_ns())
                        .unwrap_or(0)
                })
                .collect();
            e[0] + e[1].max(e[2]) + e[3]
        };
        assert_eq!(d.critical_path_min(lookup()).as_ns(), by_hand);
        assert_eq!(drawn.critical_path_min(lookup()).as_ns(), by_hand);
        // A kernel with no table row weighs zero rather than poisoning CP.
        let ghost = JobTemplate::new(vec![Kernel::new(KernelKind::MatMul, 123)], vec![]).unwrap();
        assert_eq!(ghost.critical_path_min(lookup()), SimDuration::ZERO);
    }

    /// The plain critical-path DP: heap `exec` and `start` lists over a
    /// lexicographically sorted copy of the edges. The oracle for
    /// `critical_path_min`'s scratch and ordering shortcuts.
    fn critical_path_oracle(job: &JobTemplate, lookup: &LookupTable) -> SimDuration {
        let exec: Vec<u64> = job
            .kernels()
            .iter()
            .map(|k| lookup.best_category(k).map(|(_, t)| t.as_ns()).unwrap_or(0))
            .collect();
        let mut edges = job.edges().to_vec();
        edges.sort_unstable();
        let mut start = vec![0u64; job.len()];
        for &(a, b) in &edges {
            let fa = start[a as usize] + exec[a as usize];
            start[b as usize] = start[b as usize].max(fa);
        }
        let total = start
            .iter()
            .zip(&exec)
            .map(|(s, e)| s + e)
            .max()
            .unwrap_or(0);
        SimDuration::from_ns(total)
    }

    #[test]
    fn critical_path_matches_the_sorting_oracle() {
        use apt_dfg::{Kernel, KernelKind};
        let lookup = lookup();
        let mut rng = SplitMix64::new(0xC417);
        let (mut large, mut grouped_unsorted, mut unsorted) = (0, 0, 0);
        for case in 0..900 {
            // 1–80 kernels: both sides of the 64-kernel stack bound.
            let n = 1 + rng.gen_index(80);
            let mut kernels = kernel_series(&StreamConfig::uniform(n, case), lookup).to_vec();
            for k in &mut kernels {
                if rng.gen_range(6) == 0 {
                    *k = Kernel::new(KernelKind::MatMul, 123); // no table row
                }
            }
            // A random DAG over ascending pairs, one target list per source.
            let mut targets: Vec<Vec<(u32, u32)>> = (0..n)
                .map(|a| {
                    (a + 1..n)
                        .filter(|_| rng.gen_range(n as u64) < 3)
                        .map(|b| (a as u32, b as u32))
                        .collect()
                })
                .collect();
            let edges: Vec<(u32, u32)> = match case % 3 {
                // Lexicographic.
                0 => targets.concat(),
                // Grouped by source, targets shuffled within each group.
                1 => {
                    for group in &mut targets {
                        rng.shuffle(group);
                    }
                    targets.concat()
                }
                // No order at all.
                _ => {
                    let mut all = targets.concat();
                    rng.shuffle(&mut all);
                    all
                }
            };
            let grouped = edges.is_sorted_by_key(|&(a, _)| a);
            large += usize::from(n > CP_STACK_KERNELS);
            grouped_unsorted += usize::from(grouped && !edges.is_sorted());
            unsorted += usize::from(!grouped);
            let job = JobTemplate::new(kernels, edges).unwrap();
            assert_eq!(
                job.critical_path_min(lookup),
                critical_path_oracle(&job, lookup),
                "case {case}: {n} kernels, edges {:?}",
                job.edges()
            );
        }
        assert!(large > 50 && grouped_unsorted > 50 && unsorted > 50);
    }

    #[test]
    fn family_edges_take_the_grouped_path() {
        let mut rng = SplitMix64::new(3);
        for family in [
            JobFamily::Chain { len: 5 },
            JobFamily::Diamond { width: 4 },
            JobFamily::Type1 { len: 46 },
            JobFamily::Type2 { len: 40 },
        ] {
            let job = family.instantiate(&mut rng, lookup());
            assert!(job.edges().is_sorted_by_key(|&(a, _)| a), "{family:?}");
            assert!(job.len() <= CP_STACK_KERNELS, "{family:?}");
        }
    }

    /// The diamond's source-grouped edge list gives every node the same
    /// successor and predecessor order as the interleaved list it
    /// replaced, so the engine's adjacency, and with it every schedule,
    /// is unchanged.
    #[test]
    fn diamond_edges_keep_every_nodes_adjacency() {
        use apt_dfg::{Kernel, KernelKind, NodeId};
        for width in 1..=8 {
            let sink = (width + 1) as u32;
            let interleaved: Vec<(u32, u32)> = (1..=width as u32)
                .flat_map(|m| [(0, m), (m, sink)])
                .collect();
            let grouped = diamond_edges(width);
            assert!(grouped.is_sorted(), "strictly ascending: {grouped:?}");
            let dag = |edges: &[(u32, u32)]| {
                let mut dag = KernelDag::new();
                for _ in 0..width + 2 {
                    dag.add_node(Kernel::canonical(KernelKind::Bfs));
                }
                for &(a, b) in edges {
                    dag.add_edge(NodeId::new(a as usize), NodeId::new(b as usize))
                        .unwrap();
                }
                dag
            };
            let (old, new) = (dag(&interleaved), dag(&grouped));
            assert_eq!(old.edge_count(), new.edge_count());
            for id in old.node_ids() {
                assert_eq!(old.succs(id), new.succs(id), "width {width}, node {id:?}");
                assert_eq!(old.preds(id), new.preds(id), "width {width}, node {id:?}");
            }
        }
    }

    #[test]
    fn cached_draws_match_the_generators() {
        // The interned and shared-edge paths must yield exactly the jobs
        // the `apt-dfg` generators build from the same per-job sub-seed.
        use apt_dfg::generator::generate_kernels;
        let lookup = lookup();
        for family in [
            JobFamily::Single,
            JobFamily::Chain { len: 3 },
            JobFamily::Diamond { width: 2 },
            JobFamily::Type1 { len: 9 },
            JobFamily::Type1 { len: 1 },
        ] {
            let mut cache = TemplateCache::default();
            let mut rng = SplitMix64::new(17);
            for _ in 0..40 {
                let seed = rng.clone().next_u64();
                let job = family.draw(&mut rng, lookup, &mut cache);
                let want = match family {
                    JobFamily::Type1 { len } => JobTemplate::from_dag(&generate(
                        DfgType::Type1,
                        &StreamConfig::new(len, seed),
                        lookup,
                    ))
                    .unwrap(),
                    _ => {
                        let n = family.kernels_per_job();
                        let kernels = generate_kernels(&StreamConfig::uniform(n, seed), lookup);
                        JobTemplate::new(kernels, job.edges().to_vec()).unwrap()
                    }
                };
                assert_eq!(job, want, "{family:?} diverged from its generator");
            }
        }
    }

    #[test]
    fn instantiation_is_deterministic_per_rng_state() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for family in [
            JobFamily::Single,
            JobFamily::Chain { len: 3 },
            JobFamily::Diamond { width: 2 },
            JobFamily::Type1 { len: 12 },
            JobFamily::Type2 { len: 15 },
        ] {
            assert_eq!(
                family.instantiate(&mut a, lookup()),
                family.instantiate(&mut b, lookup())
            );
        }
    }
}
