//! Deadline-aware APT variants: **EDF-APT** and **LL-APT**.
//!
//! The paper's APT iterates the ready list first-come-first-serve and
//! admits an alternative processor whenever its cost sits within `α·x`
//! (Eq. 8) — timeliness never enters the decision. Once jobs carry
//! deadlines (the `apt-stream`/`apt-slo` open-system axis), two classic
//! real-time orderings graft naturally onto Algorithm 1:
//!
//! * [`EdfApt`] — *earliest absolute deadline first*: the ready list is
//!   processed in ascending `(deadline, FCFS)` order, deadline-free
//!   kernels last; the per-kernel processor choice is exactly APT's.
//!   Running plain [`crate::Apt`] on an open engine in
//!   `ReadyOrder::EarliestDeadline` mode produces the identical schedule
//!   (pinned by a differential test in `apt-slo`) — this policy carries
//!   the ordering itself so it works under any engine.
//! * [`LlApt`] — *least laxity first* with a laxity-dependent threshold:
//!   kernels are ordered by `laxity = slack − x` (slack = time to
//!   deadline, `x` = best execution time), and the alternative-processor
//!   threshold **shrinks as slack evaporates**:
//!
//!   ```text
//!   threshold = clamp(slack, x, α·x)
//!   ```
//!
//!   A kernel with hours of slack behaves like plain APT (threshold
//!   `α·x`); one whose deadline is approaching only accepts alternatives
//!   that can still finish inside the remaining slack; one already past
//!   hope degenerates to MET (threshold `x`, wait for `p_min`) rather
//!   than burning a slow processor on a job that will be tardy anyway.
//!   Deadline-free kernels keep the full `α·x` and sort last.
//!
//! Both emit their whole per-instant fixpoint in one `decide` pass like
//! APT (local idle-mask claims); on deadline-free workloads both reduce
//! byte-identically to APT, which is what lets the streaming equivalence
//! suite replay them against `simulate_stream`.

use crate::apt::{checked_alpha, find_alternative_in};
use apt_base::{BaseError, SimDuration};
use apt_dfg::NodeId;
use apt_hetsim::{Assignment, AssignmentBuf, DecisionMeta, Policy, PolicyKind, SimView};
use apt_policies::common::best_instance_in;

/// Sort the ready set into `buf` by an explicit per-node key, FCFS within
/// equal keys (the ready set already iterates FCFS, and the sort is
/// stable by construction: position is the tiebreak).
fn order_ready(
    view: &SimView<'_>,
    buf: &mut Vec<(u64, u32, NodeId)>,
    mut key: impl FnMut(&SimView<'_>, NodeId) -> u64,
) {
    buf.clear();
    for (pos, node) in view.ready.iter().enumerate() {
        buf.push((key(view, node), pos as u32, node));
    }
    buf.sort_unstable();
}

/// One APT processor-selection step for `node` against the batch's
/// remaining idle set, with an explicit admission threshold. Returns the
/// claimed assignment, with decision provenance on the alternative path
/// (best-processor placements need no explanation), or `None` to keep
/// waiting for `p_min`.
fn apt_step(
    view: &SimView<'_>,
    node: NodeId,
    threshold_of: impl FnOnce(SimDuration) -> SimDuration,
    idle: u64,
) -> Option<(Assignment, Option<DecisionMeta>)> {
    let best = best_instance_in(view, node, idle)?;
    if best.idle {
        return Some((Assignment::new(node, best.proc), None));
    }
    let threshold = threshold_of(best.exec);
    find_alternative_in(view, node, best.proc, threshold, idle).map(|(p_alt, cost)| {
        (
            Assignment::alternative(node, p_alt),
            Some(DecisionMeta {
                best_proc: best.proc,
                best_exec: best.exec,
                best_busy_until: view.proc(best.proc).busy_until,
                threshold,
                alt_cost: cost,
            }),
        )
    })
}

/// Apply one [`apt_step`] result: route explained (alternative) decisions
/// through [`AssignmentBuf::push_explained`], plain ones through `push`.
#[inline]
fn push_step(out: &mut AssignmentBuf, a: Assignment, why: Option<DecisionMeta>) {
    match why {
        Some(m) => out.push_explained(a, m),
        None => out.push(a),
    }
}

/// APT with the ready list in earliest-absolute-deadline order.
#[derive(Debug, Clone)]
pub struct EdfApt {
    alpha: f64,
    /// Reusable `(deadline_ns, fcfs_pos, node)` ordering buffer.
    order: Vec<(u64, u32, NodeId)>,
}

impl EdfApt {
    /// An EDF-ordered APT scheduler with flexibility factor `α ≥ 1`
    /// (Eq. 8). Panics if `α < 1`, like [`crate::Apt`].
    pub fn new(alpha: f64) -> Self {
        // apt-lint: allow(hot-path-panic, construction-time config check; try_new is the typed path)
        EdfApt::try_new(alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EdfApt::new`], returning [`BaseError::InvalidConfig`] for a
    /// non-finite α or one below 1 instead of panicking.
    pub fn try_new(alpha: f64) -> Result<Self, BaseError> {
        Ok(EdfApt {
            alpha: checked_alpha("EDF-APT", alpha)?,
            order: Vec::new(),
        })
    }

    /// The configured flexibility factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Set the flexibility factor at runtime, clamped like
    /// [`crate::Apt::set_alpha`] (finite, ≥ 1; non-finite ignored).
    pub fn set_alpha(&mut self, alpha: f64) {
        if alpha.is_finite() {
            self.alpha = alpha.max(1.0);
        }
    }
}

impl Policy for EdfApt {
    fn name(&self) -> String {
        format!("EDF-APT(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        EdfApt::set_alpha(self, alpha);
        true
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let mut order = std::mem::take(&mut self.order);
        // Deadline-free kernels report `MAX`, sorting after every real
        // deadline while keeping FCFS among themselves.
        order_ready(view, &mut order, |view, node| {
            view.deadline(node).map_or(u64::MAX, |d| d.as_ns())
        });
        let mut idle = view.idle_mask;
        for &(_, _, node) in &order {
            if idle == 0 {
                break;
            }
            let alpha = self.alpha;
            if let Some((a, why)) = apt_step(view, node, |x| x.scale_alpha(alpha), idle) {
                idle &= !(1 << a.proc.index());
                push_step(out, a, why);
            }
        }
        self.order = order;
    }
}

/// APT in least-laxity order with a slack-clamped admission threshold.
#[derive(Debug, Clone)]
pub struct LlApt {
    alpha: f64,
    /// Reusable `(laxity_ns, fcfs_pos, node)` ordering buffer.
    order: Vec<(u64, u32, NodeId)>,
}

impl LlApt {
    /// A least-laxity APT scheduler with flexibility factor `α ≥ 1`.
    /// Panics if `α < 1`.
    pub fn new(alpha: f64) -> Self {
        // apt-lint: allow(hot-path-panic, construction-time config check; try_new is the typed path)
        LlApt::try_new(alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`LlApt::new`], returning [`BaseError::InvalidConfig`] for a
    /// non-finite α or one below 1 instead of panicking.
    pub fn try_new(alpha: f64) -> Result<Self, BaseError> {
        Ok(LlApt {
            alpha: checked_alpha("LL-APT", alpha)?,
            order: Vec::new(),
        })
    }

    /// The configured flexibility factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Set the flexibility factor at runtime, clamped like
    /// [`crate::Apt::set_alpha`] (finite, ≥ 1; non-finite ignored).
    pub fn set_alpha(&mut self, alpha: f64) {
        if alpha.is_finite() {
            self.alpha = alpha.max(1.0);
        }
    }
}

impl Policy for LlApt {
    fn name(&self) -> String {
        format!("LL-APT(α={})", self.alpha)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Dynamic
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        LlApt::set_alpha(self, alpha);
        true
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let mut order = std::mem::take(&mut self.order);
        // Laxity = slack − best execution time, saturating at zero (an
        // already-hopeless kernel is maximally urgent). Deadline-free
        // kernels sort last via MAX.
        order_ready(view, &mut order, |view, node| {
            match (view.slack(node), view.cost.min_exec(node)) {
                (Some(slack), Some(x)) => slack.as_ns().saturating_sub(x.as_ns()),
                (Some(slack), None) => slack.as_ns(),
                (None, _) => u64::MAX,
            }
        });
        let mut idle = view.idle_mask;
        for &(_, _, node) in &order {
            if idle == 0 {
                break;
            }
            let alpha = self.alpha;
            let slack = view.slack(node);
            let threshold_of = move |x: SimDuration| {
                let full = x.scale_alpha(alpha);
                match slack {
                    // Plenty of slack → plain APT; evaporating slack →
                    // only alternatives that still fit inside it; none
                    // left → MET-like insistence on p_min.
                    Some(s) => s.max(x).min(full),
                    None => full,
                }
            };
            if let Some((a, why)) = apt_step(view, node, threshold_of, idle) {
                idle &= !(1 << a.proc.index());
                push_step(out, a, why);
            }
        }
        self.order = order;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Apt;
    use apt_base::{ProcKind, SimTime};
    use apt_dfg::generator::{build_type1, generate_kernels, StreamConfig};
    use apt_dfg::LookupTable;
    use apt_hetsim::{simulate, SystemConfig};

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn edf_alpha_below_one_is_rejected() {
        let _ = EdfApt::new(0.9);
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn ll_alpha_below_one_is_rejected() {
        let _ = LlApt::new(0.5);
    }

    #[test]
    fn names_include_alpha() {
        assert_eq!(EdfApt::new(4.0).name(), "EDF-APT(α=4)");
        assert_eq!(LlApt::new(1.5).name(), "LL-APT(α=1.5)");
        assert_eq!(EdfApt::new(2.0).alpha(), 2.0);
        assert_eq!(LlApt::new(2.0).alpha(), 2.0);
    }

    /// Both deadline variants expose the same clamped runtime α knob as
    /// plain APT, through the inherent setter and the `Policy` hook alike.
    #[test]
    fn deadline_variants_clamp_runtime_alpha() {
        let mut edf = EdfApt::new(4.0);
        let mut ll = LlApt::new(4.0);
        assert_eq!(Policy::alpha(&edf), Some(4.0));
        assert_eq!(Policy::alpha(&ll), Some(4.0));
        assert!(Policy::set_alpha(&mut edf, 0.5));
        assert!(Policy::set_alpha(&mut ll, f64::NAN));
        assert_eq!(edf.alpha(), 1.0, "below-1 clamps to the Eq. 8 floor");
        assert_eq!(ll.alpha(), 4.0, "non-finite requests are ignored");
        edf.set_alpha(8.0);
        ll.set_alpha(2.0);
        assert_eq!(edf.alpha(), 8.0);
        assert_eq!(ll.alpha(), 2.0);
        assert!(
            !Policy::switch_to(&mut edf, 1),
            "leaf policies have no roster"
        );
    }

    /// On deadline-free (closed-world) workloads both variants reduce to
    /// plain APT byte for byte: every deadline key is MAX, so the order
    /// collapses to FCFS, and every threshold is the full α·x.
    #[test]
    fn deadline_free_runs_equal_plain_apt() {
        for seed in [3u64, 17, 44] {
            for alpha in [1.5, 4.0, 8.0] {
                let kernels = generate_kernels(&StreamConfig::new(50, seed), LookupTable::paper());
                let dfg = build_type1(&kernels);
                let cfg = SystemConfig::paper_4gbps();
                let apt = simulate(&dfg, &cfg, LookupTable::paper(), &mut Apt::new(alpha)).unwrap();
                let edf =
                    simulate(&dfg, &cfg, LookupTable::paper(), &mut EdfApt::new(alpha)).unwrap();
                let ll =
                    simulate(&dfg, &cfg, LookupTable::paper(), &mut LlApt::new(alpha)).unwrap();
                assert_eq!(apt.trace.records, edf.trace.records, "EDF seed {seed}");
                assert_eq!(apt.trace.records, ll.trace.records, "LL seed {seed}");
            }
        }
    }

    /// EDF ordering: with one idle FPGA and two FPGA-best kernels ready,
    /// the one whose job deadline is earlier gets it — even though FCFS
    /// would hand it to the earlier admission.
    #[test]
    fn edf_prefers_the_tighter_deadline() {
        use apt_dfg::{Kernel, KernelKind};
        use apt_hetsim::{OpenEngine, ReadyOrder};
        let bfs = Kernel::canonical(KernelKind::Bfs);
        let config = SystemConfig::paper_no_transfers();
        let lookup = LookupTable::paper();
        // FCFS engine, self-ordering EDF-APT policy.
        let mut engine = OpenEngine::with_order(&config, lookup, ReadyOrder::Admission).unwrap();
        let mut policy = EdfApt::new(1.0); // α = 1: best processor only
        engine
            .admit_with_deadline(&[bfs], &[], SimTime::ZERO, Some(SimTime::from_ms(9_000)))
            .unwrap();
        engine
            .admit_with_deadline(&[bfs], &[], SimTime::ZERO, Some(SimTime::from_ms(300)))
            .unwrap();
        while engine.step(&mut policy).unwrap().is_some() {}
        let mut done = Vec::new();
        engine.drain_completed(&mut done);
        assert_eq!(done.len(), 2);
        let tight = done
            .iter()
            .find(|j| j.deadline == Some(SimTime::from_ms(300)))
            .unwrap();
        let loose = done
            .iter()
            .find(|j| j.deadline == Some(SimTime::from_ms(9_000)))
            .unwrap();
        // The tight job ran first on the shared best processor (FPGA).
        assert_eq!(config.kind_of(tight.records[0].proc), ProcKind::Fpga);
        assert!(tight.records[0].start < loose.records[0].start);
        assert!(!tight.missed_deadline(), "106 ms run against 300 ms");
    }

    /// The laxity clamp: a kernel whose slack no longer covers the
    /// alternative's cost waits for p_min where plain APT would jump.
    #[test]
    fn ll_apt_rejects_alternatives_that_no_longer_fit_the_slack() {
        use apt_dfg::{Kernel, KernelKind};
        use apt_hetsim::{OpenEngine, ReadyOrder};
        let bfs = Kernel::canonical(KernelKind::Bfs); // FPGA 106, GPU 173
        let config = SystemConfig::paper_no_transfers();
        let lookup = LookupTable::paper();
        let arrive = SimTime::from_ms(1);
        let run = |deadline: Option<SimTime>| {
            let mut engine =
                OpenEngine::with_order(&config, lookup, ReadyOrder::Admission).unwrap();
            let mut policy = LlApt::new(8.0);
            // Job 0 grabs the idle FPGA at t = 0; the deadline job then
            // arrives at t = 1 ms to find it busy until 106 ms, facing the
            // jump-or-wait choice with its slack already ticking.
            engine.admit(&[bfs], &[], SimTime::ZERO).unwrap();
            engine
                .admit_with_deadline(&[bfs], &[], arrive, deadline)
                .unwrap();
            while engine.step(&mut policy).unwrap().is_some() {}
            let mut done = Vec::new();
            engine.drain_completed(&mut done);
            done.into_iter().find(|j| j.job.0 == 1).unwrap()
        };
        // Slack 150 ms < GPU cost 173 ms → the clamp rejects the jump:
        // wait for the FPGA (tardy, but tardier still on the GPU).
        let tight = run(Some(arrive + SimDuration::from_ms(150)));
        assert_eq!(config.kind_of(tight.records[0].proc), ProcKind::Fpga);
        assert!(!tight.records[0].alt);
        assert_eq!(tight.records[0].start, SimTime::from_ms(106));
        // Slack 400 ms ≥ 173 → the alternative fits and is taken on
        // arrival.
        let roomy = run(Some(arrive + SimDuration::from_ms(400)));
        assert_eq!(config.kind_of(roomy.records[0].proc), ProcKind::Gpu);
        assert!(roomy.records[0].alt);
        assert_eq!(roomy.records[0].start, arrive);
        assert!(!roomy.missed_deadline());
        // No deadline → plain APT behaviour (alternative taken).
        let free = run(None);
        assert_eq!(config.kind_of(free.records[0].proc), ProcKind::Gpu);
    }
}
