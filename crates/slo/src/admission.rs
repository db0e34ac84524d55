//! Admission control: decide per arriving job whether it enters the
//! system, so overload sheds work instead of queueing without bound.
//!
//! See the crate docs for the model. All gates are deterministic and keep
//! O(in-flight) state; the driver tells every [`AdmitRequest`] the
//! [`apt_hetsim::JobId`] its job receives if admitted, so gates key
//! per-job reservations on the id the [`CompletedJob`] will later carry —
//! no parallel id sequence to keep in lockstep.

use apt_base::BaseError;
use apt_dfg::LookupTable;
use apt_hetsim::{CompletedJob, SystemConfig};
use apt_stream::{AdmissionGate, AdmitRequest, JobTemplate};
use std::collections::VecDeque;

/// A named admission gate: the driver-facing decision/feedback hooks come
/// from the `apt_stream::AdmissionGate` supertrait (`admit` /
/// `on_complete`); this layer only adds the display name result tables
/// print. Any `AdmissionPolicy` plugs straight into
/// `apt_stream::simulate_source_gated` via upcast.
pub trait AdmissionPolicy: AdmissionGate {
    /// Display name, including parameters (e.g. `"util(ρ≤1)"`).
    fn name(&self) -> String;
}

/// Admit everything — the open-system baseline every gated row is
/// compared against (the driver's own pass-through gate, named).
pub use apt_stream::AdmitAll as AcceptAll;

impl AdmissionPolicy for AcceptAll {
    fn name(&self) -> String {
        "accept-all".into()
    }
}

/// Total minimum work of a job: the sum over its kernels of the
/// table-minimum execution time (what an ideally parallel machine must
/// spend on it, transfer-free). `None` when any kernel has no lookup-table
/// row: such a kernel cannot run on *any* processor, so the job can never
/// complete — pricing it at zero would let it through every budget gate
/// for free (and then wedge the machine). Gates reject these jobs.
fn min_work_ns(job: &JobTemplate, lookup: &LookupTable) -> Option<u64> {
    job.kernels()
        .iter()
        .map(|k| lookup.best_category(k).map(|(_, t)| t.as_ns()).ok())
        .sum()
}

/// Per-job reservations keyed by engine `JobId`. The driver's ids come
/// from `OpenEngine::next_job_id`, which only increases, so the reserved
/// ids of in-flight jobs sit in a window from the oldest one on: a ring of
/// slots indexed by `id − base`, trimmed from the front as the oldest
/// retire. Insert and remove are O(1) amortized and allocate only while
/// the window grows past its high-water mark. Any id order stays correct
/// (an id below `base` widens the window at the front), but memory follows
/// the span from the oldest reserved id to the newest: the engine's dense,
/// increasing ids keep that span as short as the in-flight window.
#[derive(Debug)]
struct Reservations<T> {
    /// The id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    live: usize,
}

impl<T> Default for Reservations<T> {
    fn default() -> Self {
        Reservations {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> Reservations<T> {
    /// Reserve `value` for `id`, replacing any reservation it already had.
    fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.slots.push_front(None);
            }
            self.base = id;
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].replace(value).is_none() {
            self.live += 1;
        }
    }

    /// Release `id`'s reservation, if it holds one.
    fn remove(&mut self, id: u64) -> Option<T> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// True when no job holds a reservation.
    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// The density (utilization-bound) test: a deadline-carrying job demands
/// density `work / D` of the machine for its deadline window; admit while
/// `Σ densities + new ≤ bound × m`. Deadline-free jobs have density 0 and
/// always pass — this gate bounds *SLO* load, not raw load.
#[derive(Debug)]
pub struct UtilizationBound<'a> {
    lookup: &'a LookupTable,
    nprocs: usize,
    bound: f64,
    /// Density reserved per admitted in-flight job, keyed by its engine
    /// `JobId` (from [`AdmitRequest::job_id`]).
    reserved: Reservations<f64>,
    load: f64,
}

impl<'a> UtilizationBound<'a> {
    /// A gate admitting while total density stays within
    /// `bound × processors`. `bound = 1.0` is the EDF-style full-machine
    /// budget; lower is more conservative. Panics on a non-positive or
    /// non-finite bound.
    pub fn new(lookup: &'a LookupTable, config: &SystemConfig, bound: f64) -> Self {
        UtilizationBound::try_new(lookup, config, bound).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`UtilizationBound::new`], returning [`BaseError::InvalidConfig`]
    /// for a non-positive or non-finite bound instead of panicking.
    pub fn try_new(
        lookup: &'a LookupTable,
        config: &SystemConfig,
        bound: f64,
    ) -> Result<Self, BaseError> {
        if !(bound > 0.0 && bound.is_finite()) {
            return Err(BaseError::InvalidConfig {
                reason: format!("utilization bound must be positive and finite, got {bound}"),
            });
        }
        Ok(UtilizationBound {
            lookup,
            nprocs: config.len(),
            bound,
            reserved: Reservations::default(),
            load: 0.0,
        })
    }

    /// Density currently reserved by in-flight jobs.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// The current bound ρ (the budget is `ρ × live processors`).
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// Floor of the runtime-settable ρ: a controller can choke admission down
/// to a trickle but never wedge the gate fully shut.
pub const MIN_RUNTIME_BOUND: f64 = 1e-3;
/// Ceiling of the runtime-settable ρ: far past saturation for any real
/// machine, so "effectively open" is reachable without risking an
/// unbounded budget.
pub const MAX_RUNTIME_BOUND: f64 = 64.0;

impl AdmissionGate for UtilizationBound<'_> {
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
        // A job containing a kernel with no table coverage can never
        // complete; it used to be priced at zero work and sail through the
        // density test for free. Reject it outright.
        let Some(work) = min_work_ns(req.job, self.lookup) else {
            return false;
        };
        let density = match req.deadline {
            None => 0.0,
            Some(deadline) => {
                let window = deadline.saturating_since(req.arrival).as_ns().max(1);
                work as f64 / window as f64
            }
        };
        // The machine the budget is drawn against is the *live* one: under
        // an armed fault plan crashed processors are masked out of
        // `req.live_procs`, so admission tightens while capacity is down
        // (and deadline-carrying jobs are shed outright at zero capacity).
        // Deadline-free jobs are density-0 and always pass — this gate
        // bounds SLO load, and standing reservations may legitimately
        // exceed a freshly shrunken budget.
        if density > 0.0 {
            let capacity = req.live_procs.min(self.nprocs);
            if self.load + density > self.bound * capacity as f64 {
                return false;
            }
        }
        self.reserved.insert(req.job_id.0, density);
        self.load += density;
        true
    }

    fn on_complete(&mut self, job: &CompletedJob) {
        if let Some(density) = self.reserved.remove(job.job.0) {
            self.load -= density;
            // Running subtraction drift is bounded by f64 epsilon per job;
            // clamp so an idle system always reads exactly zero load.
            if self.reserved.is_empty() {
                self.load = 0.0;
            }
        }
    }

    /// Runtime retuning of ρ, clamped to
    /// [[`MIN_RUNTIME_BOUND`], [`MAX_RUNTIME_BOUND`]] so a runaway
    /// controller can neither wedge admission shut nor unbound the
    /// budget. Standing reservations are untouched — a tightened bound
    /// applies to the *next* admission decision, not retroactively.
    fn set_utilization_bound(&mut self, bound: f64) -> bool {
        if !bound.is_finite() {
            return false;
        }
        self.bound = bound.clamp(MIN_RUNTIME_BOUND, MAX_RUNTIME_BOUND);
        true
    }

    fn utilization_bound(&self) -> Option<f64> {
        Some(self.bound)
    }
}

impl AdmissionPolicy for UtilizationBound<'_> {
    fn name(&self) -> String {
        format!("util(ρ≤{})", self.bound)
    }
}

/// The feasibility-estimate gate: admit only jobs that still have a
/// plausible shot at their deadline. The estimate charges the job the
/// current in-flight backlog spread over the machine plus its own
/// critical path:
///
/// ```text
/// admit ⇔ D is none  ∨  backlog/m + cp_min(job) ≤ D
/// ```
///
/// Pessimistic about parallel slack but optimistic about heterogeneity
/// (everything at table-minimum speed); the sweep shows it shedding the
/// hopeless tail under overload while accept-all drags every job tardy.
#[derive(Debug)]
pub struct FeasibilityGate<'a> {
    lookup: &'a LookupTable,
    nprocs: usize,
    /// Minimum work reserved per in-flight job, keyed by its engine
    /// `JobId` (from [`AdmitRequest::job_id`]).
    reserved: Reservations<u64>,
    backlog_ns: u64,
}

impl<'a> FeasibilityGate<'a> {
    /// A gate over `config`'s machine using `lookup`'s minimum times.
    pub fn new(lookup: &'a LookupTable, config: &SystemConfig) -> Self {
        FeasibilityGate {
            lookup,
            nprocs: config.len().max(1),
            reserved: Reservations::default(),
            backlog_ns: 0,
        }
    }

    /// In-flight minimum work the gate currently accounts, ns.
    pub fn backlog_ns(&self) -> u64 {
        self.backlog_ns
    }
}

impl AdmissionGate for FeasibilityGate<'_> {
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
        // Same coverage rule as the density gate: a job with an uncovered
        // kernel can never finish, so no estimate makes it feasible.
        let Some(work) = min_work_ns(req.job, self.lookup) else {
            return false;
        };
        if let Some(deadline) = req.deadline {
            // Feasibility is judged against the processors actually up: a
            // crashed machine (zero live processors) makes every deadline
            // infeasible, and a degraded one spreads the backlog across
            // fewer survivors.
            let live = req.live_procs.min(self.nprocs);
            if live == 0 {
                return false;
            }
            let window = deadline.saturating_since(req.arrival).as_ns();
            let estimate =
                self.backlog_ns / live as u64 + req.job.critical_path_min(self.lookup).as_ns();
            if estimate > window {
                return false;
            }
        }
        self.reserved.insert(req.job_id.0, work);
        self.backlog_ns += work;
        true
    }

    fn on_complete(&mut self, job: &CompletedJob) {
        if let Some(work) = self.reserved.remove(job.job.0) {
            self.backlog_ns -= work;
        }
    }
}

impl AdmissionPolicy for FeasibilityGate<'_> {
    fn name(&self) -> String {
        "feasible".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::{SimDuration, SimTime};
    use apt_core::{Apt, EdfApt, LlApt};
    use apt_dfg::SplitMix64;
    use apt_hetsim::ReadyOrder;
    use apt_stream::{simulate_source_gated, DeadlineSpec, DriverOpts, JobFamily, PoissonSource};
    use proptest::prelude::*;

    fn job(seed: u64) -> JobTemplate {
        JobFamily::Diamond { width: 2 }
            .instantiate(&mut SplitMix64::new(seed), LookupTable::paper())
    }

    /// A request carrying the id the engine would assign on acceptance —
    /// in the real driver this comes from `OpenEngine::next_job_id`, so a
    /// shed request's id is re-offered to the next arrival.
    fn request<'a>(
        id: u64,
        job: &'a JobTemplate,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> AdmitRequest<'a> {
        AdmitRequest {
            job_id: apt_hetsim::JobId(id),
            arrival,
            deadline,
            job,
            now: arrival,
            in_flight_jobs: 0,
            in_flight_kernels: 0,
            live_procs: 3,
        }
    }

    fn completed(id: u64) -> CompletedJob {
        CompletedJob {
            job: apt_hetsim::JobId(id),
            arrival: SimTime::ZERO,
            deadline: None,
            records: Vec::new(),
            failed: false,
        }
    }

    #[test]
    fn accept_all_accepts_everything() {
        let mut gate = AcceptAll;
        assert_eq!(gate.name(), "accept-all");
        let j = job(1);
        for i in 0..100 {
            assert!(gate.admit(&request(i, &j, SimTime::from_ms(i), None)));
        }
    }

    #[test]
    fn utilization_bound_reserves_and_releases_density() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let mut gate = UtilizationBound::new(lookup, &config, 1.0);
        let j = job(2);
        let work = min_work_ns(&j, lookup).expect("diamond jobs are covered");
        // A deadline window equal to the job's min work is density 1.0;
        // the 3-processor budget fits three of them.
        let deadline = |at: SimTime| Some(at + SimDuration::from_ns(work));
        let at = SimTime::ZERO;
        assert!(gate.admit(&request(0, &j, at, deadline(at))));
        assert!(gate.admit(&request(1, &j, at, deadline(at))));
        assert!(gate.admit(&request(2, &j, at, deadline(at))));
        assert!((gate.load() - 3.0).abs() < 1e-9);
        // The fourth exceeds bound × m = 3 and is shed; its id 3 is then
        // re-offered to the next arrival, as the driver would.
        assert!(!gate.admit(&request(3, &j, at, deadline(at))));
        // Deadline-free jobs are density-0 and always pass.
        assert!(gate.admit(&request(3, &j, at, None)));
        // Releasing one admitted job frees its density.
        gate.on_complete(&completed(0));
        assert!(gate.admit(&request(4, &j, at, deadline(at))));
        // Completion of an unknown id (never reserved) is ignored.
        gate.on_complete(&completed(99));
        // Draining everything returns load to exactly zero.
        for id in [1, 2, 3, 4] {
            gate.on_complete(&completed(id));
        }
        assert_eq!(gate.load(), 0.0);
    }

    #[test]
    fn utilization_bound_is_runtime_tunable_within_clamps() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let mut gate = UtilizationBound::new(lookup, &config, 1.0);
        assert_eq!(gate.utilization_bound(), Some(1.0));
        let j = job(2);
        let work = min_work_ns(&j, lookup).expect("diamond jobs are covered");
        let at = SimTime::ZERO;
        let deadline = Some(at + SimDuration::from_ns(work));
        // Tighten to a trickle: a density-1 job no longer fits.
        assert!(gate.set_utilization_bound(0.1));
        assert_eq!(gate.bound(), 0.1);
        assert!(!gate.admit(&request(0, &j, at, deadline)));
        // Reopen: the same request passes.
        assert!(gate.set_utilization_bound(1.0));
        assert!(gate.admit(&request(0, &j, at, deadline)));
        // Standing reservations survive a retune (next decision only).
        assert!(gate.set_utilization_bound(0.1));
        assert!((gate.load() - 1.0).abs() < 1e-9);
        // The clamps hold against runaway controllers; non-finite
        // requests are refused outright.
        assert!(gate.set_utilization_bound(0.0));
        assert_eq!(gate.bound(), MIN_RUNTIME_BOUND);
        assert!(gate.set_utilization_bound(1e12));
        assert_eq!(gate.bound(), MAX_RUNTIME_BOUND);
        assert!(!gate.set_utilization_bound(f64::NAN));
        assert!(!gate.set_utilization_bound(f64::INFINITY));
        assert_eq!(gate.bound(), MAX_RUNTIME_BOUND);
        // Gates without the knob keep the defaults.
        let mut open = AcceptAll;
        assert!(!open.set_utilization_bound(0.5));
        assert_eq!(open.utilization_bound(), None);
    }

    #[test]
    fn feasibility_gate_sheds_once_the_backlog_swamps_the_window() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let mut gate = FeasibilityGate::new(lookup, &config);
        let j = job(3);
        let cp = j.critical_path_min(lookup);
        // Window exactly the critical path: feasible on an empty machine.
        let at = SimTime::ZERO;
        assert!(gate.admit(&request(0, &j, at, Some(at + cp))));
        assert!(gate.backlog_ns() > 0);
        // Pile on deadline-free work until backlog/m dwarfs the window,
        // then the same tight request is shed.
        for id in 1..=50 {
            assert!(gate.admit(&request(id, &j, at, None)));
        }
        assert!(!gate.admit(&request(51, &j, at, Some(at + cp))));
        // A generous window still passes.
        assert!(gate.admit(&request(
            51,
            &j,
            at,
            Some(at + SimDuration::from_ms(10_000_000))
        )));
        // Retiring jobs shrinks the backlog again.
        let before = gate.backlog_ns();
        gate.on_complete(&completed(0));
        assert!(gate.backlog_ns() < before);
    }

    /// Regression: a job containing a kernel with no lookup-table row used
    /// to be priced at zero work (`unwrap_or(0)`), so it passed the
    /// density gate for free despite being unable to ever complete. Both
    /// budget gates must reject it — deadline or not.
    #[test]
    fn uncovered_jobs_are_rejected_not_priced_at_zero() {
        use apt_dfg::{Kernel, KernelKind};
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        // MatMul at this size has no table row anywhere.
        let ghost =
            JobTemplate::new(vec![Kernel::new(KernelKind::MatMul, 123)], Vec::new()).unwrap();
        assert_eq!(min_work_ns(&ghost, lookup), None);
        // A covered kernel alongside an uncovered one still poisons the job.
        let mixed = JobTemplate::new(
            vec![
                Kernel::canonical(KernelKind::Bfs),
                Kernel::new(KernelKind::MatMul, 123),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        assert_eq!(min_work_ns(&mixed, lookup), None);

        let mut util = UtilizationBound::new(lookup, &config, 1.0);
        let at = SimTime::ZERO;
        let loose = Some(at + SimDuration::from_ms(1_000_000));
        for job in [&ghost, &mixed] {
            assert!(!util.admit(&request(0, job, at, loose)), "with deadline");
            assert!(!util.admit(&request(0, job, at, None)), "without deadline");
        }
        assert_eq!(util.load(), 0.0, "rejections reserve nothing");

        let mut feas = FeasibilityGate::new(lookup, &config);
        for job in [&ghost, &mixed] {
            assert!(!feas.admit(&request(0, job, at, loose)));
            assert!(!feas.admit(&request(0, job, at, None)));
        }
        assert_eq!(feas.backlog_ns(), 0, "rejections reserve nothing");

        // Covered jobs still pass exactly as before.
        let ok = job(9);
        assert!(util.admit(&request(1, &ok, at, None)));
        assert!(feas.admit(&request(1, &ok, at, loose)));
    }

    /// Under an armed fault plan `live_procs` shrinks with crashes; both
    /// gates must budget against the surviving capacity, and a fully
    /// crashed machine must shed every deadline-carrying job.
    #[test]
    fn gates_tighten_with_lost_capacity() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let j = job(7);
        let work = min_work_ns(&j, lookup).expect("diamond jobs are covered");
        let at = SimTime::ZERO;
        let deadline = Some(at + SimDuration::from_ns(work)); // density 1.0
        let degraded = |id: u64, live: usize, deadline| AdmitRequest {
            live_procs: live,
            ..request(id, &j, at, deadline)
        };
        // Utilization: a 3-proc machine fits three density-1 jobs; with one
        // processor down only two fit, and at zero capacity none do.
        let mut gate = UtilizationBound::new(lookup, &config, 1.0);
        assert!(gate.admit(&degraded(0, 2, deadline)));
        assert!(gate.admit(&degraded(1, 2, deadline)));
        assert!(!gate.admit(&degraded(2, 2, deadline)), "2-proc budget full");
        assert!(gate.admit(&degraded(2, 3, deadline)), "repair restores it");
        assert!(!gate.admit(&degraded(3, 0, deadline)), "no capacity at all");
        // Deadline-free jobs are density-0 and pass regardless.
        assert!(gate.admit(&degraded(3, 0, None)));
        // Feasibility: backlog spread over fewer survivors pushes the same
        // tight window over its deadline; zero survivors reject outright.
        let cp = j.critical_path_min(lookup);
        let mut feas = FeasibilityGate::new(lookup, &config);
        for id in 0..6 {
            assert!(feas.admit(&degraded(id, 3, None)));
        }
        let backlog = feas.backlog_ns();
        let window = SimDuration::from_ns(backlog / 3 + cp.as_ns());
        assert!(feas.admit(&degraded(6, 3, Some(at + window))));
        let tighter = SimDuration::from_ns(feas.backlog_ns() / 3 + cp.as_ns());
        assert!(
            !feas.admit(&degraded(7, 1, Some(at + tighter))),
            "one survivor carries triple the backlog"
        );
        assert!(!feas.admit(&degraded(7, 0, Some(at + tighter))));
        assert!(feas.admit(&degraded(7, 0, None)), "deadline-free still ok");
    }

    /// Every rejected bound is a typed error; a valid one builds.
    #[test]
    fn utilization_bound_types_a_bad_bound() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = UtilizationBound::try_new(lookup, &config, bad).unwrap_err();
            assert!(
                matches!(&err, BaseError::InvalidConfig { reason } if reason.contains("utilization bound")),
                "{bad}: {err}"
            );
        }
        assert_eq!(
            UtilizationBound::try_new(lookup, &config, 0.25)
                .unwrap()
                .bound(),
            0.25
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_bound_is_rejected() {
        let lookup = LookupTable::paper();
        let config = apt_hetsim::SystemConfig::paper_4gbps();
        let _ = UtilizationBound::new(lookup, &config, 0.0);
    }

    #[test]
    fn reservations_track_any_id_order() {
        let mut r = Reservations::default();
        assert!(r.is_empty());
        assert_eq!(r.remove(0), None);
        r.insert(10, 'a');
        r.insert(12, 'c');
        r.insert(7, 'x'); // below the window: widens it at the front
        r.insert(12, 'C'); // replaces, still one reservation
        assert_eq!(r.live, 3);
        assert_eq!(r.remove(11), None);
        assert_eq!(r.remove(6), None);
        assert_eq!(r.remove(u64::MAX), None);
        assert_eq!(r.remove(7), Some('x'));
        assert_eq!((r.base, r.slots.len()), (10, 3), "front trimmed to 10");
        assert_eq!(r.remove(12), Some('C'));
        assert_eq!(r.remove(12), None);
        assert_eq!(r.remove(10), Some('a'));
        assert!(r.is_empty() && r.slots.is_empty());
        r.insert(3, 'z');
        assert_eq!((r.base, r.remove(3)), (3, Some('z')));
    }

    /// Both gates' decision rules over `BTreeMap` reservations: the oracle
    /// the slab-backed gates must match decision for decision.
    #[derive(Default)]
    struct OracleGates {
        util_reserved: std::collections::BTreeMap<u64, f64>,
        load: f64,
        bound: f64,
        feas_reserved: std::collections::BTreeMap<u64, u64>,
        backlog_ns: u64,
    }

    impl OracleGates {
        fn util_admit(&mut self, req: &AdmitRequest<'_>, nprocs: usize) -> bool {
            let Some(work) = min_work_ns(req.job, LookupTable::paper()) else {
                return false;
            };
            let density = match req.deadline {
                None => 0.0,
                Some(deadline) => {
                    let window = deadline.saturating_since(req.arrival).as_ns().max(1);
                    work as f64 / window as f64
                }
            };
            if density > 0.0 {
                let capacity = req.live_procs.min(nprocs);
                if self.load + density > self.bound * capacity as f64 {
                    return false;
                }
            }
            self.util_reserved.insert(req.job_id.0, density);
            self.load += density;
            true
        }

        fn util_complete(&mut self, id: u64) {
            if let Some(density) = self.util_reserved.remove(&id) {
                self.load -= density;
                if self.util_reserved.is_empty() {
                    self.load = 0.0;
                }
            }
        }

        fn feas_admit(&mut self, req: &AdmitRequest<'_>, nprocs: usize) -> bool {
            let lookup = LookupTable::paper();
            let Some(work) = min_work_ns(req.job, lookup) else {
                return false;
            };
            if let Some(deadline) = req.deadline {
                let live = req.live_procs.min(nprocs);
                if live == 0 {
                    return false;
                }
                let window = deadline.saturating_since(req.arrival).as_ns();
                let estimate =
                    self.backlog_ns / live as u64 + req.job.critical_path_min(lookup).as_ns();
                if estimate > window {
                    return false;
                }
            }
            self.feas_reserved.insert(req.job_id.0, work);
            self.backlog_ns += work;
            true
        }

        fn feas_complete(&mut self, id: u64) {
            if let Some(work) = self.feas_reserved.remove(&id) {
                self.backlog_ns -= work;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random admit/complete scripts over increasing ids, as the
        /// driver issues them: a shed arrival's id is re-offered to the
        /// next one, completions may name ids that hold no reservation
        /// (shed, already retired, or never offered), and ρ is retuned
        /// mid-run. Both slab-backed gates match the oracle decision for
        /// decision, with `load` and `backlog_ns` bit-equal throughout.
        fn gates_match_the_btreemap_oracle(
            script in prop::collection::vec(
                (0u64..10, 0u64..8, 0u64..6_000, 0usize..4),
                1..400,
            ),
        ) {
            let lookup = LookupTable::paper();
            let config = apt_hetsim::SystemConfig::paper_4gbps();
            let nprocs = config.len();
            let uncovered = JobTemplate::new(
                vec![apt_dfg::Kernel::new(apt_dfg::KernelKind::MatMul, 123)],
                Vec::new(),
            )
            .unwrap();
            let jobs = [job(1), job(2), job(3), uncovered];
            let mut util = UtilizationBound::new(lookup, &config, 1.0);
            let mut feas = FeasibilityGate::new(lookup, &config);
            let mut oracle = OracleGates { bound: 1.0, ..OracleGates::default() };
            // Each gate has its own engine: ids advance on its admissions.
            let (mut util_next, mut feas_next) = (0u64, 0u64);
            let (mut util_live, mut feas_live) = (Vec::new(), Vec::new());
            let at = SimTime::from_ms(1_000);
            for (step, &(op, pick, ms, live)) in script.iter().enumerate() {
                match op {
                    // Offer an arrival to both gates.
                    0..=5 => {
                        let job = &jobs[pick as usize % jobs.len()];
                        let deadline = (pick < 6).then(|| at + SimDuration::from_ms(ms));
                        let req = |id| AdmitRequest {
                            live_procs: live,
                            ..request(id, job, at, deadline)
                        };
                        let got = util.admit(&req(util_next));
                        let want = oracle.util_admit(&req(util_next), nprocs);
                        prop_assert_eq!(got, want, "util step {}", step);
                        if got {
                            util_live.push(util_next);
                            util_next += 1;
                        }
                        let got = feas.admit(&req(feas_next));
                        let want = oracle.feas_admit(&req(feas_next), nprocs);
                        prop_assert_eq!(got, want, "feas step {}", step);
                        if got {
                            feas_live.push(feas_next);
                            feas_next += 1;
                        }
                    }
                    // Retire an in-flight job (any one: jobs finish out of
                    // order), or an arbitrary id that may hold nothing:
                    // never offered, shed, or already retired.
                    6..=8 => {
                        let retire = |live: &mut Vec<u64>, next: u64| {
                            if op == 8 || live.is_empty() {
                                [next, next + 1 + ms, ms % (next + 1)][pick as usize % 3]
                            } else {
                                live.swap_remove(ms as usize % live.len())
                            }
                        };
                        let id = retire(&mut util_live, util_next);
                        util.on_complete(&completed(id));
                        oracle.util_complete(id);
                        let id = retire(&mut feas_live, feas_next);
                        feas.on_complete(&completed(id));
                        oracle.feas_complete(id);
                    }
                    // Retune ρ.
                    _ => {
                        let bound = (ms as f64 / 1_000.0).max(0.01);
                        util.set_utilization_bound(bound);
                        oracle.bound = bound.clamp(MIN_RUNTIME_BOUND, MAX_RUNTIME_BOUND);
                    }
                }
                let (load, want) = (util.load().to_bits(), oracle.load.to_bits());
                prop_assert_eq!(load, want, "load at step {}", step);
                let (backlog, want) = (feas.backlog_ns(), oracle.backlog_ns);
                prop_assert_eq!(backlog, want, "backlog at step {}", step);
            }
        }
    }

    fn paper() -> (&'static SystemConfig, &'static LookupTable) {
        use std::sync::OnceLock;
        static CFG: OnceLock<SystemConfig> = OnceLock::new();
        (
            CFG.get_or_init(SystemConfig::paper_4gbps),
            LookupTable::paper(),
        )
    }

    /// An overloaded deadline-tagged stream: 3 j/s of diamond jobs into a
    /// machine that sustains ~0.3 j/s.
    fn overload_source(lookup: &LookupTable, tightness: f64) -> PoissonSource<'_> {
        PoissonSource::new(lookup, 3.0, 250, JobFamily::Diamond { width: 2 }, 0x510)
            .with_deadlines(DeadlineSpec::ProportionalCp { factor: tightness })
    }

    /// The acceptance-criterion behaviour: under overload, accept-all
    /// drives the miss rate toward 1 with an unbounded backlog, while a
    /// utilization gate sheds most arrivals and keeps the *admitted* jobs'
    /// miss rate far lower.
    #[test]
    fn admission_gating_beats_accept_all_under_overload() {
        let (config, lookup) = paper();
        let opts = DriverOpts::default();

        let mut open = AcceptAll;
        let mut src = overload_source(lookup, 4.0);
        let ungated = simulate_source_gated(
            &mut src,
            config,
            lookup,
            &mut EdfApt::new(4.0),
            &opts,
            &mut open,
            |_| {},
        )
        .unwrap();
        assert_eq!(ungated.jobs_shed, 0);
        assert_eq!(ungated.jobs_admitted, 250);
        assert!(
            ungated.miss_rate() > 0.8,
            "overloaded accept-all should go almost fully tardy, got {}",
            ungated.miss_rate()
        );

        // ρ ≤ 0.25: the density bound assumes an ideal preemptive EDF
        // machine; on this non-preemptive heterogeneous one (kernels are
        // never migrated, transfers serialize, and a diamond job cannot
        // use all three processors at once) a quarter-budget keeps the
        // admitted set comfortably schedulable.
        let mut gate = UtilizationBound::new(lookup, config, 0.25);
        let mut src = overload_source(lookup, 4.0);
        let gated = simulate_source_gated(
            &mut src,
            config,
            lookup,
            &mut EdfApt::new(4.0),
            &opts,
            &mut gate,
            |_| {},
        )
        .unwrap();
        assert!(gated.jobs_shed > 0, "overload must shed");
        assert_eq!(gated.jobs_admitted + gated.jobs_shed, 250);
        assert_eq!(gated.jobs_completed, gated.jobs_admitted);
        assert!(
            gated.miss_rate() < ungated.miss_rate() / 2.0,
            "gated miss rate {} not clearly below accept-all {}",
            gated.miss_rate(),
            ungated.miss_rate()
        );
        // The gate's reservations fully drained with the stream.
        assert_eq!(gate.load(), 0.0);
        // And the backlog peak is bounded well below the ungated one.
        assert!(gated.peak_in_flight_jobs < ungated.peak_in_flight_jobs);
    }

    /// Below saturation both admission paths drain a deadline-tagged
    /// stream: every offered job is admitted or shed, every admitted job
    /// completes, and the utilization gate's reservations return to zero.
    #[test]
    fn both_gates_drain_a_sustainable_deadline_stream() {
        let (config, lookup) = paper();
        let source = || {
            PoissonSource::new(lookup, 0.5, 2_000, JobFamily::Single, 0xBE9C_5EED)
                .with_deadlines(DeadlineSpec::ProportionalCp { factor: 4.0 })
        };
        let opts = DriverOpts::default();

        let mut open = AcceptAll;
        let ungated = simulate_source_gated(
            &mut source(),
            config,
            lookup,
            &mut EdfApt::new(4.0),
            &opts,
            &mut open,
            |_| {},
        )
        .unwrap();
        assert_eq!(ungated.jobs_admitted, 2_000);
        assert_eq!(ungated.jobs_shed, 0);
        assert_eq!(ungated.jobs_completed, 2_000);

        let mut gate = UtilizationBound::new(lookup, config, 1.0);
        let gated = simulate_source_gated(
            &mut source(),
            config,
            lookup,
            &mut EdfApt::new(4.0),
            &opts,
            &mut gate,
            |_| {},
        )
        .unwrap();
        assert_eq!(gated.jobs_admitted + gated.jobs_shed, 2_000);
        assert_eq!(gated.jobs_completed, gated.jobs_admitted);
        assert!(gated.jobs_admitted > 0);
        assert_eq!(gate.load(), 0.0);
    }

    #[test]
    fn feasibility_gate_shed_rate_tracks_tightness() {
        let (config, lookup) = paper();
        let opts = DriverOpts::default();
        let run = |tightness: f64| {
            let mut gate = FeasibilityGate::new(lookup, config);
            let mut src = overload_source(lookup, tightness);
            simulate_source_gated(
                &mut src,
                config,
                lookup,
                &mut LlApt::new(4.0),
                &opts,
                &mut gate,
                |_| {},
            )
            .unwrap()
        };
        let tight = run(1.5);
        let loose = run(16.0);
        assert!(tight.jobs_shed > 0);
        assert!(
            tight.shed_rate() > loose.shed_rate(),
            "tighter deadlines must shed more: {} vs {}",
            tight.shed_rate(),
            loose.shed_rate()
        );
    }

    /// Engine-level EDF ready order + plain APT ≡ FCFS order + EDF-APT:
    /// the two implementations of "earliest deadline first" must agree
    /// schedule for schedule.
    #[test]
    fn engine_edf_order_equals_self_ordering_edf_apt() {
        let (config, lookup) = paper();
        let make_source = || {
            PoissonSource::new(lookup, 0.5, 120, JobFamily::Chain { len: 2 }, 77).with_deadlines(
                DeadlineSpec::Uniform {
                    lo: SimDuration::from_ms(500),
                    hi: SimDuration::from_ms(60_000),
                },
            )
        };
        let mut via_engine_order = Vec::new();
        simulate_source_gated(
            &mut make_source(),
            config,
            lookup,
            &mut Apt::new(4.0),
            &DriverOpts {
                ready_order: ReadyOrder::EarliestDeadline,
                ..DriverOpts::default()
            },
            &mut AcceptAll,
            |job| via_engine_order.push((job.job, job.records.clone())),
        )
        .unwrap();
        let mut via_policy_order = Vec::new();
        simulate_source_gated(
            &mut make_source(),
            config,
            lookup,
            &mut EdfApt::new(4.0),
            &DriverOpts::default(),
            &mut AcceptAll,
            |job| via_policy_order.push((job.job, job.records.clone())),
        )
        .unwrap();
        assert_eq!(
            via_engine_order, via_policy_order,
            "the two EDF realizations diverged"
        );
    }
}
