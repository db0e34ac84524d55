//! The bounded-memory streaming driver.
//!
//! [`simulate_source`] pulls arrivals from a [`Source`] *just-in-time* —
//! each job is admitted into the [`OpenEngine`] only once the simulation
//! clock is about to reach its arrival — steps the engine event by event,
//! retires completed jobs into one online aggregator (and an optional
//! per-job observer), and returns a compact [`StreamOutcome`].
//!
//! The aggregator is the run's single source of truth: it alone counts
//! admitted, shed, completed and failed jobs and retired kernels, and it
//! keeps job latency and tardiness in one log-bucket histogram each
//! (relative error ≤ 1%). The outcome, the [`StreamSnapshot`]s, the
//! `--progress` heartbeat and an armed [`StreamTelemetry`] all read that
//! one aggregator, so none of them can report a different count or p99.
//!
//! Memory is bounded by the jobs in flight plus one pending arrival: the
//! arrival vector is never materialized, retired jobs free their arena
//! slots, and metrics are O(1) per job. A million-job Poisson run completes
//! in a few hundred kilobytes of simulator state (see this crate's
//! `examples/million_jobs.rs` and the bounded-arena assertions in
//! `tests/`).
//!
//! Five public entry points share one private driver body, each adding
//! one layer to the one before:
//!
//! * [`simulate_source`] — the plain run;
//! * [`simulate_source_gated`] — an [`AdmissionGate`] in the admit path
//!   plus a per-job observer ([`AdmitAll`] for an ungated, observed run);
//! * [`simulate_source_controlled`] — an `apt-control` [`Controller`] on
//!   the metrics windows;
//! * [`simulate_source_traced`] — an armed [`TraceSink`], controller
//!   optional;
//! * [`simulate_source_telemetered`] — an armed [`StreamTelemetry`],
//!   controller and sink optional.
//!
//! `simulate_stream` semantics are preserved exactly: a finite source
//! replayed through this driver produces the same schedule, record for
//! record, as the closed-world engine over the materialized workload (the
//! `finite_source_matches_simulate_stream` proptest pins this byte for
//! byte).

use crate::job::JobTemplate;
use crate::online::{quantiles, OnlineMetrics};
use crate::source::Source;
use crate::telemetry::StreamTelemetry;
use apt_base::{BaseError, SimDuration, SimTime};
use apt_control::{ControlAction, ControlEvent, Controller};
use apt_dfg::LookupTable;
use apt_hetsim::{
    CompletedJob, FaultPlan, FaultTotals, OpenEngine, Policy, ProcStats, ReadyOrder, RetryPolicy,
    SystemConfig,
};
use apt_metrics::StreamSnapshot;
use apt_trace::{ControlKind, CounterKind, ShedReason, TraceEvent, TraceSink};

/// Driver knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverOpts {
    /// Emit an [`StreamSnapshot`] every this much simulated time (`None`:
    /// no periodic snapshots; the final aggregates are always produced).
    pub snapshot_interval: Option<SimDuration>,
    /// Stop admitting new jobs once this many are in flight and mark the
    /// outcome [`StreamOutcome::saturated`]. `None`: admit everything.
    /// This is the overload guard for λ-sweep experiments — a saturated
    /// system's backlog would otherwise grow without bound. By default the
    /// guard is a *latch*: once tripped, admission stops permanently and
    /// the run drains; set [`DriverOpts::shed_when_full`] to shed only the
    /// jobs that arrive while the system is actually full.
    pub max_in_flight_jobs: Option<usize>,
    /// Soften the `max_in_flight_jobs` guard from a permanent latch into
    /// per-arrival shedding: a job arriving while the system is at the cap
    /// is dropped (counted in [`StreamOutcome::jobs_shed`]), and admission
    /// resumes as soon as the backlog drains below the cap. The latch
    /// (default, `false`) preserves the historical sweep semantics, where
    /// one transient burst ends admission for the rest of the stream.
    pub shed_when_full: bool,
    /// Iteration order of the engine's ready set: FCFS admission order
    /// (the default, byte-identical to `simulate_stream`) or
    /// earliest-deadline-first.
    pub ready_order: ReadyOrder,
    /// Fault-injection plan armed over the run. The default,
    /// [`FaultPlan::none()`], leaves the driver on the fault-free path —
    /// byte-identical outcomes, zero fault counters.
    pub faults: FaultPlan,
    /// Retry policy for transiently failed kernels (only consulted when
    /// [`DriverOpts::faults`] is armed).
    pub retry: RetryPolicy,
}

/// Everything an admission decision may inspect: the job about to enter
/// the system and the live backlog it would join.
#[derive(Debug, Clone, Copy)]
pub struct AdmitRequest<'a> {
    /// The [`apt_hetsim::JobId`] the job receives **if admitted** (from
    /// [`OpenEngine::next_job_id`]) — the id its [`CompletedJob`] will
    /// carry, so stateful gates key per-job reservations on it.
    pub job_id: apt_hetsim::JobId,
    /// The job's arrival instant.
    pub arrival: SimTime,
    /// Its absolute deadline (`arrival + relative deadline`), if tagged.
    pub deadline: Option<SimTime>,
    /// The job itself (kernels, edges, relative deadline).
    pub job: &'a JobTemplate,
    /// The engine clock at decision time (`≤ arrival` — jobs are admitted
    /// just-in-time).
    pub now: SimTime,
    /// Jobs currently in flight.
    pub in_flight_jobs: usize,
    /// Kernels currently in flight.
    pub in_flight_kernels: usize,
    /// Processors currently up (not crashed). Equal to the machine size on
    /// fault-free runs; capacity-budget gates scale to this so admission
    /// tightens while the machine is degraded.
    pub live_procs: usize,
}

/// The admission hook of [`simulate_source_gated`]: decide per job whether
/// it enters the system, and observe completions to release whatever
/// budget the decision reserved. `apt-slo`'s `AdmissionPolicy` gates plug
/// in through this. An accepted request's job enters the engine under
/// exactly [`AdmitRequest::job_id`].
pub trait AdmissionGate {
    /// True to admit the job, false to shed it (the job never enters the
    /// system and is counted in [`StreamOutcome::jobs_shed`]).
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool;

    /// Called for every completed job, in completion order, before the
    /// driver's own observer.
    fn on_complete(&mut self, _job: &CompletedJob) {}

    /// Set the gate's utilization bound ρ at runtime — how
    /// `apt-control`'s AIMD admission loop reaches the gate. The gate
    /// clamps to its own valid range; the default (`false`) means "no
    /// such knob" and the driver records the action unapplied.
    fn set_utilization_bound(&mut self, _bound: f64) -> bool {
        false
    }

    /// The gate's current utilization bound, when it has one.
    fn utilization_bound(&self) -> Option<f64> {
        None
    }
}

/// The open gate: admit everything (plain [`simulate_source`] behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionGate for AdmitAll {
    fn admit(&mut self, _req: &AdmitRequest<'_>) -> bool {
        true
    }
}

/// Everything a streaming run reports. All aggregates are online — no
/// per-job storage survives the run (jobs stream through the optional
/// observer instead).
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Policy display name.
    pub policy: String,
    /// Jobs the driver admitted into the system.
    pub jobs_admitted: u64,
    /// Jobs that ran to completion (equals `jobs_admitted` on fault-free
    /// success).
    pub jobs_completed: u64,
    /// Admitted jobs shed by the failure model after exhausting their
    /// retry budget. Zero on fault-free runs.
    pub jobs_failed: u64,
    /// Kernels executed to completion (including those of failed jobs that
    /// finished before the job was shed).
    pub kernels_completed: u64,
    /// The instant the last event fired (the open-system "makespan").
    pub end: SimTime,
    /// Jobs leaving the system per simulated second — completed *and*
    /// failed. Equals [`StreamOutcome::goodput_jps`] on fault-free runs.
    pub throughput_jps: f64,
    /// Successfully completed jobs per simulated second — throughput minus
    /// the failure-model sheds.
    pub goodput_jps: f64,
    /// Mean end-to-end job latency (arrival → last kernel finish), ms.
    pub mean_latency_ms: f64,
    /// Median job latency, ms, from the run's latency histogram (within
    /// 1% of the exact nearest-rank sample; the last snapshot and the
    /// Prometheus `job_latency_ms` histogram report the same value).
    pub latency_p50_ms: f64,
    /// 90th percentile job latency, ms.
    pub latency_p90_ms: f64,
    /// 99th percentile job latency, ms.
    pub latency_p99_ms: f64,
    /// Total λ delay accumulated by all kernels.
    pub lambda_total: SimDuration,
    /// Most jobs ever simultaneously in flight.
    pub peak_in_flight_jobs: usize,
    /// Most kernels ever simultaneously in flight.
    pub peak_in_flight_kernels: usize,
    /// Final slot-arena size — the memory high-water mark, bounded by the
    /// in-flight peak rather than the stream length.
    pub arena_slots: usize,
    /// Cumulative per-processor aggregates.
    pub proc_stats: Vec<ProcStats>,
    /// Periodic snapshots (empty unless `snapshot_interval` was set).
    pub snapshots: Vec<StreamSnapshot>,
    /// True when the `max_in_flight_jobs` guard tripped at least once:
    /// with the default latch, admission stopped early; with
    /// [`DriverOpts::shed_when_full`], at least one arrival was shed while
    /// the system was full.
    pub saturated: bool,
    /// Jobs that never entered the system: rejected by the admission gate
    /// or shed by the `max_in_flight_jobs` guard in shed mode.
    pub jobs_shed: u64,
    /// Completed jobs that carried a deadline (the miss-rate denominator).
    pub deadline_jobs: u64,
    /// Deadline-carrying jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Median tardiness over deadline-carrying jobs, ms (on-time jobs
    /// count as zero tardiness).
    pub tardiness_p50_ms: f64,
    /// 99th-percentile tardiness, ms.
    pub tardiness_p99_ms: f64,
    /// Mean tardiness over deadline-carrying jobs, ms.
    pub mean_tardiness_ms: f64,
    /// Fault-injection counters for the run (all zeros when
    /// [`DriverOpts::faults`] was [`FaultPlan::none()`]).
    pub faults: FaultTotals,
    /// Every action a controller emitted, in emission order, with whether
    /// the run had the knob. Empty on uncontrolled runs *and* under an
    /// armed controller that never acted — an inert-armed run's outcome
    /// is byte-identical to a controller-off run (pinned in this crate's
    /// equivalence suite).
    pub control_log: Vec<ControlEvent>,
}

impl StreamOutcome {
    /// Per-processor busy+transfer fraction of the whole run. A run that
    /// never advanced the clock (`end == 0`) reports zero utilization
    /// rather than dividing by a degenerate denominator.
    pub fn utilization(&self) -> Vec<f64> {
        if self.end.as_ns() == 0 {
            return vec![0.0; self.proc_stats.len()];
        }
        let total = self.end.as_ns() as f64;
        self.proc_stats
            .iter()
            .map(|s| (s.busy + s.transfer).as_ns() as f64 / total)
            .collect()
    }

    /// Fraction of deadline-carrying jobs that missed their deadline
    /// (0 when the stream carried none).
    pub fn miss_rate(&self) -> f64 {
        if self.deadline_jobs == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.deadline_jobs as f64
        }
    }

    /// Fraction of *offered* jobs the admission gate shed.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.jobs_admitted + self.jobs_shed;
        if offered == 0 {
            0.0
        } else {
            self.jobs_shed as f64 / offered as f64
        }
    }

    /// Machine availability over the run: the fraction of aggregate
    /// processor-time that was up, `1 − down/(procs × end)`. Exactly 1 on
    /// fault-free runs (and degenerate zero-duration runs).
    pub fn availability(&self) -> f64 {
        let span = self
            .end
            .as_ns()
            .saturating_mul(self.proc_stats.len() as u64);
        if span == 0 {
            1.0
        } else {
            1.0 - (self.faults.down_ns as f64 / span as f64).min(1.0)
        }
    }

    /// Wasted-work fraction: of all processor occupancy (busy + transfer,
    /// which includes the partial occupancy of killed attempts), the share
    /// thrown away by transient failures and crashes. Zero on fault-free
    /// runs.
    pub fn wasted_work_frac(&self) -> f64 {
        let occupied: u64 = self
            .proc_stats
            .iter()
            .map(|s| (s.busy + s.transfer).as_ns())
            .sum();
        if occupied == 0 {
            0.0
        } else {
            self.faults.wasted_ns as f64 / occupied as f64
        }
    }
}

/// Run `policy` over the arrivals of `source` on `config`'s machine. See
/// the module docs. Fails on starvation (the policy stops scheduling while
/// jobs are in flight), on a source yielding decreasing arrival times, on
/// a static policy, or on a zero snapshot interval.
pub fn simulate_source(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
) -> Result<StreamOutcome, BaseError> {
    simulate_source_gated(source, config, lookup, policy, opts, &mut AdmitAll, |_| {})
}

/// [`simulate_source`] with an [`AdmissionGate`] in the admit path and a
/// per-job observer. Each due job is offered to `gate` *before* entering
/// the engine; rejected jobs are shed (counted, never admitted) and the
/// gate hears about every completion so it can release reserved budget.
/// This is how `apt-slo`'s admission policies bound overload instead of
/// letting the backlog grow without bound; pass [`AdmitAll`] for an
/// ungated run. `observe` is called once for every [`CompletedJob`], in
/// completion order and after the gate, before its storage is recycled —
/// the hook tests and exporters use to stream records out without the
/// driver retaining them.
pub fn simulate_source_gated(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    observe: impl FnMut(&CompletedJob),
) -> Result<StreamOutcome, BaseError> {
    simulate_source_inner(
        source, config, lookup, policy, opts, gate, None, &mut None, None, observe,
    )
}

/// [`simulate_source_gated`] with an `apt-control` [`Controller`] closing
/// the loop: at every metrics-window close the controller observes the
/// window's [`StreamSnapshot`] and may emit bounded [`ControlAction`]s,
/// which the driver applies *between* events — α retunes via
/// [`Policy::set_alpha`], the admission bound via
/// [`AdmissionGate::set_utilization_bound`], roster switches via
/// [`Policy::switch_to`] — and records in
/// [`StreamOutcome::control_log`] (including rejected actions, with
/// `applied: false`). Controllers are deterministic functions of the
/// window sequence, so controlled runs replay bit-for-bit under a seed.
///
/// Windows are the controller's clock, so a snapshot interval is
/// mandatory here; the final *partial* window flushed at stream end is
/// not delivered (nothing is left to control).
#[allow(clippy::too_many_arguments)]
pub fn simulate_source_controlled(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    controller: &mut dyn Controller,
    observe: impl FnMut(&CompletedJob),
) -> Result<StreamOutcome, BaseError> {
    simulate_source_inner(
        source,
        config,
        lookup,
        policy,
        opts,
        gate,
        Some(controller),
        &mut None,
        None,
        observe,
    )
}

/// [`simulate_source_controlled`] (with the controller optional) under an
/// armed [`TraceSink`]: the engine records every admission, dispatch,
/// transfer, completion, fault, and APT decision record; the driver adds
/// what only it can see — gate/capacity sheds, job retirements, per-window
/// counter samples (α, ρ, in-flight jobs, queue depth, window miss rate),
/// and control actions. Returns the outcome *and* the sink back, loaded
/// with the run's events, ready for `apt-trace`'s Chrome exporter or
/// wait-decomposition summary.
///
/// Tracing is purely observational: a traced run's [`StreamOutcome`] is
/// byte-identical to the untraced equivalent (pinned in `tests/`).
#[allow(clippy::too_many_arguments)]
pub fn simulate_source_traced(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    controller: Option<&mut dyn Controller>,
    sink: Box<dyn TraceSink>,
    observe: impl FnMut(&CompletedJob),
) -> Result<(StreamOutcome, Box<dyn TraceSink>), BaseError> {
    let mut sink = Some(sink);
    let outcome = simulate_source_inner(
        source, config, lookup, policy, opts, gate, controller, &mut sink, None, observe,
    )?;
    Ok((
        outcome,
        // apt-lint: allow(hot-path-panic, the traced driver always hands the armed sink back at
        // stream end)
        sink.expect("the driver hands the armed sink back at stream end"),
    ))
}

/// [`simulate_source_traced`] (with the sink optional) under an armed
/// [`StreamTelemetry`]: the driver publishes per-window operating points
/// (live α/ρ, backlog, miss rate, availability) into the telemetry
/// registry as windows close and, once at stream end, the run's job and
/// kernel counters and latency/tardiness histograms from its aggregator;
/// it emits one JSONL line per closed metrics window,
/// ticks the `--progress` heartbeat when one is armed, and — when the
/// `self-profile` feature is compiled in and
/// [`StreamTelemetry::with_engine_profile`] was requested — arms the
/// engine's phase profiler and freezes its report at stream end. When a
/// trace sink rides along, its `recorded`/`dropped` totals surface as
/// `trace_events_total` / `trace_events_dropped_total`.
///
/// Telemetry is purely observational: a telemetered run's
/// [`StreamOutcome`] is byte-identical to the bare equivalent (pinned
/// in `tests/telemetered_stream.rs`).
#[allow(clippy::too_many_arguments)]
pub fn simulate_source_telemetered(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    controller: Option<&mut dyn Controller>,
    sink: Option<Box<dyn TraceSink>>,
    tel: &mut StreamTelemetry,
    observe: impl FnMut(&CompletedJob),
) -> Result<(StreamOutcome, Option<Box<dyn TraceSink>>), BaseError> {
    let mut sink = sink;
    let outcome = simulate_source_inner(
        source,
        config,
        lookup,
        policy,
        opts,
        gate,
        controller,
        &mut sink,
        Some(tel),
        observe,
    )?;
    Ok((outcome, sink))
}

/// The one driver body every public entry point forwards to. It checks
/// the options once (a positive snapshot interval; windows for a
/// controlled run) and, in debug builds, that every job is accounted for
/// at stream end.
#[allow(clippy::too_many_arguments)]
fn simulate_source_inner(
    source: &mut dyn Source,
    config: &SystemConfig,
    lookup: &LookupTable,
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    gate: &mut dyn AdmissionGate,
    mut controller: Option<&mut dyn Controller>,
    sink: &mut Option<Box<dyn TraceSink>>,
    mut tel: Option<&mut StreamTelemetry>,
    mut observe: impl FnMut(&CompletedJob),
) -> Result<StreamOutcome, BaseError> {
    if opts.snapshot_interval.is_some_and(|i| i.is_zero()) {
        return Err(BaseError::InvalidConfig {
            reason: "DriverOpts::snapshot_interval must be positive".into(),
        });
    }
    if controller.is_some() && opts.snapshot_interval.is_none() {
        return Err(BaseError::InvalidSystem {
            reason: "a controlled run needs DriverOpts::snapshot_interval — metrics windows \
                     are the controller's clock"
                .into(),
        });
    }
    let mut engine = OpenEngine::with_order(config, lookup, opts.ready_order)?;
    engine.prepare(policy)?;
    let faults_armed = !opts.faults.is_none();
    if faults_armed {
        engine.arm_faults(opts.faults, opts.retry);
    }
    if let Some(s) = sink.take() {
        engine.arm_trace(s);
    }
    // Total engine wall-clock, the denominator of the phase report's
    // coverage fraction.
    #[cfg(feature = "self-profile")]
    // apt-lint: allow(wall-clock, feature-gated self-profile denominator for the phase report's
    // coverage fraction; never reaches simulation state)
    let run_started = std::time::Instant::now();
    #[cfg(feature = "self-profile")]
    if tel
        .as_deref()
        .is_some_and(StreamTelemetry::wants_engine_profile)
    {
        engine.arm_profiler(Box::new(apt_telemetry::PhaseProfiler::new()));
    }
    // The aggregator always runs; without a snapshot interval its window is
    // pushed past any reachable instant so only the running estimators are
    // exercised.
    let far = SimDuration::from_ns(u64::MAX >> 1);
    let mut metrics = OnlineMetrics::new(opts.snapshot_interval.unwrap_or(far), config.len());
    let snapshots_enabled = opts.snapshot_interval.is_some();

    // Hoisted heartbeat gate: a telemetered run without `--progress`
    // pays one local bool per iteration, not a method call.
    let heartbeat_armed = tel.as_deref().is_some_and(StreamTelemetry::heartbeat_armed);
    let mut pending = source.next_job();
    // Jobs taken from the source, for the conservation check at stream end.
    let mut pulled = u64::from(pending.is_some());
    let mut last_arrival = SimTime::ZERO;
    let mut saturated = false;
    let mut done: Vec<CompletedJob> = Vec::new();
    let mut control_log: Vec<ControlEvent> = Vec::new();
    let mut actions: Vec<ControlAction> = Vec::new();

    // Admit every due job — at most one job plus its same-instant
    // companions sit outside the engine at any moment. Called *after* the
    // fixpoint, so the event queue reflects everything the policy
    // scheduled and "due" genuinely means "nothing can happen before this
    // arrival" (an empty queue then means the engine is quiescent, however
    // far away the arrival is). The overload latch therefore trips only
    // when a job wants in at an instant where the system is actually full
    // — a pending arrival hours past a drainable burst never latches.
    // `seed` phases run before a fixpoint, when direct (at ≤ now) arrivals
    // push no events — only the current-instant cohort is due there.
    let mut admit_due = |engine: &mut OpenEngine<'_>,
                         pending: &mut Option<(SimTime, crate::job::JobTemplate)>,
                         gate: &mut dyn AdmissionGate,
                         saturated: &mut bool,
                         last_arrival: &mut SimTime,
                         metrics: &mut OnlineMetrics,
                         seed: bool|
     -> Result<(), BaseError> {
        // The latch (default) stops admission permanently once tripped; in
        // shed mode `saturated` only records that the guard ever fired.
        while !*saturated || opts.shed_when_full {
            let Some((at, _)) = pending else { break };
            if *at < *last_arrival {
                return Err(BaseError::DisorderedArrival {
                    at_ns: at.as_ns(),
                    prev_ns: last_arrival.as_ns(),
                });
            }
            let due = if seed {
                *at <= engine.now()
            } else {
                match engine.next_event_time() {
                    None => true,
                    Some(next) => *at <= next,
                }
            };
            if !due {
                break;
            }
            if opts
                .max_in_flight_jobs
                .is_some_and(|cap| engine.in_flight_jobs() >= cap)
            {
                *saturated = true;
                if !opts.shed_when_full {
                    break;
                }
                // Shed exactly this arrival; the next one is re-examined
                // against the (possibly drained) backlog.
                // apt-lint: allow(hot-path-panic, the enclosing loop only runs while pending is
                // Some)
                let (at, _) = pending.take().expect("checked above");
                *last_arrival = at;
                metrics.observe_job_shed();
                if let Some(t) = engine.tracer_mut() {
                    t.record(TraceEvent::JobShed {
                        at,
                        reason: ShedReason::CapacityFull,
                    });
                }
                *pending = source.next_job();
                pulled += u64::from(pending.is_some());
                continue;
            }
            // apt-lint: allow(hot-path-panic, the enclosing loop only runs while pending is
            // Some)
            let (at, job) = pending.take().expect("checked above");
            let deadline = job.deadline().map(|d| at + d);
            let accept = gate.admit(&AdmitRequest {
                job_id: engine.next_job_id(),
                arrival: at,
                deadline,
                job: &job,
                now: engine.now(),
                in_flight_jobs: engine.in_flight_jobs(),
                in_flight_kernels: engine.in_flight_kernels(),
                live_procs: engine.live_procs(),
            });
            // Shed or admitted, the arrival is consumed either way; the
            // arrival clock keeps its monotonicity check.
            *last_arrival = at;
            if accept {
                engine.admit_with_deadline(job.kernels(), job.edges(), at, deadline)?;
                metrics.observe_job_admitted();
                metrics.observe_depth(engine.now(), engine.in_flight_jobs());
            } else {
                metrics.observe_job_shed();
                if let Some(t) = engine.tracer_mut() {
                    t.record(TraceEvent::JobShed {
                        at,
                        reason: ShedReason::Gate,
                    });
                }
            }
            *pending = source.next_job();
            pulled += u64::from(pending.is_some());
        }
        Ok(())
    };

    // Seed the engine with the t = 0 cohort before the first fixpoint.
    #[cfg(feature = "self-profile")]
    engine.prof_enter(apt_telemetry::Phase::Admit);
    admit_due(
        &mut engine,
        &mut pending,
        gate,
        &mut saturated,
        &mut last_arrival,
        &mut metrics,
        true,
    )?;

    loop {
        engine.decide(policy)?;
        #[cfg(feature = "self-profile")]
        engine.prof_enter(apt_telemetry::Phase::Admit);
        admit_due(
            &mut engine,
            &mut pending,
            gate,
            &mut saturated,
            &mut last_arrival,
            &mut metrics,
            false,
        )?;
        let advanced = engine.advance()?;

        #[cfg(feature = "self-profile")]
        engine.prof_enter(apt_telemetry::Phase::Account);
        engine.drain_completed(&mut done);
        if !done.is_empty() {
            for job in &done {
                // A failed job counts toward throughput (it left the
                // system) but never toward goodput, latency, or the SLO
                // histograms; the gate still hears it, releasing its
                // reservation.
                metrics.retire(job);
                gate.on_complete(job);
                observe(job);
            }
            if engine.tracer_mut().is_some() {
                let now = engine.now();
                for job in &done {
                    let ev = TraceEvent::JobRetired {
                        job: job.job.0,
                        at: now,
                        failed: job.failed,
                        missed_deadline: job.missed_deadline(),
                    };
                    // apt-lint: allow(hot-path-panic, tracer presence is checked by the
                    // enclosing if)
                    engine.tracer_mut().expect("checked above").record(ev);
                }
            }
            metrics.observe_depth(engine.now(), engine.in_flight_jobs());
        }
        if heartbeat_armed {
            if let Some(t) = tel.as_deref_mut() {
                // The heartbeat first checks cheaply whether it is even
                // due — the common case is one branch per loop iteration.
                if t.progress_due() {
                    t.emit_progress(
                        &metrics,
                        engine.in_flight_jobs(),
                        policy.alpha(),
                        gate.utilization_bound(),
                        engine.now().as_secs_f64(),
                    );
                }
            }
        }
        if snapshots_enabled && engine.now() >= metrics.window_end() {
            #[cfg(feature = "self-profile")]
            engine.prof_enter(apt_telemetry::Phase::Window);
            if faults_armed {
                let ft = engine.fault_totals();
                metrics.note_fault_counters(
                    ft.kernel_failures,
                    ft.retries,
                    ft.wasted_ns,
                    ft.down_ns,
                );
            }
            let before = metrics.snapshots().len();
            metrics.maybe_snapshot(engine.now(), &engine.proc_stats());
            // Sample the operating point at every window close: live α and
            // ρ, the backlog, and the window's miss rate — shared by the
            // Chrome-timeline counter tracks and the telemetry registry.
            let alpha = policy.alpha();
            let rho = gate.utilization_bound();
            let in_flight = engine.in_flight_jobs();
            let queued = engine.in_flight_kernels();
            if let Some(t) = tel.as_deref_mut() {
                for idx in before..metrics.snapshots().len() {
                    t.on_window(&metrics.snapshots()[idx], alpha, rho, in_flight, queued);
                }
            }
            if engine.tracer_mut().is_some() {
                let in_flight = in_flight as f64;
                let queued = queued as f64;
                for idx in before..metrics.snapshots().len() {
                    let (at, miss) = {
                        let snap = &metrics.snapshots()[idx];
                        (snap.end, snap.miss_rate())
                    };
                    // apt-lint: allow(hot-path-panic, tracer presence is checked by the
                    // enclosing if)
                    let t = engine.tracer_mut().expect("checked above");
                    t.record(TraceEvent::Counter {
                        at,
                        kind: CounterKind::InFlightJobs,
                        value: in_flight,
                    });
                    t.record(TraceEvent::Counter {
                        at,
                        kind: CounterKind::QueueDepth,
                        value: queued,
                    });
                    if let Some(a) = alpha {
                        t.record(TraceEvent::Counter {
                            at,
                            kind: CounterKind::Alpha,
                            value: a,
                        });
                    }
                    if let Some(r) = rho {
                        t.record(TraceEvent::Counter {
                            at,
                            kind: CounterKind::Rho,
                            value: r,
                        });
                    }
                    t.record(TraceEvent::Counter {
                        at,
                        kind: CounterKind::WindowMissRate,
                        value: miss,
                    });
                }
            }
            // Deliver each newly closed window to the controller, in
            // emission order, applying its actions before the next event —
            // every window's statistics therefore describe exactly one
            // operating point.
            if let Some(ctrl) = controller.as_mut() {
                for idx in before..metrics.snapshots().len() {
                    let snap = &metrics.snapshots()[idx];
                    actions.clear();
                    ctrl.on_window(snap, &mut actions);
                    for action in actions.drain(..) {
                        let applied = match action {
                            ControlAction::SetAlpha(alpha) => policy.set_alpha(alpha),
                            ControlAction::SetAdmissionBound(bound) => {
                                gate.set_utilization_bound(bound)
                            }
                            ControlAction::SwitchPolicy(member) => policy.switch_to(member),
                        };
                        if let Some(t) = engine.tracer_mut() {
                            let (kind, value) = match action {
                                ControlAction::SetAlpha(a) => (ControlKind::Alpha, a),
                                ControlAction::SetAdmissionBound(b) => {
                                    (ControlKind::AdmissionBound, b)
                                }
                                ControlAction::SwitchPolicy(m) => {
                                    (ControlKind::SwitchPolicy, m as f64)
                                }
                            };
                            t.record(TraceEvent::Control {
                                at: snap.end,
                                kind,
                                value,
                                applied,
                            });
                        }
                        control_log.push(ControlEvent {
                            at: snap.end,
                            action,
                            applied,
                        });
                    }
                }
            }
        }
        // With a fault plan armed the calendar always holds the perpetual
        // crash/repair cycle, so `advance` never runs dry — stop once the
        // source is exhausted (or latched shut) and the system has drained.
        if faults_armed
            && engine.in_flight_jobs() == 0
            && (pending.is_none() || (saturated && !opts.shed_when_full))
        {
            break;
        }

        if advanced.is_none() {
            // No event fired and the queue is empty. With work still in
            // flight that means the fixpoint just declined to schedule
            // anything — the policy starved it (future arrivals cannot
            // unblock kernels whose dependencies are all internal).
            if engine.in_flight_kernels() > 0 {
                return Err(BaseError::Starvation {
                    unscheduled: engine.in_flight_kernels(),
                });
            }
            if pending.is_none() || (saturated && !opts.shed_when_full) {
                break;
            }
            // Idle engine with a pending arrival: the admission loop admits
            // it on the next pass (it is now unconditionally due).
        }
    }

    let end = engine.now();
    // Hand the sink back to the traced entry point, loaded with the run.
    *sink = engine.take_trace();
    // Freeze the phase report before the tail flush so its wall-clock
    // denominator covers exactly the profiled span.
    #[cfg(feature = "self-profile")]
    if let Some(p) = engine.take_profiler() {
        if let Some(t) = tel.as_deref_mut() {
            t.set_phase_report(p.report(&policy.name(), run_started.elapsed()));
        }
    }
    // Flush the final *partial* window so window-driven consumers (CSV
    // exporters, controller post-mortems) see the tail of the run; a run
    // ending exactly on a boundary flushes nothing extra.
    if snapshots_enabled {
        if faults_armed {
            let ft = engine.fault_totals();
            metrics.note_fault_counters(ft.kernel_failures, ft.retries, ft.wasted_ns, ft.down_ns);
        }
        let before_flush = metrics.snapshots().len();
        metrics.flush_partial(end, &engine.proc_stats());
        if let Some(t) = tel.as_deref_mut() {
            let alpha = policy.alpha();
            let rho = gate.utilization_bound();
            let in_flight = engine.in_flight_jobs();
            let queued = engine.in_flight_kernels();
            for idx in before_flush..metrics.snapshots().len() {
                t.on_window(&metrics.snapshots()[idx], alpha, rho, in_flight, queued);
            }
        }
    }
    if let Some(t) = tel {
        if let Some(s) = sink.as_deref() {
            t.on_trace_sink(s.recorded(), s.dropped());
        }
        t.on_end(&metrics, end.as_secs_f64(), engine.in_flight_jobs());
    }
    // Conservation: every job taken from the source was admitted or shed
    // (a latched run stops with one arrival pulled but never offered), and
    // every admitted job completed or failed.
    let (completed, failed) = (metrics.completed(), metrics.failed());
    let [p50, p90, p99] = quantiles(metrics.latency(), [0.50, 0.90, 0.99]);
    let [tardiness_p50_ms, tardiness_p99_ms] = quantiles(metrics.tardiness(), [0.50, 0.99]);
    debug_assert_eq!(
        pulled - u64::from(pending.is_some()),
        metrics.admitted() + metrics.shed(),
        "offered jobs must be admitted or shed"
    );
    debug_assert_eq!(
        metrics.admitted(),
        completed + failed,
        "admitted jobs must complete or fail"
    );
    Ok(StreamOutcome {
        policy: policy.name(),
        jobs_admitted: metrics.admitted(),
        jobs_completed: completed,
        jobs_failed: failed,
        kernels_completed: metrics.kernels(),
        end,
        // A stream completing entirely at t = 0 has no meaningful rate; the
        // old `max(f64::MIN_POSITIVE)` clamp reported ~1e308 jobs/s for it.
        throughput_jps: if end.as_ns() == 0 {
            0.0
        } else {
            (completed + failed) as f64 / end.as_secs_f64()
        },
        goodput_jps: if end.as_ns() == 0 {
            0.0
        } else {
            completed as f64 / end.as_secs_f64()
        },
        mean_latency_ms: metrics.mean_latency_ms(),
        latency_p50_ms: p50,
        latency_p90_ms: p90,
        latency_p99_ms: p99,
        lambda_total: metrics.lambda_total(),
        peak_in_flight_jobs: engine.peak_in_flight_jobs(),
        peak_in_flight_kernels: engine.peak_in_flight_kernels(),
        arena_slots: engine.arena_slots(),
        proc_stats: engine.proc_stats(),
        saturated,
        jobs_shed: metrics.shed(),
        deadline_jobs: metrics.tardiness().count(),
        deadline_misses: metrics.deadline_misses(),
        tardiness_p50_ms,
        tardiness_p99_ms,
        mean_tardiness_ms: metrics.mean_tardiness_ms(),
        snapshots: metrics.take_snapshots(),
        faults: engine.fault_totals(),
        control_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobFamily;
    use crate::source::PoissonSource;
    use apt_base::ProcId;
    use apt_dfg::NodeId;
    use apt_hetsim::{Assignment, AssignmentBuf, PolicyKind, SimView};

    /// Place each ready kernel on the first idle processor able to run it.
    struct FirstFit;

    impl Policy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
            for node in view.ready.iter() {
                for p in view.idle_procs() {
                    if view.exec_time(node, p.id).is_some() {
                        out.push(Assignment::new(node, p.id));
                        return;
                    }
                }
            }
        }
    }

    /// Never schedules anything.
    struct Lazy;
    impl Policy for Lazy {
        fn name(&self) -> String {
            "Lazy".into()
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Dynamic
        }
        fn decide(&mut self, _view: &SimView<'_>, _out: &mut AssignmentBuf) {}
    }

    fn paper() -> (&'static SystemConfig, &'static LookupTable) {
        use std::sync::OnceLock;
        static CFG: OnceLock<SystemConfig> = OnceLock::new();
        (
            CFG.get_or_init(SystemConfig::paper_4gbps),
            LookupTable::paper(),
        )
    }

    #[test]
    fn poisson_stream_runs_to_completion_with_bounded_arena() {
        let (config, lookup) = paper();
        // 0.2 jobs/s (5 s mean gap) under MET: well below saturation for
        // uniformly drawn kernels, so the backlog — and with it the arena —
        // stays small while 400 jobs stream through.
        let mut source = PoissonSource::new(lookup, 0.2, 400, JobFamily::Diamond { width: 2 }, 17);
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(100_000)),
                max_in_flight_jobs: None,
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.jobs_admitted, 400);
        assert_eq!(outcome.jobs_completed, 400);
        assert_eq!(outcome.kernels_completed, 400 * 4);
        assert!(!outcome.saturated);
        assert!(outcome.end > SimTime::ZERO);
        assert!(outcome.throughput_jps > 0.0);
        assert!(outcome.mean_latency_ms > 0.0);
        assert!(outcome.latency_p99_ms >= outcome.latency_p50_ms);
        // Bounded memory: the arena tracks the in-flight peak, not 1600.
        assert_eq!(outcome.arena_slots, outcome.peak_in_flight_kernels);
        assert!(
            outcome.arena_slots < 400,
            "arena {} not bounded by in-flight jobs",
            outcome.arena_slots
        );
        assert!(!outcome.snapshots.is_empty());
        let last = outcome.snapshots.last().unwrap();
        assert!(last.total_jobs <= 400);
        // All work is accounted somewhere.
        assert_eq!(
            outcome.proc_stats.iter().map(|s| s.kernels).sum::<usize>(),
            1600
        );
        let u = outcome.utilization();
        assert!(u.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn armed_faults_account_for_every_job() {
        // Transient failures plus crash/repair under the default retry
        // policy: each job completes or fails, none is shed, and the
        // fault books agree with the outcome. The same stream with the
        // machinery off fails nothing.
        let (config, lookup) = paper();
        let run = |faults: FaultPlan| {
            let mut source = PoissonSource::new(lookup, 0.5, 2_000, JobFamily::Single, 0xBE9C_5EED);
            simulate_source(
                &mut source,
                config,
                lookup,
                &mut apt_core::Apt::new(4.0),
                &DriverOpts {
                    faults,
                    retry: RetryPolicy::default(),
                    ..DriverOpts::default()
                },
            )
            .unwrap()
        };
        let armed = run(FaultPlan::seeded(0xBE9C_FA17)
            .with_transient(0.02)
            .with_crashes(SimDuration::from_ms(60_000), SimDuration::from_ms(2_000)));
        assert_eq!(armed.jobs_completed + armed.jobs_failed, 2_000);
        assert_eq!(armed.jobs_shed, 0);
        assert_eq!(armed.faults.jobs_failed, armed.jobs_failed);
        assert!(
            armed.faults.kernel_failures > 0,
            "no transient failure drawn"
        );
        assert!(armed.faults.retries > 0, "no failure was retried");
        assert!(armed.faults.crashes > 0, "MTTF 60 s never crashed");
        assert!(armed.faults.repairs <= armed.faults.crashes);

        let clean = run(FaultPlan::none());
        assert_eq!(clean.jobs_completed, 2_000);
        assert_eq!(clean.jobs_failed, 0);
        assert_eq!(clean.faults, FaultTotals::default());
    }

    #[test]
    fn observer_sees_every_job_in_completion_order() {
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 5.0, 60, JobFamily::Chain { len: 2 }, 5);
        let mut seen = Vec::new();
        let outcome = simulate_source_gated(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts::default(),
            &mut AdmitAll,
            |job| seen.push((job.job, job.finish())),
        )
        .unwrap();
        assert_eq!(seen.len(), 60);
        assert_eq!(outcome.jobs_completed, 60);
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
        // Each job's records were renumbered to local ids.
        assert_eq!(outcome.kernels_completed, 120);
        let _ = ProcId::new(0);
        let _ = NodeId::new(0);
    }

    #[test]
    fn overload_guard_marks_saturation_and_drains() {
        let (config, lookup) = paper();
        // Absurd rate into a 3-proc machine with long kernels: backlog
        // explodes; the guard must trip and the run still drain cleanly.
        let mut source = PoissonSource::new(lookup, 2_000.0, 500, JobFamily::Single, 23);
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts {
                snapshot_interval: None,
                max_in_flight_jobs: Some(32),
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert!(outcome.saturated);
        assert!(outcome.jobs_admitted < 500);
        assert_eq!(outcome.jobs_admitted, outcome.jobs_completed);
        assert!(outcome.peak_in_flight_jobs <= 33);
    }

    /// Regression + new-knob pin: the `max_in_flight_jobs` guard is a
    /// permanent latch by default (one burst past the cap ends admission
    /// for the rest of the stream), while `shed_when_full` sheds only the
    /// arrivals that land while the system is actually full and resumes
    /// admission once the backlog drains.
    #[test]
    fn overload_guard_latch_and_shed_modes_behave_as_documented() {
        let (config, lookup) = paper();
        let lookup_static: &'static LookupTable = lookup;
        let make_jobs = || {
            let mut rng = apt_dfg::SplitMix64::new(11);
            // 10 singles at t = 0 (two past the cap of 8), then one more an
            // hour later, long after the burst has drained.
            let mut jobs: Vec<(SimTime, crate::job::JobTemplate)> = (0..10)
                .map(|_| {
                    (
                        SimTime::ZERO,
                        JobFamily::Single.instantiate(&mut rng, lookup_static),
                    )
                })
                .collect();
            jobs.push((
                SimTime::from_ms(3_600_000),
                JobFamily::Single.instantiate(&mut rng, lookup_static),
            ));
            jobs
        };
        let run = |shed_when_full: bool| {
            let mut source = crate::source::TraceSource::new(make_jobs());
            simulate_source(
                &mut source,
                config,
                lookup,
                &mut FirstFit,
                &DriverOpts {
                    snapshot_interval: None,
                    max_in_flight_jobs: Some(8),
                    shed_when_full,
                    ..DriverOpts::default()
                },
            )
            .unwrap()
        };
        // Latch (default): the 9th arrival trips the guard, admission stops
        // permanently — even the hour-later job never enters.
        let latched = run(false);
        assert!(latched.saturated);
        assert_eq!(latched.jobs_admitted, 8);
        assert_eq!(latched.jobs_completed, 8);
        assert_eq!(latched.jobs_shed, 0, "the latch drops without counting");
        // Shed mode: only the two burst arrivals that found the system full
        // are shed; the hour-later job is admitted after the drain.
        let shedding = run(true);
        assert!(shedding.saturated, "the guard did fire");
        assert_eq!(shedding.jobs_shed, 2);
        assert_eq!(shedding.jobs_admitted, 9);
        assert_eq!(shedding.jobs_completed, 9);
        assert!(shedding.end >= SimTime::from_ms(3_600_000));
    }

    /// Regression: a stream completing entirely at t = 0 used to report
    /// ~1e308 jobs/s (`end.max(f64::MIN_POSITIVE)` as the denominator).
    /// Zero-duration runs now report zero throughput and utilization.
    #[test]
    fn zero_duration_runs_report_zero_throughput_and_utilization() {
        use apt_dfg::{Kernel, KernelKind};
        let config = SystemConfig::paper_4gbps();
        let mut table = LookupTable::from_rows([]);
        table.insert(apt_dfg::lookup::LookupRow {
            kind: KernelKind::Bfs,
            data_size: 10,
            times: [SimDuration::ZERO; 3],
        });
        let job = crate::job::JobTemplate::new(vec![Kernel::new(KernelKind::Bfs, 10)], Vec::new())
            .unwrap();
        let mut source = crate::source::TraceSource::new(vec![(SimTime::ZERO, job)]);
        let outcome = simulate_source(
            &mut source,
            &config,
            &table,
            &mut FirstFit,
            &DriverOpts::default(),
        )
        .unwrap();
        assert_eq!(outcome.jobs_completed, 1);
        assert_eq!(outcome.end, SimTime::ZERO);
        assert_eq!(outcome.throughput_jps, 0.0, "no 1e308 jobs/s");
        assert!(outcome.utilization().iter().all(|&u| u == 0.0));
    }

    #[test]
    fn drainable_burst_does_not_trip_the_overload_latch() {
        // A burst exactly at the cap, then a lone job an hour later: while
        // the burst drains, the pending far-future arrival must not latch
        // saturation — the system is idle again by the time it arrives.
        let (config, lookup) = paper();
        let lookup_static: &'static LookupTable = lookup;
        let mut rng = apt_dfg::SplitMix64::new(3);
        let mut jobs: Vec<(SimTime, crate::job::JobTemplate)> = (0..8)
            .map(|_| {
                (
                    SimTime::ZERO,
                    crate::job::JobFamily::Single.instantiate(&mut rng, lookup_static),
                )
            })
            .collect();
        jobs.push((
            SimTime::from_ms(3_600_000),
            crate::job::JobFamily::Single.instantiate(&mut rng, lookup_static),
        ));
        let mut source = crate::source::TraceSource::new(jobs);
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts {
                snapshot_interval: None,
                max_in_flight_jobs: Some(8),
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert!(!outcome.saturated, "drainable burst latched saturation");
        assert_eq!(outcome.jobs_completed, 9);
    }

    /// A disordered captured trace fails the run with a typed error (the
    /// offending pair named in nanoseconds), not a panic — and the jobs
    /// before the disorder are untouched by the failure path.
    #[test]
    fn disordered_trace_yields_typed_error_not_panic() {
        let (config, lookup) = paper();
        let mut rng = apt_dfg::SplitMix64::new(7);
        let jobs: Vec<(SimTime, crate::job::JobTemplate)> = [5u64, 9, 2]
            .iter()
            .map(|&ms| {
                (
                    SimTime::from_ms(ms),
                    JobFamily::Single.instantiate(&mut rng, lookup),
                )
            })
            .collect();
        let mut source = crate::source::TraceSource::new(jobs);
        let err = simulate_source(
            &mut source,
            config,
            lookup,
            &mut FirstFit,
            &DriverOpts::default(),
        )
        .unwrap_err();
        match err {
            BaseError::DisorderedArrival { at_ns, prev_ns } => {
                assert_eq!(at_ns, SimTime::from_ms(2).as_ns());
                assert_eq!(prev_ns, SimTime::from_ms(9).as_ns());
            }
            other => panic!("expected DisorderedArrival, got {other:?}"),
        }
    }

    #[test]
    fn gate_sheds_jobs_and_hears_completions() {
        use crate::deadline::DeadlineSpec;
        // A gate admitting every other offered job: shed accounting, the
        // JobId alignment contract, and completion callbacks all pin here.
        struct EveryOther {
            offered: u64,
            accepted: u64,
            completions: Vec<apt_hetsim::JobId>,
        }
        impl AdmissionGate for EveryOther {
            fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
                assert!(req.now <= req.arrival, "jobs admitted just-in-time");
                // The advertised contract: the request carries the id the
                // job gets if admitted — sheds don't consume ids.
                assert_eq!(req.job_id.0, self.accepted, "job_id out of step");
                self.offered += 1;
                let accept = self.offered % 2 == 1;
                if accept {
                    self.accepted += 1;
                }
                accept
            }
            fn on_complete(&mut self, job: &CompletedJob) {
                self.completions.push(job.job);
            }
        }
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 1.0, 40, JobFamily::Single, 11)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_ms(10_000)));
        let mut gate = EveryOther {
            offered: 0,
            accepted: 0,
            completions: Vec::new(),
        };
        let outcome = simulate_source_gated(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts::default(),
            &mut gate,
            |_| {},
        )
        .unwrap();
        assert_eq!(outcome.jobs_admitted, 20);
        assert_eq!(outcome.jobs_shed, 20);
        assert_eq!(outcome.jobs_completed, 20);
        assert!((outcome.shed_rate() - 0.5).abs() < 1e-9);
        // Engine JobIds are 0..20, exactly the ids the requests advertised.
        let mut seen: Vec<u64> = gate.completions.iter().map(|j| j.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
        // Every admitted job carried its (loose) deadline and met it.
        assert_eq!(outcome.deadline_jobs, 20);
        assert_eq!(outcome.deadline_misses, 0);
        assert_eq!(outcome.miss_rate(), 0.0);
        assert_eq!(outcome.tardiness_p99_ms, 0.0);
    }

    #[test]
    fn tight_deadlines_surface_as_misses_and_tardiness() {
        use crate::deadline::DeadlineSpec;
        let (config, lookup) = paper();
        // 1 µs relative deadlines: even the fastest table kernel (93 µs
        // Cholesky) is tardy.
        let mut source = PoissonSource::new(lookup, 0.2, 30, JobFamily::Single, 5)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_us(1)));
        let outcome = simulate_source(
            &mut source,
            config,
            lookup,
            &mut apt_policies::Met::new(),
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(60_000)),
                max_in_flight_jobs: None,
                ..DriverOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.deadline_jobs, 30);
        assert_eq!(outcome.deadline_misses, 30);
        assert_eq!(outcome.miss_rate(), 1.0);
        assert!(outcome.mean_tardiness_ms > 0.0);
        assert!(outcome.tardiness_p99_ms >= outcome.tardiness_p50_ms);
        // Snapshots carry the miss counts; the sum over windows equals the
        // run total.
        let windowed: u64 = outcome.snapshots.iter().map(|s| s.window_missed).sum();
        assert_eq!(windowed, outcome.snapshots.last().unwrap().total_missed);
        assert!(outcome.snapshots.last().unwrap().miss_rate() > 0.99);
    }

    /// Satellite pin: the driver flushes the final *partial* metrics
    /// window, so the tail of every run reaches window-driven consumers.
    /// A run ending exactly on a window boundary flushes nothing extra.
    #[test]
    fn final_partial_window_is_flushed_at_stream_end() {
        use apt_dfg::{Kernel, KernelKind};
        let config = SystemConfig::paper_no_transfers();
        let mut table = LookupTable::from_rows([]);
        table.insert(apt_dfg::lookup::LookupRow {
            kind: KernelKind::Bfs,
            data_size: 10,
            times: [SimDuration::from_ms(100); 3],
        });
        let run = |interval_ms: u64| {
            let job =
                crate::job::JobTemplate::new(vec![Kernel::new(KernelKind::Bfs, 10)], Vec::new())
                    .unwrap();
            let mut source = crate::source::TraceSource::new(vec![(SimTime::ZERO, job)]);
            simulate_source(
                &mut source,
                &config,
                &table,
                &mut FirstFit,
                &DriverOpts {
                    snapshot_interval: Some(SimDuration::from_ms(interval_ms)),
                    ..DriverOpts::default()
                },
            )
            .unwrap()
        };
        // The single 100 ms job ends the run mid-window under an 80 ms
        // interval: one whole window plus a flushed 20 ms tail.
        let mid = run(80);
        assert_eq!(mid.end, SimTime::from_ms(100));
        assert_eq!(mid.snapshots.len(), 2, "whole window + flushed tail");
        let tail = mid.snapshots.last().unwrap();
        assert_eq!(tail.end, SimTime::from_ms(100));
        assert_eq!(tail.interval, SimDuration::from_ms(20));
        assert_eq!(
            mid.snapshots.iter().map(|s| s.window_jobs).sum::<u64>(),
            mid.jobs_completed
        );
        assert_eq!(
            mid.snapshots.iter().map(|s| s.window_admitted).sum::<u64>(),
            mid.jobs_admitted
        );
        // Ending exactly on the boundary: one window, no zero-span tail.
        let exact = run(100);
        assert_eq!(exact.end, SimTime::from_ms(100));
        assert_eq!(exact.snapshots.len(), 1, "no empty tail on a boundary");
        assert_eq!(exact.snapshots[0].interval, SimDuration::from_ms(100));
        assert_eq!(exact.snapshots[0].window_jobs, 1);
    }

    /// The controlled driver delivers every closed window to the
    /// controller and applies/logs its actions — including actions the
    /// run has no knob for, which are logged unapplied.
    #[test]
    fn controlled_run_applies_and_logs_actions() {
        use apt_control::{ControlAction, Controller};
        /// Emits one action of each kind on the first window, then rests.
        struct OneShot {
            fired: bool,
            windows_seen: u32,
        }
        impl Controller for OneShot {
            fn name(&self) -> String {
                "one-shot".into()
            }
            fn on_window(&mut self, _s: &StreamSnapshot, out: &mut Vec<ControlAction>) {
                self.windows_seen += 1;
                if !self.fired {
                    self.fired = true;
                    out.push(ControlAction::SetAlpha(8.0));
                    out.push(ControlAction::SetAdmissionBound(0.5));
                    out.push(ControlAction::SwitchPolicy(1));
                }
            }
        }
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 0.2, 120, JobFamily::Diamond { width: 2 }, 17);
        let mut policy = apt_core::Apt::new(4.0);
        let mut ctrl = OneShot {
            fired: false,
            windows_seen: 0,
        };
        let outcome = simulate_source_controlled(
            &mut source,
            config,
            lookup,
            &mut policy,
            &DriverOpts {
                snapshot_interval: Some(SimDuration::from_ms(60_000)),
                ..DriverOpts::default()
            },
            &mut AdmitAll,
            &mut ctrl,
            |_| {},
        )
        .unwrap();
        assert_eq!(outcome.jobs_completed, 120);
        assert!(ctrl.windows_seen > 0, "the controller never saw a window");
        // The flushed tail window is not delivered: closed windows only.
        let tail_flushed =
            outcome.snapshots.last().unwrap().interval != SimDuration::from_ms(60_000);
        assert_eq!(
            ctrl.windows_seen as usize,
            outcome.snapshots.len() - usize::from(tail_flushed),
            "the controller must see exactly the closed windows"
        );
        assert_eq!(outcome.control_log.len(), 3);
        let log = &outcome.control_log;
        // α retunes on an APT policy; the other two knobs don't exist
        // here (AdmitAll, leaf policy) and are logged unapplied.
        assert_eq!(log[0].action, ControlAction::SetAlpha(8.0));
        assert!(log[0].applied);
        assert_eq!(log[1].action, ControlAction::SetAdmissionBound(0.5));
        assert!(!log[1].applied);
        assert_eq!(log[2].action, ControlAction::SwitchPolicy(1));
        assert!(!log[2].applied);
        assert!(log.iter().all(|e| e.at > SimTime::ZERO));
        // The α write actually landed on the policy.
        assert_eq!(Policy::alpha(&policy), Some(8.0));
    }

    /// Windows are the controller's clock: a controlled run without a
    /// snapshot interval is a typed error, not a silently inert loop. A
    /// zero interval is a typed error on every entry point, not a panic
    /// inside the metrics aggregator.
    #[test]
    fn controlled_run_requires_a_snapshot_interval() {
        use apt_control::InertController;
        // `armed` hands an inert controller to the entry points that take
        // an optional one; `simulate_source_controlled` always has one.
        type Entry = fn(&mut PoissonSource, &DriverOpts, bool) -> Result<(), BaseError>;
        let plain: Entry = |source, opts, _| {
            let (config, lookup) = paper();
            simulate_source(source, config, lookup, &mut apt_policies::Met::new(), opts).map(drop)
        };
        let gated: Entry = |source, opts, _| {
            let (config, lookup) = paper();
            let policy = &mut apt_policies::Met::new();
            simulate_source_gated(source, config, lookup, policy, opts, &mut AdmitAll, |_| {})
                .map(drop)
        };
        let controlled: Entry = |source, opts, _| {
            let (config, lookup) = paper();
            simulate_source_controlled(
                source,
                config,
                lookup,
                &mut apt_policies::Met::new(),
                opts,
                &mut AdmitAll,
                &mut InertController,
                |_| {},
            )
            .map(drop)
        };
        let traced: Entry = |source, opts, armed| {
            let (config, lookup) = paper();
            simulate_source_traced(
                source,
                config,
                lookup,
                &mut apt_policies::Met::new(),
                opts,
                &mut AdmitAll,
                armed.then_some(&mut InertController as &mut dyn Controller),
                Box::new(apt_trace::NullSink),
                |_| {},
            )
            .map(drop)
        };
        let telemetered: Entry = |source, opts, armed| {
            let (config, lookup) = paper();
            simulate_source_telemetered(
                source,
                config,
                lookup,
                &mut apt_policies::Met::new(),
                opts,
                &mut AdmitAll,
                armed.then_some(&mut InertController as &mut dyn Controller),
                None,
                &mut StreamTelemetry::new(),
                |_| {},
            )
            .map(drop)
        };
        let run = |entry: Entry, interval: Option<SimDuration>, armed: bool| {
            let mut source = PoissonSource::new(paper().1, 1.0, 3, JobFamily::Single, 1);
            let opts = DriverOpts {
                snapshot_interval: interval,
                ..DriverOpts::default()
            };
            entry(&mut source, &opts, armed).unwrap_err()
        };
        // Every entry point that takes a controller rejects a run without
        // metrics windows.
        for (name, entry) in [
            ("controlled", controlled),
            ("traced", traced),
            ("telemetered", telemetered),
        ] {
            let err = run(entry, None, true);
            assert!(matches!(err, BaseError::InvalidSystem { .. }), "{name}");
        }
        for (name, entry) in [
            ("plain", plain),
            ("gated", gated),
            ("controlled", controlled),
            ("traced", traced),
            ("telemetered", telemetered),
        ] {
            let err = run(entry, Some(SimDuration::ZERO), false);
            assert!(
                matches!(err, BaseError::InvalidConfig { .. }),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn starving_policy_reports_starvation() {
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 10.0, 3, JobFamily::Single, 1);
        let err = simulate_source(
            &mut source,
            config,
            lookup,
            &mut Lazy,
            &DriverOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BaseError::Starvation { .. }));
    }

    #[test]
    fn static_policies_are_rejected_by_the_driver() {
        struct FakeStatic;
        impl Policy for FakeStatic {
            fn name(&self) -> String {
                "FakeStatic".into()
            }
            fn kind(&self) -> PolicyKind {
                PolicyKind::Static
            }
            fn decide(&mut self, _v: &SimView<'_>, _o: &mut AssignmentBuf) {}
        }
        let (config, lookup) = paper();
        let mut source = PoissonSource::new(lookup, 10.0, 3, JobFamily::Single, 1);
        assert!(simulate_source(
            &mut source,
            config,
            lookup,
            &mut FakeStatic,
            &DriverOpts::default()
        )
        .is_err());
    }
}
