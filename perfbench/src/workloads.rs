//! The four workloads, each one rep at a time.
//!
//! A rep builds its inputs from the seed (the timed set-up), runs them
//! once (the root span), and checks what came out. Reps of one seed are
//! identical, so every rep of a run must report the same schedule digest
//! and simulated statistics. All simulated traffic is open-loop in
//! simulated time; nothing here paces against the host clock.

use crate::spans::{self, Spans, TimedController, TimedGate, TimedPolicy, TimedSink, TimedSource};
use apt_base::{BaseError, SimDuration};
use apt_control::{AimdAdmission, AimdConfig, Controller, ControllerStack};
use apt_core::{Apt, EdfApt, PAPER_ALPHAS, PAPER_BEST_ALPHA};
use apt_dfg::generator::{generate, DfgType, StreamConfig, EXPERIMENT_KERNEL_COUNTS};
use apt_dfg::{KernelDag, LookupTable, SplitMix64};
use apt_hetsim::{simulate, FaultPlan, NullSink, Policy, RetryPolicy, SystemConfig, TraceSink};
use apt_policies::BaselineFactory;
use apt_slo::UtilizationBound;
use apt_stream::{
    simulate_source_gated, simulate_source_telemetered, AdmissionGate, AdmitAll, CompletedJob,
    DeadlineSpec, DriverOpts, JobFamily, OnOffSource, PoissonSource, ReadyOrder, Source,
    StreamOutcome, StreamTelemetry,
};
use std::time::{Duration, Instant};

/// The seed whose stream digests are recorded in [`Workload::expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// `stream_single`: Poisson single-kernel jobs per rep, and their rate.
const SINGLE_JOBS: u64 = 200_000;
const SINGLE_RATE: f64 = 0.5;
/// `stream_dag`: Poisson Type-1 jobs of 46 kernels per rep, and their rate.
const DAG_JOBS: u64 = 4_000;
const DAG_RATE: f64 = 0.017;
const DAG_LEN: usize = 46;
/// `stream_armed`: on/off Diamond{2} jobs per rep and the burst shape.
const ARMED_JOBS: u64 = 200_000;
const ARMED_BURST_RATE: f64 = 0.6;
const ARMED_ON_MS: u64 = 20_000;
const ARMED_OFF_MS: u64 = 20_000;
const ARMED_WINDOW_MS: u64 = 60_000;
/// The in-flight cap that marks a bare stream unsustainable: a rep whose
/// backlog reaches it sets `saturated` and fails.
const SUSTAINABLE_IN_FLIGHT: usize = 1_000;
/// Arena slots a rep may end with; the arena tracks in-flight kernels,
/// never the stream length.
const ARENA_BOUND: usize = 8_192;
/// Salt that moves the fault stream off the arrival seed.
const FAULT_SEED_SALT: u64 = 0xFA17_BE9C;
/// The seed scheme of `apt_experiments::workloads`: experiment `idx` of a
/// family is seeded `base * 0x100 + idx`.
const TYPE1_SEED_BASE: u64 = 0x4150_5431;
const TYPE2_SEED_BASE: u64 = 0x4150_5432;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamSingle,
    StreamDag,
    ClosedGrid,
    StreamArmed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Build the inputs and drop them: a set-up time sample only.
    SetupOnly,
    /// The production path, no spans.
    Untraced,
    /// Every public trait behind a timing span.
    Traced,
}

/// Simulated outputs of one rep. They are exact-match fields: a change
/// that only makes the simulator faster leaves every one unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    pub jobs_shed: u64,
    pub kernels: u64,
    pub end_ns: u64,
    pub lambda_total_ns: u64,
    pub deadline_misses: u64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
}

impl SimStats {
    pub fn to_json(self) -> String {
        format!(
            "{{\"jobs_completed\": {}, \"jobs_failed\": {}, \"jobs_shed\": {}, \"kernels\": {}, \
             \"end_ns\": {}, \"lambda_total_ns\": {}, \"deadline_misses\": {}, \
             \"latency_p50_ms\": {}, \"latency_p99_ms\": {}}}",
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_shed,
            self.kernels,
            self.end_ns,
            self.lambda_total_ns,
            self.deadline_misses,
            self.latency_p50_ms,
            self.latency_p99_ms
        )
    }
}

/// What one rep measured and found.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup: Duration,
    /// Wall time of the root call(s): the whole simulated run.
    pub root: Duration,
    /// Offered jobs (admitted + shed); on `closed_grid`, simulations.
    pub jobs: u64,
    pub digest: u64,
    pub sim: SimStats,
    pub arena_slots: u64,
    pub peak_in_flight_jobs: u64,
    /// Every check the rep failed, in words.
    pub problems: Vec<String>,
    /// Span aggregates (traced reps only).
    pub spans: Spans,
}

/// FNV-1a over 64-bit words: the rolling schedule digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StreamSingle,
        Workload::StreamDag,
        Workload::ClosedGrid,
        Workload::StreamArmed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamSingle => "stream_single",
            Workload::StreamDag => "stream_dag",
            Workload::ClosedGrid => "closed_grid",
            Workload::StreamArmed => "stream_armed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The recorded schedule digest `seed` must reproduce, if any: the
    /// streams' at [`DEFAULT_SEED`], and the closed grid's at every seed,
    /// since only the order of its pass depends on the seed.
    pub fn expected_digest(self, seed: u64) -> Option<u64> {
        let stream = |digest| (seed == DEFAULT_SEED).then_some(digest);
        match self {
            Workload::StreamSingle => stream(0xfc63_e899_bf50_4f4f),
            Workload::StreamDag => stream(0x9925_2e31_e0f9_ee46),
            Workload::ClosedGrid => Some(0x99bd_9466_8950_63e5),
            Workload::StreamArmed => stream(0x746c_aa7d_de16_1387),
        }
    }

    pub fn rep(self, seed: u64, mode: Mode) -> Rep {
        match self {
            Workload::StreamSingle => {
                bare_stream(seed, mode, SINGLE_JOBS, SINGLE_RATE, JobFamily::Single)
            }
            Workload::StreamDag => bare_stream(
                seed,
                mode,
                DAG_JOBS,
                DAG_RATE,
                JobFamily::Type1 { len: DAG_LEN },
            ),
            Workload::ClosedGrid => closed_grid(seed, mode),
            Workload::StreamArmed => armed_stream(seed, mode),
        }
    }
}

/// A private copy of the paper's lookup table, rebuilt row by row, so
/// that building it is part of every set-up rather than a one-time cache.
fn fresh_lookup() -> LookupTable {
    LookupTable::from_rows(LookupTable::paper().rows().iter().cloned())
}

/// The layers of one stream run, ready to drive.
struct StreamRun<'a> {
    source: &'a mut dyn Source,
    policy: &'a mut dyn Policy,
    gate: &'a mut dyn AdmissionGate,
    /// The armed riders: controller, trace sink and telemetry.
    armed: Option<(&'a mut dyn Controller, &'a mut StreamTelemetry)>,
}

impl StreamRun<'_> {
    /// One call of the driver, through whichever entry point the layers
    /// need. `sink` is only handed over on armed runs.
    fn drive(
        self,
        system: &SystemConfig,
        lookup: &LookupTable,
        opts: &DriverOpts,
        sink: Box<dyn TraceSink>,
        observe: impl FnMut(&CompletedJob),
    ) -> Result<StreamOutcome, BaseError> {
        match self.armed {
            None => simulate_source_gated(
                self.source,
                system,
                lookup,
                self.policy,
                opts,
                self.gate,
                observe,
            ),
            Some((controller, tel)) => simulate_source_telemetered(
                self.source,
                system,
                lookup,
                self.policy,
                opts,
                self.gate,
                Some(controller),
                Some(sink),
                tel,
                observe,
            )
            .map(|(outcome, _)| outcome),
        }
    }

    /// Run once, untraced or traced, and check the outcome.
    fn run(
        self,
        system: &SystemConfig,
        lookup: &LookupTable,
        opts: &DriverOpts,
        offered: u64,
        traced: bool,
        rep: &mut Rep,
    ) -> Option<StreamOutcome> {
        let mut digest = Digest::new();
        let mut retired = 0u64;
        let observe = |job: &CompletedJob| {
            retired += 1;
            digest.mix(job.job.0);
            for r in &job.records {
                digest.mix(r.proc.index() as u64);
                digest.mix(r.start.as_ns());
                digest.mix(r.finish.as_ns());
            }
        };
        let result = if traced {
            spans::reset();
            let mut source = TimedSource(self.source);
            let mut policy = TimedPolicy(self.policy);
            let mut gate = TimedGate(self.gate);
            let (mut controller, tel) = match self.armed {
                Some((c, t)) => (Some(TimedController(c)), Some(t)),
                None => (None, None),
            };
            let run = StreamRun {
                source: &mut source,
                policy: &mut policy,
                gate: &mut gate,
                armed: controller
                    .as_mut()
                    .zip(tel)
                    .map(|(c, t)| (c as &mut dyn Controller, t)),
            };
            let sink = Box::new(TimedSink(Box::new(NullSink)));
            let t = Instant::now();
            let r = run.drive(system, lookup, opts, sink, spans::observed(observe));
            rep.root = t.elapsed();
            rep.spans = spans::take();
            r
        } else {
            let t = Instant::now();
            let r = self.drive(system, lookup, opts, Box::new(NullSink), observe);
            rep.root = t.elapsed();
            r
        };
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                rep.problems.push(format!("driver error: {e}"));
                return None;
            }
        };
        rep.digest = digest.0;
        rep.jobs = outcome.jobs_admitted + outcome.jobs_shed;
        rep.arena_slots = outcome.arena_slots as u64;
        rep.peak_in_flight_jobs = outcome.peak_in_flight_jobs as u64;
        rep.sim = SimStats {
            jobs_completed: outcome.jobs_completed,
            jobs_failed: outcome.jobs_failed,
            jobs_shed: outcome.jobs_shed,
            kernels: outcome.kernels_completed,
            end_ns: outcome.end.as_ns(),
            lambda_total_ns: outcome.lambda_total.as_ns(),
            deadline_misses: outcome.deadline_misses,
            latency_p50_ms: outcome.latency_p50_ms,
            latency_p99_ms: outcome.latency_p99_ms,
        };
        if rep.jobs != offered {
            rep.problems.push(format!(
                "conservation: offered {offered} != admitted {} + shed {}",
                outcome.jobs_admitted, outcome.jobs_shed
            ));
        }
        if outcome.jobs_admitted != outcome.jobs_completed + outcome.jobs_failed {
            rep.problems.push(format!(
                "conservation: admitted {} != completed {} + failed {}",
                outcome.jobs_admitted, outcome.jobs_completed, outcome.jobs_failed
            ));
        }
        if retired != outcome.jobs_admitted {
            rep.problems.push(format!(
                "observer saw {retired} retirements for {} admitted jobs",
                outcome.jobs_admitted
            ));
        }
        if outcome.arena_slots > ARENA_BOUND {
            rep.problems.push(format!(
                "arena grew to {} slots (bound {ARENA_BOUND})",
                outcome.arena_slots
            ));
        }
        Some(outcome)
    }
}

/// `stream_single` and `stream_dag`: Poisson arrivals under APT(α=4) on
/// the bare driver path (the open gate, no riders).
fn bare_stream(seed: u64, mode: Mode, jobs: u64, rate: f64, family: JobFamily) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let lookup = fresh_lookup();
    let system = SystemConfig::paper_4gbps();
    let mut policy = Apt::new(PAPER_BEST_ALPHA);
    let mut source = PoissonSource::new(&lookup, rate, jobs, family, seed);
    let opts = DriverOpts {
        max_in_flight_jobs: Some(SUSTAINABLE_IN_FLIGHT),
        shed_when_full: true,
        ..DriverOpts::default()
    };
    rep.setup = t.elapsed();
    if mode == Mode::SetupOnly {
        return rep;
    }
    let run = StreamRun {
        source: &mut source,
        policy: &mut policy,
        gate: &mut AdmitAll,
        armed: None,
    };
    if let Some(outcome) = run.run(
        &system,
        &lookup,
        &opts,
        jobs,
        mode == Mode::Traced,
        &mut rep,
    ) {
        if outcome.saturated {
            rep.problems.push(format!(
                "unsustainable: {SUSTAINABLE_IN_FLIGHT} jobs in flight at {rate} jobs/s"
            ));
        }
    }
    rep
}

/// `stream_armed`: bursty deadline-tagged Diamond{2} jobs under EDF-APT
/// with EDF ready order, a utilization-bound gate, an AIMD controller,
/// transient and crash/repair faults with retry, telemetry and a null
/// trace sink.
fn armed_stream(seed: u64, mode: Mode) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let lookup = fresh_lookup();
    let system = SystemConfig::paper_4gbps();
    let mut policy = EdfApt::new(PAPER_BEST_ALPHA);
    let mut source = OnOffSource::new(
        &lookup,
        ARMED_BURST_RATE,
        SimDuration::from_ms(ARMED_ON_MS),
        SimDuration::from_ms(ARMED_OFF_MS),
        ARMED_JOBS,
        JobFamily::Diamond { width: 2 },
        seed,
    )
    .with_deadlines(DeadlineSpec::ProportionalCp { factor: 4.0 });
    let mut gate = UtilizationBound::new(&lookup, &system, 1.0);
    let mut controller = ControllerStack::new(vec![Box::new(AimdAdmission::new(
        1.0,
        AimdConfig::default(),
    ))]);
    let mut tel = StreamTelemetry::new();
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(ARMED_WINDOW_MS)),
        ready_order: ReadyOrder::EarliestDeadline,
        faults: FaultPlan::seeded(seed ^ FAULT_SEED_SALT)
            .with_transient(0.03)
            .with_crashes(
                SimDuration::from_ms(3_600_000),
                SimDuration::from_ms(60_000),
            ),
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..DriverOpts::default()
    };
    rep.setup = t.elapsed();
    if mode == Mode::SetupOnly {
        return rep;
    }
    let run = StreamRun {
        source: &mut source,
        policy: &mut policy,
        gate: &mut gate,
        armed: Some((&mut controller, &mut tel)),
    };
    run.run(
        &system,
        &lookup,
        &opts,
        ARMED_JOBS,
        mode == Mode::Traced,
        &mut rep,
    );
    rep
}

/// The paper's experiment graph `idx` of a family.
fn experiment_graph(ty: DfgType, idx: usize, lookup: &LookupTable) -> KernelDag {
    let base = match ty {
        DfgType::Type1 => TYPE1_SEED_BASE,
        DfgType::Type2 => TYPE2_SEED_BASE,
    };
    let seed = base.wrapping_mul(0x100).wrapping_add(idx as u64);
    generate(
        ty,
        &StreamConfig::new(EXPERIMENT_KERNEL_COUNTS[idx], seed),
        lookup,
    )
}

/// Policy `i` of a grid cell: the six baselines, then APT at each paper α.
fn grid_policy(baselines: &[BaselineFactory], i: usize) -> Box<dyn Policy> {
    match baselines.get(i) {
        Some((_, make)) => make(),
        None => Box::new(Apt::new(PAPER_ALPHAS[i - baselines.len()])),
    }
}

/// `closed_grid`: one pass over both DFG families × the ten experiment
/// graphs × both link rates × the eleven policies. The grid is the
/// paper's, so the seed only shuffles the order of the pass.
fn closed_grid(seed: u64, mode: Mode) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let lookup = fresh_lookup();
    let graphs: Vec<KernelDag> = DfgType::ALL
        .into_iter()
        .flat_map(|ty| (0..EXPERIMENT_KERNEL_COUNTS.len()).map(move |idx| (ty, idx)))
        .map(|(ty, idx)| experiment_graph(ty, idx, &lookup))
        .collect();
    let systems = [SystemConfig::paper_4gbps(), SystemConfig::paper_8gbps()];
    let baselines = apt_policies::baseline_factories();
    let policies = baselines.len() + PAPER_ALPHAS.len();
    let mut order: Vec<(usize, usize, usize)> = (0..graphs.len())
        .flat_map(|g| (0..systems.len()).flat_map(move |s| (0..policies).map(move |p| (g, s, p))))
        .collect();
    let mut canonical: Vec<usize> = (0..order.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
        canonical.swap(i, j);
    }
    rep.setup = t.elapsed();
    if mode == Mode::SetupOnly {
        return rep;
    }
    let traced = mode == Mode::Traced;
    // Results land in canonical cell order, so the digest and the
    // statistics do not depend on the seed's shuffle.
    let mut cells = vec![(0u64, 0u64); order.len()];
    let mut sim = SimStats::default();
    if traced {
        spans::reset();
    }
    let t = Instant::now();
    for (&(g, s, p), cell) in order.iter().zip(&canonical) {
        let (dfg, system) = (&graphs[g], &systems[s]);
        let mut policy = grid_policy(&baselines, p);
        let result = if traced {
            simulate(dfg, system, &lookup, &mut TimedPolicy(policy.as_mut()))
        } else {
            simulate(dfg, system, &lookup, policy.as_mut())
        };
        match result {
            Ok(res) => {
                cells[*cell] = (res.makespan().as_ns(), res.lambda_total().as_ns());
                sim.jobs_completed += 1;
                sim.kernels += res.trace.records.len() as u64;
                if res.trace.records.len() != dfg.len() {
                    rep.problems.push(format!(
                        "{} scheduled {} of {} kernels",
                        res.policy,
                        res.trace.records.len(),
                        dfg.len()
                    ));
                }
            }
            Err(e) => rep.problems.push(format!("simulate failed: {e}")),
        }
    }
    rep.root = t.elapsed();
    if traced {
        rep.spans = spans::take();
    }
    let mut digest = Digest::new();
    for &(makespan, lambda) in &cells {
        digest.mix(makespan);
        digest.mix(lambda);
        sim.end_ns += makespan;
        sim.lambda_total_ns += lambda;
    }
    let mut makespans_ms: Vec<f64> = cells.iter().map(|&(m, _)| m as f64 / 1e6).collect();
    makespans_ms.sort_by(f64::total_cmp);
    sim.latency_p50_ms = nearest_rank(&makespans_ms, 0.50);
    sim.latency_p99_ms = nearest_rank(&makespans_ms, 0.99);
    rep.jobs = sim.jobs_completed;
    rep.digest = digest.0;
    rep.sim = sim;
    rep
}

/// Nearest-rank quantile of sorted values (0 when empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
