//! The telemetry contract of the streaming driver.
//!
//! Telemetry must be *purely observational*: a run under an armed
//! [`StreamTelemetry`] produces a [`StreamOutcome`] identical to the bare
//! run, while the registry's counters, gauges, histograms and JSONL
//! snapshot stream account for exactly the run the outcome describes.

use apt_base::SimDuration;
use apt_control::{ControlAction, Controller};
use apt_core::Apt;
use apt_dfg::LookupTable;
use apt_hetsim::{FaultPlan, SystemConfig};
use apt_metrics::StreamSnapshot;
use apt_stream::{
    simulate_source_telemetered, AdmitAll, DeadlineSpec, DriverOpts, JobFamily, PoissonSource,
    StreamOutcome, StreamTelemetry,
};
use apt_telemetry::{validate, validate_jsonl};
use apt_trace::{RingSink, TraceSink};

/// Emits one action of each driver-visible kind on the first window.
struct OneShot {
    fired: bool,
}

impl Controller for OneShot {
    fn name(&self) -> String {
        "one-shot".into()
    }
    fn on_window(&mut self, _s: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        if !self.fired {
            self.fired = true;
            out.push(ControlAction::SetAlpha(6.0));
            out.push(ControlAction::SetAdmissionBound(0.9));
        }
    }
}

/// The same controlled, capacity-gated, faulty, deadline-carrying stream
/// the traced-equivalence test runs — every driver emission path live.
fn run(
    tel: Option<&mut StreamTelemetry>,
    sink: Option<Box<dyn TraceSink>>,
) -> (StreamOutcome, Option<Box<dyn TraceSink>>) {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 2.0, 150, JobFamily::Chain { len: 2 }, 9)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_ms(800)));
    let mut policy = Apt::new(8.0);
    let mut ctrl = OneShot { fired: false };
    let opts = DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(10_000)),
        max_in_flight_jobs: Some(6),
        shed_when_full: true,
        faults: FaultPlan::seeded(5).with_transient(0.05),
        ..DriverOpts::default()
    };
    match tel {
        Some(tel) => simulate_source_telemetered(
            &mut source,
            &config,
            lookup,
            &mut policy,
            &opts,
            &mut AdmitAll,
            Some(&mut ctrl),
            sink,
            tel,
            |_| {},
        )
        .unwrap(),
        None => {
            let outcome = apt_stream::simulate_source_controlled(
                &mut source,
                &config,
                lookup,
                &mut policy,
                &opts,
                &mut AdmitAll,
                &mut ctrl,
                |_| {},
            )
            .unwrap();
            (outcome, None)
        }
    }
}

fn assert_outcomes_equal(a: &StreamOutcome, b: &StreamOutcome) {
    assert_eq!(a.jobs_admitted, b.jobs_admitted);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert_eq!(a.jobs_failed, b.jobs_failed);
    assert_eq!(a.jobs_shed, b.jobs_shed);
    assert_eq!(a.kernels_completed, b.kernels_completed);
    assert_eq!(a.end, b.end);
    assert_eq!(a.lambda_total, b.lambda_total);
    assert_eq!(a.proc_stats, b.proc_stats);
    assert_eq!(a.snapshots, b.snapshots);
    assert_eq!(a.deadline_misses, b.deadline_misses);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.control_log.len(), b.control_log.len());
    for (x, y) in a.control_log.iter().zip(&b.control_log) {
        assert_eq!(x.at, y.at);
        assert_eq!(x.action, y.action);
        assert_eq!(x.applied, y.applied);
    }
}

/// An armed registry changes nothing, and its counters reconcile exactly
/// with the outcome the run reports.
#[test]
fn telemetered_run_is_identical_and_fully_accounted() {
    let (bare, _) = run(None, None);
    let mut tel = StreamTelemetry::new();
    let (metered, _) = run(Some(&mut tel), None);
    assert_outcomes_equal(&bare, &metered);

    let reg = tel.registry();
    let counter = |name: &str| {
        reg.counter_named(name, &[])
            .unwrap_or_else(|| panic!("{name}"))
    };
    assert_eq!(counter("jobs_admitted_total"), metered.jobs_admitted);
    assert_eq!(counter("jobs_completed_total"), metered.jobs_completed);
    assert_eq!(counter("jobs_failed_total"), metered.jobs_failed);
    assert_eq!(counter("jobs_shed_total"), metered.jobs_shed);
    assert_eq!(
        counter("kernels_completed_total"),
        metered.kernels_completed
    );
    assert_eq!(counter("deadline_misses_total"), metered.deadline_misses);
    assert!(metered.jobs_shed > 0, "the capacity guard never shed");
    assert!(metered.deadline_misses > 0, "no misses under saturation");

    // One estimator everywhere: the registry's histograms hold one sample
    // per successful (deadline-carrying) job, and their quantiles are
    // exactly the outcome's.
    let lat = reg.histogram_named("job_latency_ms", &[]).unwrap();
    assert_eq!(lat.count(), metered.jobs_completed);
    for (q, outcome) in [
        (0.5, metered.latency_p50_ms),
        (0.9, metered.latency_p90_ms),
        (0.99, metered.latency_p99_ms),
    ] {
        assert_eq!(lat.quantile(q), Some(outcome), "latency q={q}");
    }
    let tardy = reg.histogram_named("job_tardiness_ms", &[]).unwrap();
    assert_eq!(tardy.count(), metered.deadline_jobs);
    for (q, outcome) in [
        (0.5, metered.tardiness_p50_ms),
        (0.99, metered.tardiness_p99_ms),
    ] {
        assert_eq!(tardy.quantile(q), Some(outcome), "tardiness q={q}");
    }

    // End-of-run gauges track the drained system.
    assert_eq!(reg.gauge_named("in_flight_jobs", &[]).unwrap(), 0.0);
    assert!(reg.gauge_named("sim_time_seconds", &[]).unwrap() > 0.0);

    // The exposition is valid Prometheus and the JSONL stream carries one
    // schema-complete line per snapshot (closed windows plus the tail).
    validate(&tel.prometheus()).expect("registry renders invalid Prometheus");
    let lines = validate_jsonl(
        tel.jsonl(),
        &[
            "end_s",
            "total_jobs",
            "throughput_jps",
            "window_miss_rate",
            "alpha",
        ],
    )
    .expect("invalid JSONL snapshot stream");
    assert_eq!(lines as usize, metered.snapshots.len());
    // The last JSONL line and the last snapshot report the same p99, and
    // every snapshot's quantiles are ordered.
    let last = metered.snapshots.last().expect("windows closed");
    let last_line = tel.jsonl().lines().last().expect("one line per window");
    let jsonl_p99: f64 = last_line
        .split("\"latency_p99_ms\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no latency_p99_ms in {last_line}"));
    assert_eq!(jsonl_p99, last.latency_p99_ms);
    for s in &metered.snapshots {
        assert!(s.latency_p50_ms <= s.latency_p90_ms && s.latency_p90_ms <= s.latency_p99_ms);
    }
}

/// A bounded ring sink riding along surfaces its retained + dropped
/// totals through the registry (satellite: trace back-pressure is
/// observable without touching the sink).
#[test]
fn trace_sink_totals_surface_in_registry() {
    let (bare, _) = run(None, None);
    let mut tel = StreamTelemetry::new();
    let (metered, sink) = run(Some(&mut tel), Some(Box::new(RingSink::new(64))));
    assert_outcomes_equal(&bare, &metered);

    let sink = sink.expect("the driver hands the sink back");
    assert!(sink.dropped() > 0, "a 64-slot ring must drop on this run");
    let reg = tel.registry();
    assert_eq!(
        reg.counter_named("trace_events_total", &[]).unwrap(),
        sink.recorded()
    );
    assert_eq!(
        reg.counter_named("trace_events_dropped_total", &[])
            .unwrap(),
        sink.dropped()
    );
}

/// Without the `self-profile` feature the profile request is inert; with
/// it, the report's phase wall-clock covers ≥ 90% of the engine total.
#[test]
fn phase_report_presence_matches_feature() {
    let mut tel = StreamTelemetry::new().with_engine_profile();
    let (_outcome, _) = run(Some(&mut tel), None);
    #[cfg(feature = "self-profile")]
    {
        let report = tel
            .phase_report()
            .expect("profiling compiled in + requested");
        assert!(
            report.coverage() >= 0.90,
            "phase sum covers only {:.1}% of engine wall-clock",
            100.0 * report.coverage()
        );
        assert!(report.decide_calls > 0);
        assert!(report.assignments > 0);
        let expo = tel.prometheus();
        validate(&expo).expect("report mirror broke the exposition");
        assert!(expo.contains("engine_phase_ns_total{phase=\"decide\"}"));
        assert!(
            expo.contains("policy_decide_calls_total{policy="),
            "decision counters missing from the registry mirror"
        );
    }
    #[cfg(not(feature = "self-profile"))]
    assert!(tel.phase_report().is_none());
}

/// FNV-1a, 64-bit: a fingerprint of a whole JSONL text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The JSONL of [`run`]'s telemetered stream, pinned byte for byte: the
/// first lines verbatim, and the whole text by length and fingerprint. Covers integers, fractions, whole-valued
/// floats, a retuned α and an absent ρ (`null`).
const GOLDEN_HEAD: [&str; 3] = [
    "{\"end_s\":10,\"window_jobs\":6,\"total_jobs\":6,\"throughput_jps\":0.6,\"latency_p50_ms\":1326.354762793802,\"latency_p90_ms\":6064.699952926325,\"latency_p99_ms\":6064.699952926325,\"depth_now\":6,\"in_flight\":6,\"queue_depth\":12,\"window_miss_rate\":0.8333333333333334,\"miss_rate\":0.8333333333333334,\"availability\":1,\"window_admitted\":12,\"window_shed\":13,\"alpha\":8,\"rho\":null}\n",
    "{\"end_s\":20,\"window_jobs\":8,\"total_jobs\":14,\"throughput_jps\":0.8,\"latency_p50_ms\":3072.410403480659,\"latency_p90_ms\":7865.560007532313,\"latency_p99_ms\":9416.841515964064,\"depth_now\":5,\"in_flight\":5,\"queue_depth\":10,\"window_miss_rate\":0.875,\"miss_rate\":0.8571428571428571,\"availability\":1,\"window_admitted\":7,\"window_shed\":6,\"alpha\":6,\"rho\":null}\n",
    "{\"end_s\":30,\"window_jobs\":7,\"total_jobs\":21,\"throughput_jps\":0.7,\"latency_p50_ms\":6187.219143894534,\"latency_p90_ms\":9416.841515964064,\"latency_p99_ms\":23162.38759283583,\"depth_now\":5,\"in_flight\":5,\"queue_depth\":10,\"window_miss_rate\":1,\"miss_rate\":0.9047619047619048,\"availability\":1,\"window_admitted\":7,\"window_shed\":13,\"alpha\":6,\"rho\":null}\n",
];
const GOLDEN_LINES: usize = 10;
const GOLDEN_BYTES: usize = 3514;
const GOLDEN_FNV: u64 = 0xbea5_01bd_b605_8c95;

#[test]
fn jsonl_matches_the_golden_text() {
    let mut tel = StreamTelemetry::new();
    run(Some(&mut tel), None);
    let text = tel.jsonl();
    assert!(text.starts_with(&GOLDEN_HEAD.concat()), "{text}");
    assert_eq!(text.lines().count(), GOLDEN_LINES);
    assert_eq!(text.len(), GOLDEN_BYTES);
    assert_eq!(fnv1a(text), GOLDEN_FNV);
}

/// One telemetry reused for two runs renders both runs' windows, whether
/// or not the first run's lines were read in between.
#[test]
fn reused_telemetry_renders_every_runs_lines() {
    let mut once = StreamTelemetry::new();
    run(Some(&mut once), None);
    let one = once.jsonl().to_string();

    let mut read_between = StreamTelemetry::new();
    run(Some(&mut read_between), None);
    assert_eq!(read_between.jsonl(), one);
    run(Some(&mut read_between), None);
    let both = format!("{one}{one}");
    assert_eq!(read_between.jsonl(), both);
    assert_eq!(read_between.jsonl().lines().count(), 2 * GOLDEN_LINES);

    let mut unread = StreamTelemetry::new();
    run(Some(&mut unread), None);
    run(Some(&mut unread), None);
    assert_eq!(unread.jsonl(), both);
}
