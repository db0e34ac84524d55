//! `apt-repro <scenario> --metrics <path>` — live telemetry exposition of
//! one representative open-stream cell.
//!
//! Runs the same representative cell as [`crate::traced`] (one
//! [`crate::traced::TraceCell`] per open-stream artifact — the `--metrics`
//! registry observes the very cell the `--trace` timeline draws) under an armed
//! [`apt_stream::StreamTelemetry`] with engine self-profiling requested,
//! and renders three artifacts:
//!
//! * Prometheus text exposition of the final registry state, re-checked
//!   by [`apt_telemetry::validate`] before it leaves this module;
//! * the JSONL snapshot stream (one flat object per closed metrics
//!   window), re-checked by [`apt_telemetry::validate_jsonl`];
//! * the engine's phase-breakdown report — where the run's wall-clock
//!   went (decide / apply / calendar / handle / retire / admit / account
//!   / window), with the ≥90% coverage contract asserted here.
//!
//! With `--progress`, the run additionally ticks the throttled stderr
//! heartbeat (jobs/s, in-flight, miss rate, live α/ρ, ETA) — the soak-run
//! operator surface the CI smoke step exercises.

use crate::traced::{CellRun, TraceCell, TRACE_JOBS};
use apt_core::prelude::*;
use apt_stream::StreamTelemetry;
use apt_telemetry::{validate, validate_jsonl};

/// Keys every JSONL snapshot line must carry (the schema the CI soak
/// smoke step checks).
pub const JSONL_REQUIRED_KEYS: [&str; 8] = [
    "end_s",
    "window_jobs",
    "total_jobs",
    "throughput_jps",
    "window_miss_rate",
    "miss_rate",
    "alpha",
    "rho",
];

/// A rendered telemetered run: the two expositions plus the profiling
/// verdict.
#[derive(Debug, Clone)]
pub struct MetricsExport {
    /// Prometheus text exposition (validated).
    pub prometheus: String,
    /// JSONL snapshot stream, one line per metrics window (validated).
    pub jsonl: String,
    /// The rendered phase-breakdown table printed under the artifact.
    pub report: String,
    /// Fraction of engine wall-clock the phases account for (≥ 0.90).
    pub coverage: f64,
    /// Samples in the Prometheus exposition.
    pub samples: usize,
    /// Lines in the JSONL stream.
    pub lines: usize,
}

/// Run an artifact's representative cell (see
/// [`crate::ArtifactSpec::trace_cell`]) under an armed telemetry registry
/// (heartbeat on when `progress`) and render the expositions.
///
/// # Panics
///
/// Panics when the run's own telemetry violates its contracts — invalid
/// Prometheus, schema-incomplete JSONL, or phase coverage below 90% —
/// since a soak run with broken observability must fail loudly, not
/// quietly emit garbage dashboards.
pub fn artifact_metrics(cell: &TraceCell, progress: bool) -> MetricsExport {
    let mut run = CellRun::new(cell);
    let mut tel = StreamTelemetry::new().with_engine_profile();
    if progress {
        tel = tel.with_progress(Some(TRACE_JOBS));
    }
    let (outcome, _sink) = apt_stream::simulate_source_telemetered(
        run.source.as_mut(),
        &run.config,
        LookupTable::paper(),
        &mut run.policy,
        &run.opts,
        &mut run.gate,
        Some(&mut run.stack),
        None,
        &mut tel,
        |_| {},
    )
    .expect("representative telemetered run failed");

    let prometheus = tel.prometheus();
    let samples = validate(&prometheus).expect("registry rendered invalid Prometheus");
    let lines = validate_jsonl(tel.jsonl(), &JSONL_REQUIRED_KEYS)
        .expect("telemetry emitted a schema-incomplete JSONL stream");
    assert_eq!(
        lines as usize,
        outcome.snapshots.len(),
        "one JSONL line per metrics window"
    );
    let report = tel
        .phase_report()
        .expect("self-profile is a hard dependency of apt-experiments");
    assert!(
        report.coverage() >= 0.90,
        "phase accounting covers only {:.1}% of engine wall-clock",
        100.0 * report.coverage()
    );

    MetricsExport {
        coverage: report.coverage(),
        report: report.render(),
        samples,
        lines: lines as usize,
        jsonl: tel.jsonl().to_string(),
        prometheus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contract of `apt-repro stream-saturation
    /// --progress --metrics`: valid Prometheus exposition, one
    /// schema-complete JSONL line per window, and a phase report whose
    /// wall-clock sum covers ≥ 90% of the engine total (the inner
    /// asserts of `artifact_metrics` carry the validation; this pins the
    /// content).
    #[test]
    fn stream_saturation_metrics_meet_the_acceptance_contract() {
        let spec = crate::artifact("stream-saturation").unwrap();
        let export = artifact_metrics(spec.trace_cell().unwrap(), false);
        assert!(export.coverage >= 0.90);
        assert!(export.samples > 0);
        assert!(export.lines > 0);
        for metric in [
            "jobs_admitted_total",
            "jobs_completed_total",
            "jobs_shed_total",
            "deadline_misses_total",
            "job_latency_ms_bucket",
            "engine_phase_ns_total{phase=\"decide\"}",
            "policy_decide_calls_total{policy=",
            "alpha",
            "rho",
        ] {
            assert!(
                export.prometheus.contains(metric),
                "exposition lost `{metric}`"
            );
        }
        for phase in ["decide", "admit", "account", "window"] {
            assert!(export.report.contains(phase), "report lost `{phase}`");
        }
        // The saturating cell sheds and misses — the counters must show it.
        let value = |name: &str| -> u64 {
            export
                .prometheus
                .lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample for {name}"))
        };
        assert!(value("jobs_shed_total") > 0, "saturation cell never shed");
        assert!(value("jobs_admitted_total") > 0);
    }

    #[test]
    fn capability_check_matches_the_resolver() {
        // The telemetered form observes the traced form's cell.
        let has_metrics = |id| crate::artifact(id).unwrap().trace_cell().is_some();
        assert!(has_metrics("stream-saturation"));
        assert!(has_metrics("control-sweep"));
        assert!(!has_metrics("table7"));
        assert!(crate::artifact("nope").is_none());
    }
}
