//! `apt-repro <scenario> --trace <path>` — Chrome/Perfetto timeline export
//! plus the `trace-summary` λ-delay report.
//!
//! The sweep artifacts aggregate thousands of jobs into one table row; the
//! timeline answers the opposite question — *what did the machine do,
//! instant by instant?* For every open-stream scenario id this module runs
//! one **representative cell**: a deadline-tagged stream shaped like the
//! sweep's own traffic, scheduled by `EDF-APT(α = 4)` behind a
//! [`UtilizationBound`] gate, with the `apt-control` stack closing the
//! loop on the metrics windows — so the export carries processor span
//! tracks, APT alt-decision provenance, control-action instants, and live
//! α/ρ counter tracks all at once. The recorded stream is then rendered
//! two ways:
//!
//! * [`apt_trace::chrome::chrome_trace`] — the JSON document `--trace`
//!   writes (loadable in `chrome://tracing` / Perfetto as-is), field
//!   contract re-checked by [`apt_trace::chrome::validate`] before it
//!   leaves this module;
//! * [`apt_trace::summary::render_summary`] — the top-λ kernel table
//!   (§2.5.1 decomposition: dependency- / scheduler- / processor-wait)
//!   printed under the artifact.

use crate::control::{control_stack, CONTROL_WINDOW};
use crate::streaming::Traffic;
use apt_control::ControllerStack;
use apt_core::prelude::*;
use apt_slo::UtilizationBound;
use apt_stream::{DeadlineSpec, DriverOpts, Source};
use apt_trace::chrome::{chrome_trace, validate, ChromeConfig, ChromeStats};
use apt_trace::summary::render_summary;
use apt_trace::VecSink;
use std::fmt::Write as _;

/// Jobs in a representative traced run — enough load for the gate, the
/// controller, and APT's alternative path to all fire, small enough that
/// the export stays a few hundred kB.
pub const TRACE_JOBS: u64 = 300;

/// Seed of every traced run's arrival/deadline stream.
pub const TRACE_SEED: u64 = 0x0007_ACED;

/// Rows of the λ-delay table in the printed summary.
pub const TRACE_TOP_N: usize = 10;

/// A rendered traced run: the Chrome JSON document, the printable
/// summary, and what the validator measured about the export.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// Chrome trace-event JSON (`{"traceEvents": [...]}`), validated.
    pub chrome: String,
    /// The `trace-summary` report printed under the artifact.
    pub summary: String,
    /// Field-contract statistics of `chrome`.
    pub stats: ChromeStats,
}

/// The representative cell of one open-stream artifact, as data: a
/// deadline-tagged stream shaped like the sweep's own traffic, plus the
/// faults its timeline should show. The `--trace` timeline and the
/// `--metrics` registry observe the same cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCell {
    /// Arrival shape of the cell's [`TRACE_JOBS`]-job stream.
    pub(crate) traffic: Traffic,
    /// Per-execution transient kernel failure probability.
    pub(crate) transient: f64,
    /// Crash/repair episodes as `(MTTF, MTTR)`, if any.
    pub(crate) crashes: Option<(SimDuration, SimDuration)>,
}

impl TraceCell {
    /// A crash-free cell with the light transient-failure rate every
    /// timeline carries: retries are part of what the trace exists to
    /// make visible.
    pub(crate) const fn new(traffic: Traffic) -> TraceCell {
        TraceCell {
            traffic,
            transient: 0.02,
            crashes: None,
        }
    }
}

/// Everything a representative run drives, built in one place for the
/// traced and the telemetered form: `EDF-APT(α = 4)` behind a
/// [`UtilizationBound`] gate at ρ = 1, the `apt-control` stack on
/// [`CONTROL_WINDOW`] windows, and two attempts per kernel.
pub(crate) struct CellRun {
    pub(crate) source: Box<dyn Source>,
    pub(crate) config: SystemConfig,
    pub(crate) policy: EdfApt,
    pub(crate) gate: UtilizationBound<'static>,
    pub(crate) stack: ControllerStack,
    pub(crate) opts: DriverOpts,
}

impl CellRun {
    pub(crate) fn new(cell: &TraceCell) -> CellRun {
        let config = SystemConfig::paper_4gbps();
        let mut faults = FaultPlan::seeded(TRACE_SEED).with_transient(cell.transient);
        if let Some((mttf, mttr)) = cell.crashes {
            faults = faults.with_crashes(mttf, mttr);
        }
        CellRun {
            source: cell.traffic.source(
                TRACE_JOBS,
                TRACE_SEED,
                DeadlineSpec::ProportionalCp { factor: 6.0 },
            ),
            gate: UtilizationBound::new(LookupTable::paper(), &config, 1.0),
            config,
            policy: EdfApt::new(PAPER_BEST_ALPHA),
            stack: control_stack(),
            opts: DriverOpts {
                snapshot_interval: Some(CONTROL_WINDOW),
                faults,
                retry: RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
                ..DriverOpts::default()
            },
        }
    }
}

/// Run an artifact's representative traced cell (see
/// [`crate::ArtifactSpec::trace_cell`]) and render both the Chrome JSON
/// and the summary.
pub fn artifact_trace(cell: &TraceCell) -> TraceExport {
    use apt_stream::AdmissionGate as _;
    let mut run = CellRun::new(cell);
    let (outcome, sink) = apt_stream::simulate_source_traced(
        run.source.as_mut(),
        &run.config,
        LookupTable::paper(),
        &mut run.policy,
        &run.opts,
        &mut run.gate,
        Some(&mut run.stack),
        Box::new(VecSink::new()),
        |_| {},
    )
    .expect("representative traced run failed");
    let events = sink.snapshot();

    let names = run.config.procs().iter().map(|p| p.name.clone()).collect();
    let chrome = chrome_trace(&events, &ChromeConfig::with_proc_names(names));
    let stats = validate(&chrome).expect("exported timeline violates the Chrome field contract");

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "trace: {} events, {} kernel spans ({} alt), {} alt-decisions, \
         {} counter tracks | jobs {} admitted / {} completed / {} shed | \
         final α {:.2}, final ρ {:.2}",
        stats.events,
        stats.spans,
        stats.alt_spans,
        stats.alt_decisions,
        stats.counter_tracks.len(),
        outcome.jobs_admitted,
        outcome.jobs_completed,
        outcome.jobs_shed,
        Policy::alpha(&run.policy).unwrap_or(PAPER_BEST_ALPHA),
        run.gate.utilization_bound().unwrap_or(1.0),
    );
    summary.push_str(&render_summary(&events, TRACE_TOP_N));

    TraceExport {
        chrome,
        summary,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contract of `apt-repro stream-saturation --trace`:
    /// valid Chrome JSON, processor span tracks, at least one
    /// DecisionRecord-derived alt-decision annotation, and α/ρ counter
    /// tracks from the controlled run.
    #[test]
    fn stream_saturation_trace_meets_the_acceptance_contract() {
        let spec = crate::artifact("stream-saturation").unwrap();
        let export = artifact_trace(spec.trace_cell().unwrap());
        let stats = &export.stats;
        // validate() already passed inside artifact_trace; the stats it
        // measured carry the rest of the contract.
        assert!(stats.spans > 0, "no kernel spans");
        let config = SystemConfig::paper_4gbps();
        for tid in 1..=config.len() as u32 {
            assert!(
                stats.span_tracks.contains(&tid),
                "processor track tid={tid} carries no spans"
            );
        }
        assert!(
            stats.alt_decisions >= 1,
            "no DecisionRecord annotation under a saturating stream"
        );
        assert!(stats.alt_spans >= 1, "no span flagged as an alt placement");
        for track in ["alpha", "rho", "in-flight jobs", "window miss rate"] {
            assert!(
                stats.counter_tracks.iter().any(|t| t == track),
                "missing counter track `{track}` (have {:?})",
                stats.counter_tracks
            );
        }
        // The summary carries the §2.5.1 decomposition columns.
        for col in ["dep-wait", "sched-wait", "proc-wait"] {
            assert!(
                export.summary.contains(col),
                "summary lost the λ decomposition: missing {col}"
            );
        }
    }

    #[test]
    fn capability_check_matches_the_resolver() {
        let has_trace = |id| crate::artifact(id).unwrap().trace_cell().is_some();
        assert!(has_trace("stream-saturation"));
        assert!(has_trace("control-sweep"));
        assert!(!has_trace("table7"));
        assert!(crate::artifact("nope").is_none());
    }
}
