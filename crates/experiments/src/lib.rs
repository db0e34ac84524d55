//! # apt-experiments
//!
//! The experiment harness: regenerates every table (7–16) and figure (3–12)
//! of the paper's evaluation from the reproduction pipeline. Used three
//! ways:
//!
//! * the `apt-repro` binary (`cargo run -p apt-experiments --release --
//!   <id>|all|list`) prints artifacts to stdout,
//! * `perfbench`'s `closed_grid` workload times the same closed-world
//!   grid — re-created in `perfbench` itself, which does not depend on
//!   this crate,
//! * the integration tests assert the DESIGN.md acceptance criteria.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod control;
pub mod faults;
pub mod figures;
pub mod runner;
pub mod slo;
pub mod streaming;
pub mod tables;
pub mod telemetered;
pub mod topology;
pub mod traced;
pub mod workloads;

pub use telemetered::{artifact_metrics, MetricsExport};
pub use traced::{artifact_trace, TraceExport};

use apt_core::prelude::SimDuration;
use apt_metrics::TextTable;
use streaming::Traffic;
use traced::TraceCell;

/// A regenerated artifact: either a formatted table or free-form text.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A paper table (rendered via `Display` / `to_markdown`).
    Table(TextTable),
    /// Free-form text (Figure 5's schedules, Figure 3/4 renders).
    Text(String),
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::Table(t) => write!(f, "{t}"),
            Artifact::Text(s) => write!(f, "{s}"),
        }
    }
}

/// How a registry entry renders.
#[derive(Debug, Clone, Copy)]
enum Render {
    /// Free-form text.
    Text(fn() -> String),
    /// A table.
    Table(fn() -> TextTable),
    /// An open-stream sweep: one grid run yields the table and its CSV
    /// (`apt-repro <id> --csv <path>`).
    Sweep(fn() -> (TextTable, String)),
}

/// One entry of the artifact registry.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSpec {
    /// The id `apt-repro` takes.
    pub id: &'static str,
    /// How the artifact renders.
    render: Render,
    /// The representative cell `--trace` and `--metrics` run, for the
    /// open-stream artifacts.
    trace_cell: Option<TraceCell>,
}

impl ArtifactSpec {
    /// True when the artifact has a CSV form — a static check, so callers
    /// can filter capabilities without running anything.
    pub fn has_csv(&self) -> bool {
        matches!(self.render, Render::Sweep(_))
    }

    /// The representative cell [`artifact_trace`] and [`artifact_metrics`]
    /// run, when the artifact has a traced and telemetered form.
    pub fn trace_cell(&self) -> Option<&TraceCell> {
        self.trace_cell.as_ref()
    }

    /// Regenerate the artifact, with its CSV when it has one.
    pub fn run(&self) -> (Artifact, Option<String>) {
        match self.render {
            Render::Text(text) => (Artifact::Text(text()), None),
            Render::Table(table) => (Artifact::Table(table()), None),
            Render::Sweep(sweep) => {
                let (table, csv) = sweep();
                (Artifact::Table(table), Some(csv))
            }
        }
    }
}

const fn table(id: &'static str, render: fn() -> TextTable) -> ArtifactSpec {
    ArtifactSpec {
        id,
        render: Render::Table(render),
        trace_cell: None,
    }
}

const fn text(id: &'static str, render: fn() -> String) -> ArtifactSpec {
    ArtifactSpec {
        id,
        render: Render::Text(render),
        trace_cell: None,
    }
}

const fn sweep(
    id: &'static str,
    run: fn() -> (TextTable, String),
    cell: TraceCell,
) -> ArtifactSpec {
    ArtifactSpec {
        id,
        render: Render::Sweep(run),
        trace_cell: Some(cell),
    }
}

/// Every artifact, in `apt-repro all` order: the paper's tables and
/// figures, the supplementary Table 1 and §3.2 metric-5 wins summary,
/// the ablations (see `ablations`), then the open-stream scenarios (see
/// `streaming`, `slo`, `topology`, `faults` and `control`).
pub static ARTIFACTS: [ArtifactSpec; 36] = [
    table("table7", tables::table7),
    table("table8", tables::table8),
    table("table9", tables::table9),
    table("table10", tables::table10),
    table("table11", tables::table11),
    table("table12", tables::table12),
    table("table13", tables::table13),
    table("table14", tables::table14),
    table("table15", tables::table15),
    table("table16", tables::table16),
    text("fig3", figures::fig3),
    text("fig4", figures::fig4),
    text("fig5", figures::fig5),
    table("fig6", figures::fig6),
    table("fig7", figures::fig7),
    table("fig8", figures::fig8),
    table("fig8b", figures::fig8b),
    table("fig9", figures::fig9),
    table("fig10", figures::fig10),
    table("fig11", figures::fig11),
    table("fig12", figures::fig12),
    text("table1", tables::table1),
    table("wins", tables::wins),
    table("ablation-alpha-fine", ablations::ablation_alpha_fine),
    table("ablation-heterogeneity", ablations::ablation_heterogeneity),
    table("ablation-bytes", ablations::ablation_bytes_per_element),
    table("ablation-procs", ablations::ablation_processor_count),
    table("ablation-aptr", ablations::ablation_apt_r),
    table("ablation-energy", ablations::ablation_energy),
    table("ablation-quality", ablations::ablation_quality),
    // Traced at λ ≈ 1.3× the ~0.3 j/s service capacity, where shedding
    // and alt-placements dominate.
    sweep(
        "stream-saturation",
        streaming::stream_saturation,
        TraceCell::new(Traffic::Poisson { rate: 0.4 }),
    ),
    // Traced with 3×-capacity bursts and long quiet valleys.
    ArtifactSpec {
        trace_cell: Some(TraceCell::new(Traffic::OnOff {
            rate: 1.0,
            on: SimDuration::from_ms(40_000),
            off: SimDuration::from_ms(80_000),
        })),
        ..table("stream-bursts", streaming::stream_burst_comparison)
    },
    // The deadline frontier and topology rows are traced on a sustainable
    // 0.25 j/s feed: the timeline shows λ-delay structure, not overload.
    sweep(
        "slo-sweep",
        slo::slo_sweep,
        TraceCell::new(Traffic::Poisson { rate: 0.25 }),
    ),
    sweep(
        "topology-sweep",
        topology::topology_sweep,
        TraceCell::new(Traffic::Poisson { rate: 0.25 }),
    ),
    // Crash/repair episodes shrink the machine on top of a heavier
    // transient rate: crash and repair instants land on the processor
    // tracks.
    sweep(
        "fault-sweep",
        faults::fault_sweep,
        TraceCell {
            traffic: Traffic::Poisson { rate: 0.2 },
            transient: 0.05,
            crashes: Some((SimDuration::from_ms(45_000), SimDuration::from_ms(10_000))),
        },
    ),
    // The control plane's shifted diurnal regime: the trace where the α/ρ
    // counter tracks actually move.
    sweep(
        "control-sweep",
        control::control_sweep,
        TraceCell::new(Traffic::Diurnal {
            base: 0.2,
            swing: 0.6,
            period: SimDuration::from_ms(600_000),
        }),
    ),
];

/// The registry entry of `id`. `None` for unknown ids.
pub fn artifact(id: &str) -> Option<&'static ArtifactSpec> {
    ARTIFACTS.iter().find(|spec| spec.id == id)
}

/// All artifact ids, in `apt-repro all` order.
pub fn all_artifact_ids() -> Vec<&'static str> {
    ARTIFACTS.iter().map(|spec| spec.id).collect()
}

/// Regenerate one artifact by id. `None` for unknown ids.
pub fn run_artifact(id: &str) -> Option<Artifact> {
    Some(artifact(id)?.run().0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_artifact_is_runnable() {
        // Cheap artifacts run fully; expensive sweeps are covered by their
        // own table/figure tests — here we check id dispatch only for the
        // static ones and id validity for the rest.
        for id in ["table7", "table14", "fig3", "fig4", "fig5"] {
            assert!(run_artifact(id).is_some(), "artifact {id} missing");
        }
        assert!(run_artifact("nope").is_none());
        assert_eq!(all_artifact_ids().len(), 36);
        assert!(all_artifact_ids().contains(&"slo-sweep"));
        assert!(all_artifact_ids().contains(&"topology-sweep"));
        assert!(all_artifact_ids().contains(&"fault-sweep"));
        assert!(all_artifact_ids().contains(&"control-sweep"));
        let has_csv = |id| artifact(id).unwrap().has_csv();
        // The static capability check agrees with the resolver for the
        // cheap (None) ids; the Some ids are pinned by their sweep tests.
        assert!(
            artifact("table7").unwrap().run().1.is_none(),
            "closed tables have no CSV"
        );
        assert!(!has_csv("table7"));
        assert!(has_csv("slo-sweep"));
        assert!(has_csv("stream-saturation"));
        assert!(has_csv("topology-sweep"));
        assert!(has_csv("fault-sweep"));
        assert!(has_csv("control-sweep"));
    }
}
