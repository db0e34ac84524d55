//! SLO scenarios: deadline-tagged open streams, admission control, and
//! the miss-rate/tardiness frontier.
//!
//! The ROADMAP's tail-latency-vs-α question — does `threshold_brk` move
//! once jobs carry deadlines and the system runs open? — becomes
//! answerable here: [`slo_sweep`] drives deadline-tagged Poisson streams
//! over the α × offered-λ × deadline-tightness grid for the
//! deadline-aware policy roster (plain APT as the timeliness-oblivious
//! control, EDF-APT, LL-APT), each both *open* (accept-all) and
//! *admission-gated* (utilization-bound shedding), and reports per-cell
//! miss rate, tardiness quantiles, and shed fractions. The same grid run
//! also yields long-format [`apt_metrics::StreamSnapshot`] CSV
//! (`apt-repro slo-sweep --csv <path>`), making the frontier a plottable
//! artifact rather than a table.

use crate::runner::run_pool;
use crate::streaming::{snapshots_csv, Traffic, SWEEP_WINDOW};
use apt_core::prelude::*;
use apt_core::PolicyFactory;
use apt_metrics::TextTable;
use apt_slo::{AcceptAll, AdmissionPolicy, UtilizationBound};
use apt_stream::{simulate_source_gated, DeadlineSpec, DriverOpts, StreamOutcome};

/// Jobs per sweep cell — small enough for the full grid to regenerate in
/// seconds, large enough for stable miss rates.
pub const SLO_JOBS: u64 = 300;

/// Offered arrival rates (jobs/s): one comfortably below the diamond-mix
/// service capacity (~0.3 j/s), one well past it.
pub const SLO_RATES: [f64; 2] = [0.15, 0.45];

/// Deadline tightness: `D = tightness × critical_path_min(job)`.
pub const SLO_TIGHTNESS: [f64; 2] = [2.0, 8.0];

/// The swept α values (a sub-grid of the paper's).
pub const SLO_ALPHAS: [f64; 3] = [1.5, 4.0, 16.0];

/// Density budget of the gated rows' [`UtilizationBound`].
pub const SLO_UTIL_BOUND: f64 = 0.25;

/// In-flight cap: past-capacity accept-all cells would otherwise backlog
/// without bound.
pub const SLO_CAP: usize = 256;

/// Seed of the sweep's arrival streams: every policy and admission mode
/// sees identical arrivals at a given (λ, tightness).
pub const SLO_SEED: u64 = 0x0510_CAFE;

/// The deadline-aware roster: plain APT (timeliness-oblivious control),
/// EDF-APT, and LL-APT, all at the same α.
pub fn slo_policy_factories(alpha: f64) -> Vec<(String, PolicyFactory)> {
    vec![
        (
            "APT".to_string(),
            Box::new(move || Box::new(Apt::new(alpha)) as Box<dyn Policy>),
        ),
        (
            "EDF-APT".to_string(),
            Box::new(move || Box::new(EdfApt::new(alpha)) as Box<dyn Policy>),
        ),
        (
            "LL-APT".to_string(),
            Box::new(move || Box::new(LlApt::new(alpha)) as Box<dyn Policy>),
        ),
    ]
}

/// One sweep cell: a deadline-tagged Poisson stream under one policy and
/// one admission mode, with [`SWEEP_WINDOW`] snapshots.
pub fn slo_point(
    make: &(dyn Fn() -> Box<dyn Policy> + Send + Sync),
    rate: f64,
    tightness: f64,
    gated: bool,
) -> StreamOutcome {
    let lookup = LookupTable::paper();
    let config = SystemConfig::paper_4gbps();
    let mut policy = make();
    let mut source = Traffic::Poisson { rate }.source(
        SLO_JOBS,
        SLO_SEED,
        DeadlineSpec::ProportionalCp { factor: tightness },
    );
    let opts = DriverOpts {
        snapshot_interval: Some(SWEEP_WINDOW),
        max_in_flight_jobs: Some(SLO_CAP),
        ..DriverOpts::default()
    };
    let mut accept_all = AcceptAll;
    let mut util;
    let admission: &mut dyn AdmissionPolicy = if gated {
        util = UtilizationBound::new(lookup, &config, SLO_UTIL_BOUND);
        &mut util
    } else {
        &mut accept_all
    };
    simulate_source_gated(
        source.as_mut(),
        &config,
        lookup,
        policy.as_mut(),
        &opts,
        admission,
        |_| {},
    )
    .expect("slo sweep point failed")
}

/// One sweep-grid cell's coordinates: `(α, λ, tightness, policy index,
/// gated)`.
type SloCell = (f64, f64, f64, usize, bool);

/// Flattened cell coordinates of the sweep grid, in row order.
fn grid() -> Vec<SloCell> {
    let mut cells = Vec::new();
    for &alpha in &SLO_ALPHAS {
        for &rate in &SLO_RATES {
            for &tight in &SLO_TIGHTNESS {
                for policy_idx in 0..slo_policy_factories(alpha).len() {
                    for gated in [false, true] {
                        cells.push((alpha, rate, tight, policy_idx, gated));
                    }
                }
            }
        }
    }
    cells
}

/// Display label of one cell's admission mode — routed through the
/// gates' own `AdmissionPolicy::name` so the table can never drift from
/// the configured gate.
fn admission_label(gated: bool) -> String {
    use apt_slo::AdmissionPolicy as _;
    if gated {
        UtilizationBound::new(
            LookupTable::paper(),
            &SystemConfig::paper_4gbps(),
            SLO_UTIL_BOUND,
        )
        .name()
    } else {
        AcceptAll.name()
    }
}

/// The α × λ × tightness miss-rate/tardiness frontier, per policy, open
/// vs admission-gated. One grid run yields the table and its long-format
/// snapshot CSV, labelled `policy/α/λ/tight/admission`.
pub fn slo_sweep() -> (TextTable, String) {
    let cells = grid();
    let outcomes = run_pool(cells.len(), |i| {
        let (alpha, rate, tight, policy_idx, gated) = cells[i];
        let factories = slo_policy_factories(alpha);
        slo_point(factories[policy_idx].1.as_ref(), rate, tight, gated)
    });
    let mut table = TextTable::new(
        format!(
            "SLO sweep — {SLO_JOBS} Poisson diamond jobs/cell, D = tightness × CP_min, \
             gated = util(ρ≤{SLO_UTIL_BOUND}) admission"
        ),
        &[
            "α",
            "λ (j/s)",
            "tight",
            "policy",
            "admission",
            "admitted",
            "shed",
            "miss %",
            "tard p50 (ms)",
            "tard p99 (ms)",
            "p99 lat (ms)",
        ],
    );
    let mut labels = Vec::with_capacity(cells.len());
    for (&(alpha, rate, tight, policy_idx, gated), o) in cells.iter().zip(&outcomes) {
        let name = &slo_policy_factories(alpha)[policy_idx].0;
        let admission = admission_label(gated);
        labels.push(format!(
            "{name}/α={alpha}/λ={rate}/tight={tight}/{admission}"
        ));
        table.push_row(vec![
            format!("{alpha}"),
            format!("{rate}"),
            format!("{tight}"),
            name.clone(),
            admission,
            format!("{}", o.jobs_admitted),
            format!("{}", o.jobs_shed),
            format!("{:.1}", o.miss_rate() * 100.0),
            format!("{:.0}", o.tardiness_p50_ms),
            format!("{:.0}", o.tardiness_p99_ms),
            format!("{:.0}", o.latency_p99_ms),
        ]);
    }
    (table, snapshots_csv(&labels, &outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_and_determinism() {
        let factories = slo_policy_factories(4.0);
        assert_eq!(
            factories
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["APT", "EDF-APT", "LL-APT"],
        );
        let (_, edf) = &factories[1];
        let a = slo_point(edf.as_ref(), 0.15, 8.0, false);
        let b = slo_point(edf.as_ref(), 0.15, 8.0, false);
        assert_eq!(a.end, b.end);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.proc_stats, b.proc_stats);
        assert_eq!(a.deadline_jobs, SLO_JOBS, "every job carries an SLO");
    }

    /// The acceptance-criterion contrast in the sweep's own cells: at the
    /// overload rate, accept-all goes heavily tardy while the gated run
    /// sheds and keeps the admitted miss rate clearly lower.
    #[test]
    fn overload_cells_show_the_admission_difference() {
        let factories = slo_policy_factories(4.0);
        let (_, edf) = &factories[1];
        let open = slo_point(edf.as_ref(), 0.45, 2.0, false);
        let gated = slo_point(edf.as_ref(), 0.45, 2.0, true);
        assert_eq!(open.jobs_shed, 0);
        assert!(gated.jobs_shed > 0, "overload must shed under the gate");
        assert!(
            gated.miss_rate() < open.miss_rate(),
            "gated {} vs open {}",
            gated.miss_rate(),
            open.miss_rate()
        );
    }

    #[test]
    fn sweep_table_covers_the_full_grid() {
        let (t, csv) = slo_sweep();
        assert!(csv.starts_with("label,end_ms"));
        assert_eq!(
            t.row_count(),
            SLO_ALPHAS.len() * SLO_RATES.len() * SLO_TIGHTNESS.len() * 3 * 2
        );
    }

    #[test]
    fn csv_has_header_plus_window_rows() {
        // One cell's worth of CSV through the public exporter shape: run a
        // single point and export its windows.
        let factories = slo_policy_factories(4.0);
        let (_, ll) = &factories[2];
        let o = slo_point(ll.as_ref(), 0.15, 2.0, true);
        assert!(!o.snapshots.is_empty());
        let csv = apt_metrics::export::snapshots_to_csv([("cell", o.snapshots.as_slice())]);
        assert_eq!(csv.lines().count(), 1 + o.snapshots.len());
        assert!(csv.starts_with("label,end_ms"));
    }
}
