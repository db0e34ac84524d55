//! Open-stream scenarios: sustained load, bursts, and saturation.
//!
//! The paper's evaluation is closed-world (Tables 8–16 all start with every
//! kernel present); these artifacts open the axis the ROADMAP's
//! production-scale north-star actually lives on. The headline scenario
//! sweeps the offered arrival rate λ against each dynamic policy and
//! reports where the system *saturates* — the classic open-system question
//! ("what load can this scheduler sustain, and how do its latency tails
//! behave on the way there?") that makespan comparisons cannot ask.
//!
//! The run grid is parallelized over the full λ × policy plane with the
//! same worker pool the table sweeps use.

use crate::runner::run_pool;
use apt_core::prelude::*;
use apt_core::PolicyFactory;
use apt_metrics::TextTable;
use apt_stream::{
    simulate_source, DeadlineSpec, DiurnalSource, DriverOpts, JobFamily, OnOffSource,
    PoissonSource, Source, StreamOutcome,
};

/// Jobs per sweep point. Small enough that the full λ grid regenerates in
/// seconds, large enough that quantile estimates stabilize.
pub const SWEEP_JOBS: u64 = 600;

/// The swept offered rates, jobs per simulated second. The paper machine's
/// service capacity for the uniform diamond-job mix sits around 0.3 job/s
/// (each job carries four kernels, several of them multi-second), so the
/// grid straddles the knee: the low end runs comfortably, the high end
/// drives every policy into saturation.
pub const SWEEP_RATES: [f64; 5] = [0.05, 0.1, 0.2, 0.4, 0.8];

/// In-flight cap marking a sweep point as saturated (admission stops, the
/// run drains, and the row is flagged) — without it a past-capacity point
/// would queue without bound.
pub const SWEEP_CAP: usize = 256;

/// Seed for the sweep's arrival streams: every policy sees the *same*
/// arrivals at a given λ.
pub const SWEEP_SEED: u64 = 0x0057_AB11;

/// The dynamic policies the open-stream scenarios compare (static HEFT and
/// PEFT cannot run an open system — they plan over a complete DFG).
pub fn stream_policy_factories(alpha: f64) -> Vec<(String, PolicyFactory)> {
    all_policy_factories(alpha)
        .into_iter()
        .filter(|(name, _)| name != "HEFT" && name != "PEFT")
        .collect()
}

/// Metrics-window width of the open-stream sweeps whose CSV is a
/// long-format snapshot series (two simulated minutes).
pub const SWEEP_WINDOW: SimDuration = SimDuration::from_ms(120_000);

/// The arrival process of an open-stream scenario, as data: every sweep,
/// comparison and representative cell draws its paper-table diamond jobs
/// through [`Traffic::source`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Poisson arrivals at `rate` jobs/s.
    Poisson {
        /// Offered rate, jobs per simulated second.
        rate: f64,
    },
    /// Two-state MMPP: `rate` jobs/s bursts lasting `on` on average,
    /// separated by quiet periods lasting `off` on average.
    OnOff {
        /// Rate inside a burst, jobs per simulated second.
        rate: f64,
        /// Mean burst length.
        on: SimDuration,
        /// Mean quiet length.
        off: SimDuration,
    },
    /// A rate swinging from `base` up to `base + swing` and back once per
    /// `period`.
    Diurnal {
        /// Trough rate, jobs per simulated second.
        base: f64,
        /// Peak-over-trough rate, jobs per simulated second.
        swing: f64,
        /// Length of one "day".
        period: SimDuration,
    },
}

impl Traffic {
    /// A stream of `jobs` diamond jobs with this arrival shape, seeded by
    /// `seed` and tagged by `deadlines`.
    pub fn source(self, jobs: u64, seed: u64, deadlines: DeadlineSpec) -> Box<dyn Source> {
        let lookup = LookupTable::paper();
        let family = JobFamily::Diamond { width: 2 };
        match self {
            Traffic::Poisson { rate } => Box::new(
                PoissonSource::new(lookup, rate, jobs, family, seed).with_deadlines(deadlines),
            ),
            Traffic::OnOff { rate, on, off } => Box::new(
                OnOffSource::new(lookup, rate, on, off, jobs, family, seed)
                    .with_deadlines(deadlines),
            ),
            Traffic::Diurnal {
                base,
                swing,
                period,
            } => Box::new(
                DiurnalSource::new(lookup, base, swing, period, jobs, family, seed)
                    .with_deadlines(deadlines),
            ),
        }
    }
}

/// The long-format snapshot CSV of a sweep: each outcome's windows under
/// its cell label.
pub(crate) fn snapshots_csv(labels: &[String], outcomes: &[StreamOutcome]) -> String {
    apt_metrics::export::snapshots_to_csv(
        labels
            .iter()
            .zip(outcomes)
            .map(|(label, o)| (label.as_str(), o.snapshots.as_slice())),
    )
}

/// One sweep cell: policy × offered λ, with [`SWEEP_WINDOW`] snapshots.
pub fn stream_point(
    make: &(dyn Fn() -> Box<dyn Policy> + Send + Sync),
    rate: f64,
) -> StreamOutcome {
    let mut policy = make();
    let mut source = Traffic::Poisson { rate }.source(SWEEP_JOBS, SWEEP_SEED, DeadlineSpec::None);
    simulate_source(
        source.as_mut(),
        &SystemConfig::paper_4gbps(),
        LookupTable::paper(),
        policy.as_mut(),
        &DriverOpts {
            snapshot_interval: Some(SWEEP_WINDOW),
            max_in_flight_jobs: Some(SWEEP_CAP),
            ..DriverOpts::default()
        },
    )
    .expect("stream sweep point failed")
}

/// The λ-saturation sweep: offered rate vs achieved throughput, latency
/// quantiles, peak backlog and utilization, per dynamic policy at the
/// paper's best α. One run of the λ × policy grid yields the table and
/// its long-format snapshot CSV, labelled `policy/λ`.
pub fn stream_saturation() -> (TextTable, String) {
    let factories = stream_policy_factories(PAPER_BEST_ALPHA);
    let cell = |i: usize| {
        (
            SWEEP_RATES[i / factories.len()],
            &factories[i % factories.len()],
        )
    };
    let outcomes = run_pool(SWEEP_RATES.len() * factories.len(), |i| {
        let (rate, (_, make)) = cell(i);
        stream_point(make.as_ref(), rate)
    });
    let mut table = TextTable::new(
        format!(
            "Open-stream λ sweep — {} Poisson diamond jobs/point, α = {} (sat = admission capped at {} in flight)",
            SWEEP_JOBS, PAPER_BEST_ALPHA, SWEEP_CAP
        ),
        &[
            "offered λ (j/s)",
            "policy",
            "achieved (j/s)",
            "p50 (ms)",
            "p99 (ms)",
            "peak depth",
            "util %",
            "sat",
        ],
    );
    let mut labels = Vec::with_capacity(outcomes.len());
    for (i, o) in outcomes.iter().enumerate() {
        let (rate, (name, _)) = cell(i);
        let mean_util =
            o.utilization().iter().sum::<f64>() / o.proc_stats.len().max(1) as f64 * 100.0;
        table.push_row(vec![
            format!("{rate}"),
            name.clone(),
            format!("{:.2}", o.throughput_jps),
            format!("{:.0}", o.latency_p50_ms),
            format!("{:.0}", o.latency_p99_ms),
            format!("{}", o.peak_in_flight_jobs),
            format!("{mean_util:.0}"),
            if o.saturated { "yes" } else { "" }.to_string(),
        ]);
        labels.push(format!("{name}/λ={rate}"));
    }
    (table, snapshots_csv(&labels, &outcomes))
}

/// Burst absorption: the same offered average load shaped as a steady
/// Poisson stream vs on/off bursts vs a diurnal swing, per policy. Shows
/// how much tail latency each policy's flexibility buys back under bursty
/// traffic — APT's raison d'être in an open system.
pub fn stream_burst_comparison() -> TextTable {
    let factories = stream_policy_factories(PAPER_BEST_ALPHA);
    let shapes = [
        ("steady", Traffic::Poisson { rate: 0.15 }),
        // ≈ 0.15 j/s average: 0.75 j/s bursts, ON 1/5 of the time.
        (
            "bursty",
            Traffic::OnOff {
                rate: 0.75,
                on: SimDuration::from_ms(20_000),
                off: SimDuration::from_ms(80_000),
            },
        ),
        // Swings 0.05 … 0.25 j/s (≈ 0.15 average) over a 10-minute "day".
        (
            "diurnal",
            Traffic::Diurnal {
                base: 0.05,
                swing: 0.2,
                period: SimDuration::from_ms(600_000),
            },
        ),
    ];
    let outcomes = run_pool(shapes.len() * factories.len(), |i| {
        let (_, traffic) = shapes[i / factories.len()];
        let (_, make_policy) = &factories[i % factories.len()];
        let mut policy = make_policy();
        let mut source = traffic.source(SWEEP_JOBS, SWEEP_SEED, DeadlineSpec::None);
        simulate_source(
            source.as_mut(),
            &SystemConfig::paper_4gbps(),
            LookupTable::paper(),
            policy.as_mut(),
            &DriverOpts {
                max_in_flight_jobs: Some(SWEEP_CAP),
                ..DriverOpts::default()
            },
        )
        .expect("burst comparison point failed")
    });
    let mut table = TextTable::new(
        format!(
            "Burst absorption — {} diamond jobs at ≈ 0.15 j/s average, three traffic shapes, α = {}",
            SWEEP_JOBS, PAPER_BEST_ALPHA
        ),
        &[
            "shape", "policy", "p50 (ms)", "p99 (ms)", "mean (ms)", "peak depth", "λ total (s)",
        ],
    );
    for (i, o) in outcomes.iter().enumerate() {
        table.push_row(vec![
            shapes[i / factories.len()].0.to_string(),
            factories[i % factories.len()].0.clone(),
            format!("{:.0}", o.latency_p50_ms),
            format!("{:.0}", o.latency_p99_ms),
            format!("{:.0}", o.mean_latency_ms),
            format!("{}", o.peak_in_flight_jobs),
            format!("{:.1}", o.lambda_total.as_secs_f64()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_is_deterministic_and_complete() {
        let factories = stream_policy_factories(4.0);
        assert_eq!(
            factories
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["APT", "MET", "SPN", "SS", "AG"],
        );
        let (_, met) = &factories[1];
        let a = stream_point(met.as_ref(), 0.05);
        let b = stream_point(met.as_ref(), 0.05);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.end, b.end);
        assert_eq!(a.proc_stats, b.proc_stats);
        assert_eq!(a.jobs_admitted, SWEEP_JOBS);
        assert!(!a.saturated, "0.05 j/s must be sustainable");
    }

    #[test]
    fn high_rate_saturates_every_policy() {
        let factories = stream_policy_factories(4.0);
        let (_, apt) = &factories[0];
        let o = stream_point(apt.as_ref(), 16.0);
        assert!(o.saturated, "16 j/s should trip the admission cap");
        assert_eq!(o.jobs_admitted, o.jobs_completed);
    }

    #[test]
    fn saturation_table_has_the_full_grid() {
        let (t, csv) = stream_saturation();
        assert!(csv.starts_with("label,end_ms"));
        assert_eq!(
            t.row_count(),
            SWEEP_RATES.len() * stream_policy_factories(4.0).len()
        );
    }
}
