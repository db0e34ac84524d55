//! Differential test: the engine's eligibility index is schedule-invisible.
//!
//! For a policy that reports an α, the engine computes each waiting node's
//! eligible set once, skips `decide` calls that cannot assign, and lets the
//! APT family scan only eligible idle processors. A [`Probe`] in opaque
//! mode hides the α (`alpha() = None`) while forwarding `decide`,
//! `set_alpha` and `switch_to`, so the engine filters nothing and consults
//! the policy on every event — the behaviour before the index existed.
//! Opaque and transparent runs of APT, EDF-APT and LL-APT must produce
//! identical schedules and outcomes on closed Type-1/Type-2 graphs, on open
//! streams with crashes and transient faults (the re-ready paths), under a
//! mid-run α sequence, and through a roster switching APT → MET → APT. The
//! transparent runs must also make fewer `decide` calls, or the comparison
//! would not have exercised the fast path.

use apt_control::{ControlAction, Controller, PolicyRoster};
use apt_core::prelude::*;
use apt_hetsim::CompletedJob;
use apt_metrics::online::StreamSnapshot;
use apt_stream::{
    simulate_source_controlled, AdmitAll, DeadlineSpec, DriverOpts, JobFamily, PoissonSource,
    ReadyOrder,
};

/// Forwards everything to `inner` and counts `decide` calls; in opaque
/// mode it reports no α, which turns the engine's eligibility index off.
struct Probe {
    inner: Box<dyn Policy>,
    opaque: bool,
    decide_calls: u64,
}

impl Probe {
    fn new(inner: Box<dyn Policy>, opaque: bool) -> Self {
        Probe {
            inner,
            opaque,
            decide_calls: 0,
        }
    }
}

impl Policy for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), BaseError> {
        self.inner.prepare(ctx)
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        self.decide_calls += 1;
        self.inner.decide(view, out);
    }

    fn alpha(&self) -> Option<f64> {
        if self.opaque {
            None
        } else {
            self.inner.alpha()
        }
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.inner.set_alpha(alpha)
    }

    fn switch_to(&mut self, index: usize) -> bool {
        self.inner.switch_to(index)
    }
}

type Maker = fn(f64) -> Box<dyn Policy>;

/// The APT family members that report an α.
const FAMILY: [(&str, Maker); 3] = [
    ("APT", |a| Box::new(Apt::new(a))),
    ("EDF-APT", |a| Box::new(EdfApt::new(a))),
    ("LL-APT", |a| Box::new(LlApt::new(a))),
];

/// `decide` calls made by the transparent and the opaque runs.
#[derive(Default)]
struct Calls {
    transparent: u64,
    opaque: u64,
}

impl Calls {
    fn assert_fast_path_ran(&self) {
        assert!(
            self.transparent < self.opaque,
            "the eligibility index skipped no decide call ({} vs {})",
            self.transparent,
            self.opaque
        );
    }
}

#[test]
fn closed_graphs_schedule_identically_without_the_index() {
    let lookup = LookupTable::paper();
    let mut calls = Calls::default();
    for config in [SystemConfig::paper_4gbps(), SystemConfig::paper_8gbps()] {
        for ty in [DfgType::Type1, DfgType::Type2] {
            for (i, &n) in EXPERIMENT_KERNEL_COUNTS.iter().enumerate() {
                let dfg = generate(ty, &StreamConfig::new(n, 0xE11 + i as u64), lookup);
                for alpha in PAPER_ALPHAS {
                    for (name, make) in FAMILY {
                        let mut plain = Probe::new(make(alpha), false);
                        let mut opaque = Probe::new(make(alpha), true);
                        let a = simulate(&dfg, &config, lookup, &mut plain).unwrap();
                        let b = simulate(&dfg, &config, lookup, &mut opaque).unwrap();
                        assert_eq!(
                            a.trace, b.trace,
                            "{name}(α={alpha}) on {ty:?}/{n} at {:?}",
                            config.link
                        );
                        calls.transparent += plain.decide_calls;
                        calls.opaque += opaque.decide_calls;
                    }
                }
            }
        }
    }
    calls.assert_fast_path_ran();
}

/// Emits a fixed action list at given window indices (0-based).
struct Script {
    actions: Vec<(usize, ControlAction)>,
    window: usize,
}

impl Controller for Script {
    fn name(&self) -> String {
        "script".into()
    }

    fn on_window(&mut self, _snapshot: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        out.extend(
            self.actions
                .iter()
                .filter(|(w, _)| *w == self.window)
                .map(|&(_, a)| a),
        );
        self.window += 1;
    }
}

/// One open stream of deadline-tagged Type-1 jobs, run through the
/// controlled driver; returns the outcome's debug rendering and every
/// retired job (schedule records included).
fn stream(
    policy: &mut dyn Policy,
    opts: &DriverOpts,
    actions: &[(usize, ControlAction)],
) -> (String, Vec<CompletedJob>) {
    let config = SystemConfig::paper_4gbps();
    let lookup = LookupTable::paper();
    let mut source = PoissonSource::new(lookup, 0.08, 90, JobFamily::Type1 { len: 12 }, 0x5EED)
        .with_deadlines(DeadlineSpec::ProportionalCp { factor: 3.0 });
    let mut controller = Script {
        actions: actions.to_vec(),
        window: 0,
    };
    let mut jobs = Vec::new();
    let outcome = simulate_source_controlled(
        &mut source,
        &config,
        lookup,
        policy,
        opts,
        &mut AdmitAll,
        &mut controller,
        |job| jobs.push(job.clone()),
    )
    .unwrap();
    (format!("{outcome:?}"), jobs)
}

/// Run `make()` transparent and opaque on one stream setup and compare.
fn compare_streams(
    label: &str,
    make: &dyn Fn() -> Box<dyn Policy>,
    opts: &DriverOpts,
    actions: &[(usize, ControlAction)],
    calls: &mut Calls,
) {
    let mut plain = Probe::new(make(), false);
    let mut opaque = Probe::new(make(), true);
    let (a, jobs_a) = stream(&mut plain, opts, actions);
    let (b, jobs_b) = stream(&mut opaque, opts, actions);
    assert_eq!(jobs_a, jobs_b, "{label}: retired jobs differ");
    assert_eq!(a, b, "{label}: outcomes differ");
    calls.transparent += plain.decide_calls;
    calls.opaque += opaque.decide_calls;
}

fn windowed() -> DriverOpts {
    DriverOpts {
        snapshot_interval: Some(SimDuration::from_ms(30_000)),
        ..DriverOpts::default()
    }
}

#[test]
fn faulty_streams_schedule_identically_without_the_index() {
    let mut calls = Calls::default();
    let mut crashed = 0;
    let retries = [
        RetryPolicy::default(),
        // Zero backoff re-readies a failed kernel inside the failure event.
        RetryPolicy {
            backoff_base: SimDuration::ZERO,
            ..RetryPolicy::default()
        },
    ];
    for (r, retry) in retries.into_iter().enumerate() {
        for order in [ReadyOrder::Admission, ReadyOrder::EarliestDeadline] {
            let opts = DriverOpts {
                faults: FaultPlan::seeded(0xFA + r as u64)
                    .with_transient(0.05)
                    .with_crashes(SimDuration::from_ms(40_000), SimDuration::from_ms(3_000)),
                retry,
                ready_order: order,
                ..windowed()
            };
            for (name, make) in FAMILY {
                let label = format!("{name} retry#{r} {order:?}");
                compare_streams(&label, &|| make(4.0), &opts, &[], &mut calls);
            }
            let mut probe = Probe::new(Box::new(Apt::new(4.0)), false);
            let (outcome, _) = stream(&mut probe, &opts, &[]);
            if !outcome.contains("crashes: 0,") {
                crashed += 1;
            }
        }
    }
    assert!(crashed > 0, "no faulty stream ever crashed a processor");
    calls.assert_fast_path_ran();
}

#[test]
fn mid_run_alpha_changes_schedule_identically_without_the_index() {
    let mut calls = Calls::default();
    let sequence: Vec<(usize, ControlAction)> = [1.5, 8.0, 1.0, 16.0, 2.0, 4.0]
        .into_iter()
        .enumerate()
        .map(|(i, a)| (2 * i + 1, ControlAction::SetAlpha(a)))
        .collect();
    for (name, make) in FAMILY {
        compare_streams(name, &|| make(4.0), &windowed(), &sequence, &mut calls);
    }
    calls.assert_fast_path_ran();
}

#[test]
fn roster_switches_schedule_identically_without_the_index() {
    let mut calls = Calls::default();
    // APT(4) → MET (no α: the index must switch off) → APT(2) (a new α:
    // every waiting node's set is rebuilt) → back to APT(4).
    let switches = [
        (2, ControlAction::SwitchPolicy(1)),
        (4, ControlAction::SwitchPolicy(2)),
        (6, ControlAction::SwitchPolicy(0)),
    ];
    let roster = || {
        Box::new(PolicyRoster::new(vec![
            Box::new(Apt::new(4.0)),
            Box::new(Met::new()),
            Box::new(Apt::new(2.0)),
        ])) as Box<dyn Policy>
    };
    compare_streams("roster", &roster, &windowed(), &switches, &mut calls);
    calls.assert_fast_path_ran();
}
