//! The repository benchmark: host throughput of the production simulator
//! build on four workloads, and per-layer costs from a traced run.
//!
//! ```bash
//! apt-perfbench --workload stream_single --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run repeats one workload rep (same seed, same inputs) for the given
//! wall time. `--trace 0` prints the end-to-end metrics, measured on the
//! untouched production path, rescaled by the host-speed probe and taken
//! over the fastest fifth of reps (see `README.md`);
//! `--trace 1` alternates untraced and traced reps and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the simulated statistics, which must match exactly across
//! builds that only change speed.

#![forbid(unsafe_code)]

mod probe;
mod spans;
mod workloads;

use spans::{ClockCost, Layer, Spans};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Mode, Rep, Workload, DEFAULT_SEED};

/// A `setup_s` sample is the mean of a batch of set-ups lasting at least
/// this long, so the clock's own cost and granularity do not swamp a
/// microsecond set-up. One batch follows every timed rep.
const SETUP_BATCH_S: f64 = 2e-3;
/// Fewest timed reps of a run, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is one of {names:?}"))?,
        seed,
        seconds,
        trace,
    })
}

/// Whether this build carries the engine's `self-profile` phase
/// profiler: only then does a telemetered run asked for an engine
/// profile return a phase report.
fn self_profile_compiled_in() -> bool {
    use apt_stream::{simulate_source_telemetered, AdmitAll, DriverOpts, JobFamily};
    let lookup = apt_dfg::LookupTable::paper();
    let mut source = apt_stream::PoissonSource::new(lookup, 1.0, 4, JobFamily::Single, 7);
    let mut tel = apt_stream::StreamTelemetry::new().with_engine_profile();
    let run = simulate_source_telemetered(
        &mut source,
        &apt_hetsim::SystemConfig::paper_4gbps(),
        lookup,
        &mut apt_core::Apt::new(4.0),
        &DriverOpts::default(),
        &mut AdmitAll,
        None,
        None,
        &mut tel,
        |_| {},
    );
    run.is_ok() && tel.phase_report().is_some()
}

fn setup_s(w: Workload, seed: u64) -> f64 {
    w.rep(seed, Mode::SetupOnly).setup.as_secs_f64()
}

fn setup_batch_mean(w: Workload, seed: u64, batch: usize) -> f64 {
    (0..batch).map(|_| setup_s(w, seed)).sum::<f64>() / batch as f64
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The median of the fastest fifth of `times`. Other tenants' load also
/// swings faster than the probes can follow; the fastest fifth keeps the
/// reps least touched by it.
fn fast_median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    let fifth = times.len().div_ceil(5);
    times.truncate(fifth);
    median(times)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in report order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// `rep_s` and `setups` are probe-rescaled times (see [`probe`]).
fn end_to_end(untraced: &[Rep], rep_s: Vec<f64>, setups: Vec<f64>) -> Metrics {
    // Every rep does the same work, so rates follow from one rep time.
    let rep_s = fast_median(rep_s);
    let work = |count: u64| ratio(count as f64, rep_s);
    vec![
        ("jobs_per_s", work(untraced[0].jobs), "1/s"),
        ("kernels_per_s", work(untraced[0].sim.kernels), "1/s"),
        ("setup_s", fast_median(setups), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(w: Workload, untraced: &[Rep], traced: &[Rep], clock: ClockCost) -> Metrics {
    let mut s = Spans::default();
    for r in traced {
        s.add(&r.spans);
    }
    let reps = traced.len().max(1) as f64;
    let root_ns: f64 = traced.iter().map(|r| r.root.as_nanos() as f64).sum();
    let jobs: f64 = traced.iter().map(|r| r.jobs as f64).sum();
    let kernels: f64 = traced.iter().map(|r| r.sim.kernels as f64).sum();
    let rest: f64 = traced
        .iter()
        .map(|r| clock.remainder_ns(&r.spans, r.root))
        .sum();
    let self_ns = |l| clock.self_ns(&s, l);
    let calls = |l| s.calls(l) as f64;
    let per_call = |l| ratio(self_ns(l), calls(l));
    let share = |l| ratio(self_ns(l), root_ns);
    // The remainder is the driver's on stream workloads and the engine's
    // on the closed grid, where no driver runs.
    let (driver, engine) = if w == Workload::ClosedGrid {
        (0.0, rest)
    } else {
        (rest, 0.0)
    };
    let wall = |reps: &[Rep]| median(reps.iter().map(|r| r.root.as_secs_f64()).collect());
    let max = |f: fn(&Rep) -> u64| traced.iter().map(f).max().unwrap_or(0) as f64;
    vec![
        ("source.calls", calls(Layer::Source) / reps, "count"),
        ("source.ns_per_call", per_call(Layer::Source), "ns"),
        ("source.share", share(Layer::Source), "ratio"),
        ("decide.calls", calls(Layer::Decide) / reps, "count"),
        ("decide.ns_per_call", per_call(Layer::Decide), "ns"),
        (
            "decide.empty_frac",
            ratio(s.decide_empty as f64, calls(Layer::Decide)),
            "ratio",
        ),
        (
            "decide.calls_per_kernel",
            ratio(calls(Layer::Decide), kernels),
            "ratio",
        ),
        ("decide.share", share(Layer::Decide), "ratio"),
        ("driver.self_ns_per_job", ratio(driver, jobs), "ns"),
        ("driver.self_share", ratio(driver, root_ns), "ratio"),
        ("prepare.calls", calls(Layer::Prepare) / reps, "count"),
        ("prepare.ns_per_call", per_call(Layer::Prepare), "ns"),
        ("engine.self_ns_per_sim", ratio(engine, jobs), "ns"),
        ("engine.self_share", ratio(engine, root_ns), "ratio"),
        ("gate.calls", calls(Layer::Gate) / reps, "count"),
        ("gate.ns_per_call", per_call(Layer::Gate), "ns"),
        (
            "gate.shed_frac",
            ratio(s.gate_sheds as f64, s.gate_admits as f64),
            "ratio",
        ),
        ("controller.calls", calls(Layer::Controller) / reps, "count"),
        ("controller.ns_per_call", per_call(Layer::Controller), "ns"),
        (
            "controller.actions",
            s.controller_actions as f64 / reps,
            "count",
        ),
        ("tracesink.events", calls(Layer::Sink) / reps, "count"),
        ("tracesink.ns_per_event", per_call(Layer::Sink), "ns"),
        ("observer.share", share(Layer::Observer), "ratio"),
        ("engine.arena_slots", max(|r| r.arena_slots), "count"),
        (
            "engine.peak_in_flight_jobs",
            max(|r| r.peak_in_flight_jobs),
            "count",
        ),
        ("spans.clock_ns", clock.per_span_ns, "ns"),
        (
            "spans.overhead_frac",
            ratio(wall(traced), wall(untraced)) - 1.0,
            "ratio",
        ),
    ]
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apt-perfbench: {e}");
            eprintln!(
                "usage: apt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let self_profile = self_profile_compiled_in();
    let clock = if args.trace {
        ClockCost::calibrate()
    } else {
        ClockCost::default()
    };

    let batch = (SETUP_BATCH_S / setup_s(w, args.seed).max(1e-9)).ceil() as usize;
    let mut setups = Vec::new();
    // The first rep warms caches and the allocator; it is checked, and
    // it is the reference every later rep must reproduce, but untimed.
    let reference = w.rep(args.seed, Mode::Untraced);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut rep_s = Vec::new();
    let mut probe_before = probe::probe_s();
    while start.elapsed() < budget || untraced.len() < MIN_REPS {
        let rep = w.rep(args.seed, Mode::Untraced);
        if args.trace {
            traced.push(w.rep(args.seed, Mode::Traced));
        } else {
            let setup = setup_batch_mean(w, args.seed, batch);
            let probe_after = probe::probe_s();
            let scale = probe::NOMINAL_S / ((probe_before + probe_after) / 2.0);
            rep_s.push(rep.root.as_secs_f64() * scale);
            setups.push(setup * scale);
            probe_before = probe_after;
        }
        untraced.push(rep);
    }

    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0;
    let all: Vec<(&Rep, bool)> = std::iter::once((&reference, false))
        .chain(untraced.iter().map(|r| (r, false)))
        .chain(traced.iter().map(|r| (r, true)))
        .collect();
    for &(rep, is_traced) in &all {
        let mut rep_problems = rep.problems.clone();
        if rep.digest != reference.digest || rep.sim != reference.sim {
            rep_problems.push(format!(
                "digest {:#018x} differs from the reference rep's {:#018x}",
                rep.digest, reference.digest
            ));
        }
        let root_ns = rep.root.as_nanos() as f64;
        if is_traced && clock.remainder_ns(&rep.spans, rep.root) < -0.01 * root_ns {
            rep_problems.push("layer spans exceed the root span".into());
        }
        if !rep_problems.is_empty() {
            failed += 1;
            problems.extend(rep_problems);
        }
    }
    let attempted = all.len();
    if let Some(expected) = w.expected_digest(args.seed) {
        if reference.digest != expected {
            problems.push(format!(
                "digest {:#018x} != recorded {expected:#018x} for seed {}",
                reference.digest, args.seed
            ));
            failed = attempted;
        }
    }
    if self_profile {
        problems.push("the self-profile feature is compiled in".into());
        failed = attempted;
    }
    for p in problems.iter().take(10) {
        eprintln!("apt-perfbench: check failed: {p}");
    }

    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"self_profile\": {self_profile}, \
         \"reps\": {}, \"digest\": \"{:#018x}\", \"sim\": {}}}",
        w.name(),
        args.seed,
        untraced.len(),
        reference.digest,
        reference.sim.to_json()
    );
    let metrics = if args.trace {
        per_layer(w, &untraced, &traced, clock)
    } else {
        end_to_end(&untraced, rep_s, setups)
    };
    println!("{}", render(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
