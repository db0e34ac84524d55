//! The window record of open-system runs.
//!
//! Closed-world metrics ([`crate::RunSummary`]) post-process a complete
//! trace. A million-job open stream never materializes one: the
//! `apt-stream` driver aggregates it online and emits one
//! [`StreamSnapshot`] per closed window (throughput, latency and
//! tardiness quantiles, queue depth, per-processor utilization, and the
//! SLO, failure and admission counters). The snapshot lives here, below
//! `apt-stream`, because its consumers do too: the CSV exporter in
//! [`crate::export`] and the `apt-control` controllers that close the loop
//! on each window.

use apt_base::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One periodic snapshot of an open-stream run: the window covers
/// `(end − interval, end]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// Window end (simulation clock).
    pub end: SimTime,
    /// Window length.
    pub interval: SimDuration,
    /// Jobs completed inside this window.
    pub window_jobs: u64,
    /// Jobs completed since the run started.
    pub total_jobs: u64,
    /// Window throughput, jobs per simulated second.
    pub throughput_jps: f64,
    /// Median job latency since the run started (ms, arrival → last
    /// finish). Every quantile field reads the run's one log-bucket
    /// latency histogram: within relative error γ = 1% of the exact
    /// nearest-rank sample, non-decreasing across p50 ≤ p90 ≤ p99, and
    /// equal to the outcome's and the Prometheus exposition's quantile
    /// at the same instant. 0 before the first completion.
    pub latency_p50_ms: f64,
    /// 90th-percentile job latency since the run started, ms.
    pub latency_p90_ms: f64,
    /// 99th-percentile job latency since the run started, ms.
    pub latency_p99_ms: f64,
    /// Time-weighted mean number of in-flight jobs over the window.
    pub mean_depth: f64,
    /// In-flight jobs at the window end.
    pub depth_now: usize,
    /// Deadline-carrying jobs that finished *tardy* inside this window.
    pub window_missed: u64,
    /// Deadline misses since the run started.
    pub total_missed: u64,
    /// Deadline-carrying jobs completed since the run started (the
    /// miss-rate denominator; zero when the stream is deadline-free).
    pub total_deadline_jobs: u64,
    /// 99th-percentile tardiness over deadline-carrying jobs since the
    /// run started, ms (on-time completions contribute zero), from the
    /// run's tardiness histogram with the same γ bound as the latency
    /// quantiles.
    pub tardiness_p99_ms: f64,
    /// Per-processor busy+transfer fraction of the window.
    pub utilization: Vec<f64>,
    /// Jobs shed by the failure model inside this window (retry budget
    /// exhausted). Zero on fault-free runs.
    #[serde(default)]
    pub window_failed: u64,
    /// Failed jobs since the run started.
    #[serde(default)]
    pub total_failed: u64,
    /// Transient kernel failures injected inside this window.
    #[serde(default)]
    pub window_kernel_failures: u64,
    /// Kernel retries scheduled inside this window.
    #[serde(default)]
    pub window_retries: u64,
    /// Processor downtime accumulated inside this window, ns (summed over
    /// processors, so it can exceed the interval on multi-crash windows).
    #[serde(default)]
    pub window_down_ns: u64,
    /// Occupancy thrown away inside this window (killed attempts), ns.
    #[serde(default)]
    pub window_wasted_ns: u64,
    /// Fraction of this window's aggregate processor-time that was up:
    /// `1 − down/(procs × interval)`. Exactly 1.0 on fault-free runs.
    #[serde(default)]
    pub availability: f64,
    /// Jobs the driver admitted into the engine inside this window (the
    /// windowed shed-rate denominator, together with `window_shed`).
    #[serde(default)]
    pub window_admitted: u64,
    /// Arrivals shed *before* entering the system inside this window —
    /// admission-gate rejections plus overload sheds (failure-model sheds
    /// of admitted jobs are `window_failed`).
    #[serde(default)]
    pub window_shed: u64,
    /// Shed arrivals since the run started.
    #[serde(default)]
    pub total_shed: u64,
    /// Deadline-carrying jobs completed inside this window (the windowed
    /// miss-rate denominator).
    #[serde(default)]
    pub window_deadline_jobs: u64,
}

impl StreamSnapshot {
    /// Cumulative deadline-miss fraction at this snapshot (0 when no
    /// deadline-carrying job has completed).
    pub fn miss_rate(&self) -> f64 {
        if self.total_deadline_jobs == 0 {
            0.0
        } else {
            self.total_missed as f64 / self.total_deadline_jobs as f64
        }
    }

    /// *Windowed* miss fraction: tardy completions over deadline-carrying
    /// completions inside this window alone (0 when the window completed
    /// none). This is the signal `apt-control`'s AIMD setpoint tests —
    /// cumulative [`StreamSnapshot::miss_rate`] lags the live operating
    /// point by the whole history of the run.
    pub fn window_miss_rate(&self) -> f64 {
        if self.window_deadline_jobs == 0 {
            0.0
        } else {
            self.window_missed as f64 / self.window_deadline_jobs as f64
        }
    }

    /// *Windowed* shed fraction: shed arrivals over offered arrivals
    /// (`shed + admitted`) inside this window (0 when none were offered).
    pub fn window_shed_rate(&self) -> f64 {
        let offered = self.window_shed + self.window_admitted;
        if offered == 0 {
            0.0
        } else {
            self.window_shed as f64 / offered as f64
        }
    }
}
