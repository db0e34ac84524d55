//! The driver's online aggregator: every count and distribution a stream
//! run reports, kept once.
//!
//! A million-job open stream never materializes a trace, so
//! [`OnlineMetrics`] accumulates incrementally: job latency and tardiness
//! go into one [`LogHistogram`] each (relative error ≤ [`HIST_GAMMA`],
//! mergeable), and the admitted / shed / completed / failed / kernel counts
//! live here and nowhere else. The [`crate::StreamOutcome`], the periodic
//! [`StreamSnapshot`]s, the heartbeat and the telemetry registry all read
//! them from this one place, so they cannot disagree on a count or a p99.
//!
//! Everything here is deterministic given the observation sequence; `f64`
//! appears only in reporting-grade quantities (quantiles, means,
//! utilization fractions), never in simulation state.

use apt_base::{SimDuration, SimTime};
use apt_hetsim::{CompletedJob, ProcStats, TaskRecord};
use apt_metrics::StreamSnapshot;
use apt_telemetry::LogHistogram;

/// Relative error bound of the latency and tardiness histograms: 1%.
/// The telemetry registry registers its histograms at the same γ, so the
/// run-end merge is exact.
pub(crate) const HIST_GAMMA: f64 = 0.01;

/// Quantiles `qs` (ascending) of `h`, all 0 while it is empty.
pub(crate) fn quantiles<const N: usize>(h: &LogHistogram, qs: [f64; N]) -> [f64; N] {
    h.quantiles(qs).unwrap_or([0.0; N])
}

/// Streaming aggregator for open-system runs. Feed it every admission,
/// shed and retired job plus depth changes; poll
/// [`OnlineMetrics::maybe_snapshot`] as the clock advances. Memory is
/// O(processors + snapshots + histogram span), independent of job count.
#[derive(Debug, Clone)]
pub(crate) struct OnlineMetrics {
    interval: SimDuration,
    window_end: SimTime,
    // Completed jobs' latency, and tardiness over the deadline-carrying
    // ones (zero when on time). Their counts are the completed and
    // deadline-job totals; their sums the mean numerators.
    latency: LogHistogram,
    tardiness: LogHistogram,
    lambda_total: SimDuration,
    // Cumulative job accounting: every offered job is admitted or shed,
    // every admitted job completes (a latency sample) or fails.
    admitted: u64,
    shed: u64,
    failed: u64,
    kernels: u64,
    deadline_misses: u64,
    // The open window's share of the counters above.
    window_jobs: u64,
    window_misses: u64,
    window_deadline_jobs: u64,
    window_failed: u64,
    window_admitted: u64,
    window_shed: u64,
    // Time-weighted depth integral of the *oldest unemitted* window
    // (job·ns); integrals of further whole windows crossed by one time jump
    // queue up behind it. `depth_at` is the instant the integral has been
    // advanced to; `integral_end` the boundary `depth_integral` runs to.
    depth_integral: f64,
    depth_spill: std::collections::VecDeque<f64>,
    integral_end: SimTime,
    depth_at: SimTime,
    depth: usize,
    // Cumulative per-proc busy+transfer at the last snapshot boundary.
    last_busy_ns: Vec<u64>,
    // The engine's cumulative fault counters as of "now" / the last
    // boundary (windows report the delta).
    fault_now: [u64; 4],
    fault_at_boundary: [u64; 4],
    snapshots: Vec<StreamSnapshot>,
}

impl OnlineMetrics {
    /// An aggregator emitting one snapshot per (positive) `interval` of
    /// simulated time.
    pub(crate) fn new(interval: SimDuration, nprocs: usize) -> OnlineMetrics {
        OnlineMetrics {
            interval,
            window_end: SimTime::ZERO + interval,
            latency: LogHistogram::new(HIST_GAMMA),
            tardiness: LogHistogram::new(HIST_GAMMA),
            lambda_total: SimDuration::ZERO,
            admitted: 0,
            shed: 0,
            failed: 0,
            kernels: 0,
            deadline_misses: 0,
            window_jobs: 0,
            window_misses: 0,
            window_deadline_jobs: 0,
            window_failed: 0,
            window_admitted: 0,
            window_shed: 0,
            depth_integral: 0.0,
            depth_spill: std::collections::VecDeque::new(),
            integral_end: SimTime::ZERO + interval,
            depth_at: SimTime::ZERO,
            depth: 0,
            last_busy_ns: vec![0; nprocs],
            fault_now: [0; 4],
            fault_at_boundary: [0; 4],
            snapshots: Vec::new(),
        }
    }

    /// Record one job admitted into the engine.
    pub(crate) fn observe_job_admitted(&mut self) {
        self.admitted += 1;
        self.window_admitted += 1;
    }

    /// Record one arrival shed *before* entering the system — an
    /// admission-gate rejection or an overload shed. Failure-model sheds
    /// of already-admitted jobs are retired as failed jobs instead.
    pub(crate) fn observe_job_shed(&mut self) {
        self.shed += 1;
        self.window_shed += 1;
    }

    /// Retire one job leaving the engine. Its kernels count either way; a
    /// failed job (shed by the failure model) has no meaningful completion,
    /// so it is counted apart and never reaches the latency or SLO
    /// histograms.
    pub(crate) fn retire(&mut self, job: &CompletedJob) {
        self.kernels += job.records.len() as u64;
        if job.failed {
            self.failed += 1;
            self.window_failed += 1;
            return;
        }
        let finish = job.finish();
        let lambda: SimDuration = job.records.iter().map(TaskRecord::lambda).sum();
        self.observe_job(finish.saturating_since(job.arrival), lambda);
        if let Some(deadline) = job.deadline {
            self.observe_tardiness(finish.saturating_since(deadline));
        }
    }

    /// Record one completed job: its end-to-end latency (arrival → last
    /// finish) and the λ delay its kernels accumulated.
    fn observe_job(&mut self, latency: SimDuration, lambda: SimDuration) {
        self.latency.observe(latency.as_ms_f64());
        self.lambda_total += lambda;
        self.window_jobs += 1;
    }

    /// Record the tardiness of one completed *deadline-carrying* job:
    /// `finish − deadline`, saturated at zero when the deadline was met.
    /// Deadline-free jobs must not dilute the miss-rate denominator.
    fn observe_tardiness(&mut self, tardiness: SimDuration) {
        self.tardiness.observe(tardiness.as_ms_f64());
        self.window_deadline_jobs += 1;
        if !tardiness.is_zero() {
            self.deadline_misses += 1;
            self.window_misses += 1;
        }
    }

    /// Update the engine's *cumulative* fault counters (transient kernel
    /// failures, retries, wasted occupancy ns, downtime ns) so the next
    /// snapshot can report this window's delta. Call before
    /// [`OnlineMetrics::maybe_snapshot`]; a fault-free run never needs to.
    pub(crate) fn note_fault_counters(
        &mut self,
        kernel_failures: u64,
        retries: u64,
        wasted_ns: u64,
        down_ns: u64,
    ) {
        self.fault_now = [kernel_failures, retries, wasted_ns, down_ns];
    }

    /// Advance the depth integral to `now` and set the new depth.
    /// Instants are non-decreasing (the simulation clock). The integral is
    /// split at window boundaries, so a change observed past the open
    /// window's end credits each crossed window with exactly its own share
    /// — a window's `mean_depth` can never exceed the depth that was
    /// actually standing during it.
    pub(crate) fn observe_depth(&mut self, now: SimTime, depth: usize) {
        while now > self.integral_end {
            let dt = self.integral_end.saturating_since(self.depth_at);
            self.depth_integral += self.depth as f64 * dt.as_ns() as f64;
            self.depth_spill.push_back(self.depth_integral);
            self.depth_integral = 0.0;
            self.depth_at = self.integral_end;
            self.integral_end += self.interval;
        }
        let dt = now.saturating_since(self.depth_at);
        self.depth_integral += self.depth as f64 * dt.as_ns() as f64;
        self.depth_at = self.depth_at.max(now);
        self.depth = depth;
    }

    /// Emit every snapshot whose window closed at or before `now`.
    /// `proc_stats` are the engine's *cumulative* per-processor aggregates;
    /// utilization is the per-window delta. Returns how many snapshots were
    /// appended (all but the last of a multi-window gap cover idle windows).
    pub(crate) fn maybe_snapshot(&mut self, now: SimTime, proc_stats: &[ProcStats]) -> usize {
        let mut emitted = 0;
        // Bring the depth integral up to `now` (no depth change): every
        // window about to be emitted gets its exact share, queued in order.
        self.observe_depth(now, self.depth);
        while now >= self.window_end {
            let end = self.window_end;
            let window_integral = match self.depth_spill.pop_front() {
                Some(i) => i,
                None => {
                    // `now` sits exactly on the boundary: the open integral
                    // covers this whole window. Close it by hand.
                    debug_assert_eq!(self.integral_end, end);
                    let i = self.depth_integral;
                    self.depth_integral = 0.0;
                    self.depth_at = end;
                    self.integral_end = end + self.interval;
                    i
                }
            };
            self.close_window(end, self.interval, window_integral, proc_stats);
            self.window_end = end + self.interval;
            emitted += 1;
        }
        emitted
    }

    /// Append one snapshot covering the `span` ending at `end`, from the
    /// current window counters and the given depth integral, then reset the
    /// per-window state. Shared by the whole-window path
    /// ([`OnlineMetrics::maybe_snapshot`]) and the end-of-stream partial
    /// flush ([`OnlineMetrics::flush_partial`]).
    fn close_window(
        &mut self,
        end: SimTime,
        span: SimDuration,
        window_integral: f64,
        proc_stats: &[ProcStats],
    ) {
        let span_ns = span.as_ns() as f64;
        debug_assert_eq!(proc_stats.len(), self.last_busy_ns.len());
        // Cumulative busy time can only be apportioned to the window it
        // was *observed* in; with multi-window gaps the delta lands in
        // the first window of the gap, which slightly front-loads
        // utilization but never loses any. It is not monotonic, though: a
        // crash or transient kill rewinds the busy time pre-credited to a
        // kernel dispatched before this boundary, so a window can see it
        // fall — that window reports zero, not a wrapped difference.
        let utilization: Vec<f64> = proc_stats
            .iter()
            .zip(&mut self.last_busy_ns)
            .map(|(s, last_ns)| {
                let now_ns = (s.busy + s.transfer).as_ns();
                let delta = now_ns.saturating_sub(*last_ns);
                *last_ns = now_ns;
                delta as f64 / span_ns
            })
            .collect();
        let [failures, retries, wasted, down] = self.fault_now;
        let [b_failures, b_retries, b_wasted, b_down] = self.fault_at_boundary;
        let nprocs = self.last_busy_ns.len().max(1);
        let window_down_ns = down - b_down;
        self.fault_at_boundary = self.fault_now;
        let [p50, p90, p99] = quantiles(&self.latency, [0.50, 0.90, 0.99]);
        let [tardiness_p99] = quantiles(&self.tardiness, [0.99]);
        self.snapshots.push(StreamSnapshot {
            end,
            interval: span,
            window_jobs: self.window_jobs,
            total_jobs: self.completed(),
            throughput_jps: self.window_jobs as f64 / span.as_secs_f64(),
            latency_p50_ms: p50,
            latency_p90_ms: p90,
            latency_p99_ms: p99,
            mean_depth: window_integral / span_ns,
            depth_now: self.depth,
            window_missed: self.window_misses,
            total_missed: self.deadline_misses,
            total_deadline_jobs: self.tardiness.count(),
            tardiness_p99_ms: tardiness_p99,
            utilization,
            window_failed: self.window_failed,
            total_failed: self.failed,
            window_kernel_failures: failures - b_failures,
            window_retries: retries - b_retries,
            window_down_ns,
            window_wasted_ns: wasted - b_wasted,
            availability: 1.0 - (window_down_ns as f64 / (nprocs as f64 * span_ns)).min(1.0),
            window_admitted: self.window_admitted,
            window_shed: self.window_shed,
            total_shed: self.shed,
            window_deadline_jobs: self.window_deadline_jobs,
        });
        self.window_jobs = 0;
        self.window_misses = 0;
        self.window_failed = 0;
        self.window_admitted = 0;
        self.window_shed = 0;
        self.window_deadline_jobs = 0;
    }

    /// Close the final **partial** window at stream end: emit one snapshot
    /// covering `(last boundary, now]` so window-driven consumers and the
    /// CSV exporters see the tail of the run. Whole windows still pending
    /// at `now` are flushed first, exactly as by
    /// [`OnlineMetrics::maybe_snapshot`]. A run ending exactly on a window
    /// boundary (or before any time elapsed in the open window) emits no
    /// extra snapshot — the tail would be empty. The partial snapshot's
    /// `interval` is the actual covered span, shorter than the configured
    /// interval; rate-like fields (throughput, utilization, mean depth,
    /// availability) are normalized over it. Returns how many snapshots
    /// were appended, tail included. Terminal: feed no more observations
    /// after flushing.
    pub(crate) fn flush_partial(&mut self, now: SimTime, proc_stats: &[ProcStats]) -> usize {
        let mut emitted = self.maybe_snapshot(now, proc_stats);
        let span = self.interval - self.window_end.saturating_since(now);
        if span.is_zero() {
            return emitted;
        }
        // `maybe_snapshot` advanced the depth integral to `now`; with
        // `now < window_end` nothing spilled, so the open integral is
        // exactly this partial window's share.
        debug_assert!(self.depth_spill.is_empty());
        let window_integral = self.depth_integral;
        self.depth_integral = 0.0;
        self.depth_at = now;
        self.close_window(now, span, window_integral, proc_stats);
        emitted += 1;
        emitted
    }

    /// Snapshots emitted so far, in window order.
    pub(crate) fn snapshots(&self) -> &[StreamSnapshot] {
        &self.snapshots
    }

    /// Take the emitted snapshots, leaving none behind.
    pub(crate) fn take_snapshots(&mut self) -> Vec<StreamSnapshot> {
        std::mem::take(&mut self.snapshots)
    }

    /// End of the currently open window — the earliest instant at which
    /// [`OnlineMetrics::maybe_snapshot`] would emit. Lets callers skip the
    /// (allocating) `proc_stats` snapshot argument on steps that cannot
    /// close a window.
    pub(crate) fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// Jobs admitted into the engine.
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Arrivals shed before entering the system.
    pub(crate) fn shed(&self) -> u64 {
        self.shed
    }

    /// Jobs that ran to completion.
    pub(crate) fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Admitted jobs the failure model shed.
    pub(crate) fn failed(&self) -> u64 {
        self.failed
    }

    /// Kernels retired with their jobs, failed jobs' finished kernels
    /// included.
    pub(crate) fn kernels(&self) -> u64 {
        self.kernels
    }

    /// Completed jobs' end-to-end latency, ms.
    pub(crate) fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Tardiness of completed deadline-carrying jobs, ms (on-time jobs
    /// contribute zero); its count is the miss-rate denominator.
    pub(crate) fn tardiness(&self) -> &LogHistogram {
        &self.tardiness
    }

    /// Mean end-to-end job latency (ms) over the whole run.
    pub(crate) fn mean_latency_ms(&self) -> f64 {
        mean(&self.latency)
    }

    /// Mean tardiness (ms) over deadline-carrying jobs.
    pub(crate) fn mean_tardiness_ms(&self) -> f64 {
        mean(&self.tardiness)
    }

    /// Total λ delay accumulated by every completed job's kernels.
    pub(crate) fn lambda_total(&self) -> SimDuration {
        self.lambda_total
    }

    /// Deadline-carrying jobs that finished tardy.
    pub(crate) fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Fraction of deadline-carrying jobs that missed (0 when none carried
    /// deadlines).
    pub(crate) fn miss_rate(&self) -> f64 {
        match self.tardiness.count() {
            0 => 0.0,
            n => self.deadline_misses as f64 / n as f64,
        }
    }
}

/// Mean of `h`'s samples, 0 while it is empty. The histogram's sum skips
/// zero samples, which adding would leave unchanged anyway.
fn mean(h: &LogHistogram) -> f64 {
    match h.count() {
        0 => 0.0,
        n => h.sum() / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_base::ProcId;
    use apt_dfg::{Kernel, KernelKind, NodeId};
    use apt_hetsim::JobId;

    /// Exact quantile over a slice (nearest-rank), for cross-checking.
    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// `got` is within the histograms' relative error γ of `exact`.
    fn within_gamma(got: f64, exact: f64) -> bool {
        (got - exact).abs() <= HIST_GAMMA * exact * (1.0 + 1e-9)
    }

    /// A retired job arriving at `arrival_ms` whose one kernel ran until
    /// `finish_ms`, with an optional absolute deadline.
    fn job(
        arrival_ms: u64,
        finish_ms: u64,
        deadline_ms: Option<u64>,
        failed: bool,
    ) -> CompletedJob {
        CompletedJob {
            job: JobId(0),
            arrival: SimTime::from_ms(arrival_ms),
            deadline: deadline_ms.map(SimTime::from_ms),
            records: vec![TaskRecord {
                node: NodeId::new(0),
                kernel: Kernel::canonical(KernelKind::Bfs),
                proc: ProcId::new(0),
                alt: false,
                ready: SimTime::from_ms(arrival_ms),
                start: SimTime::from_ms(arrival_ms),
                exec_start: SimTime::from_ms(arrival_ms),
                finish: SimTime::from_ms(finish_ms),
            }],
            failed,
        }
    }

    #[test]
    fn snapshots_cover_windows_and_depth_integral() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 2);
        // One job in flight for the first half of window 1.
        m.observe_depth(SimTime::ZERO, 1);
        m.observe_depth(SimTime::from_ms(50), 0);
        m.observe_job(SimDuration::from_ms(50), SimDuration::from_ms(5));
        let stats = vec![
            ProcStats {
                busy: SimDuration::from_ms(40),
                transfer: SimDuration::from_ms(10),
                kernels: 1,
            },
            ProcStats::default(),
        ];
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        // Nothing new: same instant emits nothing further.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 0);
        let s = &m.snapshots()[0];
        assert_eq!(s.end, SimTime::from_ms(100));
        assert_eq!(s.window_jobs, 1);
        assert_eq!(s.total_jobs, 1);
        assert!((s.throughput_jps - 10.0).abs() < 1e-9);
        assert!((s.mean_depth - 0.5).abs() < 1e-9);
        assert!((s.utilization[0] - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization[1], 0.0);
        assert_eq!(s.depth_now, 0);
        // A big time jump emits one snapshot per elapsed window.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(350), &stats), 2);
        assert_eq!(m.snapshots().len(), 3);
        assert_eq!(m.snapshots()[2].window_jobs, 0);
        assert_eq!(m.lambda_total(), SimDuration::from_ms(5));
        assert!((m.mean_latency_ms() - 50.0).abs() < 1e-9);
    }

    /// A depth observation landing *past* the open window's end must split
    /// its time across the crossed windows: no window's mean depth can
    /// exceed the depth that actually stood during it, and no window's time
    /// is silently zeroed.
    #[test]
    fn depth_integral_splits_at_window_boundaries() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let stats = vec![ProcStats::default()];
        // Depth 1 from t = 0; the next event lands at t = 250 ms, two and a
        // half windows later.
        m.observe_depth(SimTime::ZERO, 1);
        m.observe_depth(SimTime::from_ms(250), 0);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(250), &stats), 2);
        let s = m.snapshots();
        assert!(
            (s[0].mean_depth - 1.0).abs() < 1e-9,
            "window 1: {}",
            s[0].mean_depth
        );
        assert!(
            (s[1].mean_depth - 1.0).abs() < 1e-9,
            "window 2: {}",
            s[1].mean_depth
        );
        // The half-window [200, 250] of depth-1 time stays in the open
        // window and surfaces in window 3.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(300), &stats), 1);
        assert!(
            (m.snapshots()[2].mean_depth - 0.5).abs() < 1e-9,
            "window 3: {}",
            m.snapshots()[2].mean_depth
        );
        // Sanity: boundary-exact closes still work (no spill entry).
        m.observe_depth(SimTime::from_ms(350), 2);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(400), &stats), 1);
        assert!((m.snapshots()[3].mean_depth - 1.0).abs() < 1e-9);
    }

    /// An observation landing exactly ON the open window's boundary must
    /// not spill: the `>` guard keeps the integral in the open window, and
    /// the boundary-exact close path in `maybe_snapshot` drains it by hand.
    #[test]
    fn boundary_exact_depth_observation_does_not_spill() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let stats = vec![ProcStats::default()];
        m.observe_depth(SimTime::ZERO, 2);
        // Exactly at the boundary: whole window at depth 2, no spill entry.
        m.observe_depth(SimTime::from_ms(100), 1);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        assert!((m.snapshots()[0].mean_depth - 2.0).abs() < 1e-9);
        // The following window starts from the new depth.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &stats), 1);
        assert!((m.snapshots()[1].mean_depth - 1.0).abs() < 1e-9);
    }

    /// Deadline accounting: misses land in the window they completed in,
    /// `window_missed` resets per window, cumulative counters and the
    /// tardiness quantiles keep running.
    #[test]
    fn miss_counts_split_per_window() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        let stats = vec![ProcStats::default()];
        // Window 1: two deadline jobs, one tardy.
        m.observe_job(SimDuration::from_ms(40), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::ZERO);
        m.observe_job(SimDuration::from_ms(60), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::from_ms(25));
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        let s = &m.snapshots()[0];
        assert_eq!(s.window_missed, 1);
        assert_eq!(s.total_missed, 1);
        assert_eq!(s.total_deadline_jobs, 2);
        assert!((s.miss_rate() - 0.5).abs() < 1e-9);
        // Window 2: one more miss; window counter restarted.
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::from_ms(5));
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &stats), 1);
        let s = &m.snapshots()[1];
        assert_eq!(s.window_missed, 1);
        assert_eq!(s.total_missed, 2);
        assert_eq!(s.total_deadline_jobs, 3);
        // A multi-window idle gap emits zero-miss windows without
        // disturbing the cumulative counts.
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(450), &stats), 2);
        for s in &m.snapshots()[2..] {
            assert_eq!(s.window_missed, 0);
            assert_eq!(s.total_missed, 2);
        }
        assert_eq!(m.tardiness().count(), 3);
        assert_eq!(m.deadline_misses(), 2);
        assert!((m.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
        // Tardiness quantiles over {0, 25, 5}: within γ of the nearest-rank
        // sample (a zero sample reads back exactly).
        let samples = [0.0, 25.0, 5.0];
        let qs = [0.5, 0.99];
        for (q, got) in qs.into_iter().zip(quantiles(m.tardiness(), qs)) {
            let exact = exact_quantile(&samples, q);
            assert!(within_gamma(got, exact), "q={q}: {got} vs {exact}");
        }
        assert!((m.mean_tardiness_ms() - 10.0).abs() < 1e-9);
    }

    /// Satellite regression: a run ending mid-window flushes the tail as a
    /// partial snapshot whose `interval` is the actual covered span, with
    /// rates normalized over it — and a run ending exactly on a boundary
    /// flushes nothing extra.
    #[test]
    fn flush_partial_emits_the_tail_window_once() {
        let stats = vec![ProcStats {
            busy: SimDuration::from_ms(25),
            transfer: SimDuration::ZERO,
            kernels: 1,
        }];
        // Mid-window end: one full window, then 50 ms of tail at depth 1
        // with one completion.
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.observe_depth(SimTime::ZERO, 1);
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        assert_eq!(
            m.maybe_snapshot(SimTime::from_ms(100), &[ProcStats::default()]),
            1
        );
        m.observe_job(SimDuration::from_ms(20), SimDuration::ZERO);
        assert_eq!(m.flush_partial(SimTime::from_ms(150), &stats), 1);
        let s = m.snapshots().last().unwrap();
        assert_eq!(s.end, SimTime::from_ms(150));
        assert_eq!(s.interval, SimDuration::from_ms(50), "partial span");
        assert_eq!(s.window_jobs, 1);
        assert_eq!(s.total_jobs, 2);
        assert!((s.throughput_jps - 20.0).abs() < 1e-9, "1 job / 50 ms");
        assert!((s.mean_depth - 1.0).abs() < 1e-9);
        assert!((s.utilization[0] - 0.5).abs() < 1e-9, "25 ms busy / 50 ms");
        assert_eq!(s.availability, 1.0);

        // Boundary-exact end: the whole-window snapshot already covered the
        // run; the flush must not append an empty duplicate.
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        assert_eq!(
            m.flush_partial(SimTime::from_ms(200), &[ProcStats::default()]),
            2
        );
        assert_eq!(m.snapshots().len(), 2);
        assert_eq!(m.snapshots()[1].end, SimTime::from_ms(200));
        assert_eq!(m.snapshots()[1].interval, SimDuration::from_ms(100));
        // A zero-duration run has no tail either.
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        assert_eq!(m.flush_partial(SimTime::ZERO, &[ProcStats::default()]), 0);
    }

    /// The admission axis: admitted/shed counts split per window, the
    /// windowed miss/shed rates read from the window's own counters, and
    /// cumulative counts keep running.
    #[test]
    fn admission_counters_split_per_window() {
        let stats = vec![ProcStats::default()];
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        for _ in 0..3 {
            m.observe_job_admitted();
        }
        m.observe_job_shed();
        // One deadline job completes tardy, one on time.
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::from_ms(5));
        m.observe_job(SimDuration::from_ms(10), SimDuration::ZERO);
        m.observe_tardiness(SimDuration::ZERO);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &stats), 1);
        let s = &m.snapshots()[0];
        assert_eq!(s.window_admitted, 3);
        assert_eq!(s.window_shed, 1);
        assert_eq!(s.total_shed, 1);
        assert_eq!(s.window_deadline_jobs, 2);
        assert!((s.window_shed_rate() - 0.25).abs() < 1e-9);
        assert!((s.window_miss_rate() - 0.5).abs() < 1e-9);
        // Next window: counters restarted, cumulative counts kept.
        m.observe_job_shed();
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &stats), 1);
        let s = &m.snapshots()[1];
        assert_eq!(s.window_admitted, 0);
        assert_eq!(s.window_shed, 1);
        assert_eq!(s.total_shed, 2);
        assert_eq!(s.window_deadline_jobs, 0);
        assert_eq!(s.window_miss_rate(), 0.0, "no deadline completions");
        assert_eq!(m.shed(), 2);
        assert_eq!(m.admitted(), 3);
    }

    /// Deadline-free streams never contribute to the SLO counters.
    #[test]
    fn deadline_free_jobs_leave_slo_counters_untouched() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.observe_job(SimDuration::from_ms(40), SimDuration::ZERO);
        assert_eq!(m.tardiness().count(), 0);
        assert_eq!(m.miss_rate(), 0.0);
        assert_eq!(m.mean_tardiness_ms(), 0.0);
        assert_eq!(quantiles(m.tardiness(), [0.5, 0.99]), [0.0; 2]);
        let stats = vec![ProcStats::default()];
        m.maybe_snapshot(SimTime::from_ms(100), &stats);
        assert_eq!(m.snapshots()[0].total_deadline_jobs, 0);
        assert_eq!(m.snapshots()[0].miss_rate(), 0.0);
        assert_eq!(m.snapshots()[0].tardiness_p99_ms, 0.0);
    }

    /// `retire` splits the books: every job's kernels count, a failed job
    /// only in the failure counters, a completed one in the latency
    /// histogram and — when it carries a deadline — the tardiness one.
    #[test]
    fn retire_routes_completed_and_failed_jobs() {
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        m.retire(&job(0, 30, Some(20), false));
        m.retire(&job(0, 10, None, false));
        m.retire(&job(0, 50, Some(100), true));
        assert_eq!(m.completed(), 2);
        assert_eq!(m.failed(), 1);
        assert_eq!(m.kernels(), 3);
        assert_eq!(m.tardiness().count(), 1);
        assert_eq!(m.deadline_misses(), 1);
        assert!((m.mean_latency_ms() - 20.0).abs() < 1e-9);
        assert!((m.mean_tardiness_ms() - 10.0).abs() < 1e-9);
        assert_eq!(m.lambda_total(), SimDuration::ZERO);
    }

    /// A crash can rewind a processor's cumulative busy time across a
    /// window boundary; the window reports zero utilization there, never a
    /// wrapped (or, in debug builds, panicking) difference.
    #[test]
    fn rewound_busy_time_reports_zero_utilization() {
        let busy = |ms| {
            vec![ProcStats {
                busy: SimDuration::from_ms(ms),
                transfer: SimDuration::ZERO,
                kernels: 0,
            }]
        };
        let mut m = OnlineMetrics::new(SimDuration::from_ms(100), 1);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(100), &busy(80)), 1);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(200), &busy(60)), 1);
        assert_eq!(m.maybe_snapshot(SimTime::from_ms(300), &busy(110)), 1);
        let util: Vec<f64> = m.snapshots().iter().map(|s| s.utilization[0]).collect();
        assert!((util[0] - 0.8).abs() < 1e-9);
        assert_eq!(util[1], 0.0);
        assert!((util[2] - 0.5).abs() < 1e-9);
    }
}
