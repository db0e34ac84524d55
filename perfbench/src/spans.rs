//! Timing spans for the traced run.
//!
//! Each wrapper here implements one of the simulator's public traits
//! (`Source`, `Policy`, `AdmissionGate`, `Controller`, `TraceSink`) by
//! forwarding to the real implementation between two clock reads. The
//! spans never nest (the driver calls each layer from its own loop), so a
//! layer's self time is its span time less the clock cost inside it, and
//! the driver/engine self time is the root span less every layer span and
//! every clock read. Aggregates live in one thread-local table, in
//! memory, and are read out once the run ends.

use apt_base::SimTime;
use apt_control::{ControlAction, Controller};
use apt_hetsim::{AssignmentBuf, Policy, PolicyKind, PrepareCtx, SimView};
use apt_metrics::StreamSnapshot;
use apt_stream::{AdmissionGate, AdmitRequest, CompletedJob, JobTemplate, Source};
use apt_trace::{TraceEvent, TraceSink};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Source::next_job`.
    Source,
    /// `Policy::decide`.
    Decide,
    /// `Policy::prepare`.
    Prepare,
    /// `AdmissionGate::admit` and `on_complete`.
    Gate,
    /// `Controller::on_window`.
    Controller,
    /// `TraceSink::record`.
    Sink,
    /// The benchmark's own completion observer (the schedule digest).
    Observer,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Source,
        Layer::Decide,
        Layer::Prepare,
        Layer::Gate,
        Layer::Controller,
        Layer::Sink,
        Layer::Observer,
    ];
}

/// Span aggregates of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Spans recorded per layer (indexed like [`Layer::ALL`]).
    pub calls: [u64; 7],
    /// Raw span nanoseconds per layer, clock cost included.
    pub ns: [u64; 7],
    /// `decide` calls that assigned nothing.
    pub decide_empty: u64,
    /// `admit` calls, and those that shed the job.
    pub gate_admits: u64,
    pub gate_sheds: u64,
    /// Actions the controller emitted.
    pub controller_actions: u64,
}

impl Spans {
    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l as usize]
    }

    pub fn ns(&self, l: Layer) -> u64 {
        self.ns[l as usize]
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn add(&mut self, o: &Spans) {
        for i in 0..self.calls.len() {
            self.calls[i] += o.calls[i];
            self.ns[i] += o.ns[i];
        }
        self.decide_empty += o.decide_empty;
        self.gate_admits += o.gate_admits;
        self.gate_sheds += o.gate_sheds;
        self.controller_actions += o.controller_actions;
    }
}

thread_local! {
    static SPANS: RefCell<Spans> = RefCell::new(Spans::default());
}

/// Clear the table before a traced rep.
pub fn reset() {
    SPANS.with(|s| *s.borrow_mut() = Spans::default());
}

/// The table as the traced rep left it.
pub fn take() -> Spans {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

#[inline]
fn close(layer: Layer, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.calls[layer as usize] += 1;
        s.ns[layer as usize] += ns;
    });
}

#[inline]
fn bump(f: impl FnOnce(&mut Spans)) {
    SPANS.with(|s| f(&mut s.borrow_mut()));
}

/// What one span costs, from a calibration loop of empty spans through
/// the same bookkeeping the wrappers use.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockCost {
    /// Clock time inside a span's own interval: charged to the layer by
    /// the raw measurement, so it is subtracted from the layer.
    pub inner_ns: f64,
    /// Whole cost of one span as seen from the root.
    pub per_span_ns: f64,
}

impl ClockCost {
    /// Median of several batches of empty spans.
    pub fn calibrate() -> ClockCost {
        const BATCH: u32 = 100_000;
        let mut inner = Vec::new();
        let mut outer = Vec::new();
        for _ in 0..9 {
            reset();
            let t = Instant::now();
            for _ in 0..BATCH {
                let s = Instant::now();
                std::hint::black_box(());
                close(Layer::Observer, s);
            }
            let total = t.elapsed();
            inner.push(take().ns(Layer::Observer) as f64 / f64::from(BATCH));
            outer.push(total.as_nanos() as f64 / f64::from(BATCH));
        }
        ClockCost {
            inner_ns: crate::median(inner),
            per_span_ns: crate::median(outer),
        }
    }

    /// Self time of one layer: its raw span time less the clock time
    /// inside each span.
    pub fn self_ns(&self, spans: &Spans, layer: Layer) -> f64 {
        (spans.ns(layer) as f64 - spans.calls(layer) as f64 * self.inner_ns).max(0.0)
    }

    /// Root span time not covered by any layer's self time or by the
    /// spans' own cost: the driver's (or engine's) self time.
    pub fn remainder_ns(&self, spans: &Spans, root: Duration) -> f64 {
        let layers: f64 = Layer::ALL.iter().map(|&l| self.self_ns(spans, l)).sum();
        root.as_nanos() as f64 - layers - spans.total_calls() as f64 * self.per_span_ns
    }
}

/// Times `observe` as the [`Layer::Observer`] span.
pub fn observed(mut observe: impl FnMut(&CompletedJob)) -> impl FnMut(&CompletedJob) {
    move |job| {
        let t = Instant::now();
        observe(job);
        close(Layer::Observer, t);
    }
}

pub struct TimedSource<'s>(pub &'s mut dyn Source);

impl Source for TimedSource<'_> {
    fn next_job(&mut self) -> Option<(SimTime, JobTemplate)> {
        let t = Instant::now();
        let job = self.0.next_job();
        close(Layer::Source, t);
        job
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.0.remaining_hint()
    }
}

pub struct TimedPolicy<'p>(pub &'p mut dyn Policy);

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn kind(&self) -> PolicyKind {
        self.0.kind()
    }

    fn prepare(&mut self, ctx: PrepareCtx<'_>) -> Result<(), apt_base::BaseError> {
        let t = Instant::now();
        let r = self.0.prepare(ctx);
        close(Layer::Prepare, t);
        r
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut AssignmentBuf) {
        let t = Instant::now();
        self.0.decide(view, out);
        close(Layer::Decide, t);
        if out.is_empty() {
            bump(|s| s.decide_empty += 1);
        }
    }

    fn alpha(&self) -> Option<f64> {
        self.0.alpha()
    }

    fn set_alpha(&mut self, alpha: f64) -> bool {
        self.0.set_alpha(alpha)
    }

    fn switch_to(&mut self, index: usize) -> bool {
        self.0.switch_to(index)
    }
}

pub struct TimedGate<'g>(pub &'g mut dyn AdmissionGate);

impl AdmissionGate for TimedGate<'_> {
    fn admit(&mut self, req: &AdmitRequest<'_>) -> bool {
        let t = Instant::now();
        let admitted = self.0.admit(req);
        close(Layer::Gate, t);
        bump(|s| {
            s.gate_admits += 1;
            s.gate_sheds += u64::from(!admitted);
        });
        admitted
    }

    fn on_complete(&mut self, job: &CompletedJob) {
        let t = Instant::now();
        self.0.on_complete(job);
        close(Layer::Gate, t);
    }

    fn set_utilization_bound(&mut self, bound: f64) -> bool {
        self.0.set_utilization_bound(bound)
    }

    fn utilization_bound(&self) -> Option<f64> {
        self.0.utilization_bound()
    }
}

pub struct TimedController<'c>(pub &'c mut dyn Controller);

impl Controller for TimedController<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn on_window(&mut self, snapshot: &StreamSnapshot, out: &mut Vec<ControlAction>) {
        let before = out.len();
        let t = Instant::now();
        self.0.on_window(snapshot, out);
        close(Layer::Controller, t);
        let emitted = (out.len() - before) as u64;
        bump(|s| s.controller_actions += emitted);
    }
}

pub struct TimedSink(pub Box<dyn TraceSink>);

impl TraceSink for TimedSink {
    fn record(&mut self, ev: TraceEvent) {
        let t = Instant::now();
        self.0.record(ev);
        close(Layer::Sink, t);
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.0.snapshot()
    }

    fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
