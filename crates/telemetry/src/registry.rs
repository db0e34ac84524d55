//! The metrics registry: named, labeled instruments behind index
//! handles.
//!
//! Instruments are plain fields in a `Vec` — no atomics, no locks, no
//! interior mutability. A hot loop holds `&mut Registry` (or each shard
//! owns its own) and updates through copyable ids in a few
//! instructions; a future per-core shard folds into a global registry
//! with [`Registry::merge`]. The whole registry is `Send`, which is the
//! property the ROADMAP's sharding arc needs.

use crate::hist::LogHistogram;

/// Handle to a registered counter. Only valid for the [`Registry`]
/// (or a [`Registry::merge`]-compatible clone of the registry) that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge. See [`CounterId`] for validity rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram. See [`CounterId`] for validity
/// rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instrument {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

impl Instrument {
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Metric {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) inst: Instrument,
}

/// A registry of counters, gauges and [`LogHistogram`]s.
///
/// Registration is cold-path (linear scan, validated names); updates
/// are hot-path (index + add). Registering the same `(name, labels)`
/// twice with the same instrument kind returns the original handle, so
/// construction helpers can be called idempotently.
///
/// Merge semantics (see [`Registry::merge`]): counters and histogram
/// buckets add; gauges add too — a gauge that is *not* additive across
/// shards (a ratio, a level) should carry a distinguishing label (e.g.
/// `shard="3"`) so shards never collide.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: Vec<Metric>,
}

/// True iff `s` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// True iff `s` is a valid Prometheus label name:
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
pub(crate) fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered instruments (label sets count separately).
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn register(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        inst: Instrument,
    ) -> usize {
        assert!(
            valid_metric_name(name),
            "invalid metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        for (k, _) in labels {
            assert!(
                valid_label_name(k),
                "invalid label name {k:?} on metric {name}"
            );
        }
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        for (i, m) in self.metrics.iter().enumerate() {
            if m.name == name {
                assert!(
                    m.inst.kind() == inst.kind(),
                    "metric {name} re-registered as {} (was {})",
                    inst.kind(),
                    m.inst.kind()
                );
                if m.labels == labels {
                    return i;
                }
            }
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            inst,
        });
        self.metrics.len() - 1
    }

    /// Register (or look up) a counter. Counter names must end in
    /// `_total` — the exposition contract [`crate::validate`] enforces.
    ///
    /// # Panics
    /// On an invalid name, a name not ending in `_total`, or a kind
    /// conflict with an already-registered metric of the same name.
    pub fn counter(&mut self, name: &str, help: &str) -> CounterId {
        self.counter_with_labels(name, help, &[])
    }

    /// [`Registry::counter`] with a label set.
    pub fn counter_with_labels(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> CounterId {
        assert!(
            name.ends_with("_total"),
            "counter {name:?} must end in _total"
        );
        CounterId(self.register(name, help, labels, Instrument::Counter(0)))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str, help: &str) -> GaugeId {
        self.gauge_with_labels(name, help, &[])
    }

    /// [`Registry::gauge`] with a label set.
    pub fn gauge_with_labels(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> GaugeId {
        GaugeId(self.register(name, help, labels, Instrument::Gauge(0.0)))
    }

    /// Register (or look up) a histogram with relative error bound
    /// `gamma` (see [`LogHistogram::new`]).
    pub fn histogram(&mut self, name: &str, help: &str, gamma: f64) -> HistId {
        self.histogram_with_labels(name, help, gamma, &[])
    }

    /// [`Registry::histogram`] with a label set.
    pub fn histogram_with_labels(
        &mut self,
        name: &str,
        help: &str,
        gamma: f64,
        labels: &[(&str, &str)],
    ) -> HistId {
        HistId(self.register(
            name,
            help,
            labels,
            Instrument::Histogram(LogHistogram::new(gamma)),
        ))
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        match &mut self.metrics[id.0].inst {
            Instrument::Counter(v) => *v += n,
            other => unreachable!("CounterId addressed a {}", other.kind()),
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        match &mut self.metrics[id.0].inst {
            Instrument::Gauge(g) => *g = v,
            other => unreachable!("GaugeId addressed a {}", other.kind()),
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: f64) {
        match &mut self.metrics[id.0].inst {
            Instrument::Histogram(h) => h.observe(v),
            other => unreachable!("HistId addressed a {}", other.kind()),
        }
    }

    /// Fold a whole [`LogHistogram`] into a registered histogram, as
    /// [`LogHistogram::merge`] does: publishing a distribution kept
    /// elsewhere costs one merge instead of one observe per sample.
    ///
    /// # Panics
    /// If `h` was built with a different γ than the instrument.
    pub fn merge_histogram(&mut self, id: HistId, h: &LogHistogram) {
        match &mut self.metrics[id.0].inst {
            Instrument::Histogram(mine) => mine.merge(h),
            other => unreachable!("HistId addressed a {}", other.kind()),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.metrics[id.0].inst {
            Instrument::Counter(v) => *v,
            other => unreachable!("CounterId addressed a {}", other.kind()),
        }
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        match &self.metrics[id.0].inst {
            Instrument::Gauge(g) => *g,
            other => unreachable!("GaugeId addressed a {}", other.kind()),
        }
    }

    /// The histogram behind a handle.
    pub fn histogram_ref(&self, id: HistId) -> &LogHistogram {
        match &self.metrics[id.0].inst {
            Instrument::Histogram(h) => h,
            other => unreachable!("HistId addressed a {}", other.kind()),
        }
    }

    /// Look up a counter's value by name and (sorted or unsorted)
    /// label set, for assertions and exporters that never held the id.
    pub fn counter_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels).and_then(|m| match &m.inst {
            Instrument::Counter(v) => Some(*v),
            _ => None,
        })
    }

    /// Look up a gauge's value by name and label set.
    pub fn gauge_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).and_then(|m| match &m.inst {
            Instrument::Gauge(g) => Some(*g),
            _ => None,
        })
    }

    /// Look up a histogram by name and label set.
    pub fn histogram_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LogHistogram> {
        self.find(name, labels).and_then(|m| match &m.inst {
            Instrument::Histogram(h) => Some(h),
            _ => None,
        })
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    pub(crate) fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Fold `other` into `self`: counters add, histograms merge
    /// bucket-wise, gauges add (shard-label non-additive gauges — see
    /// the type-level docs). Metrics present only in `other` are
    /// appended. The result is independent of merge order up to
    /// instrument *ordering*; rendered exposition (which sorts) is
    /// fully order-independent, which is what the associativity and
    /// commutativity proptests pin.
    ///
    /// # Panics
    /// If the same `(name, labels)` is registered with different
    /// instrument kinds, or histograms with different γ.
    pub fn merge(&mut self, other: &Registry) {
        for om in &other.metrics {
            let existing = self
                .metrics
                .iter_mut()
                .find(|m| m.name == om.name && m.labels == om.labels);
            match existing {
                None => self.metrics.push(om.clone()),
                Some(m) => match (&mut m.inst, &om.inst) {
                    (Instrument::Counter(a), Instrument::Counter(b)) => *a += *b,
                    (Instrument::Gauge(a), Instrument::Gauge(b)) => *a += *b,
                    (Instrument::Histogram(a), Instrument::Histogram(b)) => a.merge(b),
                    (a, b) => panic!(
                        "merge kind conflict on {}: {} vs {}",
                        m.name,
                        a.kind(),
                        b.kind()
                    ),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        let c = r.counter("jobs_total", "jobs seen");
        r.inc(c);
        r.add(c, 4);
        assert_eq!(r.counter_value(c), 5);
        assert_eq!(r.counter_named("jobs_total", &[]), Some(5));
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("jobs_total", "jobs seen");
        let b = r.counter("jobs_total", "jobs seen");
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn label_sets_are_distinct_instruments() {
        let mut r = Registry::new();
        let a = r.counter_with_labels("phase_ns_total", "ns", &[("phase", "decide")]);
        let b = r.counter_with_labels("phase_ns_total", "ns", &[("phase", "apply")]);
        assert_ne!(a, b);
        r.add(a, 10);
        r.add(b, 20);
        assert_eq!(
            r.counter_named("phase_ns_total", &[("phase", "decide")]),
            Some(10)
        );
        assert_eq!(
            r.counter_named("phase_ns_total", &[("phase", "apply")]),
            Some(20)
        );
    }

    #[test]
    fn label_order_is_canonicalized() {
        let mut r = Registry::new();
        let a = r.gauge_with_labels("depth", "d", &[("a", "1"), ("b", "2")]);
        let b = r.gauge_with_labels("depth", "d", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must end in _total")]
    fn counters_require_total_suffix() {
        Registry::new().counter("jobs", "nope");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_rejected() {
        Registry::new().gauge("0bad", "nope");
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflicts_rejected() {
        let mut r = Registry::new();
        r.gauge("x_total", "as gauge");
        r.counter("x_total", "as counter");
    }

    #[test]
    fn merge_histogram_folds_into_the_instrument() {
        let mut r = Registry::new();
        let id = r.histogram("latency_ms", "latency", 0.01);
        r.observe(id, 3.0);
        let mut h = LogHistogram::new(0.01);
        let mut both = LogHistogram::new(0.01);
        both.observe(3.0);
        for v in [0.0, 1.5, 40.0] {
            h.observe(v);
            both.observe(v);
        }
        r.merge_histogram(id, &h);
        assert_eq!(r.histogram_ref(id), &both);
    }

    #[test]
    #[should_panic(expected = "different gamma")]
    fn merge_histogram_rejects_gamma_mismatch() {
        let mut r = Registry::new();
        let id = r.histogram("latency_ms", "latency", 0.01);
        r.merge_histogram(id, &LogHistogram::new(0.02));
    }

    #[test]
    fn merge_adds_and_appends() {
        let mut a = Registry::new();
        let ca = a.counter("jobs_total", "jobs");
        a.add(ca, 3);
        let ga = a.gauge("alpha", "live alpha");
        a.set(ga, 2.0);

        let mut b = Registry::new();
        let cb = b.counter("jobs_total", "jobs");
        b.add(cb, 4);
        let hb = b.histogram("latency_ms", "latency", 0.01);
        b.observe(hb, 5.0);

        a.merge(&b);
        assert_eq!(a.counter_named("jobs_total", &[]), Some(7));
        assert_eq!(a.gauge_named("alpha", &[]), Some(2.0));
        let h = a
            .metrics()
            .iter()
            .find(|m| m.name == "latency_ms")
            .expect("histogram appended");
        match &h.inst {
            Instrument::Histogram(h) => assert_eq!(h.count(), 1),
            _ => panic!("wrong kind"),
        }
    }
}
