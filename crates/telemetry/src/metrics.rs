//! Process-wide metrics: counters, gauges, fixed-bucket histograms, and
//! Prometheus text-exposition rendering (format version 0.0.4).
//!
//! The [`Registry`] is a name → family map; each family owns one kind
//! (counter/gauge/histogram), a help string, and one metric per distinct
//! label set. Handles are `Arc`s, so call sites look a metric up once
//! and bump lock-free atomics afterwards. [`global`] is the process-wide
//! registry every subsystem records into; the daemon's `/metrics`
//! endpoint renders it on each scrape.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default latency-histogram bucket bounds, in seconds: 10 µs … 10 s,
/// roughly ×2.5 per step. This is the single shared layout for every
/// latency family (job/phase duration, queue wait) — after the PR 8
/// kernel speedups, warm Grover-class phases finish in well under a
/// millisecond, so the sub-100 µs tiers are what keep the phase
/// histograms informative.
pub const DEFAULT_LATENCY_BOUNDS: [f64; 15] = [
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1,
    0.5, 2.5, 10.0,
];

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Mirrors an externally-maintained monotone total (e.g. `CacheStats`
    /// hit counts owned by the cache itself): the stored value only moves
    /// forward.
    pub fn record_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: cumulative-on-render bucket counts, a sum,
/// and a count, all lock-free. Bounds are upper bucket edges in
/// ascending order; an implicit `+Inf` bucket catches the tail.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot; **not**
    /// cumulative in storage (cumulated when rendered/snapshotted).
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A point-in-time copy of a histogram's state, with Prometheus-style
/// cumulative bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (without `+Inf`).
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound, then the `+Inf` total as last entry.
    pub cumulative: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Interpolated quantile estimate for `q` in `[0, 1]`.
    ///
    /// Finds the bucket the target rank `q·count` lands in and
    /// interpolates linearly between that bucket's lower and upper
    /// bound (the first bucket's lower bound is 0, which is exact for
    /// the latency/ratio families — both measure non-negative values).
    /// Mass that lands in the implicit `+Inf` bucket clamps to the top
    /// finite bound: the histogram carries no information past it, and
    /// a bounded over-estimate beats a fabricated one. An empty
    /// snapshot yields 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &cum) in self.cumulative.iter().enumerate() {
            if (cum as f64) >= rank && cum > below {
                if i >= self.bounds.len() {
                    break; // +Inf bucket → clamp below
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let frac = ((rank - below as f64) / (cum - below) as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
            below = cum;
        }
        *self.bounds.last().expect("bounds checked non-empty")
    }
}

impl Histogram {
    /// Creates a histogram over `bounds` (must be finite, strictly
    /// ascending; panics otherwise — bucket layouts are compile-time
    /// decisions, not data).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation. `NaN` is ignored (it has no bucket and
    /// would poison the sum).
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Folds another histogram's counts into this one. Panics on
    /// mismatched bucket layouts — merging across layouts is a logic
    /// error, not a runtime condition.
    pub fn merge_from(&self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let add = f64::from_bits(other.sum_bits.load(Ordering::Relaxed));
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Point-in-time snapshot with cumulative buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for b in &self.buckets {
            running += b.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            cumulative,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time value of one series inside a family; see
/// [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state (cumulative buckets).
    Histogram(HistogramSnapshot),
}

/// One `(family, label set)` series captured by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name (`nqpv_jobs_completed_total`, …).
    pub name: String,
    /// Rendered label block (`{k="v",…}`; empty for no labels), exactly
    /// as the exposition format prints it — a stable series key.
    pub labels: String,
    /// The value at snapshot time.
    pub value: SampleValue,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    /// Rendered label block (`{k="v",…}` or empty) → metric.
    metrics: BTreeMap<String, Metric>,
}

/// A named collection of metric families; see the module docs.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter `name{labels}`. Panics if `name` is
    /// already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' already registered as {}", other.kind()),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' already registered as {}", other.kind()),
        }
    }

    /// Gets or creates the histogram `name{labels}` over `bounds` (the
    /// bounds of the first creation win).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let make = || Metric::Histogram(Arc::new(Histogram::new(bounds)));
        match self.get_or_insert(name, help, labels, make) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' already registered as {}", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = render_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            metrics: BTreeMap::new(),
        });
        let metric = family.metrics.entry(key).or_insert_with(make);
        match metric {
            Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
            Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
            Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
        }
    }

    /// Renders every family in Prometheus text-exposition format 0.0.4:
    /// `# HELP` / `# TYPE` headers, then one sample line per metric (or
    /// the `_bucket`/`_sum`/`_count` triplet per histogram), families and
    /// label sets in stable sorted order.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = family
                .metrics
                .values()
                .next()
                .map(Metric::kind)
                .unwrap_or("untyped");
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, metric) in &family.metrics {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        for (i, bound) in snap.bounds.iter().enumerate() {
                            out.push_str(&format!(
                                "{name}_bucket{} {}\n",
                                with_label(labels, "le", &fmt_f64(*bound)),
                                snap.cumulative[i]
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            with_label(labels, "le", "+Inf"),
                            snap.cumulative.last().copied().unwrap_or(0)
                        ));
                        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(snap.sum)));
                        out.push_str(&format!("{name}_count{labels} {}\n", snap.count));
                    }
                }
            }
        }
        out
    }

    /// Structured point-in-time copy of every series, in the same
    /// stable `(family, label set)` order the text exposition uses.
    /// This is what the [`crate::series`] ring diffs between ticks —
    /// scraping text and re-parsing it would be absurd in-process.
    pub fn snapshot(&self) -> Vec<Sample> {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, metric) in &family.metrics {
                let value = match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                };
                out.push(Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Renders a label set as `{k="v",…}` (empty string for no labels), with
/// exposition-format value escaping.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Inserts one extra label (histograms' `le`) into an already-rendered
/// label block.
fn with_label(rendered: &str, key: &str, value: &str) -> String {
    let extra = format!("{key}=\"{}\"", escape_label_value(value));
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

/// Label values escape backslash, double-quote, and newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Help text escapes backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Prometheus float rendering: Rust's shortest round-trip decimal is
/// valid exposition-format for every finite value; `+Inf` never reaches
/// this (handled at the call site).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total", "Jobs.", &[("status", "ok")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = reg.gauge("depth", "Queue depth.", &[]);
        g.set(-4);
        let text = reg.render();
        assert!(text.contains("# HELP depth Queue depth.\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth -4\n"));
        assert!(text.contains("# TYPE jobs_total counter\n"));
        assert!(text.contains("jobs_total{status=\"ok\"} 3\n"));
    }

    #[test]
    fn counter_record_total_is_monotone() {
        let c = Counter::default();
        c.record_total(10);
        c.record_total(7); // external totals never regress; ignore
        assert_eq!(c.get(), 10);
        c.record_total(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        h.observe(0.05); // → le 0.1
        h.observe(0.1); // boundary is inclusive → le 0.1
        h.observe(0.5); // → le 1.0
        h.observe(100.0); // → +Inf
        h.observe(f64::NAN); // ignored
        let s = h.snapshot();
        assert_eq!(s.cumulative, vec![2, 3, 3, 4]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 100.65).abs() < 1e-9, "{}", s.sum);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(5.0);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.cumulative, vec![1, 2, 3]);
        assert_eq!(s.count, 3);
        assert!((s.sum - 7.0).abs() < 1e-9);
        // The source is unchanged.
        assert_eq!(b.snapshot().count, 2);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge_from(&b);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn histogram_renders_prometheus_triplet() {
        let reg = Registry::new();
        let h = reg.histogram(
            "latency_seconds",
            "Latency.",
            &[("phase", "wp")],
            &[0.5, 2.5],
        );
        h.observe(0.1);
        h.observe(3.0);
        let text = reg.render();
        assert!(text.contains("# TYPE latency_seconds histogram\n"));
        assert!(text.contains("latency_seconds_bucket{phase=\"wp\",le=\"0.5\"} 1\n"));
        assert!(text.contains("latency_seconds_bucket{phase=\"wp\",le=\"2.5\"} 1\n"));
        assert!(text.contains("latency_seconds_bucket{phase=\"wp\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("latency_seconds_sum{phase=\"wp\"} 3.1\n"));
        assert!(text.contains("latency_seconds_count{phase=\"wp\"} 2\n"));
    }

    #[test]
    fn label_and_help_escaping() {
        let reg = Registry::new();
        reg.counter(
            "weird_total",
            "Help with \\ backslash\nand newline.",
            &[("path", "a\\b \"quoted\"\nnl")],
        )
        .inc();
        let text = reg.render();
        assert!(
            text.contains("# HELP weird_total Help with \\\\ backslash\\nand newline.\n"),
            "{text}"
        );
        assert!(
            text.contains("weird_total{path=\"a\\\\b \\\"quoted\\\"\\nnl\"} 1\n"),
            "{text}"
        );
        // Exactly one physical line per sample: escaping kept newlines out.
        let sample_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("weird_total{"))
            .collect();
        assert_eq!(sample_lines.len(), 1);
    }

    #[test]
    fn shared_latency_bounds_resolve_sub_millisecond_phases() {
        // The re-tiered layout must be valid histogram bounds and keep
        // several tiers under 1 ms so warm phases don't all pile into
        // one bucket.
        let h = Histogram::new(&DEFAULT_LATENCY_BOUNDS);
        let sub_ms = DEFAULT_LATENCY_BOUNDS
            .iter()
            .filter(|&&b| b < 0.001)
            .count();
        assert!(sub_ms >= 5, "only {sub_ms} sub-ms tiers");
        h.observe(0.00003); // a 30 µs warm phase has its own bucket
        let s = h.snapshot();
        assert_eq!(s.cumulative[1], 0);
        assert_eq!(s.cumulative[2], 1);
    }

    #[test]
    fn quantile_exact_on_single_bucket_mass() {
        // All mass in one bucket: every quantile stays inside that
        // bucket, and q=1 hits its upper bound exactly.
        let h = Histogram::new(&[1.0, 2.0, 3.0]);
        for _ in 0..10 {
            h.observe(1.5);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), 2.0);
        for q in [0.1, 0.5, 0.9] {
            let v = s.quantile(q);
            assert!((1.0..=2.0).contains(&v), "q={q} → {v}");
        }
        // Uniform interpolation within the bucket.
        assert!((s.quantile(0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates_mid_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5); // le 1.0
        h.observe(1.1); // le 2.0
        h.observe(1.2); // le 2.0
        h.observe(1.3); // le 2.0
        let s = h.snapshot();
        // rank(0.75) = 3 → 2 of the 3 observations in (1,2] are below
        // it → 1 + (3-1)/3 of the bucket width.
        let p75 = s.quantile(0.75);
        assert!((p75 - (1.0 + 2.0 / 3.0)).abs() < 1e-12, "{p75}");
        // rank(0.25) = 1 → exactly the first bucket's full mass → its
        // upper bound.
        assert!((s.quantile(0.25) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_inf_bucket_clamps_to_top_finite_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(50.0); // +Inf bucket
        h.observe(60.0); // +Inf bucket
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), 2.0);
        assert_eq!(s.quantile(1.0), 2.0);
        // Empty snapshot is 0, not NaN.
        assert_eq!(Histogram::new(&[1.0]).snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn registry_snapshot_is_structured_and_ordered() {
        let reg = Registry::new();
        reg.counter("b_total", "B.", &[("k", "v")]).add(7);
        reg.gauge("a_gauge", "A.", &[]).set(-2);
        reg.histogram("c_seconds", "C.", &[], &[1.0]).observe(0.5);
        let samples = reg.snapshot();
        let keys: Vec<(&str, &str)> = samples
            .iter()
            .map(|s| (s.name.as_str(), s.labels.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("a_gauge", ""), ("b_total", "{k=\"v\"}"), ("c_seconds", ""),]
        );
        assert_eq!(samples[0].value, SampleValue::Gauge(-2));
        assert_eq!(samples[1].value, SampleValue::Counter(7));
        match &samples[2].value {
            SampleValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn same_name_same_labels_returns_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "X.", &[("k", "v")]);
        let b = reg.counter("x_total", "X.", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1);
        // Different labels → different series under one family.
        let c = reg.counter("x_total", "X.", &[("k", "w")]);
        assert_eq!(c.get(), 0);
        let text = reg.render();
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
    }
}
