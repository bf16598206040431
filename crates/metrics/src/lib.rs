//! Live operational metrics for the Newton reproduction.
//!
//! The telemetry [`Journal`](../newton_telemetry) answers *what the model
//! did* — deterministically, keyed by modeled time. This crate answers
//! *how the service is doing right now*: wall-clock latencies, queue
//! occupancies, cache hit rates, process RSS. Everything here is
//! explicitly nondeterministic and lives strictly outside the journal;
//! the suite pins that the journal's bytes are identical with a registry
//! attached or not.
//!
//! ## Design
//!
//! * [`MetricsRegistry`] is a cheap-to-clone handle to a shared registry.
//!   **Registration** (naming a metric) takes a mutex; **updates** through
//!   the returned handles are single atomic instructions, lock-free and
//!   wait-free — safe to call from worker pools, producer threads, and
//!   connection threads concurrently.
//! * Handles ([`Counter`], [`Gauge`], [`MaxGauge`], [`Histogram`]) wrap an
//!   `Option<Arc<..>>`. A `Default` handle is detached (`None`): every
//!   update is a no-op, so an uninstrumented layer pays one pointer test
//!   per update site.
//! * [`Histogram`] buckets by `log2(value)`: 65 buckets cover the full
//!   `u64` range, bucket `i > 0` holding values in `[2^(i-1), 2^i)` and
//!   bucket 0 holding zeros. Counts, the value sum, and the exact maximum
//!   are all `u64` atomics — no floating point, no decay.
//!
//! Quantiles (p50/p90/p99) come from the bucket CDF: the reported value
//! is the upper bound of the bucket containing the target rank, clamped
//! to the exact tracked maximum. For identical observations this is
//! exact; for mixed observations it is an upper estimate within 2x, which
//! is the usual log-bucket contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// What a metric is, for rendering. `MaxGauge` renders as a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// A monotonically increasing counter. The `Default` counter is detached:
/// every update is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrite with a cumulative total maintained elsewhere (mirroring
    /// an existing monotonic stats struct into the registry). The caller
    /// guarantees monotonicity; the registry does not re-check it.
    #[inline]
    pub fn store_total(&self, total: u64) {
        if let Some(c) = &self.0 {
            c.store(total, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge that can move both ways. Stored as `u64`; `sub` saturates at
/// zero so a racy dec-before-inc interleaving cannot wrap.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(g) = &self.0 {
            let _ =
                g.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A gauge that only ratchets upward — high-water marks (peak RSS,
/// deepest queue seen).
#[derive(Debug, Clone, Default)]
pub struct MaxGauge(Option<Arc<AtomicU64>>);

impl MaxGauge {
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Shared storage of one histogram: 65 log2 bucket counts, the value sum,
/// and the exact maximum. All plain `u64` atomics, so concurrent
/// observers never lose an update.
#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCore {
    fn default() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`0`, then `2^i - 1`, capped at
/// `u64::MAX`).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A log2-bucketed histogram of `u64` observations (latencies in
/// nanoseconds, sizes in bytes).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistCore>>);

impl Histogram {
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(h) => HistogramSnapshot {
                buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                sum: h.sum.load(Ordering::Relaxed),
                max: h.max.load(Ordering::Relaxed),
            },
        }
    }
}

/// A point-in-time copy of a histogram's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest observation,
    /// clamped to the exact maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// The value half of one registry entry.
#[derive(Debug, Clone)]
enum Slot {
    Scalar(Arc<AtomicU64>),
    Hist(Arc<HistCore>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    kind: Kind,
    slot: Slot,
}

/// A metric's rendered value in [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(Box<HistogramSnapshot>),
}

/// One metric in a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    pub name: String,
    pub help: String,
    pub value: MetricValue,
}

/// A shared, lock-free-on-update registry of named metrics.
///
/// Cloning is cheap (one `Arc`). Registration is idempotent by name: two
/// layers asking for the same counter get handles to the same storage,
/// which is what makes repeated `run`s and re-wirings safe.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn scalar(&self, name: &str, help: &str, kind: Kind) -> Arc<AtomicU64> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.slot {
                Slot::Scalar(c) => return Arc::clone(c),
                Slot::Hist(_) => panic!("metric {name:?} already registered as a histogram"),
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            slot: Slot::Scalar(Arc::clone(&cell)),
        });
        cell
    }

    /// Register (or re-fetch) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        Counter(Some(self.scalar(name, help, Kind::Counter)))
    }

    /// Register (or re-fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        Gauge(Some(self.scalar(name, help, Kind::Gauge)))
    }

    /// Register (or re-fetch) a high-water-mark gauge.
    pub fn max_gauge(&self, name: &str, help: &str) -> MaxGauge {
        MaxGauge(Some(self.scalar(name, help, Kind::Gauge)))
    }

    /// Register (or re-fetch) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.slot {
                Slot::Hist(h) => return Histogram(Some(Arc::clone(h))),
                Slot::Scalar(_) => panic!("metric {name:?} already registered as a scalar"),
            }
        }
        let core = Arc::new(HistCore::default());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Histogram,
            slot: Slot::Hist(Arc::clone(&core)),
        });
        Histogram(Some(core))
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                value: match (&e.slot, e.kind) {
                    (Slot::Scalar(c), Kind::Counter) => {
                        MetricValue::Counter(c.load(Ordering::Relaxed))
                    }
                    (Slot::Scalar(c), _) => MetricValue::Gauge(c.load(Ordering::Relaxed)),
                    (Slot::Hist(h), _) => MetricValue::Histogram(Box::new(HistogramSnapshot {
                        buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                        sum: h.sum.load(Ordering::Relaxed),
                        max: h.max.load(Ordering::Relaxed),
                    })),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Current value of a scalar metric, for tests and gates.
    pub fn value(&self, name: &str) -> Option<u64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().find(|e| e.name == name).and_then(|e| match &e.slot {
            Slot::Scalar(c) => Some(c.load(Ordering::Relaxed)),
            Slot::Hist(_) => None,
        })
    }

    /// Snapshot of a histogram metric, for tests and gates.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().find(|e| e.name == name).and_then(|e| match &e.slot {
            Slot::Hist(h) => Some(HistogramSnapshot {
                buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                sum: h.sum.load(Ordering::Relaxed),
                max: h.max.load(Ordering::Relaxed),
            }),
            Slot::Scalar(_) => None,
        })
    }

    /// Render the registry in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` per metric, cumulative (`le`-labelled) buckets
    /// plus `_sum` / `_count` per histogram. Bucket counts are cumulative
    /// and therefore monotone by construction; only populated bucket
    /// boundaries (plus `+Inf`) are emitted to keep the 65-bucket range
    /// readable.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in self.snapshot() {
            let name = sanitize_name(&m.name);
            let _ = writeln!(out, "# HELP {name} {}", m.help.replace('\n', " "));
            match m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let last = h.buckets.iter().rposition(|&n| n > 0);
                    let mut cum = 0u64;
                    if let Some(last) = last {
                        for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
                            cum += n;
                            let _ =
                                writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper(i));
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {cum}");
                }
            }
        }
        out
    }

    /// Render the registry as one JSON object — the same shape the
    /// `newtond` `metrics` op returns (counters, gauges, and histograms
    /// with quantiles), hand-rolled so benches and examples can dump it
    /// without a JSON dependency.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.snapshot();
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for m in &snap {
            if let MetricValue::Counter(v) = m.value {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{v}", m.name);
            }
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for m in &snap {
            if let MetricValue::Gauge(v) = m.value {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{v}", m.name);
            }
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for m in &snap {
            if let MetricValue::Histogram(h) = &m.value {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\
                     \"p99\":{}}}",
                    m.name,
                    h.count(),
                    h.sum,
                    h.max,
                    h.p50(),
                    h.p90(),
                    h.p99()
                );
            }
        }
        out.push_str("}}");
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else to
/// `_` (registry names use `.` and `-` freely).
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable. Poll it into a
/// [`MaxGauge`] to track a live high-water mark instead of a single
/// end-of-run read.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound stays in its bucket");
        }
    }

    #[test]
    fn counters_gauges_and_max_gauges_update_atomically() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.value("c"), Some(5));
        // Idempotent registration: same storage.
        reg.counter("c", "a counter").add(1);
        assert_eq!(c.get(), 6);
        let g = reg.gauge("g", "a gauge");
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.sub(10);
        assert_eq!(g.get(), 0, "gauge sub saturates at zero");
        let m = reg.max_gauge("m", "a high-water mark");
        m.observe(7);
        m.observe(3);
        assert_eq!(m.get(), 7);
    }

    #[test]
    fn noop_handles_cost_nothing_and_report_zero() {
        let c = Counter::default();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = Histogram::default();
        h.observe(10);
        assert_eq!(h.snapshot().count(), 0);
        let g = Gauge::default();
        g.add(1);
        assert_eq!(g.get(), 0);
        let m = MaxGauge::default();
        m.observe(1);
        assert_eq!(m.get(), 0);
    }

    #[test]
    fn histogram_quantiles_are_exact_for_known_sequences() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency");
        // 100 observations of 100ns: every quantile is exactly 100
        // (bucket upper bound 127 clamps to the tracked max).
        for _ in 0..100 {
            h.observe(100);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 10_000);
        assert_eq!(s.max, 100);
        assert_eq!((s.p50(), s.p90(), s.p99()), (100, 100, 100));

        // 90 fast + 10 slow: p50/p90 land in the fast bucket, p99 in the
        // slow one.
        let h2 = reg.histogram("lat2", "latency");
        for _ in 0..90 {
            h2.observe(100);
        }
        for _ in 0..10 {
            h2.observe(100_000);
        }
        let s = h2.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), 127, "p50 is the fast bucket's upper bound");
        assert_eq!(s.p90(), 127, "rank 90 is still inside the fast bucket");
        assert_eq!(s.p99(), 100_000, "p99 reaches the slow bucket, clamped to max");
        assert_eq!(s.quantile(1.0), 100_000);
        assert_eq!(HistogramSnapshot::default().p50(), 0, "empty histogram quantiles are 0");
    }

    #[test]
    fn updates_are_safe_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t", "");
        let h = reg.histogram("th", "");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count(), 4000);
        assert_eq!(h.snapshot().max, 999);
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_monotone_buckets() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total", "Requests served").add(3);
        reg.gauge("active", "Active connections").set(2);
        let h = reg.histogram("request_ns", "Request latency (ns)");
        for v in [10u64, 100, 100, 5000] {
            h.observe(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP requests_total Requests served"));
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("# TYPE active gauge"));
        assert!(text.contains("# TYPE request_ns histogram"));
        assert!(text.contains("request_ns_sum 5210"));
        assert!(text.contains("request_ns_count 4"));
        assert!(text.contains("request_ns_bucket{le=\"+Inf\"} 4"));
        // Cumulative bucket counts must be nondecreasing in le order.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("request_ns_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= prev, "bucket counts must be cumulative: {text}");
            prev = n;
        }
        assert_eq!(prev, 4);
    }

    #[test]
    fn json_rendering_carries_quantiles() {
        let reg = MetricsRegistry::new();
        reg.counter("hits", "").add(2);
        let h = reg.histogram("lat", "");
        h.observe(64);
        let json = reg.render_json();
        assert!(json.contains("\"counters\":{\"hits\":2}"), "{json}");
        assert!(json.contains("\"lat\":{\"count\":1,\"sum\":64,\"max\":64"), "{json}");
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 1024 * 1024, "VmHWM should exceed 1 MiB, got {rss}");
        }
    }
}
