//! The wall-clock telemetry plane: an atomic, thread-safe metrics registry
//! with Prometheus text exposition.
//!
//! Everything in [`event`](crate::event) is *virtual-time* tracing — exact,
//! deterministic, and consumed after a run. This module is the complement:
//! live series an operator can scrape *while* the system runs. The two
//! planes deliberately never mix: wall-clock phenomena (ring stalls, real
//! watermark lag, socket byte counts) are nondeterministic across thread
//! schedules, so folding them into `TraceEvent`s would break the byte-
//! identical trace guarantees the conformance tests depend on. They live
//! here instead, behind plain atomics.
//!
//! * [`MetricsRegistry`] — cheaply clonable handle store. Registering the
//!   same name + label set twice returns the same underlying atomic, so
//!   socket readers and the scrape thread share series without coordination.
//! * [`Counter`] / [`Gauge`] / [`AtomicHistogram`] — lock-free handles;
//!   the histogram reuses [`LogHistogram`]'s bucketing behind `AtomicU64`s.
//! * [`MetricsRegistry::render`] — Prometheus text format (v0.0.4), with
//!   stable family and series ordering so expositions are golden-testable.
//! * [`parse_prometheus`] — the inverse, used by `lmerge-top` and tests.
//! * [`EngineMetrics`] / [`MeteredSink`] — the bridge from the virtual-time
//!   event stream into live series: wrap any [`TraceSink`] and every event
//!   is folded into counters/gauges on its way through, without altering
//!   the trace itself.

use crate::event::{ElementKind, HealthTag, StableScope, TraceEvent};
use crate::hist::{self, LogHistogram};
use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the value to `total` if it is larger: mirror a count that is
    /// kept elsewhere, from any number of threads that each read it.
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the value to `v` if it is larger (monotonic max).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// [`LogHistogram`] bucketing behind atomics: the same 16-sub-buckets-per-
/// octave layout, recordable concurrently from any thread and readable
/// from the scrape thread without locks.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Initialized to `u64::MAX` so the first `fetch_min` wins.
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: (0..hist::NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[hist::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a wall-clock duration, in the microseconds a
    /// [`MetricsRegistry::seconds_histogram`] is kept in.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a [`LogHistogram`] — quantiles, mean, and
    /// buckets come for free. Concurrent recording keeps the snapshot
    /// *consistent enough* for monitoring (fields are read independently).
    pub fn snapshot(&self) -> LogHistogram {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return LogHistogram::new();
        }
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        LogHistogram::from_parts(
            counts,
            count,
            self.sum.load(Ordering::Relaxed) as u128,
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// A shareable histogram handle.
pub type Histogram = Arc<AtomicHistogram>;

/// The exposition type of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
    /// A histogram recorded in microseconds and exposed in seconds.
    Seconds,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram | MetricKind::Seconds => "histogram",
        }
    }

    /// Recorded units per exposed unit (bucket bounds and `_sum`).
    fn per_unit(self) -> f64 {
        match self {
            MetricKind::Seconds => 1e6,
            _ => 1.0,
        }
    }
}

#[derive(Clone, Debug)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the canonical rendered label string for stable ordering.
    series: BTreeMap<String, Series>,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    families: Mutex<BTreeMap<String, Family>>,
}

/// The metric store: clone handles freely, register from any thread.
///
/// Registration takes the family lock; the returned [`Counter`] / [`Gauge`]
/// / [`Histogram`] handles are lock-free afterwards. Hot paths should
/// register once and cache the handle (see [`EngineMetrics`]).
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry; the wall clock starts now.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(Inner {
                start: Instant::now(),
                families: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Milliseconds of monotonic wall time since the registry was created.
    /// This is the timestamp base of the whole wall-clock plane.
    pub fn uptime_ms(&self) -> u64 {
        self.inner.start.elapsed().as_millis() as u64
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> Series {
        let key = label_key(labels);
        let mut families = self.inner.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} registered as {} and {}",
            family.kind.label(),
            kind.label()
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Counter(Counter::default()),
                MetricKind::Gauge => Series::Gauge(Gauge::default()),
                MetricKind::Histogram | MetricKind::Seconds => {
                    Series::Histogram(Arc::new(AtomicHistogram::new()))
                }
            })
            .clone()
    }

    /// Get or create a counter series. The same name + labels always yields
    /// the same underlying atomic.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, MetricKind::Histogram) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Get or create a histogram of wall-clock durations: recorded in
    /// microseconds ([`AtomicHistogram::record_duration`]), exposed in
    /// seconds as the Prometheus convention for a `*_seconds` family asks.
    pub fn seconds_histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, MetricKind::Seconds) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// All current counter/gauge values (histograms contribute `_count` and
    /// `_sum`), flattened for rule evaluation and tests.
    pub fn samples(&self) -> Vec<ScrapedSample> {
        let families = self.inner.families.lock().unwrap();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (key, series) in &family.series {
                let labels = parse_label_key(key);
                match series {
                    Series::Counter(c) => out.push(ScrapedSample {
                        name: name.clone(),
                        labels,
                        value: c.get() as f64,
                    }),
                    Series::Gauge(g) => out.push(ScrapedSample {
                        name: name.clone(),
                        labels,
                        value: g.get() as f64,
                    }),
                    Series::Histogram(h) => {
                        let snap = h.snapshot();
                        out.push(ScrapedSample {
                            name: format!("{name}_count"),
                            labels: labels.clone(),
                            value: snap.count() as f64,
                        });
                        out.push(ScrapedSample {
                            name: format!("{name}_sum"),
                            labels,
                            value: snap.mean() * snap.count() as f64 / family.kind.per_unit(),
                        });
                    }
                }
            }
        }
        out
    }

    /// The largest value across all series of a gauge/counter family, or
    /// `None` if the family has no series yet. What most alert rules want.
    pub fn max_value(&self, name: &str) -> Option<f64> {
        self.samples()
            .into_iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The sum across all series of a family (e.g. total resumes over all
    /// inputs), or `None` if absent.
    pub fn sum_value(&self, name: &str) -> Option<f64> {
        let mut seen = false;
        let mut total = 0.0;
        for s in self.samples() {
            if s.name == name {
                seen = true;
                total += s.value;
            }
        }
        seen.then_some(total)
    }

    /// Render the Prometheus text exposition format (v0.0.4).
    ///
    /// Families sort by name and series by label string, so two renders of
    /// the same state are byte-identical — the golden test relies on this.
    pub fn render(&self) -> String {
        let families = self.inner.families.lock().unwrap();
        let mut s = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(s, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(s, "# TYPE {name} {}", family.kind.label());
            for (key, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(s, "{name}{key} {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(s, "{name}{key} {}", g.get());
                    }
                    Series::Histogram(h) => {
                        render_histogram(&mut s, name, key, &h.snapshot(), family.kind.per_unit())
                    }
                }
            }
        }
        s
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// Canonical label rendering: sorted by key, values escaped, `{}`-wrapped;
/// empty for the label-free series.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Parse a canonical label key back into pairs (registry-internal inverse
/// of [`label_key`]; values were escaped by us, so unescaping is exact).
fn parse_label_key(key: &str) -> Vec<(String, String)> {
    parse_labels(key).unwrap_or_default()
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// A histogram family member: cumulative `_bucket{le=…}` lines over the
/// non-empty buckets, then `+Inf`, `_sum`, and `_count`. Bounds and sum
/// are divided by `per_unit` (1 except for seconds histograms).
fn render_histogram(s: &mut String, name: &str, key: &str, snap: &LogHistogram, per_unit: f64) {
    let mut cum = 0u64;
    for (lo, c) in snap.buckets() {
        cum += c;
        // Our bucket holding lower bound `lo` covers integers up to the
        // next bucket's lower bound minus one — that is its inclusive `le`.
        let le = hist::bucket_lower_bound(hist::bucket_index(lo) + 1).saturating_sub(1);
        let le = if per_unit == 1.0 {
            le.to_string()
        } else {
            fmt_value(le as f64 / per_unit)
        };
        let _ = writeln!(s, "{name}_bucket{} {cum}", with_le(key, &le));
    }
    let _ = writeln!(s, "{name}_bucket{} {}", with_le(key, "+Inf"), snap.count());
    let sum = snap.mean() * snap.count() as f64 / per_unit;
    let _ = writeln!(s, "{name}_sum{key} {}", fmt_value(sum));
    let _ = writeln!(s, "{name}_count{key} {}", snap.count());
}

/// Append `le="…"` to a canonical label key.
fn with_le(key: &str, le: &str) -> String {
    if key.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &key[..key.len() - 1])
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One parsed sample from a Prometheus text exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct ScrapedSample {
    /// Metric name (histogram members keep their `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl ScrapedSample {
    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a `{k="v",…}` label block (including the braces). Returns `None`
/// on malformed input.
fn parse_labels(block: &str) -> Option<Vec<(String, String)>> {
    let body = block.strip_prefix('{')?.strip_suffix('}')?;
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].strip_prefix('"')?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, ch)) = chars.next() {
            match ch {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c)) => value.push(c),
                    None => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        rest = &rest[end? + 1..];
        pairs.push((key, value));
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Some(pairs)
}

/// Parse a Prometheus text exposition into flat samples. Comment and blank
/// lines are skipped; malformed lines are ignored rather than fatal, so a
/// live dashboard survives a partially written scrape.
pub fn parse_prometheus(text: &str) -> Vec<ScrapedSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => continue,
        };
        let value = if value == "+Inf" {
            f64::INFINITY
        } else {
            match value.parse::<f64>() {
                Ok(v) => v,
                Err(_) => continue,
            }
        };
        let (name, labels) = match series.find('{') {
            Some(brace) => match parse_labels(&series[brace..]) {
                Some(pairs) => (&series[..brace], pairs),
                None => continue,
            },
            None => (series, Vec::new()),
        };
        out.push(ScrapedSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    out
}

/// Per-input handle cache for [`EngineMetrics`].
#[derive(Clone, Debug)]
struct InputHandles {
    batches: Counter,
    elements: Counter,
    stable: Gauge,
    behind: Gauge,
    health: Gauge,
}

/// The virtual-time → wall-clock bridge: pre-registered handles for every
/// series the engine event stream feeds, with per-input caches so the hot
/// path never touches the registry lock.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    registry: MetricsRegistry,
    inputs: Vec<InputHandles>,
    emitted: [Counter; 3],
    faults: Counter,
    output_stable: Gauge,
    watermark_advances: Counter,
    watermark_last_advance_ms: Gauge,
    staged: Gauge,
    memory: Gauge,
    feedback: Counter,
    quarantines: Counter,
    demotions: Counter,
    /// `[snapshot, delta]` checkpoint counters.
    checkpoints: [Counter; 2],
    checkpoint_entries: Gauge,
    checkpoint_restores: Counter,
    sessions: Vec<(Counter, Counter, Counter, Counter, Counter, Gauge)>,
    /// Output stable point, mirrored for the `behind` gauges.
    last_output_stable: i64,
    last_input_stable: Vec<i64>,
}

impl EngineMetrics {
    /// Pre-register the label-free families and return the bridge.
    pub fn new(registry: &MetricsRegistry) -> EngineMetrics {
        let r = registry.clone();
        EngineMetrics {
            emitted: [
                r.counter(
                    "lmerge_elements_emitted_total",
                    "Output elements emitted by the merge, by kind.",
                    &[("kind", ElementKind::Insert.label())],
                ),
                r.counter(
                    "lmerge_elements_emitted_total",
                    "Output elements emitted by the merge, by kind.",
                    &[("kind", ElementKind::Adjust.label())],
                ),
                r.counter(
                    "lmerge_elements_emitted_total",
                    "Output elements emitted by the merge, by kind.",
                    &[("kind", ElementKind::Stable.label())],
                ),
            ],
            faults: r.counter(
                "lmerge_faults_injected_total",
                "Fault-injection actions applied to the run.",
                &[],
            ),
            output_stable: r.gauge(
                "lmerge_output_stable",
                "The merged output's stable point (application time).",
                &[],
            ),
            watermark_advances: r.counter(
                "lmerge_watermark_advances_total",
                "Times the output stable point moved forward.",
                &[],
            ),
            watermark_last_advance_ms: r.gauge(
                "lmerge_watermark_last_advance_ms",
                "Wall-clock ms (since process metrics start) of the last output stable advance.",
                &[],
            ),
            staged: r.gauge(
                "lmerge_staged_batches",
                "Batches staged in the executor's delivery heap.",
                &[],
            ),
            memory: r.gauge(
                "lmerge_memory_bytes",
                "Estimated bytes held by the merge operator and queries.",
                &[],
            ),
            feedback: r.counter(
                "lmerge_feedback_propagated_total",
                "Feedback-point propagations back to the queries.",
                &[],
            ),
            quarantines: r.counter(
                "lmerge_quarantines_total",
                "Inputs demoted to quarantined by a robustness policy.",
                &[],
            ),
            demotions: r.counter(
                "lmerge_demotions_total",
                "Inputs detached (health transitioned to left).",
                &[],
            ),
            checkpoints: [
                r.counter(
                    "lmerge_checkpoints_total",
                    "Durable checkpoints taken, by persisted kind.",
                    &[("kind", "snapshot")],
                ),
                r.counter(
                    "lmerge_checkpoints_total",
                    "Durable checkpoints taken, by persisted kind.",
                    &[("kind", "delta")],
                ),
            ],
            checkpoint_entries: r.gauge(
                "lmerge_checkpoint_entries",
                "Live state entries captured by the most recent checkpoint.",
                &[],
            ),
            checkpoint_restores: r.counter(
                "lmerge_checkpoint_restores_total",
                "Runs rebuilt from a durable checkpoint.",
                &[],
            ),
            inputs: Vec::new(),
            sessions: Vec::new(),
            last_output_stable: i64::MIN,
            last_input_stable: Vec::new(),
            registry: r,
        }
    }

    /// The registry this bridge writes into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn input(&mut self, i: u32) -> &InputHandles {
        let i = i as usize;
        while self.inputs.len() <= i {
            let n = self.inputs.len().to_string();
            let l: &[(&str, &str)] = &[("input", &n)];
            self.inputs.push(InputHandles {
                batches: self.registry.counter(
                    "lmerge_batches_delivered_total",
                    "Batches handed to the merge, per input.",
                    l,
                ),
                elements: self.registry.counter(
                    "lmerge_elements_delivered_total",
                    "Elements (data + punctuation) delivered, per input.",
                    l,
                ),
                stable: self.registry.gauge(
                    "lmerge_input_stable",
                    "Latest stable point announced by this input (application time).",
                    l,
                ),
                behind: self.registry.gauge(
                    "lmerge_input_behind",
                    "How far this input's stable point trails the output's (application time units).",
                    l,
                ),
                health: self.registry.gauge(
                    "lmerge_input_health",
                    "Input health: 0 active, 1 joining, 2 quarantined, 3 left.",
                    l,
                ),
            });
            self.last_input_stable.push(i64::MIN);
        }
        &self.inputs[i]
    }

    fn session(&mut self, i: u32) -> &(Counter, Counter, Counter, Counter, Counter, Gauge) {
        let i = i as usize;
        while self.sessions.len() <= i {
            let n = self.sessions.len().to_string();
            let l: &[(&str, &str)] = &[("input", &n)];
            self.sessions.push((
                self.registry.counter(
                    "lmerge_net_sessions_opened_total",
                    "Ingest sessions accepted, per input.",
                    l,
                ),
                self.registry.counter(
                    "lmerge_net_resumes_total",
                    "Sessions that resumed from a nonzero sequence, per input.",
                    l,
                ),
                self.registry.counter(
                    "lmerge_net_session_closes_clean_total",
                    "Sessions ended by a clean bye, per input.",
                    l,
                ),
                self.registry.counter(
                    "lmerge_net_session_closes_lost_total",
                    "Sessions ended by connection loss, per input.",
                    l,
                ),
                self.registry.counter(
                    "lmerge_net_credits_granted_total",
                    "Frame credits granted back to the client, per input.",
                    l,
                ),
                self.registry.gauge(
                    "lmerge_net_queue_depth",
                    "Decoded frames in flight between socket and merge, per input.",
                    l,
                ),
            ));
        }
        &self.sessions[i]
    }

    /// Mirror the trace ring's drop counter into the scrapeable plane.
    pub fn set_ring_dropped(&self, dropped: u64) {
        self.registry
            .gauge(
                "lmerge_trace_ring_dropped_total",
                "Trace events evicted from the bounded ring before export.",
                &[],
            )
            .set(dropped as i64);
    }

    /// Fold one trace event into the live series.
    pub fn on_event(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::BatchDelivered {
                input, elements, ..
            } => {
                let h = self.input(input);
                h.batches.inc();
                h.elements.add(elements as u64);
            }
            TraceEvent::ElementEmitted { kind, .. } => {
                let idx = match kind {
                    ElementKind::Insert => 0,
                    ElementKind::Adjust => 1,
                    ElementKind::Stable => 2,
                };
                self.emitted[idx].inc();
            }
            TraceEvent::StablePointAdvanced { scope, stable, .. } => {
                let v = clamp_time(stable.0);
                match scope {
                    StableScope::Output => {
                        self.last_output_stable = v;
                        self.output_stable.set(v);
                        self.watermark_advances.inc();
                        self.watermark_last_advance_ms
                            .set(self.registry.uptime_ms() as i64);
                        for i in 0..self.inputs.len() {
                            let in_stable = self.last_input_stable[i];
                            if in_stable != i64::MIN {
                                self.inputs[i].behind.set((v - in_stable).max(0));
                            }
                        }
                    }
                    StableScope::Input(i) => {
                        self.input(i).stable.set(v);
                        self.last_input_stable[i as usize] = v;
                        if self.last_output_stable != i64::MIN {
                            let behind = (self.last_output_stable - v).max(0);
                            self.inputs[i as usize].behind.set(behind);
                        }
                    }
                }
            }
            TraceEvent::FeedbackPropagated { .. } => self.feedback.inc(),
            TraceEvent::QueueDepthSampled { staged, .. } => self.staged.set(staged as i64),
            TraceEvent::MemorySampled { bytes, .. } => self.memory.set(bytes as i64),
            TraceEvent::InputDrained { .. } | TraceEvent::RunCompleted { .. } => {}
            TraceEvent::FaultInjected { .. } => self.faults.inc(),
            TraceEvent::InputHealthChanged { input, health, .. } => {
                let ordinal = match health {
                    HealthTag::Active => 0,
                    HealthTag::Joining => 1,
                    HealthTag::Quarantined => 2,
                    HealthTag::Left => 3,
                };
                self.input(input).health.set(ordinal);
                match health {
                    HealthTag::Quarantined => self.quarantines.inc(),
                    HealthTag::Left => self.demotions.inc(),
                    _ => {}
                }
            }
            TraceEvent::SessionOpened {
                input, resume_seq, ..
            } => {
                let s = self.session(input);
                s.0.inc();
                if resume_seq > 0 {
                    s.1.inc();
                }
            }
            TraceEvent::SessionClosed { input, clean, .. } => {
                let s = self.session(input);
                if clean {
                    s.2.inc();
                } else {
                    s.3.inc();
                }
            }
            TraceEvent::CreditGranted { input, credits, .. } => {
                self.session(input).4.add(credits as u64);
            }
            TraceEvent::NetQueueSampled { input, depth, .. } => {
                self.session(input).5.set(depth as i64);
            }
            TraceEvent::AlertFired { .. } | TraceEvent::AlertResolved { .. } => {}
            TraceEvent::CheckpointTaken { entries, delta, .. } => {
                self.checkpoints[delta as usize].inc();
                self.checkpoint_entries.set(entries as i64);
            }
            TraceEvent::CheckpointRestored { .. } => self.checkpoint_restores.inc(),
            // Subscription sessions keep their own registry series
            // (`SubMetrics` in `lmerge-sub`); the engine bridge stays
            // pinned to its golden exposition.
            TraceEvent::SubSessionOpened { .. }
            | TraceEvent::SubSessionClosed { .. }
            | TraceEvent::SubEpochDelivered { .. } => {}
        }
    }
}

/// Clamp the paper's ±∞ sentinels to something a gauge can carry.
fn clamp_time(t: i64) -> i64 {
    t.clamp(i64::MIN + 1, i64::MAX - 1)
}

/// Wall-clock series of the checkpoint cut/persist split, fed by
/// `lmerge-durable`'s sink (the cut, on the executor) and its writer thread
/// (the persist). They complement the trace-fed `lmerge_checkpoints_total`
/// / `lmerge_checkpoint_entries`, which count cuts in virtual time.
#[derive(Clone, Debug)]
pub struct CheckpointMetrics {
    /// Executor time per cut: from the sink wanting one to the hand-off
    /// returning — the state export, the cursor polls, and any wait for
    /// the previous cut to become durable. The stall that is left.
    pub cut_seconds: Histogram,
    /// Hand-off to durable, per cut: diff, encode, write, fsyncs.
    pub persist_seconds: Histogram,
    /// Checkpoint file bytes made durable.
    pub bytes: Counter,
    /// Cuts handed off and not yet durable: 0 or 1.
    pub inflight: Gauge,
    /// 1 once a checkpoint failed to persist; the run goes on without.
    pub failed: Gauge,
}

impl CheckpointMetrics {
    /// Register the series in `registry`.
    pub fn new(registry: &MetricsRegistry) -> CheckpointMetrics {
        CheckpointMetrics {
            cut_seconds: registry.seconds_histogram(
                "lmerge_checkpoint_cut_seconds",
                "Executor time inside one checkpoint cut (export, polls, hand-off wait).",
                &[],
            ),
            persist_seconds: registry.seconds_histogram(
                "lmerge_checkpoint_persist_seconds",
                "Writer time from a cut's hand-off to its file being durable.",
                &[],
            ),
            bytes: registry.counter(
                "lmerge_checkpoint_bytes_total",
                "Checkpoint file bytes made durable.",
                &[],
            ),
            inflight: registry.gauge(
                "lmerge_checkpoint_inflight",
                "Checkpoint cuts handed to the writer and not yet durable (0 or 1).",
                &[],
            ),
            failed: registry.gauge(
                "lmerge_checkpoint_failed",
                "1 once a checkpoint failed to persist; checkpointing has stopped.",
                &[],
            ),
        }
    }
}

/// A [`TraceSink`] adapter that folds every event into an [`EngineMetrics`]
/// bridge and then forwards it unchanged to the inner sink.
///
/// The trace plane stays byte-identical: events are not reordered,
/// rewritten, or augmented, and an inner [`NullSink`](crate::NullSink)
/// still records nothing — the wrapper only makes the executor construct
/// events so the live series fill in.
#[derive(Clone, Debug)]
pub struct MeteredSink<S> {
    inner: S,
    metrics: EngineMetrics,
}

impl<S: TraceSink> MeteredSink<S> {
    /// Wrap `inner`, folding events into `metrics` on the way through.
    pub fn new(inner: S, metrics: EngineMetrics) -> MeteredSink<S> {
        MeteredSink { inner, metrics }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The metrics bridge.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }
}

impl<S: TraceSink> TraceSink for MeteredSink<S> {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.metrics.on_event(&event);
        if self.inner.enabled() {
            self.inner.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use lmerge_temporal::{Time, VTime};

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_total", "h", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name + labels → same atomic.
        let c2 = r.counter("t_total", "h", &[]);
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("g", "h", &[("input", "0")]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set_max(5);
        assert_eq!(g.get(), 7);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn atomic_histogram_matches_log_histogram() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat", "h", &[]);
        let mut reference = LogHistogram::new();
        for v in [1u64, 5, 100, 1000, 65_536, 3] {
            h.record(v);
            reference.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), reference.count());
        assert_eq!(snap.min(), reference.min());
        assert_eq!(snap.max(), reference.max());
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(snap.quantile(q), reference.quantile(q), "q={q}");
        }
    }

    #[test]
    fn render_is_stable_and_escaped() {
        let r = MetricsRegistry::new();
        r.counter("b_total", "second family", &[("z", "1"), ("a", "x")])
            .inc();
        r.gauge(
            "a_gauge",
            "first \"family\"\nwith newline",
            &[("path", "c:\\tmp")],
        )
        .set(-4);
        let one = r.render();
        let two = r.render();
        assert_eq!(one, two, "render is deterministic");
        assert!(
            one.starts_with("# HELP a_gauge"),
            "families sort by name:\n{one}"
        );
        assert!(one.contains("first \"family\"\\nwith newline"));
        assert!(one.contains("a_gauge{path=\"c:\\\\tmp\"} -4"));
        assert!(
            one.contains("b_total{a=\"x\",z=\"1\"} 1"),
            "labels sort by key:\n{one}"
        );
    }

    #[test]
    fn parse_inverts_render() {
        let r = MetricsRegistry::new();
        r.counter("c_total", "h", &[("input", "0")]).add(3);
        r.gauge("g", "h", &[]).set(-7);
        r.histogram("lat", "h", &[("input", "1")]).record(100);
        let samples = parse_prometheus(&r.render());
        let c = samples.iter().find(|s| s.name == "c_total").unwrap();
        assert_eq!(c.label("input"), Some("0"));
        assert_eq!(c.value, 3.0);
        let g = samples.iter().find(|s| s.name == "g").unwrap();
        assert_eq!(g.value, -7.0);
        let count = samples.iter().find(|s| s.name == "lat_count").unwrap();
        assert_eq!(count.value, 1.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "lat_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 1.0);
    }

    #[test]
    fn engine_bridge_folds_events() {
        let r = MetricsRegistry::new();
        let mut m = EngineMetrics::new(&r);
        m.on_event(&TraceEvent::BatchDelivered {
            at: VTime(1),
            input: 2,
            elements: 5,
            data: 4,
        });
        m.on_event(&TraceEvent::StablePointAdvanced {
            at: VTime(2),
            scope: StableScope::Input(2),
            stable: Time(40),
        });
        m.on_event(&TraceEvent::StablePointAdvanced {
            at: VTime(3),
            scope: StableScope::Output,
            stable: Time(100),
        });
        m.on_event(&TraceEvent::InputHealthChanged {
            at: VTime(4),
            input: 2,
            health: HealthTag::Quarantined,
        });
        assert_eq!(r.max_value("lmerge_batches_delivered_total"), Some(1.0));
        assert_eq!(r.max_value("lmerge_elements_delivered_total"), Some(5.0));
        assert_eq!(r.max_value("lmerge_output_stable"), Some(100.0));
        assert_eq!(r.max_value("lmerge_input_behind"), Some(60.0));
        assert_eq!(r.max_value("lmerge_quarantines_total"), Some(1.0));
        assert_eq!(r.max_value("lmerge_input_health"), Some(2.0));
    }

    #[test]
    fn engine_bridge_folds_durability_events() {
        let r = MetricsRegistry::new();
        let mut m = EngineMetrics::new(&r);
        m.on_event(&TraceEvent::CheckpointTaken {
            at: VTime(1),
            seq: 0,
            entries: 12,
            delta: false,
        });
        m.on_event(&TraceEvent::CheckpointTaken {
            at: VTime(2),
            seq: 1,
            entries: 15,
            delta: true,
        });
        m.on_event(&TraceEvent::CheckpointRestored {
            at: VTime(3),
            seq: 1,
            entries: 15,
        });
        assert_eq!(r.sum_value("lmerge_checkpoints_total"), Some(2.0));
        assert_eq!(r.max_value("lmerge_checkpoint_entries"), Some(15.0));
        assert_eq!(r.max_value("lmerge_checkpoint_restores_total"), Some(1.0));
    }

    #[test]
    fn metered_sink_forwards_unchanged() {
        let r = MetricsRegistry::new();
        let mut s = MeteredSink::new(NullSink, EngineMetrics::new(&r));
        assert!(s.enabled(), "metered sink forces event construction");
        s.record(TraceEvent::RunCompleted { at: VTime(9) });
        s.record(TraceEvent::FeedbackPropagated {
            at: VTime(10),
            point: Time(3),
        });
        assert_eq!(r.max_value("lmerge_feedback_propagated_total"), Some(1.0));
    }
}
