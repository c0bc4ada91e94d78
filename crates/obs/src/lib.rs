//! **lmerge-obs** — virtual-time tracing and diagnostics for the LMerge
//! engine.
//!
//! The paper's evaluation (Section VI-B) and its key diagnostic plots —
//! *which physically divergent input is holding the merge back, and when
//! did feedback fast-forward it* (Section V-D) — require seeing inside a
//! run. This crate provides that visibility without taxing runs that don't
//! want it:
//!
//! * [`event::TraceEvent`] — a typed vocabulary of run observations, each
//!   stamped with virtual time so traces replay deterministically;
//! * `EventRing` — a bounded drop-oldest store, O(capacity) memory on
//!   arbitrarily long runs;
//! * [`sink::TraceSink`] — the recording interface. The executor is generic
//!   over it; the default [`sink::NullSink`] is statically disabled and the
//!   whole instrumentation path compiles away;
//! * [`sink::Tracer`] — ring + lag gauges ([`Tracer::lag`]): per-input stable points
//!   tracked against the output stable point, straggler identification,
//!   feedback fast-forward accounting;
//! * [`hist::LogHistogram`] — log-bucketed latency histogram with
//!   nearest-rank quantiles, O(#buckets) memory;
//! * [`export`] — JSONL event dumps, Chrome trace-event (`about://tracing`
//!   / Perfetto) timelines, and the human-readable summary table.
//!
//! ```
//! use lmerge_obs::{StableScope, TraceEvent, TraceSink, Tracer};
//! use lmerge_temporal::{Time, VTime};
//!
//! let mut tracer = Tracer::new();
//! tracer.record(TraceEvent::StablePointAdvanced {
//!     at: VTime(9),
//!     scope: StableScope::Input(0),
//!     stable: Time(100),
//! });
//! tracer.record(TraceEvent::StablePointAdvanced {
//!     at: VTime(10),
//!     scope: StableScope::Output,
//!     stable: Time(100),
//! });
//! tracer.record(TraceEvent::StablePointAdvanced {
//!     at: VTime(12),
//!     scope: StableScope::Input(1),
//!     stable: Time(40),
//! });
//! assert_eq!(tracer.lag().straggler(), Some((1, 60)));
//! println!("{}", tracer.summary());
//! ```

//!
//! PR 6 adds the *wall-clock* complement to the virtual-time trace plane:
//!
//! * [`metrics`] — an atomic registry of counters/gauges/histograms with
//!   Prometheus text exposition, plus [`metrics::MeteredSink`] to fold the
//!   trace event stream into live series. Socket sessions (ingest and
//!   subscriber) are accounted here only, by their servers: the trace is
//!   the run's, and a session is not an event of the run;
//! * [`alert`] — a declarative SLO rule engine (watermark lag, straggler
//!   gap, resume rate, failed checkpoints) whose state is registry series;
//! * [`serve`] — a side-listener scrape endpoint ([`serve::MetricsServer`])
//!   and the matching [`serve::scrape`] client.
//!
//! The two planes never mix, and the types say so: every [`TraceEvent`]
//! carries virtual time and only the executor (or a test) constructs one;
//! the wall-clock plane reads the trace stream and never writes to it.

pub mod alert;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
mod lag;
pub mod metrics;
mod ring;
pub mod serve;
pub mod sink;

pub use alert::{default_rules, AlertEngine, AlertKind, AlertRule, Severity};
pub use event::{ElementKind, FaultKind, HealthTag, StableScope, TraceEvent};
pub use hist::LogHistogram;
pub use metrics::{
    parse_prometheus, AtomicHistogram, CheckpointMetrics, Counter, EngineMetrics, Gauge,
    MeteredSink, MetricsRegistry, ScrapedSample,
};
pub use serve::{scrape, MetricsServer};
pub use sink::{NullSink, TraceConfig, TraceSink, Tracer};
