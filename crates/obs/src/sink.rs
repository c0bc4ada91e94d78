//! Where trace events go: the zero-cost-when-disabled [`TraceSink`] trait
//! and the standard [`Tracer`] implementation.
//!
//! The executor is generic over its sink and guards every emission with
//! [`TraceSink::enabled`]. With the default [`NullSink`] the guard is a
//! constant `false`, the event construction is dead code, and the optimizer
//! removes the whole instrumentation path — benchmarks pay nothing for the
//! tracing capability they don't use.

use crate::event::TraceEvent;
use crate::export;
use crate::lag::LagGauges;
use crate::ring::EventRing;

/// A consumer of trace events.
pub trait TraceSink {
    /// Whether events should be constructed and recorded at all. Callers
    /// must guard emission with this so disabled sinks are truly free.
    fn enabled(&self) -> bool;

    /// Record one event. Only called when [`enabled`](TraceSink::enabled)
    /// returns `true` (calling it anyway is allowed, just not required).
    fn record(&mut self, event: TraceEvent);
}

/// The no-op sink: statically disabled, compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event)
    }
}

/// How a [`Tracer`] is sized.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum events retained (drop-oldest beyond this).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { capacity: 65_536 }
    }
}

/// The standard sink: a bounded event ring plus live lag gauges.
///
/// The ring keeps the most recent events for export and counts the ones it
/// evicts, which [`Tracer::to_jsonl`]'s `trace_meta` line and
/// [`Tracer::summary`] report; the gauges fold the *entire* stream
/// (including evicted events) into per-input diagnostics, so "who lagged
/// and by how much" is exact even when the ring wrapped.
#[derive(Clone, Debug)]
pub struct Tracer {
    ring: EventRing,
    lag: LagGauges,
}

impl Tracer {
    /// A tracer with the default ring capacity.
    pub fn new() -> Tracer {
        Tracer::with_config(TraceConfig::default())
    }

    /// A tracer with an explicit configuration.
    pub fn with_config(config: TraceConfig) -> Tracer {
        Tracer {
            ring: EventRing::new(config.capacity),
            lag: LagGauges::default(),
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.ring.iter()
    }

    /// The underlying ring (for capacity / drop accounting).
    pub(crate) fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The per-input lag gauges accumulated so far.
    pub fn lag(&self) -> &LagGauges {
        &self.lag
    }

    /// Export the retained events as JSON-lines (one object per line),
    /// closed by a `trace_meta` line carrying the ring's drop accounting —
    /// a consumer can always tell whether the trace it holds is complete.
    pub fn to_jsonl(&self) -> String {
        let mut s = export::to_jsonl(self.events());
        s.push_str(&export::trace_meta(&self.ring));
        s
    }

    /// Export the retained events as a Chrome trace-event (Perfetto /
    /// `about://tracing` compatible) JSON document.
    pub fn to_chrome_trace(&self) -> String {
        export::to_chrome_trace(self.events())
    }

    /// Render the human-readable run summary table.
    pub fn summary(&self) -> String {
        export::summary(self)
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl TraceSink for Tracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.lag.on_event(&event);
        self.ring.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StableScope;
    use lmerge_temporal::{Time, VTime};

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(TraceEvent::RunCompleted { at: VTime(1) }); // harmless
    }

    #[test]
    fn tracer_records_and_derives_gauges() {
        let mut t = Tracer::with_config(TraceConfig { capacity: 8 });
        assert!(t.enabled());
        t.record(TraceEvent::StablePointAdvanced {
            at: VTime(1),
            scope: StableScope::Input(0),
            stable: Time(10),
        });
        t.record(TraceEvent::RunCompleted { at: VTime(2) });
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.lag().inputs()[0].stable, Time(10));
    }

    #[test]
    fn gauges_survive_ring_eviction() {
        let mut t = Tracer::with_config(TraceConfig { capacity: 2 });
        for k in 0..100u32 {
            t.record(TraceEvent::BatchDelivered {
                at: VTime(k as u64),
                input: 0,
                elements: 1,
                data: 1,
            });
        }
        assert_eq!(t.ring().len(), 2, "ring stayed bounded");
        assert_eq!(t.ring().dropped(), 98, "every eviction is a batch");
        assert_eq!(t.lag().inputs()[0].delivered, 100, "gauges saw everything");
    }

    #[test]
    fn an_overflowed_ring_ends_its_jsonl_with_its_drops() {
        let mut t = Tracer::with_config(TraceConfig { capacity: 4 });
        for k in 0..20u64 {
            t.record(TraceEvent::RunCompleted { at: VTime(k) });
        }
        // The ring holds the newest recorded events and nothing else.
        let kept: Vec<VTime> = t.events().map(TraceEvent::at).collect();
        assert_eq!(kept, [VTime(16), VTime(17), VTime(18), VTime(19)]);
        let jsonl = t.to_jsonl();
        let last = jsonl.lines().last().unwrap();
        assert!(last.contains("\"event\":\"trace_meta\""), "got: {last}");
        assert!(last.contains("\"recorded\":20"), "got: {last}");
        assert!(last.contains("\"dropped\":16"), "got: {last}");
    }

    #[test]
    fn jsonl_meta_reports_no_drops_on_small_traces() {
        let mut t = Tracer::new();
        t.record(TraceEvent::RunCompleted { at: VTime(1) });
        let jsonl = t.to_jsonl();
        let last = jsonl.lines().last().unwrap();
        assert!(last.contains("\"event\":\"trace_meta\""));
        assert!(last.contains("\"recorded\":1"), "got: {last}");
        assert!(last.contains("\"dropped\":0"), "got: {last}");
    }

    #[test]
    fn mut_ref_forwards() {
        let mut t = Tracer::new();
        let r: &mut Tracer = &mut t;
        let rr = r;
        assert!(rr.enabled());
        rr.record(TraceEvent::RunCompleted { at: VTime(0) });
        assert_eq!(t.events().count(), 1);
    }
}
