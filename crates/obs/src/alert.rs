//! A small declarative SLO engine over the wall-clock metrics plane.
//!
//! Rules are data — a condition kind, a threshold, a severity — and the
//! engine evaluates them against live [`MetricsRegistry`] series. Alert
//! state lives in the registry itself (`lmerge_alert_active{rule=…}` and
//! `lmerge_alerts_fired_total{rule=…}`), so a scrape always carries the
//! current alert picture; transitions additionally fire typed
//! [`TraceEvent::AlertFired`] / [`TraceEvent::AlertResolved`] events into
//! whatever sink the caller provides, landing them in the JSONL and Chrome
//! exporters alongside the virtual-time trace.
//!
//! Evaluation is pull-based: call [`AlertEngine::evaluate`] on whatever
//! cadence suits — the scrape endpoint does it once per scrape, so the
//! alert series are exactly as fresh as the metrics they gate.

use crate::event::{AlertKind, Severity, TraceEvent};
use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::sink::TraceSink;
use lmerge_temporal::VTime;

/// One declarative SLO rule.
#[derive(Clone, Copy, Debug)]
pub struct AlertRule {
    /// The watched condition.
    pub kind: AlertKind,
    /// How loudly to fire.
    pub severity: Severity,
    /// The threshold the observed value must exceed to fire. Units depend
    /// on the kind: wall ms for `WatermarkLag`, application-time units for
    /// `StragglerGap`, resumes per evaluation for `ResumeRate`, evicted
    /// events for `RingDrop`, the 0/1 failure gauge for `CheckpointFailed`.
    pub threshold: i64,
}

impl AlertRule {
    /// Convenience constructor.
    pub fn new(kind: AlertKind, severity: Severity, threshold: i64) -> AlertRule {
        AlertRule {
            kind,
            severity,
            threshold,
        }
    }
}

/// A sensible default rule set for production ingest: warn on a watermark
/// stalled for 5 s, a straggler 10 000 application-time units behind, more
/// than 3 resumes between evaluations, or any trace-ring eviction; page on
/// a checkpoint that failed to persist.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::new(AlertKind::WatermarkLag, Severity::Warn, 5_000),
        AlertRule::new(AlertKind::StragglerGap, Severity::Warn, 10_000),
        AlertRule::new(AlertKind::ResumeRate, Severity::Warn, 3),
        AlertRule::new(AlertKind::RingDrop, Severity::Warn, 0),
        AlertRule::new(AlertKind::CheckpointFailed, Severity::Critical, 0),
    ]
}

struct RuleState {
    rule: AlertRule,
    active: bool,
    /// For rate rules: the counter total at the previous evaluation.
    last_total: f64,
    active_gauge: Gauge,
    fired_total: Counter,
}

/// Evaluates a rule set against a registry; fires transition events.
pub struct AlertEngine {
    registry: MetricsRegistry,
    rules: Vec<RuleState>,
    watermark_lag: Gauge,
}

impl AlertEngine {
    /// Build an engine over `registry`. Registers the per-rule alert
    /// series immediately so scrapes expose them (at zero) from the start.
    pub fn new(registry: &MetricsRegistry, rules: Vec<AlertRule>) -> AlertEngine {
        let states = rules
            .into_iter()
            .map(|rule| RuleState {
                active_gauge: registry.gauge(
                    "lmerge_alert_active",
                    "Whether this alert rule is currently firing (1) or not (0).",
                    &[
                        ("rule", rule.kind.label()),
                        ("severity", rule.severity.label()),
                    ],
                ),
                fired_total: registry.counter(
                    "lmerge_alerts_fired_total",
                    "Times this alert rule transitioned to firing.",
                    &[
                        ("rule", rule.kind.label()),
                        ("severity", rule.severity.label()),
                    ],
                ),
                rule,
                active: false,
                last_total: 0.0,
            })
            .collect();
        AlertEngine {
            rules: states,
            watermark_lag: registry.gauge(
                "lmerge_watermark_lag_ms",
                "Wall-clock ms since the output stable point last advanced.",
                &[],
            ),
            registry: registry.clone(),
        }
    }

    /// The observed value for one rule, or `None` when the source series
    /// does not exist yet (a rule never fires on missing data).
    fn observe(&mut self, idx: usize) -> Option<i64> {
        let kind = self.rules[idx].rule.kind;
        match kind {
            AlertKind::WatermarkLag => {
                let last = self
                    .registry
                    .max_value("lmerge_watermark_last_advance_ms")?;
                let lag = (self.registry.uptime_ms() as f64 - last).max(0.0) as i64;
                self.watermark_lag.set(lag);
                Some(lag)
            }
            AlertKind::StragglerGap => self
                .registry
                .max_value("lmerge_input_behind")
                .map(|v| v as i64),
            AlertKind::ResumeRate => {
                let total = self.registry.sum_value("lmerge_net_resumes_total")?;
                let delta = (total - self.rules[idx].last_total).max(0.0) as i64;
                self.rules[idx].last_total = total;
                Some(delta)
            }
            AlertKind::RingDrop => self
                .registry
                .max_value("lmerge_trace_ring_dropped_total")
                .map(|v| v as i64),
            AlertKind::CheckpointFailed => self
                .registry
                .max_value("lmerge_checkpoint_failed")
                .map(|v| v as i64),
        }
    }

    /// Evaluate every rule once. Fires [`TraceEvent::AlertFired`] /
    /// [`TraceEvent::AlertResolved`] into `sink` on transitions; alert
    /// gauges/counters in the registry always reflect the latest pass.
    /// Returns the number of rules currently firing.
    pub fn evaluate(&mut self, sink: &mut (impl TraceSink + ?Sized)) -> usize {
        let now = VTime(self.registry.uptime_ms());
        let mut firing = 0;
        for idx in 0..self.rules.len() {
            let value = match self.observe(idx) {
                Some(v) => v,
                None => continue,
            };
            let state = &mut self.rules[idx];
            let breach = value > state.rule.threshold;
            if breach {
                firing += 1;
            }
            if breach && !state.active {
                state.active = true;
                state.active_gauge.set(1);
                state.fired_total.inc();
                if sink.enabled() {
                    sink.record(TraceEvent::AlertFired {
                        at: now,
                        kind: state.rule.kind,
                        severity: state.rule.severity,
                        value,
                        threshold: state.rule.threshold,
                    });
                }
            } else if !breach && state.active {
                state.active = false;
                state.active_gauge.set(0);
                if sink.enabled() {
                    sink.record(TraceEvent::AlertResolved {
                        at: now,
                        kind: state.rule.kind,
                        value,
                    });
                }
            }
        }
        firing
    }

    /// The rules this engine watches.
    pub fn rules(&self) -> impl Iterator<Item = &AlertRule> + '_ {
        self.rules.iter().map(|s| &s.rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Tracer;

    #[test]
    fn straggler_rule_fires_and_resolves() {
        let r = MetricsRegistry::new();
        let behind = r.gauge("lmerge_input_behind", "h", &[("input", "1")]);
        let mut engine = AlertEngine::new(
            &r,
            vec![AlertRule::new(
                AlertKind::StragglerGap,
                Severity::Critical,
                100,
            )],
        );
        let mut sink = Tracer::new();

        // Below threshold: nothing fires.
        behind.set(50);
        assert_eq!(engine.evaluate(&mut sink), 0);
        assert_eq!(sink.events().count(), 0);

        // Breach: one AlertFired, gauge flips, counter bumps.
        behind.set(500);
        assert_eq!(engine.evaluate(&mut sink), 1);
        assert_eq!(
            engine.evaluate(&mut sink),
            1,
            "steady breach does not re-fire"
        );
        let fired: Vec<_> = sink
            .events()
            .filter(|e| matches!(e, TraceEvent::AlertFired { .. }))
            .collect();
        assert_eq!(fired.len(), 1);
        match fired[0] {
            TraceEvent::AlertFired {
                kind: AlertKind::StragglerGap,
                severity: Severity::Critical,
                value: 500,
                threshold: 100,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.max_value("lmerge_alert_active"), Some(1.0));
        assert_eq!(r.max_value("lmerge_alerts_fired_total"), Some(1.0));

        // Recovery: one AlertResolved, gauge drops.
        behind.set(10);
        assert_eq!(engine.evaluate(&mut sink), 0);
        assert!(sink
            .events()
            .any(|e| matches!(e, TraceEvent::AlertResolved { .. })));
        assert_eq!(r.max_value("lmerge_alert_active"), Some(0.0));
    }

    #[test]
    fn resume_rate_is_a_delta_per_evaluation() {
        let r = MetricsRegistry::new();
        let resumes = r.counter("lmerge_net_resumes_total", "h", &[("input", "0")]);
        let mut engine = AlertEngine::new(
            &r,
            vec![AlertRule::new(AlertKind::ResumeRate, Severity::Warn, 2)],
        );
        let mut sink = Tracer::new();
        resumes.add(2);
        assert_eq!(engine.evaluate(&mut sink), 0, "2 resumes ≤ threshold 2");
        resumes.add(5);
        assert_eq!(engine.evaluate(&mut sink), 1, "5 new resumes > 2");
        assert_eq!(engine.evaluate(&mut sink), 0, "no new resumes → resolves");
    }

    #[test]
    fn missing_series_never_fires() {
        let r = MetricsRegistry::new();
        let mut engine = AlertEngine::new(&r, default_rules());
        let mut sink = Tracer::new();
        assert_eq!(engine.evaluate(&mut sink), 0);
        assert_eq!(sink.events().count(), 0);
        // The alert series still exist (at zero) for scrapes.
        assert_eq!(r.max_value("lmerge_alert_active"), Some(0.0));
    }

    #[test]
    fn ring_drop_rule_fires_on_any_eviction() {
        let r = MetricsRegistry::new();
        r.gauge("lmerge_trace_ring_dropped_total", "h", &[]).set(7);
        let mut engine = AlertEngine::new(
            &r,
            vec![AlertRule::new(AlertKind::RingDrop, Severity::Warn, 0)],
        );
        let mut sink = Tracer::new();
        assert_eq!(engine.evaluate(&mut sink), 1);
    }
}
