//! The pipelined (multi-threaded) sharded executor.
//!
//! [`run_pipeline`] runs a hash-partitioned merge across `K` worker
//! threads: a router (the calling thread) routes each data element by its
//! `(Vs, Payload)` key to one shard's bounded SPSC ring
//! ([`crate::spsc`]), broadcasts `stable` punctuation and lifecycle
//! control (detach/attach) to *every* ring, and the workers drive
//! independent inner merge states. Output is re-sequenced
//! deterministically by a low-watermark aggregator:
//!
//! * every broadcast `stable` closes an **epoch** — the same epoch
//!   boundary on every shard, because every shard sees every stable in
//!   feed order;
//! * within an epoch, shard outputs are concatenated in shard order;
//! * the output stable point after epoch `e` is the **minimum** over the
//!   shards' local stable points, emitted only when it advances.
//!
//! The result is byte-identical across runs regardless of thread
//! scheduling (asserted in the tests below), and equivalent to the
//! synchronous [`lmerge_core::ShardedLMerge`] wrapper — which is itself
//! equivalent, after canonical reordering within stable epochs, to the
//! sequential operator (`tests/shard_equivalence.rs`).
//!
//! Control actions are applied **at the router, before partitioning**:
//! a `Detach`/`Attach` in the feed broadcasts to every shard in feed
//! order, so the shard input registries stay in lockstep and chaos
//! hooks keep their sequential meaning under sharding.
//!
//! Timing note: per-shard busy time is accumulated around the merge work
//! inside each worker with the wall clock. On a machine with at least
//! `K + 1` cores those spans run concurrently and the pipeline's critical
//! path is `max(router, slowest shard)`; on fewer cores preemption
//! inflates the spans. The scaling bench (`lmerge-bench`, fig
//! `shard_scaling`) therefore measures per-shard work in isolation and
//! reports critical-path throughput alongside raw wall clock.

use crate::spsc::{self, Producer};
use lmerge_core::{LogicalMerge, MergeStats};
use lmerge_obs::{StableScope, TraceEvent, TraceSink};
use lmerge_temporal::{Element, Payload, StreamId, Time, VTime};
use std::time::{Duration, Instant};

/// One router-ordered unit of pipeline input.
#[derive(Clone, Debug)]
pub enum PipeItem<P: Payload> {
    /// Deliver one element from one input (global arrival order).
    Deliver(StreamId, Element<P>),
    /// Detach an input (applied at the router, broadcast to all shards).
    Detach(StreamId),
    /// Attach a new input with the given join time.
    Attach(Time),
}

/// What flows through a shard's ring.
enum Op<P: Payload> {
    Elem(StreamId, Element<P>),
    Detach(StreamId),
    Attach(Time),
    Close,
}

/// Pipeline knobs.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Worker (shard) count `K`.
    pub shards: usize,
    /// Slots per shard ring.
    pub queue_capacity: usize,
    /// Sample each shard's queue depth every this many routed items.
    pub sample_every: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            shards: 2,
            queue_capacity: 256,
            sample_every: 64,
        }
    }
}

/// What one worker brings home.
struct ShardOutcome<P: Payload> {
    /// Data outputs per epoch (`boundaries + 1` entries; the last is the
    /// tail after the final stable).
    epochs: Vec<Vec<Element<P>>>,
    /// The shard's local stable point after each closed epoch.
    epoch_stables: Vec<Time>,
    stats: MergeStats,
    memory_bytes: usize,
    busy: Duration,
}

/// The re-sequenced result of a pipelined run.
pub struct PipelineRun<P: Payload> {
    /// The merged output stream, deterministically re-sequenced.
    pub output: Vec<Element<P>>,
    /// Router-level merge stats (inputs counted once, outputs as emitted).
    pub merge: MergeStats,
    /// Each shard's own stats (punctuation counted per shard).
    pub shard_stats: Vec<MergeStats>,
    /// Each shard's final operator memory estimate.
    pub shard_memory: Vec<usize>,
    /// Wall-clock busy time accumulated inside each worker.
    pub shard_busy: Vec<Duration>,
    /// Wall-clock time the router spent routing (including backpressure).
    pub router_busy: Duration,
    /// High-water ring depth observed per shard.
    pub max_depth: Vec<usize>,
    /// Ring-full retries the router spun through (wall-clock backpressure;
    /// nondeterministic across schedules, so a metric, never a trace
    /// event).
    pub router_stalls: u64,
    /// Epochs whose minimum shard stable failed to advance the output
    /// watermark — re-sequencing stalls where one shard held the
    /// aggregate back.
    pub epoch_stalls: u64,
    /// Stable epochs closed during the run.
    pub epochs: usize,
    /// End-to-end wall-clock time of the run.
    pub wall: Duration,
    /// The aggregate output stable point.
    pub max_stable: Time,
}

impl<P: Payload> PipelineRun<P> {
    /// Fold this run's wall-clock facts into the live telemetry plane.
    ///
    /// These are exactly the signals that must *not* be trace events —
    /// stall counts and busy times vary across thread schedules, and the
    /// trace is required to be byte-identical regardless of scheduling.
    pub fn export_metrics(&self, registry: &lmerge_obs::MetricsRegistry) {
        registry
            .counter(
                "lmerge_router_stalls_total",
                "Full-ring retries the router spun through (backpressure).",
                &[],
            )
            .add(self.router_stalls);
        registry
            .counter(
                "lmerge_epoch_stalls_total",
                "Epochs where a trailing shard kept the output watermark from advancing.",
                &[],
            )
            .add(self.epoch_stalls);
        registry
            .gauge(
                "lmerge_router_busy_ms",
                "Wall-clock ms the router spent routing (including backpressure).",
                &[],
            )
            .set(self.router_busy.as_millis() as i64);
        for (s, depth) in self.max_depth.iter().enumerate() {
            let n = s.to_string();
            registry
                .gauge(
                    "lmerge_shard_queue_max_depth",
                    "High-water ring depth observed per shard.",
                    &[("shard", &n)],
                )
                .set(*depth as i64);
            registry
                .gauge(
                    "lmerge_shard_busy_ms",
                    "Wall-clock ms of merge work accumulated inside each shard worker.",
                    &[("shard", &n)],
                )
                .set(self.shard_busy[s].as_millis() as i64);
        }
    }
}

/// Spin-push with a yield: on a box with fewer cores than workers the
/// consumer can only drain while we're off-CPU, so busy-spinning would
/// serialize at scheduler-quantum granularity. Returns the number of
/// full-ring retries, the router's backpressure signal.
fn push_or_yield<T: Send>(tx: &mut Producer<T>, mut value: T) -> u64 {
    let mut stalls = 0;
    while let Err(back) = tx.push(value) {
        value = back;
        stalls += 1;
        std::thread::yield_now();
    }
    stalls
}

/// Run `feed` through `K` shard workers and re-sequence the output.
///
/// `factory` is called once *inside* each worker thread to build that
/// shard's inner merge (so the operator never crosses a thread boundary);
/// every inner merge must be configured for the same number of inputs.
pub fn run_pipeline<P: Payload, S: TraceSink>(
    factory: impl Fn() -> Box<dyn LogicalMerge<P>> + Sync,
    feed: &[PipeItem<P>],
    config: PipelineConfig,
    trace: &mut S,
) -> PipelineRun<P> {
    let k = config.shards.max(1);
    let start = Instant::now();

    let mut producers: Vec<Producer<Op<P>>> = Vec::with_capacity(k);
    let mut consumers = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = spsc::ring(config.queue_capacity.max(1));
        producers.push(tx);
        consumers.push(rx);
    }

    let mut max_depth = vec![0usize; k];
    let mut boundaries = 0usize;
    let mut router_stalls = 0u64;

    let (outcomes, router_busy): (Vec<ShardOutcome<P>>, Duration) = std::thread::scope(|scope| {
        let handles: Vec<_> = consumers
            .into_iter()
            .map(|mut rx| {
                let factory = &factory;
                scope.spawn(move || {
                    let mut merge = factory();
                    let mut busy = Duration::ZERO;
                    let mut out: Vec<Element<P>> = Vec::new();
                    let mut cur: Vec<Element<P>> = Vec::new();
                    let mut epochs: Vec<Vec<Element<P>>> = Vec::new();
                    let mut epoch_stables: Vec<Time> = Vec::new();
                    loop {
                        let Some(op) = rx.pop() else {
                            std::thread::yield_now();
                            continue;
                        };
                        let t0 = Instant::now();
                        match op {
                            Op::Elem(input, e) => {
                                let boundary = e.is_stable();
                                merge.push(input, &e, &mut out);
                                // Local stables are watermark bookkeeping,
                                // not output: the aggregator re-derives the
                                // output stable point across shards.
                                cur.extend(out.drain(..).filter(|o| !o.is_stable()));
                                if boundary {
                                    epochs.push(std::mem::take(&mut cur));
                                    epoch_stables.push(merge.max_stable());
                                }
                            }
                            Op::Detach(id) => merge.detach(id),
                            Op::Attach(t) => {
                                merge.attach(t);
                            }
                            Op::Close => break,
                        }
                        busy += t0.elapsed();
                    }
                    epochs.push(cur); // tail after the last stable
                    ShardOutcome {
                        epochs,
                        epoch_stables,
                        stats: merge.stats(),
                        memory_bytes: merge.memory_bytes(),
                        busy,
                    }
                })
            })
            .collect();

        // ---- the router ----
        let r0 = Instant::now();
        for (i, item) in feed.iter().enumerate() {
            match item {
                PipeItem::Deliver(input, e) => match e.key() {
                    Some((vs, payload)) => {
                        let s = lmerge_core::shard_of(vs, payload, k);
                        router_stalls +=
                            push_or_yield(&mut producers[s], Op::Elem(*input, e.clone()));
                        max_depth[s] = max_depth[s].max(producers[s].len());
                    }
                    None => {
                        boundaries += 1;
                        for tx in producers.iter_mut() {
                            router_stalls += push_or_yield(tx, Op::Elem(*input, e.clone()));
                        }
                    }
                },
                PipeItem::Detach(id) => {
                    for tx in producers.iter_mut() {
                        router_stalls += push_or_yield(tx, Op::Detach(*id));
                    }
                }
                PipeItem::Attach(t) => {
                    for tx in producers.iter_mut() {
                        router_stalls += push_or_yield(tx, Op::Attach(*t));
                    }
                }
            }
            if trace.enabled() && (i + 1) % config.sample_every.max(1) == 0 {
                for (s, tx) in producers.iter().enumerate() {
                    trace.record(TraceEvent::ShardQueueSampled {
                        at: VTime((i + 1) as u64),
                        shard: s as u32,
                        depth: tx.len() as u32,
                        capacity: tx.capacity() as u32,
                    });
                }
            }
        }
        for tx in producers.iter_mut() {
            router_stalls += push_or_yield(tx, Op::Close);
        }
        let router_busy = r0.elapsed();
        drop(producers);

        let outcomes = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        (outcomes, router_busy)
    });

    // ---- the low-watermark aggregator ----
    let mut output = Vec::new();
    let mut watermark = Time::MIN;
    let mut shard_hw = vec![Time::MIN; k];
    let mut stables_out = 0u64;
    let mut epoch_stalls = 0u64;
    for e in 0..boundaries {
        for oc in &outcomes {
            output.extend_from_slice(&oc.epochs[e]);
        }
        let mut min_stable = Time::INFINITY;
        for (s, oc) in outcomes.iter().enumerate() {
            let st = oc.epoch_stables[e];
            min_stable = min_stable.min(st);
            if trace.enabled() && st > shard_hw[s] {
                shard_hw[s] = st;
                trace.record(TraceEvent::StablePointAdvanced {
                    at: VTime((e + 1) as u64),
                    scope: StableScope::Shard(s as u32),
                    stable: st,
                });
            }
        }
        if min_stable > watermark {
            watermark = min_stable;
            stables_out += 1;
            output.push(Element::stable(watermark));
            if trace.enabled() {
                trace.record(TraceEvent::StablePointAdvanced {
                    at: VTime((e + 1) as u64),
                    scope: StableScope::Output,
                    stable: watermark,
                });
            }
        } else {
            epoch_stalls += 1;
        }
    }
    for oc in &outcomes {
        output.extend_from_slice(&oc.epochs[boundaries]);
    }

    // Router-level stats: data inputs sum over shards (each data element
    // reached exactly one); punctuation was broadcast, so any single
    // shard's count is the router-level count.
    let mut merge = MergeStats::default();
    for oc in &outcomes {
        merge.inserts_in += oc.stats.inserts_in;
        merge.adjusts_in += oc.stats.adjusts_in;
        merge.inserts_out += oc.stats.inserts_out;
        merge.adjusts_out += oc.stats.adjusts_out;
        merge.dropped += oc.stats.dropped;
    }
    merge.stables_in = outcomes[0].stats.stables_in;
    merge.stables_out = stables_out;

    PipelineRun {
        output,
        merge,
        shard_stats: outcomes.iter().map(|o| o.stats).collect(),
        shard_memory: outcomes.iter().map(|o| o.memory_bytes).collect(),
        shard_busy: outcomes.iter().map(|o| o.busy).collect(),
        router_busy,
        max_depth,
        router_stalls,
        epoch_stalls,
        epochs: boundaries,
        wall: start.elapsed(),
        max_stable: watermark,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_core::{new_for_level, MergePolicy, ShardConfig, ShardedLMerge};
    use lmerge_obs::{NullSink, Tracer};
    use lmerge_properties::RLevel;

    type E = Element<&'static str>;

    fn feed() -> Vec<PipeItem<&'static str>> {
        let mut f = Vec::new();
        for (input, e) in [
            (0u32, E::insert("a", 1, 5)),
            (1u32, E::insert("a", 1, 5)),
            (0, E::insert("b", 2, 9)),
            (0, E::stable(3)),
            (1, E::insert("b", 2, 9)),
            (1, E::stable(3)),
            (0, E::insert("c", 4, 8)),
            (1, E::insert("c", 4, 8)),
            (0, E::stable(Time::INFINITY)),
            (1, E::stable(Time::INFINITY)),
        ] {
            f.push(PipeItem::Deliver(StreamId(input), e));
        }
        f
    }

    fn factory() -> Box<dyn LogicalMerge<&'static str>> {
        new_for_level(RLevel::R3, 2, MergePolicy::paper_default())
    }

    #[test]
    fn pipelined_run_is_deterministic() {
        let cfg = PipelineConfig {
            shards: 4,
            queue_capacity: 8,
            sample_every: 2,
        };
        let a = run_pipeline(factory, &feed(), cfg, &mut NullSink);
        let b = run_pipeline(factory, &feed(), cfg, &mut NullSink);
        assert_eq!(
            format!("{:?}", a.output),
            format!("{:?}", b.output),
            "byte-identical output regardless of scheduling"
        );
        assert_eq!(a.merge, b.merge);
        assert_eq!(a.max_stable, Time::INFINITY);
        assert_eq!(a.epochs, 4);
    }

    #[test]
    fn pipeline_matches_the_synchronous_sharded_wrapper() {
        let cfg = PipelineConfig {
            shards: 4,
            queue_capacity: 8,
            sample_every: 64,
        };
        let piped = run_pipeline(factory, &feed(), cfg, &mut NullSink);

        let mut sync = ShardedLMerge::from_factory(ShardConfig::with_shards(4), 2, factory);
        let mut sync_out = Vec::new();
        for item in feed() {
            let PipeItem::Deliver(input, e) = item else {
                unreachable!()
            };
            sync.push(input, &e, &mut sync_out);
        }
        assert_eq!(
            format!("{:?}", piped.output),
            format!("{sync_out:?}"),
            "threaded pipeline replays the synchronous wrapper exactly"
        );
        assert_eq!(piped.max_stable, sync.max_stable());
        let ss = sync.stats();
        assert_eq!(piped.merge.inserts_out, ss.inserts_out);
        assert_eq!(piped.merge.stables_out, ss.stables_out);
        assert_eq!(piped.merge.dropped, ss.dropped);
    }

    #[test]
    fn detach_is_applied_at_the_router_in_feed_order() {
        let mut f = feed();
        // Detach input 1 right before its copy of "c": that insert must be
        // ignored by every shard, exactly as in a sequential run.
        f.insert(7, PipeItem::Detach(StreamId(1)));
        let cfg = PipelineConfig {
            shards: 3,
            queue_capacity: 4,
            sample_every: 64,
        };
        let piped = run_pipeline(factory, &f, cfg, &mut NullSink);
        // Sequential oracle.
        let mut seq = factory();
        let mut seq_out = Vec::new();
        for item in &f {
            match item {
                PipeItem::Deliver(input, e) => seq.push(*input, e, &mut seq_out),
                PipeItem::Detach(id) => seq.detach(*id),
                PipeItem::Attach(t) => {
                    seq.attach(*t);
                }
            }
        }
        let fp = |v: &[E]| {
            let mut d: Vec<String> = v.iter().map(|e| format!("{e:?}")).collect();
            d.sort();
            d
        };
        assert_eq!(fp(&piped.output), fp(&seq_out));
        assert_eq!(piped.max_stable, seq.max_stable());
    }

    #[test]
    fn tracing_surfaces_queue_depth_and_shard_stables() {
        let cfg = PipelineConfig {
            shards: 2,
            queue_capacity: 4,
            sample_every: 3,
        };
        let mut tracer = Tracer::new();
        let run = run_pipeline(factory, &feed(), cfg, &mut tracer);
        assert!(tracer
            .events()
            .any(|e| matches!(e, TraceEvent::ShardQueueSampled { .. })));
        assert!(tracer.events().any(|e| matches!(
            e,
            TraceEvent::StablePointAdvanced {
                scope: StableScope::Shard(_),
                ..
            }
        )));
        // Gauges fold the shard story.
        assert_eq!(tracer.shards().watermark(), run.max_stable);
        assert_eq!(tracer.shards().shards().len(), 2);
        assert!(tracer.shards().shards().iter().all(|s| s.capacity == 4));
    }

    #[test]
    fn metered_run_feeds_live_series_without_changing_the_trace() {
        use lmerge_obs::{EngineMetrics, MeteredSink, MetricsRegistry};
        let cfg = PipelineConfig {
            shards: 2,
            queue_capacity: 4,
            sample_every: 2,
        };
        let mut plain = Tracer::new();
        let baseline = run_pipeline(factory, &feed(), cfg, &mut plain);

        let registry = MetricsRegistry::new();
        let mut metered = MeteredSink::new(Tracer::new(), EngineMetrics::new(&registry));
        let run = run_pipeline(factory, &feed(), cfg, &mut metered);
        run.export_metrics(&registry);

        // Trace purity: the metered run's trace is the plain run's, event
        // for event. The sampled ring depth is the one field two runs of
        // the same feed may differ in (it reads the shard threads' progress
        // at that instant), so it is compared as "a sample was taken".
        let events = |t: &Tracer| -> Vec<TraceEvent> {
            t.events()
                .map(|e| match *e {
                    TraceEvent::ShardQueueSampled {
                        at,
                        shard,
                        capacity,
                        ..
                    } => TraceEvent::ShardQueueSampled {
                        at,
                        shard,
                        depth: 0,
                        capacity,
                    },
                    other => other,
                })
                .collect()
        };
        assert_eq!(events(&plain), events(metered.inner()));
        assert_eq!(
            format!("{:?}", baseline.output),
            format!("{:?}", run.output)
        );

        // And the live series filled in.
        assert!(registry.max_value("lmerge_shard_queue_depth").is_some());
        // The +∞ sentinel is clamped by the metrics bridge so a gauge
        // (and the f64 exposition) can carry it.
        assert_eq!(
            registry.max_value("lmerge_output_stable"),
            Some((i64::MAX - 1) as f64)
        );
        assert!(registry.max_value("lmerge_epoch_stalls_total").is_some());
        assert!(registry.max_value("lmerge_router_stalls_total").is_some());
        assert!(registry.max_value("lmerge_shard_busy_ms").is_some());
    }

    #[test]
    fn untraced_equals_traced() {
        let cfg = PipelineConfig {
            shards: 2,
            queue_capacity: 4,
            sample_every: 2,
        };
        let plain = run_pipeline(factory, &feed(), cfg, &mut NullSink);
        let mut tracer = Tracer::new();
        let traced = run_pipeline(factory, &feed(), cfg, &mut tracer);
        assert_eq!(
            format!("{:?}", plain.output),
            format!("{:?}", traced.output)
        );
        assert_eq!(plain.merge, traced.merge);
    }
}
