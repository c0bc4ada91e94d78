//! The virtual-time executor: N queries feeding one LMerge.
//!
//! Batches leave each query at deterministic virtual times (arrival order ×
//! queueing × operator cost); the executor delivers them to LMerge in global
//! virtual-time order, measures everything (Section VI-B's metrics), and —
//! when enabled — carries LMerge's feedback point back to the queries so
//! slower plans can fast-forward (Section V-D).
//!
//! The run ends when the merged output becomes complete (its stable point
//! reaches `∞` — "answers can be pulled from whichever copy finishes
//! first"), or when every input is drained.
//!
//! This is the workspace's one executor: [`MergeRun::run_checkpointed`] is
//! the loop, and [`MergeRun::run`] / [`MergeRun::run_with_hooks`] call it
//! with inert defaults. Its three seams are each statically erasable: a
//! [`TraceSink`] records typed [`TraceEvent`]s (the default [`NullSink`]
//! compiles the instrumentation away), a [`RunHooks`] sees every batch and
//! every emission — [`RunHooks::on_consumed`] is the only way merged output
//! leaves the loop — and a [`CheckpointSink`] is offered a cut after each
//! delivery.

use crate::durability::{CheckpointSink, EgressImage, ExecutorImage, NoCheckpoint, RunCut};
use crate::hooks::{ControlAction, FaultAction, NoHooks, RunHooks};
use crate::metrics::{RunMetrics, Series};
use crate::query::{Batch, Query};
use lmerge_core::{BatchMeta, InputHealth, LogicalMerge};
use lmerge_obs::{ElementKind, FaultKind, HealthTag, NullSink, StableScope, TraceEvent, TraceSink};
use lmerge_temporal::{Element, Payload, StreamId, Time, VTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The obs-layer tag for a merge-reported input health.
fn tag_of(h: InputHealth) -> HealthTag {
    match h {
        InputHealth::Active => HealthTag::Active,
        InputHealth::Joining => HealthTag::Joining,
        InputHealth::Quarantined => HealthTag::Quarantined,
        InputHealth::Left => HealthTag::Left,
    }
}

/// Emit an `InputHealthChanged` event for every input whose merge-reported
/// health differs from the cached view. Called at virtual-time boundaries
/// where health can move (consumption, control actions).
fn sync_health<P: Payload, S: TraceSink>(
    lmerge: &dyn LogicalMerge<P>,
    health: &mut [InputHealth],
    trace: &mut S,
    at: VTime,
) {
    for (i, cached) in health.iter_mut().enumerate() {
        let now = lmerge.input_health(StreamId(i as u32));
        if now != *cached {
            *cached = now;
            trace.record(TraceEvent::InputHealthChanged {
                at,
                input: i as u32,
                health: tag_of(now),
            });
        }
    }
}

/// The trace-event kind of a stream element.
fn kind_of<P: Payload>(e: &Element<P>) -> ElementKind {
    match e {
        Element::Insert(_) => ElementKind::Insert,
        Element::Adjust { .. } => ElementKind::Adjust,
        Element::Stable(_) => ElementKind::Stable,
    }
}

/// The element's `Vs` (for punctuation, the stable time itself).
fn vs_of<P: Payload>(e: &Element<P>) -> Time {
    match e {
        Element::Insert(ev) => ev.vs,
        Element::Adjust { vs, .. } => *vs,
        Element::Stable(t) => *t,
    }
}

/// Record a `FaultInjected` event when tracing.
fn fault<S: TraceSink>(trace: &mut S, at: VTime, input: u32, kind: FaultKind) {
    if trace.enabled() {
        trace.record(TraceEvent::FaultInjected { at, input, kind });
    }
}

/// Record that query `qi` has no batch left, when tracing.
fn drained<S: TraceSink>(trace: &mut S, at: VTime, qi: usize) {
    if trace.enabled() {
        trace.record(TraceEvent::InputDrained {
            at,
            input: qi as u32,
        });
    }
}

/// The delivery heap and the batch each query has staged on it. Entries are
/// `(deliver_at, sequence, query)` — the sequence keeps ordering total and
/// deterministic when delivery times tie. With the per-query pull counts
/// and each staged batch's sequence it is the replayable executor cut a
/// checkpoint captures.
struct Staging<P> {
    heap: BinaryHeap<Reverse<(VTime, u64, usize)>>,
    seq: u64,
    pending: Vec<Option<Batch<P>>>,
    pulls: Vec<u64>,
    staged_seq: Vec<u64>,
}

impl<P: Payload> Staging<P> {
    /// Nothing staged for `n` queries.
    fn new(n: usize) -> Self {
        Staging {
            heap: BinaryHeap::new(),
            seq: 0,
            pending: (0..n).map(|_| None).collect(),
            pulls: vec![0; n],
            staged_seq: vec![0; n],
        }
    }

    /// Stage `batch` for query `qi` at its `deliver_at`, under the next
    /// sequence number.
    fn stage(&mut self, qi: usize, batch: Batch<P>) {
        self.heap.push(Reverse((batch.deliver_at, self.seq, qi)));
        self.staged_seq[qi] = self.seq;
        self.seq += 1;
        self.pending[qi] = Some(batch);
    }

    /// Pull query `qi`'s next batch and stage it. False when it is drained.
    fn pull(&mut self, qi: usize, queries: &mut [Query<P>]) -> bool {
        let Some(batch) = queries[qi].next_batch() else {
            return false;
        };
        self.pulls[qi] += 1;
        self.stage(qi, batch);
        true
    }
}

/// Virtual CPU cost LMerge pays per element it consumes.
const LMERGE_COST_US: u64 = 1;

/// Executor knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Whether LMerge feedback signals are propagated to the queries.
    pub feedback: bool,
    /// Sample memory every this many delivered batches.
    pub mem_sample_every: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            feedback: false,
            mem_sample_every: 256,
        }
    }
}

/// N queries merged by one LMerge operator under virtual time.
pub struct MergeRun<P: Payload> {
    queries: Vec<Query<P>>,
    lmerge: Box<dyn LogicalMerge<P>>,
    config: RunConfig,
    /// When present, the run continues a killed run from this cut instead
    /// of starting fresh (see [`MergeRun::resumed`]).
    resume: Option<ExecutorImage>,
}

impl<P: Payload> MergeRun<P> {
    /// Assemble a run. The LMerge instance must have been constructed for
    /// (at least) `queries.len()` inputs; query `i` feeds `StreamId(i)`.
    pub fn new(
        queries: Vec<Query<P>>,
        lmerge: Box<dyn LogicalMerge<P>>,
        config: RunConfig,
    ) -> MergeRun<P> {
        MergeRun {
            queries,
            lmerge,
            config,
            resume: None,
        }
    }

    /// Continue a killed run from a checkpoint's executor cut.
    ///
    /// `queries` must be built from the *same* source definitions as the
    /// killed run's (queries are deterministic, so the executor replays
    /// and discards the batches the checkpoint already covered), and
    /// `lmerge` must already carry the checkpoint's restored merge state
    /// (`restore_state`). Structural faults in flight at the checkpoint
    /// (dead or stalled inputs, mid-run attachments) are not resumable.
    pub fn resumed(
        queries: Vec<Query<P>>,
        lmerge: Box<dyn LogicalMerge<P>>,
        config: RunConfig,
        exec: ExecutorImage,
    ) -> MergeRun<P> {
        assert_eq!(
            queries.len(),
            exec.pulls.len(),
            "resume requires the killed run's query topology"
        );
        MergeRun {
            queries,
            lmerge,
            config,
            resume: Some(exec),
        }
    }

    /// Execute to completion, returning the metrics: untraced, unhooked and
    /// uncheckpointed, so the instrumentation compiles away entirely.
    pub fn run(self) -> RunMetrics {
        self.run_with_hooks(&mut NullSink, &mut NoHooks)
    }

    /// Execute to completion, recording trace events into `trace` and
    /// handing every batch to `hooks`.
    ///
    /// Pass a [`lmerge_obs::Tracer`] to capture the event ring and per-input
    /// lag gauges; the caller keeps ownership and can export afterwards.
    /// `hooks` sees every batch at delivery (and may drop, replace, or
    /// delay it), every emission through [`RunHooks::on_consumed`], and is
    /// polled for structural [`ControlAction`]s — detach, attach, stall —
    /// at each virtual-time boundary. Pass [`NoHooks`] to run without hooks.
    pub fn run_with_hooks<S: TraceSink, H: RunHooks<P>>(
        self,
        trace: &mut S,
        hooks: &mut H,
    ) -> RunMetrics {
        self.run_checkpointed(trace, hooks, &mut NoCheckpoint)
    }

    /// The full run loop: tracing, hooks, and checkpoint cuts offered to
    /// `sink` at the end of each delivery iteration (see
    /// [`CheckpointSink`]). A halting `save` ends the run without the
    /// completion postlude — the trace stops exactly where a killed
    /// process's would.
    pub fn run_checkpointed<S: TraceSink, H: RunHooks<P>, C: CheckpointSink<P>>(
        mut self,
        trace: &mut S,
        hooks: &mut H,
        sink: &mut C,
    ) -> RunMetrics {
        let n = self.queries.len();
        let mut metrics = RunMetrics {
            input_series: vec![Series::default(); n],
            ..Default::default()
        };
        let mut staging = Staging::new(n);
        let mut lmerge_ready = VTime::ZERO;
        let mut delivered = 0usize;
        let mut last_feedback = Time::MIN;
        // High-water marks so stable-point trace events fire only on a
        // genuine advance (used only when tracing is enabled).
        let mut input_stable_hw = vec![Time::MIN; n];
        let mut output_stable_hw = Time::MIN;

        match self.resume.take() {
            None => {
                for qi in 0..n {
                    staging.pull(qi, &mut self.queries);
                }
            }
            Some(img) => {
                // Replay each query up to its recorded pull count; the
                // last pull is the batch that sat staged at the cut, and
                // it re-enters the heap under its original key so ties
                // break exactly as they would have.
                for qi in 0..n {
                    let pulls = 0..img.pulls[qi];
                    let last = pulls.map(|_| self.queries[qi].next_batch()).last();
                    if let Some((at, s)) = img.staged[qi] {
                        let mut b = last
                            .flatten()
                            .expect("resume: checkpointed staged batch must replay");
                        b.deliver_at = at;
                        staging.seq = s;
                        staging.stage(qi, b);
                    }
                }
                staging.pulls = img.pulls;
                staging.seq = img.seq;
                lmerge_ready = img.lmerge_ready;
                delivered = img.delivered as usize;
                last_feedback = img.last_feedback;
                input_stable_hw = img.input_stable_hw;
                output_stable_hw = img.output_stable_hw;
            }
        }

        let mut out = Vec::new();
        // Per-input fault state: a dead input's queued and future batches
        // are lost; a stalled input's staged batch is re-timed lazily.
        let mut dead = vec![false; n];
        let mut stalled_until = vec![VTime::ZERO; n];
        let mut health: Vec<InputHealth> = (0..n)
            .map(|i| self.lmerge.input_health(StreamId(i as u32)))
            .collect();
        let mut control: Vec<ControlAction<P>> = Vec::new();

        while let Some(Reverse((deliver_at, _, qi))) = staging.heap.pop() {
            let mut batch = staging.pending[qi]
                .take()
                .expect("batch staged for this query");
            debug_assert_eq!(batch.deliver_at, deliver_at);

            // Structural fault actions land exactly at virtual-time
            // boundaries, before the batch at that boundary is considered.
            if hooks.enabled() {
                hooks.control(deliver_at, &mut control);
                for action in control.drain(..) {
                    match action {
                        ControlAction::Detach(id) => {
                            self.lmerge.detach(id);
                            if let Some(d) = dead.get_mut(id.0 as usize) {
                                *d = true;
                            }
                            fault(trace, deliver_at, id.0, FaultKind::Detach);
                        }
                        ControlAction::Attach { join_time, source } => {
                            let id = self.lmerge.attach(join_time);
                            let nqi = self.queries.len();
                            debug_assert_eq!(
                                id.0 as usize, nqi,
                                "attached stream ids align with query indices"
                            );
                            let mut q = Query::passthrough(source);
                            // The joiner's core exists only from now on.
                            q.stall(deliver_at);
                            self.queries.push(q);
                            staging.pending.push(None);
                            staging.pulls.push(0);
                            staging.staged_seq.push(0);
                            dead.push(false);
                            stalled_until.push(VTime::ZERO);
                            health.push(self.lmerge.input_health(id));
                            input_stable_hw.push(Time::MIN);
                            metrics.input_series.push(Series::default());
                            staging.pull(nqi, &mut self.queries);
                            fault(trace, deliver_at, id.0, FaultKind::Attach);
                        }
                        ControlAction::Stall { input, until } => {
                            let i = input as usize;
                            if i < self.queries.len() && !dead[i] {
                                self.queries[i].stall(until);
                                stalled_until[i] = stalled_until[i].max(until);
                                fault(trace, deliver_at, input, FaultKind::Stall);
                            }
                        }
                        ControlAction::CrashMerge { rebuild } => {
                            // Export, kill, rebuild: the queries and the
                            // delivery heap model the world outside the
                            // crashed operator and survive untouched.
                            if let Some(img) = self.lmerge.export_state() {
                                self.lmerge = rebuild(img);
                                fault(trace, deliver_at, u32::MAX, FaultKind::CrashMerge);
                            }
                        }
                    }
                }
                if trace.enabled() {
                    sync_health(self.lmerge.as_ref(), &mut health, trace, deliver_at);
                }
            }

            // A crashed input's queued work dies with it.
            if dead[qi] {
                continue;
            }
            // A stalled input's staged batch is re-timed to the stall end.
            if deliver_at < stalled_until[qi] {
                batch.deliver_at = stalled_until[qi];
                staging.stage(qi, batch);
                continue;
            }

            // Batch-level fault actions.
            if hooks.enabled() {
                match hooks.on_deliver(qi as u32, deliver_at, &batch.elements) {
                    FaultAction::Deliver => {}
                    FaultAction::Drop => {
                        fault(trace, deliver_at, qi as u32, FaultKind::DropBatch);
                        // Skip consumption entirely; the query still
                        // produces its next batch, so only this batch is
                        // lost.
                        if !staging.pull(qi, &mut self.queries) {
                            drained(trace, deliver_at, qi);
                        }
                        continue;
                    }
                    FaultAction::Replace(elems) => {
                        batch.meta = BatchMeta::of(&elems);
                        batch.elements = elems;
                        fault(trace, deliver_at, qi as u32, FaultKind::ReplaceBatch);
                    }
                    FaultAction::Delay(until) => {
                        if until > deliver_at {
                            fault(trace, deliver_at, qi as u32, FaultKind::DelayBatch);
                            batch.deliver_at = until;
                            staging.stage(qi, batch);
                            continue;
                        }
                    }
                }
            }

            // LMerge consumes the batch once it is both delivered and the
            // operator's core is free.
            let start = deliver_at.max(lmerge_ready);
            out.clear();
            let data_in = batch.meta.data() as u64;
            // One batched push: per-batch counting/gating, and the indexed
            // variants' O(1) discard of wholly-frozen batches.
            self.lmerge
                .push_batch(StreamId(qi as u32), &batch.elements, &mut out);
            lmerge_ready = start.advance(LMERGE_COST_US * batch.elements.len().max(1) as u64);
            metrics.input_series[qi].add(deliver_at, data_in);

            let data_out = out.iter().filter(|e| !e.is_stable()).count() as u64;
            if data_out > 0 {
                metrics.output_series.add(lmerge_ready, data_out);
                metrics.latency.record(lmerge_ready.since(batch.arrival));
            }

            if trace.enabled() {
                // Delivery-time events first, emission-time events second,
                // so the trace stays in virtual-time order.
                trace.record(TraceEvent::BatchDelivered {
                    at: deliver_at,
                    input: qi as u32,
                    elements: batch.elements.len() as u32,
                    data: data_in as u32,
                });
                let in_stable = self.lmerge.input_stable(StreamId(qi as u32));
                if in_stable > input_stable_hw[qi] {
                    input_stable_hw[qi] = in_stable;
                    trace.record(TraceEvent::StablePointAdvanced {
                        at: deliver_at,
                        scope: StableScope::Input(qi as u32),
                        stable: in_stable,
                    });
                }
                trace.record(TraceEvent::QueueDepthSampled {
                    at: deliver_at,
                    staged: staging.heap.len() as u32,
                });
                for e in &out {
                    trace.record(TraceEvent::ElementEmitted {
                        at: lmerge_ready,
                        kind: kind_of(e),
                        vs: vs_of(e),
                    });
                }
                let out_stable = self.lmerge.max_stable();
                if out_stable > output_stable_hw {
                    output_stable_hw = out_stable;
                    trace.record(TraceEvent::StablePointAdvanced {
                        at: lmerge_ready,
                        scope: StableScope::Output,
                        stable: out_stable,
                    });
                }
            }

            if hooks.enabled() {
                hooks.on_consumed(qi as u32, lmerge_ready, &batch.elements, &out);
                if trace.enabled() {
                    sync_health(self.lmerge.as_ref(), &mut health, trace, lmerge_ready);
                }
            }

            // Feedback propagation (Section V-D).
            if self.config.feedback {
                let fp = self.lmerge.feedback_point();
                if fp > last_feedback {
                    last_feedback = fp;
                    for q in &mut self.queries {
                        q.on_feedback(fp);
                    }
                    if trace.enabled() {
                        trace.record(TraceEvent::FeedbackPropagated {
                            at: lmerge_ready,
                            point: fp,
                        });
                    }
                }
            }

            delivered += 1;
            if self.config.mem_sample_every != 0
                && delivered.is_multiple_of(self.config.mem_sample_every)
            {
                self.sample_memory(&mut metrics, trace, lmerge_ready, true);
            }

            // Output complete? Then the remaining inputs are redundant.
            if self.lmerge.max_stable() == Time::INFINITY {
                metrics.output_complete_at = Some(lmerge_ready);
                break;
            }

            // Stage this query's next batch.
            if !staging.pull(qi, &mut self.queries) {
                drained(trace, lmerge_ready, qi);
            }

            // Offer a checkpoint cut now that the next batch is staged:
            // everything above this line is covered by the image,
            // everything below replays identically on resume.
            if sink.enabled() && sink.want(self.lmerge.max_stable(), delivered as u64) {
                if let Some(merge) = self.lmerge.export_cut() {
                    let entries = merge.entries as u64;
                    let cut = RunCut {
                        merge,
                        exec: ExecutorImage {
                            lmerge_ready,
                            delivered: delivered as u64,
                            seq: staging.seq,
                            last_feedback,
                            input_stable_hw: input_stable_hw.clone(),
                            output_stable_hw,
                            pulls: staging.pulls.clone(),
                            staged: (staging.pending.iter().zip(&staging.staged_seq))
                                .map(|(p, &s)| p.as_ref().map(|b| (b.deliver_at, s)))
                                .collect(),
                        },
                        cursors: Vec::new(),
                        egress: EgressImage::default(),
                    };
                    if let Some(saved) = sink.save(cut) {
                        if trace.enabled() {
                            trace.record(TraceEvent::CheckpointTaken {
                                at: lmerge_ready,
                                seq: saved.seq,
                                entries,
                                delta: saved.delta,
                            });
                        }
                        if saved.halt {
                            // A modeled kill: no postlude, the trace just
                            // stops. Merge stats still reflect the state
                            // the checkpoint captured.
                            sink.finish();
                            metrics.merge = self.lmerge.stats();
                            return metrics;
                        }
                    }
                }
            }
        }

        sink.finish();
        let cores = self.queries.iter().map(Query::core_ready);
        metrics.drained_at = cores.fold(lmerge_ready, VTime::max);
        // Final memory sample so short runs still record something.
        // `mem_sample_every: 0` disables memory tracing entirely: the
        // recovery tests rely on it, because capacity-based accounting
        // (hash maps, scratch buffers) is not part of the restorable state
        // and may differ across a restore.
        let traced = self.config.mem_sample_every != 0;
        self.sample_memory(&mut metrics, trace, lmerge_ready, traced);
        metrics.merge = self.lmerge.stats();
        if trace.enabled() {
            trace.record(TraceEvent::RunCompleted {
                at: metrics.completion(),
            });
        }
        metrics
    }

    /// Sample the merge's and the queries' memory at `at` into `metrics`,
    /// and into the trace when `traced`.
    fn sample_memory<S: TraceSink>(
        &self,
        metrics: &mut RunMetrics,
        trace: &mut S,
        at: VTime,
        traced: bool,
    ) {
        let mem = self.lmerge.memory_bytes()
            + self.queries.iter().map(Query::memory_bytes).sum::<usize>();
        metrics.peak_memory = metrics.peak_memory.max(mem);
        metrics.memory_samples.push((at, mem));
        if traced && trace.enabled() {
            trace.record(TraceEvent::MemorySampled {
                at,
                bytes: mem as u64,
            });
        }
    }
}

/// Drain a single query with no merge at all — the "without LMerge"
/// baseline used by Figures 4 and 10.
pub fn run_single<P: Payload>(mut query: Query<P>) -> (Vec<Element<P>>, VTime) {
    let mut out = Vec::new();
    let mut end = VTime::ZERO;
    while let Some(b) = query.next_batch() {
        out.extend(b.elements);
        end = b.deliver_at;
    }
    (out, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::TimedElement;
    use lmerge_core::{LMergeR3, MergePolicy};
    use lmerge_temporal::reconstitute::tdb_of;

    type E = Element<&'static str>;

    fn timed(items: &[(u64, E)]) -> Vec<TimedElement<&'static str>> {
        items
            .iter()
            .map(|(at, e)| TimedElement::new(VTime(*at), e.clone()))
            .collect()
    }

    fn lmr3(n: usize) -> Box<dyn LogicalMerge<&'static str>> {
        Box::new(LMergeR3::with_policy(n, MergePolicy::paper_default()))
    }

    #[test]
    fn merges_two_identical_streams_without_duplicates() {
        // Two copies of one logical stream; the second lags by 500 µs.
        let s1 = timed(&[
            (0, E::insert("a", 1, 5)),
            (10, E::insert("b", 2, 6)),
            (20, E::stable(Time::INFINITY)),
        ]);
        let s2: Vec<_> = s1
            .iter()
            .map(|te| TimedElement::new(te.at.advance(500), te.element.clone()))
            .collect();
        let run = MergeRun::new(
            vec![Query::passthrough(s1), Query::passthrough(s2)],
            lmr3(2),
            RunConfig::default(),
        );
        let m = run.run();
        assert_eq!(m.merge.inserts_out, 2, "no duplicates");
        assert!(
            m.output_complete_at.is_some(),
            "stable(∞) completes the run"
        );
    }

    #[test]
    fn completion_follows_faster_input() {
        // Same logical stream; input 1 is 1s slower per element.
        let mk = |lag: u64| {
            timed(&[
                (lag, E::insert("a", 1, 5)),
                (10 + lag, E::stable(Time::INFINITY)),
            ])
        };
        let m = MergeRun::new(
            vec![Query::passthrough(mk(0)), Query::passthrough(mk(1_000_000))],
            lmr3(2),
            RunConfig::default(),
        )
        .run();
        let done = m.output_complete_at.expect("completed");
        assert!(
            done < VTime::from_millis(100),
            "output completed from the fast input, got {done}"
        );
    }

    #[test]
    fn merged_output_reconstitutes() {
        let s = timed(&[
            (0, E::insert("a", 1, 5)),
            (5, E::insert("b", 2, 9)),
            (9, E::adjust("b", 2, 9, 7)),
            (12, E::stable(Time::INFINITY)),
        ]);
        // Run and capture output through a collecting LMerge: reuse the
        // operator directly for output capture.
        let mut lm = LMergeR3::new(1);
        let mut all = Vec::new();
        for te in &s {
            lm.push(StreamId(0), &te.element, &mut all);
        }
        let tdb = tdb_of(&all).unwrap();
        assert_eq!(tdb.len(), 2);
    }

    #[test]
    fn run_single_drains_everything() {
        let s = timed(&[(0, E::insert("a", 1, 5)), (7, E::stable(9))]);
        let (out, end) = run_single(Query::passthrough(s));
        assert_eq!(out.len(), 2);
        assert!(end > VTime::ZERO);
    }

    #[test]
    fn traced_run_records_the_story() {
        use lmerge_obs::Tracer;
        let s1 = timed(&[
            (0, E::insert("a", 1, 5)),
            (10, E::stable(3)),
            (20, E::insert("b", 4, 8)),
            (30, E::stable(Time::INFINITY)),
        ]);
        let s2: Vec<_> = s1
            .iter()
            .map(|te| TimedElement::new(te.at.advance(5_000), te.element.clone()))
            .collect();
        let mut tracer = Tracer::new();
        let m = MergeRun::new(
            vec![Query::passthrough(s1), Query::passthrough(s2)],
            lmr3(2),
            RunConfig {
                feedback: true,
                ..RunConfig::default()
            },
        )
        .run_with_hooks(&mut tracer, &mut NoHooks);

        let events: Vec<TraceEvent> = tracer.events().copied().collect();
        let batches = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BatchDelivered { .. }))
            .count();
        assert!(batches >= 4, "deliveries traced, got {batches}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::ElementEmitted { .. })),
            "emissions traced"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::StablePointAdvanced {
                    scope: StableScope::Output,
                    ..
                }
            )),
            "output stable advance traced"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::StablePointAdvanced {
                    scope: StableScope::Input(0),
                    ..
                }
            )),
            "per-input stable advance traced"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::FeedbackPropagated { .. })),
            "feedback traced"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::RunCompleted { .. })),
            "completion traced"
        );
        // The gauges agree with the merge's own view of progress.
        assert_eq!(tracer.lag().output_stable(), Time::INFINITY);
        assert!(m.output_complete_at.is_some());
        // Virtual timestamps are monotone within the trace.
        let times: Vec<_> = events.iter().map(|e| e.at()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "trace is in virtual-time order");
    }

    #[test]
    fn untraced_run_equals_traced_run() {
        use lmerge_obs::Tracer;
        let mk = || {
            vec![
                Query::passthrough(timed(&[
                    (0, E::insert("a", 1, 5)),
                    (10, E::insert("b", 2, 6)),
                    (20, E::stable(Time::INFINITY)),
                ])),
                Query::passthrough(timed(&[
                    (3, E::insert("a", 1, 5)),
                    (13, E::insert("b", 2, 6)),
                    (23, E::stable(Time::INFINITY)),
                ])),
            ]
        };
        let plain = MergeRun::new(mk(), lmr3(2), RunConfig::default()).run();
        let mut tracer = Tracer::new();
        let traced = MergeRun::new(mk(), lmr3(2), RunConfig::default())
            .run_with_hooks(&mut tracer, &mut NoHooks);
        assert_eq!(plain.merge, traced.merge, "tracing must not change the run");
        assert_eq!(plain.output_complete_at, traced.output_complete_at);
        assert_eq!(plain.latency, traced.latency);
    }

    #[test]
    fn hooks_can_crash_and_rejoin_an_input() {
        use crate::hooks::{ControlAction, NoHooks, RunHooks};
        use lmerge_obs::{FaultKind, Tracer};

        // Input 1 crashes at vt=15 (losing its queued elements) and a
        // replacement replica rejoins at vt=25 with the full feed.
        struct CrashRejoin {
            crashed: bool,
            rejoined: bool,
            feed: Vec<TimedElement<&'static str>>,
        }
        impl RunHooks<&'static str> for CrashRejoin {
            fn enabled(&self) -> bool {
                true
            }
            fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<&'static str>>) {
                if !self.crashed && at >= VTime(15) {
                    self.crashed = true;
                    actions.push(ControlAction::Detach(StreamId(1)));
                }
                if self.crashed && !self.rejoined && at >= VTime(25) {
                    self.rejoined = true;
                    actions.push(ControlAction::Attach {
                        join_time: Time::MIN,
                        source: std::mem::take(&mut self.feed),
                    });
                }
            }
        }

        let feed = |lag: u64| {
            timed(&[
                (lag, E::insert("a", 1, 5)),
                (10 + lag, E::insert("b", 2, 6)),
                (20 + lag, E::insert("c", 3, 7)),
                (30 + lag, E::insert("d", 4, 8)),
                (40 + lag, E::insert("e", 5, 9)),
                (80 + lag, E::stable(Time::INFINITY)),
            ])
        };
        let mut hooks = CrashRejoin {
            crashed: false,
            rejoined: false,
            feed: feed(0),
        };
        let mut tracer = Tracer::new();
        let m = MergeRun::new(
            vec![Query::passthrough(feed(0)), Query::passthrough(feed(5))],
            lmr3(2),
            RunConfig::default(),
        )
        .run_with_hooks(&mut tracer, &mut hooks);
        assert!(m.output_complete_at.is_some(), "clean input completes");
        assert_eq!(m.merge.inserts_out, 5, "no duplicates despite rejoin");
        let faults: Vec<FaultKind> = tracer
            .events()
            .filter_map(|e| match e {
                TraceEvent::FaultInjected { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert!(faults.contains(&FaultKind::Detach), "crash traced");
        assert!(faults.contains(&FaultKind::Attach), "rejoin traced");
        assert!(
            tracer
                .events()
                .any(|e| matches!(e, TraceEvent::InputHealthChanged { input: 1, .. })),
            "health transition traced"
        );

        // The same topology under NoHooks is byte-for-byte the plain run.
        let plain = MergeRun::new(
            vec![Query::passthrough(feed(0)), Query::passthrough(feed(5))],
            lmr3(2),
            RunConfig::default(),
        )
        .run_with_hooks(&mut NullSink, &mut NoHooks);
        let wrapper = MergeRun::new(
            vec![Query::passthrough(feed(0)), Query::passthrough(feed(5))],
            lmr3(2),
            RunConfig::default(),
        )
        .run();
        assert_eq!(plain.merge, wrapper.merge);
    }

    #[test]
    fn hooks_drop_delay_and_stall_batches() {
        use crate::hooks::{ControlAction, FaultAction, RunHooks};

        // Drop input 1's first batch, delay its second, stall it afterwards;
        // the merged output must still complete from input 0 without dupes.
        struct Mischief {
            seen: u32,
            stalled: bool,
        }
        impl RunHooks<&'static str> for Mischief {
            fn enabled(&self) -> bool {
                true
            }
            fn on_deliver(
                &mut self,
                input: u32,
                at: VTime,
                _elements: &[Element<&'static str>],
            ) -> FaultAction<&'static str> {
                if input != 1 {
                    return FaultAction::Deliver;
                }
                self.seen += 1;
                match self.seen {
                    1 => FaultAction::Drop,
                    2 => FaultAction::Delay(at.advance(100)),
                    _ => FaultAction::Deliver,
                }
            }
            fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<&'static str>>) {
                if !self.stalled && at >= VTime(20) {
                    self.stalled = true;
                    actions.push(ControlAction::Stall {
                        input: 1,
                        until: VTime(500),
                    });
                }
            }
        }

        let feed = |lag: u64| {
            timed(&[
                (lag, E::insert("a", 1, 5)),
                (10 + lag, E::insert("b", 2, 6)),
                (20 + lag, E::insert("c", 3, 7)),
                (30 + lag, E::stable(Time::INFINITY)),
            ])
        };
        let m = MergeRun::new(
            vec![Query::passthrough(feed(0)), Query::passthrough(feed(2))],
            lmr3(2),
            RunConfig::default(),
        )
        .run_with_hooks(
            &mut NullSink,
            &mut Mischief {
                seen: 0,
                stalled: false,
            },
        );
        assert!(m.output_complete_at.is_some());
        assert_eq!(m.merge.inserts_out, 3, "faults on a replica lose nothing");
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        use crate::durability::{CheckpointSave, CheckpointSink, RunCut, RunImage};
        use lmerge_obs::export::to_jsonl;
        use lmerge_obs::Tracer;

        // Checkpoint on every output stable advance; optionally halt at a
        // given checkpoint seq to model the kill.
        struct MemSink {
            last_stable: Time,
            next_seq: u64,
            halt_at: Option<u64>,
            images: Vec<RunImage<&'static str>>,
        }
        impl MemSink {
            fn new(halt_at: Option<u64>) -> MemSink {
                MemSink {
                    last_stable: Time::MIN,
                    next_seq: 0,
                    halt_at,
                    images: Vec::new(),
                }
            }
        }
        impl CheckpointSink<&'static str> for MemSink {
            fn enabled(&self) -> bool {
                true
            }
            fn want(&mut self, stable: Time, _delivered: u64) -> bool {
                if stable > self.last_stable && stable != Time::INFINITY {
                    self.last_stable = stable;
                    true
                } else {
                    false
                }
            }
            fn save(&mut self, cut: RunCut<&'static str>) -> Option<CheckpointSave> {
                let seq = self.next_seq;
                self.next_seq += 1;
                let image = match self.images.last() {
                    Some(last) => {
                        let mut image = last.clone();
                        image.fold(cut);
                        image
                    }
                    None => cut.into_image(),
                };
                self.images.push(image);
                Some(CheckpointSave {
                    seq,
                    delta: false,
                    halt: self.halt_at == Some(seq),
                })
            }
        }

        let feed = |lag: u64| {
            timed(&[
                (lag, E::insert("a", 1, 5)),
                (10 + lag, E::stable(2)),
                (20 + lag, E::insert("b", 3, 7)),
                (30 + lag, E::stable(4)),
                (40 + lag, E::insert("c", 5, 9)),
                (50 + lag, E::stable(6)),
                (60 + lag, E::stable(Time::INFINITY)),
            ])
        };
        let queries = || vec![Query::passthrough(feed(0)), Query::passthrough(feed(7))];
        // Memory sampling off: capacity-based accounting is not part of
        // the restorable state.
        let config = RunConfig {
            mem_sample_every: 0,
            ..RunConfig::default()
        };

        // Reference: checkpoints at every stable advance, never killed.
        let mut ref_trace = Tracer::new();
        let mut ref_sink = MemSink::new(None);
        let ref_metrics = MergeRun::new(queries(), lmr3(2), config).run_checkpointed(
            &mut ref_trace,
            &mut NoHooks,
            &mut ref_sink,
        );
        assert!(ref_sink.next_seq >= 2, "multiple checkpoints taken");

        // Killed at checkpoint 1, then resumed from its image.
        let mut kill_trace = Tracer::new();
        let mut kill_sink = MemSink::new(Some(1));
        MergeRun::new(queries(), lmr3(2), config).run_checkpointed(
            &mut kill_trace,
            &mut NoHooks,
            &mut kill_sink,
        );
        let image = kill_sink.images.last().unwrap().clone();

        let mut restored = lmr3(2);
        assert!(restored.restore_state(image.merge.clone()), "restorable");
        let mut resume_trace = Tracer::new();
        let mut resume_sink = MemSink::new(None);
        resume_sink.last_stable = image.merge.max_stable;
        resume_sink.next_seq = 2;
        let resumed_metrics = MergeRun::resumed(queries(), restored, config, image.exec)
            .run_checkpointed(&mut resume_trace, &mut NoHooks, &mut resume_sink);

        // The killed prefix plus the resumed tail is the unkilled trace.
        let concat = format!(
            "{}{}",
            to_jsonl(kill_trace.events()),
            to_jsonl(resume_trace.events())
        );
        assert_eq!(to_jsonl(ref_trace.events()), concat);
        assert_eq!(ref_metrics.merge, resumed_metrics.merge, "stats restore");
        assert_eq!(
            ref_metrics.output_complete_at,
            resumed_metrics.output_complete_at
        );
    }

    /// The sink contract around a cut that is not persisted and around the
    /// run's end: `None` from `save` records no `CheckpointTaken`, and
    /// `finish` is called exactly once — on completion and on a halt alike.
    #[test]
    fn refused_cuts_leave_no_trace_and_every_run_ends_in_finish() {
        use crate::durability::{CheckpointSave, CheckpointSink, RunCut};
        use lmerge_obs::Tracer;

        struct Picky {
            offered: u64,
            accept_below: u64,
            halt_at: Option<u64>,
            finished: u32,
        }
        impl CheckpointSink<&'static str> for Picky {
            fn enabled(&self) -> bool {
                true
            }
            fn want(&mut self, stable: Time, _delivered: u64) -> bool {
                stable != Time::INFINITY
            }
            fn save(&mut self, _cut: RunCut<&'static str>) -> Option<CheckpointSave> {
                let seq = self.offered;
                self.offered += 1;
                (seq < self.accept_below).then_some(CheckpointSave {
                    seq,
                    delta: false,
                    halt: self.halt_at == Some(seq),
                })
            }
            fn finish(&mut self) {
                self.finished += 1;
            }
        }
        let feed = timed(&[
            (0, E::insert("a", 1, 5)),
            (10, E::stable(2)),
            (20, E::insert("b", 3, 7)),
            (30, E::stable(4)),
            (40, E::stable(Time::INFINITY)),
        ]);
        for (halt_at, completes) in [(None, true), (Some(1), false)] {
            let mut sink = Picky {
                offered: 0,
                accept_below: 2,
                halt_at,
                finished: 0,
            };
            let mut trace = Tracer::new();
            let m = MergeRun::new(
                vec![Query::passthrough(feed.clone())],
                lmr3(1),
                RunConfig::default(),
            )
            .run_checkpointed(&mut trace, &mut NoHooks, &mut sink);
            assert_eq!(m.output_complete_at.is_some(), completes);
            assert_eq!(sink.finished, 1, "halt_at {halt_at:?}");
            let taken = trace
                .events()
                .filter(|e| matches!(e, TraceEvent::CheckpointTaken { .. }))
                .count() as u64;
            assert!(
                sink.offered > 2 || !completes,
                "cuts beyond the accepted two"
            );
            assert_eq!(taken, sink.offered.min(2), "only persisted cuts are traced");
        }
    }

    #[test]
    fn input_series_records_deliveries() {
        let s = timed(&[(0, E::insert("a", 1, 5)), (1_500_000, E::insert("b", 2, 6))]);
        let m = MergeRun::new(vec![Query::passthrough(s)], lmr3(1), RunConfig::default()).run();
        assert_eq!(m.input_series[0].at(0), 1);
        assert_eq!(m.input_series[0].at(1), 1);
        assert_eq!(m.merge.inserts_out, 2);
        assert!(m.output_complete_at.is_none(), "no final punctuation");
        assert!(m.drained_at >= VTime(1_500_000));
    }
}
