//! Hash-partitioned (sharded) LMerge: key-parallel merge state.
//!
//! Every index entry of the R2–R4 variants is keyed by `(Vs, Payload)`, and
//! the counter variants R0/R1 resolve each logical element independently of
//! every element with a different `(Vs, Payload)` key — two elements with
//! different keys never interact inside any variant. [`ShardedLMerge`]
//! exploits that independence: it routes each data element to one of `K`
//! inner merge states by a deterministic hash of its key, broadcasts
//! `stable` punctuation (and attach/detach control) to every shard, and
//! re-aggregates the output stable point as the **minimum over shard stable
//! points** (a low watermark: a time is settled for the union only once
//! every partition has settled it).
//!
//! The wrapper is itself a [`LogicalMerge`]: single-threaded callers get a
//! drop-in operator whose output is equivalent to the sequential one after
//! canonical reordering within stable epochs (asserted by
//! `tests/shard_equivalence.rs`). It is the one sharded path: the engine's
//! executor (`MergeRun` with `RunConfig::shards`) drives it inline, with
//! checkpoints, hooks and traces like any other operator. [`queue_bytes`]
//! still charges the bounded per-shard delivery queues that running the
//! shards on worker threads would need, so the memory figures do not
//! improve merely because the shards run inline.
//!
//! One caveat is inherited rather than hidden: robustness policies
//! (`max_live_entries`, `quarantine_lag`) fire on *shard-local* state, so a
//! bound of `B` entries behaves like a per-partition bound of `B`, not a
//! global one. DESIGN.md §11 discusses when that matters.

use crate::api::{InputHealth, LogicalMerge};
use crate::inputs::Inputs;
use crate::policy::MergePolicy;
use crate::select::new_for_level;
use crate::stats::{InputCounters, MergeStats, PerInput};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Payload, StreamId, Time};
use std::hash::{Hash, Hasher};

/// How a sharded operator is laid out: the shard count and the capacity of
/// the per-shard delivery queue a threaded stage would allocate.
///
/// The queue capacity matters even for inline (single-threaded) execution
/// because [`ShardedLMerge::memory_bytes`] charges the queues either way:
/// the memory curves of Figures 2/6/7 must not silently improve when the
/// same operator is run sharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of inner merge states (`K`). Clamped to at least 1.
    pub shards: usize,
    /// Slots per shard delivery queue (elements in flight per worker).
    pub queue_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 1,
            queue_capacity: 256,
        }
    }
}

impl ShardConfig {
    /// A config with `shards` partitions and the default queue capacity.
    pub fn with_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// Estimated bytes of the delivery queues a threaded sharded stage would
/// allocate: `shards` SPSC rings ([`crate::spsc`]) of `capacity` slots (one
/// element each) plus two cache-line-padded cursor words per ring. This is
/// the model `ShardedLMerge::memory_bytes` charges.
pub fn queue_bytes<P: Payload>(shards: usize, capacity: usize) -> usize {
    const CURSOR_BYTES: usize = 128; // head + tail, each padded to a cache line
    shards * (capacity * std::mem::size_of::<Element<P>>() + CURSOR_BYTES)
}

/// Deterministic, cheap element-key hash used for shard routing.
///
/// Routing must be a pure function of the key — identical across runs,
/// processes, and the inline/threaded execution paths — so `RandomState`
/// is out. SipHash with fixed keys (`det::DetBuildHasher`) would do, but
/// the router sits on the hot path in front of *every* shard, so we use
/// the workspace's shared FNV-1a ([`crate::hash`], also the lmerge-net
/// wire-frame checksum): ~1 multiply per byte, and the `(Vs, Payload)`
/// keys it feeds on are short (an `i64` plus a small payload key).
pub fn shard_of<P: Hash>(vs: Time, payload: &P, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = crate::hash::Fnv1a::new();
    vs.0.hash(&mut h);
    payload.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// A `LogicalMerge` that hash-partitions its state across `K` inner merges.
///
/// Data elements route by `(Vs, Payload)` key; punctuation and lifecycle
/// control broadcast to every shard so the shard registries stay in
/// lockstep. Inner stable outputs are stripped and replaced by the
/// aggregated low watermark, emitted at most once per advance.
pub struct ShardedLMerge<P: Payload> {
    shards: Vec<Box<dyn LogicalMerge<P>>>,
    queue_capacity: usize,
    /// Router-side stats: inputs counted once (not once per shard), outputs
    /// counted as forwarded, `dropped` summed from the shards on demand.
    stats: MergeStats,
    per_input: PerInput,
    inputs: Inputs,
    /// The emitted output stable point: `min` over shard stable points.
    watermark: Time,
    /// Reusable buffer for harvesting shard outputs.
    scratch: Vec<Element<P>>,
    /// Reusable per-shard partition buffers for `push_batch`.
    route_bufs: Vec<Vec<Element<P>>>,
}

impl<P: Payload> ShardedLMerge<P> {
    /// Build a sharded operator whose inner states come from `factory`
    /// (called once per shard; each inner merge must be configured for the
    /// same `n_inputs`).
    pub fn from_factory(
        config: ShardConfig,
        n_inputs: usize,
        mut factory: impl FnMut() -> Box<dyn LogicalMerge<P>>,
    ) -> ShardedLMerge<P> {
        let k = config.shards.max(1);
        let shards: Vec<_> = (0..k).map(|_| factory()).collect();
        let watermark = shards.iter().map(|s| s.max_stable()).min().unwrap();
        ShardedLMerge {
            shards,
            queue_capacity: config.queue_capacity,
            stats: MergeStats::default(),
            per_input: PerInput::new(n_inputs),
            inputs: Inputs::new(n_inputs),
            watermark,
            scratch: Vec::new(),
            route_bufs: (0..k).map(|_| Vec::new()).collect(),
        }
    }

    /// Build a sharded operator around the standard variant for `level`
    /// (the sharded analogue of [`new_for_level`]).
    pub fn for_level(
        config: ShardConfig,
        level: RLevel,
        n_inputs: usize,
        policy: MergePolicy,
    ) -> ShardedLMerge<P> {
        ShardedLMerge::from_factory(config, n_inputs, || new_for_level(level, n_inputs, policy))
    }

    /// Number of shards (`K`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stable point of shard `k` (the aggregate output stable point is
    /// the minimum of these — the straggler shard holds the output back).
    pub fn shard_stable(&self, k: usize) -> Time {
        self.shards[k].max_stable()
    }

    /// The shard a data element with this key routes to.
    pub fn route(&self, vs: Time, payload: &P) -> usize {
        shard_of(vs, payload, self.shards.len())
    }

    /// Forward harvested shard outputs: data passes through (counted),
    /// shard-local stables are dropped — the aggregate watermark replaces
    /// them in [`Self::advance_watermark`].
    fn flush_scratch(&mut self, out: &mut Vec<Element<P>>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for e in scratch.drain(..) {
            match &e {
                Element::Insert(_) => self.stats.inserts_out += 1,
                Element::Adjust { .. } => self.stats.adjusts_out += 1,
                Element::Stable(_) => continue,
            }
            out.push(e);
        }
        self.scratch = scratch;
    }

    /// Emit the aggregated stable point if the minimum over shards moved.
    fn advance_watermark(&mut self, out: &mut Vec<Element<P>>) {
        let agg = self
            .shards
            .iter()
            .map(|s| s.max_stable())
            .min()
            .expect("at least one shard");
        if agg > self.watermark {
            self.watermark = agg;
            self.inputs.on_stable_advance(agg);
            self.stats.stables_out += 1;
            out.push(Element::stable(agg));
        }
    }

    fn count_in(&mut self, element: &Element<P>) {
        match element {
            Element::Insert(_) => self.stats.inserts_in += 1,
            Element::Adjust { .. } => self.stats.adjusts_in += 1,
            Element::Stable(_) => self.stats.stables_in += 1,
        }
    }
}

impl<P: Payload> LogicalMerge<P> for ShardedLMerge<P> {
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        self.per_input.on_element(input, element);
        self.count_in(element);
        debug_assert!(self.scratch.is_empty());
        match element.key() {
            Some((vs, payload)) => {
                let s = shard_of(vs, payload, self.shards.len());
                let mut scratch = std::mem::take(&mut self.scratch);
                self.shards[s].push(input, element, &mut scratch);
                self.scratch = scratch;
            }
            None => {
                // Punctuation broadcasts: every shard must settle `t` before
                // the aggregate may.
                let mut scratch = std::mem::take(&mut self.scratch);
                for shard in &mut self.shards {
                    shard.push(input, element, &mut scratch);
                }
                self.scratch = scratch;
            }
        }
        self.flush_scratch(out);
        self.advance_watermark(out);
    }

    fn push_batch(&mut self, input: StreamId, elements: &[Element<P>], out: &mut Vec<Element<P>>) {
        if self.shards.len() == 1 {
            for e in elements {
                self.per_input.on_element(input, e);
                self.count_in(e);
            }
            let mut scratch = std::mem::take(&mut self.scratch);
            self.shards[0].push_batch(input, elements, &mut scratch);
            self.scratch = scratch;
            self.flush_scratch(out);
            self.advance_watermark(out);
            return;
        }
        // Punctuation-bearing batches go element-by-element (as the inner
        // variants themselves do): each stable is an epoch boundary, and the
        // aggregate watermark must be re-evaluated at every one of them so
        // no intermediate output stable is collapsed away.
        if elements.iter().any(|e| e.is_stable()) {
            for e in elements {
                self.push(input, e, out);
            }
            return;
        }
        // Data-only batch: partition into per-shard subsequences. Relative
        // order is preserved within each shard, so each shard sees exactly
        // the restriction of the batch to its keys — and keeps its O(1)
        // frozen-batch discard for the subsequence.
        let mut bufs = std::mem::take(&mut self.route_bufs);
        for e in elements {
            self.per_input.on_element(input, e);
            self.count_in(e);
            if let Some((vs, payload)) = e.key() {
                bufs[shard_of(vs, payload, self.shards.len())].push(e.clone());
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        for (s, buf) in bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            self.shards[s].push_batch(input, buf, &mut scratch);
            buf.clear();
        }
        self.scratch = scratch;
        self.route_bufs = bufs;
        self.flush_scratch(out);
        self.advance_watermark(out);
    }

    fn attach(&mut self, join_time: Time) -> StreamId {
        let id = self.inputs.attach(join_time);
        self.per_input.on_attach();
        for shard in &mut self.shards {
            let sid = shard.attach(join_time);
            debug_assert_eq!(sid, id, "shard input registries must stay in lockstep");
        }
        id
    }

    fn detach(&mut self, input: StreamId) {
        self.inputs.detach(input);
        for shard in &mut self.shards {
            shard.detach(input);
        }
    }

    fn max_stable(&self) -> Time {
        self.watermark
    }

    fn feedback_point(&self) -> Time {
        // Conservative aggregate: a producer may only skip what *every*
        // shard has declared irrelevant.
        self.shards
            .iter()
            .map(|s| s.feedback_point())
            .min()
            .expect("at least one shard")
    }

    fn stats(&self) -> MergeStats {
        let mut s = self.stats;
        // Each data element lives in exactly one shard, so shard-local drop
        // counts sum to the router-level total.
        s.dropped = self.shards.iter().map(|sh| sh.stats().dropped).sum();
        s
    }

    fn input_counters(&self) -> &[InputCounters] {
        self.per_input.counters()
    }

    fn input_health(&self, input: StreamId) -> InputHealth {
        // Router-level lifecycle. Shard-local robustness demotions
        // (quarantine, entry-bound detach) are intentionally not aggregated
        // here — see the module docs and DESIGN.md §11.
        self.inputs.state(input).into()
    }

    fn health_transitions(&self) -> crate::inputs::HealthTransitions {
        // Router-level transitions plus every shard's policy-driven ones:
        // the counters are additive, so the sum tells the operator how much
        // robustness-policy activity the whole sharded operator saw.
        let mut t = self.inputs.transitions();
        for s in &self.shards {
            let st = s.health_transitions();
            t.quarantines += st.quarantines;
            t.restores += st.restores;
            t.departures += st.departures;
        }
        t
    }

    fn memory_bytes(&self) -> usize {
        let elem = std::mem::size_of::<Element<P>>();
        std::mem::size_of::<Self>()
            + self.shards.iter().map(|s| s.memory_bytes()).sum::<usize>()
            + self.inputs.memory_bytes()
            + self.per_input.memory_bytes()
            + self.scratch.capacity() * elem
            + self
                .route_bufs
                .iter()
                .map(|b| b.capacity() * elem)
                .sum::<usize>()
            + queue_bytes::<P>(self.shards.len(), self.queue_capacity)
    }

    fn level(&self) -> RLevel {
        self.shards[0].level()
    }

    fn export_state(&self) -> Option<crate::state::MergeStateImage<P>> {
        let mut img = crate::state::MergeStateImage::with_common(
            crate::state::VariantKind::Sharded,
            &self.inputs,
            &self.per_input,
            self.stats,
        );
        img.watermark = self.watermark;
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            // All-or-nothing: a wrapper around an unexportable inner
            // operator is itself unexportable.
            shards.push(s.export_state()?);
        }
        img.shards = shards;
        Some(img)
    }

    fn restore_state(&mut self, image: crate::state::MergeStateImage<P>) -> bool {
        if image.kind != crate::state::VariantKind::Sharded
            || image.shards.len() != self.shards.len()
        {
            return false;
        }
        for (shard, shard_img) in self.shards.iter_mut().zip(image.shards.iter()) {
            if !shard.restore_state(shard_img.clone()) {
                return false;
            }
        }
        self.stats = image.apply_common(&mut self.inputs, &mut self.per_input);
        self.watermark = image.watermark;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(k: usize, level: RLevel, n: usize) -> ShardedLMerge<&'static str> {
        ShardedLMerge::for_level(
            ShardConfig::with_shards(k),
            level,
            n,
            MergePolicy::paper_default(),
        )
    }

    #[test]
    fn routing_is_deterministic_and_key_pure() {
        let lm = sharded(4, RLevel::R3, 2);
        for (vs, p) in [(1, "a"), (2, "a"), (1, "b"), (9, "zz")] {
            let s = lm.route(Time(vs), &p);
            assert_eq!(s, lm.route(Time(vs), &p), "same key, same shard");
            assert_eq!(s, shard_of(Time(vs), &p, 4), "pure function of key");
            assert!(s < 4);
        }
        // Insert and adjust with the same key must land on the same shard,
        // or revisions would miss their provisional entry.
        let ins = Element::insert("a", 3, 10);
        let adj = Element::adjust("a", 3, 10, 12);
        let (vs, p) = ins.key().unwrap();
        let (avs, ap) = adj.key().unwrap();
        assert_eq!(shard_of(vs, p, 4), shard_of(avs, ap, 4));
    }

    #[test]
    fn stable_broadcast_emits_one_aggregate_stable() {
        let mut lm = sharded(4, RLevel::R3, 1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("a", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("b", 2, 5), &mut out);
        lm.push(StreamId(0), &Element::stable(10), &mut out);
        let stables: Vec<_> = out.iter().filter(|e| e.is_stable()).collect();
        assert_eq!(stables.len(), 1, "shard stables collapse to one: {out:?}");
        assert_eq!(lm.max_stable(), Time(10));
        assert_eq!(lm.stats().stables_out, 1);
    }

    #[test]
    fn watermark_is_min_over_shards() {
        // With 2 inputs at R3, one input's stable alone does not advance the
        // output; the sharded wrapper must agree with the sequential rule.
        let mut seq = new_for_level::<&str>(RLevel::R3, 2, MergePolicy::paper_default());
        let mut lm = sharded(4, RLevel::R3, 2);
        let mut so = Vec::new();
        let mut ko = Vec::new();
        for (input, e) in [
            (0u32, Element::insert("a", 1, 5)),
            (1u32, Element::insert("a", 1, 5)),
            (0, Element::stable(8)),
            (1, Element::stable(6)),
        ] {
            seq.push(StreamId(input), &e, &mut so);
            lm.push(StreamId(input), &e, &mut ko);
        }
        assert_eq!(lm.max_stable(), seq.max_stable());
        assert_eq!(lm.feedback_point(), seq.feedback_point());
    }

    #[test]
    fn matches_sequential_r3_on_a_small_feed() {
        let mut seq = new_for_level::<&str>(RLevel::R3, 2, MergePolicy::paper_default());
        let mut lm = sharded(4, RLevel::R3, 2);
        let feed = [
            (0u32, Element::insert("a", 1, Time::INFINITY)),
            (0, Element::adjust("a", 1, Time::INFINITY, Time(7))),
            (1, Element::insert("a", 1, 7)),
            (0, Element::insert("b", 2, 9)),
            (1, Element::insert("b", 2, 9)),
            (0, Element::stable(20)),
            (1, Element::stable(20)),
        ];
        let mut so = Vec::new();
        let mut ko = Vec::new();
        for (input, e) in &feed {
            seq.push(StreamId(*input), e, &mut so);
            lm.push(StreamId(*input), e, &mut ko);
        }
        // Same elements modulo order within the (single) stable epoch.
        let fp = |v: &[Element<&str>]| {
            let mut d: Vec<String> = v.iter().map(|e| format!("{e:?}")).collect();
            d.sort();
            d
        };
        assert_eq!(fp(&so), fp(&ko));
        assert_eq!(seq.max_stable(), lm.max_stable());
        let (ss, ks) = (seq.stats(), lm.stats());
        assert_eq!(ss.elements_in(), ks.elements_in());
        assert_eq!(
            ss.inserts_out + ss.adjusts_out,
            ks.inserts_out + ks.adjusts_out
        );
        assert_eq!(ss.stables_out, ks.stables_out);
    }

    #[test]
    fn push_batch_partitions_like_per_element_push() {
        let feed: Vec<Element<&str>> = vec![
            Element::insert("a", 1, 5),
            Element::insert("b", 2, 6),
            Element::stable(3),
            Element::insert("c", 4, 9),
            Element::stable(5),
        ];
        let mut one = sharded(4, RLevel::R4, 1);
        let mut per = Vec::new();
        for e in &feed {
            one.push(StreamId(0), e, &mut per);
        }
        let mut two = sharded(4, RLevel::R4, 1);
        let mut bat = Vec::new();
        two.push_batch(StreamId(0), &feed, &mut bat);
        let fp = |v: &[Element<&str>]| {
            let mut d: Vec<String> = v.iter().map(|e| format!("{e:?}")).collect();
            d.sort();
            d
        };
        assert_eq!(fp(&per), fp(&bat));
        assert_eq!(one.max_stable(), two.max_stable());
        assert_eq!(one.stats(), two.stats());
    }

    #[test]
    fn attach_detach_broadcast_keeps_registries_in_lockstep() {
        let mut lm = sharded(3, RLevel::R3, 2);
        let id = lm.attach(Time(5));
        assert_eq!(id, StreamId(2));
        assert_eq!(lm.input_health(id), InputHealth::Joining);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::stable(9), &mut out);
        lm.push(StreamId(1), &Element::stable(9), &mut out);
        assert_eq!(lm.max_stable(), Time(9), "joiner's punctuation still gated");
        assert_eq!(
            lm.input_health(id),
            InputHealth::Active,
            "join time covered"
        );
        lm.detach(StreamId(1));
        assert_eq!(lm.input_health(StreamId(1)), InputHealth::Left);
        // A detached input's elements are ignored by every shard.
        let before = lm.stats().dropped;
        lm.push(StreamId(1), &Element::insert("x", 10, 20), &mut out);
        assert!(lm.stats().dropped >= before);
        assert_eq!(lm.stats().inserts_out, 0);
    }

    #[test]
    fn memory_accounts_shards_queues_and_router() {
        // Pinned alongside `mem::hash_table_bytes`: the sharded wrapper must
        // charge K inner states plus the delivery queues plus its own
        // router-side state — never less than the sequential operator.
        let k = 4;
        let cap = 64;
        let cfg = ShardConfig {
            shards: k,
            queue_capacity: cap,
        };
        let lm: ShardedLMerge<&'static str> =
            ShardedLMerge::for_level(cfg, RLevel::R3, 2, MergePolicy::paper_default());
        let single = new_for_level::<&'static str>(RLevel::R3, 2, MergePolicy::paper_default());
        let queues = queue_bytes::<&'static str>(k, cap);
        let elem = std::mem::size_of::<Element<&'static str>>();
        assert_eq!(queues, k * (cap * elem + 128), "queue model is pinned");
        let expected = std::mem::size_of::<ShardedLMerge<&'static str>>()
            + k * single.memory_bytes()
            + Inputs::new(2).memory_bytes()
            + PerInput::new(2).memory_bytes()
            + queues;
        assert_eq!(lm.memory_bytes(), expected);
        assert!(lm.memory_bytes() > single.memory_bytes() + queues);
    }

    #[test]
    fn single_shard_degenerates_to_the_inner_operator() {
        let mut seq = new_for_level::<&str>(RLevel::R2, 2, MergePolicy::paper_default());
        let mut lm = sharded(1, RLevel::R2, 2);
        let feed = [
            (0u32, Element::insert("a", 1, 5)),
            (1u32, Element::insert("a", 1, 5)),
            (0, Element::insert("b", 1, 6)),
            (1, Element::insert("b", 1, 6)),
            (0, Element::stable(4)),
            (1, Element::stable(4)),
        ];
        let mut so = Vec::new();
        let mut ko = Vec::new();
        for (input, e) in &feed {
            seq.push(StreamId(*input), e, &mut so);
            lm.push(StreamId(*input), e, &mut ko);
        }
        assert_eq!(
            format!("{so:?}"),
            format!("{ko:?}"),
            "K=1 output is byte-identical, not just canonically equal"
        );
    }
}
