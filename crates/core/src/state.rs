//! Canonical, serializable images of LMerge operator state.
//!
//! A [`MergeStateImage`] is everything a merge variant needs to continue a
//! run after the process hosting it dies: index entries, per-input
//! multisets, output support, stable watermarks, robustness/lifecycle
//! state, and counters. Every variant of the spectrum exports into (and
//! restores from) this one shape; variants simply leave the fields they do
//! not track empty. The durability crate serializes images to checkpoint
//! files; the chaos layer round-trips them in memory to simulate a merge
//! death.
//!
//! The shape is deliberately *canonical*: entries are sorted by `(Vs,
//! payload)` and per-input multisets by `(input, Ve)`, so two exports of
//! equal logical state are byte-identical when encoded — which is what
//! lets the crash-recovery conformance tests compare a restored run
//! against a never-killed one at the trace level.

use lmerge_temporal::{Payload, Time};
use std::cmp::Ordering;

/// Which variant of the spectrum produced an image. Restore refuses an
/// image from a different variant: the per-variant invariants (what the
/// entry fields mean) do not transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VariantKind {
    /// R0: insert-only, strictly increasing `Vs`.
    R0,
    /// R1: insert-only, non-decreasing `Vs`.
    R1,
    /// R2: insert-only, non-decreasing, `(Vs, Payload)` key.
    R2,
    /// R3: the indexed general algorithm (in2t).
    R3,
    /// The naive per-input-index baseline.
    R3Naive,
    /// R4: the multiset algorithm (in3t).
    R4,
}

impl VariantKind {
    /// Stable numeric tag used by the durable codec.
    pub fn tag(self) -> u8 {
        match self {
            VariantKind::R0 => 0,
            VariantKind::R1 => 1,
            VariantKind::R2 => 2,
            VariantKind::R3 => 3,
            VariantKind::R3Naive => 4,
            VariantKind::R4 => 5,
        }
    }

    /// Inverse of [`tag`](VariantKind::tag).
    pub fn from_tag(tag: u8) -> Option<VariantKind> {
        Some(match tag {
            0 => VariantKind::R0,
            1 => VariantKind::R1,
            2 => VariantKind::R2,
            3 => VariantKind::R3,
            4 => VariantKind::R3Naive,
            5 => VariantKind::R4,
            _ => return None,
        })
    }
}

/// One indexed event: its key, its per-input support, and what the merge
/// has emitted for it.
///
/// The field meanings are variant-relative:
/// * **R3 (in2t)** — each input holds at most one `Ve` per entry, so every
///   multiset is a single `(ve, 1)` pair; `output` is the emitted `Ve`.
/// * **R4 (in3t)** — true multisets of `(ve, count)`.
/// * **R2** — occurrence counts at `max_vs`, carried as `(Time::MIN, n)`.
/// * **naive baseline** — `output` is the output index's `Ve`; per-input
///   indexes travel in [`MergeStateImage::input_indexes`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateEntry<P> {
    /// The event's valid-start time (the index key's first half).
    pub vs: Time,
    /// The event's payload (the index key's second half).
    pub payload: P,
    /// Per-input `Ve` support: `(input, [(ve, count)])`, sorted by input
    /// then `ve`.
    pub per_input: Vec<(u32, Vec<(Time, u64)>)>,
    /// The output-side view: `[(ve, count)]`, sorted by `ve`.
    pub output: Vec<(Time, u64)>,
}

/// One input's lifecycle state as an image carries it.
pub type InputStateImage = crate::inputs::InputState;

/// One input's delivery counters as an image carries them.
pub type CountersImage = crate::stats::InputCounters;

/// Everything one merge operator needs to continue after a restart.
///
/// Constructed by [`LogicalMerge::export_state`](crate::LogicalMerge::export_state)
/// and consumed by [`LogicalMerge::restore_state`](crate::LogicalMerge::restore_state).
/// Fields a variant does not track are simply empty/`MIN` — the image is
/// the union of the spectrum's state shapes, not an intersection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeStateImage<P> {
    /// Which variant produced the image.
    pub kind: VariantKind,
    /// High-water `Vs` (R0–R2 ordering cursor).
    pub max_vs: Time,
    /// The output stable point.
    pub max_stable: Time,
    /// R3's sweep leader (the input whose punctuation drove the last sweep).
    pub leader: Option<u32>,
    /// R1's per-input emitted-at-`max_vs` tallies.
    pub same_vs_count: Vec<u64>,
    /// R3/R4's per-input live-entry counters (robustness accounting).
    pub live_entries: Vec<u64>,
    /// Per-input lifecycle states, indexed by stream id.
    pub input_states: Vec<InputStateImage>,
    /// Lifetime health-transition counts `(quarantines, restores,
    /// departures)`.
    pub transitions: (u64, u64, u64),
    /// Per-input delivery counters, indexed by stream id.
    pub counters: Vec<CountersImage>,
    /// Output/element counters: `(inserts_in, adjusts_in, stables_in,
    /// inserts_out, adjusts_out, stables_out, dropped)`.
    pub stats: (u64, u64, u64, u64, u64, u64, u64),
    /// The shared index entries (R2/R3/R4: the live index; naive: the
    /// output index).
    pub entries: Vec<StateEntry<P>>,
    /// The naive baseline's per-input indexes, indexed by stream id; each
    /// entry's `output` field carries that index's `Ve` as `[(ve, 1)]`.
    pub input_indexes: Vec<Vec<StateEntry<P>>>,
}

impl<P: Payload> MergeStateImage<P> {
    /// An empty image for `kind` — every field at its "not tracked" value.
    pub fn empty(kind: VariantKind) -> MergeStateImage<P> {
        MergeStateImage {
            kind,
            max_vs: Time::MIN,
            max_stable: Time::MIN,
            leader: None,
            same_vs_count: Vec::new(),
            live_entries: Vec::new(),
            input_states: Vec::new(),
            transitions: (0, 0, 0),
            counters: Vec::new(),
            stats: (0, 0, 0, 0, 0, 0, 0),
            entries: Vec::new(),
            input_indexes: Vec::new(),
        }
    }

    /// Total entries across the shared index and the per-input indexes —
    /// the "how much state would we persist" figure behind the checkpoint
    /// metrics.
    pub fn total_entries(&self) -> usize {
        self.indexes().map(Vec::len).sum()
    }

    /// Every entry index: the shared entries, then the per-input indexes.
    pub fn indexes(&self) -> impl Iterator<Item = &Vec<StateEntry<P>>> + '_ {
        std::iter::once(&self.entries).chain(&self.input_indexes)
    }

    /// Mutable counterpart of [`indexes`](MergeStateImage::indexes) — same
    /// order.
    pub fn indexes_mut(&mut self) -> impl Iterator<Item = &mut Vec<StateEntry<P>>> + '_ {
        std::iter::once(&mut self.entries).chain(&mut self.input_indexes)
    }

    /// Fold `cut` into this image, which holds the state of the previous
    /// cut (or anything, if every tier of `cut` changed — a merge's first
    /// cut after it was built or restored): the image becomes the state at
    /// `cut`. Returns, per entry index, what changed.
    ///
    /// Only the changed tiers are compared; an unchanged tier's entries
    /// are moved across, and a tier whose key is gone is removed whole.
    pub fn fold(&mut self, cut: MergeCut<P>) -> Vec<IndexChanges> {
        let MergeCut {
            image: mut next,
            tiers,
            ..
        } = cut;
        debug_assert_eq!(tiers.len(), next.indexes().count(), "a key list per index");
        let mut olds: Vec<Vec<StateEntry<P>>> = self.indexes_mut().map(std::mem::take).collect();
        olds.resize_with(tiers.len(), Vec::new);
        let changes = next
            .indexes_mut()
            .zip(olds)
            .zip(&tiers)
            .map(|((slot, old), keys)| {
                let (folded, changes) = fold_index(old, keys, std::mem::take(slot));
                *slot = folded;
                changes
            })
            .collect();
        *self = next;
        changes
    }

    /// An image of `kind` pre-filled with the state every variant shares:
    /// the input registry, per-input delivery counters, and element stats.
    pub(crate) fn with_common(
        kind: VariantKind,
        inputs: &crate::inputs::Inputs,
        per_input: &crate::stats::PerInput,
        stats: crate::stats::MergeStats,
    ) -> MergeStateImage<P> {
        let mut img = MergeStateImage::empty(kind);
        img.input_states = inputs.export_states();
        let t = inputs.transitions();
        img.transitions = (t.quarantines, t.restores, t.departures);
        img.counters = per_input.counters().to_vec();
        img.stats = stats.to_tuple();
        img
    }

    /// Restore the shared state captured by
    /// [`with_common`](MergeStateImage::with_common) into a variant's
    /// registry and counter structures; returns the element stats.
    pub(crate) fn apply_common(
        &self,
        inputs: &mut crate::inputs::Inputs,
        per_input: &mut crate::stats::PerInput,
    ) -> crate::stats::MergeStats {
        let (q, r, d) = self.transitions;
        inputs.restore_registry(
            &self.input_states,
            crate::inputs::HealthTransitions {
                quarantines: q,
                restores: r,
                departures: d,
            },
        );
        per_input.restore_counters(&self.counters);
        crate::stats::MergeStats::from_tuple(self.stats)
    }
}

/// What a merge changed since its previous cut (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeCut<P> {
    /// Every scalar of the image in full; its entry indexes hold only the
    /// entries of the tiers that changed.
    pub image: MergeStateImage<P>,
    /// Per entry index, in [`MergeStateImage::indexes`] order: the `Vs` of
    /// every live tier, ascending. A tier absent here is gone.
    pub tiers: Vec<Vec<Time>>,
    /// Entries across every index at the cut: the full image's
    /// [`total_entries`](MergeStateImage::total_entries).
    pub entries: usize,
}

impl<P: Payload> From<MergeStateImage<P>> for MergeCut<P> {
    /// The cut of a whole image: every tier changed.
    fn from(image: MergeStateImage<P>) -> MergeCut<P> {
        let tiers = image
            .indexes()
            .map(|index| {
                let mut keys: Vec<Time> = index.iter().map(|e| e.vs).collect();
                keys.dedup();
                keys
            })
            .collect();
        MergeCut {
            entries: image.total_entries(),
            tiers,
            image,
        }
    }
}

/// One entry index's changes over a [`MergeStateImage::fold`]: what a
/// delta file records of it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexChanges {
    /// Ordinals, in the index before the fold, of the entries it lost;
    /// ascending.
    pub removed: Vec<u32>,
    /// Positions, in the index after the fold, of the entries that are new
    /// or changed; ascending.
    pub upserted: Vec<u32>,
}

/// Fold one index: `old` as of the previous cut, the live tier `keys` and
/// the `changed` tiers' entries, both in canonical order.
fn fold_index<P: Payload>(
    old: Vec<StateEntry<P>>,
    keys: &[Time],
    changed: Vec<StateEntry<P>>,
) -> (Vec<StateEntry<P>>, IndexChanges) {
    let mut out = Vec::with_capacity(old.len().max(changed.len()));
    let mut ch = IndexChanges::default();
    let mut old = old.into_iter().enumerate().peekable();
    let mut new = changed.into_iter().peekable();
    let upsert = |out: &mut Vec<StateEntry<P>>, ch: &mut IndexChanges, e| {
        ch.upserted.push(out.len() as u32);
        out.push(e);
    };
    for &vs in keys {
        // Old tiers below `vs` are gone.
        while let Some((i, _)) = old.next_if(|(_, e)| e.vs < vs) {
            ch.removed.push(i as u32);
        }
        if new.peek().is_none_or(|e| e.vs != vs) {
            // Unchanged: its entries move across as they are.
            while let Some((_, e)) = old.next_if(|(_, e)| e.vs == vs) {
                out.push(e);
            }
            continue;
        }
        // Changed: merge-walk its old and new entries by payload.
        loop {
            let o = old.peek().filter(|(_, e)| e.vs == vs);
            let n = new.peek().filter(|e| e.vs == vs);
            let order = match (o, n) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((_, o)), Some(n)) => o.payload.cmp(&n.payload),
            };
            match order {
                Ordering::Less => {
                    let (i, _) = old.next().expect("peeked");
                    ch.removed.push(i as u32);
                }
                Ordering::Greater => {
                    let e = new.next().expect("peeked");
                    upsert(&mut out, &mut ch, e);
                }
                Ordering::Equal => {
                    let (_, o) = old.next().expect("peeked");
                    let n = new.next().expect("peeked");
                    if o.per_input == n.per_input && o.output == n.output {
                        out.push(o);
                    } else {
                        upsert(&mut out, &mut ch, n);
                    }
                }
            }
        }
    }
    ch.removed.extend(old.map(|(i, _)| i as u32));
    // Entries under no live key (a malformed cut) are kept, not lost.
    for e in new {
        upsert(&mut out, &mut ch, e);
    }
    (out, ch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_tags_round_trip() {
        for kind in [
            VariantKind::R0,
            VariantKind::R1,
            VariantKind::R2,
            VariantKind::R3,
            VariantKind::R3Naive,
            VariantKind::R4,
        ] {
            assert_eq!(VariantKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(VariantKind::from_tag(6), None);
        assert_eq!(VariantKind::from_tag(200), None);
    }

    #[test]
    fn empty_image_has_no_entries() {
        let img: MergeStateImage<&'static str> = MergeStateImage::empty(VariantKind::R3);
        assert_eq!(img.total_entries(), 0);
        assert_eq!(img.kind, VariantKind::R3);
    }
}
