//! Interval count aggregation with revisions.
//!
//! The paper's generated streams "have disorder but no adjust() elements.
//! Such elements are naturally produced during query processing, and hence
//! we use sub-queries over the stream-generator output in order to generate
//! them. A simple example of such a sub-query is aggregate (count) followed
//! by a lifetime modification." (Section VI-B)
//!
//! `IntervalCount` is that aggregate: for each group it maintains the count
//! of concurrently active events as a step function of application time and
//! emits one TDB event per *maximal constant-count interval* — payload
//! `(group, count)`, lifetime the interval.
//!
//! Emission follows the paper's property-inference story (Section IV-G):
//! an **in-order** input yields an insert-only output — a segment is
//! emitted only once it *closes* (its end falls at or before the highest
//! `Vs` seen, so no in-order event can split it again). **Late** events,
//! however, revise already-emitted segments, surfacing downstream as
//! `adjust` elements plus extra inserts: the revision-rich R3 stream class
//! the general LMerge algorithms exist for. The number of adjusts in the
//! output therefore tracks the disorder of the input (Figure 4).
//!
//! Because different physical presentations of the same logical input apply
//! deltas in different orders, the operator canonicalizes by *merging*
//! adjacent intervals whose counts become equal — guaranteeing that all
//! copies converge to the same output TDB (maximal intervals of the final
//! step function), which is what makes its outputs mutually consistent
//! LMerge inputs.

use crate::operator::Operator;
use lmerge_temporal::{Element, Time, Value};
use std::collections::HashMap;
use std::ops::Bound::Excluded;

/// Output payload for `(group, count)`: the group in `key`, the count
/// encoded in `body` so distinct counts are distinct payloads.
pub fn payload_for(group: u32, count: u64) -> Value {
    Value {
        key: group as i32,
        body: bytes::Bytes::copy_from_slice(&count.to_le_bytes()),
    }
}

/// One maximal constant-count interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Seg {
    end: Time,
    count: u64,
    /// Whether the downstream has seen this segment (as an insert).
    emitted: bool,
}

/// Grouped interval count (group = `payload.key % groups`): a step
/// function of application time, one output event per maximal
/// constant-count interval.
pub struct IntervalCount {
    groups: u32,
    segs: HashMap<u32, std::collections::BTreeMap<Time, Seg>>,
    /// Per group: start of the first segment that may still be open or
    /// unemitted. The close-pass scans from here instead of from the
    /// beginning, keeping per-element work amortized O(1) even when
    /// punctuation (and thus purging) is rare.
    open_from: HashMap<u32, Time>,
    /// Highest `Vs` seen on the input: segments ending at or before it are
    /// closed (only *late* events can still revise them).
    max_vs: Time,
    stable: Time,
    /// Virtual CPU cost charged per data element.
    pub cost_per_element_us: u64,
}

impl IntervalCount {
    /// A count aggregate over `groups` groups (1 = a single global count).
    pub fn new(groups: u32) -> IntervalCount {
        assert!(groups > 0, "need at least one group");
        IntervalCount {
            groups,
            segs: HashMap::new(),
            open_from: HashMap::new(),
            max_vs: Time::MIN,
            stable: Time::MIN,
            cost_per_element_us: 2,
        }
    }

    /// Total live intervals across groups (state size).
    pub fn live_segments(&self) -> usize {
        self.segs.values().map(|m| m.len()).sum()
    }

    /// Apply `delta` (+1/−1) to the count over `[lo, hi)` for `group`,
    /// emitting the element-level consequences for *emitted* segments and
    /// silently restructuring unemitted ones.
    fn apply_delta(
        &mut self,
        group: u32,
        lo: Time,
        hi: Time,
        delta: i64,
        out: &mut Vec<Element<Value>>,
    ) {
        if lo >= hi {
            return;
        }
        let prev_open = self.open_from.get(&group).copied().unwrap_or(Time::MIN);
        let segs = self.segs.entry(group).or_default();

        // Collect segments overlapping [lo, hi).
        let mut keys: Vec<Time> = Vec::new();
        if let Some((k, s)) = segs.range(..=lo).next_back() {
            if s.end > lo {
                keys.push(*k);
            }
        }
        keys.extend(segs.range((Excluded(lo), Excluded(hi))).map(|(k, _)| *k));

        let overlaps: Vec<(Time, Seg)> = keys
            .iter()
            .map(|k| (*k, segs.remove(k).expect("key just collected")))
            .collect();

        let mut boundaries: Vec<Time> = vec![lo, hi];
        let mut cursor = lo;
        for (s, seg) in &overlaps {
            let (s, e, c) = (*s, seg.end, seg.count);
            let olo = s.max(lo);
            let ohi = e.min(hi);
            // Gap before this segment: new coverage appears only on a
            // positive delta.
            if cursor < olo && delta > 0 {
                segs.insert(
                    cursor,
                    Seg {
                        end: olo,
                        count: delta as u64,
                        emitted: false,
                    },
                );
                boundaries.push(cursor);
                boundaries.push(olo);
            }
            cursor = ohi;
            // Transform the existing segment (event ⟨(group,c), s, e⟩ if
            // it was already emitted).
            if olo > s {
                // Head survives; the original event shrinks to it.
                if seg.emitted {
                    out.push(Element::adjust(payload_for(group, c), s, e, olo));
                }
                segs.insert(
                    s,
                    Seg {
                        end: olo,
                        count: c,
                        emitted: seg.emitted,
                    },
                );
            } else if seg.emitted {
                // Whole front affected: the original event disappears.
                out.push(Element::adjust(payload_for(group, c), s, e, s));
            }
            let nc = (c as i64 + delta).max(0) as u64;
            if nc > 0 {
                segs.insert(
                    olo,
                    Seg {
                        end: ohi,
                        count: nc,
                        emitted: false,
                    },
                );
            }
            if ohi < e {
                segs.insert(
                    ohi,
                    Seg {
                        end: e,
                        count: c,
                        emitted: false,
                    },
                );
            }
            boundaries.extend([s, olo, ohi, e]);
        }
        // Trailing gap.
        if cursor < hi && delta > 0 {
            segs.insert(
                cursor,
                Seg {
                    end: hi,
                    count: delta as u64,
                    emitted: false,
                },
            );
            boundaries.push(cursor);
        }

        // Canonicalize: merge equal-count neighbours at touched boundaries.
        boundaries.sort_unstable();
        boundaries.dedup();
        for b in boundaries {
            let Some((left_start, left)) = segs.range(..b).next_back().map(|(k, s)| (*k, *s))
            else {
                continue;
            };
            if left.end != b {
                continue;
            }
            let Some(right) = segs.get(&b).copied() else {
                continue;
            };
            if left.count != right.count {
                continue;
            }
            // Absorb the right segment into the left one.
            segs.remove(&b);
            if right.emitted {
                out.push(Element::adjust(
                    payload_for(group, right.count),
                    b,
                    right.end,
                    b,
                ));
            }
            if left.emitted {
                out.push(Element::adjust(
                    payload_for(group, left.count),
                    left_start,
                    b,
                    right.end,
                ));
            }
            segs.insert(
                left_start,
                Seg {
                    end: right.end,
                    count: left.count,
                    emitted: left.emitted,
                },
            );
        }
        // Emit segments of this group that are now closed. Unemitted or
        // open segments only exist at or after the cursor, except where
        // this delta just touched — scan from the earlier of the two.
        let max_vs = self.max_vs;
        let scan_from = prev_open.min(lo);
        let mut new_open: Option<Time> = None;
        for (s, seg) in segs.range_mut(scan_from..) {
            if seg.end > max_vs {
                new_open = Some(*s);
                break;
            }
            if !seg.emitted {
                seg.emitted = true;
                out.push(Element::insert(payload_for(group, seg.count), *s, seg.end));
            }
        }
        self.open_from
            .insert(group, new_open.unwrap_or(Time::INFINITY));
    }

    fn group_of(&self, v: &Value) -> u32 {
        (v.key.rem_euclid(self.groups as i32)) as u32
    }

    /// Emit everything still pending with `start < t` (a `stable(t)` is
    /// about to settle those keys), then drop intervals that can never
    /// change again (`end < t`).
    fn flush_and_purge(&mut self, t: Time, out: &mut Vec<Element<Value>>) {
        let mut emitted: Vec<Element<Value>> = Vec::new();
        for (g, segs) in self.segs.iter_mut() {
            for (s, seg) in segs.range_mut(..t) {
                if !seg.emitted {
                    seg.emitted = true;
                    emitted.push(Element::insert(payload_for(*g, seg.count), *s, seg.end));
                }
            }
            // Segments are disjoint and sorted, so ends are increasing: the
            // frozen ones form a prefix.
            while let Some((k, s)) = segs.first_key_value() {
                if s.end < t {
                    let k = *k;
                    segs.remove(&k);
                } else {
                    break;
                }
            }
        }
        // Deterministic output order regardless of hash-map iteration.
        emitted.sort_by(|a, b| match (a, b) {
            (Element::Insert(x), Element::Insert(y)) => (x.vs, &x.payload).cmp(&(y.vs, &y.payload)),
            _ => std::cmp::Ordering::Equal,
        });
        out.extend(emitted);
        self.segs.retain(|_, m| !m.is_empty());
    }
}

impl Operator<Value> for IntervalCount {
    fn on_element(&mut self, element: &Element<Value>, out: &mut Vec<Element<Value>>) {
        match element {
            Element::Insert(e) => {
                let g = self.group_of(&e.payload);
                self.max_vs = self.max_vs.max(e.vs);
                self.apply_delta(g, e.vs, e.ve, 1, out);
            }
            Element::Adjust {
                payload,
                vs,
                vold,
                ve,
            } => {
                let g = self.group_of(payload);
                if ve > vold {
                    self.apply_delta(g, *vold, *ve, 1, out);
                } else {
                    // Shrink (or removal when ve == vs): the aggregate
                    // drops on the abandoned suffix.
                    self.apply_delta(g, (*ve).max(*vs), *vold, -1, out);
                }
            }
            Element::Stable(t) => {
                if *t > self.stable {
                    self.stable = *t;
                    self.flush_and_purge(*t, out);
                    out.push(Element::Stable(*t));
                }
            }
        }
    }

    fn cost_us(&self, element: &Element<Value>) -> u64 {
        if element.is_stable() {
            1
        } else {
            self.cost_per_element_us
        }
    }

    fn on_feedback(&mut self, t: Time) {
        // Elements before t are no longer of interest: purge frozen
        // segments without emitting anything.
        for segs in self.segs.values_mut() {
            while let Some((k, s)) = segs.first_key_value() {
                if s.end < t && s.emitted {
                    let k = *k;
                    segs.remove(&k);
                } else {
                    break;
                }
            }
        }
        self.segs.retain(|_, m| !m.is_empty());
    }

    fn memory_bytes(&self) -> usize {
        const ENTRY: usize = std::mem::size_of::<(Time, Seg)>() + 48;
        self.live_segments() * ENTRY + self.segs.len() * 64
    }

    fn name(&self) -> &'static str {
        "interval-count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::reconstitute::tdb_of;
    use lmerge_temporal::Tdb;

    fn v(key: i32) -> Value {
        Value::bare(key)
    }

    fn run(input: &[Element<Value>]) -> (Vec<Element<Value>>, Tdb<Value>) {
        let mut op = IntervalCount::new(1);
        let mut out = Vec::new();
        for e in input {
            op.on_element(e, &mut out);
        }
        let tdb = tdb_of(&out).expect("count output must be well formed");
        (out, tdb)
    }

    /// Close every pending segment by finalizing the stream.
    fn finalized(mut input: Vec<Element<Value>>) -> Vec<Element<Value>> {
        input.push(Element::stable(Time::INFINITY));
        input
    }

    #[test]
    fn single_event_single_interval() {
        let (_, tdb) = run(&finalized(vec![Element::insert(v(1), 10, 20)]));
        assert_eq!(tdb.count(&payload_for(0, 1), Time(10), Time(20)), 1);
        assert_eq!(tdb.len(), 1);
    }

    #[test]
    fn overlapping_events_step_function() {
        // [10,30) and [20,40): counts 1,2,1 over [10,20),[20,30),[30,40).
        let (_, tdb) = run(&finalized(vec![
            Element::insert(v(1), 10, 30),
            Element::insert(v(2), 20, 40),
        ]));
        assert_eq!(tdb.count(&payload_for(0, 1), Time(10), Time(20)), 1);
        assert_eq!(tdb.count(&payload_for(0, 2), Time(20), Time(30)), 1);
        assert_eq!(tdb.count(&payload_for(0, 1), Time(30), Time(40)), 1);
        assert_eq!(tdb.len(), 3);
    }

    #[test]
    fn in_order_input_produces_no_adjusts() {
        // Section IV-G scenario: ordered stream into an aggregate is
        // revision-free — segments are emitted only once closed.
        let mut input = Vec::new();
        for i in 0..100i64 {
            input.push(Element::insert(v(i as i32), i * 10, i * 10 + 25));
        }
        let (out, _) = run(&finalized(input));
        assert!(
            out.iter().all(|e| !e.is_adjust()),
            "ordered input must not generate adjusts"
        );
    }

    #[test]
    fn late_event_produces_adjusts() {
        let mut input = vec![
            Element::insert(v(1), 10, 35),
            Element::insert(v(2), 40, 65),
            Element::insert(v(3), 70, 95), // closes the earlier segments
        ];
        input.push(Element::insert(v(4), 20, 50)); // late: splits closed ones
        let (out, tdb) = run(&finalized(input));
        assert!(
            out.iter().any(|e| e.is_adjust()),
            "late event must surface as revisions: {out:?}"
        );
        // Counts: [10,20)=1 [20,35)=2 [35,40)=1 [40,50)=2 [50,65)=1 [70,95)=1.
        assert_eq!(tdb.count(&payload_for(0, 2), Time(20), Time(35)), 1);
        assert_eq!(tdb.count(&payload_for(0, 2), Time(40), Time(50)), 1);
    }

    #[test]
    fn adjacent_equal_counts_merge() {
        // Two touching events: counts are 1 on [10,20) and 1 on [20,30) —
        // the canonical output is ONE event [10,30).
        let (_, tdb) = run(&finalized(vec![
            Element::insert(v(1), 10, 20),
            Element::insert(v(2), 20, 30),
        ]));
        assert_eq!(tdb.count(&payload_for(0, 1), Time(10), Time(30)), 1);
        assert_eq!(tdb.len(), 1);
    }

    #[test]
    fn revision_restores_canonical_form() {
        // An event appears and is then cancelled: the output TDB must be
        // identical to never having seen it (merge-back after split).
        let (_, want) = run(&finalized(vec![Element::insert(v(1), 10, 40)]));
        let (_, got) = run(&finalized(vec![
            Element::insert(v(1), 10, 40),
            Element::insert(v(2), 20, 30),     // splits [10,40)
            Element::adjust(v(2), 20, 30, 20), // cancelled again
        ]));
        assert_eq!(got, want, "cancellation must merge intervals back");
    }

    #[test]
    fn divergent_presentations_converge() {
        // Same logical input, different physical order / adjust paths.
        let a = finalized(vec![
            Element::insert(v(1), 10, 30),
            Element::insert(v(2), 20, 40),
            Element::stable(50),
        ]);
        let b = finalized(vec![
            Element::insert(v(2), 20, 25),
            Element::adjust(v(2), 20, 25, 40),
            Element::insert(v(1), 10, 30),
            Element::stable(50),
        ]);
        let (_, ta) = run(&a);
        let (_, tb) = run(&b);
        assert_eq!(ta, tb, "count over equivalent inputs must be equivalent");
    }

    #[test]
    fn grouping_keeps_groups_independent() {
        let mut op = IntervalCount::new(2);
        let mut out = Vec::new();
        op.on_element(&Element::insert(v(0), 10, 20), &mut out); // group 0
        op.on_element(&Element::insert(v(1), 10, 20), &mut out); // group 1
        op.on_element(&Element::stable(Time::INFINITY), &mut out);
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&payload_for(0, 1), Time(10), Time(20)), 1);
        assert_eq!(tdb.count(&payload_for(1, 1), Time(10), Time(20)), 1);
    }

    #[test]
    fn stable_flushes_and_purges() {
        let mut op = IntervalCount::new(1);
        let mut out = Vec::new();
        op.on_element(&Element::insert(v(1), 10, 20), &mut out);
        op.on_element(&Element::insert(v(2), 100, 120), &mut out);
        op.on_element(&Element::stable(50), &mut out);
        // The first interval was emitted (flush) and purged; the second is
        // still open.
        assert_eq!(op.live_segments(), 1);
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&payload_for(0, 1), Time(10), Time(20)), 1);
        assert!(out.last().unwrap().is_stable());
    }

    #[test]
    fn feedback_purges_emitted_frozen_segments() {
        let mut op = IntervalCount::new(1);
        let mut out = Vec::new();
        op.on_element(&Element::insert(v(1), 10, 20), &mut out);
        op.on_element(&Element::insert(v(2), 100, 120), &mut out); // closes it
        assert_eq!(op.live_segments(), 2);
        op.on_feedback(Time(50));
        assert_eq!(op.live_segments(), 1, "emitted+dead segment dropped");
    }

    #[test]
    fn output_is_valid_under_punctuation() {
        // Interleave data and punctuation; the output must validate.
        let mut op = IntervalCount::new(4);
        let mut out = Vec::new();
        for i in 0..200i64 {
            op.on_element(&Element::insert(v((i % 7) as i32), i, i + 25), &mut out);
            if i % 10 == 9 {
                // Punctuation lags events by a window, as generators do.
                op.on_element(&Element::stable(i - 30), &mut out);
            }
        }
        op.on_element(&Element::stable(Time::INFINITY), &mut out);
        assert!(tdb_of(&out).is_ok());
    }
}
