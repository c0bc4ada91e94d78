//! Temporal equijoin with revision support.
//!
//! The paper's Section I-3 motivates LMerge with exactly this operator: "a
//! multi-input operator such as join … can produce a different sequence of
//! output elements in two identical copies of a CQ, due to differences in
//! the relative arrival of input events". `TemporalJoin` is that operator:
//! it joins two streams on the payload key, emitting an output event for
//! every matching pair whose lifetimes overlap — payload combining both
//! sides, lifetime the intersection — and it *revises* its output when
//! input lifetimes are adjusted (the intersection may shrink, grow, or
//! vanish).
//!
//! Its output TDB is a pure function of the input TDBs, so two copies fed
//! equivalent (but physically different) inputs produce mutually consistent
//! outputs — ideal LMerge fodder, which the integration tests exploit.

use bytes::{BufMut, BytesMut};
use lmerge_temporal::{Element, Time, Value};
use std::collections::HashMap;

/// A two-input streaming operator (joins, unions, differences).
pub trait BinaryOperator<P>: Send {
    /// Process one element arriving on `port` (0 = left, 1 = right).
    fn on_element(&mut self, port: usize, element: &Element<P>, out: &mut Vec<Element<P>>);

    /// Estimated operator state in bytes.
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Short name for metrics and debugging.
    fn name(&self) -> &'static str;
}

/// One live input event on a join side.
#[derive(Clone, Debug)]
struct SideEvent {
    payload: Value,
    vs: Time,
    ve: Time,
}

/// One emitted join result, tracked so input revisions can correct it.
#[derive(Clone, Debug)]
struct OutRec {
    payload: Value,
    vs: Time,
    /// Currently emitted end time; `None` when the pair is not currently in
    /// the output (empty intersection).
    ve: Option<Time>,
}

/// Temporal equijoin on the payload `key` field.
pub struct TemporalJoin {
    /// Live events per side: key → (body-identity → event).
    sides: [HashMap<i32, Vec<SideEvent>>; 2],
    /// Emitted pairs: (left body, right body) → output record.
    emitted: HashMap<(bytes::Bytes, bytes::Bytes), OutRec>,
    stable: [Time; 2],
    emitted_stable: Time,
}

impl TemporalJoin {
    /// An empty join.
    pub fn new() -> TemporalJoin {
        TemporalJoin {
            sides: [HashMap::new(), HashMap::new()],
            emitted: HashMap::new(),
            stable: [Time::MIN, Time::MIN],
            emitted_stable: Time::MIN,
        }
    }

    fn combine(l: &SideEvent, r: &SideEvent) -> Value {
        let mut body = BytesMut::with_capacity(l.payload.body.len() + r.payload.body.len());
        body.put_slice(&l.payload.body);
        body.put_slice(&r.payload.body);
        Value {
            key: l.payload.key,
            body: body.freeze(),
        }
    }

    fn intersection(l: &SideEvent, r: &SideEvent) -> Option<(Time, Time)> {
        let vs = l.vs.max(r.vs);
        let ve = l.ve.min(r.ve);
        (vs < ve).then_some((vs, ve))
    }

    /// Re-derive the output for the pair (l, r) and emit the difference
    /// from what was previously emitted.
    fn reconcile_pair(&mut self, l: &SideEvent, r: &SideEvent, out: &mut Vec<Element<Value>>) {
        let pair_key = (l.payload.body.clone(), r.payload.body.clone());
        let want = Self::intersection(l, r);
        match (self.emitted.get_mut(&pair_key), want) {
            (None, None) => {}
            (None, Some((vs, ve))) => {
                let payload = Self::combine(l, r);
                out.push(Element::insert(payload.clone(), vs, ve));
                self.emitted.insert(
                    pair_key,
                    OutRec {
                        payload,
                        vs,
                        ve: Some(ve),
                    },
                );
            }
            (Some(rec), None) => {
                if let Some(cur) = rec.ve.take() {
                    // Cancel: the pair no longer overlaps.
                    out.push(Element::adjust(rec.payload.clone(), rec.vs, cur, rec.vs));
                }
            }
            (Some(rec), Some((vs, ve))) => {
                debug_assert_eq!(rec.vs, vs, "output Vs is fixed per pair");
                match rec.ve {
                    Some(cur) if cur != ve => {
                        out.push(Element::adjust(rec.payload.clone(), vs, cur, ve));
                        rec.ve = Some(ve);
                    }
                    Some(_) => {}
                    None => {
                        // The pair re-enters the output.
                        out.push(Element::insert(rec.payload.clone(), vs, ve));
                        rec.ve = Some(ve);
                    }
                }
            }
        }
    }

    fn on_insert(
        &mut self,
        port: usize,
        e: &lmerge_temporal::Event<Value>,
        out: &mut Vec<Element<Value>>,
    ) {
        let ev = SideEvent {
            payload: e.payload.clone(),
            vs: e.vs,
            ve: e.ve,
        };
        let partners: Vec<SideEvent> = self.sides[1 - port]
            .get(&e.payload.key)
            .cloned()
            .unwrap_or_default();
        for partner in &partners {
            let (l, r) = if port == 0 {
                (&ev, partner)
            } else {
                (partner, &ev)
            };
            self.reconcile_pair(l, r, out);
        }
        self.sides[port].entry(e.payload.key).or_default().push(ev);
    }

    fn on_adjust(
        &mut self,
        port: usize,
        payload: &Value,
        vs: Time,
        ve: Time,
        out: &mut Vec<Element<Value>>,
    ) {
        // Locate and update the side event.
        let Some(events) = self.sides[port].get_mut(&payload.key) else {
            return;
        };
        let Some(pos) = events
            .iter()
            .position(|se| se.payload == *payload && se.vs == vs)
        else {
            return;
        };
        let removed = ve == vs;
        let ev = if removed {
            events.swap_remove(pos)
        } else {
            events[pos].ve = ve;
            events[pos].clone()
        };
        let mut ev = ev;
        if removed {
            ev.ve = ev.vs; // empty interval: every pair reconciles to None
        }
        let partners: Vec<SideEvent> = self.sides[1 - port]
            .get(&payload.key)
            .cloned()
            .unwrap_or_default();
        for partner in &partners {
            let (l, r) = if port == 0 {
                (&ev, partner)
            } else {
                (partner, &ev)
            };
            self.reconcile_pair(l, r, out);
        }
    }

    fn on_stable(&mut self, port: usize, t: Time, out: &mut Vec<Element<Value>>) {
        self.stable[port] = self.stable[port].max(t);
        let floor = self.stable[0].min(self.stable[1]);
        if floor > self.emitted_stable {
            self.emitted_stable = floor;
            // Purge input events that can neither change nor join anything
            // new (their whole lifetime precedes the joint stable point).
            for side in &mut self.sides {
                for events in side.values_mut() {
                    events.retain(|e| e.ve >= floor);
                }
                side.retain(|_, v| !v.is_empty());
            }
            // A pair record is dead once nothing can legally change it:
            // emitted with a frozen end, or cancelled with a frozen start.
            self.emitted.retain(|_, rec| match rec.ve {
                Some(ve) => ve >= floor,
                None => rec.vs >= floor,
            });
            out.push(Element::Stable(floor));
        }
    }
}

impl Default for TemporalJoin {
    fn default() -> Self {
        TemporalJoin::new()
    }
}

impl BinaryOperator<Value> for TemporalJoin {
    fn on_element(&mut self, port: usize, element: &Element<Value>, out: &mut Vec<Element<Value>>) {
        assert!(port < 2, "TemporalJoin has two ports");
        match element {
            Element::Insert(e) => self.on_insert(port, e, out),
            Element::Adjust {
                payload, vs, ve, ..
            } => self.on_adjust(port, payload, *vs, *ve, out),
            Element::Stable(t) => self.on_stable(port, *t, out),
        }
    }

    fn memory_bytes(&self) -> usize {
        const EVENT_OVERHEAD: usize = std::mem::size_of::<SideEvent>() + 32;
        let side_payloads: usize = self
            .sides
            .iter()
            .flat_map(|s| s.values())
            .flatten()
            .map(|e| e.payload.body.len() + EVENT_OVERHEAD)
            .sum();
        let emitted: usize = self
            .emitted
            .values()
            .map(|r| r.payload.body.len() + std::mem::size_of::<OutRec>() + 48)
            .sum();
        side_payloads + emitted
    }

    fn name(&self) -> &'static str {
        "temporal-join"
    }
}

/// Drive two complete element streams through a join (test/bench helper).
pub fn join_streams(left: &[Element<Value>], right: &[Element<Value>]) -> Vec<Element<Value>> {
    let mut j = TemporalJoin::new();
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let longest = left.len().max(right.len());
    for k in 0..longest {
        for (port, side) in [(0usize, left), (1usize, right)] {
            if let Some(e) = side.get(k) {
                buf.clear();
                j.on_element(port, e, &mut buf);
                out.append(&mut buf);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::reconstitute::tdb_of;

    fn v(key: i32, tag: u8) -> Value {
        Value {
            key,
            body: bytes::Bytes::copy_from_slice(&[tag; 4]),
        }
    }

    /// Live input events buffered across both sides.
    fn live_events(j: &TemporalJoin) -> usize {
        j.sides
            .iter()
            .map(|s| s.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    #[test]
    fn overlapping_matches_join() {
        let mut j = TemporalJoin::new();
        let mut out = Vec::new();
        j.on_element(0, &Element::insert(v(7, 1), 10, 30), &mut out);
        assert!(out.is_empty(), "no partner yet");
        j.on_element(1, &Element::insert(v(7, 2), 20, 40), &mut out);
        assert_eq!(out.len(), 1);
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.snapshot_at(Time(25)).len(), 1, "alive in overlap");
        assert_eq!(tdb.snapshot_at(Time(35)).len(), 0, "dead outside");
    }

    #[test]
    fn key_mismatch_and_disjoint_lifetimes_do_not_join() {
        let mut j = TemporalJoin::new();
        let mut out = Vec::new();
        j.on_element(0, &Element::insert(v(7, 1), 10, 20), &mut out);
        j.on_element(1, &Element::insert(v(8, 2), 10, 20), &mut out); // key mismatch
        j.on_element(1, &Element::insert(v(7, 3), 30, 40), &mut out); // disjoint
        assert!(out.is_empty());
    }

    #[test]
    fn adjust_shrinks_join_result() {
        let mut j = TemporalJoin::new();
        let mut out = Vec::new();
        j.on_element(0, &Element::insert(v(7, 1), 10, 30), &mut out);
        j.on_element(1, &Element::insert(v(7, 2), 20, 40), &mut out);
        out.clear();
        // Left event now ends at 25: the join window shrinks [20,30)→[20,25).
        j.on_element(0, &Element::adjust(v(7, 1), 10, 30, 25), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            Element::Adjust { ve, .. } if *ve == Time(25)
        ));
    }

    #[test]
    fn adjust_can_cancel_and_revive_join_result() {
        let mut j = TemporalJoin::new();
        let mut all = Vec::new();
        j.on_element(0, &Element::insert(v(7, 1), 10, 30), &mut all);
        j.on_element(1, &Element::insert(v(7, 2), 20, 40), &mut all);
        // Shrink left to end before the partner starts: join vanishes.
        j.on_element(0, &Element::adjust(v(7, 1), 10, 30, 15), &mut all);
        let tdb = tdb_of(&all).unwrap();
        assert!(tdb.is_empty(), "join result cancelled: {tdb:?}");
        // Grow it back: join reappears.
        j.on_element(0, &Element::adjust(v(7, 1), 10, 15, 35), &mut all);
        let tdb = tdb_of(&all).unwrap();
        assert_eq!(tdb.len(), 1);
        assert_eq!(tdb.snapshot_at(Time(22)).len(), 1);
    }

    #[test]
    fn event_removal_cancels_joins() {
        let mut j = TemporalJoin::new();
        let mut all = Vec::new();
        j.on_element(0, &Element::insert(v(7, 1), 10, 30), &mut all);
        j.on_element(1, &Element::insert(v(7, 2), 20, 40), &mut all);
        j.on_element(0, &Element::adjust(v(7, 1), 10, 30, 10), &mut all); // delete
        assert!(tdb_of(&all).unwrap().is_empty());
        assert_eq!(live_events(&j), 1, "left event gone from state too");
    }

    #[test]
    fn stable_is_joint_minimum() {
        let mut j = TemporalJoin::new();
        let mut out = Vec::new();
        j.on_element(0, &Element::stable(50), &mut out);
        assert!(out.is_empty(), "one-sided promise is no promise");
        j.on_element(1, &Element::stable(30), &mut out);
        assert_eq!(out, vec![Element::stable(30)]);
    }

    #[test]
    fn join_output_is_deterministic_function_of_inputs() {
        // Same logical inputs, different physical order → same final TDB.
        let l1 = vec![
            Element::insert(v(1, 1), 0, 50),
            Element::insert(v(2, 2), 10, 60),
        ];
        let r1 = vec![
            Element::insert(v(1, 3), 20, 80),
            Element::insert(v(2, 4), 5, 15),
        ];
        let out_a = join_streams(&l1, &r1);
        // Reversed presentation order on both sides.
        let l2: Vec<_> = l1.iter().rev().cloned().collect();
        let r2: Vec<_> = r1.iter().rev().cloned().collect();
        let out_b = join_streams(&l2, &r2);
        assert_eq!(tdb_of(&out_a).unwrap(), tdb_of(&out_b).unwrap());
        assert_eq!(tdb_of(&out_a).unwrap().len(), 2);
    }

    #[test]
    fn purge_bounds_state() {
        let mut j = TemporalJoin::new();
        let mut out = Vec::new();
        for i in 0..20i64 {
            j.on_element(
                0,
                &Element::insert(v(1, i as u8), i * 10, i * 10 + 5),
                &mut out,
            );
        }
        assert_eq!(live_events(&j), 20);
        j.on_element(0, &Element::stable(1000), &mut out);
        j.on_element(1, &Element::stable(1000), &mut out);
        assert_eq!(live_events(&j), 0, "frozen, partnerless events purged");
    }
}
