//! The oracle: what the server *must* have produced, and how to read
//! latency out of what it did produce.
//!
//! The merge runs in virtual time carried inside the frames, so its output
//! is a pure function of the feeds: an in-process `MergeRun` over the same
//! feeds is the byte-exact expectation for the subscriber's stream, however
//! the sockets were timed. On top of byte equality the paper's own
//! guarantee is checked: the output is compatible (C1–C3) with every
//! replica.

use lmerge::core::{new_for_level, MergePolicy};
use lmerge::engine::{MergeRun, Query, RunConfig, RunHooks, RunMetrics, TimedElement};
use lmerge::net::wire::{self, Frame};
use lmerge::obs::NullSink;
use lmerge::properties::RLevel;
use lmerge::temporal::compat::{check_r3, StreamView};
use lmerge::temporal::reconstitute::Reconstituter;
use lmerge::temporal::{Element, Time, VTime, Value};
use std::collections::HashMap;

/// Collects everything the merge emits, with the virtual stamp the
/// fan-out would put on the frame.
#[derive(Default)]
struct Collect {
    out: Vec<(VTime, Element<Value>)>,
    order: Vec<u32>,
}

impl RunHooks<Value> for Collect {
    fn enabled(&self) -> bool {
        true
    }

    fn on_consumed(
        &mut self,
        input: u32,
        at: VTime,
        delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        // A passthrough query delivers its source one element per batch.
        debug_assert_eq!(delivered.len(), 1);
        self.order.push(input);
        self.out.extend(emitted.iter().map(|e| (at, e.clone())));
    }
}

/// The expected outcome of one workload instance.
pub struct Reference {
    /// The merged output in emission order.
    pub output: Vec<(VTime, Element<Value>)>,
    /// The subscriber's expected byte stream: frame `k` is
    /// `Data { seq: k, at, element }`.
    pub bytes: Vec<u8>,
    /// The reference run's own accounting (deterministic: peak state
    /// bytes, element counters).
    pub metrics: RunMetrics,
    /// Which input each delivered batch came from, in the executor's
    /// delivery order (every batch is one element of that input's feed):
    /// what a layer replay needs to push the same sequence into a merge.
    pub order: Vec<u32>,
}

/// The merge every workload uses: LMR3+ with the default policy, exactly
/// what `lmerge-ingest --level r3` builds.
pub fn build_merge(inputs: usize) -> Box<dyn lmerge::core::LogicalMerge<Value>> {
    new_for_level(RLevel::R3, inputs, MergePolicy::default())
}

/// Run the reference merge over `feeds`.
pub fn reference(feeds: &[Vec<TimedElement<Value>>]) -> Reference {
    let queries: Vec<Query<Value>> = feeds.iter().cloned().map(Query::passthrough).collect();
    let mut hooks = Collect::default();
    let metrics = MergeRun::new(queries, build_merge(feeds.len()), RunConfig::default())
        .run_with_hooks(&mut NullSink, &mut hooks);
    let mut bytes = Vec::new();
    for (k, (at, element)) in hooks.out.iter().enumerate() {
        wire::encode_into(
            &Frame::Data {
                seq: k as u64,
                at: *at,
                element: element.clone(),
            },
            &mut bytes,
        );
    }
    Reference {
        output: hooks.out,
        bytes,
        metrics,
        order: hooks.order,
    }
}

/// Check C1–C3 (`temporal::compat::check_r3`) of the complete output
/// against every complete replica. `Err` carries the first violation.
pub fn check_compat(
    feeds: &[Vec<TimedElement<Value>>],
    output: &[(VTime, Element<Value>)],
) -> Result<(), String> {
    let mut inputs = Vec::with_capacity(feeds.len());
    for (i, feed) in feeds.iter().enumerate() {
        let mut rec = Reconstituter::new();
        for te in feed {
            rec.apply(&te.element)
                .map_err(|e| format!("replica {i} does not reconstitute: {e:?}"))?;
        }
        inputs.push(rec);
    }
    let mut out = Reconstituter::new();
    for (_, e) in output {
        out.apply(e)
            .map_err(|e| format!("output does not reconstitute: {e:?}"))?;
    }
    let views: Vec<StreamView<'_, Value>> = inputs
        .iter()
        .map(|r| StreamView::new(r.tdb(), r.stable()))
        .collect();
    check_r3(&views, &StreamView::new(out.tdb(), out.stable()))
        .map_err(|v| format!("output incompatible with its inputs: {v}"))
}

/// For every output frame, where each replica's copy of it sits.
///
/// `copies[k][r]` is the index in replica `r`'s feed of the `Insert` with
/// the same `(Vs, payload)` as output frame `k`, when frame `k` is an
/// `Insert` and replica `r` carries one. Adjusts and stables have no
/// entry (latency is defined per output insert). When a replica repeats a
/// key (a multiset feed), its *first* copy counts: that is the earliest
/// the output could have been caused.
pub fn match_copies(
    feeds: &[Vec<TimedElement<Value>>],
    output: &[(VTime, Element<Value>)],
) -> Vec<Option<Vec<Option<usize>>>> {
    let mut index: HashMap<(Time, &Value), Vec<Option<usize>>> = HashMap::new();
    for (r, feed) in feeds.iter().enumerate() {
        for (i, te) in feed.iter().enumerate() {
            if let Element::Insert(ev) = &te.element {
                let slot = index
                    .entry((ev.vs, &ev.payload))
                    .or_insert_with(|| vec![None; feeds.len()]);
                slot[r].get_or_insert(i);
            }
        }
    }
    output
        .iter()
        .map(|(_, e)| match e {
            // An insert nobody sent keeps an all-`None` row, so the
            // latency pass counts it as unmatched instead of skipping it.
            Element::Insert(ev) => Some(
                index
                    .get(&(ev.vs, &ev.payload))
                    .cloned()
                    .unwrap_or_else(|| vec![None; feeds.len()]),
            ),
            _ => None,
        })
        .collect()
}

/// Latency samples of one repetition.
pub struct Latencies {
    /// Per output insert: receive time minus the earliest time any
    /// replica's copy was due (open loop) or written (closed loop), ms.
    pub ms: Vec<f64>,
    /// Output inserts received before the *last* replica's copy was due —
    /// the output followed a faster input instead of waiting for all.
    pub fast_path: usize,
    /// Output inserts with no copy in any replica, or frames the
    /// subscriber never received: oracle violations.
    pub unmatched: usize,
}

/// Read latencies out of a repetition.
///
/// `origin_ns[r][i]` is when frame `i` of replica `r` was due (or, in a
/// closed loop, written), and `recv_ns[k]` when output frame `k` reached
/// the subscriber, all in nanoseconds after the sender's start.
pub fn latencies(
    copies: &[Option<Vec<Option<usize>>>],
    origin_ns: &[Vec<u64>],
    recv_ns: &[u64],
) -> Latencies {
    let mut out = Latencies {
        ms: Vec::new(),
        fast_path: 0,
        unmatched: 0,
    };
    for (k, copy) in copies.iter().enumerate() {
        let Some(copy) = copy else { continue };
        let origins: Vec<u64> = copy
            .iter()
            .enumerate()
            .filter_map(|(r, idx)| idx.and_then(|i| origin_ns[r].get(i).copied()))
            .collect();
        let (Some(&first), Some(&last), Some(&recv)) =
            (origins.iter().min(), origins.iter().max(), recv_ns.get(k))
        else {
            out.unmatched += 1;
            continue;
        };
        out.ms.push(recv.saturating_sub(first) as f64 / 1e6);
        if origins.len() > 1 && recv < last {
            out.fast_path += 1;
        }
    }
    out
}

/// Per output insert, how long it waited for punctuation: the due time of
/// the stable that sealed its epoch (the earliest replica copy of the
/// first output `Stable` at or after it) minus its own earliest due time,
/// in ms. Output frames only leave the server when an epoch seals, so
/// this is the floor under subscriber latency that no codec or socket
/// change can lower.
pub fn epoch_hold_ms(
    feeds: &[Vec<TimedElement<Value>>],
    output: &[(VTime, Element<Value>)],
    copies: &[Option<Vec<Option<usize>>>],
    origin_ns: &[Vec<u64>],
) -> Vec<f64> {
    // When each stable point was first due on any replica.
    let mut stable_due: HashMap<Time, u64> = HashMap::new();
    for (r, feed) in feeds.iter().enumerate() {
        for (i, te) in feed.iter().enumerate() {
            if let (Element::Stable(t), Some(&due)) = (&te.element, origin_ns[r].get(i)) {
                let slot = stable_due.entry(*t).or_insert(due);
                *slot = (*slot).min(due);
            }
        }
    }
    let mut holds = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    for (k, (_, e)) in output.iter().enumerate() {
        match e {
            Element::Insert(_) => {
                let first = copies[k].as_ref().and_then(|copy| {
                    copy.iter()
                        .enumerate()
                        .filter_map(|(r, idx)| idx.and_then(|i| origin_ns[r].get(i).copied()))
                        .min()
                });
                if let Some(first) = first {
                    pending.push(first);
                }
            }
            Element::Stable(t) => {
                if let Some(&sealed) = stable_due.get(t) {
                    holds.extend(
                        pending
                            .drain(..)
                            .map(|first| sealed.saturating_sub(first) as f64 / 1e6),
                    );
                }
            }
            Element::Adjust { .. } => {}
        }
    }
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn te(at: u64, e: Element<Value>) -> TimedElement<Value> {
        TimedElement::new(VTime(at), e)
    }

    fn v(k: i32) -> Value {
        Value::synthetic(k, 8)
    }

    #[test]
    fn matcher_handles_duplicates_adjusts_and_missing_copies() {
        let feeds = vec![
            vec![
                te(0, Element::insert(v(1), 10, 20)),
                te(1, Element::insert(v(2), 11, 21)),
                // A repeated key: the first copy is the one that counts.
                te(2, Element::insert(v(1), 10, 20)),
                te(3, Element::stable(15)),
            ],
            vec![
                te(0, Element::insert(v(2), 11, Time::INFINITY)),
                te(1, Element::adjust(v(2), 11, Time::INFINITY, 21)),
                te(2, Element::insert(v(1), 10, 20)),
                // Same payload, different Vs: a different key.
                te(3, Element::insert(v(1), 12, 22)),
            ],
        ];
        let output = vec![
            (VTime(0), Element::insert(v(1), 10, 20)),
            (VTime(1), Element::insert(v(2), 11, Time::INFINITY)),
            (VTime(2), Element::adjust(v(2), 11, Time::INFINITY, 21)),
            (VTime(3), Element::stable(15)),
            (VTime(4), Element::insert(v(1), 12, 22)),
            // Never sent by anyone: the oracle must notice.
            (VTime(5), Element::insert(v(9), 99, 100)),
        ];
        let copies = match_copies(&feeds, &output);
        assert_eq!(copies[0], Some(vec![Some(0), Some(2)]));
        assert_eq!(copies[1], Some(vec![Some(1), Some(0)]));
        assert_eq!(copies[2], None, "adjusts carry no latency sample");
        assert_eq!(copies[3], None, "stables carry no latency sample");
        assert_eq!(copies[4], Some(vec![None, Some(3)]));
        assert_eq!(
            copies[5],
            Some(vec![None, None]),
            "kept, to be counted unmatched"
        );
    }

    #[test]
    fn latency_is_measured_from_the_earliest_copy() {
        let copies = vec![
            Some(vec![Some(0), Some(1)]),
            None,
            Some(vec![Some(1), None]),
            Some(vec![None, None]),
            Some(vec![Some(0), Some(0)]),
        ];
        // Replica 0 frames due at 1 ms and 4 ms; replica 1 at 3 ms and 2 ms.
        let origin = vec![vec![1_000_000, 4_000_000], vec![3_000_000, 2_000_000]];
        // Frame 4 never arrived (subscriber saw only four frames).
        let recv = vec![5_000_000, 5_000_000, 6_500_000, 7_000_000];
        let l = latencies(&copies, &origin, &recv);
        // k=0: copies due at 1 ms and 2 ms, received at 5 ms → 4 ms, after
        // both. k=2: one copy due at 4 ms, received at 6.5 ms → 2.5 ms.
        assert_eq!(l.ms, vec![4.0, 2.5]);
        assert_eq!(
            l.unmatched, 2,
            "no copy anywhere, and a frame never received"
        );
        assert_eq!(l.fast_path, 0);
        // Received between the two copies' due times: followed the faster.
        let l = latencies(&copies[..1], &origin, &[1_500_000]);
        assert_eq!((l.ms, l.fast_path), (vec![0.5], 1));
    }

    #[test]
    fn epoch_hold_is_time_to_the_sealing_stable() {
        let feeds = vec![
            vec![
                te(0, Element::insert(v(1), 10, 20)),
                te(1, Element::stable(5)),
                te(2, Element::insert(v(2), 11, 21)),
                te(3, Element::stable(30)),
            ],
            vec![
                te(0, Element::insert(v(1), 10, 20)),
                te(1, Element::insert(v(2), 11, 21)),
                te(2, Element::stable(30)),
            ],
        ];
        let output = vec![
            (VTime(0), Element::insert(v(1), 10, 20)),
            (VTime(1), Element::stable(5)),
            (VTime(2), Element::insert(v(2), 11, 21)),
            (VTime(3), Element::stable(30)),
        ];
        let origin = vec![
            vec![0, 1_000_000, 2_000_000, 9_000_000],
            vec![500_000, 1_500_000, 6_000_000],
        ];
        let copies = match_copies(&feeds, &output);
        let holds = epoch_hold_ms(&feeds, &output, &copies, &origin);
        // Insert 1 first due at 0, sealed by stable(5) due at 1 ms.
        // Insert 2 first due at 1.5 ms, sealed by stable(30) first due at 6 ms.
        assert_eq!(holds, vec![1.0, 4.5]);
    }

    #[test]
    fn reference_is_deterministic_compatible_and_frames_are_sequenced() {
        let w = workload::find("wire_flatout_32b").unwrap();
        let feeds = w.feeds(11, 100);
        let a = reference(&feeds);
        let b = reference(&feeds);
        assert_eq!(a.bytes, b.bytes);
        assert!(!a.output.is_empty());
        assert_eq!(a.metrics.peak_memory, b.metrics.peak_memory);
        check_compat(&feeds, &a.output).expect("the merge output is compatible");
        let mut pos = 0;
        for k in 0..a.output.len() {
            let (frame, used) = wire::decode(&a.bytes[pos..]).unwrap();
            pos += used;
            assert!(matches!(frame, Frame::Data { seq, .. } if seq == k as u64));
        }
        assert_eq!(pos, a.bytes.len());
        // Every output insert has a copy in some replica.
        let copies = match_copies(&feeds, &a.output);
        for ((_, e), c) in a.output.iter().zip(&copies) {
            assert_eq!(e.is_insert(), c.is_some());
        }
    }

    #[test]
    fn compat_check_rejects_an_output_that_drops_an_event() {
        let w = workload::find("wire_flatout_32b").unwrap();
        let feeds = w.feeds(5, 100);
        let mut out = reference(&feeds).output;
        let victim = out.iter().position(|(_, e)| e.is_insert()).unwrap();
        // Remove an insert and every later revision of it.
        let key = out[victim].1.key().map(|(vs, p)| (vs, p.clone())).unwrap();
        out.retain(|(_, e)| e.key().map(|(vs, p)| (vs, p.clone())) != Some(key.clone()));
        assert!(check_compat(&feeds, &out).is_err());
    }
}
