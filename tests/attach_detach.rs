//! Joining and leaving input streams (paper Section V-B), plus the
//! missing-elements semantics of Section V-C.

use lmerge::core::{LMergeR3, LMergeR4, LogicalMerge};
use lmerge::gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, StreamId, Time, Value};

fn copies(
    events: usize,
    seed: u64,
    n: usize,
) -> (Vec<Vec<Element<Value>>>, lmerge::temporal::Tdb<Value>) {
    let r = generate(&GenConfig::small(events, seed));
    let div = DivergenceConfig::default();
    (
        (0..n)
            .map(|i| diverge(&r.elements, &div, i as u64))
            .collect(),
        r.tdb(),
    )
}

/// Detaching the leading stream mid-run: the survivors carry the merge to
/// the same logical result.
#[test]
fn detach_leader_midway() {
    let (copies, reference) = copies(400, 3, 3);
    let mut lm: LMergeR3<Value> = LMergeR3::new(3);
    let mut out = Vec::new();
    let half = copies[0].len() / 2;
    // Stream 0 leads alone for the first half…
    for e in &copies[0][..half] {
        lm.push(StreamId(0), e, &mut out);
    }
    // …then dies. The other two replay from the beginning (they were
    // attached all along, just silent).
    lm.detach(StreamId(0));
    for k in 0..copies[1].len().max(copies[2].len()) {
        for i in [1usize, 2] {
            if let Some(e) = copies[i].get(k) {
                lm.push(StreamId(i as u32), e, &mut out);
            }
        }
    }
    assert_eq!(tdb_of(&out).unwrap(), reference);
}

/// A joining stream's punctuation is gated until the merge's stable point
/// covers its join time; its data is usable immediately.
#[test]
fn join_gating_protects_progress() {
    let mut lm: LMergeR3<&str> = LMergeR3::new(1);
    let mut out = Vec::new();
    lm.push(StreamId(0), &Element::insert("A", 5, 50), &mut out);
    lm.push(StreamId(0), &Element::stable(10), &mut out);

    // Newcomer guarantees correctness only from t = 40.
    let id = lm.attach(Time(40));
    // Its early stable would skip events it never saw — must be ignored.
    lm.push(id, &Element::stable(60), &mut out);
    assert_eq!(lm.max_stable(), Time(10), "joining stable gated");
    // Its data still counts.
    lm.push(id, &Element::insert("B", 45, 90), &mut out);
    assert!(out
        .iter()
        .any(|e| matches!(e, Element::Insert(ev) if ev.payload == "B")));

    // Established stream advances past the join point → newcomer trusted.
    lm.push(StreamId(0), &Element::stable(40), &mut out);
    lm.push(id, &Element::stable(60), &mut out);
    assert_eq!(lm.max_stable(), Time(60));
}

/// After joining, the newcomer alone can finish the merge ("LMerge can
/// tolerate the simultaneous failure or removal of all the other streams").
#[test]
fn joined_stream_can_finish_alone() {
    let (copies, reference) = copies(300, 9, 2);
    let mut lm: LMergeR3<Value> = LMergeR3::new(1);
    let mut out = Vec::new();
    // Stream 0 runs for a while.
    let third = copies[0].len() / 3;
    for e in &copies[0][..third] {
        lm.push(StreamId(0), e, &mut out);
    }
    // A replacement attaches, replaying from the logical beginning.
    let id = lm.attach(Time::MIN);
    lm.detach(StreamId(0));
    for e in &copies[1] {
        lm.push(id, e, &mut out);
    }
    assert_eq!(tdb_of(&out).unwrap(), reference);
}

/// Section V-C: R0/R1/R2 output elements missing from one stream as long
/// as another stream delivers them before anyone moves past their Vs.
#[test]
fn missing_elements_covered_by_other_streams() {
    let mut lm = lmerge::core::LMergeR0::<&str>::new(2);
    let mut out = Vec::new();
    lm.push(StreamId(0), &Element::insert("a", 1, 5), &mut out);
    // Stream 1 never saw "a"; it delivers "b" next.
    lm.push(StreamId(1), &Element::insert("b", 2, 6), &mut out);
    // Stream 0 catches up on b (duplicate), both proceed.
    lm.push(StreamId(0), &Element::insert("b", 2, 6), &mut out);
    assert_eq!(
        out.iter().filter(|e| e.is_insert()).count(),
        2,
        "both events present exactly once"
    );
}

/// Section V-C for R3/R4: an element missing from the stream that drives
/// the stable past its Vs is dropped from the output — progress is never
/// held hostage by the slowest stream.
#[test]
fn r3_missing_element_semantics() {
    let (mut copies, reference) = copies(300, 21, 2);
    // Make stream 1 drop ~15% of its inserts.
    let r = generate(&GenConfig::small(300, 21));
    let div = DivergenceConfig {
        drop_prob: 0.15,
        revision_prob: 0.0,
        ..Default::default()
    };
    copies[1] = diverge(&r.elements, &div, 1);

    let mut lm: LMergeR3<Value> = LMergeR3::new(2);
    let mut out = Vec::new();
    // Complete stream 0 delivers everything first; lossy stream 1 follows.
    for e in &copies[0] {
        lm.push(StreamId(0), e, &mut out);
    }
    for e in &copies[1] {
        lm.push(StreamId(1), e, &mut out);
    }
    // Stream 0 drove every stable, so nothing is missing.
    assert_eq!(tdb_of(&out).unwrap(), reference);
}

/// Detach also works for R4, purging the stream's multiset state.
#[test]
fn r4_detach_purges_state() {
    let mut lm: LMergeR4<&str> = LMergeR4::new(2);
    let mut out = Vec::new();
    lm.push(StreamId(0), &Element::insert("A", 1, 9), &mut out);
    lm.push(StreamId(1), &Element::insert("A", 1, 9), &mut out);
    lm.detach(StreamId(0));
    lm.push(StreamId(1), &Element::stable(20), &mut out);
    let tdb = tdb_of(&out).unwrap();
    assert_eq!(tdb.count(&"A", Time(1), Time(9)), 1);
    assert_eq!(lm.live_nodes(), 0);
}

/// Elements pushed under a detached id are ignored entirely.
#[test]
fn detached_input_is_silent() {
    let mut lm: LMergeR3<&str> = LMergeR3::new(2);
    let mut out = Vec::new();
    lm.detach(StreamId(1));
    lm.push(StreamId(1), &Element::insert("X", 1, 9), &mut out);
    lm.push(StreamId(1), &Element::stable(100), &mut out);
    assert!(out.is_empty());
    assert_eq!(lm.max_stable(), Time::MIN);
}
