//! End-to-end engine pipelines: source → operators → LMerge → sink, under
//! the virtual-time executor.

use lmerge::core::{LMergeR1, LMergeR3, LogicalMerge};
use lmerge::engine::ops::{AlterLifetime, Cleanse, Filter, IntervalCount, TopK};
use lmerge::engine::{MergeRun, Operator, Query, RunConfig, TimedElement};
use lmerge::gen::union::union;
use lmerge::gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge::properties::{infer, select, PlanNode, RLevel, StreamProperties};
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, StreamId, Time, Value};

fn timed(elems: &[Element<Value>], rate: f64) -> Vec<TimedElement<Value>> {
    assign_times(elems, rate)
        .into_iter()
        .map(|(at, e)| TimedElement::new(at, e))
        .collect()
}

/// Replicated count queries over divergent inputs, merged by LMR3+: the
/// merged output equals running the count once over the reference.
#[test]
fn replicated_count_queries_merge_to_reference_result() {
    let r = generate(&GenConfig::small(800, 5).with_disorder(0.3));
    let div = DivergenceConfig {
        revision_prob: 0.0,
        ..Default::default()
    };
    // Ground truth: the count over the reference stream.
    let mut truth_op = IntervalCount::new(4);
    let mut truth = Vec::new();
    let mut buf = Vec::new();
    for e in &r.elements {
        buf.clear();
        truth_op.on_element(e, &mut buf);
        truth.append(&mut buf);
    }
    let want = tdb_of(&truth).unwrap();

    let queries: Vec<Query<Value>> = (0..3u64)
        .map(|i| {
            let copy = diverge(&r.elements, &div, i);
            Query::new(
                timed(&copy, 20_000.0),
                vec![Box::new(IntervalCount::new(4)) as Box<dyn Operator<Value>>],
            )
        })
        .collect();
    let lm: Box<dyn LogicalMerge<Value>> = Box::new(LMergeR3::new(3));
    let metrics = MergeRun::new(queries, lm, RunConfig::default()).run();
    assert!(metrics.output_complete_at.is_some(), "run must complete");
    assert!(metrics.merge.satisfies_theorem1());

    // Re-run collecting actual output elements (drive the merge directly).
    let subs: Vec<Vec<Element<Value>>> = (0..3u64)
        .map(|i| {
            let copy = diverge(&r.elements, &div, i);
            let mut op = IntervalCount::new(4);
            let mut out = Vec::new();
            let mut b = Vec::new();
            for e in &copy {
                b.clear();
                op.on_element(e, &mut b);
                out.append(&mut b);
            }
            out
        })
        .collect();
    let mut lm: LMergeR3<Value> = LMergeR3::new(3);
    let mut out = Vec::new();
    let longest = subs.iter().map(Vec::len).max().unwrap();
    for k in 0..longest {
        for (i, s) in subs.iter().enumerate() {
            if let Some(e) = s.get(k) {
                lm.push(StreamId(i as u32), e, &mut out);
            }
        }
    }
    assert_eq!(tdb_of(&out).unwrap(), want);
}

/// The full C+LMR1 pipeline from Section VI-D produces the same logical
/// content as the direct LMR3+ merge.
#[test]
fn cleanse_pipeline_equals_direct_merge() {
    let r = generate(&GenConfig::small(500, 8).with_disorder(0.4));
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..2).map(|i| diverge(&r.elements, &div, i)).collect();

    // Direct LMR3+.
    let mut lm3: LMergeR3<Value> = LMergeR3::new(2);
    let mut direct = Vec::new();
    for (i, c) in copies.iter().enumerate() {
        for e in c {
            lm3.push(StreamId(i as u32), e, &mut direct);
        }
    }

    // Cleanse each input, then LMR1.
    let mut lm1: LMergeR1<Value> = LMergeR1::new(2);
    let mut piped = Vec::new();
    let mut cleanses: Vec<Cleanse<Value>> = (0..2).map(|_| Cleanse::new()).collect();
    let longest = copies.iter().map(Vec::len).max().unwrap();
    let mut buf = Vec::new();
    for k in 0..longest {
        for (i, c) in copies.iter().enumerate() {
            if let Some(e) = c.get(k) {
                buf.clear();
                cleanses[i].on_element(e, &mut buf);
                for ce in &buf {
                    lm1.push(StreamId(i as u32), ce, &mut piped);
                }
            }
        }
    }

    assert_eq!(tdb_of(&direct).unwrap(), r.tdb());
    assert_eq!(tdb_of(&piped).unwrap(), r.tdb());
}

/// Top-k over an ordered stream is an R1-class stream that LMR1 merges.
#[test]
fn topk_feeds_lmr1() {
    let mut cfg = GenConfig::small(600, 11).with_disorder(0.0);
    cfg.min_gap_ms = 1;
    let r = generate(&cfg);
    // Batch events into shared timestamps so Top-k has ties to rank
    // (rescaling punctuation the same way keeps the stream well formed).
    let batched: Vec<Element<Value>> = r
        .elements
        .iter()
        .map(|e| match e {
            Element::Insert(ev) => Element::insert(
                ev.payload.clone(),
                Time(ev.vs.0 / 64),
                Time(ev.vs.0 / 64 + 100),
            ),
            Element::Stable(t) if !t.is_infinite() => Element::stable(Time(t.0 / 64)),
            other => other.clone(),
        })
        .collect();

    let run_topk = |elems: &[Element<Value>]| {
        let mut op = TopK::new(3);
        let mut out = Vec::new();
        let mut b = Vec::new();
        for e in elems {
            // TopK needs non-decreasing Vs and insert-only input; the
            // batched stream satisfies both. Stables pass through.
            b.clear();
            op.on_element(e, &mut b);
            out.append(&mut b);
        }
        out
    };
    let s = run_topk(&batched);
    let want = tdb_of(&s).unwrap();

    let mut lm: LMergeR1<Value> = LMergeR1::new(2);
    let mut out = Vec::new();
    for e in &s {
        lm.push(StreamId(0), e, &mut out);
    }
    for e in &s {
        lm.push(StreamId(1), e, &mut out);
    }
    assert_eq!(tdb_of(&out).unwrap(), want, "duplicate copy fully absorbed");
}

/// Property inference picks the algorithm the engine then runs correctly:
/// the paper's six scenarios, wired end to end.
#[test]
fn inference_matches_engine_behaviour() {
    let ordered = PlanNode::source(StreamProperties::r0());
    let disordered = PlanNode::source(StreamProperties {
        insert_only: true,
        ordering: lmerge::properties::Ordering::None,
        deterministic_ties: false,
        key_vs_payload: false,
    });
    assert_eq!(
        select(infer(&ordered.clone().aggregate(false, false))),
        RLevel::R0
    );
    assert_eq!(
        select(infer(&ordered.clone().aggregate(false, true))),
        RLevel::R1
    );
    assert_eq!(
        select(infer(&ordered.clone().aggregate(true, false))),
        RLevel::R2
    );
    assert_eq!(
        select(infer(&disordered.clone().aggregate(true, false))),
        RLevel::R3
    );
    assert_eq!(select(infer(&disordered.clone().cleanse())), RLevel::R1);
    assert_eq!(
        select(infer(&disordered.aggregate(false, true))),
        RLevel::R4
    );
}

/// Union of ordered per-machine feeds is disordered (the paper's
/// data-center motivation); the count over it still merges cleanly.
#[test]
fn union_then_count_then_merge() {
    // Three ordered "machines".
    let machines: Vec<Vec<Element<Value>>> = (0..3u64)
        .map(|m| {
            let mut cfg = GenConfig::small(150, 30 + m).with_disorder(0.0);
            cfg.min_gap_ms = 1;
            generate(&cfg).elements
        })
        .collect();
    let unioned = union(&machines);

    // The union is disordered even though each input was ordered …
    let mut last = lmerge::temporal::Time::MIN;
    let mut inversions = 0;
    for e in &unioned {
        if let Some((vs, _)) = e.key() {
            if vs < last {
                inversions += 1;
            }
            last = last.max(vs);
        }
    }
    assert!(inversions > 0, "union should introduce disorder");

    // … and the adjust-generating count over two divergent copies of it
    // still merges to a single clean stream.
    let div = DivergenceConfig {
        revision_prob: 0.0,
        ..Default::default()
    };
    let subs: Vec<Vec<Element<Value>>> = (0..2u64)
        .map(|i| {
            let copy = diverge(&unioned, &div, i);
            let mut op = IntervalCount::new(2);
            let mut out = Vec::new();
            let mut b = Vec::new();
            for e in &copy {
                b.clear();
                op.on_element(e, &mut b);
                out.append(&mut b);
            }
            out
        })
        .collect();
    let want = tdb_of(&subs[0]).unwrap();
    let mut lm: LMergeR3<Value> = LMergeR3::new(2);
    let mut out = Vec::new();
    let longest = subs.iter().map(Vec::len).max().unwrap();
    for k in 0..longest {
        for (i, s) in subs.iter().enumerate() {
            if let Some(e) = s.get(k) {
                lm.push(StreamId(i as u32), e, &mut out);
            }
        }
    }
    assert_eq!(tdb_of(&out).unwrap(), want);
}

/// Filters and lifetime clipping compose with the merge.
#[test]
fn filter_and_clip_compose() {
    let r = generate(&GenConfig::small(300, 50));
    let div = DivergenceConfig::default();
    let process = |elems: &[Element<Value>]| {
        let mut f = Filter::new("evens", |v: &Value| v.key % 2 == 0);
        let mut clip = AlterLifetime::clip(200);
        let mut out = Vec::new();
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for e in elems {
            b1.clear();
            f.on_element(e, &mut b1);
            for fe in &b1 {
                b2.clear();
                clip.on_element(fe, &mut b2);
                out.append(&mut b2);
            }
        }
        out
    };
    let subs: Vec<_> = (0..2)
        .map(|i| process(&diverge(&r.elements, &div, i)))
        .collect();
    let want = tdb_of(&subs[0]).unwrap();
    assert_eq!(
        tdb_of(&subs[1]).unwrap(),
        want,
        "processing is deterministic"
    );

    let mut lm: LMergeR3<Value> = LMergeR3::new(2);
    let mut out = Vec::new();
    for (i, s) in subs.iter().enumerate() {
        for e in s {
            lm.push(StreamId(i as u32), e, &mut out);
        }
    }
    assert_eq!(tdb_of(&out).unwrap(), want);
}
