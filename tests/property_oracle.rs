//! Property-style tests: random mutually consistent inputs, every output
//! prefix checked against the paper's compatibility oracle.
//!
//! Seeded random loops stand in for a property-testing framework: each
//! case's knobs derive from a fixed master seed and print in the panic
//! message on failure, so every run is reproducible.

use lmerge::core::{new_for_level, LMergeR3, LMergeR3Naive, LMergeR4, LogicalMerge, MergePolicy};
use lmerge::gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge::properties::{describe, minimize, Knob, RLevel};
use lmerge::temporal::compat::{check_r3, check_r4, StreamView};
use lmerge::temporal::consistency::consistent_with_reference;
use lmerge::temporal::reconstitute::{tdb_of, Reconstituter};
use lmerge::temporal::{Element, StreamId, Time, Value};
use rand::prelude::*;

/// Run a knob-driven property; on failure, shrink the knobs to a locally
/// minimal reproduction before panicking, so the failure message carries
/// the smallest case instead of the first one found.
fn check_shrunk(knobs: Vec<Knob>, run: impl Fn(&[Knob]) -> Result<(), String>) {
    if let Err(first) = run(&knobs) {
        let (minimal, probes) = minimize(knobs, |k| run(k).is_err());
        let err = run(&minimal).err().unwrap_or(first);
        panic!(
            "property failed; minimized ({probes} probes) to [{}]: {err}",
            describe(&minimal)
        );
    }
}

/// Build divergent copies from randomly chosen knobs.
fn copies_for(
    events: usize,
    seed: u64,
    disorder: f64,
    revision_prob: f64,
    n: usize,
) -> (Vec<Vec<Element<Value>>>, lmerge::temporal::Tdb<Value>) {
    let cfg = GenConfig::small(events, seed).with_disorder(disorder);
    let r = generate(&cfg);
    let div = DivergenceConfig {
        revision_prob,
        seed: seed.wrapping_mul(31),
        ..Default::default()
    };
    let copies = (0..n)
        .map(|i| diverge(&r.elements, &div, i as u64))
        .collect();
    (copies, r.tdb())
}

/// Per-case knobs drawn from a master RNG.
fn knobs(rng: &mut StdRng, max_disorder: f64, max_revision: f64) -> (u64, f64, f64) {
    (
        rng.random_range(0u64..1000),
        rng.random_range(0.0..max_disorder),
        rng.random_range(0.0..max_revision),
    )
}

/// Generated copies are each well formed and consistent with the reference
/// at every punctuation point.
#[test]
fn generated_copies_are_mutually_consistent() {
    let mut rng = StdRng::seed_from_u64(0x50_0001);
    for _ in 0..24 {
        let (seed, disorder, revision) = knobs(&mut rng, 0.5, 0.5);
        let (copies, reference) = copies_for(60, seed, disorder, revision, 3);
        for copy in &copies {
            let mut rec: Reconstituter<Value> = Reconstituter::new();
            for e in copy {
                rec.apply(e).expect("copy well formed");
                if e.is_stable() {
                    consistent_with_reference(StreamView::new(rec.tdb(), rec.stable()), &reference)
                        .expect("prefix consistent with reference");
                }
            }
            assert_eq!(
                rec.tdb(),
                &reference,
                "seed={seed} disorder={disorder:.3} revision={revision:.3}"
            );
        }
    }
}

/// R3 merge: the final output equals the reference, every output prefix
/// satisfies C1–C3 at punctuation points, and Theorem 1 holds.
#[test]
fn r3_output_is_compatible_at_every_stable() {
    let mut rng = StdRng::seed_from_u64(0x50_0002);
    for _ in 0..24 {
        let (seed, disorder, revision) = knobs(&mut rng, 0.5, 0.5);
        let (copies, reference) = copies_for(50, seed, disorder, revision, 2);
        let mut lm: LMergeR3<Value> = LMergeR3::new(2);
        let mut out = Vec::new();
        let mut input_recs: Vec<Reconstituter<Value>> =
            (0..2).map(|_| Reconstituter::new()).collect();
        let mut out_rec: Reconstituter<Value> = Reconstituter::new();
        let mut emitted_upto = 0usize;

        let longest = copies.iter().map(Vec::len).max().unwrap();
        for k in 0..longest {
            for (i, c) in copies.iter().enumerate() {
                let Some(e) = c.get(k) else { continue };
                input_recs[i].apply(e).expect("input well formed");
                lm.push(StreamId(i as u32), e, &mut out);
                for oe in &out[emitted_upto..] {
                    out_rec.apply(oe).expect("output must stay well formed");
                }
                emitted_upto = out.len();
                if e.is_stable() {
                    let views: Vec<StreamView<Value>> = input_recs
                        .iter()
                        .map(|r| StreamView::new(r.tdb(), r.stable()))
                        .collect();
                    check_r3(&views, &StreamView::new(out_rec.tdb(), out_rec.stable()))
                        .expect("output prefix compatible (C1–C3)");
                }
            }
        }
        assert_eq!(
            out_rec.tdb(),
            &reference,
            "seed={seed} disorder={disorder:.3} revision={revision:.3}"
        );
        assert!(lm.stats().satisfies_theorem1());
    }
}

/// R4 merge under the tracking policy satisfies the multiset conditions.
#[test]
fn r4_output_is_compatible_at_every_stable() {
    let mut rng = StdRng::seed_from_u64(0x50_0003);
    for _ in 0..24 {
        let (seed, disorder, revision) = knobs(&mut rng, 0.4, 0.4);
        let (copies, reference) = copies_for(40, seed, disorder, revision, 2);
        let mut lm: LMergeR4<Value> = LMergeR4::new(2);
        let mut out = Vec::new();
        let mut input_recs: Vec<Reconstituter<Value>> =
            (0..2).map(|_| Reconstituter::new()).collect();
        let mut out_rec: Reconstituter<Value> = Reconstituter::new();
        let mut emitted_upto = 0usize;

        let longest = copies.iter().map(Vec::len).max().unwrap();
        for k in 0..longest {
            for (i, c) in copies.iter().enumerate() {
                let Some(e) = c.get(k) else { continue };
                input_recs[i].apply(e).expect("input well formed");
                lm.push(StreamId(i as u32), e, &mut out);
                for oe in &out[emitted_upto..] {
                    out_rec.apply(oe).expect("output must stay well formed");
                }
                emitted_upto = out.len();
                if e.is_stable() {
                    let views: Vec<StreamView<Value>> = input_recs
                        .iter()
                        .map(|r| StreamView::new(r.tdb(), r.stable()))
                        .collect();
                    check_r4(&views, &StreamView::new(out_rec.tdb(), out_rec.stable()))
                        .expect("output prefix compatible (R4 tracking)");
                }
            }
        }
        assert_eq!(
            out_rec.tdb(),
            &reference,
            "seed={seed} disorder={disorder:.3} revision={revision:.3}"
        );
    }
}

/// Order-preserving copies for the restricted levels: insert-only,
/// strictly increasing `Vs`, identical data on every copy; copies differ
/// only in which non-final punctuation they retain.
fn restricted_copies_for(
    events: usize,
    seed: u64,
    n: usize,
) -> (Vec<Vec<Element<Value>>>, lmerge::temporal::Tdb<Value>) {
    let cfg = GenConfig {
        min_gap_ms: 1,
        disorder: 0.0,
        ..GenConfig::small(events, seed)
    };
    let r = generate(&cfg);
    let copies = (0..n)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7000 + c as u64));
            r.elements
                .iter()
                .filter(|e| match e {
                    Element::Stable(t) if *t != Time::INFINITY => rng.random_bool(0.7),
                    _ => true,
                })
                .cloned()
                .collect()
        })
        .collect();
    (copies, r.tdb())
}

/// R0–R2 merges over order-preserving copies: every output prefix passes
/// the compatibility oracle (C1 plus the leading input's frozen content —
/// the weakest sound check for levels whose outputs may interleave inserts
/// from different copies), and the final TDB equals the reference.
/// Failures shrink to minimal `events`/`seed` knobs before panicking.
#[test]
fn restricted_levels_are_compatible_at_every_stable() {
    let mut rng = StdRng::seed_from_u64(0x50_0005);
    for _ in 0..16 {
        let knobs = vec![
            Knob::new("events", rng.random_range(10..60), 1),
            Knob::new("seed", rng.random_range(0..1000), 0),
        ];
        check_shrunk(knobs, |k| {
            let (events, seed) = (k[0].value as usize, k[1].value);
            let (copies, reference) = restricted_copies_for(events, seed, 2);
            for level in [RLevel::R0, RLevel::R1, RLevel::R2] {
                let mut lm = new_for_level::<Value>(level, 2, MergePolicy::paper_default());
                let mut out = Vec::new();
                let mut input_recs: Vec<Reconstituter<Value>> =
                    (0..2).map(|_| Reconstituter::new()).collect();
                let mut out_rec: Reconstituter<Value> = Reconstituter::new();
                let mut emitted_upto = 0usize;
                let longest = copies.iter().map(Vec::len).max().unwrap();
                for j in 0..longest {
                    for (i, c) in copies.iter().enumerate() {
                        let Some(e) = c.get(j) else { continue };
                        input_recs[i].apply(e).map_err(|x| format!("{x:?}"))?;
                        lm.push(StreamId(i as u32), e, &mut out);
                        for oe in &out[emitted_upto..] {
                            out_rec
                                .apply(oe)
                                .map_err(|x| format!("{level:?}: ill-formed output: {x:?}"))?;
                        }
                        emitted_upto = out.len();
                        if e.is_stable() {
                            let views: Vec<StreamView<Value>> = input_recs
                                .iter()
                                .map(|r| StreamView::new(r.tdb(), r.stable()))
                                .collect();
                            check_r4(&views, &StreamView::new(out_rec.tdb(), out_rec.stable()))
                                .map_err(|x| format!("{level:?}: incompatible prefix: {x:?}"))?;
                        }
                    }
                }
                if out_rec.tdb() != &reference {
                    return Err(format!("{level:?}: final TDB diverges from reference"));
                }
            }
            Ok(())
        });
    }
}

/// The naive LMR3− baseline satisfies the same C1–C3 contract as the
/// indexed R3 algorithm on divergent (revision-bearing) copies.
#[test]
fn r3_naive_is_compatible_at_every_stable() {
    let mut rng = StdRng::seed_from_u64(0x50_0006);
    for _ in 0..16 {
        // Disorder and revision probability shrink as per-mille integers.
        let knobs = vec![
            Knob::new("events", rng.random_range(10..50), 1),
            Knob::new("seed", rng.random_range(0..1000), 0),
            Knob::new("disorder_pm", rng.random_range(0..500), 0),
            Knob::new("revision_pm", rng.random_range(0..500), 0),
        ];
        check_shrunk(knobs, |k| {
            let (events, seed) = (k[0].value as usize, k[1].value);
            let (disorder, revision) = (k[2].value as f64 / 1000.0, k[3].value as f64 / 1000.0);
            let (copies, reference) = copies_for(events, seed, disorder, revision, 2);
            let mut lm: LMergeR3Naive<Value> = LMergeR3Naive::new(2);
            let mut out = Vec::new();
            let mut input_recs: Vec<Reconstituter<Value>> =
                (0..2).map(|_| Reconstituter::new()).collect();
            let mut out_rec: Reconstituter<Value> = Reconstituter::new();
            let mut emitted_upto = 0usize;
            let longest = copies.iter().map(Vec::len).max().unwrap();
            for j in 0..longest {
                for (i, c) in copies.iter().enumerate() {
                    let Some(e) = c.get(j) else { continue };
                    input_recs[i].apply(e).map_err(|x| format!("{x:?}"))?;
                    lm.push(StreamId(i as u32), e, &mut out);
                    for oe in &out[emitted_upto..] {
                        out_rec
                            .apply(oe)
                            .map_err(|x| format!("ill-formed output: {x:?}"))?;
                    }
                    emitted_upto = out.len();
                    if e.is_stable() {
                        let views: Vec<StreamView<Value>> = input_recs
                            .iter()
                            .map(|r| StreamView::new(r.tdb(), r.stable()))
                            .collect();
                        check_r3(&views, &StreamView::new(out_rec.tdb(), out_rec.stable()))
                            .map_err(|x| format!("incompatible prefix: {x:?}"))?;
                    }
                }
            }
            if out_rec.tdb() != &reference {
                return Err("final TDB diverges from reference".into());
            }
            Ok(())
        });
    }
}

/// The `push_batch` fast path satisfies the oracle too: the same divergent
/// copies delivered in random-sized batches, checked at every batch that
/// carried punctuation — covering the hoisted-gating and frozen-batch
/// discard overrides the per-element tests never reach.
#[test]
fn push_batch_path_is_compatible_at_every_stable() {
    type Check = fn(&[StreamView<Value>], &StreamView<Value>) -> bool;
    type Factory = fn() -> Box<dyn LogicalMerge<Value>>;
    let factories: [(&str, Factory, Check); 3] = [
        (
            "r3",
            || Box::new(LMergeR3::new(2)),
            |v, o| check_r3(v, o).is_ok(),
        ),
        (
            "r3_naive",
            || Box::new(LMergeR3Naive::new(2)),
            |v, o| check_r3(v, o).is_ok(),
        ),
        (
            "r4",
            || Box::new(LMergeR4::new(2)),
            |v, o| check_r4(v, o).is_ok(),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0x50_0007);
    for _ in 0..12 {
        let knobs = vec![
            Knob::new("events", rng.random_range(10..50), 1),
            Knob::new("seed", rng.random_range(0..1000), 0),
        ];
        check_shrunk(knobs, |k| {
            let (events, seed) = (k[0].value as usize, k[1].value);
            let (copies, reference) = copies_for(events, seed, 0.3, 0.3, 2);
            for (name, mk, compatible) in &factories {
                let mut lm = mk();
                let mut out = Vec::new();
                let mut input_recs: Vec<Reconstituter<Value>> =
                    (0..2).map(|_| Reconstituter::new()).collect();
                let mut out_rec: Reconstituter<Value> = Reconstituter::new();
                let mut emitted_upto = 0usize;
                let mut chunk_rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
                let mut cursors = vec![0usize; copies.len()];
                while cursors.iter().zip(&copies).any(|(c, copy)| *c < copy.len()) {
                    for (i, copy) in copies.iter().enumerate() {
                        if cursors[i] >= copy.len() {
                            continue;
                        }
                        let take = chunk_rng
                            .random_range(1usize..6)
                            .min(copy.len() - cursors[i]);
                        let batch = &copy[cursors[i]..cursors[i] + take];
                        cursors[i] += take;
                        input_recs[i]
                            .apply_all(batch)
                            .map_err(|x| format!("{name}: {x:?}"))?;
                        lm.push_batch(StreamId(i as u32), batch, &mut out);
                        for oe in &out[emitted_upto..] {
                            out_rec
                                .apply(oe)
                                .map_err(|x| format!("{name}: ill-formed output: {x:?}"))?;
                        }
                        emitted_upto = out.len();
                        if batch.iter().any(Element::is_stable) {
                            let views: Vec<StreamView<Value>> = input_recs
                                .iter()
                                .map(|r| StreamView::new(r.tdb(), r.stable()))
                                .collect();
                            if !compatible(
                                &views,
                                &StreamView::new(out_rec.tdb(), out_rec.stable()),
                            ) {
                                return Err(format!("{name}: incompatible batched prefix"));
                            }
                        }
                    }
                }
                if out_rec.tdb() != &reference {
                    return Err(format!("{name}: final TDB diverges from reference"));
                }
            }
            Ok(())
        });
    }
}

/// The count sub-query over any two divergent copies yields mutually
/// consistent R3 inputs: merging them reproduces one copy's final TDB.
#[test]
fn count_subquery_outputs_merge_cleanly() {
    use lmerge::engine::ops::IntervalCount;
    use lmerge::engine::Operator;
    let mut rng = StdRng::seed_from_u64(0x50_0004);
    for _ in 0..24 {
        let seed = rng.random_range(0u64..500);
        let disorder = rng.random_range(0.0f64..0.5);
        let (copies, _) = copies_for(60, seed, disorder, 0.0, 2);
        let subs: Vec<Vec<Element<Value>>> = copies
            .iter()
            .map(|c| {
                let mut agg = IntervalCount::new(3);
                let mut out = Vec::new();
                for e in c {
                    agg.on_element(e, &mut out);
                }
                out
            })
            .collect();
        let want = tdb_of(&subs[0]).expect("sub-query output well formed");
        assert_eq!(&tdb_of(&subs[1]).unwrap(), &want);

        let mut lm: LMergeR3<Value> = LMergeR3::new(2);
        let mut out = Vec::new();
        let longest = subs.iter().map(Vec::len).max().unwrap();
        for k in 0..longest {
            for (i, c) in subs.iter().enumerate() {
                if let Some(e) = c.get(k) {
                    lm.push(StreamId(i as u32), e, &mut out);
                }
            }
        }
        assert_eq!(
            &tdb_of(&out).unwrap(),
            &want,
            "seed={seed} disorder={disorder:.3}"
        );
    }
}
