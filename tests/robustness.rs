//! Adversarial robustness: the general mergers must never panic and never
//! emit an ill-formed output stream, even when the inputs violate every
//! contract they have (mutual consistency, punctuation discipline, adjust
//! chains). Garbage in → clean (possibly wrong) stream out.
//!
//! Seeded random loops stand in for property tests: each case derives from
//! a fixed master seed, so failures are reproducible, and the failing case
//! number prints in the panic message.

use lmerge::core::{InputHealth, LMergeR3, LMergeR4, LogicalMerge, MergePolicy, RobustnessPolicy};
use lmerge::temporal::reconstitute::Reconstituter;
use lmerge::temporal::{Element, StreamId, Time};
use rand::prelude::*;

/// An arbitrary element over a tiny payload/time domain, so collisions,
/// stale adjusts, and punctuation violations are all common.
fn arb_element(rng: &mut StdRng) -> Element<&'static str> {
    let payload = ["a", "b", "c"][rng.random_range(0usize..3)];
    let t = |rng: &mut StdRng| rng.random_range(0i64..20);
    match rng.random_range(0u32..4) {
        0 => {
            let vs = t(rng);
            Element::insert(payload, vs, vs + t(rng).max(0) + 1)
        }
        1 => {
            let vs = t(rng);
            Element::adjust(payload, vs, vs + t(rng), vs + t(rng))
        }
        2 => Element::stable(t(rng)),
        _ => Element::stable(Time::INFINITY),
    }
}

fn arb_feed(rng: &mut StdRng) -> Vec<(u8, Element<&'static str>)> {
    let len = rng.random_range(0usize..120);
    (0..len)
        .map(|_| (rng.random_range(0u8..3), arb_element(rng)))
        .collect()
}

/// Drive a garbage feed and require every emitted prefix to reconstitute.
fn assert_output_well_formed(
    mut lm: Box<dyn LogicalMerge<&'static str>>,
    feed: &[(u8, Element<&'static str>)],
    case: usize,
) {
    let mut out = Vec::new();
    let mut rec: Reconstituter<&str> = Reconstituter::new();
    let mut consumed = 0usize;
    for (s, e) in feed {
        lm.push(StreamId(u32::from(*s)), e, &mut out);
        for oe in &out[consumed..] {
            rec.apply(oe)
                .unwrap_or_else(|err| panic!("case {case}: ill-formed output: {err:?}"));
        }
        consumed = out.len();
    }
}

/// R3 under the default policy: garbage in, well-formed stream out.
#[test]
fn r3_never_emits_ill_formed_output() {
    let mut rng = StdRng::seed_from_u64(0x52_0001);
    for case in 0..256 {
        let feed = arb_feed(&mut rng);
        assert_output_well_formed(Box::new(LMergeR3::<&str>::new(3)), &feed, case);
    }
}

/// Same under the eager-adjust policy (the chattier code path).
#[test]
fn r3_eager_never_emits_ill_formed_output() {
    let mut rng = StdRng::seed_from_u64(0x52_0002);
    for case in 0..256 {
        let feed = arb_feed(&mut rng);
        assert_output_well_formed(
            Box::new(LMergeR3::<&str>::with_policy(3, MergePolicy::eager())),
            &feed,
            case,
        );
    }
}

/// Same under the conservative policy (deferred-emission code path).
#[test]
fn r3_conservative_never_emits_ill_formed_output() {
    let mut rng = StdRng::seed_from_u64(0x52_0003);
    for case in 0..256 {
        let feed = arb_feed(&mut rng);
        assert_output_well_formed(
            Box::new(LMergeR3::<&str>::with_policy(
                3,
                MergePolicy::conservative(),
            )),
            &feed,
            case,
        );
    }
}

/// R4 (multiset machinery): garbage in, well-formed stream out.
#[test]
fn r4_never_emits_ill_formed_output() {
    let mut rng = StdRng::seed_from_u64(0x52_0004);
    for case in 0..256 {
        let feed = arb_feed(&mut rng);
        assert_output_well_formed(Box::new(LMergeR4::<&str>::new(3)), &feed, case);
    }
}

/// The bounded-memory guard pins the accounting: once an input floods
/// enough never-freezing entries to get demoted, its index contribution is
/// purged and — the actual guarantee — no further traffic on the demoted
/// input can move `memory_bytes` by a single byte.
#[test]
fn entry_bound_demotion_pins_memory_accounting() {
    let robustness = RobustnessPolicy {
        quarantine_lag: None,
        max_live_entries: Some(8),
    };
    // R3 keeps a low input id's end time inside the node, so the purge
    // frees no bytes there: its direct effect is that the input holds no
    // entry any more.
    demote_and_pin(
        LMergeR3::<&str>::with_policy(
            2,
            MergePolicy {
                robustness,
                ..MergePolicy::paper_default()
            },
        ),
        |lm, _, _| {
            assert_eq!(
                lm.live_entries(StreamId(1)),
                0,
                "purge released the flooded entries"
            );
        },
    );
    // R4's per-stream `Ve` trees are allocated per entry.
    demote_and_pin(
        LMergeR4::<&str>::with_robustness(2, robustness),
        |_, pinned, peak| {
            assert!(
                pinned < peak,
                "purge released the flooded entries: {pinned} < {peak}"
            );
        },
    );
}

/// Flood `lm` from input 1 until it is demoted, check the purge with
/// `purged(lm, bytes after, peak bytes)`, and then that nothing the demoted
/// input sends moves the accounting.
fn demote_and_pin<M: LogicalMerge<&'static str>>(mut lm: M, purged: impl Fn(&M, usize, usize)) {
    let payloads = [
        "p00", "p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08", "p09", "p10", "p11", "p12",
        "p13", "p14", "p15",
    ];
    let mut out = Vec::new();
    // Input 1 floods distinct live (never-frozen) events — all at one
    // `Vs`, so the index grows one tier and the memory delta is purely
    // per-input entries; each insert adds one, so the 8-entry budget
    // trips mid-flood.
    let mut peak = 0usize;
    for p in payloads {
        lm.push(StreamId(1), &Element::insert(p, 100, 200), &mut out);
        peak = peak.max(lm.memory_bytes());
    }
    assert_eq!(
        lm.input_health(StreamId(1)),
        InputHealth::Left,
        "flooding input was demoted"
    );
    let pinned = lm.memory_bytes();
    purged(&lm, pinned, peak);

    // Everything the demoted input sends from now on is refused
    // without touching the index: the accounting must not move.
    for (i, p) in payloads.iter().enumerate() {
        let vs = 500 + i as i64;
        lm.push(StreamId(1), &Element::insert(*p, vs, vs + 5), &mut out);
        assert_eq!(lm.memory_bytes(), pinned, "demoted input grew memory");
    }
    let batch: Vec<Element<&'static str>> = (0..32i64)
        .map(|i| Element::insert("flood", 900 + i, 950 + i))
        .collect();
    lm.push_batch(StreamId(1), &batch, &mut out);
    lm.push(StreamId(1), &Element::stable(1_000), &mut out);
    assert_eq!(
        lm.memory_bytes(),
        pinned,
        "batched flood on a demoted input grew memory"
    );

    // The surviving input is unaffected and still drives the merge.
    lm.push(StreamId(0), &Element::insert("live", 10, 20), &mut out);
    lm.push(StreamId(0), &Element::stable(30), &mut out);
    assert_eq!(lm.max_stable(), Time(30));
}

/// Quarantine (the softer demotion) gates punctuation but keeps data
/// flowing; the entry bound still backstops its memory, so a quarantined
/// laggard that floods is demoted and its accounting pinned too.
#[test]
fn quarantined_laggard_is_demoted_before_memory_runs_away() {
    let mut lm: LMergeR4<&str> = LMergeR4::with_robustness(2, RobustnessPolicy::guarded(5, 8));
    let mut out = Vec::new();
    // Input 1 announces an early stable, then input 0 races far ahead:
    // the lag (0 vs 50) exceeds the margin and input 1 is quarantined.
    lm.push(StreamId(1), &Element::stable(0), &mut out);
    lm.push(StreamId(0), &Element::insert("a", 5, 9), &mut out);
    lm.push(StreamId(0), &Element::stable(50), &mut out);
    assert_eq!(lm.input_health(StreamId(1)), InputHealth::Quarantined);

    // Quarantined data still merges — until the flood trips the bound.
    for i in 0..16i64 {
        lm.push(
            StreamId(1),
            &Element::insert("q", 100 + i, 200 + i),
            &mut out,
        );
    }
    assert_eq!(lm.input_health(StreamId(1)), InputHealth::Left);
    let pinned = lm.memory_bytes();
    for i in 0..16i64 {
        lm.push(
            StreamId(1),
            &Element::insert("q2", 300 + i, 400 + i),
            &mut out,
        );
    }
    assert_eq!(lm.memory_bytes(), pinned, "post-demotion flood grew memory");
}

/// A `max_live_entries` demotion detaches the flooding input and drops its
/// entries; the replica is not lost for good. It rejoins as a new input
/// from the output's stable point (Section V-B's attach) and replays its
/// stream: the stitched output is well formed and reconstitutes to the
/// logical stream, and the rejoined input is trusted once the output
/// passes its join time.
#[test]
fn demoted_input_rejoins_from_the_output_stable_point() {
    let logical: Vec<Element<&'static str>> = (0..20i64)
        .flat_map(|i| {
            [
                Element::insert(["a", "b"][i as usize % 2], i, i + 3),
                Element::stable(i),
            ]
        })
        .chain(std::iter::once(Element::stable(Time::INFINITY)))
        .collect();
    let mks: [&dyn Fn() -> Box<dyn LogicalMerge<&'static str>>; 2] = [
        &|| {
            Box::new(LMergeR3::<&str>::with_policy(
                2,
                MergePolicy {
                    robustness: RobustnessPolicy {
                        quarantine_lag: None,
                        max_live_entries: Some(8),
                    },
                    ..MergePolicy::paper_default()
                },
            ))
        },
        &|| {
            Box::new(LMergeR4::<&str>::with_robustness(
                2,
                RobustnessPolicy {
                    quarantine_lag: None,
                    max_live_entries: Some(8),
                },
            ))
        },
    ];
    for mk in mks {
        let mut lm = mk();
        let mut out = Vec::new();
        // Input 1 races ahead with data only (its punctuation is thinned
        // away), so its live entries pile up past the bound; a healthy
        // input holds at most four.
        for e in logical.iter().filter(|e| !e.is_stable()) {
            lm.push(StreamId(1), e, &mut out);
        }
        assert_eq!(lm.input_health(StreamId(1)), InputHealth::Left);
        // Input 0 delivers the first half of the stream.
        for e in &logical[..20] {
            lm.push(StreamId(0), e, &mut out);
        }
        // The demoted replica rejoins from the output stable point; input
        // 0's next advance covers its join time.
        let rejoined = lm.attach(lm.max_stable());
        assert_eq!(lm.input_health(rejoined), InputHealth::Joining);
        for e in &logical[20..22] {
            lm.push(StreamId(0), e, &mut out);
        }
        assert_eq!(lm.input_health(rejoined), InputHealth::Active);
        // It replays from its start and finishes the stream alone.
        for e in &logical {
            lm.push(rejoined, e, &mut out);
        }
        assert_eq!(
            lm.max_stable(),
            Time::INFINITY,
            "the rejoined input drove it"
        );
        let mut rec: Reconstituter<&str> = Reconstituter::new();
        for e in &out {
            rec.apply(e).expect("stitched output is well formed");
        }
        let want = lmerge::temporal::reconstitute::tdb_of(&logical).unwrap();
        assert_eq!(format!("{:?}", rec.tdb()), format!("{want:?}"));
    }
}

/// Attach/detach churn mid-garbage never corrupts the output either.
#[test]
fn churn_under_garbage() {
    let mut rng = StdRng::seed_from_u64(0x52_0005);
    for case in 0..256 {
        let feed = arb_feed(&mut rng);
        let churn_at = rng.random_range(0usize..100);
        let mut lm: LMergeR3<&str> = LMergeR3::new(2);
        let mut out = Vec::new();
        let mut rec: Reconstituter<&str> = Reconstituter::new();
        let mut consumed = 0usize;
        for (i, (s, e)) in feed.iter().enumerate() {
            if i == churn_at {
                lm.detach(StreamId(0));
                let _ = lm.attach(Time(5));
            }
            lm.push(StreamId(u32::from(*s % 2)), e, &mut out);
            for oe in &out[consumed..] {
                rec.apply(oe)
                    .unwrap_or_else(|err| panic!("case {case}: ill-formed output: {err:?}"));
            }
            consumed = out.len();
        }
    }
}
