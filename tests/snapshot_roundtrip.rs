//! Property-based snapshot fidelity: for every variant of the spectrum —
//! including states with quarantined and demoted inputs — a seeded garbage
//! workload's exported state
//! must survive encode → decode → re-encode with the decoded image equal
//! to the original and the re-encoding byte-identical (the canonical
//! `(Vs, payload)` entry order makes equal states encode equally).
//!
//! Failing cases are shrunk with `properties::shrink` to a locally minimal
//! `(events, seed)` pair before panicking, so a red run prints a
//! reproduction recipe, not a 10k-element core dump.
//!
//! The flip side of durability is refusing bad bytes: every single-byte
//! corruption and every truncation of a checkpoint envelope must yield a
//! typed [`DurableError`], and raw fuzz must never panic the decoder. A
//! delta (LMCK v3) names the keys it removes by *ordinal* in its base
//! index, so its decoder has one more thing to refuse: ordinals that are
//! out of range, out of order or repeated — before a single base entry
//! has been moved.
//!
//! A checkpoint cut carries only the index tiers that changed since the
//! previous cut; folding every cut must rebuild the exported state.

use lmerge::chaos::{Variant, ALL_VARIANTS};
use lmerge::core::{LogicalMerge, MergeStateImage, RobustnessPolicy};
use lmerge::core::{StateEntry, VariantKind};
use lmerge::durable::{
    apply_delta, encode_delta, envelope, get_merge_image, open_envelope, Cursor, DurableError,
    FileKind,
};
use lmerge::engine::{EgressImage, ExecutorImage, RunImage};
use lmerge::properties::shrink::{describe, minimize, Knob};
use lmerge::properties::RLevel;
use lmerge::temporal::{Element, StreamId, Time, VTime, Value};
use rand::prelude::*;

const N_INPUTS: usize = 3;

/// Tight guards so seeded floods actually trip quarantine and demotion:
/// the exported images then carry non-Active input states, purge
/// transitions, and per-input counter skew — the fields a lazy codec
/// would forget.
fn tight() -> RobustnessPolicy {
    RobustnessPolicy::guarded(8, 24)
}

/// An arbitrary element over a small domain, biased toward collisions and
/// punctuation-contract violations (the states they produce are the point;
/// robustness guarantees the merge survives them).
fn arb_element(rng: &mut StdRng) -> Element<Value> {
    let key = rng.random_range(0i32..6);
    let t = |rng: &mut StdRng| rng.random_range(0i64..40);
    match rng.random_range(0u32..5) {
        0 | 1 => {
            let vs = t(rng);
            Element::insert(Value::synthetic(key, 8), vs, vs + t(rng) + 1)
        }
        2 => {
            let vs = t(rng);
            Element::adjust(Value::synthetic(key, 8), vs, vs + t(rng), vs + t(rng))
        }
        3 => Element::stable(t(rng)),
        _ => {
            let vs = 100 + t(rng);
            Element::insert(Value::bare(key), vs, vs + 5)
        }
    }
}

fn arb_feed(seed: u64, events: u64) -> Vec<(u32, Element<Value>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            (
                rng.random_range(0u32..N_INPUTS as u32),
                arb_element(&mut rng),
            )
        })
        .collect()
}

/// A contract-abiding feed for the restricted variants: insert-only with
/// per-input strictly increasing `Vs` (R0's hard requirement; R1/R2 accept
/// a superset), punctuated now and then. These variants assert their input
/// contract rather than tolerating garbage, so the property drives them
/// with what they admit.
fn restricted_feed(seed: u64, events: u64) -> Vec<(u32, Element<Value>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vs = [0i64; N_INPUTS];
    (0..events)
        .map(|_| {
            let s = rng.random_range(0u32..N_INPUTS as u32);
            if rng.random_range(0u32..8) == 0 {
                (s, Element::stable(vs[s as usize]))
            } else {
                vs[s as usize] += rng.random_range(1i64..5);
                let v = vs[s as usize];
                let key = rng.random_range(0i32..6);
                (s, Element::insert(Value::synthetic(key, 8), v, v + 5))
            }
        })
        .collect()
}

fn state_after(
    mut lm: Box<dyn LogicalMerge<Value>>,
    feed: &[(u32, Element<Value>)],
) -> MergeStateImage<Value> {
    let mut out = Vec::new();
    for (s, e) in feed {
        lm.push(StreamId(*s), e, &mut out);
    }
    lm.export_state().expect("every variant exports state")
}

/// Whether any input in the image is quarantined, joining, or demoted.
fn any_non_active(image: &MergeStateImage<Value>) -> bool {
    image
        .input_states
        .iter()
        .any(|s| !matches!(s, lmerge::core::InputStateImage::Active))
}

fn encode(image: &MergeStateImage<Value>) -> Vec<u8> {
    let mut buf = Vec::new();
    lmerge::durable::put_merge_image(&mut buf, image);
    buf
}

/// encode → decode → re-encode; true iff both hops are lossless.
fn round_trips(image: &MergeStateImage<Value>) -> bool {
    let bytes = encode(image);
    let mut cur = Cursor::new(&bytes);
    let decoded = match get_merge_image::<Value>(&mut cur) {
        Ok(d) if cur.is_empty() => d,
        _ => return false,
    };
    decoded == *image && encode(&decoded) == bytes
}

type Build = Box<dyn Fn() -> Box<dyn LogicalMerge<Value>>>;

/// Every build the property sweeps: the six spectrum variants. `general`
/// marks the builds that tolerate arbitrary garbage (and own robustness
/// guards); the restricted variants get a contract-abiding feed instead.
fn builds() -> Vec<(&'static str, Build, bool)> {
    ALL_VARIANTS
        .iter()
        .map(|&variant| {
            // The naive baseline takes no robustness policy, so it gets the
            // garbage feed but is exempt from the must-demote check.
            let general = variant.level() >= RLevel::R3 && variant != Variant::R3Naive;
            (
                variant.name(),
                Box::new(move || variant.build(N_INPUTS, tight())) as Build,
                general,
            )
        })
        .collect()
}

/// Seeded property loop: 64 cases per build; a failure shrinks before it
/// panics.
#[test]
fn every_variant_state_round_trips_byte_identically() {
    for (name, build, general) in builds() {
        let feed = if general || name == "r3_naive" {
            arb_feed
        } else {
            restricted_feed
        };
        let mut demoted_seen = false;
        for case in 0..64u64 {
            let seed = 0x5EED_0000 + case;
            let events = 160;
            let image = state_after(build(), &feed(seed, events));
            demoted_seen |= any_non_active(&image);
            if !round_trips(&image) {
                let knobs = vec![Knob::new("events", events, 1), Knob::new("seed", seed, 0)];
                let (min, probes) = minimize(knobs, |k| {
                    !round_trips(&state_after(build(), &feed(k[1].value, k[0].value)))
                });
                panic!(
                    "{name}: snapshot round-trip failed; minimized to {} ({probes} probes)",
                    describe(&min)
                );
            }
        }
        assert!(
            !general || demoted_seen,
            "{name}: the tight guards never tripped — the property loop is \
             not exercising quarantined/demoted states"
        );
    }
}

/// A checkpoint cut exports only the tiers that changed since the previous
/// cut. Seeded R3+, R3− and R4 runs — sweeps and retirements, attaches
/// (every tier due), detaches (a purged input), demotions under tight
/// guards, and a restore into a fresh operator — are cut at random points:
/// at every cut, the fold of all cuts so far equals `export_state()`.
#[test]
fn folded_cuts_equal_the_exported_state_at_every_cut() {
    for variant in [Variant::R3, Variant::R3Naive, Variant::R4] {
        let (mut partial, mut cuts) = (false, 0u32);
        for case in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(0xC07_0000 + case);
            let mut lm = variant.build(N_INPUTS, tight());
            let mut inputs = N_INPUTS as u32;
            let mut folded = MergeStateImage::empty(lm.export_state().unwrap().kind);
            let mut out = Vec::new();
            for step in 0..400 {
                match rng.random_range(0u32..100) {
                    0 => inputs = lm.attach(Time(rng.random_range(0i64..60))).0 + 1,
                    1 => lm.detach(StreamId(rng.random_range(0..inputs))),
                    2 => {
                        let image = lm.export_state().unwrap();
                        lm = variant.build(N_INPUTS, tight());
                        assert!(lm.restore_state(image), "{}: restores", variant.name());
                    }
                    3..=17 => {
                        let cut = lm.export_cut().expect("indexed variants cut");
                        partial |= cut.image.total_entries() < cut.entries;
                        cuts += 1;
                        folded.fold(cut);
                        assert_eq!(
                            Some(&folded),
                            lm.export_state().as_ref(),
                            "{} case {case} step {step}: folded cuts ≠ state",
                            variant.name()
                        );
                    }
                    _ => {
                        let input = StreamId(rng.random_range(0..inputs));
                        lm.push(input, &arb_element(&mut rng), &mut out);
                    }
                }
            }
        }
        assert!(cuts > 1000, "{}: {cuts} cuts", variant.name());
        assert!(partial, "{}: no cut ever left a tier out", variant.name());
    }
}

/// Every single-byte flip and every truncation of an enveloped snapshot is
/// a typed error; random bytes never panic the decoder.
#[test]
fn corrupted_and_truncated_snapshots_fail_typed_never_panic() {
    let image = state_after(
        Variant::R4.build(N_INPUTS, tight()),
        &arb_feed(0xBAD_F00D, 200),
    );
    let file = envelope(FileKind::Snapshot, &encode(&image));

    for cut in 0..file.len() {
        let err = open_envelope(&file[..cut]).expect_err("truncated file accepted");
        let _ = err.to_string(); // typed and printable, not a panic
    }
    for i in 0..file.len() {
        let mut bad = file.clone();
        bad[i] ^= 0x40;
        assert!(open_envelope(&bad).is_err(), "byte {i} flip accepted");
    }

    let mut rng = StdRng::seed_from_u64(0xF0_22);
    for _ in 0..256 {
        let len = rng.random_range(0usize..512);
        let junk: Vec<u8> = (0..len)
            .map(|_| rng.random_range(0u32..256) as u8)
            .collect();
        // Must return, Ok or Err — any panic fails the test.
        let mut cur = Cursor::new(&junk);
        let _ = get_merge_image::<Value>(&mut cur);
        let _ = open_envelope(&junk);
    }
}

fn delta_entry(k: i32, ve: i64) -> StateEntry<Value> {
    StateEntry {
        vs: Time(k as i64),
        payload: Value::synthetic(k, 8),
        per_input: vec![(0, vec![(Time(ve), 1)])],
        output: vec![(Time(ve), 1)],
    }
}

fn delta_image(entries: Vec<StateEntry<Value>>, n: u64) -> RunImage<Value> {
    let mut merge = MergeStateImage::empty(VariantKind::R3);
    merge.max_stable = Time(n as i64);
    merge.entries = entries;
    RunImage {
        merge,
        exec: ExecutorImage {
            lmerge_ready: VTime(n),
            delivered: n,
            seq: n,
            last_feedback: Time::MIN,
            input_stable_hw: vec![Time(n as i64)],
            output_stable_hw: Time(n as i64),
            pulls: vec![n],
            staged: vec![None],
        },
        cursors: vec![(n, n as i64)],
        egress: EgressImage::default(),
    }
}

fn same_image(a: &RunImage<Value>, b: &RunImage<Value>) -> bool {
    a.merge == b.merge && a.exec == b.exec && a.cursors == b.cursors && a.egress == b.egress
}

/// The delta half of the grid: removals at the first, last and adjacent
/// ordinals round-trip; out-of-range, unsorted and duplicate ordinals,
/// out-of-order upserts, a wrong base, every byte flip and every
/// truncation of the payload are typed errors — never a panic, never an
/// index out of bounds — that leave the base image exactly as it was.
#[test]
fn corrupted_deltas_fail_typed_and_leave_the_base_intact() {
    let base = delta_image((0..300).map(|k| delta_entry(k, 900)).collect(), 4);
    // Drop ordinals 0 (first), 257 + 258 (adjacent) and 299 (last),
    // change entry 10, append two new keys.
    let mut entries: Vec<_> = (0..302)
        .filter(|k| ![0, 257, 258, 299].contains(k))
        .map(|k| delta_entry(k, 900))
        .collect();
    entries[9] = delta_entry(10, 950);
    let new = delta_image(entries, 5);

    let file = encode_delta(4, &base, &new);
    let (kind, payload) = open_envelope(&file).expect("a fresh delta opens");
    assert_eq!(kind, FileKind::Delta);
    let mut restored = base.clone();
    apply_delta(&mut restored, 4, payload).expect("a fresh delta applies");
    assert!(same_image(&restored, &new), "delta round-trip");
    // The point of v3: four removed keys cost four ordinals, not four
    // `(Vs, payload)` pairs, and 296 untouched entries cost nothing.
    let mut three = Vec::new();
    for e in &new.merge.entries[..3] {
        lmerge::durable::image::put_entry(&mut three, e);
    }
    assert!(payload.len() < 2 * three.len() + 256, "{}", payload.len());

    // Locate the removal list: count 4, then the four ordinals.
    let list: Vec<u8> = [4u32, 0, 257, 258, 299]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let hits: Vec<usize> = (0..payload.len() - list.len())
        .filter(|&i| payload[i..i + list.len()] == list[..])
        .collect();
    assert_eq!(hits.len(), 1, "the removal list is where the layout says");
    let ordinal = |i: usize| hits[0] + 4 + 4 * i;
    let tampered = |edits: &[(usize, u32)]| {
        let mut bad = payload.to_vec();
        for &(i, v) in edits {
            bad[ordinal(i)..ordinal(i) + 4].copy_from_slice(&v.to_le_bytes());
        }
        bad
    };
    let refused = |bad: &[u8], base_seq: u64, what: &str| {
        let mut image = base.clone();
        let err = apply_delta(&mut image, base_seq, bad).expect_err(what);
        assert!(same_image(&image, &base), "{what}: base image was touched");
        err
    };
    for (what, bad) in [
        ("ordinal == base length", tampered(&[(3, 300)])),
        ("ordinal far out of range", tampered(&[(3, u32::MAX)])),
        ("unsorted ordinals", tampered(&[(1, 258), (2, 257)])),
        ("duplicate ordinal", tampered(&[(2, 257)])),
    ] {
        let err = refused(&bad, 4, what);
        assert!(matches!(err, DurableError::Corrupt(_)), "{what}: {err}");
    }
    let err = refused(payload, 3, "a delta against another base");
    assert!(matches!(err, DurableError::Corrupt(_)), "{err}");

    // Upserts out of key order (a non-canonical image was encoded).
    let mut scrambled = new.clone();
    let n = scrambled.merge.entries.len();
    scrambled.merge.entries.swap(n - 1, n - 2);
    let file = encode_delta(4, &base, &scrambled);
    let (_, bad) = open_envelope(&file).unwrap();
    let err = refused(bad, 4, "upserts out of order");
    assert!(matches!(err, DurableError::Corrupt(_)), "{err}");

    // Every truncation is refused; every byte flip is refused or yields
    // some image, and neither may panic or touch the base on refusal.
    for cut in 0..payload.len() {
        refused(&payload[..cut], 4, "truncated delta");
    }
    for i in 0..payload.len() {
        let mut bad = payload.to_vec();
        bad[i] ^= 0x40;
        let mut image = base.clone();
        if apply_delta(&mut image, 4, &bad).is_err() {
            assert!(same_image(&image, &base), "flip at {i} touched the base");
        }
    }
}
