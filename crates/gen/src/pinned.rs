//! The generator's output, pinned.
//!
//! Every feed of the figures, the chaos harness, the replayer and the
//! end-to-end benchmark comes out of [`generate`] and [`diverge`], so their
//! output is a contract: these digests hold it for several seeds, payload
//! lengths and divergence settings, and a rewrite of either function must
//! leave every one of them unchanged.
//!
//! The digest is FNV-1a 64 over a canonical rendering of each element
//! (kind, `Vs`, `Ve` or `Vold` and `Ve`, payload key, body length, body),
//! written out here so that it cannot drift with a toolchain's hasher.

use crate::config::GenConfig;
use crate::divergence::{diverge, DivergenceConfig};
use crate::generator::generate;
use lmerge_temporal::{Element, Tdb, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn payload(h: u64, p: &Value) -> u64 {
    let h = fnv1a(h, &p.key.to_le_bytes());
    let h = fnv1a(h, &(p.body.len() as u64).to_le_bytes());
    fnv1a(h, &p.body)
}

fn digest(elements: &[Element<Value>]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(elements.len() as u64).to_le_bytes());
    for e in elements {
        h = match e {
            Element::Insert(ev) => {
                let h = fnv1a(h, b"I");
                let h = fnv1a(h, &ev.vs.0.to_le_bytes());
                let h = fnv1a(h, &ev.ve.0.to_le_bytes());
                payload(h, &ev.payload)
            }
            Element::Adjust {
                payload: p,
                vs,
                vold,
                ve,
            } => {
                let h = fnv1a(h, b"A");
                let h = fnv1a(h, &vs.0.to_le_bytes());
                let h = fnv1a(h, &vold.0.to_le_bytes());
                let h = fnv1a(h, &ve.0.to_le_bytes());
                payload(h, p)
            }
            Element::Stable(t) => fnv1a(fnv1a(h, b"S"), &t.0.to_le_bytes()),
        };
    }
    h
}

/// The reference streams: (name, config).
fn references() -> Vec<(&'static str, GenConfig)> {
    vec![
        ("small-1-16B", GenConfig::small(2_000, 1)),
        (
            "small-2-8B-dup",
            GenConfig {
                payload_len: 8,
                duplicate_prob: 0.2,
                ..GenConfig::small(2_000, 2)
            },
        ),
        (
            "small-3-32B-dis",
            GenConfig {
                payload_len: 32,
                ..GenConfig::small(2_000, 3)
                    .with_disorder(0.5)
                    .with_stable_freq(0.05)
            },
        ),
        (
            "paper-4-1000B-dup",
            GenConfig {
                num_events: 1_000,
                duplicate_prob: 0.05,
                seed: 4,
                ..GenConfig::default()
            },
        ),
    ]
}

/// The divergence settings: (name, config).
fn divergences() -> Vec<(&'static str, DivergenceConfig)> {
    vec![
        ("default", DivergenceConfig::default()),
        (
            "drop",
            DivergenceConfig {
                drop_prob: 0.2,
                seed: 21,
                ..DivergenceConfig::default()
            },
        ),
        (
            "revise",
            DivergenceConfig {
                revision_prob: 0.6,
                provisional_inf_prob: 0.2,
                stable_keep_prob: 0.3,
                seed: 99,
                ..DivergenceConfig::default()
            },
        ),
    ]
}

/// Every pinned stream: each reference, each copy of it under each
/// setting, and a chained copy (a copy of copy 0, which holds adjusts).
fn rendered() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (rname, rcfg) in references() {
        let r = generate(&rcfg);
        out.push((format!("generate {rname}"), digest(&r.elements)));
        for (dname, dcfg) in divergences() {
            for copy in 0..2 {
                let d = diverge(&r.elements, &dcfg, copy);
                out.push((format!("diverge {rname} {dname} #{copy}"), digest(&d)));
            }
            let first = diverge(&r.elements, &dcfg, 0);
            let chained = diverge(&first, &dcfg, 5);
            out.push((format!("chained {rname} {dname}"), digest(&chained)));
        }
    }
    out
}

const PINNED: &[(&str, u64)] = &[
    ("generate small-1-16B", 0xf5a47ec586775377),
    ("diverge small-1-16B default #0", 0x9eac0f5e9bbf7029),
    ("diverge small-1-16B default #1", 0x9ae177045919c992),
    ("chained small-1-16B default", 0x8a4b3ff7dd0797f8),
    ("diverge small-1-16B drop #0", 0x753cef3ff3a69122),
    ("diverge small-1-16B drop #1", 0xb9010b27299f14d8),
    ("chained small-1-16B drop", 0xe566fb5e4c83d766),
    ("diverge small-1-16B revise #0", 0x86e1328745bf685d),
    ("diverge small-1-16B revise #1", 0x4c9faa9188bceb09),
    ("chained small-1-16B revise", 0x0ae7f134ef15a6bd),
    ("generate small-2-8B-dup", 0xe05e3368182f1acf),
    ("diverge small-2-8B-dup default #0", 0x17e73aa9a653f0fa),
    ("diverge small-2-8B-dup default #1", 0xa81767ed41626342),
    ("chained small-2-8B-dup default", 0xdc403c79253c7e0b),
    ("diverge small-2-8B-dup drop #0", 0x3be138b3b636f6c1),
    ("diverge small-2-8B-dup drop #1", 0xd5bcd423b4388b11),
    ("chained small-2-8B-dup drop", 0x17d03c4dc36d5497),
    ("diverge small-2-8B-dup revise #0", 0x4854af2d3065d115),
    ("diverge small-2-8B-dup revise #1", 0x8c0387b5af5fd466),
    ("chained small-2-8B-dup revise", 0x4229a899f9c869ec),
    ("generate small-3-32B-dis", 0x181a6bea91e4ee6a),
    ("diverge small-3-32B-dis default #0", 0x7f0f6f3422f69e8d),
    ("diverge small-3-32B-dis default #1", 0x7097788c7e96f0d5),
    ("chained small-3-32B-dis default", 0x34ba386f91fe44cb),
    ("diverge small-3-32B-dis drop #0", 0x457498b4e3093c30),
    ("diverge small-3-32B-dis drop #1", 0x9dd512f7ab944f1b),
    ("chained small-3-32B-dis drop", 0xddaa015119a11126),
    ("diverge small-3-32B-dis revise #0", 0x576518d9f356c6d1),
    ("diverge small-3-32B-dis revise #1", 0x96d165d13b2ef393),
    ("chained small-3-32B-dis revise", 0x08fc90cccd0d065e),
    ("generate paper-4-1000B-dup", 0x0f4b40cfd4d3752b),
    ("diverge paper-4-1000B-dup default #0", 0xad29035e9db5263c),
    ("diverge paper-4-1000B-dup default #1", 0x462495d1465052e8),
    ("chained paper-4-1000B-dup default", 0x4bc4fdbfe01839a6),
    ("diverge paper-4-1000B-dup drop #0", 0x4d522114f0d907de),
    ("diverge paper-4-1000B-dup drop #1", 0xd21670e7c1ee7fd3),
    ("chained paper-4-1000B-dup drop", 0x11837ba06144492c),
    ("diverge paper-4-1000B-dup revise #0", 0x329064f039a8422a),
    ("diverge paper-4-1000B-dup revise #1", 0xec40b51e1f7ac26c),
    ("chained paper-4-1000B-dup revise", 0xe78852775e5d1211),
];

#[test]
fn generator_and_divergence_output_is_pinned() {
    let now = rendered();
    let listing: String = now
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let drifted: Vec<String> = now
        .iter()
        .zip(PINNED.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, d), pin)| *pin != Some(&(name.as_str(), *d)))
        .map(|((name, d), pin)| format!("{name}: pinned {pin:x?}, now 0x{d:016x}"))
        .collect();
    assert!(
        drifted.is_empty() && now.len() == PINNED.len(),
        "{} of {} digests drifted:\n{}\nnow:\n{listing}",
        drifted.len(),
        now.len(),
        drifted.join("\n")
    );
}

#[test]
fn the_reference_tdb_is_its_inserts_one_by_one() {
    for (name, cfg) in references() {
        let r = generate(&cfg);
        let mut tdb = Tdb::new();
        for e in &r.elements {
            if let Element::Insert(ev) = e {
                tdb.insert(ev.clone());
            }
        }
        assert_eq!(r.tdb(), tdb, "{name}");
    }
}
