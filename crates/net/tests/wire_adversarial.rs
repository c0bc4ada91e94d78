//! Adversarial wire-format coverage: every hostile input maps to a typed
//! [`WireError`]; the decoder never panics.
//!
//! Targeted cases pin each error variant to the exact corruption that
//! produces it; the seeded fuzz loop then hammers the decoder with random
//! garbage and random mutations of valid frames. If the fuzzer ever finds
//! a panic, the failure is shrunk with the properties crate's minimizer
//! to the smallest `(seed, len, flips)` reproduction before reporting.
//!
//! The last cell attacks the session layer instead of the decoder: peers
//! that connect and never finish a `Hello`.

use lmerge_net::wire::{
    self, Frame, WireError, CHECKSUM_LEN, HEADER_LEN, MAX_PAYLOAD_LEN, PROTOCOL_VERSION,
};
use lmerge_properties::shrink::{describe, minimize, Knob};
use lmerge_temporal::{Element, Time, VTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn valid_frame() -> Vec<u8> {
    wire::encode(&Frame::Data {
        seq: 3,
        at: VTime(120),
        element: Element::insert(Value::synthetic(42, 64), 10, 99),
    })
}

/// Recompute the trailing checksum after a deliberate header/payload edit,
/// so the corruption under test (not the checksum) is what the decoder sees.
fn fix_checksum(bytes: &mut [u8]) {
    let body_len = bytes.len() - CHECKSUM_LEN;
    let sum = lmerge_core::hash::fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_truncation_is_typed() {
    let bytes = valid_frame();
    for cut in 0..bytes.len() {
        assert_eq!(
            wire::decode(&bytes[..cut]).unwrap_err(),
            WireError::Truncated,
            "cut at {cut}"
        );
    }
    // …and the same through the streaming reader.
    for cut in 1..bytes.len() {
        let mut r = &bytes[..cut];
        assert_eq!(
            wire::read_frame(&mut r).unwrap_err(),
            WireError::Truncated,
            "stream cut at {cut}"
        );
    }
    // A cut at a frame boundary is clean EOF, not an error.
    let mut r = &bytes[..0];
    assert!(matches!(wire::read_frame(&mut r), Ok(None)));
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = valid_frame();
    bytes[0] ^= 0xFF;
    let got = wire::decode(&bytes).unwrap_err();
    assert!(matches!(got, WireError::BadMagic(_)), "{got:?}");
}

#[test]
fn bad_version_is_rejected() {
    let mut bytes = valid_frame();
    bytes[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
    fix_checksum(&mut bytes);
    assert_eq!(
        wire::decode(&bytes).unwrap_err(),
        WireError::BadVersion(PROTOCOL_VERSION + 1)
    );
}

#[test]
fn unknown_type_is_rejected() {
    for bad in [0u8, 10, 200] {
        let mut bytes = valid_frame();
        bytes[6] = bad;
        fix_checksum(&mut bytes);
        assert_eq!(
            wire::decode(&bytes).unwrap_err(),
            WireError::UnknownType(bad)
        );
    }
}

#[test]
fn reserved_flags_are_rejected() {
    let mut bytes = valid_frame();
    bytes[7] = 0x80;
    fix_checksum(&mut bytes);
    assert_eq!(wire::decode(&bytes).unwrap_err(), WireError::BadFlags(0x80));
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    let mut bytes = valid_frame();
    let huge = MAX_PAYLOAD_LEN + 1;
    bytes[8..12].copy_from_slice(&huge.to_le_bytes());
    assert_eq!(
        wire::decode(&bytes).unwrap_err(),
        WireError::Oversized(huge)
    );
    // u32::MAX must not make the streaming reader allocate 4 GiB either.
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut r = &bytes[..];
    assert_eq!(
        wire::read_frame(&mut r).unwrap_err(),
        WireError::Oversized(u32::MAX)
    );
}

#[test]
fn corrupted_checksum_is_detected() {
    let mut bytes = valid_frame();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let got = wire::decode(&bytes).unwrap_err();
    assert!(matches!(got, WireError::Checksum { .. }), "{got:?}");
}

#[test]
fn corrupted_payload_byte_is_caught_by_the_checksum() {
    let mut bytes = valid_frame();
    bytes[HEADER_LEN + 3] ^= 0x40;
    let got = wire::decode(&bytes).unwrap_err();
    assert!(matches!(got, WireError::Checksum { .. }), "{got:?}");
}

#[test]
fn body_len_past_payload_end_is_malformed() {
    let mut bytes = valid_frame();
    // The insert payload layout is seq(8) at(8) vs(8) ve(8) key(8) body_len(4).
    let body_len_off = HEADER_LEN + 8 + 8 + 8 + 8 + 8;
    bytes[body_len_off..body_len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        wire::decode(&bytes).unwrap_err(),
        WireError::Malformed(_)
    ));
}

#[test]
fn wide_key_is_malformed_not_wrapped() {
    let mut bytes = valid_frame();
    let key_off = HEADER_LEN + 8 + 8 + 8 + 8;
    bytes[key_off..key_off + 8].copy_from_slice(&(1i64 << 40).to_le_bytes());
    fix_checksum(&mut bytes);
    assert_eq!(
        wire::decode(&bytes).unwrap_err(),
        WireError::Malformed("payload key exceeds i32")
    );
}

#[test]
fn trailing_payload_bytes_are_malformed() {
    // A Bye frame with one extra payload byte: fields parse, then the
    // cursor notices the leftovers.
    let mut bytes = wire::encode(&Frame::Bye);
    let insert_at = bytes.len() - CHECKSUM_LEN;
    bytes.insert(insert_at, 0xAB);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    fix_checksum(&mut bytes);
    assert_eq!(
        wire::decode(&bytes).unwrap_err(),
        WireError::Malformed("trailing bytes after payload fields")
    );
}

/// Build the fuzz case for `(seed, len, flips)`: random bytes when
/// `flips == 0`, otherwise a valid frame with `flips` random byte edits.
fn fuzz_case(seed: u64, len: usize, flips: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    if flips == 0 {
        (0..len)
            .map(|_| rng.random_range(0..=255u32) as u8)
            .collect()
    } else {
        let mut bytes = valid_frame();
        for _ in 0..flips {
            let idx = rng.random_range(0..bytes.len());
            bytes[idx] = rng.random_range(0..=255u32) as u8;
        }
        bytes.truncate(len.min(bytes.len()).max(1));
        bytes
    }
}

fn decode_panics(bytes: &[u8]) -> bool {
    let owned = bytes.to_vec();
    std::panic::catch_unwind(move || {
        let _ = wire::decode(&owned);
        let mut r = &owned[..];
        let _ = wire::read_frame(&mut r);
    })
    .is_err()
}

#[test]
fn seeded_fuzz_decode_never_panics() {
    let frame_len = valid_frame().len();
    for seed in 0..1500u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let flips = rng.random_range(0..5usize);
        let len = if flips == 0 {
            rng.random_range(0..(frame_len * 2))
        } else {
            rng.random_range(1..=frame_len)
        };
        if decode_panics(&fuzz_case(seed, len, flips)) {
            // Shrink the reproduction before failing the test, so the
            // report names the smallest (seed, len, flips) that panics.
            let knobs = vec![
                Knob::new("seed", seed, 0),
                Knob::new("len", len as u64, 1),
                Knob::new("flips", flips as u64, 0),
            ];
            let (smallest, probes) = minimize(knobs, |ks| {
                decode_panics(&fuzz_case(
                    ks[0].value,
                    ks[1].value as usize,
                    ks[2].value as usize,
                ))
            });
            panic!(
                "wire::decode panicked; minimized ({probes} probes) to {}",
                describe(&smallest)
            );
        }
    }
}

#[test]
fn fuzzed_valid_prefix_streams_decode_or_fail_typed() {
    // Concatenate valid frames, then corrupt one byte: decoding the
    // stream must fail with a typed error at (or before) the corrupted
    // frame, never cascade into a panic.
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..200 {
        let mut buf = Vec::new();
        for seq in 0..4u64 {
            wire::write_frame(
                &mut buf,
                &Frame::Data {
                    seq,
                    at: VTime(seq * 10),
                    element: Element::insert(Value::bare(seq as i32), 0, 5),
                },
            )
            .unwrap();
        }
        wire::write_frame(
            &mut buf,
            &Frame::Data {
                seq: 4,
                at: VTime(40),
                element: Element::stable(Time::INFINITY),
            },
        )
        .unwrap();
        let idx = rng.random_range(0..buf.len());
        buf[idx] ^= 1 << rng.random_range(0..8u32);
        let mut r = &buf[..];
        loop {
            match wire::read_frame(&mut r) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_typed) => break,
            }
        }
    }
}

/// Connections that never complete the handshake — silent, or stuck half
/// way through a header — must not cost the server anything lasting: a
/// normal session completes beside them, each is dropped (and counted) when
/// the handshake timeout expires, and `shutdown` does not wait for them.
#[test]
fn silent_and_half_header_connections_are_dropped_not_served_forever() {
    use lmerge_engine::{Source, TimedElement};
    use lmerge_net::client::{replay, ReplayConfig};
    use lmerge_net::listener::HANDSHAKE_TIMEOUT;
    use lmerge_net::server::{IngestConfig, IngestServer};
    use lmerge_obs::MetricsRegistry;

    let registry = MetricsRegistry::new();
    let mut server =
        IngestServer::bind_with_metrics("127.0.0.1:0", IngestConfig::new(1), &registry).unwrap();
    let addr = server.local_addr();
    let mut quiet: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut half = TcpStream::connect(addr).unwrap();
    let hello = wire::encode(&Frame::Hello {
        protocol: PROTOCOL_VERSION,
        input: 0,
    });
    half.write_all(&hello[..HEADER_LEN / 2]).unwrap();
    quiet.push(half);

    let feed: Vec<TimedElement<Value>> = (0..50u64)
        .map(|i| {
            let e = Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5);
            TimedElement::new(VTime(i * 10), e)
        })
        .chain([TimedElement::new(
            VTime(500),
            Element::stable(Time::INFINITY),
        )])
        .collect();
    let client = {
        let (addr, feed) = (addr.to_string(), feed.clone());
        std::thread::spawn(move || replay(&addr, &feed, &ReplayConfig::new(0)).expect("replay"))
    };
    let mut src = server.sources().remove(0);
    let drained: Vec<TimedElement<Value>> = std::iter::from_fn(|| src.next()).collect();
    assert_eq!(drained, feed);
    assert!(client.join().unwrap().clean, "a normal session beside them");

    let drops = || {
        registry
            .sum_value("lmerge_net_handshake_drops_total")
            .unwrap_or(0.0)
    };
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT + Duration::from_secs(5);
    while drops() < quiet.len() as f64 {
        assert!(Instant::now() < deadline, "only {} drops counted", drops());
        std::thread::sleep(Duration::from_millis(20));
    }
    for s in &mut quiet {
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut byte = [0u8; 1];
        assert!(
            matches!(s.read(&mut byte), Ok(0) | Err(_)),
            "the server hung up"
        );
    }
    let asked = Instant::now();
    server.shutdown();
    assert!(asked.elapsed() < Duration::from_secs(1), "prompt shutdown");
}
