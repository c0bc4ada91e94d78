//! Adversarial subscriber-session coverage: every hostile handshake or
//! mid-session corruption maps to a dropped/lost session and a typed
//! error on the client side; the server never panics and keeps serving
//! well-behaved subscribers afterwards.
//!
//! Targeted cases pin each rejection path; the seeded fuzz loop then
//! hammers the handshake with random garbage and random mutations of a
//! valid `Subscribe` frame. If the fuzzer ever breaks the server, the
//! failure is shrunk with the properties crate's minimizer to the
//! smallest `(seed, len, flips)` reproduction before reporting.

use lmerge_net::wire::{self, Frame, PROTOCOL_VERSION};
use lmerge_properties::shrink::{describe, minimize, Knob};
use lmerge_sub::{
    subscribe, subscribe_until_finished, EpochBuffer, SubConfig, SubPolicy, SubServer,
    SubscribeConfig,
};
use lmerge_temporal::{Element, Time, VTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A finished stream of `n` epochs (2 frames each), ready to fan out.
/// Retention is unbounded so sequential subscribers (hostile first, then
/// the canary) all see the full stream regardless of earlier acks.
fn served_buffer(n: u64) -> Arc<EpochBuffer> {
    let policy = SubPolicy {
        retain_min_epochs: u64::MAX,
        ..SubPolicy::default()
    };
    let buf = Arc::new(EpochBuffer::new(policy));
    for i in 0..n {
        buf.publish(
            VTime(i),
            &[
                Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5),
                Element::<Value>::stable(Time(i as i64 * 10 + 1)),
            ],
        );
    }
    buf.finish();
    buf
}

fn valid_subscribe() -> Vec<u8> {
    wire::encode(&Frame::Subscribe {
        protocol: PROTOCOL_VERSION,
        subscriber: 7,
        filter: 0,
        resume_from: 0,
        credits: 64,
    })
}

/// The canary: after whatever abuse, a well-behaved subscriber must
/// still receive the complete stream cleanly.
fn server_still_serves(addr: &str, subscriber: u64, expect_frames: u64) {
    let outcome = subscribe(addr, &SubscribeConfig::new(subscriber)).expect("canary subscribe");
    assert!(outcome.clean && outcome.finished, "canary session clean");
    assert_eq!(outcome.received, expect_frames, "canary got the stream");
}

#[test]
fn bad_version_subscribe_is_dropped_silently() {
    let buf = served_buffer(5);
    let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Subscribe {
            protocol: 999,
            subscriber: 1,
            filter: 0,
            resume_from: 0,
            credits: 64,
        },
    )
    .unwrap();
    // The server drops the connection instead of welcoming us.
    assert!(matches!(wire::read_frame(&mut stream), Ok(None) | Err(_)));
    server_still_serves(&addr, 2, 10);
}

#[test]
fn unknown_filter_class_is_dropped_silently() {
    let buf = served_buffer(5);
    let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: 1,
            filter: 42, // only class 0 exists
            resume_from: 0,
            credits: 64,
        },
    )
    .unwrap();
    assert!(matches!(wire::read_frame(&mut stream), Ok(None) | Err(_)));
    server_still_serves(&addr, 2, 10);
}

#[test]
fn hello_on_the_subscribe_port_is_dropped_silently() {
    // The ingest handshake aimed at the subscription endpoint: wrong
    // frame for the state, not a crash.
    let buf = served_buffer(3);
    let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: 0,
        },
    )
    .unwrap();
    assert!(matches!(wire::read_frame(&mut stream), Ok(None) | Err(_)));
    server_still_serves(&addr, 2, 6);
}

#[test]
fn resume_from_beyond_the_tail_is_clamped_not_trusted() {
    let buf = served_buffer(5); // seqs 0..10
    let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    let outcome =
        subscribe(&addr, &SubscribeConfig::new(3).with_resume_from(1_000_000)).expect("subscribe");
    assert!(outcome.clean && outcome.finished);
    assert_eq!(outcome.resumed_from, 10, "clamped down to the tail");
    assert_eq!(outcome.received, 0, "nothing left after the claimed cursor");
    server_still_serves(&addr, 4, 10);
}

#[test]
fn stale_resume_from_below_the_horizon_catches_up_from_stable() {
    let policy = SubPolicy {
        retain_min_epochs: 1,
        ..SubPolicy::default()
    };
    let buf = Arc::new(EpochBuffer::new(policy));
    for i in 0..6i64 {
        buf.publish(
            VTime(i as u64),
            &[
                Element::insert(Value::bare(i as i32), i, i + 5),
                Element::<Value>::stable(Time(i * 10 + 1)),
            ],
        );
    }
    buf.ack(99, 12); // fast subscriber lets the prefix compact
    buf.finish();
    let (_, horizon_seq, compact_stable) = buf.horizon();
    assert!(horizon_seq > 0, "compaction actually retired a prefix");
    let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    // This subscriber's cursor points into the retired prefix.
    let outcome = subscribe(&addr, &SubscribeConfig::new(5).with_resume_from(1)).unwrap();
    assert!(outcome.clean && outcome.finished);
    assert_eq!(outcome.resumed_from, horizon_seq, "demoted to the horizon");
    assert_eq!(
        outcome.resume_stable, compact_stable,
        "welcome names the catch-up stable point"
    );
    assert_eq!(outcome.received, 12 - horizon_seq);
}

#[test]
fn checksum_corruption_mid_session_loses_the_session_not_the_server() {
    let buf = served_buffer(10);
    let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&valid_subscribe()).unwrap();
    let welcome = wire::read_frame(&mut stream).unwrap();
    assert!(matches!(welcome, Some(Frame::Welcome { .. })));
    // A Credit frame with a flipped payload byte: the server's reader
    // must reject it typed and mark the session dead — no panic.
    let mut credit = wire::encode(&Frame::Credit { n: 8 });
    let len = credit.len();
    credit[len - 9] ^= 0x10; // payload byte (before the 8-byte checksum)
    stream.write_all(&credit).unwrap();
    // Drain whatever the server had in flight until it severs us.
    let mut sink = [0u8; 4096];
    loop {
        use std::io::Read;
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    server_still_serves(&addr, 2, 20);
}

#[test]
fn mid_epoch_disconnect_resumes_exactly_once() {
    let buf = served_buffer(20); // 40 frames, 2 per epoch
    let server = SubServer::bind(
        "127.0.0.1:0",
        Arc::clone(server_buf(&buf)),
        SubConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    // Reference: an uninterrupted subscriber.
    let reference = subscribe(&addr, &SubscribeConfig::new(1)).unwrap();
    assert!(reference.clean && reference.finished);
    // Kill after an odd frame count: the drop lands mid-epoch.
    let stitched =
        subscribe_until_finished(&addr, &SubscribeConfig::new(2).with_kill_after(7), 8).unwrap();
    assert!(stitched.clean && stitched.finished);
    assert!(stitched.attempts > 1);
    assert_eq!(
        stitched.bytes, reference.bytes,
        "stitched mid-epoch resume is byte-identical to uninterrupted"
    );
}

/// Identity helper so the test above reads naturally.
fn server_buf(buf: &Arc<EpochBuffer>) -> &Arc<EpochBuffer> {
    buf
}

/// Connections that never complete the handshake — silent, or stuck half
/// way through a header — must not cost the server anything lasting: a
/// normal subscription completes beside them, each is dropped (and counted)
/// when the handshake timeout expires, and `shutdown` does not wait.
#[test]
fn silent_and_half_header_connections_are_dropped_not_served_forever() {
    use lmerge_net::listener::HANDSHAKE_TIMEOUT;
    use std::time::Instant;

    let registry = lmerge_obs::MetricsRegistry::new();
    let mut server =
        SubServer::bind_with_metrics("127.0.0.1:0", served_buffer(5), SubConfig::new(), &registry)
            .unwrap();
    let addr = server.local_addr().to_string();
    let mut quiet: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let mut half = TcpStream::connect(&addr).unwrap();
    half.write_all(&valid_subscribe()[..6]).unwrap();
    quiet.push(half);
    server_still_serves(&addr, 2, 10);

    let drops = || {
        registry
            .sum_value("lmerge_sub_handshake_drops_total")
            .unwrap_or(0.0)
    };
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT + Duration::from_secs(5);
    while drops() < quiet.len() as f64 {
        assert!(Instant::now() < deadline, "only {} drops counted", drops());
        std::thread::sleep(Duration::from_millis(20));
    }
    for s in &mut quiet {
        use std::io::Read;
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

/// Build the fuzz case for `(seed, len, flips)`: random bytes when
/// `flips == 0`, otherwise a valid `Subscribe` with `flips` byte edits.
fn fuzz_case(seed: u64, len: usize, flips: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    if flips == 0 {
        (0..len)
            .map(|_| rng.random_range(0..=255u32) as u8)
            .collect()
    } else {
        let mut bytes = valid_subscribe();
        for _ in 0..flips {
            let idx = rng.random_range(0..bytes.len());
            bytes[idx] = rng.random_range(0..=255u32) as u8;
        }
        bytes.truncate(len.min(bytes.len()).max(1));
        bytes
    }
}

/// Throw `bytes` at the handshake. Returns `true` if the server broke:
/// either the connection handling panicked into a hang, or the canary
/// subscription afterwards failed.
fn handshake_breaks_server(addr: &str, bytes: &[u8]) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return true;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    if stream.write_all(bytes).is_err() {
        // The server severed us mid-write: a legitimate rejection.
        return false;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain until EOF/timeout; a welcome here is fine (a mutation may
    // leave the frame valid), we only care that the server survives.
    let mut sink = [0u8; 1024];
    loop {
        use std::io::Read;
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    drop(stream);
    subscribe(addr, &SubscribeConfig::new(424242))
        .map(|o| !(o.clean && o.finished))
        .unwrap_or(true)
}

#[test]
fn seeded_fuzz_handshake_never_breaks_the_server() {
    let buf = served_buffer(4);
    let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
    let addr = server.local_addr().to_string();
    let frame_len = valid_subscribe().len();
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AB5);
        let flips = rng.random_range(0..4usize);
        let len = if flips == 0 {
            rng.random_range(0..(frame_len * 2))
        } else {
            rng.random_range(1..=frame_len)
        };
        if handshake_breaks_server(&addr, &fuzz_case(seed, len, flips)) {
            // Shrink the reproduction before failing the test, so the
            // report names the smallest (seed, len, flips) that breaks.
            let knobs = vec![
                Knob::new("seed", seed, 0),
                Knob::new("len", len as u64, 1),
                Knob::new("flips", flips as u64, 0),
            ];
            let (smallest, probes) = minimize(knobs, |ks| {
                handshake_breaks_server(
                    &addr,
                    &fuzz_case(ks[0].value, ks[1].value as usize, ks[2].value as usize),
                )
            });
            panic!(
                "subscriber handshake broke the server; minimized ({probes} probes) to {}",
                describe(&smallest)
            );
        }
    }
}

/// A subscriber that stops reading stalls nobody. Its socket fills and the
/// rest of its stream waits in its session, but the serve passes never
/// block on it: the publisher publishes and finishes, the other
/// subscribers get every byte and close clean, and the stuck session stays
/// open until its subscriber goes away, when it closes as lost.
#[test]
fn a_subscriber_that_stops_reading_stalls_neither_the_merge_nor_the_others() {
    use std::time::Instant;

    let registry = lmerge_obs::MetricsRegistry::new();
    let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
    let server =
        SubServer::bind_with_metrics("127.0.0.1:0", Arc::clone(&buf), SubConfig::new(), &registry)
            .unwrap();
    let addr = server.local_addr().to_string();
    let opened = || {
        registry
            .sum_value("lmerge_sub_sessions_opened_total")
            .unwrap_or(0.0)
    };
    // The stuck one grants a window wider than the stream, reads its
    // `Welcome`, and never reads again.
    let mut stuck = TcpStream::connect(&addr).unwrap();
    let subscribe_frame = Frame::Subscribe {
        protocol: PROTOCOL_VERSION,
        subscriber: 9,
        filter: 0,
        resume_from: 0,
        credits: u32::MAX,
    };
    stuck.write_all(&wire::encode(&subscribe_frame)).unwrap();
    assert!(matches!(
        wire::read_frame(&mut stuck),
        Ok(Some(Frame::Welcome { .. }))
    ));
    let readers: Vec<_> = (1..=2)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || subscribe(&addr, &SubscribeConfig::new(id)).unwrap())
        })
        .collect();
    while opened() != 3.0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // 16 MiB of output: far more than the stuck socket's buffers hold.
    let mut reference = Vec::new();
    let mut seq = 0;
    let published = Instant::now();
    for epoch in 0..512i64 {
        let mut elements: Vec<Element<Value>> = (0..31)
            .map(|k| Element::insert(Value::synthetic(k, 1000), epoch, epoch + 5))
            .collect();
        elements.push(Element::stable(Time(epoch + 1)));
        for e in &elements {
            let at = VTime(epoch as u64);
            wire::encode_into(
                &Frame::Data {
                    seq,
                    at,
                    element: e.clone(),
                },
                &mut reference,
            );
            seq += 1;
        }
        buf.publish(VTime(epoch as u64), &elements);
    }
    buf.finish();
    let published = published.elapsed();
    assert!(
        published < Duration::from_secs(10),
        "publishing took {published:?}"
    );

    server.serve_until(|| readers.iter().all(|r| r.is_finished()));
    for r in readers {
        let outcome = r.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert!(outcome.bytes == reference, "a reader's bytes differ");
    }
    let counted = |name: &str| registry.sum_value(name).unwrap_or(0.0);
    // The readers' `Bye` echoes are taken by the next passes.
    let deadline = Instant::now() + Duration::from_secs(5);
    server.serve_until(|| {
        counted("lmerge_sub_session_closes_clean_total") == 2.0 || Instant::now() > deadline
    });
    assert_eq!(counted("lmerge_sub_session_closes_clean_total"), 2.0);
    assert_eq!(counted("lmerge_sub_session_closes_lost_total"), 0.0);
    assert_eq!(
        counted("lmerge_sub_sessions_active"),
        1.0,
        "the stuck one is open"
    );

    drop(stuck);
    assert!(server.await_sessions_closed(Duration::from_secs(5)));
    assert_eq!(counted("lmerge_sub_session_closes_clean_total"), 2.0);
    assert_eq!(counted("lmerge_sub_session_closes_lost_total"), 1.0);
}
