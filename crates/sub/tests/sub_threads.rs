//! A subscriber costs the server no thread: its session is served by the
//! serve passes of whoever flushes the broadcast buffer. A handshake thread
//! exits once it has installed its session.
//!
//! One test in its own binary, so the process's thread count is the
//! server's and this test's alone.

use lmerge_net::wire::{self, Frame, PROTOCOL_VERSION};
use lmerge_obs::MetricsRegistry;
use lmerge_sub::{EpochBuffer, SubConfig, SubPolicy, SubServer};
use lmerge_temporal::{Element, Time, VTime, Value};
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn in_process_subscribers_add_no_threads() {
    const N: usize = 16;
    let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
    let registry = MetricsRegistry::new();
    let server =
        SubServer::bind_with_metrics("127.0.0.1:0", Arc::clone(&buf), SubConfig::new(), &registry)
            .unwrap();
    let before = threads();
    let mut streams = Vec::new();
    for id in 0..N as u64 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let subscribe = Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: id,
            filter: 0,
            resume_from: 0,
            credits: 64,
        };
        wire::write_frame(&mut stream, &subscribe).unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream),
            Ok(Some(Frame::Welcome { .. }))
        ));
        streams.push(stream);
    }
    // The handshake threads exit once their sessions are installed.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != before {
        assert!(
            Instant::now() < deadline,
            "{} threads with {N} subscribers, {before} before the first",
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        registry.sum_value("lmerge_sub_sessions_active"),
        Some(N as f64)
    );

    // And they are served: this thread's flush writes to every one.
    let elements = [
        Element::insert(Value::bare(1), 0, 5),
        Element::<Value>::stable(Time(1)),
    ];
    buf.publish(VTime(0), &elements);
    let want = wire::encode(&Frame::Data {
        seq: 0,
        at: VTime(0),
        element: elements[0].clone(),
    });
    for stream in &mut streams {
        let mut got = vec![0u8; want.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(got, want);
    }
    assert_eq!(threads(), before);
}
