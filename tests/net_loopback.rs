//! Loopback differential matrix: networked delivery over real TCP must be
//! **byte-identical** to in-process delivery.
//!
//! The paper's premise is that LMerge's inputs are physically independent;
//! the lmerge-net subsystem makes that literal by shipping each replica's
//! feed over its own socket. These tests pin the crate's central
//! invariant: because virtual arrival times travel inside the frames, a
//! networked run consumes exactly the `TimedElement` sequence an
//! in-process run does, so the merged output — and the full obs trace —
//! match byte for byte, for every variant of the spectrum, through a
//! crash-and-rejoin, and through a fault-injecting proxy — and all the way
//! out to a live subscriber.

use lmerge::chaos::{
    general_feeds, restricted_feeds, ChaosConfig, ChaosInjector, Chunker, Variant, ALL_VARIANTS,
};
use lmerge::core::{new_for_level, MergePolicy};
use lmerge::durable::{CheckpointStore, DurableCheckpointSink};
use lmerge::engine::{MergeRun, NoHooks, Operator, Query, RunConfig, TimedElement};
use lmerge::net::client::{replay, replay_until_clean, ReplayConfig};
use lmerge::net::proxy::{ChaosProxy, ProxyPlan};
use lmerge::net::server::{IngestConfig, IngestServer};
use lmerge::obs::{
    default_rules, parse_prometheus, scrape, AlertEngine, EngineMetrics, MeteredSink,
    MetricsRegistry, MetricsServer, NullSink, Tracer,
};
use lmerge::properties::RLevel;
use lmerge::sub::{
    subscribe_until_finished, EpochBuffer, OutputHook, SubConfig, SubPolicy, SubServer,
    SubscribeConfig,
};
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, Time, VTime, Value};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::thread;

/// How each input's replica reaches the server in a networked run.
enum ClientPlan {
    /// Connect directly and stream to completion.
    Direct,
    /// Crash (sever without `Bye`) after this many frames, then rejoin
    /// and resume from the server's acked offset.
    KillThenResume(u64),
    /// Connect through a chaos proxy driving this fault plan.
    Proxied(ProxyPlan),
}

/// The comparable results of one run (either delivery path).
struct RunResult {
    output: Vec<Element<Value>>,
    trace_jsonl: String,
    violations: usize,
    checks: usize,
    tdb_matches: bool,
    /// Proxy faults that actually fired during this run (0 when no
    /// proxies were involved).
    faults_applied: usize,
}

fn feeds_for(
    variant: Variant,
    cfg: &ChaosConfig,
) -> (lmerge::temporal::Tdb<Value>, Vec<Vec<TimedElement<Value>>>) {
    if variant.level() >= RLevel::R3 {
        general_feeds(cfg)
    } else {
        restricted_feeds(cfg)
    }
}

/// Run `variant` with the feeds delivered in-process (the baseline). The
/// hooks — an output collector paired with a clean-plan `ChaosInjector`
/// oracle — are identical to the networked run's, so the executor walks the
/// same code path on both sides of the differential.
fn run_in_process(
    variant: Variant,
    cfg: &ChaosConfig,
    reference: &lmerge::temporal::Tdb<Value>,
    feeds: &[Vec<TimedElement<Value>>],
) -> RunResult {
    let queries: Vec<Query<Value>> = feeds
        .iter()
        .map(|f| {
            let chain: Vec<Box<dyn Operator<Value>>> = vec![Box::new(Chunker::new(cfg.chunk))];
            Query::new(f.clone(), chain)
        })
        .collect();
    let merge = variant.build(cfg.n_inputs, cfg.robustness);
    let mut hooks = (Vec::new(), ChaosInjector::oracle(variant.level(), feeds));
    let mut tracer = Tracer::new();
    MergeRun::new(queries, merge, RunConfig::default()).run_with_hooks(&mut tracer, &mut hooks);
    finish(hooks, tracer, reference)
}

/// Run `variant` with each feed streamed over its own TCP connection.
fn run_networked(
    variant: Variant,
    cfg: &ChaosConfig,
    reference: &lmerge::temporal::Tdb<Value>,
    feeds: &[Vec<TimedElement<Value>>],
    plans: Vec<ClientPlan>,
) -> RunResult {
    assert_eq!(plans.len(), feeds.len());
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(feeds.len()))
        .expect("bind ingest server");
    let server_addr = server.local_addr();

    let clients: Vec<_> = plans
        .into_iter()
        .enumerate()
        .map(|(i, plan)| {
            let feed = feeds[i].clone();
            thread::spawn(move || match plan {
                ClientPlan::Direct => {
                    let out = replay_until_clean(
                        &server_addr.to_string(),
                        &feed,
                        &ReplayConfig::new(i as u32),
                        10,
                    )
                    .expect("direct replay");
                    assert!(out.clean);
                    0
                }
                ClientPlan::KillThenResume(kill_at) => {
                    let addr = server_addr.to_string();
                    let crashed = replay(
                        &addr,
                        &feed,
                        &ReplayConfig::new(i as u32).with_kill_after(kill_at),
                    )
                    .expect("crash session");
                    assert!(!crashed.clean, "the kill really severed the session");
                    assert_eq!(crashed.sent, kill_at);
                    let resumed =
                        replay_until_clean(&addr, &feed, &ReplayConfig::new(i as u32), 10)
                            .expect("rejoin");
                    assert!(resumed.clean);
                    assert!(
                        resumed.resumed_from >= kill_at.saturating_sub(1),
                        "welcome carried the crash point: resumed_from={} kill_at={kill_at}",
                        resumed.resumed_from
                    );
                    0
                }
                ClientPlan::Proxied(plan) => {
                    let proxy = ChaosProxy::spawn(server_addr, plan).expect("spawn proxy");
                    let out = replay_until_clean(
                        &proxy.local_addr().to_string(),
                        &feed,
                        &ReplayConfig::new(i as u32),
                        50,
                    )
                    .expect("proxied replay");
                    assert!(out.clean);
                    proxy.applied()
                }
            })
        })
        .collect();

    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| {
            let chain: Vec<Box<dyn Operator<Value>>> = vec![Box::new(Chunker::new(cfg.chunk))];
            Query::from_source(Box::new(src), chain)
        })
        .collect();
    let merge = variant.build(cfg.n_inputs, cfg.robustness);
    let mut hooks = (Vec::new(), ChaosInjector::oracle(variant.level(), feeds));
    let mut tracer = Tracer::new();
    MergeRun::new(queries, merge, RunConfig::default()).run_with_hooks(&mut tracer, &mut hooks);

    let faults_applied: usize = clients.into_iter().map(|c| c.join().expect("client")).sum();
    server.shutdown();
    let mut result = finish(hooks, tracer, reference);
    result.faults_applied = faults_applied;
    result
}

fn finish(
    (output, mut oracle): (Vec<Element<Value>>, ChaosInjector),
    tracer: Tracer,
    reference: &lmerge::temporal::Tdb<Value>,
) -> RunResult {
    oracle.check_now();
    RunResult {
        output,
        trace_jsonl: tracer.to_jsonl(),
        violations: oracle.violations().len(),
        checks: oracle.checks(),
        tdb_matches: oracle.output().tdb() == reference,
        faults_applied: 0,
    }
}

fn assert_identical(variant: Variant, base: &RunResult, net: &RunResult) {
    assert_eq!(
        base.output,
        net.output,
        "{}: networked output diverged from in-process",
        variant.name()
    );
    assert_eq!(
        base.trace_jsonl,
        net.trace_jsonl,
        "{}: networked trace diverged from in-process",
        variant.name()
    );
    assert_eq!(net.violations, 0, "{}: oracle violations", variant.name());
    assert_eq!(
        base.violations,
        0,
        "{}: baseline violations",
        variant.name()
    );
    assert!(net.checks > 0, "{}: oracle never checked", variant.name());
    assert!(net.tdb_matches, "{}: TDB mismatch", variant.name());
    assert!(
        !base.output.is_empty(),
        "{}: differential is vacuous",
        variant.name()
    );
}

#[test]
fn loopback_matrix_matches_in_process_for_all_variants() {
    let cfg = ChaosConfig::small(11);
    for variant in ALL_VARIANTS {
        let (reference, feeds) = feeds_for(variant, &cfg);
        let base = run_in_process(variant, &cfg, &reference, &feeds);
        let plans = (0..feeds.len()).map(|_| ClientPlan::Direct).collect();
        let net = run_networked(variant, &cfg, &reference, &feeds, plans);
        assert_identical(variant, &base, &net);
    }
}

#[test]
fn kill_and_rejoin_resumes_exactly_once() {
    let cfg = ChaosConfig::small(23);
    let variant = Variant::R3;
    let (reference, feeds) = feeds_for(variant, &cfg);
    assert!(
        feeds[0].len() > 60,
        "feed long enough to kill mid-stream ({} elements)",
        feeds[0].len()
    );
    let base = run_in_process(variant, &cfg, &reference, &feeds);
    let plans = vec![
        ClientPlan::KillThenResume(40),
        ClientPlan::Direct,
        ClientPlan::KillThenResume(15),
    ];
    let net = run_networked(variant, &cfg, &reference, &feeds, plans);
    assert_identical(variant, &base, &net);
}

#[test]
fn proxy_faults_do_not_perturb_the_merge() {
    let cfg = ChaosConfig::small(37);
    let variant = Variant::R4;
    let (reference, feeds) = feeds_for(variant, &cfg);
    let base = run_in_process(variant, &cfg, &reference, &feeds);
    let plans = (0..feeds.len() as u64)
        .map(|i| ClientPlan::Proxied(ProxyPlan::seeded(1000 + i, 6_000, 5)))
        .collect();
    let net = run_networked(variant, &cfg, &reference, &feeds, plans);
    assert!(
        net.faults_applied > 0,
        "the proxies really disturbed the transport ({} faults)",
        net.faults_applied
    );
    assert_identical(variant, &base, &net);
}

/// The telemetry-plane acceptance path: run the loopback merge with the
/// live registry attached end to end — ingest server, metered run sink,
/// SLO alert engine — and scrape the endpoint over real TCP. The
/// exposition must be valid Prometheus text carrying per-session and alert
/// series.
#[test]
fn live_scrape_exposes_session_and_alert_series() {
    let cfg = ChaosConfig::small(71);
    let variant = Variant::R3;
    let (_reference, feeds) = feeds_for(variant, &cfg);
    assert!(feeds[0].len() > 20, "feed long enough to kill mid-stream");

    let registry = MetricsRegistry::new();
    let mut server =
        IngestServer::bind_with_metrics("127.0.0.1:0", IngestConfig::new(feeds.len()), &registry)
            .expect("bind ingest server");
    let server_addr = server.local_addr().to_string();

    let metrics_server = MetricsServer::bind_with_alerts(
        "127.0.0.1:0",
        registry.clone(),
        AlertEngine::new(&registry, default_rules()),
    )
    .expect("bind metrics server");

    // Input 0 crashes after 10 frames and rejoins, so the resume series
    // is provably non-zero; the rest stream straight through.
    let clients: Vec<_> = feeds
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, feed)| {
            let addr = server_addr.clone();
            thread::spawn(move || {
                if i == 0 {
                    let crashed = replay(&addr, &feed, &ReplayConfig::new(0).with_kill_after(10))
                        .expect("crash session");
                    assert!(!crashed.clean);
                }
                let out = replay_until_clean(&addr, &feed, &ReplayConfig::new(i as u32), 10)
                    .expect("replay");
                assert!(out.clean);
            })
        })
        .collect();

    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let merge = variant.build(cfg.n_inputs, cfg.robustness);
    // Metered as the deployed server is: the registry is the only account.
    let mut sink = MeteredSink::new(NullSink, EngineMetrics::new(&registry));
    MergeRun::new(queries, merge, RunConfig::default()).run_with_hooks(&mut sink, &mut NoHooks);
    for c in clients {
        c.join().expect("client");
    }
    server.shutdown();

    // A live scrape over TCP, parsed back from the wire format.
    let body = scrape(metrics_server.local_addr()).expect("scrape");
    let samples = parse_prometheus(&body);
    let data_lines = body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    assert_eq!(
        samples.len(),
        data_lines,
        "every exposition line parses as a sample"
    );

    // Per-session series: every input streamed frames and closed cleanly.
    for i in 0..feeds.len() {
        let id = i.to_string();
        let frames = samples
            .iter()
            .find(|s| s.name == "lmerge_net_frames_total" && s.label("input") == Some(&id))
            .unwrap_or_else(|| panic!("no frame series for input {i}"));
        assert!(frames.value > 0.0, "input {i} streamed no frames");
    }
    let resumes: f64 = samples
        .iter()
        .filter(|s| s.name == "lmerge_net_resumes_total")
        .map(|s| s.value)
        .sum();
    assert!(resumes >= 1.0, "the kill+rejoin registered as a resume");

    // Alert series: the engine evaluated during the scrape, so the
    // default rules are all present (firing or not).
    let alert_rules = samples
        .iter()
        .filter(|s| s.name == "lmerge_alert_active")
        .count();
    assert_eq!(alert_rules, default_rules().len(), "every rule exposed");
    assert!(
        !samples.iter().any(|s| s.name.contains("ring_dropped")),
        "the server keeps no trace ring to report on"
    );

    // Engine series folded by the metered sink.
    assert!(
        registry
            .sum_value("lmerge_elements_emitted_total")
            .unwrap_or(0.0)
            > 0.0,
        "metered run folded output counts"
    );
}

/// The executor offers its checkpoint cut *after* staging each query's
/// next batch, so at every cut a live input has one frame popped from its
/// ingest ring that the merge image does not contain. The persisted
/// transport cursor must discount that staged frame — otherwise the
/// restore handshake skips a frame the merge never saw, and a restarted
/// server silently drops up to one element per input per crash.
#[test]
fn networked_restore_replays_frames_staged_at_the_kill() {
    // One input; a finite stable every 8 inserts, so each stable advance
    // offers a checkpoint cut mid-feed.
    let feed: Vec<TimedElement<Value>> = {
        let mut v = Vec::new();
        for i in 0..60u64 {
            v.push(TimedElement::new(
                VTime(i * 10),
                Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5),
            ));
            if (i + 1) % 8 == 0 {
                v.push(TimedElement::new(
                    VTime(i * 10 + 5),
                    Element::stable(Time(i as i64)),
                ));
            }
        }
        v.push(TimedElement::new(
            VTime(600),
            Element::stable(Time::INFINITY),
        ));
        v
    };

    // Reference: the same feed merged by a process that never dies.
    let reference = {
        let queries = vec![Query::new(feed.clone(), Vec::new())];
        let merge = new_for_level(RLevel::R3, 1, MergePolicy::default());
        let mut out = Vec::new();
        MergeRun::new(queries, merge, RunConfig::default())
            .run_with_hooks(&mut lmerge::obs::NullSink, &mut out);
        out
    };

    let dir = std::env::temp_dir().join(format!("lmerge-netck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Incarnation 1: checkpoint at every cut through the live transport
    // cursors, and "die" right after checkpoint 2 lands on disk.
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).expect("bind");
    let addr = server.local_addr().to_string();
    let feed1 = feed.clone();
    let client = thread::spawn(move || {
        // The merge halts mid-run and the server is then dropped; whether
        // this session still closed cleanly is irrelevant.
        let _ = replay(&addr, &feed1, &ReplayConfig::new(0));
    });
    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let cursors = server.cursor_handle();
    let mut ck = DurableCheckpointSink::new(CheckpointStore::create(&dir).expect("store"))
        .with_cursor_source(Box::new(move || cursors.cursors()))
        .halt_after(2);
    let mut out1 = Vec::new();
    MergeRun::new(
        queries,
        new_for_level(RLevel::R3, 1, MergePolicy::default()),
        RunConfig::default(),
    )
    .run_checkpointed(&mut lmerge::obs::NullSink, &mut out1, &mut ck);
    assert!(ck.error.is_none(), "{:?}", ck.error);
    server.shutdown();
    client.join().unwrap();
    drop(server);

    // Incarnation 2: restore the newest checkpoint, pre-seed the resume
    // handshake from its cursors, and finish with a fresh executor over
    // the restored merge — the lmerge-ingest --restore-from path.
    let (seq, image) = CheckpointStore::<Value>::load_latest(&dir).expect("restore");
    assert_eq!(seq, 2, "died right after checkpoint 2");
    assert!(
        image.exec.staged[0].is_some(),
        "the kill landed between staging and delivery"
    );
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).expect("rebind");
    server.restore_cursors(&image.cursors);
    let addr = server.local_addr().to_string();
    let feed2 = feed.clone();
    let client = thread::spawn(move || {
        replay_until_clean(&addr, &feed2, &ReplayConfig::new(0), 10).expect("rejoin")
    });
    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let mut merge = new_for_level(RLevel::R3, 1, MergePolicy::default());
    assert!(merge.restore_state(image.merge), "image matches the level");
    let mut out2 = Vec::new();
    MergeRun::new(queries, merge, RunConfig::default())
        .run_with_hooks(&mut lmerge::obs::NullSink, &mut out2);
    server.await_sessions_closed(std::time::Duration::from_secs(5));
    let outcome = client.join().unwrap();
    assert!(outcome.clean);
    server.shutdown();

    // Exactly-once across the crash: what incarnation 1 emitted, then
    // what incarnation 2 emitted, must equal the never-killed run's
    // output — nothing lost (the staged frame!) and nothing duplicated.
    let mut stitched = out1;
    stitched.extend(out2);
    assert_eq!(stitched, reference, "restart lost or duplicated output");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replica's feed of `n` inserts with `payload_len`-byte bodies, a finite
/// stable every 16, closed by stable(∞).
fn uniform_feed(n: u64, payload_len: usize) -> Vec<TimedElement<Value>> {
    let mut v = Vec::new();
    for i in 0..n {
        v.push(TimedElement::new(
            VTime(i * 10),
            Element::insert(
                Value::synthetic(i as i32, payload_len),
                i as i64,
                i as i64 + 5,
            ),
        ));
        if (i + 1) % 16 == 0 {
            v.push(TimedElement::new(
                VTime(i * 10 + 5),
                Element::stable(Time(i as i64)),
            ));
        }
    }
    v.push(TimedElement::new(
        VTime(n * 10),
        Element::stable(Time::INFINITY),
    ));
    v
}

/// A `Write` handle over a shared byte vector: reads back what an
/// [`OutputHook`] wrote to its file.
#[derive(Clone, Default)]
struct SharedBytes(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBytes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `queries` through `merge` under `hooks` paired with an
/// [`OutputHook`] writing to memory; return the hooks and the file bytes.
fn run_to_bytes<H: lmerge::engine::RunHooks<Value>>(
    queries: Vec<Query<Value>>,
    merge: Box<dyn lmerge::core::LogicalMerge<Value>>,
    config: RunConfig,
    hooks: H,
) -> (H, Vec<u8>) {
    let file = SharedBytes::default();
    let mut hooks = (hooks, OutputHook::new().write_to(Box::new(file.clone())));
    MergeRun::new(queries, merge, config).run_with_hooks(&mut lmerge::obs::NullSink, &mut hooks);
    hooks.1.finish().expect("in-memory file");
    let bytes = file.0.lock().unwrap().clone();
    (hooks.0, bytes)
}

/// Merge two replicas of `feed` and return the output as wire bytes.
fn merged_bytes(queries: Vec<Query<Value>>) -> Vec<u8> {
    let merge = new_for_level(RLevel::R3, 2, MergePolicy::default());
    run_to_bytes(queries, merge, RunConfig::default(), NoHooks).1
}

/// The client coalesces frames into large writes and the server takes every
/// whole frame of a read before it publishes its resume point — so a
/// connection that dies mid-frame, in the middle of such a run, is where an
/// off-by-a-batch resume point would show. Sever input 0 at an exact byte
/// offset inside frame `k`: the ring must have taken frames `0..k`, the next
/// `Welcome` must say so, and the stitched merge must be byte-identical to
/// the in-process run.
#[test]
fn cut_inside_a_coalesced_run_resumes_exactly_once() {
    use lmerge::net::proxy::ProxyFault;
    use lmerge::net::wire::{self, Frame, PROTOCOL_VERSION};

    for (payload_len, n, k) in [(32usize, 600u64, 389usize), (1000, 120, 67)] {
        let feed = uniform_feed(n, payload_len);
        let base = merged_bytes(vec![
            Query::new(feed.clone(), Vec::new()),
            Query::new(feed.clone(), Vec::new()),
        ]);
        assert!(!base.is_empty());

        // Client→server byte offset of the middle of frame `k`.
        let frame_len = |i: usize| {
            wire::encode(&Frame::Data {
                seq: i as u64,
                at: feed[i].at,
                element: feed[i].element.clone(),
            })
            .len()
        };
        let hello = wire::encode(&Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: 0,
        })
        .len();
        let cut = hello + (0..k).map(frame_len).sum::<usize>() + frame_len(k) / 2;

        let registry = MetricsRegistry::new();
        let mut server =
            IngestServer::bind_with_metrics("127.0.0.1:0", IngestConfig::new(2), &registry)
                .expect("bind");
        let addr = server.local_addr();
        let proxy = ChaosProxy::spawn(
            addr,
            ProxyPlan {
                faults: vec![(cut as u64, ProxyFault::Reset)],
            },
        )
        .expect("proxy");
        let proxied = proxy.local_addr().to_string();
        let input0 = |name: &str| {
            registry
                .samples()
                .iter()
                .find(|s| s.name == name && s.label("input") == Some("0"))
                .map_or(0.0, |s| s.value)
        };

        let direct = {
            let feed = feed.clone();
            thread::spawn(move || {
                replay_until_clean(&addr.to_string(), &feed, &ReplayConfig::new(1), 5)
                    .expect("direct replay")
            })
        };
        let queries = server
            .sources()
            .into_iter()
            .map(|src| Query::from_source(Box::new(src), Vec::new()))
            .collect();
        let merge = thread::spawn(move || merged_bytes(queries));

        let severed = replay(&proxied, &feed, &ReplayConfig::new(0)).expect("severed session");
        assert!(!severed.clean, "the reset really cut the session");
        assert_eq!(proxy.resets(), 1);
        while input0("lmerge_net_session_closes_lost_total") < 1.0 {
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let took = input0("lmerge_net_next_seq") as u64;
        assert_eq!(
            took, k as u64,
            "{payload_len} B: every whole frame before the cut reached the ring, none after"
        );
        assert_eq!(input0("lmerge_net_frames_total") as u64, took);

        let resumed = replay(&proxied, &feed, &ReplayConfig::new(0)).expect("resumed session");
        assert!(resumed.clean);
        assert_eq!(
            resumed.resumed_from, took,
            "welcome names what the ring took"
        );
        assert_eq!(resumed.sent, feed.len() as u64 - took);
        assert!(direct.join().unwrap().clean);

        let net = merge.join().unwrap();
        server.shutdown();
        assert_eq!(
            net, base,
            "{payload_len} B: stitched merge is byte-identical"
        );
    }
}

/// The composed cell, through the one executor loop: replicas stream over
/// TCP into the merge, whose output hook feeds a live subscriber that is
/// killed mid-stream and resumes. The subscriber's stitched bytes are an
/// in-process run's output file, frame for frame and byte for byte, and
/// its elements are that run's collected output.
#[test]
fn tcp_ingest_streams_to_a_live_subscriber() {
    let cfg = ChaosConfig::small(53);
    let variant = Variant::R3;
    let (_reference, feeds) = feeds_for(variant, &cfg);
    let merge = || variant.build(cfg.n_inputs, cfg.robustness);
    let in_process = feeds
        .iter()
        .map(|f| Query::passthrough(f.clone()))
        .collect::<Vec<_>>();

    // The in-process reference, collected and as file bytes.
    let (out, bytes) = run_to_bytes(in_process, merge(), RunConfig::default(), Vec::new());

    // The live system: TCP ingest → merge → output hook → subscriber.
    let buf = Arc::new(EpochBuffer::new(SubPolicy {
        retain_min_epochs: u64::MAX,
        ..SubPolicy::default()
    }));
    let mut sub_server =
        SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).expect("sub bind");
    let sub_addr = sub_server.local_addr().to_string();
    let subscriber = thread::spawn(move || {
        let config = SubscribeConfig::new(1).with_kill_after(40);
        subscribe_until_finished(&sub_addr, &config, 10).expect("subscriber")
    });
    let mut server =
        IngestServer::bind("127.0.0.1:0", IngestConfig::new(feeds.len())).expect("bind");
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = feeds
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, feed)| {
            let addr = addr.clone();
            thread::spawn(move || {
                replay_until_clean(&addr, &feed, &ReplayConfig::new(i as u32), 5).expect("replay")
            })
        })
        .collect();
    let queries = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let mut output = OutputHook::new().broadcast(Arc::clone(&buf));
    MergeRun::new(queries, merge(), RunConfig::default())
        .run_with_hooks(&mut lmerge::obs::NullSink, &mut output);
    for c in clients {
        assert!(c.join().unwrap().clean);
    }
    server.await_sessions_closed(std::time::Duration::from_secs(5));
    output.finish().expect("no file, no I/O error");
    let seen = subscriber.join().expect("subscriber thread");
    sub_server.shutdown();
    server.shutdown();

    assert!(seen.clean && seen.finished);
    assert!(seen.attempts > 1, "the kill never fired");
    assert_eq!(output.emitted(), out.len() as u64);
    assert_eq!(seen.bytes, bytes, "stitched bytes = in-process output file");
    let elements: Vec<Element<Value>> = seen.frames.iter().map(|(_, _, e)| e.clone()).collect();
    assert_eq!(elements, out);
    tdb_of(&elements).expect("well formed");
}
