//! Subscription-plane differential conformance: every subscriber — no
//! matter when it joined, which filter class it picked, how hostile its
//! transport was, or whether it (or the merge process itself) crashed
//! mid-stream — must end up with a **byte-identical** filtered copy of
//! the single-writer reference output.
//!
//! The reference on each run is twofold: an in-process output collector
//! (what the merge emitted, element by element) and the
//! full-stream subscriber's wire bytes (what the fan-out encoded). A
//! filtered class's expectation is derived mechanically from the latter
//! by re-encoding the admitted frames, so the comparison pins the whole
//! chain: one shared encoding, shared bitmaps, per-session cursors,
//! credit flow, resume stitching.

use lmerge::chaos::{general_feeds, ChaosConfig, Variant};
use lmerge::core::{new_for_level, MergePolicy};
use lmerge::durable::{CheckpointStore, DurableCheckpointSink};
use lmerge::engine::{MergeRun, Query, RunConfig, TimedElement};
use lmerge::net::client::{replay, replay_until_clean, ReplayConfig};
use lmerge::net::proxy::{ChaosProxy, ProxyPlan};
use lmerge::net::server::{IngestConfig, IngestServer};
use lmerge::net::wire::{self, Frame};
use lmerge::obs::{MetricsRegistry, NullSink};
use lmerge::properties::RLevel;
use lmerge::sub::{
    subscribe, subscribe_until_finished, EpochBuffer, OutputHook, SubConfig, SubFilter, SubOutcome,
    SubPolicy, SubServer, SubscribeConfig,
};
use lmerge::temporal::{Element, Time, VTime, Value};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Retain everything: these tests compare full streams, so late joiners
/// and post-run subscribers must still see sequence 0.
fn retain_all() -> SubPolicy {
    SubPolicy {
        retain_min_epochs: u64::MAX,
        ..SubPolicy::default()
    }
}

/// Re-encode the frames of `full` (a class-0 subscriber's view) that
/// `filter` admits: the byte-exact expectation for that filter class.
fn expected_bytes(full: &SubOutcome, filter: &SubFilter) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (seq, at, element) in &full.frames {
        if filter.admits(element) {
            wire::encode_into(
                &Frame::Data {
                    seq: *seq,
                    at: *at,
                    element: element.clone(),
                },
                &mut bytes,
            );
        }
    }
    bytes
}

/// N subscribers with mixed join times, filter classes, credit windows,
/// a mid-stream kill+resume, and a chaos proxy on the wire — every one
/// of them receives exactly its filtered slice of the reference.
#[test]
fn mixed_subscribers_receive_byte_identical_filtered_slices() {
    let cfg = ChaosConfig::small(19);
    let (_reference, feeds) = general_feeds(&cfg);

    let mut sub_config = SubConfig::new(); // class 0: All
    let mod_class = sub_config.add_filter(SubFilter::KeyMod {
        modulus: 2,
        residue: 0,
    });
    let range_class = sub_config.add_filter(SubFilter::KeyRange {
        min: i32::MIN,
        max: 40,
    });

    let buf = Arc::new(EpochBuffer::new(retain_all()));
    let mut server =
        SubServer::bind("127.0.0.1:0", Arc::clone(&buf), sub_config.clone()).expect("bind");
    let addr = server.local_addr().to_string();
    let sub_addr = server.local_addr();

    // The subscriber mix, live while the merge is still producing.
    let full = {
        let addr = addr.clone();
        thread::spawn(move || subscribe(&addr, &SubscribeConfig::new(1)).expect("full subscriber"))
    };
    let moddy = {
        let addr = addr.clone();
        // Tiny credit window: correctness must not depend on batch size.
        thread::spawn(move || {
            subscribe(
                &addr,
                &SubscribeConfig::new(2)
                    .with_filter(mod_class)
                    .with_credits(3),
            )
            .expect("mod subscriber")
        })
    };
    let ranged = {
        let addr = addr.clone();
        // Joins late, after the merge has already emitted some epochs.
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            subscribe(&addr, &SubscribeConfig::new(3).with_filter(range_class))
                .expect("late range subscriber")
        })
    };
    let killed = {
        let addr = addr.clone();
        // Crashes after 9 frames, reconnects with resume_from, stitches.
        thread::spawn(move || {
            subscribe_until_finished(&addr, &SubscribeConfig::new(4).with_kill_after(9), 10)
                .expect("kill+resume subscriber")
        })
    };
    let proxy = ChaosProxy::spawn(sub_addr, ProxyPlan::seeded(7, 400, 4)).expect("proxy");
    let proxied = {
        let addr = proxy.local_addr().to_string();
        thread::spawn(move || {
            subscribe_until_finished(&addr, &SubscribeConfig::new(5).with_filter(mod_class), 50)
                .expect("proxied subscriber")
        })
    };

    // The producer: an in-process merge publishing through the broadcast
    // buffer, with a plain collector as the single-writer reference.
    let queries: Vec<Query<Value>> = feeds
        .iter()
        .map(|f| Query::new(f.clone(), Vec::new()))
        .collect();
    let merge = Variant::R3.build(cfg.n_inputs, cfg.robustness);
    let mut hooks = (Vec::new(), OutputHook::new().broadcast(Arc::clone(&buf)));
    MergeRun::new(queries, merge, RunConfig::default()).run_with_hooks(&mut NullSink, &mut hooks);
    hooks.1.finish().expect("no file, no I/O error");
    let collected = hooks.0;

    let full = full.join().expect("full");
    let moddy = moddy.join().expect("moddy");
    let ranged = ranged.join().expect("ranged");
    let killed = killed.join().expect("killed");
    let proxied = proxied.join().expect("proxied");
    assert!(server.await_sessions_closed(Duration::from_secs(5)));
    server.shutdown();

    for (name, o) in [
        ("full", &full),
        ("mod", &moddy),
        ("range", &ranged),
        ("killed", &killed),
        ("proxied", &proxied),
    ] {
        assert!(o.clean && o.finished, "{name}: unclean close");
    }

    // The full-stream subscriber IS the collector output, element for
    // element — the wire added and lost nothing.
    let full_elements: Vec<Element<Value>> =
        full.frames.iter().map(|(_, _, e)| e.clone()).collect();
    assert_eq!(full_elements, collected, "fan-out diverged from the merge");
    assert!(!collected.is_empty(), "differential is vacuous");

    // Every filtered/chaotic subscriber got exactly its slice, by bytes.
    let mod_expected = expected_bytes(&full, &sub_config.filters[mod_class as usize]);
    let range_expected = expected_bytes(&full, &sub_config.filters[range_class as usize]);
    assert_eq!(killed.bytes, full.bytes, "kill+resume stitched wrong");
    assert!(killed.attempts > 1, "the kill never fired");
    assert_eq!(moddy.bytes, mod_expected, "mod-filter slice wrong");
    assert_eq!(proxied.bytes, mod_expected, "proxied slice wrong");
    assert_eq!(ranged.bytes, range_expected, "range-filter slice wrong");
    assert!(
        proxy.applied() > 0,
        "the proxy never disturbed the transport"
    );
    // The mod filter is a proper slice: smaller than the full stream but
    // more than the stable punctuation alone.
    let stables = full
        .frames
        .iter()
        .filter(|(_, _, e)| matches!(e, Element::Stable(_)))
        .count() as u64;
    assert!(moddy.received < full.received, "mod filter admitted all");
    assert!(moddy.received > stables, "mod filter admitted nothing");
}

/// The deployed wiring, end to end: with the broadcast buffer's `flush` hung
/// on `NetSource::on_quiet` (as `lmerge-ingest` does), what the merge
/// emitted reaches a live subscriber as soon as the input goes quiet — no
/// output stable point has advanced, no epoch has sealed —
/// and the frames that streamed early are the very frames an uninterrupted
/// observer reads after the fact.
#[test]
fn open_epoch_streams_to_a_live_subscriber_when_the_input_goes_quiet() {
    let inserts = 6u64;
    let feed: Vec<TimedElement<Value>> = (0..inserts)
        .map(|i| {
            let e = Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5);
            TimedElement::new(VTime(i * 10), e)
        })
        .chain([TimedElement::new(
            VTime(100),
            Element::stable(Time::INFINITY),
        )])
        .collect();

    let buf = Arc::new(EpochBuffer::new(retain_all()));
    let mut sub_server =
        SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).expect("sub bind");
    let sub_addr = sub_server.local_addr().to_string();
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).expect("bind");
    let addr = server.local_addr().to_string();
    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| {
            let buf = Arc::clone(&buf);
            Query::from_source(Box::new(src.on_quiet(move || buf.flush())), Vec::new())
        })
        .collect();
    let merge = {
        let buf = Arc::clone(&buf);
        thread::spawn(move || {
            let mut output = OutputHook::new().broadcast(buf);
            MergeRun::new(
                queries,
                new_for_level(RLevel::R3, 1, MergePolicy::default()),
                RunConfig::default(),
            )
            .run_with_hooks(&mut NullSink, &mut output);
            output.finish().expect("no file, no I/O error");
        })
    };

    // The replica delivers its inserts and dies before any punctuation.
    let cut = replay(&addr, &feed, &ReplayConfig::new(0).with_kill_after(inserts)).expect("replay");
    assert!(!cut.clean);
    // A live subscriber gets them anyway: `kill_after` returns at the
    // sixth frame, which nothing but the quiet-point flush can have delivered.
    let early = subscribe(&sub_addr, &SubscribeConfig::new(1).with_kill_after(inserts))
        .expect("live subscriber");
    assert_eq!(early.received, inserts);
    assert!(early
        .frames
        .iter()
        .all(|(_, _, e)| matches!(e, Element::Insert(_))));
    let (_, stable, sealed, _) = buf.stats();
    assert_eq!((stable, sealed), (Time::MIN, 0), "no punctuation yet");

    // The replica rejoins and finishes; the subscriber resumes mid-epoch.
    let rest = replay_until_clean(&addr, &feed, &ReplayConfig::new(0), 10).expect("rejoin");
    assert!(rest.clean);
    merge.join().expect("merge thread");
    let late = subscribe(
        &sub_addr,
        &SubscribeConfig::new(1).with_resume_from(inserts),
    )
    .expect("resumed subscriber");
    let observer = subscribe(&sub_addr, &SubscribeConfig::new(2)).expect("observer");
    assert!(late.clean && late.finished && observer.clean && observer.finished);
    let mut stitched = early.bytes.clone();
    stitched.extend_from_slice(&late.bytes);
    assert_eq!(stitched, observer.bytes, "early frames are the same frames");
    assert_eq!(observer.received, inserts + 1);
    server.shutdown();
    sub_server.shutdown();
}

/// What distinguishes the two merge-restart cells below.
struct RestartCell {
    tag: &'static str,
    /// Frames the subscriber streams before it crashes (incarnation 1
    /// seals 27 before it dies after checkpoint 2).
    watcher_frames: u64,
    /// Delete checkpoint 2 before restoring: the process died after the
    /// cut was taken but before the writer thread made it durable.
    lose_newest_cut: bool,
}

/// TCP ingest + live subscriber + a merge that dies right after checkpoint
/// 2, restored from what the directory still holds and run to completion.
/// Whatever was lost, the subscriber's stitched bytes must equal those of
/// an observer that saw one uninterrupted stream, and that stream must be
/// the output of a merge that never died.
fn subscriber_resume_across_merge_restart(cell: RestartCell) {
    // One networked input with periodic finite stables, so checkpoints
    // cut mid-feed (same shape as the net-restore conformance test).
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
    let unkilled = {
        let queries = vec![Query::new(feed.clone(), Vec::new())];
        let merge = new_for_level(RLevel::R3, 1, MergePolicy::default());
        let mut out = Vec::new();
        MergeRun::new(queries, merge, RunConfig::default()).run_with_hooks(&mut NullSink, &mut out);
        out
    };

    let dir =
        std::env::temp_dir().join(format!("lmerge-subck-{}-{}", cell.tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Incarnation 1: ingest over TCP, fan out through the broadcast
    // buffer, checkpoint egress + cursors at every cut, die after cut 2.
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).expect("bind");
    let addr = server.local_addr().to_string();
    let feed1 = feed.clone();
    let ingest = thread::spawn(move || {
        // The merge halts mid-run; clean close is irrelevant here.
        let _ = replay(&addr, &feed1, &ReplayConfig::new(0));
    });
    let buf1 = Arc::new(EpochBuffer::new(retain_all()));
    let mut sub_server =
        SubServer::bind("127.0.0.1:0", Arc::clone(&buf1), SubConfig::new()).expect("sub bind");
    let sub_addr1 = sub_server.local_addr().to_string();
    // The subscriber crashes mid-stream — on frames the dying merge had
    // already sealed.
    let watcher_frames = cell.watcher_frames;
    let watcher = thread::spawn(move || {
        subscribe(
            &sub_addr1,
            &SubscribeConfig::new(77).with_kill_after(watcher_frames),
        )
        .expect("watch")
    });
    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let cursors = server.cursor_handle();
    let egress_buf = Arc::clone(&buf1);
    let mut ck = DurableCheckpointSink::new(CheckpointStore::create(&dir).expect("store"))
        .with_cursor_source(Box::new(move || cursors.cursors()))
        .with_egress_source(Box::new(move || egress_buf.image()))
        .halt_after(2);
    let mut output = OutputHook::new().broadcast(Arc::clone(&buf1));
    MergeRun::new(
        queries,
        new_for_level(RLevel::R3, 1, MergePolicy::default()),
        RunConfig::default(),
    )
    .run_checkpointed(&mut NullSink, &mut output, &mut ck);
    assert!(ck.error.is_none(), "{:?}", ck.error);
    let part1 = watcher.join().expect("watcher");
    assert!(!part1.clean && !part1.finished, "the kill really severed");
    assert_eq!(part1.received, cell.watcher_frames);
    server.shutdown();
    ingest.join().unwrap();
    sub_server.shutdown();
    drop(sub_server);
    drop(server);

    // Incarnation 2: restore the checkpoint — merge state, ingest
    // cursors, AND the egress image — and finish the run.
    let (seq, mut image) = CheckpointStore::<Value>::load_latest(&dir).expect("restore");
    assert_eq!(seq, 2, "died right after checkpoint 2");
    if cell.lose_newest_cut {
        let newest = image;
        std::fs::remove_file(dir.join("ck-00000002-delta.lmck")).expect("cut 2 is a delta");
        let (seq, older) = CheckpointStore::<Value>::load_latest(&dir).expect("restore");
        assert_eq!(seq, 1, "the newest cut is gone: fall back one");
        assert!(
            older.cursors[0].0 < newest.cursors[0].0
                && older.egress.next_seq < newest.egress.next_seq,
            "cut 1 is strictly behind cut 2 on both planes"
        );
        image = older;
    }
    assert!(
        image.egress.next_seq > 0,
        "the egress image captured retained frames"
    );
    assert!(
        cell.lose_newest_cut || image.egress.cursors.iter().any(|&(id, _)| id == 77),
        "the watcher's cursor persisted through the checkpoint"
    );
    let restored_cursor = image.cursors[0].0;
    let restored_tail = image.egress.next_seq;
    let buf2 = Arc::new(EpochBuffer::restore(&image.egress, retain_all()).expect("egress restore"));
    let registry = MetricsRegistry::new();
    let mut sub_server = SubServer::bind_with_metrics(
        "127.0.0.1:0",
        Arc::clone(&buf2),
        SubConfig::new(),
        &registry,
    )
    .expect("sub rebind");
    let sub_addr2 = sub_server.local_addr().to_string();
    // The crashed watcher reconnects at its next unseen sequence — and is
    // welcomed before the restored merge emits anything, so a cursor ahead
    // of the restored cut meets a buffer that is still behind it.
    let resume_at = part1.frames.last().map(|(s, _, _)| s + 1).unwrap();
    assert_eq!(
        resume_at > restored_tail,
        cell.lose_newest_cut,
        "the lost-cut cell, and only it, has the subscriber ahead of the restore"
    );
    let stitched_tail = {
        let sub_addr2 = sub_addr2.clone();
        thread::spawn(move || {
            subscribe_until_finished(
                &sub_addr2,
                &SubscribeConfig::new(77).with_resume_from(resume_at),
                10,
            )
            .expect("resume")
        })
    };
    while registry.sum_value("lmerge_sub_sessions_opened_total") != Some(1.0) {
        thread::sleep(Duration::from_millis(1));
    }
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).expect("rebind");
    server.restore_cursors(&image.cursors);
    let addr = server.local_addr().to_string();
    let feed2 = feed.clone();
    let ingest = thread::spawn(move || {
        replay_until_clean(&addr, &feed2, &ReplayConfig::new(0), 10).expect("rejoin")
    });
    // An uninterrupted observer replays the whole stream from 0.
    let uninterrupted =
        thread::spawn(move || subscribe(&sub_addr2, &SubscribeConfig::new(88)).expect("observer"));
    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let mut merge = new_for_level(RLevel::R3, 1, MergePolicy::default());
    assert!(merge.restore_state(image.merge), "image matches the level");
    let mut output = OutputHook::new().broadcast(Arc::clone(&buf2));
    MergeRun::new(queries, merge, RunConfig::default()).run_with_hooks(&mut NullSink, &mut output);
    server.await_sessions_closed(Duration::from_secs(5));
    output.finish().expect("no file, no I/O error");
    let tail = stitched_tail.join().expect("stitched tail");
    let uninterrupted = uninterrupted.join().expect("uninterrupted");
    assert!(sub_server.await_sessions_closed(Duration::from_secs(5)));
    let ingest_outcome = ingest.join().unwrap();
    assert!(ingest_outcome.clean);
    assert_eq!(
        ingest_outcome.resumed_from, restored_cursor,
        "the replica resumed from the restored cut's cursor"
    );
    server.shutdown();
    sub_server.shutdown();

    // Exactly-once across both crashes: the watcher's incarnation-1
    // prefix plus its resumed tail is byte-identical to the subscriber
    // that never saw a failure.
    assert!(tail.clean && tail.finished);
    assert!(uninterrupted.clean && uninterrupted.finished);
    // A watcher ahead of the restored cut is clamped down to its tail: it
    // is re-sent frames it holds and must drop them.
    assert_eq!(
        tail.resumed_from,
        resume_at.min(restored_tail),
        "resume cursor honored up to the restored tail"
    );
    let mut stitched = part1.bytes.clone();
    stitched.extend_from_slice(&tail.bytes);
    assert_eq!(
        stitched, uninterrupted.bytes,
        "restart lost or duplicated subscriber output"
    );
    assert_eq!(
        part1.received + tail.received,
        uninterrupted.received,
        "frame counts disagree"
    );
    let observed: Vec<Element<Value>> = uninterrupted
        .frames
        .iter()
        .map(|(_, _, e)| e.clone())
        .collect();
    assert_eq!(
        observed, unkilled,
        "the restarted stream is the unkilled one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance bar: a subscriber severed mid-stream reconnects with
/// `resume_from` across a **merge-process restart from a checkpoint**
/// and still sees every frame exactly once — its stitched bytes are
/// identical to a subscriber that watched an uninterrupted stream.
#[test]
fn subscriber_resume_is_exactly_once_across_merge_restart() {
    subscriber_resume_across_merge_restart(RestartCell {
        tag: "newest",
        watcher_frames: 5,
        lose_newest_cut: false,
    });
}

/// The crash window of the cut/persist split: the merge died after cut 2
/// was *taken* — and the run had moved on, streaming output sealed by it —
/// but before the writer made it durable. The restore falls back to cut
/// 1: the replica is asked to resume from cut 1's cursor, the merge
/// re-emits what lay between the cuts, and the subscriber — ahead of the
/// restored cut — drops that overlap. Nothing lost, nothing twice.
#[test]
fn lost_newest_cut_restores_one_back_and_stays_exactly_once() {
    subscriber_resume_across_merge_restart(RestartCell {
        tag: "lost",
        watcher_frames: 22,
        lose_newest_cut: true,
    });
}
