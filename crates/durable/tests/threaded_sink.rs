//! The cut/persist split must be invisible on disk and in the run's trace:
//! the sink answers `(seq, delta)` at the cut, a writer thread persists
//! later, and both must be exactly what N synchronous
//! `CheckpointStore::save` calls would have answered and written.

use lmerge_core::{LMergeR3, LogicalMerge, MergePolicy, MergeStateImage, StateEntry, VariantKind};
use lmerge_durable::{CheckpointStore, DurableCheckpointSink};
use lmerge_engine::{
    CheckpointSink, EgressImage, ExecutorImage, MergeRun, NoHooks, Query, RunConfig, RunImage,
    TimedElement,
};
use lmerge_obs::{NullSink, TraceEvent, Tracer};
use lmerge_temporal::{Element, Time, VTime};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lmerge-threaded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn entry(k: i32, vs: i64) -> StateEntry<i32> {
    StateEntry {
        vs: Time(vs),
        payload: k,
        per_input: vec![(0, vec![(Time(vs + 9), 1)])],
        output: vec![(Time(vs + 9), 1)],
    }
}

/// Image `n` of a sliding window over keys: each differs from the last by
/// one removal at the front and two inserts at the back. `per_input`
/// per-input indexes give the image its shape.
fn image(n: u64, per_input: usize) -> RunImage<i32> {
    let mut merge = MergeStateImage::empty(VariantKind::R3);
    merge.max_stable = Time(n as i64 * 3);
    merge.entries = (n..2 * n + 3).map(|k| entry(k as i32, k as i64)).collect();
    merge.input_indexes = vec![vec![entry(n as i32, 0)]; per_input];
    RunImage {
        merge,
        exec: ExecutorImage {
            lmerge_ready: VTime(n * 10),
            delivered: n,
            seq: n,
            last_feedback: Time::MIN,
            input_stable_hw: vec![Time(n as i64)],
            output_stable_hw: Time(n as i64),
            pulls: vec![n],
            staged: vec![None],
        },
        cursors: vec![(n, n as i64)],
        egress: EgressImage {
            cursors: vec![(7, n)],
            base_seq: n,
            next_seq: n + 2,
            stable: Time(n as i64),
            frames: vec![n as u8; 12],
        },
    }
}

/// `(name, bytes)` of every file in `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn threaded_sink_and_direct_saves_leave_byte_identical_directories() {
    // Snapshot, two deltas, a forced re-snapshot (every = 2), a delta, a
    // snapshot forced by a shape change, and a delta in the new shape.
    let images: Vec<RunImage<i32>> = (0..7)
        .map(|n| image(n, if n < 5 { 0 } else { 2 }))
        .collect();
    let expect = vec![
        (0, false),
        (1, true),
        (2, true),
        (3, false),
        (4, true),
        (5, false),
        (6, true),
    ];

    let direct_dir = tmp_dir("direct");
    let mut store: CheckpointStore<i32> = CheckpointStore::create(&direct_dir)
        .unwrap()
        .with_snapshot_every(2);
    let direct: Vec<(u64, bool)> = images.iter().map(|i| store.save(i).unwrap()).collect();
    assert_eq!(direct, expect);

    let sink_dir = tmp_dir("sink");
    let store: CheckpointStore<i32> = CheckpointStore::create(&sink_dir)
        .unwrap()
        .with_snapshot_every(2);
    let mut sink = DurableCheckpointSink::new(store);
    let cut: Vec<(u64, bool)> = images
        .iter()
        .map(|i| {
            let saved = sink.save(i.clone()).expect("cut accepted");
            (saved.seq, saved.delta)
        })
        .collect();
    sink.finish();
    assert!(sink.error.is_none(), "{:?}", sink.error);
    assert_eq!(cut, expect, "answered at the cut, before the write");
    assert_eq!(sink.store().next_seq(), 7);

    let (a, b) = (listing(&direct_dir), listing(&sink_dir));
    assert_eq!(a.len(), 7);
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(bytes_a.len(), bytes_b.len(), "{name_a}");
        assert!(bytes_a == bytes_b, "{name_a}: bytes differ");
    }
    assert_eq!(a.len(), b.len());

    // A second run through the same sink picks the chain up where the
    // store was handed back.
    let again = sink.save(image(7, 2)).expect("cut accepted");
    sink.finish();
    assert_eq!((again.seq, again.delta), (7, true));
    let (seq, restored) = CheckpointStore::<i32>::load_latest(&sink_dir).unwrap();
    assert_eq!(seq, 7);
    assert_eq!(restored.merge, image(7, 2).merge);
    std::fs::remove_dir_all(&direct_dir).unwrap();
    std::fs::remove_dir_all(&sink_dir).unwrap();
}

/// The hand-off has depth one: when `save` returns for cut `k`, cut
/// `k - 1` is already on disk — whatever the writer's pace.
#[test]
fn a_cut_is_accepted_only_after_the_previous_one_is_durable() {
    let dir = tmp_dir("depth");
    let store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
    let mut sink = DurableCheckpointSink::new(store);
    for k in 0..12u64 {
        let saved = sink.save(image(k, 0)).expect("cut accepted");
        assert_eq!(saved.seq, k);
        if k > 0 {
            let (durable, _) = CheckpointStore::<i32>::load_latest(&dir).unwrap();
            assert!(durable >= k - 1, "cut {k} accepted with {durable} durable");
        }
    }
    sink.finish();
    assert_eq!(CheckpointStore::<i32>::load_latest(&dir).unwrap().0, 11);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn feed(stables: i64) -> Vec<TimedElement<i32>> {
    let mut v = Vec::new();
    for i in 0..stables {
        let at = i as u64 * 20;
        v.push(TimedElement::new(
            VTime(at),
            Element::insert(i as i32, i * 2 + 1, i * 2 + 40),
        ));
        v.push(TimedElement::new(
            VTime(at + 10),
            Element::stable(i * 2 + 2),
        ));
    }
    v.push(TimedElement::new(
        VTime(stables as u64 * 20),
        Element::stable(Time::INFINITY),
    ));
    v
}

fn merge_run(stables: i64) -> MergeRun<i32> {
    let lmerge: Box<dyn LogicalMerge<i32>> =
        Box::new(LMergeR3::with_policy(1, MergePolicy::paper_default()));
    MergeRun::new(
        vec![Query::passthrough(feed(stables))],
        lmerge,
        RunConfig::default(),
    )
}

/// A halting cut returns only once it is durable, and nothing was cut
/// beyond it: the moment `run_checkpointed` returns, the directory holds
/// exactly checkpoints `0..=k` and `load_latest` is `k`.
#[test]
fn a_halted_run_leaves_exactly_its_halting_cut_as_the_newest() {
    for k in [0u64, 1, 4] {
        let dir = tmp_dir(&format!("halt{k}"));
        let store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        let mut sink = DurableCheckpointSink::new(store).halt_after(k);
        let metrics = merge_run(8).run_checkpointed(&mut NullSink, &mut NoHooks, &mut sink);
        assert!(metrics.output_complete_at.is_none(), "halted mid-run");
        assert_eq!(CheckpointStore::<i32>::load_latest(&dir).unwrap().0, k);
        assert_eq!(listing(&dir).len() as u64, k + 1, "no cut ran ahead");
        assert!(sink.error.is_none());
        assert_eq!(sink.store().next_seq(), k + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An unhalted run drains the writer before it returns: every cut the
/// trace announced is on disk, under the kind the trace announced.
#[test]
fn a_completed_run_has_persisted_every_cut_its_trace_announced() {
    let dir = tmp_dir("complete");
    let store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
    let mut sink = DurableCheckpointSink::new(store);
    let mut trace = Tracer::new();
    let metrics = merge_run(8).run_checkpointed(&mut trace, &mut NoHooks, &mut sink);
    assert!(metrics.output_complete_at.is_some());
    let announced: Vec<String> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::CheckpointTaken { seq, delta, .. } => Some(format!(
                "ck-{seq:08}-{}.lmck",
                if *delta { "delta" } else { "snap" }
            )),
            _ => None,
        })
        .collect();
    assert_eq!(announced.len(), 8, "one cut per finite stable advance");
    let on_disk: Vec<String> = listing(&dir).into_iter().map(|(name, _)| name).collect();
    assert_eq!(announced, on_disk);
    std::fs::remove_dir_all(&dir).unwrap();
}
