//! The cut/persist split must be invisible on disk and in the run's trace:
//! the sink answers `(seq, delta)` at the cut, a writer thread persists
//! later, and both must be exactly what N synchronous
//! `CheckpointStore::save` calls would have answered and written — also
//! when the executor's cuts carry only the index tiers that changed.

use lmerge_core::{
    HealthTransitions, InputCounters, InputHealth, LMergeR3, LogicalMerge, MergePolicy,
    MergeStateImage, MergeStats, StateEntry, VariantKind,
};
use lmerge_durable::{CheckpointStore, DurableCheckpointSink};
use lmerge_engine::{
    CheckpointSave, CheckpointSink, EgressImage, ExecutorImage, MergeRun, NoHooks, Query,
    RunConfig, RunCut, RunImage, TimedElement,
};
use lmerge_obs::{NullSink, TraceEvent, Tracer};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, StreamId, Time, VTime};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
            frames: vec![Arc::new(vec![n as u8; 12])],
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
            let saved = sink.save(i.clone().into()).expect("cut accepted");
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
    let again = sink.save(image(7, 2).into()).expect("cut accepted");
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
        let saved = sink.save(image(k, 0).into()).expect("cut accepted");
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

/// Two replicas that disagree on every third end time, punctuated every
/// five elements, the second one a step ahead: sweeps correct and retire,
/// a correction can land on a node that stays live, and most live tiers
/// are settled — left alone — between two stable advances.
fn divergent(copy: u64) -> Vec<TimedElement<i32>> {
    let mut v = Vec::new();
    for i in 0..400i64 {
        let at = i as u64 * 10 + copy * 3;
        let ve = i + 30 + if i % 3 == 0 { copy as i64 * 5 } else { 0 };
        v.push(TimedElement::new(
            VTime(at),
            Element::insert((i * 7 % 50) as i32, i, ve),
        ));
        if i % 5 == 4 {
            let t = i - 20 + copy as i64;
            v.push(TimedElement::new(VTime(at + 1), Element::stable(t)));
        }
    }
    v.push(TimedElement::new(
        VTime(4000),
        Element::stable(Time::INFINITY),
    ));
    v
}

fn divergent_run(lmerge: Box<dyn LogicalMerge<i32>>) -> MergeRun<i32> {
    let queries = (0..2).map(|c| Query::passthrough(divergent(c))).collect();
    MergeRun::new(queries, lmerge, RunConfig::default())
}

fn r3() -> Box<dyn LogicalMerge<i32>> {
    Box::new(LMergeR3::with_policy(2, MergePolicy::paper_default()))
}

/// A merge whose every cut is whole: the trait's default `export_cut`,
/// over `export_state`.
struct Whole(Box<dyn LogicalMerge<i32>>);

impl LogicalMerge<i32> for Whole {
    fn push(&mut self, input: StreamId, e: &Element<i32>, out: &mut Vec<Element<i32>>) {
        self.0.push(input, e, out)
    }
    fn push_batch(&mut self, input: StreamId, es: &[Element<i32>], out: &mut Vec<Element<i32>>) {
        self.0.push_batch(input, es, out)
    }
    fn attach(&mut self, join_time: Time) -> StreamId {
        self.0.attach(join_time)
    }
    fn detach(&mut self, input: StreamId) {
        self.0.detach(input)
    }
    fn max_stable(&self) -> Time {
        self.0.max_stable()
    }
    fn feedback_point(&self) -> Time {
        self.0.feedback_point()
    }
    fn stats(&self) -> MergeStats {
        self.0.stats()
    }
    fn input_counters(&self) -> &[InputCounters] {
        self.0.input_counters()
    }
    fn input_health(&self, input: StreamId) -> InputHealth {
        self.0.input_health(input)
    }
    fn health_transitions(&self) -> HealthTransitions {
        self.0.health_transitions()
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
    fn level(&self) -> RLevel {
        self.0.level()
    }
    fn export_state(&self) -> Option<MergeStateImage<i32>> {
        self.0.export_state()
    }
}

/// The durable sink, counting the cuts that left a tier out.
struct Partial {
    inner: DurableCheckpointSink<i32>,
    cuts: u64,
    partial: u64,
}

impl CheckpointSink<i32> for Partial {
    fn enabled(&self) -> bool {
        true
    }
    fn want(&mut self, stable: Time, delivered: u64) -> bool {
        self.inner.want(stable, delivered)
    }
    fn save(&mut self, cut: RunCut<i32>) -> Option<CheckpointSave> {
        self.cuts += 1;
        self.partial += u64::from(cut.merge.image.total_entries() < cut.merge.entries);
        self.inner.save(cut)
    }
    fn finish(&mut self) {
        self.inner.finish()
    }
}

/// Full images, in cut order.
#[derive(Default)]
struct Images(Vec<RunImage<i32>>);

impl CheckpointSink<i32> for Images {
    fn enabled(&self) -> bool {
        true
    }
    fn want(&mut self, stable: Time, _delivered: u64) -> bool {
        let last = self.0.last().map_or(Time::MIN, |i| i.merge.max_stable);
        stable > last && stable != Time::INFINITY
    }
    fn save(&mut self, cut: RunCut<i32>) -> Option<CheckpointSave> {
        self.0.push(cut.into_image());
        Some(CheckpointSave {
            seq: self.0.len() as u64 - 1,
            delta: false,
            halt: false,
        })
    }
}

/// A real `MergeRun` cut by the executor — each cut carrying only the
/// tiers that changed — and persisted by the writer thread leaves the
/// directory that synchronous `CheckpointStore::save` calls of the full
/// images at the same cuts (`export_state()` there) leave.
#[test]
fn changed_tier_cuts_leave_the_directory_full_images_would() {
    let sink_dir = tmp_dir("changed-tiers");
    let store: CheckpointStore<i32> = CheckpointStore::create(&sink_dir).unwrap();
    let mut sink = Partial {
        inner: DurableCheckpointSink::new(store),
        cuts: 0,
        partial: 0,
    };
    divergent_run(r3()).run_checkpointed(&mut NullSink, &mut NoHooks, &mut sink);
    assert!(sink.inner.error.is_none(), "{:?}", sink.inner.error);
    assert!(sink.cuts > 50, "{} cuts", sink.cuts);
    assert!(
        sink.partial * 2 > sink.cuts,
        "{} of {} cuts left a tier out",
        sink.partial,
        sink.cuts
    );

    let mut full = Images::default();
    divergent_run(Box::new(Whole(r3()))).run_checkpointed(&mut NullSink, &mut NoHooks, &mut full);
    assert_eq!(full.0.len() as u64, sink.cuts, "the same cuts");
    let direct_dir = tmp_dir("full-images");
    let mut store: CheckpointStore<i32> = CheckpointStore::create(&direct_dir).unwrap();
    for image in &full.0 {
        store.save(image).unwrap();
    }

    let (a, b) = (listing(&direct_dir), listing(&sink_dir));
    assert_eq!(a.len() as u64, sink.cuts);
    assert_eq!(a.len(), b.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert!(bytes_a == bytes_b, "{name_a}: bytes differ");
    }
    std::fs::remove_dir_all(&direct_dir).unwrap();
    std::fs::remove_dir_all(&sink_dir).unwrap();
}
