//! Crash-recovery differential conformance: run, checkpoint, kill,
//! restore, replay — and require the stitched-together run to be
//! **byte-identical** to one that never died.
//!
//! Every scenario drives the same seeded chaos workload twice:
//!
//! 1. a reference run that checkpoints at every finite advance of the
//!    output stable point but is never killed, and
//! 2. a chain of incarnations of the same run, each halted right after a
//!    chosen checkpoint lands on disk, restored from the newest
//!    snapshot + delta chain in the directory, and resumed.
//!
//! The determinism contract is the strongest equality the repo has: the
//! concatenated JSONL obs traces of the incarnations must equal the
//! reference trace byte for byte (which subsumes the merged output — every
//! emitted element is a trace event), and the final merge-side stats and
//! completion time must match exactly.

use lmerge::chaos::{general_feeds, restricted_feeds, ChaosConfig, Chunker, Variant, ALL_VARIANTS};
use lmerge::core::LogicalMerge;
use lmerge::durable::{CheckpointStore, DurableCheckpointSink};
use lmerge::engine::{MergeRun, NoHooks, Operator, Query, RunConfig, RunMetrics, TimedElement};
use lmerge::obs::export::to_jsonl;
use lmerge::obs::Tracer;
use lmerge::properties::RLevel;
use lmerge::temporal::Value;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lmerge-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Memory sampling off: capacity-based accounting is not restorable state,
/// so recovery byte-identity is defined over runs without `MemorySampled`.
fn run_config() -> RunConfig {
    RunConfig {
        mem_sample_every: 0,
        ..RunConfig::default()
    }
}

fn feeds_for(level: RLevel, cfg: &ChaosConfig) -> Vec<Vec<TimedElement<Value>>> {
    if level >= RLevel::R3 {
        general_feeds(cfg).1
    } else {
        restricted_feeds(cfg).1
    }
}

fn queries(feeds: &[Vec<TimedElement<Value>>], chunk: usize) -> Vec<Query<Value>> {
    feeds
        .iter()
        .map(|f| {
            let chain: Vec<Box<dyn Operator<Value>>> = vec![Box::new(Chunker::new(chunk))];
            Query::new(f.clone(), chain)
        })
        .collect()
}

/// A fresh sink over `dir`, snapshotting only at seq 0 so the reference
/// and the restarted chain agree on every `delta` flag (a reopened store
/// always deltas against its restored base; a mid-chain re-snapshot
/// cadence would depend on where the kill fell). Restores still replay the
/// full snapshot + delta chain.
fn sink(dir: &PathBuf) -> DurableCheckpointSink<Value> {
    let store = CheckpointStore::create(dir)
        .expect("checkpoint dir")
        .with_snapshot_every(u64::MAX);
    DurableCheckpointSink::new(store)
}

/// Run the workload once unkilled, then as `kill_seqs.len() + 1`
/// incarnations killed right after each named checkpoint, and assert the
/// stitched run is indistinguishable from the reference.
fn assert_recovery_byte_identical(
    tag: &str,
    build: &dyn Fn() -> Box<dyn LogicalMerge<Value>>,
    feeds: &[Vec<TimedElement<Value>>],
    config: RunConfig,
    kill_seqs: &[u64],
) {
    // Reference: checkpoints at the same cuts, never killed.
    let ref_dir = tmp_dir(&format!("{tag}-ref"));
    let mut ref_sink = sink(&ref_dir);
    let mut ref_trace = Tracer::new();
    let ref_metrics = MergeRun::new(queries(feeds, 4), build(), config).run_checkpointed(
        &mut ref_trace,
        &mut NoHooks,
        &mut ref_sink,
    );
    assert!(ref_sink.error.is_none(), "{tag}: reference persistence");
    assert!(ref_metrics.output_complete_at.is_some());
    let cuts = ref_sink.store().next_seq();
    let last_kill = *kill_seqs.last().expect("at least one kill");
    assert!(
        cuts > last_kill + 1,
        "{tag}: workload too small — {cuts} checkpoints, last kill at {last_kill}"
    );
    let ref_jsonl = to_jsonl(ref_trace.events());

    // The killed chain shares one live checkpoint directory, like a real
    // process restarting in place.
    let dir = tmp_dir(&format!("{tag}-live"));
    let mut stitched = String::new();
    let mut trace = Tracer::new();
    let mut first_sink = sink(&dir).halt_after(kill_seqs[0]);
    let killed = MergeRun::new(queries(feeds, 4), build(), config).run_checkpointed(
        &mut trace,
        &mut NoHooks,
        &mut first_sink,
    );
    assert!(first_sink.error.is_none());
    assert!(
        killed.output_complete_at.is_none(),
        "{tag}: the kill must land mid-run"
    );
    stitched.push_str(&to_jsonl(trace.events()));

    let mut final_metrics: Option<RunMetrics> = None;
    for (i, halt) in kill_seqs[1..]
        .iter()
        .map(|s| Some(*s))
        .chain(std::iter::once(None))
        .enumerate()
    {
        let (seq, image) =
            CheckpointStore::<Value>::load_latest(&dir).expect("restorable checkpoint");
        assert_eq!(seq, kill_seqs[i], "{tag}: restored the kill-point cut");
        let mut merge = build();
        assert!(
            merge.restore_state(image.merge.clone()),
            "{tag}: image restores into a fresh build"
        );
        let mut resume_sink = sink(&dir);
        if let Some(s) = halt {
            resume_sink = resume_sink.halt_after(s);
        }
        let mut resume_trace = Tracer::new();
        let metrics = MergeRun::resumed(queries(feeds, 4), merge, config, image.exec)
            .run_checkpointed(&mut resume_trace, &mut NoHooks, &mut resume_sink);
        assert!(resume_sink.error.is_none());
        stitched.push_str(&to_jsonl(resume_trace.events()));
        match halt {
            Some(_) => assert!(
                metrics.output_complete_at.is_none(),
                "{tag}: second kill must land mid-restore"
            ),
            None => final_metrics = Some(metrics),
        }
    }

    let final_metrics = final_metrics.unwrap();
    assert_eq!(
        ref_jsonl, stitched,
        "{tag}: stitched trace differs from the unkilled run"
    );
    assert_eq!(
        ref_metrics.merge, final_metrics.merge,
        "{tag}: merge stats survive recovery"
    );
    assert_eq!(
        ref_metrics.output_complete_at, final_metrics.output_complete_at,
        "{tag}: completion time survives recovery"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-restore-replay across the whole spectrum: each of the six variants
/// is killed right after checkpoint 1 and must recover byte-identically.
#[test]
fn every_variant_recovers_byte_identically() {
    let cfg = ChaosConfig::small(0xD0_0001);
    for v in ALL_VARIANTS {
        let feeds = feeds_for(v.level(), &cfg);
        let build = move || v.build(cfg.n_inputs, cfg.robustness);
        assert_recovery_byte_identical(v.name(), &build, &feeds, run_config(), &[1]);
    }
}

/// A second crash while the first restore is still catching up: the chain
/// kill → restore → kill → restore must still stitch byte-identically.
#[test]
fn second_kill_mid_restore_recovers() {
    let cfg = ChaosConfig {
        events: 240,
        ..ChaosConfig::small(0xD0_0003)
    };
    for v in [Variant::R3, Variant::R4] {
        let feeds = feeds_for(v.level(), &cfg);
        let build = move || v.build(cfg.n_inputs, cfg.robustness);
        assert_recovery_byte_identical(
            &format!("{}-double", v.name()),
            &build,
            &feeds,
            run_config(),
            &[1, 3],
        );
    }
}
