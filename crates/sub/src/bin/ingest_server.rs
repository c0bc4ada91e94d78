//! `lmerge-ingest`: bind an ingest server, merge N networked inputs, and
//! fan the merged stream out — to a file, and/or live to subscribers.
//!
//! ```text
//! lmerge-ingest --addr 127.0.0.1:7171 --inputs 3 --level r3 --out merged.bin \
//!     --subscribe 127.0.0.1:7172 --filter mod:2:0 --metrics 127.0.0.1:9901
//! ```
//!
//! The process exits once every input has delivered a clean `Bye`, the
//! merge has drained, and subscriber sessions have finished their close
//! handshakes, printing a run summary to stdout. The merge thread reads the
//! input connections itself; a connection has a thread of its own only for
//! its handshake, so while replicas stream the process runs the main
//! (merge) thread, the accept loops, the `--metrics` endpoint and the
//! checkpoint writer — and no thread per input or per subscriber: the
//! merge thread writes the subscriber sockets itself, at every flush of the
//! broadcast buffer, and after the merge `SubServer::await_sessions_closed`
//! does. Both outputs leave the
//! merge through one `lmerge_sub::OutputHook`; if the `--out` file fails
//! (a full disk), the run and the subscribers carry on, and the process
//! reports the error and exits non-zero at the end. With `--metrics` a
//! Prometheus scrape endpoint runs for the life of the process (ingest,
//! engine *and* subscriber series) and evaluates the default SLO rules at
//! each scrape; the summary's `alerts fired: N` line reads them back. The
//! registry is the server's only account of the run: it keeps no trace.
//! `--subscribe HOST:PORT` serves the merged
//! output live through the broadcast buffer, flushed and written to the
//! subscribers before every wait of the merge thread, every 32 KiB, and at
//! every stable advance;
//! `--filter SPEC` (repeatable; `all`, `mod:M:R`, `range:LO:HI`) adds
//! filter classes subscribers can pick — class 0 is always the full
//! stream.
//!
//! `--checkpoint-to DIR` captures a durable checkpoint (merge + executor
//! image + per-input transport cursors + the broadcast buffer's retained
//! window and subscriber cursors) at every finite advance of the output
//! stable point. The merge thread only *cuts* — polls the cursors that must
//! agree with the image and hands it over; a writer thread encodes, writes
//! and fsyncs, at most one cut behind (`lmerge_checkpoint_*` on `--metrics`
//! shows the stall that is left and what the disk takes). After a crash, `--restore-from DIR` rebuilds the merge
//! *and* the broadcast buffer from the newest checkpoint, so both
//! rejoining replayers and reconnecting subscribers resume exactly-once;
//! `lmerge_checkpoint_restores_total` counts the rebuild.
//!
//! `--level` is `r3` (the default) or `r4`. R0–R2 (Sec. IV-A–C) trust an
//! order contract — insert-only, `Vs` in order — that no replica on the
//! wire is held to: one `Adjust` would panic them. They stay in the
//! library, where a plan gets its level from `properties` analysis
//! (Sec. III-C, IV-G).

use lmerge_core::{new_for_level, MergePolicy};
use lmerge_durable::{CheckpointStore, DurableCheckpointSink};
use lmerge_engine::{MergeRun, NoCheckpoint, Query, RunConfig, RunImage};
use lmerge_net::server::{IngestConfig, IngestServer};
use lmerge_obs::{
    default_rules, AlertEngine, CheckpointMetrics, EngineMetrics, MeteredSink, MetricsRegistry,
    MetricsServer, NullSink,
};
use lmerge_properties::RLevel;
use lmerge_sub::{EpochBuffer, OutputHook, SubConfig, SubFilter, SubPolicy, SubServer};
use lmerge_temporal::Value;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    addr: String,
    inputs: usize,
    level: RLevel,
    out: Option<String>,
    metrics: Option<String>,
    checkpoint_to: Option<String>,
    restore_from: Option<String>,
    subscribe: Option<String>,
    filters: Vec<SubFilter>,
}

/// The levels the server runs: the two that take any order and adjusts.
fn parse_level(s: &str) -> Option<RLevel> {
    match s {
        "r3" => Some(RLevel::R3),
        "r4" => Some(RLevel::R4),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_string(),
        inputs: 3,
        level: RLevel::R3,
        out: None,
        metrics: None,
        checkpoint_to: None,
        restore_from: None,
        subscribe: None,
        filters: vec![SubFilter::All],
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--inputs" => {
                args.inputs = value("--inputs")?
                    .parse()
                    .map_err(|e| format!("--inputs: {e}"))?
            }
            "--level" => {
                let s = value("--level")?;
                args.level = parse_level(&s).ok_or(format!(
                    "--level: {s:?} is not r3|r4 (R0-R2 are library-only: \
                     no replica on the wire is bound by their order contract)"
                ))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--checkpoint-to" => args.checkpoint_to = Some(value("--checkpoint-to")?),
            "--restore-from" => args.restore_from = Some(value("--restore-from")?),
            "--subscribe" => args.subscribe = Some(value("--subscribe")?),
            "--filter" => {
                let s = value("--filter")?;
                args.filters
                    .push(SubFilter::parse(&s).ok_or(format!("--filter: bad spec {s:?}"))?);
            }
            "--help" | "-h" => {
                return Err("usage: lmerge-ingest [--addr HOST:PORT] [--inputs N] \
                     [--level r3|r4] [--out FILE] [--metrics HOST:PORT] \
                     [--checkpoint-to DIR] [--restore-from DIR] \
                     [--subscribe HOST:PORT] [--filter SPEC]..."
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let config = IngestConfig::new(args.inputs);
    let registry = MetricsRegistry::new();
    let mut server = match IngestServer::bind_with_metrics(&args.addr, config, &registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "listening on {} for {} inputs (level {:?})",
        server.local_addr(),
        args.inputs,
        args.level
    );

    // Restore before any client can connect: the resume handshake's
    // `Welcome` must already carry the checkpoint's consumed-frame
    // cursors when the first rejoining replayer says `Hello` — and the
    // broadcast buffer must already hold its retained window and
    // subscriber cursors when the first subscriber says `Subscribe`.
    let restored: Option<RunImage<Value>> = match &args.restore_from {
        Some(dir) => match CheckpointStore::<Value>::load_latest(dir) {
            Ok((seq, image)) => {
                server.restore_cursors(&image.cursors);
                println!(
                    "restored checkpoint {} from {dir} ({} entries, {} input cursors, \
                     {} subscriber cursors)",
                    seq,
                    image.merge.total_entries(),
                    image.cursors.len(),
                    image.egress.cursors.len()
                );
                Some(image)
            }
            Err(e) => {
                eprintln!("restore from {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // The broadcast buffer and subscriber server, when fan-out is on.
    let sub_policy = SubPolicy::default();
    let buf: Option<Arc<EpochBuffer>> = match &args.subscribe {
        Some(_) => {
            let buf = match &restored {
                Some(image) => match EpochBuffer::restore(&image.egress, sub_policy) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("restore broadcast buffer: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => EpochBuffer::new(sub_policy),
            };
            Some(Arc::new(buf))
        }
        None => None,
    };
    let sub_server: Option<SubServer> = match (&args.subscribe, &buf) {
        (Some(addr), Some(buf)) => {
            let sub_config = SubConfig {
                filters: args.filters.clone(),
            };
            match SubServer::bind_with_metrics(addr, Arc::clone(buf), sub_config, &registry) {
                Ok(s) => {
                    println!(
                        "subscriptions on {} ({} filter classes)",
                        s.local_addr(),
                        args.filters.len()
                    );
                    Some(s)
                }
                Err(e) => {
                    eprintln!("subscribe bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => None,
    };

    let _metrics_server = match &args.metrics {
        Some(addr) => {
            let engine = AlertEngine::new(&registry, default_rules());
            match MetricsServer::bind_with_alerts(addr.as_str(), registry.clone(), engine) {
                Ok(s) => {
                    println!("metrics on http://{}/metrics", s.local_addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("metrics bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    let queries: Vec<Query<_>> = server
        .sources()
        .into_iter()
        .map(|src| {
            // Output leaves before every wait of the merge thread (and
            // every 32 KiB), not only when punctuation seals an epoch: the
            // flush writes the subscriber sockets on this thread.
            let src = match &buf {
                Some(b) => {
                    let b = Arc::clone(b);
                    src.on_quiet(move || b.flush())
                }
                None => src,
            };
            Query::from_source(Box::new(src), Vec::new())
        })
        .collect();
    let mut lmerge = new_for_level(args.level, args.inputs, MergePolicy::default());
    // Registered on every run, so a scrape always says whether this
    // process started from a checkpoint.
    let restores = registry.counter(
        "lmerge_checkpoint_restores_total",
        "Runs rebuilt from a durable checkpoint.",
        &[],
    );
    if let Some(image) = restored {
        if !lmerge.restore_state(image.merge) {
            eprintln!("checkpoint kind does not match --level {:?}", args.level);
            return ExitCode::FAILURE;
        }
        restores.inc();
    }

    // Streaming, not collecting: a long-lived server must not grow an
    // unbounded output Vec. The broadcast buffer (bounded by subscriber
    // cursors, and only there when someone can subscribe to drain it) and
    // the optional egress file are the outputs.
    let mut output = OutputHook::new();
    if let Some(b) = &buf {
        output = output.broadcast(Arc::clone(b));
    }
    if let Some(path) = &args.out {
        match std::fs::File::create(path) {
            Ok(f) => output = output.write_to(Box::new(BufWriter::new(f))),
            Err(e) => {
                eprintln!("create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The registry is the server's only account of the run: every event
    // is folded into its series, and none is kept.
    let mut sink = MeteredSink::new(NullSink, EngineMetrics::new(&registry));

    // A restored run uses a fresh executor over the restored merge — NOT
    // the replay-based `MergeRun::resumed`, whose re-pulls would consume
    // live socket data. Continuity comes from the restored state plus the
    // transport resume handshake skipping the consumed prefix.
    let run = MergeRun::new(queries, lmerge, RunConfig::default());
    let mut ck_sink: Option<DurableCheckpointSink<Value>> = match &args.checkpoint_to {
        Some(dir) => match CheckpointStore::create(dir) {
            Ok(store) => {
                let cursors = server.cursor_handle();
                let mut sink = DurableCheckpointSink::new(store)
                    .with_metrics(CheckpointMetrics::new(&registry))
                    .with_cursor_source(Box::new(move || cursors.cursors()));
                if let Some(b) = &buf {
                    // Polled on the executor thread inside save() — the
                    // cut — so the egress image is exactly consistent with
                    // the merge image; only encoding and writing them
                    // happens later, on the sink's writer thread.
                    let b = Arc::clone(b);
                    sink = sink.with_egress_source(Box::new(move || b.image()));
                }
                Some(sink)
            }
            Err(e) => {
                eprintln!("checkpoint dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let metrics = match &mut ck_sink {
        Some(ck) => run.run_checkpointed(&mut sink, &mut output, ck),
        None => run.run_checkpointed(&mut sink, &mut output, &mut NoCheckpoint),
    };
    let emitted = output.emitted();

    // The merge drains at watermark = ∞, which a paced client reaches
    // while its final `Bye` round trip is still in flight; give the
    // close handshakes a moment so teardown doesn't sever them. Same for
    // subscribers: seal the stream first (and close the egress file) so
    // their sessions see Finished and run the Bye handshake, in the passes
    // `await_sessions_closed` runs once the merge thread no longer flushes.
    // Until then the subscribers are served at every wait, as during the
    // merge: a socket that was full at the last flush still drains.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    server.serve_until(|| {
        if let Some(b) = &buf {
            b.flush();
        }
        server.sessions_closed() || std::time::Instant::now() >= deadline
    });
    let written = output.finish();
    if let Some(s) = &sub_server {
        s.await_sessions_closed(std::time::Duration::from_secs(5));
    }

    println!(
        "merged {} elements from {} inputs in {} virtual µs",
        emitted, args.inputs, metrics.drained_at.0
    );
    // Read back from the series the scrape endpoint serves.
    let samples = registry.samples();
    let per_input = |name: &str, i: usize| {
        let id = i.to_string();
        samples
            .iter()
            .find(|s| s.name == name && s.label("input") == Some(id.as_str()))
            .map_or(0, |s| s.value as u64)
    };
    for i in 0..args.inputs {
        println!(
            "input {i}: {} session(s), {} clean close(s), {} credits granted",
            per_input("lmerge_net_sessions_opened_total", i),
            per_input("lmerge_net_session_closes_clean_total", i),
            per_input("lmerge_net_credits_granted_total", i)
        );
    }
    if let Some(mut s) = sub_server {
        let opened = registry
            .sum_value("lmerge_sub_sessions_opened_total")
            .unwrap_or(0.0);
        let clean = registry
            .sum_value("lmerge_sub_session_closes_clean_total")
            .unwrap_or(0.0);
        let demotions = registry
            .sum_value("lmerge_sub_demotions_total")
            .unwrap_or(0.0);
        println!(
            "subscribers: {opened} session(s), {clean} clean close(s), {demotions} demotion(s)"
        );
        s.shutdown();
    }
    if args.metrics.is_some() {
        let fired = registry
            .sum_value("lmerge_alerts_fired_total")
            .unwrap_or(0.0);
        println!("alerts fired: {fired}");
    }
    let mut failed = false;
    if let Some(path) = &args.out {
        match written {
            Ok(()) => println!("merged stream written to {path}"),
            Err(e) => {
                eprintln!("writing merged stream to {path} failed: {e}");
                failed = true;
            }
        }
    }
    if let Some(ck) = &ck_sink {
        if let Some(e) = &ck.error {
            eprintln!("checkpointing failed mid-run: {e}");
            failed = true;
        } else {
            println!(
                "{} checkpoint(s) in {}",
                ck.store().next_seq(),
                args.checkpoint_to.as_deref().unwrap_or("?")
            );
        }
    }
    server.shutdown();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_r3_and_r4_are_served() {
        for refused in ["r0", "r1", "r2", "R3", ""] {
            assert_eq!(parse_level(refused), None, "{refused:?}");
        }
        assert_eq!(parse_level("r3"), Some(RLevel::R3));
        assert_eq!(parse_level("r4"), Some(RLevel::R4));
    }
}
