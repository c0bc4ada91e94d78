//! One repetition of a workload: set up, drive, observe, verify.

use crate::loadgen::{self, Received, Schedule, Sent};
use crate::oracle::{self, Reference};
use crate::spans::Spans;
use crate::stats;
use crate::sut::{self, Scraped, Sut, SutConfig};
use crate::workload::{encode_feed, Drive, EncodedFeed, Workload};
use lmerge::engine::{MergeRun, Query, RunConfig, RunHooks, RunMetrics, Source, TimedElement};
use lmerge::obs::NullSink;
use lmerge::temporal::{Element, VTime, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// A hung server or generator is killed this long into a repetition.
const REP_DEADLINE: Duration = Duration::from_secs(30);

/// Where a repetition runs and what it may touch.
pub struct Env<'a> {
    pub sut_binary: &'a Path,
    /// Scratch space inside the checkout (checkpoint directories).
    pub out_dir: &'a Path,
    /// Divide every workload's size by this (`--quick`).
    pub shrink: usize,
    /// CPUs the server is confined to, when pinning is on.
    pub sut_cpus: Option<&'a str>,
}

/// What the oracle expects of every repetition of one `(workload, seed)`:
/// computed once, outside every timed region.
pub struct Expect {
    pub reference: Reference,
    pub copies: Vec<Option<Vec<Option<usize>>>>,
    /// `Err` when the reference output itself breaks C1–C3.
    pub compat: Result<(), String>,
}

impl Expect {
    pub fn of(feeds: &[Vec<TimedElement<Value>>]) -> Expect {
        let reference = oracle::reference(feeds);
        let copies = oracle::match_copies(feeds, &reference.output);
        let compat = oracle::check_compat(feeds, &reference.output);
        Expect {
            reference,
            copies,
            compat,
        }
    }
}

/// Everything one repetition measured.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub feed_build_s: f64,
    pub encode_prep_s: f64,
    pub handshake_ms: f64,
    /// Input elements across all replicas.
    pub elements: usize,
    /// Elements of replica 0 (the denominator of `out_per_in`).
    pub replica0_elements: usize,
    pub wire_bytes_in: usize,
    pub out_frames: usize,
    pub wall_s: f64,
    /// Sorted ascending (see `set_latencies`).
    pub latency_ms: Vec<f64>,
    pub fast_path: usize,
    pub epoch_hold_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub peak_rss_kib: u64,
    pub state_peak_bytes: usize,
    /// Mean of the run's memory samples (one every 256 batches).
    pub state_mean_bytes: f64,
    pub inserts_in: u64,
    pub inserts_out: u64,
    pub loadgen_cpu_s: f64,
    pub ckpt_bytes: u64,
    pub ckpts: u64,
    /// Operations that failed the oracle or the protocol, and why.
    pub failed: u64,
    pub notes: Vec<String>,
    /// Traced repetitions only.
    pub scraped: HashMap<String, Scraped>,
    pub threads_peak: u64,
    pub ctxt: (u64, u64),
    /// The checkpoint directory the server left (traced runs keep it for
    /// the recovery measurement; the caller removes it).
    pub ckpt_dir: Option<PathBuf>,
}

impl Rep {
    /// Count `n` failed operations under one explanation.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.notes.push(why.into());
        }
    }

    pub fn throughput_eps(&self) -> f64 {
        self.elements as f64 / self.wall_s
    }

    pub fn cpu_us_per_elem(&self) -> f64 {
        (self.cpu_user_s + self.cpu_sys_s) * 1e6 / self.elements as f64
    }

    /// Store the repetition's latency samples, sorted once for every
    /// quantile read off them later.
    fn set_latencies(&mut self, mut ms: Vec<f64>) {
        stats::sort(&mut ms);
        self.latency_ms = ms;
    }

    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.latency_ms.is_empty() {
            0.0
        } else {
            stats::quantile_sorted(&self.latency_ms, q)
        }
    }
}

type Feeds = Vec<Vec<TimedElement<Value>>>;

/// Build the repetition's feeds, charging the time to `rep`.
fn prepare(w: &Workload, seed: u64, shrink: usize, rep: &mut Rep, spans: &mut Spans) -> Feeds {
    let t = Instant::now();
    let feeds = spans.span("gen.feed_build", || w.feeds(seed, shrink));
    rep.feed_build_s = t.elapsed().as_secs_f64();
    rep.elements = feeds.iter().map(Vec::len).sum();
    rep.replica0_elements = feeds[0].len();
    feeds
}

/// Due times for an open loop: a frame is due at its virtual stamp,
/// replica 1 a fixed lag later.
fn schedules(w: &Workload, feeds: &[Vec<TimedElement<Value>>]) -> Vec<Schedule> {
    feeds
        .iter()
        .enumerate()
        .map(|(r, feed)| match w.drive {
            Drive::Open { lag_ms, .. } => {
                let lag_ns = if r == 1 { lag_ms * 1_000_000 } else { 0 };
                Some(feed.iter().map(|te| te.at.0 * 1_000 + lag_ns).collect())
            }
            Drive::Closed | Drive::Embed => None,
        })
        .collect()
}

/// What a wire repetition hands to [`verify_wire`].
struct WireRun {
    feeds: Feeds,
    schedules: Vec<Schedule>,
    sent: Sent,
    received: Received,
}

/// Run one repetition of a wire workload against a fresh server, and
/// return it with what [`verify_wire`] needs to hold it against the oracle.
///
/// `traced` turns the server's `--metrics` endpoint on and holds the
/// replicas' `Bye`s until the subscriber has all of that expectation's
/// output, so the server can be inspected whole.
fn wire_rep(
    w: &Workload,
    seed: u64,
    env: &Env<'_>,
    traced: Option<&Expect>,
    spans: &mut Spans,
) -> Result<(Rep, WireRun), String> {
    let mut rep = Rep::default();
    let setup_start = Instant::now();
    let feeds = prepare(w, seed, env.shrink, &mut rep, spans);
    let t = Instant::now();
    let encoded: Vec<EncodedFeed> = spans.span("gen.encode_prep", || {
        feeds.iter().map(|f| encode_feed(f)).collect()
    });
    rep.encode_prep_s = t.elapsed().as_secs_f64();
    let schedules = schedules(w, &feeds);

    let ckpt_dir = w.checkpoint.then(|| {
        env.out_dir
            .join(format!("ckpt-{}-{}", std::process::id(), unique()))
    });
    if let Some(dir) = &ckpt_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let sut = spans.span("sut.spawn", || {
        Sut::spawn(&SutConfig {
            binary: env.sut_binary,
            inputs: w.replicas,
            checkpoint_dir: ckpt_dir.as_deref(),
            metrics: traced.is_some(),
            cpus: env.sut_cpus,
        })
    })?;
    let t = Instant::now();
    let (sessions, subscription) = spans.span("net.handshake", || {
        let sessions = (0..w.replicas as u32)
            .map(|i| loadgen::open_replica(&sut.ingest_addr, i))
            .collect::<Result<Vec<_>, _>>()?;
        let subscription = loadgen::open_subscription(&sut.subscribe_addr)?;
        Ok::<_, String>((sessions, subscription))
    })?;
    rep.handshake_ms = t.elapsed().as_secs_f64() * 1e3;
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    let deadline = Instant::now() + REP_DEADLINE;
    let pid = sut.pid();
    let frames_received = AtomicUsize::new(0);
    // A traced run holds the replicas' Byes back until the subscriber has
    // the whole output, then looks at the server while every one of its
    // threads is still alive.
    let mut observed = None;
    let mut observe = || {
        let want = traced.map_or(0, |e| e.reference.output.len());
        let patience = Instant::now() + Duration::from_secs(5);
        while frames_received.load(Ordering::Relaxed) < want && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        let scraped = sut
            .metrics_addr
            .as_deref()
            .map(sut::scrape)
            .and_then(Result::ok)
            .map(|text| sut::parse_prometheus(&text))
            .unwrap_or_default();
        let threads = sut::read_proc(pid).map_or(0, |(_, s)| s.threads);
        observed = Some((scraped, threads, sut::read_ctxt_switches(pid)));
    };
    let hold: Option<&mut (dyn FnMut() + Send)> = if traced.is_some() {
        Some(&mut observe)
    } else {
        None
    };
    let (sent, received) = spans.span("loadgen.drive", || {
        std::thread::scope(|scope| {
            let receiver =
                scope.spawn(|| loadgen::receive_all(subscription, pid, deadline, &frames_received));
            let sender =
                scope.spawn(|| loadgen::send_all(sessions, &encoded, &schedules, deadline, hold));
            let sent = sender.join().map_err(|_| "sender panicked".to_string())?;
            let received = receiver
                .join()
                .map_err(|_| "receiver panicked".to_string())?;
            Ok::<_, String>((sent?, received?))
        })
    })?;
    let (exit_ok, tail) = spans.span("sut.exit", || sut.wait(deadline))?;
    if let Some((scraped, threads, ctxt)) = observed {
        rep.scraped = scraped;
        rep.threads_peak = threads;
        rep.ctxt = ctxt;
    }

    rep.wire_bytes_in = encoded.iter().map(EncodedFeed::data_bytes).sum();
    rep.out_frames = received.frames;
    match received.bye_at {
        Some(bye) => rep.wall_s = bye.duration_since(sent.start).as_secs_f64(),
        None => rep.fail(1, "subscriber never saw the server's Bye"),
    }
    match received.server_proc {
        Some((cpu, status)) => {
            rep.cpu_user_s = cpu.user_s;
            rep.cpu_sys_s = cpu.sys_s;
            rep.peak_rss_kib = status.vm_hwm_kib;
        }
        None => rep.fail(1, "server /proc entry unreadable at Bye"),
    }
    rep.loadgen_cpu_s = (sent.cpu_ns + received.cpu_ns) as f64 / 1e9;
    let unclean = sent.replicas.iter().filter(|r| !r.clean).count();
    rep.fail(unclean as u64, "replica session closed without a Bye echo");
    if !exit_ok {
        rep.fail(1, "server exited with a failure status");
    }
    let clean_closes = tail
        .lines()
        .filter(|l| l.starts_with("input ") && l.contains(" 1 clean close(s)"))
        .count();
    if clean_closes != w.replicas {
        rep.fail(
            1,
            format!(
                "server reported {clean_closes} clean input closes, expected {}",
                w.replicas
            ),
        );
    }
    if let Some(dir) = ckpt_dir {
        rep.ckpt_bytes = sut::dir_bytes(&dir);
        rep.ckpts = std::fs::read_dir(&dir).map_or(0, |d| d.count() as u64);
        if traced.is_some() {
            rep.ckpt_dir = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok((
        rep,
        WireRun {
            feeds,
            schedules,
            sent,
            received,
        },
    ))
}

fn unique() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Hold a repetition's observations against the oracle and fill in the
/// numbers that need it (latency, fast path, state size).
fn verify_wire(rep: &mut Rep, expect: &Expect, run: WireRun) {
    let WireRun {
        feeds,
        schedules,
        sent,
        received,
    } = run;
    if let Err(e) = &expect.compat {
        rep.fail(1, e.clone());
    }
    let want = &expect.reference;
    if received.bytes != want.bytes {
        rep.fail(
            1,
            format!(
                "subscriber bytes differ from the in-process reference ({} of {} frames received)",
                received.frames,
                want.output.len()
            ),
        );
    }
    // Latency counts from when a frame was due (open loop) or written
    // (closed loop: there is no schedule to be late against).
    let mut origin_ns: Vec<Vec<u64>> = Vec::with_capacity(schedules.len());
    for (schedule, replica) in schedules.into_iter().zip(sent.replicas) {
        origin_ns.push(match schedule {
            Some(due) => {
                rep.late_ms.extend(
                    loadgen::lateness_ns(&replica.sent_ns, &due)
                        .into_iter()
                        .map(|ns| ns as f64 / 1e6),
                );
                due
            }
            None => replica.sent_ns,
        });
    }
    let recv_ns: Vec<u64> = loadgen::arrival_per_frame(&received.arrivals)
        .into_iter()
        .map(|t| t.saturating_duration_since(sent.start).as_nanos() as u64)
        .collect();
    let lat = oracle::latencies(&expect.copies, &origin_ns, &recv_ns);
    // Every output insert nobody sent, or that never reached the
    // subscriber, is a failed operation of its own.
    rep.fail(
        lat.unmatched as u64,
        "output inserts unmatched or never received",
    );
    rep.set_latencies(lat.ms);
    rep.fast_path = lat.fast_path;
    rep.epoch_hold_ms = oracle::epoch_hold_ms(&feeds, &want.output, &expect.copies, &origin_ns);
    rep.state_peak_bytes = want.metrics.peak_memory;
    rep.state_mean_bytes = mean_state_bytes(&want.metrics);
    rep.inserts_in = want.metrics.merge.inserts_in;
    rep.inserts_out = want.metrics.merge.inserts_out;
}

/// A vector source that notes when the executor pulled each element.
struct StampedSource {
    feed: std::vec::IntoIter<TimedElement<Value>>,
    start: Instant,
    pulled_ns: Arc<Vec<AtomicU64>>,
    next: usize,
}

impl Source<Value> for StampedSource {
    fn next(&mut self) -> Option<TimedElement<Value>> {
        let te = self.feed.next()?;
        self.pulled_ns[self.next].store(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.next += 1;
        Some(te)
    }
}

/// Collects the output and notes when each element was emitted.
struct StampedOutput {
    start: Instant,
    out: Vec<(VTime, Element<Value>)>,
    emitted_ns: Vec<u64>,
}

impl RunHooks<Value> for StampedOutput {
    fn enabled(&self) -> bool {
        true
    }

    fn on_consumed(
        &mut self,
        _input: u32,
        at: VTime,
        _delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        if emitted.is_empty() {
            return;
        }
        let now = self.start.elapsed().as_nanos() as u64;
        for e in emitted {
            self.out.push((at, e.clone()));
            self.emitted_ns.push(now);
        }
    }
}

/// Run one repetition of the embedded workload: the same executor and
/// merge as the server, fed from memory on this thread.
///
/// The library path has no sockets to stamp, so its latency is the
/// in-process analogue of the wire definition: from the moment the
/// executor pulled the first replica's copy of an insert out of its
/// source to the moment the run's hooks saw the insert emitted.
fn embed_rep(
    w: &Workload,
    seed: u64,
    env: &Env<'_>,
    spans: &mut Spans,
) -> (Rep, Feeds, Vec<(VTime, Element<Value>)>) {
    let mut rep = Rep::default();
    let setup_start = Instant::now();
    let feeds = prepare(w, seed, env.shrink, &mut rep, spans);
    let start = Instant::now();
    let stamps: Vec<Arc<Vec<AtomicU64>>> = feeds
        .iter()
        .map(|f| Arc::new((0..f.len()).map(|_| AtomicU64::new(0)).collect()))
        .collect();
    let queries: Vec<Query<Value>> = feeds
        .iter()
        .zip(&stamps)
        .map(|(feed, pulled_ns)| {
            Query::from_source(
                Box::new(StampedSource {
                    feed: feed.clone().into_iter(),
                    start,
                    pulled_ns: Arc::clone(pulled_ns),
                    next: 0,
                }),
                Vec::new(),
            )
        })
        .collect();
    // Sized up front: a reallocation copying a hundred thousand elements
    // in the middle of the run would be charged to the merge.
    let expected_out = feeds[0].len() + feeds[0].len() / 8;
    let mut hooks = StampedOutput {
        start,
        out: Vec::with_capacity(expected_out),
        emitted_ns: Vec::with_capacity(expected_out),
    };
    let run = MergeRun::new(
        queries,
        oracle::build_merge(w.replicas),
        RunConfig::default(),
    );
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    // Forget earlier peaks (feeds of previous repetitions, other
    // workloads of the same invocation): writing 5 resets VmHWM to the
    // current resident set. Best effort; without it the mark is merely
    // that of the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let cpu0 = sut::thread_cpu_ns().unwrap_or(0);
    let t = Instant::now();
    let metrics = spans.span("engine.merge_run", || {
        run.run_with_hooks(&mut NullSink, &mut hooks)
    });
    rep.wall_s = t.elapsed().as_secs_f64();
    let cpu_s = sut::thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0) as f64 / 1e9;
    // The whole process is the system here; the split into user and
    // system time is not available per thread at this grain.
    rep.cpu_user_s = cpu_s;

    rep.out_frames = hooks.out.len();
    rep.state_peak_bytes = metrics.peak_memory;
    rep.state_mean_bytes = mean_state_bytes(&metrics);
    rep.inserts_in = metrics.merge.inserts_in;
    rep.inserts_out = metrics.merge.inserts_out;
    match sut::read_proc(std::process::id()) {
        Some((_, status)) => rep.peak_rss_kib = status.vm_hwm_kib,
        None => rep.fail(1, "own /proc entry unreadable"),
    }
    let copies = oracle::match_copies(&feeds, &hooks.out);
    let origin_ns: Vec<Vec<u64>> = stamps
        .iter()
        .map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect())
        .collect();
    let lat = oracle::latencies(&copies, &origin_ns, &hooks.emitted_ns);
    rep.fail(
        lat.unmatched as u64,
        "output inserts with no copy in any replica",
    );
    rep.set_latencies(lat.ms);
    rep.fast_path = lat.fast_path;
    (rep, feeds, hooks.out)
}

/// One repetition of `w`, held against the oracle.
///
/// `expect` is filled from the first repetition's feeds (the same seed
/// gives the same feeds every time) and checked against ever after. A
/// `traced` wire repetition needs it filled beforehand: it tells the
/// repetition how much output to wait for before inspecting the server.
pub fn verified_rep(
    w: &Workload,
    seed: u64,
    env: &Env<'_>,
    expect: &mut Option<Expect>,
    traced: bool,
    spans: &mut Spans,
) -> Result<Rep, String> {
    match w.drive {
        Drive::Embed => {
            let (mut rep, feeds, output) = embed_rep(w, seed, env, spans);
            let expect = expect.get_or_insert_with(|| Expect::of(&feeds));
            if let Err(e) = &expect.compat {
                rep.fail(1, e.clone());
            }
            if output != expect.reference.output {
                rep.fail(1, "embedded output differs from the reference run");
            }
            Ok(rep)
        }
        Drive::Closed | Drive::Open { .. } => {
            let hold_for = if traced { expect.as_ref() } else { None };
            let (mut rep, run) = wire_rep(w, seed, env, hold_for, spans)?;
            let expect = expect.get_or_insert_with(|| Expect::of(&run.feeds));
            verify_wire(&mut rep, expect, run);
            Ok(rep)
        }
    }
}

/// The time-average of merge + query state over a run's memory samples.
/// The *peak* of the same samples swings ±10% from seed to seed (it is the
/// maximum of a sawtooth); the mean moves by ≈1%, so it is the one that can
/// carry a bound. The peak stays a per-layer number.
fn mean_state_bytes(metrics: &RunMetrics) -> f64 {
    let samples = &metrics.memory_samples;
    samples.iter().map(|(_, bytes)| *bytes as f64).sum::<f64>() / samples.len().max(1) as f64
}

/// `peak_rss_mb` and friends, as the run reports them.
pub fn mib(bytes: f64) -> f64 {
    bytes / MIB
}
