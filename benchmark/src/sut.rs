//! The system under test as a child process: spawn `lmerge-ingest` on
//! ephemeral loopback ports, learn the ports from its stdout, observe it
//! through `/proc/<pid>` and its `--metrics` endpoint, and never leave it
//! running.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// What to start the server with.
pub struct SutConfig<'a> {
    pub binary: &'a Path,
    pub inputs: usize,
    pub checkpoint_dir: Option<&'a Path>,
    pub metrics: bool,
    /// CPU list to confine the server to (`taskset -c`), if pinning is on.
    pub cpus: Option<&'a str>,
}

/// A running `lmerge-ingest`. Dropping it kills and reaps the process, so
/// no code path — panic, early return, deadline — can orphan a server.
pub struct Sut {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub ingest_addr: String,
    pub subscribe_addr: String,
    pub metrics_addr: Option<String>,
}

/// Pull the `HOST:PORT` that follows `prefix` out of a startup line.
fn addr_after<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(prefix)?;
    let addr = rest.split([' ', '/']).next()?;
    addr.contains(':').then_some(addr)
}

impl Sut {
    /// Start the server and read its startup banner (one line per bound
    /// listener). Ports are always ephemeral; nothing is hard-coded.
    pub fn spawn(cfg: &SutConfig<'_>) -> Result<Sut, String> {
        let mut cmd = match cfg.cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpus).arg(cfg.binary);
                c
            }
            None => Command::new(cfg.binary),
        };
        cmd.args(["--addr", "127.0.0.1:0", "--subscribe", "127.0.0.1:0"])
            .args(["--level", "r3", "--inputs", &cfg.inputs.to_string()]);
        if let Some(dir) = cfg.checkpoint_dir {
            cmd.arg("--checkpoint-to").arg(dir);
        }
        if cfg.metrics {
            cmd.args(["--metrics", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cfg.binary.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut sut = Sut {
            child,
            stdout,
            ingest_addr: String::new(),
            subscribe_addr: String::new(),
            metrics_addr: None,
        };
        let wanted = 2 + usize::from(cfg.metrics);
        for _ in 0..wanted {
            let mut line = String::new();
            let n = sut
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read server banner: {e}"))?;
            if n == 0 {
                return Err("server exited before announcing its listeners".to_string());
            }
            if let Some(a) = addr_after(&line, "listening on ") {
                sut.ingest_addr = a.to_string();
            } else if let Some(a) = addr_after(&line, "subscriptions on ") {
                sut.subscribe_addr = a.to_string();
            } else if let Some(a) = addr_after(&line, "metrics on http://") {
                sut.metrics_addr = Some(a.to_string());
            } else {
                return Err(format!("unexpected server banner line: {line:?}"));
            }
        }
        if sut.ingest_addr.is_empty() || sut.subscribe_addr.is_empty() {
            return Err("server did not announce both listeners".to_string());
        }
        Ok(sut)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the server to exit on its own; past `deadline` it is
    /// killed and the run counts as failed. Returns the exit status'
    /// success flag and everything the server printed after the banner.
    pub fn wait(mut self, deadline: Instant) -> Result<(bool, String), String> {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return Ok((status.success(), rest));
                }
                Ok(None) if Instant::now() >= deadline => {
                    return Err("server still running at the deadline; killed".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        // Already-exited children make kill() fail harmlessly; wait()
        // reaps either way so no zombie outlives the harness.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Locate the server binary: next to this executable (cargo puts both in
/// the same `release/` directory), unless `--sut` names it.
pub fn default_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let candidate = me.with_file_name("lmerge-ingest");
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p lmerge-sub --bin lmerge-ingest` \
             or pass --sut PATH (benchmark/run.sh does both)",
            candidate.display()
        ))
    }
}

/// How the box's CPUs are split between the generator and the server.
///
/// With `nproc` = 2 an unpinned generator competes with the server for the
/// same two cores, so the server's throughput moves with whatever the
/// generator (and the scheduler's placement of eight threads) happens to
/// do. Confining this process to the first allowed CPU and the server to
/// the rest makes the server's capacity a property of the server.
#[derive(Clone, Debug, PartialEq)]
pub struct Pinning {
    pub harness_cpu: String,
    pub sut_cpus: String,
}

/// Expand a kernel CPU list (`0-1`, `0,2-3`, `5`) into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi): (u32, u32) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
                if lo > hi || hi - lo > 4096 {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    Some(cpus)
}

/// Split an allowed-CPU list: first CPU for the harness, the rest for the
/// server. `None` with fewer than two CPUs.
pub fn split_cpus(allowed: &[u32]) -> Option<Pinning> {
    let (first, rest) = allowed.split_first()?;
    if rest.is_empty() {
        return None;
    }
    let rest: Vec<String> = rest.iter().map(u32::to_string).collect();
    Some(Pinning {
        harness_cpu: first.to_string(),
        sut_cpus: rest.join(","),
    })
}

/// Decide the split from this process' allowed CPUs and move this process
/// (every thread it will start inherits the mask) onto its share. `None`
/// — run unpinned — when there is one CPU or no `taskset` to do it with.
pub fn pin_self() -> Option<Pinning> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let pinning = split_cpus(&parse_cpu_list(list)?)?;
    let done = Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &pinning.harness_cpu,
            &std::process::id().to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?;
    done.success().then_some(pinning)
}

/// CPU time a process has used, from `/proc/<pid>/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// Parse the `utime` and `stime` fields of a `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command come state (3) … utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / TICKS_PER_S,
        sys_s: stime / TICKS_PER_S,
    })
}

/// The fields of `/proc/<pid>/status` the ledger reads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcStatus {
    /// Peak resident set (`VmHWM`), KiB.
    pub vm_hwm_kib: u64,
    pub threads: u64,
    pub voluntary_ctxt: u64,
    pub nonvoluntary_ctxt: u64,
}

/// Parse a `/proc/<pid>/status` (or `/proc/<pid>/task/<tid>/status`) text.
/// Missing fields stay 0: a kernel thread has no `VmHWM`.
pub fn parse_status(status: &str) -> ProcStatus {
    let mut out = ProcStatus::default();
    for line in status.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => out.vm_hwm_kib = number(),
            "Threads" => out.threads = number(),
            "voluntary_ctxt_switches" => out.voluntary_ctxt = number(),
            "nonvoluntary_ctxt_switches" => out.nonvoluntary_ctxt = number(),
            _ => {}
        }
    }
    out
}

/// A process' CPU times and memory high-water mark, read now.
pub fn read_proc(pid: u32) -> Option<(CpuTimes, ProcStatus)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some((parse_stat(&stat)?, parse_status(&status)))
}

/// Context switches summed over every live thread of `pid` (the
/// process-level `status` file only counts the main thread).
pub fn read_ctxt_switches(pid: u32) -> (u64, u64) {
    let mut total = (0, 0);
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
                let s = parse_status(&text);
                total.0 += s.voluntary_ctxt;
                total.1 += s.nonvoluntary_ctxt;
            }
        }
    }
    total
}

/// Nanoseconds this thread has spent on a CPU (`/proc/thread-self/schedstat`,
/// first field): the clock the single-threaded embedded workload is
/// charged by, at a finer grain than the 10 ms ticks of `stat`.
pub fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// One metric name's series in a scrape, labels collapsed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scraped {
    /// Sum over the name's label sets (what a counter wants).
    pub sum: f64,
    /// Largest single series (what a per-input gauge wants).
    pub max: f64,
}

/// Parse a Prometheus text exposition into per-name [`Scraped`] values:
/// `name{labels} value` and `name value` lines; comments and anything
/// unparsable are skipped.
pub fn parse_prometheus(text: &str) -> HashMap<String, Scraped> {
    let mut out: HashMap<String, Scraped> = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is the last whitespace-separated token; a label value
        // may contain spaces, so split from the right.
        let Some((series, value)) = line.rsplit_once(char::is_whitespace) else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series).trim();
        if name.is_empty() {
            continue;
        }
        let slot = out.entry(name.to_string()).or_insert(Scraped {
            sum: 0.0,
            max: f64::MIN,
        });
        slot.sum += value;
        slot.max = slot.max.max(value);
    }
    out
}

/// `GET /metrics` from the server's scrape endpoint.
pub fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("scrape request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("scrape response: {e}"))?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.") && head.contains(" 200 ") => {
            Ok(body.to_string())
        }
        _ => Err(format!(
            "scrape: unexpected response {:?}",
            response.lines().next().unwrap_or("")
        )),
    }
}

/// Total size of the regular files under `dir` (one level: the checkpoint
/// store keeps a flat directory).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_addresses_are_extracted() {
        assert_eq!(
            addr_after(
                "listening on 127.0.0.1:40123 for 2 inputs (level R3)\n",
                "listening on "
            ),
            Some("127.0.0.1:40123")
        );
        assert_eq!(
            addr_after(
                "subscriptions on 127.0.0.1:5 (1 filter classes)\n",
                "subscriptions on "
            ),
            Some("127.0.0.1:5")
        );
        assert_eq!(
            addr_after(
                "metrics on http://127.0.0.1:9901/metrics\n",
                "metrics on http://"
            ),
            Some("127.0.0.1:9901")
        );
        assert_eq!(addr_after("listening on nowhere\n", "listening on "), None);
        assert_eq!(addr_after("something else\n", "listening on "), None);
    }

    #[test]
    fn cpu_lists_expand_and_split() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list(" 0,2-4,9"), Some(vec![0, 2, 3, 4, 9]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        assert_eq!(
            split_cpus(&[2, 3, 6]),
            Some(Pinning {
                harness_cpu: "2".to_string(),
                sut_cpus: "3,6".to_string()
            })
        );
        assert_eq!(split_cpus(&[0]), None);
        assert_eq!(split_cpus(&[]), None);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let plain = "42 (lmerge-ingest) S 1 42 42 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 5 0 1 2 3";
        assert_eq!(
            parse_stat(plain),
            Some(CpuTimes {
                user_s: 2.5,
                sys_s: 0.75
            })
        );
        let hostile = "42 (a b) c (d)) R 1 42 42 0 -1 0 1 0 0 0 1234 66 0 0 20 0 1 0 9 9 9";
        assert_eq!(
            parse_stat(hostile),
            Some(CpuTimes {
                user_s: 12.34,
                sys_s: 0.66
            })
        );
        assert_eq!(parse_stat("42 (short) S 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn status_parser_reads_the_ledger_fields() {
        let text = "Name:\tlmerge-ingest\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\n\
                    Threads:\t7\nvoluntary_ctxt_switches:\t321\n\
                    nonvoluntary_ctxt_switches:\t12\n";
        assert_eq!(
            parse_status(text),
            ProcStatus {
                vm_hwm_kib: 12345,
                threads: 7,
                voluntary_ctxt: 321,
                nonvoluntary_ctxt: 12
            }
        );
        assert_eq!(
            parse_status("garbage\nVmHWM: lots kB\n"),
            ProcStatus::default()
        );
    }

    #[test]
    fn own_process_is_readable() {
        let (cpu, status) = read_proc(std::process::id()).expect("/proc/self");
        assert!(cpu.user_s >= 0.0 && cpu.sys_s >= 0.0);
        assert!(status.vm_hwm_kib > 0 && status.threads >= 1);
        assert!(thread_cpu_ns().is_some());
    }

    #[test]
    fn prometheus_text_sums_and_maxes_per_name() {
        let text =
            "# HELP lmerge_net_frames_total Frames.\n# TYPE lmerge_net_frames_total counter\n\
                    lmerge_net_frames_total{input=\"0\"} 10\n\
                    lmerge_net_frames_total{input=\"1\"} 32\n\
                    lmerge_net_queue_depth{input=\"0\",note=\"a b\"} 7\n\
                    lmerge_net_queue_depth{input=\"1\"} 3\n\
                    lmerge_uptime_ms 1500\n\
                    broken_line\nname_without_number NaNx\n\n";
        let got = parse_prometheus(text);
        assert_eq!(got["lmerge_net_frames_total"].sum, 42.0);
        assert_eq!(got["lmerge_net_frames_total"].max, 32.0);
        assert_eq!(got["lmerge_net_queue_depth"].sum, 10.0);
        assert_eq!(got["lmerge_net_queue_depth"].max, 7.0);
        assert_eq!(got["lmerge_uptime_ms"].sum, 1500.0);
        assert!(!got.contains_key("broken_line"));
        assert!(!got.contains_key("name_without_number"));
    }
}
