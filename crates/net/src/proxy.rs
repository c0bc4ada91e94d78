//! A chaos proxy: a TCP forwarder that injects network faults from a
//! seeded plan.
//!
//! PR 3's chaos harness injects faults *inside* the executor (drop,
//! replace, delay, detach) — it can never misbehave at the transport
//! layer. This proxy attacks the transport itself: it sits between a
//! replayer and the ingest server forwarding raw bytes, and at
//! plan-chosen byte offsets it delays a chunk, stalls the stream, or
//! resets the connection outright. Resets land mid-frame as often as
//! between frames, so they exercise the wire decoder's truncation
//! handling and the server/client resume path — while the merge output
//! must remain exactly what a fault-free run produces (checked by the
//! loopback conformance tests with the chaos oracle judging).
//!
//! The plan is deterministic: [`ProxyPlan::seeded`] derives faults from a
//! splitmix64 stream (hand-rolled; this crate keeps `rand` out of its
//! non-dev dependencies), and the plan's progress lives in state shared
//! across connections, so a client that reconnects after a reset
//! continues through the *remaining* faults instead of replaying them.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One transport-layer fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProxyFault {
    /// Hold the next chunk for this many milliseconds (latency spike).
    DelayMs(u64),
    /// Freeze forwarding for this many milliseconds (a wedged link —
    /// long enough to trip read-side patience, short enough to recover).
    StallMs(u64),
    /// Sever both sides of the connection at exactly this offset: the
    /// bytes before it reach the server, nothing after it does.
    Reset,
}

/// Faults keyed by cumulative client→server byte offset.
#[derive(Clone, Debug, Default)]
pub struct ProxyPlan {
    /// `(offset, fault)` pairs, sorted by offset; each fires once when
    /// the forwarded byte count passes its offset.
    pub faults: Vec<(u64, ProxyFault)>,
}

impl ProxyPlan {
    /// No faults: the proxy is a transparent forwarder.
    pub fn clean() -> ProxyPlan {
        ProxyPlan::default()
    }

    /// `n` faults at deterministic offsets within `horizon_bytes` of
    /// client→server traffic.
    pub fn seeded(seed: u64, horizon_bytes: u64, n: usize) -> ProxyPlan {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut faults: Vec<(u64, ProxyFault)> = (0..n)
            .map(|_| {
                let offset = splitmix64(&mut state) % horizon_bytes.max(1);
                let fault = match splitmix64(&mut state) % 3 {
                    0 => ProxyFault::DelayMs(1 + splitmix64(&mut state) % 15),
                    1 => ProxyFault::StallMs(20 + splitmix64(&mut state) % 60),
                    _ => ProxyFault::Reset,
                };
                (offset, fault)
            })
            .collect();
        faults.sort_by_key(|&(offset, _)| offset);
        ProxyPlan { faults }
    }
}

/// The standard 64-bit splitmix generator (Steele et al.), enough
/// determinism for fault placement without a dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Plan progress, shared across every connection the proxy carries.
struct PlanState {
    faults: Vec<(u64, ProxyFault)>,
    /// Client→server bytes forwarded so far (across reconnections).
    forwarded: u64,
    /// Index of the next unfired fault.
    next: usize,
    resets: u64,
}

/// A TCP proxy in front of one upstream address.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<PlanState>>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listen on an ephemeral local port, forwarding each accepted
    /// connection to `upstream` with `plan`'s faults applied.
    pub fn spawn(upstream: SocketAddr, plan: ProxyPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(PlanState {
            faults: plan.faults,
            forwarded: 0,
            next: 0,
            resets: 0,
        }));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let state = Arc::clone(&state);
            thread::spawn(move || accept_loop(listener, upstream, shutdown, state))
        };
        Ok(ChaosProxy {
            local_addr,
            shutdown,
            state,
            accept: Some(accept),
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Faults fired so far.
    pub fn applied(&self) -> usize {
        self.state.lock().unwrap().next
    }

    /// Connection resets injected so far.
    pub fn resets(&self) -> u64 {
        self.state.lock().unwrap().resets
    }

    /// Stop accepting and join the accept loop (live forwarders drain on
    /// their own as their sockets close).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<PlanState>>,
) {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                // Server→client leg: transparent copy.
                if let (Ok(from), Ok(to)) = (server.try_clone(), client.try_clone()) {
                    let shutdown = Arc::clone(&shutdown);
                    thread::spawn(move || forward_plain(from, to, shutdown));
                }
                // Client→server leg: fault-injecting copy.
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                thread::spawn(move || forward_faulted(client, server, state, shutdown));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_micros(500));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn forward_plain(mut from: TcpStream, mut to: TcpStream, shutdown: Arc<AtomicBool>) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

fn forward_faulted(
    mut from: TcpStream,
    mut to: TcpStream,
    state: Arc<Mutex<PlanState>>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = [0u8; 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        // Fire every fault whose offset falls inside this chunk. The
        // lock is held only to *claim* faults; sleeps happen outside it
        // so a reconnected session is never blocked by plan bookkeeping.
        // A reset cuts at its exact offset: the bytes before it are
        // forwarded, the rest of the chunk dies with the connection.
        let mut claimed = Vec::new();
        let mut keep = n;
        {
            let mut st = state.lock().unwrap();
            let end = st.forwarded + n as u64;
            while st.next < st.faults.len() && st.faults[st.next].0 < end {
                let (offset, fault) = st.faults[st.next];
                st.next += 1;
                claimed.push(fault);
                if fault == ProxyFault::Reset {
                    st.resets += 1;
                    keep = offset.saturating_sub(st.forwarded) as usize;
                    break;
                }
            }
            st.forwarded += keep as u64;
        }
        for fault in claimed {
            match fault {
                ProxyFault::DelayMs(ms) | ProxyFault::StallMs(ms) => {
                    thread::sleep(Duration::from_millis(ms));
                }
                ProxyFault::Reset => {
                    let _ = to.write_all(&buf[..keep]);
                    let _ = from.shutdown(Shutdown::Both);
                    let _ = to.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_sorted() {
        let a = ProxyPlan::seeded(7, 100_000, 12);
        let b = ProxyPlan::seeded(7, 100_000, 12);
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.windows(2).all(|w| w[0].0 <= w[1].0));
        let c = ProxyPlan::seeded(8, 100_000, 12);
        assert_ne!(a.faults, c.faults, "seed actually matters");
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let proxy = ChaosProxy::spawn(upstream_addr, ProxyPlan::clean()).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        client.write_all(b"through the looking glass").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        client.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"through the looking glass");
        echo.join().unwrap();
        assert_eq!(proxy.applied(), 0);
    }

    #[test]
    fn reset_fault_severs_the_connection() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        thread::spawn(move || {
            // Swallow whatever arrives on each connection.
            while let Ok((mut s, _)) = upstream.accept() {
                thread::spawn(move || {
                    let mut sink = Vec::new();
                    let _ = s.read_to_end(&mut sink);
                });
            }
        });
        let plan = ProxyPlan {
            faults: vec![(10, ProxyFault::Reset)],
        };
        let proxy = ChaosProxy::spawn(upstream_addr, plan).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        // Keep writing until the reset lands as an error on our side.
        let mut severed = false;
        for _ in 0..1000 {
            if client.write_all(&[0u8; 16]).is_err() {
                severed = true;
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert!(severed, "the reset reached the client");
        assert_eq!(proxy.resets(), 1);
        // A new connection through the same proxy works: the fault fired once.
        let mut again = TcpStream::connect(proxy.local_addr()).unwrap();
        again.write_all(b"hello again").unwrap();
    }
}
