//! What the two session servers share.
//!
//! The ingest server ([`crate::server`]), the subscriber server
//! (`lmerge_sub::SubServer`) and the chaos proxy ([`crate::proxy`]) accept
//! on a [`Listener`], which hands every connection to its owner's callback
//! on the accept thread, so a callback that must act in accept order (the
//! proxy connects upstream) can. Both servers count sessions in
//! [`SessionCounts`] — the registry series `lmerge-top`, the alert rules
//! and the benchmark read, and the only account of a session there is.

use lmerge_obs::{Counter, MetricsRegistry};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a fresh connection may take to present its handshake frame
/// (`Hello` on ingest, `Subscribe` on the fan-out plane) before it is
/// dropped. Clients send it right after `connect`, so this only ever
/// expires on a peer that connected and went quiet — which would otherwise
/// pin its handshake thread for the life of the process, `shutdown` included.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound TCP socket whose accept loop runs on its own thread, blocked in
/// `accept`, until [`stop`](Listener::stop) or drop.
pub struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` (port 0 for an ephemeral port) and call `on_accept` with
    /// every connection, on the accept thread, until stopped.
    pub fn bind(
        addr: &str,
        mut on_accept: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let accept = thread::spawn(move || loop {
            let accepted = listener.accept();
            if stopped.load(Ordering::Acquire) {
                break;
            }
            match accepted {
                Ok((stream, _)) => on_accept(stream),
                // Out of fds, say: back off, unless `stop` wakes us first.
                Err(_) => thread::park_timeout(Duration::from_millis(1)),
            }
        });
        Ok(Listener {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the accept thread, woken by a connection to
    /// its own address (loopback if bound to all interfaces; if that fails,
    /// the thread exits by itself). Connections already handed to the
    /// callback are their owner's to end.
    pub fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        accept.thread().unpark();
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            let v4 = wake.is_ipv4();
            wake.set_ip(if v4 {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = accept.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One kind of session's lifecycle counts: `{prefix}_sessions_opened_total`,
/// `{prefix}_resumes_total`, `{prefix}_session_closes_clean_total` and
/// `{prefix}_session_closes_lost_total`, registered under one label set.
pub struct SessionCounts {
    opened: Counter,
    resumed: Counter,
    clean: Counter,
    lost: Counter,
}

impl SessionCounts {
    /// Register the four series; `kind` names the sessions in their help
    /// text.
    pub fn new(
        registry: &MetricsRegistry,
        prefix: &str,
        kind: &str,
        labels: &[(&str, &str)],
    ) -> SessionCounts {
        let counter = |name: &str, help: &str| {
            let (name, help) = (format!("{prefix}_{name}"), format!("{kind} {help}"));
            registry.counter(&name, &help, labels)
        };
        SessionCounts {
            opened: counter(
                "sessions_opened_total",
                "sessions accepted (handshake completed).",
            ),
            resumed: counter(
                "resumes_total",
                "sessions that resumed mid-stream (a nonzero resume sequence).",
            ),
            clean: counter(
                "session_closes_clean_total",
                "sessions that ended with the Bye handshake.",
            ),
            lost: counter(
                "session_closes_lost_total",
                "sessions that ended uncleanly (EOF, gap, corruption, i/o error).",
            ),
        }
    }

    /// A session completed its handshake, mid-stream if `resumed`.
    pub fn on_open(&self, resumed: bool) {
        self.opened.inc();
        if resumed {
            self.resumed.inc();
        }
    }

    /// A session ended, with the Bye handshake if `clean`.
    pub fn on_close(&self, clean: bool) {
        if clean {
            self.clean.inc();
        } else {
            self.lost.inc();
        }
    }

    /// Every session opened so far has closed.
    pub fn all_closed(&self) -> bool {
        self.clean.get() + self.lost.get() >= self.opened.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[test]
    fn stop_wakes_the_blocked_accept_and_later_connections_never_reach_the_callback() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let calls = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&calls);
            let mut listener = Listener::bind(addr, move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            let mut target = listener.local_addr();
            target.set_ip(Ipv4Addr::LOCALHOST.into());
            // Let the accept thread block before it is stopped.
            thread::sleep(Duration::from_millis(20));
            let started = Instant::now();
            listener.stop();
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "{addr}: stop took {took:?}"
            );
            let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
            thread::sleep(Duration::from_millis(20));
            assert_eq!(
                calls.load(Ordering::Relaxed),
                0,
                "{addr}: no callback after stop"
            );
        }
    }
}
