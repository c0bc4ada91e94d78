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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a fresh connection may take to present its handshake frame
/// (`Hello` on ingest, `Subscribe` on the fan-out plane) before it is
/// dropped. Clients send it right after `connect`, so this only ever
/// expires on a peer that connected and went quiet — which would otherwise
/// pin its session thread for the life of the process, `shutdown` included.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound TCP socket whose accept loop runs on its own thread until
/// [`stop`](Listener::stop) or drop.
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
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let accept = thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => on_accept(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_micros(500));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(1)),
                }
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

    /// Stop accepting and join the accept thread. Connections already
    /// handed to the callback are their owner's to end.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
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

    fn all_closed(&self) -> bool {
        self.clean.get() + self.lost.get() >= self.opened.get()
    }

    /// Wait (up to `timeout`) until every session counted in `counts` has
    /// closed; `true` once all have.
    pub fn await_closed<'a, I>(counts: I, timeout: Duration) -> bool
    where
        I: IntoIterator<Item = &'a SessionCounts> + Clone,
    {
        let deadline = Instant::now() + timeout;
        loop {
            if counts.clone().into_iter().all(SessionCounts::all_closed) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_micros(200));
        }
    }
}
