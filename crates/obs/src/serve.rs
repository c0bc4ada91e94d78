//! A minimal Prometheus scrape endpoint over std's `TcpListener`.
//!
//! [`MetricsServer`] binds a side listener, answers `GET /metrics` with the
//! registry's text exposition, and — when an [`AlertEngine`] is attached —
//! evaluates the SLO rules once per scrape, so the alert series a scraper
//! sees are exactly as fresh as the metrics in the same response. The
//! protocol support is deliberately HTTP/1.0-minimal (one request, one
//! response, close): enough for Prometheus, `curl`, and `lmerge-top`,
//! without pulling an HTTP stack into an offline build.

use crate::alert::AlertEngine;
use crate::metrics::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A background scrape endpoint for one [`MetricsRegistry`].
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `registry` until the
    /// server is dropped.
    pub fn bind(addr: impl ToSocketAddrs, registry: MetricsRegistry) -> io::Result<MetricsServer> {
        MetricsServer::bind_inner(addr, registry, None)
    }

    /// Like [`bind`](MetricsServer::bind), additionally evaluating the SLO
    /// rules once per scrape.
    pub fn bind_with_alerts(
        addr: impl ToSocketAddrs,
        registry: MetricsRegistry,
        alerts: AlertEngine,
    ) -> io::Result<MetricsServer> {
        MetricsServer::bind_inner(addr, registry, Some(alerts))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        registry: MetricsRegistry,
        alerts: Option<AlertEngine>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let uptime = registry.gauge(
            "lmerge_uptime_ms",
            "Wall-clock ms since the metrics registry was created.",
            &[],
        );
        let mut alerts = alerts;
        let handle = thread::Builder::new()
            .name("lmerge-metrics".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            uptime.set(registry.uptime_ms() as i64);
                            if let Some(engine) = alerts.as_mut() {
                                engine.evaluate();
                            }
                            let _ = serve_one(stream, &registry);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Answer one connection: any `GET` gets the exposition, anything else a
/// 405. Errors are per-connection and never take the server down.
fn serve_one(mut stream: TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut request = [0u8; 1024];
    let n = stream.read(&mut request).unwrap_or(0);
    let head = String::from_utf8_lossy(&request[..n]);
    let (status, body) = if head.starts_with("GET") || head.is_empty() {
        ("200 OK", registry.render())
    } else {
        ("405 Method Not Allowed", String::new())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Scrape a metrics endpoint once and return the exposition body — the
/// client half used by `lmerge-top`, CI, and tests.
pub fn scrape(addr: impl ToSocketAddrs) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape failed: {}", head.lines().next().unwrap_or("")),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "no HTTP header boundary in response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertKind, AlertRule, Severity};
    use crate::metrics::parse_prometheus;

    #[test]
    fn scrape_roundtrips_registry_contents() {
        let registry = MetricsRegistry::new();
        registry
            .counter("demo_total", "a demo counter", &[("input", "0")])
            .add(5);
        let server = MetricsServer::bind("127.0.0.1:0", registry).unwrap();
        let body = scrape(server.local_addr()).unwrap();
        let samples = parse_prometheus(&body);
        let c = samples.iter().find(|s| s.name == "demo_total").unwrap();
        assert_eq!(c.value, 5.0);
        assert_eq!(c.label("input"), Some("0"));
        assert!(samples.iter().any(|s| s.name == "lmerge_uptime_ms"));
    }

    #[test]
    fn scrape_evaluates_alert_rules() {
        let registry = MetricsRegistry::new();
        registry
            .gauge("lmerge_input_behind", "h", &[("input", "2")])
            .set(9_999);
        let engine = AlertEngine::new(
            &registry,
            vec![AlertRule::new(AlertKind::StragglerGap, Severity::Warn, 100)],
        );
        let server = MetricsServer::bind_with_alerts("127.0.0.1:0", registry, engine).unwrap();
        let body = scrape(server.local_addr()).unwrap();
        let samples = parse_prometheus(&body);
        let active = samples
            .iter()
            .find(|s| s.name == "lmerge_alert_active" && s.label("rule") == Some("straggler_gap"))
            .expect("alert series present");
        assert_eq!(active.value, 1.0, "rule fired during the scrape");
    }

    #[test]
    fn non_get_is_rejected() {
        let registry = MetricsRegistry::new();
        let server = MetricsServer::bind("127.0.0.1:0", registry).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "got: {response}");
    }
}
