//! Live metrics endpoint: a minimal HTTP/1.1 server over
//! `std::net::TcpListener` exposing the registry **while a run is in
//! flight** — the run manifest only appears after a run ends, which is
//! useless for watching a million-flow sweep progress.
//!
//! Routes:
//!
//! | path       | content | body |
//! |------------|---------|------|
//! | `/metrics` | `text/plain; version=0.0.4` | Prometheus text exposition of every counter/histogram |
//! | `/spans`   | `application/json` | `{"schema":"transit-obs/spans/v1","spans":{…}}` span-tree snapshot |
//! | `/healthz` | `text/plain` | `ok` |
//!
//! Every response is computed from a registry/span **snapshot** — the
//! same read paths the manifest uses — so serving never touches a hot
//! path: workers keep their one-relaxed-atomic counter updates and the
//! quiet level keeps short-circuiting span collection. The server is one
//! thread handling one connection at a time (scrapes are tiny), bound
//! once at startup; bind to port `0` to let the OS pick.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Schema identifier for the `/spans` JSON document.
pub const SPANS_SCHEMA: &str = "transit-obs/spans/v1";

/// A running metrics server. Dropping the handle shuts the server down
/// (the accept thread is woken and joined), so bind it to a variable
/// that lives as long as serving should.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9464"`, port 0 for OS-assigned) and
/// serves `/metrics`, `/spans`, and `/healthz` on a background thread
/// until the returned handle is dropped.
pub fn serve(addr: &str) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("obs-metrics-server".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A misbehaving client must not wedge the server.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = handle_connection(stream);
                }
            }
        })?;
    Ok(MetricsServer {
        addr,
        shutdown,
        handle: Some(handle),
    })
}

/// Reads the request head (up to 8 KiB) and returns the request path.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    // "GET /metrics HTTP/1.1" → "/metrics" (query string stripped).
    let target = request_line.split_whitespace().nth(1)?;
    Some(target.split('?').next().unwrap_or(target).to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Renders the `/spans` body: the current span tree under a schema tag.
pub fn spans_json() -> String {
    let tree = crate::span::snapshot_spans();
    let doc = serde::Content::Map(vec![
        (
            "schema".to_string(),
            serde::Content::Str(SPANS_SCHEMA.to_string()),
        ),
        ("spans".to_string(), crate::span::tree_to_content(&tree)),
    ]);
    struct Wrap(serde::Content);
    impl serde::Serialize for Wrap {
        fn to_content(&self) -> serde::Content {
            self.0.clone()
        }
    }
    serde_json::to_string_pretty(&Wrap(doc)).expect("span tree serializes")
}

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    let Some(path) = read_request_path(&mut stream) else {
        return Ok(()); // wake-up connection from shutdown(), or garbage
    };
    match path.as_str() {
        "/metrics" => {
            let body = crate::metrics::snapshot().to_prometheus();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/spans" => respond(
            &mut stream,
            "200 OK",
            "application/json; charset=utf-8",
            &spans_json(),
        ),
        "/healthz" => respond(&mut stream, "200 OK", "text/plain; charset=utf-8", "ok\n"),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal HTTP GET against the server, returning (status line, body).
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response.lines().next().unwrap_or_default().to_string();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_spans_and_healthz() {
        crate::metrics::counter("serve_test.requests").add(3);
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("serve_test_requests"),
            "metrics body missing counter: {body}"
        );

        {
            let _span =
                crate::span::Span::enter(crate::Level::Info, "serve_test.span", String::new);
        }
        let (status, body) = http_get(addr, "/spans");
        assert!(status.contains("200"), "{status}");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("spans JSON parses");
        assert_eq!(doc["schema"], SPANS_SCHEMA);
        assert!(
            doc["spans"]["serve_test.span"].get("count").is_some(),
            "span tree missing test span: {body}"
        );

        let (status, _) = http_get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_port_zero_resolves() {
        let server = serve("127.0.0.1:0").expect("bind");
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
    }
}
