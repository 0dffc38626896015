//! The cluster's HTTP/1.1 plumbing: a blocking client with deadlines
//! and a small threaded server, both dependency-free.
//!
//! Same idiom as `hom-serve`'s `MetricsServer` — a
//! [`std::net::TcpListener`] accept loop, `Content-Length` +
//! `Connection: close`, one request per connection — extended with the
//! things the router/worker protocol needs beyond a metrics scrape:
//! **POST bodies** (request batches, snapshots, model blobs),
//! **deadlines** on every socket (a dead worker must surface as a typed
//! error within the configured timeout, never hang a router thread),
//! and **per-connection threads** on the server (a slow or idle client
//! ties up only its own thread, bounded by the read deadline and a
//! connection cap — never the accept loop or other requests).
//!
//! Every message, either direction, leaves in one vectored write of its
//! rendered head and its body (no copy of the body), on a socket with
//! `TCP_NODELAY` set: a message is never split into small segments that
//! wait on each other.

use std::fmt;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bodies above this size are rejected by the server (64 MiB) — far
/// above any real model blob or batch, low enough that a corrupt
/// `Content-Length` cannot OOM a worker.
const MAX_BODY: usize = 64 << 20;

/// The request/status line plus headers must fit this budget (16 KiB,
/// either direction) — a peer streaming an endless header line cannot
/// grow a line buffer unboundedly (`MAX_BODY` bounds only bodies).
const MAX_HEAD: u64 = 16 << 10;

/// Concurrent connections one server handles. Accepts beyond the cap
/// are answered `503` immediately — shed, not queued behind slow peers.
const MAX_CONNECTIONS: usize = 64;

/// The distributed-trace propagation header. The value is
/// `hom_obs::TraceContext::to_header()` — two fixed-width lowercase hex
/// fields, `<trace_id>-<parent_span_id>`. Absent or malformed simply
/// means "untraced"; propagation can never fail a request.
pub const TRACE_HEADER: &str = "X-HOM-Trace";

/// An HTTP exchange that failed below the protocol level. The router
/// maps these onto `ClusterError::WorkerDown` — the cluster's
/// "never hang, never partial" contract rides on every socket
/// operation funneling into this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// TCP connect failed or timed out.
    Connect(String),
    /// The peer accepted the connection but the exchange died (reset,
    /// read/write timeout, premature close).
    Io(String),
    /// The peer spoke, but not HTTP this crate understands.
    Malformed(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Connect(what) => write!(f, "connect failed: {what}"),
            HttpError::Io(what) => write!(f, "request failed: {what}"),
            HttpError::Malformed(what) => write!(f, "malformed HTTP response: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed inbound request: method, path, body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw request body (empty for bodyless requests).
    pub body: Vec<u8>,
    /// The [`TRACE_HEADER`] value, verbatim, when the client sent one.
    /// Handlers parse it with `hom_obs::TraceContext::parse`; a value
    /// that fails to parse is treated as absent.
    pub trace: Option<String>,
}

/// What a handler sends back.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status line text, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` with a text body.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: "200 OK",
            content_type,
            body: body.into(),
        }
    }

    /// A `404 Not Found` with a plain-text reason.
    pub fn not_found(reason: &str) -> Self {
        HttpResponse {
            status: "404 Not Found",
            content_type: "text/plain",
            body: format!("{reason}\n").into_bytes(),
        }
    }

    /// A `400 Bad Request` with a plain-text reason.
    pub fn bad_request(reason: &str) -> Self {
        HttpResponse {
            status: "400 Bad Request",
            content_type: "text/plain",
            body: format!("{reason}\n").into_bytes(),
        }
    }

    /// A `503 Service Unavailable` with a plain-text reason — what the
    /// server sheds connections with at the concurrency cap.
    pub fn unavailable(reason: &str) -> Self {
        HttpResponse {
            status: "503 Service Unavailable",
            content_type: "text/plain",
            body: format!("{reason}\n").into_bytes(),
        }
    }
}

/// One blocking HTTP request with a deadline on every socket phase.
/// Returns the numeric status code and the response body.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), HttpError> {
    http_request_traced(addr, method, path, body, timeout, None)
}

/// [`http_request`] stamping a [`TRACE_HEADER`] when `trace` is `Some` —
/// how the router propagates a `hom_obs::TraceContext` (rendered via
/// `to_header()`) to workers.
pub fn http_request_traced(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
    trace: Option<&str>,
) -> Result<(u16, Vec<u8>), HttpError> {
    let conn = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| HttpError::Connect(e.to_string()))?;
    conn.set_read_timeout(Some(timeout))
        .map_err(|e| HttpError::Io(e.to_string()))?;
    conn.set_write_timeout(Some(timeout))
        .map_err(|e| HttpError::Io(e.to_string()))?;
    conn.set_nodelay(true)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(value) = trace {
        head.push_str(TRACE_HEADER);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    write_message(&conn, head.as_bytes(), body).map_err(|e| HttpError::Io(e.to_string()))?;

    let mut head = BufReader::new(&conn).take(MAX_HEAD);
    let mut status_line = String::new();
    head.read_line(&mut status_line)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    if !status_line.ends_with('\n') && head.limit() == 0 {
        return Err(HttpError::Malformed("status line too long"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("status line"))?;
    let mut content_length: Option<usize> = None;
    let mut header = String::new();
    loop {
        header.clear();
        let n = head
            .read_line(&mut header)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        if header == "\r\n" || header == "\n" {
            break;
        }
        if (n == 0 || !header.ends_with('\n')) && head.limit() == 0 {
            return Err(HttpError::Malformed("header section too large"));
        }
        if n == 0 {
            break;
        }
        if let Some(v) = header_value(&header, "content-length") {
            content_length = Some(
                v.parse()
                    .map_err(|_| HttpError::Malformed("content-length"))?,
            );
        }
    }
    let mut reader = head.into_inner();
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            if len > MAX_BODY {
                return Err(HttpError::Malformed("content-length too large"));
            }
            body.resize(len, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| HttpError::Io(e.to_string()))?;
        }
        None => {
            // Connection: close with no length — read to EOF.
            reader
                .read_to_end(&mut body)
                .map_err(|e| HttpError::Io(e.to_string()))?;
        }
    }
    Ok((status, body))
}

fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let (key, value) = line.split_once(':')?;
    if key.trim().eq_ignore_ascii_case(name) {
        Some(value.trim())
    } else {
        None
    }
}

/// The handler a server dispatches every request to.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A blocking HTTP server: one accept-loop thread, requests dispatched
/// to a [`Handler`]. Dropping the server stops the loop and joins it —
/// same lifecycle as `hom-serve`'s `MetricsServer`.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Bind `addr` (port `0` picks a free one; read it back with
    /// [`Self::addr`]) and serve `handler` on a background thread named
    /// `thread_name`.
    pub fn bind(addr: SocketAddr, thread_name: &str, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || accept_loop(listener, handler, loop_stop))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, handler: Handler, stop: Arc<AtomicBool>) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(conn) = conn else { continue };
        conn_threads.retain(|h| !h.is_finished());
        // One thread per connection: a slow or idle peer ties up only
        // its own thread (bounded by the read deadline), never the
        // accept loop or other requests. Beyond the cap, shed promptly.
        if active.load(Ordering::Acquire) >= MAX_CONNECTIONS {
            let _ = write_response(&conn, &HttpResponse::unavailable("connection limit"));
            continue;
        }
        active.fetch_add(1, Ordering::AcqRel);
        let handler = Arc::clone(&handler);
        let thread_active = Arc::clone(&active);
        let spawned = std::thread::Builder::new()
            .name("hom-http-conn".to_string())
            .spawn(move || {
                // An I/O error drops the connection — a broken client
                // must never take the node down.
                let _ = serve_connection(&conn, &handler);
                thread_active.fetch_sub(1, Ordering::AcqRel);
            });
        match spawned {
            Ok(handle) => conn_threads.push(handle),
            // Spawn failure (thread exhaustion): the closure — and with
            // it the connection — was dropped without running.
            Err(_) => {
                active.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    // Dropping the server waits for in-flight requests, the same
    // lifecycle the old inline dispatch had.
    for handle in conn_threads {
        let _ = handle.join();
    }
}

fn serve_connection(conn: &TcpStream, handler: &Handler) -> std::io::Result<()> {
    // A peer that connects and never writes must not pin its thread
    // forever: every inbound socket gets a generous fixed deadline.
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.set_write_timeout(Some(Duration::from_secs(30)))?;
    conn.set_nodelay(true)?;
    let mut head = BufReader::new(conn).take(MAX_HEAD);
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    if !request_line.ends_with('\n') && head.limit() == 0 {
        return write_response(conn, &HttpResponse::bad_request("request line too long"));
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return write_response(conn, &HttpResponse::bad_request("bad request line")),
    };
    let mut content_length = 0usize;
    let mut trace: Option<String> = None;
    let mut header = String::new();
    loop {
        header.clear();
        let n = head.read_line(&mut header)?;
        if header == "\r\n" || header == "\n" {
            break;
        }
        if (n == 0 || !header.ends_with('\n')) && head.limit() == 0 {
            return write_response(conn, &HttpResponse::bad_request("header section too large"));
        }
        if n == 0 {
            break;
        }
        if let Some(v) = header_value(&header, "content-length") {
            match v.parse::<usize>() {
                Ok(len) if len <= MAX_BODY => content_length = len,
                _ => return write_response(conn, &HttpResponse::bad_request("bad content-length")),
            }
        }
        if let Some(v) = header_value(&header, "x-hom-trace") {
            trace = Some(v.to_string());
        }
    }
    let mut reader = head.into_inner();
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let request = HttpRequest {
        method,
        path: target.split('?').next().unwrap_or(&target).to_string(),
        body,
        trace,
    };
    let response = handler(&request);
    write_response(conn, &response)
}

fn write_response(conn: &TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    write_message(conn, head.as_bytes(), &response.body)
}

/// Send one HTTP message: the head, rendered into one buffer, and the
/// body go out in one vectored write — one syscall in the common case,
/// with no copy of the body — looping only on a short write.
fn write_message(mut conn: &TcpStream, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match conn.write_vectored(pending) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            "test-echo",
            Arc::new(|req: &HttpRequest| match req.path.as_str() {
                "/echo" => HttpResponse::ok("application/octet-stream", req.body.clone()),
                "/hello" => HttpResponse::ok("text/plain", format!("{} ok", req.method)),
                "/trace-echo" => HttpResponse::ok(
                    "text/plain",
                    req.trace.clone().unwrap_or_else(|| "untraced".to_string()),
                ),
                _ => HttpResponse::not_found("nope"),
            }),
        )
        .expect("binds")
    }

    #[test]
    fn get_and_post_round_trip() {
        let server = echo_server();
        let t = Duration::from_secs(5);
        let (status, body) = http_request(server.addr(), "GET", "/hello", &[], t).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"GET ok".as_slice()));

        let payload: Vec<u8> = (0..=255u8).collect();
        let (status, body) = http_request(server.addr(), "POST", "/echo", &payload, t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, payload, "binary body round-trips byte-exactly");

        let (status, _) = http_request(server.addr(), "GET", "/missing", &[], t).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn trace_header_propagates_and_absence_means_untraced() {
        let server = echo_server();
        let t = Duration::from_secs(5);
        let ctx = "00000000deadbeef-0000000000000007";
        let (status, body) =
            http_request_traced(server.addr(), "GET", "/trace-echo", &[], t, Some(ctx)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, ctx.as_bytes(), "header value arrives verbatim");

        let (status, body) = http_request(server.addr(), "GET", "/trace-echo", &[], t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"untraced", "no header means None, not empty");
    }

    #[test]
    fn a_slow_client_does_not_block_other_requests() {
        let server = echo_server();
        // An idle connection that never sends a request…
        let _idle = TcpStream::connect(server.addr()).expect("connects");
        // …must not stall a real client behind its 30s read deadline.
        let t0 = std::time::Instant::now();
        let (status, body) =
            http_request(server.addr(), "GET", "/hello", &[], Duration::from_secs(5))
                .expect("served concurrently");
        assert_eq!((status, body.as_slice()), (200, b"GET ok".as_slice()));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "request queued behind the idle connection"
        );
    }

    #[test]
    fn endless_header_line_is_rejected_not_buffered() {
        let server = echo_server();
        let mut conn = TcpStream::connect(server.addr()).expect("connects");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(conn, "GET /hello HTTP/1.1\r\nX-Junk: ").unwrap();
        // Stream far more header bytes than MAX_HEAD; the server must
        // answer 400 instead of buffering without bound. The write may
        // error once the server responds and closes — that's fine.
        let _ = conn.write_all(&vec![b'a'; 32 << 10]);
        let mut status_line = String::new();
        BufReader::new(conn).read_line(&mut status_line).unwrap();
        assert!(status_line.contains("400"), "{status_line:?}");
    }

    #[test]
    fn dead_peer_is_a_typed_error_not_a_hang() {
        // Bind then drop: the port is (very likely) unbound now.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = http_request(addr, "GET", "/healthz", &[], Duration::from_millis(500))
            .expect_err("nobody listening");
        assert!(
            matches!(err, HttpError::Connect(_) | HttpError::Io(_)),
            "{err}"
        );
    }
}
