//! The one HTTP/1.1 stack in the tree: a blocking client with deadlines
//! and a small threaded server, both dependency-free. Every listener is
//! built on [`HttpServer`] — a node's introspection API
//! ([`crate::MetricsServer`]) and `hom-cluster-serve`'s router and
//! workers — and the router's worker calls go through [`ConnPool`].
//!
//! * **Bodies** both ways (request batches, snapshots, model blobs),
//!   framed by `Content-Length` only; `Transfer-Encoding` is refused.
//! * **Persistent connections.** The server serves requests on a
//!   connection in a loop until the peer sends `Connection: close`,
//!   hangs up, errs, or idles past the read deadline. The router keeps
//!   idle connections to each worker in a pool, so a batch costs
//!   no TCP handshake and no thread spawn.
//! * **Deadlines** on every socket operation: a dead worker must surface
//!   as a typed error within the configured timeout, never hang a
//!   router.
//! * **Per-connection threads** on the server: a slow or idle client
//!   ties up only its own thread, bounded by the read deadline and a
//!   connection cap — never the accept loop or other requests.
//! * **Bounded input**: a 16 KiB head, a 64 MiB body, 64 connections
//!   (the next is answered `503` and closed).
//!
//! Every message, either direction, leaves in one vectored write of its
//! rendered head and its body (no copy of the body), on a socket with
//! `TCP_NODELAY` set: a message is never split into small segments that
//! wait on each other. Bodies are read as their bytes arrive, so a
//! declared `Content-Length` reserves no memory the peer has not sent.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bodies above this size are rejected (64 MiB), either direction — far
/// above any real model blob or batch, low enough that a corrupt
/// `Content-Length` or an endless body cannot OOM a node.
const MAX_BODY: usize = 64 << 20;

/// Body bytes reserved before any arrive: a declared `Content-Length`
/// beyond this grows the buffer only as the bytes come in.
const BODY_RESERVE: usize = 64 << 10;

/// The request/status line plus headers must fit this budget (16 KiB,
/// either direction) — a peer streaming an endless header line cannot
/// grow a line buffer unboundedly (`MAX_BODY` bounds only bodies).
const MAX_HEAD: u64 = 16 << 10;

/// Concurrent connections one server handles, idle keep-alive ones
/// included. Accepts beyond the cap are answered `503` immediately —
/// shed, not queued behind slow peers.
const MAX_CONNECTIONS: usize = 64;

/// How long a server connection may wait for the next byte — of a new
/// request or of one in progress — before it is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// After a malformed head is answered `400`, the client's unread input
/// is drained before the close — up to this many bytes, for at most
/// [`LINGER_TIMEOUT`] — so the close is not a reset (see
/// [`linger_close`]).
const LINGER_BYTES: usize = 1 << 20;

/// The time bound of [`linger_close`]'s drain.
const LINGER_TIMEOUT: Duration = Duration::from_secs(2);

/// A pooled connection idle longer than this is closed rather than
/// reused, well before the server's [`IDLE_TIMEOUT`] can close it under
/// a request.
const POOL_IDLE: Duration = Duration::from_secs(15);

/// Idle connections a [`ConnPool`] keeps per peer; more are closed on
/// return.
const POOL_PER_PEER: usize = 8;

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

fn io_error(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

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

/// The parts of a message head this crate reads.
#[derive(Debug, Default)]
struct Head {
    /// The request or status line, without its line ending.
    start: String,
    /// The `Content-Length` value, when sent.
    content_length: Option<usize>,
    /// Whether the sender asked `Connection: close`.
    close: bool,
    /// The [`TRACE_HEADER`] value, when sent.
    trace: Option<String>,
}

/// Why no message was read.
#[derive(Debug)]
enum ReadError {
    /// The peer hung up before the first byte of a message: a clean end
    /// of a keep-alive connection.
    Closed,
    /// The socket failed (reset, timeout, EOF inside a body).
    Io(std::io::Error),
    /// The bytes are not a head this crate accepts.
    Malformed(&'static str),
}

/// Read one message head, at most [`MAX_HEAD`] bytes of it, leaving the
/// reader at the first body byte.
fn read_head(reader: &mut impl BufRead) -> Result<Head, ReadError> {
    let mut limited = reader.take(MAX_HEAD);
    let mut head = Head::default();
    let mut line = Vec::new();
    for index in 0.. {
        line.clear();
        let n = limited
            .read_until(b'\n', &mut line)
            .map_err(ReadError::Io)?;
        if n == 0 && index == 0 {
            return Err(ReadError::Closed);
        }
        if line.last() != Some(&b'\n') {
            return Err(ReadError::Malformed(if limited.limit() == 0 {
                "head too large"
            } else {
                "truncated head"
            }));
        }
        let text = std::str::from_utf8(&line)
            .map_err(|_| ReadError::Malformed("head is not UTF-8"))?
            .trim_end_matches(['\r', '\n']);
        if index == 0 {
            head.start = text.to_string();
            continue;
        }
        if text.is_empty() {
            break;
        }
        let (name, value) = text
            .split_once(':')
            .ok_or(ReadError::Malformed("header line without a colon"))?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let len = value
                .parse::<usize>()
                .ok()
                .filter(|&len| len <= MAX_BODY)
                .ok_or(ReadError::Malformed("bad content-length"))?;
            if head.content_length.is_some_and(|seen| seen != len) {
                return Err(ReadError::Malformed("conflicting content-length"));
            }
            head.content_length = Some(len);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only Content-Length framing is spoken; a chunked body would
            // be read as the next request on a keep-alive connection.
            return Err(ReadError::Malformed("transfer-encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            head.close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case(TRACE_HEADER) {
            head.trace = Some(value.to_string());
        }
    }
    Ok(head)
}

/// Read exactly `len` body bytes, growing the buffer only as they
/// arrive.
fn read_body(reader: &mut impl BufRead, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE));
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// One blocking HTTP request on a fresh connection, sent
/// `Connection: close`, with one deadline over every socket phase.
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

/// [`http_request`] stamping a [`TRACE_HEADER`] when `trace` is `Some`
/// (a `hom_obs::TraceContext` rendered via `to_header()`).
pub fn http_request_traced(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
    trace: Option<&str>,
) -> Result<(u16, Vec<u8>), HttpError> {
    let mut conn = HttpConn::connect(addr, Instant::now() + timeout)?;
    conn.send_request(method, path, body, trace, true)?;
    let reply = conn.read_response(true)?;
    Ok((reply.status, reply.body))
}

/// A client socket whose every read and write gets the time left before
/// its deadline. Past the deadline a read returns only bytes already
/// received, so a reply that arrived in time is never lost to a slower
/// peer read before it.
#[derive(Debug)]
struct Timed {
    socket: TcpStream,
    deadline: Instant,
}

/// The time left before `deadline`; `None` once it has passed.
fn time_left(deadline: Instant) -> Option<Duration> {
    Some(deadline.saturating_duration_since(Instant::now())).filter(|d| !d.is_zero())
}

fn timed_out() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline exceeded")
}

impl Read for Timed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(left) = time_left(self.deadline) {
            self.socket.set_read_timeout(Some(left))?;
            return self.socket.read(buf);
        }
        self.socket.set_nonblocking(true)?;
        let read = self.socket.read(buf);
        self.socket.set_nonblocking(false)?;
        read.map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock => timed_out(),
            _ => e,
        })
    }
}

impl Write for Timed {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let left = time_left(self.deadline).ok_or_else(timed_out)?;
        self.socket.set_write_timeout(Some(left))?;
        self.socket.write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A client connection: the socket, its peer, and the read buffer that
/// outlives each exchange on it.
#[derive(Debug)]
pub struct HttpConn {
    peer: SocketAddr,
    reader: BufReader<Timed>,
}

/// A response read by [`HttpConn::read_response`].
struct Reply {
    status: u16,
    body: Vec<u8>,
    /// Whether the connection may carry another exchange.
    keep_alive: bool,
}

impl HttpConn {
    /// Connect to `peer`, failing by `deadline`.
    fn connect(peer: SocketAddr, deadline: Instant) -> Result<Self, HttpError> {
        let left = time_left(deadline)
            .ok_or_else(|| HttpError::Connect("deadline exceeded".to_string()))?;
        let socket = TcpStream::connect_timeout(&peer, left)
            .map_err(|e| HttpError::Connect(e.to_string()))?;
        socket.set_nodelay(true).map_err(io_error)?;
        Ok(HttpConn {
            peer,
            reader: BufReader::new(Timed { socket, deadline }),
        })
    }

    /// The server this connection talks to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// The first half of an exchange: write one request — head and body
    /// in one vectored write — asking `Connection: close` when `close`.
    fn send_request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
        close: bool,
    ) -> Result<(), HttpError> {
        let mut head = String::with_capacity(128);
        let _ = write!(
            head,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.peer,
            body.len()
        );
        if let Some(value) = trace {
            let _ = write!(head, "{TRACE_HEADER}: {value}\r\n");
        }
        if close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        write_message(self.reader.get_mut(), head.as_bytes(), body).map_err(io_error)
    }

    /// The second half: read the response to the request sent with
    /// `close`. A keep-alive reply must carry `Content-Length`; a closing
    /// one may instead run to EOF, at most [`MAX_BODY`] bytes.
    fn read_response(&mut self, close: bool) -> Result<Reply, HttpError> {
        let head = read_head(&mut self.reader).map_err(|e| match e {
            ReadError::Closed => HttpError::Io("connection closed before the response".into()),
            ReadError::Io(e) => io_error(e),
            ReadError::Malformed(what) => HttpError::Malformed(what),
        })?;
        let status: u16 = head
            .start
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::Malformed("status line"))?;
        let keep_alive = !close && !head.close;
        let body = match head.content_length {
            Some(len) => read_body(&mut self.reader, len).map_err(io_error)?,
            None if keep_alive => {
                return Err(HttpError::Malformed(
                    "keep-alive response without content-length",
                ))
            }
            None => {
                let mut body = Vec::new();
                (&mut self.reader)
                    .take(MAX_BODY as u64 + 1)
                    .read_to_end(&mut body)
                    .map_err(io_error)?;
                if body.len() > MAX_BODY {
                    return Err(HttpError::Malformed("response body too large"));
                }
                body
            }
        };
        Ok(Reply {
            status,
            body,
            keep_alive,
        })
    }

    /// Whether an idle connection can carry a new request: nothing
    /// unread is buffered and the peer has neither sent bytes nor hung
    /// up (a non-blocking peek would block). Nothing is written.
    fn is_reusable(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let socket = &self.reader.get_ref().socket;
        if socket.set_nonblocking(true).is_err() {
            return false;
        }
        let idle = matches!(
            socket.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        socket.set_nonblocking(false).is_ok() && idle
    }
}

/// Idle keep-alive connections, per peer, for a client that talks to a
/// fixed set of servers (the router → its workers).
///
/// [`ConnPool::send`] takes an idle connection that passes a liveness
/// check — or opens one — and writes the request; [`ConnPool::receive`]
/// reads the reply and puts the connection back. A request whose bytes
/// reached a socket is never resent: a failure after that point is the
/// caller's error to report, and the connection is dropped.
#[derive(Debug, Default)]
pub struct ConnPool {
    idle: Mutex<HashMap<SocketAddr, Vec<(Instant, HttpConn)>>>,
}

impl ConnPool {
    /// Write one request to `peer`, every socket operation of the
    /// exchange bounded by `deadline`. The returned connection carries
    /// the request; hand it to [`Self::receive`] for the reply.
    pub fn send(
        &self,
        peer: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
        deadline: Instant,
    ) -> Result<HttpConn, HttpError> {
        let mut conn = match self.checkout(peer) {
            Some(mut conn) => {
                conn.reader.get_mut().deadline = deadline;
                conn
            }
            None => HttpConn::connect(peer, deadline)?,
        };
        conn.send_request(method, path, body, trace, false)?;
        Ok(conn)
    }

    /// Read the reply to the request [`Self::send`] wrote on `conn`,
    /// then pool the connection if the server keeps it open.
    pub fn receive(&self, mut conn: HttpConn) -> Result<(u16, Vec<u8>), HttpError> {
        let reply = conn.read_response(false)?;
        if reply.keep_alive {
            let mut idle = lock(&self.idle);
            let conns = idle.entry(conn.peer).or_default();
            if conns.len() < POOL_PER_PEER {
                conns.push((Instant::now(), conn));
            }
        }
        Ok((reply.status, reply.body))
    }

    /// The most recently pooled live connection to `peer`; stale ones
    /// met on the way are closed.
    fn checkout(&self, peer: SocketAddr) -> Option<HttpConn> {
        loop {
            let (since, conn) = lock(&self.idle).get_mut(&peer)?.pop()?;
            if since.elapsed() < POOL_IDLE && conn.is_reusable() {
                return Some(conn);
            }
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The handler a server dispatches every request to.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A blocking HTTP server: one accept-loop thread, a thread per live
/// connection, requests dispatched to a [`Handler`]. Dropping the server
/// stops the loop, hangs up idle connections, and joins every thread
/// once its in-flight request is answered.
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
    // Every live connection by accept number: its size is the connection
    // count the cap applies to, and the handles let a stopping server
    // hang up on idle keep-alive peers.
    let live: Arc<Mutex<HashMap<usize, TcpStream>>> = Arc::default();
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, conn) in listener.incoming().enumerate() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(conn) = conn else { continue };
        conn_threads.retain(|h| !h.is_finished());
        let Ok(hangup) = conn.try_clone() else {
            continue;
        };
        {
            let mut live = lock(&live);
            // One thread per connection: a slow or idle peer ties up only
            // its own thread (bounded by the read deadline), never the
            // accept loop or other requests. Beyond the cap, shed
            // promptly.
            if live.len() >= MAX_CONNECTIONS {
                drop(live);
                let _ = write_response(&conn, &HttpResponse::unavailable("connection limit"), true);
                continue;
            }
            live.insert(id, hangup);
        }
        let handler = Arc::clone(&handler);
        let thread_live = Arc::clone(&live);
        let spawned = std::thread::Builder::new()
            .name("hom-http-conn".to_string())
            .spawn(move || {
                // An I/O error drops the connection — a broken client
                // must never take the node down.
                let _ = serve_connection(&conn, &handler);
                lock(&thread_live).remove(&id);
            });
        match spawned {
            Ok(handle) => conn_threads.push(handle),
            // Spawn failure (thread exhaustion): the closure — and with
            // it the connection — was dropped without running.
            Err(_) => {
                lock(&live).remove(&id);
            }
        }
    }
    // Stopping: end the read side of every live connection, so a thread
    // waiting for a next request sees EOF now rather than at its idle
    // deadline; one mid-request still answers before it exits.
    for conn in lock(&live).values() {
        let _ = conn.shutdown(Shutdown::Read);
    }
    for handle in conn_threads {
        let _ = handle.join();
    }
}

/// Serve requests on `conn` until the peer asks `Connection: close`,
/// hangs up, sends a malformed head (answered `400`, then closed by
/// [`linger_close`]), or
/// idles past [`IDLE_TIMEOUT`].
fn serve_connection(conn: &TcpStream, handler: &Handler) -> std::io::Result<()> {
    conn.set_read_timeout(Some(IDLE_TIMEOUT))?;
    conn.set_write_timeout(Some(IDLE_TIMEOUT))?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn);
    loop {
        let (request, close) = match read_request(&mut reader) {
            Ok(read) => read,
            Err(ReadError::Closed) => return Ok(()),
            Err(ReadError::Io(e)) => return Err(e),
            Err(ReadError::Malformed(why)) => {
                write_response(conn, &HttpResponse::bad_request(why), true)?;
                linger_close(conn);
                return Ok(());
            }
        };
        write_response(conn, &handler(&request), close)?;
        if close {
            return Ok(());
        }
    }
}

/// Close after a rejected request without a reset. Closing with the
/// client's bytes unread makes the kernel answer with RST, which can
/// discard the `400` before the client reads it. So stop writing (the
/// client sees EOF after the response), then read and discard until the
/// client hangs up — at most [`LINGER_BYTES`], for at most
/// [`LINGER_TIMEOUT`].
fn linger_close(mut conn: &TcpStream) {
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER_TIMEOUT;
    let mut sink = [0u8; 8 << 10];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// Read one request — head and body — and whether it asked
/// `Connection: close`.
fn read_request(reader: &mut impl BufRead) -> Result<(HttpRequest, bool), ReadError> {
    let head = read_head(reader)?;
    let mut parts = head.start.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(ReadError::Malformed("bad request line"));
    };
    let request = HttpRequest {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        body: read_body(reader, head.content_length.unwrap_or(0)).map_err(ReadError::Io)?,
        trace: head.trace,
    };
    Ok((request, head.close))
}

/// Write `response`, announcing `Connection: close` when `close`.
fn write_response(conn: &TcpStream, response: &HttpResponse, close: bool) -> std::io::Result<()> {
    let mut head = String::with_capacity(128);
    let _ = write!(
        head,
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}\r\n",
        response.status,
        response.content_type,
        response.body.len(),
        if close { "Connection: close\r\n" } else { "" }
    );
    write_message(conn, head.as_bytes(), &response.body)
}

/// Send one HTTP message: the head, rendered into one buffer, and the
/// body go out in one vectored write — one syscall in the common case,
/// with no copy of the body — looping only on a short write.
fn write_message(mut conn: impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    /// A peer for one connection: once the request head has arrived it
    /// runs `reply`, then holds the connection open until the client
    /// hangs up.
    fn raw_server(
        reply: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("the client connects");
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            read_head(&mut reader).expect("a request head");
            reply(&mut conn);
            let _ = reader.read_to_end(&mut Vec::new());
        });
        (addr, handle)
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
    fn connections_beyond_the_cap_are_shed_with_503_until_one_hangs_up() {
        let server = echo_server();
        // Accepts are served in connect order, so the idle peers hold
        // every slot before the next connection arrives.
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(server.addr()).expect("connects"))
            .collect();
        let mut shed = TcpStream::connect(server.addr()).expect("connects");
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = String::new();
        shed.read_to_string(&mut reply)
            .expect("answered, then closed");
        assert!(reply.starts_with("HTTP/1.1 503 "), "{reply:?}");
        assert!(reply.contains("Connection: close\r\n"), "{reply:?}");

        // One idle peer hangs up; its slot frees once the server sees EOF.
        drop(idle.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (status, body) =
                http_request(server.addr(), "GET", "/hello", &[], Duration::from_secs(5))
                    .expect("the node answers");
            if status == 200 {
                assert_eq!(body, b"GET ok");
                break;
            }
            assert_eq!(status, 503);
            assert!(Instant::now() < deadline, "the freed slot was never reused");
            std::thread::sleep(Duration::from_millis(10));
        }
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

    #[test]
    fn a_pooled_connection_carries_every_exchange() {
        let server = echo_server();
        let pool = ConnPool::default();
        let mut ports = Vec::new();
        for i in 0..5u8 {
            let conn = pool
                .send(server.addr(), "POST", "/echo", &[i; 3], None, soon())
                .unwrap();
            ports.push(conn.reader.get_ref().socket.local_addr().unwrap());
            assert_eq!(pool.receive(conn).unwrap(), (200, vec![i; 3]));
        }
        ports.dedup();
        assert_eq!(ports.len(), 1, "one connection, reused: {ports:?}");
    }

    #[test]
    fn dropping_a_server_hangs_up_its_idle_connections() {
        let server = echo_server();
        let addr = server.addr();
        let pool = ConnPool::default();
        let conn = pool.send(addr, "GET", "/hello", &[], None, soon()).unwrap();
        pool.receive(conn).unwrap();
        let t0 = Instant::now();
        drop(server);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drop waited on an idle keep-alive connection"
        );
        assert!(
            pool.checkout(addr).is_none(),
            "the hung-up connection is stale"
        );
    }

    #[test]
    fn a_keep_alive_reply_without_length_is_a_typed_error() {
        let (addr, peer) = raw_server(|conn| {
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\n\r\nhello");
        });
        let pool = ConnPool::default();
        let conn = pool.send(addr, "GET", "/", &[], None, soon()).unwrap();
        assert_eq!(
            pool.receive(conn),
            Err(HttpError::Malformed(
                "keep-alive response without content-length"
            ))
        );
        peer.join().expect("peer thread");
    }

    #[test]
    fn a_body_read_to_eof_stops_at_the_cap() {
        let (addr, peer) = raw_server(|conn| {
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
            let chunk = vec![b'x'; 1 << 20];
            while conn.write_all(&chunk).is_ok() {}
        });
        let err = http_request(addr, "GET", "/", &[], Duration::from_secs(30))
            .expect_err("an endless body is refused");
        assert_eq!(err, HttpError::Malformed("response body too large"));
        peer.join().expect("peer thread");
    }

    #[test]
    fn a_silent_peer_fails_by_the_deadline() {
        let (addr, peer) = raw_server(|_| {});
        let t0 = Instant::now();
        let err = http_request(addr, "GET", "/", &[], Duration::from_millis(300))
            .expect_err("no reply comes");
        assert!(matches!(err, HttpError::Io(_)), "{err}");
        let took = t0.elapsed();
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_secs(2),
            "{took:?}"
        );
        peer.join().expect("peer thread");
    }

    /// One request as a client writes it.
    fn request_bytes(
        method: &str,
        path: &str,
        trace: Option<&str>,
        body: &[u8],
        close: bool,
    ) -> Vec<u8> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: node\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(value) = trace {
            head.push_str(&format!("{TRACE_HEADER}: {value}\r\n"));
        }
        if close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    /// A request as `(method, path, trace, body, close)`.
    type Parts = (String, String, Option<String>, Vec<u8>, bool);

    fn request() -> impl Strategy<Value = Parts> {
        (
            0usize..3,
            vec(0u8..26, 0..10),
            (any::<bool>(), any::<u64>()),
            vec(any::<u8>(), 0..32),
            any::<bool>(),
        )
            .prop_map(|(method, path, (traced, id), body, close)| {
                let path: String = path.iter().map(|&c| char::from(b'a' + c)).collect();
                (
                    ["GET", "POST", "PUT"][method].to_string(),
                    format!("/{path}"),
                    traced.then(|| format!("{:016x}-{:016x}", id | 1, id >> 7)),
                    body,
                    close,
                )
            })
    }

    fn encode(r: &Parts) -> Vec<u8> {
        request_bytes(&r.0, &r.1, r.2.as_deref(), &r.3, r.4)
    }

    /// Read requests off `bytes` as a server connection does, until the
    /// first error: what was read and how reading ended.
    fn read_all(mut bytes: &[u8]) -> (Vec<Parts>, ReadError) {
        let mut read = Vec::new();
        loop {
            match read_request(&mut bytes) {
                Ok((r, close)) => read.push((r.method, r.path, r.trace, r.body, close)),
                Err(end) => return (read, end),
            }
        }
    }

    /// Every prefix of `bytes` and every single bit flip of it.
    fn damaged(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                out.push(flipped);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn two_requests_on_one_connection_read_back_exactly(first in request(), second in request()) {
            let mut bytes = encode(&first);
            bytes.extend(encode(&second));
            let (read, end) = read_all(&bytes);
            prop_assert_eq!(read, vec![first, second]);
            prop_assert!(matches!(end, ReadError::Closed), "{end:?}");
        }

        #[test]
        fn damaged_heads_read_or_fail_typed(first in request(), second in request()) {
            let mut bytes = encode(&first);
            bytes.extend(encode(&second));
            for bad in damaged(&bytes) {
                let (_, end) = read_all(&bad);
                prop_assert!(
                    match &end {
                        ReadError::Closed | ReadError::Malformed(_) => true,
                        ReadError::Io(e) => e.kind() == std::io::ErrorKind::UnexpectedEof,
                    },
                    "{end:?} for {:?}",
                    String::from_utf8_lossy(&bad)
                );
            }
        }
    }

    /// The status of every response in `reply`, which must hold whole
    /// responses only.
    fn statuses(mut reply: &[u8]) -> Vec<u16> {
        let mut out = Vec::new();
        loop {
            match read_head(&mut reply) {
                Ok(head) => {
                    let status = head
                        .start
                        .split_whitespace()
                        .nth(1)
                        .and_then(|s| s.parse().ok());
                    out.push(status.expect("status line"));
                    read_body(&mut reply, head.content_length.expect("framed"))
                        .expect("whole body");
                }
                Err(ReadError::Closed) => return out,
                Err(e) => panic!("garbled reply: {e:?}"),
            }
        }
    }

    #[test]
    fn a_live_node_answers_damaged_requests_with_400_or_a_hangup() {
        let server = echo_server();
        let mut valid = request_bytes(
            "POST",
            "/echo",
            Some("00000000deadbeef-0000000000000007"),
            b"hello",
            false,
        );
        valid.extend(request_bytes("GET", "/hello", None, b"", true));
        let exchange = |bytes: &[u8]| {
            let mut conn = TcpStream::connect(server.addr()).expect("node accepts");
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // A write may fail once the node has answered 400 and hung up.
            let _ = conn.write_all(bytes);
            let _ = conn.shutdown(Shutdown::Write);
            let mut reply = Vec::new();
            let _ = conn.read_to_end(&mut reply);
            statuses(&reply)
        };
        assert_eq!(exchange(&valid), [200, 200], "two requests, one connection");
        for bad in damaged(&valid) {
            let statuses = exchange(&bad);
            let (last, served) = statuses
                .split_last()
                .map_or((None, &[][..]), |(l, s)| (Some(*l), s));
            assert!(
                served.iter().all(|s| [200, 404].contains(s))
                    && last.is_none_or(|s| [200, 400, 404].contains(&s)),
                "{statuses:?} for {:?}",
                String::from_utf8_lossy(&bad)
            );
        }
        let (status, _) = http_request(server.addr(), "GET", "/hello", &[], Duration::from_secs(5))
            .expect("the node keeps serving");
        assert_eq!(status, 200);
    }
}
