//! The TCP server: acceptor, per-connection handlers, HTTP endpoints.
//!
//! One [`std::net::TcpListener`] accepts both dialects; the first bytes of
//! a connection decide. A line starting with an HTTP method keyword makes
//! the connection an HTTP exchange (`GET /metrics`, `GET /view/<name>`,
//! `POST /query`) — persistent by default for HTTP/1.1 per RFC 9112
//! (honoring `Connection: close` / `keep-alive` either way); anything else
//! enters the newline-delimited line protocol and stays in it until EOF or
//! `\quit`.
//!
//! Each connection gets its own OS thread (blocking reads), but **query
//! evaluation runs on the shared work-stealing [`ParPool`]**: the handler
//! dispatches one pool job per admitted query and waits on a channel — with
//! `recv_timeout` when a deadline is configured — so a slow query times out
//! without wedging its connection, and a panicking query surfaces as an
//! error response without taking the worker or the acceptor down.
//!
//! Robustness policy, exercised byte-by-byte in `tests/serve.rs`:
//!
//! * malformed requests (bad UTF-8, parse errors, unknown commands) get an
//!   `error:` response and the connection stays usable;
//! * an oversized request line (> [`ServerConfig::max_request_bytes`]) gets
//!   an `error:` response and the connection closes — the framing can no
//!   longer be trusted;
//! * abrupt disconnects and truncated requests end the handler quietly;
//!   the acceptor never sees any of it.

use crate::admission::{Admission, CancelToken};
use crate::epoch::EpochManager;
use crate::protocol::{self, Request, WriteOp};
use crate::stats;
use cqa_core::answers::AnswerSets;
use cqa_data::{Schema, UncertainDatabase};
use cqa_par::{BatchEngine, BatchOutcome, BatchResult, ParPool};
use cqa_query::ConjunctiveQuery;
use std::collections::{BTreeSet, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The [`ServerConfig::on_query_start`] hook: runs on the pool worker with
/// the admitted query's [`CancelToken`].
pub type QueryStartHook = Arc<dyn Fn(&CancelToken) + Send + Sync>;

/// Tuning knobs of a [`Server`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads of the query pool (`None`: one per hardware thread).
    pub threads: Option<usize>,
    /// Admission bound: maximum queries in flight (queued + running) across
    /// all connections; the excess is rejected loudly. `0` rejects every
    /// query (the deterministic overload-path test mode).
    pub max_inflight: usize,
    /// Per-query deadline; `None` disables timeouts.
    pub deadline: Option<Duration>,
    /// Maximum bytes of one request line (and of an HTTP body). Oversized
    /// requests are answered with an error and the connection closes.
    pub max_request_bytes: usize,
    /// Candidate-answer chunk size between cancellation checks: smaller
    /// chunks notice a tripped deadline sooner at slightly more overhead.
    pub query_chunk: usize,
    /// Test seam: runs on the pool worker at the start of every admitted
    /// query, before evaluation, with the query's [`CancelToken`]. The
    /// concurrency suite parks here to saturate admission control and to
    /// guarantee a query is still running when its deadline fires — fully
    /// deterministic overload/timeout tests, no sleeps-as-synchronization.
    pub on_query_start: Option<QueryStartHook>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: None,
            max_inflight: 64,
            deadline: None,
            max_request_bytes: 64 * 1024,
            query_chunk: 256,
            on_query_start: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("threads", &self.threads)
            .field("max_inflight", &self.max_inflight)
            .field("deadline", &self.deadline)
            .field("max_request_bytes", &self.max_request_bytes)
            .field("query_chunk", &self.query_chunk)
            .field("on_query_start", &self.on_query_start.is_some())
            .finish()
    }
}

/// Everything the acceptor, the connection handlers and the pool jobs
/// share.
pub(crate) struct Shared {
    pub(crate) schema: Arc<Schema>,
    pub(crate) epochs: EpochManager,
    pub(crate) admission: Admission,
    pub(crate) pool: ParPool,
    pub(crate) config: ServerConfig,
    stop: AtomicBool,
    pub(crate) served: AtomicUsize,
    pub(crate) started: Instant,
}

impl Shared {
    /// Builds the configured pool and freezes `db` as epoch zero.
    pub(crate) fn new(db: UncertainDatabase, config: ServerConfig) -> Arc<Shared> {
        let pool = match config.threads {
            Some(n) => ParPool::new(n),
            None => ParPool::with_available_parallelism(),
        };
        Arc::new(Shared {
            schema: db.schema().clone(),
            epochs: EpochManager::new(db, pool.clone()),
            admission: Admission::new(config.max_inflight),
            pool,
            config,
            stop: AtomicBool::new(false),
            served: AtomicUsize::new(0),
            started: Instant::now(),
        })
    }
}

/// A bound, not-yet-running server. [`run`](Server::run) blocks the calling
/// thread in the accept loop; [`spawn`](Server::spawn) runs it on its own
/// thread and returns a [`ServerHandle`] for tests and embedders.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Serves the line protocol over one byte stream with the handler every
/// TCP connection runs — admission, deadlines, writes, views — freezing
/// `db` as epoch zero. `certainty serve` without `--listen` passes stdin
/// and stdout. Returns at the end of `input` or after `\quit`, once every
/// response is written.
///
/// The stream is the server's only client, so buffered query lines may
/// fill every admission slot: up to `max_inflight` run at once.
pub fn serve_stream(
    db: UncertainDatabase,
    config: ServerConfig,
    input: impl Read,
    output: impl Write,
) -> io::Result<()> {
    let shared = Shared::new(db, config);
    let depth = shared.config.max_inflight.max(1);
    serve_connection(
        &shared,
        BufReader::new(input),
        BufWriter::new(output),
        depth,
    )
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// freezes `db` as epoch zero.
    pub fn bind(db: UncertainDatabase, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            shared: Shared::new(db, config),
        })
    }

    /// The bound address (the ephemeral port after binding `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The query pool (shared with every connection's batch evaluation).
    pub fn pool(&self) -> &ParPool {
        &self.shared.pool
    }

    /// Accepts connections until [`ServerHandle::shutdown`] trips the stop
    /// flag, one handler thread per connection. A failed accept is counted
    /// and skipped — a misbehaving client must never kill the acceptor.
    pub fn run(&self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.shared.stop.load(Ordering::Relaxed) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let shared = self.shared.clone();
                    std::thread::Builder::new()
                        .name("cqa-serve-conn".to_string())
                        .spawn(move || handle_connection(shared, stream))?;
                }
                Err(_) => {
                    cqa_obs::count!("serve.accept_errors");
                }
            }
        }
        Ok(())
    }

    /// Runs the accept loop on its own thread, returning a handle that can
    /// shut it down.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = self.shared.clone();
        let thread = std::thread::Builder::new()
            .name("cqa-serve-acceptor".to_string())
            .spawn(move || {
                let _ = self.run();
            })?;
        Ok(ServerHandle {
            addr,
            shared,
            thread,
        })
    }
}

/// A running server's control handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epochs.epoch()
    }

    /// Queries answered so far (all connections).
    pub fn served(&self) -> usize {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Stops the acceptor and joins its thread. Open connections keep their
    /// handler threads until the client side closes; tests close their
    /// clients first.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// One bounded request line.
enum Line {
    /// A complete (or final unterminated) line, without its terminator.
    Request(Vec<u8>),
    /// The line exceeded the byte bound before a newline appeared.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes. The bound is
/// enforced *while reading* (via [`Read::take`]), so a hostile client
/// cannot balloon memory with a newline-free stream.
fn read_request_line(reader: &mut impl BufRead, max: usize) -> io::Result<Line> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(Line::Request(buf));
    }
    if buf.len() > max {
        return Ok(Line::TooLong);
    }
    // EOF before a newline: serve the truncated request; the next read
    // reports Eof and the handler exits.
    Ok(Line::Request(buf))
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    cqa_obs::count!("serve.connections");
    // One-line responses must not sit in Nagle's buffer waiting for a
    // delayed ACK — that turns sub-millisecond queries into ~40ms round
    // trips on loopback.
    let _ = stream.set_nodelay(true);
    // IO errors mean the client is gone; nothing to report, nothing to
    // wedge — the handler simply ends. Connections share admission, so
    // each holds at most one slot: a client that pipelines waits for each
    // answer and cannot crowd the others out.
    let _ = stream.try_clone().and_then(|reader| {
        serve_connection(&shared, BufReader::new(reader), BufWriter::new(stream), 1)
    });
}

/// The line-protocol loop of one connection. Queries are pipelined: after
/// submitting one, the handler reads the next request at once if a whole
/// line is already buffered and fewer than `depth` queries are pending;
/// otherwise it writes the pending answers, oldest first, before it blocks
/// on a read. Every other request first waits for the pending answers, so
/// responses keep request order and a write never overtakes an earlier
/// query.
fn serve_connection(
    shared: &Arc<Shared>,
    mut reader: BufReader<impl Read>,
    mut writer: impl Write,
    depth: usize,
) -> io::Result<()> {
    let mut pending = VecDeque::new();
    let mut request_no = 0usize;
    let mut first = true;
    loop {
        let buffered = reader.buffer().contains(&b'\n');
        drain(
            shared,
            &mut pending,
            if buffered { depth - 1 } else { 0 },
            &mut writer,
        )?;
        if !buffered {
            writer.flush()?;
        }
        let line = match read_request_line(&mut reader, shared.config.max_request_bytes)? {
            Line::Eof => return finish(shared, &mut pending, None, &mut writer),
            Line::TooLong => {
                cqa_obs::count!("serve.protocol_errors");
                let message = format!(
                    "request exceeds {} bytes; closing connection",
                    shared.config.max_request_bytes
                );
                let response = protocol::render_error("request", &message);
                return finish(shared, &mut pending, Some(&response), &mut writer);
            }
            Line::Request(bytes) => {
                if first && looks_like_http(&bytes) {
                    return serve_http(shared, &bytes, &mut reader, &mut writer);
                }
                first = false;
                bytes
            }
        };
        let n = request_no + 1;
        // One request, one response — and a panic anywhere in parsing or
        // dispatch becomes an error response, never a dead connection.
        let Some(request) = guarded(n, || parse_line(shared, &line, n)).transpose() else {
            continue;
        };
        request_no = n;
        let request = match request {
            Ok(Request::Query { name, query }) => {
                match guarded(n, || submit_query(shared, name, query, n)) {
                    Ok(query) => {
                        pending.push_back(query);
                        continue;
                    }
                    Err(rejected) => Err(rejected),
                }
            }
            Ok(Request::Quit) => return finish(shared, &mut pending, Some("bye"), &mut writer),
            other => other,
        };
        drain(shared, &mut pending, 0, &mut writer)?;
        let response = request.and_then(|request| guarded(n, || run_request(shared, request, n)));
        writeln!(writer, "{}", response.unwrap_or_else(|e| e))?;
    }
}

/// Writes the answers of pending queries, oldest first, until at most
/// `keep` remain.
fn drain(
    shared: &Arc<Shared>,
    pending: &mut VecDeque<PendingQuery>,
    keep: usize,
    writer: &mut impl Write,
) -> io::Result<()> {
    while pending.len() > keep {
        let query = pending
            .pop_front()
            .expect("more than `keep` queries pending");
        let response = guarded(query.n, || Ok(query.wait(shared))).unwrap_or_else(|e| e);
        writeln!(writer, "{response}")?;
    }
    Ok(())
}

/// Ends the connection: every pending answer, then `last`, then a flush.
fn finish(
    shared: &Arc<Shared>,
    pending: &mut VecDeque<PendingQuery>,
    last: Option<&str>,
    writer: &mut impl Write,
) -> io::Result<()> {
    drain(shared, pending, 0, writer)?;
    if let Some(last) = last {
        writeln!(writer, "{last}")?;
    }
    writer.flush()
}

/// Runs `f`, turning a panic into request `n`'s "internal error" response.
/// `Err` carries the response line of a request that goes no further.
fn guarded<T>(n: usize, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
        cqa_obs::count!("serve.handler_panics");
        Err(protocol::render_error(
            &format!("q{n}"),
            "internal error while handling the request",
        ))
    })
}

/// Parses one request line; `n` is its 1-based request number on this
/// connection (blank lines, which parse to `None`, don't consume numbers).
fn parse_line(shared: &Shared, line: &[u8], n: usize) -> Result<Option<Request>, String> {
    let Ok(text) = std::str::from_utf8(line) else {
        cqa_obs::count!("serve.protocol_errors");
        return Err(protocol::render_error(
            &format!("q{n}"),
            "request is not valid UTF-8",
        ));
    };
    let request = protocol::parse_request(&shared.schema, text, n).map_err(|e| {
        cqa_obs::count!("serve.protocol_errors");
        protocol::render_error(&format!("q{n}"), &e)
    })?;
    if request.is_some() {
        cqa_obs::count!("serve.requests");
    }
    Ok(request)
}

/// Runs one request to completion; a query waits for its answer.
fn run_request(shared: &Arc<Shared>, request: Request, n: usize) -> Result<String, String> {
    match request {
        Request::Query { name, query } => Ok(submit_query(shared, name, query, n)?.wait(shared)),
        Request::Write(op) => execute_write(shared, &op, n),
        Request::Subscribe { name, query } => {
            let reading = (shared.epochs.subscribe(&name, &query))
                .map_err(|e| protocol::render_error(&name, &e))?;
            Ok(format!(
                "ok: subscribed {name}, epoch {}, {} certain / {} possible",
                reading.epoch, reading.certain, reading.possible
            ))
        }
        Request::View { name } => match shared.epochs.view(&name) {
            Some(reading) => Ok(reading.line.clone()),
            None => Err(protocol::render_error(
                &name,
                &format!("unknown view `{name}`"),
            )),
        },
        Request::Stats => Ok(stats::stats_line(shared)),
        Request::Epoch => Ok(format!("epoch: {}", shared.epochs.epoch())),
        Request::Quit => Ok("bye".to_string()),
    }
}

fn execute_write(shared: &Arc<Shared>, op: &WriteOp, n: usize) -> Result<String, String> {
    cqa_obs::count!("serve.writes");
    let outcome = (shared.epochs.apply_write(op))
        .map_err(|e| protocol::render_error(&format!("q{n}"), &e))?;
    let verb = if !outcome.changed {
        "no-op"
    } else {
        match op {
            WriteOp::Insert(_) => "inserted",
            WriteOp::RemoveFact(_) => "removed",
            WriteOp::RemoveBlock(_) => "removed block",
        }
    };
    Ok(format!("ok: {verb}, epoch {}", outcome.epoch))
}

/// An admitted query running on the pool; [`wait`](PendingQuery::wait)
/// renders its response.
struct PendingQuery {
    /// The request number, for a panic's error response.
    n: usize,
    name: String,
    token: Arc<CancelToken>,
    deadline: Option<Instant>,
    rx: mpsc::Receiver<BatchResult>,
}

/// Admission control → pool dispatch of request `n`. `Err` is the
/// overload response.
fn submit_query(
    shared: &Arc<Shared>,
    name: String,
    query: ConjunctiveQuery,
    n: usize,
) -> Result<PendingQuery, String> {
    cqa_obs::count!("serve.queries");
    let Some(permit) = shared.admission.try_acquire() else {
        return Err(protocol::render_error(
            &name,
            &format!(
                "overloaded: {} queries in flight (limit {}); retry later",
                shared.admission.inflight(),
                shared.admission.max()
            ),
        ));
    };
    let deadline = shared.config.deadline.map(|d| Instant::now() + d);
    let token = Arc::new(CancelToken::new(deadline));
    let (tx, rx) = mpsc::channel();
    {
        let shared = shared.clone();
        let token = token.clone();
        let name = name.clone();
        shared.pool.clone().spawn(move || {
            // The permit rides with the job: the in-flight slot frees when
            // evaluation really ends, even if the handler timed out first.
            if let Some(hook) = &shared.config.on_query_start {
                hook(&token);
            }
            let result = answer_with_cancel(&shared, &name, &query, &token);
            // Release the slot before the client can see the answer: a
            // client that has read its response must never find its own
            // finished query still counted against the limit. Let go of the
            // server too: a stream handler that has every answer drops it
            // on its own thread.
            drop(permit);
            drop(shared);
            let _ = tx.send(result);
        });
    }
    Ok(PendingQuery {
        n,
        name,
        token,
        deadline,
        rx,
    })
}

impl PendingQuery {
    /// Deadline-bounded wait for the answer, rendered as the response.
    fn wait(self, shared: &Shared) -> String {
        let received = match self.deadline {
            None => self.rx.recv().map_err(|_| RecvFailure::Panicked),
            Some(deadline) => self
                .rx
                .recv_timeout(remaining(deadline))
                .map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => RecvFailure::DeadlineExceeded,
                    mpsc::RecvTimeoutError::Disconnected => RecvFailure::Panicked,
                }),
        };
        match received {
            Ok(result) => {
                shared.served.fetch_add(1, Ordering::Relaxed);
                cqa_obs::count!("serve.served");
                protocol::render_result(&result)
            }
            Err(RecvFailure::DeadlineExceeded) => {
                // Trip the token so the worker abandons the query at its next
                // chunk boundary; its late result lands in a dropped channel.
                self.token.cancel();
                cqa_obs::count!("serve.deadline_exceeded");
                let budget = shared.config.deadline.unwrap_or_default();
                protocol::render_error(
                    &self.name,
                    &format!("deadline exceeded after {} ms", budget.as_millis()),
                )
            }
            Err(RecvFailure::Panicked) => {
                cqa_obs::count!("serve.query_panics");
                protocol::render_error(&self.name, "query evaluation panicked")
            }
        }
    }
}

enum RecvFailure {
    DeadlineExceeded,
    Panicked,
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Answers one query on the **current** epoch, checking the cancel token
/// between candidate chunks. The epoch is pinned once, up front: possible
/// answers and every certainty chunk read the same frozen snapshot, which
/// is exactly the no-torn-reads property the epoch-isolation test asserts.
fn answer_with_cancel(
    shared: &Shared,
    name: &str,
    query: &ConjunctiveQuery,
    token: &CancelToken,
) -> BatchResult {
    let engine: Arc<BatchEngine> = shared.epochs.current();
    if token.is_cancelled() {
        return cancelled(name);
    }
    if query.is_boolean() {
        // Boolean queries are one plan execution; the engine memoizes the
        // classified solver per query shape and records query_nanos itself.
        return engine.answer(name, query);
    }
    let started = Instant::now();
    let result = open_query_in_chunks(shared, &engine, name, query, token);
    cqa_obs::observe_duration!("par.batch.query_nanos", started.elapsed());
    result
}

/// The open-query path: take the query's memoized answer engine from the
/// pinned epoch's engine memo, enumerate candidates through it, then decide
/// certainty in chunks, honoring cancellation between chunks.
fn open_query_in_chunks(
    shared: &Shared,
    engine: &BatchEngine,
    name: &str,
    query: &ConjunctiveQuery,
    token: &CancelToken,
) -> BatchResult {
    let db = engine.snapshot().database();
    let answers_engine = match engine.answer_engine(query) {
        Ok(answers_engine) => answers_engine,
        Err(e) => return failed(name, &e),
    };
    let possible = answers_engine.possible(db);
    let tuples: Vec<Vec<cqa_data::Value>> = possible.iter().cloned().collect();
    let mut certain = BTreeSet::new();
    for chunk in tuples.chunks(shared.config.query_chunk.max(1)) {
        if token.is_cancelled() {
            cqa_obs::count!("serve.cancelled_mid_query");
            return cancelled(name);
        }
        match answers_engine.verdicts(db, chunk) {
            Ok(verdicts) => {
                for (tuple, verdict) in chunk.iter().zip(verdicts) {
                    if verdict {
                        certain.insert(tuple.clone());
                    }
                }
            }
            Err(e) => return failed(name, &e.to_string()),
        }
    }
    BatchResult {
        name: name.to_string(),
        outcome: BatchOutcome::Answers(AnswerSets { certain, possible }),
    }
}

fn cancelled(name: &str) -> BatchResult {
    failed(name, "cancelled: deadline exceeded")
}

fn failed(name: &str, message: &str) -> BatchResult {
    BatchResult {
        name: name.to_string(),
        outcome: BatchOutcome::Error(message.to_string()),
    }
}

// ---------------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------------

fn looks_like_http(line: &[u8]) -> bool {
    [
        b"GET " as &[u8],
        b"POST ",
        b"HEAD ",
        b"PUT ",
        b"DELETE ",
        b"OPTIONS ",
    ]
    .iter()
    .any(|method| line.starts_with(method))
}

/// The persistent-connection loop: serve one exchange, then — if both
/// sides agreed to keep the socket alive — read the next request line and
/// go again. Anything that breaks framing (oversized headers, an unread
/// body, a non-HTTP line) closes the connection.
fn serve_http(
    shared: &Arc<Shared>,
    request_line: &[u8],
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<()> {
    let mut line = request_line.to_vec();
    loop {
        if !http_exchange(shared, &line, reader, writer)? {
            return Ok(());
        }
        cqa_obs::count!("serve.http_keepalive_reuses");
        match read_request_line(reader, shared.config.max_request_bytes)? {
            Line::Request(next) if looks_like_http(&next) => line = next,
            _ => return Ok(()),
        }
    }
}

/// One HTTP exchange: parse the request line and headers, serve
/// `GET /metrics`, `GET /view/<name>` or `POST /query`. Header count and
/// sizes are bounded; a body larger than `max_request_bytes` is refused
/// outright. Returns whether the connection stays open for another request.
fn http_exchange(
    shared: &Arc<Shared>,
    request_line: &[u8],
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<bool> {
    cqa_obs::count!("serve.http_requests");
    let line = String::from_utf8_lossy(request_line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    let mut content_length = 0usize;
    let mut connection = String::new();
    let mut headers = 0;
    // Framing can't be trusted past a header that is too long, a 65th
    // header, or a body length that doesn't parse: answer and close.
    loop {
        match read_request_line(reader, 8 * 1024)? {
            Line::Request(header) if header.is_empty() => break,
            Line::Request(_) if headers == 64 => {
                http_response(writer, 431, "Request Header Fields Too Large", false)?;
                return Ok(false);
            }
            Line::Request(header) => {
                headers += 1;
                let header = String::from_utf8_lossy(&header);
                if let Some((key, value)) = header.split_once(':') {
                    if key.trim().eq_ignore_ascii_case("content-length") {
                        let Ok(length) = value.trim().parse() else {
                            http_response(writer, 400, "Bad Request", false)?;
                            return Ok(false);
                        };
                        content_length = length;
                    } else if key.trim().eq_ignore_ascii_case("connection") {
                        connection = value.trim().to_ascii_lowercase();
                    }
                }
            }
            Line::TooLong => {
                http_response(writer, 431, "Request Header Fields Too Large", false)?;
                return Ok(false);
            }
            Line::Eof => return Ok(false),
        }
    }
    // RFC 9112 persistence: HTTP/1.1 keeps the socket open unless the
    // client says `Connection: close`; older versions only on an explicit
    // `keep-alive`.
    let keep_alive = if connection.contains("close") {
        false
    } else {
        connection.contains("keep-alive") || version == "HTTP/1.1"
    };
    match (method, path) {
        ("GET", "/metrics") => {
            shared.pool.record_metrics();
            cqa_obs::gauge_set!("serve.epoch", shared.epochs.epoch() as i64);
            cqa_obs::gauge_set!("serve.epochs.pinned", shared.epochs.pinned_epochs() as i64);
            cqa_obs::gauge_set!("serve.views.registered", shared.epochs.view_count() as i64);
            let body = cqa_obs::Registry::global().snapshot().render_prometheus();
            http_response_body(writer, 200, "OK", &body, keep_alive)?;
            Ok(keep_alive)
        }
        ("GET", _) if path.starts_with("/view/") => {
            let name = &path["/view/".len()..];
            match shared.epochs.view(name) {
                Some(reading) => http_response_body(
                    writer,
                    200,
                    "OK",
                    &format!("{}\n", reading.line),
                    keep_alive,
                )?,
                None => http_response(writer, 404, "Not Found", keep_alive)?,
            }
            Ok(keep_alive)
        }
        ("POST", "/query") => {
            if content_length > shared.config.max_request_bytes {
                // The oversized body is never read; the framing is gone.
                http_response(writer, 413, "Payload Too Large", false)?;
                return Ok(false);
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let text = String::from_utf8_lossy(&body);
            let line = text.lines().next().unwrap_or("");
            let response = guarded(1, || match parse_line(shared, line.as_bytes(), 1)? {
                Some(request) => run_request(shared, request, 1),
                None => Ok(String::new()),
            })
            .unwrap_or_else(|e| e);
            http_response_body(writer, 200, "OK", &format!("{response}\n"), keep_alive)?;
            Ok(keep_alive)
        }
        _ => {
            // An unknown target with an unread body breaks framing: close.
            let reusable = keep_alive && content_length == 0;
            http_response(writer, 404, "Not Found", reusable)?;
            Ok(reusable)
        }
    }
}

fn http_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    keep_alive: bool,
) -> io::Result<()> {
    http_response_body(writer, status, reason, &format!("{reason}\n"), keep_alive)
}

fn http_response_body(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_reads_enforce_the_cap_while_reading() {
        let mut input: &[u8] = b"short\nway too long for the cap\nnext\n";
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_request_line(&mut reader, 10).unwrap(),
            Line::Request(line) if line == b"short"
        ));
        assert!(matches!(
            read_request_line(&mut reader, 10).unwrap(),
            Line::TooLong
        ));
        // A truncated final line (no newline before EOF) is still served.
        let mut input: &[u8] = b"tail without newline";
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_request_line(&mut reader, 1024).unwrap(),
            Line::Request(line) if line == b"tail without newline"
        ));
        assert!(matches!(
            read_request_line(&mut reader, 1024).unwrap(),
            Line::Eof
        ));
        // CRLF is stripped like LF.
        let mut input: &[u8] = b"crlf line\r\n";
        let mut reader = BufReader::new(&mut input);
        assert!(matches!(
            read_request_line(&mut reader, 1024).unwrap(),
            Line::Request(line) if line == b"crlf line"
        ));
    }

    #[test]
    fn http_detection_only_matches_method_prefixes() {
        assert!(looks_like_http(b"GET /metrics HTTP/1.1"));
        assert!(looks_like_http(b"POST /query HTTP/1.1"));
        assert!(!looks_like_http(b"certain q :- R(x, y)"));
        assert!(!looks_like_http(b"GETTY(x)"));
        assert!(!looks_like_http(b"\\stats"));
    }
}
