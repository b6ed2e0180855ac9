//! Concurrency test harness for the `cqa-serve` network server.
//!
//! Four groups of tests, all deterministic (seeded interleavings, condvar
//! gates and barriers — never sleeps-as-synchronization):
//!
//! 1. **Byte-identical answers under concurrency**: N client threads fire
//!    mixed query streams at one server; every response line must equal,
//!    byte for byte, what the single-threaded reference engine renders.
//! 2. **Epoch isolation**: a writer publishes a seeded sequence of epochs
//!    while readers query concurrently; every reader response must match
//!    exactly one epoch's reference rendering — never a torn mixture.
//! 3. **Protocol robustness**: malformed, oversized, truncated, non-UTF-8
//!    and abruptly-disconnected requests (including seeded raw-byte fuzz)
//!    never panic a handler or wedge the server.
//! 4. **Backpressure and deadlines**: a saturated server rejects promptly
//!    with a well-formed response, a slow query hits its deadline, and the
//!    connection stays usable afterwards.

use cqa::core::answers::certain_answers;
use cqa::data::Schema;
use cqa::par::{BatchEngine, BatchOutcome, BatchResult, ParPool};
use cqa::parser::parse_document;
use cqa::serve::{protocol, serve_stream, Request, Server, ServerConfig, ServerHandle, WriteOp};
use proptest::prelude::*;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Watchdog for client reads: loud failure instead of a hung test. No test
/// *waits* this long — correctness never depends on the value.
const WATCHDOG: Duration = Duration::from_secs(30);

fn start(db: cqa::data::UncertainDatabase, config: ServerConfig) -> ServerHandle {
    Server::bind(db, "127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn acceptor")
}

/// A line-protocol test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(WATCHDOG))
            .expect("set watchdog");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends `line` in one write: a server that closes after a partial read
    /// must find nothing of it still in flight, or the close arrives as a
    /// reset instead of an end of stream.
    fn send(&mut self, line: &str) {
        (self.writer.write_all(format!("{line}\n").as_bytes())).expect("send request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("response before the watchdog");
        assert!(n > 0, "connection closed while expecting a response");
        line.trim_end_matches(['\n', '\r']).to_string()
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    fn expect_eof(&mut self) {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("EOF before the watchdog");
        assert_eq!(n, 0, "expected the server to close, got: {line:?}");
    }
}

/// The document served in the read-path tests: the paper's Figure 1 core
/// plus deterministic filler rows (uncertain city blocks, conflicting
/// ranks) so open queries have enough candidates to span several
/// cancellation chunks.
fn serving_document() -> String {
    let mut text = String::from(
        "relation C(conf*, year*, city)\n\
         relation R(conf*, rank)\n\
         C(PODS, 2016, Rome)\n\
         C(PODS, 2016, Paris)\n\
         C(KDD, 2017, Rome)\n\
         R(PODS, A)\n\
         R(KDD, A)\n\
         R(KDD, B)\n",
    );
    for i in 0..40 {
        let conf = format!("conf{}", i % 7);
        let year = 2000 + i;
        let _ = writeln!(text, "C({conf}, {year}, city{})", i % 5);
        if i % 3 == 0 {
            let _ = writeln!(text, "C({conf}, {year}, Rome)");
        }
    }
    for c in 0..7 {
        let _ = writeln!(text, "R(conf{c}, A)");
        if c % 2 == 0 {
            let _ = writeln!(text, "R(conf{c}, B)");
        }
    }
    text
}

/// The request lines of the byte-equality test: Boolean, open (several
/// chunks wide), constant-only and malformed shapes.
fn query_lines() -> Vec<&'static str> {
    vec![
        "certain rome :- C(x, y, \"Rome\"), R(x, \"A\")",
        "which(x) :- C(x, y, \"Rome\"), R(x, \"A\")",
        "pairs(x, y) :- C(x, y, z)",
        "city :- C(x, y, \"Paris\")",
        "broken((",
        "ranked(x) :- R(x, y)",
    ]
}

/// What the server must answer for `line` as request number `request_no`,
/// computed through the **single-threaded** reference engine and the same
/// shared rendering, so equality compares evaluation rather than
/// formatting.
fn expected_response(
    schema: &Arc<Schema>,
    reference: &BatchEngine,
    line: &str,
    request_no: usize,
) -> Option<String> {
    match protocol::parse_request(schema, line, request_no) {
        Ok(None) => None,
        Err(e) => Some(format!("q{request_no}: error: {e}")),
        Ok(Some(Request::Query { name, query })) => Some(if query.is_boolean() {
            protocol::render_result(&reference.answer(&name, &query))
        } else {
            let sets = certain_answers(&query, reference.snapshot().database())
                .expect("reference evaluation");
            protocol::render_result(&BatchResult {
                name,
                outcome: BatchOutcome::Answers(sets),
            })
        }),
        Ok(Some(_)) => unreachable!("the byte-equality suite sends only queries"),
    }
}

fn handler_panics() -> u64 {
    cqa::obs::Registry::global()
        .snapshot()
        .counter("serve.handler_panics")
}

// ---------------------------------------------------------------------------
// 1. Byte-identical answers under concurrency
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_match_the_single_threaded_reference() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let schema = doc.schema.clone();
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let lines = query_lines();

    let handle = start(
        doc.database.clone(),
        ServerConfig {
            threads: Some(3),
            query_chunk: 8, // several chunks per open query
            ..ServerConfig::default()
        },
    );
    const CLIENTS: usize = 6;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            // Each client sends the same queries rotated by its id, so the
            // in-flight mix differs while every (line, request_no) pair has
            // a precomputed reference response.
            let sequence: Vec<&'static str> = (0..lines.len())
                .map(|k| lines[(k + client_id) % lines.len()])
                .collect();
            let expected: Vec<String> = sequence
                .iter()
                .enumerate()
                .map(|(k, line)| {
                    expected_response(&schema, &reference, line, k + 1)
                        .expect("every test line gets a response")
                })
                .collect();
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for (line, expected) in sequence.iter().zip(&expected) {
                    let response = client.ask(line);
                    assert_eq!(
                        &response, expected,
                        "client {client_id} diverged from the reference on `{line}`"
                    );
                }
                assert_eq!(client.ask("\\quit"), "bye");
                client.expect_eof();
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    // 5 well-formed queries per client actually evaluated (the malformed
    // line is answered at parse time, before admission).
    assert_eq!(handle.served(), CLIENTS * 5);
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// 2. Epoch isolation
// ---------------------------------------------------------------------------

const EPOCH_DOC: &str = "relation S(k*, v)\nS(key0, 0)\n";
const PROBE: &str = "probe(x) :- S(x, y)";

/// The seeded write sequence: each op inserts a fresh key or removes the
/// oldest present key, so the present set is always a contiguous key range
/// and every epoch's answer set is distinct from every other's.
fn epoch_script() -> (Vec<String>, Vec<String>) {
    let doc = parse_document(EPOCH_DOC).expect("parse epoch document");
    let mut mirror = doc.database;
    let (_, probe) =
        cqa::parser::parse_query_line(&doc.schema, PROBE, 1).expect("parse probe query");
    let render = |db: &cqa::data::UncertainDatabase| {
        protocol::render_result(&BatchResult {
            name: "probe".to_string(),
            outcome: BatchOutcome::Answers(
                certain_answers(&probe, db).expect("reference evaluation"),
            ),
        })
    };
    let mut renderings = vec![render(&mirror)];
    let mut ops = Vec::new();
    let mut present: Vec<(usize, i64)> = vec![(0, 0)];
    let mut next_key = 1usize;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..24 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let op = if state.is_multiple_of(3) && present.len() > 1 {
            let (key, value) = present.remove(0); // oldest first: sets never repeat
            format!("\\remove S(key{key}, {value})")
        } else {
            let key = next_key;
            next_key += 1;
            present.push((key, key as i64));
            format!("\\insert S(key{key}, {key})")
        };
        // Apply the op to the local mirror through the *same* parser the
        // server uses, so reference and server cannot drift.
        let Ok(Some(Request::Write(write))) = protocol::parse_request(&doc.schema, &op, 1) else {
            panic!("script op must parse as a write: {op}");
        };
        let changed = match &write {
            WriteOp::Insert(fact) => mirror.insert(fact.clone()).expect("mirror insert"),
            WriteOp::RemoveFact(fact) => mirror.remove_fact(fact),
            WriteOp::RemoveBlock(fact) => mirror.remove_block_of(fact),
        };
        assert!(changed, "every scripted op must be effective: {op}");
        renderings.push(render(&mirror));
        ops.push(op);
    }
    (ops, renderings)
}

#[test]
fn readers_observe_exactly_one_epoch() {
    let doc = parse_document(EPOCH_DOC).expect("parse epoch document");
    let (ops, renderings) = epoch_script();
    let distinct: HashSet<&String> = renderings.iter().collect();
    assert_eq!(
        distinct.len(),
        renderings.len(),
        "epoch renderings must be pairwise distinct for the test to be conclusive"
    );

    let handle = start(
        doc.database,
        ServerConfig {
            threads: Some(2),
            query_chunk: 4,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Register a materialized view over the probe query before any write:
    // its reading publishes atomically with each epoch, so a `\view` reply
    // must match exactly one epoch's rendering, like any query reply.
    let mut admin = Client::connect(addr);
    let subscribed = admin.ask(&format!("\\subscribe probe {PROBE}"));
    assert!(
        subscribed.starts_with("ok: subscribed probe, epoch "),
        "{subscribed}"
    );
    assert_eq!(&admin.ask("\\view probe"), &renderings[0]);

    // A `\remove-block` of an absent block is a no-op: no epoch published,
    // no view reading disturbed.
    let epoch_before = admin.ask("\\epoch");
    let noop = admin.ask("\\remove-block S(zzz, 0)");
    assert!(noop.starts_with("ok: no-op, epoch "), "{noop}");
    assert_eq!(admin.ask("\\epoch"), epoch_before);
    assert_eq!(&admin.ask("\\view probe"), &renderings[0]);

    const READERS: usize = 3;
    const PROBES: usize = 16;
    let barrier = Arc::new(Barrier::new(READERS + 1));

    let writer = {
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr);
            barrier.wait();
            let mut last_epoch = 0u64;
            for op in &ops {
                let response = client.ask(op);
                let epoch: u64 = response
                    .rsplit(' ')
                    .next()
                    .and_then(|e| e.parse().ok())
                    .unwrap_or_else(|| panic!("unexpected write response: {response}"));
                assert!(
                    response.starts_with("ok: inserted, epoch ")
                        || response.starts_with("ok: removed, epoch "),
                    "unexpected write response: {response}"
                );
                assert!(epoch > last_epoch, "epochs must publish in write order");
                last_epoch = epoch;
            }
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                barrier.wait();
                // Alternate fresh evaluation and the maintained view: both
                // must always land on exactly one published epoch.
                (0..PROBES)
                    .map(|i| {
                        if i % 2 == 0 {
                            client.ask(PROBE)
                        } else {
                            client.ask("\\view probe")
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    writer.join().expect("writer thread");
    let mut observed = Vec::new();
    for reader in readers {
        observed.extend(reader.join().expect("reader thread"));
    }
    for response in &observed {
        assert!(
            distinct.contains(response),
            "reader response matches no epoch (torn read?): {response}"
        );
    }
    // After the writer finished, a fresh reader sees exactly the final
    // epoch — from evaluation and from the incrementally repaired view
    // alike, byte for byte.
    let mut client = Client::connect(addr);
    let last = renderings.last().expect("at least one epoch");
    assert_eq!(
        &client.ask(PROBE),
        last,
        "the final epoch must be visible once the writer completed"
    );
    assert_eq!(
        &client.ask("\\view probe"),
        last,
        "the maintained view must have converged to the final epoch"
    );
    // Stats report the registered view; no stale view read ever happened
    // (a reading and its epoch's engine publish in one swap).
    assert!(client.ask("\\stats").contains("views 1,"));
    assert_eq!(
        cqa::obs::Registry::global()
            .snapshot()
            .counter("stream.view.stale_reads"),
        0
    );
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

/// A reader that pins an epoch across a thousand writes keeps reading the
/// storage it pinned — the writer copies what it touches, never what a
/// reader holds — and the epoch is let go of once the reader is.
#[test]
fn a_reader_pinning_its_epoch_across_a_thousand_writes_sees_it_frozen() {
    let doc = parse_document(&serving_document()).expect("parse serving document");
    let schema = doc.schema.clone();
    let manager = cqa::serve::EpochManager::new(doc.database, ParPool::new(2));
    let queries: Vec<_> = query_lines()
        .into_iter()
        .filter_map(|line| match protocol::parse_request(&schema, line, 1) {
            Ok(Some(Request::Query { name, query })) => Some((name, query)),
            _ => None,
        })
        .collect();
    let render = |engine: &BatchEngine| -> Vec<String> {
        (queries.iter())
            .map(|(name, query)| {
                let sets = certain_answers(query, engine.snapshot().database());
                protocol::render_result(&BatchResult {
                    name: name.clone(),
                    outcome: BatchOutcome::Answers(sets.expect("reference evaluation")),
                })
            })
            .collect()
    };

    let pinned = manager.current();
    let (epoch, facts, before) = (
        pinned.epoch(),
        pinned.snapshot().fact_count(),
        render(&pinned),
    );
    assert_eq!(manager.pinned_epochs(), 0);
    for i in 0..1_000 {
        // Inserts that change every query's answer, and removals of the
        // very facts the pinned reader is looking at.
        let line = match i % 4 {
            0 => format!("\\insert C(conf{}, {}, Rome)", i % 7, 3000 + i),
            1 => format!("\\insert R(fresh{i}, A)"),
            2 => format!("\\remove C(conf{}, {}, Rome)", (i - 2) % 7, 3000 + i - 2),
            _ => format!("\\remove-block R(fresh{}, A)", i - 2),
        };
        let Ok(Some(Request::Write(op))) = protocol::parse_request(&schema, &line, 1) else {
            panic!("{line} must parse as a write");
        };
        let outcome = manager.apply_write(&op).expect("apply write");
        assert!(outcome.changed, "{line} must be effective");
        assert_eq!(
            manager.pinned_epochs(),
            1,
            "only the reader's epoch is held"
        );
    }
    for op in ["\\remove R(KDD, B)", "\\remove-block C(PODS, 2016, Rome)"] {
        let Ok(Some(Request::Write(op))) = protocol::parse_request(&schema, op, 1) else {
            panic!("{op} must parse as a write");
        };
        assert!(manager.apply_write(&op).expect("apply write").changed);
    }
    assert_eq!(manager.epoch(), epoch + 1_003);
    assert_ne!(render(&manager.current()), before);

    assert_eq!(pinned.epoch(), epoch);
    assert_eq!(pinned.snapshot().fact_count(), facts);
    assert_eq!(
        render(&pinned),
        before,
        "the pinned epoch answers as it did"
    );
    drop(pinned);
    assert_eq!(
        manager.pinned_epochs(),
        0,
        "the epoch dies with its last reader"
    );
}

// ---------------------------------------------------------------------------
// 3. Protocol robustness
// ---------------------------------------------------------------------------

#[test]
fn protocol_abuse_is_answered_or_closed_never_wedged() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let handle = start(
        doc.database,
        ServerConfig {
            threads: Some(2),
            max_request_bytes: 64,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Non-UTF-8 bytes: an error response, and the connection stays usable.
    let mut client = Client::connect(addr);
    client.writer.write_all(b"\xff\xfe\xfd\n").expect("send");
    assert_eq!(client.recv(), "q1: error: request is not valid UTF-8");
    assert!(client.ask("\\epoch").starts_with("epoch: "));

    // Unknown commands: an error response, connection stays usable.
    assert_eq!(
        client.ask("\\frobnicate"),
        "q3: error: unknown command `\\frobnicate`"
    );
    assert!(client.ask("\\epoch").starts_with("epoch: "));

    // An oversized request line: loud error, then the server closes (the
    // framing can no longer be trusted).
    let mut client = Client::connect(addr);
    let response = client.ask(&"a".repeat(100));
    assert_eq!(
        response,
        "request: error: request exceeds 64 bytes; closing connection"
    );
    client.expect_eof();

    // A truncated request followed by an abrupt disconnect.
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream).write_all(b"certain ro").expect("send partial");
    drop(stream);

    // An abrupt disconnect mid-stream, responses never read.
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream).write_all(b"\\epoch\n\\epoch\n").expect("send");
    drop(stream);

    // The server is still healthy for a well-formed client.
    let mut client = Client::connect(addr);
    assert!(client.ask("\\epoch").starts_with("epoch: "));
    assert_eq!(client.ask("\\quit"), "bye");
    client.expect_eof();
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

/// Seeded raw-byte generator for the fuzz test: newlines, protocol-ish
/// vocabulary and arbitrary (frequently non-UTF-8) bytes.
fn hostile_bytes(seed: u64, len: usize) -> Vec<u8> {
    const VOCAB: &[u8] =
        b"\\()\",:-# certain insert remove stats epoch quit RCSq xyz 0123456789 GET POST /metrics";
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 8 {
                0 => b'\n',
                1 => (state >> 8) as u8,
                _ => VOCAB[(state >> 8) as usize % VOCAB.len()],
            }
        })
        .collect()
}

/// One server shared by all fuzz cases: a panic or wedge in any case makes
/// the health check of every later case fail loudly.
fn fuzz_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let doc = parse_document(&serving_document()).expect("parse document");
        start(
            doc.database,
            ServerConfig {
                threads: Some(2),
                ..ServerConfig::default()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary byte streams — including embedded real requests, garbage
    /// and abrupt EOF — never panic a handler and never wedge the server.
    #[test]
    fn raw_byte_streams_never_wedge_the_server(seed in 0u64..1_000_000, len in 0usize..2048) {
        let handle = fuzz_server();
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(WATCHDOG)).expect("set watchdog");
        // The server may close mid-write (e.g. the bytes spell `\quit` or an
        // HTTP request line): write errors are the client's problem.
        let _ = (&stream).write_all(&hostile_bytes(seed, len));
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server answers until it closes our connection;
        // the watchdog turns a wedged handler into a loud failure.
        let mut drained = Vec::new();
        (&stream)
            .read_to_end(&mut drained)
            .expect("server must close the connection, not wedge");
        drop(stream);
        // The server survived: a fresh well-formed client is served.
        let mut client = Client::connect(handle.addr());
        prop_assert!(client.ask("\\epoch").starts_with("epoch: "));
        prop_assert_eq!(handler_panics(), 0);
    }
}

// ---------------------------------------------------------------------------
// 4. Backpressure and deadlines
// ---------------------------------------------------------------------------

/// A condvar gate for the admission/deadline tests: the server's
/// `on_query_start` hook parks every admitted query on the gate (counting
/// arrivals) until the test opens it. This pins "a query is running right
/// now" without any timing assumptions.
struct Gate {
    state: Mutex<(usize, bool)>, // (queries parked so far, open?)
    cv: Condvar,
}

impl Gate {
    fn closed() -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        })
    }

    /// Called by the server hook: announce arrival, park until opened.
    fn enter(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.0 += 1;
        self.cv.notify_all();
        while !state.1 {
            state = self.cv.wait(state).expect("gate wait");
        }
    }

    /// Test side: block until `n` queries have reached the gate, or the
    /// watchdog fires; returns how many did.
    fn await_parked(&self, n: usize) -> usize {
        let state = self.state.lock().expect("gate lock");
        let (state, _) = (self.cv)
            .wait_timeout_while(state, WATCHDOG, |state| state.0 < n)
            .expect("gate wait");
        state.0
    }

    /// Test side: release every parked (and future) query.
    fn open(&self) {
        self.state.lock().expect("gate lock").1 = true;
        self.cv.notify_all();
    }
}

fn gated_config(gate: &Arc<Gate>) -> ServerConfig {
    let hook_gate = gate.clone();
    ServerConfig {
        threads: Some(2),
        on_query_start: Some(Arc::new(move |_token| hook_gate.enter())),
        ..ServerConfig::default()
    }
}

#[test]
fn saturated_server_rejects_overload_promptly() {
    let doc = parse_document(&serving_document()).expect("parse document");

    // max_inflight = 0: every query is rejected, commands still work.
    let handle = start(
        doc.database.clone(),
        ServerConfig {
            threads: Some(2),
            max_inflight: 0,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr());
    assert_eq!(
        client.ask("certain rome :- C(x, y, \"Rome\"), R(x, \"A\")"),
        "rome: error: overloaded: 0 queries in flight (limit 0); retry later"
    );
    assert!(client.ask("\\epoch").starts_with("epoch: "));
    handle.shutdown();

    // max_inflight = 1 with one query parked at the gate: the slot is
    // provably held, so the second client's rejection is deterministic.
    let gate = Gate::closed();
    let handle = start(
        doc.database.clone(),
        ServerConfig {
            max_inflight: 1,
            ..gated_config(&gate)
        },
    );
    let schema = doc.schema.clone();
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let slow = "slow :- C(x, y, \"Rome\"), R(x, \"A\")";
    let fast = "fast :- C(x, y, \"Paris\")";

    let mut holder = Client::connect(handle.addr());
    holder.send(slow); // parks at the gate holding the only slot
    assert_eq!(gate.await_parked(1), 1);
    let mut rejected = Client::connect(handle.addr());
    assert_eq!(
        rejected.ask(fast),
        "fast: error: overloaded: 1 queries in flight (limit 1); retry later"
    );
    gate.open();
    // The parked query now completes with the correct answer.
    let expected = expected_response(&schema, &reference, slow, 1).expect("reference");
    assert_eq!(holder.recv(), expected);
    // And the slot is free again for the previously rejected client.
    let expected = expected_response(&schema, &reference, fast, 2).expect("reference");
    assert_eq!(rejected.ask(fast), expected);
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

/// The in-flight slot must be free by the time a client can read its
/// answer: one connection asking back to back under `max_inflight = 1` is
/// never its own overload. (The pool job used to send the result before
/// releasing its permit, so the next request raced the release.)
#[test]
fn a_finished_query_never_counts_against_the_limit() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let handle = start(
        doc.database.clone(),
        ServerConfig {
            threads: Some(2),
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let lines = [
        "fast :- C(x, y, \"Paris\")",
        "which(x) :- C(x, y, \"Rome\"), R(x, \"A\")",
    ];
    let expected: Vec<String> = lines
        .iter()
        .map(|line| expected_response(&doc.schema, &reference, line, 1).expect("reference"))
        .collect();
    let mut client = Client::connect(handle.addr());
    for i in 0..500 {
        assert_eq!(
            client.ask(lines[i % 2]),
            expected[i % 2],
            "request {i} of one back-to-back connection"
        );
    }
    assert!(client.ask("\\stats").contains(", 0 in flight,"));
    handle.shutdown();
}

/// Connections share admission, so a connection that pipelines holds one
/// slot at a time: under `max_inflight = 2`, a client that sends three
/// queries in one write leaves room for another connection's query, and
/// still gets its three answers in request order.
#[test]
fn a_pipelining_connection_holds_one_admission_slot() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let gate = Gate::closed();
    let handle = start(
        doc.database.clone(),
        ServerConfig {
            max_inflight: 2,
            ..gated_config(&gate)
        },
    );
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let expected = |line: &str, n: usize| {
        expected_response(&doc.schema, &reference, line, n).expect("reference")
    };
    let lines = [
        "rome :- C(x, y, \"Rome\")",
        "paris(x) :- C(x, y, \"Paris\")",
        "ranked :- R(x, \"A\")",
    ];
    let mut pipelining = Client::connect(handle.addr());
    let script = format!("{}\n", lines.join("\n"));
    (pipelining.writer.write_all(script.as_bytes())).expect("send script");
    assert_eq!(gate.await_parked(1), 1);
    // Had the first connection read ahead, its queries would hold both
    // slots and this one would be answered `overloaded`.
    let mut other = Client::connect(handle.addr());
    other.send(lines[1]);
    assert_eq!(gate.await_parked(2), 2);
    gate.open();
    assert_eq!(other.recv(), expected(lines[1], 1));
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(pipelining.recv(), expected(line, i + 1));
    }
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

#[test]
fn slow_queries_hit_their_deadline_and_the_connection_survives() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let gate = Gate::closed();
    let handle = start(
        doc.database.clone(),
        ServerConfig {
            deadline: Some(Duration::from_millis(50)),
            ..gated_config(&gate)
        },
    );
    let schema = doc.schema.clone();
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let slow = "slow :- C(x, y, \"Rome\"), R(x, \"A\")";

    // The gate stays closed, so the query *cannot* produce a result before
    // its deadline: the timeout response is deterministic.
    let mut client = Client::connect(handle.addr());
    assert_eq!(
        client.ask(slow),
        "slow: error: deadline exceeded after 50 ms"
    );
    let snapshot = cqa::obs::Registry::global().snapshot();
    assert!(snapshot.counter("serve.deadline_exceeded") >= 1);

    // Release the abandoned query; its late result lands in a dropped
    // channel and its admission slot frees. The same connection then
    // answers normally (the gate is now open).
    gate.open();
    let expected = expected_response(&schema, &reference, slow, 2).expect("reference");
    assert_eq!(client.ask(slow), expected);
    assert_eq!(client.ask("\\quit"), "bye");
    client.expect_eof();
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

/// A short query can have a huge attack graph: the 24-atom star
/// `R1(x1, y), ..., R24(x24, y)` has every atom attack every other, so more
/// than 23! elementary cycles, and listing them never ends. Classified from
/// its strong components, it gets its verdict inside its deadline and
/// leaves nothing in flight. (A release server answers in a few
/// milliseconds; the deadline leaves room for a debug build on a loaded
/// test runner, where the request takes tens of milliseconds.) So does a
/// coNP-region query over a `q0` instance of ≈ 510 facts, which the
/// falsifying-repair search decides by propagation alone.
#[test]
fn a_complete_attack_graph_is_classified_within_its_deadline() {
    const N: usize = 24;
    let mut text = String::new();
    for i in 1..=N {
        writeln!(text, "relation R{i}(x*, y)").unwrap();
    }
    text.push_str("R1(a, b)\n");
    let doc = parse_document(&text).expect("parse document");
    let handle = start(
        doc.database,
        ServerConfig {
            deadline: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    );
    let atoms: Vec<String> = (1..=N).map(|i| format!("R{i}(x{i}, y)")).collect();
    let star = format!("star :- {}", atoms.join(", "));
    let mut client = Client::connect(handle.addr());
    assert_eq!(
        client.ask(&star),
        "star: not certain (possible: false, solver: exact-oracle)"
    );
    assert!(client.ask("\\stats").contains(", 0 in flight,"));
    handle.shutdown();
    // A coNP-region query over ≈ 510 facts: the falsifying-repair search
    // answers it well inside the deadline and the job is gone afterwards.
    let handle = start(
        cqa::gen::q0_instance(1, 80, 3, 0.9),
        ServerConfig {
            deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr());
    assert_eq!(
        client.ask("q0 :- R0(x, y), S0(y, z, x)"),
        "q0: certain (possible: true, solver: exact-oracle)"
    );
    assert!(client.ask("\\stats").contains(", 0 in flight,"));
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// HTTP endpoints
// ---------------------------------------------------------------------------

/// One-shot HTTP exchange: sends `Connection: close` so the (keep-alive by
/// default) server closes after the response and `read_to_string` sees EOF.
fn http_exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(WATCHDOG))
        .expect("set watchdog");
    stream.write_all(request).expect("send http request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read http response");
    response
}

/// Reads one complete HTTP response (status line, headers, Content-Length
/// body) off a persistent connection, leaving the socket open for the next
/// exchange. Returns (status line, body).
fn read_http_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
    let mut status = String::new();
    assert!(
        reader.read_line(&mut status).expect("read status line") > 0,
        "connection closed while expecting an HTTP response"
    );
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("read header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (
        status.trim_end().to_string(),
        String::from_utf8(body).expect("utf-8 body"),
    )
}

#[test]
fn http_endpoints_serve_metrics_and_queries() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let schema = doc.schema.clone();
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let handle = start(
        doc.database,
        ServerConfig {
            threads: Some(2),
            max_request_bytes: 4096,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // POST /query answers one protocol line (checked against the reference
    // first, so /metrics below has at least one sample to render).
    let line = "certain rome :- C(x, y, \"Rome\"), R(x, \"A\")";
    let expected = expected_response(&schema, &reference, line, 1).expect("reference");
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{line}",
        line.len()
    );
    let response = http_exchange(addr, request.as_bytes());
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("http body");
    assert_eq!(body, format!("{expected}\n"));

    // An effective write, so the write-latency histogram has a sample too.
    let line = "\\insert R(ICDT, A)";
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{line}",
        line.len()
    );
    let response = http_exchange(addr, request.as_bytes());
    assert!(response.contains("ok: inserted, epoch "), "{response}");

    // GET /metrics renders the Prometheus exposition of the registry.
    let response = http_exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        response.contains("# TYPE serve_connections counter"),
        "{response}"
    );
    assert!(
        response.contains("# TYPE serve_write_nanos summary"),
        "{response}"
    );
    assert!(
        response.contains("# TYPE par_batch_query_nanos summary"),
        "{response}"
    );
    assert!(
        response.contains("# TYPE serve_epochs_pinned gauge"),
        "{response}"
    );
    assert!(
        response.contains("# TYPE serve_views_registered gauge"),
        "{response}"
    );

    // Unknown paths 404; oversized bodies are refused with 413.
    let response = http_exchange(
        addr,
        b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(
        response.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{response}"
    );
    let response = http_exchange(
        addr,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 999999\r\n\r\n",
    );
    assert!(
        response.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
        "{response}"
    );
    // A body length that does not parse breaks framing: 400 and close, and
    // the unread body is never served as a second request.
    let response = http_exchange(
        addr,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: twelve\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
    );
    assert!(
        response.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "{response}"
    );
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
    // So does a 65th header line: 431 and close.
    let mut request = b"GET /metrics HTTP/1.1\r\n".to_vec();
    for i in 0..65 {
        request.extend_from_slice(format!("X-Filler-{i}: y\r\n").as_bytes());
    }
    request.extend_from_slice(b"\r\n");
    let response = http_exchange(addr, &request);
    assert!(
        response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{response}"
    );
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

#[test]
fn http_keep_alive_serves_many_requests_on_one_socket() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let schema = doc.schema.clone();
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let handle = start(
        doc.database,
        ServerConfig {
            threads: Some(2),
            ..ServerConfig::default()
        },
    );
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(WATCHDOG))
        .expect("set watchdog");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    // First request: HTTP/1.1 without a Connection header — persistent by
    // default, and the server says so.
    let line = "certain rome :- C(x, y, \"Rome\"), R(x, \"A\")";
    let expected = expected_response(&schema, &reference, line, 1).expect("reference");
    write!(
        writer,
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
        line.len()
    )
    .expect("send first request");
    let (status, body) = read_http_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
    assert_eq!(body, format!("{expected}\n"));

    // Second request rides the SAME socket.
    write!(writer, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send second request");
    let (status, body) = read_http_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
    assert!(
        body.contains("# TYPE serve_http_keepalive_reuses counter"),
        "{body}"
    );

    // `Connection: close` ends the session after the response.
    write!(
        writer,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send final request");
    let (status, _) = read_http_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("EOF after Connection: close");
    assert!(rest.is_empty(), "server must close after Connection: close");
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

#[test]
fn views_are_served_over_both_protocols() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let handle = start(
        doc.database,
        ServerConfig {
            threads: Some(2),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let mut client = Client::connect(addr);

    // Subscribe, then read the view over the line protocol: the reading is
    // rendered exactly like the equivalent query response.
    let query = "which(x) :- C(x, y, \"Rome\"), R(x, \"A\")";
    let direct = client.ask(query);
    let subscribed = client.ask(&format!("\\subscribe which {query}"));
    assert!(
        subscribed.starts_with("ok: subscribed which, epoch "),
        "{subscribed}"
    );
    assert_eq!(client.ask("\\view which"), direct);

    // A write repairs the view; the next reading reflects it without
    // re-running the query.
    let response = client.ask("\\insert C(PODS, 2020, Rome)");
    assert!(response.starts_with("ok: inserted, epoch "), "{response}");
    let repaired = client.ask("\\view which");
    assert_eq!(repaired, client.ask(query), "view tracks the new epoch");

    // Unknown views error without disturbing the connection.
    assert_eq!(
        client.ask("\\view nope"),
        "nope: error: unknown view `nope`"
    );

    // GET /view/<name> serves the same reading over HTTP; unknown names 404.
    let response = http_exchange(
        addr,
        b"GET /view/which HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("http body");
    assert_eq!(body, format!("{repaired}\n"));
    let response = http_exchange(
        addr,
        b"GET /view/nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(
        response.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{response}"
    );
    assert_eq!(handler_panics(), 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// One front door: the stream transport
// ---------------------------------------------------------------------------

/// `serve_stream` (what `certainty serve` runs on stdin/stdout) and a TCP
/// connection are one handler: the same script gets byte-identical
/// responses, writes and views included, and `\quit` ends both.
#[test]
fn the_stream_transport_answers_exactly_like_tcp() {
    let doc = parse_document(&serving_document()).expect("parse document");
    let script = [
        "certain rome :- C(x, y, \"Rome\"), R(x, \"A\")",
        "which(x) :- C(x, y, \"Rome\"), R(x, \"A\")",
        "broken((",
        "\\subscribe rome which(x) :- C(x, y, \"Rome\")",
        "\\insert C(PODS, 2020, Rome)",
        "\\view rome",
        "which(x) :- C(x, y, \"Rome\"), R(x, \"A\")",
        "\\remove-block C(PODS, 2020, Rome)",
        "\\epoch",
        "\\frobnicate",
        "\\quit",
    ];
    let config = || ServerConfig {
        threads: Some(2),
        ..ServerConfig::default()
    };
    let handle = start(doc.database.clone(), config());
    let mut client = Client::connect(handle.addr());
    let over_tcp: Vec<String> = script.iter().map(|line| client.ask(line)).collect();
    client.expect_eof();
    handle.shutdown();

    // A request after `\quit` is never read.
    let input = format!("{}\n\\epoch\n", script.join("\n"));
    let mut output = Vec::new();
    serve_stream(doc.database, config(), input.as_bytes(), &mut output).expect("in-memory stream");
    let output = String::from_utf8(output).expect("responses are UTF-8");
    assert_eq!(output.lines().collect::<Vec<_>>(), over_tcp);
    assert!(
        over_tcp[4].starts_with("ok: inserted, epoch "),
        "{over_tcp:?}"
    );
    assert_eq!(over_tcp.last().map(String::as_str), Some("bye"));
    assert_eq!(handler_panics(), 0);
}

/// A query abandoned at its deadline outlives `serve_stream`, so its pool
/// job holds the last handle on the server and drops the pool on its own
/// worker once released. That must neither panic nor hang: the hook's
/// sentinel is dropped with the server, and reports whether it was dropped
/// while unwinding.
#[test]
fn a_query_abandoned_at_its_deadline_outlives_the_stream_quietly() {
    struct Sentinel(mpsc::Sender<bool>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            let _ = self.0.send(std::thread::panicking());
        }
    }
    let doc = parse_document(&serving_document()).expect("parse document");
    let gate = Gate::closed();
    let (dropped, dropped_rx) = mpsc::channel();
    let sentinel = Sentinel(dropped);
    let hook_gate = gate.clone();
    let config = ServerConfig {
        threads: Some(2),
        deadline: Some(Duration::from_millis(1)),
        on_query_start: Some(Arc::new(move |_token| {
            let _held = &sentinel;
            hook_gate.enter();
        })),
        ..ServerConfig::default()
    };
    let input = "slow :- C(x, y, \"Rome\")\n";
    let mut output = Vec::new();
    serve_stream(doc.database, config, input.as_bytes(), &mut output).expect("in-memory stream");
    assert_eq!(
        String::from_utf8(output).expect("responses are UTF-8"),
        "slow: error: deadline exceeded after 1 ms\n"
    );
    // The stream has ended; the query is parked or still queued.
    gate.open();
    let panicking =
        (dropped_rx.recv_timeout(WATCHDOG)).expect("the pool job lets go of the server");
    assert!(
        !panicking,
        "dropping the last server handle on a pool worker panicked"
    );
    assert_eq!(handler_panics(), 0);
}

/// Query lines already buffered on one stream are in flight together — all
/// `K` reach the gate before any is answered — and their responses still
/// come back in request order.
#[test]
fn buffered_queries_run_together_and_answer_in_request_order() {
    const K: usize = 4;
    let doc = parse_document(&serving_document()).expect("parse document");
    let reference = BatchEngine::new(doc.database.snapshot(), ParPool::new(1));
    let lines: Vec<String> = (0..K)
        .map(|i| format!("city{i}(x) :- C(x, y, \"city{i}\")"))
        .collect();
    let gate = Gate::closed();
    let config = ServerConfig {
        threads: Some(K),
        ..gated_config(&gate)
    };
    let (db, input) = (doc.database.clone(), lines.join("\n") + "\n");
    let mut output = Vec::new();
    let parked = std::thread::scope(|s| {
        let server = s.spawn(|| serve_stream(db, config, input.as_bytes(), &mut output));
        let parked = gate.await_parked(K);
        gate.open();
        server
            .join()
            .expect("stream thread")
            .expect("in-memory stream");
        parked
    });
    assert_eq!(
        parked, K,
        "buffered queries are submitted before any is answered"
    );
    let expected: Vec<String> = (lines.iter().enumerate())
        .map(|(i, line)| {
            expected_response(&doc.schema, &reference, line, i + 1).expect("reference")
        })
        .collect();
    let output = String::from_utf8(output).expect("responses are UTF-8");
    assert_eq!(output.lines().collect::<Vec<_>>(), expected);
}
