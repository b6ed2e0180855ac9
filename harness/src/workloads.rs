//! The five workloads: their seeded inputs, their set-up (spawn → warm-up),
//! their closed-loop timed windows against the live server, and the
//! correctness gates that fail a run.
//!
//! Load model: **closed loop**. Every connection is a synchronous
//! one-request-in-flight line-protocol client — a caller that waits for its
//! reply — and the server's admission control rejects rather than queues.
//! At most [`host_threads`] client connections run per workload, all from
//! this one process; an open-loop rate ladder is deliberately left out,
//! because on a 2-core host the generator would compete with the server it
//! is measuring.

use crate::gen::{
    self, Instance, ReadStream, ReadTemplate, WriteStream, CYCLE_AC, CYCLE_TEMPLATES,
    POINT_TEMPLATES, SCAN_OPEN, SCAN_TEMPLATES, VIEWS,
};
use crate::reference::{replay_writes, Reference};
use crate::rng::{Rng, Zipf};
use crate::scrape::{scrape, Scrape};
use crate::server::{is_error_response, Client, ServerProc};
use crate::stats::{Samples, Timed};
use cqa_data::store;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Point,
    Churn,
    Views,
    Scan,
    Cycle,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "point_13k",
        kind: Kind::Point,
    },
    Workload {
        name: "churn_130k",
        kind: Kind::Churn,
    },
    Workload {
        name: "views_130k",
        kind: Kind::Views,
    },
    Workload {
        name: "scan_130k",
        kind: Kind::Scan,
    },
    Workload {
        name: "cycle_2k",
        kind: Kind::Cycle,
    },
];

/// `path3` match groups of the two database scales.
const SMALL_N: usize = 2200;
const LARGE_N: usize = 22_000;
/// Constants per layer of each cycle family.
const CYCLE_NODES: usize = 200;

/// Warm-up prefix: every template once and then some — 2,000 point reads,
/// 10 writes, one scan pass, one cycle pass. With two views subscribed a
/// write costs a third of a second, so `views_130k` warms up with three:
/// ten would make its `setup_s` a second reading of its write latency.
const WARM_READS: usize = 2000;
const WARM_WRITES: usize = 10;
const WARM_WRITES_WITH_VIEWS: usize = 3;
/// Hot keys probed per point template after a write window.
const PROBE_KEYS: usize = 20;
/// The scan workload's `t` template cycles through this many Zipf-drawn
/// constants, so its references can be computed before timing starts.
const SCAN_KEYS: usize = 64;

/// Labels of the independent random streams forked off the run's seed.
mod stream {
    pub const DATABASE: u64 = 1;
    pub const WARM_READS: u64 = 2;
    pub const WRITES: u64 = 3;
    pub const SCAN_KEYS: u64 = 4;
    /// Reader `i` of the timed window draws from `READER + i`.
    pub const READER: u64 = 16;
}

/// Client threads (and server pool threads) the host allows: `min(nproc, 2)`.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Failed requests and failed checks of one run. A refused or `error:`
/// response, a response that differs from its reference, and a write that
/// was not effective all count as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim, for the report.
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for problem in other.problems {
            if self.problems.len() < 5 {
                self.problems.push(problem);
            }
        }
    }

    /// Opens a connection; a refused one is a failed attempt.
    fn connect(&mut self, addr: SocketAddr) -> Option<Client> {
        match Client::connect(addr) {
            Ok(client) => Some(client),
            Err(e) => {
                self.attempted += 1;
                self.fail(e);
                None
            }
        }
    }

    /// Sends `line`, counting the attempt; `None` (already tallied) when the
    /// transport failed or the response is an error line.
    fn request(&mut self, client: &mut Client, line: &str) -> Option<String> {
        self.attempted += 1;
        match client.request(line) {
            Ok(response) if !is_error_response(response) => Some(response.to_string()),
            Ok(response) => {
                let problem = format!("`{line}` → `{response}`");
                self.fail(problem);
                None
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Sends `line` and holds the response against `expected`.
    fn expect(&mut self, client: &mut Client, line: &str, expected: &str) {
        if let Some(response) = self.request(client, line) {
            if response != expected {
                self.fail(format!(
                    "`{line}`: got `{}`, reference `{}`",
                    clip(&response),
                    clip(expected)
                ));
            }
        }
    }
}

fn clip(text: &str) -> &str {
    match text.char_indices().nth(160) {
        Some((at, _)) => &text[..at],
        None => text,
    }
}

/// Everything a run derives from its seed before any server starts.
pub struct Prepared {
    pub workload: Workload,
    pub instance: Instance,
    rng: Rng,
    /// Request lines and reference responses, `[class][key]`. Classes are
    /// the workload's read templates (or its views).
    requests: Vec<Vec<String>>,
    expected: Vec<Vec<String>>,
    warm_reads: Vec<(usize, usize)>,
    warm_writes: Vec<String>,
    /// The write stream, already advanced past the warm-up writes.
    writes: Option<WriteStream>,
    /// Point reads on the write stream's hottest keys — the blocks most
    /// likely spoiled — asked again after a write window.
    probes: Vec<String>,
}

/// The generated inputs on disk, as `certainty serve` takes them.
pub struct InputFiles {
    pub schema: PathBuf,
    pub cqdb: PathBuf,
    pub cqdb_bytes: u64,
    /// Wall time of `store::save`.
    pub save_ms: f64,
}

impl Prepared {
    /// The workload's read templates (empty for `views_130k`, whose reader
    /// issues `\view`).
    pub fn templates(&self) -> &'static [ReadTemplate] {
        match self.workload.kind {
            Kind::Point | Kind::Churn => &POINT_TEMPLATES,
            Kind::Scan => &SCAN_TEMPLATES,
            Kind::Cycle => &CYCLE_TEMPLATES,
            Kind::Views => &[],
        }
    }

    pub fn views(&self) -> &'static [(&'static str, &'static str)] {
        match self.workload.kind {
            Kind::Views => &VIEWS,
            _ => &[],
        }
    }

    pub fn has_writes(&self) -> bool {
        matches!(self.workload.kind, Kind::Churn | Kind::Views)
    }

    /// The first `count` requests of reader 0's timed stream: each line
    /// with its reference response (empty where none was precomputed).
    pub fn reader_prefix(&self, count: usize) -> Vec<(String, String)> {
        let mut next = self.reader_ops(0);
        (0..count)
            .map(|_| {
                let (class, key) = next();
                // Responses change under writes: no reference to hold.
                let expected = if self.has_writes() {
                    String::new()
                } else {
                    self.expected[class][key].clone()
                };
                (self.requests[class][key].clone(), expected)
            })
            .collect()
    }

    /// The first `count` lines of the timed write stream.
    pub fn write_prefix(&self, count: usize) -> Vec<String> {
        let Some(stream) = &self.writes else {
            return Vec::new();
        };
        let mut stream = stream.clone();
        (0..count).map(|_| stream.next_line()).collect()
    }

    pub fn warm_write_lines(&self) -> &[String] {
        &self.warm_writes
    }

    /// The `(class, key)` generator of timed reader `reader`: Zipf point
    /// reads, or — for views, scans and cycles — passes over the classes in
    /// order, each class cycling through its own request lines.
    fn reader_ops(&self, reader: usize) -> Box<dyn FnMut() -> (usize, usize) + Send> {
        if matches!(self.workload.kind, Kind::Point | Kind::Churn) {
            let rng = self.rng.fork(stream::READER + reader as u64);
            let mut stream = ReadStream::new(&POINT_TEMPLATES, self.instance.domain, rng);
            return Box::new(move || stream.next_op());
        }
        let lines_per_class: Vec<usize> = self.requests.iter().map(Vec::len).collect();
        let mut issued = 0usize;
        Box::new(move || {
            let class = issued % lines_per_class.len();
            let pass = issued / lines_per_class.len();
            issued += 1;
            (class, pass % lines_per_class[class])
        })
    }
}

/// Writes the schema-only `.cqa` and the `.cqdb` under `scratch`.
pub fn write_inputs(prepared: &Prepared, scratch: &Path) -> Result<InputFiles, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let schema = scratch.join(format!("{}.cqa", prepared.workload.name));
    let cqdb = scratch.join(format!("{}.cqdb", prepared.workload.name));
    std::fs::write(&schema, &prepared.instance.schema_text)
        .map_err(|e| format!("{}: {e}", schema.display()))?;
    let started = Instant::now();
    let summary = store::save(&prepared.instance.db, &cqdb)
        .map_err(|e| format!("{}: {e}", cqdb.display()))?;
    Ok(InputFiles {
        schema,
        cqdb,
        cqdb_bytes: summary.bytes,
        save_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Generates the workload's database, request tables, references and op
/// streams from `seed`.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let rng = Rng::new(seed);
    let instance = match workload.kind {
        Kind::Point => gen::path3(SMALL_N, &mut rng.fork(stream::DATABASE)),
        Kind::Churn | Kind::Views | Kind::Scan => {
            gen::path3(LARGE_N, &mut rng.fork(stream::DATABASE))
        }
        Kind::Cycle => cycle_instance(&rng)?,
    };
    let reference = Reference::new(&instance.db);
    let mut prepared = Prepared {
        workload,
        rng: rng.clone(),
        requests: Vec::new(),
        expected: Vec::new(),
        warm_reads: Vec::new(),
        warm_writes: Vec::new(),
        writes: None,
        probes: Vec::new(),
        instance,
    };
    let domain = prepared.instance.domain;
    match workload.kind {
        Kind::Point | Kind::Churn => {
            prepared.requests = POINT_TEMPLATES
                .iter()
                .map(|t| (0..domain).map(|k| t.render(k)).collect())
                .collect();
            let mut warm = ReadStream::new(&POINT_TEMPLATES, domain, rng.fork(stream::WARM_READS));
            prepared.warm_reads = (0..WARM_READS).map(|_| warm.next_op()).collect();
            // References: the whole table when responses are compared
            // during the timed window (no writes), else the warm-up's.
            prepared.expected = vec![vec![String::new(); domain]; POINT_TEMPLATES.len()];
            let wanted: Vec<(usize, usize)> = if workload.kind == Kind::Point {
                (0..POINT_TEMPLATES.len())
                    .flat_map(|c| (0..domain).map(move |k| (c, k)))
                    .collect()
            } else {
                prepared.warm_reads.clone()
            };
            for (class, key) in wanted {
                if prepared.expected[class][key].is_empty() {
                    prepared.expected[class][key] =
                        reference.answer(&prepared.requests[class][key])?;
                }
            }
        }
        Kind::Views => {
            prepared.requests = VIEWS
                .iter()
                .map(|(name, _)| vec![format!("\\view {name}")])
                .collect();
            prepared.expected = VIEWS
                .iter()
                .map(|(_, query)| Ok(vec![reference.answer(query)?]))
                .collect::<Result<_, String>>()?;
            prepared.warm_reads = vec![(0, 0), (1, 0)];
        }
        Kind::Scan => {
            let mut key_rng = rng.fork(stream::SCAN_KEYS);
            let zipf = Zipf::new(domain, &mut key_rng);
            let keys: Vec<usize> = (0..SCAN_KEYS).map(|_| zipf.sample(&mut key_rng)).collect();
            prepared.requests = SCAN_TEMPLATES
                .iter()
                .map(|t| {
                    if t.is_parameterized() {
                        keys.iter().map(|&k| t.render(k)).collect()
                    } else {
                        vec![t.render(0)]
                    }
                })
                .collect();
            prepared.expected = answer_all(&reference, &prepared.requests)?;
            prepared.warm_reads = (0..SCAN_TEMPLATES.len()).map(|c| (c, 0)).collect();
        }
        Kind::Cycle => {
            prepared.requests = CYCLE_TEMPLATES.iter().map(|t| vec![t.render(0)]).collect();
            prepared.expected = answer_all(&reference, &prepared.requests)?;
            prepared.warm_reads = (0..CYCLE_TEMPLATES.len()).map(|c| (c, 0)).collect();
            for (class, verdict) in [(0, ": certain ("), (1, ": not certain (")] {
                let line = &prepared.expected[class][0];
                if !line.contains(verdict) || !line.contains("solver: cycle-query") {
                    return Err(format!(
                        "cycle_2k: reference `{line}` is not the planted `{verdict}` verdict \
                         of the cycle-query solver"
                    ));
                }
            }
        }
    }
    if prepared.has_writes() {
        let mut writes = WriteStream::new(&prepared.instance, rng.fork(stream::WRITES));
        let warm_writes = match workload.kind {
            Kind::Views => WARM_WRITES_WITH_VIEWS,
            _ => WARM_WRITES,
        };
        prepared.warm_writes = (0..warm_writes).map(|_| writes.next_line()).collect();
        for (relation, template) in [("R", 0), ("R", 1), ("T", 2)] {
            for key in writes.hottest_keys(relation, PROBE_KEYS) {
                prepared.probes.push(POINT_TEMPLATES[template].render(key));
            }
        }
        prepared.writes = Some(writes);
    }
    Ok(prepared)
}

fn answer_all(reference: &Reference, requests: &[Vec<String>]) -> Result<Vec<Vec<String>>, String> {
    requests
        .iter()
        .map(|class| class.iter().map(|line| reference.answer(line)).collect())
        .collect()
}

/// Draws cycle instances until the unplanted family is *not certain* (a
/// small closed component of 3-cycles can, rarely, make a random family
/// certain), so the workload holds one verdict of each kind.
fn cycle_instance(rng: &Rng) -> Result<Instance, String> {
    for attempt in 0..16u64 {
        let instance = gen::cycle(
            CYCLE_NODES,
            &mut rng.fork(stream::DATABASE + 1000 * attempt),
        );
        let verdict = Reference::new(&instance.db).answer(&CYCLE_TEMPLATES[1].render(0))?;
        if verdict.contains(": not certain (") {
            return Ok(instance);
        }
    }
    Err("cycle_2k: no draw gave a not-certain unplanted family".to_string())
}

/// One live server past its warm-up.
struct Ready {
    server: ServerProc,
    setup_s: f64,
    /// The server's resident set at the end of the warm-up.
    rss_mb: f64,
    initial_epoch: u64,
}

/// Set-up: spawn `certainty serve` → bind → `\subscribe`s → warm-up with
/// every response held against its reference. The returned time is what a
/// user waits before the first useful answer: process start, CQDB load,
/// index build, bind, subscriptions and the first touch of every template.
fn set_up(
    prepared: &Prepared,
    files: &InputFiles,
    certainty: &Path,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let started = Instant::now();
    let server = ServerProc::spawn(certainty, &files.schema, &files.cqdb, host_threads())?;
    let mut client = Client::connect(server.addr())?;
    let initial_epoch = read_epoch(&mut client, tally)?;
    for (name, query) in prepared.views() {
        let ack = tally.request(&mut client, &format!("\\subscribe {name} {query}"));
        if !ack.is_some_and(|ack| ack.starts_with(&format!("ok: subscribed {name}, "))) {
            return Err(format!("\\subscribe {name} was not acknowledged"));
        }
    }
    // Warm-up reads go over as many connections as the timed window uses:
    // a lone ping-pong client measures the host's idle wake-ups (75–200 µs
    // a hop here), not the server's set-up work.
    let share = prepared.warm_reads.len().div_ceil(host_threads()).max(1);
    let addr = server.addr();
    let warmed: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = prepared
            .warm_reads
            .chunks(share)
            .map(|reads| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr)?;
                    let mut tally = Tally::default();
                    for &(class, key) in reads {
                        tally.expect(
                            &mut client,
                            &prepared.requests[class][key],
                            &prepared.expected[class][key],
                        );
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a warm-up thread panicked"))
            .collect()
    });
    for warmed in warmed {
        tally.absorb(warmed?);
    }
    for line in &prepared.warm_writes {
        effective_write(&mut client, line, tally);
    }
    let setup_s = started.elapsed().as_secs_f64();
    let rss_mb = server.rss_mb()?.now_mb;
    Ok(Ready {
        server,
        setup_s,
        rss_mb,
        initial_epoch,
    })
}

fn read_epoch(client: &mut Client, tally: &mut Tally) -> Result<u64, String> {
    tally
        .request(client, "\\epoch")
        .and_then(|r| r.strip_prefix("epoch: ")?.parse().ok())
        .ok_or_else(|| "\\epoch gave no epoch".to_string())
}

/// Sends one write and requires the effective-write acknowledgement.
fn effective_write(client: &mut Client, line: &str, tally: &mut Tally) -> bool {
    match tally.request(client, line) {
        Some(ack) if ack.starts_with("ok: ") && !ack.starts_with("ok: no-op") => true,
        Some(ack) => {
            tally.fail(format!("`{line}` was not effective: `{ack}`"));
            false
        }
        None => false,
    }
}

/// One successful request of a closed-loop client.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Sample {
    class: usize,
    /// When the request was sent, in seconds since the window opened.
    sent_s: f64,
    /// Client-observed latency in milliseconds.
    ms: f64,
}

/// Latency samples of one closed-loop client, in time order.
#[derive(Default)]
struct LoopOutcome {
    samples: Vec<Sample>,
    tally: Tally,
}

/// The closed loop: next request only after the previous reply. `stop` is
/// consulted every `stop_every` requests (a scan pass is never cut short).
/// Responses are held against `expected` where one is given.
fn closed_loop(
    addr: SocketAddr,
    opened: Instant,
    requests: &[Vec<String>],
    expected: Option<&[Vec<String>]>,
    mut next: impl FnMut() -> (usize, usize),
    stop: impl Fn() -> bool,
    stop_every: usize,
) -> LoopOutcome {
    let mut outcome = LoopOutcome {
        samples: Vec::with_capacity(1 << 18),
        tally: Tally::default(),
    };
    let Some(mut client) = outcome.tally.connect(addr) else {
        return outcome;
    };
    let mut issued = 0usize;
    loop {
        if issued.is_multiple_of(stop_every) && stop() {
            return outcome;
        }
        issued += 1;
        let (class, key) = next();
        let line = &requests[class][key];
        outcome.tally.attempted += 1;
        let sent = Instant::now();
        let response = client.request(line);
        let latency = sent.elapsed();
        match response {
            Ok(response) if is_error_response(response) => {
                let problem = format!("`{line}` → `{response}`");
                outcome.tally.fail(problem);
            }
            Ok(response) => {
                if let Some(expected) = expected {
                    if response != expected[class][key] {
                        let problem = format!(
                            "`{line}`: got `{}`, reference `{}`",
                            clip(response),
                            clip(&expected[class][key])
                        );
                        outcome.tally.fail(problem);
                        continue;
                    }
                }
                outcome.samples.push(Sample {
                    class,
                    sent_s: sent.duration_since(opened).as_secs_f64(),
                    ms: latency.as_secs_f64() * 1e3,
                });
            }
            Err(e) => {
                // The connection is gone; nothing more can be measured.
                outcome.tally.fail(e);
                return outcome;
            }
        }
    }
}

/// The writer's closed loop: effective writes until `deadline`, logging
/// every acknowledged line for the mirror.
fn write_loop(
    addr: SocketAddr,
    opened: Instant,
    stream: &mut WriteStream,
    deadline: Instant,
    log: &mut Vec<String>,
) -> LoopOutcome {
    let mut outcome = LoopOutcome::default();
    let Some(mut client) = outcome.tally.connect(addr) else {
        return outcome;
    };
    while Instant::now() < deadline {
        let line = stream.next_line();
        let sent = Instant::now();
        let effective = effective_write(&mut client, &line, &mut outcome.tally);
        let latency = sent.elapsed();
        if effective {
            outcome.samples.push(Sample {
                class: 0,
                sent_s: sent.duration_since(opened).as_secs_f64(),
                ms: latency.as_secs_f64() * 1e3,
            });
            log.push(line);
        }
    }
    outcome
}

/// What one live run measured.
pub struct LiveRun {
    /// One set-up time per repetition, and the server's resident set (MB)
    /// at the end of each.
    pub setup_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    /// Timed-window wall clock.
    pub wall_s: f64,
    /// The workload's primary op class in send order: point reads /
    /// effective writes / scan passes / cycle queries.
    pub primary: Vec<Timed>,
    /// Its side class: open-template reads / reads beside the writer /
    /// `\view` reads / the open `path3` scan / `AC(3)`.
    pub side: Vec<Timed>,
    /// What `side_tail_ms` is a percentile of: the side class itself, except
    /// on `churn_130k`, where it is the slowest read of each write interval
    /// (see [`publish_stalls`]).
    pub side_tail_basis: Vec<f64>,
    /// Per-class medians of the read side, as information.
    pub class_medians: Vec<(String, usize, f64)>,
    /// Median latency (ms) over every read request of the window.
    pub read_p50_ms: f64,
    /// The server's `VmHWM` just before shutdown. Information only: under
    /// writes it is bimodal (whether a reader ever pinned an epoch across
    /// the next write's clone, after which the heap stays one copy larger).
    pub peak_rss_mb: f64,
    pub tally: Tally,
    /// `/metrics` before and after the timed window.
    pub before: Scrape,
    pub after: Scrape,
    pub effective_writes: usize,
}

/// Runs the workload against the live server: `setups` set-ups (the last
/// one keeps its server), one timed window of `seconds`, the final checks.
pub fn run_live(
    prepared: &mut Prepared,
    files: &InputFiles,
    certainty: &Path,
    seconds: f64,
    setups: usize,
) -> Result<LiveRun, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(setups);
    let mut rss_mb = Vec::with_capacity(setups);
    let mut ready = set_up(prepared, files, certainty, &mut tally)?;
    for _ in 1..setups {
        setup_s.push(ready.setup_s);
        rss_mb.push(ready.rss_mb);
        // Dropping the previous server first keeps one server alive at a
        // time, as in a real restart.
        drop(ready);
        ready = set_up(prepared, files, certainty, &mut tally)?;
    }
    setup_s.push(ready.setup_s);
    rss_mb.push(ready.rss_mb);
    let addr = ready.server.addr();
    let kind = prepared.workload.kind;
    let before = scrape(addr)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut write_log = Vec::new();
    let mut writer = LoopOutcome::default();
    let mut readers: Vec<LoopOutcome> = Vec::new();
    match kind {
        Kind::Point => {
            let clients = host_threads();
            let prepared = &*prepared;
            readers = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|reader| {
                        scope.spawn(move || {
                            closed_loop(
                                addr,
                                started,
                                &prepared.requests,
                                Some(&prepared.expected),
                                prepared.reader_ops(reader),
                                || Instant::now() >= deadline,
                                1,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a reader thread panicked"))
                    .collect()
            });
        }
        Kind::Churn | Kind::Views => {
            let mut stream = prepared
                .writes
                .take()
                .expect("write workloads have a stream");
            let prepared = &*prepared;
            let done = AtomicBool::new(false);
            let (w, r) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    closed_loop(
                        addr,
                        started,
                        &prepared.requests,
                        None,
                        prepared.reader_ops(0),
                        || done.load(Ordering::Acquire),
                        1,
                    )
                });
                let w = write_loop(addr, started, &mut stream, deadline, &mut write_log);
                // Release pairs with the reader's Acquire load: the flag
                // publishes nothing but itself.
                done.store(true, Ordering::Release);
                (w, reader.join().expect("the reader thread panicked"))
            });
            writer = w;
            readers.push(r);
        }
        Kind::Scan | Kind::Cycle => {
            let per_pass = prepared.templates().len();
            readers.push(closed_loop(
                addr,
                started,
                &prepared.requests,
                Some(&prepared.expected),
                prepared.reader_ops(0),
                || Instant::now() >= deadline,
                per_pass,
            ));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let after = scrape(addr)?;

    let effective_writes = write_log.len();
    if prepared.has_writes() {
        final_write_checks(prepared, &ready, &write_log, &mut tally)?;
    }
    let peak_rss_mb = ready.server.rss_mb()?.peak_mb;
    drop(ready);

    let classes: Vec<String> = match kind {
        Kind::Views => VIEWS
            .iter()
            .map(|(name, _)| format!("\\view {name}"))
            .collect(),
        _ => prepared
            .templates()
            .iter()
            .map(|t| t.name.to_string())
            .collect(),
    };
    // Every read of the window in send order (two readers interleave).
    let mut reads: Vec<Sample> = readers
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    reads.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s));
    let timed = |s: &Sample| Timed {
        sent_s: s.sent_s,
        ms: s.ms,
    };
    let of_class = |class: usize| -> Vec<Timed> {
        reads
            .iter()
            .filter(|s| s.class == class)
            .map(timed)
            .collect()
    };
    let class_medians = classes
        .into_iter()
        .enumerate()
        .map(|(class, name)| {
            let samples = Samples::new(of_class(class).iter().map(|op| op.ms).collect());
            (name, samples.len(), samples.median())
        })
        .collect();
    let all_reads: Vec<Timed> = reads.iter().map(timed).collect();
    let read_p50_ms = Samples::new(reads.iter().map(|s| s.ms).collect()).median();
    let writes: Vec<Timed> = writer.samples.iter().map(timed).collect();
    let (primary, side) = match kind {
        Kind::Point => (all_reads, of_class(1)),
        Kind::Churn | Kind::Views => (writes, all_reads),
        Kind::Scan => (
            pass_totals(&reads, SCAN_TEMPLATES.len()),
            of_class(SCAN_OPEN),
        ),
        Kind::Cycle => (all_reads, of_class(CYCLE_AC)),
    };
    let side_tail_basis = match kind {
        Kind::Churn => publish_stalls(&writer.samples, &reads),
        _ => side.iter().map(|op| op.ms).collect(),
    };
    tally.absorb(writer.tally);
    for reader in readers {
        tally.absorb(reader.tally);
    }
    Ok(LiveRun {
        setup_s,
        rss_mb,
        wall_s,
        primary,
        side_tail_basis,
        side,
        class_medians,
        read_p50_ms,
        peak_rss_mb,
        tally,
        before,
        after,
        effective_writes,
    })
}

/// Each complete pass as one op: sent with its first query, lasting the
/// sum of its queries' latencies (the client does nothing else between
/// them).
fn pass_totals(samples: &[Sample], per_pass: usize) -> Vec<Timed> {
    samples
        .chunks_exact(per_pass)
        .map(|pass| Timed {
            sent_s: pass[0].sent_s,
            ms: pass.iter().map(|s| s.ms).sum(),
        })
        .collect()
}

/// The slowest read sent during each write (between one ack and the next).
///
/// Every publish invalidates the lazily built indexes and plans, so the
/// first reads of each epoch stall; that stall is what a reader beside a
/// writer suffers. A plain p99 of the reads cannot report it steadily: the
/// stalled reads are a few percent of a closed-loop reader's samples, the
/// exact share moves with how many fast reads fit between stalls, and p99
/// lands anywhere from the stall population's edge to its middle.
fn publish_stalls(writes: &[Sample], reads: &[Sample]) -> Vec<f64> {
    let mut stalls = Vec::with_capacity(writes.len());
    let mut next = 0;
    for write in writes {
        let acked_s = write.sent_s + write.ms / 1e3;
        let mut worst: Option<f64> = None;
        while next < reads.len() && reads[next].sent_s <= acked_s {
            if reads[next].sent_s >= write.sent_s {
                worst = Some(worst.map_or(reads[next].ms, |w| w.max(reads[next].ms)));
            }
            next += 1;
        }
        stalls.extend(worst);
    }
    stalls
}

/// After a write window: the mirror replays the acknowledged write log, and
/// the server's epoch, hot-key probes and `\view` lines must match it.
fn final_write_checks(
    prepared: &Prepared,
    ready: &Ready,
    write_log: &[String],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut mirror = prepared.instance.db.clone();
    replay_writes(&mut mirror, &prepared.warm_writes)?;
    replay_writes(&mut mirror, write_log)?;
    let reference = Reference::new(&mirror);
    let mut client = Client::connect(ready.server.addr())?;
    let epoch = read_epoch(&mut client, tally)?;
    let expected = ready.initial_epoch + (prepared.warm_writes.len() + write_log.len()) as u64;
    if epoch != expected {
        tally.fail(format!(
            "\\epoch is {epoch}, expected {expected} (initial {} + {} effective writes)",
            ready.initial_epoch,
            expected - ready.initial_epoch
        ));
    }
    for line in &prepared.probes {
        tally.expect(&mut client, line, &reference.answer(line)?);
    }
    for (name, query) in prepared.views() {
        tally.expect(
            &mut client,
            &format!("\\view {name}"),
            &reference.answer(query)?,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_totals_sum_complete_passes_only() {
        let samples: Vec<Sample> = [(0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0), (0, 5.0)]
            .iter()
            .enumerate()
            .map(|(i, &(class, ms))| Sample {
                class,
                sent_s: i as f64,
                ms,
            })
            .collect();
        let pass = |sent_s: f64, ms: f64| Timed { sent_s, ms };
        assert_eq!(
            pass_totals(&samples, 2),
            vec![pass(0.0, 3.0), pass(2.0, 7.0)]
        );
    }

    #[test]
    fn publish_stalls_take_the_slowest_read_sent_during_each_write() {
        let at = |sent_s: f64, ms: f64| Sample {
            class: 0,
            sent_s,
            ms,
        };
        // Two writes: [0.0, 0.1] and [0.2, 0.3]; reads between them belong
        // to neither, and a write no read overlapped contributes nothing.
        let writes = [at(0.0, 100.0), at(0.2, 100.0), at(0.5, 100.0)];
        let reads = [
            at(0.01, 1.0),
            at(0.05, 30.0),
            at(0.09, 2.0),
            at(0.15, 99.0),
            at(0.25, 7.0),
        ];
        assert_eq!(publish_stalls(&writes, &reads), vec![30.0, 7.0]);
    }

    #[test]
    fn one_seed_gives_identical_requests_and_op_streams() {
        let point = WORKLOADS[0];
        let a = prepare(point, 3).unwrap();
        let b = prepare(point, 3).unwrap();
        let c = prepare(point, 4).unwrap();
        assert_eq!(a.reader_prefix(300), b.reader_prefix(300));
        assert_ne!(a.reader_prefix(300), c.reader_prefix(300));
        let cqdb = |p: &Prepared| store::save_to_vec(&p.instance.db);
        assert_eq!(cqdb(&a), cqdb(&b));
        assert_ne!(cqdb(&a), cqdb(&c));
        // Two readers of one run draw different streams.
        let mut first = a.reader_ops(0);
        let mut second = a.reader_ops(1);
        let ops =
            |next: &mut dyn FnMut() -> (usize, usize)| (0..50).map(|_| next()).collect::<Vec<_>>();
        assert_ne!(ops(&mut *first), ops(&mut *second));
    }

    #[test]
    fn the_cycle_workload_holds_one_verdict_of_each_kind() {
        let prepared = prepare(WORKLOADS[4], 1).unwrap();
        assert!(prepared.expected[0][0].contains(": certain ("));
        assert!(prepared.expected[1][0].contains(": not certain ("));
        assert!(prepared.expected[2][0].contains("solver: cycle-query"));
    }
}
