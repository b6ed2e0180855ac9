//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Two sources, neither of which feeds an end-to-end metric:
//!
//! * a **live window** (a share of `--seconds`, one set-up) whose `GET
//!   /metrics` diff gives the count and rate metrics — the stack's own
//!   `cqa-obs` counters, read through the public endpoint — and the
//!   client-observed read median `serve.dispatch_us` is the residual of;
//! * an **in-process replay**, on one thread, of the first reads / writes /
//!   passes of the same seeded op streams, with a span around each call
//!   into a layer's public function. `*_us` metrics are medians of span
//!   self time.
//!
//! Replay shapes (the server's own chains, minus sockets, admission and the
//! pool hand-off):
//!
//! ```text
//! read   request ─ parser.parse ─ serve.pin ─ par.answer ─────────────── serve.render
//!                                           └ core.possible ─ core.verdicts* ┘   (open queries)
//! write  write ─ parser.parse ─ data.mutate ─ data.index_patch ─ data.clone
//!              ─ (stream.repair ─ serve.render_view)* ─ par.fork ─ serve.retire
//!        serve.apply_write        (the whole call, on a second EpochManager)
//! probe  core.classify ─ exec.compile ─ exec.prepare ─ exec.eval | core.cycle_solve
//!        (fresh engines, once per distinct query shape)
//! ```

use crate::gen::{SCAN_OPEN, SCAN_TEMPLATES};
use crate::reference::{apply_write, parse_write, replay_writes};
use crate::report::{tails, Metric, RunReport};
use crate::scrape::{delta, ratio};
use crate::spans::{self_times_by_name_us, Open, Recorder, Span};
use crate::stats::{coverage, Samples};
use crate::workloads::{run_live, InputFiles, Kind, Prepared};
use cqa_core::answers::{possible_answers, AnswerSets, CertainAnswersEngine};
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::{store, ChangeSet, Schema, UncertainDatabase, Value};
use cqa_exec::QueryPlan;
use cqa_obs::TraceSink;
use cqa_par::{BatchEngine, BatchOutcome, BatchResult, ParPool};
use cqa_query::ConjunctiveQuery;
use cqa_serve::protocol::{parse_request, render_result};
use cqa_serve::{EpochManager, Request};
use cqa_stream::{MaterializedView, ViewMaintainer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent in the live window; the rest bounds the
/// replays.
const LIVE_SHARE: f64 = 0.4;
/// Replay prefixes: reads, writes, scan / cycle passes.
const REPLAY_READS: usize = 5000;
const REPLAY_WRITES: usize = 100;
const REPLAY_PASSES: usize = 3;
/// A write replay cut short by its time budget still makes this many.
const MIN_REPLAY_WRITES: usize = 6;
/// Distinct query shapes probed for classify / compile / prepare / eval.
const PROBE_SHAPES: usize = 256;
/// The server's candidate chunk between cancellation checks
/// (`ServerConfig::query_chunk`'s default).
const QUERY_CHUNK: usize = 256;
/// Stage coverage below this fails the run: a layer whose cost cannot be
/// attributed is a bug in the measurement.
const MIN_COVERAGE: f64 = 0.9;
const MAX_OVERHEAD: f64 = 1.05;
/// Requests whose whole in-process answer is shorter than this are below
/// what spans can resolve; coverage and overhead are reported, not gated.
const MIN_RESOLVABLE_US: f64 = 2.0;

/// `(name, unit)` of every per-layer metric, in report order. A layer a
/// workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("parser.parse_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.render_us", "us"),
    ("serve.pin_us", "us"),
    ("serve.apply_write_us", "us"),
    ("serve.render_view_us", "us"),
    ("serve.retire_us", "us"),
    ("serve.write_stage_coverage", "ratio"),
    ("serve.read_stage_coverage", "ratio"),
    ("serve.rejected_overload", "count"),
    ("serve.epochs_published", "count"),
    ("serve.epochs_pinned_max", "count"),
    ("par.answer_us", "us"),
    ("par.engine_memo_hit_rate", "ratio"),
    ("par.fork_us", "us"),
    ("par.parallel_rate", "ratio"),
    ("par.steals", "count"),
    ("par.tasks", "count"),
    ("core.classify_us", "us"),
    ("core.possible_us", "us"),
    ("core.verdicts_us", "us"),
    ("core.cycle_solve_us", "us"),
    ("core.answers_fallback_rate", "ratio"),
    ("exec.compile_us", "us"),
    ("exec.prepare_us", "us"),
    ("exec.eval_us", "us"),
    ("exec.plan_cache_hit_rate", "ratio"),
    ("exec.plan_cache_stale", "count"),
    ("exec.vec_share", "ratio"),
    ("exec.rows_per_answer", "count"),
    ("data.mutate_us", "us"),
    ("data.index_patch_us", "us"),
    ("data.clone_us", "us"),
    ("data.index_build_ms", "ms"),
    ("data.columnar_build_ms", "ms"),
    ("data.delta_applied_per_write", "1/write"),
    ("data.delta_fallback_rebuild_per_write", "1/write"),
    ("data.position_index_miss_per_write", "1/write"),
    ("data.code_index_miss_per_write", "1/write"),
    ("data.columnar_miss_per_write", "1/write"),
    ("store.load_ms", "ms"),
    ("store.load_mb_per_s", "MB/s"),
    ("store.save_ms", "ms"),
    ("store.save_mb_per_s", "MB/s"),
    ("store.bytes_per_fact", "B/fact"),
    ("stream.repair_us", "us"),
    ("stream.init_ms", "ms"),
    ("stream.retouched_per_write", "1/write"),
    ("stream.full_recompute_rate", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replayed_reads", "count"),
    ("trace.replayed_writes", "count"),
    ("trace.probed_shapes", "count"),
    ("trace.spans", "count"),
    ("live.read_p50_us", "us"),
    ("live.effective_writes", "count"),
    ("live.op_tail_ms", "ms"),
    ("live.side_tail_ms", "ms"),
    ("live.peak_rss_mb", "MB"),
];

/// The in-process stack the replays drive: the server's own epoch manager
/// over the loaded database, on a one-thread pool.
struct World {
    schema: Arc<Schema>,
    epochs: EpochManager,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Answers one read request through the server's chain with a span per
/// stage (no-ops while `rec` is disabled).
fn answer_read(rec: &mut Recorder, world: &World, line: &str, id: u32) -> Result<String, String> {
    let root = rec.begin("request", Recorder::root(), id);
    let span = rec.begin("parser.parse", root, id);
    let request = parse_request(&world.schema, line, id as usize + 1);
    rec.end(span);
    let response = match request? {
        Some(Request::Query { name, query }) => {
            let result = if query.is_boolean() {
                let span = rec.begin("serve.pin", root, id);
                let engine = world.epochs.current();
                rec.end(span);
                let span = rec.begin("par.answer", root, id);
                let result = engine.answer(&name, &query);
                rec.end(span);
                result
            } else {
                answer_open(rec, world, root, id, name, &query)?
            };
            let span = rec.begin("serve.render", root, id);
            let response = render_result(&result);
            rec.end(span);
            response
        }
        Some(Request::View { name }) => {
            let span = rec.begin("serve.pin", root, id);
            let reading = world.epochs.view(&name);
            rec.end(span);
            let span = rec.begin("serve.render", root, id);
            let response = reading
                .map(|r| r.line.clone())
                .ok_or_else(|| format!("unknown view `{name}`"))?;
            rec.end(span);
            response
        }
        _ => return Err(format!("`{line}` is not a read")),
    };
    rec.end(root);
    Ok(response)
}

/// The server's open-query path: pin the epoch and the memoized answer
/// engine, enumerate candidates, decide certainty in chunks.
fn answer_open(
    rec: &mut Recorder,
    world: &World,
    root: Open,
    id: u32,
    name: String,
    query: &ConjunctiveQuery,
) -> Result<BatchResult, String> {
    let span = rec.begin("serve.pin", root, id);
    let engine = world.epochs.current();
    let answers = world.epochs.answer_engine(query)?;
    rec.end(span);
    let db = engine.snapshot().database();
    let span = rec.begin("core.possible", root, id);
    let possible = possible_answers(query, db).map_err(|e| e.to_string())?;
    rec.end(span);
    let tuples: Vec<Vec<Value>> = possible.iter().cloned().collect();
    let mut certain = BTreeSet::new();
    for chunk in tuples.chunks(QUERY_CHUNK) {
        let span = rec.begin("core.verdicts", root, id);
        let verdicts = answers.verdicts(db, chunk).map_err(|e| e.to_string())?;
        rec.end(span);
        for (tuple, verdict) in chunk.iter().zip(verdicts) {
            if verdict {
                certain.insert(tuple.clone());
            }
        }
    }
    Ok(BatchResult {
        name,
        outcome: BatchOutcome::Answers(AnswerSets { certain, possible }),
    })
}

/// Totals of the interleaved on/off read replay.
struct ReadReplay {
    traced: Duration,
    untraced: Duration,
    mismatches: Vec<String>,
}

/// Replays `reads` once untimed (caches and lazy indexes fill, as in the
/// live warm-up), then once more with every request answered twice back to
/// back — spans on and spans off, in alternating order — so drift cancels
/// out of `trace.overhead_ratio`.
fn replay_reads(
    rec: &mut Recorder,
    world: &World,
    reads: &[(String, String)],
) -> Result<ReadReplay, String> {
    let mut replay = ReadReplay {
        traced: Duration::ZERO,
        untraced: Duration::ZERO,
        mismatches: Vec::new(),
    };
    rec.set_enabled(false);
    for (id, (line, expected)) in reads.iter().enumerate() {
        let response = answer_read(rec, world, line, id as u32)?;
        if !expected.is_empty() && &response != expected && replay.mismatches.len() < 5 {
            replay
                .mismatches
                .push(format!("replay of `{line}` differs from its reference"));
        }
    }
    for (id, (line, _)) in reads.iter().enumerate() {
        for traced in [id % 2 == 0, id % 2 != 0] {
            rec.set_enabled(traced);
            let started = Instant::now();
            std::hint::black_box(answer_read(rec, world, line, id as u32)?);
            let elapsed = started.elapsed();
            if traced {
                replay.traced += elapsed;
            } else {
                replay.untraced += elapsed;
            }
        }
    }
    rec.set_enabled(true);
    Ok(replay)
}

/// Probes one distinct query shape on fresh engines: classification (attack
/// graph via `cqa-graph`), plan compilation, preparation on the snapshot
/// index, and evaluation — or the cycle-query solver's certainty decision.
fn probe_shape(
    rec: &mut Recorder,
    db: &UncertainDatabase,
    query: &ConjunctiveQuery,
    id: u32,
) -> Result<(), String> {
    let root = rec.begin("probe", Recorder::root(), id);
    let index = db.index();
    if query.is_boolean() {
        let span = rec.begin("core.classify", root, id);
        let engine = CertaintyEngine::new(query).map_err(|e| e.to_string())?;
        rec.end(span);
        if engine.solver_name() == "cycle-query" {
            let span = rec.begin("core.cycle_solve", root, id);
            std::hint::black_box(engine.is_certain(db));
            rec.end(span);
        } else {
            let span = rec.begin("exec.compile", root, id);
            let plan = engine.rewriting_plan(db);
            rec.end(span);
            if let Some(plan) = plan {
                let span = rec.begin("exec.prepare", root, id);
                let prepared = plan.prepare(&index);
                rec.end(span);
                let span = rec.begin("exec.eval", root, id);
                std::hint::black_box(prepared.eval());
                rec.end(span);
            }
        }
    } else {
        let span = rec.begin("core.classify", root, id);
        let engine = CertainAnswersEngine::new(query).map_err(|e| e.to_string())?;
        rec.end(span);
        let span = rec.begin("exec.compile", root, id);
        let join = QueryPlan::compile(query, Some(index.statistics()));
        let open = engine.open_plan(db);
        rec.end(span);
        let span = rec.begin("exec.prepare", root, id);
        let prepared = join.prepare(&index);
        rec.end(span);
        let span = rec.begin("exec.eval", root, id);
        let candidates: Vec<Vec<Value>> = prepared.answers().into_iter().collect();
        rec.end(span);
        if let Some(open) = open {
            let span = rec.begin("exec.prepare", root, id);
            let prepared = open.prepare(&index);
            rec.end(span);
            let span = rec.begin("exec.eval", root, id);
            std::hint::black_box(prepared.eval_tuples(query.free_vars(), &candidates));
            rec.end(span);
        }
    }
    rec.end(root);
    Ok(())
}

/// Rows the open `path3` plans scan (join plan + open rewriting, counted by
/// `TraceSink`s) per certain answer returned. Single-threaded and
/// deterministic: a count that must repeat exactly per seed.
fn rows_per_answer(db: &UncertainDatabase, query: &ConjunctiveQuery) -> Result<f64, String> {
    let index = db.index();
    let join = QueryPlan::compile(query, Some(index.statistics()));
    let join_sink = Arc::new(TraceSink::new(join.trace_ops()));
    let candidates: Vec<Vec<Value>> = join
        .prepare(&index)
        .with_trace(join_sink.clone())
        .answers()
        .into_iter()
        .collect();
    let engine = CertainAnswersEngine::new(query).map_err(|e| e.to_string())?;
    let open = engine
        .open_plan(db)
        .ok_or("the open path3 query has no first-order rewriting")?;
    let open_sink = Arc::new(TraceSink::new(open.trace_ops()));
    let verdicts = open
        .prepare(&index)
        .with_trace(open_sink.clone())
        .eval_tuples(query.free_vars(), &candidates);
    let rows = |sink: &TraceSink| (0..sink.op_count()).map(|i| sink.op(i).rows()).sum::<u64>();
    let answers = verdicts.iter().filter(|&&v| v).count().max(1);
    Ok((rows(&join_sink) + rows(&open_sink)) as f64 / answers as f64)
}

/// The write replay: the server's write path stage by stage on one master
/// database, beside the whole `apply_write` call on `world`'s manager.
struct WriteReplay {
    init_ms: f64,
    replayed: usize,
}

#[allow(clippy::too_many_arguments)]
fn replay_writes_staged(
    rec: &mut Recorder,
    world: &World,
    mut master: UncertainDatabase,
    views: &[(&str, &str)],
    warm_writes: &[String],
    writes: &[String],
    budget: Duration,
    first_id: u32,
) -> Result<WriteReplay, String> {
    let pool = ParPool::new(1);
    let maintainer = ViewMaintainer::with_pool(pool.clone());
    // Both sides start from the live run's post-warm-up state.
    replay_writes(&mut master, warm_writes)?;
    for line in warm_writes {
        world
            .epochs
            .apply_write(&parse_write(&world.schema, line)?)?;
    }
    let mut live_views = Vec::new();
    let started = Instant::now();
    for (name, query) in views {
        let Some(Request::Query { query, .. }) = parse_request(&world.schema, query, 1)? else {
            return Err(format!("view `{name}` is not a query"));
        };
        let mut view = MaterializedView::new(*name, &query)?;
        maintainer.initialize(&mut view, &master.snapshot())?;
        live_views.push(view);
    }
    let init_ms = if views.is_empty() {
        0.0
    } else {
        ms(started.elapsed())
    };
    for (name, query) in views {
        let Some(Request::Query { query, .. }) = parse_request(&world.schema, query, 1)? else {
            return Err(format!("view `{name}` is not a query"));
        };
        world.epochs.subscribe(name, &query)?;
    }
    let mut engine = Arc::new(BatchEngine::new(master.snapshot(), pool));
    let deadline = Instant::now() + budget;
    let mut replayed = 0;
    for (i, line) in writes.iter().enumerate() {
        if i >= MIN_REPLAY_WRITES && Instant::now() >= deadline {
            break;
        }
        let id = first_id + i as u32;
        let root = rec.begin("write", Recorder::root(), id);
        let span = rec.begin("parser.parse", root, id);
        let op = parse_write(&world.schema, line)?;
        rec.end(span);
        let span = rec.begin("data.mutate", root, id);
        let mut changes = ChangeSet::new();
        let effective = apply_write(&mut master, &op, &mut changes)?;
        rec.end(span);
        if !effective {
            return Err(format!("replayed write `{line}` was a no-op"));
        }
        let span = rec.begin("data.index_patch", root, id);
        std::hint::black_box(master.index());
        rec.end(span);
        let span = rec.begin("data.clone", root, id);
        let snapshot = master.snapshot();
        rec.end(span);
        for view in &mut live_views {
            let span = rec.begin("stream.repair", root, id);
            maintainer.repair(view, &snapshot, &changes)?;
            rec.end(span);
            let span = rec.begin("serve.render_view", root, id);
            std::hint::black_box(render_result(&BatchResult {
                name: view.name().to_string(),
                outcome: BatchOutcome::Answers(view.answer_sets()),
            }));
            rec.end(span);
        }
        let span = rec.begin("par.fork", root, id);
        let next = Arc::new(engine.with_snapshot(snapshot));
        rec.end(span);
        // With no reader pinning it, the previous epoch dies inside the
        // write: its deep-cloned database is freed under the master lock.
        let span = rec.begin("serve.retire", root, id);
        drop(std::mem::replace(&mut engine, next));
        rec.end(span);
        rec.end(root);

        let span = rec.begin("serve.apply_write", Recorder::root(), id);
        let outcome = world.epochs.apply_write(&op)?;
        rec.end(span);
        if !outcome.changed || outcome.epoch != master.epoch() {
            return Err(format!(
                "replayed write `{line}`: the manager is at epoch {} (changed: {}), the staged \
                 master at {}",
                outcome.epoch,
                outcome.changed,
                master.epoch()
            ));
        }
        replayed += 1;
    }
    Ok(WriteReplay { init_ms, replayed })
}

/// Median self time per span name, in microseconds.
struct SelfTimes(BTreeMap<&'static str, Vec<f64>>);

impl SelfTimes {
    fn median_us(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |values| Samples::new(values.clone()).median())
    }

    fn total_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |values| values.iter().sum())
    }
}

fn total_duration_us(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum()
}

pub fn run(
    prepared: &mut Prepared,
    files: &InputFiles,
    certainty: &Path,
    seconds: f64,
    scratch: &Path,
) -> Result<RunReport, String> {
    let kind = prepared.workload.kind;
    // The replay inputs: prefixes of the very streams the live window runs.
    let read_count = match kind {
        Kind::Scan | Kind::Cycle => REPLAY_PASSES * prepared.templates().len(),
        _ => REPLAY_READS,
    };
    let reads = prepared.reader_prefix(read_count);
    let writes = prepared.write_prefix(REPLAY_WRITES);
    let warm_writes = prepared.warm_write_lines().to_vec();

    // 1. The live window: counters through `GET /metrics`.
    let live = run_live(prepared, files, certainty, seconds * LIVE_SHARE, 1)?;
    let (before, after) = (&live.before, &live.after);
    let live_read_p50_us = live.read_p50_ms * 1e3;
    let tails = tails(kind, &live);

    // 2. The in-process world, built the way the server builds it.
    let started = Instant::now();
    let db = store::load(&files.cqdb).map_err(|e| format!("{}: {e}", files.cqdb.display()))?;
    let load_ms = ms(started.elapsed());
    let started = Instant::now();
    let index = db.index();
    let index_build_ms = ms(started.elapsed());
    let started = Instant::now();
    std::hint::black_box(index.columnar());
    let columnar_build_ms = ms(started.elapsed());
    let world = World {
        schema: db.schema().clone(),
        epochs: EpochManager::new(db.clone(), ParPool::new(1)),
    };

    // 3. Replays and probes, all spans into one recorder.
    let mut rec = Recorder::new(
        true,
        8 * (reads.len() + 16 * REPLAY_WRITES + 8 * PROBE_SHAPES),
    );
    let replay_budget = Duration::from_secs_f64(seconds * (1.0 - LIVE_SHARE) / 2.0);
    // Reads go first so that the writes patch the lazily built indexes the
    // reads materialized, as they do behind the live warm-up — except on
    // `views_130k`, whose `\view` reads need the write replay's subscriptions
    // (and touch no index).
    let mut write_replay = WriteReplay {
        init_ms: 0.0,
        replayed: 0,
    };
    let replay_the_writes = |rec: &mut Recorder| {
        replay_writes_staged(
            rec,
            &world,
            db.clone(),
            prepared.views(),
            &warm_writes,
            &writes,
            replay_budget,
            reads.len() as u32,
        )
    };
    if kind == Kind::Views {
        write_replay = replay_the_writes(&mut rec)?;
    }
    let read_replay = replay_reads(&mut rec, &world, &reads)?;
    if kind == Kind::Churn {
        write_replay = replay_the_writes(&mut rec)?;
    }
    let mut shapes: Vec<ConjunctiveQuery> = Vec::new();
    let mut seen = BTreeSet::new();
    for (line, _) in &reads {
        if shapes.len() >= PROBE_SHAPES {
            break;
        }
        if let Ok(Some(Request::Query { query, .. })) = parse_request(&world.schema, line, 1) {
            if seen.insert(line.clone()) {
                shapes.push(query);
            }
        }
    }
    let probe_id = (reads.len() + writes.len()) as u32;
    for (i, query) in shapes.iter().enumerate() {
        probe_shape(&mut rec, &db, query, probe_id + i as u32)?;
    }
    let rows = if kind == Kind::Scan {
        let line = SCAN_TEMPLATES[SCAN_OPEN].render(0);
        match parse_request(&world.schema, &line, 1)? {
            Some(Request::Query { query, .. }) => rows_per_answer(&db, &query)?,
            _ => 0.0,
        }
    } else {
        0.0
    };

    // 4. Spans → self times, coverage, overhead; the dump.
    let spans = rec.spans();
    let dump_path = scratch
        .parent()
        .unwrap_or(scratch)
        .join(format!("spans-{}.jsonl", prepared.workload.name));
    std::fs::write(&dump_path, rec.dump(prepared.workload.name))
        .map_err(|e| format!("{}: {e}", dump_path.display()))?;
    let self_times = SelfTimes(self_times_by_name_us(spans));
    let read_coverage = {
        let whole = total_duration_us(spans, "request");
        if whole > 0.0 {
            (whole - self_times.total_us("request")) / whole
        } else {
            0.0
        }
    };
    let write_stages = [
        "data.mutate",
        "data.index_patch",
        "data.clone",
        "stream.repair",
        "serve.render_view",
        "par.fork",
        "serve.retire",
    ];
    let write_coverage = coverage(
        &write_stages.map(|stage| total_duration_us(spans, stage)),
        total_duration_us(spans, "serve.apply_write"),
    );
    let overhead = if read_replay.untraced > Duration::ZERO {
        read_replay.traced.as_secs_f64() / read_replay.untraced.as_secs_f64()
    } else {
        0.0
    };
    let replay_read_p50_us = {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        Samples::new(durations).median()
    };

    // 5. Counters of the live window.
    let d = |name: &str| delta(before, after, name);
    let per_write = |name: &str| {
        if live.effective_writes > 0 {
            d(name) / live.effective_writes as f64
        } else {
            0.0
        }
    };
    let vec_runs =
        d("exec.fo.eval.vec") + d("exec.fo.eval_tuples.vec") + d("exec.query.answers.vec");
    let row_runs =
        d("exec.fo.eval.row") + d("exec.fo.eval_tuples.row") + d("exec.query.answers.row");
    let mb = files.cqdb_bytes as f64 / 1e6;
    let rate = |mb: f64, ms: f64| if ms > 0.0 { mb / (ms / 1e3) } else { 0.0 };

    let values: BTreeMap<&str, f64> = [
        ("parser.parse_us", self_times.median_us("parser.parse")),
        ("serve.dispatch_us", live_read_p50_us - replay_read_p50_us),
        ("serve.render_us", self_times.median_us("serve.render")),
        ("serve.pin_us", self_times.median_us("serve.pin")),
        (
            "serve.apply_write_us",
            self_times.median_us("serve.apply_write"),
        ),
        (
            "serve.render_view_us",
            self_times.median_us("serve.render_view"),
        ),
        ("serve.retire_us", self_times.median_us("serve.retire")),
        ("serve.write_stage_coverage", write_coverage),
        ("serve.read_stage_coverage", read_coverage),
        ("serve.rejected_overload", d("serve.rejected_overload")),
        ("serve.epochs_published", d("serve.epochs_published")),
        (
            "serve.epochs_pinned_max",
            before
                .get("serve.epochs.pinned")
                .max(after.get("serve.epochs.pinned")),
        ),
        ("par.answer_us", self_times.median_us("par.answer")),
        (
            "par.engine_memo_hit_rate",
            ratio(d("par.batch.engine.hit"), d("par.batch.engine.miss")),
        ),
        ("par.fork_us", self_times.median_us("par.fork")),
        (
            "par.parallel_rate",
            ratio(d("par.cutoff.parallel"), d("par.cutoff.sequential")),
        ),
        ("par.steals", d("par.pool.steals")),
        ("par.tasks", d("par.tasks")),
        ("core.classify_us", self_times.median_us("core.classify")),
        ("core.possible_us", self_times.median_us("core.possible")),
        ("core.verdicts_us", self_times.median_us("core.verdicts")),
        (
            "core.cycle_solve_us",
            self_times.median_us("core.cycle_solve"),
        ),
        (
            "core.answers_fallback_rate",
            ratio(
                d("core.answers.fallback_tuples"),
                d("core.answers.batch_tuples"),
            ),
        ),
        ("exec.compile_us", self_times.median_us("exec.compile")),
        ("exec.prepare_us", self_times.median_us("exec.prepare")),
        ("exec.eval_us", self_times.median_us("exec.eval")),
        (
            "exec.plan_cache_hit_rate",
            ratio(d("exec.plan_cache.hit"), d("exec.plan_cache.miss")),
        ),
        ("exec.plan_cache_stale", d("exec.plan_cache.stale")),
        ("exec.vec_share", ratio(vec_runs, row_runs)),
        ("exec.rows_per_answer", rows),
        ("data.mutate_us", self_times.median_us("data.mutate")),
        (
            "data.index_patch_us",
            self_times.median_us("data.index_patch"),
        ),
        ("data.clone_us", self_times.median_us("data.clone")),
        ("data.index_build_ms", index_build_ms),
        ("data.columnar_build_ms", columnar_build_ms),
        (
            "data.delta_applied_per_write",
            per_write("data.index.delta_applied"),
        ),
        (
            "data.delta_fallback_rebuild_per_write",
            per_write("data.index.delta_fallback_rebuild"),
        ),
        (
            "data.position_index_miss_per_write",
            per_write("data.position_index.miss"),
        ),
        (
            "data.code_index_miss_per_write",
            per_write("data.code_index.miss"),
        ),
        (
            "data.columnar_miss_per_write",
            per_write("data.columnar.miss"),
        ),
        ("store.load_ms", load_ms),
        ("store.load_mb_per_s", rate(mb, load_ms)),
        ("store.save_ms", files.save_ms),
        ("store.save_mb_per_s", rate(mb, files.save_ms)),
        (
            "store.bytes_per_fact",
            files.cqdb_bytes as f64 / prepared.instance.db.fact_count().max(1) as f64,
        ),
        ("stream.repair_us", self_times.median_us("stream.repair")),
        ("stream.init_ms", write_replay.init_ms),
        (
            "stream.retouched_per_write",
            per_write("stream.view.candidates_retouched"),
        ),
        (
            "stream.full_recompute_rate",
            ratio(
                d("stream.view.full_recomputes"),
                d("stream.view.repairs") - d("stream.view.full_recomputes"),
            ),
        ),
        ("trace.overhead_ratio", overhead),
        ("trace.replayed_reads", reads.len() as f64),
        ("trace.replayed_writes", write_replay.replayed as f64),
        ("trace.probed_shapes", shapes.len() as f64),
        ("trace.spans", spans.len() as f64),
        ("live.read_p50_us", live_read_p50_us),
        ("live.effective_writes", live.effective_writes as f64),
        ("live.op_tail_ms", tails.op_tail_ms),
        ("live.side_tail_ms", tails.side_tail_ms),
        ("live.peak_rss_mb", live.peak_rss_mb),
    ]
    .into_iter()
    .collect();

    // A `\view` read is a map lookup and a clone: shorter than the clock
    // reads that would time its stages, so there is nothing to attribute.
    let resolvable = replay_read_p50_us >= MIN_RESOLVABLE_US;
    let mut gate_failures = read_replay.mismatches;
    if resolvable && read_coverage < MIN_COVERAGE {
        gate_failures.push(format!(
            "serve.read_stage_coverage is {read_coverage:.3}, below {MIN_COVERAGE}"
        ));
    }
    if write_replay.replayed > 0 && write_coverage < MIN_COVERAGE {
        gate_failures.push(format!(
            "serve.write_stage_coverage is {write_coverage:.3}, below {MIN_COVERAGE}"
        ));
    }
    let mut description = String::new();
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            // Indexing panics on a listed metric nobody computed: a harness
            // bug that must not read as a measured 0.
            let value = values[name];
            let _ = writeln!(description, "  {name:<40} {value:>14.4} {unit}");
            Metric { name, unit, value }
        })
        .collect();
    if resolvable && overhead >= MAX_OVERHEAD {
        let _ = writeln!(
            description,
            "  WARNING: trace.overhead_ratio {overhead:.3} is not below {MAX_OVERHEAD}"
        );
    }
    let _ = writeln!(description, "  spans written to {}", dump_path.display());
    for problem in &live.tally.problems {
        let _ = writeln!(description, "  FAILED: {problem}");
    }
    Ok(RunReport {
        metrics,
        attempted: live.tally.attempted + (2 * reads.len() + write_replay.replayed) as u64,
        failed: live.tally.failed,
        gate_failures,
        description,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{path3, POINT_TEMPLATES, VIEWS};
    use crate::rng::Rng;

    fn world(db: &UncertainDatabase) -> World {
        World {
            schema: db.schema().clone(),
            epochs: EpochManager::new(db.clone(), ParPool::new(1)),
        }
    }

    #[test]
    fn traced_reads_answer_like_the_reference_and_cover_their_stages() {
        let instance = path3(200, &mut Rng::new(1));
        let reference = crate::reference::Reference::new(&instance.db);
        let world = world(&instance.db);
        let mut rec = Recorder::new(true, 64);
        for (id, line) in [POINT_TEMPLATES[0].render(3), VIEWS[0].1.to_string()]
            .iter()
            .enumerate()
        {
            let response = answer_read(&mut rec, &world, line, id as u32).unwrap();
            assert_eq!(response, reference.answer(line).unwrap());
        }
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            &names[..5],
            [
                "request",
                "parser.parse",
                "serve.pin",
                "par.answer",
                "serve.render"
            ]
        );
        assert!(names.contains(&"core.possible") && names.contains(&"core.verdicts"));
        assert!(answer_read(&mut rec, &world, "\\epoch", 9).is_err());
    }

    #[test]
    fn the_staged_write_path_keeps_step_with_apply_write() {
        let instance = path3(200, &mut Rng::new(1));
        let world = world(&instance.db);
        let mut stream = crate::gen::WriteStream::new(&instance, Rng::new(5));
        let lines: Vec<String> = (0..30).map(|_| stream.next_line()).collect();
        let mut rec = Recorder::new(true, 1024);
        let replay = replay_writes_staged(
            &mut rec,
            &world,
            instance.db.clone(),
            &VIEWS,
            &lines[..5],
            &lines[5..],
            Duration::from_secs(60),
            0,
        )
        .unwrap();
        assert_eq!(replay.replayed, 25);
        // The staged views and the manager's published views agree.
        let staged = world.epochs.view("v3").unwrap();
        assert_eq!(staged.epoch, instance.db.epoch() + 30);
        let times = SelfTimes(self_times_by_name_us(rec.spans()));
        for stage in ["data.mutate", "data.clone", "stream.repair", "par.fork"] {
            assert_eq!(times.0[stage].len() % 25, 0, "{stage}");
        }
        assert_eq!(times.0["serve.apply_write"].len(), 25);
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract_limits() {
        let mut names = BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(names.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
    }
}
