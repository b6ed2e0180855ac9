//! `certainty` — a command-line tool for certain query answering over
//! uncertain databases.
//!
//! ```text
//! certainty classify <file.cqa>              classify every query in the document
//! certainty certain <file.cqa> [--query=N]   decide CERTAINTY for the document's queries
//! certainty answers <file.cqa>               certain + possible answers (non-Boolean queries)
//! certainty rewrite <file.cqa> [--sql]       print the certain FO rewriting (and SQL)
//! certainty explain <file.cqa> [--analyze]   print the compiled physical plans (query + rewriting)
//! certainty probability <file.cqa>           Pr(q) under the uniform-repair distribution
//! certainty repairs <file.cqa>               list/count repairs of the database
//! certainty attack-graph <file.cqa> [--dot]  print the attack graph (optionally as DOT)
//! certainty serve <file.cqa> [--threads=N] [--listen=ADDR] [--max-inflight=N] [--deadline-ms=N]
//!                                            answer newline-delimited queries concurrently
//!                                            (stdin by default; a TCP/HTTP server with --listen)
//! certainty stats <file.cqa>                 answer the document's queries, then dump all metrics
//! certainty save <file.cqa> <out.cqdb>       persist the database in the columnar store format
//! certainty ingest <file.csv> <out.cqdb> --relation=R [--key-prefix=K]
//!                                            ingest CSV rows as facts of one relation, then persist
//! ```
//!
//! Every document command also accepts `--db=<path.cqdb>`: the facts come
//! from a previously saved columnar store (see `certainty save` /
//! `certainty ingest`) instead of the document's fact lines, while the
//! document still provides the relation declarations (which must match the
//! store's manifest) and the queries.
//!
//! `explain --analyze` additionally **runs** each plan with a per-operator
//! trace sink installed and prints the actual row/probe/wave counts next to
//! the cost-model estimates.
//!
//! `serve` freezes the document's database into a snapshot, reads one query
//! per line from stdin (`name[(vars)] :- atoms`, or a bare atom list), and
//! answers the stream concurrently on a work-stealing pool
//! (`cqa_par::BatchEngine`) in chunks — results print in input order
//! regardless of which worker finished first. A `\stats` input line reports
//! qps, latency percentiles and cache hit rates mid-stream (also printed to
//! stderr after every flushed chunk).
//!
//! With `--listen=ADDR` (e.g. `--listen=127.0.0.1:7878`), `serve` instead
//! starts the concurrent network server of the `cqa-serve` crate: many
//! clients at once, writes (`\insert` / `\remove` / `\remove-block`) that
//! publish MVCC-style epoch snapshots without blocking in-flight readers,
//! admission control (`--max-inflight=N`), per-query deadlines
//! (`--deadline-ms=N`), and HTTP `GET /metrics` + `POST /query` on the same
//! port. The line protocol is documented in `cqa_serve::protocol`.
//!
//! The input format is documented in the `cqa-parser` crate (and in
//! `README.md`).

use cqa_core::answers::certain_answers;
use cqa_core::classify::classify;
use cqa_core::fo::{certain_rewriting, certain_rewriting_open, sql::to_sql};
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_core::AttackGraph;
use cqa_exec::{FoPlan, QueryPlan};
use cqa_obs::TraceSink;
use cqa_par::{BatchEngine, BatchOutcome, ParPool};
use cqa_parser::{dot, parse_document, parse_query_line, Document};
use cqa_prob::eval::probability_over_repairs;
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> &'static str {
    "usage: certainty <classify|certain|answers|rewrite|explain|probability|repairs|attack-graph|serve|stats|save|ingest> <file> [out.cqdb] [--sql] [--dot] [--analyze] [--query=NAME] [--threads=N] [--listen=ADDR] [--max-inflight=N] [--deadline-ms=N] [--db=PATH] [--relation=NAME] [--key-prefix=K]"
}

fn load(path: &str) -> Result<Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// Pending `serve` queries are flushed as one concurrent batch once this
/// many have accumulated (and at end of stream / on `\stats`), so long
/// streams get results and stats lines while still being read.
const SERVE_CHUNK: usize = 512;

/// Answers the pending entries as one batch and prints the results in
/// input order, interleaving parse errors where their lines were.
fn flush_serve(
    engine: &BatchEngine,
    entries: &mut Vec<(String, Result<cqa_query::ConjunctiveQuery, String>)>,
    served: &mut usize,
) {
    if entries.is_empty() {
        return;
    }
    let batch: Vec<(String, cqa_query::ConjunctiveQuery)> = entries
        .iter()
        .filter_map(|(name, parsed)| parsed.as_ref().ok().map(|q| (name.clone(), q.clone())))
        .collect();
    *served += batch.len();
    let mut results = engine.run(batch).into_iter();
    for (name, parsed) in entries.drain(..) {
        if let Err(e) = parsed {
            println!("{name}: error: {e}");
            continue;
        }
        let result = results.next().expect("one result per parsed query");
        match result.outcome {
            BatchOutcome::Boolean {
                certain,
                possible,
                solver,
            } => println!(
                "{}: {} (possible: {possible}, solver: {solver})",
                result.name,
                if certain { "certain" } else { "not certain" },
            ),
            BatchOutcome::Answers(sets) => {
                println!(
                    "{}: {} certain / {} possible",
                    result.name,
                    sets.certain.len(),
                    sets.possible.len()
                );
                for tuple in &sets.certain {
                    let rendered: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                    println!("  certain: ({})", rendered.join(", "));
                }
            }
            BatchOutcome::Error(e) => println!("{}: error: {e}", result.name),
        }
    }
}

/// One serving-stats line, shared with the network server's `\stats`
/// command (`inflight` is always 0 here: the stdin loop has no admission
/// control).
fn serve_stats_line(engine: &BatchEngine, served: usize, started: Instant) -> String {
    cqa_serve::stats_line(engine, served, started, 0, 0, 0)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    let mut query_filter: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut max_inflight: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut db_path: Option<String> = None;
    let mut relation: Option<String> = None;
    let mut key_prefix: usize = 1;
    let mut flag_names: Vec<String> = Vec::new();
    for flag in flags {
        match flag.split_once('=') {
            Some(("--query", value)) => query_filter = Some(value.to_string()),
            Some(("--threads", value)) => {
                threads = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--threads expects a number, got `{value}`"))?,
                )
            }
            Some(("--listen", value)) => listen = Some(value.to_string()),
            Some(("--max-inflight", value)) => {
                max_inflight = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--max-inflight expects a number, got `{value}`"))?,
                )
            }
            Some(("--deadline-ms", value)) => {
                deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--deadline-ms expects a number, got `{value}`"))?,
                )
            }
            Some(("--db", value)) => db_path = Some(value.to_string()),
            Some(("--relation", value)) => relation = Some(value.to_string()),
            Some(("--key-prefix", value)) => {
                key_prefix = value
                    .parse()
                    .map_err(|_| format!("--key-prefix expects a number, got `{value}`"))?
            }
            Some((name, _)) => flag_names.push(name.to_string()),
            None => flag_names.push(flag.clone()),
        }
    }
    let (command, path, out) = match positional.as_slice() {
        [command, path] => (command.as_str(), path.as_str(), None),
        [command, path, out] => (command.as_str(), path.as_str(), Some(out.as_str())),
        _ => return Err(usage().to_string()),
    };
    if command == "ingest" {
        let out = out
            .ok_or("ingest needs an output path: certainty ingest <file.csv> <out.cqdb> --relation=NAME [--key-prefix=K]")?;
        let relation = relation.ok_or("ingest needs --relation=NAME")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let db = cqa_parser::csv::database_from_csv(&text, &relation, key_prefix)
            .map_err(|e| format!("{path}: {e}"))?;
        let summary = cqa_data::store::save(&db, out).map_err(|e| format!("{out}: {e}"))?;
        let rel = db.schema().require(&relation).map_err(|e| e.to_string())?;
        println!(
            "ingested {} facts in {} blocks into {relation}({} columns, key prefix {key_prefix})",
            db.fact_count(),
            db.block_count(),
            db.schema().relation(rel).arity(),
        );
        println!("saved {out}: {summary}");
        return Ok(());
    }
    let mut doc = load(path)?;
    if let Some(db_path) = &db_path {
        let loaded = cqa_data::store::load(db_path).map_err(|e| format!("{db_path}: {e}"))?;
        let compatible = doc.schema.len() == loaded.schema().len()
            && doc
                .schema
                .iter()
                .zip(loaded.schema().iter())
                .all(|((_, a), (_, b))| a.name == b.name && a.signature == b.signature);
        if !compatible {
            return Err(format!(
                "--db {db_path}: the stored schema manifest does not match the document's \
                 relation declarations"
            ));
        }
        doc.database = loaded;
    }
    let doc = doc;
    if doc.queries.is_empty() && !matches!(command, "repairs" | "serve" | "save") {
        return Err("the document declares no `certain ... :- ...` query".to_string());
    }
    let selected: Vec<&(String, cqa_query::ConjunctiveQuery)> = doc
        .queries
        .iter()
        .filter(|(name, _)| query_filter.as_deref().is_none_or(|f| f == name))
        .collect();
    let has_flag = |name: &str| flag_names.iter().any(|f| f == name);

    match command {
        "save" => {
            let out =
                out.ok_or("save needs an output path: certainty save <file.cqa> <out.cqdb>")?;
            let summary =
                cqa_data::store::save(&doc.database, out).map_err(|e| format!("{out}: {e}"))?;
            println!("saved {out}: {summary}");
        }
        "classify" => {
            for (name, query) in &selected {
                let c = classify(query).map_err(|e| e.to_string())?;
                println!("{name}: {}", c.class);
            }
        }
        "certain" => {
            for (name, query) in &selected {
                if query.is_boolean() {
                    let engine = CertaintyEngine::new(query).map_err(|e| e.to_string())?;
                    let verdict = engine.is_certain(&doc.database);
                    println!(
                        "{name}: {} (solver: {})",
                        if verdict { "certain" } else { "not certain" },
                        engine.solver_name()
                    );
                } else {
                    println!("{name}: query has free variables, use `answers`");
                }
            }
        }
        "answers" => {
            for (name, query) in &selected {
                let sets = certain_answers(query, &doc.database).map_err(|e| e.to_string())?;
                println!(
                    "{name}: {} certain / {} possible",
                    sets.certain.len(),
                    sets.possible.len()
                );
                for tuple in &sets.certain {
                    let rendered: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                    println!("  certain: ({})", rendered.join(", "));
                }
            }
        }
        "rewrite" => {
            for (name, query) in &selected {
                match certain_rewriting(query) {
                    Ok(formula) => {
                        println!("{name}: {}", formula.display(query.schema()));
                        if has_flag("--sql") {
                            println!(
                                "{}",
                                to_sql(&formula, query.schema()).map_err(|e| e.to_string())?
                            );
                        }
                    }
                    Err(e) => println!("{name}: no certain first-order rewriting ({e})"),
                }
            }
        }
        "explain" => {
            let analyze = has_flag("--analyze");
            let index = doc.database.index();
            let stats = index.statistics();
            for (name, query) in &selected {
                println!(
                    "{name}: physical plan over {} facts / {} blocks",
                    doc.database.fact_count(),
                    doc.database.block_count()
                );
                let plan = QueryPlan::compile(query, Some(stats));
                if analyze {
                    let sink = Arc::new(TraceSink::new(plan.trace_ops()));
                    let answers = plan.prepare(&index).with_trace(sink.clone()).answers();
                    print!("{}", plan.explain_analyze(&sink));
                    println!("  ({} answer(s) on the database)", answers.len());
                } else {
                    print!("{}", plan.explain());
                }
                if query.is_boolean() {
                    match certain_rewriting(query) {
                        Ok(formula) => {
                            let fo = FoPlan::compile(&formula, query.schema(), Some(stats));
                            println!("{name}: certain rewriting plan (Theorem 1)");
                            if analyze {
                                let sink = Arc::new(TraceSink::new(fo.trace_ops()));
                                let verdict = fo.prepare(&index).with_trace(sink.clone()).eval();
                                print!("{}", fo.explain_analyze(&sink));
                                println!(
                                    "  (verdict: {})",
                                    if verdict { "certain" } else { "not certain" }
                                );
                            } else {
                                print!("{}", fo.explain());
                            }
                        }
                        Err(e) => println!("{name}: no certain first-order rewriting ({e})"),
                    }
                } else {
                    match certain_rewriting_open(query) {
                        Ok(formula) => {
                            let fo = FoPlan::compile(&formula, query.schema(), Some(stats));
                            println!(
                                "{name}: open certain rewriting plan (Theorem 1; candidate \
                                 answers decided in batch)"
                            );
                            if analyze {
                                let candidates: Vec<Vec<cqa_data::Value>> =
                                    plan.prepare(&index).answers().into_iter().collect();
                                let sink = Arc::new(TraceSink::new(fo.trace_ops()));
                                let verdicts = fo
                                    .prepare(&index)
                                    .with_trace(sink.clone())
                                    .eval_tuples(query.free_vars(), &candidates);
                                print!("{}", fo.explain_analyze(&sink));
                                println!(
                                    "  ({} of {} candidate(s) certain)",
                                    verdicts.iter().filter(|&&v| v).count(),
                                    candidates.len()
                                );
                            } else {
                                print!("{}", fo.explain());
                            }
                        }
                        Err(e) => println!(
                            "{name}: no certain first-order rewriting ({e}); candidate answers \
                             decided per tuple by the classified solvers"
                        ),
                    }
                }
            }
        }
        "probability" => {
            for (name, query) in &selected {
                let p = probability_over_repairs(&doc.database, query);
                println!("{name}: Pr(q) = {p:.6} under the uniform-repair distribution");
            }
        }
        "repairs" => match doc.database.repair_count() {
            Some(c) if c <= 64 => {
                println!("{c} repairs:");
                for (i, repair) in doc.database.repairs().enumerate() {
                    println!("--- repair {} ---", i + 1);
                    print!("{repair}");
                }
            }
            Some(c) => println!("{c} repairs (too many to list)"),
            None => println!(
                "more than 2^128 repairs (log2 ≈ {:.1})",
                doc.database.repair_count_log2()
            ),
        },
        "serve" if listen.is_some() => {
            let addr = listen.expect("guarded by the match arm");
            let config = cqa_serve::ServerConfig {
                threads,
                max_inflight: max_inflight.unwrap_or(64),
                deadline: deadline_ms.map(std::time::Duration::from_millis),
                ..cqa_serve::ServerConfig::default()
            };
            let server = cqa_serve::Server::bind(doc.database.clone(), &addr, config)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = server.local_addr().map_err(|e| e.to_string())?;
            eprintln!(
                "serving on {local} ({} worker threads); line protocol per connection, \
                 HTTP GET /metrics + POST /query on the same port",
                server.pool().thread_count()
            );
            server.run().map_err(|e| e.to_string())?;
        }
        "serve" => {
            let pool = match threads {
                Some(n) => ParPool::new(n),
                None => ParPool::with_available_parallelism(),
            };
            let thread_count = pool.thread_count();
            let engine = BatchEngine::new(doc.database.snapshot(), pool);
            let started = Instant::now();
            let mut served = 0usize;
            // Read the newline-delimited stream in chunks, answering each
            // chunk as one concurrent batch; parse failures keep their
            // place in the output without stopping the stream. A `\stats`
            // line flushes the pending chunk and reports serving metrics.
            let mut entries: Vec<(String, Result<cqa_query::ConjunctiveQuery, String>)> =
                Vec::new();
            for (i, line) in std::io::stdin().lock().lines().enumerate() {
                let line = line.map_err(|e| format!("stdin: {e}"))?;
                let text = line.split('#').next().unwrap_or("").trim();
                if text == "\\stats" {
                    flush_serve(&engine, &mut entries, &mut served);
                    println!("{}", serve_stats_line(&engine, served, started));
                    continue;
                }
                let text = text.strip_prefix("certain ").unwrap_or(text).trim();
                if text.is_empty() {
                    continue;
                }
                match parse_query_line(&doc.schema, text, i + 1) {
                    Ok((name, query)) => entries.push((name, Ok(query))),
                    Err(e) => entries.push((format!("q{}", i + 1), Err(e.to_string()))),
                }
                if entries.len() >= SERVE_CHUNK {
                    flush_serve(&engine, &mut entries, &mut served);
                    eprintln!("{}", serve_stats_line(&engine, served, started));
                }
            }
            flush_serve(&engine, &mut entries, &mut served);
            eprintln!("served {served} queries on {thread_count} threads");
            eprintln!("{}", serve_stats_line(&engine, served, started));
        }
        "stats" => {
            for (name, query) in &selected {
                if query.is_boolean() {
                    let engine = CertaintyEngine::new(query).map_err(|e| e.to_string())?;
                    println!(
                        "{name}: certain={} possible={} (solver: {})",
                        engine.is_certain(&doc.database),
                        engine.is_possible(&doc.database),
                        engine.solver_name()
                    );
                } else {
                    let sets = certain_answers(query, &doc.database).map_err(|e| e.to_string())?;
                    println!(
                        "{name}: {} certain / {} possible",
                        sets.certain.len(),
                        sets.possible.len()
                    );
                }
            }
            println!();
            println!(
                "database: {} facts, epoch {}",
                doc.database.fact_count(),
                doc.database.epoch(),
            );
            println!("metrics after answering {} query(ies):", selected.len());
            print!("{}", cqa_obs::Registry::global().snapshot().render());
        }
        "attack-graph" => {
            for (name, query) in &selected {
                let graph = AttackGraph::build(query).map_err(|e| e.to_string())?;
                if has_flag("--dot") {
                    println!("{}", dot::attack_graph_to_dot(&graph));
                } else {
                    println!("attack graph of {name}:");
                    print!("{}", graph.render());
                }
            }
        }
        _ => return Err(usage().to_string()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
