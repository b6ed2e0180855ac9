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
//!                                            serve the line protocol on stdin/stdout
//!                                            (a TCP/HTTP server with --listen)
//! certainty stats <file.cqa>                 answer the document's queries, then dump all metrics
//! certainty save <file.cqa> <out.cqdb>       persist the database in the columnar store format
//! certainty ingest <file.csv> <out.cqdb> --relation=R [--key-prefix=K]
//!                                            ingest CSV rows as facts of one relation, then persist
//! ```
//!
//! A flag's value follows an `=`; unknown flags and extra arguments fail.
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
//! `serve` freezes the document's database as epoch zero and speaks the
//! line protocol of `cqa_serve::protocol` (queries, writes, views, `\stats`,
//! `\epoch`, `\quit`; one response line each): on stdin/stdout, answering
//! queries piped back to back in parallel but in input order, or with
//! `--listen=ADDR` to many TCP clients, plus HTTP `GET /metrics` and
//! `POST /query` on the same port.
//!
//! The input format is documented in the `cqa-parser` crate (and in
//! `README.md`).
//!
//! [`run`] executes one command line; the `certainty` binary is a thin
//! `main` over it that reports an error on stderr.

use cqa_core::answers::certain_answers;
use cqa_core::classify::{classify, frozen};
use cqa_core::fo::{certain_rewriting, certain_rewriting_open, sql::to_sql};
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_core::AttackGraph;
use cqa_exec::{FoPlan, QueryPlan};
use cqa_obs::TraceSink;
use cqa_parser::{dot, parse_document, Document};
use cqa_prob::eval::probability_over_repairs;
use std::error::Error;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> &'static str {
    "usage: certainty <classify|certain|answers|rewrite|explain|probability|repairs|attack-graph|serve|stats|save|ingest> <file> [out.cqdb] [--sql] [--dot] [--analyze] [--query=NAME] [--threads=N] [--listen=ADDR] [--max-inflight=N] [--deadline-ms=N] [--db=PATH] [--relation=NAME] [--key-prefix=K]"
}

fn load(path: &str) -> Result<Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// The command line: positional arguments and flags, stored without their
/// dashes (a bare switch such as `--sql` has the empty value).
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses the arguments after the program name. Only `save` and
    /// `ingest` take a third positional (the output path).
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        for arg in args {
            let Some(flag) = arg.strip_prefix("--") else {
                parsed.positional.push(arg);
                continue;
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (flag, None),
            };
            let valued = "query threads listen max-inflight deadline-ms db relation key-prefix";
            let valued = valued.split(' ').any(|flag| flag == name);
            match (value, valued) {
                (Some(value), true) => parsed.flags.push((name.into(), value.into())),
                (None, true) => return Err(format!("--{name} takes a value: --{name}=VALUE")),
                (None, false) if matches!(name, "sql" | "dot" | "analyze") => {
                    parsed.flags.push((name.into(), String::new()))
                }
                _ => return Err(format!("unknown flag `{arg}`\n{}", usage())),
            }
        }
        let first = parsed.positional.first().map(String::as_str);
        let most = 2 + usize::from(matches!(first, Some("save" | "ingest")));
        if !(2..=most).contains(&parsed.positional.len()) {
            return Err(usage().to_string());
        }
        Ok(parsed)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let mut given = self.flags.iter().rev();
        given.find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`"))
        };
        self.value(name).map(parse).transpose()
    }

    fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }
}

/// Runs one `certainty` command line (the arguments after the program
/// name), writing its output to `out`.
pub fn run(
    args: impl IntoIterator<Item = String>,
    out: &mut impl Write,
) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(args)?;
    let (command, path) = (args.positional[0].as_str(), args.positional[1].as_str());
    let dest = args.positional.get(2).map(String::as_str);
    if command == "ingest" {
        let dest = dest
            .ok_or("ingest needs an output path: certainty ingest <file.csv> <out.cqdb> --relation=NAME [--key-prefix=K]")?;
        let relation = args
            .value("relation")
            .ok_or("ingest needs --relation=NAME")?;
        let key_prefix = args.number("key-prefix")?.unwrap_or(1);
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let db = cqa_parser::csv::database_from_csv(&text, relation, key_prefix)
            .map_err(|e| format!("{path}: {e}"))?;
        let summary = cqa_data::store::save(&db, dest).map_err(|e| format!("{dest}: {e}"))?;
        let rel = db.schema().require(relation).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "ingested {} facts in {} blocks into {relation}({} columns, key prefix {key_prefix})",
            db.fact_count(),
            db.block_count(),
            db.schema().relation(rel).arity(),
        )?;
        writeln!(out, "saved {dest}: {summary}")?;
        return Ok(());
    }
    let mut doc = load(path)?;
    if let Some(db_path) = args.value("db") {
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
            )
            .into());
        }
        doc.database = loaded;
    }
    if doc.queries.is_empty() && !matches!(command, "repairs" | "serve" | "save") {
        return Err("the document declares no `certain ... :- ...` query".into());
    }
    let selected: Vec<&(String, cqa_query::ConjunctiveQuery)> = doc
        .queries
        .iter()
        .filter(|(name, _)| args.value("query").is_none_or(|f| f == name))
        .collect();

    match command {
        "save" => {
            let dest =
                dest.ok_or("save needs an output path: certainty save <file.cqa> <out.cqdb>")?;
            let summary =
                cqa_data::store::save(&doc.database, dest).map_err(|e| format!("{dest}: {e}"))?;
            writeln!(out, "saved {dest}: {summary}")?;
        }
        "classify" => {
            for (name, query) in &selected {
                let c = classify(query).map_err(|e| e.to_string())?;
                writeln!(out, "{name}: {}", c.class)?;
            }
        }
        "certain" => {
            for (name, query) in &selected {
                if query.is_boolean() {
                    let engine = CertaintyEngine::new(query).map_err(|e| e.to_string())?;
                    let verdict = engine.is_certain(&doc.database);
                    writeln!(
                        out,
                        "{name}: {} (solver: {})",
                        if verdict { "certain" } else { "not certain" },
                        engine.solver_name()
                    )?;
                } else {
                    writeln!(out, "{name}: query has free variables, use `answers`")?;
                }
            }
        }
        "answers" => {
            for (name, query) in &selected {
                let sets = certain_answers(query, &doc.database).map_err(|e| e.to_string())?;
                let (certain, possible) = (sets.certain.len(), sets.possible.len());
                writeln!(out, "{name}: {certain} certain / {possible} possible")?;
                for tuple in &sets.certain {
                    let rendered: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                    writeln!(out, "  certain: ({})", rendered.join(", "))?;
                }
            }
        }
        "rewrite" => {
            for (name, query) in &selected {
                match certain_rewriting_open(query) {
                    Ok(formula) => {
                        writeln!(out, "{name}: {}", formula.display(query.schema()))?;
                        if args.switch("sql") {
                            match to_sql(&formula, query.schema()) {
                                Ok(sql) => writeln!(out, "{sql}")?,
                                Err(e) => writeln!(out, "{name}: no SQL translation ({e})")?,
                            }
                        }
                    }
                    Err(e) => writeln!(out, "{name}: no certain first-order rewriting ({e})")?,
                }
            }
        }
        "explain" => {
            let analyze = args.switch("analyze");
            let index = doc.database.index();
            let stats = index.statistics();
            let (facts, blocks) = (doc.database.fact_count(), doc.database.block_count());
            for (name, query) in &selected {
                writeln!(
                    out,
                    "{name}: physical plan over {facts} facts / {blocks} blocks"
                )?;
                let plan = QueryPlan::compile(query, Some(stats));
                if analyze {
                    let sink = Arc::new(TraceSink::new(plan.trace_ops()));
                    let answers = plan.prepare(&index).with_trace(sink.clone()).answers();
                    write!(out, "{}", plan.explain_analyze(&sink))?;
                    writeln!(out, "  ({} answer(s) on the database)", answers.len())?;
                } else {
                    write!(out, "{}", plan.explain())?;
                }
                if query.is_boolean() {
                    match certain_rewriting(query) {
                        Ok(formula) => {
                            let fo = FoPlan::compile(&formula, query.schema(), Some(stats))
                                .expect("a Theorem 1 rewriting is guarded");
                            writeln!(out, "{name}: certain rewriting plan (Theorem 1)")?;
                            if analyze {
                                let sink = Arc::new(TraceSink::new(fo.trace_ops()));
                                let verdict = fo.prepare(&index).with_trace(sink.clone()).eval();
                                write!(out, "{}", fo.explain_analyze(&sink))?;
                                writeln!(
                                    out,
                                    "  (verdict: {})",
                                    if verdict { "certain" } else { "not certain" }
                                )?;
                            } else {
                                write!(out, "{}", fo.explain())?;
                            }
                        }
                        Err(e) => writeln!(out, "{name}: no certain first-order rewriting ({e})")?,
                    }
                } else {
                    match certain_rewriting_open(query) {
                        Ok(formula) => {
                            let fo = FoPlan::compile(&formula, query.schema(), Some(stats))
                                .expect("a Theorem 1 rewriting is guarded");
                            writeln!(
                                out,
                                "{name}: open certain rewriting plan (Theorem 1; candidate \
                                 answers decided in batch)"
                            )?;
                            if analyze {
                                let candidates: Vec<Vec<cqa_data::Value>> =
                                    plan.prepare(&index).answers().into_iter().collect();
                                let sink = Arc::new(TraceSink::new(fo.trace_ops()));
                                let verdicts = fo
                                    .prepare(&index)
                                    .with_trace(sink.clone())
                                    .eval_tuples(query.free_vars(), &candidates);
                                write!(out, "{}", fo.explain_analyze(&sink))?;
                                let certain = verdicts.iter().filter(|&&v| v).count();
                                let all = candidates.len();
                                writeln!(out, "  ({certain} of {all} candidate(s) certain)")?;
                            } else {
                                write!(out, "{}", fo.explain())?;
                            }
                        }
                        Err(e) => writeln!(
                            out,
                            "{name}: no certain first-order rewriting ({e}); candidate answers \
                             decided per tuple by the classified solvers"
                        )?,
                    }
                }
            }
        }
        "probability" => {
            for (name, query) in &selected {
                let p = probability_over_repairs(&doc.database, query);
                writeln!(
                    out,
                    "{name}: Pr(q) = {p:.6} under the uniform-repair distribution"
                )?;
            }
        }
        "repairs" => match doc.database.repair_count() {
            Some(c) if c <= 64 => {
                writeln!(out, "{c} repairs:")?;
                for (i, repair) in doc.database.repairs().enumerate() {
                    writeln!(out, "--- repair {} ---", i + 1)?;
                    write!(out, "{repair}")?;
                }
            }
            Some(c) => writeln!(out, "{c} repairs (too many to list)")?,
            None => {
                let log2 = doc.database.repair_count_log2();
                writeln!(out, "more than 2^128 repairs (log2 ≈ {log2:.1})")?
            }
        },
        "serve" => {
            let defaults = cqa_serve::ServerConfig::default();
            let config = cqa_serve::ServerConfig {
                threads: args.number("threads")?,
                max_inflight: args
                    .number("max-inflight")?
                    .unwrap_or(defaults.max_inflight),
                deadline: args.number("deadline-ms")?.map(Duration::from_millis),
                ..defaults
            };
            let db = doc.database.clone();
            let Some(addr) = args.value("listen") else {
                cqa_serve::serve_stream(db, config, io::stdin().lock(), out)?;
                return Ok(());
            };
            let server = cqa_serve::Server::bind(db, addr, config)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            eprintln!(
                "serving on {} ({} worker threads); line protocol per connection, \
                 HTTP GET /metrics + POST /query on the same port",
                server.local_addr()?,
                server.pool().thread_count()
            );
            server.run()?;
        }
        "stats" => {
            for (name, query) in &selected {
                if query.is_boolean() {
                    let engine = CertaintyEngine::new(query).map_err(|e| e.to_string())?;
                    writeln!(
                        out,
                        "{name}: certain={} possible={} (solver: {})",
                        engine.is_certain(&doc.database),
                        engine.is_possible(&doc.database),
                        engine.solver_name()
                    )?;
                } else {
                    let sets = certain_answers(query, &doc.database).map_err(|e| e.to_string())?;
                    let (certain, possible) = (sets.certain.len(), sets.possible.len());
                    writeln!(out, "{name}: {certain} certain / {possible} possible")?;
                }
            }
            writeln!(out)?;
            let (facts, epoch) = (doc.database.fact_count(), doc.database.epoch());
            writeln!(out, "database: {facts} facts, epoch {epoch}")?;
            let answered = selected.len();
            writeln!(out, "metrics after answering {answered} query(ies):")?;
            write!(out, "{}", cqa_obs::Registry::global().snapshot().render())?;
        }
        "attack-graph" => {
            for (name, query) in &selected {
                let graph = AttackGraph::build(&frozen(query)).map_err(|e| e.to_string())?;
                if args.switch("dot") {
                    writeln!(out, "{}", dot::attack_graph_to_dot(&graph))?;
                } else {
                    writeln!(out, "attack graph of {name}:")?;
                    write!(out, "{}", graph.render())?;
                }
            }
        }
        _ => return Err(usage().into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_are_known_names_with_their_values_after_an_equals_sign() {
        let args = parse("serve doc.cqa --listen=127.0.0.1:7878 --threads=4").unwrap();
        assert_eq!(args.value("listen"), Some("127.0.0.1:7878"));
        assert_eq!(args.number::<usize>("threads"), Ok(Some(4)));
        assert!(parse("rewrite doc.cqa --sql").unwrap().switch("sql"));
        assert!(parse("save doc.cqa out.cqdb").is_ok());
        // A space instead of `=` must not quietly turn a TCP server into a
        // stdin one with a stray third argument.
        let err = parse("serve doc.cqa --listen 127.0.0.1:7878").unwrap_err();
        assert_eq!(err, "--listen takes a value: --listen=VALUE");
        let err = parse("certain doc.cqa --qeury=rome").unwrap_err();
        assert!(err.starts_with("unknown flag `--qeury=rome`"), "{err}");
        for bad in ["x d --sql=yes", "x d --frob", "certain doc.cqa stray", "x"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let threads = parse("serve doc.cqa --threads=x")
            .unwrap()
            .number::<usize>("threads");
        assert_eq!(threads, Err("--threads expects a number, got `x`".into()));
    }
}
