//! `certainty serve`'s pipeline, end to end, in process.
//!
//! Generates a few thousand uncertain conference facts and pipes a script
//! of protocol lines through `cqa_serve::serve_stream` — the connection
//! handler `certainty serve` runs on stdin/stdout. The handler submits the
//! buffered queries to its work-stealing pool together, each one job over
//! the same frozen epoch, and writes the responses in request order; then
//! every response line is asserted equal to the sequential engine's answer,
//! rendered the same way.
//!
//! Run with `cargo run --release --example parallel_answers`.

use cqa::core::answers::certain_answers;
use cqa::core::solvers::{CertaintyEngine, CertaintySolver};
use cqa::gen::{GeneratorConfig, UncertainDbGenerator};
use cqa::par::{BatchOutcome, BatchResult};
use cqa::parser::parse_query_line;
use cqa::query::catalog;
use cqa::serve::{render_result, serve_stream, ServerConfig};

fn main() {
    // The Figure 1 conference query, scaled up: ~600 match groups with
    // planted key violations.
    let boolean = catalog::conference().query;
    let mut db = UncertainDbGenerator::new(
        &boolean,
        GeneratorConfig {
            seed: 7,
            matches: 600,
            domain_per_variable: 300,
            extra_block_facts: 1,
            alternative_join_probability: 0.9,
        },
    )
    .generate();
    // The generator's planted key violations make every generated answer
    // merely possible; a few hand-planted *consistent* conferences are
    // certainly in Rome with rank A — the certain answers to find below.
    for i in 0..3 {
        db.insert_values("C", [format!("sure{i}"), "2026".into(), "Rome".into()])
            .expect("fresh facts insert");
        db.insert_values("R", [format!("sure{i}"), "A".into()])
            .expect("fresh facts insert");
    }
    println!(
        "generated {} facts in {} blocks",
        db.fact_count(),
        db.block_count()
    );

    // One worker per hardware thread; the three lines are in flight at once.
    let script = [
        r#"rome :- C(x, y, "Rome"), R(x, "A")"#,
        r#"which(x) :- C(x, y, "Rome"), R(x, "A")"#,
        r#"rome-again :- C(x, y, "Rome"), R(x, "A")"#, // hits the engine memo
    ];
    let mut output = Vec::new();
    serve_stream(
        db.clone(),
        ServerConfig::default(),
        (script.join("\n") + "\n").as_bytes(),
        &mut output,
    )
    .expect("an in-memory stream cannot fail");
    let responses = String::from_utf8(output).expect("responses are UTF-8");
    print!("{responses}");

    // The contract: in request order, and identical to the sequential path.
    let expected: Vec<String> = (script.iter().enumerate())
        .map(|(i, line)| {
            let (name, query) = parse_query_line(db.schema(), line, i + 1).expect("valid query");
            let outcome = if query.is_boolean() {
                let engine = CertaintyEngine::new(&query).expect("Theorem 1 query");
                BatchOutcome::Boolean {
                    certain: engine.is_certain(&db),
                    possible: engine.is_possible(&db),
                    solver: engine.solver_name(),
                }
            } else {
                BatchOutcome::Answers(certain_answers(&query, &db).expect("answerable query"))
            };
            render_result(&BatchResult { name, outcome })
        })
        .collect();
    assert_eq!(responses.lines().collect::<Vec<_>>(), expected);
    println!("stream == sequential: ok");
}
