//! Cross-crate integration tests: the full pipeline from text input through
//! classification, solving, rewriting, reductions and probabilities, checked
//! against the brute-force oracle on every step.

use cqa::core::answers::certain_answers;
use cqa::core::classify::{classify, ComplexityClass, PtimeReason};
use cqa::core::fo::{certain_rewriting, eval::evaluate_sentence, sql::to_sql};
use cqa::core::reductions::Theorem2Reduction;
use cqa::core::solvers::{CertaintyEngine, CertaintySolver, ExactOracle};
use cqa::gen::{figure6_database, q0_instance, GeneratorConfig, UncertainDbGenerator};
use cqa::parser::{dot, parse_document};
use cqa::prob::bridge::{probability_is_one, theorem6_holds};
use cqa::prob::counting::count_satisfying_repairs;
use cqa::prob::eval::{probability_exact, probability_over_repairs};
use cqa::prob::BidDatabase;
use cqa::query::catalog;

/// The Figure 1 document, in the text format, end to end through the parser.
const FIGURE1: &str = r#"
relation C(conf*, year*, city)
relation R(conf*, rank)
C(PODS, 2016, Rome)
C(PODS, 2016, Paris)
C(KDD, 2017, Rome)
R(PODS, A)
R(KDD, A)
R(KDD, B)
certain rome :- C(x, y, "Rome"), R(x, "A")
certain which(x) :- C(x, y, "Rome"), R(x, "A")
"#;

#[test]
fn figure1_pipeline_from_text_to_answers() {
    let doc = parse_document(FIGURE1).unwrap();
    assert_eq!(doc.database.repair_count(), Some(4));
    let (_, rome) = &doc.queries[0];

    // Classification, certainty, counting, probability — all consistent.
    let classification = classify(rome).unwrap();
    assert_eq!(classification.class, ComplexityClass::FirstOrderExpressible);
    let engine = CertaintyEngine::new(rome).unwrap();
    assert!(!engine.is_certain(&doc.database));
    let count = count_satisfying_repairs(&doc.database, rome);
    assert_eq!((count.satisfying, count.total), (3, 4));
    assert!((probability_over_repairs(&doc.database, rome) - 0.75).abs() < 1e-12);

    // The certain FO rewriting and its SQL translation exist and agree.
    let formula = certain_rewriting(rome).unwrap();
    assert!(!evaluate_sentence(&formula, &doc.database));
    let sql = to_sql(&formula, rome.schema()).unwrap();
    assert!(sql.contains("NOT EXISTS"));

    // The non-Boolean variant has two possible answers and no certain one.
    let (_, which) = &doc.queries[1];
    let answers = certain_answers(which, &doc.database).unwrap();
    assert_eq!(answers.possible.len(), 2);
    assert!(answers.certain.is_empty());

    // DOT export mentions every atom of the query.
    let graph = cqa::core::AttackGraph::build(rome).unwrap();
    let rendered = dot::attack_graph_to_dot(&graph);
    assert!(rendered.contains("C(") && rendered.contains("R("));
}

/// The dispatching engine must agree with the exact oracle on every catalog
/// query, over generated instances small enough for brute force.
#[test]
fn engine_agrees_with_brute_force_on_the_catalog() {
    for entry in catalog::all() {
        let query = &entry.query;
        let engine = CertaintyEngine::new(query).unwrap();
        let oracle = ExactOracle::new(query).unwrap();
        for seed in 0..6u64 {
            let db = UncertainDbGenerator::new(
                query,
                GeneratorConfig {
                    seed,
                    matches: 3,
                    domain_per_variable: 3,
                    extra_block_facts: 1,
                    alternative_join_probability: 0.6,
                },
            )
            .generate();
            if db.repair_count_log2() > 16.0 {
                continue; // keep brute force feasible
            }
            assert_eq!(
                engine.is_certain(&db),
                oracle.is_certain_bruteforce(&db),
                "query {} seed {seed}\n{db}",
                entry.name
            );
        }
    }
}

/// Classification of the whole catalog matches the paper (the frontier chart).
#[test]
fn catalog_classification_matches_the_paper() {
    use ComplexityClass::*;
    let expectations: Vec<(&str, ComplexityClass)> = vec![
        ("conference", FirstOrderExpressible),
        ("path2", FirstOrderExpressible),
        ("path3", FirstOrderExpressible),
        ("q1", CoNpComplete),
        ("q0", CoNpComplete),
        ("fig4", PolynomialTime(PtimeReason::WeakTerminalCycles)),
        ("C(2)", PolynomialTime(PtimeReason::WeakTerminalCycles)),
        ("AC(2)", PolynomialTime(PtimeReason::CycleQueryAc { k: 2 })),
        ("AC(3)", PolynomialTime(PtimeReason::CycleQueryAc { k: 3 })),
        ("AC(4)", PolynomialTime(PtimeReason::CycleQueryAc { k: 4 })),
        ("C(3)", PolynomialTime(PtimeReason::CycleQueryC { k: 3 })),
        ("C(4)", PolynomialTime(PtimeReason::CycleQueryC { k: 4 })),
    ];
    for (name, expected) in expectations {
        let entry = catalog::all().into_iter().find(|e| e.name == name).unwrap();
        assert_eq!(classify(&entry.query).unwrap().class, expected, "{name}");
    }
}

/// Figure 6 / Figure 7: the worked AC(3) instance, decided three ways.
#[test]
fn figure6_decided_three_ways() {
    let ac3 = catalog::ac_k(3).query;
    let db = figure6_database();
    let engine = CertaintyEngine::new(&ac3).unwrap();
    let oracle = ExactOracle::new(&ac3).unwrap();
    assert!(!engine.is_certain(&db));
    assert!(!oracle.is_certain(&db));
    assert!(!oracle.is_certain_bruteforce(&db));
    // Exactly two falsifying repairs, as shown in Figure 7.
    let falsifying = db
        .repairs()
        .filter(|r| !cqa::query::eval::naive::satisfies(r, &ac3))
        .count();
    assert_eq!(falsifying, 2);
}

/// The Theorem 2 reduction maps (non-)certainty faithfully, with the target
/// instance solved by the dispatching engine rather than the raw oracle.
#[test]
fn theorem2_reduction_end_to_end() {
    let target = catalog::q1().query;
    let reduction = Theorem2Reduction::new(&target).unwrap();
    let source_engine = CertaintyEngine::new(reduction.source_query()).unwrap();
    let target_engine = CertaintyEngine::new(&target).unwrap();
    for seed in 0..10u64 {
        let db0 = q0_instance(seed, 4, 2, 0.75);
        let reduced = reduction.apply(&db0);
        assert_eq!(
            source_engine.is_certain(&db0),
            target_engine.is_certain(&reduced),
            "seed {seed}"
        );
    }
}

/// Section 7: Pr(q) = 1 iff the full-block restriction is certain, and
/// Theorem 6 holds, on generated BID instances.
#[test]
fn probability_bridge_on_generated_instances() {
    let query = catalog::conference().query;
    assert!(theorem6_holds(&query).unwrap());
    for seed in 0..10u64 {
        let db = UncertainDbGenerator::new(
            &query,
            GeneratorConfig {
                seed,
                matches: 3,
                domain_per_variable: 3,
                extra_block_facts: 1,
                alternative_join_probability: 0.5,
            },
        )
        .generate();
        if db.repair_count_log2() > 14.0 {
            continue;
        }
        let bid = BidDatabase::uniform_over_repairs(&db);
        let exact_is_one = (probability_exact(&bid, &query) - 1.0).abs() < 1e-9;
        assert_eq!(
            exact_is_one,
            probability_is_one(&bid, &query).unwrap(),
            "seed {seed}"
        );
    }
}

/// The CLI's input format and the library agree on a non-trivial document
/// with multiple queries of different classes.
#[test]
fn multi_query_document() {
    let text = r#"
relation R1(a*, b)
relation R2(a*, b)
relation S2(a*, b*)
R1(x, y)
R1(x, z)
R2(y, x)
R2(z, x)
S2(x, y)
S2(x, z)
certain swap :- R1(u, v), R2(v, u)
certain with_s :- R1(u, v), R2(v, u), S2(u, v)
"#;
    let doc = parse_document(text).unwrap();
    assert_eq!(doc.queries.len(), 2);
    let (_, swap) = &doc.queries[0];
    let (_, with_s) = &doc.queries[1];
    assert_eq!(
        classify(swap).unwrap().class,
        ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles)
    );
    assert_eq!(
        classify(with_s).unwrap().class,
        ComplexityClass::PolynomialTime(PtimeReason::CycleQueryAc { k: 2 })
    );
    let oracle_swap = ExactOracle::new(swap).unwrap();
    let engine_swap = CertaintyEngine::new(swap).unwrap();
    assert_eq!(
        engine_swap.is_certain(&doc.database),
        oracle_swap.is_certain_bruteforce(&doc.database)
    );
    let oracle_s = ExactOracle::new(with_s).unwrap();
    let engine_s = CertaintyEngine::new(with_s).unwrap();
    assert_eq!(
        engine_s.is_certain(&doc.database),
        oracle_s.is_certain_bruteforce(&doc.database)
    );
}

/// `certainty classify` and `certainty rewrite` answer the committed Figure 1
/// document's open query `which(x)` as well as `rome`: an open query is
/// classified, and rewritten, as its frozen query (Lemma 5).
#[test]
fn cli_classifies_and_rewrites_open_queries() {
    let run = |args: &[&str]| {
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/figure1.cqa");
        let mut line = vec![args[0], fixture];
        line.extend(&args[1..]);
        let mut out = Vec::new();
        cqa_cli::run(line.into_iter().map(String::from), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    assert_eq!(
        run(&["classify"]),
        "rome: first-order expressible\nwhich: first-order expressible\n"
    );
    let rewritings = run(&["rewrite"]);
    let lines: Vec<&str> = rewritings.lines().collect();
    assert_eq!(lines.len(), 2, "{rewritings}");
    assert!(
        lines[0].starts_with("rome: ∃ x, y ((C(x, y, 'Rome')"),
        "{rewritings}"
    );
    assert_eq!(
        lines[1],
        "which: ∃ y ((C(x, y, 'Rome') ∧ ∀ w@0 ((C(x, y, w@0) → (w@0 = 'Rome' ∧ R(x, 'A') ∧ \
         ∀ w@1 ((R(x, w@1) → w@1 = 'A')))))))"
    );
    // The open rewriting has no SQL form: its free variable is unguarded.
    let sql = run(&["rewrite", "--sql"]);
    let sql: Vec<&str> = sql.lines().collect();
    assert_eq!((sql.len(), sql[0], sql[2]), (4, lines[0], lines[1]));
    assert!(sql[1].starts_with("SELECT CASE WHEN EXISTS"), "{}", sql[1]);
    assert_eq!(
        sql[3],
        "which: no SQL translation (unsupported query shape: unguarded free variable x in atom \
         over C)"
    );
    // An open query's attack graph is its frozen query's, as `classify` reads it.
    assert_eq!(
        run(&["attack-graph"]),
        "attack graph of rome:\nattack graph of which:\n"
    );
}
