//! Property-based tests (proptest) for the paper's structural lemmas and for
//! solver agreement on randomly generated queries and databases.

use cqa::core::answers::CertainAnswersEngine;
use cqa::core::attack::{elementary_cycles, AttackGraph, AttackStrength, CycleAnalysis, CycleInfo};
use cqa::core::classify::{classify, ComplexityClass};
use cqa::core::fo::eval::evaluate_sentence;
use cqa::core::purify::purify;
use cqa::core::solvers::{CertaintyEngine, CertaintySolver, ExactOracle, RewritingSolver};
use cqa::exec::{FoPlan, QueryPlan};
use cqa::gen::{image_instance, random_acyclic_query, GeneratorConfig, UncertainDbGenerator};
use cqa::par::{BatchOutcome, BatchResult};
use cqa::prob::eval::{probability_exact, probability_over_repairs};
use cqa::prob::{is_safe, BidDatabase};
use cqa::query::{catalog, eval, gyo, join_tree, ConjunctiveQuery, Valuation};
use cqa::serve::{render_result, serve_stream, ServerConfig};
use proptest::prelude::*;

/// Lemma 1 as the paper states it: remove the block of one irrelevant fact
/// at a time (relevance decided by the naive evaluator) until every fact
/// lies in some valuation image.
fn purify_one_block_at_a_time(
    db: &cqa_data::UncertainDatabase,
    q: &ConjunctiveQuery,
) -> cqa_data::UncertainDatabase {
    let relevant = |d: &cqa_data::UncertainDatabase, fact: &cqa_data::Fact| {
        q.atoms().iter().any(|atom| {
            (Valuation::new().unify_with_fact(atom, fact, q.schema()))
                .is_some_and(|theta| eval::naive::satisfies_with(d, q, &theta))
        })
    };
    let mut current = db.clone();
    loop {
        let doomed = current.facts().find(|f| !relevant(&current, f)).cloned();
        match doomed {
            Some(fact) => current.remove_block_of(&fact),
            None => return current,
        };
    }
}

/// The reference verdict of one candidate answer: a fresh engine on the
/// grounded query `q[x̄ ↦ tuple]`, checked against repair enumeration on
/// instances with at most 2^10 repairs.
fn grounded_verdict(
    q: &ConjunctiveQuery,
    tuple: &[cqa_data::Value],
    db: &cqa_data::UncertainDatabase,
) -> bool {
    let grounded = cqa::query::substitute::substitute_seq(q, q.free_vars(), tuple);
    let verdict = CertaintyEngine::new(&grounded).unwrap().is_certain(db);
    if db.repair_count_log2() <= 10.0 {
        let oracle = ExactOracle::new(&grounded).unwrap();
        assert_eq!(
            verdict,
            oracle.is_certain_bruteforce(db),
            "{grounded}\n{db}"
        );
    }
    verdict
}

/// Frees `free` in `q` and checks that one classification stands for every
/// grounding: `classify(q[x̄ ↦ t])` equals the class the open engine
/// computed from the frozen query — for tuples with repeated components,
/// with values outside the dictionary and with the query's own constants —
/// and the open engine takes the first-order (batch rewriting) path
/// exactly in the Theorem 1 region.
fn assert_classified_once(q: &ConjunctiveQuery, free: Vec<cqa::query::Variable>) {
    let open =
        ConjunctiveQuery::with_free_vars(q.schema().clone(), q.atoms().to_vec(), free).unwrap();
    let answers = CertainAnswersEngine::new(&open).unwrap();
    let class = answers.engine().class();
    let first_order = *class == ComplexityClass::FirstOrderExpressible;
    let empty = cqa_data::UncertainDatabase::new(q.schema().clone());
    assert_eq!(
        answers.open_plan(&empty).is_some(),
        first_order,
        "{open}: {class}"
    );
    assert_eq!(
        answers.engine().solver_name() == "rewriting",
        first_order,
        "{open}: {class}"
    );
    let n = open.free_vars().len();
    let own_constant = (q.atoms().iter())
        .flat_map(|atom| atom.terms())
        .find_map(|term| match term {
            cqa::query::Term::Const(c) => Some(c.clone()),
            cqa::query::Term::Var(_) => None,
        })
        .unwrap_or(cqa_data::Value::Int(0));
    let tuples = [
        vec![cqa_data::Value::str("a"); n],
        vec![own_constant; n],
        (0..n)
            .map(|i| cqa_data::Value::str(format!("__never_seen_{i}")))
            .collect(),
        (0..n).map(|i| cqa_data::Value::Int(i as i64)).collect(),
    ];
    for tuple in &tuples {
        let grounded = cqa::query::substitute::substitute_seq(&open, open.free_vars(), tuple);
        assert_eq!(
            &classify(&grounded).unwrap().class,
            class,
            "{open} at {tuple:?}"
        );
    }
}

#[test]
fn catalog_classification_is_invariant_under_grounding() {
    for entry in catalog::all() {
        let vars: Vec<cqa::query::Variable> = entry.query.vars().into_iter().collect();
        for mask in 0..1u32 << vars.len() {
            let free = (vars.iter().enumerate())
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| v.clone())
                .collect();
            assert_classified_once(&entry.query, free);
        }
    }
}

/// The rewriting shapes `every_rewriting_compiles_to_a_guarded_plan` draws
/// from one query: Boolean, the variables picked by `mask` free, the first
/// variable replaced by a constant, and the second variable renamed to the
/// first (a repeated variable), each of the last two keeping `mask`'s free
/// variables.
fn rewriting_shapes(q: &ConjunctiveQuery, mask: u64) -> Vec<(&'static str, ConjunctiveQuery)> {
    use cqa::query::{Atom, Term, Variable};
    let vars: Vec<Variable> = q.vars().into_iter().collect();
    let free: Vec<Variable> = (vars.iter().enumerate())
        .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
        .map(|(_, v)| v.clone())
        .collect();
    let open = ConjunctiveQuery::with_free_vars(q.schema().clone(), q.atoms().to_vec(), free)
        .expect("free variables of the query's own atoms");
    let mut shapes = vec![("Boolean", q.clone())];
    let constant =
        cqa::query::substitute::substitute_var(&open, &vars[0], &cqa_data::Value::str("k"));
    shapes.push(("open", open.clone()));
    shapes.push(("constant", constant));
    if let [first, second, ..] = &vars[..] {
        let rename = |v: &Variable| {
            if v == second {
                first.clone()
            } else {
                v.clone()
            }
        };
        let atoms: Vec<Atom> = (q.atoms().iter())
            .map(|atom| {
                let terms: Vec<Term> = (atom.terms().iter())
                    .map(|t| match t {
                        Term::Var(v) => Term::Var(rename(v)),
                        Term::Const(_) => t.clone(),
                    })
                    .collect();
                Atom::new(atom.relation(), terms)
            })
            .collect();
        let mut free: Vec<Variable> = open.free_vars().iter().map(rename).collect();
        free.dedup();
        let repeated = ConjunctiveQuery::with_free_vars(q.schema().clone(), atoms, free)
            .expect("renaming keeps free variables in atoms");
        shapes.push(("repeated variable", repeated));
    }
    shapes
}

/// Every certain rewriting compiles: `FoPlan::compile` accepts only the
/// guarded form, and Theorem 1's rewritings always have it — for every
/// catalog query and 1,000 generated acyclic queries, as Boolean queries,
/// with free variables, with a constant and with a repeated variable.
#[test]
fn every_rewriting_compiles_to_a_guarded_plan() {
    let mut queries: Vec<(String, ConjunctiveQuery, u64)> = Vec::new();
    for entry in catalog::all() {
        for mask in [0b1, 0b10, 0b101, u64::MAX] {
            queries.push((entry.name.to_string(), entry.query.clone(), mask));
        }
    }
    for seed in 0..1_000u64 {
        let q = random_acyclic_query(seed, 1 + (seed % 6) as usize, 4);
        queries.push((
            format!("draw {seed}"),
            q,
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17,
        ));
    }
    let mut compiled: std::collections::BTreeMap<&str, usize> = Default::default();
    for (name, q, mask) in &queries {
        for (shape, shaped) in rewriting_shapes(q, *mask) {
            let Ok(formula) = cqa::core::fo::certain_rewriting_open(&shaped) else {
                continue;
            };
            if let Err(e) = FoPlan::compile(&formula, shaped.schema(), None) {
                panic!("{name}, {shape}: {shaped} does not compile: {e}");
            }
            *compiled.entry(shape).or_default() += 1;
        }
    }
    for shape in ["Boolean", "open", "constant", "repeated variable"] {
        assert!(
            compiled.get(shape).copied().unwrap_or(0) >= 950,
            "{shape}: {compiled:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 5's substitution on random acyclic queries with a random set of
    /// free variables: see [`assert_classified_once`].
    #[test]
    fn classification_is_invariant_under_grounding(
        seed in 0u64..100_000,
        atoms in 1usize..7,
        mask in 0u64..1 << 12,
    ) {
        let drawn = random_acyclic_query(seed, atoms, 4);
        for q in [with_shuffled_terms(&drawn, seed), drawn] {
            let free = (q.vars().into_iter().enumerate())
                .filter(|(i, _)| mask & (1 << (i % 12)) != 0)
                .map(|(_, v)| v)
                .collect();
            assert_classified_once(&q, free);
        }
    }
}

/// Structural facts about one attack graph: key(F) ⊆ F⁺ ⊆ F⊞ (Definition
/// 2/5), Lemmas 2, 3, 4 and 6, and the strong-component cycle analysis
/// against the elementary-cycle enumeration it replaces. Returns the
/// reference cycles.
fn assert_attack_graph_lemmas(q: &ConjunctiveQuery) -> Vec<CycleInfo> {
    let graph = AttackGraph::build(q).unwrap();
    let closures = graph.closures();
    let n = q.len();
    for f in 0..n {
        assert!(closures.key_set(f).is_subset_of(&closures.plus(f)));
        assert!(closures.plus(f).is_subset_of(&closures.boxed(f)));
    }
    // Lemma 2: F ⇝ G implies key(G) ⊄ F⁺ and vars(F) ⊄ F⁺.
    for edge in graph.edges() {
        assert!(!closures
            .key_set(edge.to)
            .is_subset_of(&closures.plus(edge.from)));
        assert!(!closures
            .var_set(edge.from)
            .is_subset_of(&closures.plus(edge.from)));
    }
    // Lemma 3: F ⇝ G and G ⇝ H (distinct) implies F ⇝ H or G ⇝ F.
    for f in 0..n {
        for g in 0..n {
            for h in 0..n {
                if f != g && g != h && f != h && graph.attacks(f, g) && graph.attacks(g, h) {
                    assert!(
                        graph.attacks(f, h) || graph.attacks(g, f),
                        "Lemma 3 violated on {q} ({f},{g},{h})"
                    );
                }
            }
        }
    }
    // The component-derived analysis says what the enumeration says.
    let analysis = CycleAnalysis::analyze(&graph);
    let cycles = elementary_cycles(&graph);
    assert_eq!(analysis.has_cycle(), !cycles.is_empty(), "{q}");
    assert_eq!(graph.is_acyclic(), cycles.is_empty(), "{q}");
    assert_eq!(
        analysis.has_strong_cycle(),
        cycles.iter().any(|c| c.strong),
        "{q}"
    );
    let all_terminal = cycles.iter().all(|c| c.terminal);
    assert_eq!(analysis.all_cycles_terminal(), all_terminal, "{q}");
    let two_cycles: Vec<_> = (cycles.iter().filter(|c| c.len() == 2))
        .map(|c| (c.atoms[0], c.atoms[1]))
        .collect();
    assert_eq!(analysis.two_cycles(), two_cycles, "{q}");
    let strong = |f, g| graph.strength(f, g) == Some(AttackStrength::Strong);
    let strong_two_cycle = (cycles.iter())
        .find(|c| c.len() == 2 && c.strong)
        .map(|c| (c.atoms[0], c.atoms[1]))
        .map(|(f, g)| if strong(f, g) { (f, g) } else { (g, f) });
    assert_eq!(analysis.strong_two_cycle(&graph), strong_two_cycle, "{q}");
    // Lemma 4: a strong cycle implies a strong 2-cycle.
    assert_eq!(
        analysis.has_strong_cycle(),
        strong_two_cycle.is_some(),
        "{q}"
    );
    // Lemma 6: if all cycles are terminal, all cycles have length 2.
    if all_terminal {
        assert!(cycles.iter().all(|c| c.len() == 2), "{q}");
    }
    cycles
}

/// `q` with the terms of each atom shuffled: the same hypergraph, so still
/// acyclic, but other keys. A [`random_acyclic_query`] draw shares key
/// prefixes along its join tree, and on the seeds below its attack graph
/// is always acyclic.
fn with_shuffled_terms(q: &ConjunctiveQuery, seed: u64) -> ConjunctiveQuery {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let atoms: Vec<cqa::query::Atom> = (q.atoms().iter())
        .map(|atom| {
            let mut terms = atom.terms().to_vec();
            for i in (1..terms.len()).rev() {
                terms.swap(i, rand::Rng::gen_range(&mut rng, 0..=i));
            }
            cqa::query::Atom::new(atom.relation(), terms)
        })
        .collect();
    ConjunctiveQuery::boolean(q.schema().clone(), atoms).unwrap()
}

/// [`assert_attack_graph_lemmas`] on every acyclic catalog query and on
/// 5,000 [`random_acyclic_query`] draws of 1–7 atoms, each as drawn and
/// with its terms shuffled; the shuffled draws reach every region of the
/// chart.
#[test]
fn attack_graph_lemmas() {
    for entry in catalog::all() {
        if join_tree::is_acyclic(&entry.query) {
            assert_attack_graph_lemmas(&entry.query);
        }
    }
    // Acyclic, strong cycle, weak terminal cycles, weak non-terminal cycles.
    let mut regions = [0usize; 4];
    for seed in 0u64..5_000 {
        let q = random_acyclic_query(seed, 1 + (seed % 7) as usize, 4);
        assert_attack_graph_lemmas(&q);
        let cycles = assert_attack_graph_lemmas(&with_shuffled_terms(&q, seed));
        let region = if cycles.is_empty() {
            0
        } else if cycles.iter().any(|c| c.strong) {
            1
        } else if cycles.iter().all(|c| c.terminal) {
            2
        } else {
            3
        };
        regions[region] += 1;
    }
    assert!(regions.iter().all(|&n| n >= 25), "{regions:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two acyclicity tests (max-spanning-tree join tree and GYO) agree
    /// on randomly generated acyclic queries.
    #[test]
    fn join_tree_and_gyo_agree(seed in 0u64..5_000, atoms in 1usize..7, arity in 1usize..5) {
        let q = random_acyclic_query(seed, atoms, arity);
        prop_assert!(join_tree::is_acyclic(&q));
        prop_assert!(gyo::is_acyclic_gyo(&q));
    }

    /// Theorem 6 (safe ⇒ FO-expressible) on random acyclic queries.
    #[test]
    fn theorem6_on_random_queries(seed in 0u64..5_000, atoms in 1usize..6) {
        let drawn = random_acyclic_query(seed, atoms, 4);
        for q in [with_shuffled_terms(&drawn, seed), drawn] {
            if is_safe(&q) {
                let class = classify(&q).unwrap().class;
                prop_assert_eq!(class, ComplexityClass::FirstOrderExpressible);
            }
        }
    }

    /// Purification (Lemma 1) never changes membership in CERTAINTY(q), and
    /// its live-image counts reach exactly the database the lemma's
    /// one-block-at-a-time loop reaches on the naive evaluator.
    #[test]
    fn purification_preserves_certainty(seed in 0u64..2_000, which in 0usize..6) {
        let entry = match which {
            0 => catalog::conference(),
            1 => catalog::fo_path3(),
            2 => catalog::fig4(),
            3 => catalog::ac_k(3),
            4 => catalog::c_k(3),
            _ => catalog::q0(),
        };
        let q = entry.query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 3,
            domain_per_variable: 3,
            extra_block_facts: 1,
            alternative_join_probability: 0.4,
        }).generate();
        let purified = purify(&db, &q);
        prop_assert_eq!(&purified, &purify_one_block_at_a_time(&db, &q),
            "query {}, seed {}", entry.name, seed);
        prop_assume!(db.repair_count_log2() <= 14.0);
        let certain = |d: &cqa_data::UncertainDatabase| d.repairs().all(|r| eval::naive::satisfies(&r, &q));
        prop_assert_eq!(certain(&db), certain(&purified));
    }

    /// The dispatching engine agrees with brute force on random instances of
    /// the three tractable-region catalog queries.
    #[test]
    fn engine_matches_brute_force(seed in 0u64..1_500, which in 0usize..3) {
        let entry = match which {
            0 => catalog::fo_path2(),
            1 => catalog::c2_swap(),
            _ => catalog::ac_k(2),
        };
        let q = entry.query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 3,
            domain_per_variable: 2,
            extra_block_facts: 1,
            alternative_join_probability: 0.7,
        }).generate();
        prop_assume!(db.repair_count_log2() <= 14.0);
        let engine = CertaintyEngine::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        prop_assert_eq!(engine.is_certain(&db), oracle.is_certain_bruteforce(&db));
    }

    /// The uniform-repair probability equals the exhaustive BID probability
    /// with uniform per-block weights, and certainty holds iff it equals 1.
    #[test]
    fn uniform_probability_consistency(seed in 0u64..1_000) {
        let q = catalog::conference().query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 2,
            domain_per_variable: 3,
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        }).generate();
        prop_assume!(db.repair_count_log2() <= 12.0);
        let over_repairs = probability_over_repairs(&db, &q);
        let bid = BidDatabase::uniform_over_repairs(&db);
        let exact = probability_exact(&bid, &q);
        prop_assert!((over_repairs - exact).abs() < 1e-9);
        let engine = CertaintyEngine::new(&q).unwrap();
        prop_assert_eq!(engine.is_certain(&db), (exact - 1.0).abs() < 1e-9);
    }

    /// Repair enumeration: the number of enumerated repairs equals the product
    /// of the block sizes, and every repair is a maximal consistent subset.
    #[test]
    fn repair_enumeration_invariants(seed in 0u64..1_000) {
        let q = catalog::fo_path2().query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 2,
            domain_per_variable: 2,
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        }).generate();
        prop_assume!(db.repair_count_log2() <= 10.0);
        let expected = db.repair_count().unwrap();
        let mut count = 0u128;
        for repair in db.repairs() {
            count += 1;
            prop_assert!(repair.is_consistent());
            prop_assert!(repair.is_subset_of(&db));
            prop_assert_eq!(repair.block_count(), db.block_count());
        }
        prop_assert_eq!(count, expected);
    }
}

/// The query `R(x, y) ∧ R(y, x)`: a self-join, outside the paper's
/// self-join-free scope, decided by the exact oracle.
fn self_join_swap() -> ConjunctiveQuery {
    let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
        .unwrap()
        .into_shared();
    ConjunctiveQuery::builder(schema)
        .atom(
            "R",
            [cqa::query::Term::var("x"), cqa::query::Term::var("y")],
        )
        .atom(
            "R",
            [cqa::query::Term::var("y"), cqa::query::Term::var("x")],
        )
        .build()
        .unwrap()
}

/// Every solver against repair enumeration on [`image_instance`]s: 256
/// instances per input, each a union of overlapping valuation images with
/// disagreeing alternatives. The inputs reach every solver: Theorem 3
/// (`C(2)`, `fig4`), Theorem 4 (`AC(3)`, `C(3)`), the exact oracle (`q0`,
/// `q1`), the rewriting (most shuffled random draws) and, for the
/// self-join the engine refuses, the oracle alone. The verdict must equal
/// brute force's, the oracle's falsifying repair must be one, and on every
/// self-join-free input `purify` must equal the lemma's one-block-at-a-time
/// loop. Per input, at least a quarter of the instances keep an inconsistent
/// purified core and either verdict is at least 5 % of them, so no solver
/// passes by answering one way.
#[test]
fn solvers_match_brute_force_on_image_instances() {
    const CASES: u64 = 256;
    // (name, query, the engine's solver, images, domain); the "random"
    // input draws a shuffled random acyclic query per case.
    let inputs = [
        (
            "C(2)",
            Some(catalog::c2_swap().query),
            Some("terminal-cycles"),
            3,
            3,
        ),
        ("q0", Some(catalog::q0().query), Some("exact-oracle"), 3, 3),
        ("q1", Some(catalog::q1().query), Some("exact-oracle"), 2, 2),
        (
            "fig4",
            Some(catalog::fig4().query),
            Some("terminal-cycles"),
            2,
            3,
        ),
        (
            "AC(3)",
            Some(catalog::ac_k(3).query),
            Some("cycle-query"),
            3,
            3,
        ),
        (
            "C(3)",
            Some(catalog::c_k(3).query),
            Some("cycle-query"),
            3,
            3,
        ),
        ("self-join", Some(self_join_swap()), None, 3, 3),
        ("random", None, None, 6, 2),
    ];
    for (name, query, solver, images, domain) in inputs {
        let (mut inconsistent, mut certain) = (0u64, 0u64);
        for seed in 0..CASES {
            let q = query.clone().unwrap_or_else(|| {
                let drawn = random_acyclic_query(seed, 2 + (seed % 3) as usize, 3);
                with_shuffled_terms(&drawn, seed)
            });
            let db = image_instance(&q, seed, images, domain);
            let oracle = ExactOracle::new(&q).unwrap();
            let expected = oracle.is_certain_bruteforce(&db);
            let verdict = match CertaintyEngine::new(&q) {
                Ok(engine) => {
                    if let Some(solver) = solver {
                        assert_eq!(engine.solver_name(), solver, "{name}");
                    }
                    engine.is_certain(&db)
                }
                Err(_) => {
                    assert!(q.require_self_join_free().is_err(), "{name}: {q}");
                    oracle.is_certain(&db)
                }
            };
            assert_eq!(verdict, expected, "{name}, seed {seed}: {q}\n{db}");
            match oracle.find_falsifying_repair(&db) {
                None => assert!(expected, "{name}, seed {seed}: no repair found\n{db}"),
                Some(repair) => {
                    assert!(
                        !expected,
                        "{name}, seed {seed}: a repair of a certain instance"
                    );
                    assert!(
                        repair.is_consistent() && repair.is_subset_of(&db),
                        "{name}, seed {seed}"
                    );
                    assert_eq!(
                        repair.block_count(),
                        db.block_count(),
                        "{name}, seed {seed}"
                    );
                    assert!(
                        !eval::naive::satisfies(&repair, &q),
                        "{name}, seed {seed}\n{repair}"
                    );
                }
            }
            let purified = purify(&db, &q);
            if q.require_self_join_free().is_ok() {
                assert_eq!(
                    purified,
                    purify_one_block_at_a_time(&db, &q),
                    "{name}, seed {seed}: {q}\n{db}"
                );
            }
            inconsistent += u64::from(!purified.is_consistent());
            certain += u64::from(expected);
        }
        let counts =
            format!("{name}: {inconsistent} inconsistent cores, {certain} certain of {CASES}");
        assert!(4 * inconsistent >= CASES, "{counts}");
        assert!(
            20 * certain >= CASES && 20 * (CASES - certain) >= CASES,
            "{counts}"
        );
    }
}

proptest! {
    // 256 cases so the compiled join plan is cross-checked on well over 200
    // randomized generator instances per run.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled join plan agrees with the naive nested-loop reference
    /// evaluator: same satisfaction verdict and the same set of satisfying
    /// valuations without parameters, and — compiled with a random subset of
    /// the variables as execute-time parameters — the same verdicts under
    /// partial bases (a real witness restricted to the parameters, and to
    /// one variable more), a junk base of active-domain values, and a base
    /// binding a parameter to a value no fact carries.
    #[test]
    fn indexed_join_agrees_with_naive_reference(seed in 0u64..100_000, which in 0usize..4) {
        let entry = match which {
            0 => catalog::conference(),
            1 => catalog::fo_path3(),
            2 => catalog::fig4(),
            _ => catalog::ac_k(3),
        };
        let q = entry.query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 1 + (seed % 5) as usize,
            domain_per_variable: 2 + (seed % 3) as usize,
            extra_block_facts: (seed % 3) as usize,
            alternative_join_probability: 0.6,
        }).generate();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        prop_assert_eq!(plan.prepare(&index).satisfies(), eval::naive::satisfies(&db, &q));
        let witnesses = eval::naive::all_valuations(&db, &q);
        let mut compiled: Vec<String> =
            plan.prepare(&index).all_valuations().iter().map(|v| format!("{v:?}")).collect();
        let mut reference: Vec<String> =
            witnesses.iter().map(|v| format!("{v:?}")).collect();
        compiled.sort();
        reference.sort();
        prop_assert_eq!(compiled, reference, "query {}, seed {}", entry.name, seed);

        let vars: Vec<cqa::query::Variable> = q.vars().into_iter().collect();
        let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let params: Vec<cqa::query::Variable> = (vars.iter().enumerate())
            .filter(|(i, _)| (mix >> i) & 1 == 1)
            .map(|(_, v)| v.clone())
            .collect();
        let bound = QueryPlan::compile_bound(&q, &params, Some(index.statistics()));
        let prepared = bound.prepare(&index);
        let agree = |base: &Valuation| {
            let verdict = prepared.satisfies_with(base);
            (verdict == eval::naive::satisfies_with(&db, &q, base)).then_some(verdict)
        };
        if let Some(total) = witnesses.first() {
            for extra in [0, 1] {
                let partial = Valuation::from_pairs(params.iter().chain(vars.iter().take(extra))
                    .map(|v| (v.clone(), total.get(v).expect("witnesses are total").clone())));
                prop_assert_eq!(agree(&partial), Some(true),
                    "witness base {:?}, query {}, seed {}", partial, entry.name, seed);
            }
        }
        let domain: Vec<cqa_data::Value> = db.active_domain().into_iter().collect();
        prop_assume!(!domain.is_empty());
        let junk = Valuation::from_pairs(params.iter().enumerate().map(|(i, v)| {
            (v.clone(), domain[(mix as usize / 7 + 3 * i) % domain.len()].clone())
        }));
        prop_assert!(agree(&junk).is_some(), "junk base {:?}, query {}, seed {}", junk, entry.name, seed);
        if let Some(first) = params.first() {
            let absent = junk.overridden(
                std::slice::from_ref(first),
                &[cqa_data::Value::str("__not_in_any_fact__")],
            );
            prop_assert_eq!(agree(&absent), Some(false),
                "absent base {:?}, query {}, seed {}", absent, entry.name, seed);
        }
    }
}

proptest! {
    // 256 cases: every run cross-checks the compiled physical plans against
    // the interpreters on well over 200 randomized generator instances.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled plans agree with the reference interpreters:
    /// `cqa_exec::QueryPlan` with `cqa_query::eval::naive` (verdict and full
    /// valuation set), and — on the Theorem 1 catalog queries —
    /// `cqa_exec::FoPlan` on the certain rewriting with the generic model
    /// checker `cqa_core::fo::eval` and with the solver's interpreted
    /// recursion.
    #[test]
    fn compiled_plans_agree_with_the_interpreters(seed in 0u64..100_000, which in 0usize..3) {
        let entry = match which {
            0 => catalog::conference(),
            1 => catalog::fo_path2(),
            _ => catalog::fo_path3(),
        };
        let q = entry.query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 1 + (seed % 5) as usize,
            domain_per_variable: 2 + (seed % 3) as usize,
            extra_block_facts: (seed % 3) as usize,
            alternative_join_probability: 0.6,
        }).generate();
        let index = db.index();

        // Query side: the compiled join plan vs the nested-loop reference.
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        let prepared = plan.prepare(&index);
        prop_assert_eq!(prepared.satisfies(), eval::naive::satisfies(&db, &q),
            "query plan verdict, {} seed {}", entry.name, seed);
        let mut compiled: Vec<String> =
            prepared.all_valuations().iter().map(|v| format!("{v:?}")).collect();
        let mut reference: Vec<String> =
            eval::naive::all_valuations(&db, &q).iter().map(|v| format!("{v:?}")).collect();
        compiled.sort();
        reference.sort();
        prop_assert_eq!(compiled, reference, "query plan valuations, {} seed {}", entry.name, seed);

        // Rewriting side: the compiled FO plan vs the model checker and the
        // interpreted elimination recursion (three-way agreement).
        let solver = RewritingSolver::new(&q).unwrap();
        let fo_plan = FoPlan::compile(solver.formula(), q.schema(), Some(index.statistics())).unwrap();
        let compiled_verdict = fo_plan.prepare(&index).eval();
        prop_assert_eq!(compiled_verdict, evaluate_sentence(solver.formula(), &db),
            "fo plan vs model checker, {} seed {}\n{}", entry.name, seed, fo_plan.explain());
        prop_assert_eq!(compiled_verdict, solver.is_certain_interpreted(&db),
            "fo plan vs interpreted recursion, {} seed {}\n{}", entry.name, seed, fo_plan.explain());
    }
}

proptest! {
    // 256 cases: the served parallel path is cross-checked against the
    // sequential one on well over 200 randomized generator instances per
    // run, at every pool size (1, 2 and 7 threads: the whole buffered
    // script is in flight at once, so one worker runs it in order, two
    // finish its five queries unevenly, seven outnumber them).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parallel and sequential evaluation agree **exactly**: one mixed
    /// script — the Boolean query, its free-`x` variant, a self-join query,
    /// and a repeat of the first two (engine memo hits) — goes
    /// through `serve_stream` as protocol lines, where the handler pipelines
    /// the buffered queries onto the pool, and every response line comes
    /// back in request order equal to `render_result` of the sequential
    /// `CertaintyEngine` verdicts and solver / `certain_answers` sets, at
    /// every thread count. The self-join query fails on its own line
    /// without disturbing the others.
    #[test]
    fn parallel_evaluation_agrees_with_sequential(seed in 0u64..100_000, which in 0usize..3) {
        let (entry, body) = match which {
            0 => (catalog::conference(), r#"C(x, y, "Rome"), R(x, "A")"#),
            1 => (catalog::fo_path2(), "R(x, y), S(y, z)"),
            _ => (catalog::fo_path3(), "R(x, y), S(y, z), T(z, w)"),
        };
        let q = entry.query;
        let (_, spelled) = cqa::parser::parse_query_line(q.schema(), body, 1).unwrap();
        prop_assert_eq!(spelled.to_string(), q.to_string(), "the script spells the catalog query");
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 1 + (seed % 5) as usize,
            domain_per_variable: 2 + (seed % 3) as usize,
            extra_block_facts: (seed % 3) as usize,
            alternative_join_probability: 0.6,
        }).generate();

        // Non-Boolean: free the first variable, compare full answer sets.
        let free_q = cqa::query::ConjunctiveQuery::with_free_vars(
            q.schema().clone(),
            q.atoms().to_vec(),
            vec![cqa::query::Variable::new("x")],
        ).unwrap();
        let engine = CertaintyEngine::new(&q).unwrap();
        let sets = cqa::core::answers::certain_answers(&free_q, &db).unwrap();
        // A response line shows the possible answers only as a count: hold
        // the sets themselves to the reference evaluator and to the
        // per-candidate verdicts.
        let reference: std::collections::BTreeSet<Vec<cqa_data::Value>> =
            (eval::naive::all_valuations(&db, &free_q).iter())
                .filter_map(|v| v.project(free_q.free_vars()))
                .collect();
        prop_assert_eq!(&sets.possible, &reference);
        for tuple in &sets.possible {
            prop_assert_eq!(
                sets.certain.contains(tuple),
                grounded_verdict(&free_q, tuple, &db)
            );
        }
        let line = |name: &str, outcome: BatchOutcome| {
            render_result(&BatchResult { name: name.to_string(), outcome })
        };
        let boolean = |name: &str| line(name, BatchOutcome::Boolean {
            certain: engine.is_certain(&db),
            possible: engine.is_possible(&db),
            solver: engine.solver_name(),
        });
        let answers = |name: &str| line(name, BatchOutcome::Answers(sets.clone()));
        // Every catalog schema here has a binary `R`.
        let script = [
            format!("b :- {body}"),
            format!("f(x) :- {body}"),
            "self-join :- R(x, y), R(y, z)".to_string(),
            format!("b-again :- {body}"),
            format!("f-again(x) :- {body}"),
        ].join("\n") + "\n";
        let expected = [
            Some(boolean("b")),
            Some(answers("f")),
            None,
            Some(boolean("b-again")),
            Some(answers("f-again")),
        ];
        for threads in [1, 2, 7] {
            let config = ServerConfig { threads: Some(threads), ..ServerConfig::default() };
            let mut output = Vec::new();
            serve_stream(db.clone(), config, script.as_bytes(), &mut output).unwrap();
            let output = String::from_utf8(output).unwrap();
            let responses: Vec<&str> = output.lines().collect();
            prop_assert_eq!(responses.len(), expected.len(), "{}", output);
            for (response, expected) in responses.iter().zip(&expected) {
                match expected {
                    Some(expected) => prop_assert_eq!(*response, expected.as_str(),
                        "at {} threads, {} seed {}", threads, entry.name, seed),
                    None => prop_assert!(response.starts_with("self-join: error: "),
                        "at {} threads: {}", threads, response),
                }
            }
        }
    }
}

proptest! {
    // 256 cases: the vectorized block-at-a-time executor — the one path
    // every compiled rewriting and every `answers` join takes — is
    // cross-checked against the interpreted references on well over 200
    // randomized generator instances per run. Tiny instances included: the
    // batch kernels run at every size.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The vectorized executor agrees **exactly** with the interpreters: on
    /// the Theorem 1 catalog queries, `is_certain` through the compiled
    /// rewriting (vs the generic model checker and the interpreted
    /// rewriting), the join answers of the freed query (vs `eval::naive`),
    /// and `certain_answers` through the compile-once engine (vs the
    /// per-candidate grounded reference, byte-identical answer sets); and on
    /// a query with a cyclic attack graph, the engine's per-candidate
    /// fallback matches the same reference.
    #[test]
    fn vectorized_execution_agrees_with_row_and_interpreters(seed in 0u64..100_000, which in 0usize..4) {
        let (q, name) = match which {
            0 => (catalog::conference().query, "conference"),
            1 => (catalog::fo_path2().query, "fo_path2"),
            2 => (catalog::fo_path3().query, "fo_path3"),
            _ => {
                // {R(y;z), S(z;y), F(y;w)} with w free: the attack graph has
                // a cycle among the bound variables, so the answers engine
                // must take the per-candidate fallback path.
                let schema = cqa_data::Schema::from_relations(
                    [("R", 2, 1), ("S", 2, 1), ("F", 2, 1)]).unwrap().into_shared();
                let q = cqa::query::ConjunctiveQuery::builder(schema)
                    .atom("R", [cqa::query::Term::var("y"), cqa::query::Term::var("z")])
                    .atom("S", [cqa::query::Term::var("z"), cqa::query::Term::var("y")])
                    .atom("F", [cqa::query::Term::var("y"), cqa::query::Term::var("w")])
                    .free([cqa::query::Variable::new("w")])
                    .build().unwrap();
                (q, "cyclic-free-w")
            }
        };
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 1 + (seed % 5) as usize,
            domain_per_variable: 2 + (seed % 3) as usize,
            extra_block_facts: (seed % 3) as usize,
            alternative_join_probability: 0.6,
        }).generate();
        let index = db.index();

        if which < 3 {
            // Boolean rewriting: the compiled plan vs the generic model
            // checker vs the interpreted rewriting.
            let solver = RewritingSolver::new(&q).unwrap();
            let fo_plan = FoPlan::compile(solver.formula(), q.schema(), Some(index.statistics())).unwrap();
            let verdict = fo_plan.prepare(&index).eval();
            prop_assert_eq!(verdict, evaluate_sentence(solver.formula(), &db),
                "is_certain vs model checker, {} seed {}\n{}", name, seed, fo_plan.explain());
            prop_assert_eq!(verdict, solver.is_certain_interpreted(&db),
                "is_certain vs interpreted rewriting, {} seed {}\n{}", name, seed, fo_plan.explain());

            // Join answers on the freed query vs the naive evaluator,
            // byte-identical.
            let free_q = cqa::query::ConjunctiveQuery::with_free_vars(
                q.schema().clone(),
                q.atoms().to_vec(),
                vec![cqa::query::Variable::new("x")],
            ).unwrap();
            let plan = QueryPlan::compile(&free_q, Some(index.statistics()));
            let answers = plan.prepare(&index).answers();
            let naive: std::collections::BTreeSet<Vec<cqa_data::Value>> =
                (eval::naive::all_valuations(&db, &free_q).iter())
                    .filter_map(|v| v.project(free_q.free_vars()))
                    .collect();
            prop_assert_eq!(&answers, &naive, "join answers vs naive, {} seed {}", name, seed);

            // Certain answers through the compile-once engine vs the
            // per-candidate grounded reference. A value outside the active
            // domain rides along to cross the foreign-tuple boundary of the
            // batch path.
            let mut candidates = answers;
            candidates.insert(vec![cqa_data::Value::str("__foreign__")]);
            let reference: std::collections::BTreeSet<Vec<cqa_data::Value>> = candidates.iter()
                .filter(|t| grounded_verdict(&free_q, t, &db))
                .cloned()
                .collect();
            let engine = CertainAnswersEngine::new(&free_q).unwrap();
            prop_assert!(engine.open_plan(&db).is_some());
            prop_assert_eq!(&engine.certain_of(&db, &candidates).unwrap(), &reference,
                "certain_of, {} seed {}", name, seed);

            // Two free variables: tuples mixing a coded and a foreign value
            // are answered without evaluation, as the reference agrees.
            let second = q.vars().into_iter().find(|v| v.name() != "x")
                .expect("every catalog query here has a second variable");
            let free_q2 = cqa::query::ConjunctiveQuery::with_free_vars(
                q.schema().clone(),
                q.atoms().to_vec(),
                vec![cqa::query::Variable::new("x"), second],
            ).unwrap();
            // Each possible answer (a, b) is joined by (a, foreign) and
            // (foreign, b).
            let foreign = cqa_data::Value::str("__foreign__");
            let answers2 = QueryPlan::compile(&free_q2, Some(index.statistics()))
                .prepare(&index)
                .answers();
            let mut candidates2 = answers2.clone();
            for t in &answers2 {
                candidates2.insert(vec![t[0].clone(), foreign.clone()]);
                candidates2.insert(vec![foreign.clone(), t[1].clone()]);
            }
            let reference2: std::collections::BTreeSet<Vec<cqa_data::Value>> = candidates2.iter()
                .filter(|t| grounded_verdict(&free_q2, t, &db))
                .cloned()
                .collect();
            let engine2 = CertainAnswersEngine::new(&free_q2).unwrap();
            prop_assert!(engine2.open_plan(&db).is_some());
            prop_assert_eq!(&engine2.certain_of(&db, &candidates2).unwrap(), &reference2,
                "certain_of over two free variables, {} seed {}", name, seed);
        } else {
            // Fallback boundary: the per-candidate path's verdicts must
            // match the reference.
            let candidates = cqa::core::answers::possible_answers(&q, &db).unwrap();
            let reference: std::collections::BTreeSet<Vec<cqa_data::Value>> = candidates.iter()
                .filter(|t| grounded_verdict(&q, t, &db))
                .cloned()
                .collect();
            let engine = CertainAnswersEngine::new(&q).unwrap();
            prop_assert!(engine.open_plan(&db).is_none());
            prop_assert_eq!(&engine.certain_of(&db, &candidates).unwrap(), &reference,
                "fallback certain_of, {} seed {}", name, seed);
        }
    }
}

/// The probed prefix of a relation's primary key: as many key positions as
/// one position index covers.
fn key_prefix(relation: &cqa_data::Relation) -> Vec<usize> {
    (0..relation.key_len().min(cqa_data::PositionIndex::MAX_WIDTH)).collect()
}

/// Demands every secondary structure of the database's store — statistics
/// (and with them every single-position index), columnar view, active
/// domain, and per relation the key-prefix index through both entry points —
/// so that every later mutation has to maintain all of them.
fn demand_everything(db: &cqa_data::UncertainDatabase) {
    let index = db.index();
    let _ = index.statistics();
    let _ = index.columnar();
    let _ = index.active_domain();
    for (rel, relation) in db.schema().iter() {
        let prefix = key_prefix(relation);
        let _ = index.position_index(
            rel,
            cqa_data::PositionSet::from_positions(prefix.iter().copied()),
        );
        let _ = index.code_index(rel, &prefix);
    }
}

/// The facts of the bucket `values` (at `positions`) of one relation.
fn bucket_facts(
    index: &cqa_data::DatabaseIndex,
    rel: cqa_data::RelationId,
    positions: &[usize],
    values: &[cqa_data::Value],
) -> std::collections::BTreeSet<cqa_data::Fact> {
    index
        .code_index(rel, positions)
        .probe(index.pack_key(values))
        .map(|row| index.fact(rel, row).clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Incremental maintenance and persistence, end to end: every secondary
    /// structure is demanded up front, then a random interleaving of inserts
    /// (fresh and duplicate), fact removals (present and absent) and block
    /// removals is applied — some of it while a snapshot pins the storage, so
    /// both the in-place and the copy-on-write path run. The maintained
    /// database must then equal, **up to the numbering of rows and codes**,
    /// a database built from scratch out of its surviving facts: same facts
    /// and block partition per relation, equal statistics and active domain,
    /// every index bucket and every decoded columnar row the same facts.
    /// No-op mutations must leave the epoch and the storage untouched, a
    /// pinned snapshot must keep reading what it was frozen with, and saving
    /// the mutated database must round-trip byte-stably with identical
    /// verdicts and certain answers.
    #[test]
    fn delta_patched_index_matches_rebuild_and_store_round_trips(
        seed in 0u64..100_000, which in 0usize..3
    ) {
        use std::collections::BTreeSet;
        let (q, name) = match which {
            0 => (catalog::conference().query, "conference"),
            1 => (catalog::fo_path2().query, "fo_path2"),
            _ => (catalog::fo_path3().query, "fo_path3"),
        };
        let mut db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 1 + (seed % 5) as usize,
            domain_per_variable: 2 + (seed % 3) as usize,
            extra_block_facts: (seed % 3) as usize,
            alternative_join_probability: 0.6,
        }).generate();
        demand_everything(&db);

        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(which as u64) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pinned: Option<(cqa_data::Snapshot, Vec<cqa_data::Fact>)> = None;
        let steps = 6 + (seed % 7) as usize;
        for step in 0..steps {
            let facts: Vec<cqa_data::Fact> = db.facts().cloned().collect();
            if facts.is_empty() {
                break;
            }
            let donor = facts[(next() as usize) % facts.len()].clone();
            let last = donor.values().len() - 1;
            match next() % 6 {
                0 | 1 => {
                    // Fresh fact: the donor's tuple with a new last value —
                    // joins the donor's block (or opens a new one) and grows
                    // the dictionary and active domain.
                    let mut values = donor.values().to_vec();
                    values[last] = cqa_data::Value::str(format!("fresh-{step}-{}", next() % 5));
                    let fact = cqa_data::Fact::new(donor.relation(), values);
                    let expected = !db.contains(&fact);
                    prop_assert_eq!(db.insert(fact).unwrap(), expected,
                        "insert divergence, {} seed {} step {}", name, seed, step);
                }
                2 => {
                    // Duplicate insert: a no-op that must not touch the
                    // epoch or the storage.
                    let (epoch, storage) = (db.epoch(), db.index());
                    prop_assert!(!db.insert(donor.clone()).unwrap(),
                        "duplicate insert reported new, {} seed {}", name, seed);
                    prop_assert_eq!(db.epoch(), epoch,
                        "no-op insert bumped the epoch, {} seed {}", name, seed);
                    prop_assert!(std::sync::Arc::ptr_eq(&storage, &db.index()),
                        "no-op insert copied the storage, {} seed {}", name, seed);
                }
                3 => {
                    prop_assert!(db.remove_fact(&donor),
                        "present fact did not remove, {} seed {}", name, seed);
                    prop_assert!(!db.contains(&donor));
                }
                4 => {
                    prop_assert!(db.remove_block_of(&donor),
                        "present block did not remove, {} seed {}", name, seed);
                    prop_assert!(db.block_with_key(donor.relation(), donor.key(db.schema())).is_none());
                }
                _ => {
                    // Removing an absent fact: a no-op that must not touch
                    // the epoch or the storage.
                    let mut values = donor.values().to_vec();
                    values[last] = cqa_data::Value::str("absent-probe");
                    let ghost = cqa_data::Fact::new(donor.relation(), values);
                    let (epoch, storage) = (db.epoch(), db.index());
                    prop_assert!(!db.remove_fact(&ghost),
                        "absent fact removed, {} seed {}", name, seed);
                    prop_assert_eq!(db.epoch(), epoch,
                        "no-op removal bumped the epoch, {} seed {}", name, seed);
                    prop_assert!(std::sync::Arc::ptr_eq(&storage, &db.index()),
                        "no-op removal copied the storage, {} seed {}", name, seed);
                }
            }
            if next() % 2 == 0 {
                // Pin the current state now and then, so later mutations
                // have to copy what they touch — and let go of the previous
                // pin, so others run in place again.
                if let Some((snapshot, frozen)) = pinned.take() {
                    prop_assert_eq!(snapshot.database().sorted_facts(), frozen,
                        "a pinned snapshot moved, {} seed {}", name, seed);
                }
                pinned = (next() % 3 != 0).then(|| (db.snapshot(), db.sorted_facts()));
            }
        }
        if let Some((snapshot, frozen)) = pinned.take() {
            prop_assert_eq!(snapshot.database().sorted_facts(), frozen,
                "a pinned snapshot moved, {} seed {}", name, seed);
        }

        // The maintained store must equal a from-scratch build of the
        // surviving facts (inserted in sorted order, so rows and codes are
        // numbered differently), structure by structure.
        let rebuilt = cqa_data::UncertainDatabase::from_facts(db.schema().clone(), db.sorted_facts())
            .unwrap();
        demand_everything(&rebuilt);
        let patched = db.index();
        let reference = rebuilt.index();
        prop_assert_eq!(db.fact_count(), rebuilt.fact_count(),
            "fact count, {} seed {}", name, seed);
        prop_assert_eq!(db.block_count(), rebuilt.block_count(),
            "block count, {} seed {}", name, seed);
        prop_assert_eq!(db.is_consistent(), rebuilt.is_consistent(),
            "consistency, {} seed {}", name, seed);
        prop_assert_eq!(patched.active_domain(), reference.active_domain(),
            "active domain, {} seed {}", name, seed);
        prop_assert_eq!(patched.statistics(), reference.statistics(),
            "statistics, {} seed {}", name, seed);
        prop_assert_eq!(patched.dictionary().len(), reference.dictionary().len(),
            "dictionary size, {} seed {}", name, seed);
        for (rel, relation) in db.schema().iter() {
            let sorted = |index: &cqa_data::DatabaseIndex| {
                let mut facts: Vec<cqa_data::Fact> = index.relation_facts(rel).cloned().collect();
                facts.sort();
                facts
            };
            prop_assert_eq!(sorted(&patched), sorted(&reference),
                "facts of {}, {} seed {}", relation.name, name, seed);
            let partition = |index: &cqa_data::DatabaseIndex| -> BTreeSet<BTreeSet<cqa_data::Fact>> {
                index.relation_blocks(rel).map(|b| b.facts().iter().cloned().collect()).collect()
            };
            prop_assert_eq!(partition(&patched), partition(&reference),
                "block partition of {}, {} seed {}", relation.name, name, seed);
            // Key-prefix buckets, through both index entry points.
            let prefix = key_prefix(relation);
            let posbits = cqa_data::PositionSet::from_positions(prefix.iter().copied());
            prop_assert_eq!(
                patched.position_index(rel, posbits).key_count(),
                reference.position_index(rel, posbits).key_count(),
                "key count of {}, {} seed {}", relation.name, name, seed);
            for block in reference.relation_blocks(rel) {
                let key = &block.key()[..prefix.len()];
                let expected = bucket_facts(&reference, rel, &prefix, key);
                prop_assert!(block.facts().iter().all(|f| expected.contains(f)));
                prop_assert_eq!(bucket_facts(&patched, rel, &prefix, key), expected.clone(),
                    "bucket {:?} of {}, {} seed {}", key, relation.name, name, seed);
                let rows: BTreeSet<cqa_data::Fact> = patched
                    .position_index(rel, posbits)
                    .probe(patched.pack_key(key))
                    .map(|row| patched.fact(rel, row).clone())
                    .collect();
                prop_assert_eq!(rows, expected,
                    "bucket {:?} of {} (row entry point), {} seed {}", key, relation.name, name, seed);
            }
            // Every single-position bucket (the statistics demanded them).
            for position in 0..relation.arity() {
                for value in reference.active_domain() {
                    let key = std::slice::from_ref(value);
                    prop_assert_eq!(
                        bucket_facts(&patched, rel, &[position], key),
                        bucket_facts(&reference, rel, &[position], key),
                        "bucket {:?} at {} of {}, {} seed {}", value, position, relation.name, name, seed);
                }
            }
            // Code columns decode, row for row, to the facts stored there.
            let columns = patched.columnar().relation(rel);
            prop_assert_eq!(columns.row_count(), patched.row_count(rel),
                "columnar rows of {}, {} seed {}", relation.name, name, seed);
            for row in 0..columns.row_count() {
                for p in 0..relation.arity() {
                    prop_assert_eq!(
                        patched.dictionary().value(columns.code(p, row)),
                        patched.fact(rel, row as u32).value(p),
                        "columnar cell ({}, {}) of {}, {} seed {}", row, p, relation.name, name, seed);
                }
            }
        }

        // Persistence: the mutated database must survive a save → load
        // round trip byte-stably and answer identically.
        let bytes = cqa_data::store::save_to_vec(&db);
        let loaded = cqa_data::store::load_from_slice(&bytes).expect("a fresh save loads");
        prop_assert_eq!(&bytes, &cqa_data::store::save_to_vec(&loaded),
            "save-load-save not byte stable, {} seed {}", name, seed);
        let solver = RewritingSolver::new(&q).unwrap();
        let fo_plan = FoPlan::compile(solver.formula(), q.schema(), None).unwrap();
        let loaded_index = loaded.index();
        let free_q = cqa::query::ConjunctiveQuery::with_free_vars(
            q.schema().clone(),
            q.atoms().to_vec(),
            vec![cqa::query::Variable::new("x")],
        ).unwrap();
        let candidates = cqa::core::answers::possible_answers(&free_q, &db).unwrap();
        prop_assert_eq!(
            fo_plan.prepare(&loaded_index).eval(),
            fo_plan.prepare(&patched).eval(),
            "verdict after reload, {} seed {}", name, seed);
        let engine = CertainAnswersEngine::new(&free_q).unwrap();
        let on_patched = engine.certain_of(&db, &candidates).unwrap();
        prop_assert_eq!(&engine.certain_of(&rebuilt, &candidates).unwrap(), &on_patched,
            "certain answers patched vs rebuilt, {} seed {}", name, seed);
        prop_assert_eq!(&engine.certain_of(&loaded, &candidates).unwrap(), &on_patched,
            "certain answers after reload, {} seed {}", name, seed);
    }
}
