//! Property-based tests (proptest) for the paper's structural lemmas and for
//! solver agreement on randomly generated queries and databases.

use cqa::core::answers::{tuple_is_certain, CertainAnswersEngine};
use cqa::core::attack::{AttackGraph, CycleAnalysis};
use cqa::core::classify::{classify, ComplexityClass};
use cqa::core::fo::eval::evaluate_sentence;
use cqa::core::solvers::{CertaintyEngine, CertaintySolver, ExactOracle, RewritingSolver};
use cqa::exec::{ExecMode, FoPlan, QueryPlan};
use cqa::gen::{random_acyclic_query, GeneratorConfig, UncertainDbGenerator};
use cqa::par::{certain_answers_par, ParConfig, ParPool, ParallelEngine};
use cqa::prob::eval::{probability_exact, probability_over_repairs};
use cqa::prob::{is_safe, BidDatabase};
use cqa::query::{catalog, eval, gyo, join_tree, purify};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared worker pools for the parallel-agreement suite: 1 thread (the
/// degenerate case), 2, and 7 (odd, so remainder chunks are exercised).
fn shared_pools() -> &'static Vec<ParPool> {
    static POOLS: OnceLock<Vec<ParPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1usize, 2, 7].into_iter().map(ParPool::new).collect())
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

    /// Structural facts about attack graphs on random acyclic queries:
    /// key(F) ⊆ F⁺ ⊆ F⊞ (Definition 2/5), Lemma 2, Lemma 3, Lemma 4.
    #[test]
    fn attack_graph_lemmas(seed in 0u64..5_000, atoms in 1usize..7) {
        let q = random_acyclic_query(seed, atoms, 4);
        let graph = AttackGraph::build(&q).unwrap();
        let closures = graph.closures();
        let n = q.len();
        for f in 0..n {
            prop_assert!(closures.key_set(f).is_subset_of(&closures.plus(f)));
            prop_assert!(closures.plus(f).is_subset_of(&closures.boxed(f)));
        }
        // Lemma 2: F ⇝ G implies key(G) ⊄ F⁺ and vars(F) ⊄ F⁺.
        for edge in graph.edges() {
            prop_assert!(!closures.key_set(edge.to).is_subset_of(&closures.plus(edge.from)));
            prop_assert!(!closures.var_set(edge.from).is_subset_of(&closures.plus(edge.from)));
        }
        // Lemma 3: F ⇝ G and G ⇝ H (distinct) implies F ⇝ H or G ⇝ F.
        for f in 0..n {
            for g in 0..n {
                for h in 0..n {
                    if f != g && g != h && f != h && graph.attacks(f, g) && graph.attacks(g, h) {
                        prop_assert!(
                            graph.attacks(f, h) || graph.attacks(g, f),
                            "Lemma 3 violated on {q} ({f},{g},{h})"
                        );
                    }
                }
            }
        }
        // Lemma 4: a strong cycle implies a strong 2-cycle.
        let analysis = CycleAnalysis::analyze(&graph);
        if analysis.has_strong_cycle() {
            prop_assert!(analysis.strong_two_cycle(&graph).is_some());
        }
        // Lemma 6: if all cycles are terminal, all cycles have length 2.
        if analysis.has_cycle() && analysis.all_cycles_terminal() {
            prop_assert!(analysis.cycles().iter().all(|c| c.len() == 2));
        }
    }

    /// Theorem 6 (safe ⇒ FO-expressible) on random acyclic queries.
    #[test]
    fn theorem6_on_random_queries(seed in 0u64..5_000, atoms in 1usize..6) {
        let q = random_acyclic_query(seed, atoms, 4);
        if is_safe(&q) {
            let class = classify(&q).unwrap().class;
            prop_assert_eq!(class, ComplexityClass::FirstOrderExpressible);
        }
    }

    /// Purification (Lemma 1) never changes membership in CERTAINTY(q), and
    /// the purified database is a subset supporting every remaining fact.
    #[test]
    fn purification_preserves_certainty(seed in 0u64..2_000) {
        let q = catalog::conference().query;
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed,
            matches: 3,
            domain_per_variable: 3,
            extra_block_facts: 1,
            alternative_join_probability: 0.4,
        }).generate();
        prop_assume!(db.repair_count_log2() <= 14.0);
        let purified = purify::purify(&db, &q);
        prop_assert!(purified.is_subset_of(&db));
        prop_assert!(purify::is_purified(&purified, &q));
        let certain = |d: &cqa_data::UncertainDatabase| d.repairs().all(|r| eval::satisfies(&r, &q));
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

proptest! {
    // 256 cases so the indexed join is cross-checked on well over 200
    // randomized generator instances per run.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed bind-aware join agrees with the retained naive
    /// nested-loop reference evaluator: same satisfaction verdict, the same
    /// set of satisfying valuations, and the same verdicts under partial
    /// base bindings (both the binding of a real witness and a junk binding).
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
        prop_assert_eq!(eval::satisfies(&db, &q), eval::naive::satisfies(&db, &q));
        let witnesses = eval::naive::all_valuations(&db, &q);
        let mut indexed: Vec<String> =
            eval::all_valuations(&db, &q).iter().map(|v| format!("{v:?}")).collect();
        let mut reference: Vec<String> =
            witnesses.iter().map(|v| format!("{v:?}")).collect();
        indexed.sort();
        reference.sort();
        prop_assert_eq!(indexed, reference, "query {}, seed {}", entry.name, seed);
        if let Some(total) = witnesses.into_iter().next() {
            let vars: Vec<cqa::query::Variable> = q.vars().into_iter().collect();
            let partial = total.restrict_to(vars.iter().take(1 + seed as usize % vars.len().max(1)));
            prop_assert!(eval::satisfies_with(&db, &q, &partial));
            prop_assert_eq!(
                eval::satisfies_with(&db, &q, &partial),
                eval::naive::satisfies_with(&db, &q, &partial)
            );
        }
        if let Some(var) = q.vars().into_iter().next() {
            let junk = cqa::query::Valuation::from_pairs([
                (var, cqa_data::Value::str("__not_in_any_fact__")),
            ]);
            prop_assert_eq!(
                eval::satisfies_with(&db, &q, &junk),
                eval::naive::satisfies_with(&db, &q, &junk)
            );
        }
    }
}

proptest! {
    // 256 cases: every run cross-checks the compiled physical plans against
    // the interpreters on well over 200 randomized generator instances.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled plans agree with the interpreters they replace:
    /// `cqa_exec::QueryPlan` with `cqa_query::eval` (verdict and full
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

        // Query side: the compiled join plan vs the tree-walking join.
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        let prepared = plan.prepare(&index);
        prop_assert_eq!(prepared.satisfies(), eval::satisfies(&db, &q),
            "query plan verdict, {} seed {}", entry.name, seed);
        let mut compiled: Vec<String> =
            prepared.all_valuations().iter().map(|v| format!("{v:?}")).collect();
        let mut reference: Vec<String> =
            eval::all_valuations(&db, &q).iter().map(|v| format!("{v:?}")).collect();
        compiled.sort();
        reference.sort();
        prop_assert_eq!(compiled, reference, "query plan valuations, {} seed {}", entry.name, seed);

        // Rewriting side: the compiled FO plan vs the model checker and the
        // interpreted elimination recursion (three-way agreement).
        let solver = RewritingSolver::new(&q).unwrap();
        let fo_plan = FoPlan::compile(solver.formula(), q.schema(), Some(index.statistics()));
        let compiled_verdict = fo_plan.prepare(&index).eval();
        prop_assert_eq!(compiled_verdict, evaluate_sentence(solver.formula(), &db),
            "fo plan vs model checker, {} seed {}\n{}", entry.name, seed, fo_plan.explain());
        prop_assert_eq!(compiled_verdict, solver.is_certain_interpreted(&db),
            "fo plan vs interpreted recursion, {} seed {}\n{}", entry.name, seed, fo_plan.explain());
    }
}

proptest! {
    // 256 cases: the parallel layer is cross-checked against the sequential
    // path on well over 200 randomized generator instances per run, at
    // every pool size (1, 2 and 7 threads — 7 is deliberately odd so the
    // remainder chunk of an uneven split is exercised).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parallel and sequential evaluation agree **exactly**: `certain_answers`
    /// (candidate-space sharding, ordered-set merge) returns byte-identical
    /// answer sets, and `is_certain` / `is_possible` (root-scan sharding,
    /// disjunction merge) return identical verdicts, at every thread count.
    /// The cutoff is forced to zero so every case actually crosses the pool.
    #[test]
    fn parallel_evaluation_agrees_with_sequential(seed in 0u64..100_000, which in 0usize..3) {
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
        let snapshot = db.snapshot();
        let config = ParConfig::always_parallel();

        // Non-Boolean: free the first variable, compare full answer sets.
        let free_q = cqa::query::ConjunctiveQuery::with_free_vars(
            q.schema().clone(),
            q.atoms().to_vec(),
            vec![cqa::query::Variable::new("x")],
        ).unwrap();
        let sequential = cqa::core::answers::certain_answers(&free_q, &db).unwrap();
        for pool in shared_pools() {
            let parallel = certain_answers_par(&free_q, &snapshot, pool, &config).unwrap();
            prop_assert_eq!(
                &parallel, &sequential,
                "certain_answers at {} threads, {} seed {}", pool.thread_count(), entry.name, seed
            );
        }

        // Boolean: certainty and possibility verdicts.
        let engine = CertaintyEngine::new(&q).unwrap();
        let certain = engine.is_certain(&db);
        let possible = engine.is_possible(&db);
        for pool in shared_pools() {
            let par = ParallelEngine::new(&q, pool.clone(), config.clone()).unwrap();
            prop_assert_eq!(par.is_certain(&snapshot), certain,
                "is_certain at {} threads, {} seed {}", pool.thread_count(), entry.name, seed);
            prop_assert_eq!(par.is_possible(&snapshot), possible,
                "is_possible at {} threads, {} seed {}", pool.thread_count(), entry.name, seed);
        }
    }
}

proptest! {
    // 256 cases: the vectorized block-at-a-time executor is cross-checked
    // against the row-at-a-time engine and the interpreted references on
    // well over 200 randomized generator instances per run. The executor
    // mode is *forced* both ways through the `with_mode` knob, so every
    // case exercises the vectorized kernels even below the cost model's
    // auto cutoff — the fallback boundary the auto path would otherwise
    // hide.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Vectorized and row-at-a-time execution agree **exactly**: on the
    /// Theorem 1 catalog queries, `is_certain` through the compiled
    /// rewriting (vec vs row vs the generic model checker, three-way) and
    /// `certain_answers` through the compile-once engine (vec vs row vs the
    /// per-candidate classified-solver reference, byte-identical answer
    /// sets); and on a query with a cyclic attack graph, the engine's
    /// per-candidate fallback is verified mode-independent.
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
            // Boolean rewriting: vec vs row vs the generic model checker.
            let solver = RewritingSolver::new(&q).unwrap();
            let fo_plan = FoPlan::compile(solver.formula(), q.schema(), Some(index.statistics()));
            let row = fo_plan.prepare(&index).with_mode(ExecMode::RowAtATime).eval();
            let vec_verdict = fo_plan.prepare(&index).with_mode(ExecMode::Vectorized).eval();
            prop_assert_eq!(vec_verdict, row,
                "is_certain vec vs row, {} seed {}\n{}", name, seed, fo_plan.explain());
            prop_assert_eq!(vec_verdict, evaluate_sentence(solver.formula(), &db),
                "is_certain vec vs model checker, {} seed {}\n{}", name, seed, fo_plan.explain());

            // Join answers on the freed query: vec vs row, byte-identical.
            let free_q = cqa::query::ConjunctiveQuery::with_free_vars(
                q.schema().clone(),
                q.atoms().to_vec(),
                vec![cqa::query::Variable::new("x")],
            ).unwrap();
            let plan = QueryPlan::compile(&free_q, Some(index.statistics()));
            let row_answers = plan.prepare(&index).with_mode(ExecMode::RowAtATime).answers();
            let vec_answers = plan.prepare(&index).with_mode(ExecMode::Vectorized).answers();
            prop_assert_eq!(&vec_answers, &row_answers,
                "join answers vec vs row, {} seed {}", name, seed);

            // Certain answers through the compile-once engine: vec vs row vs
            // the per-candidate classified-solver reference. A value outside
            // the active domain rides along to cross the foreign-tuple
            // boundary of the batch path.
            let mut candidates = row_answers;
            candidates.insert(vec![cqa_data::Value::str("__foreign__")]);
            let free = free_q.free_vars().to_vec();
            let reference: std::collections::BTreeSet<Vec<cqa_data::Value>> = candidates.iter()
                .filter(|t| tuple_is_certain(&free_q, &free, t, &db).unwrap())
                .cloned()
                .collect();
            for mode in [ExecMode::RowAtATime, ExecMode::Vectorized, ExecMode::Auto] {
                let engine = CertainAnswersEngine::new(&free_q).unwrap().with_mode(mode);
                prop_assert!(engine.uses_open_rewriting());
                prop_assert_eq!(&engine.certain_of(&db, &candidates).unwrap(), &reference,
                    "certain_of {:?}, {} seed {}", mode, name, seed);
            }
        } else {
            // Fallback boundary: the mode knob must be inert on the
            // per-candidate path, and the verdicts must match the reference.
            let candidates = cqa::core::answers::possible_answers(&q, &db).unwrap();
            let free = q.free_vars().to_vec();
            let reference: std::collections::BTreeSet<Vec<cqa_data::Value>> = candidates.iter()
                .filter(|t| tuple_is_certain(&q, &free, t, &db).unwrap())
                .cloned()
                .collect();
            for mode in [ExecMode::RowAtATime, ExecMode::Vectorized, ExecMode::Auto] {
                let engine = CertainAnswersEngine::new(&q).unwrap().with_mode(mode);
                prop_assert!(!engine.uses_open_rewriting());
                prop_assert_eq!(&engine.certain_of(&db, &candidates).unwrap(), &reference,
                    "fallback certain_of {:?}, {} seed {}", mode, name, seed);
            }
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
    /// certain answers across every [`ExecMode`].
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
        // round trip byte-stably and answer identically in every mode.
        let bytes = cqa_data::store::save_to_vec(&db);
        let loaded = cqa_data::store::load_from_slice(&bytes).expect("a fresh save loads");
        prop_assert_eq!(&bytes, &cqa_data::store::save_to_vec(&loaded),
            "save-load-save not byte stable, {} seed {}", name, seed);
        let solver = RewritingSolver::new(&q).unwrap();
        let fo_plan = FoPlan::compile(solver.formula(), q.schema(), None);
        let loaded_index = loaded.index();
        let free_q = cqa::query::ConjunctiveQuery::with_free_vars(
            q.schema().clone(),
            q.atoms().to_vec(),
            vec![cqa::query::Variable::new("x")],
        ).unwrap();
        let candidates = cqa::core::answers::possible_answers(&free_q, &db).unwrap();
        for mode in [ExecMode::RowAtATime, ExecMode::Vectorized, ExecMode::Auto] {
            prop_assert_eq!(
                fo_plan.prepare(&loaded_index).with_mode(mode).eval(),
                fo_plan.prepare(&patched).with_mode(mode).eval(),
                "verdict after reload {:?}, {} seed {}", mode, name, seed);
            let engine = CertainAnswersEngine::new(&free_q).unwrap().with_mode(mode);
            let on_patched = engine.certain_of(&db, &candidates).unwrap();
            prop_assert_eq!(&engine.certain_of(&rebuilt, &candidates).unwrap(), &on_patched,
                "certain answers patched vs rebuilt {:?}, {} seed {}", mode, name, seed);
            prop_assert_eq!(&engine.certain_of(&loaded, &candidates).unwrap(), &on_patched,
                "certain answers after reload {:?}, {} seed {}", mode, name, seed);
        }
    }
}
