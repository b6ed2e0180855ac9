//! Regenerates every figure, worked example and theorem-level claim of
//!
//! > Wijsen, "Charting the Tractability Frontier of Certain Conjunctive
//! > Query Answering", PODS 2013
//!
//! as machine-checked output. Each section corresponds to one experiment of
//! `EXPERIMENTS.md` (E1–E12); the expected ("paper") value is printed next to
//! the measured one so the two can be diffed at a glance, and the process
//! exits non-zero if any of them differ.
//!
//! Run with `cargo run --release -p cqa-bench --bin experiments`.

use cqa_bench::{micros, scaled_cycle_instance, scaled_instance, time_it};
use cqa_core::answers::certain_answers;
use cqa_core::attack::{AttackGraph, CycleAnalysis};
use cqa_core::classify::{classify, ComplexityClass};
use cqa_core::fo::{certain_rewriting, eval::evaluate_sentence, sql::to_sql};
use cqa_core::reductions::Theorem2Reduction;
use cqa_core::solvers::{
    CertaintyEngine, CertaintySolver, CycleQuerySolver, ExactOracle, RewritingSolver,
    TerminalCycleSolver,
};
use cqa_gen::{figure6_database, q0_instance, random_acyclic_query};
use cqa_prob::bridge::{corollary2_holds, probability_is_one, theorem6_holds};
use cqa_prob::counting::count_satisfying_repairs;
use cqa_prob::eval::{probability_exact, probability_over_repairs, probability_safe};
use cqa_prob::{is_safe, BidDatabase};
use cqa_query::{catalog, eval};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Checks whose measured value differed from the paper's.
static MISMATCHES: AtomicUsize = AtomicUsize::new(0);

fn header(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id}  {title}");
    println!("==================================================================");
}

fn check(label: &str, expected: impl std::fmt::Display, measured: impl std::fmt::Display) {
    let expected = expected.to_string();
    let measured = measured.to_string();
    let status = if expected == measured {
        "ok "
    } else {
        MISMATCHES.fetch_add(1, Ordering::Relaxed);
        "MISMATCH"
    };
    println!("  [{status}] {label:<58} paper: {expected:<18} measured: {measured}");
}

/// E1 — Figure 1 and the Section 1 example.
fn e1() {
    header(
        "E1",
        "Figure 1: conference planning database, 4 repairs, query true in 3",
    );
    let q = catalog::conference().query;
    let db = catalog::conference_database();
    check("number of facts", 6, db.fact_count());
    check("number of blocks", 4, db.block_count());
    check("number of repairs", 4, db.repair_count().unwrap());
    let count = count_satisfying_repairs(&db, &q);
    check("repairs satisfying the query", 3, count.satisfying);
    check(
        "CERTAINTY(q) on Figure 1",
        false,
        CertaintyEngine::new(&q).unwrap().is_certain(&db),
    );
    check(
        "Pr(q) under uniform repairs",
        0.75,
        probability_over_repairs(&db, &q),
    );
}

/// E2 — Figure 2 and Examples 2–4: q1's join tree, closures and attack graph.
fn e2() {
    header(
        "E2",
        "Figure 2 / Examples 2-4: attack graph of q1, closures, weak/strong attacks",
    );
    let q = catalog::q1().query;
    let graph = AttackGraph::build(&q).unwrap();
    let closures = graph.closures();
    let names = ["F = R(u,'a',x)", "G = S(y,x,z)", "H = T(x,y)", "I = P(x,z)"];
    let expected_plus = ["{u}", "{x, z}", "{x, y, z}", "{y}"]; // F, H, I, G reported below in atom order
    let _ = expected_plus;
    let plus_expect = ["u", "y", "x z", "x y z"];
    let boxed_expect = ["u x y z", "x y z", "x y z", "x y z"];
    for atom in 0..4 {
        let plus: Vec<String> = closures
            .plus_vars(atom)
            .iter()
            .map(|v| v.to_string())
            .collect();
        let boxed: Vec<String> = closures
            .boxed_vars(atom)
            .iter()
            .map(|v| v.to_string())
            .collect();
        check(
            &format!("{}^+  ({})", names[atom], "Definition 2"),
            plus_expect[atom],
            plus.join(" "),
        );
        check(
            &format!("{}^⊞ ({})", names[atom], "Definition 5"),
            boxed_expect[atom],
            boxed.join(" "),
        );
    }
    check(
        "attack F -> G exists and is weak",
        "weak",
        graph
            .strength(0, 1)
            .map(|s| s.to_string())
            .unwrap_or_else(|| "absent".into()),
    );
    check(
        "attack G -> F exists and is strong",
        "strong",
        graph
            .strength(1, 0)
            .map(|s| s.to_string())
            .unwrap_or_else(|| "absent".into()),
    );
    let strong_count = graph
        .edges()
        .iter()
        .filter(|e| e.strength == cqa_core::AttackStrength::Strong)
        .count();
    check("number of strong attacks in q1", 1, strong_count);
    let analysis = CycleAnalysis::analyze(&graph);
    check(
        "attack graph of q1 has a strong cycle",
        true,
        analysis.has_strong_cycle(),
    );
    check(
        "classification of q1 (Theorem 2)",
        "coNP-complete",
        classify(&q).unwrap().class,
    );
    println!("\n  attack graph edges:\n{}", indent(&graph.render()));
}

/// E3 — Figure 4 / Example 5.
fn e3() {
    header(
        "E3",
        "Figure 4 / Example 5: all attack cycles weak and terminal => in P (Theorem 3)",
    );
    let q = catalog::fig4().query;
    let graph = AttackGraph::build(&q).unwrap();
    let analysis = CycleAnalysis::analyze(&graph);
    check("number of attack cycles", 3, analysis.cycles().len());
    check("all cycles weak", true, analysis.all_cycles_weak());
    check("all cycles terminal", true, analysis.all_cycles_terminal());
    check(
        "all cycles have length 2 (Lemma 6)",
        true,
        analysis.cycles().iter().all(|c| c.len() == 2),
    );
    check(
        "classification (Theorem 3)",
        "in P (weak terminal cycles, Theorem 3), not FO",
        classify(&q).unwrap().class,
    );
}

/// E4 — Figure 5 / Example 6.
fn e4() {
    header(
        "E4",
        "Figure 5 / Example 6: AC(3) has only weak, non-terminal cycles",
    );
    let q = catalog::ac_k(3).query;
    let graph = AttackGraph::build(&q).unwrap();
    let analysis = CycleAnalysis::analyze(&graph);
    check("every Ri attacks every other atom", true, {
        (0..3).all(|i| (0..4).filter(|&j| j != i).all(|j| graph.attacks(i, j)))
    });
    check("S3 attacks nothing", true, graph.attacked_by(3).is_empty());
    check("all cycles weak", true, analysis.all_cycles_weak());
    check(
        "no cycle terminal",
        true,
        analysis.cycles().iter().all(|c| !c.terminal),
    );
    check(
        "classification (Theorem 4)",
        "in P (AC(3), Theorem 4), not FO",
        classify(&q).unwrap().class,
    );
}

/// E5 — Figures 6 and 7: the worked AC(3) instance.
fn e5() {
    header(
        "E5",
        "Figures 6/7: the AC(3) instance admits falsifying repairs",
    );
    let q = catalog::ac_k(3).query;
    let db = figure6_database();
    check("facts in the Figure 6 instance", 12, db.fact_count());
    check(
        "repairs of the Figure 6 instance",
        8,
        db.repair_count().unwrap(),
    );
    let solver = CycleQuerySolver::new(&q).unwrap();
    let oracle = ExactOracle::new(&q).unwrap();
    check(
        "CERTAINTY(AC(3)) by Theorem 4 algorithm",
        false,
        solver.is_certain(&db),
    );
    check(
        "CERTAINTY(AC(3)) by brute force",
        false,
        oracle.is_certain_bruteforce(&db),
    );
    let falsifying = db
        .repairs()
        .filter(|r| !eval::naive::satisfies(r, &q))
        .count();
    check("falsifying repairs (Figure 7 shows two)", 2, falsifying);
}

/// E6 — the tractability-frontier chart over the query catalog.
fn e6() {
    header(
        "E6",
        "Theorems 1-4: classification of the query catalog (the frontier chart)",
    );
    let expected: &[(&str, &str)] = &[
        ("conference", "first-order expressible"),
        ("path2", "first-order expressible"),
        ("path3", "first-order expressible"),
        ("q1", "coNP-complete"),
        ("q0", "coNP-complete"),
        ("fig4", "in P (weak terminal cycles, Theorem 3), not FO"),
        ("C(2)", "in P (weak terminal cycles, Theorem 3), not FO"),
        ("AC(2)", "in P (AC(2), Theorem 4), not FO"),
        ("AC(3)", "in P (AC(3), Theorem 4), not FO"),
        ("AC(4)", "in P (AC(4), Theorem 4), not FO"),
        ("C(3)", "in P (C(3), Corollary 1)"),
        ("C(4)", "in P (C(4), Corollary 1)"),
    ];
    for (name, want) in expected {
        let entry = catalog::all()
            .into_iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("catalog entry {name}"));
        let got = classify(&entry.query).unwrap().class;
        check(&format!("CERTAINTY({name})"), want, got);
    }
    // Safety (Section 7) alongside, anticipating E10's Theorem 6 check.
    println!("\n  query        safe?   FO-expressible?");
    for entry in catalog::all() {
        if !cqa_query::join_tree::is_acyclic(&entry.query) {
            continue;
        }
        let safe = is_safe(&entry.query);
        let fo = matches!(
            classify(&entry.query).unwrap().class,
            ComplexityClass::FirstOrderExpressible
        );
        println!("  {:<12} {:<7} {}", entry.name, safe, fo);
    }
}

/// E7 — the Theorem 2 reduction.
fn e7() {
    header(
        "E7",
        "Theorem 2: the θ̂ reduction from CERTAINTY(q0) to CERTAINTY(q1)",
    );
    let target = catalog::q1().query;
    let reduction = Theorem2Reduction::new(&target).unwrap();
    let src_oracle = ExactOracle::new(reduction.source_query()).unwrap();
    let tgt_oracle = ExactOracle::new(&target).unwrap();
    let mut agreements = 0;
    let mut total = 0;
    for seed in 0..20 {
        let db0 = q0_instance(seed, 4, 2, 0.7);
        let reduced = reduction.apply(&db0);
        let expected = src_oracle.is_certain(&db0);
        let got = tgt_oracle.is_certain(&reduced);
        total += 1;
        if expected == got {
            agreements += 1;
        }
    }
    check(
        "reduction preserves (non-)certainty on 20 random instances",
        "20/20",
        format!("{agreements}/{total}"),
    );
    // Scaling of the reduction itself (polynomial-time construction).
    for &n in &[50usize, 100, 200] {
        let db0 = q0_instance(1, n, 2, 0.7);
        let (reduced, elapsed) = time_it(|| reduction.apply(&db0));
        println!(
            "  |db0| = {:>5} facts  ->  |db| = {:>6} facts   construction {}",
            db0.fact_count(),
            reduced.fact_count(),
            micros(elapsed)
        );
    }
}

/// E8 — Theorem 3 scaling: polynomial solver vs. exponential baseline.
fn e8() {
    header(
        "E8",
        "Theorem 3: weak terminal cycles in P (fig4 query), vs. brute-force baseline",
    );
    let q = catalog::fig4().query;
    let solver = TerminalCycleSolver::new(&q).unwrap();
    let oracle = ExactOracle::new(&q).unwrap();
    println!("  n(matches)   facts   terminal-cycles    exact-oracle      agree");
    for &n in &[2usize, 4, 8, 16, 32, 64] {
        let db = scaled_instance(&q, n, 42);
        let (a, ta) = time_it(|| solver.is_certain(&db));
        // The oracle is exponential; only run it while the repair space is small.
        if db.repair_count_log2() < 22.0 {
            let (b, tb) = time_it(|| oracle.is_certain(&db));
            println!(
                "  {:>10}   {:>5}   {:>14}   {:>13}   {}",
                n,
                db.fact_count(),
                micros(ta),
                micros(tb),
                a == b
            );
        } else {
            println!(
                "  {:>10}   {:>5}   {:>14}   {:>13}   (skipped: 2^{:.0} repairs)",
                n,
                db.fact_count(),
                micros(ta),
                "-",
                db.repair_count_log2()
            );
        }
    }
    println!("  expected shape: the Theorem 3 solver scales polynomially; the oracle blows up.");
}

/// E9 — Theorem 4 / Corollary 1 scaling.
fn e9() {
    header(
        "E9",
        "Theorem 4 / Corollary 1: AC(k) and C(k) certainty at scale",
    );
    for k in 2..=4usize {
        let ac = catalog::ac_k(k).query;
        let solver = CycleQuerySolver::new(&ac).unwrap();
        for &n in &[10usize, 40, 160] {
            let db = scaled_cycle_instance(k, true, n, 7);
            let (verdict, elapsed) = time_it(|| solver.is_certain(&db));
            println!(
                "  AC({k})  layer size {:>4}  facts {:>6}  certain = {:<5}  {}",
                n,
                db.fact_count(),
                verdict,
                micros(elapsed)
            );
        }
    }
    let c3 = catalog::c_k(3).query;
    let c_solver = CycleQuerySolver::new(&c3).unwrap();
    let oracle = ExactOracle::new(&c3).unwrap();
    let mut agree = 0;
    for seed in 0..15 {
        let db = scaled_cycle_instance(3, false, 3, seed);
        if c_solver.is_certain(&db) == oracle.is_certain(&db) {
            agree += 1;
        }
    }
    check(
        "C(3): Theorem 4 algorithm agrees with the oracle (15 seeds)",
        "15/15",
        format!("{agree}/15"),
    );
}

/// E10 — Section 7: IsSafe, safe-plan evaluation, Theorem 6.
fn e10() {
    header(
        "E10",
        "Section 7: IsSafe, PROBABILITY(q) evaluation, Theorem 6 / Corollary 2",
    );
    let safe_expected: &[(&str, bool)] = &[
        ("conference", true),
        ("path2", false),
        ("q0", false),
        ("q1", false),
        ("AC(3)", false),
        ("fig4", false),
    ];
    for (name, want) in safe_expected {
        let entry = catalog::all()
            .into_iter()
            .find(|e| e.name == *name)
            .unwrap();
        check(&format!("IsSafe({name})"), want, is_safe(&entry.query));
    }
    let mut t6 = true;
    let mut c2 = true;
    for entry in catalog::all() {
        if !cqa_query::join_tree::is_acyclic(&entry.query) {
            continue;
        }
        t6 &= theorem6_holds(&entry.query).unwrap();
        c2 &= corollary2_holds(&entry.query).unwrap();
    }
    check("Theorem 6 (safe => FO) holds on the catalog", true, t6);
    check(
        "Corollary 2 (not FO => unsafe) holds on the catalog",
        true,
        c2,
    );

    // Safe-plan vs. exhaustive evaluation on Figure 1.
    let q = catalog::conference().query;
    let db = catalog::conference_database();
    let bid = BidDatabase::uniform_over_repairs(&db);
    let (exact, t_exact) = time_it(|| probability_exact(&bid, &q));
    let (safe, t_safe) = time_it(|| probability_safe(&bid, &q).unwrap());
    check("Pr(q) on Figure 1 (exhaustive)", 0.75, exact);
    check("Pr(q) on Figure 1 (safe plan)", 0.75, safe);
    // Scaling: the safe plan must keep working where enumeration explodes.
    for &n in &[8usize, 16, 64] {
        let db = scaled_instance(&q, n, 3);
        let bid = BidDatabase::uniform_over_repairs(&db);
        let (p, t) = time_it(|| probability_safe(&bid, &q).unwrap());
        println!(
            "  safe plan, {:>3} match groups ({:>4} facts): Pr = {:.4}   {}  (exhaustive would need 2^{:.0} worlds)",
            n,
            db.fact_count(),
            p,
            micros(t),
            db.repair_count_log2()
        );
    }
    println!(
        "  Figure 1 timings: exhaustive {} vs safe plan {}",
        micros(t_exact),
        micros(t_safe)
    );
}

/// E11 — Proposition 1.
fn e11() {
    header(
        "E11",
        "Proposition 1: Pr(q) = 1  <=>  restriction to full blocks is certain",
    );
    let q = catalog::conference().query;
    let mut agreement = 0;
    let total = 25;
    for seed in 0..total {
        let db = scaled_instance(&q, 4, seed);
        let bid = BidDatabase::uniform_over_repairs(&db);
        let via_prob = (probability_exact(&bid, &q) - 1.0).abs() < 1e-9;
        let via_certainty = probability_is_one(&bid, &q).unwrap();
        if via_prob == via_certainty {
            agreement += 1;
        }
    }
    check(
        "Pr(q)=1 agrees with CERTAINTY on the full-block restriction",
        format!("{total}/{total}"),
        format!("{agreement}/{total}"),
    );
}

/// E12 — attack-graph construction cost and rewriting artifacts.
fn e12() {
    header(
        "E12",
        "Attack-graph construction (Section 4: quadratic time) and FO rewritings",
    );
    let sized_queries = vec![
        catalog::conference(),
        catalog::q1(),
        catalog::fig4(),
        catalog::ac_k(7),
    ];
    for entry in sized_queries {
        let (graph, elapsed) = time_it(|| AttackGraph::build(&entry.query).unwrap());
        println!(
            "  {:<12} {:>2} atoms: {:>3} attacks, built in {}",
            entry.name,
            entry.query.len(),
            graph.edges().len(),
            micros(elapsed)
        );
    }
    for atoms in [3usize, 6] {
        let q = random_acyclic_query(atoms as u64, atoms, 4);
        let (graph, elapsed) = time_it(|| AttackGraph::build(&q).unwrap());
        println!(
            "  random acyclic query with {:>2} atoms: {:>3} attacks, built in {}",
            q.len(),
            graph.edges().len(),
            micros(elapsed)
        );
    }
    let q = catalog::conference().query;
    let rewriting = certain_rewriting(&q).unwrap();
    let db = catalog::conference_database();
    check(
        "FO rewriting of the conference query agrees with the solver",
        RewritingSolver::new(&q).unwrap().is_certain(&db),
        evaluate_sentence(&rewriting, &db),
    );
    println!(
        "\n  certain rewriting of the conference query:\n    {}",
        rewriting.display(q.schema())
    );
    println!(
        "\n  SQL translation:\n    {}",
        to_sql(&rewriting, q.schema()).unwrap()
    );
    // Certain answers for the non-Boolean variant.
    let schema = q.schema().clone();
    let open = cqa_query::ConjunctiveQuery::builder(schema)
        .atom(
            "C",
            [
                cqa_query::Term::var("x"),
                cqa_query::Term::var("y"),
                cqa_query::Term::constant("Rome"),
            ],
        )
        .atom(
            "R",
            [cqa_query::Term::var("x"), cqa_query::Term::constant("A")],
        )
        .free([cqa_query::Variable::new("x")])
        .build()
        .unwrap();
    let sets = certain_answers(&open, &db).unwrap();
    check("certain answers to q(x) on Figure 1", 0, sets.certain.len());
    check(
        "possible answers to q(x) on Figure 1",
        2,
        sets.possible.len(),
    );
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    println!("certainty-rs experiment harness — reproducing Wijsen, PODS 2013");
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
    let mismatches = MISMATCHES.load(Ordering::Relaxed);
    if mismatches > 0 {
        println!("\n{mismatches} check(s) MISMATCH the paper.");
        std::process::exit(1);
    }
    println!("\nAll experiment sections completed, every check matches the paper.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_differing_checks_are_counted() {
        check("agrees", 3, 3);
        check("agrees across types", "0.75", 0.75);
        assert_eq!(MISMATCHES.load(Ordering::Relaxed), 0);
        check("differs", true, false);
        check("differs", "20/20", "19/20");
        assert_eq!(MISMATCHES.load(Ordering::Relaxed), 2);
    }
}
