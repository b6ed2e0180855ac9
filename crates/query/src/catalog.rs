//! A catalog of the queries used in the paper.
//!
//! Every worked example, figure and query family of the paper is available
//! here as a ready-made [`ConjunctiveQuery`] (with its schema), so that the
//! experiment harness, the examples and the tests all speak about exactly the
//! same objects:
//!
//! * [`conference`] — the introduction's conference-planning query over the
//!   Figure 1 database;
//! * [`q1`] — the query of Figure 2 / Examples 2–4;
//! * [`q0`] — the two-atom query `{R0(x, y), S0(y, z, x)}` whose
//!   `CERTAINTY` problem is coNP-complete (used in the proof of Theorem 2);
//! * [`fig4`] — the Example 5 query whose attack graph has three weak
//!   terminal cycles (Figure 4);
//! * [`c_k`] / [`ac_k`] — the cycle query families of Definition 8
//!   (Figure 5 shows `AC(3)`);
//! * a few auxiliary queries (paths, Cartesian products, …) used by tests
//!   and benchmarks.

use crate::{ConjunctiveQuery, Term, Variable};
use cqa_data::Schema;

/// A named query from the paper, with a human-readable description.
#[derive(Clone, Debug)]
pub struct CatalogQuery {
    /// Short name, e.g. `"q1"` or `"AC(3)"`.
    pub name: String,
    /// Where the query appears in the paper and what it illustrates.
    pub description: String,
    /// The query itself (its schema is reachable via [`ConjunctiveQuery::schema`]).
    pub query: ConjunctiveQuery,
}

fn v(name: &str) -> Term {
    Term::var(name)
}

/// The introduction's query over the Figure 1 conference database:
/// `∃x∃y (C(x, y, 'Rome') ∧ R(x, 'A'))` — "Will Rome host some A conference?".
pub fn conference() -> CatalogQuery {
    let schema = Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
        .expect("valid schema")
        .into_shared();
    let query = ConjunctiveQuery::builder(schema)
        .atom("C", [v("x"), v("y"), Term::constant("Rome")])
        .atom("R", [v("x"), Term::constant("A")])
        .build()
        .expect("valid query");
    CatalogQuery {
        name: "conference".into(),
        description: "Figure 1 / Section 1: will Rome host some A conference?".into(),
        query,
    }
}

/// The Figure 1 conference-planning database that goes with [`conference`].
pub fn conference_database() -> cqa_data::UncertainDatabase {
    let schema = conference().query.schema().clone();
    let mut db = cqa_data::UncertainDatabase::new(schema);
    db.insert_values("C", ["PODS", "2016", "Rome"]).unwrap();
    db.insert_values("C", ["PODS", "2016", "Paris"]).unwrap();
    db.insert_values("C", ["KDD", "2017", "Rome"]).unwrap();
    db.insert_values("R", ["PODS", "A"]).unwrap();
    db.insert_values("R", ["KDD", "A"]).unwrap();
    db.insert_values("R", ["KDD", "B"]).unwrap();
    db
}

/// The query `q1 = {R(u, 'a', x), S(y, x, z), T(x, y), P(x, z)}` of Figure 2
/// and Examples 2–4. Its attack graph has a strong cycle, so
/// `CERTAINTY(q1)` is coNP-complete (Theorem 2).
pub fn q1() -> CatalogQuery {
    let schema = Schema::from_relations([("R", 3, 1), ("S", 3, 1), ("T", 2, 1), ("P", 2, 1)])
        .expect("valid schema")
        .into_shared();
    let query = ConjunctiveQuery::builder(schema)
        .atom("R", [v("u"), Term::constant("a"), v("x")])
        .atom("S", [v("y"), v("x"), v("z")])
        .atom("T", [v("x"), v("y")])
        .atom("P", [v("x"), v("z")])
        .build()
        .expect("valid query");
    CatalogQuery {
        name: "q1".into(),
        description: "Figure 2 / Examples 2-4: attack graph with a strong cycle (coNP-complete)"
            .into(),
        query,
    }
}

/// The query `q0 = {R0(x, y), S0(y, z, x)}` with signatures `[2,1]` and
/// `[3,2]`, used as the coNP-hard seed of the Theorem 2 reduction
/// (its hardness is due to Kolaitis and Pema).
pub fn q0() -> CatalogQuery {
    let schema = Schema::from_relations([("R0", 2, 1), ("S0", 3, 2)])
        .expect("valid schema")
        .into_shared();
    let query = ConjunctiveQuery::builder(schema)
        .atom("R0", [v("x"), v("y")])
        .atom("S0", [v("y"), v("z"), v("x")])
        .build()
        .expect("valid query");
    CatalogQuery {
        name: "q0".into(),
        description: "Section 5: the two-atom coNP-complete query {R0(x,y), S0(y,z,x)}".into(),
        query,
    }
}

/// The Example 5 / Figure 4 query
/// `{R1(x,u1,u2,z), R2(x,u2,u1,z), R3(x,y,u3,u4), R4(x,y,u4,u3), R5(y,u5,u6), R6(y,u6,u5)}`
/// whose attack graph consists of three weak **terminal** cycles, so
/// `CERTAINTY` is in P (Theorem 3) but not first-order expressible.
///
/// The primary keys (underlines in the paper's figure) are chosen so that the
/// claims of Example 5 hold: `R1`/`R2` have key length 2, `R3`/`R4` key
/// length 3, `R5`/`R6` key length 2; `cqa-core`'s tests verify the resulting
/// attack graph shape.
pub fn fig4() -> CatalogQuery {
    let schema = Schema::from_relations([
        ("R1", 4, 2),
        ("R2", 4, 2),
        ("R3", 4, 3),
        ("R4", 4, 3),
        ("R5", 3, 2),
        ("R6", 3, 2),
    ])
    .expect("valid schema")
    .into_shared();
    let query = ConjunctiveQuery::builder(schema)
        .atom("R1", [v("x"), v("u1"), v("u2"), v("z")])
        .atom("R2", [v("x"), v("u2"), v("u1"), v("z")])
        .atom("R3", [v("x"), v("y"), v("u3"), v("u4")])
        .atom("R4", [v("x"), v("y"), v("u4"), v("u3")])
        .atom("R5", [v("y"), v("u5"), v("u6")])
        .atom("R6", [v("y"), v("u6"), v("u5")])
        .build()
        .expect("valid query");
    CatalogQuery {
        name: "fig4".into(),
        description: "Figure 4 / Example 5: three weak terminal attack cycles; in P but not FO"
            .into(),
        query,
    }
}

/// The cycle query `C(k) = {R1(x1,x2), ..., Rk-1(xk-1,xk), Rk(xk,x1)}` of
/// Definition 8 (all signatures `[2,1]`). Acyclic iff `k = 2`;
/// `CERTAINTY(C(k))` is in P for every `k >= 2` (Corollary 1).
///
/// # Panics
/// Panics if `k < 2`.
pub fn c_k(k: usize) -> CatalogQuery {
    assert!(k >= 2, "C(k) is defined for k >= 2");
    let mut schema = Schema::new();
    for i in 1..=k {
        schema
            .add_relation(format!("R{i}"), 2, 1)
            .expect("distinct relation names");
    }
    let schema = schema.into_shared();
    let mut builder = ConjunctiveQuery::builder(schema);
    for i in 1..=k {
        let next = if i == k { 1 } else { i + 1 };
        builder = builder.atom(
            &format!("R{i}"),
            [
                Term::Var(Variable::indexed("x", i)),
                Term::Var(Variable::indexed("x", next)),
            ],
        );
    }
    CatalogQuery {
        name: format!("C({k})"),
        description: format!(
            "Definition 8: cycle query with {k} binary relations; in P (Corollary 1)"
        ),
        query: builder.build().expect("valid query"),
    }
}

/// The query `AC(k) = C(k) ∪ {Sk(x1, ..., xk)}` of Definition 8, where `Sk`
/// is all-key. Acyclic for every `k`; its attack graph has only weak,
/// non-terminal cycles (Figure 5 shows `AC(3)`), and `CERTAINTY(AC(k))` is in
/// P by Theorem 4.
///
/// # Panics
/// Panics if `k < 2`.
pub fn ac_k(k: usize) -> CatalogQuery {
    assert!(k >= 2, "AC(k) is defined for k >= 2");
    let mut schema = Schema::new();
    for i in 1..=k {
        schema
            .add_relation(format!("R{i}"), 2, 1)
            .expect("distinct relation names");
    }
    schema
        .add_relation(format!("S{k}"), k, k)
        .expect("distinct relation names");
    let schema = schema.into_shared();
    let mut builder = ConjunctiveQuery::builder(schema);
    for i in 1..=k {
        let next = if i == k { 1 } else { i + 1 };
        builder = builder.atom(
            &format!("R{i}"),
            [
                Term::Var(Variable::indexed("x", i)),
                Term::Var(Variable::indexed("x", next)),
            ],
        );
    }
    let all_vars: Vec<Term> = (1..=k)
        .map(|i| Term::Var(Variable::indexed("x", i)))
        .collect();
    builder = builder.atom(&format!("S{k}"), all_vars);
    CatalogQuery {
        name: format!("AC({k})"),
        description: format!(
            "Definition 8: C({k}) plus the all-key atom S{k}; weak non-terminal cycles, in P (Theorem 4)"
        ),
        query: builder.build().expect("valid query"),
    }
}

/// A simple path query `{R(x, y), S(y, z)}` whose attack graph is acyclic, so
/// `CERTAINTY` is first-order expressible (Theorem 1). Used as the baseline
/// "easy" query in benchmarks and examples.
pub fn fo_path2() -> CatalogQuery {
    let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
        .expect("valid schema")
        .into_shared();
    let query = ConjunctiveQuery::builder(schema)
        .atom("R", [v("x"), v("y")])
        .atom("S", [v("y"), v("z")])
        .build()
        .expect("valid query");
    CatalogQuery {
        name: "path2".into(),
        description: "Acyclic attack graph: {R(x;y), S(y;z)} is first-order rewritable".into(),
        query,
    }
}

/// A three-atom chain `{R(x, y), S(y, z), T(z, w)}`, also first-order
/// rewritable; exercises deeper rewriting recursion.
pub fn fo_path3() -> CatalogQuery {
    let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1), ("T", 2, 1)])
        .expect("valid schema")
        .into_shared();
    let query = ConjunctiveQuery::builder(schema)
        .atom("R", [v("x"), v("y")])
        .atom("S", [v("y"), v("z")])
        .atom("T", [v("z"), v("w")])
        .build()
        .expect("valid query");
    CatalogQuery {
        name: "path3".into(),
        description: "Three-atom chain with acyclic attack graph (first-order rewritable)".into(),
        query,
    }
}

/// The two-atom query `{R(x, y), S(y, x)}` = `C(2)`: its attack graph is a
/// single weak (terminal) cycle, so `CERTAINTY` is in P but **not**
/// first-order expressible — the first such query identified in the
/// literature (see Section 2).
pub fn c2_swap() -> CatalogQuery {
    let mut c = c_k(2);
    c.name = "C(2)".into();
    c.description =
        "Wijsen 2010: in P but not first-order expressible (weak terminal 2-cycle)".into();
    c
}

/// Every catalog query, for exhaustive sweeps in tests, benchmarks and the
/// experiment harness.
pub fn all() -> Vec<CatalogQuery> {
    vec![
        conference(),
        q1(),
        q0(),
        fig4(),
        c2_swap(),
        c_k(3),
        c_k(4),
        ac_k(2),
        ac_k(3),
        ac_k(4),
        fo_path2(),
        fo_path3(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_tree::is_acyclic;

    #[test]
    fn catalog_queries_are_well_formed() {
        for entry in all() {
            assert!(!entry.name.is_empty());
            assert!(entry.query.require_boolean().is_ok(), "{}", entry.name);
            assert!(
                entry.query.require_self_join_free().is_ok(),
                "{} must be self-join free",
                entry.name
            );
        }
    }

    #[test]
    fn acyclicity_matches_the_paper() {
        assert!(is_acyclic(&conference().query));
        assert!(is_acyclic(&q1().query));
        assert!(is_acyclic(&q0().query));
        assert!(is_acyclic(&fig4().query));
        // C(2) is acyclic, C(k) for k >= 3 is cyclic (Section 6.2).
        assert!(is_acyclic(&c_k(2).query));
        assert!(!is_acyclic(&c_k(3).query));
        assert!(!is_acyclic(&c_k(5).query));
        // AC(k) is acyclic for every k (the Sk atom contains all variables).
        for k in 2..=5 {
            assert!(is_acyclic(&ac_k(k).query), "AC({k})");
        }
    }

    #[test]
    fn ck_and_ack_have_the_right_shape() {
        let c4 = c_k(4).query;
        assert_eq!(c4.len(), 4);
        assert_eq!(c4.vars().len(), 4);
        let ac4 = ac_k(4).query;
        assert_eq!(ac4.len(), 5);
        assert_eq!(ac4.vars().len(), 4);
        // The Sk atom is all-key.
        let sk = ac4.atom(4);
        assert!(ac4.schema().relation(sk.relation()).is_all_key());
    }

    #[test]
    fn conference_database_matches_figure1() {
        let db = conference_database();
        assert_eq!(db.fact_count(), 6);
        assert_eq!(db.repair_count(), Some(4));
        assert!(crate::eval::naive::satisfies(&db, &conference().query));
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn ck_requires_k_at_least_two() {
        let _ = c_k(1);
    }
}
