//! # cqa-gen
//!
//! Seeded workload and instance generators for the `certainty-rs`
//! experiments. The paper has no released datasets (it is a theory paper), so
//! every experiment in `EXPERIMENTS.md` runs on synthetic instances produced
//! here; all generators are deterministic given a seed.
//!
//! * [`UncertainDbGenerator`] — random uncertain databases for an arbitrary
//!   query shape, with tunable block count, block size and join selectivity;
//! * [`cycle_instance`] — k-partite cycle-graph instances for `C(k)` /
//!   `AC(k)` (Theorem 4 / Figure 6 style), with a controllable fraction of
//!   encoded (`S_k`) cycles;
//! * [`q0_instance`] — uncertain instances of the coNP-complete two-atom
//!   query `q0`, used to feed the Theorem 2 reduction;
//! * [`image_instance`] — small unions of overlapping valuation images of
//!   any query, with disagreeing alternatives, for differential tests;
//! * [`random_acyclic_query`] — random acyclic self-join-free queries for
//!   property-based testing of the attack-graph machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cqa_data::{Schema, UncertainDatabase, Value};
use cqa_query::{catalog, Atom, ConjunctiveQuery, Term, Valuation, Variable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for the generic uncertain-database generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Random seed (all output is a deterministic function of the config).
    pub seed: u64,
    /// Number of "match groups": for each group, one full valuation image of
    /// the query is planted, so the query is satisfiable on the database.
    pub matches: usize,
    /// Size of the constant pool per variable (smaller = more collisions and
    /// more key violations).
    pub domain_per_variable: usize,
    /// For every planted fact, how many *alternative* facts with the same key
    /// but perturbed non-key values to add (0 = consistent database).
    pub extra_block_facts: usize,
    /// Probability that an alternative fact re-uses a planted value (making
    /// it join) rather than a fresh "noise" value.
    pub alternative_join_probability: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0,
            matches: 10,
            domain_per_variable: 8,
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        }
    }
}

/// Generates uncertain databases whose shape follows a given query: planted
/// valuation images plus per-block alternatives that violate the primary
/// keys.
pub struct UncertainDbGenerator {
    query: ConjunctiveQuery,
    config: GeneratorConfig,
}

impl UncertainDbGenerator {
    /// Creates a generator for the given query.
    pub fn new(query: &ConjunctiveQuery, config: GeneratorConfig) -> Self {
        UncertainDbGenerator {
            query: query.clone(),
            config,
        }
    }

    /// Generates one database.
    pub fn generate(&self) -> UncertainDatabase {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let schema = self.query.schema().clone();
        let mut db = UncertainDatabase::new(schema.clone());
        let vars: Vec<Variable> = self.query.vars().into_iter().collect();
        for _ in 0..self.config.matches {
            // One valuation per match group.
            let valuation: Vec<(Variable, Value)> = vars
                .iter()
                .map(|v| {
                    (
                        v.clone(),
                        Value::str(format!(
                            "{}#{}",
                            v,
                            rng.gen_range(0..self.config.domain_per_variable.max(1))
                        )),
                    )
                })
                .collect();
            let theta = cqa_query::Valuation::from_pairs(valuation);
            for atom in self.query.atoms() {
                let fact = theta.apply_atom(atom).expect("valuation is total");
                let _ = db.insert(fact.clone());
                // Alternatives: same key, perturbed non-key values.
                let key_len = schema.relation(atom.relation()).key_len();
                for alt in 0..self.config.extra_block_facts {
                    let values: Vec<Value> = fact
                        .values()
                        .iter()
                        .enumerate()
                        .map(|(i, v)| {
                            if i < key_len {
                                v.clone()
                            } else if rng.gen_bool(self.config.alternative_join_probability) {
                                // Reuse another constant from the variable pool
                                // so the alternative still joins somewhere.
                                Value::str(format!(
                                    "{}#{}",
                                    vars[i % vars.len().max(1)],
                                    rng.gen_range(0..self.config.domain_per_variable.max(1))
                                ))
                            } else {
                                Value::str(format!("noise#{alt}#{}", rng.gen_range(0..1_000_000)))
                            }
                        })
                        .collect();
                    let _ = db.insert(cqa_data::Fact::new(atom.relation(), values));
                }
            }
        }
        db
    }
}

/// Parameters for [`cycle_instance`].
#[derive(Clone, Debug)]
pub struct CycleInstanceConfig {
    /// Random seed.
    pub seed: u64,
    /// Number of constants per cycle position (the paper's `type(x_i)` sets).
    pub nodes_per_layer: usize,
    /// Out-degree of every constant (block size of the `R_i` relations).
    pub edges_per_node: usize,
    /// Fraction of the k-cycles of the generated graph that are encoded in
    /// `S_k` (ignored for `C(k)` instances, which have no `S_k`).
    pub encoded_cycle_fraction: f64,
}

impl Default for CycleInstanceConfig {
    fn default() -> Self {
        CycleInstanceConfig {
            seed: 0,
            nodes_per_layer: 10,
            edges_per_node: 2,
            encoded_cycle_fraction: 0.5,
        }
    }
}

/// Generates a `C(k)` or `AC(k)` instance (Figure 6 style): a k-partite
/// directed graph given by the `R_i` relations, plus — when `with_s_atom` —
/// an `S_k` relation encoding a fraction of its k-cycles.
pub fn cycle_instance(
    k: usize,
    with_s_atom: bool,
    config: &CycleInstanceConfig,
) -> UncertainDatabase {
    assert!(k >= 2);
    let entry = if with_s_atom {
        catalog::ac_k(k)
    } else {
        catalog::c_k(k)
    };
    let schema = entry.query.schema().clone();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = UncertainDatabase::new(schema);
    let name = |layer: usize, i: usize| format!("n{layer}_{i}");

    // Edges of the k-partite graph.
    for layer in 1..=k {
        let next = if layer == k { 1 } else { layer + 1 };
        for i in 0..config.nodes_per_layer {
            for _ in 0..config.edges_per_node.max(1) {
                let j = rng.gen_range(0..config.nodes_per_layer);
                db.insert_values(&format!("R{layer}"), [name(layer, i), name(next, j)])
                    .unwrap();
            }
        }
    }

    if with_s_atom {
        // Enumerate the k-cycles of the generated graph by walking layer by
        // layer, and encode a random fraction of them in S_k.
        let adjacency: Vec<Vec<Vec<usize>>> = (1..=k)
            .map(|layer| {
                let rel = db.schema().relation_id(&format!("R{layer}")).unwrap();
                let mut adj = vec![Vec::new(); config.nodes_per_layer];
                for fact in db.relation_facts(rel).collect::<Vec<_>>() {
                    let from = fact.value(0).to_string();
                    let to = fact.value(1).to_string();
                    let from_idx: usize = from.rsplit('_').next().unwrap().parse().unwrap();
                    let to_idx: usize = to.rsplit('_').next().unwrap().parse().unwrap();
                    adj[from_idx].push(to_idx);
                }
                adj
            })
            .collect();
        // Depth-first walk over layers collecting closed walks of length k.
        fn walk(
            adjacency: &[Vec<Vec<usize>>],
            layer: usize,
            start: usize,
            current: usize,
            path: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if layer == adjacency.len() {
                if current == start {
                    out.push(path.clone());
                }
                return;
            }
            for &next in &adjacency[layer][current] {
                path.push(next);
                walk(adjacency, layer + 1, start, next, path, out);
                path.pop();
            }
        }
        let mut cycles = Vec::new();
        for start in 0..config.nodes_per_layer {
            let mut path = vec![start];
            walk(&adjacency, 1, start, start, &mut path, &mut cycles);
        }
        let s_name = format!("S{k}");
        for cycle in cycles {
            if rng.gen_bool(config.encoded_cycle_fraction.clamp(0.0, 1.0)) {
                let values: Vec<String> = (0..k).map(|i| name(i + 1, cycle[i])).collect();
                db.insert_values(&s_name, values).unwrap();
            }
        }
    }
    db
}

/// Generates an uncertain instance for the coNP-complete two-atom query `q0`
/// (used as the source of the Theorem 2 reduction): `pairs` R0-blocks, each
/// with `block_size` alternatives, and matching S0 facts for a random subset.
pub fn q0_instance(seed: u64, pairs: usize, block_size: usize, coverage: f64) -> UncertainDatabase {
    let q0 = catalog::q0().query;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = UncertainDatabase::new(q0.schema().clone());
    for i in 0..pairs {
        let x = format!("x{i}");
        for j in 0..block_size.max(1) {
            let y = format!("y{i}_{j}");
            db.insert_values("R0", [x.clone(), y.clone()]).unwrap();
            if rng.gen_bool(coverage.clamp(0.0, 1.0)) {
                // A matching S0 fact; its key (y, z) is private to this R0
                // fact, so purification cannot cascade across blocks.
                let z = format!("z{i}_{j}");
                db.insert_values("S0", [y.clone(), z.clone(), x.clone()])
                    .unwrap();
                // Occasionally add a competing fact in the same S0 block that
                // points at a *different* x, creating uncertainty on the S0 side.
                if rng.gen_bool(0.3) {
                    let other = format!("x{}", rng.gen_range(0..pairs.max(1)));
                    db.insert_values("S0", [y, z, other]).unwrap();
                }
            }
        }
    }
    db
}

/// Generates an uncertain instance made of valuation images of `query`:
/// the union of `images` images `θ(q)`, each `θ` drawing every variable
/// from one shared domain of `domain` values. Then each image gets one
/// alternative in the block of one of its facts `θ(F)`: the fact `θ'(F)`
/// for a `θ'` that keeps `θ` on the key variables of `F` and draws every
/// other variable from the same domain. Half of the alternatives are
/// completed to the whole image `θ'(q)`, so they survive purification and
/// can be forced; the others are falsifying when they join nothing. With
/// a small domain the images overlap, so the instances reach both verdicts
/// of every certainty solver while staying small enough to enumerate
/// every repair.
pub fn image_instance(
    query: &ConjunctiveQuery,
    seed: u64,
    images: usize,
    domain: usize,
) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = query.schema().clone();
    let vars: Vec<Variable> = query.vars().into_iter().collect();
    let value = |rng: &mut StdRng| Value::str(format!("d{}", rng.gen_range(0..domain.max(1))));
    let mut db = UncertainDatabase::new(schema.clone());
    let insert_image = |db: &mut UncertainDatabase, theta: &Valuation| {
        for atom in query.atoms() {
            let _ = db.insert(theta.apply_atom(atom).expect("valuation is total"));
        }
    };
    let thetas: Vec<Valuation> = (0..images)
        .map(|_| {
            let theta = Valuation::from_pairs(vars.iter().map(|v| (v.clone(), value(&mut rng))));
            insert_image(&mut db, &theta);
            theta
        })
        .collect();
    if query.is_empty() {
        return db;
    }
    for theta in thetas {
        let atom = query.atom(rng.gen_range(0..query.len()));
        let key = atom.key_vars(&schema);
        let other = Valuation::from_pairs(vars.iter().map(|v| {
            let kept = (key.contains(v)).then(|| theta.get(v).cloned()).flatten();
            (v.clone(), kept.unwrap_or_else(|| value(&mut rng)))
        }));
        let _ = db.insert(other.apply_atom(atom).expect("valuation is total"));
        if rng.gen_bool(0.5) {
            insert_image(&mut db, &other);
        }
    }
    db
}

/// The Figure 6 database (the worked `AC(3)` instance of the paper).
pub fn figure6_database() -> UncertainDatabase {
    let schema = catalog::ac_k(3).query.schema().clone();
    let mut db = UncertainDatabase::new(schema);
    for (r, a, b) in [
        ("R1", "a", "b"),
        ("R1", "a", "b'"),
        ("R1", "a'", "b"),
        ("R2", "b", "c"),
        ("R2", "b", "c'"),
        ("R2", "b'", "c"),
        ("R3", "c", "a"),
        ("R3", "c", "a'"),
        ("R3", "c'", "a"),
    ] {
        db.insert_values(r, [a, b]).unwrap();
    }
    for (a, b, c) in [("a", "b", "c'"), ("a", "b'", "c"), ("a'", "b", "c")] {
        db.insert_values("S3", [a, b, c]).unwrap();
    }
    db
}

/// Generates a random acyclic, self-join-free Boolean conjunctive query over
/// a fresh schema — used by the property tests of the attack-graph machinery.
///
/// The construction grows a random join tree: atom `i > 0` shares a random
/// non-empty subset of variables with a previously created atom, plus fresh
/// private variables, which guarantees acyclicity by construction.
pub fn random_acyclic_query(seed: u64, atoms: usize, max_arity: usize) -> ConjunctiveQuery {
    let atoms = atoms.clamp(1, 8);
    let max_arity = max_arity.clamp(1, 5);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schema = Schema::new();
    let mut atom_vars: Vec<Vec<Variable>> = Vec::new();
    let mut specs: Vec<(String, Vec<Variable>, usize)> = Vec::new();
    let mut fresh = 0usize;
    for i in 0..atoms {
        let arity = rng.gen_range(1..=max_arity);
        let key_len = rng.gen_range(1..=arity);
        let mut vars: Vec<Variable> = Vec::new();
        if i > 0 {
            // Borrow a connected, non-empty prefix of some earlier atom's variables.
            let parent = &atom_vars[rng.gen_range(0..i)];
            let how_many = rng.gen_range(1..=parent.len().min(arity));
            vars.extend(parent.iter().take(how_many).cloned());
        }
        while vars.len() < arity {
            vars.push(Variable::new(format!("v{fresh}")));
            fresh += 1;
        }
        let name = format!("Rel{i}");
        schema.add_relation(&name, arity, key_len).unwrap();
        atom_vars.push(vars.clone());
        specs.push((name, vars, arity));
    }
    let schema: Arc<Schema> = schema.into_shared();
    let atoms: Vec<Atom> = specs
        .into_iter()
        .map(|(name, vars, _)| {
            let rel = schema.relation_id(&name).unwrap();
            Atom::new(rel, vars.into_iter().map(Term::Var).collect::<Vec<_>>())
        })
        .collect();
    ConjunctiveQuery::boolean(schema, atoms).expect("generated query is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::join_tree;

    #[test]
    fn generator_is_deterministic_and_satisfiable() {
        let q = catalog::conference().query;
        let config = GeneratorConfig {
            seed: 7,
            matches: 5,
            ..GeneratorConfig::default()
        };
        let a = UncertainDbGenerator::new(&q, config.clone()).generate();
        let b = UncertainDbGenerator::new(&q, config).generate();
        assert_eq!(a, b);
        assert!(a.fact_count() > 0);
        assert!(cqa_query::eval::naive::satisfies(&a, &q));
    }

    #[test]
    fn extra_block_facts_create_inconsistency() {
        // Planted matches alone may already collide on keys (that is the
        // point of an uncertain database), but adding per-block alternatives
        // must strictly enlarge blocks and violate keys.
        let q = catalog::fo_path2().query;
        let base = UncertainDbGenerator::new(
            &q,
            GeneratorConfig {
                seed: 1,
                extra_block_facts: 0,
                ..GeneratorConfig::default()
            },
        )
        .generate();
        let inconsistent = UncertainDbGenerator::new(
            &q,
            GeneratorConfig {
                seed: 1,
                extra_block_facts: 2,
                ..GeneratorConfig::default()
            },
        )
        .generate();
        assert!(!inconsistent.is_consistent());
        assert!(inconsistent.fact_count() > base.fact_count());
        assert!(inconsistent.repair_count_log2() > base.repair_count_log2());
    }

    #[test]
    fn cycle_instances_have_the_right_relations() {
        let db = cycle_instance(3, true, &CycleInstanceConfig::default());
        let schema = db.schema();
        for name in ["R1", "R2", "R3", "S3"] {
            assert!(schema.relation_id(name).is_some(), "{name}");
        }
        let r1 = schema.relation_id("R1").unwrap();
        assert!(db.relation_facts(r1).count() >= 10);
        // C(k) instances have no S relation facts.
        let db_c = cycle_instance(3, false, &CycleInstanceConfig::default());
        assert!(db_c.schema().relation_id("S3").is_none());
    }

    #[test]
    fn figure6_matches_the_paper() {
        let db = figure6_database();
        assert_eq!(db.fact_count(), 12);
        assert_eq!(db.repair_count(), Some(8));
    }

    #[test]
    fn q0_instances_are_deterministic() {
        let a = q0_instance(3, 10, 2, 0.7);
        let b = q0_instance(3, 10, 2, 0.7);
        assert_eq!(a, b);
        assert!(a.fact_count() >= 20);
    }

    #[test]
    fn random_queries_are_acyclic_and_self_join_free() {
        for seed in 0..30 {
            let q = random_acyclic_query(seed, 1 + (seed as usize % 6), 4);
            assert!(q.require_self_join_free().is_ok());
            assert!(join_tree::is_acyclic(&q), "seed {seed}: {q}");
            assert!(cqa_query::gyo::is_acyclic_gyo(&q), "seed {seed}: {q}");
        }
    }
}
