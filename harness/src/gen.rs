//! Seeded input generators: the `path3` database family, the two-family
//! cycle instance, and the read / write op streams.
//!
//! Everything here is a pure function of a [`Rng`], so one `--seed` gives
//! byte-identical CQDB files and op streams. Constants are protocol-safe
//! (`x17`, `noise4711`): `cqa-gen` spells its constants with `#`, the line
//! protocol's comment delimiter, so its instances cannot be written or
//! queried over the wire.

use crate::rng::{Rng, Zipf};
use cqa_data::{Schema, UncertainDatabase};
use std::collections::VecDeque;

/// A generated database with the schema-only `.cqa` text `certainty serve`
/// needs beside the `.cqdb`, and the block keys the write stream spoils.
pub struct Instance {
    pub schema_text: String,
    pub db: UncertainDatabase,
    /// Per writable relation: its name and the primary keys of its blocks in
    /// first-insertion order (empty for the read-only cycle instance).
    pub keys: Vec<(&'static str, Vec<String>)>,
    /// Size of the per-variable constant pool (`x0..x<domain>` and so on).
    pub domain: usize,
}

/// Builds the schema text and the empty database for `(name, arity,
/// key_len)` relation specs.
fn empty_instance(relations: &[(&'static str, usize, usize)]) -> (String, UncertainDatabase) {
    let mut text = String::new();
    for &(name, arity, key_len) in relations {
        let columns: Vec<String> = (0..arity)
            .map(|i| format!("c{i}{}", if i < key_len { "*" } else { "" }))
            .collect();
        text.push_str(&format!("relation {name}({})\n", columns.join(", ")));
    }
    let schema = Schema::from_relations(relations.iter().copied())
        .expect("the harness's relation specs are well-formed")
        .into_shared();
    (text, UncertainDatabase::new(schema))
}

/// The `path3` family: relations `R(x*,y) S(y*,z) T(z*,w)`, `n` planted
/// match groups over a constant pool of `n/2` per variable, and one
/// key-violating alternative per planted fact — half of them re-join
/// elsewhere, half are noise. `n = 2200` gives ≈13k facts, `n = 22000`
/// ≈130k (the shape of `cqa_bench::scaled_instance`).
pub fn path3(n: usize, rng: &mut Rng) -> Instance {
    const RELATIONS: [(&str, usize, usize); 3] = [("R", 2, 1), ("S", 2, 1), ("T", 2, 1)];
    const VARS: [&str; 4] = ["x", "y", "z", "w"];
    let (schema_text, mut db) = empty_instance(&RELATIONS);
    let domain = (n / 2).max(4);
    let mut keys: Vec<(&'static str, Vec<String>)> =
        RELATIONS.iter().map(|r| (r.0, Vec::new())).collect();
    for _ in 0..n {
        let picks: Vec<usize> = (0..4).map(|_| rng.below(domain)).collect();
        for (rel, (name, _, _)) in RELATIONS.iter().enumerate() {
            let key = format!("{}{}", VARS[rel], picks[rel]);
            let value = format!("{}{}", VARS[rel + 1], picks[rel + 1]);
            let alternative = if rng.chance(0.5) {
                format!("{}{}", VARS[rel + 1], rng.below(domain))
            } else {
                format!("noise{}", rng.below(1_000_000))
            };
            if db
                .block_with_key(db.schema().require(name).unwrap(), &[key.as_str().into()])
                .is_none()
            {
                keys[rel].1.push(key.clone());
            }
            for non_key in [value, alternative] {
                db.insert_values(name, [key.clone(), non_key])
                    .expect("generated facts match the schema");
            }
        }
    }
    Instance {
        schema_text,
        db,
        keys,
        domain,
    }
}

/// The cycle instance: two relation families over 3-partite random graphs
/// of `nodes` constants per layer and 2 edges per node.
///
/// * `R1,R2,R3` (+ the all-key `S3` encoding 60% of the graph's 3-cycles)
///   carry one **planted consistent 3-cycle** in a component of its own,
///   encoded in `S3`: every repair contains it, so `C(3)` and `AC(3)` over
///   this family are *certain*.
/// * `Q1,Q2,Q3` carry no planted cycle; the caller checks the verdict is
///   *not certain* and redraws otherwise (see `workloads`).
pub fn cycle(nodes: usize, rng: &mut Rng) -> Instance {
    const RELATIONS: [(&str, usize, usize); 7] = [
        ("R1", 2, 1),
        ("R2", 2, 1),
        ("R3", 2, 1),
        ("S3", 3, 3),
        ("Q1", 2, 1),
        ("Q2", 2, 1),
        ("Q3", 2, 1),
    ];
    const FAMILIES: [(&str, [&str; 3]); 2] = [("R", ["R1", "R2", "R3"]), ("Q", ["Q1", "Q2", "Q3"])];
    const LAYERS: [&str; 3] = ["a", "b", "c"];
    let (schema_text, mut db) = empty_instance(&RELATIONS);
    let mut insert = |name: &str, values: Vec<String>| {
        db.insert_values(name, values)
            .expect("generated facts match the schema");
    };
    for (family, relations) in FAMILIES {
        let node = |layer: usize, i: usize| format!("{family}{}{i}", LAYERS[layer % 3]);
        // adjacency[layer][node] = successors in the next layer.
        let mut adjacency = vec![vec![Vec::new(); nodes]; 3];
        for (layer, name) in relations.iter().enumerate() {
            for (from, successors) in adjacency[layer].iter_mut().enumerate() {
                for _ in 0..2 {
                    let to = rng.below(nodes);
                    successors.push(to);
                    insert(name, vec![node(layer, from), node(layer + 1, to)]);
                }
            }
        }
        if family == "R" {
            for a in 0..nodes {
                for &b in &adjacency[0][a] {
                    for &c in &adjacency[1][b] {
                        if adjacency[2][c].contains(&a) && rng.chance(0.6) {
                            insert("S3", vec![node(0, a), node(1, b), node(2, c)]);
                        }
                    }
                }
            }
        }
    }
    let planted = |layer: usize| format!("planted{}", LAYERS[layer % 3]);
    for (layer, name) in FAMILIES[0].1.iter().enumerate() {
        insert(name, vec![planted(layer), planted(layer + 1)]);
    }
    insert("S3", (0..3).map(planted).collect());
    Instance {
        schema_text,
        db,
        keys: Vec::new(),
        domain: nodes,
    }
}

/// One read request class: a query line with at most one `{k}` slot that
/// the stream fills with `<key_prefix><k>`.
#[derive(Clone, Copy, Debug)]
pub struct ReadTemplate {
    /// The response name (the query head's name).
    pub name: &'static str,
    pub pattern: &'static str,
}

impl ReadTemplate {
    pub fn render(&self, k: usize) -> String {
        self.pattern.replace("{k}", &k.to_string())
    }

    pub fn is_parameterized(&self) -> bool {
        self.pattern.contains("{k}")
    }
}

/// `point_13k`'s (and the churn reader's) three point-read templates.
pub const POINT_TEMPLATES: [ReadTemplate; 3] = [
    ReadTemplate {
        name: "p",
        pattern: "certain p :- R(\"x{k}\", y), S(y, z), T(z, w)",
    },
    ReadTemplate {
        name: "p2",
        pattern: "p2(z) :- R(\"x{k}\", y), S(y, z)",
    },
    ReadTemplate {
        name: "m",
        pattern: "certain m :- T(\"z{k}\", w)",
    },
];

/// `scan_130k`'s four whole-relation templates; index 1 (`q`, open
/// `path3`) is the heaviest.
pub const SCAN_TEMPLATES: [ReadTemplate; 4] = [
    ReadTemplate {
        name: "b",
        pattern: "certain b :- R(x, y), S(y, z), T(z, w)",
    },
    ReadTemplate {
        name: "q",
        pattern: "q(x) :- R(x, y), S(y, z), T(z, w)",
    },
    ReadTemplate {
        name: "q2",
        pattern: "q2(x) :- R(x, y), S(y, z)",
    },
    ReadTemplate {
        name: "t",
        pattern: "certain t :- S(y, z), T(z, \"w{k}\")",
    },
];
pub const SCAN_OPEN: usize = 1;

/// `cycle_2k`'s three Boolean cycle queries: `C(3)` on each family and
/// `AC(3)` on the first.
pub const CYCLE_TEMPLATES: [ReadTemplate; 3] = [
    ReadTemplate {
        name: "c3r",
        pattern: "certain c3r :- R1(a, b), R2(b, c), R3(c, a)",
    },
    ReadTemplate {
        name: "c3q",
        pattern: "certain c3q :- Q1(a, b), Q2(b, c), Q3(c, a)",
    },
    ReadTemplate {
        name: "ac3r",
        pattern: "certain ac3r :- R1(a, b), R2(b, c), R3(c, a), S3(a, b, c)",
    },
];
pub const CYCLE_AC: usize = 2;

/// `views_130k`'s two subscribed views.
pub const VIEWS: [(&str, &str); 2] = [
    ("v3", "v3(x) :- R(x, y), S(y, z), T(z, w)"),
    ("v2", "v2(x) :- R(x, y), S(y, z)"),
];

/// An endless stream of read requests: templates in equal shares
/// (round-robin), keys Zipf over the constant pool.
pub struct ReadStream {
    rng: Rng,
    zipf: Zipf,
    templates: &'static [ReadTemplate],
    issued: usize,
}

impl ReadStream {
    pub fn new(templates: &'static [ReadTemplate], domain: usize, mut rng: Rng) -> ReadStream {
        let zipf = Zipf::new(domain, &mut rng);
        ReadStream {
            rng,
            zipf,
            templates,
            issued: 0,
        }
    }

    /// The next request as `(template index, key)`.
    pub fn next_op(&mut self) -> (usize, usize) {
        let template = self.issued % self.templates.len();
        self.issued += 1;
        (template, self.zipf.sample(&mut self.rng))
    }
}

/// An endless stream of writes that are **effective by construction**:
///
/// * 60% `\insert` of a *spoiler* — a fresh non-key value into a
///   Zipf-chosen existing block, which makes that block uncertain;
/// * 30% `\remove` of the oldest live spoiler (an insert while none lives);
/// * 10% fresh-key traffic: `\insert` of a fact under a never-seen key,
///   undone later by `\remove-block` (the two alternate).
#[derive(Clone)]
pub struct WriteStream {
    rng: Rng,
    keys: Vec<(&'static str, Vec<String>, Zipf)>,
    domain: usize,
    live_spoilers: VecDeque<String>,
    live_fresh: VecDeque<String>,
    issued: usize,
    inserted: usize,
}

impl WriteStream {
    pub fn new(instance: &Instance, mut rng: Rng) -> WriteStream {
        let keys = instance
            .keys
            .iter()
            .map(|(name, keys)| (*name, keys.clone(), Zipf::new(keys.len(), &mut rng)))
            .collect();
        WriteStream {
            rng,
            keys,
            domain: instance.domain,
            live_spoilers: VecDeque::new(),
            live_fresh: VecDeque::new(),
            issued: 0,
            inserted: 0,
        }
    }

    /// The numeric ids of `relation`'s `count` most-spoiled keys (`x17` →
    /// 17), hottest first.
    pub fn hottest_keys(&self, relation: &str, count: usize) -> Vec<usize> {
        let (_, keys, zipf) = self
            .keys
            .iter()
            .find(|(name, _, _)| *name == relation)
            .expect("a relation of the instance");
        (0..count.min(keys.len()))
            .filter_map(|rank| keys[zipf.key_at_rank(rank)][1..].parse().ok())
            .collect()
    }

    /// The next request line.
    pub fn next_line(&mut self) -> String {
        self.issued += 1;
        let draw = self.rng.unit();
        if draw < 0.6 || (draw < 0.9 && self.live_spoilers.is_empty()) {
            self.inserted += 1;
            let (name, keys, zipf) = &self.keys[self.inserted % self.keys.len()];
            let key = &keys[zipf.sample(&mut self.rng)];
            let fact = format!("{name}({key}, spoil{})", self.issued);
            self.live_spoilers.push_back(fact.clone());
            format!("\\insert {fact}")
        } else if draw < 0.9 {
            let fact = self.live_spoilers.pop_front().expect("checked non-empty");
            format!("\\remove {fact}")
        } else if let Some(fact) = self.live_fresh.pop_front() {
            format!("\\remove-block {fact}")
        } else {
            self.inserted += 1;
            let (name, _, _) = &self.keys[self.inserted % self.keys.len()];
            let fact = format!(
                "{name}(fresh{}, v{})",
                self.issued,
                self.rng.below(self.domain)
            );
            self.live_fresh.push_back(fact.clone());
            format!("\\insert {fact}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::store::save_to_vec;

    #[test]
    fn one_seed_gives_byte_identical_databases_and_two_seeds_differ() {
        let cqdb = |seed| save_to_vec(&path3(300, &mut Rng::new(seed)).db);
        assert_eq!(cqdb(5), cqdb(5));
        assert_ne!(cqdb(5), cqdb(6));
        let cycles = |seed| save_to_vec(&cycle(40, &mut Rng::new(seed)).db);
        assert_eq!(cycles(5), cycles(5));
        assert_ne!(cycles(5), cycles(6));
    }

    #[test]
    fn path3_has_the_advertised_shape() {
        let instance = path3(2200, &mut Rng::new(1));
        let facts = instance.db.fact_count();
        assert!((12_000..=13_200).contains(&facts), "{facts} facts");
        // One alternative per planted fact: no block is a singleton unless
        // the alternative collided with the planted value.
        assert!(instance.db.block_count() * 2 <= facts + 50);
        assert!(!instance.db.is_consistent());
        for (name, keys) in &instance.keys {
            let rel = instance.db.schema().require(name).unwrap();
            assert_eq!(keys.len(), instance.db.blocks_of(rel).count(), "{name}");
        }
        assert!(instance.schema_text.contains("relation S(c0*, c1)"));
    }

    #[test]
    fn constants_are_protocol_safe() {
        let instance = path3(200, &mut Rng::new(2));
        for fact in instance.db.facts() {
            for value in fact.values() {
                let text = value.to_string();
                assert!(
                    text.chars().all(|c| c.is_ascii_alphanumeric()),
                    "constant {text:?} would not survive the line protocol"
                );
            }
        }
    }

    #[test]
    fn op_streams_repeat_per_seed_and_differ_across_seeds() {
        let instance = path3(300, &mut Rng::new(9));
        let writes = |seed| {
            let mut stream = WriteStream::new(&instance, Rng::new(seed));
            (0..200).map(|_| stream.next_line()).collect::<Vec<_>>()
        };
        assert_eq!(writes(1), writes(1));
        assert_ne!(writes(1), writes(2));
        let reads = |seed| {
            let mut stream = ReadStream::new(&POINT_TEMPLATES, instance.domain, Rng::new(seed));
            (0..200).map(|_| stream.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(reads(1), reads(1));
        assert_ne!(reads(1), reads(2));
        // Equal template shares.
        assert!(reads(1).iter().enumerate().all(|(i, op)| op.0 == i % 3));
    }

    #[test]
    fn every_generated_write_is_effective() {
        let instance = path3(300, &mut Rng::new(4));
        let schema = instance.db.schema().clone();
        let mut db = instance.db.clone();
        let mut stream = WriteStream::new(&instance, Rng::new(4));
        let mut verbs = [0usize; 3];
        for n in 1..=500 {
            let line = stream.next_line();
            let request = cqa_serve::protocol::parse_request(&schema, &line, n)
                .unwrap()
                .unwrap();
            let cqa_serve::Request::Write(op) = request else {
                panic!("{line} is not a write");
            };
            let before = db.epoch();
            match &op {
                cqa_serve::WriteOp::Insert(fact) => {
                    verbs[0] += 1;
                    db.insert(fact.clone()).unwrap();
                }
                cqa_serve::WriteOp::RemoveFact(fact) => {
                    verbs[1] += 1;
                    db.remove_fact(fact);
                }
                cqa_serve::WriteOp::RemoveBlock(fact) => {
                    verbs[2] += 1;
                    db.remove_block_of(fact);
                }
            }
            assert!(db.epoch() > before, "write {n} `{line}` was a no-op");
        }
        assert!(verbs.iter().all(|&v| v > 0), "verb mix {verbs:?}");
    }

    #[test]
    fn the_cycle_instance_plants_its_certain_cycle() {
        let instance = cycle(40, &mut Rng::new(3));
        let db = &instance.db;
        let r1 = db.schema().require("R1").unwrap();
        let planted = db.block_with_key(r1, &["planteda".into()]).unwrap();
        assert!(planted.is_singleton());
        // 2 families × 3 layers × 40 nodes × ≤2 edges, the planted cycle, S3.
        assert!(db.fact_count() > 400 && db.fact_count() < 600);
    }
}
