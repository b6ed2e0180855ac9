//! Purification of uncertain databases (Lemma 1), and the one valuation
//! listing that decides relevance in this crate.
//!
//! A fact is *relevant* for `q` on `db` if it belongs to some valuation
//! image `θ(q) ⊆ db`; a database is *purified relative to `q`* if every
//! fact is relevant. Lemma 1 shows that removing the **entire block** of an
//! irrelevant fact does not change membership in `CERTAINTY(q)`.
//!
//! [`purify`] lists the images once and counts, per fact, the live images
//! it lies in: a block holding a fact whose count is 0 is removed, and the
//! images through it die. Relevance is monotone, so this reaches the
//! unique greatest purified sub-database, the one the paper's
//! one-block-at-a-time loop reaches. The falsifying-repair search lists
//! images with the same helper and does not purify: its pure-fact rule is
//! Lemma 1.

use crate::csr::Csr;
use cqa_data::{Fact, FxHashMap, FxHashSet, UncertainDatabase};
use cqa_exec::QueryPlan;
use cqa_query::ConjunctiveQuery;
use std::ops::Range;

/// Purifies `db` relative to `query` (Lemma 1): removes the block of every
/// fact that lies in no valuation image, until none is left. Returns a
/// clone of `db`, with its index, when nothing is removed.
pub fn purify(db: &UncertainDatabase, query: &ConjunctiveQuery) -> UncertainDatabase {
    let images = Images::list(db, query, |_, _| true);
    let (members, occurs, block_of) = (&images.members, &images.occurs, &images.block_of);
    // Per fact: how many live images it lies in.
    let mut live: Vec<u32> = (0..block_of.len())
        .map(|f| occurs.successors(f).len() as u32)
        .collect();
    let mut dead = vec![false; members.len()];
    let mut doomed = vec![false; images.block_start.len() - 1];
    let mut queue: Vec<u32> = (live.iter().zip(block_of))
        .filter_map(|(&count, &b)| (count == 0).then_some(b))
        .collect();
    while let Some(b) = queue.pop() {
        if std::mem::replace(&mut doomed[b as usize], true) {
            continue;
        }
        for f in images.block(b) {
            for &g in occurs.successors(f as usize) {
                if std::mem::replace(&mut dead[g as usize], true) {
                    continue;
                }
                for &h in members.successors(g as usize) {
                    live[h as usize] -= 1;
                    if live[h as usize] == 0 {
                        queue.push(block_of[h as usize]);
                    }
                }
            }
        }
    }
    if !doomed.contains(&true) {
        return db.clone();
    }
    let kept = (images.facts.iter().zip(block_of)).filter(|(_, &b)| !doomed[b as usize]);
    db.with_facts(kept.map(|(&fact, _)| fact.clone()))
}

/// The valuation images of a query on a database, over dense fact ids: the
/// facts are numbered block by block, so each block's ids are consecutive.
pub(crate) struct Images<'a> {
    /// The facts, by id.
    pub(crate) facts: Vec<&'a Fact>,
    /// Per fact: its block.
    pub(crate) block_of: Vec<u32>,
    /// Block `b`'s facts are the ids `block_start[b]..block_start[b + 1]`.
    pub(crate) block_start: Vec<u32>,
    /// The facts of each distinct kept image, sorted.
    pub(crate) members: Csr,
    /// The kept images each fact lies in.
    pub(crate) occurs: Csr,
}

impl<'a> Images<'a> {
    /// Numbers the facts of `db`, runs the query's join plan once, and
    /// hands each image `θ(q)` to `keep` as its sorted, deduplicated fact
    /// ids, beside the numbering (`members` and `occurs` are filled after
    /// the run); keeps each distinct image that `keep` accepts, as `keep`
    /// leaves it. Every listed image counts once in `core.images.listed`.
    pub(crate) fn list(
        db: &'a UncertainDatabase,
        query: &ConjunctiveQuery,
        mut keep: impl FnMut(&Images<'a>, &mut Vec<u32>) -> bool,
    ) -> Images<'a> {
        let mut listing = Images {
            facts: Vec::with_capacity(db.fact_count()),
            block_of: Vec::with_capacity(db.fact_count()),
            block_start: vec![0],
            members: Csr::new(0, &[]),
            occurs: Csr::new(0, &[]),
        };
        for (b, block) in db.blocks().enumerate() {
            listing.facts.extend(block.facts());
            listing.block_of.resize(listing.facts.len(), b as u32);
            listing.block_start.push(listing.facts.len() as u32);
        }
        let id: FxHashMap<&Fact, u32> = listing.facts.iter().copied().zip(0u32..).collect();
        let mut images: FxHashSet<Vec<u32>> = FxHashSet::default();
        let mut listed = 0u64;
        let index = db.index();
        let plan = QueryPlan::compile(query, Some(index.statistics()));
        plan.prepare(&index).for_each_valuation(|theta| {
            listed += 1;
            let mut image: Vec<u32> = (query.atoms().iter())
                .map(|atom| id[&theta.apply_atom(atom).expect("valuations are total")])
                .collect();
            image.sort_unstable();
            image.dedup();
            if keep(&listing, &mut image) {
                images.insert(image);
            }
        });
        cqa_obs::count!("core.images.listed", listed);
        let mut images: Vec<Vec<u32>> = images.into_iter().collect();
        images.sort_unstable();
        let arcs = |swap: bool| -> Vec<(u32, u32)> {
            (images.iter().zip(0u32..))
                .flat_map(|(image, g)| {
                    image
                        .iter()
                        .map(move |&f| if swap { (f, g) } else { (g, f) })
                })
                .collect()
        };
        listing.members = Csr::new(images.len(), &arcs(false));
        listing.occurs = Csr::new(listing.facts.len(), &arcs(true));
        listing
    }

    /// The ids of block `b`'s facts.
    pub(crate) fn block(&self, b: u32) -> Range<u32> {
        self.block_start[b as usize]..self.block_start[b as usize + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::{Schema, Value};
    use cqa_query::Term;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared()
    }

    /// The query {R(x, y), S(y, x)} of Example 1.
    fn example1_query() -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("x")])
            .build()
            .unwrap()
    }

    fn fact(db: &UncertainDatabase, relation: &str, a: &str, b: &str) -> Fact {
        let relation = db.schema().relation_id(relation).unwrap();
        Fact::new(relation, vec![Value::str(a), Value::str(b)])
    }

    #[test]
    fn example1_removes_whole_blocks_in_rounds() {
        // {R(a,b), S(b,a), S(b,c)} is not purified: no R-fact joins with
        // S(b,c). Removing it means removing its entire block {S(b,a),
        // S(b,c)}, which in turn makes R(a,b) irrelevant: everything goes.
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        db.insert_values("S", ["b", "c"]).unwrap();
        assert!(purify(&db, &example1_query()).is_empty());
    }

    #[test]
    fn purification_keeps_relevant_facts() {
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        // An unrelated, irrelevant R block.
        db.insert_values("R", ["z", "z"]).unwrap();
        let purified = purify(&db, &example1_query());
        assert_eq!(purified.fact_count(), 2);
        assert!(purified.contains(&fact(&db, "R", "a", "b")));
        assert!(purified.contains(&fact(&db, "S", "b", "a")));
    }

    #[test]
    fn purified_database_is_a_fixpoint() {
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("R", ["a", "c"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        db.insert_values("S", ["c", "a"]).unwrap();
        let once = purify(&db, &example1_query());
        assert_eq!(once, db, "already purified databases are unchanged");
        assert!(
            Arc::ptr_eq(&once.index(), &db.index()),
            "and keep their index"
        );
    }

    #[test]
    fn constants_in_queries_are_respected() {
        // Only facts that can actually be the image of an atom survive.
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["a", "hit"]).unwrap();
        db.insert_values("R", ["b", "miss"]).unwrap();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x"), Term::constant("hit")])
            .build()
            .unwrap();
        assert_eq!(purify(&db, &q).fact_count(), 1);
    }

    #[test]
    fn the_empty_query_keeps_nothing() {
        // No atom can support a fact of the empty query.
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        let q = ConjunctiveQuery::boolean(schema(), Vec::new()).unwrap();
        assert!(purify(&db, &q).is_empty());
    }
}
