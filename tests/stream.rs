//! Property suite for `cqa-stream`: incremental view maintenance must be
//! indistinguishable from full recomputation.
//!
//! Each case drives a seeded interleaving of `insert` / `remove` /
//! `remove-block` mutations over a small two-relation join schema and,
//! after **every** delta, repairs three maintained views — sequential,
//! 2-thread sharded and 7-thread sharded (with a tiny shard cutoff so the
//! parallel paths actually shard), the middle one with a tiny damage
//! threshold so the full-recompute fallback is exercised too — and asserts
//! each is byte-identical to a from-scratch reference evaluation of the
//! same snapshot. Values are drawn from a deliberately small domain so the
//! script keeps revisiting the same blocks: spoiler inserts, block
//! evictions and re-inserts of previously removed facts all occur.
//!
//! Under the default damage threshold a repair over this small domain must
//! stay incremental — never a full recompute.

use cqa::core::answers::certain_answers;
use cqa::data::{ChangeSet, Delta, Fact, Schema, UncertainDatabase, Value};
use cqa::par::ParPool;
use cqa::query::{ConjunctiveQuery, Term, Variable};
use cqa::stream::{MaterializedView, ViewMaintainer};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Mutations per case: enough for several grow/shrink phases over the
/// small domain, small enough to keep 256 cases fast.
const OPS_PER_CASE: usize = 12;

fn schema() -> Arc<Schema> {
    Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
        .unwrap()
        .into_shared()
}

/// q(x) :- R(x, y), S(y, z): the join makes certainty depend on *every*
/// alternative in a key block agreeing, so removals can create certainty
/// and inserts can destroy it — both repair directions are exercised.
fn query(schema: &Arc<Schema>) -> ConjunctiveQuery {
    ConjunctiveQuery::builder(schema.clone())
        .atom("R", [Term::var("x"), Term::var("y")])
        .atom("S", [Term::var("y"), Term::var("z")])
        .free([Variable::new("x")])
        .build()
        .unwrap()
}

/// The three maintainers under test, each with whether it keeps the
/// default damage threshold (and so must always repair incrementally).
/// They share long-lived pools across proptest cases (spawning fresh OS
/// threads 256×3 times would dominate the run).
fn maintainers() -> Vec<(ViewMaintainer, bool)> {
    static POOLS: OnceLock<(ParPool, ParPool)> = OnceLock::new();
    let (two, seven) = POOLS.get_or_init(|| (ParPool::new(2), ParPool::new(7)));
    vec![
        (ViewMaintainer::new(), true),
        // Tiny threshold: large-damage steps take the fallback path.
        (
            ViewMaintainer::with_pool(two.clone())
                .with_shard_cutoff(1)
                .with_threshold(4),
            false,
        ),
        (
            ViewMaintainer::with_pool(seven.clone()).with_shard_cutoff(1),
            true,
        ),
    ]
}

struct Script {
    state: u64,
}

impl Script {
    fn new(seed: u64) -> Script {
        Script {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state % bound
    }

    /// A fact over the small domain: 4 keys × 3 dependent values per
    /// relation, with R's dependent column ranging over S's key column so
    /// the join actually connects.
    fn fact(&mut self, schema: &Arc<Schema>) -> Fact {
        let relation = if self.next(2) == 0 { "R" } else { "S" };
        let rel = schema.relation_id(relation).unwrap();
        let key = Value::str(format!("k{}", self.next(4)));
        let dep = if relation == "R" {
            Value::str(format!("k{}", self.next(4)))
        } else {
            Value::Int(self.next(3) as i64)
        };
        Fact::checked(schema, rel, vec![key, dep]).unwrap()
    }
}

/// Applies one scripted mutation to `db`, recording its exact deltas —
/// the same capture discipline the server's write path uses.
fn apply_op(db: &mut UncertainDatabase, script: &mut Script, changes: &mut ChangeSet) {
    let schema = db.schema().clone();
    let fact = script.fact(&schema);
    match script.next(4) {
        // Inserts twice as likely as each removal flavor: the database
        // grows, shrinks and regrows over the script.
        0 | 1 => {
            if db.insert(fact.clone()).unwrap() {
                changes.record(Delta::Inserted(fact));
            }
        }
        2 => {
            let emptied = db
                .block_of(&fact)
                .is_some_and(cqa::data::Block::is_singleton);
            if db.remove_fact(&fact) {
                changes.record(Delta::Removed {
                    fact,
                    emptied_block: emptied,
                });
            }
        }
        _ => {
            let members: Vec<Fact> = db
                .block_with_key(fact.relation(), fact.key(&schema))
                .map(|block| block.facts().to_vec())
                .unwrap_or_default();
            if db.remove_block_of(&fact) {
                let last = members.len();
                for (i, member) in members.into_iter().enumerate() {
                    changes.record(Delta::Removed {
                        fact: member,
                        emptied_block: i + 1 == last,
                    });
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every delta of a random mutation interleaving, each repaired
    /// view equals a from-scratch evaluation of the same snapshot —
    /// certain and possible sets alike, at 1, 2 and 7 threads.
    #[test]
    fn incremental_view_matches_full_recompute(seed in 0u64..u64::MAX) {
        let schema = schema();
        let query = query(&schema);
        let mut db = UncertainDatabase::new(schema.clone());
        let mut script = Script::new(seed);

        // A seeded non-empty starting state, then registration.
        for _ in 0..script.next(6) {
            let fact = script.fact(&schema);
            let _ = db.insert(fact);
        }
        let maintainers = maintainers();
        let mut views = Vec::new();
        for (maintainer, _) in &maintainers {
            let mut view = MaterializedView::new("v", &query).expect("register view");
            maintainer
                .initialize(&mut view, &db.snapshot())
                .expect("initial decision");
            views.push(view);
        }

        for step in 0..OPS_PER_CASE {
            let mut changes = ChangeSet::new();
            apply_op(&mut db, &mut script, &mut changes);
            let snapshot = db.snapshot();
            let reference = certain_answers(&query, snapshot.database())
                .expect("reference evaluation");
            for (view, (maintainer, default_threshold)) in views.iter_mut().zip(&maintainers) {
                let outcome = maintainer
                    .repair(view, &snapshot, &changes)
                    .expect("incremental repair");
                // At most four candidates exist over this domain, so only
                // the maintainer with the tiny threshold may ever fall back.
                if *default_threshold {
                    prop_assert!(
                        !outcome.full_recompute,
                        "damage of {} fell back to a full recompute at step {} (seed {})",
                        outcome.retouched + outcome.discovered,
                        step,
                        seed
                    );
                }
                prop_assert_eq!(
                    view.certain(),
                    &reference.certain,
                    "certain answers diverged at step {} (seed {})",
                    step,
                    seed
                );
                prop_assert_eq!(
                    view.possible(),
                    &reference.possible,
                    "possible answers diverged at step {} (seed {})",
                    step,
                    seed
                );
                prop_assert_eq!(view.epoch(), snapshot.epoch());
            }
        }
    }
}
