//! The falsifying-repair search: one decision procedure for "does some
//! repair of `db` falsify `q`?", the certificate that puts `CERTAINTY(q)`
//! in coNP (Section 1). It serves [`ExactOracle`](super::ExactOracle) in
//! the coNP and open regions and the base case of Theorem 3, which decides
//! each partition of a weak 2-cycle pair with it.
//!
//! The search runs on its input as given; it does not purify. Every repair
//! holds the facts of single-fact blocks, so if they alone satisfy `q` the
//! answer is "certain" at once, before any image is listed; this settles a
//! consistent database. (The single-fact blocks of `db` hold an image iff
//! those of the purified `db` do, so purifying first would answer the
//! same.) Otherwise the crate's one valuation listing (`Images::list`,
//! owned by `purify.rs`) streams the images `θ(q)` of `db`, and each
//! image becomes a **no-good**: the sorted set of its fact ids in blocks of
//! two or more facts (never empty, by the check above). A repair falsifies
//! `q` iff it contains no no-good entirely, so the search chooses one fact
//! per block such that no no-good has all of its facts chosen (the
//! encoding of CAvSAT, Dixit and Kolaitis, SAT 2019, searched here
//! directly). An image with two facts of one block can never lie in a
//! repair and is dropped.
//!
//! **Cost.** The search stores each distinct no-good once, at most `|q|`
//! ids each, and never collects the valuations; so its memory is bounded
//! by the number of distinct no-goods, at most the number of images of the
//! input database (`∏ᵢ |Rᵢ|` over the query's relations) and often far
//! fewer. Listing the images takes time proportional to their number.
//!
//! Four rules decide the choice:
//!
//! * **unit propagation** — a block with one live fact chooses it, and a
//!   no-good with all facts but one chosen kills the last one;
//! * **pure facts** — a fact that lies in no live no-good (one without a
//!   killed fact) is chosen at once: no completion can regret it. This is
//!   Lemma 1: a fact in no image is chosen, its siblings die, their
//!   no-goods die with them, and the facts left in no live no-good follow;
//! * **components** — after the first propagation, the undecided blocks
//!   that share a live no-good form a component; components are searched
//!   one after another and never backtracked into, because choices in one
//!   cannot reach a no-good of another;
//! * **branching** — otherwise the undecided block of the component with
//!   the fewest live facts tries each of them in turn, backtracking
//!   chronologically.
//!
//! Every branch attempt, and the root (the forced facts' check and the
//! first propagation), is one search node (`core.oracle.nodes`).
//! The search is exact and worst-case exponential.

use crate::purify::Images;
use cqa_data::{Fact, UncertainDatabase};
use cqa_exec::QueryPlan;
use cqa_query::ConjunctiveQuery;

/// A repair of `db` that falsifies `query`, as one fact per block of `db`;
/// `None` iff every repair of `db` satisfies `query`.
pub(crate) fn falsifying_repair<'a>(
    db: &'a UncertainDatabase,
    query: &ConjunctiveQuery,
) -> Option<Vec<&'a Fact>> {
    let (model, nodes) = search(db, query);
    cqa_obs::count!("core.oracle.nodes", nodes);
    model
}

/// The search's falsifying repair of `db`, if any, and the nodes it took.
fn search<'a>(db: &'a UncertainDatabase, query: &ConjunctiveQuery) -> (Option<Vec<&'a Fact>>, u64) {
    if query.is_empty() {
        return (None, 0); // Every repair satisfies the empty query.
    }
    // Every repair holds the facts of single-fact blocks: if they satisfy
    // `q`, so does every repair. This settles a consistent database, and
    // leaves no image that lies in single-fact blocks only.
    let forced = (db.blocks())
        .filter_map(|block| match block.facts() {
            [fact] => Some(fact.clone()),
            _ => None,
        })
        .collect::<Vec<_>>();
    if !forced.is_empty() && QueryPlan::compile(query, None).satisfies(&db.with_facts(forced)) {
        return (None, 1);
    }
    let mut search = Search::new(db, query);
    let model = search.run().then(|| {
        let facts = &search.images.facts;
        search.chosen.iter().map(|&f| facts[f as usize]).collect()
    });
    (model, search.nodes)
}

/// No block has chosen a fact yet.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Open,
    Chosen,
    Killed,
}

/// The search state over the listing's dense ids: facts (each block's
/// consecutive), blocks, and no-goods (the kept images).
struct Search<'a> {
    images: Images<'a>,
    state: Vec<State>,
    /// Per block: the fact it chose, or [`NONE`].
    chosen: Vec<u32>,
    /// Per no-good: how many of its facts are chosen, and how many killed
    /// (it is live while none is).
    nogood_chosen: Vec<u32>,
    nogood_killed: Vec<u32>,
    /// Per fact: how many live no-goods it lies in.
    live: Vec<u32>,
    /// The facts that left `Open`, in order, for backtracking.
    trail: Vec<u32>,
    /// Pending propagation steps: `(fact, choose)`; `false` kills.
    queue: Vec<(u32, bool)>,
    nodes: u64,
}

impl<'a> Search<'a> {
    /// Lists the valuation images of `query` on `db` as no-goods.
    fn new(db: &'a UncertainDatabase, query: &ConjunctiveQuery) -> Search<'a> {
        let images = Images::list(db, query, |images, image| {
            let block_of = &images.block_of;
            // No repair holds two facts of one block.
            if (image.windows(2)).any(|w| block_of[w[0] as usize] == block_of[w[1] as usize]) {
                return false;
            }
            image.retain(|&f| images.block(block_of[f as usize]).len() > 1);
            debug_assert!(!image.is_empty(), "the forced facts hold no image");
            true
        });
        let (facts, nogoods) = (images.facts.len(), images.members.len());
        Search {
            live: (0..facts)
                .map(|f| images.occurs.successors(f).len() as u32)
                .collect(),
            chosen: vec![NONE; images.block_start.len() - 1],
            nogood_chosen: vec![0; nogoods],
            nogood_killed: vec![0; nogoods],
            state: vec![State::Open; facts],
            images,
            trail: Vec::new(),
            queue: Vec::new(),
            nodes: 0,
        }
    }

    /// True iff some choice avoids every no-good; `chosen` then holds it.
    fn run(&mut self) -> bool {
        self.nodes = 1;
        // The root propagation: one-fact no-goods and facts in no no-good
        // (among them every fact of a single-fact block).
        for g in 0..self.images.members.len() {
            if let [f] = self.images.members.successors(g) {
                self.queue.push((*f, false));
            }
        }
        for f in 0..self.images.facts.len() {
            if self.live[f] == 0 {
                self.queue.push((f as u32, true));
            }
        }
        if !self.propagate() {
            return false;
        }
        for component in self.components() {
            if !self.solve(&component) {
                return false;
            }
        }
        debug_assert!(self.chosen.iter().all(|&f| f != NONE));
        true
    }

    /// The undecided blocks, grouped into components of blocks that share
    /// a live no-good, in order of their smallest block.
    fn components(&self) -> Vec<Vec<u32>> {
        let mut seen = vec![false; self.chosen.len()];
        let mut components = Vec::new();
        for start in 0..self.chosen.len() {
            if seen[start] || self.chosen[start] != NONE {
                continue;
            }
            seen[start] = true;
            let mut component = vec![start as u32];
            let mut next = 0;
            while let Some(&b) = component.get(next) {
                next += 1;
                for f in self.open_facts(b) {
                    for &g in self.images.occurs.successors(f as usize) {
                        if self.nogood_killed[g as usize] > 0 {
                            continue;
                        }
                        for &h in self.images.members.successors(g as usize) {
                            let c = self.images.block_of[h as usize];
                            if self.state[h as usize] == State::Open && !seen[c as usize] {
                                seen[c as usize] = true;
                                component.push(c);
                            }
                        }
                    }
                }
            }
            components.push(component);
        }
        components
    }

    fn open_facts(&self, b: u32) -> impl Iterator<Item = u32> + '_ {
        (self.images.block(b)).filter(|&f| self.state[f as usize] == State::Open)
    }

    /// Decides every block of one component, or reports that none of its
    /// choices avoids every no-good. Chronological backtracking over an
    /// explicit stack of `(block, next fact to try, trail mark)`.
    fn solve(&mut self, component: &[u32]) -> bool {
        let mut stack: Vec<(u32, u32, usize)> = Vec::new();
        loop {
            let branch = (component.iter().copied())
                .filter(|&b| self.chosen[b as usize] == NONE)
                .min_by_key(|&b| self.open_facts(b).count());
            let Some(b) = branch else {
                return true;
            };
            stack.push((b, self.images.block(b).start, self.trail.len()));
            // Try the next open fact of the innermost block; exhausted
            // blocks hand the choice back to the block before them.
            loop {
                let Some(&(b, next, mark)) = stack.last() else {
                    return false;
                };
                self.undo(mark);
                let Some(f) = self.open_facts(b).find(|&f| f >= next) else {
                    stack.pop();
                    continue;
                };
                stack.last_mut().expect("the frame just read").1 = f + 1;
                self.nodes += 1;
                self.queue.push((f, true));
                if self.propagate() {
                    break;
                }
            }
        }
    }

    /// Runs the queued steps to a fixpoint; false on a conflict.
    fn propagate(&mut self) -> bool {
        while let Some((f, choose)) = self.queue.pop() {
            let consistent = if choose { self.choose(f) } else { self.kill(f) };
            if !consistent {
                self.queue.clear();
                return false;
            }
        }
        true
    }

    /// Chooses `f` for its block and kills its open siblings; false if a
    /// live no-good is now entirely chosen.
    fn choose(&mut self, f: u32) -> bool {
        if self.state[f as usize] != State::Open {
            return true;
        }
        let b = self.images.block_of[f as usize];
        self.state[f as usize] = State::Chosen;
        self.chosen[b as usize] = f;
        self.trail.push(f);
        // Every counter moves before a conflict is reported: `undo` takes
        // back all of them.
        let mut consistent = true;
        for &g in self.images.occurs.successors(f as usize) {
            let g = g as usize;
            self.nogood_chosen[g] += 1;
            if self.nogood_killed[g] > 0 || !consistent {
                continue;
            }
            let members = self.images.members.successors(g);
            if self.nogood_chosen[g] as usize == members.len() {
                consistent = false;
            } else if self.nogood_chosen[g] as usize + 1 == members.len() {
                let last = (members.iter())
                    .find(|&&h| self.state[h as usize] == State::Open)
                    .expect("a live no-good's unchosen fact is open");
                self.queue.push((*last, false));
            }
        }
        consistent && self.images.block(b).all(|s| self.kill(s))
    }

    /// Kills `f`: its no-goods die, which may leave facts pure, and its
    /// block may be left with one open fact (chosen next) or none (false).
    fn kill(&mut self, f: u32) -> bool {
        if self.state[f as usize] != State::Open {
            return true;
        }
        let b = self.images.block_of[f as usize];
        self.state[f as usize] = State::Killed;
        self.trail.push(f);
        for &g in self.images.occurs.successors(f as usize) {
            self.nogood_killed[g as usize] += 1;
            if self.nogood_killed[g as usize] > 1 {
                continue;
            }
            for &h in self.images.members.successors(g as usize) {
                self.live[h as usize] -= 1;
                if self.live[h as usize] == 0 && self.state[h as usize] == State::Open {
                    self.queue.push((h, true));
                }
            }
        }
        if self.chosen[b as usize] != NONE {
            return true;
        }
        let open = self.open_facts(b).count();
        match open {
            0 => false,
            1 => {
                let last = self.open_facts(b).next().expect("the block's open fact");
                self.queue.push((last, true));
                true
            }
            _ => true,
        }
    }

    /// Reopens every fact decided after the trail held `mark` facts.
    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let f = self.trail.pop().expect("the trail is longer than the mark");
            for &g in self.images.occurs.successors(f as usize) {
                let g = g as usize;
                if self.state[f as usize] == State::Chosen {
                    self.nogood_chosen[g] -= 1;
                } else {
                    self.nogood_killed[g] -= 1;
                    if self.nogood_killed[g] == 0 {
                        for &h in self.images.members.successors(g) {
                            self.live[h as usize] += 1;
                        }
                    }
                }
            }
            if self.state[f as usize] == State::Chosen {
                self.chosen[self.images.block_of[f as usize] as usize] = NONE;
            }
            self.state[f as usize] = State::Open;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::ExactOracle;
    use cqa_query::{catalog, eval};

    /// The search's verdict on `db` equals repair enumeration's, and a
    /// repair it returns is one: consistent, every block of `db` kept, `q`
    /// false.
    fn assert_matches_brute_force(q: &ConjunctiveQuery, db: &UncertainDatabase) {
        let repair = falsifying_repair(db, q);
        let certain = ExactOracle::new(q).unwrap().is_certain_bruteforce(db);
        assert_eq!(repair.is_none(), certain, "{db}");
        if let Some(facts) = repair {
            let repair = db.with_facts(facts.into_iter().cloned());
            assert!(repair.is_consistent() && repair.is_subset_of(db), "{db}");
            assert_eq!(repair.block_count(), db.block_count(), "{db}");
            assert!(!eval::naive::satisfies(&repair, q), "{db}");
        }
    }

    /// A linear congruential stream of small numbers, one per seed.
    fn stream(seed: u64, mul: u64, add: u64) -> impl FnMut() -> usize {
        let mut state = seed.wrapping_mul(mul).wrapping_add(add);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        }
    }

    #[test]
    fn c2_instances_match_brute_force() {
        let q = catalog::c2_swap().query;
        for seed in 0u64..80 {
            let mut next = stream(seed, 0x9E3779B97F4A7C15, 11);
            let mut db = UncertainDatabase::new(q.schema().clone());
            for _ in 0..(3 + seed as usize % 5) {
                let (a, b) = (next() % 3, next() % 3);
                db.insert_values("R1", [format!("a{a}"), format!("b{b}")])
                    .unwrap();
                let (b, a) = (next() % 3, next() % 3);
                db.insert_values("R2", [format!("b{b}"), format!("a{a}")])
                    .unwrap();
            }
            assert_matches_brute_force(&q, &db);
        }
    }

    /// The coNP-complete two-atom query `q0`: the search is exact there
    /// too (and may take exponential time on adversarial inputs).
    #[test]
    fn q0_instances_match_brute_force() {
        let q = catalog::q0().query;
        for seed in 0u64..40 {
            let mut next = stream(seed, 0x2545F4914F6CDD1D, 7);
            let mut db = UncertainDatabase::new(q.schema().clone());
            for _ in 0..5 {
                let (x, y) = (next() % 2, next() % 2);
                db.insert_values("R0", [format!("x{x}"), format!("y{y}")])
                    .unwrap();
                let (y, z, x) = (next() % 2, next() % 2, next() % 2);
                (db.insert_values("S0", [format!("y{y}"), format!("z{z}"), format!("x{x}")]))
                    .unwrap();
            }
            assert_matches_brute_force(&q, &db);
        }
    }

    #[test]
    fn hand_made_c2_instances() {
        let q = catalog::c2_swap().query;
        // R1(a,b), R2(b,a) with no alternatives: every repair holds the
        // 2-cycle, so the query is certain.
        let mut db = UncertainDatabase::new(q.schema().clone());
        db.insert_values("R1", ["a", "b"]).unwrap();
        db.insert_values("R2", ["b", "a"]).unwrap();
        assert!(search(&db, &q).0.is_none());
        // An alternative for R1(a, ·) that avoids b falsifies it.
        db.insert_values("R1", ["a", "c"]).unwrap();
        assert!(search(&db, &q).0.is_some());
        assert_matches_brute_force(&q, &db);
        // R1(a, ·) ∈ {b, b'} with both R2(b, a) and R2(b', a) present:
        // whatever R1 picks, the cycle closes.
        let mut db = UncertainDatabase::new(q.schema().clone());
        for (r, u, v) in [
            ("R1", "a", "b"),
            ("R1", "a", "b'"),
            ("R2", "b", "a"),
            ("R2", "b'", "a"),
        ] {
            db.insert_values(r, [u, v]).unwrap();
        }
        assert!(search(&db, &q).0.is_none());
        assert_matches_brute_force(&q, &db);
    }

    /// The `q0` instances the old backtracking oracle needed seconds for
    /// are decided by the root propagation alone.
    #[test]
    fn q0_generator_instances_take_a_handful_of_nodes() {
        let q = catalog::q0().query;
        for n in [40, 80] {
            for seed in 1..=3 {
                let db = cqa_gen::q0_instance(seed, n, 3, 0.9);
                let (model, nodes) = search(&db, &q);
                assert!(nodes <= 5, "n = {n}, seed {seed}: {nodes} nodes");
                if let Some(facts) = model {
                    let repair = db.with_facts(facts.into_iter().cloned());
                    assert!(!eval::naive::satisfies(&repair, &q));
                }
            }
        }
    }

    /// `k` disjoint Figure 4 components that each need a branch and have a
    /// falsifying choice, then one certain component that needs a branch
    /// too. Searched as one, chronological backtracking would retry every
    /// combination of the first `k` components' choices before giving up
    /// (`2^(k+2) − 1` nodes); searched one component after another it
    /// takes about one node per component.
    #[test]
    fn components_are_never_backtracked_into() {
        let q = catalog::fig4().query;
        for k in [4, 8, 16] {
            let mut db = UncertainDatabase::new(q.schema().clone());
            let mut insert = |relation: &str, values: &[&str]| {
                db.insert_values(relation, values.iter().copied()).unwrap();
            };
            insert("R5", &["y", "s", "t"]);
            insert("R6", &["y", "t", "s"]);
            for i in 0..k {
                // A ring R1(a) → R2(b) → R1(d) → R2(c) → R1(a) of two-fact
                // blocks: no unit, no pure fact, but a falsifying choice.
                let x = format!("x{i}");
                for (u, v) in [("a", "b"), ("a", "c"), ("d", "b"), ("d", "c")] {
                    insert("R1", &[&x, u, v, "z"]);
                    insert("R2", &[&x, v, u, "z"]);
                }
                insert("R3", &[&x, "y", "p", "q"]);
                insert("R4", &[&x, "y", "q", "p"]);
            }
            // Certain: every choice of the R1 block and the R3 block
            // completes an image.
            for v in ["b", "c"] {
                insert("R1", &["xc", "a", v, "z"]);
                insert("R2", &["xc", v, "a", "z"]);
            }
            for v in ["e", "f"] {
                insert("R3", &["xc", "y", "d", v]);
                insert("R4", &["xc", "y", v, "d"]);
            }
            let (repair, nodes) = search(&db, &q);
            assert!(repair.is_none(), "k = {k}");
            assert!(nodes <= 3 * k as u64 + 8, "k = {k}: {nodes} nodes");
        }
    }

    /// The star `R1(x1, y), R2(x2, y), R3(x3, y)`: coNP-complete, every
    /// atom attacks the others through `y`.
    fn star() -> ConjunctiveQuery {
        let schema = cqa_data::Schema::from_relations([("R1", 2, 1), ("R2", 2, 1), ("R3", 2, 1)])
            .unwrap()
            .into_shared();
        let var = cqa_query::Term::var;
        let builder = ConjunctiveQuery::builder(schema).atom("R1", [var("x1"), var("y")]);
        let builder = builder.atom("R2", [var("x2"), var("y")]);
        builder.atom("R3", [var("x3"), var("y")]).build().unwrap()
    }

    /// `m` facts per relation that all share one `y` have `m³` images, a
    /// billion at `m = 1000`; the search answers without listing them.
    #[test]
    fn forced_facts_settle_the_star_without_listing_images() {
        let q = star();
        let mut db = UncertainDatabase::new(q.schema().clone());
        for i in 0..1000 {
            for relation in ["R1", "R2", "R3"] {
                db.insert_values(relation, [format!("{relation}-{i}"), "y".into()])
                    .unwrap();
            }
        }
        // Consistent: its one repair is itself, which satisfies q.
        assert_eq!(db.fact_count(), 3000);
        assert!(matches!(search(&db, &q), (None, 1)));
        // One inconsistent block per relation, closing an image of its
        // own: the single-fact blocks still hold an image.
        for relation in ["R1", "R2", "R3"] {
            db.insert_values(relation, [format!("{relation}-0"), "y'".into()])
                .unwrap();
        }
        assert!(matches!(search(&db, &q), (None, 1)));
    }

    /// Every `R1` block holds `R1(i, y)` and `R1(i, w)`; `R2` and `R3` hold
    /// `m` single-fact blocks on `y` and one on `w`. Of the `m³ + m` images
    /// only `2m` distinct no-goods of one `R1` fact remain, and they kill
    /// every `R1` fact at the root: certain.
    #[test]
    fn no_goods_keep_only_facts_of_larger_blocks() {
        let q = star();
        let m = 20;
        let mut db = UncertainDatabase::new(q.schema().clone());
        for i in 0..m {
            for y in ["y", "w"] {
                db.insert_values("R1", [format!("{i}"), y.into()]).unwrap();
            }
            for relation in ["R2", "R3"] {
                db.insert_values(relation, [format!("{i}"), "y".into()])
                    .unwrap();
            }
        }
        for relation in ["R2", "R3"] {
            db.insert_values(relation, ["w", "w"]).unwrap();
        }
        let search = Search::new(&db, &q);
        assert_eq!(search.images.members.len(), 2 * m);
        assert!(matches!(super::search(&db, &q), (None, 1)));
    }
}
