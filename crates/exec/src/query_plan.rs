//! Compiled join plans for conjunctive queries.
//!
//! [`QueryPlan::compile`] lowers a [`ConjunctiveQuery`] into a fixed
//! sequence of probe steps over a register file. The join order is chosen
//! **once**, greedily, by the cost model: at each step the atom with the
//! smallest estimated candidate count given the already-bound variables is
//! appended (the compile-time analogue of the interpreter's per-node
//! fail-first choice). Execution is then a plain backtracking loop over the
//! steps: probe, iterate the dense candidate ids, apply the per-position
//! actions, descend — no ordering decisions, no valuation cloning.
//!
//! `cqa_query::eval` remains the reference semantics; the property suite
//! checks observational equality on randomized instances.

use crate::cost::CostModel;
use crate::probe::{BoundProbe, ProbeSpec, Registers, Slot, SlotState};
use crate::vec::{QUERY_VEC_CUTOFF, QUERY_VEC_MAX};
use cqa_data::{DatabaseIndex, Schema, Statistics, UncertainDatabase, Value};
use cqa_obs::TraceSink;
use cqa_query::{AtomId, ConjunctiveQuery, Valuation, Variable};
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One join step: the atom it came from and its compiled access.
pub(crate) struct Step {
    atom: AtomId,
    pub(crate) spec: ProbeSpec,
}

/// A compiled, immutable, shareable join plan for one conjunctive query.
///
/// Compile once per `(query, schema)`; [`QueryPlan::prepare`] binds the plan
/// to a [`DatabaseIndex`] snapshot for execution.
pub struct QueryPlan {
    schema: Arc<Schema>,
    pub(crate) steps: Vec<Step>,
    pub(crate) slots: Vec<Variable>,
    pub(crate) free_slots: Vec<Slot>,
    /// Cost-model estimate of the total number of search nodes a full
    /// execution visits (see [`QueryPlan::estimated_work`]).
    estimated_work: f64,
}

impl QueryPlan {
    /// Compiles `query` into a physical join plan. Statistics (typically
    /// [`DatabaseIndex::statistics`] of a representative snapshot) guide the
    /// join order; without them, neutral defaults still order keyed probes
    /// before full scans.
    pub fn compile(query: &ConjunctiveQuery, stats: Option<&Statistics>) -> QueryPlan {
        let cost = CostModel::new(stats);
        // Dense slots by first occurrence, in atom order (deterministic and
        // independent of the join order chosen below).
        let mut slot_of: FxHashMap<Variable, Slot> = FxHashMap::default();
        let mut slots: Vec<Variable> = Vec::new();
        for atom in query.atoms() {
            for v in atom.vars() {
                slot_of.entry(v.clone()).or_insert_with(|| {
                    slots.push(v.clone());
                    slots.len() - 1
                });
            }
        }
        let mut bound = vec![false; slots.len()];
        let mut remaining: Vec<AtomId> = (0..query.len()).collect();
        let mut steps: Vec<Step> = Vec::with_capacity(query.len());
        while !remaining.is_empty() {
            // Greedy fail-first order: smallest estimated candidate count
            // under the bindings established by the steps chosen so far.
            let (pick, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &aid)| {
                    let atom = query.atom(aid);
                    let probed = probed_positions(atom, &slot_of, &bound);
                    (i, cost.estimate_rows(atom.relation(), probed))
                })
                .min_by(|(i, a), (j, b)| a.total_cmp(b).then(i.cmp(j)))
                .expect("remaining is non-empty");
            let aid = remaining.remove(pick);
            let atom = query.atom(aid);
            let mut spec = ProbeSpec::build(
                atom.relation(),
                atom.terms(),
                &mut |v| {
                    let slot = slot_of[v];
                    if bound[slot] {
                        SlotState::Bound(slot)
                    } else {
                        SlotState::Unbound(slot)
                    }
                },
                steps.len(),
            );
            spec.estimated_rows = cost.estimate_rows(atom.relation(), spec.positions);
            for v in atom.vars() {
                bound[slot_of[&v]] = true;
            }
            steps.push(Step { atom: aid, spec });
        }
        let free_slots = query.free_vars().iter().map(|v| slot_of[v]).collect();
        // Upper-bound estimate of visited search nodes: the candidate
        // fan-out multiplies down the step sequence (fail-first pruning only
        // shrinks it). This is what downstream layers (`cqa-par`) compare
        // against their sequential cutoff.
        let mut estimated_work = 0.0;
        let mut fanout = 1.0;
        for step in &steps {
            fanout *= step.spec.estimated_rows.max(1.0);
            estimated_work += fanout;
        }
        QueryPlan {
            schema: query.schema().clone(),
            steps,
            slots,
            free_slots,
            estimated_work,
        }
    }

    /// Cost-model estimate of the number of search nodes a full execution
    /// visits: the running product of the per-step candidate estimates,
    /// summed over the steps. An *estimate*, never consulted for
    /// correctness — `cqa-par` uses it as the sequential cutoff (a plan
    /// whose whole search fits in a few thousand nodes is not worth
    /// sharding across threads).
    pub fn estimated_work(&self) -> f64 {
        self.estimated_work
    }

    /// Binds the plan to an index snapshot, resolving every probe handle, so
    /// repeated executions against the snapshot skip the handle lookups.
    /// The execution path defaults to [`crate::vec::default_mode`]; override
    /// it per instance with [`PreparedQuery::with_mode`].
    pub fn prepare<'p>(&'p self, index: &Arc<DatabaseIndex>) -> PreparedQuery<'p> {
        let handles: Vec<Option<BoundProbe>> = (self.steps.iter())
            .map(|step| step.spec.bind(index))
            .collect();
        let vec_steps = self
            .steps
            .iter()
            .zip(&handles)
            .map(|(step, bound)| crate::vec::VProbe::build(&step.spec, index, bound.as_ref()))
            .collect();
        PreparedQuery {
            plan: self,
            index: index.clone(),
            handles,
            mode: crate::vec::default_mode(),
            vec_steps,
            trace: None,
        }
    }

    /// Convenience: `db |= q` through the compiled plan.
    pub fn satisfies(&self, db: &UncertainDatabase) -> bool {
        self.prepare(&db.index()).satisfies()
    }

    /// Convenience: satisfaction by a valuation extending `base`.
    pub fn satisfies_with(&self, db: &UncertainDatabase, base: &Valuation) -> bool {
        self.prepare(&db.index()).satisfies_with(base)
    }

    /// Convenience: all satisfying valuations over `vars(q)`.
    pub fn all_valuations(&self, db: &UncertainDatabase) -> Vec<Valuation> {
        self.prepare(&db.index()).all_valuations()
    }

    /// Convenience: the answer tuples for the query's free variables.
    pub fn answers(&self, db: &UncertainDatabase) -> BTreeSet<Vec<Value>> {
        self.prepare(&db.index()).answers()
    }

    /// Number of join steps (= atoms of the query).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True iff the plan has no steps (the empty query).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of trace cells a [`cqa_obs::TraceSink`] for this plan needs:
    /// one per join step.
    pub fn trace_ops(&self) -> usize {
        self.steps.len()
    }

    /// Renders the plan: one line per step with the access pattern (probed
    /// key components, `↦v` bindings, `=v` checks) and the cost-model
    /// estimate that ordered it.
    pub fn explain(&self) -> String {
        self.render_with(None)
    }

    /// [`QueryPlan::explain`] plus the **actuals** a traced execution
    /// recorded per step, and a header line with wall time and the
    /// executor path taken.
    pub fn explain_analyze(&self, trace: &TraceSink) -> String {
        self.render_with(Some(trace))
    }

    fn render_with(&self, trace: Option<&TraceSink>) -> String {
        let mut out = String::new();
        if self.steps.is_empty() {
            out.push_str("  (empty query: always satisfied)\n");
            return out;
        }
        let path = if (QUERY_VEC_CUTOFF..=QUERY_VEC_MAX).contains(&self.estimated_work) {
            "vectorized batch join"
        } else {
            "row-at-a-time backtracking"
        };
        let _ = writeln!(
            out,
            "  exec: est work ≈ {:.0} vs auto window {QUERY_VEC_CUTOFF:.0}..{QUERY_VEC_MAX:.0} → {path} for answers",
            self.estimated_work,
        );
        if let Some(sink) = trace {
            let _ = writeln!(
                out,
                "  actual: {} vectorized + {} row run(s), wall {:.3} ms",
                sink.vec_runs(),
                sink.row_runs(),
                sink.wall().as_secs_f64() * 1e3,
            );
        }
        for (i, step) in self.steps.iter().enumerate() {
            let act = crate::fo_plan::trace_suffix(trace, Some(i));
            let _ = writeln!(
                out,
                "  {}. {:<40} est ≈ {:.1} rows  [atom {}]{act}",
                i + 1,
                step.spec.render(&self.schema, &self.slots),
                step.spec.estimated_rows,
                step.atom,
            );
        }
        out
    }
}

/// The positions of `atom` that a probe could use given `bound` slots.
fn probed_positions(
    atom: &cqa_query::Atom,
    slot_of: &FxHashMap<Variable, Slot>,
    bound: &[bool],
) -> cqa_data::PositionSet {
    cqa_data::PositionSet::from_positions(
        atom.terms()
            .iter()
            .enumerate()
            .take(cqa_data::PositionSet::MAX_POSITIONS)
            .filter(|(_, t)| match t {
                cqa_query::Term::Const(_) => true,
                cqa_query::Term::Var(v) => bound[slot_of[v]],
            })
            .map(|(p, _)| p),
    )
}

/// A [`QueryPlan`] resolved against one [`DatabaseIndex`] snapshot.
pub struct PreparedQuery<'p> {
    pub(crate) plan: &'p QueryPlan,
    pub(crate) index: Arc<DatabaseIndex>,
    pub(crate) handles: Vec<Option<BoundProbe>>,
    pub(crate) mode: crate::vec::ExecMode,
    pub(crate) vec_steps: Vec<crate::vec::VProbe>,
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl PreparedQuery<'_> {
    /// Overrides the execution-path choice for this prepared instance (the
    /// property suites pin each path explicitly). The choice applies to
    /// [`PreparedQuery::answers`] / [`PreparedQuery::answers_shard`]; the
    /// early-exit entry points (`satisfies*`, `all_valuations`) always run
    /// the row engine, whose short-circuiting beats batch materialization.
    pub fn with_mode(mut self, mode: crate::vec::ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a trace sink: every subsequent execution records its
    /// per-step events into it (shareable across threads, so `cqa-par`
    /// shards can report into one sink). Tracing never changes answers.
    ///
    /// # Panics
    /// If the sink was not sized with [`QueryPlan::trace_ops`].
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        assert_eq!(
            sink.op_count(),
            self.plan.trace_ops(),
            "trace sink sized for a different plan"
        );
        self.trace = Some(sink);
        self
    }

    /// The execution mode this prepared instance runs under.
    pub fn mode(&self) -> crate::vec::ExecMode {
        self.mode
    }

    /// True iff `answers`-style entry points take the batch-join path.
    fn use_vec(&self) -> bool {
        if self.vec_steps.is_empty() {
            return false;
        }
        match self.mode {
            crate::vec::ExecMode::RowAtATime => false,
            crate::vec::ExecMode::Vectorized => true,
            crate::vec::ExecMode::Auto => {
                (QUERY_VEC_CUTOFF..=QUERY_VEC_MAX).contains(&self.plan.estimated_work)
            }
        }
    }

    /// Records path choice and wall time of one entry-point run into the
    /// installed trace sink (a no-op without one).
    fn entry_point<T>(&self, vectorized: bool, run: impl FnOnce() -> T) -> T {
        let Some(sink) = &self.trace else {
            return run();
        };
        if vectorized {
            sink.count_vec_run();
        } else {
            sink.count_row_run();
        }
        let started = Instant::now();
        let out = run();
        sink.add_wall(started.elapsed());
        out
    }

    /// True iff some valuation satisfies the query on the snapshot.
    pub fn satisfies(&self) -> bool {
        self.entry_point(false, || {
            let mut regs = Registers::new(self.plan.slots.len());
            self.run(&mut regs, &mut |_| true)
        })
    }

    /// True iff some valuation *extending `base`* satisfies the query.
    /// Bindings of variables that do not occur in the query are ignored,
    /// exactly as in `cqa_query::eval::satisfies_with`.
    pub fn satisfies_with(&self, base: &Valuation) -> bool {
        self.entry_point(false, || {
            let mut regs = Registers::new(self.plan.slots.len());
            for (slot, var) in self.plan.slots.iter().enumerate() {
                if let Some(value) = base.get(var) {
                    regs.set(slot, value.clone());
                }
            }
            self.run(&mut regs, &mut |_| true)
        })
    }

    /// All satisfying valuations over `vars(q)`.
    pub fn all_valuations(&self) -> Vec<Valuation> {
        self.entry_point(false, || {
            let mut out = Vec::new();
            let mut regs = Registers::new(self.plan.slots.len());
            self.run(&mut regs, &mut |regs| {
                out.push(Valuation::from_pairs(
                    self.plan
                        .slots
                        .iter()
                        .enumerate()
                        .filter_map(|(s, v)| regs.get(s).map(|value| (v.clone(), value.clone()))),
                ));
                false
            });
            out
        })
    }

    /// The answer tuples: projections of the satisfying valuations onto the
    /// query's free variables (the empty tuple for a satisfied Boolean
    /// query).
    pub fn answers(&self) -> BTreeSet<Vec<Value>> {
        let vectorized = self.use_vec();
        if vectorized {
            cqa_obs::count!("exec.query.answers.vec");
        } else {
            cqa_obs::count!("exec.query.answers.row");
        }
        self.entry_point(vectorized, || {
            if vectorized {
                return crate::vec::query_answers(self, None);
            }
            let mut out = BTreeSet::new();
            let mut regs = Registers::new(self.plan.slots.len());
            self.run(&mut regs, &mut |regs| {
                let tuple: Option<Vec<Value>> = self
                    .plan
                    .free_slots
                    .iter()
                    .map(|&s| regs.get(s).cloned())
                    .collect();
                if let Some(tuple) = tuple {
                    out.insert(tuple);
                }
                false
            });
            out
        })
    }

    /// The width of the plan's **root candidate space**: the number of
    /// candidate facts the first join step iterates when execution starts
    /// from empty registers (the first step's probe key can only hold
    /// constants, so the list is fixed for the snapshot). `None` for the
    /// empty (step-less) plan.
    ///
    /// This is the axis `cqa-par` shards on: the search trees rooted at
    /// disjoint slices of this list are independent, so
    /// [`PreparedQuery::satisfies_shard`] /
    /// [`PreparedQuery::answers_shard`] over a partition of
    /// `0..root_width()` recombine exactly to [`PreparedQuery::satisfies`]
    /// / [`PreparedQuery::answers`].
    pub fn root_width(&self) -> Option<usize> {
        Some(self.root_candidates()?.len())
    }

    /// True iff some valuation whose first-step candidate lies in `shard`
    /// (an index range into the root candidate list, see
    /// [`PreparedQuery::root_width`]) satisfies the query. The disjunction
    /// over any partition of `0..root_width()` equals
    /// [`PreparedQuery::satisfies`]; out-of-range bounds are clamped.
    pub fn satisfies_shard(&self, shard: std::ops::Range<usize>) -> bool {
        self.entry_point(false, || {
            let mut regs = Registers::new(self.plan.slots.len());
            self.run_shard(shard, &mut regs, &mut |_| true)
        })
    }

    /// The answer tuples whose witnessing valuation's first-step candidate
    /// lies in `shard`. The union over any partition of `0..root_width()`
    /// equals [`PreparedQuery::answers`] — and because the result is an
    /// ordered set, the recombined answer is byte-identical however the
    /// partition (or the thread interleaving) looked.
    pub fn answers_shard(&self, shard: std::ops::Range<usize>) -> BTreeSet<Vec<Value>> {
        let vectorized = self.use_vec();
        if vectorized {
            cqa_obs::count!("exec.query.answers.vec");
        } else {
            cqa_obs::count!("exec.query.answers.row");
        }
        self.entry_point(vectorized, || {
            if vectorized {
                return crate::vec::query_answers(self, Some(shard.clone()));
            }
            let mut out = BTreeSet::new();
            let mut regs = Registers::new(self.plan.slots.len());
            self.run_shard(shard, &mut regs, &mut |regs| {
                let tuple: Option<Vec<Value>> = self
                    .plan
                    .free_slots
                    .iter()
                    .map(|&s| regs.get(s).cloned())
                    .collect();
                if let Some(tuple) = tuple {
                    out.insert(tuple);
                }
                false
            });
            out
        })
    }

    /// The fixed candidate list of the first step under empty registers.
    fn root_candidates(&self) -> Option<cqa_data::Rows<'_>> {
        let step = self.plan.steps.first()?;
        let regs = Registers::new(self.plan.slots.len());
        step.spec
            .candidates(&self.index, self.handles[0].as_ref(), &regs)
    }

    /// Runs the search with the first step's candidate iteration restricted
    /// to `shard`; depths ≥ 1 are the ordinary search.
    fn run_shard(
        &self,
        shard: std::ops::Range<usize>,
        regs: &mut Registers,
        on_match: &mut dyn FnMut(&Registers) -> bool,
    ) -> bool {
        let Some(step) = self.plan.steps.first() else {
            // The empty query has a single (empty) search node; by
            // convention it lives in the shard containing index 0.
            return shard.start == 0 && on_match(regs);
        };
        let Some(candidates) = step
            .spec
            .candidates(&self.index, self.handles[0].as_ref(), regs)
        else {
            return false;
        };
        let mut writes: Vec<Slot> = Vec::new();
        let mut found = false;
        let mut scanned = 0u64;
        let mut unified = 0u64;
        for row in candidates.slice(shard) {
            regs.undo(&mut writes);
            scanned += 1;
            if step.spec.apply(&self.index, row, regs, &mut writes) {
                unified += 1;
                if self.search(1, regs, on_match) {
                    found = true;
                    break;
                }
            }
        }
        regs.undo(&mut writes);
        self.flush_step(0, scanned, unified);
        found
    }

    fn run(&self, regs: &mut Registers, on_match: &mut dyn FnMut(&Registers) -> bool) -> bool {
        self.search(0, regs, on_match)
    }

    /// Flushes one step visit's locally-counted events to the trace sink
    /// (the single `Option` branch a traceless run pays per visit).
    #[inline]
    fn flush_step(&self, depth: usize, scanned: u64, unified: u64) {
        if let Some(sink) = &self.trace {
            let cell = sink.op(depth);
            cell.add_invocations(1);
            cell.add_rows(scanned);
            cell.add_matches(unified);
        }
    }

    fn search(
        &self,
        depth: usize,
        regs: &mut Registers,
        on_match: &mut dyn FnMut(&Registers) -> bool,
    ) -> bool {
        let Some(step) = self.plan.steps.get(depth) else {
            return on_match(regs);
        };
        let spec = &step.spec;
        let Some(candidates) = spec.candidates(&self.index, self.handles[depth].as_ref(), regs)
        else {
            // A key register is unbound: impossible by construction (probe
            // keys only use slots bound by earlier steps), kept as a safe
            // "no candidates" answer.
            self.flush_step(depth, 0, 0);
            return false;
        };
        let mut writes: Vec<Slot> = Vec::new();
        let mut found = false;
        let mut scanned = 0u64;
        let mut unified = 0u64;
        for row in candidates {
            regs.undo(&mut writes);
            scanned += 1;
            if spec.apply(&self.index, row, regs, &mut writes) {
                unified += 1;
                if self.search(depth + 1, regs, on_match) {
                    found = true;
                    break;
                }
            }
        }
        regs.undo(&mut writes);
        self.flush_step(depth, scanned, unified);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::{catalog, eval, Term};

    #[test]
    fn compiled_plan_matches_the_interpreter_on_figure1() {
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.satisfies(&db), eval::satisfies(&db, &q));
        let mut compiled: Vec<String> = plan
            .all_valuations(&db)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        let mut reference: Vec<String> = eval::all_valuations(&db, &q)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        compiled.sort();
        reference.sort();
        assert_eq!(compiled, reference);
    }

    #[test]
    fn base_bindings_constrain_the_search() {
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let plan = QueryPlan::compile(&q, Some(db.index().statistics()));
        let hit = Valuation::from_pairs([(Variable::new("x"), Value::str("KDD"))]);
        let miss = Valuation::from_pairs([(Variable::new("x"), Value::str("ICML"))]);
        assert!(plan.satisfies_with(&db, &hit));
        assert!(!plan.satisfies_with(&db, &miss));
        assert_eq!(
            plan.satisfies_with(&db, &hit),
            eval::satisfies_with(&db, &q, &hit)
        );
    }

    #[test]
    fn answers_project_free_variables() {
        let schema = cqa_data::Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema.clone())
            .atom(
                "C",
                [Term::var("x"), Term::var("y"), Term::constant("Rome")],
            )
            .atom("R", [Term::var("x"), Term::constant("A")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let db = catalog::conference_database();
        let plan = QueryPlan::compile(&q, Some(db.index().statistics()));
        assert_eq!(plan.answers(&db), eval::answers(&db, &q));
    }

    #[test]
    fn statistics_put_the_selective_atom_first() {
        // R has one fact, S has many: the plan should open with R.
        let schema = cqa_data::Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["a", "b"]).unwrap();
        for i in 0..50 {
            db.insert_values("S", [format!("b{i}"), format!("c{i}")])
                .unwrap();
        }
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("z")])
            .build()
            .unwrap();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        let text = plan.explain();
        let r_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("1."))
            .unwrap();
        assert!(r_line.contains("R("), "R should be joined first:\n{text}");
        assert!(!plan.satisfies(&db)); // no S(b, _) fact
        assert_eq!(plan.satisfies(&db), eval::satisfies(&db, &q));
    }

    #[test]
    fn empty_query_is_always_satisfied() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::boolean(schema.clone(), Vec::new()).unwrap();
        let plan = QueryPlan::compile(&q, None);
        assert!(plan.is_empty());
        let db = UncertainDatabase::new(schema);
        assert!(plan.satisfies(&db));
        assert_eq!(plan.all_valuations(&db).len(), 1);
        assert!(plan.explain().contains("empty query"));
    }

    #[test]
    fn shards_recombine_to_the_full_answer() {
        let schema = cqa_data::Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema.clone())
            .atom("C", [Term::var("x"), Term::var("y"), Term::var("c")])
            .atom("R", [Term::var("x"), Term::var("r")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let db = catalog::conference_database();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        let prepared = plan.prepare(&index);
        let width = prepared.root_width().expect("non-empty plan");
        assert!(width > 0);
        let full = prepared.answers();
        let full_satisfies = prepared.satisfies();
        // Partition 0..width into k shards, for several k (including more
        // shards than candidates): unions and disjunctions must recombine.
        for shards in [1usize, 2, 3, 7, width + 3] {
            let per = width.div_ceil(shards);
            let mut union = BTreeSet::new();
            let mut any = false;
            for s in 0..shards {
                let range = s * per..((s + 1) * per).min(width);
                union.extend(prepared.answers_shard(range.clone()));
                any |= prepared.satisfies_shard(range);
            }
            assert_eq!(union, full, "answers with {shards} shards");
            assert_eq!(any, full_satisfies, "satisfies with {shards} shards");
        }
        // Out-of-range shards are clamped to empty.
        assert!(prepared.answers_shard(width + 10..width + 20).is_empty());
        assert!(!prepared.satisfies_shard(width..width));
    }

    #[test]
    fn empty_plans_have_no_root_width_and_positive_work() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let empty = ConjunctiveQuery::boolean(schema.clone(), Vec::new()).unwrap();
        let plan = QueryPlan::compile(&empty, None);
        let db = UncertainDatabase::new(schema);
        let index = db.index();
        let prepared = plan.prepare(&index);
        assert_eq!(prepared.root_width(), None);
        // Shard 0 carries the single empty search node.
        assert!(prepared.satisfies_shard(0..1));
        assert!(!prepared.satisfies_shard(1..2));
        assert!(plan.estimated_work() >= 0.0);
        let q = catalog::conference().query;
        assert!(QueryPlan::compile(&q, None).estimated_work() >= 1.0);
    }

    #[test]
    fn wide_relations_fall_back_to_checked_positions() {
        let wide = 70usize;
        let schema = cqa_data::Schema::from_relations([("W", wide, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        let mut row = vec!["k"; wide];
        row[wide - 1] = "last";
        db.insert_values("W", row).unwrap();
        let mut hit: Vec<Term> = (0..wide - 1).map(|_| Term::var("x")).collect();
        hit.push(Term::constant("last"));
        let mut miss: Vec<Term> = (0..wide - 1).map(|_| Term::var("x")).collect();
        miss.push(Term::constant("other"));
        let q_hit = ConjunctiveQuery::builder(schema.clone())
            .atom("W", hit)
            .build()
            .unwrap();
        let q_miss = ConjunctiveQuery::builder(schema)
            .atom("W", miss)
            .build()
            .unwrap();
        let stats_index = db.index();
        let stats = stats_index.statistics();
        assert!(QueryPlan::compile(&q_hit, Some(stats)).satisfies(&db));
        assert!(!QueryPlan::compile(&q_miss, Some(stats)).satisfies(&db));
    }
}
