//! Compiled join plans for conjunctive queries.
//!
//! [`QueryPlan::compile`] lowers a [`ConjunctiveQuery`] into a fixed
//! sequence of probe steps over a register file. The join order is chosen
//! **once**, greedily, by the cost model: at each step the atom with the
//! smallest estimated candidate count given the already-bound variables is
//! appended (fail-first, decided at compile time). Execution is then a plain
//! backtracking loop over the steps: probe, iterate the dense candidate ids,
//! apply the per-position actions, descend — no ordering decisions, no
//! valuation cloning. The early-exit entry points (`satisfies*`,
//! `for_each_valuation`, `all_valuations`) run that loop;
//! [`PreparedQuery::answers`] runs the vectorized batch join over the same
//! steps, unless the plan's estimated work exceeds the join memory bound
//! [`QUERY_VEC_MAX`].
//!
//! [`QueryPlan::compile_bound`] takes **parameters**: variables the caller
//! binds at execute time through [`PreparedQuery::satisfies_with`]. They
//! count as bound from the first step on, so "does this fact or tuple
//! extend to a match" probes on them instead of scanning a relation.
//!
//! `cqa_query::eval::naive` is the reference semantics; the property suite
//! checks observational equality on randomized instances.

use crate::cost::CostModel;
use crate::probe::{BoundProbe, ProbeSpec, Registers, Slot, SlotState};
use crate::vec::QUERY_VEC_MAX;
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
    /// Slots every execution's base binds (see [`QueryPlan::compile_bound`]).
    params: Vec<Slot>,
    /// Cost-model estimate of the number of search nodes a full execution
    /// visits: the running product of the per-step candidate estimates,
    /// summed over the steps. An *estimate*, never consulted for
    /// correctness: `answers` runs the batch join unless it exceeds the
    /// memory bound [`QUERY_VEC_MAX`], past which a batch join could
    /// materialize unbounded intermediates.
    estimated_work: f64,
}

impl QueryPlan {
    /// Compiles `query` into a physical join plan. Statistics (typically
    /// [`DatabaseIndex::statistics`] of a representative snapshot) guide the
    /// join order; without them, neutral defaults still order keyed probes
    /// before full scans.
    pub fn compile(query: &ConjunctiveQuery, stats: Option<&Statistics>) -> QueryPlan {
        QueryPlan::compile_bound(query, &[], stats)
    }

    /// Compiles `query` with `params` bound before the first step: the join
    /// order treats them as known, so probes key on them from the start.
    /// Every execution must supply them through
    /// [`PreparedQuery::satisfies_with`]'s base. Parameters that do not
    /// occur in the query are ignored.
    pub fn compile_bound(
        query: &ConjunctiveQuery,
        params: &[Variable],
        stats: Option<&Statistics>,
    ) -> QueryPlan {
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
        let params: Vec<Slot> = params
            .iter()
            .filter_map(|v| slot_of.get(v).copied())
            .collect();
        let mut bound = vec![false; slots.len()];
        for &slot in &params {
            bound[slot] = true;
        }
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
        // shrinks it). `answers` compares it against the join memory bound.
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
            params,
            estimated_work,
        }
    }

    /// Binds the plan to an index snapshot, resolving every probe handle, so
    /// repeated executions against the snapshot skip the handle lookups.
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
            vec_steps,
            trace: None,
        }
    }

    /// Convenience: `db |= q` through the compiled plan.
    pub fn satisfies(&self, db: &UncertainDatabase) -> bool {
        self.prepare(&db.index()).satisfies()
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

    /// True iff `answers` streams through the row engine: the plan's
    /// estimated work exceeds the join memory bound [`QUERY_VEC_MAX`] (or
    /// there is no step to batch).
    fn streams_rows(&self) -> bool {
        self.steps.is_empty() || self.estimated_work > QUERY_VEC_MAX
    }

    fn render_with(&self, trace: Option<&TraceSink>) -> String {
        let mut out = String::new();
        if self.steps.is_empty() {
            out.push_str("  (empty query: always satisfied)\n");
            return out;
        }
        let path = if self.streams_rows() {
            "row-at-a-time backtracking"
        } else {
            "vectorized batch join"
        };
        let _ = writeln!(
            out,
            "  exec: est work ≈ {:.0} vs memory bound {QUERY_VEC_MAX:.0} → {path} for answers",
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
    pub(crate) vec_steps: Vec<crate::vec::VProbe>,
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl PreparedQuery<'_> {
    /// Installs a trace sink: every subsequent execution records its
    /// per-step events into it (the sink's cells are atomic, so executions
    /// on several threads can report into one sink). Tracing never changes
    /// answers.
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

    /// The register file holding `base`'s bindings of the query's
    /// variables.
    ///
    /// # Panics
    /// Under debug assertions, if `base` leaves a plan parameter unbound: the
    /// plan's probes key on it, so running would silently match nothing.
    fn registers(&self, base: &Valuation) -> Registers {
        let mut regs = Registers::new(self.plan.slots.len());
        for (slot, var) in self.plan.slots.iter().enumerate() {
            if let Some(value) = base.get(var) {
                regs.set(slot, value.clone());
            }
        }
        debug_assert!(
            self.plan
                .params
                .iter()
                .all(|&slot| regs.get(slot).is_some()),
            "the base must bind every plan parameter"
        );
        regs
    }

    /// True iff some valuation satisfies the query on the snapshot. The plan
    /// must have no parameters.
    pub fn satisfies(&self) -> bool {
        self.satisfies_with(&Valuation::new())
    }

    /// True iff some valuation *extending `base`* satisfies the query.
    /// `base` must bind every parameter of the plan
    /// ([`QueryPlan::compile_bound`]); it may bind other variables too, and
    /// bindings of variables that do not occur in the query are ignored.
    pub fn satisfies_with(&self, base: &Valuation) -> bool {
        self.entry_point(false, || {
            let mut regs = self.registers(base);
            self.run(&mut regs, &mut |_| true)
        })
    }

    /// All satisfying valuations over `vars(q)`. The plan must have no
    /// parameters.
    pub fn all_valuations(&self) -> Vec<Valuation> {
        let mut out = Vec::new();
        self.for_each_valuation(|theta| out.push(theta));
        out
    }

    /// Hands each satisfying valuation over `vars(q)` to `visit`, in the
    /// order [`all_valuations`](Self::all_valuations) lists them, without
    /// collecting them. The plan must have no parameters.
    pub fn for_each_valuation(&self, mut visit: impl FnMut(Valuation)) {
        self.entry_point(false, || {
            let mut regs = self.registers(&Valuation::new());
            self.run(&mut regs, &mut |regs| {
                visit(Valuation::from_pairs(
                    self.plan
                        .slots
                        .iter()
                        .enumerate()
                        .filter_map(|(s, v)| regs.get(s).map(|value| (v.clone(), value.clone()))),
                ));
                false
            });
        })
    }

    /// The answer tuples: projections of the satisfying valuations onto the
    /// query's free variables (the empty tuple for a satisfied Boolean
    /// query). The plan must have no parameters. Runs the batch join,
    /// unless the plan's estimated work exceeds the join memory bound
    /// [`QUERY_VEC_MAX`]: then the row engine streams the matches.
    pub fn answers(&self) -> BTreeSet<Vec<Value>> {
        debug_assert!(self.plan.params.is_empty(), "answers runs without a base");
        let vectorized = !self.plan.streams_rows();
        if vectorized {
            cqa_obs::count!("exec.query.answers.vec");
        } else {
            cqa_obs::count!("exec.query.answers.row");
        }
        self.entry_point(vectorized, || {
            if vectorized {
                return crate::vec::query_answers(self);
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
            // keys only use parameters, debug-asserted bound on entry, and
            // slots bound by earlier steps), kept as a safe "no candidates"
            // answer.
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
    use cqa_query::{catalog, eval::naive, Term};

    #[test]
    fn compiled_plan_matches_the_reference_on_figure1() {
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        assert_eq!(plan.len(), 2);
        assert!(QueryPlan::compile(&q, None).estimated_work >= 1.0);
        assert_eq!(plan.satisfies(&db), naive::satisfies(&db, &q));
        let mut compiled: Vec<String> = (plan.prepare(&index).all_valuations())
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        let mut reference: Vec<String> = naive::all_valuations(&db, &q)
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
        let index = db.index();
        let compiled = QueryPlan::compile(&q, Some(index.statistics()));
        let plan = compiled.prepare(&index);
        let hit = Valuation::from_pairs([(Variable::new("x"), Value::str("KDD"))]);
        let miss = Valuation::from_pairs([(Variable::new("x"), Value::str("ICML"))]);
        assert!(plan.satisfies_with(&hit));
        assert!(!plan.satisfies_with(&miss));
        assert_eq!(
            plan.satisfies_with(&hit),
            naive::satisfies_with(&db, &q, &hit)
        );
    }

    /// `R(x, y), S(y, z)` over 10,000 two-fact `R` blocks and 10,000 `S`
    /// facts, compiled with `x` as a parameter.
    fn parameterized_join() -> (UncertainDatabase, QueryPlan) {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        for i in 0..10_000 {
            db.insert_values("R", [format!("k{i}"), format!("a{i}")])
                .unwrap();
            db.insert_values("R", [format!("k{i}"), format!("b{i}")])
                .unwrap();
            db.insert_values("S", [format!("a{i}"), format!("c{i}")])
                .unwrap();
        }
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("z")])
            .build()
            .unwrap();
        let plan =
            QueryPlan::compile_bound(&q, &[Variable::new("x")], Some(db.index().statistics()));
        (db, plan)
    }

    #[test]
    fn parameters_are_probed_not_scanned() {
        let (db, plan) = parameterized_join();
        let index = db.index();
        for (key, expected) in [("k5000", true), ("k10000", false), ("k", false)] {
            let sink = Arc::new(TraceSink::new(plan.trace_ops()));
            let prepared = plan.prepare(&index).with_trace(sink.clone());
            let base = Valuation::from_pairs([(Variable::new("x"), Value::str(key))]);
            assert_eq!(prepared.satisfies_with(&base), expected, "x = {key}");
            // Each step reads at most one block: the two `R(key, ·)` facts,
            // then one `S` fact per `y` they bind. A plan that ignored the
            // parameter would open with a 10,000-row scan.
            for step in 0..plan.trace_ops() {
                assert!(
                    sink.op(step).rows() <= 2,
                    "x = {key}:\n{}",
                    plan.explain_analyze(&sink)
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "every plan parameter")]
    fn a_base_missing_a_parameter_is_a_caller_bug() {
        let (db, plan) = parameterized_join();
        let base = Valuation::from_pairs([(Variable::new("y"), Value::str("a1"))]);
        plan.prepare(&db.index()).satisfies_with(&base);
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
        let reference: BTreeSet<Vec<Value>> = naive::all_valuations(&db, &q)
            .iter()
            .filter_map(|v| v.project(q.free_vars()))
            .collect();
        assert_eq!(plan.answers(&db), reference);
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
        assert_eq!(plan.satisfies(&db), naive::satisfies(&db, &q));
    }

    #[test]
    fn empty_query_is_always_satisfied() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::boolean(schema.clone(), Vec::new()).unwrap();
        let plan = QueryPlan::compile(&q, None);
        assert!(plan.is_empty());
        assert!(plan.estimated_work >= 0.0);
        let db = UncertainDatabase::new(schema);
        assert!(plan.satisfies(&db));
        assert_eq!(plan.prepare(&db.index()).all_valuations().len(), 1);
        assert!(plan.explain().contains("empty query"));
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
