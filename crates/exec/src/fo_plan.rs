//! Compiled physical plans for first-order formulas.
//!
//! [`FoPlan::compile`] lowers a [`FoFormula`] — in practice the certain
//! rewritings of Theorem 1, whose shape is
//!
//! ```text
//! ∃ vars(F) [ R(x̄, ȳ) ∧ ∀ w̄ ( R(x̄, w̄) → ( equalities ∧ rest ) ) ]
//! ```
//!
//! — into a tree of physical operators over numbered variable slots. Only
//! this **guarded** form compiles: every `∃` variable must be bound by a
//! positive conjunct atom, and every `∀` must be an implication whose
//! antecedent atom binds all its variables. Theorem 1's rewritings always
//! have this form; an unguarded quantifier, or a variable no quantifier or
//! free-variable list binds, is [`QueryError::Unsupported`].
//! The operators:
//!
//! * **`∃-scan`** — an existential quantifier iterates its guard atom's
//!   facts (an index probe on the already-bound positions) instead of the
//!   active domain;
//! * **`∀-block`** — the ∀-over-block shape above iterates the facts of the
//!   guard atom's probe bucket (for a rewriting: the facts of one block)
//!   instead of sweeping `|adom|^|w̄|` assignments — the operator that makes
//!   compiled rewriting evaluation fast;
//! * **`lookup`** — a fully-bound atom is a single hash probe;
//! * **`¬`** — complement; `¬` over a scan is the anti-join form in which
//!   negation executes.
//!
//! Quantifier variables are **alpha-renamed to fresh slots** at compile
//! time, so shadowing is resolved once.
//!
//! A [`PreparedFo`] evaluates through the vectorized executor
//! ([`mod@crate::vec`]), which has a batch kernel for every operator.
//!
//! `cqa_core::fo::eval` remains the reference semantics, and evaluates any
//! formula; the property suite checks observational equality on randomized
//! instances.

use crate::cost::CostModel;
use crate::probe::{BoundProbe, KeySource, ProbeSpec, Slot, SlotState};
use cqa_data::{
    DatabaseIndex, PositionSet, RelationId, Schema, Statistics, UncertainDatabase, Value,
};
use cqa_obs::TraceSink;
use cqa_query::fo_formula::FoFormula;
use cqa_query::{QueryError, Term, Variable};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// A physical operator of a compiled formula plan.
pub(crate) enum FoOp {
    /// A constant verdict.
    Bool(bool),
    /// Membership test of a fully-bound atom: one index probe.
    Lookup(ProbeSpec),
    /// Equality of two bound sources (`false` if either is unbound, the
    /// interpreter's convention for open formulas).
    Eq(KeySource, KeySource),
    /// Complement (negation / anti-join when the child is a scan).
    Not(Box<FoOp>),
    /// Conjunction, cheap operators first (compile-time reordering).
    All(Vec<FoOp>),
    /// Disjunction.
    Any(Vec<FoOp>),
    /// ∃ over the facts of a guard atom: probe, bind, try the body.
    ExistsScan { spec: ProbeSpec, body: Box<FoOp> },
    /// ∀ over the facts of a guard atom (the block-quantified operator):
    /// every unifying candidate must satisfy the body.
    ForallBlock { spec: ProbeSpec, body: Box<FoOp> },
}

impl FoOp {
    /// True iff evaluating the operator may iterate (scan/quantify) rather
    /// than answer in O(1)/one probe — used to order conjuncts cheap-first.
    fn has_scan(&self) -> bool {
        match self {
            FoOp::Bool(_) | FoOp::Lookup(_) | FoOp::Eq(_, _) => false,
            FoOp::Not(inner) => inner.has_scan(),
            FoOp::All(parts) | FoOp::Any(parts) => parts.iter().any(FoOp::has_scan),
            FoOp::ExistsScan { .. } | FoOp::ForallBlock { .. } => true,
        }
    }
}

/// A compiled, immutable, shareable plan for one first-order formula over
/// one schema. Compile once; [`FoPlan::prepare`] binds it to a
/// [`DatabaseIndex`] snapshot for execution.
pub struct FoPlan {
    pub(crate) schema: Arc<Schema>,
    pub(crate) root: FoOp,
    /// Slot → display name. Quantifier occurrences are alpha-renamed, so
    /// two scopes reusing a variable name own distinct slots.
    pub(crate) slots: Vec<Variable>,
    /// Free variables of the formula and their root slots (empty for the
    /// sentences produced by `certain_rewriting`).
    pub(crate) free: Vec<(Variable, Slot)>,
    probe_count: usize,
}

impl FoPlan {
    /// Compiles `formula` over `schema`. Statistics guide guard-atom
    /// choices; they affect speed only, never the verdict.
    ///
    /// # Errors
    /// [`QueryError::Unsupported`] if a quantifier is unguarded: an `∃`
    /// variable that no positive conjunct atom binds, or a `∀` that is not
    /// an implication from an atom binding all its variables. Certain
    /// rewritings (Theorem 1) never are.
    pub fn compile(
        formula: &FoFormula,
        schema: &Arc<Schema>,
        stats: Option<&Statistics>,
    ) -> Result<FoPlan, QueryError> {
        let mut lowerer = Lowerer::new(stats);
        let mut free_vars = BTreeSet::new();
        collect_free_vars(formula, &mut Vec::new(), &mut free_vars);
        let free: Vec<(Variable, Slot)> = free_vars
            .into_iter()
            .map(|v| {
                let slot = lowerer.alloc(&v);
                lowerer.scope.push((v.clone(), slot));
                lowerer.bound[slot] = true;
                (v, slot)
            })
            .collect();
        let root = lowerer.lower(formula)?;
        Ok(FoPlan {
            schema: schema.clone(),
            root,
            slots: lowerer.slots,
            free,
            probe_count: lowerer.probe_count,
        })
    }

    /// Binds the plan to an index snapshot, resolving every probe handle
    /// and lowering the operator tree to its batch form.
    pub fn prepare<'p>(&'p self, index: &Arc<DatabaseIndex>) -> PreparedFo<'p> {
        let mut handles = Vec::new();
        handles.resize_with(self.probe_count, || None);
        resolve_probes(&self.root, index, &mut handles);
        let vec = crate::vec::VecFo::build(&self.root, index, &handles);
        PreparedFo {
            plan: self,
            index: index.clone(),
            handles,
            vec,
            trace: None,
        }
    }

    /// Convenience: evaluates the plan as a sentence on `db`.
    pub fn eval(&self, db: &UncertainDatabase) -> bool {
        self.prepare(&db.index()).eval()
    }

    /// Number of trace cells a [`cqa_obs::TraceSink`] for this plan needs:
    /// one per probing/scanning operator.
    pub fn trace_ops(&self) -> usize {
        self.probe_count
    }

    /// Renders the operator tree, one operator per line, with probe
    /// patterns and cost-model estimates.
    pub fn explain(&self) -> String {
        self.render_with(None)
    }

    /// [`FoPlan::explain`] plus the **actuals** a traced execution
    /// recorded: per-operator invocation/row/match counts (and waves where
    /// they occurred) next to the estimates, and a header line with run
    /// count and wall time.
    pub fn explain_analyze(&self, trace: &TraceSink) -> String {
        self.render_with(Some(trace))
    }

    fn render_with(&self, trace: Option<&TraceSink>) -> String {
        let mut out = String::new();
        if let Some(sink) = trace {
            let _ = writeln!(
                out,
                "  actual: {} vectorized run(s), wall {:.3} ms",
                sink.vec_runs(),
                sink.wall().as_secs_f64() * 1e3,
            );
        }
        self.render(&self.root, 1, trace, &mut out);
        out
    }

    fn render(&self, op: &FoOp, depth: usize, trace: Option<&TraceSink>, out: &mut String) {
        let pad = "  ".repeat(depth);
        let act = trace_suffix(trace, fo_op_trace_id(op));
        match op {
            FoOp::Bool(b) => {
                let _ = writeln!(out, "{pad}{b}");
            }
            FoOp::Lookup(spec) => {
                let _ = writeln!(
                    out,
                    "{pad}lookup {}{act}",
                    spec.render(&self.schema, &self.slots)
                );
            }
            FoOp::Eq(a, b) => {
                let name = |src: &KeySource| match src {
                    KeySource::Const(c) => format!("{c:?}"),
                    KeySource::Slot(s) => self.slots[*s].to_string(),
                };
                let _ = writeln!(out, "{pad}{} = {}", name(a), name(b));
            }
            FoOp::Not(inner) => {
                let _ = writeln!(out, "{pad}¬");
                self.render(inner, depth + 1, trace, out);
            }
            FoOp::All(parts) => {
                let _ = writeln!(out, "{pad}all");
                for p in parts {
                    self.render(p, depth + 1, trace, out);
                }
            }
            FoOp::Any(parts) => {
                let _ = writeln!(out, "{pad}any");
                for p in parts {
                    self.render(p, depth + 1, trace, out);
                }
            }
            FoOp::ExistsScan { spec, body } => {
                let _ = writeln!(
                    out,
                    "{pad}∃-scan {:<40} est ≈ {:.1} rows{act}",
                    spec.render(&self.schema, &self.slots),
                    spec.estimated_rows
                );
                self.render(body, depth + 1, trace, out);
            }
            FoOp::ForallBlock { spec, body } => {
                let _ = writeln!(
                    out,
                    "{pad}∀-block {:<39} est ≈ {:.1} rows{act}",
                    spec.render(&self.schema, &self.slots),
                    spec.estimated_rows
                );
                self.render(body, depth + 1, trace, out);
            }
        }
    }
}

/// The trace-cell id of one operator, `None` for operators that are not
/// traced (constant-time combinators).
fn fo_op_trace_id(op: &FoOp) -> Option<usize> {
    match op {
        FoOp::Bool(_) | FoOp::Eq(_, _) | FoOp::Not(_) | FoOp::All(_) | FoOp::Any(_) => None,
        FoOp::Lookup(spec) | FoOp::ExistsScan { spec, .. } | FoOp::ForallBlock { spec, .. } => {
            Some(spec.probe_id)
        }
    }
}

/// The `| act: …` suffix of one explain-analyze line: what the traced
/// execution actually did at this operator.
pub(crate) fn trace_suffix(trace: Option<&TraceSink>, id: Option<usize>) -> String {
    let (Some(sink), Some(id)) = (trace, id) else {
        return String::new();
    };
    let cell = sink.op(id);
    if cell.is_empty() {
        return "  | act: not visited".to_owned();
    }
    let mut out = format!(
        "  | act: {} inv, {} rows, {} hit",
        cell.invocations(),
        cell.rows(),
        cell.matches(),
    );
    if cell.waves() > 0 {
        let _ = write!(out, ", {} waves", cell.waves());
    }
    out
}

/// Collects the free variables of a formula (those evaluated from the
/// caller's environment).
fn collect_free_vars<'f>(
    formula: &'f FoFormula,
    quantified: &mut Vec<&'f Variable>,
    out: &mut BTreeSet<Variable>,
) {
    match formula {
        FoFormula::True | FoFormula::False => {}
        FoFormula::Atom { terms, .. } => {
            for t in terms {
                if let Term::Var(v) = t {
                    if !quantified.contains(&v) {
                        out.insert(v.clone());
                    }
                }
            }
        }
        FoFormula::Equals(a, b) => {
            for t in [a, b] {
                if let Term::Var(v) = t {
                    if !quantified.contains(&v) {
                        out.insert(v.clone());
                    }
                }
            }
        }
        FoFormula::Not(f) => collect_free_vars(f, quantified, out),
        FoFormula::And(parts) | FoFormula::Or(parts) => {
            for p in parts {
                collect_free_vars(p, quantified, out);
            }
        }
        FoFormula::Implies(a, b) => {
            collect_free_vars(a, quantified, out);
            collect_free_vars(b, quantified, out);
        }
        FoFormula::Exists(vars, body) | FoFormula::Forall(vars, body) => {
            let before = quantified.len();
            quantified.extend(vars.iter());
            collect_free_vars(body, quantified, out);
            quantified.truncate(before);
        }
    }
}

/// Walks the operator tree resolving each probe site's index handle.
fn resolve_probes(op: &FoOp, index: &Arc<DatabaseIndex>, handles: &mut Vec<Option<BoundProbe>>) {
    let mut resolve_spec = |spec: &ProbeSpec| handles[spec.probe_id] = spec.bind(index);
    match op {
        FoOp::Bool(_) | FoOp::Eq(_, _) => {}
        FoOp::Lookup(spec) => resolve_spec(spec),
        FoOp::Not(inner) => resolve_probes(inner, index, handles),
        FoOp::All(parts) | FoOp::Any(parts) => {
            for p in parts {
                resolve_probes(p, index, handles);
            }
        }
        FoOp::ExistsScan { spec, body } | FoOp::ForallBlock { spec, body } => {
            resolve_spec(spec);
            resolve_probes(body, index, handles);
        }
    }
}

/// Compile-time state of the lowering pass.
struct Lowerer<'a> {
    cost: CostModel<'a>,
    slots: Vec<Variable>,
    bound: Vec<bool>,
    /// Scope stack (variable → slot); lookups scan from the back, which
    /// implements shadowing, and each quantifier allocates fresh slots
    /// (alpha-renaming).
    scope: Vec<(Variable, Slot)>,
    probe_count: usize,
}

impl<'a> Lowerer<'a> {
    fn new(stats: Option<&'a Statistics>) -> Self {
        Lowerer {
            cost: CostModel::new(stats),
            slots: Vec::new(),
            bound: Vec::new(),
            scope: Vec::new(),
            probe_count: 0,
        }
    }

    fn alloc(&mut self, v: &Variable) -> Slot {
        self.slots.push(v.clone());
        self.bound.push(false);
        self.slots.len() - 1
    }

    fn slot_lookup(&self, v: &Variable) -> Option<Slot> {
        self.scope
            .iter()
            .rev()
            .find(|(name, _)| name == v)
            .map(|&(_, slot)| slot)
    }

    fn next_probe(&mut self) -> usize {
        self.probe_count += 1;
        self.probe_count - 1
    }

    /// The slot of a term when it resolves to a *bound* source.
    fn bound_source(&self, term: &Term) -> Option<KeySource> {
        match term {
            Term::Const(c) => Some(KeySource::Const(c.clone())),
            Term::Var(v) => {
                let slot = self.slot_lookup(v)?;
                self.bound[slot].then_some(KeySource::Slot(slot))
            }
        }
    }

    /// The key source of a term outside any guard. Every variable is bound
    /// there — a free variable at the root, a quantified one by its guard
    /// before its body lowers — so an unbound one is an error.
    fn bound_term(&self, term: &Term) -> Result<KeySource, QueryError> {
        self.bound_source(term)
            .ok_or_else(|| QueryError::Unsupported {
                reason: format!(
                    "{term} is unbound: a compiled plan binds free variables at its root and \
                     quantified ones by a guard atom"
                ),
            })
    }

    /// Builds the probe spec of one atom with the current scope/bound state.
    fn atom_spec(&mut self, relation: RelationId, terms: &[Term]) -> ProbeSpec {
        let probe_id = self.next_probe();
        let scope = &self.scope;
        let bound = &self.bound;
        let mut spec = ProbeSpec::build(
            relation,
            terms,
            &mut |v| {
                let slot = scope
                    .iter()
                    .rev()
                    .find(|(name, _)| name == v)
                    .map(|&(_, slot)| slot)
                    .expect("atom_spec requires resolvable variables");
                if bound[slot] {
                    SlotState::Bound(slot)
                } else {
                    SlotState::Unbound(slot)
                }
            },
            probe_id,
        );
        spec.estimated_rows = self.cost.estimate_rows(relation, spec.positions);
        spec
    }

    fn lower(&mut self, formula: &FoFormula) -> Result<FoOp, QueryError> {
        Ok(match formula {
            FoFormula::True => FoOp::Bool(true),
            FoFormula::False => FoOp::Bool(false),
            FoFormula::Atom { relation, terms } => {
                for term in terms {
                    self.bound_term(term)?;
                }
                FoOp::Lookup(self.atom_spec(*relation, terms))
            }
            FoFormula::Equals(a, b) => FoOp::Eq(self.bound_term(a)?, self.bound_term(b)?),
            FoFormula::Not(inner) => FoOp::Not(Box::new(self.lower(inner)?)),
            FoFormula::And(parts) => Self::ordered_all(self.lower_all(parts.iter())?),
            FoFormula::Or(parts) => FoOp::Any(self.lower_all(parts.iter())?),
            FoFormula::Implies(a, b) => {
                let guard = self.lower(a)?;
                let conclusion = self.lower(b)?;
                FoOp::Any(vec![FoOp::Not(Box::new(guard)), conclusion])
            }
            FoFormula::Exists(vars, body) => self.lower_exists(vars, body)?,
            FoFormula::Forall(vars, body) => self.lower_forall(vars, body)?,
        })
    }

    fn lower_all<'f>(
        &mut self,
        parts: impl Iterator<Item = &'f FoFormula>,
    ) -> Result<Vec<FoOp>, QueryError> {
        parts.map(|p| self.lower(p)).collect()
    }

    /// Conjunction with cheap (probe/equality) operators ahead of scans.
    fn ordered_all(parts: Vec<FoOp>) -> FoOp {
        let mut cheap = Vec::new();
        let mut scans = Vec::new();
        for p in parts {
            if p.has_scan() {
                scans.push(p);
            } else {
                cheap.push(p);
            }
        }
        cheap.extend(scans);
        match cheap.len() {
            0 => FoOp::Bool(true),
            1 => cheap.pop().expect("len checked"),
            _ => FoOp::All(cheap),
        }
    }

    /// Allocates fresh slots for a quantifier's variables and brings them
    /// into scope; returns the slots and the scope height to restore.
    fn open_scope(&mut self, vars: &[Variable]) -> (Vec<Slot>, usize) {
        let scope_base = self.scope.len();
        let var_slots = vars
            .iter()
            .map(|v| {
                let slot = self.alloc(v);
                self.scope.push((v.clone(), slot));
                slot
            })
            .collect();
        (var_slots, scope_base)
    }

    /// Ends a quantifier's scope opened by [`Lowerer::open_scope`].
    fn close_scope(&mut self, var_slots: Vec<Slot>, scope_base: usize) {
        self.scope.truncate(scope_base);
        for slot in var_slots {
            self.bound[slot] = false;
        }
    }

    /// The error for quantified variables no guard atom binds.
    fn unguarded(&self, quantifier: char, slots: &[Slot]) -> QueryError {
        let names: Vec<String> = slots.iter().map(|&s| self.slots[s].to_string()).collect();
        QueryError::Unsupported {
            reason: format!(
                "{quantifier}{} is unguarded: a compiled plan needs a guard atom binding every \
                 quantified variable, as in a certain rewriting",
                names.join(", ")
            ),
        }
    }

    fn lower_exists(&mut self, vars: &[Variable], body: &FoFormula) -> Result<FoOp, QueryError> {
        let (var_slots, scope_base) = self.open_scope(vars);
        let conjuncts: Vec<&FoFormula> = flatten_and(body);
        let mut consumed = vec![false; conjuncts.len()];
        let mut layers: Vec<ProbeSpec> = Vec::new();
        while let Some(&unbound) = var_slots.iter().find(|&&s| !self.bound[s]) {
            // Best guard: the positive conjunct atom binding the most still-
            // unbound quantified variables, then the cheapest probe.
            let mut best: Option<(usize, usize, f64)> = None;
            for (i, conjunct) in conjuncts.iter().enumerate() {
                if consumed[i] {
                    continue;
                }
                let FoFormula::Atom { relation, terms } = conjunct else {
                    continue;
                };
                let Some((newly, probed)) = self.guard_shape(terms) else {
                    continue;
                };
                if newly == 0 {
                    continue;
                }
                let est = self.cost.estimate_rows(*relation, probed);
                let better = match best {
                    None => true,
                    Some((_, best_newly, best_est)) => {
                        newly > best_newly || (newly == best_newly && est < best_est)
                    }
                };
                if better {
                    best = Some((i, newly, est));
                }
            }
            let Some((i, _, _)) = best else {
                return Err(self.unguarded('∃', &[unbound]));
            };
            consumed[i] = true;
            let FoFormula::Atom { relation, terms } = conjuncts[i] else {
                unreachable!("guards are atoms");
            };
            let spec = self.atom_spec(*relation, terms);
            for slot in spec.bound_slots() {
                self.bound[slot] = true;
            }
            layers.push(spec);
        }
        let inner = self.lower_all(
            (conjuncts.iter().zip(&consumed))
                .filter(|(_, &c)| !c)
                .map(|(p, _)| *p),
        )?;
        let mut op = Self::ordered_all(inner);
        for spec in layers.into_iter().rev() {
            op = FoOp::ExistsScan {
                spec,
                body: Box::new(op),
            };
        }
        self.close_scope(var_slots, scope_base);
        Ok(op)
    }

    fn lower_forall(&mut self, vars: &[Variable], body: &FoFormula) -> Result<FoOp, QueryError> {
        let (var_slots, scope_base) = self.open_scope(vars);
        // The Theorem 1 shape ∀w̄ (R(x̄, w̄) → body): iterate the guard's
        // probe bucket — for a rewriting, exactly one block — instead of
        // |adom|^|w̄| assignments.
        let FoFormula::Implies(guard, inner) = body else {
            return Err(self.unguarded('∀', &var_slots));
        };
        let FoFormula::Atom { relation, terms } = &**guard else {
            return Err(self.unguarded('∀', &var_slots));
        };
        let spec = self.atom_spec(*relation, terms);
        for slot in spec.bound_slots() {
            self.bound[slot] = true;
        }
        let unbound: Vec<Slot> = (var_slots.iter().copied())
            .filter(|&s| !self.bound[s])
            .collect();
        if !unbound.is_empty() {
            return Err(self.unguarded('∀', &unbound));
        }
        let op = FoOp::ForallBlock {
            spec,
            body: Box::new(self.lower(inner)?),
        };
        self.close_scope(var_slots, scope_base);
        Ok(op)
    }

    /// For a guard candidate: how many still-unbound variables the atom
    /// would bind, and which positions its probe could use. `None` when the
    /// atom mentions an unresolvable variable.
    fn guard_shape(&self, terms: &[Term]) -> Option<(usize, PositionSet)> {
        let mut newly: Vec<Slot> = Vec::new();
        let mut probed = PositionSet::empty();
        for (pos, term) in terms.iter().enumerate() {
            match term {
                Term::Const(_) => {
                    if pos < PositionSet::MAX_POSITIONS {
                        probed.insert(pos);
                    }
                }
                Term::Var(v) => {
                    let slot = self.slot_lookup(v)?;
                    if self.bound[slot] {
                        if pos < PositionSet::MAX_POSITIONS {
                            probed.insert(pos);
                        }
                    } else if !newly.contains(&slot) {
                        newly.push(slot);
                    }
                }
            }
        }
        Some((newly.len(), probed))
    }
}

/// The conjuncts of a top-level conjunction (or the formula itself).
fn flatten_and(formula: &FoFormula) -> Vec<&FoFormula> {
    match formula {
        FoFormula::And(parts) => parts.iter().collect(),
        other => vec![other],
    }
}

/// An [`FoPlan`] resolved against one [`DatabaseIndex`] snapshot.
pub struct PreparedFo<'p> {
    pub(crate) plan: &'p FoPlan,
    pub(crate) index: Arc<DatabaseIndex>,
    pub(crate) handles: Vec<Option<BoundProbe>>,
    pub(crate) vec: crate::vec::VecFo,
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl PreparedFo<'_> {
    /// Installs a trace sink: every subsequent evaluation records its
    /// per-operator events into it (the sink's cells are atomic, so
    /// evaluations on several threads can report into one sink). Tracing
    /// never changes verdicts.
    ///
    /// # Panics
    /// If the sink was not sized with [`FoPlan::trace_ops`].
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        assert_eq!(
            sink.op_count(),
            self.plan.trace_ops(),
            "trace sink sized for a different plan"
        );
        self.trace = Some(sink);
        self
    }

    /// Records one vectorized entry-point run and its wall time into the
    /// installed trace sink (a no-op without one).
    fn entry_point<T>(&self, run: impl FnOnce() -> T) -> T {
        let Some(sink) = &self.trace else {
            return run();
        };
        sink.count_vec_run();
        let started = Instant::now();
        let out = run();
        sink.add_wall(started.elapsed());
        out
    }

    /// Evaluates the plan as a sentence (unbound free variables make atoms
    /// and equalities false).
    pub fn eval(&self) -> bool {
        cqa_obs::count!("exec.fo.eval.vec");
        self.entry_point(|| crate::vec::eval_sentence(self))
    }

    /// Batch-evaluates the open formula under `vars ↦ tuples[i]` for every
    /// tuple, returning one verdict per tuple (positionally); free variables
    /// not in `vars` stay unbound. The entry point the certain answers of an
    /// open query batch their candidate tuples through.
    ///
    /// A tuple binding a free variable to a value with no dictionary code
    /// (no fact carries it) answers `false` without evaluation. For the
    /// open rewriting of a query `q` that is the verdict: every free
    /// variable of `q` occurs in an atom, so such a tuple is not a possible
    /// answer, and every certain answer is possible.
    pub fn eval_tuples(&self, vars: &[Variable], tuples: &[Vec<Value>]) -> Vec<bool> {
        cqa_obs::observe!("exec.fo.batch_tuples", tuples.len() as u64);
        cqa_obs::count!("exec.fo.eval_tuples.vec");
        self.entry_point(|| crate::vec::eval_tuples(self, vars, tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::Schema;

    fn db() -> UncertainDatabase {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        db.insert_values("R", ["a", "2"]).unwrap();
        db.insert_values("R", ["b", "1"]).unwrap();
        db
    }

    fn rel(db: &UncertainDatabase) -> RelationId {
        db.schema().relation_id("R").unwrap()
    }

    fn compile(formula: &FoFormula, db: &UncertainDatabase) -> FoPlan {
        let index = db.index();
        let stats = index.statistics().clone();
        FoPlan::compile(formula, db.schema(), Some(&stats)).expect("a guarded formula")
    }

    #[test]
    fn lookups_and_equalities() {
        let db = db();
        let r = rel(&db);
        let present = FoFormula::atom(r, vec![Term::constant("a"), Term::constant("1")]);
        let absent = FoFormula::atom(r, vec![Term::constant("b"), Term::constant("2")]);
        assert!(compile(&present, &db).eval(&db));
        assert!(!compile(&absent, &db).eval(&db));
        let eq = FoFormula::Equals(Term::constant("x"), Term::constant("x"));
        let ne = FoFormula::Equals(Term::constant("x"), Term::constant("y"));
        assert!(compile(&eq, &db).eval(&db));
        assert!(!compile(&ne, &db).eval(&db));
    }

    #[test]
    fn existential_scans_and_block_foralls() {
        let db = db();
        let r = rel(&db);
        // ∃x R(x, '1') — compiled to a single ∃-scan.
        let exists = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::atom(r, vec![Term::var("x"), Term::constant("1")]),
        );
        let plan = compile(&exists, &db);
        assert!(plan.explain().contains("∃-scan"));
        assert!(plan.eval(&db));
        // ∃x∃y (R(x, y) ∧ y = '2') — a root ∃-scan over all three R facts
        // whose only witness is not the first candidate.
        let later_witness = FoFormula::exists(
            vec![Variable::new("x"), Variable::new("y")],
            FoFormula::and(vec![
                FoFormula::atom(r, vec![Term::var("x"), Term::var("y")]),
                FoFormula::Equals(Term::var("y"), Term::constant("2")),
            ]),
        );
        assert!(compile(&later_witness, &db).eval(&db));
        // ∀y (R('a', y) → y = '1') — false: R(a, 2) exists. Compiled to a
        // ∀-block over the 'a' block.
        let forall = FoFormula::forall(
            vec![Variable::new("y")],
            FoFormula::Implies(
                Box::new(FoFormula::atom(
                    r,
                    vec![Term::constant("a"), Term::var("y")],
                )),
                Box::new(FoFormula::Equals(Term::var("y"), Term::constant("1"))),
            ),
        );
        let plan = compile(&forall, &db);
        assert!(plan.explain().contains("∀-block"));
        assert!(!plan.eval(&db));
        // ∀y (R('b', y) → y = '1') — true: the b block is {R(b, 1)}.
        let forall_b = FoFormula::forall(
            vec![Variable::new("y")],
            FoFormula::Implies(
                Box::new(FoFormula::atom(
                    r,
                    vec![Term::constant("b"), Term::var("y")],
                )),
                Box::new(FoFormula::Equals(Term::var("y"), Term::constant("1"))),
            ),
        );
        assert!(compile(&forall_b, &db).eval(&db));
    }

    #[test]
    fn shadowed_quantifiers_get_fresh_slots() {
        let db = db();
        let r = rel(&db);
        // ∃x (R(x,'2') ∧ ∃x R(x,'1')): the inner x shadows the outer.
        let inner = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::atom(r, vec![Term::var("x"), Term::constant("1")]),
        );
        let outer = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::and(vec![
                FoFormula::atom(r, vec![Term::var("x"), Term::constant("2")]),
                inner,
            ]),
        );
        let plan = compile(&outer, &db);
        assert!(plan.eval(&db));
        // Two distinct slots were allocated for the two x scopes.
        assert_eq!(plan.slots.iter().filter(|v| v.name() == "x").count(), 2);
    }

    #[test]
    fn unguarded_quantifiers_do_not_compile() {
        let db = db();
        let r = rel(&db);
        let var = Variable::new;
        let x = || Term::var("x");
        let not = |f: FoFormula| FoFormula::Not(Box::new(f));
        let sentences = [
            // ∃x (∃y R(x,y) ∧ ¬R(x,'1')): no conjunct atom binds x.
            FoFormula::exists(
                vec![var("x")],
                FoFormula::and(vec![
                    FoFormula::exists(
                        vec![var("y")],
                        FoFormula::atom(r, vec![x(), Term::var("y")]),
                    ),
                    not(FoFormula::atom(r, vec![x(), Term::constant("1")])),
                ]),
            ),
            // ∃x ¬R(x,'1'): a negated body guards nothing.
            FoFormula::exists(
                vec![var("x")],
                not(FoFormula::atom(r, vec![x(), Term::constant("1")])),
            ),
            // ∀x ¬R(x,x): no implication.
            FoFormula::forall(vec![var("x")], not(FoFormula::atom(r, vec![x(), x()]))),
            // ∀x∀y (R(x,'1') → x = y): the antecedent leaves y unbound.
            FoFormula::forall(
                vec![var("x"), var("y")],
                FoFormula::Implies(
                    Box::new(FoFormula::atom(r, vec![x(), Term::constant("1")])),
                    Box::new(FoFormula::Equals(x(), Term::var("y"))),
                ),
            ),
        ];
        for sentence in &sentences {
            let compiled = FoPlan::compile(sentence, db.schema(), None);
            assert!(
                matches!(compiled, Err(QueryError::Unsupported { .. })),
                "{} compiled",
                sentence.display(db.schema())
            );
        }
    }

    #[test]
    fn an_unbound_variable_outside_a_guard_does_not_compile() {
        // `compile` binds every variable before an atom or an equality
        // lowers, so only a lowerer with nothing in scope meets one.
        let db = db();
        let r = rel(&db);
        let formulas = [
            FoFormula::atom(r, vec![Term::var("x"), Term::constant("1")]),
            FoFormula::Equals(Term::constant("1"), Term::var("x")),
        ];
        for formula in &formulas {
            let lowered = Lowerer::new(None).lower(formula);
            assert!(
                matches!(lowered, Err(QueryError::Unsupported { .. })),
                "{} lowered",
                formula.display(db.schema())
            );
        }
    }

    #[test]
    fn empty_databases_follow_quantifier_conventions() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let empty = UncertainDatabase::new(schema.clone());
        let r = empty.schema().relation_id("R").unwrap();
        let exists = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::atom(r, vec![Term::var("x"), Term::var("x")]),
        );
        // ∀x (R(x, x) → False)
        let forall = FoFormula::forall(
            vec![Variable::new("x")],
            FoFormula::Implies(
                Box::new(FoFormula::atom(r, vec![Term::var("x"), Term::var("x")])),
                Box::new(FoFormula::False),
            ),
        );
        let plan = |f: &FoFormula| FoPlan::compile(f, &schema, None).expect("a guarded formula");
        assert!(!plan(&exists).eval(&empty));
        assert!(plan(&forall).eval(&empty), "∀ over an empty block is true");
    }

    #[test]
    fn free_variables_come_from_the_environment() {
        let db = db();
        let r = rel(&db);
        let open = FoFormula::atom(r, vec![Term::var("x"), Term::constant("1")]);
        let plan = compile(&open, &db);
        assert_eq!(plan.free.len(), 1);
        let tuples = [vec![Value::str("a")], vec![Value::str("z")]];
        let verdicts = plan
            .prepare(&db.index())
            .eval_tuples(&[Variable::new("x")], &tuples);
        assert_eq!(verdicts, [true, false]);
        // Unbound free variables make atoms false (interpreter convention).
        assert!(!plan.eval(&db));
    }
}
