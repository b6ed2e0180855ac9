//! Compiled physical plans for first-order formulas.
//!
//! [`FoPlan::compile`] lowers a [`FoFormula`] — in practice the certain
//! rewritings of Theorem 1, whose shape is
//!
//! ```text
//! ∃ vars(F) [ R(x̄, ȳ) ∧ ∀ w̄ ( R(x̄, w̄) → ( equalities ∧ rest ) ) ]
//! ```
//!
//! — into a tree of physical operators over a register file:
//!
//! * **`∃-scan`** — an existential quantifier whose variables occur in a
//!   positive conjunct atom iterates that atom's facts (an index probe on
//!   the already-bound positions) instead of the active domain;
//! * **`∀-block`** — the ∀-over-block shape above iterates the facts of the
//!   guard atom's probe bucket (for a rewriting: the facts of one block)
//!   instead of sweeping `|adom|^|w̄|` assignments — the operator that makes
//!   compiled rewriting evaluation fast;
//! * **`∃-column` / `∃-domain` / `∀-domain`** — quantified variables not
//!   covered by a guard atom fall back to a distinct-column scan (the
//!   compiled form of the interpreter's restricted domains) or the active
//!   domain;
//! * **`lookup`** — a fully-bound atom is a single hash probe;
//! * **`¬`** — complement; `¬` over a scan is the anti-join form in which
//!   negation executes.
//!
//! Quantifier variables are **alpha-renamed to fresh slots** at compile
//! time, so shadowing is resolved once and runtime binding is a plain
//! register write with scoped undo.
//!
//! `cqa_core::fo::eval` remains the reference semantics; the property suite
//! checks observational equality on randomized instances.

use crate::cost::CostModel;
use crate::probe::{BoundProbe, KeySource, ProbeSpec, Registers, Slot, SlotState};
use cqa_data::{
    DatabaseIndex, PositionSet, RelationId, Schema, Statistics, UncertainDatabase, Value,
};
use cqa_obs::TraceSink;
use cqa_query::fo_formula::FoFormula;
use cqa_query::{Term, Variable};
use rustc_hash::FxHashMap;
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
    /// ∃ over the distinct values of one column (restricted domain).
    ExistsColumn {
        relation: RelationId,
        position: usize,
        slot: Slot,
        probe_id: usize,
        body: Box<FoOp>,
    },
    /// ∃ over the active domain (no restriction found).
    ExistsDomain {
        slot: Slot,
        /// Trace-cell id (shares the probe-id space so one sink indexes
        /// every traced operator of the plan; no index handle is resolved
        /// for it).
        trace_id: usize,
        body: Box<FoOp>,
    },
    /// ∀ over the active domain.
    ForallDomain {
        slot: Slot,
        /// Trace-cell id (same id space as `ExistsDomain::trace_id`).
        trace_id: usize,
        body: Box<FoOp>,
    },
}

impl FoOp {
    /// True iff evaluating the operator may iterate (scan/quantify) rather
    /// than answer in O(1)/one probe — used to order conjuncts cheap-first.
    fn has_scan(&self) -> bool {
        match self {
            FoOp::Bool(_) | FoOp::Lookup(_) | FoOp::Eq(_, _) => false,
            FoOp::Not(inner) => inner.has_scan(),
            FoOp::All(parts) | FoOp::Any(parts) => parts.iter().any(FoOp::has_scan),
            FoOp::ExistsScan { .. }
            | FoOp::ForallBlock { .. }
            | FoOp::ExistsColumn { .. }
            | FoOp::ExistsDomain { .. }
            | FoOp::ForallDomain { .. } => true,
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
    /// Cost-model estimate of the operator-visit count of one evaluation
    /// (see [`FoPlan::estimated_work`]).
    estimated_work: f64,
}

impl FoPlan {
    /// Compiles `formula` over `schema`. Statistics guide guard-atom and
    /// column choices; they affect speed only, never the verdict.
    pub fn compile(
        formula: &FoFormula,
        schema: &Arc<Schema>,
        stats: Option<&Statistics>,
    ) -> FoPlan {
        let mut lowerer = Lowerer {
            cost: CostModel::new(stats),
            slots: Vec::new(),
            bound: Vec::new(),
            scope: Vec::new(),
            probe_count: 0,
        };
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
        let root = lowerer.lower(formula);
        // Active-domain size proxy for the unguarded quantifier fallbacks:
        // every domain value appears in some fact, so the total cardinality
        // bounds it.
        let adom_estimate: f64 = schema
            .iter()
            .map(|(id, _)| lowerer.cost.cardinality(id))
            .sum();
        let estimated_work = estimated_op_work(&root, &lowerer.cost, adom_estimate);
        FoPlan {
            schema: schema.clone(),
            root,
            slots: lowerer.slots,
            free,
            probe_count: lowerer.probe_count,
            estimated_work,
        }
    }

    /// Cost-model estimate of how many operator visits one evaluation
    /// costs: scan and quantifier fan-outs multiply down the tree,
    /// conjunctions and disjunctions add up. An *estimate*, never consulted
    /// for correctness — `cqa-par` compares it against its sequential
    /// cutoff before sharding an evaluation across threads.
    pub fn estimated_work(&self) -> f64 {
        self.estimated_work
    }

    /// Binds the plan to an index snapshot, resolving every probe handle.
    /// The execution path defaults to [`crate::vec::default_mode`]; override
    /// it per instance with [`PreparedFo::with_mode`].
    pub fn prepare<'p>(&'p self, index: &Arc<DatabaseIndex>) -> PreparedFo<'p> {
        let mut handles = Vec::new();
        handles.resize_with(self.probe_count, || None);
        resolve_probes(&self.root, index, &mut handles);
        let vec = crate::vec::VecFo::build(&self.root, index, self.slots.len(), &handles);
        PreparedFo {
            plan: self,
            index: index.clone(),
            handles,
            mode: crate::vec::default_mode(),
            vec,
            trace: None,
        }
    }

    /// Convenience: evaluates the plan as a sentence on `db`.
    pub fn eval(&self, db: &UncertainDatabase) -> bool {
        self.prepare(&db.index()).eval()
    }

    /// Convenience: evaluates with bindings for the formula's free
    /// variables (unbound free variables make atoms and equalities false,
    /// the interpreter's convention).
    pub fn eval_with(&self, db: &UncertainDatabase, env: &FxHashMap<Variable, Value>) -> bool {
        self.prepare(&db.index()).eval_with(env)
    }

    /// Number of trace cells a [`cqa_obs::TraceSink`] for this plan needs:
    /// one per probing/scanning operator (probe ids and domain trace ids
    /// share the space).
    pub fn trace_ops(&self) -> usize {
        self.probe_count
    }

    /// Renders the operator tree, one operator per line, with probe
    /// patterns and cost-model estimates.
    pub fn explain(&self) -> String {
        self.render_with(None)
    }

    /// [`FoPlan::explain`] plus the **actuals** a traced execution
    /// recorded: per-operator invocation/row/match counts (and waves /
    /// row-fallback rows where they occurred) next to the estimates, and a
    /// header line with wall time and the executor path taken.
    pub fn explain_analyze(&self, trace: &TraceSink) -> String {
        self.render_with(Some(trace))
    }

    fn render_with(&self, trace: Option<&TraceSink>) -> String {
        let mut out = String::new();
        let path = if self.estimated_work >= crate::vec::FO_VEC_CUTOFF {
            "vectorized"
        } else {
            "row-at-a-time"
        };
        let _ = writeln!(
            out,
            "  exec: est work ≈ {:.0} vs auto cutoff {:.0} → {path} path \
             (operators marked [vec]/[row])",
            self.estimated_work,
            crate::vec::FO_VEC_CUTOFF,
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
        self.render(&self.root, 1, trace, &mut out);
        out
    }

    fn render(&self, op: &FoOp, depth: usize, trace: Option<&TraceSink>, out: &mut String) {
        let pad = "  ".repeat(depth);
        let mark = crate::vec::fo_op_marker(op);
        let act = trace_suffix(trace, fo_op_trace_id(op));
        match op {
            FoOp::Bool(b) => {
                let _ = writeln!(out, "{pad}{b} {mark}");
            }
            FoOp::Lookup(spec) => {
                let _ = writeln!(
                    out,
                    "{pad}lookup {} {mark}{act}",
                    spec.render(&self.schema, &self.slots)
                );
            }
            FoOp::Eq(a, b) => {
                let name = |src: &KeySource| match src {
                    KeySource::Const(c) => format!("{c:?}"),
                    KeySource::Slot(s) => self.slots[*s].to_string(),
                };
                let _ = writeln!(out, "{pad}{} = {} {mark}", name(a), name(b));
            }
            FoOp::Not(inner) => {
                let _ = writeln!(out, "{pad}¬ {mark}");
                self.render(inner, depth + 1, trace, out);
            }
            FoOp::All(parts) => {
                let _ = writeln!(out, "{pad}all {mark}");
                for p in parts {
                    self.render(p, depth + 1, trace, out);
                }
            }
            FoOp::Any(parts) => {
                let _ = writeln!(out, "{pad}any {mark}");
                for p in parts {
                    self.render(p, depth + 1, trace, out);
                }
            }
            FoOp::ExistsScan { spec, body } => {
                let _ = writeln!(
                    out,
                    "{pad}∃-scan {:<40} est ≈ {:.1} rows {mark}{act}",
                    spec.render(&self.schema, &self.slots),
                    spec.estimated_rows
                );
                self.render(body, depth + 1, trace, out);
            }
            FoOp::ForallBlock { spec, body } => {
                let _ = writeln!(
                    out,
                    "{pad}∀-block {:<39} est ≈ {:.1} rows {mark}{act}",
                    spec.render(&self.schema, &self.slots),
                    spec.estimated_rows
                );
                self.render(body, depth + 1, trace, out);
            }
            FoOp::ExistsColumn {
                relation,
                position,
                slot,
                body,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}∃-column {} ∈ {}.{position} {mark}{act}",
                    self.slots[*slot],
                    self.schema.relation(*relation).name
                );
                self.render(body, depth + 1, trace, out);
            }
            FoOp::ExistsDomain { slot, body, .. } => {
                let _ = writeln!(out, "{pad}∃-domain {} {mark}{act}", self.slots[*slot]);
                self.render(body, depth + 1, trace, out);
            }
            FoOp::ForallDomain { slot, body, .. } => {
                let _ = writeln!(out, "{pad}∀-domain {} {mark}{act}", self.slots[*slot]);
                self.render(body, depth + 1, trace, out);
            }
        }
    }
}

/// The trace-cell id of one operator, `None` for operators that are not
/// traced (constant-time combinators).
pub(crate) fn fo_op_trace_id(op: &FoOp) -> Option<usize> {
    match op {
        FoOp::Bool(_) | FoOp::Eq(_, _) | FoOp::Not(_) | FoOp::All(_) | FoOp::Any(_) => None,
        FoOp::Lookup(spec) | FoOp::ExistsScan { spec, .. } | FoOp::ForallBlock { spec, .. } => {
            Some(spec.probe_id)
        }
        FoOp::ExistsColumn { probe_id, .. } => Some(*probe_id),
        FoOp::ExistsDomain { trace_id, .. } | FoOp::ForallDomain { trace_id, .. } => {
            Some(*trace_id)
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
    if cell.fallback_rows() > 0 {
        let _ = write!(out, ", {} row-fallback", cell.fallback_rows());
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
        FoOp::ExistsColumn {
            relation,
            position,
            probe_id,
            body,
            ..
        } => {
            handles[*probe_id] = Some(BoundProbe {
                index: index.position_index(*relation, PositionSet::single(*position)),
                key: Vec::new(),
            });
            resolve_probes(body, index, handles);
        }
        FoOp::ExistsDomain { body, .. } | FoOp::ForallDomain { body, .. } => {
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

impl Lowerer<'_> {
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

    fn lower(&mut self, formula: &FoFormula) -> FoOp {
        match formula {
            FoFormula::True => FoOp::Bool(true),
            FoFormula::False => FoOp::Bool(false),
            FoFormula::Atom { relation, terms } => {
                // All variables must be bound here: a quantified variable is
                // bound by its scan/domain operator before its body lowers,
                // so an unresolvable or unbound variable means an open
                // formula, which the interpreter evaluates to false.
                let all_bound = terms.iter().all(|t| self.bound_source(t).is_some());
                if !all_bound {
                    return FoOp::Bool(false);
                }
                FoOp::Lookup(self.atom_spec(*relation, terms))
            }
            FoFormula::Equals(a, b) => {
                match (self.bound_source(a), self.bound_source(b)) {
                    (Some(a), Some(b)) => FoOp::Eq(a, b),
                    // An unbound side never equals anything (interpreter
                    // convention for open formulas).
                    _ => FoOp::Bool(false),
                }
            }
            FoFormula::Not(inner) => FoOp::Not(Box::new(self.lower(inner))),
            FoFormula::And(parts) => {
                Self::ordered_all(parts.iter().map(|p| self.lower(p)).collect())
            }
            FoFormula::Or(parts) => FoOp::Any(parts.iter().map(|p| self.lower(p)).collect()),
            FoFormula::Implies(a, b) => {
                let guard = self.lower(a);
                let conclusion = self.lower(b);
                FoOp::Any(vec![FoOp::Not(Box::new(guard)), conclusion])
            }
            FoFormula::Exists(vars, body) => self.lower_exists(vars, body),
            FoFormula::Forall(vars, body) => self.lower_forall(vars, body),
        }
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

    fn lower_exists(&mut self, vars: &[Variable], body: &FoFormula) -> FoOp {
        let scope_base = self.scope.len();
        let var_slots: Vec<Slot> = vars
            .iter()
            .map(|v| {
                let slot = self.alloc(v);
                self.scope.push((v.clone(), slot));
                slot
            })
            .collect();
        let conjuncts: Vec<&FoFormula> = flatten_and(body);
        let mut consumed = vec![false; conjuncts.len()];
        let mut layers: Vec<Layer> = Vec::new();
        loop {
            let unbound: Vec<Slot> = var_slots
                .iter()
                .copied()
                .filter(|&s| !self.bound[s])
                .collect();
            if unbound.is_empty() {
                break;
            }
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
            match best {
                Some((i, _, _)) => {
                    consumed[i] = true;
                    let FoFormula::Atom { relation, terms } = conjuncts[i] else {
                        unreachable!("guards are atoms");
                    };
                    let spec = self.atom_spec(*relation, terms);
                    for slot in spec.bound_slots() {
                        self.bound[slot] = true;
                    }
                    layers.push(Layer::Scan(spec));
                }
                None => {
                    // No guard binds anything new: fall back to a restricted
                    // column (some atom the body cannot hold without) or the
                    // active domain for the first unbound variable.
                    let slot = unbound[0];
                    let var = self.slots[slot].clone();
                    match self.find_column(&var, body) {
                        Some((relation, position)) => layers.push(Layer::Column {
                            relation,
                            position,
                            slot,
                            probe_id: self.next_probe(),
                        }),
                        None => layers.push(Layer::Domain {
                            slot,
                            trace_id: self.next_probe(),
                        }),
                    }
                    self.bound[slot] = true;
                }
            }
        }
        let inner: Vec<FoOp> = conjuncts
            .iter()
            .zip(&consumed)
            .filter(|(_, &c)| !c)
            .map(|(p, _)| self.lower(p))
            .collect();
        let mut op = Self::ordered_all(inner);
        for layer in layers.into_iter().rev() {
            op = match layer {
                Layer::Scan(spec) => FoOp::ExistsScan {
                    spec,
                    body: Box::new(op),
                },
                Layer::Column {
                    relation,
                    position,
                    slot,
                    probe_id,
                } => FoOp::ExistsColumn {
                    relation,
                    position,
                    slot,
                    probe_id,
                    body: Box::new(op),
                },
                Layer::Domain { slot, trace_id } => FoOp::ExistsDomain {
                    slot,
                    trace_id,
                    body: Box::new(op),
                },
            };
        }
        self.scope.truncate(scope_base);
        for slot in var_slots {
            self.bound[slot] = false;
        }
        op
    }

    fn lower_forall(&mut self, vars: &[Variable], body: &FoFormula) -> FoOp {
        let scope_base = self.scope.len();
        let var_slots: Vec<Slot> = vars
            .iter()
            .map(|v| {
                let slot = self.alloc(v);
                self.scope.push((v.clone(), slot));
                slot
            })
            .collect();
        // The Theorem 1 shape ∀w̄ (R(x̄, w̄) → body): iterate the guard's
        // probe bucket — for a rewriting, exactly one block — instead of
        // |adom|^|w̄| assignments. Quantified variables missing from the
        // guard (if any) cannot affect it, so they become ∀-domain loops
        // *inside* the implication: ∀x̄r̄(A(x̄)→B) ≡ ∀x̄(A(x̄)→∀r̄ B).
        let block_guard = match body {
            FoFormula::Implies(guard, inner) => match &**guard {
                FoFormula::Atom { relation, terms }
                    if terms
                        .iter()
                        .all(|t| !matches!(t, Term::Var(v) if self.slot_lookup(v).is_none())) =>
                {
                    Some((*relation, terms, inner))
                }
                _ => None,
            },
            _ => None,
        };
        let op = match block_guard {
            Some((relation, terms, inner)) => {
                let spec = self.atom_spec(relation, terms);
                for slot in spec.bound_slots() {
                    self.bound[slot] = true;
                }
                let rest: Vec<Slot> = var_slots
                    .iter()
                    .copied()
                    .filter(|&s| !self.bound[s])
                    .collect();
                for &slot in &rest {
                    self.bound[slot] = true;
                }
                let mut body_op = self.lower(inner);
                for &slot in rest.iter().rev() {
                    body_op = FoOp::ForallDomain {
                        slot,
                        trace_id: self.next_probe(),
                        body: Box::new(body_op),
                    };
                }
                FoOp::ForallBlock {
                    spec,
                    body: Box::new(body_op),
                }
            }
            None => {
                for &slot in &var_slots {
                    self.bound[slot] = true;
                }
                let mut op = self.lower(body);
                for &slot in var_slots.iter().rev() {
                    op = FoOp::ForallDomain {
                        slot,
                        trace_id: self.next_probe(),
                        body: Box::new(op),
                    };
                }
                op
            }
        };
        self.scope.truncate(scope_base);
        for slot in var_slots {
            self.bound[slot] = false;
        }
        op
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

    /// A column whose distinct values must contain every satisfying value
    /// of `var`: `var`'s position in an atom that is *necessary* for `body`
    /// (the body itself, conjuncts of conjunctions, bodies of nested
    /// existentials that do not shadow `var`). Picks the column with the
    /// fewest distinct values. Mirrors the interpreter's
    /// `restricted_domain`.
    fn find_column(&self, var: &Variable, body: &FoFormula) -> Option<(RelationId, usize)> {
        let mut best: Option<(RelationId, usize, f64)> = None;
        self.collect_columns(var, body, &mut best);
        best.map(|(relation, position, _)| (relation, position))
    }

    fn collect_columns(
        &self,
        var: &Variable,
        formula: &FoFormula,
        best: &mut Option<(RelationId, usize, f64)>,
    ) {
        match formula {
            FoFormula::Atom { relation, terms } => {
                for (pos, term) in terms.iter().enumerate().take(PositionSet::MAX_POSITIONS) {
                    if term.as_var() != Some(var) {
                        continue;
                    }
                    let distinct = self.cost.distinct(*relation, pos);
                    if best.as_ref().is_none_or(|&(_, _, d)| distinct < d) {
                        *best = Some((*relation, pos, distinct));
                    }
                }
            }
            FoFormula::And(parts) => {
                for p in parts {
                    self.collect_columns(var, p, best);
                }
            }
            FoFormula::Exists(vars, inner) if !vars.contains(var) => {
                self.collect_columns(var, inner, best);
            }
            _ => {}
        }
    }
}

/// One existential layer accumulated by [`Lowerer::lower_exists`].
enum Layer {
    Scan(ProbeSpec),
    Column {
        relation: RelationId,
        position: usize,
        slot: Slot,
        probe_id: usize,
    },
    Domain {
        slot: Slot,
        trace_id: usize,
    },
}

/// The conjuncts of a top-level conjunction (or the formula itself).
fn flatten_and(formula: &FoFormula) -> Vec<&FoFormula> {
    match formula {
        FoFormula::And(parts) => parts.iter().collect(),
        other => vec![other],
    }
}

/// Cost-model estimate of the operator visits one evaluation of `op`
/// costs: constant-time operators count 1, scans and quantifiers multiply
/// their estimated fan-out into their body, `all`/`any` sum their parts.
/// `adom` is the active-domain size proxy for unguarded domain loops.
fn estimated_op_work(op: &FoOp, cost: &CostModel, adom: f64) -> f64 {
    match op {
        FoOp::Bool(_) | FoOp::Lookup(_) | FoOp::Eq(_, _) => 1.0,
        FoOp::Not(inner) => estimated_op_work(inner, cost, adom),
        FoOp::All(parts) | FoOp::Any(parts) => parts
            .iter()
            .map(|p| estimated_op_work(p, cost, adom))
            .sum::<f64>()
            .max(1.0),
        FoOp::ExistsScan { spec, body } | FoOp::ForallBlock { spec, body } => {
            spec.estimated_rows.max(1.0) * estimated_op_work(body, cost, adom)
        }
        FoOp::ExistsColumn {
            relation,
            position,
            body,
            ..
        } => cost.distinct(*relation, *position).max(1.0) * estimated_op_work(body, cost, adom),
        FoOp::ExistsDomain { body, .. } | FoOp::ForallDomain { body, .. } => {
            adom.max(1.0) * estimated_op_work(body, cost, adom)
        }
    }
}

/// An [`FoPlan`] resolved against one [`DatabaseIndex`] snapshot.
pub struct PreparedFo<'p> {
    pub(crate) plan: &'p FoPlan,
    pub(crate) index: Arc<DatabaseIndex>,
    pub(crate) handles: Vec<Option<BoundProbe>>,
    pub(crate) mode: crate::vec::ExecMode,
    pub(crate) vec: crate::vec::VecFo<'p>,
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl PreparedFo<'_> {
    /// Overrides the execution-path choice for this prepared instance (the
    /// property suites pin each path explicitly).
    pub fn with_mode(mut self, mode: crate::vec::ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a trace sink: every subsequent evaluation records its
    /// per-operator events into it (shareable across threads, so `cqa-par`
    /// shards can report into one sink). Tracing never changes verdicts.
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

    /// The execution mode this prepared instance runs under.
    pub fn mode(&self) -> crate::vec::ExecMode {
        self.mode
    }

    /// True iff sentence-level entry points take the batch path.
    fn use_vec(&self) -> bool {
        match self.mode {
            crate::vec::ExecMode::RowAtATime => false,
            crate::vec::ExecMode::Vectorized => true,
            crate::vec::ExecMode::Auto => self.plan.estimated_work >= crate::vec::FO_VEC_CUTOFF,
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

    /// Evaluates the plan as a sentence.
    pub fn eval(&self) -> bool {
        let vectorized = self.use_vec();
        if vectorized {
            cqa_obs::count!("exec.fo.eval.vec");
        } else {
            cqa_obs::count!("exec.fo.eval.row");
        }
        self.entry_point(vectorized, || {
            if vectorized {
                crate::vec::eval_sentence(self)
            } else {
                let mut regs = Registers::new(self.plan.slots.len());
                self.eval_op(&self.plan.root, &mut regs)
            }
        })
    }

    /// Evaluates with bindings for the formula's free variables.
    pub fn eval_with(&self, env: &FxHashMap<Variable, Value>) -> bool {
        cqa_obs::count!("exec.fo.eval.row");
        self.entry_point(false, || {
            let mut regs = Registers::new(self.plan.slots.len());
            for (var, slot) in &self.plan.free {
                if let Some(value) = env.get(var) {
                    regs.set(*slot, value.clone());
                }
            }
            self.eval_op(&self.plan.root, &mut regs)
        })
    }

    /// Row-path evaluation of one `vars ↦ tuple` binding (positional
    /// [`PreparedFo::eval_with`] without the map allocation).
    pub(crate) fn eval_tuple_row(&self, vars: &[Variable], tuple: &[Value]) -> bool {
        let mut regs = Registers::new(self.plan.slots.len());
        for (var, value) in vars.iter().zip(tuple) {
            if let Some(&(_, slot)) = self.plan.free.iter().find(|(fv, _)| fv == var) {
                regs.set(slot, value.clone());
            }
        }
        self.eval_op(&self.plan.root, &mut regs)
    }

    /// Batch-evaluates the open formula under `vars ↦ tuples[i]` for every
    /// tuple, returning one verdict per tuple (positionally). Equivalent to
    /// [`PreparedFo::eval_with`] in a loop; under `Auto`/`Vectorized` the
    /// batch runs through the vectorized kernels — the entry point
    /// `certain_answers` batches its candidate tuples through.
    pub fn eval_tuples(&self, vars: &[Variable], tuples: &[Vec<Value>]) -> Vec<bool> {
        let use_vec = match self.mode {
            crate::vec::ExecMode::RowAtATime => false,
            crate::vec::ExecMode::Vectorized => true,
            crate::vec::ExecMode::Auto => tuples.len() >= crate::vec::TUPLE_BATCH_MIN,
        };
        cqa_obs::observe!("exec.fo.batch_tuples", tuples.len() as u64);
        if use_vec {
            cqa_obs::count!("exec.fo.eval_tuples.vec");
        } else {
            cqa_obs::count!("exec.fo.eval_tuples.row");
        }
        self.entry_point(use_vec, || {
            if use_vec {
                crate::vec::eval_tuples(self, vars, tuples)
            } else {
                tuples
                    .iter()
                    .map(|tuple| self.eval_tuple_row(vars, tuple))
                    .collect()
            }
        })
    }

    /// The width of the plan's **root candidate space**, when the root
    /// operator is an existential scan of a sentence: the number of
    /// candidate facts the root `∃-scan` iterates (for a Theorem 1
    /// rewriting, the facts of the first eliminated atom's relation). The
    /// search below each candidate is independent, so the disjunction of
    /// [`PreparedFo::eval_root_shard`] over any partition of
    /// `0..root_shard_width()` equals [`PreparedFo::eval`] — the axis
    /// `cqa-par` shards `is_certain` on.
    ///
    /// `None` when the root is not an `∃-scan` or the formula has free
    /// variables; callers must then evaluate sequentially.
    pub fn root_shard_width(&self) -> Option<usize> {
        if !self.plan.free.is_empty() {
            return None;
        }
        let FoOp::ExistsScan { spec, .. } = &self.plan.root else {
            return None;
        };
        let regs = Registers::new(self.plan.slots.len());
        let candidates =
            spec.candidates(&self.index, self.handles[spec.probe_id].as_ref(), &regs)?;
        Some(candidates.len())
    }

    /// Evaluates the sentence with the root `∃-scan`'s candidate iteration
    /// restricted to `shard` (an index range into the root candidate list,
    /// see [`PreparedFo::root_shard_width`]); out-of-range bounds are
    /// clamped. If the root is not shardable the whole evaluation counts as
    /// the shard containing index 0, so the disjunction over a partition
    /// still equals [`PreparedFo::eval`].
    pub fn eval_root_shard(&self, shard: std::ops::Range<usize>) -> bool {
        let vectorized = self.use_vec();
        self.entry_point(vectorized, || {
            if vectorized {
                return crate::vec::eval_root_shard(self, shard.clone());
            }
            let mut regs = Registers::new(self.plan.slots.len());
            let FoOp::ExistsScan { spec, body } = &self.plan.root else {
                return shard.start == 0 && self.eval_op(&self.plan.root, &mut regs);
            };
            let Some(candidates) =
                spec.candidates(&self.index, self.handles[spec.probe_id].as_ref(), &regs)
            else {
                return false;
            };
            let mut writes = Vec::new();
            let mut found = false;
            let mut scanned = 0u64;
            let mut unified = 0u64;
            for row in candidates.slice(shard.clone()) {
                regs.undo(&mut writes);
                scanned += 1;
                if spec.apply(&self.index, row, &mut regs, &mut writes) {
                    unified += 1;
                    if self.eval_op(body, &mut regs) {
                        found = true;
                        break;
                    }
                }
            }
            if let Some(sink) = &self.trace {
                let cell = sink.op(spec.probe_id);
                cell.add_invocations(1);
                cell.add_rows(scanned);
                cell.add_matches(unified);
            }
            found
        })
    }

    /// Flushes one operator visit's locally-counted events to the trace
    /// sink (the single `Option` branch a traceless run pays per visit).
    #[inline]
    fn flush_op(&self, id: usize, scanned: u64, matched: u64) {
        if let Some(sink) = &self.trace {
            let cell = sink.op(id);
            cell.add_invocations(1);
            cell.add_rows(scanned);
            cell.add_matches(matched);
        }
    }

    pub(crate) fn eval_op(&self, op: &FoOp, regs: &mut Registers) -> bool {
        match op {
            FoOp::Bool(b) => *b,
            FoOp::Lookup(spec) => {
                let Some(candidates) =
                    spec.candidates(&self.index, self.handles[spec.probe_id].as_ref(), regs)
                else {
                    self.flush_op(spec.probe_id, 0, 0);
                    return false;
                };
                let mut no_writes = Vec::new();
                let mut scanned = 0u64;
                let mut hit = false;
                for row in candidates {
                    scanned += 1;
                    if spec.apply(&self.index, row, regs, &mut no_writes) {
                        hit = true;
                        break;
                    }
                }
                self.flush_op(spec.probe_id, scanned, u64::from(hit));
                hit
            }
            FoOp::Eq(a, b) => match (a.resolve(regs), b.resolve(regs)) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
            FoOp::Not(inner) => !self.eval_op(inner, regs),
            FoOp::All(parts) => parts.iter().all(|p| self.eval_op(p, regs)),
            FoOp::Any(parts) => parts.iter().any(|p| self.eval_op(p, regs)),
            FoOp::ExistsScan { spec, body } => {
                let Some(candidates) =
                    spec.candidates(&self.index, self.handles[spec.probe_id].as_ref(), regs)
                else {
                    // An unbound outer register: no fact can match.
                    self.flush_op(spec.probe_id, 0, 0);
                    return false;
                };
                let mut writes = Vec::new();
                let mut found = false;
                let mut scanned = 0u64;
                let mut unified = 0u64;
                for row in candidates {
                    regs.undo(&mut writes);
                    scanned += 1;
                    if spec.apply(&self.index, row, regs, &mut writes) {
                        unified += 1;
                        if self.eval_op(body, regs) {
                            found = true;
                            break;
                        }
                    }
                }
                regs.undo(&mut writes);
                self.flush_op(spec.probe_id, scanned, unified);
                found
            }
            FoOp::ForallBlock { spec, body } => {
                let Some(candidates) =
                    spec.candidates(&self.index, self.handles[spec.probe_id].as_ref(), regs)
                else {
                    // An unbound outer register: the guard can never hold,
                    // so the implication is vacuously true.
                    self.flush_op(spec.probe_id, 0, 0);
                    return true;
                };
                let mut writes = Vec::new();
                let mut holds = true;
                let mut scanned = 0u64;
                let mut unified = 0u64;
                for row in candidates {
                    regs.undo(&mut writes);
                    scanned += 1;
                    // A candidate the guard does not unify with (repeated-
                    // variable mismatch) corresponds to no assignment:
                    // vacuous, skip.
                    if spec.apply(&self.index, row, regs, &mut writes) {
                        unified += 1;
                        if !self.eval_op(body, regs) {
                            holds = false;
                            break;
                        }
                    }
                }
                regs.undo(&mut writes);
                self.flush_op(spec.probe_id, scanned, unified);
                holds
            }
            FoOp::ExistsColumn {
                slot,
                probe_id,
                body,
                ..
            } => {
                let column = &self.handles[*probe_id]
                    .as_ref()
                    .expect("column probes always resolve")
                    .index;
                let mut found = false;
                let mut scanned = 0u64;
                let dictionary = self.index.dictionary();
                for key in column.keys() {
                    scanned += 1;
                    // A single-position key is the code itself.
                    regs.set_coded(*slot, dictionary.value(key as u32).clone(), key as u32);
                    if self.eval_op(body, regs) {
                        found = true;
                        break;
                    }
                }
                regs.clear(*slot);
                self.flush_op(*probe_id, scanned, u64::from(found));
                found
            }
            FoOp::ExistsDomain {
                slot,
                trace_id,
                body,
            } => {
                let mut found = false;
                let mut scanned = 0u64;
                for value in self.index.active_domain().iter() {
                    scanned += 1;
                    regs.set(*slot, value.clone());
                    if self.eval_op(body, regs) {
                        found = true;
                        break;
                    }
                }
                regs.clear(*slot);
                self.flush_op(*trace_id, scanned, u64::from(found));
                found
            }
            FoOp::ForallDomain {
                slot,
                trace_id,
                body,
            } => {
                let mut holds = true;
                let mut scanned = 0u64;
                for value in self.index.active_domain().iter() {
                    scanned += 1;
                    regs.set(*slot, value.clone());
                    if !self.eval_op(body, regs) {
                        holds = false;
                        break;
                    }
                }
                regs.clear(*slot);
                self.flush_op(*trace_id, scanned, u64::from(holds));
                holds
            }
        }
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
        FoPlan::compile(formula, db.schema(), Some(&stats))
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
    fn root_shards_recombine_to_the_full_verdict() {
        let db = db();
        let r = rel(&db);
        // ∃x∃y (R(x, y) ∧ y = '2') — a root ∃-scan over all three R facts.
        let sentence = FoFormula::exists(
            vec![Variable::new("x"), Variable::new("y")],
            FoFormula::and(vec![
                FoFormula::atom(r, vec![Term::var("x"), Term::var("y")]),
                FoFormula::Equals(Term::var("y"), Term::constant("2")),
            ]),
        );
        let plan = compile(&sentence, &db);
        let index = db.index();
        let prepared = plan.prepare(&index);
        let width = prepared.root_shard_width().expect("root is an ∃-scan");
        assert_eq!(width, 3);
        assert!(prepared.eval());
        for shards in [1usize, 2, 3, 5] {
            let per = width.div_ceil(shards);
            let any =
                (0..shards).any(|s| prepared.eval_root_shard(s * per..((s + 1) * per).min(width)));
            assert_eq!(any, prepared.eval(), "{shards} shards");
        }
        // A non-shardable root (a plain lookup) still honours the
        // partition convention: everything lives in the shard holding 0.
        let lookup = FoFormula::atom(r, vec![Term::constant("a"), Term::constant("1")]);
        let plan = compile(&lookup, &db);
        let prepared = plan.prepare(&index);
        assert_eq!(prepared.root_shard_width(), None);
        assert!(prepared.eval_root_shard(0..1));
        assert!(!prepared.eval_root_shard(1..9));
        assert!(plan.estimated_work() >= 1.0);
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
    fn unguarded_quantifiers_fall_back_to_domains() {
        let db = db();
        let r = rel(&db);
        // ∀x ¬R(x, x) — no implication guard: ∀-domain + complement.
        let no_diag = FoFormula::forall(
            vec![Variable::new("x")],
            FoFormula::Not(Box::new(FoFormula::atom(
                r,
                vec![Term::var("x"), Term::var("x")],
            ))),
        );
        let plan = compile(&no_diag, &db);
        assert!(plan.explain().contains("∀-domain"));
        assert!(plan.eval(&db));
        // ∃x ¬R(x, '1') — negated body: domain/column scan, not a guard scan.
        let some_without = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::Not(Box::new(FoFormula::atom(
                r,
                vec![Term::var("x"), Term::constant("1")],
            ))),
        );
        let plan = compile(&some_without, &db);
        assert!(plan.eval(&db), "x = '2' (or any non-key value) witnesses");
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
        let forall = FoFormula::forall(vec![Variable::new("x")], FoFormula::False);
        assert!(!FoPlan::compile(&exists, &schema, None).eval(&empty));
        assert!(
            FoPlan::compile(&forall, &schema, None).eval(&empty),
            "∀ over the empty domain is true"
        );
    }

    #[test]
    fn free_variables_come_from_the_environment() {
        let db = db();
        let r = rel(&db);
        let open = FoFormula::atom(r, vec![Term::var("x"), Term::constant("1")]);
        let plan = compile(&open, &db);
        assert_eq!(plan.free.len(), 1);
        let mut env = FxHashMap::default();
        env.insert(Variable::new("x"), Value::str("a"));
        assert!(plan.eval_with(&db, &env));
        env.insert(Variable::new("x"), Value::str("z"));
        assert!(!plan.eval_with(&db, &env));
        // Unbound free variables make atoms false (interpreter convention).
        assert!(!plan.eval(&db));
    }
}
