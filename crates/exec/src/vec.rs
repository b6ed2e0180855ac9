//! Vectorized block-at-a-time execution.
//!
//! The row-at-a-time join engine in [`crate::query_plan`] walks one
//! candidate fact at a time through a register file, cloning and hashing
//! [`Value`]s at every step. This module executes the *same compiled plans*
//! on **batches of dense codes**:
//!
//! * values become `u32` dictionary codes ([`cqa_data::Columnar`],
//!   materialized once per snapshot);
//! * a register file becomes a `Batch` — one optional code column per
//!   slot — plus a sorted **selection vector** of surviving row indices;
//! * an `∃-scan` / `∀-block` becomes an *expansion*: one hash probe per
//!   batch row into a [`PositionIndex`] (packed `u64` keys over at most two
//!   positions — the probe compiler leaves wider keys to per-candidate
//!   checks), producing a child batch together with a parent map, followed
//!   by a grouped any/all aggregation back onto the parent selection;
//! * `¬` is a sorted-set difference of selection vectors (the anti-join
//!   form), `all`/`any` narrow/union selections.
//!
//! Every operator a [`crate::FoPlan`] compiles to has a batch kernel here:
//! plans compile only the guarded form of Theorem 1's rewritings, so there
//! is no unguarded quantifier to fall back on. A candidate tuple whose
//! values have no dictionary code is decided without evaluation (see
//! [`PreparedFo::eval_tuples`]).
//!
//! Each plan kind has one executor, chosen by what it is, not by a knob:
//! every [`PreparedFo`] evaluation runs here; [`PreparedQuery::answers`]
//! runs the batch join unless the plan's estimated work exceeds
//! [`QUERY_VEC_MAX`], and the early-exit join entry points (`satisfies*`,
//! `all_valuations`) stay on the row engine, whose first-match
//! short-circuit beats batch materialization.

use crate::fo_plan::{FoOp, PreparedFo};
use crate::probe::{BoundProbe, KeyCode, KeySource, PosAction, ProbeSpec, Registers, Slot};
use crate::query_plan::PreparedQuery;
use cqa_data::{Columnar, DatabaseIndex, PositionIndex, RelationId, Value};
use cqa_obs::OpTrace;
use cqa_query::Variable;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The join memory bound: a [`crate::QueryPlan`] whose cost-model estimate
/// of its search nodes exceeds it streams its `answers` through the row
/// engine, because its batch join's intermediates could outgrow memory.
/// This is the one executor choice a plan makes; it is computed from the
/// plan and cannot be set.
pub const QUERY_VEC_MAX: f64 = 5.0e7;
/// Root candidates are processed in chunks of this size so a batch join's
/// intermediates stay bounded.
pub(crate) const ROOT_CHUNK: usize = 4096;

/// Where one batch-side code comes from: a constant resolved against the
/// snapshot dictionary (`None` = outside the active domain, matches
/// nothing) or a slot column.
pub(crate) type VSrc = KeyCode;

/// The vectorized counterpart of [`PosAction`], over codes.
#[derive(Clone, Debug)]
pub(crate) enum VAct {
    Bind { pos: usize, slot: Slot },
    CheckSlot { pos: usize, slot: Slot },
    CheckCode { pos: usize, code: Option<u32> },
}

/// A [`ProbeSpec`] lowered to dictionary codes: a packed-key probe into a
/// [`PositionIndex`] (`handle == None` means a full scan), with every
/// remaining position handled by per-candidate [`VAct`]s.
pub(crate) struct VProbe {
    pub(crate) relation: RelationId,
    pub(crate) key: Vec<VSrc>,
    pub(crate) handle: Option<Arc<PositionIndex>>,
    pub(crate) actions: Vec<VAct>,
    /// Trace-cell id of the originating [`ProbeSpec`] (probe id / step
    /// index), so batch kernels report into the same cell as the row path.
    pub(crate) probe_id: usize,
}

impl VProbe {
    /// Lowers `spec`; `bound` is its row-engine binding to the same
    /// snapshot, whose coded key the batch probe shares.
    pub(crate) fn build(
        spec: &ProbeSpec,
        index: &DatabaseIndex,
        bound: Option<&BoundProbe>,
    ) -> VProbe {
        let dict = index.columnar().dictionary();
        let key = bound.map_or_else(Vec::new, |bound| bound.key.clone());
        let actions = (spec.actions.iter())
            .map(|action| match action {
                PosAction::Bind { pos, slot } => VAct::Bind {
                    pos: *pos,
                    slot: *slot,
                },
                PosAction::CheckSlot { pos, slot } => VAct::CheckSlot {
                    pos: *pos,
                    slot: *slot,
                },
                PosAction::CheckConst { pos, value } => VAct::CheckCode {
                    pos: *pos,
                    code: dict.code_of(value),
                },
            })
            .collect();
        let positions: Vec<usize> = spec.positions.iter().collect();
        let handle = (!positions.is_empty()).then(|| index.code_index(spec.relation, &positions));
        VProbe {
            relation: spec.relation,
            key,
            handle,
            actions,
            probe_id: spec.probe_id,
        }
    }
}

/// A batch of partial valuations: one optional code column per slot
/// (`None` = unbound in every row), all `Some` columns of length `len`.
pub(crate) struct Batch {
    pub(crate) len: usize,
    pub(crate) cols: Vec<Option<Vec<u32>>>,
}

impl Batch {
    fn unbound(slots: usize) -> Batch {
        Batch {
            len: 1,
            cols: vec![None; slots],
        }
    }
}

/// A vectorized operator: mirrors [`FoOp`] with probes lowered to codes.
pub(crate) enum VOp {
    Bool(bool),
    Eq(VSrc, VSrc),
    Lookup(VProbe),
    Not(Box<VOp>),
    All(Vec<VOp>),
    Any(Vec<VOp>),
    /// `carry` is the column-pruning set: the bound parent slots the body
    /// subtree actually reads, the only columns gathered into child batches.
    ExistsScan {
        probe: VProbe,
        carry: Vec<Slot>,
        body: Box<VOp>,
    },
    ForallBlock {
        probe: VProbe,
        carry: Vec<Slot>,
        body: Box<VOp>,
    },
}

/// The vectorized form of one [`crate::FoPlan`], built at prepare time
/// against one snapshot (constants resolved to codes, probes to code
/// indexes).
pub(crate) struct VecFo {
    pub(crate) root: VOp,
}

impl VecFo {
    pub(crate) fn build(root: &FoOp, index: &DatabaseIndex, bound: &[Option<BoundProbe>]) -> VecFo {
        VecFo {
            root: build_vop(root, index, bound).0,
        }
    }
}

/// Sorted-dedup merge of two slot sets.
fn merge_slots(mut a: Vec<Slot>, b: &[Slot]) -> Vec<Slot> {
    a.extend_from_slice(b);
    a.sort_unstable();
    a.dedup();
    a
}

/// The parent slots a probe reads at evaluation time: key sources and
/// residual checks. `Bind` slots are excluded — the probe compiler's
/// invariant is that compile-time-bound slots never appear as binds, so a
/// bind slot is never bound in the parent batch.
fn probe_slots(probe: &VProbe) -> Vec<Slot> {
    let mut out: Vec<Slot> = probe
        .key
        .iter()
        .filter_map(|s| match s {
            VSrc::Slot(slot) => Some(*slot),
            VSrc::Code(_) => None,
        })
        .collect();
    for action in &probe.actions {
        if let VAct::CheckSlot { slot, .. } = action {
            out.push(*slot);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Lowers one plan operator; the second component is the set of parent
/// slots the operator's subtree reads (its column-pruning footprint).
fn build_vop(op: &FoOp, index: &DatabaseIndex, bound: &[Option<BoundProbe>]) -> (VOp, Vec<Slot>) {
    let dict = index.columnar().dictionary();
    let src = |s: &KeySource| match s {
        KeySource::Const(c) => VSrc::Code(dict.code_of(c)),
        KeySource::Slot(slot) => VSrc::Slot(*slot),
    };
    let src_slots = |srcs: &[&KeySource]| -> Vec<Slot> {
        let mut out: Vec<Slot> = srcs
            .iter()
            .filter_map(|s| match s {
                KeySource::Slot(slot) => Some(*slot),
                KeySource::Const(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    match op {
        FoOp::Bool(b) => (VOp::Bool(*b), Vec::new()),
        // Two constants compare by value, not by code: equal constants
        // outside the active domain have no codes yet still compare equal.
        FoOp::Eq(KeySource::Const(a), KeySource::Const(b)) => (VOp::Bool(a == b), Vec::new()),
        FoOp::Eq(a, b) => (VOp::Eq(src(a), src(b)), src_slots(&[a, b])),
        FoOp::Lookup(spec) => {
            let probe = VProbe::build(spec, index, bound[spec.probe_id].as_ref());
            let needed = probe_slots(&probe);
            (VOp::Lookup(probe), needed)
        }
        FoOp::Not(inner) => {
            let (inner, needed) = build_vop(inner, index, bound);
            (VOp::Not(Box::new(inner)), needed)
        }
        FoOp::All(parts) => {
            let mut needed = Vec::new();
            let parts = parts
                .iter()
                .map(|p| {
                    let (part, n) = build_vop(p, index, bound);
                    needed = merge_slots(std::mem::take(&mut needed), &n);
                    part
                })
                .collect();
            (VOp::All(parts), needed)
        }
        FoOp::Any(parts) => {
            let mut needed = Vec::new();
            let parts = parts
                .iter()
                .map(|p| {
                    let (part, n) = build_vop(p, index, bound);
                    needed = merge_slots(std::mem::take(&mut needed), &n);
                    part
                })
                .collect();
            (VOp::Any(parts), needed)
        }
        FoOp::ExistsScan { spec, body } => {
            let probe = VProbe::build(spec, index, bound[spec.probe_id].as_ref());
            let (body, carry) = build_vop(body, index, bound);
            let needed = merge_slots(probe_slots(&probe), &carry);
            (
                VOp::ExistsScan {
                    probe,
                    carry,
                    body: Box::new(body),
                },
                needed,
            )
        }
        FoOp::ForallBlock { spec, body } => {
            let probe = VProbe::build(spec, index, bound[spec.probe_id].as_ref());
            let (body, carry) = build_vop(body, index, bound);
            let needed = merge_slots(probe_slots(&probe), &carry);
            (
                VOp::ForallBlock {
                    probe,
                    carry,
                    body: Box::new(body),
                },
                needed,
            )
        }
    }
}

fn col_code(batch: &Batch, slot: Slot, row: u32) -> Option<u32> {
    batch.cols[slot].as_ref().map(|c| c[row as usize])
}

fn src_code(src: &VSrc, batch: &Batch, row: u32) -> Option<u32> {
    match src {
        VSrc::Code(c) => *c,
        VSrc::Slot(s) => col_code(batch, *s, row),
    }
}

/// Applies a probe's per-candidate actions to relation row `frow` under
/// parent batch row `prow`. Slots bound *within* the probe land in
/// `scratch` (cleared by the caller between candidates).
fn apply_row(
    probe: &VProbe,
    columns: &cqa_data::RelationColumns,
    frow: u32,
    parent: &Batch,
    prow: u32,
    scratch: &mut Vec<(Slot, u32)>,
) -> bool {
    let cells = columns.row(frow as usize);
    for action in &probe.actions {
        match action {
            VAct::Bind { pos, slot } => {
                let code = cells[*pos];
                match col_code(parent, *slot, prow) {
                    Some(existing) => {
                        if existing != code {
                            return false;
                        }
                    }
                    None => match scratch.iter().find(|(s, _)| s == slot) {
                        Some(&(_, existing)) => {
                            if existing != code {
                                return false;
                            }
                        }
                        None => scratch.push((*slot, code)),
                    },
                }
            }
            VAct::CheckSlot { pos, slot } => {
                let code = cells[*pos];
                let bound = col_code(parent, *slot, prow)
                    .or_else(|| scratch.iter().find(|(s, _)| s == slot).map(|&(_, c)| c));
                if bound != Some(code) {
                    return false;
                }
            }
            VAct::CheckCode { pos, code } => {
                // `None` = a constant outside the active domain: no fact
                // can carry it.
                if *code != Some(cells[*pos]) {
                    return false;
                }
            }
        }
    }
    true
}

/// Expands `probe` under the rows `sel` of `parent`: the returned batch has
/// one child row per `(parent, unifying candidate)` pair, in `sel` order
/// (each parent's children contiguous). With `root_rows: Some(rows)` the
/// candidate list is overridden by explicit relation rows (one
/// [`ROOT_CHUNK`] of a root scan, taken from the row engine's
/// `PositionIndex` bucket); `sel` must then be the single unbound root row.
/// With `trace: Some(cell)` the probe count, candidate rows examined and
/// surviving pairs are recorded on that operator cell.
fn expand(
    probe: &VProbe,
    parent: &Batch,
    sel: &[u32],
    columnar: &Columnar,
    root_rows: Option<&[u32]>,
    trace: Option<&OpTrace>,
) -> Batch {
    debug_assert!(root_rows.is_none() || sel.len() <= 1);
    let columns = columnar.relation(probe.relation);
    let nslots = parent.cols.len();
    let bind_slots: Vec<Slot> = probe
        .actions
        .iter()
        .filter_map(|a| match a {
            VAct::Bind { slot, .. } if parent.cols[*slot].is_none() => Some(*slot),
            _ => None,
        })
        .collect();
    let carry_slots: Vec<Slot> = (0..nslots).filter(|&s| parent.cols[s].is_some()).collect();
    let scan_rows: Option<Vec<u32>> = match (&probe.handle, root_rows) {
        (None, None) => Some((0..columns.row_count() as u32).collect()),
        _ => None,
    };
    let mut parents: Vec<u32> = Vec::new();
    let mut bind_cols: Vec<Vec<u32>> = vec![Vec::new(); bind_slots.len()];
    let mut scratch: Vec<(Slot, u32)> = Vec::new();
    let mut scanned = 0u64;
    for &prow in sel {
        let candidates: &[u32] = if let Some(rows) = root_rows {
            rows
        } else if let Some(handle) = &probe.handle {
            let mut packed = [0u32; 2];
            let mut miss = false;
            for (i, src) in probe.key.iter().enumerate() {
                match src_code(src, parent, prow) {
                    Some(code) => packed[i] = code,
                    // An unbound slot or out-of-domain constant: no fact
                    // matches (∃ false / ∀ vacuous, decided by the caller).
                    None => {
                        miss = true;
                        break;
                    }
                }
            }
            if miss {
                continue;
            }
            handle.candidates(PositionIndex::pack(&packed[..probe.key.len()]))
        } else {
            scan_rows.as_deref().expect("scan rows materialized above")
        };
        for &frow in candidates {
            scanned += 1;
            scratch.clear();
            if apply_row(probe, columns, frow, parent, prow, &mut scratch) {
                parents.push(prow);
                for (i, slot) in bind_slots.iter().enumerate() {
                    let code = scratch
                        .iter()
                        .find(|(s, _)| s == slot)
                        .map(|&(_, c)| c)
                        .expect("a passing candidate binds every bind slot");
                    bind_cols[i].push(code);
                }
            }
        }
    }
    let len = parents.len();
    if let Some(cell) = trace {
        cell.add_invocations(sel.len() as u64);
        cell.add_rows(scanned);
        cell.add_matches(len as u64);
    }
    let mut cols: Vec<Option<Vec<u32>>> = vec![None; nslots];
    for &slot in &carry_slots {
        let src = parent.cols[slot].as_ref().expect("carry slots are bound");
        cols[slot] = Some(parents.iter().map(|&p| src[p as usize]).collect());
    }
    for (i, &slot) in bind_slots.iter().enumerate() {
        cols[slot] = Some(std::mem::take(&mut bind_cols[i]));
    }
    Batch { len, cols }
}

/// Sorted-set union of two ascending selection vectors.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorted-set difference `a \ b` of two ascending selection vectors.
fn diff_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j < b.len() && b[j] == x {
            continue;
        }
        out.push(x);
    }
    out
}

/// The batch evaluator for one prepared formula plan.
struct VecCtx<'e, 'p> {
    prepared: &'e PreparedFo<'p>,
    columnar: &'e Columnar,
}

impl VecCtx<'_, '_> {
    /// The trace cell of operator `id`, when a sink is installed.
    #[inline]
    fn trace_cell(&self, id: usize) -> Option<&OpTrace> {
        self.prepared.trace.as_deref().map(|sink| sink.op(id))
    }

    /// Evaluates `op` over the rows `sel` (ascending) of `batch`, returning
    /// the ascending subset of rows where the operator holds.
    fn eval(&self, op: &VOp, batch: &Batch, sel: Vec<u32>) -> Vec<u32> {
        if sel.is_empty() {
            return sel;
        }
        match op {
            VOp::Bool(true) => sel,
            VOp::Bool(false) => Vec::new(),
            VOp::Eq(a, b) => sel
                .into_iter()
                .filter(
                    |&row| match (src_code(a, batch, row), src_code(b, batch, row)) {
                        (Some(x), Some(y)) => x == y,
                        // An unbound side never equals anything (the row
                        // engine's open-formula convention).
                        _ => false,
                    },
                )
                .collect(),
            VOp::Lookup(probe) => {
                let columns = self.columnar.relation(probe.relation);
                let mut scratch: Vec<(Slot, u32)> = Vec::new();
                let probed = sel.len() as u64;
                let mut scanned = 0u64;
                let mut out: Vec<u32> = Vec::new();
                for &row in &sel {
                    let candidates: Option<&[u32]> = if let Some(handle) = &probe.handle {
                        let mut packed = [0u32; 2];
                        let mut miss = false;
                        for (i, src) in probe.key.iter().enumerate() {
                            match src_code(src, batch, row) {
                                Some(code) => packed[i] = code,
                                None => {
                                    miss = true;
                                    break;
                                }
                            }
                        }
                        if miss {
                            None
                        } else {
                            Some(handle.candidates(PositionIndex::pack(&packed[..probe.key.len()])))
                        }
                    } else {
                        // Full scan: probe the whole relation row range.
                        Some(&[])
                    };
                    let hit = match (candidates, &probe.handle) {
                        (None, _) => false,
                        (Some(c), Some(_)) => c.iter().any(|&frow| {
                            scanned += 1;
                            scratch.clear();
                            apply_row(probe, columns, frow, batch, row, &mut scratch)
                        }),
                        (Some(_), None) => (0..columns.row_count() as u32).any(|frow| {
                            scanned += 1;
                            scratch.clear();
                            apply_row(probe, columns, frow, batch, row, &mut scratch)
                        }),
                    };
                    if hit {
                        out.push(row);
                    }
                }
                if let Some(cell) = self.trace_cell(probe.probe_id) {
                    cell.add_invocations(probed);
                    cell.add_rows(scanned);
                    cell.add_matches(out.len() as u64);
                }
                out
            }
            VOp::Not(inner) => {
                let survived = self.eval(inner, batch, sel.clone());
                diff_sorted(&sel, &survived)
            }
            VOp::All(parts) => {
                let mut current = sel;
                for part in parts {
                    if current.is_empty() {
                        break;
                    }
                    current = self.eval(part, batch, current);
                }
                current
            }
            VOp::Any(parts) => {
                // Progressive union: rows already decided true drop out of
                // the remaining disjuncts (the batch analogue of the row
                // engine's short-circuit).
                let mut remaining = sel;
                let mut acc: Vec<u32> = Vec::new();
                for part in parts {
                    if remaining.is_empty() {
                        break;
                    }
                    let survived = self.eval(part, batch, remaining.clone());
                    remaining = diff_sorted(&remaining, &survived);
                    acc = union_sorted(&acc, &survived);
                }
                acc
            }
            VOp::ExistsScan { probe, carry, body } => {
                self.eval_quantifier(true, probe, carry, body, batch, &sel)
            }
            VOp::ForallBlock { probe, carry, body } => {
                self.eval_quantifier(false, probe, carry, body, batch, &sel)
            }
        }
    }

    /// Wave-based quantifier evaluation: the batch analogue of the row
    /// engine's short-circuit. Materializing every quantified fact of every
    /// parent multiplies the per-level fan-outs into the full quantifier
    /// tree, which the row engine never visits — it stops at the first
    /// witness (∃) or the first failing fact (∀). Instead, wave `k`
    /// evaluates the body on the `k`-th candidate of every still-undecided
    /// parent at once: batches stay as wide as the undecided parent set
    /// while parents drop out as soon as they are decided, so the visited
    /// rows track the row engine's pruned walk.
    ///
    /// Decision rules per parent: no candidates (or a key miss) decides
    /// immediately (∃ false, ∀ vacuously true); a candidate failing the
    /// probe's residual checks is outside the quantified set and is skipped;
    /// an exhausted candidate list decides (∃ false, ∀ true); a surviving
    /// body row decides ∃ true; a failing body row decides ∀ false.
    fn eval_quantifier(
        &self,
        exists: bool,
        probe: &VProbe,
        carry: &[Slot],
        body: &VOp,
        parent: &Batch,
        sel: &[u32],
    ) -> Vec<u32> {
        let columns = self.columnar.relation(probe.relation);
        let nslots = parent.cols.len();
        let trace = self.trace_cell(probe.probe_id);
        let mut scanned = 0u64;
        let mut matched = 0u64;
        let scan_rows: Option<Vec<u32>> = match &probe.handle {
            None => Some((0..columns.row_count() as u32).collect()),
            Some(_) => None,
        };
        // Per selected parent: its candidate rows, with immediately
        // decidable parents (no candidates) settled up front.
        let mut lists: Vec<(u32, &[u32])> = Vec::with_capacity(sel.len());
        let mut decided_true: Vec<u32> = Vec::new();
        for &prow in sel {
            let candidates: Option<&[u32]> = if let Some(handle) = &probe.handle {
                let mut packed = [0u32; 2];
                let mut miss = false;
                for (i, src) in probe.key.iter().enumerate() {
                    match src_code(src, parent, prow) {
                        Some(code) => packed[i] = code,
                        // Unbound slot or out-of-domain constant: no fact
                        // matches.
                        None => {
                            miss = true;
                            break;
                        }
                    }
                }
                if miss {
                    None
                } else {
                    Some(handle.candidates(PositionIndex::pack(&packed[..probe.key.len()])))
                }
            } else {
                scan_rows.as_deref()
            };
            match candidates {
                None | Some([]) => {
                    if !exists {
                        decided_true.push(prow);
                    }
                }
                Some(c) => lists.push((prow, c)),
            }
        }

        let bind_slots: Vec<Slot> = probe
            .actions
            .iter()
            .filter_map(|a| match a {
                VAct::Bind { slot, .. } if parent.cols[*slot].is_none() => Some(*slot),
                _ => None,
            })
            .collect();
        // Column pruning: gather only the bound columns the body reads.
        let carry_slots: Vec<Slot> = carry
            .iter()
            .copied()
            .filter(|&s| parent.cols[s].is_some())
            .collect();

        let mut undecided: Vec<usize> = (0..lists.len()).collect();
        let mut scratch: Vec<(Slot, u32)> = Vec::new();
        // Wave scratch, reused across waves: undecided parents skipped this
        // wave, the wave's members, and the wave batch itself — only the
        // carried and freshly bound columns are materialized, filled in
        // place as members pass the probe's residual checks.
        let mut next_undecided: Vec<usize> = Vec::with_capacity(undecided.len());
        let mut wave_members: Vec<usize> = Vec::new();
        let mut wave_batch = Batch {
            len: 0,
            cols: vec![None; nslots],
        };
        for &slot in carry_slots.iter().chain(&bind_slots) {
            wave_batch.cols[slot] = Some(Vec::new());
        }
        let mut k = 0usize;
        while !undecided.is_empty() {
            next_undecided.clear();
            wave_members.clear();
            wave_batch.len = 0;
            for col in wave_batch.cols.iter_mut().flatten() {
                col.clear();
            }
            for &m in &undecided {
                let (prow, cands) = lists[m];
                if k >= cands.len() {
                    // Exhausted without a decision: every unifying fact
                    // passed (∀ true) or none witnessed (∃ false).
                    if !exists {
                        decided_true.push(prow);
                    }
                    continue;
                }
                scanned += 1;
                scratch.clear();
                if apply_row(probe, columns, cands[k], parent, prow, &mut scratch) {
                    wave_members.push(m);
                    wave_batch.len += 1;
                    for &slot in &carry_slots {
                        let src = parent.cols[slot].as_ref().expect("carry slots are bound");
                        let col = wave_batch.cols[slot].as_mut().expect("allocated above");
                        col.push(src[prow as usize]);
                    }
                    for &slot in &bind_slots {
                        let code = scratch
                            .iter()
                            .find(|(s, _)| *s == slot)
                            .map(|&(_, c)| c)
                            .expect("a passing candidate binds every bind slot");
                        wave_batch.cols[slot]
                            .as_mut()
                            .expect("allocated above")
                            .push(code);
                    }
                } else {
                    // Not part of the quantified set: skip this candidate,
                    // the parent stays undecided.
                    next_undecided.push(m);
                }
            }
            if wave_batch.len > 0 {
                matched += wave_batch.len as u64;
                let wave_sel: Vec<u32> = (0..wave_batch.len as u32).collect();
                let survived = self.eval(body, &wave_batch, wave_sel);
                let mut si = 0;
                for (row, &m) in wave_members.iter().enumerate() {
                    let ok = si < survived.len() && survived[si] == row as u32;
                    if ok {
                        si += 1;
                    }
                    if exists {
                        if ok {
                            decided_true.push(lists[m].0);
                        } else {
                            next_undecided.push(m);
                        }
                    } else if ok {
                        next_undecided.push(m);
                    }
                    // ∀ with a failing child: decided false, dropped.
                }
            }
            // Skips and wave survivors interleave arbitrarily; restore the
            // deterministic parent order for the next wave.
            next_undecided.sort_unstable();
            std::mem::swap(&mut undecided, &mut next_undecided);
            k += 1;
        }
        if let Some(cell) = trace {
            cell.add_invocations(sel.len() as u64);
            cell.add_rows(scanned);
            cell.add_matches(matched);
            cell.add_waves(k as u64);
        }
        decided_true.sort_unstable();
        decided_true
    }
}

/// Vectorized sentence evaluation: a single unbound batch row survives the
/// root operator iff the sentence holds. A root `∃-scan` instead walks the
/// row engine's root candidate list (a `PositionIndex` bucket) in
/// [`ROOT_CHUNK`]-sized chunks with early exit — the batch analogue of the
/// row engine's first-witness short-circuit.
pub(crate) fn eval_sentence(prepared: &PreparedFo<'_>) -> bool {
    let vec_fo = &prepared.vec;
    let root_scan = match &vec_fo.root {
        VOp::ExistsScan { probe, body, .. } if prepared.plan.free.is_empty() => Some((probe, body)),
        _ => None,
    };
    let Some((probe, body)) = root_scan else {
        let ctx = VecCtx {
            prepared,
            columnar: prepared.index.columnar(),
        };
        let batch = Batch::unbound(prepared.plan.slots.len());
        return !ctx.eval(&vec_fo.root, &batch, vec![0]).is_empty();
    };
    let FoOp::ExistsScan { spec, .. } = &prepared.plan.root else {
        unreachable!("vec root mirrors the plan root");
    };
    let regs = Registers::new(prepared.plan.slots.len());
    let Some(candidates) = spec.candidates(
        &prepared.index,
        prepared.handles[spec.probe_id].as_ref(),
        &regs,
    ) else {
        return false;
    };
    if candidates.is_empty() {
        return false;
    }
    let ctx = VecCtx {
        prepared,
        columnar: prepared.index.columnar(),
    };
    let parent = Batch::unbound(prepared.plan.slots.len());
    for start in (0..candidates.len()).step_by(ROOT_CHUNK) {
        let rows: Vec<u32> = candidates.slice(start..start + ROOT_CHUNK).collect();
        let batch = expand(
            probe,
            &parent,
            &[0],
            ctx.columnar,
            Some(&rows),
            ctx.trace_cell(probe.probe_id),
        );
        if batch.len == 0 {
            continue;
        }
        let child_sel: Vec<u32> = (0..batch.len as u32).collect();
        if !ctx.eval(body, &batch, child_sel).is_empty() {
            return true;
        }
    }
    false
}

/// Vectorized batch evaluation of an open formula over `tuples`:
/// `out[i]` ⇔ the formula holds under `vars ↦ tuples[i]`. A tuple carrying
/// a value outside the active domain is `false` without evaluation
/// ([`PreparedFo::eval_tuples`] states why).
pub(crate) fn eval_tuples(
    prepared: &PreparedFo<'_>,
    vars: &[Variable],
    tuples: &[Vec<Value>],
) -> Vec<bool> {
    let vec_fo = &prepared.vec;
    let columnar = prepared.index.columnar();
    let dict = columnar.dictionary();
    let nslots = prepared.plan.slots.len();
    let slot_for: Vec<Option<Slot>> = vars
        .iter()
        .map(|v| {
            prepared
                .plan
                .free
                .iter()
                .find(|(fv, _)| fv == v)
                .map(|&(_, s)| s)
        })
        .collect();
    let mut cols: Vec<Option<Vec<u32>>> = vec![None; nslots];
    for slot in slot_for.iter().flatten() {
        cols[*slot] = Some(Vec::with_capacity(tuples.len()));
    }
    // Only tuples whose bound values all have codes are selected; a
    // foreign value's row keeps a placeholder code and stays `false`.
    let mut sel: Vec<u32> = Vec::with_capacity(tuples.len());
    for (row, tuple) in tuples.iter().enumerate() {
        let mut coded = true;
        for (value, slot) in tuple.iter().zip(&slot_for) {
            let Some(slot) = slot else { continue };
            let code = dict.code_of(value);
            coded &= code.is_some();
            (cols[*slot].as_mut().expect("allocated above")).push(code.unwrap_or(0));
        }
        if coded {
            sel.push(row as u32);
        }
    }
    let batch = Batch {
        len: tuples.len(),
        cols,
    };
    let ctx = VecCtx { prepared, columnar };
    let survived = ctx.eval(&vec_fo.root, &batch, sel);
    let mut out = vec![false; tuples.len()];
    for row in survived {
        out[row as usize] = true;
    }
    out
}

/// Vectorized `answers`: a batch hash join down the step pipeline, chunked
/// over the row engine's root candidate list so intermediates stay
/// bounded.
pub(crate) fn query_answers(prepared: &PreparedQuery<'_>) -> BTreeSet<Vec<Value>> {
    let mut out = BTreeSet::new();
    let plan = prepared.plan;
    let step = plan.steps.first().expect("vec path requires steps");
    let regs = Registers::new(plan.slots.len());
    let Some(candidates) =
        step.spec
            .candidates(&prepared.index, prepared.handles[0].as_ref(), &regs)
    else {
        return out;
    };
    let columnar = prepared.index.columnar();
    let dict = columnar.dictionary();
    let trace_cell = |i: usize| prepared.trace.as_deref().map(|sink| sink.op(i));
    let parent = Batch::unbound(plan.slots.len());
    for start in (0..candidates.len()).step_by(ROOT_CHUNK) {
        let rows: Vec<u32> = candidates.slice(start..start + ROOT_CHUNK).collect();
        let mut batch = expand(
            &prepared.vec_steps[0],
            &parent,
            &[0],
            columnar,
            Some(&rows),
            trace_cell(0),
        );
        for (i, probe) in prepared.vec_steps[1..].iter().enumerate() {
            if batch.len == 0 {
                break;
            }
            let sel: Vec<u32> = (0..batch.len as u32).collect();
            batch = expand(probe, &batch, &sel, columnar, None, trace_cell(i + 1));
        }
        if batch.len == 0 {
            continue;
        }
        let free_cols: Option<Vec<&Vec<u32>>> = plan
            .free_slots
            .iter()
            .map(|&s| batch.cols[s].as_ref())
            .collect();
        let Some(free_cols) = free_cols else { continue };
        for row in 0..batch.len {
            out.insert(
                free_cols
                    .iter()
                    .map(|col| dict.value(col[row]).clone())
                    .collect(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FoPlan, QueryPlan};
    use cqa_data::{Schema, UncertainDatabase};
    use cqa_query::fo_formula::FoFormula;
    use cqa_query::{ConjunctiveQuery, Term};

    fn db() -> UncertainDatabase {
        let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema);
        for (a, b) in [("a", "1"), ("a", "2"), ("b", "1"), ("c", "3")] {
            db.insert_values("R", [a, b]).unwrap();
        }
        for (a, b) in [("1", "x"), ("2", "x"), ("3", "y")] {
            db.insert_values("S", [a, b]).unwrap();
        }
        db
    }

    fn compile(formula: &FoFormula, db: &UncertainDatabase) -> FoPlan {
        FoPlan::compile(formula, db.schema(), Some(db.index().statistics()))
            .expect("a guarded formula")
    }

    /// The sentence's verdict from the vectorized executor.
    fn verdict(formula: &FoFormula, db: &UncertainDatabase) -> bool {
        eval_sentence(&compile(formula, db).prepare(&db.index()))
    }

    #[test]
    fn vectorized_sentences_give_their_verdicts() {
        let db = db();
        let r = db.schema().relation_id("R").unwrap();
        let s = db.schema().relation_id("S").unwrap();
        let x = || Term::var("x");
        let y = || Term::var("y");
        let sentences = [
            // ∃x∃y (R(x,y) ∧ S(y,'x')) — join through ∃-scans.
            FoFormula::exists(
                vec![cqa_query::Variable::new("x"), cqa_query::Variable::new("y")],
                FoFormula::and(vec![
                    FoFormula::atom(r, vec![x(), y()]),
                    FoFormula::atom(s, vec![y(), Term::constant("x")]),
                ]),
            ),
            // ∃x∃y (R(x,y) ∧ y = '3') — a root ∃-scan whose only witness is
            // its last candidate.
            FoFormula::exists(
                vec![cqa_query::Variable::new("x"), cqa_query::Variable::new("y")],
                FoFormula::and(vec![
                    FoFormula::atom(r, vec![x(), y()]),
                    FoFormula::Equals(y(), Term::constant("3")),
                ]),
            ),
            // ∀y (R('a',y) → y = '1') — false (R(a,2)).
            FoFormula::forall(
                vec![cqa_query::Variable::new("y")],
                FoFormula::Implies(
                    Box::new(FoFormula::atom(r, vec![Term::constant("a"), y()])),
                    Box::new(FoFormula::Equals(y(), Term::constant("1"))),
                ),
            ),
            // ∀y (R('b',y) → y = '1') — true (singleton block).
            FoFormula::forall(
                vec![cqa_query::Variable::new("y")],
                FoFormula::Implies(
                    Box::new(FoFormula::atom(r, vec![Term::constant("b"), y()])),
                    Box::new(FoFormula::Equals(y(), Term::constant("1"))),
                ),
            ),
            // ∃x (R(x,'1') ∧ ¬R(x,'2')) — anti-join: x='b' witnesses.
            FoFormula::exists(
                vec![cqa_query::Variable::new("x")],
                FoFormula::and(vec![
                    FoFormula::atom(r, vec![x(), Term::constant("1")]),
                    FoFormula::Not(Box::new(FoFormula::atom(r, vec![x(), Term::constant("2")]))),
                ]),
            ),
            // Disjunction with an out-of-domain constant probe.
            FoFormula::Or(vec![
                FoFormula::atom(r, vec![Term::constant("zz"), Term::constant("1")]),
                FoFormula::atom(r, vec![Term::constant("c"), Term::constant("3")]),
            ]),
            // Constant equality outside the active domain (value compare).
            FoFormula::Equals(Term::constant("zz"), Term::constant("zz")),
        ];
        let expected = [true, true, false, true, true, true, true];
        for (i, (sentence, expected)) in sentences.iter().zip(expected).enumerate() {
            assert_eq!(verdict(sentence, &db), expected, "sentence {i}");
        }
    }

    #[test]
    fn eval_tuples_decides_coded_and_foreign_tuples() {
        let db = db();
        let r = db.schema().relation_id("R").unwrap();
        // Open formula over x: ∃y R(x, y) ∧ ¬R(x, '2').
        let open = FoFormula::and(vec![
            FoFormula::exists(
                vec![cqa_query::Variable::new("y")],
                FoFormula::atom(r, vec![Term::var("x"), Term::var("y")]),
            ),
            FoFormula::Not(Box::new(FoFormula::atom(
                r,
                vec![Term::var("x"), Term::constant("2")],
            ))),
        ]);
        let vars = [cqa_query::Variable::new("x")];
        // 'zz' and 'qq' are outside the active domain, interleaved with
        // coded rows: false without evaluation.
        let tuples: Vec<Vec<Value>> = ["zz", "a", "b", "qq", "c"]
            .iter()
            .map(|v| vec![Value::str(*v)])
            .collect();
        let plan = compile(&open, &db);
        let verdicts = eval_tuples(&plan.prepare(&db.index()), &vars, &tuples);
        assert_eq!(verdicts, [false, false, true, false, true]);
    }

    #[test]
    fn vectorized_answers_match_the_row_engine() {
        let db = db();
        let q = ConjunctiveQuery::builder(db.schema().clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("z")])
            .free([cqa_query::Variable::new("x"), cqa_query::Variable::new("z")])
            .build()
            .unwrap();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        let prepared = plan.prepare(&index);
        // The row engine's matches, projected onto the free variables.
        let row: BTreeSet<Vec<Value>> = (prepared.all_valuations().iter())
            .filter_map(|v| v.project(q.free_vars()))
            .collect();
        assert_eq!(query_answers(&prepared), row);
        assert_eq!(prepared.answers(), row);
        assert!(!row.is_empty());
    }

    #[test]
    fn wide_keys_demote_to_checked_positions() {
        // Three bound key positions: the CodeIndex takes two, the third is
        // demoted to a per-candidate check.
        let schema = Schema::from_relations([("T", 3, 3)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("T", ["a", "b", "c"]).unwrap();
        db.insert_values("T", ["a", "b", "d"]).unwrap();
        let t = db.schema().relation_id("T").unwrap();
        let hit = FoFormula::atom(
            t,
            vec![
                Term::constant("a"),
                Term::constant("b"),
                Term::constant("c"),
            ],
        );
        let miss = FoFormula::atom(
            t,
            vec![
                Term::constant("a"),
                Term::constant("b"),
                Term::constant("e"),
            ],
        );
        assert!(verdict(&hit, &db));
        assert!(!verdict(&miss, &db));
    }
}
