//! Shared physical-operator machinery: the register file and probe specs.
//!
//! Both plan kinds ([`crate::QueryPlan`] and [`crate::FoPlan`]) compile
//! variables down to dense **slots** in a register file and atoms down to
//! [`ProbeSpec`]s. A probe spec is the compile-time answer to the questions
//! the interpreters re-derive on every call: *which positions of this atom
//! are bound here* (the first [`PositionIndex::MAX_WIDTH`] of them become
//! the probe key of a [`cqa_data::PositionIndex`]), and *what to do with the
//! remaining positions of each candidate fact* (bind a register, check a
//! register, check a constant).

use cqa_data::{DatabaseIndex, Fact, PositionIndex, PositionSet, RelationId, Rows, Value};
use cqa_query::{Term, Variable};
use std::sync::Arc;

/// Dense register index of a compiled variable.
pub(crate) type Slot = usize;

/// The runtime register file: one optional [`Value`] per slot, with its
/// dictionary code where the binder knew it.
pub(crate) struct Registers {
    values: Vec<Option<Value>>,
    /// `NO_CODE` where unknown; meaningful only while the slot is bound.
    codes: Vec<u32>,
}

/// Marks a register whose value's code is not known.
const NO_CODE: u32 = u32::MAX;

impl Registers {
    pub(crate) fn new(slots: usize) -> Self {
        Registers {
            values: vec![None; slots],
            codes: vec![NO_CODE; slots],
        }
    }

    pub(crate) fn get(&self, slot: Slot) -> Option<&Value> {
        self.values[slot].as_ref()
    }

    /// Binds `slot` to a value from outside the database.
    pub(crate) fn set(&mut self, slot: Slot, value: Value) {
        self.set_coded(slot, value, NO_CODE);
    }

    /// Binds `slot` to a value whose dictionary code is `code`.
    pub(crate) fn set_coded(&mut self, slot: Slot, value: Value, code: u32) {
        self.values[slot] = Some(value);
        self.codes[slot] = code;
    }

    /// The code of the bound slot's value: as remembered, else looked up
    /// (`None`: no fact carries the value).
    fn code(&self, slot: Slot, value: &Value, index: &DatabaseIndex) -> Option<u32> {
        match self.codes[slot] {
            NO_CODE => index.dictionary().code_of(value),
            code => Some(code),
        }
    }

    /// True iff the bound slot's value is the one at `pos` of `row`.
    fn holds(&self, slot: Slot, value: &Value, cell: Cell<'_>, pos: usize) -> bool {
        match self.codes[slot] {
            NO_CODE => value == cell.fact.value(pos),
            code => code == cell.codes[pos],
        }
    }

    /// Undoes the writes recorded in `writes` (newest first is irrelevant:
    /// each recorded slot was `None` before) and truncates the log.
    pub(crate) fn undo(&mut self, writes: &mut Vec<Slot>) {
        for slot in writes.drain(..) {
            self.values[slot] = None;
        }
    }
}

/// One candidate row, as values and as codes.
#[derive(Clone, Copy)]
struct Cell<'a> {
    fact: &'a Fact,
    codes: &'a [u32],
}

/// Where one component of a probe key comes from.
#[derive(Clone, Debug)]
pub(crate) enum KeySource {
    /// A constant from the query/formula.
    Const(Value),
    /// The current value of a register (bound by an earlier operator or by
    /// the caller's initial bindings).
    Slot(Slot),
}

/// One component of a probe key bound to a snapshot: a constant's code
/// (`None`: no fact carries it, the probe matches nothing) or a slot.
#[derive(Clone, Debug)]
pub(crate) enum KeyCode {
    Code(Option<u32>),
    Slot(Slot),
}

/// A probe site bound to one snapshot: the index it probes and its key
/// with the constants coded.
pub(crate) struct BoundProbe {
    pub(crate) index: Arc<PositionIndex>,
    pub(crate) key: Vec<KeyCode>,
}

/// What to do with a candidate fact's value at one non-probed position.
#[derive(Clone, Debug)]
pub(crate) enum PosAction {
    /// First occurrence of a variable: write the register (or, if the caller
    /// pre-bound it, check it — `satisfies_with` base bindings).
    Bind { pos: usize, slot: Slot },
    /// Repeated occurrence of a bound variable (or a bound variable beyond
    /// the index's probe width): the value must equal the register.
    CheckSlot { pos: usize, slot: Slot },
    /// A constant beyond the index's probe width.
    CheckConst { pos: usize, value: Value },
}

/// A compiled atom access: relation, probed position subset, the recipe for
/// the probe key, and the per-candidate actions for all other positions.
#[derive(Clone, Debug)]
pub(crate) struct ProbeSpec {
    pub(crate) relation: RelationId,
    pub(crate) positions: PositionSet,
    pub(crate) key: Vec<KeySource>,
    pub(crate) actions: Vec<PosAction>,
    /// Index into the prepared plan's probe-handle table.
    pub(crate) probe_id: usize,
    /// Cost-model estimate of the number of candidates per probe (explain
    /// output only; never consulted at execution time).
    pub(crate) estimated_rows: f64,
}

/// How the spec builder should treat one variable occurrence.
pub(crate) enum SlotState {
    /// The variable is bound before this operator runs.
    Bound(Slot),
    /// The variable is free here; this operator's scan binds it.
    Unbound(Slot),
}

impl ProbeSpec {
    /// Compiles the access to one atom. `resolve` maps each variable to its
    /// slot plus whether it is bound *before* this operator runs; the first
    /// positions holding constants or bound variables (up to the index's
    /// probe width) become the probe key — the probe then returns a superset
    /// of the matching facts — and everything else becomes a per-candidate
    /// action that re-establishes exactness.
    pub(crate) fn build(
        relation: RelationId,
        terms: &[Term],
        resolve: &mut dyn FnMut(&Variable) -> SlotState,
        probe_id: usize,
    ) -> ProbeSpec {
        let mut positions = PositionSet::empty();
        let mut key = Vec::new();
        let mut actions = Vec::new();
        let mut bound_here: Vec<Slot> = Vec::new();
        for (pos, term) in terms.iter().enumerate() {
            let probe_ok = key.len() < PositionIndex::MAX_WIDTH && pos < PositionSet::MAX_POSITIONS;
            match term {
                Term::Const(c) => {
                    if probe_ok {
                        positions.insert(pos);
                        key.push(KeySource::Const(c.clone()));
                    } else {
                        actions.push(PosAction::CheckConst {
                            pos,
                            value: c.clone(),
                        });
                    }
                }
                Term::Var(v) => match resolve(v) {
                    SlotState::Bound(slot) => {
                        if probe_ok {
                            positions.insert(pos);
                            key.push(KeySource::Slot(slot));
                        } else {
                            actions.push(PosAction::CheckSlot { pos, slot });
                        }
                    }
                    SlotState::Unbound(slot) => {
                        if bound_here.contains(&slot) {
                            actions.push(PosAction::CheckSlot { pos, slot });
                        } else {
                            bound_here.push(slot);
                            actions.push(PosAction::Bind { pos, slot });
                        }
                    }
                },
            }
        }
        ProbeSpec {
            relation,
            positions,
            key,
            actions,
            probe_id,
            estimated_rows: 0.0,
        }
    }

    /// The slots this spec's `Bind` actions write, in position order.
    pub(crate) fn bound_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.actions.iter().filter_map(|a| match a {
            PosAction::Bind { slot, .. } => Some(*slot),
            _ => None,
        })
    }

    /// Binds the probe site to `index`: `None` for a full scan.
    pub(crate) fn bind(&self, index: &DatabaseIndex) -> Option<BoundProbe> {
        if self.positions.is_empty() {
            return None;
        }
        let dictionary = index.dictionary();
        Some(BoundProbe {
            index: index.position_index(self.relation, self.positions),
            key: (self.key.iter())
                .map(|src| match src {
                    KeySource::Const(c) => KeyCode::Code(dictionary.code_of(c)),
                    KeySource::Slot(s) => KeyCode::Slot(*s),
                })
                .collect(),
        })
    }

    /// Resolves the candidate rows for the current registers: a hash probe
    /// when positions are bound, every row of the relation otherwise. `None`
    /// means some key register is unbound, i.e. *no* candidate can match
    /// (the caller decides what that means — `false` for an existential
    /// scan, vacuous truth for a block-∀).
    pub(crate) fn candidates<'a>(
        &self,
        index: &DatabaseIndex,
        bound: Option<&'a BoundProbe>,
        regs: &Registers,
    ) -> Option<Rows<'a>> {
        let Some(bound) = bound else {
            return Some(index.all_rows(self.relation));
        };
        let mut codes = [0u32; PositionIndex::MAX_WIDTH];
        for (code, src) in codes.iter_mut().zip(&bound.key) {
            let coded = match src {
                KeyCode::Code(coded) => *coded,
                KeyCode::Slot(slot) => regs.code(*slot, regs.get(*slot)?, index),
            };
            match coded {
                Some(coded) => *code = coded,
                // A value no fact carries.
                None => return Some(bound.index.probe(None)),
            }
        }
        let key = PositionIndex::pack(&codes[..bound.key.len()]);
        Some(bound.index.probe(Some(key)))
    }

    /// Applies the per-candidate actions to the fact at `row`. Newly written
    /// slots are recorded in `writes`; on a failed check the caller must
    /// [`Registers::undo`] (the recorded prefix may already be written).
    pub(crate) fn apply(
        &self,
        index: &DatabaseIndex,
        row: u32,
        regs: &mut Registers,
        writes: &mut Vec<Slot>,
    ) -> bool {
        let cell = Cell {
            fact: index.fact(self.relation, row),
            codes: index.columns(self.relation).row(row as usize),
        };
        for action in &self.actions {
            match action {
                PosAction::Bind { pos, slot } => match regs.get(*slot) {
                    Some(existing) => {
                        if !regs.holds(*slot, existing, cell, *pos) {
                            return false;
                        }
                    }
                    None => {
                        let code = cell.codes[*pos];
                        regs.set_coded(*slot, cell.fact.value(*pos).clone(), code);
                        writes.push(*slot);
                    }
                },
                PosAction::CheckSlot { pos, slot } => {
                    if !(regs.get(*slot)).is_some_and(|value| regs.holds(*slot, value, cell, *pos))
                    {
                        return false;
                    }
                }
                PosAction::CheckConst { pos, value } => {
                    if cell.fact.value(*pos) != value {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Renders the access pattern for `explain` output, e.g.
    /// `R('Rome', x, ↦y, =y)`: probed constants/registers, then `↦v` for a
    /// binding position and `=v` for an equality check.
    pub(crate) fn render(&self, schema: &cqa_data::Schema, slot_names: &[Variable]) -> String {
        let relation = &schema.relation(self.relation).name;
        let arity = schema.relation(self.relation).arity();
        let mut parts: Vec<String> = vec![String::from("*"); arity];
        let mut key_iter = self.key.iter();
        for pos in self.positions.iter() {
            if let Some(src) = key_iter.next() {
                parts[pos] = match src {
                    KeySource::Const(c) => format!("{c:?}"),
                    KeySource::Slot(s) => slot_names[*s].to_string(),
                };
            }
        }
        for action in &self.actions {
            match action {
                PosAction::Bind { pos, slot } => {
                    parts[*pos] = format!("↦{}", slot_names[*slot]);
                }
                PosAction::CheckSlot { pos, slot } => {
                    parts[*pos] = format!("={}", slot_names[*slot]);
                }
                PosAction::CheckConst { pos, value } => {
                    parts[*pos] = format!("={value:?}");
                }
            }
        }
        let access = if self.positions.is_empty() {
            "scan"
        } else {
            "probe"
        };
        format!("{access} {relation}({})", parts.join(", "))
    }
}
