//! Compact variable sets.
//!
//! The closure computations of Definitions 2 and 5 (`F^{+,q}`, `F^{⊞,q}`)
//! treat the variables of a query as attributes of a relational schema. A
//! query has at most a few dozen variables, so we index them once per query
//! ([`VarIndex`]) and represent sets as 128-bit masks ([`VarSet`]), which
//! makes the fixpoint loops allocation-free.

use crate::{QueryError, Variable};
use rustc_hash::FxHashMap;
use std::fmt;

/// Maximum number of distinct variables supported per query.
pub const MAX_VARS: usize = 128;

/// A bijection between the variables of one query and bit positions.
#[derive(Clone, Debug, Default)]
pub struct VarIndex {
    vars: Vec<Variable>,
    positions: FxHashMap<Variable, usize>,
}

impl VarIndex {
    /// Builds an index over the given variables (duplicates are collapsed;
    /// insertion order determines bit positions).
    pub fn new(vars: impl IntoIterator<Item = Variable>) -> Result<Self, QueryError> {
        let mut index = VarIndex::default();
        for v in vars {
            index.intern(v)?;
        }
        Ok(index)
    }

    fn intern(&mut self, var: Variable) -> Result<usize, QueryError> {
        if let Some(&i) = self.positions.get(&var) {
            return Ok(i);
        }
        let i = self.vars.len();
        if i >= MAX_VARS {
            return Err(QueryError::TooManyVariables {
                count: i + 1,
                max: MAX_VARS,
            });
        }
        self.positions.insert(var.clone(), i);
        self.vars.push(var);
        Ok(i)
    }

    /// Number of indexed variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True iff no variable is indexed.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The bit position of a variable, if indexed.
    pub fn position(&self, var: &Variable) -> Option<usize> {
        self.positions.get(var).copied()
    }

    /// The variable at a bit position.
    pub fn variable(&self, position: usize) -> &Variable {
        &self.vars[position]
    }

    /// All indexed variables in position order.
    pub fn variables(&self) -> &[Variable] {
        &self.vars
    }

    /// Builds a [`VarSet`] from an iterator of variables; variables that are
    /// not indexed are ignored (useful when projecting a super-query's
    /// variable set onto a sub-query).
    pub fn set_of<'a>(&self, vars: impl IntoIterator<Item = &'a Variable>) -> VarSet {
        let mut set = VarSet::empty();
        for v in vars {
            if let Some(i) = self.position(v) {
                set.insert(i);
            }
        }
        set
    }

    /// The set of all indexed variables.
    pub fn all(&self) -> VarSet {
        let mut set = VarSet::empty();
        for i in 0..self.len() {
            set.insert(i);
        }
        set
    }

    /// Materialises a [`VarSet`] back into variables.
    pub fn materialize(&self, set: VarSet) -> Vec<Variable> {
        set.iter().map(|i| self.vars[i].clone()).collect()
    }
}

/// A set of variable positions, stored as a 128-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct VarSet(u128);

impl VarSet {
    /// The empty set.
    pub const fn empty() -> Self {
        VarSet(0)
    }

    /// Singleton set.
    pub fn singleton(position: usize) -> Self {
        let mut s = VarSet::empty();
        s.insert(position);
        s
    }

    /// Inserts a position.
    pub fn insert(&mut self, position: usize) {
        debug_assert!(position < MAX_VARS);
        self.0 |= 1u128 << position;
    }

    /// Removes a position.
    pub fn remove(&mut self, position: usize) {
        self.0 &= !(1u128 << position);
    }

    /// Membership test.
    pub fn contains(&self, position: usize) -> bool {
        (self.0 >> position) & 1 == 1
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// Subset test (`self ⊆ other`).
    pub fn is_subset_of(&self, other: &VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the positions in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..MAX_VARS).filter(move |&i| self.contains(i))
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_interns_variables_once() {
        let idx = VarIndex::new(["x", "y", "x", "z"].map(Variable::new)).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.position(&Variable::new("x")), Some(0));
        assert_eq!(idx.position(&Variable::new("z")), Some(2));
        assert_eq!(idx.position(&Variable::new("w")), None);
        assert_eq!(idx.variable(1), &Variable::new("y"));
    }

    #[test]
    fn too_many_variables_is_an_error() {
        let vars = (0..=MAX_VARS).map(|i| Variable::indexed("v", i));
        assert!(matches!(
            VarIndex::new(vars),
            Err(QueryError::TooManyVariables { .. })
        ));
    }

    #[test]
    fn set_algebra() {
        let mut a = VarSet::empty();
        a.insert(0);
        a.insert(5);
        let mut b = VarSet::singleton(5);
        b.insert(9);
        assert_eq!(a.len(), 2);
        assert!(a.contains(5));
        assert!(!a.contains(9));
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b), VarSet::singleton(5));
        assert_eq!(a.difference(b), VarSet::singleton(0));
        assert!(VarSet::singleton(5).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(a.intersection(b).is_subset_of(&a));
        assert!(VarSet::empty().is_subset_of(&a));
        a.remove(5);
        assert_eq!(a, VarSet::singleton(0));
    }

    #[test]
    fn set_round_trips_through_the_index() {
        let idx = VarIndex::new(["x", "y", "z"].map(Variable::new)).unwrap();
        let set = idx.set_of(&[Variable::new("z"), Variable::new("x")]);
        assert_eq!(set.len(), 2);
        let names: Vec<String> = idx.materialize(set).iter().map(|v| v.to_string()).collect();
        assert_eq!(names, vec!["x", "z"]);
        assert_eq!(idx.all().len(), 3);
        // Unknown variables are ignored by set_of.
        let partial = idx.set_of(&[Variable::new("x"), Variable::new("unknown")]);
        assert_eq!(partial.len(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let mut s = VarSet::empty();
        s.insert(17);
        s.insert(2);
        s.insert(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 17, 64]);
    }
}
