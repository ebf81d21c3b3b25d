//! Secondary indexes: ordered field-value → doc-id maps the collection's
//! query planner consults for a literal's point lookup and for a sort
//! served in key order — the paper's ranking query ("checking the
//! student ranking within the competition") lists by `runtime`.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Wrapper giving [`Value`] the `Ord` required by `BTreeMap`, using the
/// database's total order.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_order(&other.0)
    }
}

/// The doc ids under one index key, ascending. A key most often holds
/// exactly one — every key of a unique field such as `job_id` does —
/// and that one lives in the map entry itself; a set is allocated only
/// when a second id arrives.
#[derive(Clone, Debug)]
enum Ids {
    One(u64),
    Many(BTreeSet<u64>),
}

impl Ids {
    /// Add `id`; whether it was new.
    fn insert(&mut self, id: u64) -> bool {
        match self {
            Ids::One(only) if *only == id => false,
            Ids::One(only) => {
                *self = Ids::Many(BTreeSet::from([*only, id]));
                true
            }
            Ids::Many(set) => set.insert(id),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (one, many) = match self {
            Ids::One(only) => (Some(*only), None),
            Ids::Many(set) => (None, Some(set)),
        };
        one.into_iter().chain(many.into_iter().flatten().copied())
    }
}

/// A single-field secondary index.
#[derive(Clone, Debug, Default)]
pub struct Index {
    map: BTreeMap<IndexKey, Ids>,
    entries: usize,
    array_keys: usize,
}

impl Index {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `doc_id` under `value` (the document's field value).
    pub fn insert(&mut self, value: &Value, doc_id: u64) {
        let added = match self.map.entry(IndexKey(value.clone())) {
            Entry::Vacant(slot) => {
                slot.insert(Ids::One(doc_id));
                true
            }
            Entry::Occupied(slot) => slot.into_mut().insert(doc_id),
        };
        if added {
            self.entries += 1;
            if matches!(value, Value::Array(_)) {
                self.array_keys += 1;
            }
        }
    }

    /// Remove `doc_id` from under `value`.
    pub fn remove(&mut self, value: &Value, doc_id: u64) {
        let Entry::Occupied(mut slot) = self.map.entry(IndexKey(value.clone())) else { return };
        let (removed, emptied) = match slot.get_mut() {
            Ids::One(only) => (*only == doc_id, *only == doc_id),
            Ids::Many(set) => (set.remove(&doc_id), set.is_empty()),
        };
        if emptied {
            slot.remove();
        }
        if removed {
            self.entries -= 1;
            if matches!(value, Value::Array(_)) {
                self.array_keys -= 1;
            }
        }
    }

    /// Total `(value, doc)` entries. Because each document contributes
    /// at most one entry, `len() == collection.len()` means every
    /// document carries the indexed field — the planner's condition for
    /// serving a sort straight off the index.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Whether any indexed value is an array. Bare-literal equality has
    /// array-containment semantics (`{"f": x}` matches a doc whose `f`
    /// is an array containing `x`) that a whole-value key lookup cannot
    /// serve, so the planner falls back to a scan while any are present.
    pub fn has_array_keys(&self) -> bool {
        self.array_keys > 0
    }

    /// Doc ids in index-key order (ascending or descending). Ties
    /// within one key come out in ascending id order either way,
    /// matching what a stable sort over `_id`-ordered rows produces.
    pub fn ids_in_key_order(&self, desc: bool) -> impl Iterator<Item = u64> + '_ {
        let fwd = (!desc).then(|| self.map.values().flat_map(Ids::iter));
        let rev = desc.then(|| self.map.values().rev().flat_map(Ids::iter));
        fwd.into_iter().flatten().chain(rev.into_iter().flatten())
    }

    /// Doc ids with field exactly `value`.
    pub fn lookup_eq(&self, value: &Value) -> Vec<u64> {
        self.map
            .get(&IndexKey(value.clone()))
            .map(|ids| ids.iter().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = Index::new();
        idx.insert(&Value::from(0.5), 1);
        idx.insert(&Value::from(0.5), 2);
        idx.insert(&Value::from(1.5), 3);
        assert_eq!(idx.lookup_eq(&Value::from(0.5)), vec![1, 2]);
        idx.remove(&Value::from(0.5), 1);
        assert_eq!(idx.lookup_eq(&Value::from(0.5)), vec![2]);
        idx.remove(&Value::from(0.5), 2);
        assert!(idx.lookup_eq(&Value::from(0.5)).is_empty());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn key_order_iteration_and_entry_count() {
        let mut idx = Index::new();
        idx.insert(&Value::from(2.0), 5);
        idx.insert(&Value::from(0.5), 9);
        idx.insert(&Value::from(0.5), 3);
        idx.insert(&Value::from(1.0), 7);
        assert_eq!(idx.len(), 4);
        let asc: Vec<u64> = idx.ids_in_key_order(false).collect();
        assert_eq!(asc, vec![3, 9, 7, 5]);
        let desc: Vec<u64> = idx.ids_in_key_order(true).collect();
        // Keys reverse; ids within a key stay ascending (stable-sort ties).
        assert_eq!(desc, vec![5, 7, 3, 9]);
        // Double-insert is not double-counted; removal decrements.
        idx.insert(&Value::from(0.5), 3);
        assert_eq!(idx.len(), 4);
        idx.remove(&Value::from(0.5), 3);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn cross_numeric_type_keys_unify() {
        let mut idx = Index::new();
        idx.insert(&Value::Int(1), 1);
        idx.insert(&Value::Float(1.0), 2);
        // Int(1) and Float(1.0) are the same key in the index order.
        assert_eq!(idx.lookup_eq(&Value::Int(1)).len(), 2);
        assert_eq!(idx.lookup_eq(&Value::Float(1.0)), vec![1, 2]);
    }
}
