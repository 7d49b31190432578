//! A compact, growable bit set used throughout the workspace.
//!
//! Markings of 1-safe Petri nets, causal-predecessor sets of unfolding nodes
//! and concurrency rows are all sets of small dense integer ids, so a packed
//! `u64`-block bit set is the natural representation. The type is deliberately
//! minimal: it stores bits, supports the set algebra the algorithms need, and
//! nothing else.

use std::fmt;

const BITS: usize = 64;

/// A growable set of `usize` ids packed into 64-bit blocks.
///
/// # Examples
///
/// ```
/// use si_petri::BitSet;
///
/// let mut set = BitSet::new();
/// set.insert(3);
/// set.insert(200);
/// assert!(set.contains(3));
/// assert!(!set.contains(4));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
}

// Equality and hashing ignore trailing zero blocks, so a set that grew and
// shrank compares equal to a freshly built one.
impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.trimmed().hash(state);
    }
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { blocks: Vec::new() }
    }

    /// Number of ids currently in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if no id is in the set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Inserts `id`, growing the backing storage if needed. Returns `true`
    /// if the id was not already present.
    pub fn insert(&mut self, id: usize) -> bool {
        let block = id / BITS;
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << (id % BITS);
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes `id`. Returns `true` if it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        let block = id / BITS;
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << (id % BITS);
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        present
    }

    /// Returns `true` if `id` is in the set.
    pub fn contains(&self, id: usize) -> bool {
        let block = id / BITS;
        block < self.blocks.len() && self.blocks[block] & (1u64 << (id % BITS)) != 0
    }

    /// Removes all ids, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// In-place union: `self ← self ∪ other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            *dst |= *src;
        }
    }

    /// In-place intersection: `self ← self ∩ other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, dst) in self.blocks.iter_mut().enumerate() {
            *dst &= other.blocks.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference: `self ← self \ other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            *dst &= !*src;
        }
    }

    /// Returns `true` if the two sets share at least one id.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Returns `true` if every id of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .enumerate()
            .all(|(i, a)| a & !other.blocks.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Smallest id in the set, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The blocks with trailing zeros stripped (the canonical form used by
    /// equality and hashing).
    fn trimmed(&self) -> &[u64] {
        let mut len = self.blocks.len();
        while len > 0 && self.blocks[len - 1] == 0 {
            len -= 1;
        }
        &self.blocks[..len]
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the ids of a [`BitSet`] in ascending order.
pub struct Iter<'a> {
    set: &'a BitSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * BITS + bit);
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_on_demand() {
        let mut s = BitSet::new();
        s.insert(1000);
        assert!(s.contains(1000));
        assert!(!s.contains(999));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_intersection() {
        let a: BitSet = [1, 2, 3, 100].into_iter().collect();
        let b: BitSet = [3, 4, 100].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 100]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 100]);
    }

    #[test]
    fn difference() {
        let a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2].into_iter().collect();
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn subset_and_intersects() {
        let a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [1, 2, 3].into_iter().collect();
        let c: BitSet = [4].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Empty set is a subset of everything.
        assert!(BitSet::new().is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn iter_ascending_across_blocks() {
        let ids = [0, 63, 64, 65, 127, 128, 300];
        let s: BitSet = ids.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), ids.to_vec());
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn subset_with_shorter_other() {
        let a: BitSet = [200].into_iter().collect();
        let b: BitSet = [1].into_iter().collect();
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn debug_not_empty() {
        let s: BitSet = [1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
    }

    #[test]
    fn eq_and_hash_ignore_trailing_blocks() {
        use std::collections::HashSet;
        let mut grown: BitSet = [1].into_iter().collect();
        grown.insert(500);
        grown.remove(500);
        let fresh: BitSet = [1].into_iter().collect();
        assert_eq!(grown, fresh);
        let mut set = HashSet::new();
        set.insert(grown);
        assert!(set.contains(&fresh));
    }
}
