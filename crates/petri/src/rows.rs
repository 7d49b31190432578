//! Packed state rows and the index that deduplicates them.
//!
//! Every explicit traversal in the workspace — the net's reachability graph
//! and exact mode's walks over the unfolding segment — stores its states as
//! fixed-width rows of `u64` words (a bit per place, condition or signal).
//! [`RowIndex`] keeps those rows back to back in one arena and finds them
//! again through an open-addressing table, so recording a state allocates
//! nothing beyond amortised growth.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A set of fixed-width `u64` rows, numbered in insertion order.
///
/// The rows live back to back in one arena; an open-addressing table of row
/// numbers, at most half full, finds them by hash. Per recorded row the
/// index stores its [`width`](Self::width) words, one 8-byte hash (kept so
/// the table can grow without rehashing rows) and two to four 8-byte table
/// slots. Keys derive from the input specification, so rows are hashed
/// with std's default (collision-resistant) hasher.
///
/// # Examples
///
/// ```
/// use si_petri::RowIndex;
///
/// let mut rows = RowIndex::new(2);
/// assert_eq!(rows.insert_full(&[1, 0]), (0, true));
/// assert_eq!(rows.insert_full(&[0, 1]), (1, true));
/// assert_eq!(rows.insert_full(&[1, 0]), (0, false));
/// assert_eq!(rows.get(&[0, 1]), Some(1));
/// assert_eq!(rows.row(1), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RowIndex {
    hasher: RandomState,
    width: usize,
    /// The recorded rows, `width` words each, in insertion order.
    words: Vec<u64>,
    len: usize,
    /// Row number + 1 per slot, 0 for an empty slot; a power of two in size.
    slots: Vec<usize>,
    /// The hash of each recorded row, for rebuilding `slots` on growth.
    hashes: Vec<u64>,
}

impl RowIndex {
    /// An empty index of rows `width` words wide.
    pub fn new(width: usize) -> Self {
        RowIndex {
            hasher: RandomState::new(),
            width,
            words: Vec::new(),
            len: 0,
            slots: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// The number of words per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records `row`; `true` if it was not recorded before.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not [`width`](Self::width) words wide.
    #[inline]
    pub fn insert(&mut self, row: &[u64]) -> bool {
        self.insert_full(row).1
    }

    /// Records `row` and returns its number with `true`, or the number it
    /// was recorded under before with `false`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not [`width`](Self::width) words wide.
    #[inline]
    pub fn insert_full(&mut self, row: &[u64]) -> (usize, bool) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(row);
        let slot = match self.find(row, hash) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        self.words.extend_from_slice(row);
        self.hashes.push(hash);
        self.len += 1;
        self.slots[slot] = self.len;
        (self.len - 1, true)
    }

    /// The number `row` was recorded under, if it was.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not [`width`](Self::width) words wide.
    #[inline]
    pub fn get(&self, row: &[u64]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(row, self.hasher.hash_one(row)).ok()
    }

    /// Row number `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn row(&self, id: usize) -> &[u64] {
        &self.words[id * self.width..(id + 1) * self.width]
    }

    /// Probes for `row` from its home slot: `Ok` with its number, or `Err`
    /// with the empty slot that ends the probe. The table is never full.
    #[inline]
    fn find(&self, row: &[u64], hash: u64) -> Result<usize, usize> {
        assert_eq!(row.len(), self.width, "row width mismatch");
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                k if self.row(k - 1) == row => return Ok(k - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        self.slots = vec![0; size];
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (size - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (size - 1);
            }
            self.slots[slot] = i + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_rows_in_insertion_order_across_growth() {
        let mut rows = RowIndex::new(3);
        let row = |k: u64| [k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15), !k];
        for k in 0..1000 {
            assert_eq!(rows.insert_full(&row(k)), (k as usize, true));
        }
        for k in (0..1000).rev() {
            assert_eq!(rows.insert_full(&row(k)), (k as usize, false));
            assert_eq!(rows.get(&row(k)), Some(k as usize));
            assert_eq!(rows.row(k as usize), &row(k));
        }
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows.get(&row(1000)), None);
    }

    #[test]
    fn empty_index_finds_nothing() {
        let rows = RowIndex::new(1);
        assert!(rows.is_empty());
        assert_eq!(rows.get(&[0]), None);
    }

    #[test]
    fn zero_width_rows_are_all_equal() {
        let mut rows = RowIndex::new(0);
        assert!(rows.insert(&[]));
        assert!(!rows.insert(&[]));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.row(0), &[] as &[u64]);
    }
}
