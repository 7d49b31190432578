//! The workspace's one deterministic hasher and the one operation cache,
//! shared by the decision-diagram tables of this crate's
//! [`ImplicitPool`](crate::ImplicitPool) and of `si-bdd`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A deterministic multiply-rotate hasher (the rustc-hash construction):
/// process-independent — unlike `RandomState` — and fast on the small fixed
/// keys of node tables and operation caches, so table behaviour (and with
/// it performance) repeats exactly from run to run, even though no hash
/// order ever reaches an output.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub(crate) type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Allocated owner nodes per cache slot at which a [`LossyCache`] doubles:
/// after [`fit`](LossyCache::fit) a table holds one slot per 4 to 8 of its
/// owner's allocated nodes (or its floor, or its cap).
const NODES_PER_SLOT: usize = 8;

/// A direct-mapped operation cache, the computed table of Brace, Rudell and
/// Bryant (*Efficient implementation of a BDD package*, DAC 1990): one
/// Fx-hashed slot per key, and an insert overwrites whatever the slot held.
/// The diagrams are canonical, so an evicted result is recomputed to the
/// same node; a collision only repeats work.
///
/// The slot count is a power of two. It starts at a floor and doubles as
/// [`fit`](Self::fit) reports the owner's node store growing, up to a hard
/// cap, so the table stays a bounded fraction of the nodes it memoises.
///
/// Slots start zeroed and `K::default()` marks an empty one, so an owner
/// must never store the default key; every kernel short-circuits a terminal
/// first operand before probing, which keeps the all-zero key out. The
/// zeroed table comes straight from the allocator, so slots never written
/// cost no resident memory.
#[derive(Debug, Clone)]
pub struct LossyCache<K> {
    slots: Vec<(K, u32)>,
    /// `log2(slots.len())`.
    bits: u32,
    cap: usize,
    /// Owner node count above which the table doubles (`usize::MAX` at the
    /// cap).
    grow_at: usize,
}

impl<K: Copy + Eq + Hash + Default> LossyCache<K> {
    /// An empty table of `floor` slots that may grow to `cap` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `floor` and `cap` are powers of two with
    /// `floor <= cap`.
    pub fn new(floor: usize, cap: usize) -> Self {
        assert!(
            floor.is_power_of_two() && cap.is_power_of_two() && floor <= cap,
            "cache floor {floor} and cap {cap} must be powers of two, floor <= cap"
        );
        let mut cache = LossyCache {
            slots: Vec::new(),
            bits: 0,
            cap,
            grow_at: 0,
        };
        cache.resize(floor);
        cache
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn index(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // The multiply leaves its best-mixed bits on top.
        (h.finish().rotate_left(self.bits) as usize) & (self.slots.len() - 1)
    }

    /// The result memoised under `key`, if its slot still holds it.
    #[inline]
    pub fn get(&self, key: &K) -> Option<u32> {
        let (k, r) = self.slots[self.index(key)];
        (k == *key).then_some(r)
    }

    /// Memoises `key → r`, evicting whatever shared its slot.
    #[inline]
    pub fn insert(&mut self, key: K, r: u32) {
        debug_assert!(key != K::default(), "the default key marks empty slots");
        let i = self.index(&key);
        self.slots[i] = (key, r);
    }

    /// Grows the table, keeping its entries, once the owner has allocated
    /// more than `NODES_PER_SLOT` (8) nodes per slot; a no-op at the cap.
    #[inline]
    pub fn fit(&mut self, owner_nodes: usize) {
        if owner_nodes > self.grow_at {
            self.grow(owner_nodes);
        }
    }

    /// The doubling behind [`fit`](Self::fit). A larger table indexes by
    /// more of the same top hash bits, so entries in distinct slots never
    /// collide on the way over.
    #[cold]
    fn grow(&mut self, owner_nodes: usize) {
        let mut len = self.slots.len();
        while len < self.cap && owner_nodes > len * NODES_PER_SLOT {
            len *= 2;
        }
        let old = std::mem::take(&mut self.slots);
        self.resize(len);
        for (key, r) in old {
            if key != K::default() {
                self.insert(key, r);
            }
        }
    }

    /// Installs an empty table of `len` slots.
    fn resize(&mut self, len: usize) {
        self.slots = vec![(K::default(), 0); len];
        self.bits = len.trailing_zeros();
        self.grow_at = if len < self.cap {
            len * NODES_PER_SLOT
        } else {
            usize::MAX
        };
    }

    /// Empties every slot.
    pub fn clear(&mut self) {
        self.slots.fill((K::default(), 0));
    }

    /// Empties every slot whose entry `keep` rejects: one sweep.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, u32) -> bool) {
        for slot in &mut self.slots {
            if slot.0 != K::default() && !keep(&slot.0, slot.1) {
                *slot = (K::default(), 0);
            }
        }
    }

    /// The entries the table holds, in slot order.
    pub fn entries(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.slots
            .iter()
            .copied()
            .filter(|(key, _)| *key != K::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_inserts_overwrite_and_misses_stay_misses() {
        let mut cache: LossyCache<(u32, u32)> = LossyCache::new(1, 1);
        cache.insert((2, 3), 7);
        assert_eq!(cache.get(&(2, 3)), Some(7));
        cache.insert((4, 5), 9);
        assert_eq!(
            cache.get(&(2, 3)),
            None,
            "one slot: the second insert evicts"
        );
        assert_eq!(cache.get(&(4, 5)), Some(9));
        assert_eq!(cache.get(&(0, 0)), None, "the empty key never hits");
        cache.retain(|&(a, _), _| a != 4);
        assert_eq!(cache.entries().count(), 0);
    }

    #[test]
    fn growth_tracks_the_owner_within_floor_and_cap() {
        let (floor, cap) = (16, 256);
        let mut cache: LossyCache<(u32, u32, u32)> = LossyCache::new(floor, cap);
        for i in 1..=64u32 {
            cache.insert((i, i, i), i);
        }
        let held: Vec<_> = cache.entries().collect();
        for nodes in (0..4096).step_by(7) {
            cache.fit(nodes);
            let slots = cache.slot_count();
            assert!(slots.is_power_of_two());
            assert!(
                slots <= cap && slots <= floor.max(nodes / 4),
                "{nodes}: {slots}"
            );
            assert!(
                slots == cap || nodes <= slots * NODES_PER_SLOT,
                "{nodes}: {slots}"
            );
        }
        assert_eq!(cache.slot_count(), cap);
        // Growing rehashes: whatever survived at the floor is still found.
        for (key, r) in held {
            assert_eq!(cache.get(&key), Some(r));
        }
    }
}
