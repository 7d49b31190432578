//! The workspace's one deterministic hasher, shared by the decision-diagram
//! tables of this crate's [`ImplicitPool`](crate::ImplicitPool) and of
//! `si-bdd`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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
