//! Fixed-width binary codes `v ∈ {0,1}^{|A|}` assigned to states and cuts.

use std::fmt;

use crate::signal::{Polarity, SignalId};

/// A binary state vector with one bit per signal.
///
/// Codes are the values attached to SG states and to local configurations of
/// the unfolding segment. The textual form follows the paper: the bit of
/// signal 0 is printed first, e.g. `101` for `a=1, b=0, c=1`.
///
/// # Examples
///
/// ```
/// use si_stg::{BinaryCode, SignalId, Polarity};
///
/// let mut code = BinaryCode::zeros(3);
/// code.set(SignalId(0), true);
/// code.set(SignalId(2), true);
/// assert_eq!(code.to_string(), "101");
/// code.apply(SignalId(2), Polarity::Fall);
/// assert_eq!(code.to_string(), "100");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryCode {
    bits: Vec<u64>,
    len: usize,
}

impl BinaryCode {
    /// The all-zero code over `len` signals.
    pub fn zeros(len: usize) -> Self {
        BinaryCode {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a code from per-signal values, index order.
    pub fn from_bits<I: IntoIterator<Item = bool>>(values: I) -> Self {
        let mut code = BinaryCode::zeros(0);
        for (i, v) in values.into_iter().enumerate() {
            code.len = i + 1;
            if code.bits.len() * 64 < code.len {
                code.bits.push(0);
            }
            if v {
                code.bits[i / 64] |= 1 << (i % 64);
            }
        }
        code
    }

    /// Parses a code from a string of `0`/`1` characters, e.g. `"101"`.
    ///
    /// # Panics
    ///
    /// Panics if the string contains characters other than `0` and `1`.
    pub fn from_str_bits(s: &str) -> Self {
        BinaryCode::from_bits(s.chars().map(|c| {
            assert!(matches!(c, '0' | '1'), "invalid bit character {c:?}");
            c == '1'
        }))
    }

    /// Number of signals covered by the code.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the code covers no signals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn get(&self, signal: SignalId) -> bool {
        let i = signal.index();
        assert!(i < self.len, "signal {signal} out of range");
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets the value of `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn set(&mut self, signal: SignalId, value: bool) {
        let i = signal.index();
        assert!(i < self.len, "signal {signal} out of range");
        if value {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Flips the value of `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn toggle(&mut self, signal: SignalId) {
        let i = signal.index();
        assert!(i < self.len, "signal {signal} out of range");
        self.bits[i / 64] ^= 1 << (i % 64);
    }

    /// Applies a signal change of the given polarity, returning an error
    /// message if the change is inconsistent with the current value (e.g.
    /// `a+` while `a` is already 1).
    ///
    /// # Examples
    ///
    /// ```
    /// use si_stg::{BinaryCode, SignalId, Polarity};
    ///
    /// let mut code = BinaryCode::zeros(1);
    /// assert!(code.try_apply(SignalId(0), Polarity::Rise).is_ok());
    /// assert!(code.try_apply(SignalId(0), Polarity::Rise).is_err());
    /// ```
    pub fn try_apply(&mut self, signal: SignalId, polarity: Polarity) -> Result<(), Polarity> {
        if self.get(signal) != polarity.source_value() {
            return Err(polarity);
        }
        self.set(signal, polarity.target_value());
        Ok(())
    }

    /// Applies a signal change without the consistency check.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn apply(&mut self, signal: SignalId, polarity: Polarity) {
        self.set(signal, polarity.target_value());
    }

    /// The packed bits: signal `i` is bit `i % 64` of word `i / 64`, and
    /// bits at or beyond [`len`](Self::len) are zero.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Iterates over `(signal, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, bool)> + '_ {
        (0..self.len).map(|i| (SignalId(i as u32), self.get(SignalId(i as u32))))
    }
}

impl fmt::Display for BinaryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (_, v) in self.iter() {
            f.write_str(if v { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BinaryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BinaryCode({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set() {
        let mut c = BinaryCode::zeros(70);
        assert_eq!(c.len(), 70);
        assert!(!c.get(SignalId(69)));
        c.set(SignalId(69), true);
        assert!(c.get(SignalId(69)));
        c.toggle(SignalId(69));
        assert!(!c.get(SignalId(69)));
    }

    #[test]
    fn from_bits_roundtrip() {
        let c = BinaryCode::from_bits([true, false, true]);
        assert_eq!(c.to_string(), "101");
        let d = BinaryCode::from_str_bits("101");
        assert_eq!(c, d);
    }

    #[test]
    #[should_panic(expected = "invalid bit character")]
    fn from_str_rejects_garbage() {
        BinaryCode::from_str_bits("10x");
    }

    #[test]
    fn try_apply_checks_consistency() {
        let mut c = BinaryCode::zeros(2);
        assert!(c.try_apply(SignalId(0), Polarity::Rise).is_ok());
        assert_eq!(c.to_string(), "10");
        assert_eq!(
            c.try_apply(SignalId(0), Polarity::Rise),
            Err(Polarity::Rise)
        );
        assert!(c.try_apply(SignalId(0), Polarity::Fall).is_ok());
        assert_eq!(
            c.try_apply(SignalId(1), Polarity::Fall),
            Err(Polarity::Fall)
        );
    }

    #[test]
    fn hash_and_eq_respect_bits() {
        use std::collections::HashSet;
        let a = BinaryCode::from_str_bits("01");
        let b = BinaryCode::from_str_bits("10");
        let a2 = BinaryCode::from_str_bits("01");
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&a2));
        assert!(!set.contains(&b));
    }

    #[test]
    fn words_pack_signal_i_at_bit_i() {
        assert_eq!(BinaryCode::from_str_bits("101").words(), &[0b101]);
        let mut c = BinaryCode::zeros(70);
        c.set(SignalId(69), true);
        assert_eq!(c.words(), &[0, 1 << 5]);
        assert!(BinaryCode::zeros(0).words().is_empty());
    }

    #[test]
    fn iter_pairs() {
        let c = BinaryCode::from_str_bits("10");
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(SignalId(0), true), (SignalId(1), false)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BinaryCode::zeros(1).get(SignalId(1));
    }
}
