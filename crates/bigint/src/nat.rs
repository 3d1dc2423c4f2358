//! The [`Nat`] type: representation, construction, conversion, comparison.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// An arbitrary-precision natural number (unsigned integer).
///
/// Stored as little-endian base-2³² limbs with no trailing zero limbs
/// (zero is the empty limb vector), so equality and hashing are structural.
///
/// # Examples
///
/// ```
/// use tvg_bigint::Nat;
///
/// let a = Nat::from(7u64);
/// let b = Nat::from(6u64);
/// assert_eq!((a * b).to_string(), "42");
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Nat {
    /// Little-endian limbs; invariant: no trailing zeros.
    pub(crate) limbs: Vec<u32>,
}

impl Nat {
    /// The value `0`.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert!(Nat::zero().is_zero());
    /// ```
    #[must_use]
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// The value `1`.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert_eq!(Nat::one(), Nat::from(1u64));
    /// ```
    #[must_use]
    pub fn one() -> Self {
        Nat { limbs: vec![1] }
    }

    /// Returns `true` iff `self == 0`.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff `self == 1`.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` iff the number is even (zero counts as even).
    #[must_use]
    pub(crate) fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l % 2 == 0)
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert_eq!(Nat::from(255u64).bits(), 8);
    /// assert_eq!(Nat::zero().bits(), 0);
    /// ```
    #[must_use]
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Value of the bit at position `i` (little-endian, bit 0 is the LSB).
    #[must_use]
    pub(crate) fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 32, i % 32);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Remove trailing zero limbs to restore the canonical form.
    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Construct from little-endian limbs (normalizing).
    pub(crate) fn from_limbs(limbs: Vec<u32>) -> Self {
        let mut n = Nat { limbs };
        n.normalize();
        n
    }

    /// Converts to `u64` if the value fits.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert_eq!(Nat::from(42u64).to_u64(), Some(42));
    /// assert_eq!(Nat::from(2u64).pow(65).to_u64(), None);
    /// ```
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u64::from(self.limbs[0])),
            2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
            _ => None,
        }
    }
}

impl From<u32> for Nat {
    fn from(v: u32) -> Self {
        if v == 0 {
            Nat::zero()
        } else {
            Nat { limbs: vec![v] }
        }
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat::from_limbs(vec![v as u32, (v >> 32) as u32])
    }
}

impl From<u128> for Nat {
    fn from(v: u128) -> Self {
        Nat::from_limbs(vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ])
    }
}

impl From<usize> for Nat {
    fn from(v: usize) -> Self {
        Nat::from(v as u64)
    }
}

impl TryFrom<&Nat> for u64 {
    type Error = crate::ParseNatError;

    fn try_from(n: &Nat) -> Result<Self, Self::Error> {
        n.to_u64().ok_or(crate::ParseNatError::Overflow)
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl Hash for Nat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_canonical_empty() {
        assert!(Nat::zero().is_zero());
        assert_eq!(Nat::from(0u64), Nat::zero());
        assert_eq!(Nat::zero().bits(), 0);
    }

    #[test]
    fn one_is_one() {
        assert!(Nat::one().is_one());
        assert!(!Nat::zero().is_one());
        assert!(!Nat::from(2u64).is_one());
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 42, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(Nat::from(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn from_u128_roundtrip() {
        for v in [0u128, 1, u128::from(u64::MAX) + 1, u128::MAX] {
            assert_eq!(Nat::from(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn to_u64_overflow_detected() {
        let big = Nat::from(u128::from(u64::MAX) + 1);
        assert_eq!(big.to_u64(), None);
        assert!(u64::try_from(&big).is_err());
    }

    #[test]
    fn ordering_matches_u128() {
        let cases = [
            0u128,
            1,
            2,
            1 << 31,
            1 << 32,
            1 << 63,
            u128::from(u64::MAX),
            1 << 100,
        ];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(Nat::from(a).cmp(&Nat::from(b)), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn bits_counts() {
        assert_eq!(Nat::from(1u64).bits(), 1);
        assert_eq!(Nat::from(2u64).bits(), 2);
        assert_eq!(Nat::from(u64::MAX).bits(), 64);
        assert_eq!(Nat::from(1u128 << 64).bits(), 65);
    }

    #[test]
    fn bit_access() {
        let n = Nat::from(0b1010u64);
        assert!(!n.bit(0));
        assert!(n.bit(1));
        assert!(!n.bit(2));
        assert!(n.bit(3));
        assert!(!n.bit(100));
    }

    #[test]
    fn evenness() {
        assert!(Nat::zero().is_even());
        assert!(!Nat::one().is_even());
        assert!(Nat::from(1u128 << 64).is_even());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Nat::default(), Nat::zero());
    }
}
