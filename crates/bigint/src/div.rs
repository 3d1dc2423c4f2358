//! Division and remainder for [`Nat`].

use crate::Nat;
use std::ops::{Div, Rem};

impl Nat {
    /// Simultaneous quotient and remainder: `(self / divisor, self % divisor)`.
    ///
    /// Uses a fast limb loop when `divisor` fits in a single limb and binary
    /// long division otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// let (q, r) = Nat::from(100u64).div_rem(&Nat::from(7u64));
    /// assert_eq!((q, r), (Nat::from(14u64), Nat::from(2u64)));
    /// ```
    #[must_use]
    pub fn div_rem(&self, divisor: &Nat) -> (Nat, Nat) {
        assert!(!divisor.is_zero(), "division by zero Nat");
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_small(divisor.limbs[0]);
            return (q, Nat::from(r));
        }
        if self < divisor {
            return (Nat::zero(), self.clone());
        }
        // Binary long division: O(bits(self) * limbs). Fine for the sizes
        // the schedule constructions produce (a few thousand bits).
        let shift = self.bits() - divisor.bits();
        let mut rem = self.clone();
        let mut quot = Nat::zero();
        for s in (0..=shift).rev() {
            let d = divisor.shl_bits(s);
            if let Some(next) = rem.checked_sub(&d) {
                rem = next;
                quot = quot.set_bit(s);
            }
        }
        (quot, rem)
    }

    /// Quotient and remainder by a single-limb divisor.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem_small(&self, divisor: u32) -> (Nat, u32) {
        assert!(divisor != 0, "division by zero");
        let d = u64::from(divisor);
        let mut rem: u64 = 0;
        let mut limbs = vec![0u32; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | u64::from(self.limbs[i]);
            limbs[i] = (cur / d) as u32;
            rem = cur % d;
        }
        (Nat::from_limbs(limbs), rem as u32)
    }

    /// Returns `true` iff `divisor` divides `self` exactly.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert!(Nat::from(12u64).is_multiple_of(&Nat::from(4u64)));
    /// assert!(!Nat::from(12u64).is_multiple_of(&Nat::from(5u64)));
    /// ```
    #[must_use]
    pub fn is_multiple_of(&self, divisor: &Nat) -> bool {
        if divisor.is_zero() {
            return self.is_zero();
        }
        self.div_rem(divisor).1.is_zero()
    }

    /// Returns `self` with bit `i` set.
    fn set_bit(mut self, i: usize) -> Nat {
        let (limb, off) = (i / 32, i % 32);
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
        self
    }
}

impl Div<&Nat> for &Nat {
    type Output = Nat;
    fn div(self, rhs: &Nat) -> Nat {
        self.div_rem(rhs).0
    }
}

impl Div<Nat> for Nat {
    type Output = Nat;
    fn div(self, rhs: Nat) -> Nat {
        self.div_rem(&rhs).0
    }
}

impl Rem<&Nat> for &Nat {
    type Output = Nat;
    fn rem(self, rhs: &Nat) -> Nat {
        self.div_rem(rhs).1
    }
}

impl Rem<Nat> for Nat {
    type Output = Nat;
    fn rem(self, rhs: Nat) -> Nat {
        self.div_rem(&rhs).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn div_rem_matches_u128() {
        let cases = [
            (0u128, 1u128),
            (1, 1),
            (100, 7),
            (u128::from(u64::MAX), 3),
            (u128::MAX / 2, 0xFFFF_FFFF_FFFF),
            (1 << 100, (1 << 40) + 17),
        ];
        for (a, b) in cases {
            let (q, r) = n(a).div_rem(&n(b));
            assert_eq!(q, n(a / b), "{a}/{b}");
            assert_eq!(r, n(a % b), "{a}%{b}");
        }
    }

    #[test]
    fn div_smaller_by_larger_is_zero() {
        let (q, r) = n(5).div_rem(&n(100));
        assert_eq!(q, n(0));
        assert_eq!(r, n(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(5).div_rem(&Nat::zero());
    }

    #[test]
    fn div_rem_small_matches() {
        let big = n(0xFEED_FACE_CAFE_BEEF_DEAD_BEEF);
        let (q, r) = big.div_rem_small(1_000_000_000);
        assert_eq!(q, n(0xFEED_FACE_CAFE_BEEF_DEAD_BEEF / 1_000_000_000));
        assert_eq!(
            u128::from(r),
            0xFEED_FACE_CAFE_BEEF_DEAD_BEEF % 1_000_000_000
        );
    }

    #[test]
    fn exact_division_detected() {
        let p40 = Nat::from(2u64).pow(40);
        assert!(p40.is_multiple_of(&Nat::from(2u64).pow(39)));
        assert!(!p40.succ().is_multiple_of(&Nat::from(2u64)));
        assert!(Nat::zero().is_multiple_of(&Nat::zero()));
        assert!(!n(5).is_multiple_of(&Nat::zero()));
    }

    #[test]
    fn operator_forms() {
        assert_eq!(&n(10) / &n(3), n(3));
        assert_eq!(&n(10) % &n(3), n(1));
        assert_eq!(n(10) / n(3), n(3));
        assert_eq!(n(10) % n(3), n(1));
    }

    #[test]
    fn big_division_roundtrip() {
        // (q * d + r) == original, r < d — the defining property, on values
        // far beyond u128.
        let a = Nat::from(7u64).pow(100);
        let d = Nat::from(13u64).pow(35);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(q * d + r, a);
    }
}
