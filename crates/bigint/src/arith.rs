//! Addition, subtraction, multiplication, and bit shifts for [`Nat`].

use crate::Nat;
use std::ops::{Add, AddAssign, Mul, MulAssign, Shl, Shr, Sub, SubAssign};

impl Nat {
    /// Checked subtraction: `self - other`, or `None` if `other > self`.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert_eq!(Nat::from(5u64).checked_sub(&Nat::from(3u64)), Some(Nat::from(2u64)));
    /// assert_eq!(Nat::from(3u64).checked_sub(&Nat::from(5u64)), None);
    /// ```
    #[must_use]
    pub fn checked_sub(&self, other: &Nat) -> Option<Nat> {
        if self < other {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(d as u32);
        }
        debug_assert_eq!(borrow, 0, "underflow despite ordering check");
        Some(Nat::from_limbs(limbs))
    }

    /// Adds a small value in place.
    pub(crate) fn add_small(&mut self, v: u32) {
        let mut carry = u64::from(v);
        let mut i = 0;
        while carry != 0 {
            if i == self.limbs.len() {
                self.limbs.push(0);
            }
            let sum = u64::from(self.limbs[i]) + carry;
            self.limbs[i] = sum as u32;
            carry = sum >> 32;
            i += 1;
        }
    }

    /// Multiplies by a small value in place.
    pub(crate) fn mul_small(&mut self, v: u32) {
        if v == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry: u64 = 0;
        for limb in &mut self.limbs {
            let prod = u64::from(*limb) * u64::from(v) + carry;
            *limb = prod as u32;
            carry = prod >> 32;
        }
        if carry != 0 {
            self.limbs.push(carry as u32);
        }
    }

    /// `self + 1`, consuming nothing.
    #[must_use]
    pub fn succ(&self) -> Nat {
        let mut n = self.clone();
        n.add_small(1);
        n
    }

    fn add_assign_ref(&mut self, other: &Nat) {
        if other.limbs.len() > self.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry: u64 = 0;
        for i in 0..self.limbs.len() {
            let sum = u64::from(self.limbs[i])
                + u64::from(other.limbs.get(i).copied().unwrap_or(0))
                + carry;
            self.limbs[i] = sum as u32;
            carry = sum >> 32;
        }
        if carry != 0 {
            self.limbs.push(carry as u32);
        }
    }

    fn mul_ref(&self, other: &Nat) -> Nat {
        if self.is_zero() || other.is_zero() {
            return Nat::zero();
        }
        let mut acc = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                // acc slot + product + carry never overflows u64 as long as we
                // drain carries every step: max = (2^32-1)^2 + 2*(2^32-1) < 2^64.
                let cur = acc[i + j] + u64::from(a) * u64::from(b) + carry;
                acc[i + j] = cur & 0xFFFF_FFFF;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = acc[k] + carry;
                acc[k] = cur & 0xFFFF_FFFF;
                carry = cur >> 32;
                k += 1;
            }
        }
        Nat::from_limbs(acc.into_iter().map(|x| x as u32).collect())
    }

    /// Left shift by `bits` bit positions.
    #[must_use]
    pub(crate) fn shl_bits(&self, bits: usize) -> Nat {
        if self.is_zero() {
            return Nat::zero();
        }
        let (limb_shift, bit_shift) = (bits / 32, bits % 32);
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Nat::from_limbs(limbs)
    }

    /// Right shift by `bits` bit positions.
    #[must_use]
    pub(crate) fn shr_bits(&self, bits: usize) -> Nat {
        let (limb_shift, bit_shift) = (bits / 32, bits % 32);
        if limb_shift >= self.limbs.len() {
            return Nat::zero();
        }
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                limbs.push((src[i] >> bit_shift) | (hi << (32 - bit_shift)));
            }
        }
        Nat::from_limbs(limbs)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl_fn:ident) => {
        impl $trait<&Nat> for &Nat {
            type Output = Nat;
            fn $method(self, rhs: &Nat) -> Nat {
                self.$impl_fn(rhs)
            }
        }
        impl $trait<Nat> for Nat {
            type Output = Nat;
            fn $method(self, rhs: Nat) -> Nat {
                (&self).$impl_fn(&rhs)
            }
        }
        impl $trait<&Nat> for Nat {
            type Output = Nat;
            fn $method(self, rhs: &Nat) -> Nat {
                (&self).$impl_fn(rhs)
            }
        }
        impl $trait<Nat> for &Nat {
            type Output = Nat;
            fn $method(self, rhs: Nat) -> Nat {
                self.$impl_fn(&rhs)
            }
        }
    };
}

impl Nat {
    fn add_impl(&self, rhs: &Nat) -> Nat {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }

    fn sub_impl(&self, rhs: &Nat) -> Nat {
        self.checked_sub(rhs)
            .expect("attempt to subtract a larger Nat from a smaller one")
    }

    fn mul_impl(&self, rhs: &Nat) -> Nat {
        self.mul_ref(rhs)
    }
}

forward_binop!(Add, add, add_impl);
forward_binop!(Sub, sub, sub_impl);
forward_binop!(Mul, mul, mul_impl);

impl AddAssign<&Nat> for Nat {
    fn add_assign(&mut self, rhs: &Nat) {
        self.add_assign_ref(rhs);
    }
}

impl AddAssign<Nat> for Nat {
    fn add_assign(&mut self, rhs: Nat) {
        self.add_assign_ref(&rhs);
    }
}

impl SubAssign<&Nat> for Nat {
    fn sub_assign(&mut self, rhs: &Nat) {
        *self = self.sub_impl(rhs);
    }
}

impl MulAssign<&Nat> for Nat {
    fn mul_assign(&mut self, rhs: &Nat) {
        *self = self.mul_ref(rhs);
    }
}

impl Shl<usize> for &Nat {
    type Output = Nat;
    fn shl(self, bits: usize) -> Nat {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &Nat {
    type Output = Nat;
    fn shr(self, bits: usize) -> Nat {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn add_with_carries() {
        assert_eq!(n(u128::from(u64::MAX)) + n(1), n(u128::from(u64::MAX) + 1));
        assert_eq!(n(0) + n(0), n(0));
        assert_eq!(n(5) + n(7), n(12));
    }

    #[test]
    fn add_ref_forms() {
        let a = n(10);
        let b = n(32);
        assert_eq!(&a + &b, n(42));
        assert_eq!(a.clone() + &b, n(42));
        assert_eq!(&a + b.clone(), n(42));
        assert_eq!(a + b, n(42));
    }

    #[test]
    fn sub_basics() {
        assert_eq!(n(100) - n(1), n(99));
        assert_eq!(n(1 << 64) - n(1), n((1 << 64) - 1));
        assert_eq!(n(7) - n(7), n(0));
    }

    #[test]
    #[should_panic(expected = "subtract a larger")]
    fn sub_underflow_panics() {
        let _ = n(3) - n(5);
    }

    #[test]
    fn mul_cross_limb() {
        assert_eq!(
            n(u128::from(u64::MAX)) * n(u128::from(u64::MAX)),
            n(u128::from(u64::MAX) * u128::from(u64::MAX))
        );
        assert_eq!(n(0) * n(12345), n(0));
        assert_eq!(n(1) * n(12345), n(12345));
    }

    #[test]
    fn mul_small_and_add_small() {
        let mut x = n(999_999_999);
        x.mul_small(1_000_000_000);
        x.add_small(999_999_999);
        assert_eq!(x, n(999_999_999_999_999_999));
        let mut z = n(5);
        z.mul_small(0);
        assert_eq!(z, n(0));
    }

    #[test]
    fn shifts_match_u128() {
        for v in [1u128, 0xDEAD_BEEF, u128::from(u64::MAX)] {
            for s in [0usize, 1, 31, 32, 33, 63] {
                assert_eq!(n(v).shl_bits(s), n(v << s), "shl {v} {s}");
                assert_eq!(n(v).shr_bits(s), n(v >> s), "shr {v} {s}");
            }
        }
        assert_eq!(n(1).shr_bits(1), n(0));
    }

    #[test]
    fn succ_increments() {
        assert_eq!(n(0).succ(), n(1));
        assert_eq!(n(u128::from(u64::MAX)).succ(), n(u128::from(u64::MAX) + 1));
    }

    #[test]
    fn assign_ops() {
        let mut x = n(40);
        x += &n(2);
        assert_eq!(x, n(42));
        x -= &n(2);
        assert_eq!(x, n(40));
        x *= &n(3);
        assert_eq!(x, n(120));
    }
}
