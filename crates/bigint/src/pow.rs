//! Exponentiation and factor extraction for [`Nat`].

use crate::Nat;

impl Nat {
    /// `self` raised to the power `exp` (square-and-multiply).
    ///
    /// `0⁰` is defined as `1`, matching `u64::pow`.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// assert_eq!(Nat::from(2u64).pow(10), Nat::from(1024u64));
    /// assert_eq!(Nat::from(0u64).pow(0), Nat::one());
    /// ```
    #[must_use]
    pub fn pow(&self, exp: u32) -> Nat {
        let mut result = Nat::one();
        let mut base = self.clone();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result *= &base;
            }
            e >>= 1;
            if e > 0 {
                let b = base.clone();
                base *= &b;
            }
        }
        result
    }

    /// Modular exponentiation: `self^exp mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// let r = Nat::from(5u64).mod_pow(&Nat::from(117u64), &Nat::from(19u64));
    /// assert_eq!(r, Nat::from(1u64)); // 5^117 ≡ 1 (mod 19) by Fermat
    /// ```
    #[must_use]
    pub fn mod_pow(&self, exp: &Nat, modulus: &Nat) -> Nat {
        assert!(!modulus.is_zero(), "modulus must be nonzero");
        if modulus.is_one() {
            return Nat::zero();
        }
        let mut result = Nat::one();
        let mut base = self.div_rem(modulus).1;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = (&result * &base).div_rem(modulus).1;
            }
            if i + 1 < exp.bits() {
                base = (&base * &base).div_rem(modulus).1;
            }
        }
        result
    }

    /// Removes all factors of `base` from `self`: returns `(k, cofactor)`
    /// with `self = base^k * cofactor` and `base ∤ cofactor`.
    ///
    /// This is the arithmetic primitive behind the paper's Table-1 presence
    /// predicate `ρ(e₄, t) = 1 ⇔ t = pⁱqⁱ⁻¹, i > 1`: decompose `t` over
    /// `{p, q}` and compare multiplicities.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or `self` is zero.
    ///
    /// Reached through `decompose_pq`, which factors out `p`, then `q`:
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// let t = Nat::from(2u64).pow(5) * Nat::from(3u64).pow(4);
    /// assert_eq!(t.decompose_pq(&Nat::from(2u64), &Nat::from(3u64)), Some((5, 4)));
    /// assert_eq!(t.decompose_pq(&Nat::from(2u64), &Nat::from(5u64)), None);
    /// ```
    fn factor_out(&self, base: &Nat) -> (u32, Nat) {
        assert!(*base >= Nat::from(2u64), "factor_out base must be >= 2");
        assert!(!self.is_zero(), "cannot factor zero");
        let mut k = 0;
        let mut cur = self.clone();
        loop {
            let (q, r) = cur.div_rem(base);
            if r.is_zero() {
                cur = q;
                k += 1;
            } else {
                return (k, cur);
            }
        }
    }

    /// Decomposes `self` as `p^α · q^β` if it has no other prime factors.
    ///
    /// Returns `None` when a cofactor other than 1 remains. `p` and `q` must
    /// be distinct and ≥ 2 (they need not be prime for the decomposition to
    /// be computed, but uniqueness is only guaranteed for primes).
    ///
    /// ```
    /// use tvg_bigint::Nat;
    /// let p = Nat::from(2u64);
    /// let q = Nat::from(3u64);
    /// let t = p.pow(7) * q.pow(6);
    /// assert_eq!(t.decompose_pq(&p, &q), Some((7, 6)));
    /// assert_eq!(t.succ().decompose_pq(&p, &q), None);
    /// ```
    #[must_use]
    pub fn decompose_pq(&self, p: &Nat, q: &Nat) -> Option<(u32, u32)> {
        if self.is_zero() {
            return None;
        }
        let (alpha, rest) = self.factor_out(p);
        let (beta, rest) = rest.factor_out(q);
        rest.is_one().then_some((alpha, beta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_matches_u128() {
        for (b, e) in [
            (2u128, 0u32),
            (2, 1),
            (2, 100),
            (3, 63),
            (10, 30),
            (1, 999),
            (0, 5),
        ] {
            let expected = if b == 0 && e == 0 {
                Nat::one()
            } else if b == 0 {
                Nat::zero()
            } else if e <= 127 && b.checked_pow(e).is_some() {
                Nat::from(b.pow(e))
            } else {
                continue;
            };
            assert_eq!(Nat::from(b).pow(e), expected, "{b}^{e}");
        }
    }

    #[test]
    fn pow_large_values() {
        let x = Nat::from(2u64).pow(128);
        assert_eq!(x, Nat::from(u128::MAX) + Nat::one());
        assert_eq!(Nat::from(2u64).pow(256).bits(), 257);
    }

    #[test]
    fn mod_pow_fermat() {
        // a^(p-1) ≡ 1 (mod p) for prime p, gcd(a,p)=1.
        let p = Nat::from(1_000_000_007u64);
        let a = Nat::from(123_456_789u64);
        assert_eq!(a.mod_pow(&(p.clone() - Nat::one()), &p), Nat::one());
    }

    #[test]
    fn mod_pow_edges() {
        assert_eq!(
            Nat::from(5u64).mod_pow(&Nat::zero(), &Nat::from(7u64)),
            Nat::one()
        );
        assert_eq!(
            Nat::from(5u64).mod_pow(&Nat::from(3u64), &Nat::one()),
            Nat::zero()
        );
    }

    #[test]
    fn factor_out_multiplicity() {
        let t = Nat::from(2u64).pow(12) * Nat::from(5u64).pow(3);
        let (k, rest) = t.factor_out(&Nat::from(2u64));
        assert_eq!(k, 12);
        assert_eq!(rest, Nat::from(125u64));
        let (k5, rest5) = rest.factor_out(&Nat::from(5u64));
        assert_eq!(k5, 3);
        assert!(rest5.is_one());
    }

    #[test]
    fn factor_out_none_present() {
        let (k, rest) = Nat::from(35u64).factor_out(&Nat::from(2u64));
        assert_eq!(k, 0);
        assert_eq!(rest, Nat::from(35u64));
    }

    #[test]
    fn decompose_pq_exact_and_reject() {
        let p = Nat::from(5u64);
        let q = Nat::from(7u64);
        let t = p.pow(3) * q.pow(2);
        assert_eq!(t.decompose_pq(&p, &q), Some((3, 2)));
        // Extra factor of 11 must be rejected.
        let t2 = t * Nat::from(11u64);
        assert_eq!(t2.decompose_pq(&p, &q), None);
        // 1 = p^0 q^0.
        assert_eq!(Nat::one().decompose_pq(&p, &q), Some((0, 0)));
        assert_eq!(Nat::zero().decompose_pq(&p, &q), None);
    }
}
