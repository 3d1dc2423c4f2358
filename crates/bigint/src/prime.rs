//! Primality testing for [`Nat`].
//!
//! The Figure-1 construction requires two distinct primes `p, q > 1`; the
//! experiment harness validates its parameters with these routines, and the
//! unary-primes language of experiment E2 uses them as its reference decider.

use crate::Nat;

/// Miller–Rabin witnesses that make the test deterministic for all inputs
/// below 3.3 · 10²⁴ (Sorenson & Webster). Inputs used by this workspace are
/// far smaller; for larger inputs the test is a strong probable-prime test.
const WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

impl Nat {
    /// Returns `true` iff `self` is prime.
    ///
    /// Deterministic for every value below 3.3 · 10²⁴; a strong
    /// probable-prime test (13 fixed Miller–Rabin witnesses) beyond that.
    ///
    /// Reached through `is_prime_u64`:
    ///
    /// ```
    /// use tvg_bigint::is_prime_u64;
    /// assert!(is_prime_u64(2));
    /// assert!(is_prime_u64(1_000_000_007));
    /// assert!(!is_prime_u64(1));
    /// assert!(!is_prime_u64(561)); // Carmichael number
    /// ```
    fn is_prime(&self) -> bool {
        let two = Nat::from(2u64);
        if *self < two {
            return false;
        }
        if self.is_even() {
            return *self == two;
        }
        // Small trial division to cheaply reject most composites.
        for d in [3u32, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
            let dn = Nat::from(u64::from(d));
            if *self == dn {
                return true;
            }
            if self.is_multiple_of(&dn) {
                return false;
            }
        }
        // Write self - 1 = d * 2^r with d odd.
        let n_minus_1 = self.checked_sub(&Nat::one()).expect("self >= 2");
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr_bits(1);
            r += 1;
        }
        'witness: for &a in &WITNESSES {
            let a = Nat::from(a);
            if a >= *self {
                continue;
            }
            let mut x = a.mod_pow(&d, self);
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..r - 1 {
                x = (&x * &x).div_rem(self).1;
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

/// Returns `true` iff `n` is prime, for machine-word inputs.
///
/// Convenience wrapper used by the unary-primes reference decider.
///
/// ```
/// use tvg_bigint::is_prime_u64;
/// assert!(is_prime_u64(2));
/// assert!(!is_prime_u64(91));
/// ```
#[must_use]
pub fn is_prime_u64(n: u64) -> bool {
    Nat::from(n).is_prime()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_recognized() {
        let primes = [
            2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        ];
        for p in primes {
            assert!(Nat::from(p).is_prime(), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [
            0u64, 1, 4, 6, 8, 9, 15, 21, 25, 27, 33, 35, 49, 51, 55, 57, 63, 91,
        ] {
            assert!(!Nat::from(c).is_prime(), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!Nat::from(c).is_prime(), "{c} is a Carmichael number");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(Nat::from(u64::MAX - 58).is_prime()); // 2^64 - 59 is prime
        assert!(Nat::from(2_147_483_647u64).is_prime()); // 2^31 - 1 (Mersenne)
        assert!(Nat::from(1_000_000_007u64).is_prime());
        assert!("170141183460469231731687303715884105727"
            .parse::<Nat>()
            .expect("valid")
            .is_prime()); // 2^127 - 1 (Mersenne)
    }

    #[test]
    fn large_composites() {
        // 2^127 - 1 is prime, 2^127 + 1 isn't (divisible by 3).
        let m127 = Nat::from(2u64).pow(127) + Nat::one();
        assert!(!m127.is_prime());
        let square = Nat::from(1_000_003u64) * Nat::from(1_000_003u64);
        assert!(!square.is_prime());
    }

    #[test]
    fn prime_count_to_100() {
        let count = (0u64..=100).filter(|&n| is_prime_u64(n)).count();
        assert_eq!(count, 25);
    }
}
