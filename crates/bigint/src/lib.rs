//! Arbitrary-precision natural numbers for time-varying-graph schedules.
//!
//! The PODC'12 constructions reproduced by this workspace use *time as
//! unbounded memory*: after reading the word `aⁿbⁿ`, the Figure-1 automaton
//! of the paper sits at time `pⁿ·qⁿ⁻¹`, which overflows `u64` for `n ≳ 10`
//! even with the smallest primes. This crate provides the unbounded natural
//! number type [`Nat`] those schedules are evaluated over.
//!
//! The implementation is deliberately self-contained (no dependencies):
//! little-endian base-2³² limbs, schoolbook multiplication, binary long
//! division, decimal I/O, modular exponentiation, Miller–Rabin primality,
//! and prime-power decomposition (the primitive behind the paper's
//! `t = pⁱ·qⁱ⁻¹` presence predicate).
//!
//! # Examples
//!
//! ```
//! use tvg_bigint::Nat;
//!
//! let p = Nat::from(2u64);
//! let q = Nat::from(3u64);
//! // The time reached by the Figure-1 automaton after reading a^40 b^39:
//! let t = p.pow(40) * q.pow(39);
//! assert_eq!(t.decompose_pq(&p, &q), Some((40, 39)));
//! assert!(t > Nat::from(u64::MAX));
//! ```
//!
//! Decimal round-trips:
//!
//! ```
//! use tvg_bigint::Nat;
//!
//! # fn main() -> Result<(), tvg_bigint::ParseNatError> {
//! let n: Nat = "340282366920938463463374607431768211456".parse()?;
//! assert_eq!(n, Nat::from(2u64).pow(128));
//! assert_eq!(n.to_string(), "340282366920938463463374607431768211456");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod div;
mod fmt;
mod nat;
mod pow;
mod prime;

pub use fmt::ParseNatError;
pub use nat::Nat;
pub use prime::is_prime_u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_compiles() {
        let p = Nat::from(2u64);
        let q = Nat::from(3u64);
        let t = p.pow(40) * q.pow(39);
        assert_eq!(t.decompose_pq(&p, &q), Some((40, 39)));
        assert!(t > Nat::from(u64::MAX));
    }
}
