//! Seeded RNG construction for deterministic tests.
//!
//! All workspace tests obtain generators through these helpers. Seeds are
//! derived from *names* (usually the test function's name) through a
//! stable hash, so adding or reordering tests never perturbs another
//! test's stream, and a failure message naming `(suite, case)` is enough
//! to replay the exact instance.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace-wide base seed. Changing it reshuffles every
/// testkit-derived stream at once (useful for soak runs); tests must pass
/// for any value, but CI pins this default.
const BASE_SEED: u64 = 0x7f6a_2012_0000_0001;

/// Stable FNV-1a hash of a name, mixed with the suite-wide `BASE_SEED`.
///
/// Deliberately *not* `std::hash::Hash`: `DefaultHasher` makes no
/// stability promise across Rust releases, and these seeds must never
/// drift.
#[must_use]
pub fn seed_for(name: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^ BASE_SEED
}

/// A deterministic generator for the given suite/test name.
#[cfg(test)]
pub(crate) fn rng_for(name: &str) -> StdRng {
    StdRng::seed_from_u64(seed_for(name))
}

/// The generator for one case of a property run: independent per case,
/// reproducible from `(suite_seed, case)` alone.
#[must_use]
pub fn case_rng(suite_seed: u64, case: usize) -> StdRng {
    // SplitMix64-style avalanche over the pair, so consecutive case
    // indices yield uncorrelated streams.
    let mut z = suite_seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn seeds_are_stable() {
        // Pinned: these values are the contract that test streams never
        // drift between runs, platforms, or toolchains.
        assert_eq!(seed_for("example"), seed_for("example"));
        assert_ne!(seed_for("a"), seed_for("b"));
        assert_eq!(seed_for(""), 0xcbf2_9ce4_8422_2325 ^ BASE_SEED);
    }

    #[test]
    fn case_rngs_are_independent_and_reproducible() {
        let s = seed_for("suite");
        let a1 = case_rng(s, 0).next_u64();
        let a2 = case_rng(s, 0).next_u64();
        let b = case_rng(s, 1).next_u64();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}
