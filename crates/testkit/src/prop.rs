//! A deterministic property-test loop — the workspace's offline
//! replacement for `proptest`.
//!
//! Differences from `proptest`, on purpose:
//!
//! * **Fixed seeds, fixed case counts.** Every run of `cargo test`
//!   executes exactly the same cases in the same order; two consecutive
//!   runs produce identical pass/fail output.
//! * **No shrinking.** Failures print the `(suite seed, case index)`
//!   pair; replaying one case is [`case_rng`]`(seed, index)`, and
//!   generators are explicit functions of the RNG, so minimization is
//!   done by reading the generator, not by a shrinker.
//!
//! ```
//! use rand::Rng;
//!
//! tvg_testkit::check("doubling_is_even", |rng, _case| {
//!     let n: u64 = rng.gen_range(0..1_000_000);
//!     assert_eq!((n * 2) % 2, 0);
//! });
//! ```

use crate::rng::{case_rng, seed_for};
use rand::rngs::StdRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Configuration of one property run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// The property's name: the seed derivation input and the label
    /// printed in failure replay coordinates (kept together so the two
    /// can never diverge).
    pub name: String,
    /// Number of cases to execute (all of them, always — no early exit).
    pub cases: usize,
    /// Seed of the whole run; each case derives its own stream from it.
    pub seed: u64,
}

/// Default number of cases per property, chosen so the full workspace
/// suite stays fast while still sweeping each property's input space.
const DEFAULT_CASES: usize = 64;

impl Config {
    /// The standard configuration for a named property: `DEFAULT_CASES` (64)
    /// cases under the name-derived seed.
    #[must_use]
    pub fn named(name: &str) -> Config {
        Config {
            name: name.to_string(),
            cases: DEFAULT_CASES,
            seed: seed_for(name),
        }
    }

    /// Same seed derivation with an explicit case count (for properties
    /// whose single case is expensive).
    #[must_use]
    pub fn named_with_cases(name: &str, cases: usize) -> Config {
        Config {
            name: name.to_string(),
            cases,
            seed: seed_for(name),
        }
    }
}

/// Runs `property` for `DEFAULT_CASES` (64) deterministic cases derived from
/// `name`.
///
/// The property receives a per-case RNG and the case index. Failures
/// (panics, including `assert!`) are annotated with the suite seed and
/// case index before being re-raised, so the exact instance can be
/// replayed with [`case_rng`].
///
/// # Panics
///
/// Re-raises the property's panic after printing replay coordinates.
pub fn check<F>(name: &str, property: F)
where
    F: FnMut(&mut StdRng, usize),
{
    check_with(Config::named(name), property);
}

/// [`check`] with an explicit [`Config`].
///
/// # Panics
///
/// Re-raises the property's panic after printing replay coordinates.
pub fn check_with<F>(config: Config, mut property: F)
where
    F: FnMut(&mut StdRng, usize),
{
    for case in 0..config.cases {
        let mut rng = case_rng(config.seed, case);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut rng, case)));
        if let Err(payload) = outcome {
            eprintln!(
                "property {:?} failed at case {case}/{} \
                 (suite seed {:#018x}; replay with tvg_testkit::case_rng({:#018x}, {case}))",
                config.name, config.cases, config.seed, config.seed,
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn runs_every_case_deterministically() {
        let mut seen = Vec::new();
        check_with(Config::named_with_cases("probe", 10), |rng, case| {
            seen.push((case, rng.gen_range(0..1000u64)));
        });
        assert_eq!(seen.len(), 10);
        let mut again = Vec::new();
        check_with(Config::named_with_cases("probe", 10), |rng, case| {
            again.push((case, rng.gen_range(0..1000u64)));
        });
        assert_eq!(seen, again);
        // Cases draw distinct streams.
        assert!(seen.windows(2).any(|w| w[0].1 != w[1].1));
    }

    #[test]
    fn failure_is_propagated() {
        let result = catch_unwind(|| {
            check_with(Config::named_with_cases("fails", 5), |_rng, case| {
                assert!(case < 3, "boom at case {case}");
            });
        });
        assert!(result.is_err());
    }
}
