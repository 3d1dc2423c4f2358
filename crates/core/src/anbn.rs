//! The paper's Figure 1 + Table 1: a TVG-automaton whose *no-wait*
//! language is the context-free, non-regular `{aⁿbⁿ : n ≥ 1}`.
//!
//! Structure (p, q distinct primes > 1; reading starts at `t = 1`):
//!
//! | edge | from → to | label | presence `ρ(e,t)=1` iff | latency `ζ(e,t)` |
//! |------|-----------|-------|--------------------------|------------------|
//! | `e0` | v0 → v0   | a     | always                   | `(p−1)t`         |
//! | `e1` | v0 → v1   | b     | `t > p`                  | `(q−1)t`         |
//! | `e2` | v1 → v1   | b     | `t ≠ pⁱqⁱ⁻¹, i > 1`      | `(q−1)t`         |
//! | `e3` | v0 → v2   | b     | `t = p`                  | any (here 1)     |
//! | `e4` | v1 → v2   | b     | `t = pⁱqⁱ⁻¹, i > 1`      | any (here 1)     |
//!
//! Crossing `e0` at time `t` arrives at `pt`, so after `aⁿ` the journey
//! sits at `v0` at time `pⁿ` — time *is* the counter. The `b`-edges
//! multiply by `q`, and the accepting edge `e4` opens exactly when the
//! counter shows `pⁿqⁿ⁻¹`, i.e. after exactly `n − 1` further `b`s; `e3`
//! handles `n = 1`. Times grow like `pⁿqⁿ`, which is why this module
//! works over [`Nat`].

use crate::TvgAutomaton;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use tvg_bigint::Nat;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_langs::Word;
use tvg_model::{Latency, Presence, TvgBuilder};

/// Errors from instantiating the Figure-1 construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnbnError {
    /// `p` and `q` must be distinct.
    PrimesNotDistinct,
    /// A parameter is not a prime greater than 1.
    NotPrime(u64),
}

impl fmt::Display for AnbnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnbnError::PrimesNotDistinct => write!(f, "p and q must be distinct primes"),
            AnbnError::NotPrime(v) => write!(f, "{v} is not a prime greater than 1"),
        }
    }
}

impl Error for AnbnError {}

/// The Figure-1 automaton, wrapped with correctly-sized search limits.
///
/// ```
/// use tvg_expressivity::anbn::AnbnAutomaton;
/// use tvg_langs::word;
///
/// let aut = AnbnAutomaton::new(2, 3)?;
/// assert!(aut.accepts_nowait(&word("aaabbb")));
/// assert!(!aut.accepts_nowait(&word("aabbb")));
/// # Ok::<(), tvg_expressivity::anbn::AnbnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnbnAutomaton {
    automaton: TvgAutomaton<Nat>,
    p: u64,
    q: u64,
}

impl AnbnAutomaton {
    /// Builds the construction for distinct primes `p, q > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`AnbnError`] if the parameters are not distinct primes.
    pub fn new(p: u64, q: u64) -> Result<Self, AnbnError> {
        if p == q {
            return Err(AnbnError::PrimesNotDistinct);
        }
        for v in [p, q] {
            if !tvg_bigint::is_prime_u64(v) {
                return Err(AnbnError::NotPrime(v));
            }
        }
        let mut b = TvgBuilder::<Nat>::new();
        let v0 = b.node("v0");
        let v1 = b.node("v1");
        let v2 = b.node("v2");
        let pn = Nat::from(p);
        // e0: a-loop multiplying time by p.
        b.edge(
            v0,
            v0,
            'a',
            Presence::Always,
            Latency::Affine {
                mul: p - 1,
                add: Nat::zero(),
            },
        )
        .expect("builder-owned nodes");
        // e1: first b (n ≥ 2), multiplying time by q.
        b.edge(
            v0,
            v1,
            'b',
            Presence::After(pn.clone()),
            Latency::Affine {
                mul: q - 1,
                add: Nat::zero(),
            },
        )
        .expect("builder-owned nodes");
        // e2: middle bs, blocked exactly at t = p^i q^(i-1).
        b.edge(
            v1,
            v1,
            'b',
            Presence::Not(Box::new(Presence::PqPower { p, q })),
            Latency::Affine {
                mul: q - 1,
                add: Nat::zero(),
            },
        )
        .expect("builder-owned nodes");
        // e3: the n = 1 accept ("ab"): only at t = p.
        b.edge(v0, v2, 'b', Presence::At(pn), Latency::Const(Nat::one()))
            .expect("builder-owned nodes");
        // e4: the final b, open exactly at t = p^i q^(i-1), i > 1.
        b.edge(
            v1,
            v2,
            'b',
            Presence::PqPower { p, q },
            Latency::Const(Nat::one()),
        )
        .expect("builder-owned nodes");
        let automaton = TvgAutomaton::new(
            b.build().expect("three nodes"),
            BTreeSet::from([v0]),
            BTreeSet::from([v2]),
            Nat::one(),
        )
        .expect("static construction is structurally valid");
        Ok(AnbnAutomaton { automaton, p, q })
    }

    /// The construction with the paper's smallest parameters `p=2, q=3`.
    #[must_use]
    pub fn smallest() -> Self {
        AnbnAutomaton::new(2, 3).expect("2 and 3 are distinct primes")
    }

    /// The wrapped [`TvgAutomaton`].
    #[must_use]
    pub fn automaton(&self) -> &TvgAutomaton<Nat> {
        &self.automaton
    }

    /// The prime `p`.
    #[must_use]
    pub fn p(&self) -> u64 {
        self.p
    }

    /// The prime `q`.
    #[must_use]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Search limits sufficient for words of length `len`: departures
    /// reach at most `(pq)^len`.
    #[must_use]
    pub fn limits_for(&self, len: usize) -> SearchLimits<Nat> {
        let horizon = Nat::from(self.p * self.q).pow(u32::try_from(len).unwrap_or(u32::MAX) + 1);
        SearchLimits::new(horizon, len + 1)
    }

    /// Acceptance under direct journeys — the paper's
    /// `L_nowait(G) = {aⁿbⁿ : n ≥ 1}`.
    #[must_use]
    pub fn accepts_nowait(&self, w: &Word) -> bool {
        self.automaton
            .accepts(w, &WaitingPolicy::NoWait, &self.limits_for(w.len()))
    }

    /// The accepting run's time trace for `aⁿbⁿ`: the sequence of times
    /// at which each prefix is read (for display; `None` for rejected
    /// words).
    #[must_use]
    pub fn nowait_trace(&self, w: &Word) -> Option<Vec<(String, Nat)>> {
        let limits = self.limits_for(w.len());
        let trace = self.automaton.trace(w, &WaitingPolicy::NoWait, &limits);
        if trace.last().is_none_or(|cfgs| {
            !cfgs
                .iter()
                .any(|(n, _)| self.automaton.accepting().contains(n))
        }) {
            return None;
        }
        Some(
            trace
                .into_iter()
                .map(|cfgs| {
                    let (n, t) = cfgs
                        .into_iter()
                        .next()
                        .expect("accepting trace has nonempty configs");
                    (self.automaton.tvg().node_name(n).to_string(), t)
                })
                .collect(),
        )
    }
}

/// Reference decider for `{aⁿbⁿ : n ≥ 1}`.
#[must_use]
pub fn is_anbn(w: &Word) -> bool {
    let n = w.count_char('a');
    n >= 1
        && w.len() == 2 * n
        && w.iter().take(n).all(|l| l.as_char() == 'a')
        && w.iter().skip(n).all(|l| l.as_char() == 'b')
}

/// The word `aⁿbⁿ`.
#[must_use]
pub fn anbn_word(n: usize) -> Word {
    format!("{}{}", "a".repeat(n), "b".repeat(n))
        .parse()
        .expect("ascii letters")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_langs::sample::words_upto;
    use tvg_langs::{word, Alphabet};

    #[test]
    fn parameters_validated() {
        assert_eq!(
            AnbnAutomaton::new(2, 2).unwrap_err(),
            AnbnError::PrimesNotDistinct
        );
        assert_eq!(
            AnbnAutomaton::new(4, 3).unwrap_err(),
            AnbnError::NotPrime(4)
        );
        assert_eq!(
            AnbnAutomaton::new(2, 1).unwrap_err(),
            AnbnError::NotPrime(1)
        );
        assert!(AnbnAutomaton::new(5, 7).is_ok());
    }

    #[test]
    fn exhaustive_language_check_small() {
        // The headline claim of Figure 1, machine-checked on every word of
        // length ≤ 10 over {a,b}.
        let aut = AnbnAutomaton::smallest();
        for w in words_upto(&Alphabet::ab(), 10) {
            assert_eq!(aut.accepts_nowait(&w), is_anbn(&w), "{w}");
        }
    }

    #[test]
    fn long_members_accepted_beyond_machine_range() {
        let aut = AnbnAutomaton::smallest();
        // n = 45: times reach 2^45 · 3^45 ≈ 10^35 — far beyond u64.
        assert!(aut.accepts_nowait(&anbn_word(45)));
    }

    #[test]
    fn long_near_misses_rejected() {
        let aut = AnbnAutomaton::smallest();
        let mut long = anbn_word(30);
        assert!(aut.accepts_nowait(&long));
        long.push(tvg_langs::Letter::new('b').expect("ascii"));
        assert!(!aut.accepts_nowait(&long)); // a^30 b^31
        assert!(!aut.accepts_nowait(&word(&format!("{}{}", "a".repeat(31), "b".repeat(30)))));
    }

    #[test]
    fn other_prime_pairs_give_same_language() {
        for (p, q) in [(3, 2), (2, 5), (5, 3), (7, 11)] {
            let aut = AnbnAutomaton::new(p, q).expect("distinct primes");
            for w in words_upto(&Alphabet::ab(), 7) {
                assert_eq!(aut.accepts_nowait(&w), is_anbn(&w), "p={p} q={q} {w}");
            }
        }
    }

    #[test]
    fn trace_of_accepting_run_shows_time_counter() {
        let aut = AnbnAutomaton::smallest();
        let trace = aut.nowait_trace(&anbn_word(3)).expect("a³b³ accepted");
        // Times: 1 →(a) 2 →(a) 4 →(a) 8 →(b,e1) 24 →(b,e2) 72 →(b,e4) 73.
        let times: Vec<String> = trace.iter().map(|(_, t)| t.to_string()).collect();
        assert_eq!(times, vec!["1", "2", "4", "8", "24", "72", "73"]);
        assert_eq!(trace.last().expect("nonempty").0, "v2");
        assert!(aut.nowait_trace(&word("ab")).is_some());
        assert!(aut.nowait_trace(&word("ba")).is_none());
    }

    #[test]
    fn figure1_is_deterministic_as_the_paper_says() {
        // "Figure 1 shows an example of a deterministic TVG-automaton":
        // under direct journeys at most one configuration is ever live.
        let aut = AnbnAutomaton::smallest();
        assert!(aut.automaton().is_deterministic_upto(
            &WaitingPolicy::NoWait,
            &aut.limits_for(8),
            8
        ));
        // Under waiting the same graph is nondeterministic (choices of
        // departure time multiply configurations).
        let small = SearchLimits::new(Nat::from(50u64), 4);
        assert!(!aut
            .automaton()
            .is_deterministic_upto(&WaitingPolicy::Unbounded, &small, 3));
    }

    #[test]
    fn n_equals_one_uses_e3() {
        let aut = AnbnAutomaton::smallest();
        assert!(aut.accepts_nowait(&word("ab")));
        assert!(!aut.accepts_nowait(&word("a")));
        assert!(!aut.accepts_nowait(&word("b")));
        assert!(!aut.accepts_nowait(&Word::empty()));
    }

    #[test]
    fn waiting_changes_the_language() {
        // With unbounded waiting the same TVG accepts more than aⁿbⁿ —
        // e.g. "abb": read a at t=1 (arrive 2), wait and take e1 at t=3
        // (arrive 9), wait at v1 until t=12 = 2³·3¹? No — 12 = 2²·3, i=2:
        // e4 is present, arrive v2. The exact waiting language is regular
        // (Theorem 2.2); here we just confirm it differs from aⁿbⁿ.
        let aut = AnbnAutomaton::smallest();
        let w = word("abb");
        let limits = SearchLimits::new(Nat::from(100u64), 6);
        let accepted_waiting = aut
            .automaton()
            .accepts(&w, &WaitingPolicy::Unbounded, &limits);
        assert!(accepted_waiting);
        assert!(!is_anbn(&w));
    }
}
