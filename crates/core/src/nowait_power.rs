//! Theorem 2.1: `L_nowait` contains every computable language.
//!
//! The construction is the paper's in spirit and mechanism: *time is the
//! memory*. Reading starts at `t = 1`. Each letter `σᵢ` (1-based digit
//! `i` in base `k+1`, `k = |Σ|`) labels a self-loop on the single working
//! node whose affine latency maps departure time `t` to arrival
//! `(k+1)·t + i` — so after reading `w`, the journey's clock holds the
//! base-(k+1) encoding of `1·w` exactly. Each letter also labels an edge
//! into the accepting node whose *presence function runs the decider*:
//! present at time `t` iff `decode(t)·σᵢ ∈ L`. A direct journey can
//! therefore reach the accepting node exactly on the words of `L`: the
//! environment (the schedule) carries the Turing computation, the
//! automaton itself is three nodes.
//!
//! "Computable" is witnessed by real deciders: plug in a closure, a
//! [`tvg_langs::Grammar`], or an actual [`tvg_langs::TuringMachine`].

use crate::TvgAutomaton;
use std::collections::BTreeSet;
use std::sync::Arc;
use tvg_bigint::Nat;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_langs::{Alphabet, TuringMachine, Word};
use tvg_model::{Latency, Presence, Time, TvgBuilder};

/// A membership oracle: any computable characteristic function of a
/// language.
pub type Decider = Arc<dyn Fn(&Word) -> bool + Send + Sync>;

/// Encodes `w` over `alphabet` as the time value `1·d₁·d₂⋯` in base
/// `k+1`, with digit `dⱼ = index(wⱼ) + 1`. `encode(ε) = 1`.
#[must_use]
pub fn encode_word(alphabet: &Alphabet, w: &Word) -> Option<Nat> {
    let base = alphabet.len() as u64 + 1;
    let mut t = Nat::one();
    for l in w.iter() {
        let digit = alphabet.index_of(l)? as u64 + 1;
        t = t * Nat::from(base) + Nat::from(digit);
    }
    Some(t)
}

/// Decodes a time value back to the word it encodes, if it is a valid
/// encoding (digits in `1..=k`, leading marker `1`).
fn decode_time(alphabet: &Alphabet, t: &Nat) -> Option<Word> {
    let base = alphabet.len() as u64 + 1;
    let mut cur = t.clone();
    let mut letters = Vec::new();
    loop {
        if cur.is_one() {
            letters.reverse();
            return Some(Word::from_letters(letters));
        }
        if cur.is_zero() {
            return None;
        }
        let (q, digit) = cur.div_rem_small(u32::try_from(base).expect("alphabet is small"));
        if digit == 0 {
            return None; // digit 0 never occurs in encodings
        }
        letters.push(alphabet.letter(digit as usize - 1));
        cur = q;
    }
}

/// The Theorem-2.1 automaton for an arbitrary decider.
///
/// ```
/// use std::sync::Arc;
/// use tvg_expressivity::nowait_power::DeciderAutomaton;
/// use tvg_langs::{word, Alphabet};
///
/// // The context-sensitive {aⁿbⁿcⁿ} as a no-wait TVG language.
/// let aut = DeciderAutomaton::new(
///     Alphabet::abc(),
///     Arc::new(|w: &tvg_langs::Word| {
///         let n = w.count_char('a');
///         n >= 1 && w.len() == 3 * n && w.to_string()
///             == format!("{}{}{}", "a".repeat(n), "b".repeat(n), "c".repeat(n))
///     }),
/// );
/// assert!(aut.accepts_nowait(&word("aabbcc")));
/// assert!(!aut.accepts_nowait(&word("aabbc")));
/// ```
#[derive(Clone)]
pub struct DeciderAutomaton {
    automaton: TvgAutomaton<Nat>,
    alphabet: Alphabet,
}

impl DeciderAutomaton {
    /// Builds the construction for `decider` over `alphabet`.
    #[must_use]
    pub fn new(alphabet: Alphabet, decider: Decider) -> Self {
        let k = alphabet.len() as u64;
        let mut b = TvgBuilder::<Nat>::new();
        let run = b.node("run");
        let acc = b.node("accept");
        for (i, letter) in alphabet.iter().enumerate() {
            let digit = i as u64 + 1;
            // Self-loop: clock ← (k+1)·clock + digit.
            b.edge(
                run,
                run,
                letter.as_char(),
                Presence::Always,
                Latency::Affine {
                    mul: k,
                    add: Nat::from(digit),
                },
            )
            .expect("builder-owned nodes");
            // Accepting edge: the schedule runs the decider on the word
            // that *would* be complete after this letter.
            let alpha = alphabet.clone();
            let dec = Arc::clone(&decider);
            b.edge(
                run,
                acc,
                letter.as_char(),
                Presence::from_fn(move |t: &Nat| {
                    let extended = t * Nat::from(k + 1) + Nat::from(digit);
                    decode_time(&alpha, &extended).is_some_and(|w| dec(&w))
                }),
                Latency::Const(Nat::one()),
            )
            .expect("builder-owned nodes");
        }
        let automaton = TvgAutomaton::new(
            b.build().expect("two nodes"),
            BTreeSet::from([run]),
            BTreeSet::from([acc]),
            Nat::one(),
        )
        .expect("static construction is structurally valid");
        DeciderAutomaton {
            automaton,
            alphabet,
        }
    }

    /// Builds the construction from a Turing machine with a fuel budget
    /// per membership query.
    #[must_use]
    pub fn from_turing_machine(alphabet: Alphabet, tm: TuringMachine, fuel: usize) -> Self {
        DeciderAutomaton::new(alphabet, Arc::new(move |w| tm.decide(w, fuel)))
    }

    /// The wrapped [`TvgAutomaton`].
    #[must_use]
    pub fn automaton(&self) -> &TvgAutomaton<Nat> {
        &self.automaton
    }

    /// The alphabet the encoding is based on.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Search limits sufficient for words of length `len`: the clock
    /// reaches at most `(k+1)^(len+1)`.
    #[must_use]
    pub fn limits_for(&self, len: usize) -> SearchLimits<Nat> {
        let base = self.alphabet.len() as u64 + 1;
        let horizon = Nat::from(base).pow(u32::try_from(len).unwrap_or(u32::MAX) + 2);
        SearchLimits::new(horizon, len + 1)
    }

    /// Acceptance under direct journeys: by Theorem 2.1 this equals the
    /// decider's language.
    ///
    /// Note the empty word: the construction accepts `ε` only via
    /// `initial ∩ accepting`, which is empty here, so `ε ∉ L_nowait` even
    /// if the decider says yes. This matches the paper's journey
    /// languages (a journey spells a nonempty word; the empty journey
    /// spells ε only when an initial node is accepting).
    #[must_use]
    pub fn accepts_nowait(&self, w: &Word) -> bool {
        self.automaton
            .accepts(w, &WaitingPolicy::NoWait, &self.limits_for(w.len()))
    }

    /// Acceptance under `d`-bounded waiting of the *dilated* automaton —
    /// used by the Theorem 2.3 harness.
    #[must_use]
    pub fn dilated_accepts_bounded(&self, w: &Word, d: u64) -> bool {
        let dilated = self.automaton.dilate(d);
        let inner = self.limits_for(w.len());
        let factor = d + 1;
        let horizon = inner
            .horizon
            .checked_mul_u64(factor)
            .expect("Nat multiplication cannot overflow");
        dilated.accepts(
            w,
            &WaitingPolicy::Bounded(Nat::from(d)),
            &SearchLimits::new(horizon, inner.max_hops),
        )
    }
}

impl std::fmt::Debug for DeciderAutomaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeciderAutomaton")
            .field("alphabet", &self.alphabet)
            .field("automaton", &"<3-node TVG, decider in schedule>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_bigint::is_prime_u64;
    use tvg_langs::sample::words_upto;
    use tvg_langs::{machines, word, Grammar};

    fn check_against_reference(
        aut: &DeciderAutomaton,
        reference: impl Fn(&Word) -> bool,
        max_len: usize,
    ) {
        for w in words_upto(aut.alphabet(), max_len) {
            if w.is_empty() {
                continue; // ε: see accepts_nowait docs
            }
            assert_eq!(aut.accepts_nowait(&w), reference(&w), "{w}");
        }
    }

    #[test]
    fn encoding_roundtrip() {
        let sigma = Alphabet::abc();
        for w in words_upto(&sigma, 6) {
            let t = encode_word(&sigma, &w).expect("word over alphabet");
            assert_eq!(decode_time(&sigma, &t), Some(w));
        }
        // Invalid encodings decode to None.
        assert_eq!(decode_time(&sigma, &Nat::zero()), None);
        assert_eq!(decode_time(&sigma, &Nat::from(4u64)), None); // digit 0
        assert_eq!(decode_time(&sigma, &Nat::from(8u64)), None); // leading digit 2
    }

    #[test]
    fn encoding_is_injective() {
        let sigma = Alphabet::ab();
        let words = words_upto(&sigma, 8);
        let mut seen = std::collections::BTreeSet::new();
        for w in &words {
            assert!(seen.insert(encode_word(&sigma, w).expect("valid")), "{w}");
        }
    }

    #[test]
    fn context_free_language_anbn() {
        let g = Grammar::anbn();
        let aut = DeciderAutomaton::new(Alphabet::ab(), Arc::new(move |w| g.recognizes(w)));
        check_against_reference(&aut, |w| Grammar::anbn().recognizes(w), 10);
    }

    #[test]
    fn context_sensitive_language_anbncn() {
        let aut =
            DeciderAutomaton::from_turing_machine(Alphabet::abc(), machines::anbncn(), 100_000);
        let tm = machines::anbncn();
        check_against_reference(&aut, |w| tm.decide(w, 100_000), 7);
    }

    #[test]
    fn palindromes_via_turing_machine() {
        let aut =
            DeciderAutomaton::from_turing_machine(Alphabet::ab(), machines::palindrome(), 100_000);
        check_against_reference(&aut, |w| *w == w.reversed(), 8);
    }

    #[test]
    fn unary_primes() {
        let aut = DeciderAutomaton::new(
            Alphabet::from_chars("a").expect("valid"),
            Arc::new(|w| is_prime_u64(w.len() as u64)),
        );
        check_against_reference(&aut, |w| is_prime_u64(w.len() as u64), 24);
    }

    #[test]
    fn unary_squares() {
        let aut = DeciderAutomaton::new(
            Alphabet::from_chars("a").expect("valid"),
            Arc::new(|w| {
                let n = w.len() as u64;
                let r = (n as f64).sqrt().round() as u64;
                r * r == n
            }),
        );
        check_against_reference(
            &aut,
            |w| {
                let n = w.len() as u64;
                let r = (n as f64).sqrt().round() as u64;
                r * r == n
            },
            20,
        );
    }

    #[test]
    fn dyck_language() {
        let g = Grammar::dyck1();
        let aut = DeciderAutomaton::new(Alphabet::ab(), Arc::new(move |w| g.recognizes(w)));
        check_against_reference(&aut, |w| Grammar::dyck1().recognizes(w), 9);
    }

    #[test]
    fn long_words_beyond_machine_range() {
        let g = Grammar::anbn();
        let aut = DeciderAutomaton::new(Alphabet::ab(), Arc::new(move |w| g.recognizes(w)));
        // Length 80: clock reaches 3^81 ≈ 10^38.
        let w = crate::anbn::anbn_word(40);
        assert!(aut.accepts_nowait(&w));
        let w_bad = word(&format!("{}{}", "a".repeat(40), "b".repeat(41)));
        assert!(!aut.accepts_nowait(&w_bad));
    }

    #[test]
    fn nowait_is_essential_here() {
        // Under unbounded waiting, this TVG accepts MORE than L: waiting
        // at "run" lets the clock drift to other encodings? No — the clock
        // only advances by crossing edges; waiting delays departure, and a
        // late self-loop departure computes (k+1)t'+i for t' > t, jumping
        // to the encoding of a different prefix. The language changes; by
        // Theorem 2.2 it becomes regular. We verify it differs from aⁿbⁿ.
        let g = Grammar::anbn();
        let aut = DeciderAutomaton::new(Alphabet::ab(), Arc::new(move |w| g.recognizes(w)));
        let limits = SearchLimits::new(Nat::from(200u64), 4);
        // "ba" ∉ aⁿbⁿ: with waiting the b-accept edge can fire from a
        // drifted clock encoding "ab" after reading just "b"? The decider
        // gates on decode(t'·3+2) ∈ L — a drifted t' = 2 (= encode("a"))
        // makes the accept edge fire on reading 'b' with word "b" only.
        // So "b" alone may be accepted with waiting. Confirm some word
        // outside L is accepted.
        let gained = words_upto(&Alphabet::ab(), 3)
            .into_iter()
            .filter(|w| !w.is_empty())
            .any(|w| {
                !crate::anbn::is_anbn(&w)
                    && aut
                        .automaton()
                        .accepts(&w, &WaitingPolicy::Unbounded, &limits)
            });
        assert!(gained);
    }
}
