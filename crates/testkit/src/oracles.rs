//! Reference language oracles — independent deciders the theorem tests
//! compare TVG constructions against.
//!
//! An oracle must be *simpler than the thing under test*: `is_anbn` is a
//! direct scan, regular oracles are minimal DFAs compiled from regexes.
//! When a construction and an oracle disagree, the oracle wins.

pub use tvg_expressivity::anbn::{anbn_word, is_anbn};
use tvg_langs::{Alphabet, Dfa, Regex};

/// Compiles `pattern` into a minimal DFA over `alphabet` — the reference
/// decider for a regular language.
///
/// # Panics
///
/// Panics on an unparsable pattern (oracles are test infrastructure;
/// a bad pattern is a test bug).
#[must_use]
pub fn regex_dfa(pattern: &str, alphabet: &Alphabet) -> Dfa {
    Regex::parse(pattern, alphabet)
        .expect("oracle regex must parse")
        .to_nfa(alphabet)
        .to_dfa()
        .minimize()
}

/// The minimal DFA of the empty language ∅ over `alphabet` (one
/// non-accepting sink).
#[must_use]
pub fn empty_language_dfa(alphabet: &Alphabet) -> Dfa {
    let delta = vec![vec![0; alphabet.len()]];
    Dfa::new(alphabet.clone(), delta, 0, vec![false]).expect("one-state dfa is valid")
}

/// The minimal DFA of `Σ*` over `alphabet` (one accepting sink).
#[must_use]
pub fn sigma_star_dfa(alphabet: &Alphabet) -> Dfa {
    let delta = vec![vec![0; alphabet.len()]];
    Dfa::new(alphabet.clone(), delta, 0, vec![true]).expect("one-state dfa is valid")
}

/// The single-letter alphabet `{a}` (the degenerate edge of Theorem 2.2's
/// quantification over alphabets).
#[must_use]
pub fn unary_alphabet() -> Alphabet {
    Alphabet::from_chars("a").expect("one printable letter")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_langs::sample::words_upto;

    #[test]
    fn is_anbn_matches_grammar_oracle() {
        let grammar = tvg_langs::Grammar::anbn();
        for w in words_upto(&Alphabet::ab(), 8) {
            assert_eq!(is_anbn(&w), grammar.recognizes(&w), "{w}");
        }
    }

    #[test]
    fn degenerate_dfas_have_the_right_languages() {
        let sigma = Alphabet::ab();
        let empty = empty_language_dfa(&sigma);
        let all = sigma_star_dfa(&sigma);
        for w in words_upto(&sigma, 5) {
            assert!(!empty.accepts(&w), "{w}");
            assert!(all.accepts(&w), "{w}");
        }
        assert_eq!(empty.num_states(), 1);
        assert_eq!(all.num_states(), 1);
    }

    #[test]
    fn unary_alphabet_is_unary() {
        assert_eq!(unary_alphabet().len(), 1);
        assert_eq!(unary_alphabet().letter(0).as_char(), 'a');
    }
}
