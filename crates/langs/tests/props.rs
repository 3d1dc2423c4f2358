//! Property tests for the formal-language substrate: algebraic laws of
//! automata operations and parser round-trips.
//!
//! Runs on `tvg-testkit`'s deterministic harness; random DFAs and words
//! come from `tvg_testkit::gen`.

use rand::Rng;
use tvg_langs::sample::words_upto;
use tvg_langs::{Alphabet, Dfa, Letter, Nfa, Word};
use tvg_testkit::gen;

fn ab() -> Alphabet {
    Alphabet::ab()
}

/// A random total DFA over {a,b} with up to `n` states.
fn arb_dfa<R: Rng + ?Sized>(rng: &mut R, max_states: usize) -> Dfa {
    gen::dfa(rng, &ab(), max_states)
}

/// A random word over {a,b} of length ≤ 7.
fn arb_word<R: Rng + ?Sized>(rng: &mut R) -> Word {
    gen::word(rng, &ab(), 7)
}

#[test]
fn minimization_preserves_language() {
    tvg_testkit::check("minimization_preserves_language", |rng, _| {
        let dfa = arb_dfa(rng, 6);
        let w = arb_word(rng);
        let min = dfa.minimize();
        assert_eq!(dfa.accepts(&w), min.accepts(&w));
        assert!(min.num_states() <= dfa.num_states());
    });
}

#[test]
fn minimization_is_idempotent() {
    tvg_testkit::check("minimization_is_idempotent", |rng, _| {
        let once = arb_dfa(rng, 6).minimize();
        let twice = once.minimize();
        assert_eq!(once.num_states(), twice.num_states());
        assert!(once.equivalent_to(&twice));
    });
}

#[test]
fn equivalence_is_reflexive_and_witnessed() {
    tvg_testkit::check("equivalence_is_reflexive_and_witnessed", |rng, _| {
        let a = arb_dfa(rng, 5);
        let b = arb_dfa(rng, 5);
        assert!(a.equivalent_to(&a));
        // Two DFAs with m and n states that differ already differ on a
        // word of length at most m + n - 2, so this search is exhaustive.
        let witness = words_upto(&ab(), a.num_states() + b.num_states())
            .into_iter()
            .find(|w| a.accepts(w) != b.accepts(w));
        assert_eq!(a.equivalent_to(&b), witness.is_none());
    });
}

#[test]
fn subset_construction_preserves_language() {
    tvg_testkit::check("subset_construction_preserves_language", |rng, _| {
        let dfa = arb_dfa(rng, 4);
        let w = arb_word(rng);
        // Round-trip through an NFA (literal transitions of the DFA).
        let mut nfa = Nfa::new(ab(), dfa.num_states());
        nfa.add_start(dfa.start()).expect("in range");
        for s in 0..dfa.num_states() {
            if dfa.is_accepting(s) {
                nfa.add_accepting(s).expect("in range");
            }
            for letter in ab().iter() {
                let t = dfa.step(s, letter).expect("total");
                nfa.add_transition(s, Some(letter.as_char()), t)
                    .expect("valid");
            }
        }
        assert_eq!(nfa.to_dfa().accepts(&w), dfa.accepts(&w));
    });
}

#[test]
fn regex_synthesis_roundtrips_random_dfas() {
    tvg_testkit::check("regex_synthesis_roundtrips_random_dfas", |rng, _| {
        let min = arb_dfa(rng, 4).minimize();
        let re = tvg_langs::synth::dfa_to_regex(&min);
        let back = re.to_nfa(&ab()).to_dfa();
        assert!(back.equivalent_to(&min), "{re}");
    });
}

#[test]
fn word_concat_associates() {
    tvg_testkit::check("word_concat_associates", |rng, _| {
        let u = arb_word(rng);
        let v = arb_word(rng);
        let w = arb_word(rng);
        assert_eq!(u.concat(&v).concat(&w), u.concat(&v.concat(&w)));
        assert_eq!(Word::empty().concat(&u), u.clone());
        assert_eq!(u.concat(&Word::empty()), u);
    });
}

#[test]
fn reversal_is_involutive_and_antimultiplicative() {
    tvg_testkit::check("reversal_is_involutive_and_antimultiplicative", |rng, _| {
        let u = arb_word(rng);
        let v = arb_word(rng);
        assert_eq!(u.reversed().reversed(), u.clone());
        assert_eq!(u.concat(&v).reversed(), v.reversed().concat(&u.reversed()));
    });
}

#[test]
fn letters_display_as_their_char() {
    for c in ['a', 'z', 'A', '0', '~'] {
        assert_eq!(
            Letter::new(c).expect("printable").to_string(),
            c.to_string()
        );
    }
}
