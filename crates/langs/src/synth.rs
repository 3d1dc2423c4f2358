//! Regular-expression synthesis from a DFA (state elimination).
//!
//! Theorem 2.2's punchline is that a waiting language *is* a regular
//! expression; this module produces that expression. Combined with the
//! Theorem 2.2 compiler in `tvg-expressivity`, a periodic TVG's waiting
//! language can be handed to a user as a plain regex string.
//!
//! Classic Brzozowski–McCluskey state elimination over a generalized NFA,
//! with algebraic simplification (identities of `∅`, `ε`, idempotent
//! alternation) keeping the output readable for small automata. Output
//! size can still grow exponentially in pathological cases — intended for
//! the small minimal DFAs the compilers produce.

use crate::{Dfa, Regex};

/// Synthesizes a regular expression for `L(dfa)`.
///
/// The result always satisfies
/// `Regex::to_nfa(..).to_dfa() ≡ dfa` (up to language equality).
///
/// ```
/// use tvg_langs::{synth::dfa_to_regex, word, Alphabet, Regex};
///
/// let dfa = Regex::parse("(ab)*", &Alphabet::ab())?
///     .to_nfa(&Alphabet::ab())
///     .to_dfa()
///     .minimize();
/// let synthesized = dfa_to_regex(&dfa);
/// let back = synthesized.to_nfa(&Alphabet::ab()).to_dfa();
/// assert!(back.equivalent_to(&dfa));
/// # Ok::<(), tvg_langs::RegexError>(())
/// ```
#[must_use]
pub fn dfa_to_regex(dfa: &Dfa) -> Regex {
    let n = dfa.num_states();
    // GNFA over states 0..n plus start = n, accept = n + 1.
    let start = n;
    let accept = n + 1;
    let total = n + 2;
    let mut r: Vec<Vec<Regex>> = vec![vec![Regex::Empty; total]; total];

    #[allow(clippy::needless_range_loop)] // s indexes both the dfa and r
    for s in 0..n {
        for letter in dfa.alphabet().iter() {
            let t = dfa.step(s, letter).expect("total dfa");
            let edge = Regex::Lit(letter);
            r[s][t] = alt(std::mem::replace(&mut r[s][t], Regex::Empty), edge);
        }
        if dfa.is_accepting(s) {
            r[s][accept] = Regex::Epsilon;
        }
    }
    r[start][dfa.start()] = Regex::Epsilon;

    // Eliminate the original states one by one.
    for k in 0..n {
        let loop_k = star(r[k][k].clone());
        let sources: Vec<usize> = (0..total)
            .filter(|&i| i != k && !matches!(r[i][k], Regex::Empty))
            .collect();
        let targets: Vec<usize> = (0..total)
            .filter(|&j| j != k && !matches!(r[k][j], Regex::Empty))
            .collect();
        for &i in &sources {
            for &j in &targets {
                let detour = concat(concat(r[i][k].clone(), loop_k.clone()), r[k][j].clone());
                let existing = std::mem::replace(&mut r[i][j], Regex::Empty);
                r[i][j] = alt(existing, detour);
            }
        }
        for row in &mut r {
            row[k] = Regex::Empty;
        }
        for cell in &mut r[k] {
            *cell = Regex::Empty;
        }
    }
    r[start][accept].clone()
}

/// Simplifying alternation: `∅ | r = r`, `r | r = r`.
fn alt(a: Regex, b: Regex) -> Regex {
    match (a, b) {
        (Regex::Empty, x) | (x, Regex::Empty) => x,
        (x, y) if x == y => x,
        (x, y) => Regex::Alt(Box::new(x), Box::new(y)),
    }
}

/// Simplifying concatenation: `∅ · r = ∅`, `ε · r = r`.
fn concat(a: Regex, b: Regex) -> Regex {
    match (a, b) {
        (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
        (Regex::Epsilon, x) | (x, Regex::Epsilon) => x,
        (x, y) => Regex::Concat(Box::new(x), Box::new(y)),
    }
}

/// Simplifying star: `∅* = ε* = ε`, `(r*)* = r*`.
fn star(a: Regex) -> Regex {
    match a {
        Regex::Empty | Regex::Epsilon => Regex::Epsilon,
        s @ Regex::Star(_) => s,
        x => Regex::Star(Box::new(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::words_upto;
    use crate::{Alphabet, Word};

    fn roundtrip(pattern: &str) {
        let sigma = Alphabet::ab();
        let dfa = Regex::parse(pattern, &sigma)
            .expect("parses")
            .to_nfa(&sigma)
            .to_dfa()
            .minimize();
        let synthesized = dfa_to_regex(&dfa);
        let back = synthesized.to_nfa(&sigma).to_dfa();
        assert!(
            back.equivalent_to(&dfa),
            "{pattern} → {synthesized} changed the language"
        );
    }

    #[test]
    fn synthesis_roundtrips_common_patterns() {
        for pattern in [
            "a",
            "ab",
            "a*",
            "(ab)*",
            "a*b*",
            "(a|b)*ab",
            "a(a|b)+",
            "(a|b)*b(a|b)*",
            "a?b?a?",
        ] {
            roundtrip(pattern);
        }
    }

    #[test]
    fn empty_and_universal() {
        let sigma = Alphabet::ab();
        let one_state = |accepting| {
            Dfa::new(sigma.clone(), vec![vec![0, 0]], 0, vec![accepting]).expect("valid")
        };
        assert_eq!(dfa_to_regex(&one_state(false)), Regex::Empty);
        let universal = one_state(true);
        let re = dfa_to_regex(&universal);
        let back = re.to_nfa(&sigma).to_dfa();
        for w in words_upto(&sigma, 4) {
            assert!(back.accepts(&w), "{w}");
        }
    }

    #[test]
    fn epsilon_only_language() {
        let sigma = Alphabet::ab();
        // DFA accepting only ε: accept start, dead otherwise.
        let dfa = Dfa::new(
            sigma.clone(),
            vec![vec![1, 1], vec![1, 1]],
            0,
            vec![true, false],
        )
        .expect("valid");
        let re = dfa_to_regex(&dfa);
        let back = re.to_nfa(&sigma).to_dfa();
        assert!(back.accepts(&Word::empty()));
        for w in words_upto(&sigma, 3) {
            if !w.is_empty() {
                assert!(!back.accepts(&w), "{w}");
            }
        }
    }

    #[test]
    fn synthesized_regex_is_printable_and_reparsable() {
        let sigma = Alphabet::ab();
        let dfa = Regex::parse("(a|b)*ab", &sigma)
            .expect("parses")
            .to_nfa(&sigma)
            .to_dfa()
            .minimize();
        let re = dfa_to_regex(&dfa);
        let printed = re.to_string();
        let reparsed = Regex::parse(&printed, &sigma).expect("display output parses");
        let back = reparsed.to_nfa(&sigma).to_dfa();
        assert!(back.equivalent_to(&dfa));
    }
}
