//! Angluin's L\* algorithm: active learning of a minimal DFA from a
//! membership oracle.
//!
//! Theorem 2.2 says every `L_wait(G)` is regular — so it is *learnable*:
//! point L\* at a TVG-automaton's waiting-acceptance as the membership
//! oracle and a bounded-equivalence check, and it reconstructs the
//! minimal DFA without ever looking at the graph. This gives the theorem
//! an operational face beyond the periodic-class compiler, and is how
//! experiment E3 treats TVGs whose schedules the compiler cannot
//! pattern-match.

use crate::sample::words_upto;
use crate::{Alphabet, Dfa, Word};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors from a learning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// The round budget was exhausted before the equivalence oracle
    /// stopped producing counterexamples.
    RoundBudgetExhausted {
        /// Rounds performed.
        rounds: usize,
    },
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::RoundBudgetExhausted { rounds } => {
                write!(f, "no stable hypothesis after {rounds} learning rounds")
            }
        }
    }
}

impl Error for LearnError {}

/// Learns the minimal DFA of the language decided by `membership`,
/// using `equivalence` to test hypotheses (return a counterexample word,
/// or `None` to accept the hypothesis).
///
/// At most `max_rounds` hypothesis rounds are attempted.
///
/// # Errors
///
/// Returns [`LearnError::RoundBudgetExhausted`] if counterexamples keep
/// coming (e.g. the target is not regular, or the budget is too small).
///
/// ```
/// use tvg_langs::learn::{bounded_equivalence, learn_dfa};
/// use tvg_langs::{word, Alphabet};
///
/// // Learn "ends with b" from queries alone.
/// let sigma = Alphabet::ab();
/// let target = |w: &tvg_langs::Word| w.iter().last().map_or(false, |l| l.as_char() == 'b');
/// let dfa = learn_dfa(
///     &sigma,
///     target,
///     |hyp| bounded_equivalence(hyp, target, &sigma, 6),
///     16,
/// )?;
/// assert_eq!(dfa.num_states(), 2);
/// assert!(dfa.accepts(&word("aab")));
/// # Ok::<(), tvg_langs::learn::LearnError>(())
/// ```
pub fn learn_dfa<M, E>(
    alphabet: &Alphabet,
    mut membership: M,
    mut equivalence: E,
    max_rounds: usize,
) -> Result<Dfa, LearnError>
where
    M: FnMut(&Word) -> bool,
    E: FnMut(&Dfa) -> Option<Word>,
{
    let mut table = ObservationTable::new(alphabet.clone());
    table.fill(&mut membership);
    for rounds in 0..max_rounds {
        loop {
            if let Some(unclosed) = table.find_unclosed() {
                table.prefixes.insert(unclosed);
                table.fill(&mut membership);
                continue;
            }
            if let Some(suffix) = table.find_inconsistency() {
                table.suffixes.insert(suffix);
                table.fill(&mut membership);
                continue;
            }
            break;
        }
        let hypothesis = table.to_dfa();
        match equivalence(&hypothesis) {
            None => return Ok(hypothesis),
            Some(cex) => {
                // Add every prefix of the counterexample.
                for len in 0..=cex.len() {
                    table
                        .prefixes
                        .insert(Word::from_letters(cex.iter().take(len).collect()));
                }
                table.fill(&mut membership);
                let _ = rounds;
            }
        }
    }
    Err(LearnError::RoundBudgetExhausted { rounds: max_rounds })
}

/// Equivalence oracle by exhaustive comparison up to `max_len`: returns a
/// shortest word where `hypothesis` and `target` disagree.
pub fn bounded_equivalence<F: FnMut(&Word) -> bool>(
    hypothesis: &Dfa,
    mut target: F,
    alphabet: &Alphabet,
    max_len: usize,
) -> Option<Word> {
    words_upto(alphabet, max_len)
        .into_iter()
        .find(|w| hypothesis.accepts(w) != target(w))
}

/// The L\* observation table.
struct ObservationTable {
    alphabet: Alphabet,
    prefixes: BTreeSet<Word>,
    suffixes: BTreeSet<Word>,
    entries: BTreeMap<Word, bool>,
}

impl ObservationTable {
    fn new(alphabet: Alphabet) -> Self {
        ObservationTable {
            alphabet,
            prefixes: BTreeSet::from([Word::empty()]),
            suffixes: BTreeSet::from([Word::empty()]),
            entries: BTreeMap::new(),
        }
    }

    /// Queries the oracle for every missing `(prefix [+letter]) · suffix`.
    fn fill<M: FnMut(&Word) -> bool>(&mut self, membership: &mut M) {
        let mut rows: Vec<Word> = self.prefixes.iter().cloned().collect();
        for p in &self.prefixes {
            for a in self.alphabet.iter() {
                rows.push(p.appended(a));
            }
        }
        for row in rows {
            for e in &self.suffixes {
                let w = row.concat(e);
                if let std::collections::btree_map::Entry::Vacant(e) = self.entries.entry(w) {
                    let verdict = membership(e.key());
                    e.insert(verdict);
                }
            }
        }
    }

    fn row(&self, prefix: &Word) -> Vec<bool> {
        self.suffixes
            .iter()
            .map(|e| {
                *self
                    .entries
                    .get(&prefix.concat(e))
                    .expect("table filled before row access")
            })
            .collect()
    }

    /// A one-letter extension whose row matches no prefix row, if any.
    fn find_unclosed(&self) -> Option<Word> {
        let prefix_rows: BTreeSet<Vec<bool>> = self.prefixes.iter().map(|p| self.row(p)).collect();
        for p in &self.prefixes {
            for a in self.alphabet.iter() {
                let ext = p.appended(a);
                if !prefix_rows.contains(&self.row(&ext)) {
                    return Some(ext);
                }
            }
        }
        None
    }

    /// A distinguishing suffix witnessing an inconsistency (two equal
    /// prefix rows whose extensions differ), if any.
    fn find_inconsistency(&self) -> Option<Word> {
        let prefixes: Vec<&Word> = self.prefixes.iter().collect();
        for (i, p1) in prefixes.iter().enumerate() {
            for p2 in prefixes.iter().skip(i + 1) {
                if self.row(p1) != self.row(p2) {
                    continue;
                }
                for a in self.alphabet.iter() {
                    let r1 = self.row(&p1.appended(a));
                    let r2 = self.row(&p2.appended(a));
                    if let Some(k) = r1.iter().zip(&r2).position(|(x, y)| x != y) {
                        let e = self.suffixes.iter().nth(k).expect("index in range");
                        let mut suffix = Word::from_letters(vec![a]);
                        suffix.extend(e.iter());
                        return Some(suffix);
                    }
                }
            }
        }
        None
    }

    /// Builds the hypothesis DFA from a closed, consistent table.
    fn to_dfa(&self) -> Dfa {
        // States = distinct prefix rows, in order of first occurrence.
        let mut index: BTreeMap<Vec<bool>, usize> = BTreeMap::new();
        let mut representative: Vec<Word> = Vec::new();
        for p in &self.prefixes {
            let r = self.row(p);
            if let std::collections::btree_map::Entry::Vacant(e) = index.entry(r) {
                e.insert(representative.len());
                representative.push(p.clone());
            }
        }
        let n = representative.len();
        let k = self.alphabet.len();
        let mut delta = vec![vec![0usize; k]; n];
        let mut accepting = vec![false; n];
        for (s, rep) in representative.iter().enumerate() {
            accepting[s] = *self
                .entries
                .get(&rep.concat(&Word::empty()))
                .expect("filled");
            for (a, letter) in self.alphabet.iter().enumerate() {
                let succ_row = self.row(&rep.appended(letter));
                delta[s][a] = *index
                    .get(&succ_row)
                    .expect("closed table: extension rows are prefix rows");
            }
        }
        let start_row = self.row(&Word::empty());
        let start = index[&start_row];
        Dfa::new(self.alphabet.clone(), delta, start, accepting)
            .expect("observation table produces a structurally valid dfa")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{word, Regex};

    fn learn_regex(pattern: &str, check_len: usize) -> Dfa {
        let sigma = Alphabet::ab();
        let target = Regex::parse(pattern, &sigma)
            .expect("parses")
            .to_nfa(&sigma)
            .to_dfa()
            .minimize();
        let t2 = target.clone();
        learn_dfa(
            &sigma,
            move |w| target.accepts(w),
            move |hyp| bounded_equivalence(hyp, |w| t2.accepts(w), &Alphabet::ab(), check_len),
            32,
        )
        .expect("learnable")
    }

    #[test]
    fn learns_simple_languages_minimally() {
        for (pattern, expected_states) in
            [("(a|b)*ab", 3), ("a*b*", 3), ("(ab)*", 3), ("(a|b)*b", 2)]
        {
            let learned = learn_regex(pattern, 7);
            let sigma = Alphabet::ab();
            let target = Regex::parse(pattern, &sigma)
                .expect("parses")
                .to_nfa(&sigma)
                .to_dfa()
                .minimize();
            assert!(learned.equivalent_to(&target), "{pattern}");
            assert_eq!(learned.num_states(), expected_states, "{pattern}");
        }
    }

    #[test]
    fn learns_empty_and_universal() {
        let sigma = Alphabet::ab();
        let empty = learn_dfa(
            &sigma,
            |_| false,
            |hyp| bounded_equivalence(hyp, |_| false, &Alphabet::ab(), 4),
            8,
        )
        .expect("learnable");
        // One non-accepting state: exactly the empty language.
        assert_eq!(empty.num_states(), 1);
        assert!(!empty.accepts(&Word::empty()));
        let universal = learn_dfa(
            &sigma,
            |_| true,
            |hyp| bounded_equivalence(hyp, |_| true, &Alphabet::ab(), 4),
            8,
        )
        .expect("learnable");
        assert!(universal.accepts(&Word::empty()));
        assert!(universal.accepts(&word("abba")));
    }

    #[test]
    fn nonregular_target_exhausts_budget() {
        // aⁿbⁿ has no DFA: with a deep enough equivalence check the
        // learner must keep finding counterexamples.
        let sigma = Alphabet::ab();
        let anbn = |w: &Word| {
            let n = w.count_char('a');
            n >= 1
                && w.len() == 2 * n
                && w.iter().take(n).all(|l| l.as_char() == 'a')
                && w.iter().skip(n).all(|l| l.as_char() == 'b')
        };
        let result = learn_dfa(
            &sigma,
            anbn,
            |hyp| bounded_equivalence(hyp, anbn, &Alphabet::ab(), 12),
            3,
        );
        assert_eq!(
            result.unwrap_err(),
            LearnError::RoundBudgetExhausted { rounds: 3 }
        );
    }

    #[test]
    fn learned_dfa_matches_oracle_everywhere_sampled() {
        let sigma = Alphabet::ab();
        // Parity of (count(a) - count(b)) mod 3 == 0.
        let target =
            |w: &Word| (w.count_char('a') as i64 - w.count_char('b') as i64).rem_euclid(3) == 0;
        let learned = learn_dfa(
            &sigma,
            target,
            |hyp| bounded_equivalence(hyp, target, &Alphabet::ab(), 8),
            32,
        )
        .expect("learnable");
        assert_eq!(learned.num_states(), 3);
        for w in words_upto(&sigma, 8) {
            assert_eq!(learned.accepts(&w), target(&w), "{w}");
        }
    }
}
