//! Nondeterministic finite automata with ε-transitions.
//!
//! The constructive fragment of Theorem 2.2 compiles a periodic
//! TVG-automaton to an NFA whose states are `(node, phase, wait-budget)`
//! triples and whose ε-transitions model *waiting* — this module provides
//! that target representation, plus Thompson combinators and the subset
//! construction used to compare languages exactly.

use crate::{Alphabet, Dfa, Word};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Errors from assembling an [`Nfa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfaError {
    /// A state index is out of range.
    BadState(usize),
    /// A transition letter is not part of the alphabet.
    LetterNotInAlphabet(char),
    /// The NFAs being combined read different alphabets.
    AlphabetMismatch,
}

impl fmt::Display for NfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfaError::BadState(s) => write!(f, "state {s} is out of range"),
            NfaError::LetterNotInAlphabet(c) => write!(f, "letter {c:?} is not in the alphabet"),
            NfaError::AlphabetMismatch => write!(f, "nfas read different alphabets"),
        }
    }
}

impl Error for NfaError {}

/// A nondeterministic finite automaton with ε-transitions.
///
/// ```
/// use tvg_langs::{Alphabet, Nfa, word};
///
/// // (ab)* by hand.
/// let mut nfa = Nfa::new(Alphabet::ab(), 2);
/// nfa.add_start(0)?;
/// nfa.add_accepting(0)?;
/// nfa.add_transition(0, Some('a'), 1)?;
/// nfa.add_transition(1, Some('b'), 0)?;
/// assert!(nfa.accepts(&word("abab")));
/// assert!(!nfa.accepts(&word("aba")));
/// # Ok::<(), tvg_langs::NfaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nfa {
    alphabet: Alphabet,
    /// `delta[s]` maps `Some(letter-index)` or `None` (ε) to successor sets.
    delta: Vec<BTreeMap<Option<usize>, BTreeSet<usize>>>,
    starts: BTreeSet<usize>,
    accepting: BTreeSet<usize>,
}

impl Nfa {
    /// Creates an NFA with `n_states` states and no transitions, start, or
    /// accepting states.
    #[must_use]
    pub fn new(alphabet: Alphabet, n_states: usize) -> Self {
        Nfa {
            alphabet,
            delta: vec![BTreeMap::new(); n_states],
            starts: BTreeSet::new(),
            accepting: BTreeSet::new(),
        }
    }

    /// The alphabet this NFA reads.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.delta.len()
    }

    /// Adds a fresh state and returns its index.
    fn add_state(&mut self) -> usize {
        self.delta.push(BTreeMap::new());
        self.delta.len() - 1
    }

    /// Marks `s` as a start state.
    ///
    /// # Errors
    ///
    /// Returns [`NfaError::BadState`] if `s` is out of range.
    pub fn add_start(&mut self, s: usize) -> Result<(), NfaError> {
        self.check_state(s)?;
        self.starts.insert(s);
        Ok(())
    }

    /// Marks `s` as accepting.
    ///
    /// # Errors
    ///
    /// Returns [`NfaError::BadState`] if `s` is out of range.
    pub fn add_accepting(&mut self, s: usize) -> Result<(), NfaError> {
        self.check_state(s)?;
        self.accepting.insert(s);
        Ok(())
    }

    /// Adds a transition on `label` (`None` for ε) from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns an error if either state is out of range or the letter is
    /// not in the alphabet.
    pub fn add_transition(
        &mut self,
        from: usize,
        label: Option<char>,
        to: usize,
    ) -> Result<(), NfaError> {
        self.check_state(from)?;
        self.check_state(to)?;
        let key = match label {
            None => None,
            Some(c) => Some(
                self.alphabet
                    .index_of_char(c)
                    .ok_or(NfaError::LetterNotInAlphabet(c))?,
            ),
        };
        self.delta[from].entry(key).or_default().insert(to);
        Ok(())
    }

    fn check_state(&self, s: usize) -> Result<(), NfaError> {
        if s < self.delta.len() {
            Ok(())
        } else {
            Err(NfaError::BadState(s))
        }
    }

    /// ε-closure of a set of states.
    fn epsilon_closure(&self, set: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = set.clone();
        let mut queue: VecDeque<usize> = set.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            if let Some(succs) = self.delta[s].get(&None) {
                for &t in succs {
                    if closure.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        closure
    }

    /// One letter step (without ε-closure) from a set of states.
    fn step(&self, set: &BTreeSet<usize>, letter_index: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &s in set {
            if let Some(succs) = self.delta[s].get(&Some(letter_index)) {
                out.extend(succs.iter().copied());
            }
        }
        out
    }

    /// Returns `true` iff the NFA accepts `w`. Words using foreign letters
    /// are rejected.
    #[must_use]
    pub fn accepts(&self, w: &Word) -> bool {
        let mut cur = self.epsilon_closure(&self.starts);
        for l in w.iter() {
            let Some(a) = self.alphabet.index_of(l) else {
                return false;
            };
            cur = self.epsilon_closure(&self.step(&cur, a));
            if cur.is_empty() {
                return false;
            }
        }
        cur.iter().any(|s| self.accepting.contains(s))
    }

    /// Subset construction: the equivalent total DFA.
    ///
    /// ```
    /// use tvg_langs::{Alphabet, Nfa, word};
    /// let mut nfa = Nfa::new(Alphabet::ab(), 2);
    /// nfa.add_start(0)?;
    /// nfa.add_accepting(1)?;
    /// nfa.add_transition(0, Some('a'), 0)?;
    /// nfa.add_transition(0, Some('b'), 0)?;
    /// nfa.add_transition(0, Some('a'), 1)?;
    /// let dfa = nfa.to_dfa();
    /// assert!(dfa.accepts(&word("ba")));
    /// assert!(!dfa.accepts(&word("ab")));
    /// # Ok::<(), tvg_langs::NfaError>(())
    /// ```
    #[must_use]
    pub fn to_dfa(&self) -> Dfa {
        let k = self.alphabet.len();
        let start_set = self.epsilon_closure(&self.starts);
        let mut index: BTreeMap<BTreeSet<usize>, usize> = BTreeMap::new();
        let mut order: Vec<BTreeSet<usize>> = Vec::new();
        index.insert(start_set.clone(), 0);
        order.push(start_set);
        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        let mut delta: Vec<Vec<usize>> = Vec::new();
        while let Some(id) = queue.pop_front() {
            let set = order[id].clone();
            let mut row = Vec::with_capacity(k);
            for a in 0..k {
                let succ = self.epsilon_closure(&self.step(&set, a));
                let fresh = index.len();
                let sid = *index.entry(succ.clone()).or_insert_with(|| {
                    order.push(succ);
                    queue.push_back(fresh);
                    fresh
                });
                row.push(sid);
            }
            delta.push(row);
            if delta.len() < id + 1 {
                unreachable!("rows are pushed in queue order");
            }
        }
        let accepting = order
            .iter()
            .map(|set| set.iter().any(|s| self.accepting.contains(s)))
            .collect();
        Dfa::new(self.alphabet.clone(), delta, 0, accepting)
            .expect("subset construction produces a structurally valid dfa")
    }

    /// NFA accepting exactly `{w}`.
    #[must_use]
    pub(crate) fn literal(alphabet: Alphabet, w: &Word) -> Self {
        let mut nfa = Nfa::new(alphabet, w.len() + 1);
        nfa.starts.insert(0);
        nfa.accepting.insert(w.len());
        for (i, l) in w.iter().enumerate() {
            let a = nfa
                .alphabet
                .index_of(l)
                .expect("literal word must be over the alphabet");
            nfa.delta[i].entry(Some(a)).or_default().insert(i + 1);
        }
        nfa
    }

    /// NFA accepting the empty language.
    #[must_use]
    pub(crate) fn empty_language(alphabet: Alphabet) -> Self {
        let mut nfa = Nfa::new(alphabet, 1);
        nfa.starts.insert(0);
        nfa
    }

    /// Union of two NFAs (disjoint copy, shared alphabet).
    ///
    /// # Errors
    ///
    /// Returns [`NfaError::AlphabetMismatch`] if the alphabets differ.
    pub fn union(&self, other: &Nfa) -> Result<Nfa, NfaError> {
        if self.alphabet != other.alphabet {
            return Err(NfaError::AlphabetMismatch);
        }
        let offset = self.num_states();
        let mut out = self.clone();
        for (s, row) in other.delta.iter().enumerate() {
            let ns = out.add_state();
            debug_assert_eq!(ns, s + offset);
            for (key, succs) in row {
                out.delta[s + offset]
                    .entry(*key)
                    .or_default()
                    .extend(succs.iter().map(|t| t + offset));
            }
        }
        out.starts.extend(other.starts.iter().map(|s| s + offset));
        out.accepting
            .extend(other.accepting.iter().map(|s| s + offset));
        Ok(out)
    }

    /// Concatenation `L(self) · L(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`NfaError::AlphabetMismatch`] if the alphabets differ.
    pub(crate) fn concat(&self, other: &Nfa) -> Result<Nfa, NfaError> {
        if self.alphabet != other.alphabet {
            return Err(NfaError::AlphabetMismatch);
        }
        let offset = self.num_states();
        let mut out = self.clone();
        for (s, row) in other.delta.iter().enumerate() {
            out.add_state();
            for (key, succs) in row {
                out.delta[s + offset]
                    .entry(*key)
                    .or_default()
                    .extend(succs.iter().map(|t| t + offset));
            }
        }
        // ε from old accepting states into other's starts.
        for &f in &self.accepting {
            out.delta[f]
                .entry(None)
                .or_default()
                .extend(other.starts.iter().map(|s| s + offset));
        }
        out.accepting = other.accepting.iter().map(|s| s + offset).collect();
        Ok(out)
    }

    /// Kleene star `L(self)*`.
    #[must_use]
    pub(crate) fn star(&self) -> Nfa {
        let mut out = self.clone();
        let hub = out.add_state();
        for &s in &self.starts {
            out.delta[hub].entry(None).or_default().insert(s);
        }
        let old_accepting = out.accepting.clone();
        for &f in &old_accepting {
            out.delta[f].entry(None).or_default().insert(hub);
        }
        out.starts = BTreeSet::from([hub]);
        out.accepting.insert(hub);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    /// NFA for "contains the factor ab".
    fn contains_ab() -> Nfa {
        let mut nfa = Nfa::new(ab(), 3);
        nfa.add_start(0).expect("ok");
        nfa.add_accepting(2).expect("ok");
        for c in ['a', 'b'] {
            nfa.add_transition(0, Some(c), 0).expect("ok");
            nfa.add_transition(2, Some(c), 2).expect("ok");
        }
        nfa.add_transition(0, Some('a'), 1).expect("ok");
        nfa.add_transition(1, Some('b'), 2).expect("ok");
        nfa
    }

    #[test]
    fn basic_acceptance() {
        let nfa = contains_ab();
        assert!(nfa.accepts(&word("ab")));
        assert!(nfa.accepts(&word("bbabb")));
        assert!(!nfa.accepts(&word("ba")));
        assert!(!nfa.accepts(&word("aaa")));
        assert!(!nfa.accepts(&Word::empty()));
    }

    #[test]
    fn epsilon_closure_chases_chains() {
        let mut nfa = Nfa::new(ab(), 4);
        nfa.add_transition(0, None, 1).expect("ok");
        nfa.add_transition(1, None, 2).expect("ok");
        nfa.add_transition(2, None, 0).expect("ok"); // cycle
        let closure = nfa.epsilon_closure(&BTreeSet::from([0]));
        assert_eq!(closure, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn construction_errors() {
        let mut nfa = Nfa::new(ab(), 2);
        assert_eq!(nfa.add_start(9), Err(NfaError::BadState(9)));
        assert_eq!(nfa.add_accepting(9), Err(NfaError::BadState(9)));
        assert_eq!(
            nfa.add_transition(0, Some('z'), 1),
            Err(NfaError::LetterNotInAlphabet('z'))
        );
        assert_eq!(
            nfa.add_transition(0, Some('a'), 9),
            Err(NfaError::BadState(9))
        );
    }

    #[test]
    fn subset_construction_preserves_language() {
        let nfa = contains_ab();
        let dfa = nfa.to_dfa();
        for w in crate::sample::words_upto(&ab(), 7) {
            assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "{w}");
        }
        assert_eq!(dfa.minimize().num_states(), 3);
    }

    #[test]
    fn literal_accepts_exactly_one_word() {
        let nfa = Nfa::literal(ab(), &word("aba"));
        assert!(nfa.accepts(&word("aba")));
        for w in crate::sample::words_upto(&ab(), 4) {
            assert_eq!(nfa.accepts(&w), w == word("aba"), "{w}");
        }
    }

    #[test]
    fn empty_language_accepts_nothing() {
        let nfa = Nfa::empty_language(ab());
        for w in crate::sample::words_upto(&ab(), 3) {
            assert!(!nfa.accepts(&w), "{w}");
        }
    }

    #[test]
    fn union_concat_star() {
        let a = Nfa::literal(ab(), &word("a"));
        let b = Nfa::literal(ab(), &word("b"));
        let a_or_b = a.union(&b).expect("same alphabet");
        assert!(a_or_b.accepts(&word("a")));
        assert!(a_or_b.accepts(&word("b")));
        assert!(!a_or_b.accepts(&word("ab")));

        let ab_cat = a.concat(&b).expect("same alphabet");
        assert!(ab_cat.accepts(&word("ab")));
        assert!(!ab_cat.accepts(&word("a")));
        assert!(!ab_cat.accepts(&word("ba")));

        let ab_star = ab_cat.star();
        assert!(ab_star.accepts(&Word::empty()));
        assert!(ab_star.accepts(&word("abab")));
        assert!(!ab_star.accepts(&word("aba")));
    }

    #[test]
    fn alphabet_mismatch_detected() {
        let a = Nfa::literal(ab(), &word("a"));
        let c = Nfa::literal(Alphabet::abc(), &word("c"));
        assert_eq!(a.union(&c), Err(NfaError::AlphabetMismatch));
        assert_eq!(a.concat(&c), Err(NfaError::AlphabetMismatch));
    }

    #[test]
    fn star_of_empty_language_is_epsilon() {
        let star = Nfa::empty_language(ab()).star();
        assert!(star.accepts(&Word::empty()));
        assert!(!star.accepts(&word("a")));
    }
}
