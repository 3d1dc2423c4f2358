//! Deterministic finite automata.
//!
//! Theorem 2.2 of the paper states that the languages of TVGs with waiting
//! are exactly the regular languages; this module supplies the regular side
//! of that equation: total DFAs with minimization, equivalence checking,
//! and language enumeration.

use crate::{Alphabet, Letter, Word};
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Errors from constructing a malformed [`Dfa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfaError {
    /// The automaton has no states.
    NoStates,
    /// The start state index is out of range.
    BadStart(usize),
    /// `accepting` has a different length than the transition table.
    AcceptingLengthMismatch {
        /// Number of states in the transition table.
        states: usize,
        /// Length of the accepting vector.
        accepting: usize,
    },
    /// A row of the transition table has the wrong width.
    BadRowWidth {
        /// State whose row is malformed.
        state: usize,
        /// Expected width (alphabet size).
        expected: usize,
        /// Actual width found.
        got: usize,
    },
    /// A transition targets a state that does not exist.
    BadTarget {
        /// Source state of the bad transition.
        state: usize,
        /// Letter index of the bad transition.
        letter: usize,
        /// The out-of-range target.
        target: usize,
    },
}

impl fmt::Display for DfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfaError::NoStates => write!(f, "dfa must have at least one state"),
            DfaError::BadStart(s) => write!(f, "start state {s} is out of range"),
            DfaError::AcceptingLengthMismatch { states, accepting } => write!(
                f,
                "accepting vector has length {accepting} but there are {states} states"
            ),
            DfaError::BadRowWidth {
                state,
                expected,
                got,
            } => write!(
                f,
                "transition row for state {state} has width {got}, expected {expected}"
            ),
            DfaError::BadTarget {
                state,
                letter,
                target,
            } => write!(
                f,
                "transition from state {state} on letter {letter} targets missing state {target}"
            ),
        }
    }
}

impl Error for DfaError {}

/// A total deterministic finite automaton.
///
/// Every state has exactly one outgoing transition per alphabet letter, so
/// `accepts` runs in `O(|w|)` with no failure cases. Words containing
/// letters outside the alphabet are rejected.
///
/// ```
/// use tvg_langs::{Alphabet, Dfa, word};
///
/// // Even number of a's over {a,b}.
/// let dfa = Dfa::new(
///     Alphabet::ab(),
///     vec![vec![1, 0], vec![0, 1]],
///     0,
///     vec![true, false],
/// )?;
/// assert!(dfa.accepts(&word("abab")));
/// assert!(!dfa.accepts(&word("ab")));
/// # Ok::<(), tvg_langs::DfaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet: Alphabet,
    /// `delta[s][a]` is the successor of state `s` on letter index `a`.
    delta: Vec<Vec<usize>>,
    start: usize,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Builds a DFA after validating the transition table shape.
    ///
    /// # Errors
    ///
    /// Returns a [`DfaError`] describing the first structural problem found.
    pub fn new(
        alphabet: Alphabet,
        delta: Vec<Vec<usize>>,
        start: usize,
        accepting: Vec<bool>,
    ) -> Result<Self, DfaError> {
        let n = delta.len();
        if n == 0 {
            return Err(DfaError::NoStates);
        }
        if start >= n {
            return Err(DfaError::BadStart(start));
        }
        if accepting.len() != n {
            return Err(DfaError::AcceptingLengthMismatch {
                states: n,
                accepting: accepting.len(),
            });
        }
        for (s, row) in delta.iter().enumerate() {
            if row.len() != alphabet.len() {
                return Err(DfaError::BadRowWidth {
                    state: s,
                    expected: alphabet.len(),
                    got: row.len(),
                });
            }
            for (a, &t) in row.iter().enumerate() {
                if t >= n {
                    return Err(DfaError::BadTarget {
                        state: s,
                        letter: a,
                        target: t,
                    });
                }
            }
        }
        Ok(Dfa {
            alphabet,
            delta,
            start,
            accepting,
        })
    }

    /// The alphabet this DFA reads.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.delta.len()
    }

    /// Start state index.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Whether state `s` is accepting.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn is_accepting(&self, s: usize) -> bool {
        self.accepting[s]
    }

    /// The state reached from `s` on letter `l`, or `None` if `l` is not in
    /// the alphabet.
    #[must_use]
    pub fn step(&self, s: usize, l: Letter) -> Option<usize> {
        self.alphabet.index_of(l).map(|a| self.delta[s][a])
    }

    /// Runs the DFA on `w` from the start state; `None` if `w` uses a
    /// letter outside the alphabet.
    #[must_use]
    pub fn run(&self, w: &Word) -> Option<usize> {
        let mut s = self.start;
        for l in w.iter() {
            s = self.step(s, l)?;
        }
        Some(s)
    }

    /// Returns `true` iff the DFA accepts `w`. Words using foreign letters
    /// are rejected.
    #[must_use]
    pub fn accepts(&self, w: &Word) -> bool {
        self.run(w).is_some_and(|s| self.accepting[s])
    }

    /// Product construction combining acceptance with `op`.
    ///
    /// Only reachable pairs are materialized.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ — combining languages over different
    /// alphabets is a programming error.
    fn product(&self, other: &Dfa, op: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "product of DFAs over different alphabets"
        );
        let k = self.alphabet.len();
        let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut queue = VecDeque::new();
        index.insert((self.start, other.start), 0);
        order.push((self.start, other.start));
        queue.push_back((self.start, other.start));
        let mut delta: Vec<Vec<usize>> = Vec::new();
        while let Some((p, q)) = queue.pop_front() {
            let mut row = Vec::with_capacity(k);
            for a in 0..k {
                let succ = (self.delta[p][a], other.delta[q][a]);
                let next = index.len();
                let id = *index.entry(succ).or_insert_with(|| {
                    order.push(succ);
                    queue.push_back(succ);
                    next
                });
                row.push(id);
            }
            delta.push(row);
        }
        let accepting = order
            .iter()
            .map(|&(p, q)| op(self.accepting[p], other.accepting[q]))
            .collect();
        Dfa {
            alphabet: self.alphabet.clone(),
            delta,
            start: 0,
            accepting,
        }
    }

    /// A shortest accepted word, or `None` if the language is empty.
    fn shortest_accepted(&self) -> Option<Word> {
        let mut parent: Vec<Option<(usize, Letter)>> = vec![None; self.num_states()];
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::new();
        seen[self.start] = true;
        queue.push_back(self.start);
        let mut hit = if self.accepting[self.start] {
            Some(self.start)
        } else {
            None
        };
        'bfs: while let Some(s) = queue.pop_front() {
            if hit.is_some() {
                break;
            }
            for a in 0..self.alphabet.len() {
                let t = self.delta[s][a];
                if !seen[t] {
                    seen[t] = true;
                    parent[t] = Some((s, self.alphabet.letter(a)));
                    if self.accepting[t] {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut letters = Vec::new();
        while let Some((prev, l)) = parent[cur] {
            letters.push(l);
            cur = prev;
        }
        letters.reverse();
        Some(Word::from_letters(letters))
    }

    /// A shortest word on which the two DFAs disagree, or `None` if they
    /// accept the same language.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    fn distinguishing_word(&self, other: &Dfa) -> Option<Word> {
        self.product(other, |a, b| a != b).shortest_accepted()
    }

    /// `true` iff both DFAs accept exactly the same language.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    #[must_use]
    pub fn equivalent_to(&self, other: &Dfa) -> bool {
        self.distinguishing_word(other).is_none()
    }

    /// The language-equivalent DFA with the minimum number of states
    /// (unreachable states removed, then partition refinement).
    ///
    /// ```
    /// use tvg_langs::{Alphabet, Dfa};
    /// // Two redundant copies of the "ends with a" automaton.
    /// let dfa = Dfa::new(
    ///     Alphabet::ab(),
    ///     vec![vec![1, 0], vec![1, 0], vec![1, 2]],
    ///     0,
    ///     vec![false, true, false],
    /// )?;
    /// assert_eq!(dfa.minimize().num_states(), 2);
    /// # Ok::<(), tvg_langs::DfaError>(())
    /// ```
    #[must_use]
    pub fn minimize(&self) -> Dfa {
        let trimmed = self.trim_unreachable();
        let n = trimmed.num_states();
        let k = trimmed.alphabet.len();
        // Moore partition refinement.
        let mut block: Vec<usize> = trimmed
            .accepting
            .iter()
            .map(|&acc| usize::from(acc))
            .collect();
        loop {
            let old_count = {
                let mut b = block.clone();
                b.sort_unstable();
                b.dedup();
                b.len()
            };
            let mut sig_index: BTreeMap<(usize, Vec<usize>), usize> = BTreeMap::new();
            let mut next_block = vec![0usize; n];
            for s in 0..n {
                let sig: Vec<usize> = (0..k).map(|a| block[trimmed.delta[s][a]]).collect();
                let key = (block[s], sig);
                let fresh = sig_index.len();
                next_block[s] = *sig_index.entry(key).or_insert(fresh);
            }
            // Signatures include the old block id, so classes only ever
            // split; a fixed class count means the partition is stable.
            let new_count = sig_index.len();
            block = next_block;
            if new_count == old_count {
                break;
            }
        }
        // Renumber blocks densely in order of first occurrence.
        let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
        for &b in &block {
            let fresh = remap.len();
            remap.entry(b).or_insert(fresh);
        }
        let m = remap.len();
        let mut delta = vec![vec![0usize; k]; m];
        let mut accepting = vec![false; m];
        for s in 0..n {
            let b = remap[&block[s]];
            accepting[b] = trimmed.accepting[s];
            for a in 0..k {
                delta[b][a] = remap[&block[trimmed.delta[s][a]]];
            }
        }
        Dfa {
            alphabet: trimmed.alphabet,
            delta,
            start: remap[&block[trimmed.start]],
            accepting,
        }
    }

    /// Removes states not reachable from the start state.
    fn trim_unreachable(&self) -> Dfa {
        let n = self.num_states();
        let k = self.alphabet.len();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[self.start] = true;
        queue.push_back(self.start);
        while let Some(s) = queue.pop_front() {
            for a in 0..k {
                let t = self.delta[s][a];
                if !seen[t] {
                    seen[t] = true;
                    queue.push_back(t);
                }
            }
        }
        let mut remap = vec![usize::MAX; n];
        let mut count = 0;
        for s in 0..n {
            if seen[s] {
                remap[s] = count;
                count += 1;
            }
        }
        let mut delta = Vec::with_capacity(count);
        let mut accepting = Vec::with_capacity(count);
        for s in 0..n {
            if seen[s] {
                delta.push((0..k).map(|a| remap[self.delta[s][a]]).collect());
                accepting.push(self.accepting[s]);
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            delta,
            start: remap[self.start],
            accepting,
        }
    }

    /// All accepted words of length at most `max_len`, in shortlex order.
    ///
    /// Exponential in `max_len`; intended for the small cross-validation
    /// lengths used by the experiments (≤ 12 over 2–3 letters).
    #[must_use]
    pub fn language_upto(&self, max_len: usize) -> Vec<Word> {
        let mut out = Vec::new();
        // Frontier of (state, word) pairs of the current length.
        let mut frontier: Vec<(usize, Word)> = vec![(self.start, Word::empty())];
        if self.accepting[self.start] {
            out.push(Word::empty());
        }
        for _ in 0..max_len {
            let mut next = Vec::with_capacity(frontier.len() * self.alphabet.len());
            for (s, w) in &frontier {
                for a in 0..self.alphabet.len() {
                    let t = self.delta[*s][a];
                    let w2 = w.appended(self.alphabet.letter(a));
                    if self.accepting[t] {
                        out.push(w2.clone());
                    }
                    next.push((t, w2));
                }
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word;

    /// DFA over {a,b} accepting words with an even number of a's.
    fn even_as() -> Dfa {
        Dfa::new(
            Alphabet::ab(),
            vec![vec![1, 0], vec![0, 1]],
            0,
            vec![true, false],
        )
        .expect("valid dfa")
    }

    /// DFA over {a,b} accepting words ending in b.
    fn ends_b() -> Dfa {
        Dfa::new(
            Alphabet::ab(),
            vec![vec![0, 1], vec![0, 1]],
            0,
            vec![false, true],
        )
        .expect("valid dfa")
    }

    /// The one-state DFA over `alphabet`: Σ* if `accepting`, else ∅.
    fn one_state(alphabet: Alphabet, accepting: bool) -> Dfa {
        let width = alphabet.len();
        Dfa::new(alphabet, vec![vec![0; width]], 0, vec![accepting]).expect("valid dfa")
    }

    #[test]
    fn construction_validates_shape() {
        assert_eq!(
            Dfa::new(Alphabet::ab(), vec![], 0, vec![]),
            Err(DfaError::NoStates)
        );
        assert_eq!(
            Dfa::new(Alphabet::ab(), vec![vec![0, 0]], 5, vec![true]),
            Err(DfaError::BadStart(5))
        );
        assert_eq!(
            Dfa::new(Alphabet::ab(), vec![vec![0]], 0, vec![true]),
            Err(DfaError::BadRowWidth {
                state: 0,
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            Dfa::new(Alphabet::ab(), vec![vec![0, 7]], 0, vec![true]),
            Err(DfaError::BadTarget {
                state: 0,
                letter: 1,
                target: 7
            })
        );
        assert_eq!(
            Dfa::new(Alphabet::ab(), vec![vec![0, 0]], 0, vec![]),
            Err(DfaError::AcceptingLengthMismatch {
                states: 1,
                accepting: 0
            })
        );
    }

    #[test]
    fn accepts_and_rejects() {
        let dfa = even_as();
        assert!(dfa.accepts(&Word::empty()));
        assert!(dfa.accepts(&word("aabb")));
        assert!(!dfa.accepts(&word("a")));
        assert!(!dfa.accepts(&word("bab")));
    }

    #[test]
    fn foreign_letters_rejected() {
        assert!(!even_as().accepts(&word("ac")));
        assert_eq!(even_as().run(&word("c")), None);
    }

    #[test]
    fn boolean_products() {
        let inter = even_as().product(&ends_b(), |a, b| a && b);
        assert!(inter.accepts(&word("aab")));
        assert!(!inter.accepts(&word("ab")));
        assert!(!inter.accepts(&word("aa")));

        let uni = even_as().product(&ends_b(), |a, b| a || b);
        assert!(uni.accepts(&word("ab")));
        assert!(uni.accepts(&word("aa")));
        assert!(!uni.accepts(&word("a")));

        let diff = even_as().product(&ends_b(), |a, b| a && !b);
        assert!(diff.accepts(&word("aa")));
        assert!(!diff.accepts(&word("aab")));
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn product_alphabet_mismatch_panics() {
        let other = one_state(Alphabet::abc(), true);
        let _ = even_as().equivalent_to(&other);
    }

    #[test]
    fn emptiness_and_witness() {
        assert_eq!(one_state(Alphabet::ab(), false).shortest_accepted(), None);
        assert_eq!(
            one_state(Alphabet::ab(), true).shortest_accepted(),
            Some(Word::empty())
        );
        assert_eq!(ends_b().shortest_accepted(), Some(word("b")));
    }

    #[test]
    fn equivalence_and_distinguishing() {
        let a = even_as();
        let b = even_as().minimize();
        assert!(a.equivalent_to(&b));
        let w = a.distinguishing_word(&ends_b()).expect("must differ");
        assert_ne!(a.accepts(&w), ends_b().accepts(&w));
        // The witness is shortest: ε already distinguishes them.
        assert_eq!(w, Word::empty());
    }

    #[test]
    fn minimize_collapses_redundancy() {
        // Build even_as with duplicated states.
        let bloated = Dfa::new(
            Alphabet::ab(),
            vec![
                vec![1, 2], // 0 even (dup of 2's class)
                vec![0, 3], // 1 odd
                vec![3, 0], // 2 even
                vec![2, 1], // 3 odd
            ],
            0,
            vec![true, false, true, false],
        )
        .expect("valid");
        let min = bloated.minimize();
        assert_eq!(min.num_states(), 2);
        assert!(min.equivalent_to(&even_as()));
    }

    #[test]
    fn minimize_drops_unreachable() {
        let dfa = Dfa::new(
            Alphabet::ab(),
            vec![vec![0, 0], vec![1, 1]],
            0,
            vec![true, true],
        )
        .expect("valid");
        assert_eq!(dfa.minimize().num_states(), 1);
    }

    #[test]
    fn minimize_of_empty_language_is_single_state() {
        let min = one_state(Alphabet::ab(), false).minimize();
        assert_eq!(min.num_states(), 1);
        assert_eq!(min.shortest_accepted(), None);
    }

    #[test]
    fn language_enumeration_shortlex() {
        let words = ends_b().language_upto(2);
        assert_eq!(words, vec![word("b"), word("ab"), word("bb")]);
    }
}
