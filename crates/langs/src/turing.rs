//! Deterministic single-tape Turing machines.
//!
//! Theorem 2.1 says every *computable* language is the no-wait language of
//! some TVG. The environment's presence function carries the computation,
//! and "computable" is witnessed here by actual machines: the
//! `tvg-expressivity` crate plugs [`TuringMachine::decide`] into its
//! Theorem-2.1 construction so that the resulting TVG's schedule literally
//! runs a Turing machine.

use crate::Word;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Head movement of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// One cell left.
    Left,
    /// One cell right.
    Right,
    /// Stay put.
    Stay,
}

/// Outcome of running a machine with bounded fuel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TmOutcome {
    /// The machine reached its accept state.
    Accepted,
    /// The machine reached its reject state or had no applicable transition.
    Rejected,
    /// The step budget was exhausted before halting.
    OutOfFuel,
}

/// Errors from assembling a [`TuringMachine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmError {
    /// A rule references a state name that was never declared.
    UnknownState(String),
    /// Two rules share the same (state, symbol) trigger.
    DuplicateRule {
        /// State name of the duplicated trigger.
        state: String,
        /// Tape symbol of the duplicated trigger.
        symbol: char,
    },
    /// The tape symbol is not printable ASCII or the blank `_`.
    BadSymbol(char),
}

impl fmt::Display for TmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmError::UnknownState(s) => write!(f, "unknown state {s:?}"),
            TmError::DuplicateRule { state, symbol } => {
                write!(f, "duplicate rule for state {state:?} on symbol {symbol:?}")
            }
            TmError::BadSymbol(c) => write!(f, "tape symbol {c:?} is not printable ascii or '_'"),
        }
    }
}

impl Error for TmError {}

/// The blank tape symbol.
const BLANK: char = '_';

/// Builder for [`TuringMachine`]; states are referred to by name, and the
/// state named `"accept"` accepts.
///
/// ```
/// use tvg_langs::{TmBuilder, Move, word};
///
/// // Accept words of even length.
/// let tm = TmBuilder::new("even")
///     .rule("even", 'a', "odd", 'a', Move::Right)?
///     .rule("odd", 'a', "even", 'a', Move::Right)?
///     .rule("even", '_', "accept", '_', Move::Stay)?
///     .build()?;
/// assert!(tm.decide(&word("aa"), 1_000));
/// assert!(!tm.decide(&word("aaa"), 1_000));
/// # Ok::<(), tvg_langs::TmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TmBuilder {
    start: String,
    rules: Vec<(String, char, String, char, Move)>,
}

impl TmBuilder {
    /// Starts building a machine whose initial state is `start`.
    #[must_use]
    pub fn new(start: &str) -> Self {
        TmBuilder {
            start: start.to_string(),
            rules: Vec::new(),
        }
    }

    /// Adds the transition `(state, read) -> (next, write, move)`.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::BadSymbol`] for non-printable tape symbols.
    pub fn rule(
        mut self,
        state: &str,
        read: char,
        next: &str,
        write: char,
        mv: Move,
    ) -> Result<Self, TmError> {
        for c in [read, write] {
            if c != BLANK && !c.is_ascii_graphic() {
                return Err(TmError::BadSymbol(c));
            }
        }
        self.rules
            .push((state.to_string(), read, next.to_string(), write, mv));
        Ok(self)
    }

    /// Finalizes the machine.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::DuplicateRule`] if two rules share a trigger.
    pub fn build(self) -> Result<TuringMachine, TmError> {
        let mut names: Vec<String> = Vec::new();
        let intern = |name: &str, names: &mut Vec<String>| -> usize {
            if let Some(i) = names.iter().position(|n| n == name) {
                i
            } else {
                names.push(name.to_string());
                names.len() - 1
            }
        };
        let start = intern(&self.start, &mut names);
        let accept = intern("accept", &mut names);
        let mut delta = HashMap::new();
        for (state, read, next, write, mv) in &self.rules {
            let s = intern(state, &mut names);
            let t = intern(next, &mut names);
            if delta.insert((s, *read), (t, *write, *mv)).is_some() {
                return Err(TmError::DuplicateRule {
                    state: state.clone(),
                    symbol: *read,
                });
            }
        }
        Ok(TuringMachine {
            names,
            start,
            accept,
            delta,
        })
    }
}

/// A deterministic single-tape Turing machine.
///
/// Missing transitions reject (the usual convention), so machines only
/// spell out their accepting paths.
#[derive(Debug, Clone)]
pub struct TuringMachine {
    names: Vec<String>,
    start: usize,
    accept: usize,
    delta: HashMap<(usize, char), (usize, char, Move)>,
}

impl TuringMachine {
    /// Number of (reachable-by-name) states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.names.len()
    }

    /// Number of transition rules.
    #[must_use]
    pub fn num_rules(&self) -> usize {
        self.delta.len()
    }

    /// Runs on `input` with at most `fuel` steps.
    fn run(&self, input: &Word, fuel: usize) -> TmOutcome {
        let mut tape: VecDeque<char> = input.iter().map(|l| l.as_char()).collect();
        if tape.is_empty() {
            tape.push_back(BLANK);
        }
        let mut head: usize = 0;
        let mut state = self.start;
        for _ in 0..fuel {
            if state == self.accept {
                return TmOutcome::Accepted;
            }
            let read = tape[head];
            let Some(&(next, write, mv)) = self.delta.get(&(state, read)) else {
                return TmOutcome::Rejected;
            };
            tape[head] = write;
            state = next;
            match mv {
                Move::Stay => {}
                Move::Right => {
                    head += 1;
                    if head == tape.len() {
                        tape.push_back(BLANK);
                    }
                }
                Move::Left => {
                    if head == 0 {
                        tape.push_front(BLANK);
                    } else {
                        head -= 1;
                    }
                }
            }
        }
        if state == self.accept {
            TmOutcome::Accepted
        } else {
            TmOutcome::OutOfFuel
        }
    }

    /// Membership as a plain boolean: out-of-fuel counts as rejection.
    ///
    /// The machines in [`machines`] halt on every input well within the
    /// fuel budgets the experiments use, so this is a total decider there.
    #[must_use]
    pub fn decide(&self, input: &Word, fuel: usize) -> bool {
        self.run(input, fuel) == TmOutcome::Accepted
    }
}

/// A library of concrete machines used by the Theorem-2.1 experiments.
pub mod machines {
    use super::{Move, TmBuilder, TuringMachine};

    /// Decider for `{aⁿbⁿ : n ≥ 1}` — the language of the paper's Figure 1.
    #[must_use]
    pub fn anbn() -> TuringMachine {
        TmBuilder::new("q0")
            // Mark a leading 'a', find the matching 'b'.
            .and_rule("q0", 'a', "q1", 'X', Move::Right)
            .and_rule("q0", 'Y', "q3", 'Y', Move::Right)
            .and_rule("q1", 'a', "q1", 'a', Move::Right)
            .and_rule("q1", 'Y', "q1", 'Y', Move::Right)
            .and_rule("q1", 'b', "q2", 'Y', Move::Left)
            .and_rule("q2", 'a', "q2", 'a', Move::Left)
            .and_rule("q2", 'Y', "q2", 'Y', Move::Left)
            .and_rule("q2", 'X', "q0", 'X', Move::Right)
            // Verification: only Y's remain.
            .and_rule("q3", 'Y', "q3", 'Y', Move::Right)
            .and_rule("q3", '_', "accept", '_', Move::Stay)
            .build()
            .expect("static machine is valid")
    }

    /// Decider for the context-sensitive `{aⁿbⁿcⁿ : n ≥ 1}`.
    #[must_use]
    pub fn anbncn() -> TuringMachine {
        TmBuilder::new("q0")
            .and_rule("q0", 'a', "q1", 'X', Move::Right)
            .and_rule("q0", 'Y', "q4", 'Y', Move::Right)
            .and_rule("q1", 'a', "q1", 'a', Move::Right)
            .and_rule("q1", 'Y', "q1", 'Y', Move::Right)
            .and_rule("q1", 'b', "q2", 'Y', Move::Right)
            .and_rule("q2", 'b', "q2", 'b', Move::Right)
            .and_rule("q2", 'Z', "q2", 'Z', Move::Right)
            .and_rule("q2", 'c', "q3", 'Z', Move::Left)
            .and_rule("q3", 'a', "q3", 'a', Move::Left)
            .and_rule("q3", 'b', "q3", 'b', Move::Left)
            .and_rule("q3", 'Y', "q3", 'Y', Move::Left)
            .and_rule("q3", 'Z', "q3", 'Z', Move::Left)
            .and_rule("q3", 'X', "q0", 'X', Move::Right)
            .and_rule("q4", 'Y', "q4", 'Y', Move::Right)
            .and_rule("q4", 'Z', "q4", 'Z', Move::Right)
            .and_rule("q4", '_', "accept", '_', Move::Stay)
            .build()
            .expect("static machine is valid")
    }

    /// Decider for palindromes (any length, including ε) over `{a, b}`.
    #[must_use]
    pub fn palindrome() -> TuringMachine {
        TmBuilder::new("q0")
            .and_rule("q0", '_', "accept", '_', Move::Stay)
            .and_rule("q0", 'a', "ra", '_', Move::Right)
            .and_rule("q0", 'b', "rb", '_', Move::Right)
            // Scan right to the last symbol.
            .and_rule("ra", 'a', "ra", 'a', Move::Right)
            .and_rule("ra", 'b', "ra", 'b', Move::Right)
            .and_rule("ra", '_', "ca", '_', Move::Left)
            .and_rule("rb", 'a', "rb", 'a', Move::Right)
            .and_rule("rb", 'b', "rb", 'b', Move::Right)
            .and_rule("rb", '_', "cb", '_', Move::Left)
            // Check it matches the erased first symbol.
            .and_rule("ca", 'a', "back", '_', Move::Left)
            .and_rule("ca", '_', "accept", '_', Move::Stay)
            .and_rule("cb", 'b', "back", '_', Move::Left)
            .and_rule("cb", '_', "accept", '_', Move::Stay)
            // Return to the left end.
            .and_rule("back", 'a', "back", 'a', Move::Left)
            .and_rule("back", 'b', "back", 'b', Move::Left)
            .and_rule("back", '_', "q0", '_', Move::Right)
            .build()
            .expect("static machine is valid")
    }

    impl TmBuilder {
        /// Infallible [`TmBuilder::rule`] for the static machines above,
        /// whose symbols are known-good.
        #[must_use]
        fn and_rule(self, state: &str, read: char, next: &str, write: char, mv: Move) -> Self {
            self.rule(state, read, next, write, mv)
                .expect("static machine symbols are printable")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::machines;
    use super::*;
    use crate::sample::words_upto;
    use crate::{word, Alphabet};

    const FUEL: usize = 100_000;

    #[test]
    fn anbn_matches_reference_exhaustively() {
        let tm = machines::anbn();
        for w in words_upto(&Alphabet::ab(), 10) {
            let n = w.count_char('a');
            let expected = n >= 1
                && w.len() == 2 * n
                && w.iter().take(n).all(|l| l.as_char() == 'a')
                && w.iter().skip(n).all(|l| l.as_char() == 'b');
            assert_eq!(tm.decide(&w, FUEL), expected, "{w}");
        }
    }

    #[test]
    fn anbncn_matches_reference_exhaustively() {
        let tm = machines::anbncn();
        for w in words_upto(&Alphabet::abc(), 9) {
            let n = w.count_char('a');
            let expected = n >= 1
                && w.len() == 3 * n
                && w.iter().take(n).all(|l| l.as_char() == 'a')
                && w.iter().skip(n).take(n).all(|l| l.as_char() == 'b')
                && w.iter().skip(2 * n).all(|l| l.as_char() == 'c');
            assert_eq!(tm.decide(&w, FUEL), expected, "{w}");
        }
    }

    #[test]
    fn palindrome_matches_reference_exhaustively() {
        let tm = machines::palindrome();
        for w in words_upto(&Alphabet::ab(), 9) {
            let expected = w == w.reversed();
            assert_eq!(tm.decide(&w, FUEL), expected, "{w}");
        }
    }

    #[test]
    fn long_inputs_accepted() {
        let tm = machines::anbn();
        let w = word(&format!("{}{}", "a".repeat(60), "b".repeat(60)));
        assert!(tm.decide(&w, 1_000_000));
        let w_bad = word(&format!("{}{}", "a".repeat(60), "b".repeat(59)));
        assert!(!tm.decide(&w_bad, 1_000_000));
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let tm = machines::anbn();
        let w = word("aaaaabbbbb");
        assert_eq!(tm.run(&w, 3), TmOutcome::OutOfFuel);
        assert_eq!(tm.run(&w, FUEL), TmOutcome::Accepted);
    }

    #[test]
    fn missing_transition_rejects() {
        let tm = TmBuilder::new("s").build().expect("valid");
        assert_eq!(tm.run(&word("a"), 10), TmOutcome::Rejected);
    }

    #[test]
    fn duplicate_rule_rejected_at_build() {
        let err = TmBuilder::new("s")
            .rule("s", 'a', "s", 'a', Move::Right)
            .expect("ok")
            .rule("s", 'a', "t", 'b', Move::Left)
            .expect("ok")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TmError::DuplicateRule {
                state: "s".to_string(),
                symbol: 'a'
            }
        );
    }

    #[test]
    fn bad_symbol_rejected() {
        let err = TmBuilder::new("s")
            .rule("s", 'é', "s", 'a', Move::Stay)
            .unwrap_err();
        assert_eq!(err, TmError::BadSymbol('é'));
    }

    #[test]
    fn empty_word_handling() {
        assert!(machines::palindrome().decide(&Word::empty(), FUEL));
        assert!(!machines::anbn().decide(&Word::empty(), FUEL));
        assert!(!machines::anbncn().decide(&Word::empty(), FUEL));
    }

    #[test]
    fn machine_sizes_reported() {
        let tm = machines::anbncn();
        assert!(tm.num_states() >= 6);
        assert!(tm.num_rules() >= 15);
    }
}
