//! Counter machines — a second machine model witnessing "computable" in
//! Theorem 2.1.
//!
//! Here they serve as an independent decider family for the Theorem 2.1
//! experiments (the TVG schedule can run *any* machine model — plugging in
//! two of them guards against the construction accidentally depending on
//! one interpreter's quirks).
//!
//! Programs operate on a vector of counters with decrement-or-jump and
//! accept/reject halts, the instructions the stock program needs; inputs
//! enter through an encoding function from words to initial counter
//! values.

use crate::Word;

/// A counter-machine instruction; `usize` operands are instruction
/// addresses, `Reg` values index counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Instr {
    /// If `counters[r] > 0`: decrement and `goto next`; else `goto on_zero`.
    Dec {
        /// Counter to test-and-decrement.
        r: usize,
        /// Address when the counter was positive.
        next: usize,
        /// Address when the counter was zero.
        on_zero: usize,
    },
    /// Halt and accept.
    Accept,
    /// Halt and reject.
    Reject,
}

/// Errors from assembling a [`CounterMachine`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum CounterError {
    /// An instruction jumps to a missing address.
    BadAddress {
        /// Instruction index containing the bad jump.
        at: usize,
        /// The missing target.
        target: usize,
    },
    /// An instruction uses a counter index outside the declared arity.
    BadRegister {
        /// Instruction index containing the bad register.
        at: usize,
        /// The out-of-range register.
        register: usize,
    },
    /// The program is empty.
    Empty,
}

/// Outcome of a bounded counter-machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CounterOutcome {
    /// Halted in `Accept`.
    Accepted,
    /// Halted in `Reject`.
    Rejected,
    /// Fuel exhausted first.
    OutOfFuel,
}

/// A Minsky counter machine: a program over `num_counters` counters.
///
/// ```
/// use tvg_langs::counter::programs;
/// use tvg_langs::word;
///
/// // Accept iff the word has as many a's as b's (counter 0 == counter 1).
/// let eq = programs::equal();
/// let counts = |w: &tvg_langs::Word| vec![w.count_char('a') as u64, w.count_char('b') as u64];
/// assert!(eq.decide_encoded(counts, &word("abba"), 100));
/// assert!(!eq.decide_encoded(counts, &word("aab"), 100));
/// ```
#[derive(Debug, Clone)]
pub struct CounterMachine {
    num_counters: usize,
    program: Vec<Instr>,
}

impl CounterMachine {
    /// Assembles a program after validating its jumps and registers.
    ///
    /// # Errors
    ///
    /// Returns a [`CounterError`] locating the first malformed
    /// instruction.
    fn new(num_counters: usize, program: Vec<Instr>) -> Result<Self, CounterError> {
        if program.is_empty() {
            return Err(CounterError::Empty);
        }
        let n = program.len();
        for (at, ins) in program.iter().enumerate() {
            let Instr::Dec { r, next, on_zero } = *ins else {
                continue;
            };
            if let Some(&target) = [next, on_zero].iter().find(|&&t| t >= n) {
                return Err(CounterError::BadAddress { at, target });
            }
            if r >= num_counters {
                return Err(CounterError::BadRegister { at, register: r });
            }
        }
        Ok(CounterMachine {
            num_counters,
            program,
        })
    }

    /// Runs from instruction 0 with the given initial counters, for at
    /// most `fuel` steps. Missing initial counters default to 0.
    fn run(&self, initial: &[u64], fuel: usize) -> CounterOutcome {
        let mut counters = vec![0u64; self.num_counters];
        for (c, &v) in counters.iter_mut().zip(initial) {
            *c = v;
        }
        let mut pc = 0usize;
        for _ in 0..fuel {
            match self.program[pc] {
                Instr::Dec { r, next, on_zero } => {
                    if counters[r] > 0 {
                        counters[r] -= 1;
                        pc = next;
                    } else {
                        pc = on_zero;
                    }
                }
                Instr::Accept => return CounterOutcome::Accepted,
                Instr::Reject => return CounterOutcome::Rejected,
            }
        }
        CounterOutcome::OutOfFuel
    }

    /// Membership decider through a word-to-counters encoding.
    #[must_use]
    pub fn decide_encoded<F: Fn(&Word) -> Vec<u64>>(
        &self,
        encode: F,
        w: &Word,
        fuel: usize,
    ) -> bool {
        self.run(&encode(w), fuel) == CounterOutcome::Accepted
    }
}

/// The stock program the Theorem 2.1 experiments run.
pub mod programs {
    use super::{CounterMachine, Instr};

    /// Accepts iff counter 0 equals counter 1.
    #[must_use]
    pub fn equal() -> CounterMachine {
        CounterMachine::new(
            2,
            vec![
                Instr::Dec {
                    r: 0,
                    next: 1,
                    on_zero: 2,
                },
                Instr::Dec {
                    r: 1,
                    next: 0,
                    on_zero: 4,
                },
                Instr::Dec {
                    r: 1,
                    next: 4,
                    on_zero: 3,
                },
                Instr::Accept,
                Instr::Reject,
            ],
        )
        .expect("static program is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::programs;
    use super::*;
    use crate::sample::words_upto;
    use crate::Alphabet;

    #[test]
    fn equality_program_is_correct() {
        let eq = programs::equal();
        for a in 0u64..8 {
            for b in 0u64..8 {
                let expected = if a == b {
                    CounterOutcome::Accepted
                } else {
                    CounterOutcome::Rejected
                };
                assert_eq!(eq.run(&[a, b], 1_000), expected, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn anbn_via_counters_and_shape_check() {
        // {aⁿbⁿ} = shape a*b* (regular) ∩ equal counts (counter machine).
        let eq = programs::equal();
        let shape = crate::Regex::parse("a*b*", &Alphabet::ab())
            .expect("parses")
            .to_nfa(&Alphabet::ab())
            .to_dfa();
        let decide = |w: &Word| {
            w.len() >= 2
                && shape.accepts(w)
                && eq.decide_encoded(
                    |w| vec![w.count_char('a') as u64, w.count_char('b') as u64],
                    w,
                    10_000,
                )
        };
        for w in words_upto(&Alphabet::ab(), 9) {
            let n = w.count_char('a');
            let expected = n >= 1
                && w.len() == 2 * n
                && w.iter().take(n).all(|l| l.as_char() == 'a')
                && w.iter().skip(n).all(|l| l.as_char() == 'b');
            assert_eq!(decide(&w), expected, "{w}");
        }
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            CounterMachine::new(1, vec![]).unwrap_err(),
            CounterError::Empty
        );
        assert_eq!(
            CounterMachine::new(
                1,
                vec![Instr::Dec {
                    r: 0,
                    next: 7,
                    on_zero: 0
                }]
            )
            .unwrap_err(),
            CounterError::BadAddress { at: 0, target: 7 }
        );
        assert_eq!(
            CounterMachine::new(
                1,
                vec![Instr::Dec {
                    r: 3,
                    next: 0,
                    on_zero: 0
                }]
            )
            .unwrap_err(),
            CounterError::BadRegister { at: 0, register: 3 }
        );
    }

    #[test]
    fn fuel_exhaustion_detected() {
        // Tight loop: a zero counter jumps back to itself forever.
        let spin = CounterMachine::new(
            1,
            vec![Instr::Dec {
                r: 0,
                next: 0,
                on_zero: 0,
            }],
        )
        .expect("valid");
        assert_eq!(spin.run(&[], 100), CounterOutcome::OutOfFuel);
    }

    #[test]
    fn missing_initial_counters_default_to_zero() {
        let eq = programs::equal();
        assert_eq!(eq.run(&[], 100), CounterOutcome::Accepted); // 0 == 0
        assert_eq!(eq.run(&[1], 100), CounterOutcome::Rejected); // 1 != 0
    }
}
