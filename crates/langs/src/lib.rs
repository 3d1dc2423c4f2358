//! Formal-language substrate for the *Waiting in Dynamic Networks*
//! reproduction.
//!
//! The paper measures the power of waiting in dynamic networks by the
//! *language class* a time-varying graph can express: Turing-complete
//! without waiting (Theorem 2.1), exactly regular with waiting
//! (Theorem 2.2). This crate supplies every formal-language object those
//! statements quantify over:
//!
//! * [`Letter`], [`Alphabet`], [`Word`] — the vocabulary journeys spell.
//! * [`Dfa`], [`Nfa`], [`Regex`] — the regular side of Theorem 2.2, with
//!   minimization and exact equivalence checking.
//! * [`synth`] — regex synthesis from DFAs (state elimination), so a
//!   waiting language can be *printed* as a regular expression.
//! * [`Grammar`] — context-free reference deciders (Earley recognizer) for
//!   the paper's `aⁿbⁿ` example.
//! * [`TuringMachine`] — the computable side of Theorem 2.1; real machines
//!   whose deciders get compiled into TVG schedules.
//! * [`counter`] — counter machines, a second machine model used as an
//!   independent Theorem 2.1 witness.
//! * [`myhill`] — empirical Myhill–Nerode residual analysis used as
//!   regularity evidence in experiment E3.
//! * [`learn`] — Angluin's L\* active DFA learning; Theorem 2.2 made
//!   operational (regular ⟹ learnable from membership queries).
//! * [`sample`] — word enumeration for exhaustive bounded comparisons.
//!
//! # Examples
//!
//! ```
//! use tvg_langs::{Alphabet, Grammar, Regex, word};
//!
//! // The paper's headline language, recognized by a grammar...
//! let anbn = Grammar::anbn();
//! assert!(anbn.recognizes(&word("aaabbb")));
//!
//! // ...provably not regular: no DFA below any fixed size matches it, but
//! // regular approximations exist:
//! let approx = Regex::parse("a+b+", &Alphabet::ab())?;
//! let dfa = approx.to_nfa(&Alphabet::ab()).to_dfa().minimize();
//! assert!(dfa.accepts(&word("aaabbb")));
//! assert!(dfa.accepts(&word("aab"))); // ...but over-approximates
//! # Ok::<(), tvg_langs::RegexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
pub mod counter;
mod dfa;
mod grammar;
pub mod learn;
pub mod myhill;
mod nfa;
mod regex;
pub mod sample;
pub mod synth;
mod turing;

pub use alphabet::{word, Alphabet, AlphabetError, Letter, Word};
pub use dfa::{Dfa, DfaError};
pub use grammar::{Grammar, GrammarError};
pub use nfa::{Nfa, NfaError};
pub use regex::{Regex, RegexError};
pub use turing::{machines, Move, TmBuilder, TmError, TuringMachine};
