//! Context-free grammars with an Earley recognizer.
//!
//! The paper's Figure 1 produces the context-free language `aⁿbⁿ` from a
//! TVG with direct journeys only; grammars serve as independent *reference
//! deciders* when cross-checking that construction (experiment E1/E2).
//!
//! Notation accepted by [`Grammar::from_rules`]: one rule per line,
//! `S -> a S b | ε`. Uppercase ASCII letters are nonterminals, every other
//! printable character is a terminal, `ε` (or an empty branch) is the empty
//! word. The first rule's left-hand side is the start symbol.

use crate::{Letter, Word};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A grammar symbol: terminal letter or nonterminal index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sym {
    /// Terminal.
    T(Letter),
    /// Nonterminal (index into the grammar's nonterminal table).
    N(usize),
}

/// Errors from parsing a grammar description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// No rules were given.
    Empty,
    /// A rule line is missing the `->` separator.
    MissingArrow {
        /// 1-based line number of the malformed rule.
        line: usize,
    },
    /// A rule's left-hand side is not a single uppercase letter.
    BadLhs {
        /// 1-based line number of the malformed rule.
        line: usize,
    },
    /// A symbol on a right-hand side is not printable ASCII.
    BadSymbol {
        /// 1-based line number of the malformed rule.
        line: usize,
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Empty => write!(f, "grammar has no rules"),
            GrammarError::MissingArrow { line } => {
                write!(f, "rule on line {line} is missing '->'")
            }
            GrammarError::BadLhs { line } => write!(
                f,
                "left-hand side on line {line} must be a single uppercase letter"
            ),
            GrammarError::BadSymbol { line, ch } => {
                write!(f, "symbol {ch:?} on line {line} is not printable ascii")
            }
        }
    }
}

impl Error for GrammarError {}

/// A context-free grammar with an Earley membership test.
///
/// ```
/// use tvg_langs::{Grammar, word};
/// let g = Grammar::from_rules("S -> a S b | a b")?;
/// assert!(g.recognizes(&word("aabb")));
/// assert!(!g.recognizes(&word("aab")));
/// # Ok::<(), tvg_langs::GrammarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Display names of nonterminals (single uppercase chars).
    nonterminals: Vec<char>,
    start: usize,
    /// `(lhs nonterminal, rhs symbols)`.
    productions: Vec<(usize, Vec<Sym>)>,
    nullable: Vec<bool>,
}

impl Grammar {
    /// Parses a grammar from rule lines (see module docs for notation).
    ///
    /// # Errors
    ///
    /// Returns a [`GrammarError`] locating the first malformed rule.
    pub fn from_rules(rules: &str) -> Result<Self, GrammarError> {
        let mut nonterminals: Vec<char> = Vec::new();
        let mut raw: Vec<(char, Vec<String>)> = Vec::new();
        for (lineno, line) in rules.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((lhs, rhs)) = line.split_once("->") else {
                return Err(GrammarError::MissingArrow { line: lineno + 1 });
            };
            let lhs = lhs.trim();
            let mut chars = lhs.chars();
            let (Some(l), None) = (chars.next(), chars.next()) else {
                return Err(GrammarError::BadLhs { line: lineno + 1 });
            };
            if !l.is_ascii_uppercase() {
                return Err(GrammarError::BadLhs { line: lineno + 1 });
            }
            if !nonterminals.contains(&l) {
                nonterminals.push(l);
            }
            let branches = rhs.split('|').map(|b| b.trim().to_string()).collect();
            raw.push((l, branches));
        }
        if raw.is_empty() {
            return Err(GrammarError::Empty);
        }
        // Second pass: nonterminals referenced only on RHS.
        for (lineno, (_, branches)) in raw.iter().enumerate() {
            for b in branches {
                for c in b.chars() {
                    if c.is_ascii_uppercase() && !nonterminals.contains(&c) {
                        let _ = lineno;
                        nonterminals.push(c);
                    }
                }
            }
        }
        let mut productions = Vec::new();
        for (lineno, (lhs, branches)) in raw.iter().enumerate() {
            let lhs_idx = nonterminals
                .iter()
                .position(|n| n == lhs)
                .expect("inserted");
            for b in branches {
                let mut syms = Vec::new();
                for c in b.chars() {
                    if c.is_whitespace() || c == 'ε' {
                        continue;
                    }
                    if c.is_ascii_uppercase() {
                        let n = nonterminals.iter().position(|&x| x == c).expect("inserted");
                        syms.push(Sym::N(n));
                    } else {
                        let l = Letter::new(c).map_err(|_| GrammarError::BadSymbol {
                            line: lineno + 1,
                            ch: c,
                        })?;
                        syms.push(Sym::T(l));
                    }
                }
                productions.push((lhs_idx, syms));
            }
        }
        let nullable = compute_nullable(nonterminals.len(), &productions);
        Ok(Grammar {
            nonterminals,
            start: 0,
            productions,
            nullable,
        })
    }

    /// Earley recognition: `true` iff `w` derives from the start symbol.
    #[must_use]
    pub fn recognizes(&self, w: &Word) -> bool {
        // Earley item: (production index, dot position, origin set).
        type Item = (usize, usize, usize);
        let n = w.len();
        let mut sets: Vec<Vec<Item>> = vec![Vec::new(); n + 1];
        let mut seen: Vec<HashSet<Item>> = vec![HashSet::new(); n + 1];

        let push =
            |sets: &mut Vec<Vec<Item>>, seen: &mut Vec<HashSet<Item>>, i: usize, item: Item| {
                if seen[i].insert(item) {
                    sets[i].push(item);
                }
            };

        for (p, (lhs, _)) in self.productions.iter().enumerate() {
            if *lhs == self.start {
                push(&mut sets, &mut seen, 0, (p, 0, 0));
            }
        }

        for i in 0..=n {
            let mut idx = 0;
            while idx < sets[i].len() {
                let (p, dot, origin) = sets[i][idx];
                idx += 1;
                let (lhs, rhs) = &self.productions[p];
                if dot < rhs.len() {
                    match rhs[dot] {
                        Sym::N(b) => {
                            // Predictor.
                            for (p2, (lhs2, _)) in self.productions.iter().enumerate() {
                                if *lhs2 == b {
                                    push(&mut sets, &mut seen, i, (p2, 0, i));
                                }
                            }
                            // Aycock–Horspool nullable shortcut: if B is
                            // nullable, also advance past it immediately.
                            if self.nullable[b] {
                                push(&mut sets, &mut seen, i, (p, dot + 1, origin));
                            }
                        }
                        Sym::T(t) => {
                            // Scanner.
                            if i < n && w.get(i) == Some(t) {
                                push(&mut sets, &mut seen, i + 1, (p, dot + 1, origin));
                            }
                        }
                    }
                } else {
                    // Completer.
                    let completed = *lhs;
                    let parents: Vec<Item> = sets[origin]
                        .iter()
                        .copied()
                        .filter(|&(p2, d2, _)| {
                            let (_, rhs2) = &self.productions[p2];
                            d2 < rhs2.len() && rhs2[d2] == Sym::N(completed)
                        })
                        .collect();
                    for (p2, d2, o2) in parents {
                        push(&mut sets, &mut seen, i, (p2, d2 + 1, o2));
                    }
                }
            }
        }

        sets[n].iter().any(|&(p, dot, origin)| {
            let (lhs, rhs) = &self.productions[p];
            *lhs == self.start && dot == rhs.len() && origin == 0
        })
    }

    /// The grammar `S -> a S b | ab` for the paper's headline language
    /// `{aⁿbⁿ : n ≥ 1}`.
    #[must_use]
    pub fn anbn() -> Self {
        Grammar::from_rules("S -> a S b | a b").expect("static grammar is valid")
    }

    /// Dyck-1: balanced strings of `a` (open) and `b` (close).
    #[must_use]
    pub fn dyck1() -> Self {
        Grammar::from_rules("S -> a S b S | ε").expect("static grammar is valid")
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (lhs, rhs)) in self.productions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{} ->", self.nonterminals[*lhs])?;
            if rhs.is_empty() {
                write!(f, " ε")?;
            }
            for s in rhs {
                match s {
                    Sym::T(l) => write!(f, " {l}")?,
                    Sym::N(n) => write!(f, " {}", self.nonterminals[*n])?,
                }
            }
        }
        Ok(())
    }
}

fn compute_nullable(n_nonterminals: usize, productions: &[(usize, Vec<Sym>)]) -> Vec<bool> {
    let mut nullable = vec![false; n_nonterminals];
    loop {
        let mut changed = false;
        for (lhs, rhs) in productions {
            if nullable[*lhs] {
                continue;
            }
            let all_nullable = rhs.iter().all(|s| match s {
                Sym::T(_) => false,
                Sym::N(b) => nullable[*b],
            });
            if all_nullable {
                nullable[*lhs] = true;
                changed = true;
            }
        }
        if !changed {
            return nullable;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::words_upto;
    use crate::{word, Alphabet};

    #[test]
    fn anbn_matches_reference() {
        let g = Grammar::anbn();
        for w in words_upto(&Alphabet::ab(), 10) {
            let expected = {
                let n = w.count_char('a');
                n >= 1
                    && w.len() == 2 * n
                    && w.iter().take(n).all(|l| l.as_char() == 'a')
                    && w.iter().skip(n).all(|l| l.as_char() == 'b')
            };
            assert_eq!(g.recognizes(&w), expected, "{w}");
        }
    }

    #[test]
    fn dyck_matches_counter_reference() {
        let g = Grammar::dyck1();
        let balanced = |w: &Word| {
            let mut depth: i64 = 0;
            for l in w.iter() {
                depth += if l.as_char() == 'a' { 1 } else { -1 };
                if depth < 0 {
                    return false;
                }
            }
            depth == 0
        };
        for w in words_upto(&Alphabet::ab(), 10) {
            assert_eq!(g.recognizes(&w), balanced(&w), "{w}");
        }
    }

    #[test]
    fn even_palindromes_match_reference() {
        let g = Grammar::from_rules("S -> a S a | b S b | ε").expect("valid");
        for w in words_upto(&Alphabet::ab(), 9) {
            let expected = w.len() % 2 == 0 && w == w.reversed();
            assert_eq!(g.recognizes(&w), expected, "{w}");
        }
    }

    #[test]
    fn epsilon_handling() {
        let g = Grammar::from_rules("S -> ε").expect("valid");
        assert!(g.recognizes(&Word::empty()));
        assert!(!g.recognizes(&word("a")));
    }

    #[test]
    fn nullable_chains() {
        // S -> A B, A -> ε, B -> ε | a: tests the nullable shortcut.
        let g = Grammar::from_rules("S -> A B\nA -> ε\nB -> ε | a").expect("valid");
        assert!(g.recognizes(&Word::empty()));
        assert!(g.recognizes(&word("a")));
        assert!(!g.recognizes(&word("aa")));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(Grammar::from_rules("").unwrap_err(), GrammarError::Empty);
        assert_eq!(
            Grammar::from_rules("S a b").unwrap_err(),
            GrammarError::MissingArrow { line: 1 }
        );
        assert_eq!(
            Grammar::from_rules("sx -> a").unwrap_err(),
            GrammarError::BadLhs { line: 1 }
        );
    }

    #[test]
    fn display_shows_rules() {
        let g = Grammar::from_rules("S -> a S b | ε").expect("valid");
        let shown = g.to_string();
        assert!(shown.contains("S -> a S b"));
        assert!(shown.contains("S -> ε"));
    }

    #[test]
    fn deep_nesting_recognized() {
        let g = Grammar::anbn();
        let mut w = String::new();
        for _ in 0..40 {
            w.insert(0, 'a');
            w.push('b');
        }
        assert!(g.recognizes(&word(&w)));
        w.push('b');
        assert!(!g.recognizes(&word(&w)));
    }
}
