//! Letters, alphabets, and words — the vocabulary journeys are spelled in.
//!
//! In the paper, TVG edges are labeled by symbols of an alphabet Σ and a
//! journey spells the word formed by its edge labels. These types are shared
//! by every crate in the workspace.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A single symbol of an alphabet.
///
/// Letters wrap a printable ASCII byte; they display as the character
/// itself, so words print as plain strings (`"aabb"`).
///
/// ```
/// use tvg_langs::Letter;
/// let a = Letter::new('a')?;
/// assert_eq!(a.as_char(), 'a');
/// # Ok::<(), tvg_langs::AlphabetError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Letter(u8);

impl Letter {
    /// Creates a letter from a printable ASCII character.
    ///
    /// # Errors
    ///
    /// Returns [`AlphabetError::NotPrintableAscii`] for characters outside
    /// the printable ASCII range (space excluded).
    pub fn new(c: char) -> Result<Self, AlphabetError> {
        if c.is_ascii_graphic() {
            Ok(Letter(c as u8))
        } else {
            Err(AlphabetError::NotPrintableAscii(c))
        }
    }

    /// The character this letter displays as.
    #[must_use]
    pub fn as_char(self) -> char {
        self.0 as char
    }
}

impl fmt::Display for Letter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

/// Errors from constructing letters, alphabets, and words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlphabetError {
    /// The character is not printable ASCII.
    NotPrintableAscii(char),
    /// The same letter was given twice when building an alphabet.
    DuplicateLetter(char),
    /// An empty alphabet was requested where at least one letter is needed.
    Empty,
    /// A word used a letter that is not part of the alphabet.
    LetterNotInAlphabet(char),
}

impl fmt::Display for AlphabetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphabetError::NotPrintableAscii(c) => {
                write!(f, "character {c:?} is not printable ascii")
            }
            AlphabetError::DuplicateLetter(c) => {
                write!(f, "duplicate letter {c:?} in alphabet")
            }
            AlphabetError::Empty => write!(f, "alphabet must contain at least one letter"),
            AlphabetError::LetterNotInAlphabet(c) => {
                write!(f, "letter {c:?} is not in the alphabet")
            }
        }
    }
}

impl Error for AlphabetError {}

/// An ordered set of distinct letters.
///
/// The ordering fixes the column layout of DFA transition tables and the
/// digit assignment of the Theorem-2.1 time encoding, so it is part of the
/// type's contract.
///
/// ```
/// use tvg_langs::Alphabet;
/// let sigma = Alphabet::from_chars("ab")?;
/// assert_eq!(sigma.len(), 2);
/// assert_eq!(sigma.index_of_char('b'), Some(1));
/// # Ok::<(), tvg_langs::AlphabetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Alphabet {
    letters: Vec<Letter>,
}

impl Alphabet {
    /// Builds an alphabet from distinct printable ASCII characters.
    ///
    /// # Errors
    ///
    /// Returns an error if `chars` is empty, contains duplicates, or
    /// contains non-printable characters.
    pub fn from_chars(chars: &str) -> Result<Self, AlphabetError> {
        if chars.is_empty() {
            return Err(AlphabetError::Empty);
        }
        let mut letters = Vec::with_capacity(chars.len());
        for c in chars.chars() {
            let l = Letter::new(c)?;
            if letters.contains(&l) {
                return Err(AlphabetError::DuplicateLetter(c));
            }
            letters.push(l);
        }
        Ok(Alphabet { letters })
    }

    /// The binary alphabet `{a, b}` used throughout the paper's examples.
    #[must_use]
    pub fn ab() -> Self {
        Alphabet::from_chars("ab").expect("static alphabet is valid")
    }

    /// The ternary alphabet `{a, b, c}`.
    #[must_use]
    pub fn abc() -> Self {
        Alphabet::from_chars("abc").expect("static alphabet is valid")
    }

    /// Number of letters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// `true` iff the alphabet has no letters (never true for constructed values).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// The letter at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn letter(&self, i: usize) -> Letter {
        self.letters[i]
    }

    /// Position of `l` in the alphabet, if present.
    #[must_use]
    pub fn index_of(&self, l: Letter) -> Option<usize> {
        self.letters.iter().position(|&x| x == l)
    }

    /// Position of the letter displaying as `c`, if present.
    #[must_use]
    pub fn index_of_char(&self, c: char) -> Option<usize> {
        Letter::new(c).ok().and_then(|l| self.index_of(l))
    }

    /// Returns `true` iff `l` belongs to the alphabet.
    #[must_use]
    pub(crate) fn contains(&self, l: Letter) -> bool {
        self.index_of(l).is_some()
    }

    /// Iterates over the letters in order.
    pub fn iter(&self) -> impl Iterator<Item = Letter> + '_ {
        self.letters.iter().copied()
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.letters.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// A finite word over some alphabet.
///
/// Words parse from and display as plain strings:
///
/// ```
/// use tvg_langs::Word;
/// let w: Word = "aabb".parse()?;
/// assert_eq!(w.len(), 4);
/// assert_eq!(w.to_string(), "aabb");
/// # Ok::<(), tvg_langs::AlphabetError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Word {
    letters: Vec<Letter>,
}

impl Word {
    /// The empty word ε.
    #[must_use]
    pub fn empty() -> Self {
        Word {
            letters: Vec::new(),
        }
    }

    /// Builds a word from letters.
    #[must_use]
    pub fn from_letters(letters: Vec<Letter>) -> Self {
        Word { letters }
    }

    /// Length of the word (`0` for ε).
    #[must_use]
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// `true` iff this is the empty word.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// The letter at position `i`, if any.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Letter> {
        self.letters.get(i).copied()
    }

    /// Appends a letter in place.
    pub fn push(&mut self, l: Letter) {
        self.letters.push(l);
    }

    /// Returns `self · other` (concatenation).
    #[must_use]
    pub fn concat(&self, other: &Word) -> Word {
        let mut letters = self.letters.clone();
        letters.extend_from_slice(&other.letters);
        Word { letters }
    }

    /// Returns the word extended by one letter.
    #[must_use]
    pub fn appended(&self, l: Letter) -> Word {
        let mut w = self.clone();
        w.push(l);
        w
    }

    /// Iterates over the letters.
    pub fn iter(&self) -> impl Iterator<Item = Letter> + '_ {
        self.letters.iter().copied()
    }

    /// View of the underlying letters.
    #[must_use]
    pub fn as_slice(&self) -> &[Letter] {
        &self.letters
    }

    /// Counts occurrences of the letter displaying as `c`.
    #[must_use]
    pub fn count_char(&self, c: char) -> usize {
        match Letter::new(c) {
            Ok(l) => self.letters.iter().filter(|&&x| x == l).count(),
            Err(_) => 0,
        }
    }

    /// The reverse word.
    #[must_use]
    pub fn reversed(&self) -> Word {
        Word {
            letters: self.letters.iter().rev().copied().collect(),
        }
    }
}

impl FromStr for Word {
    type Err = AlphabetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut letters = Vec::with_capacity(s.len());
        for c in s.chars() {
            letters.push(Letter::new(c)?);
        }
        Ok(Word { letters })
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        for l in &self.letters {
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl FromIterator<Letter> for Word {
    fn from_iter<I: IntoIterator<Item = Letter>>(iter: I) -> Self {
        Word {
            letters: iter.into_iter().collect(),
        }
    }
}

impl Extend<Letter> for Word {
    fn extend<I: IntoIterator<Item = Letter>>(&mut self, iter: I) {
        self.letters.extend(iter);
    }
}

/// Convenience: parse a word from a literal, panicking on invalid input.
///
/// Intended for tests and examples where the literal is known-good.
///
/// # Panics
///
/// Panics if `s` contains non-printable-ASCII characters.
///
/// ```
/// use tvg_langs::word;
/// assert_eq!(word("ab").len(), 2);
/// ```
#[must_use]
pub fn word(s: &str) -> Word {
    s.parse().expect("literal word must be printable ascii")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letter_construction() {
        assert!(Letter::new('a').is_ok());
        assert!(Letter::new('Z').is_ok());
        assert!(Letter::new('0').is_ok());
        assert_eq!(Letter::new(' '), Err(AlphabetError::NotPrintableAscii(' ')));
        assert_eq!(Letter::new('é'), Err(AlphabetError::NotPrintableAscii('é')));
    }

    #[test]
    fn alphabet_construction_and_lookup() {
        let sigma = Alphabet::from_chars("abc").expect("valid");
        assert_eq!(sigma.len(), 3);
        assert_eq!(sigma.index_of_char('a'), Some(0));
        assert_eq!(sigma.index_of_char('c'), Some(2));
        assert_eq!(sigma.index_of_char('z'), None);
        assert!(sigma.contains(Letter::new('b').expect("valid")));
    }

    #[test]
    fn alphabet_rejects_bad_input() {
        assert_eq!(Alphabet::from_chars(""), Err(AlphabetError::Empty));
        assert_eq!(
            Alphabet::from_chars("aa"),
            Err(AlphabetError::DuplicateLetter('a'))
        );
    }

    #[test]
    fn alphabet_display() {
        assert_eq!(Alphabet::ab().to_string(), "{a,b}");
    }

    #[test]
    fn word_roundtrip() {
        let w = word("abba");
        assert_eq!(w.to_string(), "abba");
        assert_eq!(w.len(), 4);
        assert_eq!(w.count_char('a'), 2);
        assert_eq!(w.count_char('b'), 2);
        assert_eq!(w.count_char('z'), 0);
    }

    #[test]
    fn empty_word_displays_epsilon() {
        assert_eq!(Word::empty().to_string(), "ε");
        assert!(Word::empty().is_empty());
    }

    #[test]
    fn word_concat_and_append() {
        let w = word("ab").concat(&word("ba"));
        assert_eq!(w, word("abba"));
        let w2 = word("ab").appended(Letter::new('c').expect("valid"));
        assert_eq!(w2, word("abc"));
    }

    #[test]
    fn word_reversal() {
        assert_eq!(word("abc").reversed(), word("cba"));
        assert_eq!(Word::empty().reversed(), Word::empty());
    }

    #[test]
    fn word_collects_from_iterator() {
        let w: Word = Alphabet::ab().iter().collect();
        assert_eq!(w, word("ab"));
        let mut w2 = Word::empty();
        w2.extend(Alphabet::ab().iter());
        assert_eq!(w2, word("ab"));
    }

    #[test]
    fn word_ordering_is_length_then_lex() {
        // Derived Ord on Vec is lexicographic; we rely on it only for
        // determinism of BTreeSet iteration, not for shortlex.
        assert!(word("a") < word("b"));
    }
}
