//! Word enumeration utilities.
//!
//! Languages of TVGs are compared by exhaustive enumeration up to a length
//! bound; these helpers generate the word universes for those comparisons.

use crate::{Alphabet, Word};

/// All words over `alphabet` of length exactly `len`, in lexicographic
/// order of letter indices.
///
/// Reached through `words_upto`, which concatenates the lengths in order:
///
/// ```
/// use tvg_langs::{sample::words_upto, word, Alphabet};
/// let words = words_upto(&Alphabet::ab(), 2);
/// assert_eq!(words[3..], [word("aa"), word("ab"), word("ba"), word("bb")]);
/// ```
fn words_of_length(alphabet: &Alphabet, len: usize) -> Vec<Word> {
    let k = alphabet.len();
    let mut out = Vec::with_capacity(k.pow(len.min(20) as u32));
    let mut indices = vec![0usize; len];
    loop {
        out.push(indices.iter().map(|&i| alphabet.letter(i)).collect());
        // Odometer increment.
        let mut pos = len;
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < k {
                break;
            }
            indices[pos] = 0;
        }
    }
}

/// All words over `alphabet` of length at most `max_len`, in shortlex
/// order. Size is `(k^(max_len+1) - 1)/(k - 1)`; keep `max_len` small.
///
/// ```
/// use tvg_langs::{sample::words_upto, Alphabet};
/// assert_eq!(words_upto(&Alphabet::ab(), 3).len(), 1 + 2 + 4 + 8);
/// ```
#[must_use]
pub fn words_upto(alphabet: &Alphabet, max_len: usize) -> Vec<Word> {
    let mut out = Vec::new();
    for len in 0..=max_len {
        out.extend(words_of_length(alphabet, len));
    }
    out
}

/// Returns the words on which two oracles disagree, up to `max_len`.
///
/// Empty result means the oracles agree on the sampled universe — the
/// workhorse check behind every theorem-reproduction experiment.
pub fn disagreements<F, G>(
    alphabet: &Alphabet,
    max_len: usize,
    mut left: F,
    mut right: G,
) -> Vec<Word>
where
    F: FnMut(&Word) -> bool,
    G: FnMut(&Word) -> bool,
{
    words_upto(alphabet, max_len)
        .into_iter()
        .filter(|w| left(w) != right(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word;
    use std::collections::BTreeSet;

    #[test]
    fn words_of_length_counts() {
        let sigma = Alphabet::abc();
        for len in 0..5 {
            assert_eq!(words_of_length(&sigma, len).len(), 3usize.pow(len as u32));
        }
    }

    #[test]
    fn words_of_length_zero_is_epsilon() {
        assert_eq!(words_of_length(&Alphabet::ab(), 0), vec![Word::empty()]);
    }

    #[test]
    fn words_upto_is_shortlex_and_complete() {
        let all = words_upto(&Alphabet::ab(), 2);
        assert_eq!(
            all,
            vec![
                Word::empty(),
                word("a"),
                word("b"),
                word("aa"),
                word("ab"),
                word("ba"),
                word("bb"),
            ]
        );
    }

    #[test]
    fn words_are_distinct() {
        let all = words_upto(&Alphabet::abc(), 4);
        let set: BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn disagreements_empty_for_identical_oracles() {
        let sigma = Alphabet::ab();
        let diff = disagreements(&sigma, 5, |w| w.len() % 2 == 0, |w| w.len() % 2 == 0);
        assert!(diff.is_empty());
        let diff2 = disagreements(&sigma, 3, |w| w.len() % 2 == 0, |_| true);
        assert!(!diff2.is_empty());
    }
}
