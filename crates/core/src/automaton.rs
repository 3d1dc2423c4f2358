//! TVG-automata: time-varying graphs as language acceptors.
//!
//! Per the paper, a TVG `G` with edge labels over `Σ` induces an
//! automaton `A(G) = (Σ, S, I, E, F)` whose states are the nodes and
//! whose transitions `(s, t, a, s', t')` exist exactly when an `a`-labeled
//! edge from `s` to `s'` is present at `t` with latency `t' − t`. A word
//! is accepted when some feasible journey from an initial to an accepting
//! node spells it; *which* journeys are feasible is the waiting policy,
//! and the language `L_f(G)` varies with it — that variation is the
//! paper's subject.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use tvg_journeys::language::{journey_language, read_word, ConfigSet};
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_langs::Word;
use tvg_model::{NodeId, Time, Tvg};

/// Errors from assembling a [`TvgAutomaton`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutomatonError {
    /// An initial or accepting node id is out of range for the graph.
    UnknownNode(NodeId),
    /// No initial states were given.
    NoInitialStates,
}

impl fmt::Display for AutomatonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomatonError::UnknownNode(n) => write!(f, "automaton references unknown node {n}"),
            AutomatonError::NoInitialStates => {
                write!(f, "automaton needs at least one initial state")
            }
        }
    }
}

impl Error for AutomatonError {}

/// A TVG-automaton: a labeled TVG with initial states, accepting states,
/// and a start-of-reading instant.
///
/// ```
/// use std::collections::BTreeSet;
/// use tvg_expressivity::TvgAutomaton;
/// use tvg_journeys::{SearchLimits, WaitingPolicy};
/// use tvg_langs::word;
/// use tvg_model::{Latency, Presence, TvgBuilder};
///
/// let mut b = TvgBuilder::<u64>::new();
/// let v = b.nodes(2);
/// b.edge(v[0], v[1], 'a', Presence::At(3), Latency::unit())?;
/// let aut = TvgAutomaton::new(
///     b.build()?,
///     BTreeSet::from([v[0]]),
///     BTreeSet::from([v[1]]),
///     0,
/// )?;
/// let limits = SearchLimits::new(10, 4);
/// // "a" departs at 3, but reading starts at 0: only waiting accepts.
/// assert!(!aut.accepts(&word("a"), &WaitingPolicy::NoWait, &limits));
/// assert!(aut.accepts(&word("a"), &WaitingPolicy::Unbounded, &limits));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TvgAutomaton<T> {
    tvg: Tvg<T>,
    initial: BTreeSet<NodeId>,
    accepting: BTreeSet<NodeId>,
    start_time: T,
}

impl<T: Time> TvgAutomaton<T> {
    /// Builds an automaton over `tvg`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomatonError`] if a state set references nodes outside
    /// the graph or `initial` is empty.
    pub fn new(
        tvg: Tvg<T>,
        initial: BTreeSet<NodeId>,
        accepting: BTreeSet<NodeId>,
        start_time: T,
    ) -> Result<Self, AutomatonError> {
        if initial.is_empty() {
            return Err(AutomatonError::NoInitialStates);
        }
        for &n in initial.iter().chain(accepting.iter()) {
            if n.index() >= tvg.num_nodes() {
                return Err(AutomatonError::UnknownNode(n));
            }
        }
        Ok(TvgAutomaton {
            tvg,
            initial,
            accepting,
            start_time,
        })
    }

    /// The underlying time-varying graph.
    #[must_use]
    pub fn tvg(&self) -> &Tvg<T> {
        &self.tvg
    }

    /// The initial states `I`.
    #[must_use]
    pub(crate) fn initial(&self) -> &BTreeSet<NodeId> {
        &self.initial
    }

    /// The accepting states `F`.
    #[must_use]
    pub(crate) fn accepting(&self) -> &BTreeSet<NodeId> {
        &self.accepting
    }

    /// The instant reading starts.
    #[must_use]
    pub fn start_time(&self) -> &T {
        &self.start_time
    }

    /// The initial configuration set: every initial node at the start
    /// instant.
    fn initial_configs(&self) -> ConfigSet<T> {
        self.initial
            .iter()
            .map(|&n| (n, self.start_time.clone()))
            .collect()
    }

    /// Whether `A(G)` accepts `word` when journeys follow `policy`.
    ///
    /// Exact within `limits` (departures beyond `limits.horizon` or
    /// journeys longer than `limits.max_hops` are not explored — callers
    /// size the limits to the word, see e.g. the Figure-1 wrapper).
    #[must_use]
    pub fn accepts(
        &self,
        word: &Word,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
    ) -> bool {
        tvg_journeys::language::spells(
            &self.tvg,
            &self.initial_configs(),
            word,
            &self.accepting,
            policy,
            limits,
        )
    }

    /// The configuration sets after each prefix of `word` — a run trace
    /// for display and debugging.
    #[must_use]
    pub(crate) fn trace(
        &self,
        word: &Word,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
    ) -> Vec<ConfigSet<T>> {
        let mut out = Vec::with_capacity(word.len() + 1);
        let mut configs = self.initial_configs();
        out.push(configs.clone());
        for i in 0..word.len() {
            configs = read_word(
                &self.tvg,
                &configs,
                &Word::from_letters(vec![word.get(i).expect("index in range")]),
                policy,
                limits,
            );
            out.push(configs.clone());
        }
        out
    }

    /// The sampled language `L_f(G)` up to `max_len`.
    #[must_use]
    pub fn language_upto(
        &self,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        max_len: usize,
    ) -> BTreeSet<Word> {
        journey_language(
            &self.tvg,
            &self.initial_configs(),
            &self.accepting,
            policy,
            limits,
            max_len,
        )
    }

    /// Dilates every schedule and the start instant by `d + 1`
    /// (Theorem 2.3's transformation; see the `dilation` module for the
    /// theorem harness).
    ///
    /// # Panics
    ///
    /// Panics if the dilated start time overflows the representation.
    #[must_use]
    pub fn dilate(&self, d: u64) -> TvgAutomaton<T> {
        let factor = d.checked_add(1).expect("dilation bound too large");
        TvgAutomaton {
            tvg: self.tvg.dilate(d),
            initial: self.initial.clone(),
            accepting: self.accepting.clone(),
            start_time: self
                .start_time
                .checked_mul_u64(factor)
                .expect("dilated start time overflows"),
        }
    }
}

/// A test oracle for the paper's remark that Figure 1 is deterministic.
#[cfg(test)]
impl<T: Time> TvgAutomaton<T> {
    /// Checks whether the automaton behaves *deterministically* on every
    /// word up to `max_len` under `policy`: after each prefix at most one
    /// configuration is live.
    ///
    /// The paper notes Figure 1 is a deterministic TVG-automaton; this
    /// verifies such claims mechanically. Exponential in `max_len` over
    /// the label alphabet.
    pub(crate) fn is_deterministic_upto(
        &self,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        max_len: usize,
    ) -> bool {
        let Some(alphabet) = tvg_journeys::language::label_alphabet(&self.tvg) else {
            return true;
        };
        let mut frontier: Vec<ConfigSet<T>> = vec![self.initial_configs()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for configs in &frontier {
                if configs.len() > 1 {
                    return false;
                }
                for letter in alphabet.iter() {
                    let stepped = tvg_journeys::language::step_configs(
                        &self.tvg, configs, letter, policy, limits,
                    );
                    if stepped.len() > 1 {
                        return false;
                    }
                    if !stepped.is_empty() {
                        next.push(stepped);
                    }
                }
            }
            if next.is_empty() {
                return true;
            }
            frontier = next;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_langs::word;
    use tvg_model::{Latency, Presence, TvgBuilder};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// v0 --a@1--> v1 --b@5--> v2 (accepting).
    fn gap_automaton() -> TvgAutomaton<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(5u64), Latency::unit())
            .expect("valid");
        TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[2]]),
            1,
        )
        .expect("valid")
    }

    fn limits() -> SearchLimits<u64> {
        SearchLimits::new(20, 8)
    }

    #[test]
    fn acceptance_varies_with_policy() {
        let aut = gap_automaton();
        let w = word("ab");
        assert!(!aut.accepts(&w, &WaitingPolicy::NoWait, &limits()));
        assert!(!aut.accepts(&w, &WaitingPolicy::Bounded(2), &limits()));
        assert!(aut.accepts(&w, &WaitingPolicy::Bounded(3), &limits()));
        assert!(aut.accepts(&w, &WaitingPolicy::Unbounded, &limits()));
    }

    #[test]
    fn languages_differ_by_policy() {
        let aut = gap_automaton();
        assert!(aut
            .language_upto(&WaitingPolicy::NoWait, &limits(), 3)
            .is_empty());
        assert_eq!(
            aut.language_upto(&WaitingPolicy::Unbounded, &limits(), 3),
            BTreeSet::from([word("ab")])
        );
    }

    #[test]
    fn trace_exposes_configurations() {
        let aut = gap_automaton();
        let trace = aut.trace(&word("ab"), &WaitingPolicy::Unbounded, &limits());
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0], ConfigSet::from([(n(0), 1u64)]));
        assert_eq!(trace[1], ConfigSet::from([(n(1), 2u64)]));
        assert_eq!(trace[2], ConfigSet::from([(n(2), 6u64)]));
        // A rejected run has an empty tail.
        let dead = aut.trace(&word("ab"), &WaitingPolicy::NoWait, &limits());
        assert!(dead[2].is_empty());
    }

    #[test]
    fn validation_errors() {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(1);
        let g = b.build().expect("valid");
        assert_eq!(
            TvgAutomaton::new(g.clone(), BTreeSet::new(), BTreeSet::new(), 0).unwrap_err(),
            AutomatonError::NoInitialStates
        );
        let ghost = NodeId::from_index(9);
        assert_eq!(
            TvgAutomaton::new(g, BTreeSet::from([v[0]]), BTreeSet::from([ghost]), 0).unwrap_err(),
            AutomatonError::UnknownNode(ghost)
        );
    }

    #[test]
    fn empty_word_accepted_iff_initial_meets_accepting() {
        let aut = gap_automaton();
        assert!(!aut.accepts(&Word::empty(), &WaitingPolicy::NoWait, &limits()));

        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(1);
        let aut2 = TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[0]]),
            0,
        )
        .expect("valid");
        assert!(aut2.accepts(&Word::empty(), &WaitingPolicy::NoWait, &limits()));
    }

    #[test]
    fn dilation_scales_start_time() {
        let aut = gap_automaton();
        let dilated = aut.dilate(3);
        assert_eq!(*dilated.start_time(), 4); // 1 · (3+1)
        assert_eq!(dilated.initial(), aut.initial());
        assert_eq!(dilated.accepting(), aut.accepting());
    }
}
