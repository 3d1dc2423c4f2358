//! Theorem 2.2: `L_wait` is exactly the set of regular languages.
//!
//! The paper's proof is algebraic (a well-quasi-order on words plus the
//! Harju–Ilie criterion) and non-constructive. This module reproduces the
//! theorem as executable mathematics from both sides:
//!
//! * **Regular ⊆ `L_wait`** — [`dfa_to_tvg_automaton`] embeds any DFA as a
//!   TVG with `Always`/unit schedules; with such schedules direct and
//!   indirect journeys coincide, so every regular language is a waiting
//!   language (in fact under *every* policy).
//! * **`L_wait` ⊆ Regular, periodic class** — [`periodic_to_nfa`] compiles
//!   a TVG-automaton with periodic presence and constant latencies into an
//!   NFA over `(node, phase)` states. The abstraction is exact: with
//!   period-`P` schedules and constant latencies, a configuration's future
//!   depends only on its node and `t mod P`, and under waiting every
//!   future phase is reachable. One compiler serves all three policies —
//!   which is itself a reproduction of the theorems' *hierarchy*:
//!   on the periodic class even `L_nowait` is regular, so the Turing
//!   power of Theorem 2.1 comes precisely from aperiodic computable
//!   schedules like Figure 1's prime powers.
//! * **Beyond periodic** — `tvg_langs::myhill` residual analysis provides
//!   regularity *evidence* on sampled languages (saturating residual
//!   counts for `L_wait`, unbounded growth for the `L_nowait` witnesses);
//!   see experiment E3.

use crate::TvgAutomaton;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_langs::{Alphabet, Dfa, Nfa};
use tvg_model::{EdgeId, Latency, Presence, TvgBuilder};

/// Errors from compiling a TVG-automaton to an NFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The period must be nonzero.
    ZeroPeriod,
    /// An edge's latency is not a constant (e.g. affine in `t`).
    NonConstantLatency(EdgeId),
    /// An edge's presence cannot be expressed as a phase set modulo the
    /// period (aperiodic or custom schedule, or mismatched sub-period).
    NonPeriodicPresence(EdgeId),
    /// An edge label is missing from the supplied alphabet.
    LabelOutsideAlphabet(char),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ZeroPeriod => write!(f, "period must be nonzero"),
            CompileError::NonConstantLatency(e) => {
                write!(f, "edge {e} has a non-constant latency")
            }
            CompileError::NonPeriodicPresence(e) => {
                write!(
                    f,
                    "edge {e} has a presence not periodic with the given period"
                )
            }
            CompileError::LabelOutsideAlphabet(c) => {
                write!(f, "edge label {c:?} is outside the supplied alphabet")
            }
        }
    }
}

impl Error for CompileError {}

/// Extracts the exact phase set of `presence` modulo `period`, or `None`
/// if the schedule is not structurally periodic with that period.
fn phase_set(presence: &Presence<u64>, period: u64) -> Option<BTreeSet<u64>> {
    match presence {
        Presence::Always => Some((0..period).collect()),
        Presence::Never => Some(BTreeSet::new()),
        Presence::Periodic { period: p0, phases } => {
            if *p0 == 0 || !period.is_multiple_of(*p0) {
                return None;
            }
            let mut out = BTreeSet::new();
            for rep in 0..(period / p0) {
                for &ph in phases {
                    out.insert(rep * p0 + (ph % p0));
                }
            }
            Some(out)
        }
        Presence::Not(inner) => {
            let inner = phase_set(inner, period)?;
            Some((0..period).filter(|ph| !inner.contains(ph)).collect())
        }
        Presence::And(a, b) => {
            let (a, b) = (phase_set(a, period)?, phase_set(b, period)?);
            Some(a.intersection(&b).copied().collect())
        }
        Presence::Or(a, b) => {
            let (a, b) = (phase_set(a, period)?, phase_set(b, period)?);
            Some(a.union(&b).copied().collect())
        }
        // At/After/Before/Window/FiniteSet are eventually constant, not
        // periodic; Dilated/PqPower/Custom are aperiodic or opaque.
        _ => None,
    }
}

/// Compiles a periodic TVG-automaton into an NFA recognizing `L_f(G)`.
///
/// Preconditions: every presence must be structurally periodic with
/// `period` (see [`CompileError::NonPeriodicPresence`]) and every latency
/// constant. NFA states are `(node, t mod period)` pairs.
///
/// # Errors
///
/// Returns a [`CompileError`] naming the first offending edge.
pub fn periodic_to_nfa(
    aut: &TvgAutomaton<u64>,
    period: u64,
    policy: &WaitingPolicy<u64>,
    alphabet: &Alphabet,
) -> Result<Nfa, CompileError> {
    if period == 0 {
        return Err(CompileError::ZeroPeriod);
    }
    let g = aut.tvg();
    let p = period;
    let n = g.num_nodes();
    let state = |node: usize, phase: u64| node * (p as usize) + phase as usize;

    let mut nfa = Nfa::new(alphabet.clone(), n * p as usize);
    for &v0 in aut.initial() {
        nfa.add_start(state(v0.index(), aut.start_time() % p))
            .expect("state in range");
    }
    for &f in aut.accepting() {
        for phase in 0..p {
            nfa.add_accepting(state(f.index(), phase))
                .expect("state in range");
        }
    }

    for e in g.edges() {
        let edge = g.edge(e);
        let Latency::Const(ell) = edge.latency() else {
            return Err(CompileError::NonConstantLatency(e));
        };
        let phases = phase_set(edge.presence(), p).ok_or(CompileError::NonPeriodicPresence(e))?;
        let label = edge.label().as_char();
        if alphabet.index_of_char(label).is_none() {
            return Err(CompileError::LabelOutsideAlphabet(label));
        }
        let (u, v) = (edge.src().index(), edge.dst().index());
        for phase in 0..p {
            // Departure phases admissible from a node readied at `phase`.
            let departures: Box<dyn Iterator<Item = u64>> = match policy {
                WaitingPolicy::NoWait => Box::new(std::iter::once(phase)),
                WaitingPolicy::Bounded(d) => {
                    let span = (*d).min(p - 1);
                    Box::new((0..=span).map(move |j| (phase + j) % p))
                }
                WaitingPolicy::Unbounded => Box::new(0..p),
            };
            for dep in departures {
                if phases.contains(&dep) {
                    let arr = (dep + ell) % p;
                    nfa.add_transition(state(u, phase), Some(label), state(v, arr))
                        .expect("states in range, label in alphabet");
                }
            }
        }
    }
    Ok(nfa)
}

/// Search limits guaranteed sufficient for comparing a periodic automaton
/// against its compiled NFA on words up to `max_len`: every needed
/// departure happens within one period of becoming ready.
#[must_use]
pub fn sufficient_limits(
    aut: &TvgAutomaton<u64>,
    period: u64,
    max_len: usize,
) -> SearchLimits<u64> {
    let max_latency = aut
        .tvg()
        .edges()
        .map(|e| match aut.tvg().edge(e).latency() {
            Latency::Const(c) => *c,
            _ => period,
        })
        .max()
        .unwrap_or(1);
    let horizon = aut.start_time() + (max_len as u64 + 1) * (period + max_latency);
    SearchLimits::new(horizon, max_len + 1)
}

/// Returns a bound `T₀` such that `presence` is `period`-periodic on
/// `[T₀, ∞)`, or `None` for schedules with no such structural bound.
fn transient_bound(presence: &Presence<u64>, period: u64) -> Option<u64> {
    match presence {
        Presence::Always | Presence::Never => Some(0),
        Presence::At(c) | Presence::After(c) | Presence::Before(c) => Some(c + 1),
        Presence::Window { until, .. } => Some(until + 1),
        Presence::FiniteSet(set) => Some(set.as_slice().last().map_or(0, |m| m + 1)),
        Presence::Periodic { period: p0, .. } => {
            (*p0 != 0 && period.is_multiple_of(*p0)).then_some(0)
        }
        Presence::Not(inner) => transient_bound(inner, period),
        Presence::And(a, b) | Presence::Or(a, b) => {
            Some(transient_bound(a, period)?.max(transient_bound(b, period)?))
        }
        Presence::Dilated { factor, inner } => {
            // Inner is p-periodic beyond T₀ ⟹ dilated is (factor·p)-periodic
            // beyond factor·T₀ — require the caller's period to absorb it.
            if !period.is_multiple_of(*factor) {
                return None;
            }
            let inner_t0 = transient_bound(inner, period / factor)?;
            inner_t0.checked_mul(*factor)
        }
        Presence::PqPower { .. } | Presence::Custom(_) => None,
    }
}

/// Compiles a TVG-automaton with *eventually periodic* schedules into an
/// NFA — the Theorem 2.2 compiler extended past [`periodic_to_nfa`] to
/// schedules with a transient prefix (`At`, `After`, `Before`, `Window`,
/// `FiniteSet`, and boolean/dilation combinations thereof).
///
/// States are explicit `(node, t)` configurations for `t < T₀` (the
/// structural bound after which every schedule is `period`-periodic) plus
/// `(node, phase)` states for the periodic tail; the abstraction is exact
/// for constant latencies. State count scales with `T₀ + period` per
/// node, so schedules with large constants produce large automata.
///
/// # Errors
///
/// Returns a [`CompileError`] naming the first offending edge (aperiodic
/// or opaque presence, non-constant latency) or a zero period.
pub fn eventually_periodic_to_nfa(
    aut: &TvgAutomaton<u64>,
    period: u64,
    policy: &WaitingPolicy<u64>,
    alphabet: &Alphabet,
) -> Result<Nfa, CompileError> {
    if period == 0 {
        return Err(CompileError::ZeroPeriod);
    }
    let g = aut.tvg();
    let p = period;

    // Per-edge validation + the global transient bound.
    let mut t0 = aut.start_time() + 1;
    let mut edge_info: Vec<(usize, usize, char, u64)> = Vec::new(); // (src, dst, label, latency)
    for e in g.edges() {
        let edge = g.edge(e);
        let Latency::Const(ell) = edge.latency() else {
            return Err(CompileError::NonConstantLatency(e));
        };
        let bound =
            transient_bound(edge.presence(), p).ok_or(CompileError::NonPeriodicPresence(e))?;
        t0 = t0.max(bound);
        let label = edge.label().as_char();
        if alphabet.index_of_char(label).is_none() {
            return Err(CompileError::LabelOutsideAlphabet(label));
        }
        edge_info.push((edge.src().index(), edge.dst().index(), label, *ell));
    }
    // Round T₀ up to a period boundary so tail phases align with absolute
    // times (phase ψ ↔ times ≡ ψ mod p, all ≥ T₀).
    let t0 = t0.div_ceil(p) * p;

    let span = t0 as usize; // explicit states cover [0, T₀)
    let per_node = span + p as usize;
    let n = g.num_nodes();
    let explicit = |node: usize, t: u64| node * per_node + t as usize;
    let tail = |node: usize, phase: u64| node * per_node + span + phase as usize;
    // Map an absolute arrival time to its state.
    let state_of = |node: usize, t: u64| {
        if t < t0 {
            explicit(node, t)
        } else {
            tail(node, t % p)
        }
    };

    let mut nfa = Nfa::new(alphabet.clone(), n * per_node);
    for &v0 in aut.initial() {
        nfa.add_start(state_of(v0.index(), *aut.start_time()))
            .expect("state in range");
    }
    for &f in aut.accepting() {
        for t in 0..t0 {
            nfa.add_accepting(explicit(f.index(), t))
                .expect("state in range");
        }
        for phase in 0..p {
            nfa.add_accepting(tail(f.index(), phase))
                .expect("state in range");
        }
    }

    for (e, &(u, v, label, ell)) in g.edges().zip(&edge_info) {
        let presence = g.edge(e).presence();
        // Tail presence per phase, evaluated at the first aligned instant.
        let tail_present: Vec<bool> = (0..p)
            .map(|phase| presence.is_present(&(t0 + phase)))
            .collect();

        // From explicit states (ready at concrete time t < T₀).
        for t in 0..t0 {
            let departures: Vec<u64> = match policy {
                WaitingPolicy::NoWait => vec![t],
                WaitingPolicy::Bounded(d) => (t..=t.saturating_add(*d)).collect(),
                // Unbounded: all concrete instants below T₀ + p cover
                // every tail phase as well.
                WaitingPolicy::Unbounded => (t..t0 + p).collect(),
            };
            for s in departures {
                let present = if s < t0 {
                    presence.is_present(&s)
                } else {
                    tail_present[(s % p) as usize]
                };
                if present {
                    nfa.add_transition(explicit(u, t), Some(label), state_of(v, s + ell))
                        .expect("states in range, label in alphabet");
                }
            }
        }

        // From tail states (ready at some time ≥ T₀ with a known phase).
        for phase in 0..p {
            let departures: Box<dyn Iterator<Item = u64>> = match policy {
                WaitingPolicy::NoWait => Box::new(std::iter::once(phase)),
                WaitingPolicy::Bounded(d) => {
                    let span = (*d).min(p - 1);
                    Box::new((0..=span).map(move |j| (phase + j) % p))
                }
                WaitingPolicy::Unbounded => Box::new(0..p),
            };
            for dep in departures {
                if tail_present[dep as usize] {
                    nfa.add_transition(tail(u, phase), Some(label), tail(v, (dep + ell) % p))
                        .expect("states in range, label in alphabet");
                }
            }
        }
    }
    Ok(nfa)
}

/// Embeds a DFA as a TVG-automaton with `Always` presence and unit
/// latencies — the *regular ⊆ `L_wait`* direction of Theorem 2.2.
///
/// With schedules that never change, a pause can never enable or disable
/// anything: direct and indirect journeys traverse the same edges, so
/// `L_nowait(G) = L_wait[d](G) = L_wait(G) = L(dfa)`.
#[must_use]
pub fn dfa_to_tvg_automaton(dfa: &Dfa) -> TvgAutomaton<u64> {
    let mut b = TvgBuilder::<u64>::new();
    let nodes = b.nodes(dfa.num_states());
    for s in 0..dfa.num_states() {
        for letter in dfa.alphabet().iter() {
            let t = dfa
                .step(s, letter)
                .expect("alphabet letters step everywhere in a total dfa");
            b.edge(
                nodes[s],
                nodes[t],
                letter.as_char(),
                Presence::Always,
                Latency::unit(),
            )
            .expect("builder-owned nodes");
        }
    }
    let accepting = (0..dfa.num_states())
        .filter(|&s| dfa.is_accepting(s))
        .map(|s| nodes[s])
        .collect();
    TvgAutomaton::new(
        b.build().expect("dfa has at least one state"),
        BTreeSet::from([nodes[dfa.start()]]),
        accepting,
        0,
    )
    .expect("static construction is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tvg_langs::sample::words_upto;
    use tvg_langs::{word, Regex, Word};
    use tvg_model::generators::{random_periodic_tvg, RandomPeriodicParams};
    use tvg_model::NodeId;

    fn policy_set() -> Vec<WaitingPolicy<u64>> {
        vec![
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(1),
            WaitingPolicy::Bounded(2),
            WaitingPolicy::Unbounded,
        ]
    }

    /// The E3 workhorse: on random periodic TVGs, the compiled NFA and the
    /// journey-language simulation agree exactly, for every policy.
    #[test]
    fn compiled_nfa_matches_simulation_on_random_tvgs() {
        let alphabet = Alphabet::ab();
        for seed in 0..12u64 {
            let params = RandomPeriodicParams {
                num_nodes: 4,
                num_edges: 7,
                period: 3,
                phase_density: 0.5,
                alphabet: alphabet.clone(),
            };
            let g = random_periodic_tvg(&mut StdRng::seed_from_u64(seed), &params);
            let initial = BTreeSet::from([NodeId::from_index(0)]);
            let accepting = BTreeSet::from([NodeId::from_index(params.num_nodes - 1)]);
            let aut = TvgAutomaton::new(g, initial, accepting, 0).expect("valid");
            for policy in policy_set() {
                let nfa = periodic_to_nfa(&aut, 3, &policy, &alphabet).expect("periodic");
                let limits = sufficient_limits(&aut, 3, 6);
                let simulated = aut.language_upto(&policy, &limits, 6);
                let compiled: BTreeSet<Word> = nfa.to_dfa().language_upto(6).into_iter().collect();
                assert_eq!(simulated, compiled, "seed={seed} policy={policy}");
            }
        }
    }

    #[test]
    fn wait_language_of_periodic_tvg_is_regular_with_small_dfa() {
        let alphabet = Alphabet::ab();
        let params = RandomPeriodicParams {
            num_nodes: 5,
            num_edges: 9,
            period: 4,
            phase_density: 0.4,
            alphabet: alphabet.clone(),
        };
        let g = random_periodic_tvg(&mut StdRng::seed_from_u64(99), &params);
        let aut = TvgAutomaton::new(
            g,
            BTreeSet::from([NodeId::from_index(0)]),
            BTreeSet::from([NodeId::from_index(4)]),
            0,
        )
        .expect("valid");
        let nfa = periodic_to_nfa(&aut, 4, &WaitingPolicy::Unbounded, &alphabet).expect("periodic");
        let min = nfa.to_dfa().minimize();
        // Regularity witnessed constructively: a concrete minimal DFA.
        assert!(min.num_states() <= 5 * 4 + 1);
        // And its language is the simulated one.
        let limits = sufficient_limits(&aut, 4, 7);
        let simulated = aut.language_upto(&WaitingPolicy::Unbounded, &limits, 7);
        let compiled: BTreeSet<Word> = min.language_upto(7).into_iter().collect();
        assert_eq!(simulated, compiled);
    }

    #[test]
    fn phase_set_extraction() {
        assert_eq!(
            phase_set(&Presence::Always, 3),
            Some(BTreeSet::from([0, 1, 2]))
        );
        assert_eq!(phase_set(&Presence::Never, 3), Some(BTreeSet::new()));
        // Sub-period expands: period 2 phases {1} in period 4 = {1, 3}.
        assert_eq!(
            phase_set(
                &Presence::Periodic {
                    period: 2,
                    phases: BTreeSet::from([1])
                },
                4
            ),
            Some(BTreeSet::from([1, 3]))
        );
        // Mismatched periods fail.
        assert_eq!(
            phase_set(
                &Presence::Periodic {
                    period: 3,
                    phases: BTreeSet::from([0])
                },
                4
            ),
            None
        );
        // Combinators.
        let p = Presence::Or(
            Box::new(Presence::Periodic {
                period: 2,
                phases: BTreeSet::from([0]),
            }),
            Box::new(Presence::Periodic {
                period: 4,
                phases: BTreeSet::from([1]),
            }),
        );
        assert_eq!(phase_set(&p, 4), Some(BTreeSet::from([0, 1, 2])));
        assert_eq!(
            phase_set(&Presence::Not(Box::new(p)), 4),
            Some(BTreeSet::from([3]))
        );
        // Aperiodic forms refuse.
        assert_eq!(phase_set(&Presence::At(3), 4), None);
        assert_eq!(phase_set(&Presence::PqPower { p: 2, q: 3 }, 4), None);
    }

    #[test]
    fn compile_errors_name_the_edge() {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(v[0], v[1], 'a', Presence::At(3), Latency::unit())
            .expect("valid");
        let aut = TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[1]]),
            0,
        )
        .expect("valid");
        assert_eq!(
            periodic_to_nfa(&aut, 4, &WaitingPolicy::Unbounded, &Alphabet::ab()),
            Err(CompileError::NonPeriodicPresence(
                tvg_model::EdgeId::from_index(0)
            ))
        );

        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Always,
            Latency::Affine { mul: 1, add: 0 },
        )
        .expect("valid");
        let aut = TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[1]]),
            0,
        )
        .expect("valid");
        assert_eq!(
            periodic_to_nfa(&aut, 4, &WaitingPolicy::Unbounded, &Alphabet::ab()),
            Err(CompileError::NonConstantLatency(
                tvg_model::EdgeId::from_index(0)
            ))
        );
        assert_eq!(
            periodic_to_nfa(&aut, 0, &WaitingPolicy::Unbounded, &Alphabet::ab()),
            Err(CompileError::ZeroPeriod)
        );
    }

    #[test]
    fn regular_into_wait_language_roundtrip() {
        // Regular ⊆ L_wait: embed a DFA, check every policy yields the
        // same language back.
        let alphabet = Alphabet::ab();
        for pattern in ["(a|b)*ab", "a*b*", "(ab)*", "a(a|b)+"] {
            let dfa = Regex::parse(pattern, &alphabet)
                .expect("parses")
                .to_nfa(&alphabet)
                .to_dfa()
                .minimize();
            let aut = dfa_to_tvg_automaton(&dfa);
            let limits = SearchLimits::new(20, 7);
            for policy in policy_set() {
                for w in words_upto(&alphabet, 5) {
                    assert_eq!(
                        aut.accepts(&w, &policy, &limits),
                        dfa.accepts(&w),
                        "{pattern} {policy} {w}"
                    );
                }
            }
            // Also via the compiler: the embedded TVG is trivially
            // periodic with period 1.
            let nfa = periodic_to_nfa(&aut, 1, &WaitingPolicy::Unbounded, &alphabet)
                .expect("always-present schedules are periodic");
            assert!(nfa.to_dfa().equivalent_to(&dfa), "{pattern}");
        }
    }

    /// Graph with transient (At/Window/After) and periodic edges mixed —
    /// rejected by `periodic_to_nfa`, compiled by the eventually-periodic
    /// extension.
    fn transient_mix_automaton() -> TvgAutomaton<u64> {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(4);
        b.edge(v[0], v[1], 'a', Presence::At(2), Latency::unit())
            .expect("valid");
        b.edge(
            v[1],
            v[2],
            'b',
            Presence::Window { from: 4, until: 6 },
            Latency::Const(2),
        )
        .expect("valid");
        b.edge(
            v[2],
            v[3],
            'a',
            Presence::Periodic {
                period: 3,
                phases: BTreeSet::from([1]),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v[3], v[0], 'b', Presence::After(5), Latency::unit())
            .expect("valid");
        TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[3]]),
            0,
        )
        .expect("valid")
    }

    #[test]
    fn eventually_periodic_compiler_matches_simulation() {
        let alphabet = Alphabet::ab();
        let aut = transient_mix_automaton();
        // periodic_to_nfa refuses (transient leaves present).
        assert!(matches!(
            periodic_to_nfa(&aut, 3, &WaitingPolicy::Unbounded, &alphabet),
            Err(CompileError::NonPeriodicPresence(_))
        ));
        // The extension compiles it; compare against simulation for every
        // policy on all words up to length 6.
        for policy in policy_set() {
            let nfa = eventually_periodic_to_nfa(&aut, 3, &policy, &alphabet)
                .expect("eventually periodic");
            let limits = SearchLimits::new(60, 7);
            let simulated = aut.language_upto(&policy, &limits, 6);
            let compiled: BTreeSet<Word> = nfa.to_dfa().language_upto(6).into_iter().collect();
            assert_eq!(simulated, compiled, "{policy}");
        }
    }

    #[test]
    fn eventually_periodic_agrees_with_periodic_on_periodic_inputs() {
        // On purely periodic graphs the two compilers must agree exactly.
        let alphabet = Alphabet::ab();
        for seed in 0..6u64 {
            let params = RandomPeriodicParams {
                num_nodes: 4,
                num_edges: 7,
                period: 3,
                phase_density: 0.5,
                alphabet: alphabet.clone(),
            };
            let g = random_periodic_tvg(&mut StdRng::seed_from_u64(seed), &params);
            let aut = TvgAutomaton::new(
                g,
                BTreeSet::from([NodeId::from_index(0)]),
                BTreeSet::from([NodeId::from_index(3)]),
                0,
            )
            .expect("valid");
            for policy in policy_set() {
                let a = periodic_to_nfa(&aut, 3, &policy, &alphabet)
                    .expect("periodic")
                    .to_dfa()
                    .minimize();
                let b = eventually_periodic_to_nfa(&aut, 3, &policy, &alphabet)
                    .expect("eventually periodic")
                    .to_dfa()
                    .minimize();
                assert!(a.equivalent_to(&b), "seed={seed} policy={policy}");
            }
        }
    }

    #[test]
    fn eventually_periodic_rejects_aperiodic_schedules() {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::PqPower { p: 2, q: 3 },
            Latency::unit(),
        )
        .expect("valid");
        let aut = TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[1]]),
            0,
        )
        .expect("valid");
        assert_eq!(
            eventually_periodic_to_nfa(&aut, 6, &WaitingPolicy::Unbounded, &Alphabet::ab()),
            Err(CompileError::NonPeriodicPresence(
                tvg_model::EdgeId::from_index(0)
            ))
        );
    }

    #[test]
    fn eventually_periodic_handles_dilated_schedules() {
        // dilate(periodic, f) is (f·p)-periodic: compile with the larger
        // period and compare against simulation.
        let alphabet = Alphabet::ab();
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 2,
                phases: BTreeSet::from([0]),
            }
            .dilate(3),
            Latency::Const(3),
        )
        .expect("valid");
        b.edge(v[1], v[0], 'b', Presence::Always, Latency::Const(1))
            .expect("valid");
        let aut = TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[1]]),
            0,
        )
        .expect("valid");
        for policy in policy_set() {
            let nfa = eventually_periodic_to_nfa(&aut, 6, &policy, &alphabet)
                .expect("dilated periodic is 6-periodic");
            let limits = SearchLimits::new(60, 7);
            let simulated = aut.language_upto(&policy, &limits, 5);
            let compiled: BTreeSet<Word> = nfa.to_dfa().language_upto(5).into_iter().collect();
            assert_eq!(simulated, compiled, "{policy}");
        }
    }

    #[test]
    fn bounded_policies_interpolate() {
        // On a staggered periodic graph, L_nowait ⊆ L_wait[1] ⊆ L_wait[2]
        // ⊆ L_wait, with at least one strict inclusion.
        let alphabet = Alphabet::ab();
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(3);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 4,
                phases: BTreeSet::from([0]),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(
            v[1],
            v[2],
            'b',
            Presence::Periodic {
                period: 4,
                phases: BTreeSet::from([3]),
            },
            Latency::unit(),
        )
        .expect("valid");
        let aut = TvgAutomaton::new(
            b.build().expect("valid"),
            BTreeSet::from([v[0]]),
            BTreeSet::from([v[2]]),
            0,
        )
        .expect("valid");
        let langs: Vec<BTreeSet<Word>> = policy_set()
            .iter()
            .map(|policy| {
                periodic_to_nfa(&aut, 4, policy, &alphabet)
                    .expect("periodic")
                    .to_dfa()
                    .language_upto(4)
                    .into_iter()
                    .collect()
            })
            .collect();
        for i in 1..langs.len() {
            assert!(
                langs[i - 1].is_subset(&langs[i]),
                "monotone in the waiting bound"
            );
        }
        // "ab" needs a 2-unit pause (arrive at 1, depart at 3).
        assert!(!langs[0].contains(&word("ab")));
        assert!(!langs[1].contains(&word("ab")));
        assert!(langs[2].contains(&word("ab")));
        assert!(langs[3].contains(&word("ab")));
    }
}
