//! Random-value generators shared by every workspace test suite.
//!
//! Each generator is an explicit function of the RNG — the testkit
//! analogue of a `proptest` strategy. Given equal RNG states they produce
//! equal values, which is what makes whole suites replayable from a
//! `(seed, case)` pair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tvg_dynnet::markovian::{edge_markovian_trace, EdgeMarkovianParams};
use tvg_dynnet::EvolvingTrace;
use tvg_expressivity::TvgAutomaton;
use tvg_journeys::WaitingPolicy;
use tvg_langs::{Alphabet, Dfa, Word};
use tvg_model::generators::{random_periodic_tvg, scale_free_temporal, RandomPeriodicParams};
use tvg_model::stream::{StreamEvent, TvgStream};
use tvg_model::{Latency, NodeId, Presence, Tvg};

/// A uniform `u128` (the `rand` shim's `gen` covers only one machine
/// word).
pub fn u128_any<R: Rng + ?Sized>(rng: &mut R) -> u128 {
    (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>())
}

/// A uniform `f64` in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
fn f64_in<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "bad range [{lo}, {hi})"
    );
    lo + rng.gen::<f64>() * (hi - lo)
}

/// A random word over `alphabet` with length drawn uniformly from
/// `0..=max_len`.
pub fn word<R: Rng + ?Sized>(rng: &mut R, alphabet: &Alphabet, max_len: usize) -> Word {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet.letter(rng.gen_range(0..alphabet.len())))
        .collect()
}

/// A random total DFA over `alphabet` with `2..=max_states` states,
/// uniform transitions, uniform accepting set.
///
/// # Panics
///
/// Panics if `max_states < 2`.
pub fn dfa<R: Rng + ?Sized>(rng: &mut R, alphabet: &Alphabet, max_states: usize) -> Dfa {
    assert!(max_states >= 2, "need at least two states");
    let n = rng.gen_range(2..=max_states);
    let delta: Vec<Vec<usize>> = (0..n)
        .map(|_| (0..alphabet.len()).map(|_| rng.gen_range(0..n)).collect())
        .collect();
    let start = rng.gen_range(0..n);
    let accepting: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
    Dfa::new(alphabet.clone(), delta, start, accepting).expect("generated shape is valid")
}

/// A random presence AST over `u64`: the leaves and combinators of the
/// schedule algebra (excluding `Custom`, which is covered by targeted
/// unit tests), recursing up to `depth`.
pub fn presence<R: Rng + ?Sized>(rng: &mut R, depth: usize) -> Presence<u64> {
    if depth == 0 || rng.gen_bool(0.55) {
        return match rng.gen_range(0..8u32) {
            0 => Presence::Always,
            1 => Presence::Never,
            2 => Presence::At(rng.gen_range(0..40)),
            3 => Presence::After(rng.gen_range(0..40)),
            4 => Presence::Before(rng.gen_range(1..40)),
            5 => {
                let (a, b) = (rng.gen_range(0..20), rng.gen_range(0..20));
                Presence::Window {
                    from: a.min(b),
                    until: a.max(b),
                }
            }
            6 => {
                let count = rng.gen_range(0..5);
                Presence::FiniteSet((0..count).map(|_| rng.gen_range(0..40)).collect())
            }
            _ => {
                let period = rng.gen_range(1..8);
                let count = rng.gen_range(0..4);
                Presence::Periodic {
                    period,
                    phases: (0..count).map(|_| rng.gen_range(0..period)).collect(),
                }
            }
        };
    }
    match rng.gen_range(0..5u32) {
        0 => Presence::Not(Box::new(presence(rng, depth - 1))),
        1 => Presence::And(
            Box::new(presence(rng, depth - 1)),
            Box::new(presence(rng, depth - 1)),
        ),
        2 => Presence::Or(
            Box::new(presence(rng, depth - 1)),
            Box::new(presence(rng, depth - 1)),
        ),
        3 => presence(rng, depth - 1).dilate(rng.gen_range(1..5)),
        _ => Presence::PqPower { p: 2, q: 3 },
    }
}

/// A random latency: constant, affine, or dilated-constant.
pub fn latency<R: Rng + ?Sized>(rng: &mut R) -> Latency<u64> {
    match rng.gen_range(0..3u32) {
        0 => Latency::Const(rng.gen_range(0..10)),
        1 => Latency::Affine {
            mul: rng.gen_range(0..4),
            add: rng.gen_range(0..10),
        },
        _ => Latency::Const(rng.gen_range(0..6)).dilate(rng.gen_range(1..4)),
    }
}

/// A random waiting policy: no-wait, a small bound, or unbounded.
pub fn policy<R: Rng + ?Sized>(rng: &mut R) -> WaitingPolicy<u64> {
    match rng.gen_range(0..3u32) {
        0 => WaitingPolicy::NoWait,
        1 => WaitingPolicy::Bounded(rng.gen_range(0..5)),
        _ => WaitingPolicy::Unbounded,
    }
}

/// Random parameters for a small periodic TVG (the scale every
/// cross-checking property uses).
fn periodic_params<R: Rng + ?Sized>(rng: &mut R) -> RandomPeriodicParams {
    RandomPeriodicParams {
        num_nodes: rng.gen_range(2..6),
        num_edges: rng.gen_range(2..10),
        period: rng.gen_range(2..5),
        phase_density: 0.45,
        alphabet: Alphabet::ab(),
    }
}

/// A random periodic TVG drawn via `periodic_params`. The graph's own
/// randomness is forked from `rng` so callers keep one seed per case.
pub fn periodic_tvg<R: Rng + ?Sized>(rng: &mut R) -> Tvg<u64> {
    let params = periodic_params(rng);
    random_periodic_tvg(&mut StdRng::seed_from_u64(rng.gen::<u64>()), &params)
}

/// A random periodic TVG-automaton (initial = node 0, accepting = last
/// node, start time 0) together with its period.
pub fn periodic_automaton<R: Rng + ?Sized>(rng: &mut R) -> (TvgAutomaton<u64>, u64) {
    let params = periodic_params(rng);
    let g = random_periodic_tvg(&mut StdRng::seed_from_u64(rng.gen::<u64>()), &params);
    let aut = TvgAutomaton::new(
        g,
        BTreeSet::from([NodeId::from_index(0)]),
        BTreeSet::from([NodeId::from_index(params.num_nodes - 1)]),
        0,
    )
    .expect("generated automaton is structurally valid");
    (aut, params.period)
}

/// A deterministic streamed-ingestion script: a prepared [`TvgStream`]
/// (nodes and edges declared, no events yet) plus the ordered batches
/// to feed it. Produced by [`event_stream`]; consumed by the
/// `stream_props` differential property suite, which re-checks the
/// live-vs-recompile oracle after every batch.
#[derive(Debug, Clone)]
pub struct EventScript {
    /// Which fixture family the base schedule came from.
    pub label: &'static str,
    /// The stream, at its *initial* horizon, before any batch.
    pub stream: TvgStream<u64>,
    /// Event batches in feed order (may include `NewEdge` injections
    /// and one mid-script `ExtendHorizon`).
    pub batches: Vec<Vec<StreamEvent<u64>>>,
    /// The horizon after all batches (equals the initial horizon when
    /// no extension was generated).
    pub final_horizon: u64,
}

/// A random streamed-ingestion script over one of the standard fixture
/// families (commuter line, random-periodic, scale-free temporal).
///
/// The base schedule is compiled once and replayed as interleaved
/// up/down events chopped into randomly-sized batches; with the base
/// events the script interleaves a few never-before-seen edges
/// (`NewEdge` followed by their own up/down, possibly a zero-length
/// pair, possibly left open) and, usually, starts at a reduced horizon
/// with a mid-script `ExtendHorizon` once the feed reaches it.
pub fn event_stream<R: Rng + ?Sized>(rng: &mut R) -> EventScript {
    let (label, base, full_horizon): (&'static str, Tvg<u64>, u64) = match rng.gen_range(0..3u32) {
        0 => ("commuter", crate::fixtures::commuter_line(), 24),
        1 => {
            let params = periodic_params(rng);
            let g = random_periodic_tvg(&mut StdRng::seed_from_u64(rng.gen::<u64>()), &params);
            ("periodic", g, 4 * params.period + rng.gen_range(0..4))
        }
        _ => {
            let n = rng.gen_range(5..10);
            let horizon = rng.gen_range(16..28);
            let g = scale_free_temporal(n, horizon, rng.gen::<u64>());
            ("scale_free", g, horizon)
        }
    };
    // Base feed: the compiled schedule replayed in timeline order.
    let (_, base_events) =
        TvgStream::replay_of(&base, &full_horizon).expect("generated horizons are small");
    // Keyed merge list: (event time, generation seq). The stable key
    // order keeps per-edge causality (NewEdge before Up before Down).
    let mut keyed: Vec<(u64, usize, StreamEvent<u64>)> = Vec::new();
    for ev in base_events {
        let key = match &ev {
            StreamEvent::Up { at, .. } | StreamEvent::Down { at, .. } => *at,
            _ => unreachable!("replay emits only up/down"),
        };
        keyed.push((key, keyed.len(), ev));
    }
    // Injected fresh edges: ids continue after the base graph's, in the
    // sorted order their NewEdge events will be ingested.
    let num_nodes = base.num_nodes();
    let mut injections: Vec<(u64, NodeId, NodeId, Option<u64>)> = (0..rng.gen_range(0..3u32))
        .map(|_| {
            let up = rng.gen_range(0..=full_horizon);
            let src = NodeId::from_index(rng.gen_range(0..num_nodes));
            let dst = NodeId::from_index(rng.gen_range(0..num_nodes));
            // Down at the same instant (zero-length), later, or never.
            let down = match rng.gen_range(0..4u32) {
                0 => Some(up),
                1 | 2 => Some(rng.gen_range(up..=full_horizon)),
                _ => None,
            };
            (up, src, dst, down)
        })
        .collect();
    injections.sort_by_key(|(up, ..)| *up);
    for (i, (up, src, dst, down)) in injections.into_iter().enumerate() {
        let edge = tvg_model::EdgeId::from_index(base.num_edges() + i);
        let seq = keyed.len();
        keyed.push((
            up,
            seq,
            StreamEvent::NewEdge {
                src,
                dst,
                label: 'z',
                latency: Latency::unit(),
            },
        ));
        keyed.push((up, seq + 1, StreamEvent::Up { edge, at: up }));
        if let Some(down) = down {
            keyed.push((down, seq + 2, StreamEvent::Down { edge, at: down }));
        }
    }
    keyed.sort_by_key(|entry| (entry.0, entry.1));

    // Usually start below the full horizon and extend mid-feed.
    let initial_horizon = if rng.gen_bool(0.7) && full_horizon > 2 {
        rng.gen_range(full_horizon / 2..full_horizon)
    } else {
        full_horizon
    };
    let (stream, _) =
        TvgStream::replay_of(&base, &initial_horizon).expect("generated horizons are small");
    let mut batches: Vec<Vec<StreamEvent<u64>>> = Vec::new();
    let mut batch: Vec<StreamEvent<u64>> = Vec::new();
    let mut extended = initial_horizon == full_horizon;
    for (key, _, ev) in keyed {
        if !extended && key > initial_horizon {
            if !batch.is_empty() {
                batches.push(std::mem::take(&mut batch));
            }
            batches.push(vec![StreamEvent::ExtendHorizon { to: full_horizon }]);
            extended = true;
        }
        batch.push(ev);
        if rng.gen_bool(0.3) {
            batches.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    if !extended {
        batches.push(vec![StreamEvent::ExtendHorizon { to: full_horizon }]);
    }
    EventScript {
        label,
        stream,
        batches,
        final_horizon: full_horizon,
    }
}

/// A random *churn* script: a feed that shrinks the node set mid-stream
/// (and usually grows it back). Two families:
///
/// * `peer_lifecycle` — the model generator's native join/leave feed,
///   valid by construction, ingested into an initially **empty** stream
///   (every node arrives as a `NewNode` event);
/// * `commuter_churn` / `scale_free_churn` — a standard fixture's
///   replay with 1–2 node departures injected. Incident events strictly
///   after a departure are dropped (the leave itself closes any open
///   incident span); incident events *at* the departure instant are
///   kept, so leaves land on just-opened (zero-length) and just-closed
///   spans too. About half the victims rejoin later under a fresh id
///   with a live edge of their own.
pub fn churn_script<R: Rng + ?Sized>(rng: &mut R) -> EventScript {
    let chop = |rng: &mut R, feed: Vec<StreamEvent<u64>>| -> Vec<Vec<StreamEvent<u64>>> {
        let mut batches = Vec::new();
        let mut batch = Vec::new();
        for ev in feed {
            batch.push(ev);
            if rng.gen_bool(0.25) {
                batches.push(std::mem::take(&mut batch));
            }
        }
        if !batch.is_empty() {
            batches.push(batch);
        }
        batches
    };
    if rng.gen_bool(0.4) {
        let n = rng.gen_range(4..9usize);
        let swaps = rng.gen_range(1..4usize);
        let horizon = rng.gen_range(16..40u64);
        let feed = tvg_model::generators::peer_lifecycle_churn(n, swaps, horizon, rng.gen::<u64>());
        let stream = TvgStream::new(horizon).expect("generated horizons are small");
        let batches = chop(rng, feed);
        return EventScript {
            label: "peer_lifecycle",
            stream,
            batches,
            final_horizon: horizon,
        };
    }
    let (label, base, horizon): (&'static str, Tvg<u64>, u64) = if rng.gen_bool(0.5) {
        ("commuter_churn", crate::fixtures::commuter_line(), 24)
    } else {
        let n = rng.gen_range(6..10);
        let h = rng.gen_range(16..28);
        let g = scale_free_temporal(n, h, rng.gen::<u64>());
        ("scale_free_churn", g, h)
    };
    let (stream, base_events) =
        TvgStream::replay_of(&base, &horizon).expect("generated horizons are small");
    // Victims: distinct nodes, each with a leave instant. Keep at least
    // two nodes alive so rejoin edges always have a safe endpoint.
    let mut victims: Vec<(NodeId, u64)> = Vec::new();
    for _ in 0..rng.gen_range(1..3u32) {
        let v = NodeId::from_index(rng.gen_range(0..base.num_nodes()));
        if victims.iter().all(|(w, _)| *w != v) {
            victims.push((v, rng.gen_range(1..horizon)));
        }
    }
    let survivors: Vec<NodeId> = (0..base.num_nodes())
        .map(NodeId::from_index)
        .filter(|n| victims.iter().all(|(v, _)| v != n))
        .collect();
    // Keyed merge (time, seq): base events keep feed order; a leave
    // sorts after every base event at its own instant.
    let mut keyed: Vec<(u64, usize, StreamEvent<u64>)> = Vec::new();
    for ev in base_events {
        let at = match &ev {
            StreamEvent::Up { at, .. } | StreamEvent::Down { at, .. } => *at,
            _ => unreachable!("replay emits only up/down"),
        };
        // Drop events strictly after any incident victim's departure.
        let dropped = victims.iter().any(|(v, leave)| {
            let (edge, at) = match &ev {
                StreamEvent::Up { edge, at } | StreamEvent::Down { edge, at } => (*edge, *at),
                _ => unreachable!("replay emits only up/down"),
            };
            let e = base.edge(edge);
            (e.src() == *v || e.dst() == *v) && at > *leave
        });
        if !dropped {
            keyed.push((at, keyed.len(), ev));
        }
    }
    let base_seq = keyed.len() + base.num_edges();
    for (i, (v, leave)) in victims.iter().enumerate() {
        keyed.push((
            *leave,
            base_seq + i,
            StreamEvent::NodeLeave {
                node: *v,
                at: *leave,
            },
        ));
    }
    // Rejoins: fresh id, one live edge to a survivor. Ids continue
    // after the base graph's in ingestion (time) order.
    let mut rejoins: Vec<(u64, NodeId)> = Vec::new();
    for (_, leave) in &victims {
        if rng.gen_bool(0.5) && leave + 1 < horizon {
            let at = rng.gen_range(leave + 1..horizon);
            rejoins.push((at, survivors[rng.gen_range(0..survivors.len())]));
        }
    }
    rejoins.sort_unstable();
    for (i, (at, peer)) in rejoins.into_iter().enumerate() {
        let node = NodeId::from_index(base.num_nodes() + i);
        let edge = tvg_model::EdgeId::from_index(base.num_edges() + i);
        let seq = base_seq + victims.len() + 3 * i;
        keyed.push((
            at,
            seq,
            StreamEvent::NewNode {
                name: format!("rejoin{i}"),
            },
        ));
        keyed.push((
            at,
            seq + 1,
            StreamEvent::NewEdge {
                src: node,
                dst: peer,
                label: 'r',
                latency: Latency::unit(),
            },
        ));
        keyed.push((at, seq + 2, StreamEvent::Up { edge, at }));
    }
    keyed.sort_by_key(|entry| (entry.0, entry.1));
    let batches = chop(rng, keyed.into_iter().map(|(_, _, ev)| ev).collect());
    EventScript {
        label,
        stream,
        batches,
        final_horizon: horizon,
    }
}

/// Random edge-Markovian trace parameters (small, fast regime).
pub fn markovian_params<R: Rng + ?Sized>(rng: &mut R) -> EdgeMarkovianParams {
    EdgeMarkovianParams {
        num_nodes: rng.gen_range(3..10),
        p_birth: f64_in(rng, 0.0, 0.5),
        p_death: f64_in(rng, 0.1, 0.9),
        steps: rng.gen_range(5..40),
    }
}

/// A random edge-Markovian contact trace via [`markovian_params`].
pub fn markovian_trace<R: Rng + ?Sized>(rng: &mut R) -> EvolvingTrace {
    let params = markovian_params(rng);
    edge_markovian_trace(&mut StdRng::seed_from_u64(rng.gen::<u64>()), &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    #[test]
    fn generators_are_deterministic() {
        let w1 = word(&mut rng_for("g"), &Alphabet::ab(), 8);
        let w2 = word(&mut rng_for("g"), &Alphabet::ab(), 8);
        assert_eq!(w1, w2);
        let d1 = dfa(&mut rng_for("g"), &Alphabet::ab(), 6);
        let d2 = dfa(&mut rng_for("g"), &Alphabet::ab(), 6);
        assert!(d1.equivalent_to(&d2));
        let (a1, p1) = periodic_automaton(&mut rng_for("g"));
        let (a2, p2) = periodic_automaton(&mut rng_for("g"));
        assert_eq!(p1, p2);
        assert_eq!(a1.tvg().num_edges(), a2.tvg().num_edges());
    }

    #[test]
    fn word_lengths_cover_range() {
        let mut rng = rng_for("lengths");
        let lens: BTreeSet<usize> = (0..200)
            .map(|_| word(&mut rng, &Alphabet::ab(), 5).len())
            .collect();
        assert_eq!(lens, (0..=5).collect());
    }

    #[test]
    fn f64_in_bounds() {
        let mut rng = rng_for("f64");
        for _ in 0..1000 {
            let v = f64_in(&mut rng, 0.25, 0.75);
            assert!((0.25..0.75).contains(&v));
        }
    }

    #[test]
    fn presence_generator_terminates_and_evaluates() {
        let mut rng = rng_for("presence");
        for _ in 0..200 {
            let p = presence(&mut rng, 3);
            let _ = p.is_present(&17u64); // must not panic at any depth
        }
    }
}
