//! Generators for structured and random time-varying graphs.
//!
//! Experiments E3/E4 quantify over *families* of TVGs; these constructors
//! produce the periodic and random instances those sweeps run on. All
//! randomness flows through a caller-supplied [`rand::Rng`], so every
//! experiment is reproducible from its seed.

use crate::{Latency, Presence, Tvg, TvgBuilder};
use rand::Rng;
use std::collections::BTreeSet;
use tvg_langs::Alphabet;

/// Parameters for [`random_periodic_tvg`].
#[derive(Debug, Clone)]
pub struct RandomPeriodicParams {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed labeled edges.
    pub num_edges: usize,
    /// Common period of all presence schedules (nonzero).
    pub period: u64,
    /// Probability that each phase `0..period` is present, per edge.
    pub phase_density: f64,
    /// Edge labels are drawn uniformly from this alphabet.
    pub alphabet: Alphabet,
}

impl Default for RandomPeriodicParams {
    fn default() -> Self {
        RandomPeriodicParams {
            num_nodes: 5,
            num_edges: 8,
            period: 4,
            phase_density: 0.5,
            alphabet: Alphabet::ab(),
        }
    }
}

/// A random TVG with periodic presence schedules and unit latencies.
///
/// Self-loops are allowed (they are meaningful in TVG-automata); each edge
/// gets an independent random phase set, re-drawn once if empty so every
/// edge is present somewhere in the period (recurrent class).
///
/// # Panics
///
/// Panics if `num_nodes == 0` or `period == 0`.
pub fn random_periodic_tvg<R: Rng + ?Sized>(
    rng: &mut R,
    params: &RandomPeriodicParams,
) -> Tvg<u64> {
    assert!(params.num_nodes > 0, "need at least one node");
    assert!(params.period > 0, "period must be nonzero");
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(params.num_nodes);
    for _ in 0..params.num_edges {
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        let label = params
            .alphabet
            .letter(rng.gen_range(0..params.alphabet.len()))
            .as_char();
        let mut phases: BTreeSet<u64> = (0..params.period)
            .filter(|_| rng.gen_bool(params.phase_density))
            .collect();
        if phases.is_empty() {
            phases.insert(rng.gen_range(0..params.period));
        }
        b.edge(
            src,
            dst,
            label,
            Presence::Periodic {
                period: params.period,
                phases,
            },
            Latency::unit(),
        )
        .expect("nodes come from this builder");
    }
    b.build().expect("at least one node")
}

/// A scale-free temporal contact network: preferential attachment
/// (Barabási–Albert, 2 attachments per node) decides *who* meets whom,
/// and every undirected contact pair gets a finite set of meeting
/// instants drawn uniformly below `horizon` (both edge orientations
/// share the instants, as in a contact trace).
///
/// Node *contact degrees* — the number of contact events a node
/// participates in — follow the attachment process's power law: a few
/// hubs carry most of the contacts while most nodes meet rarely. This is
/// the large-scale batch/bench workload (experiment E8): at `n` in the
/// tens of thousands the compiled index holds millions of edge
/// events, a different regime from the commuter-line and ring fixtures.
///
/// Fully determined by `(n, horizon, seed)`.
///
/// # Panics
///
/// Panics if `n == 0` or `horizon == 0`.
pub fn scale_free_temporal(n: usize, horizon: u64, seed: u64) -> Tvg<u64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    assert!(n > 0, "need at least one node");
    assert!(horizon > 0, "contacts need a nonempty time window");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(n);
    // Attachment endpoint pool: every accepted contact pair pushes both
    // endpoints, so sampling the pool is sampling proportional to degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(4 * n);
    let contact = |b: &mut TvgBuilder<u64>, rng: &mut StdRng, u: usize, v: usize| {
        let count = 1 + rng.gen_range(0..6usize);
        let instants: BTreeSet<u64> = (0..count).map(|_| rng.gen_range(0..horizon)).collect();
        let rho = Presence::FiniteSet(instants);
        for (src, dst) in [(u, v), (v, u)] {
            b.edge(nodes[src], nodes[dst], 's', rho.clone(), Latency::unit())
                .expect("nodes come from this builder");
        }
    };
    // Seed clique over the first min(n, 3) nodes.
    let m0 = n.min(3);
    for u in 0..m0 {
        for v in (u + 1)..m0 {
            contact(&mut b, &mut rng, u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in m0..n {
        let mut targets: BTreeSet<usize> = BTreeSet::new();
        // Two attachments per arriving node (fewer when the pool is
        // smaller than that, e.g. right after a 1- or 2-node seed).
        while targets.len() < 2.min(u) {
            let t = if endpoints.is_empty() {
                rng.gen_range(0..u)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if t != u {
                targets.insert(t);
            }
        }
        for v in targets {
            contact(&mut b, &mut rng, u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    b.build().expect("at least one node")
}

/// A directed ring of `n` nodes whose edge `i → i+1` is present at phase
/// `i mod period` — a "circular bus line" where a traveler must wait one
/// period between consecutive hops unless departures are aligned.
///
/// All edges are labeled `label` and have unit latency.
///
/// # Panics
///
/// Panics if `n == 0` or `period == 0`.
pub fn ring_bus_tvg(n: usize, period: u64, label: char) -> Tvg<u64> {
    assert!(n > 0, "need at least one node");
    assert!(period > 0, "period must be nonzero");
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(n);
    for i in 0..n {
        let phase = (i as u64) % period;
        b.edge(
            nodes[i],
            nodes[(i + 1) % n],
            label,
            Presence::Periodic {
                period,
                phases: BTreeSet::from([phase]),
            },
            Latency::unit(),
        )
        .expect("nodes come from this builder");
    }
    b.build().expect("at least one node")
}

/// A line (path) network `v0 → v1 → … → v(n-1)` where hop `i` departs
/// only at the instants in `timetable[i]` — a transit timetable. Unit
/// latencies; all edges labeled `label`.
///
/// # Panics
///
/// Panics if `timetable.len() + 1 != n` or `n == 0`.
pub fn line_timetable_tvg(n: usize, timetable: &[BTreeSet<u64>], label: char) -> Tvg<u64> {
    assert!(n > 0, "need at least one node");
    assert_eq!(timetable.len() + 1, n, "one timetable entry per hop");
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(n);
    for (i, departures) in timetable.iter().enumerate() {
        b.edge(
            nodes[i],
            nodes[i + 1],
            label,
            Presence::FiniteSet(departures.iter().copied().collect()),
            Latency::unit(),
        )
        .expect("nodes come from this builder");
    }
    b.build().expect("at least one node")
}

/// A star network: hub node 0 with spokes `1..n`, each spoke pair
/// `hub ↔ spoke` present at a phase staggered by spoke index. Models a
/// message ferry visiting clients round-robin.
///
/// All edges labeled `label`, unit latency, period `n - 1`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star_ferry_tvg(n: usize, label: char) -> Tvg<u64> {
    assert!(n >= 2, "need a hub and at least one spoke");
    let period = (n - 1) as u64;
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(n);
    for spoke in 1..n {
        let phase = (spoke - 1) as u64 % period;
        for (src, dst) in [(0, spoke), (spoke, 0)] {
            b.edge(
                nodes[src],
                nodes[dst],
                label,
                Presence::Periodic {
                    period,
                    phases: BTreeSet::from([phase]),
                },
                Latency::unit(),
            )
            .expect("nodes come from this builder");
        }
    }
    b.build().expect("at least one node")
}

/// A toroidal grid (`rows × cols`) where horizontal edges are present at
/// even instants and vertical edges at odd instants — a synchronous
/// two-phase mesh.
///
/// All edges labeled `label`, unit latency.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid_two_phase_tvg(rows: usize, cols: usize, label: char) -> Tvg<u64> {
    assert!(rows > 0 && cols > 0, "grid must be nonempty");
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(rows * cols);
    let id = |r: usize, c: usize| nodes[r * cols + c];
    let horizontal = Presence::Periodic {
        period: 2,
        phases: BTreeSet::from([0u64]),
    };
    let vertical = Presence::Periodic {
        period: 2,
        phases: BTreeSet::from([1u64]),
    };
    for r in 0..rows {
        for c in 0..cols {
            if cols > 1 {
                b.edge(
                    id(r, c),
                    id(r, (c + 1) % cols),
                    label,
                    horizontal.clone(),
                    Latency::unit(),
                )
                .expect("builder-owned nodes");
            }
            if rows > 1 {
                b.edge(
                    id(r, c),
                    id((r + 1) % rows, c),
                    label,
                    vertical.clone(),
                    Latency::unit(),
                )
                .expect("builder-owned nodes");
            }
        }
    }
    b.build().expect("at least one node")
}

/// An edge-Markovian contact TVG: every unordered node pair evolves as an
/// independent two-state Markov chain over instants `0..horizon` — an
/// absent contact appears with probability `p_birth` per instant, a
/// present one disappears with probability `p_death` — starting from the
/// stationary distribution `p_birth / (p_birth + p_death)`. Both edge
/// orientations of a pair share the contact instants (label `'m'`, unit
/// latency); pairs never in contact get no edge at all.
///
/// This is the TVG-native face of the edge-Markovian *trace* model in
/// `tvg-dynnet` (the standard model of highly dynamic, possibly
/// always-disconnected networks), packaged as a generator so declarative
/// scenarios can run matrix/broadcast/streaming plans on it without a
/// trace detour. Fully determined by its parameters and `seed`.
///
/// # Panics
///
/// Panics if `n < 2`, `horizon == 0`, or a probability is outside `[0, 1]`.
pub fn edge_markovian_contacts(
    n: usize,
    horizon: u64,
    p_birth: f64,
    p_death: f64,
    seed: u64,
) -> Tvg<u64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    assert!(n >= 2, "need at least two nodes");
    assert!(horizon > 0, "contacts need a nonempty time window");
    for p in [p_birth, p_death] {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(n);
    let denom = p_birth + p_death;
    let density = if denom == 0.0 { 0.0 } else { p_birth / denom };
    for a in 0..n {
        for c in (a + 1)..n {
            let mut present = rng.gen_bool(density);
            let mut instants: BTreeSet<u64> = BTreeSet::new();
            for t in 0..horizon {
                if present {
                    instants.insert(t);
                    present = !rng.gen_bool(p_death);
                } else {
                    present = rng.gen_bool(p_birth);
                }
            }
            if instants.is_empty() {
                continue;
            }
            let rho = Presence::FiniteSet(instants);
            for (src, dst) in [(a, c), (c, a)] {
                b.edge(nodes[src], nodes[dst], 'm', rho.clone(), Latency::unit())
                    .expect("nodes come from this builder");
            }
        }
    }
    b.build().expect("at least one node")
}

/// A random-waypoint mobility contact TVG on a `rows × cols` grid:
/// `walkers` agents each pick a random waypoint cell, step one cell per
/// instant toward it (along the axis with the larger remaining distance,
/// rows on ties), and pick a fresh waypoint on arrival. Two walkers
/// sharing a cell at an instant are in contact then; contacts become
/// edges in both orientations (label `'w'`, unit latency) whose presence
/// is the exact meeting instants below `horizon`.
///
/// The nodes of the TVG are the *walkers*, not the grid cells — this is
/// the classic mobility-model contact workload (sparse, bursty,
/// position-correlated) as opposed to the memoryless edge-Markovian one.
/// Fully determined by its parameters and `seed`.
///
/// # Panics
///
/// Panics if `walkers == 0`, `rows == 0`, `cols == 0`, or `horizon == 0`.
pub fn waypoint_grid_contacts(
    walkers: usize,
    rows: usize,
    cols: usize,
    horizon: u64,
    seed: u64,
) -> Tvg<u64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    assert!(walkers > 0, "need at least one walker");
    assert!(rows > 0 && cols > 0, "grid must be nonempty");
    assert!(horizon > 0, "contacts need a nonempty time window");
    let mut rng = StdRng::seed_from_u64(seed);
    let cell = |rng: &mut StdRng| (rng.gen_range(0..rows), rng.gen_range(0..cols));
    let mut pos: Vec<(usize, usize)> = (0..walkers).map(|_| cell(&mut rng)).collect();
    let mut goal: Vec<(usize, usize)> = (0..walkers).map(|_| cell(&mut rng)).collect();
    let mut meetings: std::collections::BTreeMap<(usize, usize), BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for t in 0..horizon {
        // Contacts at t come from positions at t; walkers move afterward.
        for u in 0..walkers {
            for v in (u + 1)..walkers {
                if pos[u] == pos[v] {
                    meetings.entry((u, v)).or_default().insert(t);
                }
            }
        }
        for w in 0..walkers {
            if pos[w] == goal[w] {
                goal[w] = cell(&mut rng);
            }
            let (r, c) = pos[w];
            let (gr, gc) = goal[w];
            let dr = gr.abs_diff(r);
            let dc = gc.abs_diff(c);
            if dr >= dc && dr > 0 {
                pos[w].0 = if gr > r { r + 1 } else { r - 1 };
            } else if dc > 0 {
                pos[w].1 = if gc > c { c + 1 } else { c - 1 };
            }
        }
    }
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(walkers);
    for ((u, v), instants) in meetings {
        let rho = Presence::FiniteSet(instants);
        for (src, dst) in [(u, v), (v, u)] {
            b.edge(nodes[src], nodes[dst], 'w', rho.clone(), Latency::unit())
                .expect("nodes come from this builder");
        }
    }
    b.build().expect("at least one node")
}

/// A shift-scheduled commuter fleet: `lines` bus lines, each a chain of
/// `stops` outer stops feeding one shared hub (node 0). Line `l` runs
/// `runs` services in each direction; service `k` leaves its terminus at
/// `shift · l + headway · k` and crosses one hop per instant (unit
/// latency, label `'f'`), so the lines' timetables are staggered against
/// each other by `shift` — transfers at the hub only connect when the
/// shifts happen to chain, which is exactly the waiting-vs-not workload
/// at fleet scale.
///
/// Node layout: hub `0`, then line `l`'s stops `1 + l·stops ..` ordered
/// outward from the hub. Inbound services run terminus → hub, outbound
/// services hub → terminus, with identical departure instants.
/// Deterministic (no randomness).
///
/// # Panics
///
/// Panics if `lines`, `stops`, or `runs` is zero, or `headway == 0`.
pub fn commuter_fleet(
    lines: usize,
    stops: usize,
    headway: u64,
    shift: u64,
    runs: usize,
) -> Tvg<u64> {
    assert!(lines > 0, "need at least one line");
    assert!(stops > 0, "need at least one stop per line");
    assert!(runs > 0, "need at least one service per line");
    assert!(headway > 0, "headway must be nonzero");
    let mut b = TvgBuilder::new();
    let nodes = b.nodes(1 + lines * stops);
    for l in 0..lines {
        // The chain hub = n₀ — n₁ — … — n_stops for this line.
        let chain: Vec<_> = std::iter::once(nodes[0])
            .chain((0..stops).map(|s| nodes[1 + l * stops + s]))
            .collect();
        let bases: Vec<u64> = (0..runs)
            .map(|k| shift * l as u64 + headway * k as u64)
            .collect();
        // Hop i of an inbound service departs `i` instants after its
        // base (the bus crosses one hop per instant); outbound mirrors.
        for i in 0..stops {
            let inbound: BTreeSet<u64> = bases.iter().map(|base| base + i as u64).collect();
            let outbound = inbound.clone();
            b.edge(
                chain[stops - i],
                chain[stops - i - 1],
                'f',
                Presence::FiniteSet(inbound),
                Latency::unit(),
            )
            .expect("nodes come from this builder");
            b.edge(
                chain[i],
                chain[i + 1],
                'f',
                Presence::FiniteSet(outbound),
                Latency::unit(),
            )
            .expect("nodes come from this builder");
        }
    }
    b.build().expect("at least one node")
}

/// A peer-lifecycle churn *feed*: the event list (for an empty
/// [`crate::stream::TvgStream`] at horizon `horizon`) of `n` peers
/// walking the Unknown → Identified → Pending → Connected state machine,
/// with dynamic peer swapping. Unlike every other generator here, the
/// node set itself churns — this is a stream workload first, and a batch
/// graph only via `TvgStream::to_tvg`.
///
/// Per instant, in feed order:
///
/// * contacts whose window expires close (`Down` on both orientations);
/// * at each of the `swaps` evenly spaced swap instants, the
///   longest-connected live peer is swapped out (`NodeLeave` — its open
///   contacts close implicitly) and a fresh peer joins (`NewNode`),
///   entering the state machine at Unknown;
/// * peers advance states (discover 0.6, invite 0.5, accept 0.5 per
///   instant); a newly Connected peer opens contacts (both edge
///   orientations, label `'p'`, unit latency) to up to two other
///   connected peers for a 2–8 instant window, and a connected peer
///   drops back to Identified with probability 0.12, closing its open
///   contacts.
///
/// Node ids are never reused: the feed contains exactly `n + swaps`
/// `NewNode`s (ids `0..n + swaps` in join order, names `p0, p1, …`) and
/// exactly `swaps` `NodeLeave`s. Fully determined by its parameters and
/// `seed`.
///
/// # Panics
///
/// Panics if `n < 2` or `horizon == 0`.
pub fn peer_lifecycle_churn(
    n: usize,
    swaps: usize,
    horizon: u64,
    seed: u64,
) -> Vec<crate::stream::StreamEvent<u64>> {
    use crate::stream::StreamEvent;
    use crate::{EdgeId, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    assert!(n >= 2, "need at least two peers");
    assert!(horizon > 0, "churn needs a nonempty time window");

    #[derive(Clone, Copy, PartialEq)]
    enum PeerState {
        Unknown,
        Identified,
        Pending,
        Connected,
    }
    struct Peer {
        state: PeerState,
        departed: bool,
        connected_since: Option<u64>,
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<StreamEvent<u64>> = Vec::new();
    let mut peers: Vec<Peer> = Vec::new();
    let join = |events: &mut Vec<StreamEvent<u64>>, peers: &mut Vec<Peer>| {
        events.push(StreamEvent::NewNode {
            name: format!("p{}", peers.len()),
        });
        peers.push(Peer {
            state: PeerState::Unknown,
            departed: false,
            connected_since: None,
        });
    };
    for _ in 0..n {
        join(&mut events, &mut peers);
    }
    // Swap instants, evenly spaced in [1, horizon] (integer division can
    // collapse several onto one instant at tiny horizons; each still
    // swaps one peer).
    let swap_times: Vec<u64> = (0..swaps)
        .map(|i| ((i as u64 + 1) * horizon / (swaps as u64 + 1)).max(1))
        .collect();
    // Pair-normalized contact bookkeeping: edge ids mirror the stream's
    // assignment order (NewEdge emission order from an empty stream).
    let mut created: BTreeMap<(usize, usize), (EdgeId, EdgeId)> = BTreeMap::new();
    let mut open: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut next_edge = 0usize;

    for t in 0..=horizon {
        // 1. Contacts whose window expires close.
        let expiring: Vec<(usize, usize)> = open
            .iter()
            .filter(|(_, &close)| close == t)
            .map(|(&pair, _)| pair)
            .collect();
        for pair in expiring {
            let (fwd, rev) = created[&pair];
            events.push(StreamEvent::Down { edge: fwd, at: t });
            events.push(StreamEvent::Down { edge: rev, at: t });
            open.remove(&pair);
        }
        // 2. Peer swaps: the longest-connected live peer leaves (its
        // open contacts close with it), a fresh peer joins.
        for _ in swap_times.iter().filter(|&&s| s == t) {
            let victim = peers
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.departed)
                .min_by_key(|(i, p)| (p.connected_since.is_none(), p.connected_since, *i))
                .map(|(i, _)| i)
                .expect("swaps keep the live set at n >= 2");
            events.push(StreamEvent::NodeLeave {
                node: NodeId::from_index(victim),
                at: t,
            });
            peers[victim].departed = true;
            open.retain(|&(a, b), _| a != victim && b != victim);
            join(&mut events, &mut peers);
        }
        // 3. State transitions, in peer-id order.
        for u in 0..peers.len() {
            if peers[u].departed {
                continue;
            }
            match peers[u].state {
                PeerState::Unknown => {
                    if rng.gen_bool(0.6) {
                        peers[u].state = PeerState::Identified;
                    }
                }
                PeerState::Identified => {
                    if rng.gen_bool(0.5) {
                        peers[u].state = PeerState::Pending;
                    }
                }
                PeerState::Pending => {
                    if rng.gen_bool(0.5) {
                        peers[u].state = PeerState::Connected;
                        peers[u].connected_since = Some(t);
                        // Open contacts to up to two other connected
                        // live peers.
                        let mut cands: Vec<usize> = (0..peers.len())
                            .filter(|&v| {
                                v != u
                                    && !peers[v].departed
                                    && peers[v].state == PeerState::Connected
                            })
                            .collect();
                        for _ in 0..cands.len().min(2) {
                            let v = cands.swap_remove(rng.gen_range(0..cands.len()));
                            let pair = (u.min(v), u.max(v));
                            if open.contains_key(&pair) {
                                continue;
                            }
                            let (fwd, rev) = *created.entry(pair).or_insert_with(|| {
                                for (src, dst) in [(u, v), (v, u)] {
                                    events.push(StreamEvent::NewEdge {
                                        src: NodeId::from_index(src),
                                        dst: NodeId::from_index(dst),
                                        label: 'p',
                                        latency: Latency::unit(),
                                    });
                                }
                                next_edge += 2;
                                (
                                    EdgeId::from_index(next_edge - 2),
                                    EdgeId::from_index(next_edge - 1),
                                )
                            });
                            events.push(StreamEvent::Up { edge: fwd, at: t });
                            events.push(StreamEvent::Up { edge: rev, at: t });
                            open.insert(pair, t + rng.gen_range(2..9));
                        }
                    }
                }
                PeerState::Connected => {
                    if rng.gen_bool(0.12) {
                        // Drop back to Identified; open contacts close.
                        let closing: Vec<(usize, usize)> = open
                            .keys()
                            .filter(|&&(a, b)| a == u || b == u)
                            .copied()
                            .collect();
                        for pair in closing {
                            let (fwd, rev) = created[&pair];
                            events.push(StreamEvent::Down { edge: fwd, at: t });
                            events.push(StreamEvent::Down { edge: rev, at: t });
                            open.remove(&pair);
                        }
                        peers[u].state = PeerState::Identified;
                        peers[u].connected_since = None;
                    }
                }
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_periodic_is_reproducible() {
        let params = RandomPeriodicParams::default();
        let g1 = random_periodic_tvg(&mut StdRng::seed_from_u64(42), &params);
        let g2 = random_periodic_tvg(&mut StdRng::seed_from_u64(42), &params);
        assert_eq!(g1.num_nodes(), g2.num_nodes());
        assert_eq!(g1.num_edges(), g2.num_edges());
        for (e1, e2) in g1.edges().zip(g2.edges()) {
            assert_eq!(g1.edge(e1).src(), g2.edge(e2).src());
            assert_eq!(g1.edge(e1).dst(), g2.edge(e2).dst());
            assert_eq!(g1.edge(e1).label(), g2.edge(e2).label());
            for t in 0..16u64 {
                assert_eq!(g1.is_present(e1, &t), g2.is_present(e2, &t));
            }
        }
    }

    #[test]
    fn random_periodic_every_edge_recurs() {
        let params = RandomPeriodicParams {
            phase_density: 0.05, // likely to draw empty phase sets
            ..RandomPeriodicParams::default()
        };
        let g = random_periodic_tvg(&mut StdRng::seed_from_u64(7), &params);
        for e in g.edges() {
            let present_somewhere = (0..params.period).any(|t| g.is_present(e, &t));
            assert!(present_somewhere, "{e} never present");
        }
    }

    #[test]
    fn random_periodic_schedules_are_periodic() {
        let params = RandomPeriodicParams::default();
        let g = random_periodic_tvg(&mut StdRng::seed_from_u64(3), &params);
        for e in g.edges() {
            for t in 0..params.period * 3 {
                assert_eq!(
                    g.is_present(e, &t),
                    g.is_present(e, &(t + params.period)),
                    "{e} t={t}"
                );
            }
        }
    }

    #[test]
    fn scale_free_is_reproducible_and_heavy_tailed() {
        let g1 = scale_free_temporal(60, 64, 11);
        let g2 = scale_free_temporal(60, 64, 11);
        assert_eq!(g1.num_nodes(), 60);
        assert_eq!(g1.num_edges(), g2.num_edges());
        for (e1, e2) in g1.edges().zip(g2.edges()) {
            assert_eq!(g1.edge(e1).src(), g2.edge(e2).src());
            assert_eq!(g1.edge(e1).dst(), g2.edge(e2).dst());
            for t in 0..64u64 {
                assert_eq!(g1.is_present(e1, &t), g2.is_present(e2, &t), "{e1} t={t}");
            }
        }
        // Preferential attachment concentrates degree: the busiest node
        // must carry several times the median out-degree.
        let mut degrees: Vec<usize> = g1.nodes().map(|v| g1.out_edges(v).len()).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().expect("nonempty");
        assert!(
            max >= 3 * median.max(1),
            "expected a hub: max degree {max}, median {median}"
        );
        // Contacts are symmetric: u→v present iff v→u present.
        for e in g1.edges() {
            let (src, dst) = (g1.edge(e).src(), g1.edge(e).dst());
            let reverse = g1
                .edges()
                .find(|&r| g1.edge(r).src() == dst && g1.edge(r).dst() == src)
                .expect("both orientations exist");
            for t in 0..64u64 {
                assert_eq!(g1.is_present(e, &t), g1.is_present(reverse, &t));
            }
        }
    }

    #[test]
    fn scale_free_small_n_degenerate_cases() {
        assert_eq!(scale_free_temporal(1, 8, 0).num_edges(), 0);
        let two = scale_free_temporal(2, 8, 0);
        assert_eq!(two.num_nodes(), 2);
        assert_eq!(two.num_edges(), 2); // one contact pair, both orientations
    }

    #[test]
    fn ring_bus_phases_stagger() {
        let g = ring_bus_tvg(4, 4, 'r');
        // Edge i present iff t ≡ i (mod 4).
        for (i, e) in g.edges().enumerate() {
            for t in 0..12u64 {
                assert_eq!(g.is_present(e, &t), t % 4 == i as u64, "edge {i} t={t}");
            }
        }
    }

    #[test]
    fn line_timetable_respects_departures() {
        let g = line_timetable_tvg(3, &[BTreeSet::from([2u64, 5]), BTreeSet::from([7u64])], 't');
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(g.traverse(edges[0], &2), Some(3));
        assert_eq!(g.traverse(edges[0], &3), None);
        assert_eq!(g.traverse(edges[1], &7), Some(8));
        assert_eq!(g.traverse(edges[1], &5), None);
    }

    #[test]
    #[should_panic(expected = "one timetable entry per hop")]
    fn timetable_arity_checked() {
        let _ = line_timetable_tvg(3, &[BTreeSet::new()], 't');
    }

    #[test]
    fn star_ferry_visits_round_robin() {
        let g = star_ferry_tvg(4, 'f'); // hub + 3 spokes, period 3
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6);
        // At t=0 only spoke 1's pair is up; at t=1 spoke 2's; at t=2 spoke 3's.
        for t in 0u64..6 {
            let up = g.snapshot(&t);
            assert_eq!(up.len(), 2, "t={t}");
            let spoke = (t % 3) as usize + 1;
            for e in up {
                let edge = g.edge(e);
                let pair = (edge.src().index(), edge.dst().index());
                assert!(pair == (0, spoke) || pair == (spoke, 0), "t={t} {pair:?}");
            }
        }
    }

    #[test]
    fn grid_alternates_phases() {
        let g = grid_two_phase_tvg(2, 3, 'g');
        assert_eq!(g.num_nodes(), 6);
        // Horizontal edges (within a row) present only at even t.
        for e in g.edges() {
            let edge = g.edge(e);
            let (s, d) = (edge.src().index(), edge.dst().index());
            let same_row = s / 3 == d / 3;
            assert_eq!(g.is_present(e, &0), same_row, "{e} at t=0");
            assert_eq!(g.is_present(e, &1), !same_row, "{e} at t=1");
        }
    }

    #[test]
    fn edge_markovian_contacts_reproducible_and_symmetric() {
        let g1 = edge_markovian_contacts(10, 30, 0.1, 0.4, 7);
        let g2 = edge_markovian_contacts(10, 30, 0.1, 0.4, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        for (e1, e2) in g1.edges().zip(g2.edges()) {
            assert_eq!(g1.edge(e1).src(), g2.edge(e2).src());
            for t in 0..30u64 {
                assert_eq!(g1.is_present(e1, &t), g2.is_present(e2, &t));
            }
        }
        // Contacts are symmetric and within the horizon.
        for e in g1.edges() {
            let (src, dst) = (g1.edge(e).src(), g1.edge(e).dst());
            let reverse = g1
                .edges()
                .find(|&r| g1.edge(r).src() == dst && g1.edge(r).dst() == src)
                .expect("both orientations exist");
            let mut ever = false;
            for t in 0..40u64 {
                assert_eq!(g1.is_present(e, &t), g1.is_present(reverse, &t));
                if g1.is_present(e, &t) {
                    assert!(t < 30, "contact beyond horizon");
                    ever = true;
                }
            }
            assert!(ever, "never-present pairs get no edge");
        }
    }

    #[test]
    fn edge_markovian_contacts_extreme_rates() {
        // p_birth=1, p_death=0: every pair present at every instant.
        let always = edge_markovian_contacts(4, 5, 1.0, 0.0, 1);
        assert_eq!(always.num_edges(), 12); // C(4,2) pairs × 2 orientations
        for e in always.edges() {
            for t in 0..5u64 {
                assert!(always.is_present(e, &t));
            }
        }
        // p_birth=0: nothing ever appears, no edges at all.
        let never = edge_markovian_contacts(4, 5, 0.0, 1.0, 1);
        assert_eq!(never.num_edges(), 0);
    }

    #[test]
    fn waypoint_walkers_meet_only_when_colocated() {
        let g = waypoint_grid_contacts(6, 3, 3, 40, 5);
        assert_eq!(g.num_nodes(), 6);
        // Reproducible.
        let g2 = waypoint_grid_contacts(6, 3, 3, 40, 5);
        assert_eq!(g.num_edges(), g2.num_edges());
        // On a 3×3 grid with 6 walkers over 40 instants, somebody meets.
        assert!(g.num_edges() > 0, "expected at least one contact");
        // Symmetric orientations.
        for e in g.edges() {
            let (src, dst) = (g.edge(e).src(), g.edge(e).dst());
            let reverse = g
                .edges()
                .find(|&r| g.edge(r).src() == dst && g.edge(r).dst() == src)
                .expect("both orientations exist");
            for t in 0..40u64 {
                assert_eq!(g.is_present(e, &t), g.is_present(reverse, &t));
            }
        }
    }

    #[test]
    fn waypoint_single_cell_grid_is_a_clique_at_every_instant() {
        // Everyone is stuck in the one cell: all pairs in contact always.
        let g = waypoint_grid_contacts(4, 1, 1, 6, 0);
        assert_eq!(g.num_edges(), 12);
        for e in g.edges() {
            for t in 0..6u64 {
                assert!(g.is_present(e, &t));
            }
        }
    }

    #[test]
    fn commuter_fleet_services_chain_toward_the_hub() {
        // One line, two stops, one run leaving the terminus at 0:
        // terminus →(0) mid →(1) hub, and hub →(0) mid →(1) terminus.
        let g = commuter_fleet(1, 2, 4, 0, 1);
        assert_eq!(g.num_nodes(), 3); // hub + 2 stops
        assert_eq!(g.num_edges(), 4);
        let find = |src: usize, dst: usize| {
            g.edges()
                .find(|&e| g.edge(e).src().index() == src && g.edge(e).dst().index() == dst)
                .expect("edge exists")
        };
        // Inbound: terminus (node 2) departs at 0, mid (node 1) at 1.
        assert_eq!(g.traverse(find(2, 1), &0), Some(1));
        assert_eq!(g.traverse(find(1, 0), &1), Some(2));
        assert_eq!(g.traverse(find(1, 0), &0), None);
        // Outbound mirrors the instants.
        assert_eq!(g.traverse(find(0, 1), &0), Some(1));
        assert_eq!(g.traverse(find(1, 2), &1), Some(2));
    }

    #[test]
    fn commuter_fleet_shift_staggers_lines() {
        // Two lines, shift 3: line 1's services depart 3 instants after
        // line 0's. Line 1's terminus is node 1 + 1*2 + 1 = 4.
        let g = commuter_fleet(2, 2, 8, 3, 2);
        assert_eq!(g.num_nodes(), 5);
        let find = |src: usize, dst: usize| {
            g.edges()
                .find(|&e| g.edge(e).src().index() == src && g.edge(e).dst().index() == dst)
                .expect("edge exists")
        };
        // Line 0 terminus = node 2: departures at 0 and 8.
        assert_eq!(g.traverse(find(2, 1), &0), Some(1));
        assert_eq!(g.traverse(find(2, 1), &8), Some(9));
        assert_eq!(g.traverse(find(2, 1), &3), None);
        // Line 1 terminus = node 4: departures at 3 and 11.
        assert_eq!(g.traverse(find(4, 3), &3), Some(4));
        assert_eq!(g.traverse(find(4, 3), &11), Some(12));
        assert_eq!(g.traverse(find(4, 3), &0), None);
    }

    #[test]
    fn degenerate_grids() {
        let line = grid_two_phase_tvg(1, 4, 'g');
        assert_eq!(line.num_nodes(), 4);
        assert_eq!(line.num_edges(), 4); // ring of horizontals only
        let column = grid_two_phase_tvg(3, 1, 'g');
        assert_eq!(column.num_edges(), 3); // ring of verticals only
    }

    #[test]
    fn peer_lifecycle_churn_is_a_valid_deterministic_feed() {
        use crate::stream::{StreamEvent, TvgStream};
        let feed = peer_lifecycle_churn(8, 3, 40, 11);
        let again = peer_lifecycle_churn(8, 3, 40, 11);
        assert_eq!(format!("{feed:?}"), format!("{again:?}"), "same seed");
        let other = peer_lifecycle_churn(8, 3, 40, 12);
        assert_ne!(format!("{feed:?}"), format!("{other:?}"), "seed matters");
        // Exactly n + swaps joins and swaps leaves, in a feed the
        // stream accepts end to end.
        let joins = feed
            .iter()
            .filter(|e| matches!(e, StreamEvent::NewNode { .. }))
            .count();
        let leaves = feed
            .iter()
            .filter(|e| matches!(e, StreamEvent::NodeLeave { .. }))
            .count();
        assert_eq!(joins, 8 + 3);
        assert_eq!(leaves, 3);
        let mut s = TvgStream::<u64>::new(40).expect("representable");
        s.ingest(&feed).expect("churn feed is a valid stream");
        assert_eq!(s.index().tvg().num_nodes(), 11);
        assert_eq!(s.num_departed(), 3);
        assert!(s.index().tvg().num_edges() > 0, "peers made contact");
        assert!(crate::TemporalIndex::num_edge_events(s.index()) > 0);
    }
}
