//! Timeline compression: lowering a `u64`-timed TVG into the `u32`
//! domain when the horizon allows.
//!
//! The journey engine's hot structures — heap entries, flat settle
//! frontiers, label arenas — all carry time instants by value, so a
//! simulation whose horizon fits a `u32` pays double the cache traffic
//! it needs to by running in `u64`. [`narrow_tvg`] rebuilds a graph
//! over `u32` instants, *proving* as it goes that the translation is
//! exact:
//!
//! * every presence variant maps exactly on the whole `u32` domain
//!   (constants beyond `u32::MAX` collapse to `Never`/`Always` as their
//!   comparisons dictate; `Custom` predicates are wrapped to evaluate
//!   the original closure at the widened instant);
//! * a latency is accepted only when its arrival provably fits: for
//!   `Const`/`Affine` the maximal arrival from any departure `<=
//!   horizon` is checked against `u32::MAX` in `u64` arithmetic.
//!   `Custom`/`Dilated` latencies are refused ([`NarrowError`]) — the
//!   caller falls back to the `u64` path, transparently.
//!
//! Refusal is a typed error, never a silent truncation: a caller that
//! cannot narrow keeps the exact `u64` semantics it had. The scenario
//! runtime applies [`narrow_tvg`] to every batch plan and falls back on
//! any error, so the compressed path needs no spec opt-in and can never
//! change a report.

use crate::{EdgeId, Latency, Presence, Tvg, TvgBuilder};

/// Why a TVG could not be lowered into the `u32` time domain. Every
/// variant means "keep the `u64` path", not "approximate".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NarrowError {
    /// The horizon itself does not fit the compressed domain (the
    /// topmost instant is reserved so the exclusive span end
    /// `horizon + 1` stays representable).
    HorizonExceedsU32 {
        /// The offending horizon.
        horizon: u64,
    },
    /// An edge's latency shape (`Custom`, `Dilated`) admits no static
    /// arrival bound, so exactness cannot be proven.
    UnprovableLatency {
        /// The edge carrying the opaque latency.
        edge: EdgeId,
    },
    /// An edge's worst-case arrival `depart + ζ(depart)` over departures
    /// `<= horizon` exceeds `u32::MAX`, so arrivals would overflow the
    /// compressed domain.
    ArrivalOverflow {
        /// The edge whose arrival bound fails.
        edge: EdgeId,
    },
}

impl std::fmt::Display for NarrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NarrowError::HorizonExceedsU32 { horizon } => {
                write!(f, "horizon {horizon} exceeds the u32 time domain")
            }
            NarrowError::UnprovableLatency { edge } => {
                write!(f, "latency of {edge} has no provable u32 arrival bound")
            }
            NarrowError::ArrivalOverflow { edge } => {
                write!(f, "worst-case arrival of {edge} overflows u32")
            }
        }
    }
}

impl std::error::Error for NarrowError {}

/// The largest horizon [`narrow_tvg`] accepts: one below `u32::MAX`, so
/// the compiled window's exclusive end `horizon + 1` is representable
/// and interval compilation never takes the top-of-domain clamp path
/// (which would diverge from the `u64` compilation it must mirror).
const MAX_NARROW_HORIZON: u64 = (u32::MAX - 1) as u64;

/// Rebuilds `g` over `u32` instants, exact for every departure in
/// `[0, horizon]`, or reports why it cannot ([`NarrowError`]).
///
/// On success the narrowed graph answers presence identically on the
/// whole `u32` domain and latency/arrival identically for departures up
/// to `horizon` — which is all a compiled index or journey engine ever
/// queries. Node ids, edge ids, names, and labels are preserved, so
/// results (arrivals, witness journeys, work counters) translate back
/// by widening alone.
///
/// ```
/// use tvg_model::{narrow_tvg, Latency, Presence, TvgBuilder};
///
/// let mut b = TvgBuilder::<u64>::new();
/// let (u, v) = (b.node("u"), b.node("v"));
/// b.edge(u, v, 'a', Presence::At(3), Latency::unit())?;
/// let g = b.build()?;
///
/// let narrow = narrow_tvg(&g, 100).expect("fits u32");
/// assert!(narrow.is_present(tvg_model::EdgeId::from_index(0), &3u32));
/// # Ok::<(), tvg_model::TvgError>(())
/// ```
pub fn narrow_tvg(g: &Tvg<u64>, horizon: u64) -> Result<Tvg<u32>, NarrowError> {
    if horizon > MAX_NARROW_HORIZON {
        return Err(NarrowError::HorizonExceedsU32 { horizon });
    }
    let mut b = TvgBuilder::<u32>::new();
    for n in g.nodes() {
        b.node(g.node_name(n));
    }
    for e in g.edges() {
        let edge = g.edge(e);
        let presence = narrow_presence(edge.presence());
        let latency = narrow_latency(edge.latency(), horizon, e)?;
        b.edge(
            edge.src(),
            edge.dst(),
            edge.label().as_char(),
            presence,
            latency,
        )
        .expect("narrowing preserves builder invariants");
    }
    Ok(b.build().expect("narrowing preserves builder invariants"))
}

/// Maps a presence AST into the `u32` domain, exactly: for every `t:
/// u32`, the narrowed schedule is present at `t` iff the original is
/// present at `u64::from(t)`. Constants beyond `u32::MAX` resolve the
/// comparison they encode (`At`/`After` → never, `Before` → always,
/// windows clamp).
fn narrow_presence(p: &Presence<u64>) -> Presence<u32> {
    const TOP: u64 = u32::MAX as u64;
    match p {
        Presence::Always => Presence::Always,
        Presence::Never => Presence::Never,
        Presence::At(c) => match u32::try_from(*c) {
            Ok(c) => Presence::At(c),
            Err(_) => Presence::Never,
        },
        Presence::After(c) => {
            if *c >= TOP {
                Presence::Never
            } else {
                Presence::After(u32::try_from(*c).expect("below u32::MAX"))
            }
        }
        Presence::Before(c) => {
            if *c > TOP {
                Presence::Always
            } else {
                Presence::Before(u32::try_from(*c).expect("fits u32"))
            }
        }
        Presence::Window { from, until } => match u32::try_from(*from) {
            Ok(from) => Presence::Window {
                from,
                until: u32::try_from(*until).unwrap_or(u32::MAX),
            },
            Err(_) => Presence::Never,
        },
        Presence::FiniteSet(set) => {
            Presence::FiniteSet(set.iter().filter_map(|t| u32::try_from(*t).ok()).collect())
        }
        Presence::Periodic { period, phases } => Presence::Periodic {
            period: *period,
            phases: phases.clone(),
        },
        Presence::PqPower { p, q } => Presence::PqPower { p: *p, q: *q },
        Presence::Not(inner) => Presence::Not(Box::new(narrow_presence(inner))),
        Presence::And(a, b) => {
            Presence::And(Box::new(narrow_presence(a)), Box::new(narrow_presence(b)))
        }
        Presence::Or(a, b) => {
            Presence::Or(Box::new(narrow_presence(a)), Box::new(narrow_presence(b)))
        }
        Presence::Dilated { factor, inner } => Presence::Dilated {
            factor: *factor,
            inner: Box::new(narrow_presence(inner)),
        },
        Presence::Custom(f) => {
            let f = f.clone();
            Presence::from_fn(move |t: &u32| f(&u64::from(*t)))
        }
    }
}

/// Maps a latency into the `u32` domain when its worst-case arrival
/// over departures `<= horizon` provably fits; refuses shapes without a
/// static bound. Monotonicity is preserved by construction (`Const` →
/// `Const`, `Affine` → `Affine`), so the narrowed index takes the same
/// fast paths.
fn narrow_latency(l: &Latency<u64>, horizon: u64, e: EdgeId) -> Result<Latency<u32>, NarrowError> {
    const TOP: u64 = u32::MAX as u64;
    match l {
        Latency::Const(c) => {
            let max_arrival = horizon
                .checked_add(*c)
                .ok_or(NarrowError::ArrivalOverflow { edge: e })?;
            if max_arrival > TOP {
                return Err(NarrowError::ArrivalOverflow { edge: e });
            }
            Ok(Latency::Const(
                u32::try_from(*c).expect("bounded by max arrival"),
            ))
        }
        Latency::Affine { mul, add } => {
            // Max arrival: horizon + mul·horizon + add, all checked.
            let max_arrival = horizon
                .checked_mul(*mul)
                .and_then(|v| v.checked_add(horizon))
                .and_then(|v| v.checked_add(*add))
                .ok_or(NarrowError::ArrivalOverflow { edge: e })?;
            if max_arrival > TOP {
                return Err(NarrowError::ArrivalOverflow { edge: e });
            }
            Ok(Latency::Affine {
                mul: *mul,
                add: u32::try_from(*add).expect("bounded by max arrival"),
            })
        }
        Latency::Dilated { .. } | Latency::Custom(_) => {
            Err(NarrowError::UnprovableLatency { edge: e })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, TemporalIndex, TvgIndex};
    use std::collections::BTreeSet;

    fn e(i: usize) -> EdgeId {
        EdgeId::from_index(i)
    }

    fn rich_graph() -> Tvg<u64> {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(4);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 7,
                phases: BTreeSet::from([0, 2, 3]),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(
            v[1],
            v[2],
            'b',
            Presence::Or(
                Box::new(Presence::Window { from: 3, until: 9 }),
                Box::new(Presence::At(40)),
            ),
            Latency::Affine { mul: 2, add: 1 },
        )
        .expect("valid");
        b.edge(
            v[2],
            v[3],
            'c',
            Presence::from_fn(|t: &u64| t.is_power_of_two()),
            Latency::Const(3),
        )
        .expect("valid");
        b.edge(
            v[3],
            v[0],
            'd',
            Presence::Not(Box::new(Presence::Before(5))),
            Latency::Const(0),
        )
        .expect("valid");
        b.build().expect("valid")
    }

    #[test]
    fn narrowed_graph_agrees_with_original() {
        let g = rich_graph();
        let horizon = 64u64;
        let narrow = narrow_tvg(&g, horizon).expect("narrows");
        assert_eq!(narrow.num_nodes(), g.num_nodes());
        assert_eq!(narrow.num_edges(), g.num_edges());
        for i in 0..g.num_edges() {
            for t in 0..=horizon {
                let t32 = u32::try_from(t).expect("small");
                assert_eq!(
                    narrow.is_present(e(i), &t32),
                    g.is_present(e(i), &t),
                    "presence of e{i} at {t}"
                );
                assert_eq!(
                    narrow.traverse(e(i), &t32).map(u64::from),
                    g.traverse(e(i), &t),
                    "traverse of e{i} at {t}"
                );
            }
        }
        assert_eq!(
            narrow.node_name(NodeId::from_index(2)),
            g.node_name(NodeId::from_index(2))
        );
    }

    #[test]
    fn narrowed_index_compiles_identically() {
        let g = rich_graph();
        let horizon = 64u64;
        let narrow = narrow_tvg(&g, horizon).expect("narrows");
        let wide_idx = TvgIndex::compile(&g, horizon);
        let narrow_idx = TvgIndex::compile(&narrow, 64u32);
        for i in 0..g.num_edges() {
            let wide: Vec<u64> = wide_idx.departures_within(e(i), &0, &horizon).collect();
            let nar: Vec<u64> = narrow_idx
                .departures_within(e(i), &0u32, &64u32)
                .map(u64::from)
                .collect();
            assert_eq!(wide, nar, "departures of e{i}");
            assert_eq!(
                wide_idx.arrival_is_monotone(e(i)),
                narrow_idx.arrival_is_monotone(e(i)),
                "monotonicity of e{i}"
            );
        }
        assert_eq!(wide_idx.num_edge_events(), narrow_idx.num_edge_events());
    }

    #[test]
    fn out_of_range_constants_resolve_exactly() {
        let top = u64::from(u32::MAX);
        let cases: Vec<(Presence<u64>, &str)> = vec![
            (Presence::At(top + 5), "at beyond"),
            (Presence::After(top), "after at top"),
            (Presence::After(top + 1), "after beyond"),
            (Presence::Before(top + 9), "before beyond"),
            (
                Presence::Window {
                    from: top + 1,
                    until: top + 9,
                },
                "window beyond",
            ),
            (
                Presence::Window {
                    from: 10,
                    until: top + 9,
                },
                "window clamped",
            ),
            (
                Presence::FiniteSet(BTreeSet::from([1, top + 2])),
                "finite set filtered",
            ),
        ];
        for (p, what) in cases {
            let narrowed = narrow_presence(&p);
            for t in [0u32, 1, 9, 10, 11, u32::MAX - 1, u32::MAX] {
                assert_eq!(
                    narrowed.is_present(&t),
                    p.is_present(&u64::from(t)),
                    "{what} at {t}"
                );
            }
        }
    }

    #[test]
    fn horizon_beyond_u32_is_a_typed_error() {
        let g = rich_graph();
        assert_eq!(
            narrow_tvg(&g, u64::from(u32::MAX)).err(),
            Some(NarrowError::HorizonExceedsU32 {
                horizon: u64::from(u32::MAX)
            })
        );
        assert_eq!(
            narrow_tvg(&g, u64::MAX).err(),
            Some(NarrowError::HorizonExceedsU32 { horizon: u64::MAX })
        );
        // At the very top of the admissible range, a zero-latency graph
        // still narrows; rich_graph's affine edge would (correctly) be
        // refused for arrival overflow at this horizon.
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(v[0], v[1], 'a', Presence::Always, Latency::Const(0))
            .expect("valid");
        let flat = b.build().expect("valid");
        assert!(narrow_tvg(&flat, MAX_NARROW_HORIZON).is_ok());
    }

    #[test]
    fn unprovable_latencies_are_refused() {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Always,
            Latency::from_fn(|_| 1u64),
        )
        .expect("valid");
        let g = b.build().expect("valid");
        assert_eq!(
            narrow_tvg(&g, 100).err(),
            Some(NarrowError::UnprovableLatency { edge: e(0) })
        );

        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Always,
            Latency::Const(2).dilate(4),
        )
        .expect("valid");
        let g = b.build().expect("valid");
        assert_eq!(
            narrow_tvg(&g, 100).err(),
            Some(NarrowError::UnprovableLatency { edge: e(0) })
        );
    }

    #[test]
    fn overflowing_arrivals_are_refused() {
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Always,
            Latency::Const(u64::from(u32::MAX)),
        )
        .expect("valid");
        b.edge(
            v[0],
            v[1],
            'b',
            Presence::Always,
            Latency::Affine {
                mul: u64::MAX,
                add: 0,
            },
        )
        .expect("valid");
        let g = b.build().expect("valid");
        assert_eq!(
            narrow_tvg(&g, 100).err(),
            Some(NarrowError::ArrivalOverflow { edge: e(0) })
        );
        // A tiny horizon makes the constant fit; the affine edge still fails.
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'b',
            Presence::Always,
            Latency::Affine {
                mul: u64::MAX,
                add: 0,
            },
        )
        .expect("valid");
        let g = b.build().expect("valid");
        assert_eq!(
            narrow_tvg(&g, 2).err(),
            Some(NarrowError::ArrivalOverflow { edge: e(0) })
        );
    }

    #[test]
    fn errors_display_the_reason() {
        let err = NarrowError::HorizonExceedsU32 { horizon: u64::MAX };
        assert!(err.to_string().contains("u32"));
        let err = NarrowError::UnprovableLatency { edge: e(3) };
        assert!(err.to_string().contains("e3"));
        let err = NarrowError::ArrivalOverflow { edge: e(1) };
        assert!(err.to_string().contains("e1"));
    }
}
