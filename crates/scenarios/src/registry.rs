//! The generator registry: every TVG family a scenario can name, with
//! fully typed parameters resolved at parse time and a statically known
//! node count (so plan sources validate without building the graph).

use crate::spec::{Params, SpecError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use tvg_dynnet::json::Json;
use tvg_langs::Alphabet;
use tvg_model::generators;
use tvg_model::stream::{StreamEvent, TvgStream};
use tvg_model::Tvg;

/// A resolved generator invocation: which family, at which parameters.
///
/// `build` is deterministic — the spec text fully determines the graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorSpec {
    /// `ring_bus n= period=` — staggered circular bus line.
    RingBus {
        /// Number of stops.
        n: usize,
        /// Phase period.
        period: u64,
    },
    /// `star_ferry n=` — hub-and-spoke message ferry.
    StarFerry {
        /// Hub plus `n - 1` spokes.
        n: usize,
    },
    /// `grid_two_phase rows= cols=` — synchronous two-phase toroidal mesh.
    GridTwoPhase {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// `random_periodic nodes= edges= period= density= seed=` — random
    /// periodic schedules over the `ab` alphabet.
    RandomPeriodic {
        /// Number of nodes.
        nodes: usize,
        /// Number of directed edges.
        edges: usize,
        /// Common period.
        period: u64,
        /// Per-phase presence probability.
        density: f64,
        /// RNG seed.
        seed: u64,
    },
    /// `scale_free n= horizon= seed=` — preferential-attachment contacts.
    ScaleFree {
        /// Number of nodes.
        n: usize,
        /// Contact instants are drawn below this.
        horizon: u64,
        /// RNG seed.
        seed: u64,
    },
    /// `edge_markovian n= horizon= p_birth= p_death= seed=` — memoryless
    /// on/off contacts.
    EdgeMarkovian {
        /// Number of nodes.
        n: usize,
        /// Chain length.
        horizon: u64,
        /// Per-instant appearance probability.
        p_birth: f64,
        /// Per-instant disappearance probability.
        p_death: f64,
        /// RNG seed.
        seed: u64,
    },
    /// `waypoint_grid walkers= rows= cols= horizon= seed=` — random-
    /// waypoint mobility contacts.
    WaypointGrid {
        /// Number of walkers (= TVG nodes).
        walkers: usize,
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Simulation length.
        horizon: u64,
        /// RNG seed.
        seed: u64,
    },
    /// `peer_lifecycle n= swaps= horizon= seed=` — churning peer set:
    /// Unknown → Identified → Pending → Connected state machines with
    /// dynamic peer swapping (node joins and leaves). The only family
    /// whose native form is a *stream feed*; its batch graph is the
    /// stream's materialization over `n + swaps` node ids.
    PeerLifecycle {
        /// Live peers at any instant.
        n: usize,
        /// Number of peer swaps (each a `NodeLeave` plus a `NewNode`).
        swaps: usize,
        /// Simulation length (also the feed's stream horizon).
        horizon: u64,
        /// RNG seed.
        seed: u64,
    },
    /// `commuter_fleet lines= stops= headway= shift= runs=` — shift-
    /// scheduled commuter fleet feeding a shared hub.
    CommuterFleet {
        /// Number of lines.
        lines: usize,
        /// Outer stops per line.
        stops: usize,
        /// Instants between consecutive services of a line.
        headway: u64,
        /// Stagger between consecutive lines' schedules.
        shift: u64,
        /// Services per line and direction.
        runs: usize,
    },
}

impl GeneratorSpec {
    /// Resolves a generator name plus raw parameters into a typed spec,
    /// consuming every parameter (leftovers are [`SpecError::UnknownParam`]).
    pub(crate) fn resolve(
        scenario: &str,
        name: &str,
        mut p: Params,
    ) -> Result<GeneratorSpec, SpecError> {
        let spec = match name {
            "ring_bus" => {
                let n = p.usize("n")?;
                let period = p.u64("period")?;
                p.guard("n", n > 0, "need at least one node")?;
                p.guard("period", period > 0, "period must be nonzero")?;
                GeneratorSpec::RingBus { n, period }
            }
            "star_ferry" => {
                let n = p.usize("n")?;
                p.guard("n", n >= 2, "need a hub and at least one spoke")?;
                GeneratorSpec::StarFerry { n }
            }
            "grid_two_phase" => {
                let rows = p.usize("rows")?;
                let cols = p.usize("cols")?;
                p.guard("rows", rows > 0, "grid must be nonempty")?;
                p.guard("cols", cols > 0, "grid must be nonempty")?;
                GeneratorSpec::GridTwoPhase { rows, cols }
            }
            "random_periodic" => {
                let nodes = p.usize("nodes")?;
                let edges = p.usize("edges")?;
                let period = p.u64("period")?;
                let density = p.f64("density")?;
                let seed = p.u64("seed")?;
                p.guard("nodes", nodes > 0, "need at least one node")?;
                p.guard("period", period > 0, "period must be nonzero")?;
                p.guard(
                    "density",
                    (0.0..=1.0).contains(&density),
                    "probability must be in [0, 1]",
                )?;
                GeneratorSpec::RandomPeriodic {
                    nodes,
                    edges,
                    period,
                    density,
                    seed,
                }
            }
            "scale_free" => {
                let n = p.usize("n")?;
                let horizon = p.u64("horizon")?;
                let seed = p.u64("seed")?;
                p.guard("n", n > 0, "need at least one node")?;
                p.guard("horizon", horizon > 0, "need a nonempty time window")?;
                GeneratorSpec::ScaleFree { n, horizon, seed }
            }
            "edge_markovian" => {
                let n = p.usize("n")?;
                let horizon = p.u64("horizon")?;
                let p_birth = p.f64("p_birth")?;
                let p_death = p.f64("p_death")?;
                let seed = p.u64("seed")?;
                p.guard("n", n >= 2, "need at least two nodes")?;
                p.guard("horizon", horizon > 0, "need a nonempty time window")?;
                for (key, value) in [("p_birth", p_birth), ("p_death", p_death)] {
                    p.guard(
                        key,
                        (0.0..=1.0).contains(&value),
                        "probability must be in [0, 1]",
                    )?;
                }
                GeneratorSpec::EdgeMarkovian {
                    n,
                    horizon,
                    p_birth,
                    p_death,
                    seed,
                }
            }
            "waypoint_grid" => {
                let walkers = p.usize("walkers")?;
                let rows = p.usize("rows")?;
                let cols = p.usize("cols")?;
                let horizon = p.u64("horizon")?;
                let seed = p.u64("seed")?;
                p.guard("walkers", walkers > 0, "need at least one walker")?;
                p.guard("rows", rows > 0, "grid must be nonempty")?;
                p.guard("cols", cols > 0, "grid must be nonempty")?;
                p.guard("horizon", horizon > 0, "need a nonempty time window")?;
                GeneratorSpec::WaypointGrid {
                    walkers,
                    rows,
                    cols,
                    horizon,
                    seed,
                }
            }
            "peer_lifecycle" => {
                let n = p.usize("n")?;
                let swaps = p.usize("swaps")?;
                let horizon = p.u64("horizon")?;
                let seed = p.u64("seed")?;
                p.guard("n", n >= 2, "need at least two peers")?;
                p.guard("horizon", horizon > 0, "need a nonempty time window")?;
                p.guard(
                    "horizon",
                    horizon < u64::MAX,
                    "stream horizon needs a representable successor",
                )?;
                GeneratorSpec::PeerLifecycle {
                    n,
                    swaps,
                    horizon,
                    seed,
                }
            }
            "commuter_fleet" => {
                let lines = p.usize("lines")?;
                let stops = p.usize("stops")?;
                let headway = p.u64("headway")?;
                let shift = p.u64("shift")?;
                let runs = p.usize("runs")?;
                p.guard("lines", lines > 0, "need at least one line")?;
                p.guard("stops", stops > 0, "need at least one stop per line")?;
                p.guard("headway", headway > 0, "headway must be nonzero")?;
                p.guard("runs", runs > 0, "need at least one service")?;
                GeneratorSpec::CommuterFleet {
                    lines,
                    stops,
                    headway,
                    shift,
                    runs,
                }
            }
            other => {
                return Err(SpecError::UnknownGenerator {
                    scenario: scenario.to_string(),
                    name: other.to_string(),
                })
            }
        };
        p.finish()?;
        Ok(spec)
    }

    /// The generator's spec name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GeneratorSpec::RingBus { .. } => "ring_bus",
            GeneratorSpec::StarFerry { .. } => "star_ferry",
            GeneratorSpec::GridTwoPhase { .. } => "grid_two_phase",
            GeneratorSpec::RandomPeriodic { .. } => "random_periodic",
            GeneratorSpec::ScaleFree { .. } => "scale_free",
            GeneratorSpec::EdgeMarkovian { .. } => "edge_markovian",
            GeneratorSpec::WaypointGrid { .. } => "waypoint_grid",
            GeneratorSpec::PeerLifecycle { .. } => "peer_lifecycle",
            GeneratorSpec::CommuterFleet { .. } => "commuter_fleet",
        }
    }

    /// The node count of the graph this spec builds, known without
    /// building it (plan sources validate against this at parse time).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        match self {
            GeneratorSpec::RingBus { n, .. }
            | GeneratorSpec::StarFerry { n }
            | GeneratorSpec::ScaleFree { n, .. }
            | GeneratorSpec::EdgeMarkovian { n, .. } => *n,
            GeneratorSpec::GridTwoPhase { rows, cols } => rows * cols,
            GeneratorSpec::RandomPeriodic { nodes, .. } => *nodes,
            GeneratorSpec::WaypointGrid { walkers, .. } => *walkers,
            // Ids are never reused: every peer that ever joins is a
            // node, so the universe is the initial set plus one
            // replacement per swap.
            GeneratorSpec::PeerLifecycle { n, swaps, .. } => n + swaps,
            GeneratorSpec::CommuterFleet { lines, stops, .. } => 1 + lines * stops,
        }
    }

    /// Builds the TVG. Deterministic: the spec fully determines it.
    #[must_use]
    pub fn build(&self) -> Tvg<u64> {
        match self {
            GeneratorSpec::RingBus { n, period } => generators::ring_bus_tvg(*n, *period, 'r'),
            GeneratorSpec::StarFerry { n } => generators::star_ferry_tvg(*n, 'f'),
            GeneratorSpec::GridTwoPhase { rows, cols } => {
                generators::grid_two_phase_tvg(*rows, *cols, 'g')
            }
            GeneratorSpec::RandomPeriodic {
                nodes,
                edges,
                period,
                density,
                seed,
            } => {
                let params = generators::RandomPeriodicParams {
                    num_nodes: *nodes,
                    num_edges: *edges,
                    period: *period,
                    phase_density: *density,
                    alphabet: Alphabet::ab(),
                };
                generators::random_periodic_tvg(&mut StdRng::seed_from_u64(*seed), &params)
            }
            GeneratorSpec::ScaleFree { n, horizon, seed } => {
                generators::scale_free_temporal(*n, *horizon, *seed)
            }
            GeneratorSpec::EdgeMarkovian {
                n,
                horizon,
                p_birth,
                p_death,
                seed,
            } => generators::edge_markovian_contacts(*n, *horizon, *p_birth, *p_death, *seed),
            GeneratorSpec::WaypointGrid {
                walkers,
                rows,
                cols,
                horizon,
                seed,
            } => generators::waypoint_grid_contacts(*walkers, *rows, *cols, *horizon, *seed),
            GeneratorSpec::PeerLifecycle { .. } => {
                let (horizon, feed) = self
                    .churn_feed()
                    .expect("peer_lifecycle is the churn family");
                let mut s = TvgStream::new(horizon).expect("resolve guards the horizon");
                s.ingest(&feed).expect("churn feeds are valid");
                s.to_tvg()
            }
            GeneratorSpec::CommuterFleet {
                lines,
                stops,
                headway,
                shift,
                runs,
            } => generators::commuter_fleet(*lines, *stops, *headway, *shift, *runs),
        }
    }

    /// For the churn family, whose schedule is natively a *stream*: the
    /// event feed (node joins/leaves included) and the generator's own
    /// horizon it is valid against. Batch families return `None` — their
    /// stream form is a replay of the compiled schedule
    /// ([`TvgStream::replay_of`]), which carries no churn.
    #[must_use]
    pub fn churn_feed(&self) -> Option<(u64, Vec<StreamEvent<u64>>)> {
        match self {
            GeneratorSpec::PeerLifecycle {
                n,
                swaps,
                horizon,
                seed,
            } => Some((
                *horizon,
                generators::peer_lifecycle_churn(*n, *swaps, *horizon, *seed),
            )),
            _ => None,
        }
    }

    /// The parameters in canonical order as `(key, value)` pairs: the
    /// one list both the spec text ([`fmt::Display`]) and the report
    /// object ([`GeneratorSpec::params_json`]) are rendered from.
    fn params(&self) -> Vec<(&'static str, Json)> {
        let int = |v: u64| Json::Int(v);
        let us = |v: usize| Json::Int(v as u64);
        match self {
            GeneratorSpec::RingBus { n, period } => {
                vec![("n", us(*n)), ("period", int(*period))]
            }
            GeneratorSpec::StarFerry { n } => vec![("n", us(*n))],
            GeneratorSpec::GridTwoPhase { rows, cols } => {
                vec![("rows", us(*rows)), ("cols", us(*cols))]
            }
            GeneratorSpec::RandomPeriodic {
                nodes,
                edges,
                period,
                density,
                seed,
            } => vec![
                ("nodes", us(*nodes)),
                ("edges", us(*edges)),
                ("period", int(*period)),
                ("density", Json::Num(*density)),
                ("seed", int(*seed)),
            ],
            GeneratorSpec::ScaleFree { n, horizon, seed } => vec![
                ("n", us(*n)),
                ("horizon", int(*horizon)),
                ("seed", int(*seed)),
            ],
            GeneratorSpec::EdgeMarkovian {
                n,
                horizon,
                p_birth,
                p_death,
                seed,
            } => vec![
                ("n", us(*n)),
                ("horizon", int(*horizon)),
                ("p_birth", Json::Num(*p_birth)),
                ("p_death", Json::Num(*p_death)),
                ("seed", int(*seed)),
            ],
            GeneratorSpec::WaypointGrid {
                walkers,
                rows,
                cols,
                horizon,
                seed,
            } => vec![
                ("walkers", us(*walkers)),
                ("rows", us(*rows)),
                ("cols", us(*cols)),
                ("horizon", int(*horizon)),
                ("seed", int(*seed)),
            ],
            GeneratorSpec::PeerLifecycle {
                n,
                swaps,
                horizon,
                seed,
            } => vec![
                ("n", us(*n)),
                ("swaps", us(*swaps)),
                ("horizon", int(*horizon)),
                ("seed", int(*seed)),
            ],
            GeneratorSpec::CommuterFleet {
                lines,
                stops,
                headway,
                shift,
                runs,
            } => vec![
                ("lines", us(*lines)),
                ("stops", us(*stops)),
                ("headway", int(*headway)),
                ("shift", int(*shift)),
                ("runs", us(*runs)),
            ],
        }
    }

    /// The parameters as a canonical JSON object (for reports).
    #[must_use]
    pub fn params_json(&self) -> Json {
        Json::Obj(
            self.params()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl fmt::Display for GeneratorSpec {
    /// The canonical `generator` directive argument (round-trips).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        for (key, value) in self.params() {
            match value {
                // `f64`'s own rendering, which the spec parser reads back.
                Json::Num(x) => write!(f, " {key}={x}")?,
                v => write!(f, " {key}={v}")?,
            }
        }
        Ok(())
    }
}
