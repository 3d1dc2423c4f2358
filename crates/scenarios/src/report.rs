//! Canonical scenario reports.
//!
//! A [`Report`] is the complete observable outcome of one scenario run.
//! Its [`Report::canonical_json`] rendering is **deterministic to the
//! byte**: object keys are sorted (`BTreeMap`), integers stay exact
//! (`Json::Int`), floats use Rust's shortest round-trip formatting, and
//! nothing machine- or run-dependent (wall-clock, thread count actually
//! used) is included — which is what lets CI byte-diff reports against
//! checked-in goldens at `TVG_BATCH_THREADS=1` and `=4` alike. Wall time
//! ([`Report::wall_us`]) and the non-canonical [`Report::timing`] are
//! measured and carried alongside, for humans and benches.
//!
//! Every plan times itself in one phase record (`Phases::time` runs a
//! closure as a phase; a repeated phase adds up), so `timing` carries
//! one `<phase>_us` key per phase that ran, from the fixed vocabulary
//! `Phase`, and none for a phase the plan lacks. The rule of thumb:
//! anything a different machine (or reader count) could change is
//! timing, everything else is logic — and only logic is golden-gated.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tvg_dynnet::json::Json;
use tvg_journeys::EngineStats;
use tvg_model::Time;

/// The outcome of running one [`crate::Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub(crate) scenario: String,
    pub(crate) generator: &'static str,
    pub(crate) generator_params: Json,
    pub(crate) policy: String,
    pub(crate) plan: &'static str,
    pub(crate) threads: String,
    pub(crate) nodes: usize,
    pub(crate) edges: usize,
    pub(crate) edge_events: usize,
    pub(crate) results: Json,
    pub(crate) engine: EngineStats,
    pub(crate) wall_us: u64,
    /// Per-plan phase spans and metrics — measured, **not** canonical.
    pub(crate) timing: Json,
}

impl Report {
    /// The scenario name this report answers for.
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Summed engine work counters behind the plan's queries.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// The plan-specific results object.
    #[must_use]
    pub fn results(&self) -> &Json {
        &self.results
    }

    /// Wall-clock microseconds of the run (measured, **not** part of the
    /// canonical bytes — goldens must not depend on machine speed).
    #[must_use]
    pub fn wall_us(&self) -> u64 {
        self.wall_us
    }

    /// The run's `<phase>_us` spans (see the module docs), and the serve
    /// plan's latency percentiles and publication counters.
    /// Measured wall-clock data, **not** part of the canonical bytes —
    /// the logical `results` section is golden-gated, timing is for
    /// humans, benches, and EXPERIMENTS.md.
    #[must_use]
    pub fn timing(&self) -> &Json {
        &self.timing
    }

    /// The canonical single-line JSON rendering (see module docs).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        obj([
            ("engine", engine_json(&self.engine)),
            (
                "generator",
                obj([
                    ("name", Json::Str(self.generator.to_string())),
                    ("params", self.generator_params.clone()),
                ]),
            ),
            (
                "graph",
                obj([
                    ("edge_events", Json::Int(self.edge_events as u64)),
                    ("edges", Json::Int(self.edges as u64)),
                    ("nodes", Json::Int(self.nodes as u64)),
                ]),
            ),
            ("plan", Json::Str(self.plan.to_string())),
            ("policy", Json::Str(self.policy.clone())),
            ("results", self.results.clone()),
            ("scenario", Json::Str(self.scenario.clone())),
            ("threads", Json::Str(self.threads.clone())),
        ])
        .to_string()
    }
}

/// The 1-based first line at which two report texts differ, used by
/// every golden gate (`tvg-cli verify`, the testkit oracle) so they all
/// name the same line for the same drift. When one text is a strict
/// prefix of the other, this is the first line past the shorter text.
#[must_use]
pub fn first_divergent_line(a: &str, b: &str) -> usize {
    a.lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .map_or_else(|| a.lines().count().min(b.lines().count()) + 1, |i| i + 1)
}

/// Builds a JSON object from `(key, value)` pairs.
pub(crate) fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A measured span in whole microseconds.
pub(crate) fn us(span: Duration) -> u64 {
    u64::try_from(span.as_nanos() / 1_000).unwrap_or(u64::MAX)
}

/// One phase of a run's wall time. Its `timing` key is the variant's
/// name in lower case plus `_us`; this enum is the whole vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    Build,
    Narrow,
    Compile,
    Write,
    Open,
    Feed,
    Load,
    Ingest,
    Publish,
    Serve,
    Repair,
    Engine,
    Reduce,
}

/// One run's wall clock and the summed span of every phase that ran.
pub(crate) struct Phases {
    started: Instant,
    spans: BTreeMap<Phase, Duration>,
}

impl Phases {
    /// Starts the run's wall clock, with no phase run yet.
    pub(crate) fn start() -> Self {
        Phases {
            started: Instant::now(),
            spans: BTreeMap::new(),
        }
    }

    /// Runs `f` as (another span of) `phase`.
    pub(crate) fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(phase, t0.elapsed());
        out
    }

    /// Adds a span measured elsewhere (the serve runtime's writer and
    /// readers) to `phase`.
    pub(crate) fn add(&mut self, phase: Phase, span: Duration) {
        *self.spans.entry(phase).or_default() += span;
    }

    /// The wall-clock microseconds since [`Phases::start`] and the
    /// `timing` object: the plan's other `metrics` plus one `<phase>_us`
    /// key per phase that ran.
    pub(crate) fn finish(self, mut metrics: BTreeMap<String, Json>) -> (u64, Json) {
        for (phase, span) in self.spans {
            let key = format!("{phase:?}_us").to_lowercase();
            metrics.insert(key, Json::Int(us(span)));
        }
        (us(self.started.elapsed()), Json::Obj(metrics))
    }
}

pub(crate) fn engine_json(stats: &EngineStats) -> Json {
    obj([
        ("expanded", Json::Int(stats.expanded)),
        ("runs", Json::Int(stats.runs)),
        ("settled", Json::Int(stats.settled)),
    ])
}

/// An arrival histogram: how many entries arrived at each instant, plus
/// how many never arrived: the `None` entries plus `unreached` more that
/// `values` leaves out. Rendered as sorted `[instant, count]` pairs
/// so the encoding is canonical regardless of input order. Instants are
/// widened to `u64` keys, so a `u32`-narrowed run renders the same
/// bytes as the `u64` run it compresses.
pub(crate) fn histogram<'a, T: Time + 'a>(
    values: impl Iterator<Item = Option<&'a T>>,
    mut unreached: u64,
) -> Json {
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for v in values {
        match v {
            Some(t) => {
                let t = t.to_u64().expect("scenario arrivals fit a machine word");
                *counts.entry(t).or_default() += 1;
            }
            None => unreached += 1,
        }
    }
    obj([
        (
            "arrivals",
            Json::Arr(
                counts
                    .into_iter()
                    .map(|(t, c)| Json::Arr(vec![Json::Int(t), Json::Int(c)]))
                    .collect(),
            ),
        ),
        ("unreached", Json::Int(unreached)),
    ])
}
