//! Declarative scenario runtime for the *Waiting in Dynamic Networks*
//! reproduction.
//!
//! The paper's question — what does the ability to *wait* buy a
//! traveler in a time-varying graph? — only becomes interesting across
//! many schedule shapes. This crate makes a workload a **text file**
//! instead of a Rust program: a spec names a generator (periodic rings,
//! ferries, meshes, scale-free contacts, edge-Markovian on/off links,
//! random-waypoint mobility, shift-scheduled commuter fleets), a waiting
//! policy, and a query plan (single-source / reachability matrix /
//! broadcast / streaming replay), and the runtime executes it on the
//! workspace's compiled-index pipeline — `TvgIndex` compile, engine
//! runs fanned out by `BatchRunner`, `TvgStream` ingestion for the
//! streaming plan — emitting a canonical, byte-deterministic JSON
//! [`Report`].
//!
//! ```
//! use tvg_scenarios::parse_specs;
//!
//! let spec = "\
//! scenario demo
//! generator ring_bus n=4 period=4
//! policy wait
//! plan matrix horizon=16
//! ";
//! let scenarios = parse_specs(spec)?;
//! let report = scenarios[0].run();
//! assert!(report.canonical_json().contains("\"ratio\":1"));
//! // The canonical bytes are identical at every thread count.
//! # Ok::<(), tvg_scenarios::SpecError>(())
//! ```
//!
//! Determinism contract: a spec fully determines its report bytes.
//! Generators draw randomness only from spec seeds, plans run on the
//! thread-invariant batch runtime, report objects render with sorted
//! keys and exact integers, and wall time stays out of the canonical
//! bytes. `tvg-cli` layers file handling on top; CI runs every bundled
//! spec at `TVG_BATCH_THREADS=1` and `=4` and byte-diffs both against
//! checked-in goldens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod indexfile;
mod registry;
mod report;
mod run;
mod spec;

pub use indexfile::{compile_index, run_with_index, IndexFileError};
pub use registry::GeneratorSpec;
pub use report::{first_divergent_line, Report};
pub use spec::{parse_specs, Plan, Scenario, SpecError, Threads};
/// Re-exported so `Report` consumers (the CLI above all) can inspect
/// [`Report::results`] / [`Report::timing`] without a direct
/// `tvg-dynnet` dependency.
pub use tvg_dynnet::json::Json;
/// Re-exported so `.tvgi` consumers (the CLI above all) can name the
/// writer's summary and the format's typed failure without a direct
/// `tvg-model` dependency.
pub use tvg_model::tvgi::{TvgiError, TvgiSummary};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tvg_journeys::WaitingPolicy;

    fn one(text: &str) -> Scenario {
        let mut all = parse_specs(text).expect("valid spec");
        assert_eq!(all.len(), 1);
        all.pop().expect("one scenario")
    }

    #[test]
    fn parses_a_minimal_spec_with_defaults() {
        let s = one(
            "scenario demo\ngenerator ring_bus n=4 period=4\npolicy wait\nplan matrix horizon=16\n",
        );
        assert_eq!(s.name(), "demo");
        assert_eq!(s.policy(), &WaitingPolicy::Unbounded);
        assert_eq!(s.threads(), Threads::Auto);
        // max_hops defaults to horizon + 1, start to 0.
        assert_eq!(
            s.plan(),
            &Plan::Matrix {
                start: 0,
                horizon: 16,
                max_hops: 17
            }
        );
    }

    #[test]
    fn comments_blank_lines_and_order_are_tolerated() {
        let s = one(
            "# a comment\n\nscenario demo # trailing comment\n  plan matrix horizon=8\n  policy wait[2]  # bounded\n\n  generator star_ferry n=5\n  threads 3\n",
        );
        assert_eq!(s.policy(), &WaitingPolicy::Bounded(2));
        assert_eq!(s.threads(), Threads::Fixed(3));
        assert_eq!(s.generator().name(), "star_ferry");
    }

    #[test]
    fn every_generator_roundtrips_and_builds() {
        let specs = "\
scenario g1
generator ring_bus n=4 period=4
policy wait
plan matrix horizon=8
scenario g2
generator star_ferry n=4
policy nowait
plan matrix horizon=8
scenario g3
generator grid_two_phase rows=2 cols=3
policy wait[1]
plan matrix horizon=8
scenario g4
generator random_periodic nodes=4 edges=6 period=4 density=0.5 seed=7
policy wait
plan matrix horizon=8
scenario g5
generator scale_free n=8 horizon=8 seed=3
policy wait
plan matrix horizon=8
scenario g6
generator edge_markovian n=4 horizon=8 p_birth=0.2 p_death=0.5 seed=1
policy wait
plan matrix horizon=8
scenario g7
generator waypoint_grid walkers=4 rows=2 cols=2 horizon=8 seed=2
policy wait
plan matrix horizon=8
scenario g8
generator commuter_fleet lines=2 stops=2 headway=4 shift=1 runs=2
policy wait
plan matrix horizon=12
scenario g9
generator peer_lifecycle n=6 swaps=1 horizon=16 seed=7
policy wait[4]
plan streaming src=0 horizon=16 max_hops=8 batch=8
";
        let scenarios = parse_specs(specs).expect("valid");
        assert_eq!(scenarios.len(), 9);
        for s in &scenarios {
            // Round-trip: canonical text reparses to the same scenario.
            let text = s.to_string();
            let back = parse_specs(&text).expect("canonical text is valid");
            assert_eq!(&back[0], s, "{text}");
            // The report parameters are the generator text's pairs.
            let generator = s.generator().to_string();
            let (name, pairs) = generator.split_once(' ').expect("parameters follow");
            assert_eq!(name, s.generator().name());
            let pairs: BTreeMap<String, String> = pairs
                .split(' ')
                .map(|kv| kv.split_once('=').expect("key=value"))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let Json::Obj(params) = s.generator().params_json() else {
                panic!("params are an object");
            };
            let params: BTreeMap<String, String> = params
                .into_iter()
                .map(|(k, v)| (k, v.to_string()))
                .collect();
            assert_eq!(params, pairs, "{generator}");
            // The graph builds and matches the statically known size.
            let g = s.build_graph();
            assert_eq!(g.num_nodes(), s.generator().num_nodes(), "{}", s.name());
        }
    }

    #[test]
    fn seed_directive_is_generator_seed_shorthand() {
        let with_directive = one(
            "scenario s\ngenerator scale_free n=8 horizon=8\nseed 3\npolicy wait\nplan matrix horizon=8\n",
        );
        let with_param = one(
            "scenario s\ngenerator scale_free n=8 horizon=8 seed=3\npolicy wait\nplan matrix horizon=8\n",
        );
        assert_eq!(with_directive, with_param);
        // Both at once is a duplicate parameter.
        assert_eq!(
            parse_specs(
                "scenario s\ngenerator scale_free n=8 horizon=8 seed=3\nseed 3\npolicy wait\nplan matrix horizon=8\n"
            )
            .unwrap_err(),
            SpecError::DuplicateParam {
                scenario: "s".into(),
                param: "seed".into()
            }
        );
        // A seed on a deterministic generator is an unknown parameter.
        assert_eq!(
            parse_specs(
                "scenario s\ngenerator ring_bus n=4 period=4\nseed 3\npolicy wait\nplan matrix horizon=8\n"
            )
            .unwrap_err(),
            SpecError::UnknownParam {
                scenario: "s".into(),
                context: "ring_bus".into(),
                param: "seed".into()
            }
        );
    }

    #[test]
    fn reports_are_thread_invariant_and_deterministic() {
        let text = "\
scenario inv
generator scale_free n=12 horizon=16 seed=5
policy wait[2]
plan matrix horizon=16 max_hops=8
";
        let s = one(text);
        let serial = s.with_threads(Threads::Fixed(1)).run().canonical_json();
        let four = s.with_threads(Threads::Fixed(4)).run().canonical_json();
        // The threads field reports the spec's directive, not the
        // runtime's choice...
        assert!(serial.contains("\"threads\":\"1\""));
        assert!(four.contains("\"threads\":\"4\""));
        // ...and it is the ONLY difference: every result byte is
        // thread-count invariant.
        assert_eq!(
            serial.replace("\"threads\":\"1\"", "\"threads\":\"4\""),
            four
        );
    }

    #[test]
    fn single_source_and_broadcast_and_streaming_run() {
        let text = "\
scenario ss
generator commuter_fleet lines=2 stops=2 headway=6 shift=3 runs=2
policy wait
plan single_source src=0 horizon=16
scenario bc
generator edge_markovian n=6 horizon=20 p_birth=0.2 p_death=0.4 seed=9
policy wait[2]
plan broadcast source=0 beacons=true horizon=20
scenario sweep
generator edge_markovian n=6 horizon=20 p_birth=0.2 p_death=0.4 seed=9
policy nowait
plan broadcast beacons=true horizon=20
scenario st
generator scale_free n=10 horizon=16 seed=4
policy wait
plan streaming src=1 horizon=16 batch=32
";
        for s in parse_specs(text).expect("valid") {
            let report = s.run();
            assert!(report.engine_stats().runs > 0, "{}", s.name());
            let json = report.canonical_json();
            // Canonical bytes parse back as JSON and repeat exactly.
            tvg_dynnet::json::parse(&json).expect("canonical json parses");
            assert_eq!(json, s.run().canonical_json(), "{}", s.name());
        }
    }

    #[test]
    fn peer_lifecycle_streams_its_churn_feed() {
        let text = "\
scenario churn
generator peer_lifecycle n=6 swaps=2 horizon=24 seed=3
policy wait[2]
plan streaming src=0 horizon=24 batch=16
";
        let s = one(text);
        // Canonical text reparses to the same scenario.
        let back = parse_specs(&s.to_string()).expect("canonical text is valid");
        assert_eq!(&back[0], &s);
        // The materialized graph carries every peer that ever joined.
        assert_eq!(s.build_graph().num_nodes(), 8);
        let report = s.run();
        let json = report.canonical_json();
        tvg_dynnet::json::parse(&json).expect("canonical json parses");
        assert!(json.contains("\"departed\":2"), "{json}");
        assert_eq!(json, s.run().canonical_json(), "repeats byte for byte");
    }

    #[test]
    fn streaming_horizon_must_cover_the_churn_feed() {
        // A streaming plan that stops before the churn feed's last
        // event could not ingest it; spec validation rejects the combo.
        let err = parse_specs(
            "scenario churn\ngenerator peer_lifecycle n=6 swaps=2 horizon=24 seed=3\npolicy wait\nplan streaming src=0 horizon=20 batch=16\n",
        )
        .unwrap_err();
        assert!(
            matches!(&err, SpecError::BadParamValue { .. })
                && err.to_string().contains("must cover the churn feed"),
            "got {err:?}"
        );
    }

    #[test]
    fn sweep_directives_expand_the_cross_product() {
        let text = "\
scenario ring-sweep
generator ring_bus n=8 period=8
policy wait[3]
sweep n 6 10
sweep policy nowait wait[3]
plan matrix horizon=32
";
        let scenarios = parse_specs(text).expect("valid sweep spec");
        let names: Vec<&str> = scenarios.iter().map(Scenario::name).collect();
        assert_eq!(
            names,
            [
                "ring-sweep-6-nowait",
                "ring-sweep-6-wait3",
                "ring-sweep-10-nowait",
                "ring-sweep-10-wait3"
            ],
            "first sweep varies slowest, names sanitized"
        );
        for s in &scenarios {
            // Each expanded row is an ordinary scenario: canonical text
            // round-trips and the swept parameters really took effect.
            let back = parse_specs(&s.to_string()).expect("canonical text is valid");
            assert_eq!(&back[0], s, "{}", s.name());
            let n = if s.name().contains("-6-") { 6 } else { 10 };
            assert_eq!(s.build_graph().num_nodes(), n, "{}", s.name());
            let wait = s.name().ends_with("wait3");
            assert_eq!(
                s.policy() == &WaitingPolicy::Bounded(3),
                wait,
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn sweep_errors_are_typed() {
        // The same parameter swept twice in one block.
        assert_eq!(
            parse_specs(
                "scenario s\ngenerator ring_bus n=4 period=4\npolicy wait\nsweep n 4 6\nsweep n 8\nplan matrix horizon=8\n"
            )
            .unwrap_err(),
            SpecError::DuplicateParam {
                scenario: "s".into(),
                param: "n".into()
            }
        );
        // A sweep directive needs a parameter and at least one value.
        assert!(matches!(
            parse_specs(
                "scenario s\ngenerator ring_bus n=4 period=4\npolicy wait\nsweep n\nplan matrix horizon=8\n"
            )
            .unwrap_err(),
            SpecError::MissingArgument { .. }
        ));
        // Two sweep values that sanitize to the same row name collide.
        assert_eq!(
            parse_specs(
                "scenario s\ngenerator ring_bus n=4 period=4\npolicy wait\nsweep policy wait[3] wait3\nplan matrix horizon=8\n"
            )
            .unwrap_err(),
            SpecError::DuplicateScenario {
                name: "s-wait3".into()
            }
        );
    }

    #[test]
    fn serve_plan_roundtrips_and_runs_with_mid_run_epochs() {
        let text = "\
scenario sv
generator scale_free n=12 horizon=24 seed=5
policy wait
plan serve horizon=24 requests=32 gap=2 foremost=3 matrix=2 broadcast=1 ticks=4 seed=11
";
        let s = one(text);
        // Canonical text reparses to the same scenario.
        let back = parse_specs(&s.to_string()).expect("canonical text is valid");
        assert_eq!(&back[0], &s);

        let report = s.run();
        assert!(report.engine_stats().runs > 0);
        let json = report.canonical_json();
        tvg_dynnet::json::parse(&json).expect("canonical json parses");
        // The writer published the pre-ingest epoch plus one per tick,
        // concurrently with the readers — asserted in the report.
        assert!(json.contains("\"epochs_published\":5"), "{json}");
        assert!(json.contains("\"requests\":32"), "{json}");
        // Timing is measured and carried, but stays OUT of the
        // canonical bytes.
        assert_ne!(report.timing(), &tvg_dynnet::json::Json::Null);
        assert!(!json.contains("micros"), "{json}");
        assert!(!json.contains("throughput"), "{json}");
        // The run repeats byte-for-byte.
        assert_eq!(json, s.run().canonical_json());
    }

    #[test]
    fn serve_reports_are_reader_count_invariant() {
        let text = "\
scenario svinv
generator edge_markovian n=10 horizon=20 p_birth=0.3 p_death=0.4 seed=2
policy wait[3]
plan serve horizon=20 requests=48 gap=1 foremost=2 matrix=1 broadcast=1 ticks=3 seed=9
";
        let s = one(text);
        let serial = s.with_threads(Threads::Fixed(1)).run().canonical_json();
        let four = s.with_threads(Threads::Fixed(4)).run().canonical_json();
        // Reader count changes only the timing metrics, never the
        // golden-gated logical bytes.
        assert_eq!(
            serial.replace("\"threads\":\"1\"", "\"threads\":\"4\""),
            four
        );
    }

    #[test]
    fn broadcast_policy_is_the_relay_discipline() {
        // The paper's archetype as a spec: waiting relays deliver where
        // no-wait relays cannot.
        let base = |policy: &str, name: &str| {
            format!(
                "scenario {name}\ngenerator commuter_fleet lines=1 stops=2 headway=9 shift=0 runs=2\npolicy {policy}\nplan broadcast source=2 beacons=false horizon=20\n"
            )
        };
        let wait = one(&base("wait", "w")).run();
        let nowait = one(&base("nowait", "n")).run();
        let reached = |r: &Report| match r.results() {
            tvg_dynnet::json::Json::Obj(map) => match &map["delivery"] {
                tvg_dynnet::json::Json::Obj(d) => d["delivery_ratio"].clone(),
                _ => panic!("delivery is an object"),
            },
            _ => panic!("results is an object"),
        };
        let (w, n) = (reached(&wait), reached(&nowait));
        let as_f = |j: &tvg_dynnet::json::Json| match j {
            tvg_dynnet::json::Json::Num(x) => *x,
            tvg_dynnet::json::Json::Int(x) => *x as f64,
            _ => panic!("ratio is numeric"),
        };
        assert!(as_f(&w) >= as_f(&n), "waiting never delivers less");
    }
}
