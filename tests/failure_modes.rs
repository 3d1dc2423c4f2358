//! Failure injection: malformed inputs across crates must produce typed
//! errors (or documented panics), never silent misbehavior.

use std::collections::BTreeSet;
use tvg_suite::expressivity::anbn::{AnbnAutomaton, AnbnError};
use tvg_suite::expressivity::wait_regular::{periodic_to_nfa, CompileError};
use tvg_suite::expressivity::{AutomatonError, TvgAutomaton};
use tvg_suite::journeys::{Hop, Journey, JourneyError, WaitingPolicy};
use tvg_suite::langs::{
    Alphabet, AlphabetError, Dfa, DfaError, Grammar, GrammarError, Nfa, NfaError, Regex,
    RegexError, TmBuilder, TmError, Word,
};
use tvg_suite::model::{EdgeId, Latency, NodeId, Presence, TvgBuilder, TvgError};

#[test]
fn alphabet_failures() {
    assert_eq!(Alphabet::from_chars("").unwrap_err(), AlphabetError::Empty);
    assert_eq!(
        Alphabet::from_chars("aba").unwrap_err(),
        AlphabetError::DuplicateLetter('a')
    );
    assert_eq!(
        "a b".parse::<Word>().unwrap_err(),
        AlphabetError::NotPrintableAscii(' ')
    );
}

#[test]
fn dfa_failures() {
    assert_eq!(
        Dfa::new(Alphabet::ab(), vec![], 0, vec![]).unwrap_err(),
        DfaError::NoStates
    );
    assert_eq!(
        Dfa::new(Alphabet::ab(), vec![vec![0, 9]], 0, vec![true]).unwrap_err(),
        DfaError::BadTarget {
            state: 0,
            letter: 1,
            target: 9
        }
    );
}

#[test]
fn nfa_failures() {
    let mut nfa = Nfa::new(Alphabet::ab(), 1);
    assert_eq!(nfa.add_start(5).unwrap_err(), NfaError::BadState(5));
    assert_eq!(
        nfa.add_transition(0, Some('z'), 0).unwrap_err(),
        NfaError::LetterNotInAlphabet('z')
    );
    let other = Nfa::new(Alphabet::abc(), 1);
    assert_eq!(nfa.union(&other).unwrap_err(), NfaError::AlphabetMismatch);
}

#[test]
fn regex_failures() {
    let sigma = Alphabet::ab();
    assert!(matches!(
        Regex::parse("(ab", &sigma).unwrap_err(),
        RegexError::UnbalancedParens { .. }
    ));
    assert!(matches!(
        Regex::parse("+a", &sigma).unwrap_err(),
        RegexError::DanglingPostfix { .. }
    ));
    assert!(matches!(
        Regex::parse("axb", &sigma).unwrap_err(),
        RegexError::UnexpectedChar { .. }
    ));
}

#[test]
fn grammar_and_tm_failures() {
    assert_eq!(Grammar::from_rules("").unwrap_err(), GrammarError::Empty);
    assert!(matches!(
        Grammar::from_rules("S a").unwrap_err(),
        GrammarError::MissingArrow { .. }
    ));
    let dup = TmBuilder::new("s")
        .rule("s", 'a', "s", 'a', tvg_suite::langs::Move::Right)
        .expect("first rule ok")
        .rule("s", 'a', "t", 'b', tvg_suite::langs::Move::Left)
        .expect("second rule ok")
        .build();
    assert!(matches!(dup.unwrap_err(), TmError::DuplicateRule { .. }));
}

#[test]
fn tvg_builder_failures() {
    let b = TvgBuilder::<u64>::new();
    assert_eq!(b.build().unwrap_err(), TvgError::NoNodes);

    let mut b = TvgBuilder::<u64>::new();
    let v = b.node("v");
    let ghost = NodeId::from_index(42);
    assert_eq!(
        b.edge(v, ghost, 'a', Presence::Always, Latency::unit())
            .unwrap_err(),
        TvgError::UnknownNode(ghost)
    );
    assert_eq!(
        b.edge(v, v, 'é', Presence::Always, Latency::unit())
            .unwrap_err(),
        TvgError::BadLabel('é')
    );
}

#[test]
fn automaton_failures() {
    let mut b = TvgBuilder::<u64>::new();
    let v = b.nodes(1);
    let g = b.build().expect("valid");
    assert_eq!(
        TvgAutomaton::new(g.clone(), BTreeSet::new(), BTreeSet::new(), 0).unwrap_err(),
        AutomatonError::NoInitialStates
    );
    let ghost = NodeId::from_index(5);
    assert_eq!(
        TvgAutomaton::new(g, BTreeSet::from([ghost]), BTreeSet::from([v[0]]), 0).unwrap_err(),
        AutomatonError::UnknownNode(ghost)
    );
}

#[test]
fn journey_validation_failures_are_specific() {
    let mut b = TvgBuilder::<u64>::new();
    let v = b.nodes(2);
    b.edge(v[0], v[1], 'a', Presence::At(3), Latency::unit())
        .expect("valid");
    let g = b.build().expect("valid");
    let e = EdgeId::from_index(0);

    // Wrong source.
    let j = Journey::from_hops(vec![Hop {
        edge: e,
        depart: 3,
        arrive: 4,
    }]);
    assert_eq!(
        j.validate(&g, v[1], &3, &WaitingPolicy::Unbounded),
        Err(JourneyError::WrongSource)
    );
    // Edge absent.
    let j = Journey::from_hops(vec![Hop {
        edge: e,
        depart: 2,
        arrive: 3,
    }]);
    assert_eq!(
        j.validate(&g, v[0], &2, &WaitingPolicy::Unbounded),
        Err(JourneyError::EdgeAbsent { hop: 0 })
    );
    // Wait bound exceeded.
    let j = Journey::from_hops(vec![Hop {
        edge: e,
        depart: 3,
        arrive: 4,
    }]);
    assert_eq!(
        j.validate(&g, v[0], &0, &WaitingPolicy::Bounded(2)),
        Err(JourneyError::WaitTooLong { hop: 0 })
    );
    // Arrival inconsistent with latency.
    let j = Journey::from_hops(vec![Hop {
        edge: e,
        depart: 3,
        arrive: 9,
    }]);
    assert_eq!(
        j.validate(&g, v[0], &3, &WaitingPolicy::Unbounded),
        Err(JourneyError::WrongArrival { hop: 0 })
    );
}

#[test]
fn compiler_failures_name_offenders() {
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
    // The aperiodic prime-power schedule cannot be compiled — precisely
    // the boundary between Theorem 2.1 and Theorem 2.2 territory.
    assert_eq!(
        periodic_to_nfa(&aut, 6, &WaitingPolicy::Unbounded, &Alphabet::ab()).unwrap_err(),
        CompileError::NonPeriodicPresence(EdgeId::from_index(0))
    );
}

#[test]
fn anbn_parameter_failures() {
    assert_eq!(
        AnbnAutomaton::new(6, 3).unwrap_err(),
        AnbnError::NotPrime(6)
    );
    assert_eq!(
        AnbnAutomaton::new(3, 3).unwrap_err(),
        AnbnError::PrimesNotDistinct
    );
}

#[test]
fn json_decode_failures_are_typed() {
    use tvg_suite::dynnet::json::parse;
    // Malformed text, truncated values and trailing input all produce
    // errors, never panics or silent defaults.
    for bad in ["", "{", "[1,2", "{}trailing", r#"{"steps":}"#, "nul", "-"] {
        assert!(parse(bad).is_err(), "{bad:?}");
    }
    // And a valid document still parses (the failure cases above are
    // not just rejecting everything).
    assert!(parse(r#"{"num_nodes":4,"p_birth":0.1,"steps":[9]}"#).is_ok());
}

#[test]
fn scenario_spec_failures_are_typed() {
    use tvg_suite::scenarios::{parse_specs, SpecError};
    let base = |generator: &str, policy: &str, plan: &str| {
        format!("scenario s\ngenerator {generator}\npolicy {policy}\nplan {plan}\n")
    };
    // Unknown generator.
    assert_eq!(
        parse_specs(&base("warp_drive n=3", "wait", "matrix horizon=8")).unwrap_err(),
        SpecError::UnknownGenerator {
            scenario: "s".into(),
            name: "warp_drive".into()
        }
    );
    // Bad parameter types: a float where a count belongs, a word where a
    // probability belongs, a number where a bool belongs.
    assert_eq!(
        parse_specs(&base("ring_bus n=2.5 period=4", "wait", "matrix horizon=8")).unwrap_err(),
        SpecError::BadParamType {
            scenario: "s".into(),
            param: "n".into(),
            expected: "usize",
            got: "2.5".into()
        }
    );
    assert_eq!(
        parse_specs(&base(
            "edge_markovian n=4 horizon=8 p_birth=high p_death=0.5 seed=1",
            "wait",
            "matrix horizon=8"
        ))
        .unwrap_err(),
        SpecError::BadParamType {
            scenario: "s".into(),
            param: "p_birth".into(),
            expected: "f64",
            got: "high".into()
        }
    );
    assert_eq!(
        parse_specs(&base(
            "ring_bus n=4 period=4",
            "wait",
            "broadcast source=0 beacons=1 horizon=8"
        ))
        .unwrap_err(),
        SpecError::BadParamType {
            scenario: "s".into(),
            param: "beacons".into(),
            expected: "bool",
            got: "1".into()
        }
    );
    // Missing policy (and the other required directives).
    assert_eq!(
        parse_specs("scenario s\ngenerator ring_bus n=4 period=4\nplan matrix horizon=8\n")
            .unwrap_err(),
        SpecError::MissingDirective {
            scenario: "s".into(),
            directive: "policy"
        }
    );
    assert_eq!(
        parse_specs("scenario s\npolicy wait\nplan matrix horizon=8\n").unwrap_err(),
        SpecError::MissingDirective {
            scenario: "s".into(),
            directive: "generator"
        }
    );
    // Duplicate scenario names.
    let twin = base("ring_bus n=4 period=4", "wait", "matrix horizon=8").repeat(2);
    assert_eq!(
        parse_specs(&twin).unwrap_err(),
        SpecError::DuplicateScenario { name: "s".into() }
    );
    // Unknown and missing parameters, named precisely.
    assert_eq!(
        parse_specs(&base(
            "ring_bus n=4 period=4 color=red",
            "wait",
            "matrix horizon=8"
        ))
        .unwrap_err(),
        SpecError::UnknownParam {
            scenario: "s".into(),
            context: "ring_bus".into(),
            param: "color".into()
        }
    );
    assert_eq!(
        parse_specs(&base("ring_bus n=4", "wait", "matrix horizon=8")).unwrap_err(),
        SpecError::MissingParam {
            scenario: "s".into(),
            context: "ring_bus".into(),
            param: "period"
        }
    );
    // Bad policy text, out-of-range values, out-of-range sources.
    assert_eq!(
        parse_specs(&base(
            "ring_bus n=4 period=4",
            "procrastinate",
            "matrix horizon=8"
        ))
        .unwrap_err(),
        SpecError::BadPolicy {
            scenario: "s".into(),
            text: "procrastinate".into()
        }
    );
    assert!(matches!(
        parse_specs(&base(
            "edge_markovian n=4 horizon=8 p_birth=1.5 p_death=0.5 seed=1",
            "wait",
            "matrix horizon=8"
        ))
        .unwrap_err(),
        SpecError::BadParamValue { ref param, .. } if param == "p_birth"
    ));
    assert_eq!(
        parse_specs(&base(
            "ring_bus n=4 period=4",
            "wait",
            "single_source src=9 horizon=8"
        ))
        .unwrap_err(),
        SpecError::SourceOutOfRange {
            scenario: "s".into(),
            src: 9,
            nodes: 4
        }
    );
    // A start past the horizon admits no departures: the typo is caught
    // at parse time instead of blessing a vacuous all-unreached golden.
    assert!(matches!(
        parse_specs(&base(
            "ring_bus n=4 period=4",
            "wait",
            "matrix start=100 horizon=8"
        ))
        .unwrap_err(),
        SpecError::BadParamValue { ref param, .. } if param == "start"
    ));
    // A beaconing broadcast seeds one copy per instant: a huge horizon
    // must be rejected at parse time, not discovered as an allocation
    // blowup at run time.
    assert!(matches!(
        parse_specs(&base(
            "ring_bus n=4 period=4",
            "nowait",
            "broadcast beacons=true horizon=4000000000"
        ))
        .unwrap_err(),
        SpecError::BadParamValue { ref param, .. } if param == "horizon"
    ));
    // Serve plans are totally validated too: a run with no requests, a
    // zero arrival gap, an all-zero request mix, and a tickless writer
    // are all caught at parse time with the offending parameter named.
    for (plan, param) in [
        (
            "serve horizon=8 requests=0 gap=2 ticks=2 seed=1",
            "requests",
        ),
        ("serve horizon=8 requests=4 gap=0 ticks=2 seed=1", "gap"),
        (
            "serve horizon=8 requests=4 gap=2 foremost=0 matrix=0 broadcast=0 ticks=2 seed=1",
            "foremost",
        ),
        ("serve horizon=8 requests=4 gap=2 ticks=0 seed=1", "ticks"),
        // Broadcast requests beacon one seed per instant, so the serve
        // plan inherits the broadcast plan's horizon allocation bound.
        (
            "serve horizon=4000000000 requests=4 gap=2 ticks=2 seed=1",
            "horizon",
        ),
    ] {
        assert!(
            matches!(
                parse_specs(&base("ring_bus n=4 period=4", "wait", plan)).unwrap_err(),
                SpecError::BadParamValue { param: ref p, .. } if p == param
            ),
            "serve plan {plan:?} must reject {param}"
        );
    }
    // Surplus arguments are not "missing" ones: `policy wait 2` (meaning
    // `wait[2]`) must say the directive takes exactly one argument.
    assert_eq!(
        parse_specs(&base("ring_bus n=4 period=4", "wait 2", "matrix horizon=8")).unwrap_err(),
        SpecError::SurplusArgument {
            line: 3,
            directive: "policy".into()
        }
    );
    // Structure errors: empty input, stray directives, unknown plans.
    assert_eq!(
        parse_specs("# only comments\n").unwrap_err(),
        SpecError::Empty
    );
    assert_eq!(
        parse_specs("policy wait\n").unwrap_err(),
        SpecError::StrayDirective { line: 1 }
    );
    assert_eq!(
        parse_specs(&base("ring_bus n=4 period=4", "wait", "teleport horizon=8")).unwrap_err(),
        SpecError::UnknownPlan {
            scenario: "s".into(),
            name: "teleport".into()
        }
    );
    // And a valid spec still parses (the rejections are not vacuous).
    assert_eq!(
        parse_specs(&base(
            "ring_bus n=4 period=4",
            "wait[2]",
            "matrix horizon=8"
        ))
        .expect("valid spec")
        .len(),
        1
    );
}

#[test]
fn degenerate_language_oracles_are_total() {
    // The Σ* and ∅ oracles from the testkit stay total on any alphabet,
    // including the unary edge case.
    use tvg_testkit::oracles::{empty_language_dfa, sigma_star_dfa, unary_alphabet};
    let sigma = unary_alphabet();
    let all = sigma_star_dfa(&sigma);
    let none = empty_language_dfa(&sigma);
    for w in tvg_suite::langs::sample::words_upto(&sigma, 4) {
        assert!(all.accepts(&w));
        assert!(!none.accepts(&w));
    }
}

#[test]
fn u64_time_overflow_is_unusable_edge_not_panic() {
    // An affine latency that overflows u64 must make the edge unusable,
    // not crash the search.
    let mut b = TvgBuilder::<u64>::new();
    let v = b.nodes(2);
    let e = b
        .edge(
            v[0],
            v[1],
            'a',
            Presence::Always,
            Latency::Affine {
                mul: u64::MAX,
                add: 0,
            },
        )
        .expect("valid");
    let g = b.build().expect("valid");
    assert_eq!(g.traverse(e, &2), None); // 2 · u64::MAX overflows
    assert_eq!(g.traverse(e, &0), Some(0)); // 0 · anything is fine
}
