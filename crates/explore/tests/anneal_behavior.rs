//! Behavioral contracts of the simulated-annealing walk: the cooling
//! schedule, greedy acceptance at near-zero temperature, and the
//! option-validation surface.

use xps_cacti::Technology;
use xps_explore::{anneal_with, AnnealOptions, DesignPoint, ExploreError};
use xps_trace::{with_recorder, AttrValue, Event, EventKind, SpanRecorder};
use xps_workload::spec;

fn tiny_opts() -> AnnealOptions {
    let mut opts = AnnealOptions::quick();
    opts.iterations = 40;
    opts.eval_ops_early = 2_000;
    opts.eval_ops_late = 4_000;
    opts
}

/// Run one traced walk and capture one step per iteration — its
/// number, the temperature its move was decided at (from the
/// `anneal.move` instants), and the best IPT so far (from the result's
/// history) — plus the trace events.
fn run_walk(opts: &AnnealOptions) -> (Vec<(u64, f64, f64)>, Vec<Event>) {
    let profile = spec::profile("gzip").expect("known benchmark");
    let tech = Technology::default();
    let (rec, result) = with_recorder(SpanRecorder::new(), || {
        anneal_with(&profile, &DesignPoint::initial(), opts, &tech, None)
    });
    let events = rec.finish();
    let attr = |e: &Event, key: &str| {
        e.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let steps = events
        .iter()
        .filter(|e| e.name == "anneal.move")
        .zip(&result.history)
        .map(|(e, &best)| match (attr(e, "it"), attr(e, "temp")) {
            (Some(AttrValue::U64(it)), Some(AttrValue::F64(temp))) => (it, temp, best),
            other => panic!("anneal.move lacks it/temp: {other:?}"),
        })
        .collect();
    (steps, events)
}

fn walk_end_attr(events: &[Event], key: &str) -> u64 {
    let end = events
        .iter()
        .find(|e| e.kind == EventKind::End && e.name == "anneal.walk")
        .expect("walk End event recorded");
    match end.attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::U64(n))) => *n,
        other => panic!("attr `{key}` missing or not a counter: {other:?}"),
    }
}

#[test]
fn cooling_schedule_is_monotone_geometric() {
    let opts = tiny_opts();
    let (steps, _) = run_walk(&opts);
    assert_eq!(
        steps.len(),
        opts.iterations as usize,
        "one step per iteration"
    );
    // Iterations arrive in order, temperatures decay geometrically.
    for (i, &(iteration, temperature, _)) in steps.iter().enumerate() {
        assert_eq!(iteration, i as u64 + 1);
        let expected = opts.temperature * opts.cooling.powi(i as i32);
        assert!(
            (temperature - expected).abs() <= 1e-12 * expected,
            "step {iteration}: temperature {temperature} != {expected}"
        );
    }
    for pair in steps.windows(2) {
        assert!(
            pair[1].1 < pair[0].1,
            "temperature must strictly decrease: {} -> {}",
            pair[0].1,
            pair[1].1
        );
    }
    // The best-so-far series never regresses.
    for pair in steps.windows(2) {
        assert!(pair[1].2 >= pair[0].2, "best IPT is monotone");
    }
}

#[test]
fn near_zero_temperature_rejects_every_worse_move() {
    let mut opts = tiny_opts();
    opts.temperature = 1e-12;
    opts.cooling = 1.0; // stay frozen for the whole walk
    let (_, events) = run_walk(&opts);
    assert_eq!(
        walk_end_attr(&events, "accepted_worse"),
        0,
        "a frozen walk is greedy: no strictly-worse move may be accepted"
    );
    // The walk still moved: it accepted improvements or rejected
    // proposals, it did not stall.
    let decided = walk_end_attr(&events, "accepted") + walk_end_attr(&events, "rejected");
    assert!(decided > 0, "the walk must still evaluate moves");
}

#[test]
fn warm_walk_accepts_some_worse_moves() {
    // Sanity check of the previous test's instrument: with a hot,
    // slow-cooling schedule the same counter is non-zero, so the
    // zero above is meaningful.
    let mut opts = tiny_opts();
    opts.iterations = 80;
    opts.temperature = 10.0;
    opts.cooling = 0.999;
    let (_, events) = run_walk(&opts);
    assert!(
        walk_end_attr(&events, "accepted_worse") > 0,
        "a hot walk explores: some worse moves are accepted"
    );
}

type BreakFn = fn(&mut AnnealOptions);

#[test]
fn validate_rejects_each_broken_invariant_by_name() {
    let cases: [(&str, BreakFn, &str); 6] = [
        ("iterations", |o| o.iterations = 0, "iterations"),
        ("eval budget", |o| o.eval_ops_late = 0, "budgets"),
        (
            "early fraction",
            |o| o.early_fraction = 1.5,
            "early_fraction",
        ),
        ("temperature", |o| o.temperature = 0.0, "temperature"),
        ("cooling", |o| o.cooling = 1.1, "cooling"),
        (
            "rollback fraction",
            |o| o.rollback_fraction = -0.1,
            "rollback_fraction",
        ),
    ];
    for (label, break_it, needle) in cases {
        let mut opts = AnnealOptions::default();
        opts.validate().expect("defaults are valid");
        break_it(&mut opts);
        match opts.validate() {
            Err(ExploreError::InvalidOptions(msg)) => {
                assert!(
                    msg.contains(needle),
                    "{label}: message `{msg}` lacks `{needle}`"
                );
            }
            other => panic!("{label}: expected InvalidOptions, got {other:?}"),
        }
    }
    // NaN is rejected everywhere a float invariant exists.
    for break_it in [
        (|o: &mut AnnealOptions| o.temperature = f64::NAN) as fn(&mut AnnealOptions),
        |o| o.cooling = f64::NAN,
        |o| o.early_fraction = f64::NAN,
        |o| o.rollback_fraction = f64::NAN,
    ] {
        let mut opts = AnnealOptions::default();
        break_it(&mut opts);
        assert!(opts.validate().is_err(), "NaN must never validate");
    }
}
