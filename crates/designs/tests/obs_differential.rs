//! Differential suite for `genfv-obs`: tracing must be reproducible and
//! must cost nothing when disabled.
//!
//! * **Determinism** — two identical runs under
//!   [`ObsConfig::Deterministic`] (logical clock) must produce
//!   byte-identical event streams: same span names, same nesting, same
//!   tick timestamps. Pinned in *both* unroll modes, since template
//!   stamping and the DAG walk take different extension paths and each
//!   must be individually reproducible.
//! * **Zero-cost when off** — a corpus sweep with the default disabled
//!   handle must not record a single trace event. The global
//!   [`events_recorded_total`] counter sits behind the one branch every
//!   span costs, so it staying flat proves the disabled path never
//!   reaches the recorder (and therefore never allocates a trace
//!   buffer). The strict wall-clock overhead gate lives in the
//!   `e14_obs` bench, where warmup and repetition make timing
//!   meaningful.

use genfv_core::{
    run_baseline, run_combined, run_flow1, run_flow2, FlowConfig, FlowReport, OptConfig, OptLevel,
};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{CheckConfig, UnrollMode};
use genfv_obs::{Obs, ObsConfig, Phase, TraceEvent};

fn flow_config(mode: UnrollMode, obs: Obs) -> FlowConfig {
    FlowConfig {
        check: CheckConfig { max_k: 4, unroll_mode: mode, ..Default::default() },
        ..Default::default()
    }
    .with_obs(obs)
}

/// One deterministic-obs corpus sweep: returns every design's drained
/// event stream.
fn traced_sweep(mode: UnrollMode) -> Vec<(String, Vec<TraceEvent>)> {
    genfv_designs::all_designs()
        .iter()
        .map(|bundle| {
            let design = bundle.prepare().expect("corpus designs prepare");
            let obs = Obs::new(ObsConfig::Deterministic);
            let report = run_baseline(&design, &flow_config(mode, obs.clone()));
            assert!(!report.targets.is_empty());
            (design.name.clone(), obs.take_events())
        })
        .collect()
}

#[test]
fn deterministic_trace_shape_is_pinned_across_runs() {
    for mode in [UnrollMode::Template, UnrollMode::DagWalk] {
        let a = traced_sweep(mode);
        let b = traced_sweep(mode);
        assert_eq!(a.len(), b.len());
        for ((name_a, ev_a), (name_b, ev_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(
                ev_a, ev_b,
                "span tree diverged across identical runs on `{name_a}` ({mode:?})"
            );
        }
    }
}

#[test]
fn deterministic_trace_reaches_solve_depth_and_balances() {
    let design = genfv_designs::all_designs()
        .first()
        .expect("corpus is non-empty")
        .prepare()
        .expect("prepares");
    let obs = Obs::new(ObsConfig::Deterministic);
    run_baseline(&design, &flow_config(UnrollMode::Template, obs.clone()));
    let report = obs.report().expect("enabled handle yields a report");

    let json = report.chrome_json();
    let check = genfv_obs::validate_chrome_trace(&json).expect("valid Chrome trace JSON");
    assert!(check.balanced);
    assert!(
        check.depth_of_prefix("solve.").is_some(),
        "trace must reach individual solve calls: {json}"
    );
    assert!(check.depth_of_prefix("flow.baseline").is_some());

    // The logical clock makes the tree renderer stable too (counts, no
    // wall times) — spot-check the roots it reports.
    let tree = report.render_tree();
    assert!(tree.contains("flow.baseline"), "{tree}");
    assert!(tree.contains("solve.step"), "{tree}");
}

#[test]
fn off_and_deterministic_modes_agree_on_verdicts() {
    // Recording a trace must never change what the flow concludes.
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let plain = run_baseline(&design, &flow_config(UnrollMode::Template, Obs::off()));
        let traced = run_baseline(
            &design,
            &flow_config(UnrollMode::Template, Obs::new(ObsConfig::Deterministic)),
        );
        assert_eq!(plain.targets.len(), traced.targets.len());
        for (p, t) in plain.targets.iter().zip(&traced.targets) {
            assert_eq!(
                std::mem::discriminant(&p.outcome),
                std::mem::discriminant(&t.outcome),
                "verdict class diverged under tracing on {}/{}",
                design.name,
                p.name
            );
        }
        assert_eq!(
            plain.metrics.solver.solver_calls, traced.metrics.solver.solver_calls,
            "solver call count diverged under tracing on {}",
            design.name
        );
    }
}

#[test]
fn deterministic_events_use_the_logical_clock() {
    let design = genfv_designs::all_designs()
        .first()
        .expect("corpus is non-empty")
        .prepare()
        .expect("prepares");
    let obs = Obs::new(ObsConfig::Deterministic);
    run_baseline(&design, &flow_config(UnrollMode::Template, obs.clone()));
    let events = obs.take_events();
    assert!(!events.is_empty());
    // Logical timestamps are tick-counter values — strictly increasing
    // (`now_us` probes also consume ticks, so they need not be
    // contiguous) and far below any wall-clock µs epoch reading.
    for pair in events.windows(2) {
        assert!(pair[0].ts < pair[1].ts, "tick clock not strictly increasing: {pair:?}");
    }
    let span = events.last().expect("non-empty").ts - events[0].ts;
    assert!(span < 1_000_000, "timestamps look like wall time, not ticks: span {span}");
    assert!(events.iter().any(|e| e.phase == Phase::Begin && e.name.starts_with("solve.")));
}

/// Each flow's skeleton of `flow.*` and `prove` spans on the paper's
/// example design under plain k-induction (`OptLevel::None`, where the
/// target needs a lemma). The ledger's `flow.self_ms_per_job` and
/// `prove.self_ms_per_job` rows read these spans, so they must stay where
/// they are whatever the flows' internals look like. Every GenAI flow
/// opens with an unaided `prove` and consults the model only after it
/// leaves the target open.
#[test]
fn flow_span_skeletons_are_pinned() {
    let plain = OptConfig::default().with_level(OptLevel::None);
    let design =
        genfv_designs::by_name("sync_counters").expect("in corpus").prepare_with(&plain).unwrap();
    let skeleton = |run: &dyn Fn(&FlowConfig) -> FlowReport| {
        let obs = Obs::new(ObsConfig::Deterministic);
        run(&FlowConfig::default().with_obs(obs.clone()));
        let events = obs.take_events().into_iter();
        events
            .filter(|e| e.phase == Phase::Begin)
            .map(|e| e.name)
            .filter(|name| name.starts_with("flow.") || *name == "prove")
            .collect::<Vec<_>>()
    };
    let llm = || SyntheticLlm::new(ModelProfile::GptFourTurbo, 0);
    // One candidate batch: five candidate proofs, then Houdini.
    let batch = ["flow.validate", "prove", "prove", "prove", "prove", "prove", "flow.houdini"];
    let around = |head: &[&'static str]| [head, &batch, &["prove"]].concat();

    assert_eq!(skeleton(&|c| run_baseline(&design, c)), ["flow.baseline", "prove"]);
    assert_eq!(
        skeleton(&|c| run_flow1(design.clone(), &mut llm(), c)),
        around(&["flow.flow1", "prove"])
    );
    assert_eq!(
        skeleton(&|c| run_flow2(design.clone(), &mut llm(), c)),
        around(&["flow.flow2", "prove"])
    );
    assert_eq!(
        skeleton(&|c| run_combined(design.clone(), &mut llm(), c)),
        around(&["flow.combined", "prove"])
    );
}
