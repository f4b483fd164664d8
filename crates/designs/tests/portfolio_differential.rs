//! Differential suite: portfolio-backed [`ProofSession`]s must answer
//! exactly like single-solver sessions across the whole designs corpus.
//!
//! Every portfolio worker decides the *same formula* (a byte-identical
//! clone of the loaded clause database), so SAT/UNSAT answers are
//! interchangeable and every observable the flows branch on — verdict
//! class, induction depth `k`, counterexample cycle, trace length — must
//! be identical to the single-solver run. SAT models are not unique, so
//! per-signal trace *values* may legitimately differ; trace shape and the
//! violation cycle (checked against the single-solver oracle) pin CEX
//! validity the same way the engine differential suite does.
//!
//! The determinism tests pin the second half of the subsystem's contract:
//! with the deterministic ladder discipline and fixed seeds, whole runs —
//! winner statistics included — are bit-reproducible.

use genfv_core::{run_flow2, FlowConfig};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{BmcResult, CheckConfig, PortfolioConfig, ProofSession, ProveResult};

mod common;

/// A portfolio aggressive enough to race real queries on corpus-sized
/// designs: tiny probe, small first epoch, three workers.
fn racy_portfolio() -> PortfolioConfig {
    PortfolioConfig {
        workers: 3,
        probe_conflicts: Some(16),
        epoch_start: 64,
        ..PortfolioConfig::default()
    }
}

fn portfolio_check_config() -> CheckConfig {
    CheckConfig { max_k: 4, portfolio: Some(racy_portfolio()), ..Default::default() }
}

fn assert_prove_eq(portfolio: &ProveResult, single: &ProveResult, what: &str) {
    match (portfolio, single) {
        (ProveResult::Proven { k: a, .. }, ProveResult::Proven { k: b, .. }) => {
            assert_eq!(a, b, "proof depth diverged on {what}");
        }
        (
            ProveResult::Falsified { at: a, trace: ta, .. },
            ProveResult::Falsified { at: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "violation cycle diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
            assert_eq!(ta.steps.len(), *a + 1, "CEX must span reset..violation on {what}");
            assert!(
                ta.steps.iter().all(|s| !s.values.is_empty()),
                "portfolio CEX must carry signal values on {what}"
            );
        }
        (
            ProveResult::StepFailure { k: a, trace: ta, .. },
            ProveResult::StepFailure { k: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "step-failure depth diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "step CEX length diverged on {what}");
        }
        (a, b) => panic!("verdict diverged on {what}: portfolio {a:?} vs single {b:?}"),
    }
}

/// Every target of every corpus design: one portfolio-backed session per
/// design versus one single-solver session per design.
#[test]
fn portfolio_prove_matches_single_solver_on_corpus() {
    let single_cfg = CheckConfig { max_k: 4, ..Default::default() };
    let mut targets_checked = 0;
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut raced = ProofSession::new(&design.ctx, &design.ts, portfolio_check_config());
        let mut single = ProofSession::new(&design.ctx, &design.ts, single_cfg.clone());
        for target in &design.targets {
            let p = raced.prove(&target.prop);
            let s = single.prove(&target.prop);
            assert_prove_eq(&p, &s, &format!("{}::{}", bundle.name, target.name));
            targets_checked += 1;
        }
        assert_eq!(
            raced.stats().bitblasts,
            1,
            "{}: racing must never re-bit-blast (clause-clone reuse)",
            bundle.name
        );
    }
    assert!(targets_checked >= 10, "the corpus should contribute real targets");
}

/// The step-hard designs of the `e0_ledger` `deep_induction` workload,
/// proved at `max_k` 12 under that workload's portfolio: every hard step
/// query outlasts the 256-conflict probe and is raced whole. Three cheap
/// designs ride along as a floor where little or nothing races. The
/// retained `cube_depth: 2` must change nothing.
#[test]
fn deep_portfolio_prove_matches_single_solver() {
    const DEEP: [&str; 10] = [
        "sync_counters",
        "sync_counters_16",
        "offset_counters",
        "twin_shift",
        "ecc_counter",
        "fifo_counters",
        "credit_flow",
        "secded84",
        "div_checker",
        "gray_counter",
    ];
    let portfolio = PortfolioConfig {
        probe_conflicts: Some(256),
        cube_depth: 2,
        workers: 2,
        ..PortfolioConfig::default()
    };
    let raced_cfg = CheckConfig { max_k: 12, portfolio: Some(portfolio), ..Default::default() };
    let single_cfg = CheckConfig { max_k: 12, ..Default::default() };
    let mut races = 0;
    for name in DEEP {
        let design = genfv_designs::by_name(name).expect("exists").prepare().expect("prepares");
        let mut raced = ProofSession::new(&design.ctx, &design.ts, raced_cfg.clone());
        let mut single = ProofSession::new(&design.ctx, &design.ts, single_cfg.clone());
        for target in &design.targets {
            let p = raced.prove(&target.prop);
            let s = single.prove(&target.prop);
            assert_prove_eq(&p, &s, &format!("{name}::{}", target.name));
        }
        races += raced.stats().portfolio_races;
    }
    assert!(races > 0, "the deep designs must blow the probe somewhere");
}

/// Flow 2 end to end (validation gauntlet, Houdini, target proofs,
/// CEX-driven repair) with and without the racy portfolio, under a terse
/// and a chatty model: identical verdict classes and falsification cycles
/// for every target. The portfolio's default probe settles every query of
/// these flows solo, so only the racy configuration exercises races here.
#[test]
fn flow2_verdicts_identical_with_portfolio() {
    let mut races = 0;
    for profile in [ModelProfile::GptFourTurbo, ModelProfile::LlamaThree] {
        for bundle in common::flow_designs() {
            let single = run_flow2(
                bundle.prepare().expect("corpus designs prepare"),
                &mut SyntheticLlm::new(profile, 42),
                &FlowConfig::default(),
            );
            let raced = run_flow2(
                bundle.prepare().expect("corpus designs prepare"),
                &mut SyntheticLlm::new(profile, 42),
                &FlowConfig::default().with_portfolio(racy_portfolio()),
            );
            assert_eq!(single.targets.len(), raced.targets.len());
            for (ts, tr) in single.targets.iter().zip(&raced.targets) {
                assert_eq!(ts.name, tr.name);
                assert_eq!(
                    common::outcome_class(&ts.outcome),
                    common::outcome_class(&tr.outcome),
                    "flow outcome diverged on {}::{} under {profile:?}",
                    bundle.name,
                    ts.name
                );
            }
            races += raced.metrics.solver.portfolio_races;
        }
    }
    assert!(races > 0, "the racy portfolio must race inside the flows");
}

/// BMC over the same split: identical clean depths and violation cycles.
#[test]
fn portfolio_bmc_matches_single_solver_on_corpus() {
    let single_cfg = CheckConfig::default();
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut raced = ProofSession::new(
            &design.ctx,
            &design.ts,
            CheckConfig { portfolio: Some(racy_portfolio()), ..Default::default() },
        );
        let mut single = ProofSession::new(&design.ctx, &design.ts, single_cfg.clone());
        for target in &design.targets {
            let p = raced.bmc_check(&target.prop, 8);
            let s = single.bmc_check(&target.prop, 8);
            match (p, s) {
                (BmcResult::Clean { depth: a, .. }, BmcResult::Clean { depth: b, .. }) => {
                    assert_eq!(a, b, "clean depth diverged on {}::{}", bundle.name, target.name);
                }
                (
                    BmcResult::Falsified { at: a, trace: ta, .. },
                    BmcResult::Falsified { at: b, trace: tb, .. },
                ) => {
                    assert_eq!(a, b, "cycle diverged on {}::{}", bundle.name, target.name);
                    assert_eq!(ta.steps.len(), tb.steps.len());
                }
                (a, b) => {
                    panic!("BMC diverged on {}::{}: {a:?} vs {b:?}", bundle.name, target.name)
                }
            }
        }
    }
}

/// Fixed seeds must reproduce whole portfolio runs bit for bit — verdict,
/// reuse counters, race counters, per-query efforts. This is the
/// "determinism of reported stats" contract of the deterministic ladder:
/// winner selection is a pure function of the worker configurations, so
/// repeated runs cannot drift even though races span multiple solvers.
#[test]
fn portfolio_runs_are_deterministic_per_seed() {
    for bundle in [
        genfv_designs::by_name("fifo_counters").expect("exists"),
        genfv_designs::by_name("sync_counters_16").expect("exists"),
    ] {
        let design = bundle.prepare().expect("corpus designs prepare");
        let run = || {
            let mut session = ProofSession::new(&design.ctx, &design.ts, portfolio_check_config());
            let verdicts: Vec<String> = design
                .targets
                .iter()
                .map(|t| format!("{:?}", std::mem::discriminant(&session.prove(&t.prop))))
                .collect();
            let st = *session.stats();
            (
                verdicts,
                st.solver_calls,
                st.conflicts,
                st.decisions,
                st.propagations,
                st.portfolio_races,
                st.portfolio_glue_shared,
                st.last_query_conflicts,
            )
        };
        assert_eq!(run(), run(), "{}: fixed seeds must reproduce runs exactly", bundle.name);
    }
}

/// Changing the master seed may legitimately change race outcomes but
/// never verdicts: every worker decides the same formula.
#[test]
fn portfolio_seeds_change_stats_not_verdicts() {
    let bundle = genfv_designs::by_name("fifo_counters").expect("exists");
    let design = bundle.prepare().expect("corpus designs prepare");
    let run = |seed: u64| {
        let portfolio = PortfolioConfig { seed, ..racy_portfolio() };
        let mut session = ProofSession::new(
            &design.ctx,
            &design.ts,
            CheckConfig { max_k: 4, portfolio: Some(portfolio), ..Default::default() },
        );
        design
            .targets
            .iter()
            .map(|t| format!("{:?}", std::mem::discriminant(&session.prove(&t.prop))))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(99), "verdicts must be seed-independent");
}
