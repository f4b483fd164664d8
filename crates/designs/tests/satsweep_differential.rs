//! Differential suite for the SAT-sweeping optimization level: turning
//! the sweep on (`OptLevel::SatSweep`, which is `Full` plus
//! `SatSweepPass`) must never change what the flows conclude.
//!
//! Every design is prepared twice — at the default `OptLevel::Full` (the
//! PR 7 pipeline, sweep off) and at `OptLevel::SatSweep` (sweep on) —
//! and driven through the same checks. The sweep's two merge kinds sit
//! in different soundness classes:
//!
//! * **combinational merges** are conditional on the environment
//!   constraints and never rewrite constraint positions, so on every
//!   constraint-satisfying trace the merged netlist is bit-identical to
//!   the unswept one: BMC verdicts, clean depths, and falsification
//!   cycles must be *equal*;
//! * **register-correspondence merges** substitute one register for a
//!   proven-lockstep twin. Reachable traces project identically onto
//!   the surviving observables (BMC stays equal), but the induction
//!   hypothesis is strengthened — unreachable step counterexamples where
//!   the twins disagree disappear — so a proof may close at a *smaller*
//!   k, or close where the unswept pipeline stalled, never the reverse.
//!
//! `assert_no_regression` encodes exactly that order, mirroring
//! `opt_differential.rs` one level up the pipeline.

use genfv_core::{
    run_baseline, run_flow2, FlowConfig, OptConfig, OptLevel, PreparedDesign, TargetOutcome,
};
use genfv_designs::DesignBundle;
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{BmcResult, CheckConfig, ProofSession, ProveResult, UnrollMode};

/// The sweep-off side: the default pipeline (`OptLevel::Full`).
fn full_prep(bundle: &DesignBundle) -> PreparedDesign {
    bundle.prepare().expect("full prepare")
}

/// The sweep-on side: `Full` plus `SatSweepPass`.
fn sweep_prep(bundle: &DesignBundle) -> PreparedDesign {
    bundle
        .prepare_with(&OptConfig::default().with_level(OptLevel::SatSweep))
        .expect("sweep prepare")
}

fn cfg(mode: UnrollMode) -> CheckConfig {
    CheckConfig { max_k: 4, unroll_mode: mode, ..Default::default() }
}

/// Sweep-on vs sweep-off verdict discipline: equal, or improved in the
/// strengthening direction only.
fn assert_no_regression(base: &ProveResult, swept: &ProveResult, what: &str) {
    match (base, swept) {
        (ProveResult::Proven { k: kb, .. }, ProveResult::Proven { k: ko, .. }) => {
            assert!(ko <= kb, "SAT-sweeping raised the proof depth on {what}: {kb} -> {ko}");
        }
        (
            ProveResult::Falsified { at: a, trace: ta, .. },
            ProveResult::Falsified { at: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "violation cycle diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
        }
        // Strengthening: a stall without the sweep may close with it.
        (ProveResult::StepFailure { .. }, ProveResult::Proven { .. })
        | (ProveResult::Unknown { .. }, ProveResult::Proven { .. })
        | (ProveResult::StepFailure { .. }, ProveResult::StepFailure { .. })
        | (ProveResult::Unknown { .. }, ProveResult::Unknown { .. }) => {}
        (b, o) => panic!("verdict diverged on {what}: sweep-off {b:?} vs sweep-on {o:?}"),
    }
}

fn full_corpus() -> Vec<DesignBundle> {
    genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs()).collect()
}

/// Induction proofs across the whole corpus (datapath included), in both
/// unroll modes: the swept netlist must prove everything the unswept one
/// proves, at no greater depth, with identical counterexamples.
#[test]
fn swept_proofs_never_regress_on_corpus() {
    for mode in [UnrollMode::Template, UnrollMode::DagWalk] {
        for bundle in full_corpus() {
            let base = full_prep(&bundle);
            let swept = sweep_prep(&bundle);
            let mut base_session = ProofSession::new(&base.ctx, &base.ts, cfg(mode));
            let mut swept_session = ProofSession::new(&swept.ctx, &swept.ts, cfg(mode));
            for (bt, st) in base.targets.iter().zip(&swept.targets) {
                assert_eq!(bt.name, st.name);
                let b = base_session.prove(&bt.prop);
                let o = swept_session.prove(&st.prop);
                assert_no_regression(&b, &o, &format!("{}::{} ({mode:?})", bundle.name, bt.name));
            }
        }
    }
}

/// BMC is pure reachable-trace semantics. Combinational merges hold on
/// every constraint-satisfying frame and register merges are trace
/// bijections, so no strengthening is possible: clean depths and
/// falsification cycles must be *equal*.
#[test]
fn swept_bmc_is_identical_on_corpus() {
    for bundle in full_corpus() {
        let base = full_prep(&bundle);
        let swept = sweep_prep(&bundle);
        let mut base_session = ProofSession::new(&base.ctx, &base.ts, cfg(UnrollMode::Template));
        let mut swept_session = ProofSession::new(&swept.ctx, &swept.ts, cfg(UnrollMode::Template));
        for (bt, st) in base.targets.iter().zip(&swept.targets) {
            let what = format!("{}::{}", bundle.name, bt.name);
            let b = base_session.bmc_check(&bt.prop, 8);
            let o = swept_session.bmc_check(&st.prop, 8);
            match (&b, &o) {
                (BmcResult::Clean { depth: a, .. }, BmcResult::Clean { depth: c, .. }) => {
                    assert_eq!(a, c, "clean depth diverged on {what}");
                }
                (
                    BmcResult::Falsified { at: a, trace: ta, .. },
                    BmcResult::Falsified { at: c, trace: tc, .. },
                ) => {
                    assert_eq!(a, c, "violation cycle diverged on {what}");
                    assert_eq!(ta.steps.len(), tc.steps.len(), "trace length diverged on {what}");
                }
                (b, o) => panic!("BMC diverged on {what}: sweep-off {b:?} vs sweep-on {o:?}"),
            }
        }
    }
}

/// The observable a flow verdict rests on: verdict classes and the
/// deterministic cycle of a real falsification may not change, except in
/// the strengthening direction.
fn outcome_ok(base: &TargetOutcome, swept: &TargetOutcome, what: &str) {
    match (base, swept) {
        (TargetOutcome::Proven { .. }, TargetOutcome::Proven { .. }) => {}
        (TargetOutcome::Falsified { at: a }, TargetOutcome::Falsified { at: b }) => {
            assert_eq!(a, b, "falsification cycle diverged on {what}");
        }
        (TargetOutcome::StillUnproven { .. }, TargetOutcome::Proven { .. })
        | (TargetOutcome::Unknown { .. }, TargetOutcome::Proven { .. })
        | (TargetOutcome::StillUnproven { .. }, TargetOutcome::StillUnproven { .. })
        | (TargetOutcome::Unknown { .. }, TargetOutcome::Unknown { .. }) => {}
        (b, o) => panic!("flow outcome diverged on {what}: sweep-off {b:?} vs sweep-on {o:?}"),
    }
}

/// Plain k-induction (`run_baseline`) end to end over the full corpus,
/// with the sweep's counters surfacing through the flow report.
#[test]
fn baseline_flow_verdicts_never_regress_with_sweep() {
    for bundle in full_corpus() {
        let flow_cfg = FlowConfig::default();
        let base = run_baseline(&full_prep(&bundle), &flow_cfg);
        let swept = run_baseline(&sweep_prep(&bundle), &flow_cfg);
        assert_eq!(base.targets.len(), swept.targets.len());
        assert!(swept.opt.rounds >= 1, "{}: swept report carries opt stats", bundle.name);
        // The sweep's counters ride the same OptStats plumbing: a refuted
        // or proved pair anywhere shows up in the report, and the sweep-off
        // report never carries sweep counters.
        assert_eq!(
            base.opt.pairs_proved + base.opt.pairs_refuted + base.opt.nodes_merged,
            0,
            "{}: sweep-off report must not carry sweep counters",
            bundle.name
        );
        for (bt, st) in base.targets.iter().zip(&swept.targets) {
            assert_eq!(bt.name, st.name);
            outcome_ok(&bt.outcome, &st.outcome, &format!("{}::{}", bundle.name, bt.name));
        }
    }
}

/// Flow 2 (CEX-driven repair) on the lemma-hungry designs, in both
/// unroll modes: the full gauntlet over the swept netlist must reach
/// verdicts no worse than over the unswept one.
#[test]
fn flow2_verdicts_never_regress_with_sweep() {
    for mode in [UnrollMode::Template, UnrollMode::DagWalk] {
        for bundle in genfv_designs::lemma_hungry_designs() {
            let flow_cfg = FlowConfig::default().with_unroll_mode(mode);
            let base = run_flow2(
                full_prep(&bundle),
                &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
                &flow_cfg,
            );
            let swept = run_flow2(
                sweep_prep(&bundle),
                &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
                &flow_cfg,
            );
            assert_eq!(base.targets.len(), swept.targets.len());
            for (bt, st) in base.targets.iter().zip(&swept.targets) {
                assert_eq!(bt.name, st.name);
                outcome_ok(
                    &bt.outcome,
                    &st.outcome,
                    &format!("{}::{} ({mode:?})", bundle.name, bt.name),
                );
            }
        }
    }
}

/// The sweep's payoff: on the datapath designs the register-correspondence
/// stage merges the shadow accumulator into the multiplier register
/// (`nodes_merged > 0`, one state gone) and the per-frame CNF shrinks
/// beyond what the `Full` pipeline achieves. On every design, datapath
/// and corpus alike, the sweep stays within its per-pair conflict budget.
#[test]
fn sweep_pays_off_on_datapath_designs() {
    use genfv_ir::Template;
    let clauses = |p: &PreparedDesign| {
        let roots: Vec<_> = p.targets.iter().map(|t| t.prop.ok).collect();
        Template::build_with(&p.ctx, &p.ts, &roots).num_clauses()
    };
    let budget = genfv_ir::SatSweepConfig::default().conflict_budget;
    let datapath = genfv_designs::datapath_designs().into_iter().map(|b| (b, true));
    let corpus = genfv_designs::all_designs().into_iter().map(|b| (b, false));
    for (bundle, is_datapath) in datapath.chain(corpus) {
        let base = full_prep(&bundle);
        let swept = sweep_prep(&bundle);
        let stats = &swept.opt_stats;
        // Budget discipline: every miter is capped, so total conflicts
        // are bounded by (queries x per-pair budget).
        let queries = stats.pairs_proved + stats.pairs_refuted;
        assert!(
            stats.sweep_conflicts <= queries.max(1) * budget,
            "{}: sweep conflicts exceed the budget envelope",
            bundle.name
        );
        if !is_datapath {
            continue;
        }
        assert!(stats.nodes_merged > 0, "{}: sweep must merge on the datapath", bundle.name);
        assert!(stats.pairs_proved > 0, "{}: merges come from proved pairs", bundle.name);
        assert!(
            swept.ts.states().len() < base.ts.states().len(),
            "{}: register correspondence collapses the shadow register",
            bundle.name
        );
        let (cf, cs) = (clauses(&base), clauses(&swept));
        assert!(
            cs < cf,
            "{}: per-frame CNF must shrink beyond the PR 7 pipeline ({cf} -> {cs})",
            bundle.name
        );
    }
}

/// Warm-capital isolation: the service keys its seed cache on the
/// *salted* layout fingerprint, so capital built at `OptLevel::SatSweep`
/// must never be served to a `Full` session over the same sources — even
/// for designs the sweep leaves byte-identical, where only the salt
/// separates the keys. On the datapath designs the layouts themselves
/// diverge (a register is merged away), so there the unsalted
/// cross-`matches` must fail too.
#[test]
fn satsweep_salt_isolates_session_seeds() {
    use genfv_mc::SessionSeed;
    for bundle in full_corpus() {
        let base = full_prep(&bundle);
        let swept = sweep_prep(&bundle);
        let base_key = SessionSeed::fingerprint(&base.ctx, &base.ts) ^ base.opt.level.salt();
        let swept_key = SessionSeed::fingerprint(&swept.ctx, &swept.ts) ^ swept.opt.level.salt();
        assert_ne!(base_key, swept_key, "{}: cache keys must differ", bundle.name);
        let base_seed = SessionSeed::for_design_salted(&base.ctx, &base.ts, base.opt.level.salt());
        let swept_seed =
            SessionSeed::for_design_salted(&swept.ctx, &swept.ts, swept.opt.level.salt());
        assert!(base_seed.matches(&base.ctx, &base.ts));
        assert!(swept_seed.matches(&swept.ctx, &swept.ts));
    }
    for bundle in genfv_designs::datapath_designs() {
        let base = full_prep(&bundle);
        let swept = sweep_prep(&bundle);
        let base_seed = SessionSeed::for_design_salted(&base.ctx, &base.ts, base.opt.level.salt());
        let swept_seed =
            SessionSeed::for_design_salted(&swept.ctx, &swept.ts, swept.opt.level.salt());
        assert!(!base_seed.matches(&swept.ctx, &swept.ts), "{}", bundle.name);
        assert!(!swept_seed.matches(&base.ctx, &base.ts), "{}", bundle.name);
    }
}
