//! Differential suite for the SAT-sweeping optimization level: turning
//! the combinational sweep on (`OptLevel::SatSweep`, which is `Full` plus
//! `SatSweepPass::run`) must never change what the flows conclude.
//!
//! Every design is prepared twice — at the default `OptLevel::Full`
//! (sweep off) and at `OptLevel::SatSweep` (sweep on) — and driven
//! through the same checks. Both levels run register correspondence, so
//! the only difference is the combinational sweep. Its merges are
//! conditional on the environment constraints, never rewrite constraint
//! positions, and hold for every state valuation, so on every
//! constraint-satisfying frame the merged netlist computes what the
//! unswept one computes: BMC verdicts, clean depths, falsification cycles
//! and proof depths must be *equal*. Register correspondence, the stage
//! that strengthens induction, is checked against the unoptimized system
//! in `opt_differential.rs`.

use genfv_core::{
    run_baseline, run_flow2, FlowConfig, OptConfig, OptLevel, PreparedDesign, TargetOutcome,
};
use genfv_designs::DesignBundle;
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{BmcResult, CheckConfig, ProofSession, ProveResult, UnrollMode};

/// The sweep-off side: the default pipeline (`OptLevel::Full`), register
/// correspondence included.
fn full_prep(bundle: &DesignBundle) -> PreparedDesign {
    bundle.prepare().expect("full prepare")
}

/// The sweep-on side: `Full` plus the combinational sweep.
fn sweep_prep(bundle: &DesignBundle) -> PreparedDesign {
    bundle
        .prepare_with(&OptConfig::default().with_level(OptLevel::SatSweep))
        .expect("sweep prepare")
}

fn cfg(mode: UnrollMode) -> CheckConfig {
    CheckConfig { max_k: 4, unroll_mode: mode, ..Default::default() }
}

/// Sweep-on vs sweep-off verdict discipline: equal verdicts at equal
/// depths.
fn assert_same_verdict(base: &ProveResult, swept: &ProveResult, what: &str) {
    match (base, swept) {
        (ProveResult::Proven { k: kb, .. }, ProveResult::Proven { k: ko, .. })
        | (ProveResult::StepFailure { k: kb, .. }, ProveResult::StepFailure { k: ko, .. }) => {
            assert_eq!(kb, ko, "SAT-sweeping moved the induction depth on {what}");
        }
        (
            ProveResult::Falsified { at: a, trace: ta, .. },
            ProveResult::Falsified { at: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "violation cycle diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
        }
        (ProveResult::Unknown { .. }, ProveResult::Unknown { .. }) => {}
        (b, o) => panic!("verdict diverged on {what}: sweep-off {b:?} vs sweep-on {o:?}"),
    }
}

fn full_corpus() -> Vec<DesignBundle> {
    genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs()).collect()
}

/// Induction proofs across the whole corpus (datapath included), in both
/// unroll modes: the swept netlist must prove exactly what the unswept
/// one proves, at the same depth, with identical counterexamples.
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
                assert_same_verdict(&b, &o, &format!("{}::{} ({mode:?})", bundle.name, bt.name));
            }
        }
    }
}

/// BMC is pure reachable-trace semantics, and combinational merges hold
/// on every constraint-satisfying frame: clean depths and falsification
/// cycles must be *equal*.
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
/// deterministic cycle of a real falsification must be equal. Step
/// counterexample values are solver-chosen and feed the repair prompt,
/// so lemma texts and proof depths may differ after the LLM is asked.
fn outcome_ok(base: &TargetOutcome, swept: &TargetOutcome, what: &str) {
    match (base, swept) {
        (TargetOutcome::Proven { .. }, TargetOutcome::Proven { .. })
        | (TargetOutcome::StillUnproven { .. }, TargetOutcome::StillUnproven { .. })
        | (TargetOutcome::Unknown { .. }, TargetOutcome::Unknown { .. }) => {}
        (TargetOutcome::Falsified { at: a }, TargetOutcome::Falsified { at: b }) => {
            assert_eq!(a, b, "falsification cycle diverged on {what}");
        }
        (b, o) => panic!("flow outcome diverged on {what}: sweep-off {b:?} vs sweep-on {o:?}"),
    }
}

/// `run_baseline` end to end over the full corpus, with the sweep's
/// counters surfacing through the flow report.
#[test]
fn baseline_flow_verdicts_never_regress_with_sweep() {
    for bundle in full_corpus() {
        let flow_cfg = FlowConfig::default();
        let base = run_baseline(&full_prep(&bundle), &flow_cfg);
        let swept = run_baseline(&sweep_prep(&bundle), &flow_cfg);
        assert_eq!(base.targets.len(), swept.targets.len());
        assert!(swept.opt.rounds >= 1, "{}: swept report carries opt stats", bundle.name);
        // The sweep counters ride the same OptStats plumbing. At `Full`
        // only register correspondence fills them, and on this corpus
        // every register merge is structural: one proved pair per merged
        // register, and no miter refuted anything or spent a conflict.
        // A combinational-sweep query would break one of the three.
        let o = &base.opt;
        assert_eq!(
            (o.pairs_refuted, o.sweep_conflicts, o.pairs_proved),
            (0, 0, o.nodes_merged),
            "{}: the Full report must record no combinational-sweep query",
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

/// The combinational stage's payoff: on the ECC designs it merges nodes
/// the `Full` pipeline keeps, and the per-frame CNF shrinks beyond `Full`
/// (hamming74 318 → 261, secded84 590 → 533, ecc_counter 317 → 256
/// clauses). On every design the sweep stays within its per-pair
/// conflict budget. The datapath designs' payoff comes from register
/// correspondence, which `Full` runs too; `opt_differential.rs` checks it.
#[test]
fn sweep_pays_off_on_ecc_designs() {
    use genfv_ir::Template;
    let clauses = |p: &PreparedDesign| {
        let roots: Vec<_> = p.targets.iter().map(|t| t.prop.ok).collect();
        Template::build_with(&p.ctx, &p.ts, &roots).num_clauses()
    };
    let budget = genfv_ir::SatSweepConfig::default().conflict_budget;
    for bundle in full_corpus() {
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
        if !["hamming74", "secded84", "ecc_counter"].contains(&bundle.name) {
            continue;
        }
        assert!(
            stats.nodes_merged > base.opt_stats.nodes_merged,
            "{}: the combinational stage must merge nodes",
            bundle.name
        );
        assert!(stats.pairs_proved > 0, "{}: merges come from proved pairs", bundle.name);
        let (cf, cs) = (clauses(&base), clauses(&swept));
        assert!(
            cs < cf,
            "{}: per-frame CNF must shrink beyond the Full pipeline ({cf} -> {cs})",
            bundle.name
        );
    }
}

/// Warm-capital isolation: the service keys its seed cache on the
/// *salted* layout fingerprint, so capital built at `OptLevel::SatSweep`
/// must never be served to a `Full` session over the same sources — even
/// for designs the sweep leaves byte-identical, where only the salt
/// separates the keys. (Where the layouts themselves diverge, register
/// merges included, `opt_differential.rs` checks `None` against `Full`.)
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
}
