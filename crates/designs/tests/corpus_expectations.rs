//! Corpus self-tests: every shipped design must parse, elaborate,
//! simulate sanely, and behave under plain k-induction exactly as its
//! declared [`Expectation`] says. The lemma-hungry designs must then be
//! repairable by Flow 2 with the strongest model profile — this is the
//! repo's executable statement of the paper's Section-V claim.
//!
//! Plain k-induction is the paper's baseline, `OptLevel::None`. The
//! default prepare adds register correspondence, which already closes
//! the lockstep designs; `default_prepare_closes_exactly_the_lockstep_designs`
//! pins which ones, so the LLM's share is measured beyond it.

use genfv_core::{run_baseline, run_flow2, FlowConfig, OptConfig, OptLevel, TargetOutcome};
use genfv_designs::{all_designs, by_name, lemma_hungry_designs, DesignBundle, Expectation};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::CheckConfig;

/// The paper's plain k-induction: the design exactly as elaborated.
fn plain(d: &DesignBundle) -> genfv_core::PreparedDesign {
    d.prepare_with(&OptConfig::default().with_level(OptLevel::None)).unwrap()
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        check: CheckConfig { max_k: 3, ..Default::default() },
        max_iterations: 4,
        ..Default::default()
    }
}

#[test]
fn corpus_is_well_formed() {
    let corpus = all_designs();
    assert!(corpus.len() >= 12, "corpus size: {}", corpus.len());
    let mut names: Vec<&str> = corpus.iter().map(|d| d.name).collect();
    names.sort_unstable();
    let mut dedup = names.clone();
    dedup.dedup();
    assert_eq!(names, dedup, "names must be unique");
    for d in &corpus {
        assert!(!d.targets.is_empty(), "{}: no targets", d.name);
        assert!(!d.spec.is_empty(), "{}: no spec", d.name);
        let prepared = d.prepare().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        assert!(!prepared.ts.states().is_empty(), "{}: no state registers", d.name);
    }
}

#[test]
fn lookup_by_name() {
    assert!(by_name("sync_counters").is_some());
    assert!(by_name("hamming74").is_some());
    assert!(by_name("mul_distrib").is_some(), "datapath designs resolve by name");
    assert!(by_name("nonexistent").is_none());
}

/// The datapath bundles live outside the flow corpus (see
/// `genfv_designs::datapath_designs`) but carry the same contract:
/// well-formed, and provable unaided exactly as declared.
#[test]
fn datapath_expectations_hold() {
    for d in genfv_designs::datapath_designs() {
        assert_eq!(d.expectation, Expectation::ProvesUnaided, "{}", d.name);
        let prepared = d.prepare().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let report = run_baseline(&prepared, &flow_config());
        assert!(
            report.all_proven(),
            "{} should prove unaided:\n{}",
            d.name,
            genfv_core::summarize_targets(&report)
        );
    }
}

#[test]
fn expectations_hold_under_plain_induction() {
    for d in all_designs() {
        let prepared = plain(&d);
        let report = run_baseline(&prepared, &flow_config());
        match d.expectation {
            Expectation::ProvesUnaided => {
                assert!(
                    report.all_proven(),
                    "{} should prove unaided:\n{}",
                    d.name,
                    genfv_core::summarize_targets(&report)
                );
            }
            Expectation::NeedsLemmas => {
                assert!(
                    report
                        .targets
                        .iter()
                        .any(|t| matches!(t.outcome, TargetOutcome::StillUnproven { .. })),
                    "{} should have a step failure:\n{}",
                    d.name,
                    genfv_core::summarize_targets(&report)
                );
                // And no target may be actually false.
                assert!(
                    !report
                        .targets
                        .iter()
                        .any(|t| matches!(t.outcome, TargetOutcome::Falsified { .. })),
                    "{}: target falsified, expectation wrong",
                    d.name
                );
            }
            Expectation::HasRealBug => {
                assert!(
                    report
                        .targets
                        .iter()
                        .any(|t| matches!(t.outcome, TargetOutcome::Falsified { .. })),
                    "{} should be falsified:\n{}",
                    d.name,
                    genfv_core::summarize_targets(&report)
                );
            }
        }
    }
}

#[test]
fn flow2_with_strong_model_repairs_every_lemma_hungry_design() {
    for d in lemma_hungry_designs() {
        let prepared = plain(&d);
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 0xFEED);
        let report = run_flow2(prepared, &mut llm, &flow_config());
        assert!(
            report.all_proven(),
            "{}: flow2 with gpt-4-turbo must close all targets\n{}\nevents:\n{}",
            d.name,
            genfv_core::summarize_targets(&report),
            genfv_core::render_events(&report)
        );
        assert!(report.metrics.lemmas_accepted >= 1, "{}: no lemmas used?", d.name);
    }
}

/// The default prepare runs register correspondence. Of the
/// `NeedsLemmas` designs it closes exactly the three whose registers step
/// in lockstep: they prove at k=1 unaided with one state left. The other
/// five still fail the step and still need the LLM.
#[test]
fn default_prepare_closes_exactly_the_lockstep_designs() {
    const LOCKSTEP: [&str; 3] = ["sync_counters", "sync_counters_16", "twin_shift"];
    let needs_lemmas: Vec<DesignBundle> =
        all_designs().into_iter().filter(|d| d.expectation == Expectation::NeedsLemmas).collect();
    assert_eq!(needs_lemmas.len(), 8);
    for d in needs_lemmas {
        let prepared = d.prepare().unwrap();
        let report = run_baseline(&prepared, &flow_config());
        let summary = genfv_core::summarize_targets(&report);
        if LOCKSTEP.contains(&d.name) {
            assert_eq!(prepared.ts.states().len(), 1, "{}: registers merge", d.name);
            for t in &report.targets {
                assert!(
                    matches!(t.outcome, TargetOutcome::Proven { k: 1, lemmas_used: 0 }),
                    "{} should prove at k=1 unaided:\n{summary}",
                    d.name
                );
            }
        } else {
            assert!(
                report
                    .targets
                    .iter()
                    .any(|t| matches!(t.outcome, TargetOutcome::StillUnproven { .. })),
                "{} should still have a step failure:\n{summary}",
                d.name
            );
        }
    }
}

/// Each lemma is installed once. Under the Llama-class profile, seed 0,
/// Flow 2's repair rounds on `fifo_counters` keep proposing
/// `count <= 8'd16`, which validates every time; it used to be installed
/// three times. The repeats are logged and left out, and the run makes
/// the same LLM calls and repair iterations as before.
#[test]
fn flow2_installs_a_repeated_lemma_once() {
    let design = by_name("fifo_counters").unwrap().prepare().unwrap();
    let mut llm = SyntheticLlm::new(ModelProfile::LlamaThree, 0);
    let report = run_flow2(design, &mut llm, &FlowConfig::default());
    let texts: Vec<&str> = report.lemmas.iter().map(|l| l.text.as_str()).collect();
    assert_eq!(texts, ["(count <= 8'd16)"], "{:#?}", report.events);
    assert_eq!(report.metrics.lemmas_accepted, 1);
    assert_eq!((report.metrics.llm_calls, report.metrics.iterations), (4, 4));
    let skipped = report.events.iter().filter(|e| e.contains("already installed")).count();
    assert_eq!(skipped, 2, "{:#?}", report.events);
}
