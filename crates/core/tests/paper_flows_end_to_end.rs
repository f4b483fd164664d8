//! End-to-end tests of the paper's flows with the synthetic LLM in the
//! loop: prompt rendering, completion parsing, candidate validation, lemma
//! installation, and target proofs.

use genfv_core::{
    run_baseline, run_flow1, run_flow2, FlowConfig, OptConfig, OptLevel, PreparedDesign,
    TargetOutcome,
};
use genfv_genai::{ModelProfile, SyntheticLlm};

const SYNC_COUNTERS: &str = r#"
module sync_counters (input clk, rst, output logic [15:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 16'b0;
      count2 <= 16'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
"#;

const SPEC: &str = "Two synchronized counters increment in lockstep from reset; \
their values are always equal, so whenever count1 is all ones count2 must be too.";

fn paper_design() -> PreparedDesign {
    paper_design_at(OptLevel::Full)
}

/// The paper's plain k-induction runs at `OptLevel::None`: the default
/// prepare merges the lockstep counters by register correspondence, and
/// the target proves at k=1 with no lemma.
fn paper_design_at(level: OptLevel) -> PreparedDesign {
    PreparedDesign::with_opt(
        "sync_counters",
        SYNC_COUNTERS,
        SPEC,
        &[("equal_count".to_string(), "&count1 |-> &count2".to_string())],
        &OptConfig::default().with_level(level),
    )
    .unwrap()
}

#[test]
fn baseline_cannot_prove_the_paper_property() {
    let report = run_baseline(&paper_design_at(OptLevel::None), &FlowConfig::default());
    assert!(!report.all_proven());
    match &report.targets[0].outcome {
        TargetOutcome::StillUnproven { k, trace } => {
            assert!(*k >= 1);
            let last = trace.last_step().unwrap();
            assert!(last.get("count1").unwrap().red_and());
            assert!(!last.get("count2").unwrap().red_and());
        }
        other => panic!("expected StillUnproven, got {other:?}"),
    }
}

#[test]
fn flow2_repairs_the_paper_property_with_gpt_profile() {
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
    let report = run_flow2(paper_design_at(OptLevel::None), &mut llm, &FlowConfig::default());
    assert!(report.all_proven(), "events:\n{}", genfv_core::render_events(&report));
    // The lockstep lemma must be among the accepted ones.
    assert!(
        report.lemmas.iter().any(|l| l.name.contains("eq")),
        "lemmas: {:?}",
        report.lemmas.iter().map(|l| &l.name).collect::<Vec<_>>()
    );
    assert!(report.metrics.llm_calls >= 1);
    assert!(report.metrics.lemmas_accepted >= 1);
    match &report.targets[0].outcome {
        TargetOutcome::Proven { k, lemmas_used } => {
            assert_eq!(*k, 1, "with the helper the proof closes at k=1");
            assert!(*lemmas_used >= 1);
        }
        other => panic!("{other:?}"),
    }
}

/// Under plain k-induction the target needs a lemma, so Flow 1 consults
/// the model; at the default prepare it would settle unaided.
#[test]
fn flow1_generates_upfront_lemmas() {
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourO, 7);
    let report = run_flow1(paper_design_at(OptLevel::None), &mut llm, &FlowConfig::default());
    assert!(report.all_proven(), "events:\n{}", genfv_core::render_events(&report));
    assert_eq!(report.metrics.llm_calls, 1, "flow 1 prompts once");
    assert!(report.metrics.lemmas_accepted >= 1);
}

#[test]
fn flow2_survives_weak_model_with_retries() {
    // The Llama profile hallucinates often; the flow must reject junk and
    // (typically) still converge within the iteration budget thanks to
    // re-prompting. With a fixed seed this is deterministic.
    let mut llm = SyntheticLlm::new(ModelProfile::LlamaThree, 3);
    let config = FlowConfig { max_iterations: 6, ..Default::default() };
    let report = run_flow2(paper_design(), &mut llm, &config);
    // Junk must have been filtered — soundness is unconditional.
    let m = &report.metrics;
    assert!(
        m.rejected_compile + m.rejected_false + m.rejected_not_inductive > 0
            || m.candidates_unparseable > 0
            || report.all_proven(),
        "weak model should produce some rejects: {m:?}"
    );
    // Whether or not it converged, no false lemma may be installed:
    // re-validate every accepted lemma independently.
    for lemma in &report.lemmas {
        let d = paper_design();
        let cand = genfv_core::Candidate {
            name: lemma.name.clone(),
            text: lemma.text.clone(),
            assertion: genfv_sva::parse_assertion(&lemma.text).unwrap_or_else(|_| {
                panic!("installed lemma must have parseable text: {}", lemma.text)
            }),
        };
        let out = genfv_core::validate_candidate(&d, &[], &cand, &Default::default());
        assert!(
            matches!(
                out,
                genfv_core::ValidationOutcome::ProvenInductive { .. }
                    | genfv_core::ValidationOutcome::NotInductiveAlone
            ),
            "lemma `{}` must not be false: {out:?}",
            lemma.text
        );
    }
}

#[test]
fn flow2_detects_real_bugs_instead_of_looping() {
    let buggy = r#"
module desync (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1 <= count1 + 8'd1;
      count2 <= count2 + 8'd2;
    end
  end
endmodule
"#;
    let design = PreparedDesign::new(
        "desync",
        buggy,
        "two counters that should match (but do not)",
        &[("lockstep".to_string(), "count1 == count2".to_string())],
    )
    .unwrap();
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 1);
    let report = run_flow2(design, &mut llm, &FlowConfig::default());
    match &report.targets[0].outcome {
        TargetOutcome::Falsified { at } => assert!(*at >= 1),
        other => panic!("expected Falsified, got {other:?}"),
    }
    assert_eq!(report.metrics.llm_calls, 0, "real bugs never reach the LLM");
}

#[test]
fn flow_reports_render() {
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
    let report = run_flow2(paper_design(), &mut llm, &FlowConfig::default());
    let rendered = genfv_core::render_report(&report);
    assert!(rendered.contains("sync_counters"));
    assert!(rendered.contains("gpt-4-turbo"));
    assert!(rendered.contains("PROVEN"));
    let events = genfv_core::render_events(&report);
    assert!(events.contains("[flow2]"));
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut llm = SyntheticLlm::new(ModelProfile::GeminiPro, 11);
        let r = run_flow2(paper_design(), &mut llm, &FlowConfig::default());
        (r.all_proven(), r.metrics.llm_calls, r.metrics.lemmas_accepted, r.events.len())
    };
    assert_eq!(run(), run());
}
