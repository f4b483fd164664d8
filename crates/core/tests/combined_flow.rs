//! Tests for the combined flow (paper Section V: "We utilized both flows
//! to generate general helper assertions as well as for induction step
//! failure").

use genfv_core::{run_combined, FlowConfig, OptConfig, OptLevel, PreparedDesign, TargetOutcome};
use genfv_genai::{ModelProfile, SyntheticLlm};

const SYNC: &str = r#"
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

/// The lockstep counters under the paper's plain k-induction
/// (`OptLevel::None`), where the target needs a lemma: at the default
/// prepare register correspondence proves it at k=1, and the combined
/// flow settles it without consulting the model.
fn design() -> PreparedDesign {
    PreparedDesign::with_opt(
        "sync_counters",
        SYNC,
        "Two synchronized counters in lockstep, always equal.",
        &[("equal_count".to_string(), "&count1 |-> &count2".to_string())],
        &OptConfig::default().with_level(OptLevel::None),
    )
    .unwrap()
}

#[test]
fn combined_closes_with_single_upfront_prompt() {
    // With a strong model, Flow-1 lemmas already suffice: the Flow-2 phase
    // finds nothing left to repair, so exactly one LLM call happens.
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
    let report = run_combined(design(), &mut llm, &FlowConfig::default());
    assert!(report.all_proven(), "{}", genfv_core::render_events(&report));
    assert_eq!(report.metrics.llm_calls, 1, "flow-1 lemmas sufficed");
    assert_eq!(report.metrics.iterations, 0, "no repair needed");
    assert!(report.metrics.lemmas_accepted >= 1);
}

#[test]
fn combined_falls_back_to_repair_loop() {
    // A mute flow-1 phase (empty completions early on) forces the repair
    // loop to do the work; emulate with a weak profile whose first
    // completion may be junk — use several seeds and require that the
    // *structure* holds: llm_calls >= 1 and either proven or the junk was
    // all rejected.
    for seed in [1u64, 2, 3] {
        let mut llm = SyntheticLlm::new(ModelProfile::GeminiPro, seed);
        let report = run_combined(design(), &mut llm, &FlowConfig::default());
        assert!(report.metrics.llm_calls >= 1);
        if !report.all_proven() {
            // Soundness: whatever was accepted must be consistent — the
            // target staying open is allowed for a weak model.
            assert!(matches!(report.targets[0].outcome, TargetOutcome::StillUnproven { .. }));
        }
    }
}
