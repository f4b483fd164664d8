//! Soundness torture test: a hostile "LLM" that only ever emits false,
//! phantom, subtly-corrupted, or syntactically broken assertions. No
//! matter what it says, the flows must never install a false lemma and
//! must never flip a verdict.
//!
//! This is the mechanised version of the paper's Section-VI warning about
//! hallucinations: the validation layer, not human review, is the safety
//! boundary here.

use genfv::genai::{Completion, LanguageModel, Prompt};
use genfv::prelude::*;
use std::time::Duration;

/// A model that returns handcrafted poison regardless of the prompt.
struct AdversarialModel {
    round: usize,
}

impl LanguageModel for AdversarialModel {
    fn name(&self) -> &str {
        "adversary"
    }

    fn complete(&mut self, _prompt: &Prompt) -> Completion {
        self.round += 1;
        // A rotating arsenal of bad ideas:
        let text = match self.round % 4 {
            0 => {
                // False invariants (violated from reset or shortly after).
                "property p1; count1 != count2; endproperty\n\
                 property p2; count1 < 8'd3; endproperty\n"
            }
            1 => {
                // Phantom signals and width abuse (a literal no value can
                // have never parses: the lexer rejects size 0; a
                // concatenation wider than any value and a select past
                // 32 bits, which must not wrap to bit 0, are compile
                // errors).
                "property p3; count1 == shadow_reg; endproperty\n\
                 property p4; not_a_signal[99] == 1'b1; endproperty\n\
                 property p4z; count1 == 0'b1; endproperty\n\
                 property p4w; {1048576'd0, 1'b0} == count1; endproperty\n\
                 property p4i; count1[4294967296] == count2[4294967296]; endproperty\n"
            }
            2 => {
                // Syntactic garbage.
                "property p5; count1 === === count2; endproperty\n\
                 property p6; ((count1 endproperty\n"
            }
            _ => {
                // Subtle: true-looking but wrong by one, plus a vacuous
                // tautology (harmless but useless: it may prove!).
                "property p7; count1 + 8'd1 == count2; endproperty\n\
                 property p8; count1 == count1; endproperty\n"
            }
        };
        Completion {
            text: text.to_string(),
            prompt_tokens: 100,
            completion_tokens: 50,
            latency: Duration::from_millis(10),
        }
    }
}

const SYNC8: &str = r#"
module sync8 (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
"#;

/// The lockstep counters under the paper's plain k-induction
/// (`OptLevel::None`): at the default prepare, register correspondence
/// merges them and the target proves with no lemma at all.
fn design() -> PreparedDesign {
    PreparedDesign::with_opt(
        "sync8",
        SYNC8,
        "two lockstep counters",
        &[("equal".to_string(), "&count1 |-> &count2".to_string())],
        &OptConfig::default().with_level(OptLevel::None),
    )
    .unwrap()
}

#[test]
fn adversary_cannot_install_false_lemmas() {
    let mut adversary = AdversarialModel { round: 0 };
    let config = FlowConfig { max_iterations: 8, ..Default::default() };
    let report = genfv::core::run_flow2(design(), &mut adversary, &config);

    // The target cannot close (the adversary never helps), but soundness
    // demands that every installed lemma is a true invariant. p8
    // (`count1 == count1`) is a tautology and may legitimately land.
    for lemma in &report.lemmas {
        let d = design();
        let assertion = parse_assertion(&lemma.text).expect("lemma text parses");
        let cand = genfv::core::Candidate {
            name: lemma.name.clone(),
            text: lemma.text.clone(),
            assertion,
        };
        let out = genfv::core::validate_candidate(&d, &[], &cand, &Default::default());
        assert!(
            matches!(out, genfv::core::ValidationOutcome::ProvenInductive { .. }),
            "adversarial lemma `{}` validated as {out:?}",
            lemma.text
        );
    }

    // The verdict must be "still unproven", not proven and not falsified
    // (the property is true!).
    match &report.targets[0].outcome {
        TargetOutcome::StillUnproven { .. } => {}
        TargetOutcome::Proven { lemmas_used, .. } => {
            // Only possible if a *true* lemma (the tautology cannot do it)
            // somehow closed the proof — that would be a soundness-
            // preserving surprise, but with this adversary it cannot
            // happen.
            panic!("adversary cannot produce the needed lemma (lemmas={lemmas_used})");
        }
        other => panic!("unexpected outcome {other:?}"),
    }

    // The junk was counted, not silently dropped.
    let m = &report.metrics;
    assert!(m.rejected_compile > 0, "phantom signals must be rejected: {m:?}");
    assert!(
        report.events.iter().any(|e| e.contains("p4w: compile rejected")),
        "an over-wide concatenation is a compile rejection: {:#?}",
        report.events
    );
    assert!(
        report.events.iter().any(|e| e.contains("p4i: compile rejected")),
        "a select past 32 bits is a compile rejection, not bit 0: {:#?}",
        report.events
    );
    assert!(m.rejected_false > 0, "false invariants must be disproven: {m:?}");
    assert!(m.candidates_unparseable > 0, "syntax errors must be counted: {m:?}");
}

#[test]
fn adversary_cannot_mask_a_real_bug() {
    // On a genuinely buggy design the flow must report the bug even though
    // the adversary spams it with distractions.
    let buggy = r#"
module buggy (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1 <= count1 + 8'd1;
      count2 <= count2 + 8'd3;
    end
  end
endmodule
"#;
    let design = PreparedDesign::new(
        "buggy",
        buggy,
        "counters that should match",
        &[("equal".to_string(), "count1 == count2".to_string())],
    )
    .unwrap();
    let mut adversary = AdversarialModel { round: 0 };
    let report = genfv::core::run_flow2(design, &mut adversary, &FlowConfig::default());
    assert!(
        matches!(report.targets[0].outcome, TargetOutcome::Falsified { .. }),
        "bug must surface: {:?}",
        report.targets[0].outcome
    );
    assert_eq!(report.metrics.llm_calls, 0, "bugs are found before any LLM call");
}

#[test]
fn silent_model_terminates_cleanly() {
    // A model that returns empty text: the flow must exhaust its
    // iterations and stop, not spin.
    struct Mute;
    impl LanguageModel for Mute {
        fn name(&self) -> &str {
            "mute"
        }
        fn complete(&mut self, _prompt: &Prompt) -> Completion {
            Completion {
                text: String::new(),
                prompt_tokens: 10,
                completion_tokens: 0,
                latency: Duration::ZERO,
            }
        }
    }
    let config = FlowConfig { max_iterations: 3, ..Default::default() };
    let report = genfv::core::run_flow2(design(), &mut Mute, &config);
    assert!(matches!(report.targets[0].outcome, TargetOutcome::StillUnproven { .. }));
    assert_eq!(report.metrics.llm_calls, 3, "one call per iteration, then stop");
    assert_eq!(report.metrics.lemmas_accepted, 0);
}
