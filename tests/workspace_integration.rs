//! Cross-crate integration tests through the `genfv` facade: the full
//! pipeline RTL text → parse → elaborate → property compile → bit-blast →
//! SAT → k-induction → CEX → prompt → synthetic LLM → candidate validation
//! → lemma → proof, exercised exactly as a downstream user would.

use genfv::genai::{LanguageModel, Prompt};
use genfv::prelude::*;

#[test]
fn paper_pipeline_through_facade() {
    let bundle = genfv::designs::by_name("sync_counters").unwrap();
    // The paper's plain k-induction: at the default prepare, register
    // correspondence merges the lockstep counters and the target proves.
    let plain = OptConfig::default().with_level(OptLevel::None);
    let design = bundle.prepare_with(&plain).unwrap();

    // Baseline fails exactly like the paper says.
    let baseline = run_baseline(&design, &FlowConfig::default());
    assert!(!baseline.all_proven());

    // Flow 2 closes it.
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 2024);
    let report = run_flow2(bundle.prepare_with(&plain).unwrap(), &mut llm, &FlowConfig::default());
    assert!(report.all_proven());
    assert!(report.lemmas.iter().any(|l| l.text.contains("count1") && l.text.contains("count2")));
}

#[test]
fn whole_corpus_prepares_and_simulates() {
    for bundle in genfv::designs::all_designs() {
        let design = bundle.prepare().unwrap_or_else(|e| panic!("{}: {e}", bundle.name));
        // Ten cycles of reset-released simulation must satisfy every
        // target monitor (reachable behaviour is correct by construction
        // for all corpus designs except the seeded bug, whose violation
        // needs count1 to diverge — visible within ten cycles).
        let mut sim = Simulator::new(&design.ctx, &design.ts);
        sim.reset();
        for input in design.ts.inputs() {
            let w = design.ctx.width_of(*input);
            sim.set(*input, BitVecValue::zero(w));
        }
        let mut violated = false;
        for _ in 0..10 {
            for t in &design.targets {
                if !sim.peek(t.prop.ok).to_bool() {
                    violated = true;
                }
            }
            sim.step();
        }
        let has_bug = bundle.name == "desync_counters";
        assert_eq!(violated, has_bug, "{}: simulation-vs-expectation mismatch", bundle.name);
    }
}

#[test]
fn manual_pipeline_without_flows() {
    // A user wiring the pieces manually: parse RTL, compile an assertion,
    // prove it, ask the model for help, validate by hand.
    let rtl = r#"
module two_regs (input clk, rst, input [7:0] d, output logic [7:0] a, b);
  always_ff @(posedge clk) begin
    if (rst) begin a <= '0; b <= '0; end
    else begin a <= d; b <= d; end
  end
endmodule
"#;
    let module = genfv::hdl::parse_source(rtl).unwrap().remove(0);
    let mut ctx = Context::new();
    let mut ts = genfv::hdl::elaborate(&mut ctx, &module).unwrap();
    let assertion = parse_assertion("a == b").unwrap();
    let prop = PropertyCompiler::new(&mut ctx, &mut ts).compile(&assertion).unwrap();
    let prover = KInduction::new(&ctx, &ts, CheckConfig::default());
    let res = prover.prove(&Property::new("same", prop.ok), &[]);
    assert!(res.is_proven());

    // Prompt the model directly.
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourO, 5);
    let completion = llm.complete(&Prompt::flow1("two identical registers", rtl, &[]));
    assert!(!parse_assertions(&completion.text).is_empty());
}

#[test]
fn sat_layer_reachable_through_facade() {
    use genfv::sat::{Lit, Solver};
    let mut s = Solver::new();
    let a = Lit::pos(s.new_var());
    let b = Lit::pos(s.new_var());
    s.add_clause([a, b]);
    s.add_clause([!a]);
    assert!(s.solve().is_sat());
    assert_eq!(s.value(b), Some(true));
}

#[test]
fn waveform_and_vcd_from_real_cex() {
    let bundle = genfv::designs::by_name("modn_counter").unwrap();
    let design = bundle.prepare().unwrap();
    // At k <= 3 the target still fails its step (it self-proves at k=6;
    // the lemma brings it to k=1 — see experiment E7).
    let config = CheckConfig { max_k: 3, ..Default::default() };
    let prover = KInduction::new(&design.ctx, &design.ts, config);
    let res = prover.prove(&design.targets[0].prop, &[]);
    let ProveResult::StepFailure { trace, .. } = res else {
        panic!("modn needs lemmas at small k: {res:?}");
    };
    let wave = render_waveform(&trace);
    assert!(wave.contains("cnt"));
    let vcd = genfv::mc::to_vcd(&trace);
    assert!(vcd.contains("$enddefinitions"));
}

#[test]
fn combined_flow_closes_everything_flow2_can() {
    // The paper used both flows together ("We utilized both flows"); the
    // combined runner must close every lemma-hungry corpus design.
    for bundle in genfv::designs::lemma_hungry_designs() {
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 77);
        let report =
            genfv::core::run_combined(bundle.prepare().unwrap(), &mut llm, &FlowConfig::default());
        assert!(
            report.all_proven(),
            "{}: combined flow must close\n{}",
            bundle.name,
            genfv::core::render_events(&report)
        );
    }
}
