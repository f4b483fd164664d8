//! ECC verification scenario (the paper's second design family).
//!
//! Exercises both flows on the ECC corpus: Flow 1 generates lemmas from
//! spec + RTL upfront; Flow 2 reacts to induction failures. Both consult
//! the model only where the proof needs it: the three pipelines prove
//! unaided, so their flows print no lemma and make no LLM call. The
//! recirculating `ecc_counter` mirrors the paper's counters example in the
//! ECC domain: its lockstep property fails induction at every depth until
//! the redundancy lemma `dec_out == count` is proven and assumed.
//!
//! Run with: `cargo run --example ecc_verification`

use genfv::prelude::*;

fn main() -> Result<(), Error> {
    for name in ["parity_pipe", "hamming74", "secded84", "ecc_counter"] {
        let bundle = genfv::designs::by_name(name).expect("corpus design");
        println!("────────────────────────────────────────────────────────");
        println!("design: {name}\nspec  : {}", bundle.spec);

        // Baseline: where does plain induction land?
        let baseline = run_baseline(&bundle.prepare()?, &FlowConfig::default());
        println!("\nplain k-induction:");
        print!("{}", genfv::core::summarize_targets(&baseline));

        // Flow 1: upfront lemma generation from spec + RTL.
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 7);
        let flow1 = run_flow1(bundle.prepare()?, &mut llm, &FlowConfig::default());
        println!("\nflow 1 (spec+RTL lemmas):");
        print!("{}", genfv::core::summarize_targets(&flow1));
        for lemma in &flow1.lemmas {
            println!("  lemma: {}", lemma.text);
        }

        // Flow 2: CEX-driven repair (only consulted on step failures).
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 7);
        let flow2 = run_flow2(bundle.prepare()?, &mut llm, &FlowConfig::default());
        println!("\nflow 2 (CEX-driven repair):");
        print!("{}", genfv::core::summarize_targets(&flow2));
        println!(
            "  llm calls: {}, lemmas accepted: {}, rejected (compile/false/non-inductive): {}/{}/{}",
            flow2.metrics.llm_calls,
            flow2.metrics.lemmas_accepted,
            flow2.metrics.rejected_compile,
            flow2.metrics.rejected_false,
            flow2.metrics.rejected_not_inductive,
        );
        assert!(flow2.all_proven(), "{name}: flow 2 must close all ECC targets");
        println!();
    }
    println!("All ECC designs verified.");
    Ok(())
}
