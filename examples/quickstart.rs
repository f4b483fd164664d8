//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces Listings 1-3 and Fig. 3 of the paper: the synchronized
//! 32-bit counters, the `&count1 |-> &count2` property that survives BMC
//! but fails its induction step (with a counterexample in which bit 31 of
//! `count2` is low), and the LLM-generated helper `count1 == count2` that
//! closes the proof.
//!
//! Run with: `cargo run --example quickstart`

use genfv::prelude::*;

fn main() -> Result<(), Error> {
    // The paper's Listing 1, from the shipped corpus.
    let bundle = genfv::designs::by_name("sync_counters").expect("corpus design");
    println!("=== RTL (paper Listing 1) ===\n{}", bundle.rtl.trim());
    println!("\n=== Target property (paper Listing 2) ===");
    for (name, sva) in &bundle.targets {
        println!("  {name}: {sva}");
    }

    // Step 1: plain k-induction fails its inductive step (paper Fig. 3).
    // `OptLevel::None` is the paper's baseline: the default prepare would
    // merge the lockstep counters by register correspondence, and the
    // target would prove without any help.
    let plain = OptConfig::default().with_level(OptLevel::None);
    let design = bundle.prepare_with(&plain)?;
    let baseline = run_baseline(&design, &FlowConfig::default());
    println!("\n=== Plain k-induction (no GenAI) ===");
    print!("{}", genfv::core::summarize_targets(&baseline));
    if let TargetOutcome::StillUnproven { k, trace } = &baseline.targets[0].outcome {
        println!("\nInduction step failed at k={k}; counterexample waveform:\n");
        println!("{}", render_waveform(trace));
        if let Some(bits) = render_final_bits(trace, "count2") {
            println!("{bits}   <-- the paper's Fig. 3 observation");
        }
    }

    // Step 2: Flow 2 — the CEX and the RTL go to the (synthetic) LLM,
    // which produces helper assertions; validated lemmas close the proof.
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
    let report = run_flow2(bundle.prepare_with(&plain)?, &mut llm, &FlowConfig::default());
    println!("\n=== Flow 2: GenAI-augmented induction ===");
    println!("{}", genfv::core::render_events(&report));
    println!("{}", genfv::core::render_report(&report));

    assert!(report.all_proven(), "the paper's example must close");
    println!("The generated helper (paper Listing 3) closed the proof.");
    Ok(())
}
