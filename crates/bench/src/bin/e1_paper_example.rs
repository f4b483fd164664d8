//! **E1 — the paper's worked example** (Listings 1-3, Fig. 3).
//!
//! Mechanically reproduces the narrative: `sync_counters` passes BMC,
//! fails its induction step with a counterexample in which `count1` is
//! all-ones while `count2` has a zero bit (the paper highlights bit 31),
//! and the LLM-generated helper `count1 == count2` closes the proof.

use genfv_bench::{experiment_config, ms, outcome_cell, plain_prepare};
use genfv_core::{run_baseline, run_flow2, TargetOutcome};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{bmc, render_final_bits, render_waveform, BmcResult, Property};

fn main() {
    let bundle = genfv_designs::by_name("sync_counters").expect("corpus");
    let config = experiment_config();

    println!("E1: paper worked example — sync_counters, `&count1 |-> &count2`\n");

    // BMC is clean (the property is true): paper Section II-A context.
    let design = plain_prepare(&bundle);
    let target = &design.targets[0];
    let prop = Property::new(target.name.clone(), target.prop.ok);
    match bmc(&design.ctx, &design.ts, &prop, &[], 16, &config.check) {
        BmcResult::Clean { depth, stats } => println!(
            "BMC to depth {depth}: clean ({} conflicts, {})",
            stats.conflicts,
            ms(stats.duration)
        ),
        BmcResult::Falsified { at, .. } => panic!("property must be true, violated at {at}"),
    }

    // Plain induction: the step fails (Fig. 3).
    let baseline = run_baseline(&design, &config);
    let TargetOutcome::StillUnproven { k, trace } = &baseline.targets[0].outcome else {
        panic!("expected step failure, got {:?}", baseline.targets[0].outcome);
    };
    println!("\nPlain k-induction: step fails at k={k}. Counterexample:");
    println!("{}", render_waveform(trace));
    let last = trace.last_step().expect("non-empty trace");
    let c1 = last.get("count1").expect("count1");
    let c2 = last.get("count2").expect("count2");
    println!("final cycle: count1 = 32'h{:x}, count2 = 32'h{:x}", c1, c2);
    assert!(c1.red_and() && !c2.red_and());
    let zero_bits: Vec<u32> = (0..32).filter(|&i| !c2.bit(i)).collect();
    println!(
        "count2 has zero bit(s) {:?} — the paper's Fig. 3 shows exactly this shape\n",
        &zero_bits[..zero_bits.len().min(8)]
    );
    if let Some(bits) = render_final_bits(trace, "count2") {
        println!("{bits}");
    }

    // Flow 2 closes it with the Listing-3 helper.
    let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
    let report = run_flow2(plain_prepare(&bundle), &mut llm, &config);
    println!("\nFlow 2 with {}:", report.model);
    println!("{}", genfv_core::render_events(&report));
    for lemma in &report.lemmas {
        println!("accepted lemma: {}", lemma.text);
    }
    println!("\noutcome: {}", outcome_cell(&report.targets[0].outcome));
    assert!(report.all_proven());
    assert!(
        report.lemmas.iter().any(|l| l.text.contains("count1") && l.text.contains("count2")),
        "the Listing-3 helper must be among the lemmas"
    );
    println!("\nE1 PASSED: the paper's example reproduces end to end.");
}
