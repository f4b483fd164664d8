//! **E7 — induction-depth sweep** (paper Section II-A mechanics): for each
//! design, the minimum k at which plain k-induction closes each target,
//! versus the depth needed once the GenAI lemmas are assumed.
//!
//! This exhibits the mechanism the whole paper rests on: a stronger
//! invariant (the helper) turns a deep — or impossible — induction into a
//! k=1 proof.

use genfv_bench::{experiment_config, ms, plain_prepare};
use genfv_core::{run_flow2, Table};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_ir::ExprRef;
use genfv_mc::{CheckConfig, KInduction, Property, ProveResult};

const MAX_K: usize = 10;

/// Minimum k at which the target proves, or `None` within the sweep bound.
fn min_k(
    design: &genfv_core::PreparedDesign,
    target_idx: usize,
    lemmas: &[ExprRef],
) -> (Option<usize>, std::time::Duration) {
    let target = &design.targets[target_idx];
    let prop = Property::new(target.name.clone(), target.prop.ok);
    let config = CheckConfig { max_k: MAX_K, ..Default::default() };
    let prover = KInduction::new(&design.ctx, &design.ts, config);
    let t0 = std::time::Instant::now();
    let res = prover.prove(&prop, lemmas);
    let elapsed = t0.elapsed();
    match res {
        ProveResult::Proven { k, .. } => (Some(k), elapsed),
        _ => (None, elapsed),
    }
}

fn main() {
    println!("E7: induction-depth sweep, plain vs with GenAI lemmas (bound k ≤ {MAX_K})\n");
    let mut table = Table::new([
        "design",
        "target",
        "min k (plain)",
        "time (plain)",
        "min k (lemmas)",
        "time (lemmas)",
        "lemmas",
    ]);

    for bundle in genfv_designs::all_designs() {
        if bundle.name == "desync_counters" {
            continue;
        }
        // Generate lemmas once per design via Flow 2.
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 9009);
        let flow2 = run_flow2(plain_prepare(&bundle), &mut llm, &experiment_config());

        // Re-install the lemma texts on a fresh design.
        let mut design = plain_prepare(&bundle);
        let lemma_exprs: Vec<ExprRef> = flow2
            .lemmas
            .iter()
            .map(|l| {
                let a = genfv_sva::parse_assertion(&l.text).expect("lemma parses");
                genfv_sva::PropertyCompiler::new(&mut design.ctx, &mut design.ts)
                    .compile(&a)
                    .expect("lemma compiles")
                    .ok
            })
            .collect();

        for idx in 0..design.targets.len() {
            let (plain_k, plain_t) = min_k(&design, idx, &[]);
            let (lemma_k, lemma_t) = min_k(&design, idx, &lemma_exprs);
            let fmt_k =
                |k: Option<usize>| k.map(|k| k.to_string()).unwrap_or_else(|| format!(">{MAX_K}"));
            table.row([
                bundle.name.to_string(),
                design.targets[idx].name.clone(),
                fmt_k(plain_k),
                ms(plain_t),
                fmt_k(lemma_k),
                ms(lemma_t),
                lemma_exprs.len().to_string(),
            ]);
        }
    }

    println!("{}", table.render());
    println!(
        "Expected shape: lemma-assisted induction closes at k=1 everywhere; plain\n\
         induction needs k=2 for feed-forward pipelines, k≈6 for the decade counter,\n\
         k=16 (beyond the bound) for twin shift registers, and never closes for the\n\
         free-running counter pairs — matching Section II-A's account of why\n\
         strengthening invariants are needed."
    );
}
