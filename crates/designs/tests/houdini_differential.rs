//! Differential test: the incremental (single-session, selector-based)
//! Houdini must accept **exactly** the candidate subsets that the classic
//! rebuild-per-iteration loop accepts, across the whole designs corpus.
//!
//! The reference is `common::reference_houdini`: a fresh unroller (full
//! re-bit-blast, brand-new solver) for every strengthening iteration, a
//! separate `bmc_rebuild` run per candidate base case, lemmas asserted
//! rather than activated, and one solver query per alive candidate per
//! sweep. Houdini's fixpoint (the unique maximal mutually-inductive
//! subset) is canonical, so any sound implementation must land on the same
//! set however it schedules queries — this test pins the session engine to
//! that semantics on realistic inputs: the deterministic synthetic-LLM
//! completions for each corpus design, which mix good lemmas, hallucinated
//! signals, false invariants, and non-inductive truths.

use genfv_core::{houdini, ValidateConfig};
use genfv_genai::ModelProfile;

mod common;

#[test]
fn incremental_houdini_matches_rebuild_reference_on_corpus() {
    let config = ValidateConfig::default();
    let mut nonempty_pools = 0;
    let mut accepted_total = 0;
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let candidates = common::corpus_candidates(&bundle, ModelProfile::GptFourTurbo);
        if !candidates.is_empty() {
            nonempty_pools += 1;
        }
        let incremental = houdini(&design, &[], &candidates, &config);
        let reference = common::reference_houdini(&design, &[], &candidates, &config);
        assert_eq!(
            incremental.accepted,
            reference,
            "accepted-lemma divergence on `{}` over {} candidates",
            bundle.name,
            candidates.len()
        );
        // `carried` reports the hypotheses in the final fixpoint's
        // assumption core: always a subset of the survivors.
        assert!(
            incremental.carried.iter().all(|i| incremental.accepted.contains(i)),
            "`{}`: carried {:?} not within accepted {:?}",
            bundle.name,
            incremental.carried,
            incremental.accepted
        );
        assert!(
            candidates.is_empty() || incremental.session.bitblasts == 1,
            "`{}`: incremental run must bit-blast once, saw {}",
            bundle.name,
            incremental.session.bitblasts
        );
        accepted_total += incremental.accepted.len();
    }
    assert!(nonempty_pools >= 5, "the corpus should exercise real candidate pools");
    assert!(accepted_total > 0, "at least some corpus lemmas must survive Houdini");
}
