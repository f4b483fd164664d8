//! Differential suite: service verdicts must equal sequential flow runs.
//!
//! The service changes *how* jobs are scheduled (queue, batching,
//! warm-session cache, seeded sessions) but must never change *what* they
//! conclude. Every test here runs the same designs both ways — through
//! `VerificationService` / `run_corpus` and by calling the flow functions
//! directly — and pins verdict classes and accepted-lemma texts, covering
//! the batched, cache-hit, and cache-evicted service paths.

use genfv_core::{run_flow2, CorpusMode, FlowConfig, FlowReport, TargetOutcome};
use genfv_designs::all_designs;
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_service::{run_corpus, DesignInput, JobRequest, ServiceConfig, VerificationService};

fn verdict_class(o: &TargetOutcome) -> u8 {
    match o {
        TargetOutcome::Proven { .. } => 0,
        TargetOutcome::Falsified { .. } => 1,
        TargetOutcome::StillUnproven { .. } => 2,
        TargetOutcome::Unknown { .. } => 3,
    }
}

fn assert_same_report(service: &FlowReport, sequential: &FlowReport) {
    assert_eq!(service.design, sequential.design, "order must be submission order");
    let sc: Vec<u8> = service.targets.iter().map(|t| verdict_class(&t.outcome)).collect();
    let qc: Vec<u8> = sequential.targets.iter().map(|t| verdict_class(&t.outcome)).collect();
    assert_eq!(sc, qc, "scheduling must not change verdicts on {}", service.design);
    let sl: Vec<&str> = service.lemmas.iter().map(|l| l.text.as_str()).collect();
    let ql: Vec<&str> = sequential.lemmas.iter().map(|l| l.text.as_str()).collect();
    assert_eq!(sl, ql, "scheduling must not change lemmas on {}", service.design);
}

/// The full corpus through `run_corpus` (service-backed) vs direct
/// sequential Flow-2 runs.
#[test]
fn corpus_matches_sequential() {
    let designs: Vec<_> = all_designs().iter().map(|d| d.prepare().unwrap()).collect();
    let make_llm = |i: usize| SyntheticLlm::new(ModelProfile::GptFourTurbo, 42 + i as u64);
    let config = ServiceConfig::default().with_workers(3);
    let serviced = run_corpus(&designs, make_llm, &config);
    let sequential: Vec<_> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| run_flow2(d.clone(), &mut make_llm(i), &config.flow))
        .collect();
    assert_eq!(serviced.len(), sequential.len());
    for (s, q) in serviced.iter().zip(&sequential) {
        assert_same_report(s, q);
    }
}

/// Repeat traffic (every design submitted twice, interleaved) must hit
/// the warm cache / batcher and still reproduce cold verdicts.
#[test]
fn repeat_traffic_with_cache_and_batching_matches_cold() {
    let bundles = all_designs();
    let service = VerificationService::new(ServiceConfig::default().with_workers(2));
    let mut handles = Vec::new();
    for _round in 0..2 {
        for (i, bundle) in bundles.iter().enumerate() {
            let request = JobRequest::new(DesignInput::Source {
                name: bundle.name.to_string(),
                rtl: bundle.rtl.to_string(),
                spec: bundle.spec.to_string(),
                targets: bundle.targets.clone(),
            })
            .with_llm(SyntheticLlm::new(ModelProfile::GptFourTurbo, 42 + i as u64));
            handles.push(service.submit(request).unwrap());
        }
    }
    let reports: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let stats = service.stats();
    service.shutdown();
    assert!(
        stats.cache_hits >= bundles.len() as u64,
        "second round must ride the cache (hits = {}, batched = {})",
        stats.cache_hits,
        stats.batched_jobs
    );

    let make_llm = |i: usize| SyntheticLlm::new(ModelProfile::GptFourTurbo, 42 + i as u64);
    for (i, bundle) in bundles.iter().enumerate() {
        let cold = run_flow2(bundle.prepare().unwrap(), &mut make_llm(i), &FlowConfig::default());
        // Both rounds used the same per-index seed, so both service
        // reports for this design must match the cold run.
        assert_same_report(&reports[i].flow, &cold);
        assert_same_report(&reports[bundles.len() + i].flow, &cold);
    }
}

/// A single-entry cache forces continuous eviction; verdicts must
/// survive losing and rebuilding warm capital mid-stream.
#[test]
fn cache_evicted_path_matches_sequential() {
    let bundles: Vec<_> = all_designs().into_iter().take(4).collect();
    let service = VerificationService::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_cache_entries(1)
            .with_mode(CorpusMode::Baseline),
    );
    let mut handles = Vec::new();
    // a b a b … evicts on every submission once the cache holds one entry.
    for _ in 0..2 {
        for bundle in &bundles {
            let request = JobRequest::new(DesignInput::Source {
                name: bundle.name.to_string(),
                rtl: bundle.rtl.to_string(),
                spec: bundle.spec.to_string(),
                targets: bundle.targets.clone(),
            })
            .with_mode(CorpusMode::Baseline);
            handles.push(service.submit(request).unwrap());
        }
    }
    let reports: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let stats = service.stats();
    service.shutdown();
    assert!(stats.cache_evictions > 0, "single-entry cache must evict ({stats:?})");

    for (i, bundle) in bundles.iter().enumerate() {
        let cold = genfv_core::run_baseline(&bundle.prepare().unwrap(), &FlowConfig::default());
        assert_same_report(&reports[i].flow, &cold);
        assert_same_report(&reports[bundles.len() + i].flow, &cold);
    }
}

/// Ported from the old `genfv-core` shard scheduler: baseline corpora
/// must never construct a language model.
#[test]
fn baseline_mode_needs_no_llm() {
    let designs: Vec<_> = all_designs().iter().take(3).map(|d| d.prepare().unwrap()).collect();
    let config = ServiceConfig::default().with_workers(2).with_mode(CorpusMode::Baseline);
    let reports = run_corpus(
        &designs,
        |_: usize| -> SyntheticLlm { panic!("baseline must not build an LLM") },
        &config,
    );
    assert_eq!(reports.len(), designs.len());
    assert!(reports.iter().all(|r| r.model.contains("baseline")));
}

/// Ported from the old `genfv-core` shard scheduler.
#[test]
fn empty_corpus_is_fine() {
    let config = ServiceConfig::default();
    let out = run_corpus(&[], |i| SyntheticLlm::new(ModelProfile::GptFourTurbo, i as u64), &config);
    assert!(out.is_empty());
}
