//! Criterion timing groups backing the experiment tables (one group per
//! table/figure; see the experiment table in the `genfv-bench` crate docs).
//!
//! The groups use the 16-bit counter variant and reduced sample counts so
//! a full `cargo bench` stays in the minutes range on a laptop while still
//! producing stable relative numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genfv_core::{run_baseline, run_flow1, run_flow2, FlowConfig};
use genfv_genai::{LanguageModel, ModelProfile, Prompt, SyntheticLlm};
use genfv_mc::{CheckConfig, KInduction, Property};

fn config() -> FlowConfig {
    FlowConfig {
        check: CheckConfig { max_k: 3, ..Default::default() },
        max_iterations: 4,
        ..Default::default()
    }
}

/// E1/E4 (figure-level): the paper example — plain induction failure vs
/// GenAI-augmented proof.
fn bench_paper_example(c: &mut Criterion) {
    let bundle = genfv_designs::by_name("sync_counters_16").expect("corpus");
    let mut group = c.benchmark_group("e1_paper_example");
    group.sample_size(10);
    group.bench_function("baseline_step_failure", |b| {
        b.iter(|| {
            let design = bundle.prepare().expect("prepare");
            run_baseline(&design, &config())
        })
    });
    group.bench_function("flow2_repair_to_proof", |b| {
        b.iter(|| {
            let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
            run_flow2(bundle.prepare().expect("prepare"), &mut llm, &config())
        })
    });
    group.finish();
}

/// E2 (Fig. 1): Flow-1 lemma generation per design family.
fn bench_flow1(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_flow1");
    group.sample_size(10);
    for name in ["sync_counters_16", "modn_counter", "parity_pipe"] {
        let bundle = genfv_designs::by_name(name).expect("corpus");
        group.bench_with_input(BenchmarkId::from_parameter(name), &bundle, |b, bundle| {
            b.iter(|| {
                let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 7);
                run_flow1(bundle.prepare().expect("prepare"), &mut llm, &config())
            })
        });
    }
    group.finish();
}

/// E3 (Fig. 2): Flow-2 repair loop per design family.
fn bench_flow2(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_flow2");
    group.sample_size(10);
    for name in ["sync_counters_16", "fifo_counters", "ecc_counter"] {
        let bundle = genfv_designs::by_name(name).expect("corpus");
        group.bench_with_input(BenchmarkId::from_parameter(name), &bundle, |b, bundle| {
            b.iter(|| {
                let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 7);
                run_flow2(bundle.prepare().expect("prepare"), &mut llm, &config())
            })
        });
    }
    group.finish();
}

/// E4 (Section V): proof effort with vs without the helper lemma on the
/// paper example (proof-only, lemma generation excluded).
fn bench_throughput(c: &mut Criterion) {
    let bundle = genfv_designs::by_name("sync_counters_16").expect("corpus");
    let mut group = c.benchmark_group("e4_throughput");
    group.sample_size(10);

    group.bench_function("plain_kinduction_to_k3", |b| {
        b.iter(|| {
            let design = bundle.prepare().expect("prepare");
            let target = &design.targets[0];
            let prover = KInduction::new(
                &design.ctx,
                &design.ts,
                CheckConfig { max_k: 3, ..Default::default() },
            );
            prover.prove(&Property::new(target.name.clone(), target.prop.ok), &[])
        })
    });
    group.bench_function("with_helper_lemma", |b| {
        b.iter(|| {
            let mut design = bundle.prepare().expect("prepare");
            let a = genfv_sva::parse_assertion("count1 == count2").expect("parse");
            let lemma = genfv_sva::PropertyCompiler::new(&mut design.ctx, &mut design.ts)
                .compile(&a)
                .expect("compile")
                .ok;
            let target = &design.targets[0];
            let prover = KInduction::new(
                &design.ctx,
                &design.ts,
                CheckConfig { max_k: 3, ..Default::default() },
            );
            prover.prove(&Property::new(target.name.clone(), target.prop.ok), &[lemma])
        })
    });
    group.finish();
}

/// E5 (Section V): end-to-end Flow-2 cost per model profile.
fn bench_models(c: &mut Criterion) {
    let bundle = genfv_designs::by_name("sync_counters_16").expect("corpus");
    let mut group = c.benchmark_group("e5_models");
    group.sample_size(10);
    for profile in ModelProfile::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(profile.name()),
            &profile,
            |b, &profile| {
                b.iter(|| {
                    let mut llm = SyntheticLlm::new(profile, 5);
                    run_flow2(bundle.prepare().expect("prepare"), &mut llm, &config())
                })
            },
        );
    }
    group.finish();
}

/// E7: k-sweep mechanics — induction depth as the cost driver.
fn bench_k_sweep(c: &mut Criterion) {
    let bundle = genfv_designs::by_name("twin_shift").expect("corpus");
    let mut group = c.benchmark_group("e7_k_sweep");
    group.sample_size(10);
    for max_k in [2usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(max_k), &max_k, |b, &max_k| {
            b.iter(|| {
                let design = bundle.prepare().expect("prepare");
                let target = &design.targets[0];
                let prover = KInduction::new(
                    &design.ctx,
                    &design.ts,
                    CheckConfig { max_k, ..Default::default() },
                );
                prover.prove(&Property::new(target.name.clone(), target.prop.ok), &[])
            })
        });
    }
    group.finish();
}

/// Raw prompt/completion cost (no proving) — isolates the synthetic LLM.
fn bench_llm_only(c: &mut Criterion) {
    let bundle = genfv_designs::by_name("hamming74").expect("corpus");
    let mut group = c.benchmark_group("llm_completion");
    group.sample_size(20);
    for profile in [ModelProfile::GptFourTurbo, ModelProfile::LlamaThree] {
        group.bench_with_input(
            BenchmarkId::from_parameter(profile.name()),
            &profile,
            |b, &profile| {
                let prompt = Prompt::flow1(bundle.spec, bundle.rtl, &[]);
                b.iter(|| {
                    let mut llm = SyntheticLlm::new(profile, 3);
                    llm.complete(&prompt)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_paper_example,
    bench_flow1,
    bench_flow2,
    bench_throughput,
    bench_models,
    bench_k_sweep,
    bench_llm_only
);
criterion_main!(benches);
