//! The paper's two GenAI-augmented verification flows.
//!
//! * [`run_flow1`] (paper Fig. 1): specification + RTL → LLM → helper
//!   assertions → validate/prove → use as assumptions for the target
//!   properties.
//! * [`run_flow2`] (paper Fig. 2): k-induction attempt → on inductive-step
//!   failure, render the CEX waveform into a prompt → LLM → candidate
//!   invariants → validate → retry, up to an iteration budget.
//!
//! Both flows record a full [`FlowMetrics`] (LLM calls, token counts,
//! candidate fates, proof effort) and an event log for human inspection.

use crate::design::{PreparedDesign, Target};
use crate::houdini::validate_batch_with_stats;
use crate::validate::{install_lemma, Candidate, Lemma, ValidateConfig, ValidationOutcome};
use genfv_genai::{LanguageModel, Prompt};
use genfv_ir::{OptConfig, OptStats};
use genfv_mc::{
    prove_rebuild, render_waveform, CheckConfig, EngineMode, PortfolioConfig, ProofSession,
    ProveResult, SessionStats, Trace, UnrollMode,
};
use genfv_obs::{Accumulate, Obs};
use genfv_sva::parse_assertions;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Counters describing one flow run.
#[derive(Clone, Debug, Default)]
pub struct FlowMetrics {
    /// LLM round trips.
    pub llm_calls: usize,
    /// Prompt tokens sent (estimated).
    pub prompt_tokens: usize,
    /// Completion tokens received (estimated).
    pub completion_tokens: usize,
    /// Simulated LLM latency total.
    pub llm_latency: Duration,
    /// Assertion blocks successfully parsed out of completions.
    pub candidates_parsed: usize,
    /// Completion text regions that failed assertion parsing.
    pub candidates_unparseable: usize,
    /// Candidates rejected at compile (phantom signals etc.).
    pub rejected_compile: usize,
    /// Candidates disproven by BMC (false invariants).
    pub rejected_false: usize,
    /// Candidates that never became inductive.
    pub rejected_not_inductive: usize,
    /// Lemmas accepted (proven invariants).
    pub lemmas_accepted: usize,
    /// Flow-2 repair iterations used.
    pub iterations: usize,
    /// Wall-clock spent in SAT-based checking.
    pub proof_time: Duration,
    /// Solver-reuse counters aggregated across the flow's sessions.
    pub solver: SessionStats,
    /// Total wall clock for the flow.
    pub total_time: Duration,
}

/// Outcome for one target property.
#[derive(Clone, Debug)]
pub enum TargetOutcome {
    /// Proven (depth, with or without lemmas).
    Proven {
        /// Induction depth.
        k: usize,
        /// Number of lemmas assumed for the winning attempt.
        lemmas_used: usize,
    },
    /// Real counterexample found.
    Falsified {
        /// Violation cycle.
        at: usize,
    },
    /// Still failing its induction step after all iterations; the last
    /// step CEX is kept for inspection.
    StillUnproven {
        /// Last attempted depth.
        k: usize,
        /// Last induction-step counterexample.
        trace: Box<Trace>,
    },
    /// Budget exhausted.
    Unknown {
        /// Reason.
        reason: String,
    },
}

impl TargetOutcome {
    /// Whether the target was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, TargetOutcome::Proven { .. })
    }
}

/// Per-target report.
#[derive(Clone, Debug)]
pub struct TargetReport {
    /// Target name.
    pub name: String,
    /// Final outcome.
    pub outcome: TargetOutcome,
}

/// Complete result of a flow run.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Model used.
    pub model: String,
    /// Per-target outcomes.
    pub targets: Vec<TargetReport>,
    /// Accepted lemmas.
    pub lemmas: Vec<Lemma>,
    /// Aggregate metrics.
    pub metrics: FlowMetrics,
    /// What the netlist optimization pipeline did to this design during
    /// prepare (level, node counts, per-stage counts).
    pub opt: OptStats,
    /// Human-readable event log.
    pub events: Vec<String>,
}

impl FlowReport {
    /// Whether every target was proven.
    pub fn all_proven(&self) -> bool {
        self.targets.iter().all(|t| t.outcome.is_proven())
    }
}

/// Flow configuration.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Induction settings for target proofs.
    pub check: CheckConfig,
    /// Candidate-validation settings.
    pub validate: ValidateConfig,
    /// Maximum LLM repair iterations (Flow 2).
    pub max_iterations: usize,
    /// Run Houdini over individually-non-inductive candidates.
    pub use_houdini: bool,
    /// Netlist optimization applied when this configuration prepares a
    /// design from source (the service's `DesignInput::Source` path;
    /// already-prepared designs keep whatever they were prepared with).
    pub opt: OptConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            check: CheckConfig { max_k: 4, ..Default::default() },
            validate: ValidateConfig::default(),
            max_iterations: 4,
            use_houdini: true,
            opt: OptConfig::default(),
        }
    }
}

impl FlowConfig {
    /// This configuration with every check — candidate validation,
    /// Houdini, and target proofs — forced onto `engine`. The
    /// rebuild-vs-incremental bench uses this to run the identical flow on
    /// both architectures.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.validate.engine = engine;
        self
    }

    /// The engine architecture this flow's checks run on.
    pub fn engine(&self) -> EngineMode {
        self.validate.engine
    }

    /// This configuration with every incremental-session query — candidate
    /// validation, Houdini, and target proofs — answered by portfolio
    /// racing over the given configuration (see `genfv-portfolio`).
    pub fn with_portfolio(mut self, portfolio: PortfolioConfig) -> Self {
        self.validate.check.portfolio = Some(portfolio.clone());
        self.check.portfolio = Some(portfolio);
        self
    }

    /// This configuration with every session unroller — candidate
    /// validation, Houdini, and target proofs — encoding frames in
    /// `mode`. Template stamping is the default; `template_differential.rs`
    /// in `genfv-designs` uses this to run the identical flow on both
    /// encodings.
    pub fn with_unroll_mode(mut self, mode: UnrollMode) -> Self {
        self.validate.check.unroll_mode = mode;
        self.check.unroll_mode = mode;
        self
    }

    /// This configuration with `check` as the target-proof induction
    /// settings (candidate validation keeps its own [`ValidateConfig`]).
    pub fn with_check(mut self, check: CheckConfig) -> Self {
        self.check = check;
        self
    }

    /// This configuration with `validate` as the candidate-validation
    /// settings.
    pub fn with_validate(mut self, validate: ValidateConfig) -> Self {
        self.validate = validate;
        self
    }

    /// This configuration with at most `n` LLM repair iterations (Flow 2).
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// This configuration with Houdini over individually-non-inductive
    /// candidates switched on or off.
    pub fn with_houdini(mut self, on: bool) -> Self {
        self.use_houdini = on;
        self
    }

    /// This configuration preparing source designs with the given netlist
    /// optimization settings (`OptLevel::None` is the escape hatch /
    /// differential baseline).
    pub fn with_opt(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// This configuration recording every check — candidate validation,
    /// Houdini, and target proofs — into the given observability handle:
    /// `flow.*` spans down to individual `solve.*` calls, plus per-query-
    /// kind metrics (see `genfv-obs`). The default disabled handle costs
    /// one branch per span.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.validate.check.obs = obs.clone();
        self.check.obs = obs;
        self
    }

    /// The observability handle this flow records into.
    pub fn obs(&self) -> &Obs {
        &self.check.obs
    }

    /// The frame-encoding mode of this flow's session unrollers.
    pub fn unroll_mode(&self) -> UnrollMode {
        self.check.unroll_mode
    }
}

/// Extracts candidates from a completion, numbering anonymous ones.
fn candidates_from_completion(text: &str) -> Vec<Candidate> {
    let assertions = parse_assertions(text);
    assertions
        .into_iter()
        .enumerate()
        .map(|(i, assertion)| {
            let name = assertion.name.clone().unwrap_or_else(|| format!("candidate_{i}"));
            // Canonical text reconstructed from the AST: reports can quote
            // the lemma, and re-parsing it yields the same assertion.
            let text = genfv_sva::render_prop_body(&assertion.body);
            Candidate { name, text, assertion }
        })
        .collect()
}

/// Counts the `property` blocks in a completion that did *not* yield a
/// parseable assertion (hallucinated syntax).
fn unparseable_regions(text: &str, parsed: usize) -> usize {
    let mentions = text.matches("property ").count();
    // Each parsed property consumed one `property ... endproperty` pair
    // (bare `assert property` one-liners also contain "property ").
    mentions.saturating_sub(parsed).min(mentions)
}

/// Runs the validation gauntlet over a candidate batch against the
/// (immutable) design: records rejection metrics/events and returns the
/// indices of accepted candidates for [`install_accepted`]. Split from
/// installation so repair loops can keep a live [`ProofSession`] — which
/// borrows the design — across iterations that end up installing nothing.
fn evaluate_candidates(
    design: &PreparedDesign,
    lemmas: &[Lemma],
    candidates: &[Candidate],
    config: &FlowConfig,
    metrics: &mut FlowMetrics,
    events: &mut Vec<String>,
) -> Vec<usize> {
    let lemma_exprs: Vec<_> = lemmas.iter().map(|l| l.expr).collect();
    let t0 = Instant::now();
    let (accepted, outcomes, solver_stats) = validate_batch_with_stats(
        design,
        &lemma_exprs,
        candidates,
        &config.validate,
        config.use_houdini,
    );
    metrics.proof_time += t0.elapsed();
    metrics.solver.absorb(&solver_stats);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            ValidationOutcome::CompileRejected(msg) => {
                metrics.rejected_compile += 1;
                events.push(format!("  ✗ {}: compile rejected ({msg})", candidates[i].name));
            }
            ValidationOutcome::FalseByBmc { at } => {
                metrics.rejected_false += 1;
                events.push(format!(
                    "  ✗ {}: disproven by BMC at cycle {at} (hallucinated invariant)",
                    candidates[i].name
                ));
            }
            ValidationOutcome::NotInductiveAlone if !accepted.contains(&i) => {
                metrics.rejected_not_inductive += 1;
                events.push(format!("  ~ {}: true-looking but not inductive", candidates[i].name));
            }
            ValidationOutcome::Unknown(reason) => {
                metrics.rejected_not_inductive += 1;
                events.push(format!("  ? {}: {reason}", candidates[i].name));
            }
            _ => {}
        }
    }
    accepted
}

/// Compiles the accepted candidates onto the main design (mutating it)
/// and appends the resulting lemmas.
fn install_accepted(
    design: &mut PreparedDesign,
    lemmas: &mut Vec<Lemma>,
    candidates: &[Candidate],
    accepted: &[usize],
    metrics: &mut FlowMetrics,
    events: &mut Vec<String>,
) {
    for &i in accepted {
        match install_lemma(design, &candidates[i]) {
            Ok(lemma) => {
                events.push(format!("  ✓ {}: proven, installed as lemma", lemma.name));
                metrics.lemmas_accepted += 1;
                lemmas.push(lemma);
            }
            Err(e) => events.push(format!("  ! {}: install failed: {e}", candidates[i].name)),
        }
    }
}

fn ingest_candidates(
    design: &mut PreparedDesign,
    lemmas: &mut Vec<Lemma>,
    candidates: &[Candidate],
    config: &FlowConfig,
    metrics: &mut FlowMetrics,
    events: &mut Vec<String>,
) {
    let accepted = evaluate_candidates(design, lemmas, candidates, config, metrics, events);
    install_accepted(design, lemmas, candidates, &accepted, metrics, events);
}

/// Folds a dying session's reuse counters into the flow metrics.
fn absorb_session(metrics: &mut FlowMetrics, session: &Option<ProofSession<'_>>) {
    if let Some(s) = session {
        metrics.solver.absorb(s.stats());
    }
}

/// The CEX-driven repair loop for one target (paper Fig. 2), shared by
/// [`run_flow2`] and [`run_combined`].
///
/// In incremental mode one [`ProofSession`] serves every proof attempt
/// under a given lemma set; it is torn down only when a repair iteration
/// actually installs a lemma, which mutates the design and therefore
/// invalidates the session's borrow. Iterations that install nothing keep
/// the session *and* its last step-failure verdict: re-proving an
/// unchanged obligation set on a fresh session provably returns the
/// identical result (the solver is deterministic and the inputs are
/// unchanged), so the redundant rebuild-plus-re-prove the old
/// per-attempt architecture paid is skipped outright.
#[allow(clippy::too_many_arguments)]
fn repair_target(
    design: &mut PreparedDesign,
    lemmas: &mut Vec<Lemma>,
    target: &Target,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
    metrics: &mut FlowMetrics,
    events: &mut Vec<String>,
    tag: &str,
) -> TargetOutcome {
    let mut iteration = 0usize;
    'attempts: loop {
        let lemma_exprs: Vec<_> = lemmas.iter().map(|l| l.expr).collect();
        let mut session = (config.engine() == EngineMode::Incremental).then(|| {
            let mut s = ProofSession::new(&design.ctx, &design.ts, config.check.clone());
            s.add_lemmas(&lemma_exprs);
            s
        });
        let t0 = Instant::now();
        let mut res = match session.as_mut() {
            Some(s) => s.prove(&target.prop),
            None => {
                prove_rebuild(&design.ctx, &design.ts, &target.prop, &lemma_exprs, &config.check)
            }
        };
        metrics.proof_time += t0.elapsed();
        loop {
            match res {
                ProveResult::Proven { k, .. } => {
                    events.push(format!(
                        "[{tag}] `{}` proven at k={k} after {iteration} repair iteration(s) \
                         ({} lemmas)",
                        target.name,
                        lemma_exprs.len()
                    ));
                    absorb_session(metrics, &session);
                    return TargetOutcome::Proven { k, lemmas_used: lemma_exprs.len() };
                }
                ProveResult::Falsified { at, .. } => {
                    events.push(format!("[{tag}] `{}` falsified at cycle {at}", target.name));
                    absorb_session(metrics, &session);
                    return TargetOutcome::Falsified { at };
                }
                ProveResult::Unknown { reason, .. } => {
                    absorb_session(metrics, &session);
                    return TargetOutcome::Unknown { reason };
                }
                ProveResult::StepFailure { k, trace, stats } => {
                    if iteration == config.max_iterations {
                        events.push(format!(
                            "[{tag}] `{}` exhausted {} iterations, still failing at k={k}",
                            target.name, config.max_iterations
                        ));
                        absorb_session(metrics, &session);
                        return TargetOutcome::StillUnproven { k, trace: Box::new(trace) };
                    }
                    iteration += 1;
                    metrics.iterations += 1;
                    events.push(format!(
                        "[{tag}] `{}` induction step failed at k={k}; consulting {}",
                        target.name,
                        llm.name()
                    ));
                    // Render the CEX into the prompt (paper Fig. 2 inputs).
                    let waveform = render_waveform(&trace);
                    let final_values: BTreeMap<String, String> = trace
                        .last_step()
                        .map(|s| {
                            s.values.iter().map(|(k, v)| (k.clone(), format!("{v}"))).collect()
                        })
                        .unwrap_or_default();
                    let prompt = Prompt::flow2(&design.rtl, &target.sva, &waveform, &final_values);
                    let completion = llm.complete(&prompt);
                    metrics.llm_calls += 1;
                    metrics.prompt_tokens += completion.prompt_tokens;
                    metrics.completion_tokens += completion.completion_tokens;
                    metrics.llm_latency += completion.latency;

                    let candidates = candidates_from_completion(&completion.text);
                    metrics.candidates_parsed += candidates.len();
                    metrics.candidates_unparseable +=
                        unparseable_regions(&completion.text, candidates.len());
                    events.push(format!(
                        "[{tag}]   {} candidates parsed from completion",
                        candidates.len()
                    ));
                    let accepted =
                        evaluate_candidates(design, lemmas, &candidates, config, metrics, events);
                    if accepted.is_empty() {
                        events.push(format!(
                            "[{tag}]   no new lemmas accepted in iteration {iteration}; keeping \
                             the session and its counterexample"
                        ));
                        // Unchanged lemma set ⇒ identical re-prove; keep the
                        // session and reuse the verdict instead of paying it.
                        res = ProveResult::StepFailure { k, trace, stats };
                        continue;
                    }
                    absorb_session(metrics, &session);
                    drop(session);
                    install_accepted(design, lemmas, &candidates, &accepted, metrics, events);
                    continue 'attempts;
                }
            }
        }
    }
}

/// Runs the paper's Flow 1 (Fig. 1): upfront helper-assertion generation
/// from specification + RTL, then target proofs with the accepted lemmas.
pub fn run_flow1(
    mut design: PreparedDesign,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
) -> FlowReport {
    let _span = config.obs().span_with("flow.flow1", || design.name.clone());
    let start = Instant::now();
    let mut metrics = FlowMetrics::default();
    let mut events = Vec::new();
    let mut lemmas: Vec<Lemma> = Vec::new();

    let targets_sva: Vec<String> = design.targets.iter().map(|t| t.sva.clone()).collect();
    let prompt = Prompt::flow1(&design.spec, &design.rtl, &targets_sva);
    events.push(format!("[flow1] prompting {} ({} tokens)", llm.name(), prompt.token_estimate()));
    let completion = llm.complete(&prompt);
    metrics.llm_calls += 1;
    metrics.prompt_tokens += completion.prompt_tokens;
    metrics.completion_tokens += completion.completion_tokens;
    metrics.llm_latency += completion.latency;

    let candidates = candidates_from_completion(&completion.text);
    metrics.candidates_parsed += candidates.len();
    metrics.candidates_unparseable += unparseable_regions(&completion.text, candidates.len());
    events.push(format!(
        "[flow1] completion: {} candidates parsed, {} malformed regions",
        candidates.len(),
        metrics.candidates_unparseable
    ));
    ingest_candidates(&mut design, &mut lemmas, &candidates, config, &mut metrics, &mut events);

    // Prove targets with the accepted lemmas — one session for the whole
    // batch: the design is bit-blasted once and every target proof reuses
    // the frames and learnt clauses of its predecessors. (In rebuild mode
    // each target gets fresh unrollers instead.)
    let lemma_exprs: Vec<_> = lemmas.iter().map(|l| l.expr).collect();
    let mut target_reports = Vec::new();
    let mut session = (config.engine() == EngineMode::Incremental).then(|| {
        let mut s = ProofSession::new(&design.ctx, &design.ts, config.check.clone());
        s.add_lemmas(&lemma_exprs);
        s
    });
    for target in &design.targets {
        let t0 = Instant::now();
        let res = match session.as_mut() {
            Some(s) => s.prove(&target.prop),
            None => {
                prove_rebuild(&design.ctx, &design.ts, &target.prop, &lemma_exprs, &config.check)
            }
        };
        metrics.proof_time += t0.elapsed();
        let outcome = match res {
            ProveResult::Proven { k, .. } => {
                events.push(format!("[flow1] target `{}` proven at k={k}", target.name));
                TargetOutcome::Proven { k, lemmas_used: lemma_exprs.len() }
            }
            ProveResult::Falsified { at, .. } => {
                events.push(format!("[flow1] target `{}` falsified at cycle {at}", target.name));
                TargetOutcome::Falsified { at }
            }
            ProveResult::StepFailure { k, trace, .. } => {
                events.push(format!("[flow1] target `{}` still fails step at k={k}", target.name));
                TargetOutcome::StillUnproven { k, trace: Box::new(trace) }
            }
            ProveResult::Unknown { reason, .. } => TargetOutcome::Unknown { reason },
        };
        target_reports.push(TargetReport { name: target.name.clone(), outcome });
    }
    if let Some(s) = &session {
        metrics.solver.absorb(s.stats());
    }

    metrics.total_time = start.elapsed();
    FlowReport {
        design: design.name.clone(),
        model: llm.name().to_string(),
        targets: target_reports,
        lemmas,
        metrics,
        opt: design.opt_stats.clone(),
        events,
    }
}

/// Runs the paper's Flow 2 (Fig. 2): CEX-driven induction repair for every
/// target property.
pub fn run_flow2(
    mut design: PreparedDesign,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
) -> FlowReport {
    let _span = config.obs().span_with("flow.flow2", || design.name.clone());
    let start = Instant::now();
    let mut metrics = FlowMetrics::default();
    let mut events = Vec::new();
    let mut lemmas: Vec<Lemma> = Vec::new();
    let mut target_reports = Vec::new();

    let targets = design.targets.clone();
    for target in &targets {
        let outcome = repair_target(
            &mut design,
            &mut lemmas,
            target,
            llm,
            config,
            &mut metrics,
            &mut events,
            "flow2",
        );
        target_reports.push(TargetReport { name: target.name.clone(), outcome });
    }

    metrics.total_time = start.elapsed();
    FlowReport {
        design: design.name.clone(),
        model: llm.name().to_string(),
        targets: target_reports,
        lemmas,
        metrics,
        opt: design.opt_stats.clone(),
        events,
    }
}

/// Baseline: plain k-induction with no GenAI assistance (for the
/// with/without comparisons of experiment E4).
pub fn run_baseline(design: &PreparedDesign, config: &FlowConfig) -> FlowReport {
    let _span = config.obs().span_with("flow.baseline", || design.name.clone());
    let start = Instant::now();
    let mut metrics = FlowMetrics::default();
    let mut events = Vec::new();
    let mut target_reports = Vec::new();
    // One session for the whole baseline: no lemmas, shared frames.
    let mut session = (config.engine() == EngineMode::Incremental)
        .then(|| ProofSession::new(&design.ctx, &design.ts, config.check.clone()));
    for target in &design.targets {
        let t0 = Instant::now();
        let res = match session.as_mut() {
            Some(s) => s.prove(&target.prop),
            None => prove_rebuild(&design.ctx, &design.ts, &target.prop, &[], &config.check),
        };
        metrics.proof_time += t0.elapsed();
        let outcome = match res {
            ProveResult::Proven { k, .. } => {
                events.push(format!("[baseline] `{}` proven at k={k}", target.name));
                TargetOutcome::Proven { k, lemmas_used: 0 }
            }
            ProveResult::Falsified { at, .. } => TargetOutcome::Falsified { at },
            ProveResult::StepFailure { k, trace, .. } => {
                events.push(format!("[baseline] `{}` fails step at k={k}", target.name));
                TargetOutcome::StillUnproven { k, trace: Box::new(trace) }
            }
            ProveResult::Unknown { reason, .. } => TargetOutcome::Unknown { reason },
        };
        target_reports.push(TargetReport { name: target.name.clone(), outcome });
    }
    if let Some(s) = &session {
        metrics.solver.absorb(s.stats());
    }
    metrics.total_time = start.elapsed();
    FlowReport {
        design: design.name.clone(),
        model: "none (baseline)".to_string(),
        targets: target_reports,
        lemmas: Vec::new(),
        metrics,
        opt: design.opt_stats.clone(),
        events,
    }
}

/// Runs both flows the way the paper describes using them together
/// ("We utilized both flows"): Flow 1 generates upfront lemmas from the
/// specification and RTL, then Flow 2's CEX-driven repair loop handles any
/// target that still fails its induction step. The returned report carries
/// the union of accepted lemmas and the merged metrics.
pub fn run_combined(
    design: PreparedDesign,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
) -> FlowReport {
    let _span = config.obs().span_with("flow.combined", || design.name.clone());
    let start = Instant::now();
    let mut metrics = FlowMetrics::default();
    let mut events = Vec::new();
    let mut lemmas: Vec<Lemma> = Vec::new();

    // --- Flow 1 phase: one upfront prompt. ---------------------------------
    let mut design = design;
    let targets_sva: Vec<String> = design.targets.iter().map(|t| t.sva.clone()).collect();
    let prompt = Prompt::flow1(&design.spec, &design.rtl, &targets_sva);
    events.push(format!("[combined] flow-1 phase: prompting {}", llm.name()));
    let completion = llm.complete(&prompt);
    metrics.llm_calls += 1;
    metrics.prompt_tokens += completion.prompt_tokens;
    metrics.completion_tokens += completion.completion_tokens;
    metrics.llm_latency += completion.latency;
    let candidates = candidates_from_completion(&completion.text);
    metrics.candidates_parsed += candidates.len();
    metrics.candidates_unparseable += unparseable_regions(&completion.text, candidates.len());
    ingest_candidates(&mut design, &mut lemmas, &candidates, config, &mut metrics, &mut events);

    // --- Flow 2 phase: repair whatever still fails. -------------------------
    let mut target_reports = Vec::new();
    let targets = design.targets.clone();
    for target in &targets {
        let outcome = repair_target(
            &mut design,
            &mut lemmas,
            target,
            llm,
            config,
            &mut metrics,
            &mut events,
            "combined",
        );
        target_reports.push(TargetReport { name: target.name.clone(), outcome });
    }

    metrics.total_time = start.elapsed();
    FlowReport {
        design: design.name.clone(),
        model: llm.name().to_string(),
        targets: target_reports,
        lemmas,
        metrics,
        opt: design.opt_stats.clone(),
        events,
    }
}
