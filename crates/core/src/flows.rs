//! The paper's GenAI-augmented verification flows.
//!
//! * [`run_flow1`] (paper Fig. 1): specification + RTL → LLM → helper
//!   assertions → validate/prove → use as assumptions for the target
//!   properties.
//! * [`run_flow2`] (paper Fig. 2): k-induction attempt → on inductive-step
//!   failure, render the CEX waveform into a prompt → LLM → candidate
//!   invariants → validate → retry, up to an iteration budget.
//! * [`run_combined`]: Flow 1's upfront lemmas, then Flow 2's repair loop.
//! * [`run_baseline`]: plain k-induction, no LLM.
//!
//! Every GenAI flow consults the model only where the proof needs it.
//! Flow 2 asks only on an induction-step failure; Flow 1 and Combined
//! first prove every target unaided, exactly as [`run_baseline`] does, and
//! when each one is proven or falsified they report those outcomes with
//! no LLM call. Otherwise they run Fig. 1 as before, over all targets.
//!
//! Each flow is a short composition of stage calls on one private run
//! state (configuration, event tag, accepted lemmas, [`FlowMetrics`] and
//! event log); the design travels beside it, because proof sessions
//! borrow it:
//!
//! | flow | stages |
//! |---|---|
//! | [`run_flow1`] | `prove_unaided`; if a target is open, `mine_upfront`, then `prove_targets` if it installed a lemma |
//! | [`run_flow2`] | `repair_targets` |
//! | [`run_combined`] | `prove_unaided`; if a target is open, `mine_upfront`, then `repair_targets` |
//! | [`run_baseline`] | `prove_targets` |
//!
//! Underneath them, `consult` is the one place an LLM round trip happens
//! and is accounted, `evaluate` and `install` run the validation gauntlet
//! and add what it accepts, and `settle` is the one place a target's
//! verdict becomes a [`TargetOutcome`] and an event line. Every flow
//! records a full [`FlowMetrics`] (LLM calls, token counts, candidate
//! fates, proof effort) and an event log for human inspection.

use crate::design::{PreparedDesign, Target};
use crate::houdini::validate_batch;
use crate::validate::{install_lemma, Candidate, Lemma, ValidateConfig, ValidationOutcome};
use genfv_genai::{LanguageModel, Prompt};
use genfv_ir::{ExprRef, OptConfig, OptStats};
use genfv_mc::{
    render_waveform, CheckConfig, PortfolioConfig, ProofSession, ProveResult, SessionStats, Trace,
};
use genfv_obs::{Accumulate, Obs};
use genfv_sva::parse_assertions;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Which flow a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusMode {
    /// Paper Fig. 1: upfront lemma generation, then target proofs.
    Flow1,
    /// Paper Fig. 2: CEX-driven induction repair.
    Flow2,
    /// Flow 1 then Flow 2 ("we utilized both flows").
    Combined,
    /// Plain k-induction, no GenAI (no language model is consulted).
    Baseline,
}

impl CorpusMode {
    /// Whether jobs in this mode consult a language model.
    pub fn needs_model(self) -> bool {
        !matches!(self, CorpusMode::Baseline)
    }
}

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
    /// This configuration, unchanged: every check runs on
    /// [`ProofSession`]s. Ignored; kept because `e0_ledger` names it;
    /// delete with the next benchmark change.
    pub fn with_engine(self, _engine: genfv_mc::EngineMode) -> Self {
        self
    }

    /// This configuration with every incremental-session query — candidate
    /// validation, Houdini, and target proofs — answered by portfolio
    /// racing over the given configuration (see `genfv-portfolio`).
    pub fn with_portfolio(mut self, portfolio: PortfolioConfig) -> Self {
        self.validate.check.portfolio = Some(portfolio.clone());
        self.check.portfolio = Some(portfolio);
        self
    }

    /// This configuration, unchanged: every session DAG-walks its base
    /// frames and stamps its step frames. Ignored; kept because
    /// `e0_ledger` names it; delete with the next benchmark change.
    pub fn with_unroll_mode(self, _mode: genfv_mc::UnrollMode) -> Self {
        self
    }

    /// This configuration with `check` as the target-proof induction
    /// settings (candidate validation keeps its own [`ValidateConfig`]).
    pub fn with_check(mut self, check: CheckConfig) -> Self {
        self.check = check;
        self
    }

    /// This configuration preparing source designs with the given netlist
    /// optimization settings (`OptLevel::None` is the paper's plain
    /// k-induction and the differential baseline).
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
}

/// Extracts candidates from a completion, numbering anonymous ones.
fn candidates_from_completion(text: &str) -> Vec<Candidate> {
    let assertions = parse_assertions(text);
    assertions
        .into_iter()
        .enumerate()
        .map(|(i, assertion)| {
            let name = assertion.name.clone().unwrap_or_else(|| format!("candidate_{i}"));
            // Canonical text reconstructed from the AST, `disable iff`
            // included: reports can quote the lemma, re-parsing it yields
            // the same assertion, and two candidates share a text only
            // when they state the same property.
            let unnamed = genfv_sva::Assertion { name: None, ..assertion.clone() };
            let text = genfv_sva::render_assertion(&unnamed);
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

/// One flow run's state. The design is not part of it: proof sessions
/// borrow the design, and installing a lemma mutates it, so every stage
/// takes it as its own argument.
struct Run<'a> {
    config: &'a FlowConfig,
    /// Prefix of every event line (`flow1`, `flow2`, `combined`,
    /// `baseline`).
    tag: &'static str,
    lemmas: Vec<Lemma>,
    metrics: FlowMetrics,
    events: Vec<String>,
    start: Instant,
}

impl<'a> Run<'a> {
    fn new(config: &'a FlowConfig, tag: &'static str) -> Self {
        Run {
            config,
            tag,
            lemmas: Vec::new(),
            metrics: FlowMetrics::default(),
            events: Vec::new(),
            start: Instant::now(),
        }
    }

    fn log(&mut self, line: String) {
        self.events.push(format!("[{}] {line}", self.tag));
    }

    fn lemma_exprs(&self) -> Vec<ExprRef> {
        self.lemmas.iter().map(|l| l.expr).collect()
    }

    /// The default proof before any model call: `prove_targets` on the
    /// design as given, with no lemmas, exactly as [`run_baseline`] runs
    /// it. Returns `Ok` with the reports when every target is proven or
    /// falsified, so the flow settles without the model; otherwise `Err`
    /// with the same reports. Either way one event line says whether the
    /// model is consulted, and for which open targets.
    fn prove_unaided(
        &mut self,
        design: &PreparedDesign,
    ) -> Result<Vec<TargetReport>, Vec<TargetReport>> {
        let reports = self.prove_targets(design);
        let open: Vec<String> = reports
            .iter()
            .filter(|r| {
                !matches!(r.outcome, TargetOutcome::Proven { .. } | TargetOutcome::Falsified { .. })
            })
            .map(|r| format!("`{}`", r.name))
            .collect();
        if open.is_empty() {
            self.log("every target settled unaided; the model is not consulted".to_string());
            return Ok(reports);
        }
        self.log(format!(
            "open after the unaided proof: {}; consulting the model",
            open.join(", ")
        ));
        Err(reports)
    }

    /// Paper Fig. 1's upfront phase: one prompt from the specification,
    /// the RTL and the targets; what validates becomes a lemma. Returns
    /// whether any lemma was installed.
    fn mine_upfront(&mut self, design: &mut PreparedDesign, llm: &mut dyn LanguageModel) -> bool {
        let targets: Vec<String> = design.targets.iter().map(|t| t.sva.clone()).collect();
        let candidates = self.consult(llm, &Prompt::flow1(&design.spec, &design.rtl, &targets));
        let accepted = self.evaluate(design, &candidates);
        let before = self.lemmas.len();
        self.install(design, &candidates, &accepted);
        self.lemmas.len() > before
    }

    /// Proves every target under the accepted lemmas on one session: the
    /// design is bit-blasted once and each proof reuses the frames and
    /// learnt clauses of its predecessors.
    fn prove_targets(&mut self, design: &PreparedDesign) -> Vec<TargetReport> {
        let mut session = self.open(design);
        let mut reports = Vec::new();
        for target in &design.targets {
            let res = self.prove(&mut session, target);
            reports.push(self.settle(target, res, 0));
        }
        self.close(session);
        reports
    }

    /// Paper Fig. 2 for every target: on an induction-step failure, render
    /// the counterexample into a prompt, consult the model, and retry with
    /// whatever validates, up to `max_iterations` repairs per target.
    ///
    /// Each target gets a fresh session, kept across repairs that install
    /// nothing: re-proving an unchanged obligation set returns the same
    /// step failure, so its counterexample is reused instead. Installing a
    /// lemma mutates the design, which ends the session's borrow; the next
    /// attempt opens a new one.
    fn repair_targets(
        &mut self,
        design: &mut PreparedDesign,
        llm: &mut dyn LanguageModel,
    ) -> Vec<TargetReport> {
        let targets = design.targets.clone();
        let mut reports = Vec::new();
        for target in &targets {
            let mut repairs = 0;
            let report = loop {
                let mut session = self.open(design);
                let res = self.prove(&mut session, target);
                let fix = loop {
                    let ProveResult::StepFailure { k, trace, .. } = &res else { break None };
                    if repairs == self.config.max_iterations {
                        break None;
                    }
                    repairs += 1;
                    self.metrics.iterations += 1;
                    self.log(format!(
                        "`{}` induction step failed at k={k}; repair iteration {repairs}",
                        target.name
                    ));
                    let values = trace
                        .last_step()
                        .map(|s| s.values.iter().map(|(n, v)| (n.clone(), v.to_string())).collect())
                        .unwrap_or_default();
                    let waveform = render_waveform(trace);
                    let prompt = Prompt::flow2(&design.rtl, &target.sva, &waveform, &values);
                    let candidates = self.consult(llm, &prompt);
                    let accepted = self.evaluate(design, &candidates);
                    if !accepted.is_empty() {
                        break Some((candidates, accepted));
                    }
                    self.log(format!(
                        "  no new lemmas accepted in iteration {repairs}; keeping the session and \
                         its counterexample"
                    ));
                };
                self.close(session);
                match fix {
                    Some((candidates, accepted)) => self.install(design, &candidates, &accepted),
                    None => break self.settle(target, res, repairs),
                }
            };
            reports.push(report);
        }
        reports
    }

    /// One LLM round trip: sends `prompt`, accounts the call and its
    /// tokens, and parses candidates out of the completion.
    fn consult(&mut self, llm: &mut dyn LanguageModel, prompt: &Prompt) -> Vec<Candidate> {
        self.log(format!(
            "call {}: prompting {} ({} tokens)",
            self.metrics.llm_calls + 1,
            llm.name(),
            prompt.token_estimate()
        ));
        let completion = llm.complete(prompt);
        let candidates = candidates_from_completion(&completion.text);
        let malformed = unparseable_regions(&completion.text, candidates.len());
        let m = &mut self.metrics;
        m.llm_calls += 1;
        m.prompt_tokens += completion.prompt_tokens;
        m.completion_tokens += completion.completion_tokens;
        m.llm_latency += completion.latency;
        m.candidates_parsed += candidates.len();
        m.candidates_unparseable += malformed;
        self.log(format!(
            "  {} candidates parsed, {malformed} malformed regions",
            candidates.len()
        ));
        candidates
    }

    /// Runs the validation gauntlet over `candidates` against the design,
    /// records every rejection, and returns the indices of the accepted
    /// ones for `install`. An accepted candidate whose text is already an
    /// installed lemma, or repeats an earlier candidate of the batch, is
    /// logged and left out: each lemma is installed once. It only reads
    /// the design, so a repair loop keeps its live session across
    /// iterations that accept nothing new.
    fn evaluate(&mut self, design: &PreparedDesign, candidates: &[Candidate]) -> Vec<usize> {
        let t0 = Instant::now();
        let (accepted, outcomes, stats) = validate_batch(
            design,
            &self.lemma_exprs(),
            candidates,
            &self.config.validate,
            self.config.use_houdini,
        );
        self.metrics.proof_time += t0.elapsed();
        self.metrics.solver.absorb(&stats);
        for (i, (candidate, outcome)) in candidates.iter().zip(&outcomes).enumerate() {
            let name = &candidate.name;
            let m = &mut self.metrics;
            let line = match outcome {
                ValidationOutcome::CompileRejected(msg) => {
                    m.rejected_compile += 1;
                    format!("✗ {name}: compile rejected ({msg})")
                }
                ValidationOutcome::FalseByBmc { at } => {
                    m.rejected_false += 1;
                    format!("✗ {name}: disproven by BMC at cycle {at} (hallucinated invariant)")
                }
                ValidationOutcome::NotInductiveAlone if !accepted.contains(&i) => {
                    m.rejected_not_inductive += 1;
                    format!("~ {name}: true-looking but not inductive")
                }
                ValidationOutcome::Unknown(reason) => {
                    m.rejected_not_inductive += 1;
                    format!("? {name}: {reason}")
                }
                _ => continue,
            };
            self.log(format!("  {line}"));
        }
        let mut installed: HashSet<&str> = self.lemmas.iter().map(|l| l.text.as_str()).collect();
        let (fresh, repeats): (Vec<usize>, Vec<usize>) =
            accepted.into_iter().partition(|&i| installed.insert(&candidates[i].text));
        for i in repeats {
            self.log(format!("  = {}: already installed as a lemma", candidates[i].name));
        }
        fresh
    }

    /// Compiles the accepted candidates onto the design (mutating it) and
    /// appends the resulting lemmas.
    fn install(
        &mut self,
        design: &mut PreparedDesign,
        candidates: &[Candidate],
        accepted: &[usize],
    ) {
        for &i in accepted {
            match install_lemma(design, &candidates[i]) {
                Ok(lemma) => {
                    self.log(format!("  ✓ {}: proven, installed as lemma", lemma.name));
                    self.metrics.lemmas_accepted += 1;
                    self.lemmas.push(lemma);
                }
                Err(e) => self.log(format!("  ! {}: install failed: {e}", candidates[i].name)),
            }
        }
    }

    /// A proof session with the accepted lemmas installed.
    fn open<'d>(&self, design: &'d PreparedDesign) -> ProofSession<'d> {
        let mut session = ProofSession::new(&design.ctx, &design.ts, self.config.check.clone());
        session.add_lemmas(&self.lemma_exprs());
        session
    }

    /// Proves `target` under the accepted lemmas on `session`.
    fn prove(&mut self, session: &mut ProofSession<'_>, target: &Target) -> ProveResult {
        let t0 = Instant::now();
        let res = session.prove(&target.prop);
        self.metrics.proof_time += t0.elapsed();
        res
    }

    /// Folds a finished session's reuse counters into the metrics.
    fn close(&mut self, session: ProofSession<'_>) {
        self.metrics.solver.absorb(session.stats());
    }

    /// Settles `target`: the one mapping from a proof result to a
    /// [`TargetOutcome`], and its event line.
    fn settle(&mut self, target: &Target, res: ProveResult, repairs: usize) -> TargetReport {
        let lemmas_used = self.lemmas.len();
        let (line, outcome) = match res {
            ProveResult::Proven { k, .. } => (
                format!(
                    "proven at k={k} after {repairs} repair iteration(s) ({lemmas_used} lemmas)"
                ),
                TargetOutcome::Proven { k, lemmas_used },
            ),
            ProveResult::Falsified { at, .. } => {
                (format!("falsified at cycle {at}"), TargetOutcome::Falsified { at })
            }
            ProveResult::StepFailure { k, trace, .. } => (
                format!("still failing at k={k} after {repairs} repair iteration(s)"),
                TargetOutcome::StillUnproven { k, trace: Box::new(trace) },
            ),
            ProveResult::Unknown { reason, .. } => {
                (format!("unknown: {reason}"), TargetOutcome::Unknown { reason })
            }
        };
        self.log(format!("`{}` {line}", target.name));
        TargetReport { name: target.name.clone(), outcome }
    }

    fn report(
        mut self,
        design: &PreparedDesign,
        model: &str,
        targets: Vec<TargetReport>,
    ) -> FlowReport {
        self.metrics.total_time = self.start.elapsed();
        FlowReport {
            design: design.name.clone(),
            model: model.to_string(),
            targets,
            lemmas: self.lemmas,
            metrics: self.metrics,
            opt: design.opt_stats.clone(),
            events: self.events,
        }
    }
}

/// Runs the paper's Flow 1 (Fig. 1): upfront helper-assertion generation
/// from specification + RTL, then target proofs with the accepted lemmas.
///
/// The model is consulted only where the proof needs it: every target is
/// first proven unaided, as [`run_baseline`] proves it, and if each one is
/// proven or falsified those outcomes are the report, with no LLM call.
/// Otherwise the Fig. 1 prompt covers all targets and every target is
/// proven again under the accepted lemmas; when none was installed the
/// design is unchanged, so the unaided outcomes stand.
pub fn run_flow1(
    mut design: PreparedDesign,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
) -> FlowReport {
    let _span = config.obs().span_with("flow.flow1", || design.name.clone());
    let mut run = Run::new(config, "flow1");
    let targets = run.prove_unaided(&design).unwrap_or_else(|unaided| {
        if run.mine_upfront(&mut design, llm) {
            run.prove_targets(&design)
        } else {
            unaided
        }
    });
    run.report(&design, llm.name(), targets)
}

/// Runs the paper's Flow 2 (Fig. 2): CEX-driven induction repair for every
/// target property.
pub fn run_flow2(
    mut design: PreparedDesign,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
) -> FlowReport {
    let _span = config.obs().span_with("flow.flow2", || design.name.clone());
    let mut run = Run::new(config, "flow2");
    let targets = run.repair_targets(&mut design, llm);
    run.report(&design, llm.name(), targets)
}

/// Runs both flows the way the paper describes using them together
/// ("We utilized both flows"): Flow 1 generates upfront lemmas from the
/// specification and RTL, then Flow 2's CEX-driven repair loop handles any
/// target that still fails its induction step. The returned report carries
/// the union of accepted lemmas and the merged metrics.
///
/// Like [`run_flow1`], it first proves every target unaided and makes no
/// LLM call when each one is proven or falsified.
pub fn run_combined(
    mut design: PreparedDesign,
    llm: &mut dyn LanguageModel,
    config: &FlowConfig,
) -> FlowReport {
    let _span = config.obs().span_with("flow.combined", || design.name.clone());
    let mut run = Run::new(config, "combined");
    let targets = run.prove_unaided(&design).unwrap_or_else(|_| {
        run.mine_upfront(&mut design, llm);
        run.repair_targets(&mut design, llm)
    });
    run.report(&design, llm.name(), targets)
}

/// Baseline: plain k-induction with no GenAI assistance (for the
/// with/without comparisons of experiment E4). Borrows the design, since
/// nothing is installed on it.
pub fn run_baseline(design: &PreparedDesign, config: &FlowConfig) -> FlowReport {
    let _span = config.obs().span_with("flow.baseline", || design.name.clone());
    let mut run = Run::new(config, "baseline");
    let targets = run.prove_targets(design);
    run.report(design, "none (baseline)", targets)
}
