//! Property checking: bounded model checking and k-induction.
//!
//! This module is the "formal tool" box of the paper's Figs. 1 and 2. The
//! two entry points are [`bmc`] (find shallow bugs / sanity-check candidate
//! lemmas) and [`KInduction::prove`] (unbounded proof with helper-lemma
//! support). An inductive-step failure returns the counterexample trace
//! that Flow 2 renders into the LLM prompt.

use crate::trace::Trace;
use genfv_ir::{Context, ExprRef, TransitionSystem};
use std::time::Duration;

/// A property to check: a named 1-bit "ok every cycle" expression
/// (typically produced by `genfv-sva`).
#[derive(Clone, Debug)]
pub struct Property {
    /// Property name for reports and traces.
    pub name: String,
    /// 1-bit expression that must hold in every reachable state.
    pub ok: ExprRef,
}

impl Property {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ok: ExprRef) -> Self {
        Property { name: name.into(), ok }
    }
}

/// Aggregated solver effort for one check.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// SAT conflicts consumed.
    pub conflicts: u64,
    /// SAT decisions consumed.
    pub decisions: u64,
    /// Propagations consumed.
    pub propagations: u64,
    /// Individual solver queries issued.
    pub solver_calls: u64,
    /// Wall-clock time.
    pub duration: Duration,
}

/// Result of a bounded model-checking run.
#[derive(Clone, Debug)]
pub enum BmcResult {
    /// No violation within the bound.
    Clean {
        /// The bound that was fully explored.
        depth: usize,
        /// Solver effort.
        stats: CheckStats,
    },
    /// A reachable violation was found.
    Falsified {
        /// Cycle at which the violation completes.
        at: usize,
        /// The witness trace from reset.
        trace: Trace,
        /// Solver effort.
        stats: CheckStats,
    },
}

impl BmcResult {
    /// Whether no violation was found.
    pub fn is_clean(&self) -> bool {
        matches!(self, BmcResult::Clean { .. })
    }
}

/// Result of a k-induction proof attempt.
#[derive(Clone, Debug)]
pub enum ProveResult {
    /// The property holds in all reachable states; proven inductive at
    /// depth `k` (with the lemmas that were supplied).
    Proven {
        /// Induction depth at which the step succeeded.
        k: usize,
        /// Solver effort.
        stats: CheckStats,
    },
    /// A real counterexample from reset (base-case failure).
    Falsified {
        /// Cycle of the violation.
        at: usize,
        /// Witness trace.
        trace: Trace,
        /// Solver effort.
        stats: CheckStats,
    },
    /// Every induction depth up to the configured maximum failed its step;
    /// the deepest step counterexample is returned — this is the artefact
    /// the paper's Flow 2 sends to the LLM.
    StepFailure {
        /// The depth of the reported step counterexample.
        k: usize,
        /// The inductive-step counterexample (arbitrary start state).
        trace: Trace,
        /// Solver effort.
        stats: CheckStats,
    },
    /// A resource budget expired.
    Unknown {
        /// What ran out.
        reason: String,
        /// Solver effort.
        stats: CheckStats,
    },
}

impl ProveResult {
    /// Whether the property was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, ProveResult::Proven { .. })
    }

    /// The stats of whichever outcome occurred.
    pub fn stats(&self) -> &CheckStats {
        match self {
            ProveResult::Proven { stats, .. }
            | ProveResult::Falsified { stats, .. }
            | ProveResult::StepFailure { stats, .. }
            | ProveResult::Unknown { stats, .. } => stats,
        }
    }
}

/// Configuration for [`KInduction`] and [`bmc`].
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Maximum induction depth to attempt.
    pub max_k: usize,
    /// Conflict budget per solver query (`None` = unlimited; in portfolio
    /// mode the budget caps each racing worker).
    pub conflict_budget: Option<u64>,
    /// When set, every session query is answered by portfolio racing:
    /// the loaded clause database is cloned across jittered worker
    /// configurations and the first winner's solver replaces the
    /// session's (see [`genfv_portfolio`]). `None` (the default) keeps
    /// the plain single-solver discipline.
    pub portfolio: Option<genfv_portfolio::PortfolioConfig>,
    /// Warm-start capital shared across sessions over one design (see
    /// [`crate::session::SessionSeed`]): the template and clean depths
    /// of the `genfv-service` session cache. Sessions adopt the
    /// seed only when its fingerprint matches the design they are built
    /// for, so a stale handle is inert rather than unsound. `None` (the
    /// default) starts every session cold.
    pub seed: Option<std::sync::Arc<crate::session::SessionSeed>>,
    /// Ignored; kept because `e0_ledger` names it; delete with the next
    /// benchmark change.
    pub clause_pool: PoolScope,
    /// Observability handle threaded into every session solver this
    /// config creates: spans (`prove`, `session.extend.*`, `solve.*`)
    /// and per-query-kind metrics are recorded into it. The default
    /// [`genfv_obs::Obs::off`] handle costs one branch per span.
    pub obs: genfv_obs::Obs,
}

/// The type of [`CheckConfig::clause_pool`]. Ignored; kept because
/// `e0_ledger` names it; delete with the next benchmark change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolScope {
    /// The only value: no learnt clause crosses a session boundary.
    #[default]
    Off,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_k: 10,
            conflict_budget: None,
            portfolio: None,
            seed: None,
            clause_pool: PoolScope::default(),
            obs: genfv_obs::Obs::off(),
        }
    }
}

/// Bounded model checking of `property` (plus always-assumed `lemmas`) up
/// to `depth` cycles from reset.
///
/// Lemmas are *assumed* at every cycle — callers must only pass lemmas that
/// are themselves proven (or are being sanity-checked, as in candidate
/// validation where a `Falsified` answer is the useful signal).
///
/// This is the one-shot convenience form: it builds a throwaway
/// [`crate::session::ProofSession`] for the single check. Callers with more
/// than one query per design should hold a session themselves and call
/// [`crate::session::ProofSession::bmc_check`] so the bit-blast and the learnt
/// clauses amortise.
pub fn bmc(
    ctx: &Context,
    ts: &TransitionSystem,
    property: &Property,
    lemmas: &[ExprRef],
    depth: usize,
    config: &CheckConfig,
) -> BmcResult {
    let mut session = crate::session::ProofSession::new(ctx, ts, config.clone());
    session.add_lemmas(lemmas);
    session.bmc_check(property, depth)
}

/// K-induction prover with helper-lemma support.
///
/// The step case assumes, at every frame, the environment constraints, the
/// supplied lemmas, and the property itself at frames `0..k`; it then asks
/// whether the property can fail at frame `k`. The base case is plain BMC
/// over `k` frames. This is the classic strengthened-induction scheme the
/// paper builds on (Section II-A).
#[derive(Debug)]
pub struct KInduction<'c> {
    ctx: &'c Context,
    ts: &'c TransitionSystem,
    config: CheckConfig,
}

impl<'c> KInduction<'c> {
    /// Creates a prover for one design.
    pub fn new(ctx: &'c Context, ts: &'c TransitionSystem, config: CheckConfig) -> Self {
        KInduction { ctx, ts, config }
    }

    /// Attempts to prove `property` invariant, assuming `lemmas` (which
    /// must already be proven invariants — see [`bmc`] for the validation
    /// path used by the GenAI flows before lemmas get here).
    ///
    /// One-shot convenience over [`crate::session::ProofSession::prove`]; the
    /// base and step cases share a single persistent solver through the
    /// session's persistent base and step unrollings.
    pub fn prove(&self, property: &Property, lemmas: &[ExprRef]) -> ProveResult {
        let mut session = crate::session::ProofSession::new(self.ctx, self.ts, self.config.clone());
        session.add_lemmas(lemmas);
        session.prove(property)
    }
}

impl KInduction<'_> {
    /// Proves a batch of properties with chained assume-guarantee: the
    /// properties are attempted in order and every *proven* property is
    /// assumed (as an additional lemma) for the later ones — the way
    /// commercial property databases exploit already-closed assertions.
    ///
    /// The whole batch runs on **one** incremental session: every proof
    /// reuses the frames and learnt clauses of its predecessors, and each
    /// newly proven property is installed as a session lemma.
    ///
    /// Returns one [`ProveResult`] per property, index-aligned. Sound:
    /// only proven properties join the assumption set.
    pub fn prove_all(&self, properties: &[Property], lemmas: &[ExprRef]) -> Vec<ProveResult> {
        let mut session = crate::session::ProofSession::new(self.ctx, self.ts, self.config.clone());
        session.add_lemmas(lemmas);
        let mut results = Vec::with_capacity(properties.len());
        for prop in properties {
            let res = session.prove(prop);
            if res.is_proven() {
                session.add_lemma(prop.ok);
            }
            results.push(res);
        }
        results
    }
}
