//! Corpus-level scheduling configuration: many designs, many workers,
//! long-lived sessions.
//!
//! The flows in [`crate::flows`] amortise solver state *within* one
//! design (persistent [`genfv_mc::ProofSession`]s, one session per
//! candidate batch with Houdini on it). Scaling *across* designs — a
//! queue of `(design, targets)` jobs spread over every core — is the job
//! of the **`genfv-service`** crate's `VerificationService`: a bounded
//! submission queue, a persistent worker pool, a design-hash-keyed cache
//! of warm session capital, and request batching. Its synchronous
//! convenience wrapper `genfv_service::run_corpus` (re-exported through
//! the `genfv` facade prelude) is driven by the [`CorpusConfig`] defined
//! here, so there is exactly **one scheduler** in the stack; earlier
//! revisions kept a second, ad-hoc work-stealing pool in this module.
//!
//! This module owns only the *what-to-run* types ([`CorpusMode`],
//! [`CorpusConfig`]) so that `genfv-core` stays free of any dependency
//! on the service layer that executes them.
//!
//! Portfolio note: per-query portfolio racing
//! ([`crate::FlowConfig::with_portfolio`]) composes with corpus
//! scheduling, but both multiply CPU use — keep `workers × portfolio
//! workers` within the machine's core count, or rely on the portfolio's
//! probe to keep the racing occasional.

use crate::flows::FlowConfig;

/// Which flow every corpus job runs.
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

/// Corpus scheduler configuration (executed by `genfv-service`).
///
/// Follows the workspace builder convention (see the [crate
/// docs](crate)): construct with [`Default`], refine with `with_*`.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Worker threads pulling jobs (0 = one per available core, capped by
    /// the job count).
    pub workers: usize,
    /// Flow selection for every job.
    pub mode: CorpusMode,
    /// Flow configuration shared by every job.
    pub flow: FlowConfig,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { workers: 0, mode: CorpusMode::Flow2, flow: FlowConfig::default() }
    }
}

impl CorpusConfig {
    /// This configuration with `workers` threads (0 = one per core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// This configuration with every job running `mode`.
    pub fn with_mode(mut self, mode: CorpusMode) -> Self {
        self.mode = mode;
        self
    }

    /// This configuration with `flow` as every job's flow configuration.
    pub fn with_flow(mut self, flow: FlowConfig) -> Self {
        self.flow = flow;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain() {
        let c = CorpusConfig::default().with_workers(3).with_mode(CorpusMode::Baseline);
        assert_eq!(c.workers, 3);
        assert_eq!(c.mode, CorpusMode::Baseline);
        assert!(!c.mode.needs_model());
        assert!(CorpusMode::Flow2.needs_model());
    }
}
