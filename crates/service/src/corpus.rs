//! Synchronous corpus runner: a thin wrapper over the service.
//!
//! [`run_corpus`] builds a [`VerificationService`] from a
//! [`ServiceConfig`], submits one job per design in the config's
//! [`genfv_core::CorpusMode`], and waits for the reports in submission
//! order: index-aligned results, scheduling-independent reports, no model
//! construction in [`genfv_core::CorpusMode::Baseline`].
//!
//! Batching and the warm-session cache stay as configured: corpora with
//! repeated designs get the same speedup service traffic does, and the
//! `service_differential` suite pins that the verdicts are unchanged.

use crate::request::{DesignInput, JobRequest};
use crate::service::{ServiceConfig, VerificationService};
use genfv_core::{FlowReport, PreparedDesign};
use genfv_genai::LanguageModel;

/// Runs `config.mode`'s flow once per prepared design over the service's
/// worker pool.
///
/// `make_llm` builds the language model for job `i`; it is called on the
/// submitting thread (models need not be `Sync`, only `Send`), and not at
/// all in [`genfv_core::CorpusMode::Baseline`]. Results are index-aligned
/// with `designs` regardless of which worker ran what.
///
/// # Panics
/// Panics if a job fails outright (the corpus designs are expected to
/// prepare; submission cannot be rejected because the queue capacity is
/// raised to the corpus size).
pub fn run_corpus<L, F>(
    designs: &[PreparedDesign],
    make_llm: F,
    config: &ServiceConfig,
) -> Vec<FlowReport>
where
    L: LanguageModel + Send + 'static,
    F: Fn(usize) -> L,
{
    if designs.is_empty() {
        return Vec::new();
    }
    let capacity = config.queue_capacity.max(designs.len());
    let service = VerificationService::new(config.clone().with_queue_capacity(capacity));
    let handles: Vec<_> = designs
        .iter()
        .enumerate()
        .map(|(i, design)| {
            let mut request = JobRequest::new(DesignInput::Prepared(Box::new(design.clone())))
                .with_mode(config.mode);
            if config.mode.needs_model() {
                request = request.with_llm(make_llm(i));
            }
            service.submit(request).unwrap_or_else(|r| panic!("corpus submit failed: {r}"))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.wait().unwrap_or_else(|e| panic!("corpus job failed: {e}")).flow)
        .collect()
}
