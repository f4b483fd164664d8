//! Typed job requests, streaming events, and final reports.
//!
//! A [`JobRequest`] names a design ([`DesignInput`]), a flow
//! ([`CorpusMode`]), and optionally a language model; submitting one to a
//! `VerificationService` yields a [`JobHandle`](crate::JobHandle) whose
//! event stream moves through [`JobEvent::Queued`] →
//! [`JobEvent::Started`] → per-target [`JobEvent::TargetVerdict`]s →
//! [`JobEvent::Done`] (or [`JobEvent::Failed`] at any point after
//! `Queued`).

use genfv_core::{CorpusMode, Error, FlowReport, OptStats, PreparedDesign, TargetOutcome};
use genfv_genai::LanguageModel;
use std::fmt;
use std::time::Duration;

/// Opaque identifier of a submitted job, unique per service instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub(crate) u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// The design a job verifies: already-prepared, or raw sources the
/// service worker prepares (and caches) on first sight.
#[derive(Clone, Debug)]
pub enum DesignInput {
    /// An elaborated design; preparation cost already paid by the caller.
    Prepared(Box<PreparedDesign>),
    /// Raw sources; the worker parses/elaborates/compiles them, reporting
    /// failures as [`JobEvent::Failed`] with the typed error.
    Source {
        /// Design name (carried into reports and errors).
        name: String,
        /// RTL source.
        rtl: String,
        /// Natural-language specification (prompt input).
        spec: String,
        /// `(name, sva)` target properties.
        targets: Vec<(String, String)>,
    },
}

/// FNV-1a over a byte string, seeded by `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ 0xff
}

impl DesignInput {
    /// The design name.
    pub fn name(&self) -> &str {
        match self {
            DesignInput::Prepared(d) => &d.name,
            DesignInput::Source { name, .. } => name,
        }
    }

    /// Content hash over name, RTL, spec, and target texts — the session
    /// cache key. Both variants hash the same fields, so submitting a
    /// design as [`DesignInput::Source`] and later as
    /// [`DesignInput::Prepared`] (or vice versa) hits the same cache
    /// entry.
    pub fn design_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        match self {
            DesignInput::Prepared(d) => {
                h = fnv(h, d.name.as_bytes());
                h = fnv(h, d.rtl.as_bytes());
                h = fnv(h, d.spec.as_bytes());
                for t in &d.targets {
                    h = fnv(h, t.name.as_bytes());
                    h = fnv(h, t.sva.as_bytes());
                }
            }
            DesignInput::Source { name, rtl, spec, targets } => {
                h = fnv(h, name.as_bytes());
                h = fnv(h, rtl.as_bytes());
                h = fnv(h, spec.as_bytes());
                for (tn, sva) in targets {
                    h = fnv(h, tn.as_bytes());
                    h = fnv(h, sva.as_bytes());
                }
            }
        }
        h
    }
}

/// A typed verification request.
///
/// Follows the workspace builder convention: [`JobRequest::new`] for the
/// default (Flow 2, no model), then `with_*` refinements. GenAI modes
/// ([`CorpusMode::needs_model`]) must attach a model with
/// [`JobRequest::with_llm`] or submission fails with
/// `ServiceError::NoModel`.
pub struct JobRequest {
    /// The design to verify.
    pub design: DesignInput,
    /// Which flow to run.
    pub mode: CorpusMode,
    /// Language model for GenAI flows (`None` for `Baseline`).
    pub llm: Option<Box<dyn LanguageModel + Send>>,
}

impl JobRequest {
    /// A Flow-2 request for `design` with no model attached yet.
    pub fn new(design: DesignInput) -> Self {
        JobRequest { design, mode: CorpusMode::Flow2, llm: None }
    }

    /// This request running `mode` instead.
    pub fn with_mode(mut self, mode: CorpusMode) -> Self {
        self.mode = mode;
        self
    }

    /// This request prompting `llm` (required for GenAI modes).
    pub fn with_llm(mut self, llm: impl LanguageModel + Send + 'static) -> Self {
        self.llm = Some(Box::new(llm));
        self
    }
}

impl fmt::Debug for JobRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobRequest")
            .field("design", &self.design.name())
            .field("mode", &self.mode)
            .field("llm", &self.llm.as_ref().map(|l| l.name().to_string()))
            .finish()
    }
}

/// One element of a job's streamed event sequence.
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// The job entered the submission queue.
    Queued {
        /// The job.
        job: JobId,
        /// Queue depth right after enqueue (this job included).
        depth: usize,
    },
    /// A worker picked the job up.
    Started {
        /// The job.
        job: JobId,
        /// The job was drained alongside an earlier same-design job and
        /// runs on that job's hot session capital.
        batched: bool,
        /// The design's warm-session capital was already cached.
        cache_hit: bool,
    },
    /// One target finished.
    TargetVerdict {
        /// The job.
        job: JobId,
        /// Target property name.
        target: String,
        /// The verdict.
        outcome: TargetOutcome,
    },
    /// The job finished; terminal.
    Done {
        /// The job.
        job: JobId,
        /// The full report (also returned by `JobHandle::wait`).
        report: Box<JobReport>,
    },
    /// The job failed before producing a report; terminal.
    Failed {
        /// The job.
        job: JobId,
        /// What went wrong.
        error: Error,
    },
}

impl JobEvent {
    /// Whether this event ends the job's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobEvent::Done { .. } | JobEvent::Failed { .. })
    }
}

/// Final result of a completed job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Design name.
    pub design: String,
    /// Cache key of the design (see [`DesignInput::design_hash`]).
    pub design_hash: u64,
    /// The flow's own report (verdicts, lemmas, metrics, event log).
    pub flow: FlowReport,
    /// The design's warm-session capital was already cached when the job
    /// started.
    pub cache_hit: bool,
    /// The job ran batched behind an earlier same-design job.
    pub batched: bool,
    /// Time spent waiting in the submission queue.
    pub queue_wait: Duration,
    /// Time spent running the flow.
    pub run_time: Duration,
    /// Per-job trace and metrics snapshot, present when the service runs
    /// with observability on ([`crate::ServiceConfig::with_obs`]): the
    /// job's span tree down to individual `solve.*` calls, exportable as
    /// Chrome `trace_event` JSON via [`genfv_obs::ObsReport::chrome_json`].
    pub obs: Option<genfv_obs::ObsReport>,
}

impl JobReport {
    /// What the prepare-time netlist optimization pipeline did to this
    /// job's design — node counts before/after, per-stage counts (rewrites,
    /// chains rebalanced, register pairs proved and merged), states dropped by
    /// stuck-at folding and cone-of-influence reduction. Shorthand for
    /// `self.flow.opt`.
    pub fn opt(&self) -> &OptStats {
        &self.flow.opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_content_keyed_across_variants() {
        let src = DesignInput::Source {
            name: "counter".into(),
            rtl: "module counter (input clk, rst, output logic [7:0] c);\n  always_ff @(posedge clk) begin\n    if (rst) c <= '0; else c <= c + 8'd1;\n  end\nendmodule\n".into(),
            spec: "a counter".into(),
            targets: vec![("t".into(), "c == c".into())],
        };
        let DesignInput::Source { name, rtl, spec, targets } = src.clone() else { unreachable!() };
        let prepared = DesignInput::Prepared(Box::new(
            PreparedDesign::new(name, rtl, spec, &targets).unwrap(),
        ));
        assert_eq!(src.design_hash(), prepared.design_hash());

        let other = DesignInput::Source {
            name: "counter2".into(),
            rtl: String::new(),
            spec: String::new(),
            targets: vec![],
        };
        assert_ne!(src.design_hash(), other.design_hash());
    }

    #[test]
    fn request_builders_chain() {
        let req = JobRequest::new(DesignInput::Source {
            name: "x".into(),
            rtl: String::new(),
            spec: String::new(),
            targets: vec![],
        })
        .with_mode(CorpusMode::Baseline);
        assert_eq!(req.mode, CorpusMode::Baseline);
        assert!(req.llm.is_none());
        assert!(format!("{req:?}").contains("\"x\""));
    }
}
