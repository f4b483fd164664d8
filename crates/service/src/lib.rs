//! # genfv-service — verification as a service
//!
//! A front end that turns the `genfv-core` flows into a long-running
//! service: callers submit typed [`JobRequest`]s and get back
//! [`JobHandle`]s that stream [`JobEvent`]s and resolve to a final
//! [`JobReport`] — instead of calling a flow function and blocking.
//!
//! ```text
//!  submit / try_submit          workers (persistent threads)
//!  ┌──────────────┐   ┌─────────────────────────────────────────┐
//!  │ bounded queue│──▶│ batcher: drain co-pending same-design   │
//!  │ (backpressure│   │ jobs behind one leader                  │
//!  │  = QueueFull)│   │   │                                     │
//!  └──────────────┘   │   ▼                                     │
//!                     │ design cache (LRU): PreparedDesign +    │
//!                     │ SessionSeed (template, clean depths)    │
//!                     │   │                                     │
//!                     │   ▼                                     │
//!                     │ run flow on warm sessions ──▶ events,   │
//!                     │ JobReport; seed republished on drop     │
//!                     └─────────────────────────────────────────┘
//! ```
//!
//! **Why a service, not a function call?** The paper's workload is
//! repeat traffic: the same design comes back with a tweaked spec, a new
//! target, another model, or simply again (CI). Almost all of the cost
//! of a small verification job is *capital* — parsing/elaborating the
//! RTL, bit-blasting the transition template, discharging base cases —
//! and all of it is reusable across requests for the same design. The
//! service keeps that capital in a design-hash-keyed LRU cache
//! ([`ServiceConfig::with_cache_entries`] /
//! [`ServiceConfig::with_cache_bytes`]) and batches co-pending
//! same-design jobs onto one worker, so repeat traffic starts warm:
//! sessions adopt the cached `genfv_mc::SessionSeed`, reuse its
//! transition template, and skip base cases already proven clean. The
//! `e0_ledger` benchmark's `baseline_repeat` workload measures the effect
//! (`service.cache_hit_frac`); the `service_differential` suite pins that
//! verdicts never change.
//!
//! **Backpressure is typed.** The submission queue is bounded:
//! [`VerificationService::try_submit`] rejects over-capacity requests
//! with [`genfv_core::ServiceError::QueueFull`] (handing the request
//! back), [`VerificationService::submit`] blocks instead. All failures
//! — rejection, preparation errors, worker loss — surface as
//! [`genfv_core::Error`] values, never panics in the caller.
//!
//! [`run_corpus`] is the synchronous convenience wrapper: one job per
//! design under a [`ServiceConfig`], reports in submission order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod corpus;
mod request;
mod service;

pub use cache::CacheEntry;
pub use corpus::run_corpus;
pub use request::{DesignInput, JobEvent, JobId, JobReport, JobRequest};
pub use service::{JobHandle, ServiceConfig, ServiceStats, SubmitRejected, VerificationService};

pub use genfv_core::CorpusMode;
pub use genfv_obs::{Accumulate, Obs, ObsConfig, ObsReport};
