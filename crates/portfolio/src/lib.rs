//! # genfv-portfolio — raced solver configurations over cloned clause
//! databases
//!
//! SAT step queries dominate the wall clock of the GenAI-augmented
//! verification flows, and their cost is *noisy*: identical CNF explored
//! under slightly different heuristics shows 5-10× conflict swings on
//! parity-style obligations. This crate turns that variance from a tax
//! into an asset: a [`Portfolio`] clones a loaded [`genfv_sat::Solver`]
//! (a flat memcpy of the clause arena — no re-encoding) into N workers,
//! gives each clone a deterministically-jittered
//! [`genfv_sat::SolverConfig`] (`var_decay`, `restart_base`, restart
//! policy, phase jitter — see [`worker_config`]), races them on the same
//! assumption query, and keeps the first worker to finish.
//!
//! ## Soundness of the clause-database clone
//!
//! Every worker starts from a byte-identical clone of the parent's clause
//! database, so all workers decide the *same formula*; SAT/UNSAT answers
//! are therefore interchangeable, and any model or assumption core the
//! winner reports is valid for the parent. Clauses a worker *learns*
//! during the race are derived by resolution from clauses already in its
//! database — they are logical consequences of the shared formula,
//! independent of the assumptions in force — so importing a sibling's
//! learnt glue clauses ([`genfv_sat::Solver::import_learnt`]) into the
//! winner before it replaces the parent preserves equivalence while
//! carrying every worker's discoveries forward to the next query.
//!
//! ## Scheduling disciplines
//!
//! * **Probe first** ([`PortfolioConfig::probe_conflicts`]): the parent
//!   solver runs the query alone under a small conflict budget. Most
//!   queries finish inside the probe, costing *zero* overhead versus a
//!   single solver; only queries that blow the budget — exactly the
//!   variance-prone tail the portfolio exists for — are raced.
//! * **Deterministic epochs**: the workers run one after another on the
//!   caller's thread, each for one conflict-budget epoch at a time, and
//!   the budget grows geometrically between epochs
//!   ([`PortfolioConfig::epoch_start`], [`PortfolioConfig::epoch_growth`]).
//!   Each epoch visits the workers in order of least conflicts spent so
//!   far (ties to the lowest index), and the first worker to reach a
//!   verdict wins. No thread is spawned, so fixed seeds give
//!   bit-reproducible winner statistics — and a reproducible solver
//!   state for every query that follows.
//!
//! ## Picking worker counts
//!
//! Workers multiply CPU use for the raced queries only. 3-4 workers
//! capture most of the variance win (the jitter table cycles through the
//! highest-leverage knobs first); beyond ~6 the marginal worker mostly
//! duplicates an existing configuration's behaviour. The ladder never
//! adds a thread, so a portfolio is safe inside an already-parallel
//! stage such as the service's worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod race;

pub use race::{worker_config, Portfolio, PortfolioConfig, RaceOutcome, WorkerStats};
