//! # genfv-mc — SAT-based model checker
//!
//! The "formal tool" of the paper's Figs. 1 and 2: bounded model checking
//! ([`bmc`]) and k-induction ([`KInduction`]) over
//! [`genfv_ir::TransitionSystem`]s, built on the `genfv-sat` CDCL solver
//! through the `genfv-ir` bit-blaster.
//!
//! Key capabilities:
//!
//! * **incremental proof sessions** ([`ProofSession`]) — one persistent
//!   pair of solvers per design (a pinned-reset *base* unrolling whose
//!   reset constants fold through every frame, and a free-start *step*
//!   unrolling); environment constraints, lemmas, per-property step
//!   obligations, and caller hypotheses all hang off activation literals,
//!   so BMC base cases, induction steps, and Houdini sweeps are answered
//!   with `solve_with_assumptions` on long-lived clause databases —
//!   frames and learnt clauses survive across candidates, Houdini
//!   rounds, and targets, and retracting a hypothesis is one unit clause
//!   (see [`session`] for the soundness argument);
//! * **one frame encoding per direction** ([`unroll`]) — base frames
//!   DAG-walk with reset pinned, so reset constants fold; step frames are
//!   stamped from a one-time [`genfv_ir::Template`] blast that a
//!   [`SessionSeed`] can share across sessions;
//! * **portfolio-backed queries** ([`CheckConfig::portfolio`]) — any
//!   session query can be answered by racing jittered solver
//!   configurations on clones of the loaded clause database
//!   (`genfv-portfolio`): a solo probe settles easy queries at zero
//!   overhead, the variance-prone tail escalates to a deterministic
//!   first-winner race, and the winner's solver (with the losers' shared
//!   glue clauses) becomes the session's solver for the next query;
//! * **a rebuild-per-query reference engine** ([`rebuild`]) — the
//!   pre-session architecture, DAG-walking every frame, which no library
//!   code runs: the session differential suite checks sessions (stamped
//!   step frames included) and every flow answer against it;
//! * **helper-lemma support** — proven assertions are assumed at every
//!   frame of the step case, exactly how the paper's generated lemmas
//!   accelerate and unblock proofs;
//! * **induction-step counterexamples** ([`TraceKind::InductionStep`]) with
//!   full signal traces, ASCII waveforms ([`render_waveform`]) in the
//!   spirit of the paper's Fig. 3, and VCD export;
//! * per-query conflict budgets for graceful `Unknown` answers.
//!
//! ```
//! use genfv_ir::{Context, TransitionSystem};
//! use genfv_mc::{KInduction, CheckConfig, Property};
//!
//! // count' = count + 1 with init 0: "count1 == count2" style lockstep
//! // properties prove at k=1; see the crate tests for the full paper flow.
//! let mut ctx = Context::new();
//! let c = ctx.symbol("count", 8);
//! let one = ctx.constant(1, 8);
//! let zero = ctx.constant(0, 8);
//! let next = ctx.add(c, one);
//! let mut ts = TransitionSystem::new("counter");
//! ts.add_state(c, Some(zero), next);
//! // Trivial invariant: count == count.
//! let ok = ctx.eq(c, c);
//! let prover = KInduction::new(&ctx, &ts, CheckConfig::default());
//! let result = prover.prove(&Property::new("trivial", ok), &[]);
//! assert!(result.is_proven());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rebuild;
pub mod session;
pub mod trace;
pub mod unroll;
pub mod wave;

pub use engine::{
    bmc, BmcResult, CheckConfig, CheckStats, KInduction, PoolScope, Property, ProveResult,
};
pub use genfv_obs::{Accumulate, Obs, ObsConfig};
pub use genfv_portfolio::{Portfolio, PortfolioConfig, RaceOutcome, WorkerStats};
pub use rebuild::{bmc_rebuild, prove_all_rebuild, prove_rebuild, EngineMode};
pub use session::{ProofSession, SessionSeed, SessionStats};
pub use trace::{read_symbol_cycles, Trace, TraceKind, TraceStep};
pub use unroll::{UnrollMode, Unroller};
pub use wave::{render_final_bits, render_waveform, to_vcd};
