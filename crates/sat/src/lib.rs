//! # genfv-sat — a from-scratch CDCL SAT solver
//!
//! This crate implements the complete boolean-satisfiability engine that the
//! rest of the `genfv` stack (bit-blaster, bounded model checker, k-induction
//! engine) is built on. It is a conflict-driven clause-learning (CDCL) solver
//! in the MiniSat lineage:
//!
//! * two-watched-literal propagation,
//! * first-UIP conflict analysis with clause minimisation,
//! * exponential VSIDS activity with on-the-fly rescaling,
//! * phase saving,
//! * Luby-sequence restarts,
//! * glue-(LBD-)based learnt-clause database reduction,
//! * incremental solving under assumptions with final-conflict
//!   (unsat-core-over-assumptions) extraction,
//! * activation-literal helpers ([`ActivationGroup`]) for guarding and
//!   retracting hypotheses on a long-lived solver without losing learnt
//!   clauses — the substrate of the model checker's incremental proof
//!   sessions.
//!
//! The public entry point is [`Solver`]. Variables are created with
//! [`Solver::new_var`], clauses added with [`Solver::add_clause`], and
//! satisfiability queried with [`Solver::solve`] or
//! [`Solver::solve_with_assumptions`].
//!
//! ```
//! use genfv_sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) — forces b
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(Lit::pos(b)), Some(true));
//! ```
//!
//! A DIMACS CNF parser is provided in [`dimacs`] for tests and tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assume;
pub mod clause;
pub mod dimacs;
pub mod lit;
pub mod solver;
pub mod tseitin;

pub use assume::ActivationGroup;
pub use clause::{Clause, ClauseBlock, ClauseRef};
pub use lit::{Lit, Var};
pub use solver::{QueryEffort, RestartPolicy, SolveResult, Solver, SolverConfig, SolverStats};
pub use tseitin::CnfBuilder;
