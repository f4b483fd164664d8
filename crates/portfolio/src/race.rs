//! The portfolio scheduler: probe, clone, race, share, swap back.

use genfv_obs::{Counter, Obs, QueryKind};
use genfv_sat::{Lit, QueryEffort, RestartPolicy, SolveResult, Solver, SolverConfig};

/// Portfolio scheduling knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioConfig {
    /// Worker solvers racing each query (clamped to at least 1; 1 is the
    /// degenerate single-solver case). Worker 0 always keeps the parent
    /// configuration, so a portfolio can never lose a verdict a single
    /// solver would have reached.
    pub workers: usize,
    /// Master seed: every worker's configuration jitter (and its phase
    /// scramble) is a pure function of `(seed, worker)`.
    pub seed: u64,
    /// Run the parent alone under this conflict budget before cloning
    /// anything. Queries that finish inside the probe pay zero portfolio
    /// overhead; only the heavy tail is raced. `None` races every query.
    pub probe_conflicts: Option<u64>,
    /// First epoch's per-worker conflict budget.
    pub epoch_start: u64,
    /// Multiplier applied to the epoch budget after each winnerless
    /// epoch.
    pub epoch_growth: u64,
    /// Ignored since cube-and-conquer was removed; kept because `e0_ledger`
    /// sets it; delete with the next benchmark change.
    pub cube_depth: u32,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        // Calibrated on the genfv corpus by the retired e9 harness: the
        // probe keeps light queries race-free; two ladder workers with a
        // 16k first epoch bound the overshoot on the heavy tail they
        // rescue. `portfolio_differential.rs` pins the verdicts; the
        // `e0_ledger` `deep_induction` workload times racing end to end.
        PortfolioConfig {
            workers: 2,
            seed: 0x5EED_0F0E,
            probe_conflicts: Some(2000),
            epoch_start: 16000,
            epoch_growth: 4,
            cube_depth: 0,
        }
    }
}

/// Maximum literal-block distance of the losers' learnt clauses that are
/// imported into the winner after a race.
const GLUE_LBD_MAX: u32 = 3;
/// Cap on glue clauses imported per race.
const GLUE_IMPORT_LIMIT: usize = 512;

/// Per-worker jitter tables: the highest-leverage knobs first, so small
/// portfolios still cover the interesting heuristic axes.
const VAR_DECAYS: [f64; 5] = [0.85, 0.99, 0.92, 0.75, 0.95];
const RESTART_BASES: [u64; 5] = [32, 256, 64, 512, 128];

fn splitmix(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The configuration raced by `worker` under master seed `seed`.
/// Worker 0 is always the unmodified `base`; higher workers cycle
/// through `var_decay` / `restart_base` variations, alternate Luby and
/// geometric restarts, and receive a deterministic phase scramble.
pub fn worker_config(base: &SolverConfig, seed: u64, worker: usize) -> SolverConfig {
    if worker == 0 {
        return base.clone();
    }
    let slot = (worker - 1) % VAR_DECAYS.len();
    SolverConfig {
        var_decay: VAR_DECAYS[slot],
        restart_base: RESTART_BASES[slot],
        restart_policy: if worker.is_multiple_of(2) {
            RestartPolicy::Geometric { factor: 1.3 }
        } else {
            RestartPolicy::Luby
        },
        phase_jitter_seed: Some(splitmix(seed, worker)),
        ..base.clone()
    }
}

/// Solver effort one worker spent inside one race.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0 = the parent configuration).
    pub worker: usize,
    /// Conflicts spent during the race (probe included for worker 0).
    pub conflicts: u64,
    /// Decisions spent during the race.
    pub decisions: u64,
    /// Propagations spent during the race.
    pub propagations: u64,
}

/// What one [`Portfolio::race`] call did and found.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceOutcome {
    /// The verdict (identical to what any single worker would conclude;
    /// `Unknown` only when the caller's conflict budget expired on every
    /// worker).
    pub result: SolveResult,
    /// Whether worker clones were actually raced (`false` when the probe
    /// settled the query solo).
    pub raced: bool,
    /// The winning worker's effort; the winner's solver replaced the
    /// parent, so its model/core are what the caller reads.
    pub winner: WorkerStats,
    /// Lock-step epochs executed (0 for probe-settled queries).
    pub epochs: u64,
    /// Workers that reached a verdict.
    pub finishers: usize,
    /// Glue clauses imported into the winner from the losers.
    pub glue_imported: usize,
    /// Conflicts spent across all workers (probe included) — the total
    /// CPU price paid for the query.
    pub conflicts_total: u64,
}

fn baseline(s: &Solver) -> QueryEffort {
    s.stats().effort()
}

fn spent_since(s: &Solver, b: QueryEffort) -> WorkerStats {
    let spent = s.stats().effort().since(b);
    WorkerStats {
        worker: 0,
        conflicts: spent.conflicts,
        decisions: spent.decisions,
        propagations: spent.propagations,
    }
}

/// The portfolio scheduler. Stateless apart from its configuration: each
/// [`Portfolio::race`] call clones the caller's solver, races the clones,
/// and installs the winner back into the caller's slot.
#[derive(Clone, Debug, Default)]
pub struct Portfolio {
    config: PortfolioConfig,
}

impl Portfolio {
    /// A scheduler with the given configuration.
    pub fn new(config: PortfolioConfig) -> Self {
        Portfolio { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Answers `solve_with_assumptions(assumptions)` on `solver` by
    /// portfolio racing. On return, `solver` holds the winning worker's
    /// state (restored to its original configuration): its model or
    /// assumption core is readable exactly as after a plain solve, and
    /// its learnt clauses — plus the losers' shared glue — persist for
    /// the next query. `budget` caps the conflicts *each* worker may
    /// spend (the single-solver per-query budget semantics); when every
    /// worker exhausts it the result is [`SolveResult::Unknown`].
    pub fn race(
        &self,
        solver: &mut Solver,
        assumptions: &[Lit],
        budget: Option<u64>,
    ) -> RaceOutcome {
        let workers = self.config.workers.max(1);
        let base0 = baseline(solver);
        let obs = solver.obs().clone();
        let session_kind = solver.query_kind();

        // --- degenerate single-worker portfolio: plain solve -------------
        if workers == 1 {
            if let Some(b) = budget {
                solver.set_conflict_budget(b);
            }
            let result = solver.solve_with_assumptions(assumptions);
            let winner = spent_since(solver, base0);
            return RaceOutcome {
                result,
                raced: false,
                winner,
                epochs: 0,
                finishers: usize::from(result != SolveResult::Unknown),
                glue_imported: 0,
                conflicts_total: winner.conflicts,
            };
        }

        // --- probe: run the parent alone under a small budget ------------
        if let Some(probe) = self.config.probe_conflicts {
            let cap = budget.map_or(probe, |b| probe.min(b));
            let probe_span = obs.span("portfolio.probe");
            solver.set_conflict_budget(cap);
            solver.set_query_kind(QueryKind::Probe);
            let result = solver.solve_with_assumptions(assumptions);
            solver.set_query_kind(session_kind);
            probe_span.end();
            let spent = spent_since(solver, base0);
            let exhausted = budget.is_some_and(|b| spent.conflicts >= b);
            if result != SolveResult::Unknown || exhausted {
                return RaceOutcome {
                    result,
                    raced: false,
                    winner: spent,
                    epochs: 0,
                    finishers: usize::from(result != SolveResult::Unknown),
                    glue_imported: 0,
                    conflicts_total: spent.conflicts,
                };
            }
        }

        let _race_span = obs.span("portfolio.race");
        obs.add(Counter::Races, 1);

        // --- clone the loaded clause database across the pool ------------
        let base_config = solver.config().clone();
        let mark = solver.clause_db_mark();
        let parent = std::mem::take(solver);
        let mut pool: Vec<Solver> = Vec::with_capacity(workers);
        pool.push(parent);
        for w in 1..workers {
            pool.push(pool[0].clone_with_config(worker_config(&base_config, self.config.seed, w)));
        }
        // Per-worker baselines: clones inherit the parent's cumulative
        // stats, so each baseline is taken on the clone itself. Worker 0
        // is charged for the probe by reusing the pre-probe baseline.
        let mut baselines: Vec<QueryEffort> = pool.iter().map(baseline).collect();
        baselines[0] = base0;

        let (winner_idx, result, epochs, finishers) =
            self.race_epochs(&mut pool, &baselines, assumptions, budget, &obs);

        // --- share the losers' fresh glue into the winner -----------------
        let mut glue: Vec<Vec<Lit>> = Vec::new();
        for (i, s) in pool.iter().enumerate() {
            if i == winner_idx {
                continue;
            }
            let room = GLUE_IMPORT_LIMIT.saturating_sub(glue.len());
            if room == 0 {
                break;
            }
            glue.extend(s.export_glue_since(mark, GLUE_LBD_MAX, room));
        }
        for clause in &glue {
            pool[winner_idx].import_learnt(clause);
        }

        // --- install the winner back into the caller's slot ---------------
        let conflicts_total: u64 =
            pool.iter().zip(&baselines).map(|(s, &b)| spent_since(s, b).conflicts).sum();
        let mut winner = spent_since(&pool[winner_idx], baselines[winner_idx]);
        winner.worker = winner_idx;
        *solver = pool.swap_remove(winner_idx);
        solver.reconfigure(base_config);
        RaceOutcome {
            result,
            raced: true,
            winner,
            epochs,
            finishers,
            glue_imported: glue.len(),
            conflicts_total,
        }
    }

    /// The race itself: a sequential conflict-budget ladder. Each epoch
    /// visits the workers in order of least conflicts spent so far (ties
    /// to the lowest index — the jittered clones run before the
    /// probe-warmed parent), gives each up to the epoch budget, and stops
    /// at the *first* finisher. Everything — winner identity, winner
    /// statistics, and every loser's solver state — is a pure function of
    /// the worker configurations, so fixed seeds reproduce races bit for
    /// bit on any machine. The ladder also never oversubscribes the CPU:
    /// racing costs at most one epoch-round more than the winner's own
    /// search, which is what makes portfolio mode safe to enable inside
    /// already-parallel stages (and on small machines).
    fn race_epochs(
        &self,
        pool: &mut [Solver],
        baselines: &[QueryEffort],
        assumptions: &[Lit],
        budget: Option<u64>,
        obs: &Obs,
    ) -> (usize, SolveResult, u64, usize) {
        let mut epoch_budget = self.config.epoch_start.max(1);
        let mut epochs = 0u64;
        loop {
            epochs += 1;
            let _epoch_span = obs.span_with("portfolio.epoch", || format!("budget={epoch_budget}"));
            let mut order: Vec<usize> = (0..pool.len()).collect();
            order.sort_by_key(|&i| (spent_since(&pool[i], baselines[i]).conflicts, i));
            let mut any_ran = false;
            for &i in &order {
                let remaining = match budget {
                    Some(total) => {
                        total.saturating_sub(spent_since(&pool[i], baselines[i]).conflicts)
                    }
                    None => u64::MAX,
                };
                if remaining == 0 {
                    continue;
                }
                any_ran = true;
                pool[i].set_conflict_budget(epoch_budget.min(remaining));
                let r = pool[i].solve_with_assumptions(assumptions);
                if r != SolveResult::Unknown {
                    return (i, r, epochs, 1);
                }
            }
            if !any_ran {
                return (0, SolveResult::Unknown, epochs, 0);
            }
            epoch_budget = epoch_budget.saturating_mul(self.config.epoch_growth.max(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_sat::Lit;

    /// PHP(n, n-1): hard UNSAT with plenty of variance across configs.
    fn pigeonhole(s: &mut Solver, n: usize) {
        let mut p = vec![vec![Lit::UNDEF; n - 1]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.clone());
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (&a, &b) in row_i.iter().zip(row_j) {
                    s.add_clause([!a, !b]);
                }
            }
        }
    }

    fn race_config() -> PortfolioConfig {
        PortfolioConfig {
            workers: 3,
            probe_conflicts: Some(8),
            epoch_start: 64,
            ..PortfolioConfig::default()
        }
    }

    #[test]
    fn probe_settles_easy_queries_without_cloning() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        s.add_clause([a]);
        let out = Portfolio::new(PortfolioConfig::default()).race(&mut s, &[], None);
        assert_eq!(out.result, SolveResult::Sat);
        assert!(!out.raced, "trivial query must not spawn workers");
        assert_eq!(s.value(a), Some(true), "model readable on the caller's solver");
    }

    #[test]
    fn race_reaches_the_single_solver_verdict() {
        let mut single = Solver::new();
        pigeonhole(&mut single, 7);
        let mut raced = single.clone();
        assert!(single.solve().is_unsat());
        let out = Portfolio::new(race_config()).race(&mut raced, &[], None);
        assert_eq!(out.result, SolveResult::Unsat);
        assert!(out.raced, "PHP(7,6) blows an 8-conflict probe");
        assert!(out.finishers >= 1);
    }

    #[test]
    fn sat_race_leaves_a_readable_model() {
        let mut s = Solver::new();
        // Hard-ish satisfiable: PHP(7,6) relaxed by one extra hole var
        // per pigeon is overkill; use an unconstrained wide XOR ladder.
        let vars: Vec<Lit> = (0..64).map(|_| Lit::pos(s.new_var())).collect();
        for w in vars.windows(2) {
            s.add_clause([w[0], w[1]]);
            s.add_clause([!w[0], !w[1]]);
        }
        let cfg = PortfolioConfig { probe_conflicts: None, ..race_config() };
        let out = Portfolio::new(cfg).race(&mut s, &[], None);
        assert_eq!(out.result, SolveResult::Sat);
        let m: Vec<bool> = vars.iter().map(|&l| s.value(l).expect("assigned")).collect();
        for w in m.windows(2) {
            assert_ne!(w[0], w[1], "model must satisfy the alternation chain");
        }
    }

    #[test]
    fn assumption_core_survives_the_swap() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let c = Lit::pos(s.new_var());
        s.add_clause([!a, c]);
        s.add_clause([!b, !c]);
        pigeonhole(&mut s, 6); // padding so the race actually races
        let cfg = PortfolioConfig { probe_conflicts: None, ..race_config() };
        let out = Portfolio::new(cfg).race(&mut s, &[a, b], None);
        assert_eq!(out.result, SolveResult::Unsat);
        let core = s.last_core();
        assert!(core.contains(&a) || core.contains(&b), "core readable after swap: {core:?}");
    }

    #[test]
    fn deterministic_mode_reproduces_winner_stats() {
        let run = || {
            let mut s = Solver::new();
            pigeonhole(&mut s, 7);
            let out = Portfolio::new(race_config()).race(&mut s, &[], None);
            (
                out.result,
                out.winner,
                out.epochs,
                out.finishers,
                out.glue_imported,
                out.conflicts_total,
                s.stats().conflicts,
            )
        };
        assert_eq!(run(), run(), "fixed seeds must give bit-identical race outcomes");
    }

    #[test]
    fn caller_budget_exhaustion_reports_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9);
        let cfg = PortfolioConfig { probe_conflicts: Some(4), epoch_start: 4, ..race_config() };
        let out = Portfolio::new(cfg).race(&mut s, &[], Some(16));
        assert_eq!(out.result, SolveResult::Unknown, "16 conflicts cannot refute PHP(9,8)");
        // The solver is still usable and still correct afterwards.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn glue_sharing_imports_losers_clauses() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8);
        let cfg = PortfolioConfig {
            probe_conflicts: None,
            epoch_start: 64, // many ladder rounds: every worker digs in
            epoch_growth: 2,
            ..race_config()
        };
        let out = Portfolio::new(cfg).race(&mut s, &[], None);
        assert_eq!(out.result, SolveResult::Unsat);
        assert!(out.glue_imported > 0, "losers of a long race must contribute glue");
    }

    #[test]
    fn race_restores_the_callers_config_and_stays_sound() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        let base = s.config().clone();
        let out = Portfolio::new(race_config()).race(&mut s, &[], None);
        assert_eq!(out.result, SolveResult::Unsat);
        assert!(out.raced);
        assert_ne!(out.winner.worker, 0, "PHP(7,6) is won by a jittered worker");
        assert_eq!(*s.config(), base, "a race always restores the caller's config");
        // The swapped-in winner must answer follow-up queries correctly.
        let extra = Lit::pos(s.new_var());
        s.add_clause([extra]);
        assert!(s.solve().is_unsat(), "UNSAT db stays UNSAT after the swap");
    }

    #[test]
    fn worker_configs_are_diverse_and_deterministic() {
        let base = SolverConfig::default();
        let a = worker_config(&base, 42, 0);
        assert_eq!(a, base, "worker 0 keeps the parent configuration");
        let b = worker_config(&base, 42, 1);
        let c = worker_config(&base, 42, 2);
        assert_ne!(b.var_decay, c.var_decay);
        assert_ne!(b.phase_jitter_seed, c.phase_jitter_seed);
        assert_eq!(b, worker_config(&base, 42, 1), "pure function of (seed, worker)");
    }

    #[test]
    fn cube_depth_leaves_races_bit_identical() {
        let run = |cube_depth| {
            let mut s = Solver::new();
            pigeonhole(&mut s, 7);
            let out = Portfolio::new(PortfolioConfig { cube_depth, ..race_config() }).race(
                &mut s,
                &[],
                None,
            );
            assert!(out.raced);
            (out, *s.stats())
        };
        assert_eq!(run(2), run(0), "cube_depth must not change the race");
    }
}
