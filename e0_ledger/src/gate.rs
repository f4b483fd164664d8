//! The correctness gate every run passes through.
//!
//! * (a) Jobs with the same key return identical verdict vectors, whether
//!   they hit the cache, missed it or were batched.
//! * (b) No (design, target) is `Proven` in one job and `Falsified` in
//!   another: both verdicts are definitive.
//! * (c) The traced pass returns the untraced pass's verdicts, job by job.
//! * (d) The seeded bug in `desync_counters` is found in every mode.
//!
//! A job that fails or is rejected is a violation too, and so is a traced
//! job whose per-thread self time does not add up to its `run_time`.

use crate::drive::{Completed, JobRecord};
use std::collections::BTreeMap;
use std::time::Duration;

/// The design with a seeded bug, and the target that must fall.
const BUGGY: (&str, &str) = ("desync_counters", "lockstep");

/// Tolerance of the self-time check: 5% of `run_time`, plus the few µs
/// between the service starting its clock and opening the `job` span,
/// which the µs trace clock rounds.
const ROLLUP_SLACK: Duration = Duration::from_micros(50);

/// Collects verdicts across every job of a run and the violations found.
#[derive(Default)]
pub struct Gate {
    by_key: BTreeMap<String, Vec<(String, String)>>,
    definitive: BTreeMap<(String, String), (bool, bool)>,
    /// One line per violation.
    pub violations: Vec<String>,
}

impl Gate {
    /// Checks one phase's jobs: (a), (d), failures, and self-time sums.
    pub fn check_phase(&mut self, workload: &str, records: &[JobRecord]) {
        for r in records {
            let label = r.key.label();
            let done = match &r.outcome {
                Ok(done) => done,
                Err(error) => {
                    self.violations.push(format!("{workload}: job {label} failed: {error}"));
                    continue;
                }
            };
            // Workloads configure the flow differently (deep_induction
            // searches deeper), so keys only compare within one.
            let key = format!("{workload}:{label}");
            match self.by_key.get(&key) {
                Some(first) if *first != done.verdicts => self.violations.push(format!(
                    "{workload}: (a) {label} returned {:?}, earlier {:?}",
                    done.verdicts, first
                )),
                Some(_) => {}
                None => {
                    self.by_key.insert(key, done.verdicts.clone());
                }
            }
            let design = r.key.bundle().name;
            for (target, verdict) in &done.verdicts {
                let seen = self.definitive.entry((design.to_string(), target.clone())).or_default();
                seen.0 |= verdict.starts_with("proven");
                seen.1 |= verdict.starts_with("falsified");
                if (design, target.as_str()) == BUGGY && !verdict.starts_with("falsified") {
                    self.violations
                        .push(format!("{workload}: (d) {label} missed the seeded bug: {verdict}"));
                }
            }
            if let Some(message) = self_time_mismatch(done) {
                self.violations.push(format!("{workload}: job {label}: {message}"));
            }
        }
    }

    /// (c): the traced pass agrees with the untraced one on every job
    /// both passes ran.
    pub fn check_passes(&mut self, workload: &str, untraced: &[JobRecord], traced: &[JobRecord]) {
        for (u, t) in untraced.iter().zip(traced) {
            debug_assert_eq!(u.index, t.index);
            let (Ok(a), Ok(b)) = (&u.outcome, &t.outcome) else { continue };
            if u.key != t.key || a.verdicts != b.verdicts {
                self.violations.push(format!(
                    "{workload}: (c) job {} traced {} {:?} vs untraced {} {:?}",
                    u.index,
                    t.key.label(),
                    b.verdicts,
                    u.key.label(),
                    a.verdicts
                ));
            }
        }
    }

    /// (b), over everything seen so far. Call once, after the last phase.
    pub fn finish(&mut self) {
        for ((design, target), (proven, falsified)) in &self.definitive {
            if *proven && *falsified {
                self.violations.push(format!("(b) {design}.{target} both proven and falsified"));
            }
        }
    }
}

/// Why a traced job's self time on its own thread does not sum to its
/// `run_time`, if it does not.
fn self_time_mismatch(done: &Completed) -> Option<String> {
    done.rollup.as_ref()?;
    let traced = Duration::from_micros(done.job_thread_us);
    let gap = traced.abs_diff(done.run_time);
    (gap > done.run_time / 20 + ROLLUP_SLACK)
        .then(|| format!("self time on the job thread {traced:?} vs run_time {:?}", done.run_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollup::Rollup;
    use crate::traffic::{corpus, JobKey};
    use genfv_core::CorpusMode;

    fn record(index: usize, design: &str, verdicts: &[(&str, &str)]) -> JobRecord {
        let design = corpus().iter().position(|d| d.name == design).expect("corpus design");
        JobRecord {
            index,
            key: JobKey { design, mode: CorpusMode::Baseline, llm: None },
            nonce: None,
            admit: Duration::ZERO,
            latency: Duration::ZERO,
            outcome: Ok(Completed {
                cache_hit: false,
                batched: false,
                run_time: Duration::from_millis(1),
                verdicts: verdicts.iter().map(|(t, v)| (t.to_string(), v.to_string())).collect(),
                metrics: Default::default(),
                llm_host: Duration::ZERO,
                rollup: None,
                job_thread_us: 0,
                dropped_events: 0,
            }),
        }
    }

    #[test]
    fn each_rule_flags_its_violation() {
        let mut gate = Gate::default();
        let proven = record(0, "gray_counter", &[("t", "proven@k1")]);
        gate.check_phase("w", &[record(0, "gray_counter", &[("t", "proven@k1")])]);
        gate.check_phase("w", &[record(1, "gray_counter", &[("t", "proven@k1")])]);
        gate.check_passes("w", &[record(0, "gray_counter", &[("t", "proven@k1")])], &[proven]);
        assert_eq!(gate.violations, Vec::<String>::new(), "agreeing jobs pass");

        gate.check_phase("w", &[record(2, "gray_counter", &[("t", "proven@k2")])]);
        assert!(gate.violations[0].contains("(a)"), "{:?}", gate.violations);

        let unproven = record(0, "gray_counter", &[("t", "unproven@k4")]);
        gate.check_passes("w", &[record(0, "gray_counter", &[("t", "proven@k1")])], &[unproven]);
        assert!(gate.violations[1].contains("(c)"), "{:?}", gate.violations);

        gate.check_phase("w", &[record(3, "desync_counters", &[("lockstep", "unproven@k4")])]);
        assert!(gate.violations[2].contains("(d)"), "{:?}", gate.violations);

        let mut failed = record(4, "lfsr", &[]);
        failed.outcome = Err("worker lost".to_string());
        let mut mistraced = record(5, "lfsr", &[]);
        if let Ok(done) = &mut mistraced.outcome {
            done.rollup = Some(Rollup::default());
            done.job_thread_us = 500;
        }
        gate.check_phase("w", &[failed, mistraced]);
        assert!(gate.violations[3].contains("failed"), "{:?}", gate.violations);
        assert!(gate.violations[4].contains("self time"), "{:?}", gate.violations);

        // Different workloads may disagree on depth, never on definitive
        // verdicts.
        gate.check_phase("x", &[record(0, "hamming74", &[("t", "proven@k1")])]);
        gate.check_phase("y", &[record(0, "hamming74", &[("t", "falsified@3")])]);
        assert_eq!(gate.violations.len(), 5);
        gate.finish();
        assert!(gate.violations[5].contains("(b) hamming74.t"), "{:?}", gate.violations);
        assert_eq!(gate.violations.len(), 6);
    }
}
