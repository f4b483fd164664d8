//! Closed-loop clients over the public `VerificationService` API.
//!
//! Each client takes the next job from the shared [`Dealer`], submits it,
//! waits for `Done`, and only then takes another. Every time here is a
//! client-side clock or a field of the `JobReport`; nothing inside the
//! program is instrumented beyond what it already records.

use crate::rollup::{rollup, Rollup};
use crate::traffic::{nonce, Dealer, JobKey, Phase};
use genfv_core::{FlowMetrics, TargetOutcome};
use genfv_genai::{Completion, LanguageModel, Prompt, SyntheticLlm};
use genfv_obs::Phase as SpanPhase;
use genfv_service::{DesignInput, JobEvent, JobRequest, VerificationService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `LanguageModel` that times the host work of each completion (the
/// simulated model latency is reported by the model itself).
struct TimedLlm {
    inner: SyntheticLlm,
    host_ns: Arc<AtomicU64>,
}

impl LanguageModel for TimedLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, prompt: &Prompt) -> Completion {
        let t0 = Instant::now();
        let completion = self.inner.complete(prompt);
        self.host_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        completion
    }
}

/// The source a job submits: the corpus design, or under a nonce a
/// never-seen copy of it (renamed, with a leading comment line).
pub fn source(key: &JobKey, nonce: Option<&str>) -> (String, String) {
    let bundle = key.bundle();
    match nonce {
        None => (bundle.name.to_string(), bundle.rtl.to_string()),
        Some(n) => (format!("{}~{n}", bundle.name), format!("// variant {n}\n{}", bundle.rtl)),
    }
}

/// What the service returned for one completed job.
pub struct Completed {
    /// `JobReport::cache_hit`.
    pub cache_hit: bool,
    /// `JobReport::batched`.
    pub batched: bool,
    /// `JobReport::run_time`.
    pub run_time: Duration,
    /// One verdict label per target, in target order.
    pub verdicts: Vec<(String, String)>,
    /// The flow's own counters.
    pub metrics: FlowMetrics,
    /// Host time inside `LanguageModel::complete`.
    pub llm_host: Duration,
    /// Self time of the job's trace (traced passes only).
    pub rollup: Option<Rollup>,
    /// Self time on the thread that ran the job, µs (traced passes only).
    pub job_thread_us: u64,
    /// Trace events lost to the capacity cap.
    pub dropped_events: u64,
}

/// One job as the client saw it.
pub struct JobRecord {
    /// Position in the phase's dealt sequence.
    pub index: usize,
    /// What was asked.
    pub key: JobKey,
    /// The nonce, for cold jobs.
    pub nonce: Option<String>,
    /// Submit → `Started` (queue wait plus a cold prepare).
    pub admit: Duration,
    /// Submit → `Done`.
    pub latency: Duration,
    /// The report, or why there is none.
    pub outcome: Result<Completed, String>,
}

/// The records of one phase, in dealt order.
pub struct PhaseRun {
    /// One per job dealt.
    pub records: Vec<JobRecord>,
    /// From the first deal to the last `Done`.
    pub elapsed: Duration,
    /// Process CPU time (user + system) over the phase.
    pub cpu: Duration,
}

/// A verdict label: the outcome class plus its depth or cycle.
fn verdict(outcome: &TargetOutcome) -> String {
    match outcome {
        TargetOutcome::Proven { k, .. } => format!("proven@k{k}"),
        TargetOutcome::Falsified { at } => format!("falsified@{at}"),
        TargetOutcome::StillUnproven { k, .. } => format!("unproven@k{k}"),
        TargetOutcome::Unknown { .. } => "unknown".to_string(),
    }
}

/// Process CPU time (user + system) from `/proc/self/stat`, or zero where
/// there is no procfs.
fn process_cpu() -> Duration {
    // The fields count USER_HZ ticks: 100 per second on x86 and Arm Linux.
    const TICK: Duration = Duration::from_millis(10);
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u32 = [11, 12].iter().filter_map(|&i| fields.get(i)?.parse::<u32>().ok()).sum();
    TICK * ticks
}

/// Peak resident set size of the process in MB (`VmHWM`), or zero where
/// there is no procfs.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_one(
    service: &VerificationService,
    index: usize,
    key: JobKey,
    nonce: Option<String>,
) -> JobRecord {
    let (name, rtl) = source(&key, nonce.as_deref());
    let bundle = key.bundle();
    let host_ns = Arc::new(AtomicU64::new(0));
    let mut request = JobRequest::new(DesignInput::Source {
        name,
        rtl,
        spec: bundle.spec.to_string(),
        targets: bundle.targets.clone(),
    })
    .with_mode(key.mode);
    if let Some((profile, seed)) = key.llm {
        request = request.with_llm(TimedLlm {
            inner: SyntheticLlm::new(profile, seed),
            host_ns: host_ns.clone(),
        });
    }
    let submitted = Instant::now();
    let mut admit = Duration::ZERO;
    let handle = match service.submit(request) {
        Ok(handle) => handle,
        Err(rejected) => {
            return JobRecord {
                index,
                key,
                nonce,
                admit,
                latency: submitted.elapsed(),
                outcome: Err(rejected.to_string()),
            };
        }
    };
    let mut outcome = Err("event stream ended without a terminal event".to_string());
    while let Some(event) = handle.next_event() {
        match event {
            JobEvent::Started { .. } => admit = submitted.elapsed(),
            JobEvent::Done { report, .. } => {
                let rollup = report.obs.as_ref().map(|o| rollup(&o.events));
                let job_thread_us = report
                    .obs
                    .as_ref()
                    .zip(rollup.as_ref())
                    .and_then(|(o, r)| {
                        let begin = o
                            .events
                            .iter()
                            .find(|e| e.name == "job" && e.phase == SpanPhase::Begin)?;
                        r.by_tid.get(&begin.tid).copied()
                    })
                    .unwrap_or(0);
                outcome = Ok(Completed {
                    cache_hit: report.cache_hit,
                    batched: report.batched,
                    run_time: report.run_time,
                    verdicts: report
                        .flow
                        .targets
                        .iter()
                        .map(|t| (t.name.clone(), verdict(&t.outcome)))
                        .collect(),
                    llm_host: Duration::from_nanos(host_ns.load(Ordering::Relaxed)),
                    dropped_events: report.obs.as_ref().map_or(0, |o| o.dropped),
                    metrics: report.flow.metrics,
                    rollup,
                    job_thread_us,
                });
                break;
            }
            JobEvent::Failed { error, .. } => {
                outcome = Err(error.to_string());
                break;
            }
            _ => {}
        }
    }
    JobRecord { index, key, nonce, admit, latency: submitted.elapsed(), outcome }
}

/// Runs one phase: `clients` closed-loop clients drain `dealer` through
/// `service`. Cold workloads get a fresh nonce per job.
pub fn run_phase(
    service: &VerificationService,
    dealer: Dealer,
    clients: usize,
    cold: Option<(u64, Phase)>,
) -> PhaseRun {
    let dealer = Mutex::new(dealer);
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let mut records: Vec<JobRecord> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let next = dealer.lock().expect("dealer lock poisoned").deal();
                        let Some((index, key)) = next else { break };
                        let nonce = cold.map(|(seed, phase)| nonce(seed, phase, index));
                        mine.push(run_one(service, index, key, nonce));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread panicked")).collect()
    });
    let elapsed = t0.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    records.sort_by_key(|r| r.index);
    PhaseRun { records, elapsed, cpu }
}
