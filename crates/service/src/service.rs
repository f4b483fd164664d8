//! The verification service: bounded queue, worker pool, warm-session
//! cache, same-design batching.

use crate::cache::{CacheEntry, DesignCache};
use crate::request::{DesignInput, JobEvent, JobId, JobReport, JobRequest};
use genfv_core::{
    run_baseline, run_combined, run_flow1, run_flow2, CorpusMode, Error, FlowConfig, OptConfig,
    PreparedDesign, ServiceError,
};
use genfv_mc::SessionSeed;
use genfv_obs::{
    prom_counter, prom_gauge, prom_histogram, Accumulate, AtomicHistogram, HistogramSnapshot,
    MetricsSnapshot, Obs, ObsConfig,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Service configuration.
///
/// Follows the workspace builder convention: [`Default`] then `with_*`.
/// Flow-level settings (checks, portfolio, engine, unroll mode, netlist
/// optimization) are configured on a [`FlowConfig`] and handed over with
/// [`ServiceConfig::with_flow`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Submission-queue capacity; `try_submit` rejects beyond it with
    /// [`ServiceError::QueueFull`], `submit` blocks.
    pub queue_capacity: usize,
    /// Warm-session cache entry budget (0 disables caching).
    pub cache_entries: usize,
    /// Warm-session cache approximate byte budget.
    pub cache_bytes: usize,
    /// Batch co-pending same-design jobs onto one worker so they ride the
    /// hot session capital consecutively.
    pub batching: bool,
    /// Default flow mode for jobs (overridable per request).
    pub mode: CorpusMode,
    /// Flow configuration shared by every job.
    pub flow: FlowConfig,
    /// Per-job observability mode: [`ObsConfig::Off`] (default) skips all
    /// trace recording; `Full`/`Deterministic` give every job a fresh
    /// [`Obs`] handle whose report rides on [`JobReport::obs`] and whose
    /// metrics fold into the service-wide [`ServiceStats`]. The queue-wait
    /// histogram is recorded regardless of this setting.
    pub obs: ObsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            cache_entries: 32,
            cache_bytes: 64 << 20,
            batching: true,
            mode: CorpusMode::Flow2,
            flow: FlowConfig::default(),
            obs: ObsConfig::Off,
        }
    }
}

impl ServiceConfig {
    /// This configuration with `workers` threads (0 = one per core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// This configuration with a submission queue of `capacity` jobs.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// This configuration caching at most `entries` designs (0 disables
    /// the warm-session cache — every job re-prepares and starts cold).
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// This configuration with an approximate cache byte budget.
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// This configuration with same-design batching on or off.
    pub fn with_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// This configuration defaulting jobs to `mode`.
    pub fn with_mode(mut self, mode: CorpusMode) -> Self {
        self.mode = mode;
        self
    }

    /// This configuration with `flow` as every job's flow configuration.
    pub fn with_flow(mut self, flow: FlowConfig) -> Self {
        self.flow = flow;
        self
    }

    /// This configuration recording per-job traces and metrics in `mode`
    /// (see [`ServiceConfig::obs`]).
    pub fn with_obs(mut self, mode: ObsConfig) -> Self {
        self.obs = mode;
        self
    }
}

/// Point-in-time service counters (see
/// [`VerificationService::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that delivered a [`JobReport`].
    pub completed: u64,
    /// Jobs that ended in [`JobEvent::Failed`].
    pub failed: u64,
    /// Submissions rejected (backpressure, shutdown, missing model).
    pub rejected: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Jobs that found their design's warm capital cached (batched
    /// followers included).
    pub cache_hits: u64,
    /// Jobs that had to prepare their design cold.
    pub cache_misses: u64,
    /// Cache entries evicted under the entry/byte budgets.
    pub cache_evictions: u64,
    /// Designs currently cached.
    pub cache_entries: usize,
    /// Jobs that ran batched behind an earlier same-design job.
    pub batched_jobs: u64,
    /// Base-case solver calls skipped via seeded clean depths, summed
    /// over completed jobs.
    pub clean_seed_hits: u64,
    /// Sessions that adopted an already-built transition template, summed
    /// over completed jobs.
    pub templates_reused: u64,
    /// Expression nodes removed by the prepare-time optimization
    /// pipeline, summed over cold (cache-miss) prepares.
    pub opt_nodes_removed: u64,
    /// State registers dropped (stuck-at folding plus cone-of-influence
    /// reduction), summed over cold prepares.
    pub opt_states_dropped: u64,
    /// Submit→start wait per job, log₂-bucketed in microseconds. Recorded
    /// for every job regardless of [`ServiceConfig::obs`] — this is the
    /// latency the flow-level `run_time` never sees.
    pub queue_wait: HistogramSnapshot,
    /// Solver metrics (per-kind solve latency/conflict histograms and
    /// counters) folded in from every completed job's obs report. Empty
    /// unless the service runs with observability on.
    pub metrics: MetricsSnapshot,
}

impl ServiceStats {
    /// Renders every counter and histogram in Prometheus text exposition
    /// format (`genfv_*` namespace; histogram times in seconds). Includes
    /// the queue-wait histogram and, when observability is on, the
    /// per-query-kind solve-latency histograms.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        prom_counter(&mut out, "genfv_jobs_submitted_total", "", self.submitted);
        prom_counter(&mut out, "genfv_jobs_completed_total", "", self.completed);
        prom_counter(&mut out, "genfv_jobs_failed_total", "", self.failed);
        prom_counter(&mut out, "genfv_jobs_rejected_total", "", self.rejected);
        prom_counter(&mut out, "genfv_jobs_batched_total", "", self.batched_jobs);
        prom_gauge(&mut out, "genfv_queue_depth", "", self.queue_depth as f64);
        prom_counter(&mut out, "genfv_cache_hits_total", "", self.cache_hits);
        prom_counter(&mut out, "genfv_cache_misses_total", "", self.cache_misses);
        prom_counter(&mut out, "genfv_cache_evictions_total", "", self.cache_evictions);
        prom_gauge(&mut out, "genfv_cache_entries", "", self.cache_entries as f64);
        prom_counter(&mut out, "genfv_clean_seed_hits_total", "", self.clean_seed_hits);
        prom_counter(&mut out, "genfv_templates_reused_total", "", self.templates_reused);
        prom_counter(&mut out, "genfv_opt_nodes_removed_total", "", self.opt_nodes_removed);
        prom_counter(&mut out, "genfv_opt_states_dropped_total", "", self.opt_states_dropped);
        prom_histogram(&mut out, "genfv_queue_wait_seconds", "", &self.queue_wait, 1e-6);
        self.metrics.render_prometheus(&mut out);
        out
    }
}

#[derive(Default)]
struct AtomicStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    queue_depth: AtomicUsize,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batched_jobs: AtomicU64,
    clean_seed_hits: AtomicU64,
    templates_reused: AtomicU64,
    opt_nodes_removed: AtomicU64,
    opt_states_dropped: AtomicU64,
    queue_wait: AtomicHistogram,
    /// Per-job obs metrics folded service-wide (empty with obs off).
    metrics: Mutex<MetricsSnapshot>,
}

// Merging two services' point-in-time stats (e.g. sharded deployments):
// counters and sampled gauges sum, histograms and solver metrics fold.
genfv_obs::impl_accumulate!(ServiceStats {
    add: [
        submitted,
        completed,
        failed,
        rejected,
        queue_depth,
        cache_hits,
        cache_misses,
        cache_evictions,
        cache_entries,
        batched_jobs,
        clean_seed_hits,
        templates_reused,
        opt_nodes_removed,
        opt_states_dropped,
    ],
    merge: [queue_wait, metrics],
});

/// A queued unit of work.
struct Job {
    id: JobId,
    input: DesignInput,
    hash: u64,
    mode: CorpusMode,
    llm: Option<Box<dyn genfv_genai::LanguageModel + Send>>,
    tx: mpsc::Sender<JobEvent>,
    enqueued_at: Instant,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signals workers that a job (or shutdown) is available.
    job_ready: Condvar,
    /// Signals blocked `submit` calls that queue space opened up.
    space: Condvar,
    cache: Mutex<DesignCache>,
    stats: AtomicStats,
    next_id: AtomicU64,
    config: ServiceConfig,
}

/// A rejected submission: the request handed back untouched plus the
/// typed reason ([`ServiceError::QueueFull`] for backpressure,
/// [`ServiceError::Closed`], or [`ServiceError::NoModel`]).
#[derive(Debug)]
pub struct SubmitRejected {
    /// The request, returned so the caller can retry or re-route it.
    pub request: JobRequest,
    /// Why it was rejected.
    pub error: Error,
}

impl std::fmt::Display for SubmitRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "submission rejected: {}", self.error)
    }
}

impl std::error::Error for SubmitRejected {}

/// Streaming view of one submitted job.
///
/// Events arrive in a fixed order: [`JobEvent::Queued`], then
/// [`JobEvent::Started`], then one [`JobEvent::TargetVerdict`] per
/// target, then the terminal [`JobEvent::Done`] — or a terminal
/// [`JobEvent::Failed`] any time after `Queued`.
pub struct JobHandle {
    id: JobId,
    rx: mpsc::Receiver<JobEvent>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The job this handle streams.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks for the next event; `None` once the stream is exhausted.
    pub fn next_event(&self) -> Option<JobEvent> {
        self.rx.recv().ok()
    }

    /// The next event if one is already pending (non-blocking).
    pub fn try_next_event(&self) -> Option<JobEvent> {
        self.rx.try_recv().ok()
    }

    /// Drains the stream to its terminal event and returns the report.
    ///
    /// # Errors
    /// The [`JobEvent::Failed`] error, or [`ServiceError::WorkerLost`] if
    /// the stream ended without a terminal event (service dropped with
    /// the job still queued).
    pub fn wait(self) -> Result<JobReport, Error> {
        while let Some(event) = self.next_event() {
            match event {
                JobEvent::Done { report, .. } => return Ok(*report),
                JobEvent::Failed { error, .. } => return Err(error),
                _ => {}
            }
        }
        Err(ServiceError::WorkerLost {
            message: format!("{} lost its event stream before finishing", self.id),
        }
        .into())
    }
}

/// The verification-as-a-service front end. See the [crate docs](crate).
pub struct VerificationService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

// `SubmitRejected` is deliberately large: it hands the whole (unboxable,
// caller-owned) request back so nothing is lost on rejection.
#[allow(clippy::result_large_err)]
impl VerificationService {
    /// Starts a service with `config.workers` persistent worker threads.
    pub fn new(config: ServiceConfig) -> Self {
        Self::build(config, true)
    }

    /// Builds the service, optionally without spawning workers — unit
    /// tests drive the worker loop inline for determinism.
    fn build(config: ServiceConfig, spawn_workers: bool) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            cache: Mutex::new(DesignCache::new(config.cache_entries, config.cache_bytes)),
            stats: AtomicStats::default(),
            next_id: AtomicU64::new(0),
            config: config.clone(),
        });
        let worker_count = if spawn_workers {
            if config.workers == 0 {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
            } else {
                config.workers
            }
        } else {
            0
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("genfv-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        VerificationService { shared, workers }
    }

    /// Submits a job, blocking while the queue is full.
    ///
    /// # Errors
    /// [`ServiceError::Closed`] after shutdown, [`ServiceError::NoModel`]
    /// if a GenAI-mode request carries no model. Never rejects with
    /// `QueueFull` — that is [`VerificationService::try_submit`]'s typed
    /// backpressure.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, SubmitRejected> {
        self.enqueue(request, true)
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    /// Everything [`VerificationService::submit`] rejects, plus
    /// [`ServiceError::QueueFull`] when the bounded queue is at capacity
    /// — the caller gets the request back and decides whether to retry,
    /// shed, or fall back to the blocking `submit`.
    pub fn try_submit(&self, request: JobRequest) -> Result<JobHandle, SubmitRejected> {
        self.enqueue(request, false)
    }

    fn enqueue(&self, request: JobRequest, block: bool) -> Result<JobHandle, SubmitRejected> {
        let mode = request.mode;
        if mode.needs_model() && request.llm.is_none() {
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let design = request.design.name().to_string();
            return Err(SubmitRejected { request, error: ServiceError::NoModel { design }.into() });
        }
        let capacity = self.shared.config.queue_capacity;
        let mut q = self.shared.queue.lock().unwrap();
        while !q.closed && q.jobs.len() >= capacity {
            if !block {
                drop(q);
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitRejected {
                    request,
                    error: ServiceError::QueueFull { capacity }.into(),
                });
            }
            q = self.shared.space.wait(q).unwrap();
        }
        if q.closed {
            drop(q);
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitRejected { request, error: ServiceError::Closed.into() });
        }
        let id = JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id,
            hash: cache_key(&request.design, &self.shared.config.flow.opt),
            input: request.design,
            mode,
            llm: request.llm,
            tx,
            enqueued_at: Instant::now(),
        };
        let _ = job.tx.send(JobEvent::Queued { job: id, depth: q.jobs.len() + 1 });
        q.jobs.push_back(job);
        self.shared.stats.queue_depth.store(q.jobs.len(), Ordering::Relaxed);
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.shared.job_ready.notify_one();
        Ok(JobHandle { id, rx })
    }

    /// Current counters. Queue depth and cache occupancy are sampled;
    /// everything else is monotone.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        let (evictions, entries) = {
            let cache = self.shared.cache.lock().unwrap();
            (cache.evictions(), cache.len())
        };
        ServiceStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            cache_evictions: evictions,
            cache_entries: entries,
            batched_jobs: s.batched_jobs.load(Ordering::Relaxed),
            clean_seed_hits: s.clean_seed_hits.load(Ordering::Relaxed),
            templates_reused: s.templates_reused.load(Ordering::Relaxed),
            opt_nodes_removed: s.opt_nodes_removed.load(Ordering::Relaxed),
            opt_states_dropped: s.opt_states_dropped.load(Ordering::Relaxed),
            queue_wait: s.queue_wait.snapshot(),
            metrics: s.metrics.lock().unwrap().clone(),
        }
    }

    /// Stops accepting jobs, drains the queue, and joins the workers.
    /// Also performed on drop.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.closed = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Runs the worker loop on the calling thread until the queue closes
    /// and drains (unit tests drive scheduling deterministically).
    #[cfg(test)]
    fn run_inline(&self) {
        worker_loop(&self.shared);
    }
}

impl Drop for VerificationService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Pulls batches until the queue is closed *and* empty: shutdown drains.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(leader) = q.jobs.pop_front() {
                    let mut batch = vec![leader];
                    if shared.config.batching {
                        let hash = batch[0].hash;
                        let mut rest = VecDeque::with_capacity(q.jobs.len());
                        for job in q.jobs.drain(..) {
                            if job.hash == hash {
                                batch.push(job);
                            } else {
                                rest.push_back(job);
                            }
                        }
                        q.jobs = rest;
                    }
                    shared.stats.queue_depth.store(q.jobs.len(), Ordering::Relaxed);
                    shared.space.notify_all();
                    break batch;
                }
                if q.closed {
                    return;
                }
                q = shared.job_ready.wait(q).unwrap();
            }
        };
        run_batch(shared, batch);
    }
}

/// Resolves the batch's design (cache or cold prepare) and runs each job
/// on the shared warm capital. A prepare that fails, or panics, fails
/// every job of the batch and leaves the worker serving.
fn run_batch(shared: &Shared, batch: Vec<Job>) {
    let hash = batch[0].hash;
    let cached = shared.cache.lock().unwrap().get(hash);
    let leader_hit = cached.is_some();
    let entry = match cached {
        Some(entry) => entry,
        None => {
            let prepared = guarded(|| prepare(&batch[0].input, &shared.config.flow.opt));
            let design = match prepared.and_then(|p| p) {
                Ok(d) => Arc::new(d),
                Err(error) => {
                    for job in &batch {
                        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                        let _ = job.tx.send(JobEvent::Failed { job: job.id, error: error.clone() });
                    }
                    return;
                }
            };
            shared
                .stats
                .opt_nodes_removed
                .fetch_add(design.opt_stats.nodes_removed() as u64, Ordering::Relaxed);
            shared
                .stats
                .opt_states_dropped
                .fetch_add(design.opt_stats.states_dropped(), Ordering::Relaxed);
            // Salt the seed fingerprint with the opt level so warm capital
            // built over an optimized netlist can never be adopted by a
            // session over the unoptimized one (or vice versa), even
            // though both came from identical sources.
            let seed =
                SessionSeed::for_design_salted(&design.ctx, &design.ts, design.opt.level.salt());
            let entry = CacheEntry { design, seed };
            shared.cache.lock().unwrap().insert(hash, entry.clone());
            entry
        }
    };

    for (pos, job) in batch.into_iter().enumerate() {
        let batched = pos > 0;
        let cache_hit = leader_hit || batched;
        if cache_hit {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        if batched {
            shared.stats.batched_jobs.fetch_add(1, Ordering::Relaxed);
        }
        run_job(shared, job, &entry, batched, cache_hit);
    }
}

/// The warm-capital cache key: the design's content hash salted with the
/// optimization level it runs at. [`DesignInput::Prepared`] inputs carry
/// their own level; [`DesignInput::Source`] inputs are prepared at the
/// service-wide level, so differently-configured services (or a
/// `Prepared` submission at a non-default level) key distinct entries and
/// the LRU never mixes optimized and unoptimized sessions.
fn cache_key(input: &DesignInput, service_opt: &OptConfig) -> u64 {
    let salt = match input {
        DesignInput::Prepared(d) => d.opt.level.salt(),
        DesignInput::Source { .. } => service_opt.level.salt(),
    };
    input.design_hash() ^ salt
}

fn prepare(input: &DesignInput, service_opt: &OptConfig) -> Result<PreparedDesign, Error> {
    match input {
        DesignInput::Prepared(d) => Ok((**d).clone()),
        DesignInput::Source { name, rtl, spec, targets } => {
            PreparedDesign::with_opt(name.clone(), rtl.clone(), spec.clone(), targets, service_opt)
        }
    }
}

fn run_job(shared: &Shared, mut job: Job, entry: &CacheEntry, batched: bool, cache_hit: bool) {
    let queue_wait = job.enqueued_at.elapsed();
    shared.stats.queue_wait.record(queue_wait.as_micros().min(u128::from(u64::MAX)) as u64);
    let _ = job.tx.send(JobEvent::Started { job: job.id, batched, cache_hit });

    // Seed only the target-proof sessions: validation clones compile
    // candidate monitors before their sessions exist, so their
    // fingerprints can never match the pristine design's seed anyway.
    let mut flow = shared.config.flow.clone();
    flow.check.seed = Some(Arc::clone(&entry.seed));
    // Each job records into its own trace (if the service runs with
    // observability on) so reports are attributable per job even when
    // workers interleave.
    let obs = Obs::new(shared.config.obs);
    if obs.is_enabled() {
        flow = flow.with_obs(obs.clone());
    }
    let design = &entry.design;

    let llm = job.llm.as_deref_mut();
    let outcome = guarded(|| {
        let _job_span = obs.span_with("job", || design.name.clone());
        // Timed inside the `job` span, so the span's own set-up (a fresh
        // trace buffer per job) is not part of `run_time` and a traced
        // job's self time adds up to it.
        let started = Instant::now();
        let report = match job.mode {
            CorpusMode::Baseline => run_baseline(design, &flow),
            CorpusMode::Flow1 => run_flow1((**design).clone(), llm.unwrap(), &flow),
            CorpusMode::Flow2 => run_flow2((**design).clone(), llm.unwrap(), &flow),
            CorpusMode::Combined => run_combined((**design).clone(), llm.unwrap(), &flow),
        };
        (report, started.elapsed())
    });

    match outcome {
        Ok((flow_report, run_time)) => {
            for target in &flow_report.targets {
                let _ = job.tx.send(JobEvent::TargetVerdict {
                    job: job.id,
                    target: target.name.clone(),
                    outcome: target.outcome.clone(),
                });
            }
            let solver = &flow_report.metrics.solver;
            shared.stats.clean_seed_hits.fetch_add(solver.clean_seed_hits, Ordering::Relaxed);
            shared.stats.templates_reused.fetch_add(solver.templates_reused, Ordering::Relaxed);
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            let obs_report = obs.report();
            if let Some(r) = &obs_report {
                shared.stats.metrics.lock().unwrap().absorb(&r.metrics);
            }
            let report = JobReport {
                job: job.id,
                design: design.name.clone(),
                design_hash: job.hash,
                flow: flow_report,
                cache_hit,
                batched,
                queue_wait,
                run_time,
                obs: obs_report,
            };
            let _ = job.tx.send(JobEvent::Done { job: job.id, report: Box::new(report) });
        }
        Err(error) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            let _ = job.tx.send(JobEvent::Failed { job: job.id, error });
        }
    }
}

/// The worker's panic guard: runs `work` and turns a panic into a
/// [`ServiceError::WorkerLost`] carrying the panic message, so one bad job
/// fails on its own and the worker goes on to the next.
fn guarded<T>(work: impl FnOnce() -> T) -> Result<T, Error> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked".to_string());
        ServiceError::WorkerLost { message }.into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTL: &str = r#"
module counter (input clk, rst, output logic [7:0] c);
  always_ff @(posedge clk) begin
    if (rst) c <= '0;
    else c <= c + 8'd1;
  end
endmodule
"#;

    fn source(name: &str, target: &str) -> DesignInput {
        DesignInput::Source {
            name: name.into(),
            rtl: RTL.into(),
            spec: "a free-running counter".into(),
            targets: vec![("t".into(), target.into())],
        }
    }

    fn baseline(input: DesignInput) -> JobRequest {
        JobRequest::new(input).with_mode(CorpusMode::Baseline)
    }

    #[test]
    fn builders_chain() {
        let c = ServiceConfig::default().with_workers(3).with_mode(CorpusMode::Baseline);
        assert_eq!(c.workers, 3);
        assert_eq!(c.mode, CorpusMode::Baseline);
        assert!(!c.mode.needs_model());
        assert!(CorpusMode::Flow2.needs_model());
    }

    #[test]
    fn try_submit_backpressure_is_typed_and_deterministic() {
        let svc = VerificationService::build(
            ServiceConfig::default().with_queue_capacity(2),
            false, // no workers: the queue can only fill
        );
        let a = svc.try_submit(baseline(source("a", "c == c"))).unwrap();
        let b = svc.try_submit(baseline(source("b", "c == c"))).unwrap();
        let rejected = svc.try_submit(baseline(source("c", "c == c"))).unwrap_err();
        assert!(rejected.error.is_backpressure(), "{}", rejected.error);
        assert_eq!(rejected.request.design.name(), "c");
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queue_depth, 2);

        // Drain deterministically on this thread, then both jobs report.
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        assert_eq!(svc.stats().queue_depth, 0);
    }

    #[test]
    fn genai_mode_without_model_is_rejected() {
        let svc = VerificationService::build(ServiceConfig::default(), false);
        let rejected = svc.try_submit(JobRequest::new(source("a", "c == c"))).unwrap_err();
        assert!(
            matches!(&rejected.error, Error::Service(ServiceError::NoModel { design }) if design == "a"),
            "{}",
            rejected.error
        );
    }

    #[test]
    fn event_stream_order_and_batching() {
        let svc = VerificationService::build(ServiceConfig::default(), false);
        let first = svc.submit(baseline(source("same", "c == c"))).unwrap();
        let follower = svc.submit(baseline(source("same", "c == c"))).unwrap();
        let other = svc.submit(baseline(source("other", "c >= 8'd0"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();

        // Leader: Queued → Started(not batched, cold) → verdict → Done.
        let events: Vec<JobEvent> = std::iter::from_fn(|| first.next_event()).collect();
        assert!(matches!(events[0], JobEvent::Queued { depth: 1, .. }));
        assert!(
            matches!(events[1], JobEvent::Started { batched: false, cache_hit: false, .. }),
            "{:?}",
            events[1]
        );
        assert!(matches!(&events[2], JobEvent::TargetVerdict { target, .. } if target == "t"));
        assert!(matches!(events[3], JobEvent::Done { .. }));
        assert_eq!(events.len(), 4);

        // Same-design follower rides the batch: batched + cache_hit.
        let report = follower.wait().unwrap();
        assert!(report.batched);
        assert!(report.cache_hit);

        // The different design is its own (cold) batch.
        let report = other.wait().unwrap();
        assert!(!report.batched);
        assert!(!report.cache_hit);

        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.batched_jobs, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn bad_rtl_fails_with_typed_parse_error() {
        let svc = VerificationService::build(ServiceConfig::default(), false);
        let handle = svc
            .submit(baseline(DesignInput::Source {
                name: "broken".into(),
                rtl: "module ((".into(),
                spec: String::new(),
                targets: vec![],
            }))
            .unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        let err = handle.wait().unwrap_err();
        assert!(matches!(&err, Error::Parse { design, .. } if design == "broken"), "{err}");
        assert_eq!(svc.stats().failed, 1);
    }

    #[test]
    fn failed_prepares_answer_their_jobs_and_the_worker_serves_on() {
        // One worker, three jobs: a zero-width literal (a typed parse
        // error), a concatenation wider than `BitVecValue::MAX_WIDTH`
        // (rejected deep in the IR, which panics), and a good job. Each
        // gets its answer, and the good one still runs.
        let svc = VerificationService::build(ServiceConfig::default().with_batching(false), false);
        let bad = |name: &str, rtl: String| {
            let input = DesignInput::Source {
                name: name.into(),
                rtl,
                spec: String::new(),
                targets: vec![("t".into(), "c == c".into())],
            };
            svc.submit(baseline(input)).unwrap()
        };
        let literal = bad("zero_width", RTL.replace("8'd1", "0'b1"));
        let wide = bad("too_wide", RTL.replace("c + 8'd1", "{1048576'd0, 1'b0}"));
        let good = svc.submit(baseline(source("good", "c == c"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        let err = literal.wait().unwrap_err();
        assert!(matches!(&err, Error::Parse { design, .. } if design == "zero_width"), "{err}");
        let err = wide.wait().unwrap_err();
        assert!(
            matches!(err, Error::Service(ServiceError::WorkerLost { .. }) | Error::Design { .. }),
            "{err}"
        );
        assert!(good.wait().unwrap().flow.all_proven());
        assert_eq!(svc.stats().failed, 2);
    }

    #[test]
    fn panicking_model_fails_its_job_and_leaves_the_cache_serving() {
        struct Crashing;
        impl genfv_genai::LanguageModel for Crashing {
            fn name(&self) -> &str {
                "crashing"
            }
            fn complete(&mut self, _prompt: &genfv_genai::Prompt) -> genfv_genai::Completion {
                panic!("model crashed")
            }
        }
        // A decade counter: `c != 15` holds but is not inductive alone, so
        // the default proof leaves it open and Flow 1 consults the model.
        let decade = || DesignInput::Source {
            name: "decade".into(),
            rtl: RTL.replace("else c <=", "else if (c == 8'd9) c <= '0;\n    else c <="),
            spec: "a decade counter: counts 0 through 9 and wraps to 0".into(),
            targets: vec![("t".into(), "c != 8'd15".into())],
        };
        let flow1 = || JobRequest::new(decade()).with_mode(CorpusMode::Flow1);
        let svc = VerificationService::build(ServiceConfig::default().with_batching(false), false);
        let crashed = svc.submit(flow1().with_llm(Crashing)).unwrap();
        let model = genfv_genai::SyntheticLlm::new(genfv_genai::ModelProfile::GptFourTurbo, 0);
        let next = svc.submit(flow1().with_llm(model)).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        let err = crashed.wait().unwrap_err();
        assert!(
            matches!(&err, Error::Service(ServiceError::WorkerLost { message })
                if message.contains("model crashed")),
            "{err}"
        );
        let report = next.wait().unwrap();
        assert!(report.cache_hit, "the crashed job's prepare stays cached");
        assert!(report.flow.all_proven());
        assert_eq!(svc.stats().failed, 1);
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let svc = VerificationService::new(ServiceConfig::default().with_workers(1));
        let handle = svc.submit(baseline(source("a", "c == c"))).unwrap();
        assert!(handle.wait().is_ok());
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        let rejected = svc.try_submit(baseline(source("b", "c == c"))).unwrap_err();
        assert!(matches!(rejected.error, Error::Service(ServiceError::Closed)));
    }

    #[test]
    fn obs_enabled_job_carries_trace_and_prometheus_exposes_histograms() {
        let svc =
            VerificationService::build(ServiceConfig::default().with_obs(ObsConfig::Full), false);
        // Two same-design jobs: the second runs warm (cache hit) and must
        // still carry a full trace of its own.
        let cold = svc.submit(baseline(source("same", "c == c"))).unwrap();
        let warm = svc.submit(baseline(source("same", "c == c"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        cold.wait().unwrap();
        let report = warm.wait().unwrap();

        let obs = report.obs.expect("obs report attached when observability is on");
        assert_eq!(obs.dropped, 0);
        let json = obs.chrome_json();
        let check = genfv_obs::validate_chrome_trace(&json).expect("valid Chrome trace JSON");
        assert!(check.balanced, "span tree unbalanced");
        let solve_depth = check.depth_of_prefix("solve.").expect("trace reaches solve calls");
        assert!(solve_depth >= 3, "solve spans nest under job/flow/prove, got {solve_depth}");
        assert!(obs.metrics.counter(genfv_obs::Counter::Solves) > 0);

        let text = svc.stats().render_prometheus();
        assert!(text.contains("genfv_jobs_completed_total 2"), "{text}");
        assert!(text.contains("genfv_queue_wait_seconds_bucket"), "{text}");
        assert!(text.contains("genfv_solve_latency_seconds_bucket"), "{text}");
        assert!(text.contains("genfv_queue_wait_seconds_count 2"), "{text}");
    }

    #[test]
    fn job_span_covers_run_time() {
        let svc =
            VerificationService::build(ServiceConfig::default().with_obs(ObsConfig::Full), false);
        let handle = svc.submit(baseline(source("a", "c == c"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        let report = handle.wait().unwrap();
        let events = report.obs.expect("traced job").events;
        let ts = |phase: genfv_obs::Phase| {
            events.iter().find(|e| e.name == "job" && e.phase == phase).expect("job span").ts
        };
        // µs timestamps truncate, so the span can read up to 1 µs short.
        let span_us = ts(genfv_obs::Phase::End) - ts(genfv_obs::Phase::Begin) + 1;
        assert!(
            u128::from(span_us) >= report.run_time.as_micros(),
            "job span {span_us} µs is shorter than run_time {:?}",
            report.run_time
        );
    }

    #[test]
    fn obs_off_jobs_carry_no_trace() {
        let svc = VerificationService::build(ServiceConfig::default(), false);
        let handle = svc.submit(baseline(source("a", "c == c"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        let report = handle.wait().unwrap();
        assert!(report.obs.is_none());
        // The queue-wait histogram records regardless.
        assert_eq!(svc.stats().queue_wait.count, 1);
    }

    #[test]
    fn cache_key_separates_opt_levels() {
        use genfv_core::{OptLevel, PreparedDesign};
        let targets = vec![("t".to_string(), "c == c".to_string())];
        let src = source("same", "c == c");
        let full = DesignInput::Prepared(Box::new(
            PreparedDesign::new("same", RTL, "a free-running counter", &targets).unwrap(),
        ));
        let none = DesignInput::Prepared(Box::new(
            PreparedDesign::with_opt(
                "same",
                RTL,
                "a free-running counter",
                &targets,
                &OptConfig::default().with_level(OptLevel::None),
            )
            .unwrap(),
        ));
        let svc_opt = OptConfig::default();
        // Same content prepared at the same (default) level shares a key
        // across the Source/Prepared variants...
        assert_eq!(cache_key(&src, &svc_opt), cache_key(&full, &svc_opt));
        // ...but an unoptimized prepare of identical sources must key a
        // distinct entry: its sessions are not interchangeable.
        assert_ne!(cache_key(&full, &svc_opt), cache_key(&none, &svc_opt));
        // A service configured to prepare without optimization keys its
        // Source jobs alongside unoptimized Prepared submissions.
        let svc_none = OptConfig::default().with_level(OptLevel::None);
        assert_eq!(cache_key(&src, &svc_none), cache_key(&none, &svc_none));
    }

    #[test]
    fn reports_surface_opt_stats() {
        let svc = VerificationService::build(ServiceConfig::default(), false);
        let handle = svc.submit(baseline(source("a", "c == c"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        let report = handle.wait().unwrap();
        assert!(report.opt().rounds >= 1, "default service prepares optimized");
        assert_eq!(report.opt().level, genfv_core::OptLevel::Full);
    }

    #[test]
    fn repeat_traffic_reuses_template_and_clean_depths() {
        let svc = VerificationService::build(ServiceConfig::default().with_batching(false), false);
        let warm = svc.submit(baseline(source("same", "c == c"))).unwrap();
        let repeat = svc.submit(baseline(source("same", "c == c"))).unwrap();
        {
            svc.shared.queue.lock().unwrap().closed = true;
        }
        svc.run_inline();
        assert!(!warm.wait().unwrap().cache_hit);
        let report = repeat.wait().unwrap();
        assert!(report.cache_hit, "second same-design job must hit the cache");
        let stats = svc.stats();
        assert!(stats.templates_reused >= 1, "warm session must adopt the cached template");
        assert!(stats.clean_seed_hits >= 1, "warm session must skip seeded base cases");
    }
}
