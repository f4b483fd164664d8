//! Seeded job traffic: the four workloads, their decks of job keys, and
//! the dealer that hands jobs to the closed-loop clients.
//!
//! Each workload owns a fixed *deck*: the multiset of job keys one round
//! of traffic contains (Zipf quotas for the repeat workloads, one job per
//! design for the cold ones). The seed only decides the order each round
//! is dealt in and the nonces that make cold sources unique, so every
//! seed runs the same mix and seeds are comparable run to run. Rounds are
//! dealt whole: the time limit is only checked at a round boundary, so
//! per-job averages never depend on where a run happened to stop.
//!
//! The generator is a self-contained splitmix64, not the workspace's
//! `rand` shim, so the traffic stays frozen whatever that shim does.

use genfv_core::{CorpusMode, FlowConfig};
use genfv_designs::DesignBundle;
use genfv_genai::ModelProfile;
use genfv_mc::{CheckConfig, PortfolioConfig};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The splitmix64 generator (Steele, Lea & Flood 2014).
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The nonce that makes job `index` of a cold phase a never-seen source:
/// a pure function of the seed, the phase and the index, so the traced
/// and untraced passes send identical sources job by job.
pub fn nonce(seed: u64, phase: Phase, index: usize) -> String {
    let tag = match phase {
        Phase::Warmup => 0x5741_524D,
        Phase::Timed => 0x5449_4D45,
    };
    let bits = SplitMix64::new(seed ^ (tag << 32) ^ index as u64).next_u64();
    match phase {
        Phase::Warmup => format!("w{bits:016x}"),
        Phase::Timed => format!("{bits:016x}"),
    }
}

/// Which part of a pass a job belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up traffic before the clock starts.
    Warmup,
    /// The measured traffic.
    Timed,
}

/// The 21-design corpus: the flow corpus plus the two datapath designs.
pub fn corpus() -> &'static [DesignBundle] {
    static CORPUS: OnceLock<Vec<DesignBundle>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs()).collect()
    })
}

fn design_index(name: &str) -> usize {
    corpus().iter().position(|d| d.name == name).expect("workload design is in the corpus")
}

/// What one job asks for. Jobs with equal keys must get equal verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobKey {
    /// Index into [`corpus`].
    pub design: usize,
    /// The flow.
    pub mode: CorpusMode,
    /// Model profile and model seed (GenAI modes only).
    pub llm: Option<(ModelProfile, u64)>,
}

impl JobKey {
    fn baseline(design: usize) -> Self {
        JobKey { design, mode: CorpusMode::Baseline, llm: None }
    }

    /// The design this job verifies.
    pub fn bundle(&self) -> &'static DesignBundle {
        &corpus()[self.design]
    }

    /// A stable label, e.g. `sync_counters/Flow2/gpt-4o/s3`.
    pub fn label(&self) -> String {
        let mut label = format!("{}/{:?}", self.bundle().name, self.mode);
        if let Some((profile, seed)) = self.llm {
            label.push_str(&format!("/{}/s{seed}", profile.name()));
        }
        label
    }
}

/// One workload: its traffic and the service shape that serves it.
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Closed-loop clients.
    pub clients: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Every job is a never-seen source (nonce-suffixed name and RTL).
    pub cold: bool,
    /// One round of traffic.
    pub deck: Vec<JobKey>,
    /// Jobs run before the clock starts.
    pub warmup: Vec<JobKey>,
    /// Flow configuration of the service.
    pub flow: FlowConfig,
}

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["baseline_repeat", "genai_mix", "cold_unique", "deep_induction"];

/// Jobs per round of the Zipf-mixed workloads: enough for the rarest of
/// the 21 designs to get one job.
const ZIPF_DECK: usize = 96;

/// The designs whose targets only fall (if at all) to deep induction.
const STEP_HARD: [&str; 7] = [
    "sync_counters",
    "sync_counters_16",
    "offset_counters",
    "twin_shift",
    "ecc_counter",
    "fifo_counters",
    "credit_flow",
];

/// Zipf(s = 1) quotas over `n` ranks summing to `total`, by largest
/// remainder.
fn zipf_quotas(n: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| *e as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - quotas[a] as f64, exact[b] - quotas[b] as f64);
        rb.partial_cmp(&ra).expect("finite quotas").then(a.cmp(&b))
    });
    let short = total - quotas.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        quotas[i] += 1;
    }
    quotas
}

/// The 48 GenAI combinations: mode varies fastest, then profile, then
/// model seed.
fn genai_combo(k: usize) -> (CorpusMode, ModelProfile, u64) {
    const MODES: [CorpusMode; 3] = [CorpusMode::Flow1, CorpusMode::Flow2, CorpusMode::Combined];
    let profiles = ModelProfile::ALL;
    (MODES[k % 3], profiles[(k / 3) % profiles.len()], ((k / 12) % 4) as u64)
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        let all: Vec<usize> = (0..corpus().len()).collect();
        let warm_all: Vec<JobKey> = all.iter().map(|&d| JobKey::baseline(d)).collect();
        let zipf = zipf_quotas(all.len(), ZIPF_DECK);
        let base = Workload {
            name: "",
            clients: 2,
            workers: 2,
            cold: false,
            deck: Vec::new(),
            warmup: warm_all.clone(),
            flow: FlowConfig::default(),
        };
        let w = match name {
            "baseline_repeat" => Workload {
                name: "baseline_repeat",
                deck: all
                    .iter()
                    .zip(&zipf)
                    .flat_map(|(&d, &q)| std::iter::repeat_n(JobKey::baseline(d), q))
                    .collect(),
                ..base
            },
            "genai_mix" => Workload {
                name: "genai_mix",
                deck: all
                    .iter()
                    .zip(&zipf)
                    .flat_map(|(&d, &q)| {
                        // Each design starts at its own point of the combo
                        // cycle, so rare designs do not all get the same one.
                        (0..q).map(move |j| {
                            let (mode, profile, seed) = genai_combo(5 * d + j);
                            JobKey { design: d, mode, llm: Some((profile, seed)) }
                        })
                    })
                    .collect(),
                ..base
            },
            "cold_unique" => Workload { name: "cold_unique", cold: true, deck: warm_all, ..base },
            "deep_induction" => {
                let deck: Vec<JobKey> =
                    STEP_HARD.iter().map(|n| JobKey::baseline(design_index(n))).collect();
                let portfolio = PortfolioConfig {
                    probe_conflicts: Some(256),
                    cube_depth: 2,
                    workers: 2,
                    ..Default::default()
                };
                Workload {
                    name: "deep_induction",
                    // The portfolio brings its own two threads.
                    clients: 1,
                    workers: 1,
                    cold: true,
                    warmup: deck.clone(),
                    deck,
                    flow: FlowConfig::default()
                        .with_check(CheckConfig { max_k: 12, ..Default::default() })
                        .with_portfolio(portfolio),
                }
            }
            _ => return None,
        };
        Some(w)
    }
}

/// Fewest jobs a timed phase deals: enough that ten samples lie beyond
/// the reported p90 latency.
const MIN_TIMED_JOBS: usize = 100;

/// When a phase stops dealing.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// At the first round boundary after this much time and at least
    /// [`MIN_TIMED_JOBS`] jobs.
    Time(Duration),
    /// After this many jobs.
    Jobs(usize),
}

/// Deals job indices and keys to the clients: rounds of the deck, each
/// freshly shuffled by the seeded generator.
pub struct Dealer {
    deck: Vec<JobKey>,
    rng: SplitMix64,
    round: Vec<JobKey>,
    next: usize,
    limit: Limit,
    start: Instant,
    closed: bool,
}

impl Dealer {
    /// A dealer over `deck`; the clock for [`Limit::Time`] starts now.
    pub fn new(deck: Vec<JobKey>, seed: u64, limit: Limit) -> Self {
        assert!(!deck.is_empty(), "a workload deals from a non-empty deck");
        Dealer {
            deck,
            rng: SplitMix64::new(seed),
            round: Vec::new(),
            next: 0,
            limit,
            start: Instant::now(),
            closed: false,
        }
    }

    /// The next job, or `None` once the limit is reached.
    pub fn deal(&mut self) -> Option<(usize, JobKey)> {
        let pos = self.next % self.deck.len();
        self.closed |= match self.limit {
            Limit::Jobs(n) => self.next >= n,
            Limit::Time(t) => pos == 0 && self.next >= MIN_TIMED_JOBS && self.start.elapsed() >= t,
        };
        if self.closed {
            return None;
        }
        if pos == 0 {
            self.round = self.deck.clone();
            self.rng.shuffle(&mut self.round);
        }
        self.next += 1;
        Some((self.next - 1, self.round[pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_quotas_sum_and_cover_every_rank() {
        let q = zipf_quotas(21, ZIPF_DECK);
        assert_eq!(q.iter().sum::<usize>(), ZIPF_DECK);
        assert!(q.iter().all(|&n| n >= 1), "{q:?}");
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
    }

    #[test]
    fn same_seed_deals_the_same_traffic() {
        let w = Workload::named("genai_mix").expect("workload exists");
        let deal = |seed| {
            let mut d = Dealer::new(w.deck.clone(), seed, Limit::Jobs(300));
            std::iter::from_fn(|| d.deal()).map(|(_, k)| k.label()).collect::<Vec<_>>()
        };
        assert_eq!(deal(1), deal(1));
        assert_ne!(deal(1), deal(2));
        assert_eq!(deal(1).len(), 300);
    }

    #[test]
    fn every_round_deals_the_whole_deck() {
        let w = Workload::named("baseline_repeat").expect("workload exists");
        let mut d = Dealer::new(w.deck.clone(), 7, Limit::Jobs(2 * ZIPF_DECK));
        let mut labels: Vec<String> =
            std::iter::from_fn(|| d.deal()).map(|(_, k)| k.label()).collect();
        let (mut first, mut second) = (labels[..ZIPF_DECK].to_vec(), labels.split_off(ZIPF_DECK));
        first.sort();
        second.sort();
        assert_eq!(first, second);
    }

    #[test]
    fn time_limit_stops_at_a_round_boundary() {
        let w = Workload::named("deep_induction").expect("workload exists");
        let mut d = Dealer::new(w.deck.clone(), 3, Limit::Time(Duration::ZERO));
        let dealt = std::iter::from_fn(|| d.deal()).count();
        assert_eq!(dealt % w.deck.len(), 0, "whole rounds only");
        assert!((MIN_TIMED_JOBS..MIN_TIMED_JOBS + w.deck.len()).contains(&dealt), "{dealt}");
    }

    #[test]
    fn nonces_differ_by_phase_and_index() {
        assert_ne!(nonce(1, Phase::Timed, 0), nonce(1, Phase::Timed, 1));
        assert_ne!(nonce(1, Phase::Timed, 0), nonce(1, Phase::Warmup, 0));
        assert_eq!(nonce(9, Phase::Timed, 4), nonce(9, Phase::Timed, 4));
    }
}
