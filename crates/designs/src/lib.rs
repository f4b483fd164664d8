//! # genfv-designs — the evaluation design corpus
//!
//! The paper evaluates its flows on "counters and ECC" designs. This crate
//! ships a corpus of nineteen RTL designs in the `genfv-hdl` subset, each
//! bundled with the natural-language specification the Flow-1 prompt needs
//! and the target properties the flows must prove:
//!
//! * **counters** — the paper's Listing-1 synchronized counters (32- and
//!   16-bit), constant-offset counters, a modulo-N counter, a saturating
//!   up/down counter, a Gray-code counter, and a deliberately broken pair;
//! * **shift registers** — a one-hot ring counter, an LFSR, twin shift
//!   registers;
//! * **ECC** — a parity-protected pipeline, a Hamming(7,4) corrector, and
//!   a Hamming(8,4) SEC-DED pipeline;
//! * **FIFO** — pointer/occupancy control logic;
//! * **control** — credit-based flow control, a registered divider with
//!   Euclidean-identity checks, a watchdog timer, and a token-passing
//!   arbiter.
//!
//! Each bundle declares an [`Expectation`] describing its role in the
//! experiments: proves unaided, needs LLM-generated lemmas, or contains a
//! real (seeded) bug.
//!
//! ```
//! let corpus = genfv_designs::all_designs();
//! assert!(corpus.iter().any(|d| d.name == "sync_counters"));
//! let d = genfv_designs::by_name("hamming74").unwrap();
//! assert!(d.rtl.contains("module hamming74"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod counters;
pub mod datapath;
pub mod ecc;
pub mod fifo;
pub mod shift;

/// How a design is expected to behave under plain k-induction (small k,
/// no lemmas, prepared at `OptLevel::None`) — drives the experiment
/// harness and the corpus self-tests. The default prepare's register
/// correspondence proves three `NeedsLemmas` designs unaided
/// (`sync_counters`, `sync_counters_16`, `twin_shift`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// Every target proves with plain k-induction at small k.
    ProvesUnaided,
    /// At least one target fails its induction step until helper lemmas
    /// are supplied (the paper's core scenario).
    NeedsLemmas,
    /// A target has a reachable counterexample (seeded bug).
    HasRealBug,
}

/// An RTL design plus its specification and verification targets.
#[derive(Clone, Debug)]
pub struct DesignBundle {
    /// Unique corpus name.
    pub name: &'static str,
    /// RTL source in the `genfv-hdl` subset.
    pub rtl: &'static str,
    /// Natural-language specification (Flow-1 prompt input).
    pub spec: &'static str,
    /// `(name, sva)` target properties.
    pub targets: Vec<(String, String)>,
    /// Expected behaviour under plain induction.
    pub expectation: Expectation,
}

impl DesignBundle {
    /// Prepares the design for the `genfv-core` flows.
    ///
    /// # Errors
    /// Propagates parse/elaborate/compile failures (none occur for the
    /// shipped corpus; the error path serves downstream users).
    pub fn prepare(&self) -> Result<genfv_core::PreparedDesign, genfv_core::Error> {
        genfv_core::PreparedDesign::new(self.name, self.rtl, self.spec, &self.targets)
    }

    /// Like [`DesignBundle::prepare`] but with an explicit optimization
    /// configuration — `OptLevel::None` is the paper's plain k-induction,
    /// which the experiments and the opt suites compare against.
    ///
    /// # Errors
    /// Same as [`DesignBundle::prepare`].
    pub fn prepare_with(
        &self,
        opt: &genfv_core::OptConfig,
    ) -> Result<genfv_core::PreparedDesign, genfv_core::Error> {
        genfv_core::PreparedDesign::with_opt(self.name, self.rtl, self.spec, &self.targets, opt)
    }
}

/// The complete flow corpus, in a stable order.
///
/// The [`datapath_designs`] bundles are kept separate: their multiplier
/// cones make candidate-validation workloads (the corpus-wide Houdini
/// and session differential suites re-validate whole candidate pools per
/// design) an order of magnitude more expensive without adding flow
/// coverage — they exist to exercise *encoding*, and the encoding
/// suites pull them in explicitly.
pub fn all_designs() -> Vec<DesignBundle> {
    vec![
        counters::sync_counters(),
        counters::sync_counters_16(),
        counters::offset_counters(),
        counters::modn_counter(),
        counters::updown_counter(),
        counters::gray_counter(),
        counters::desync_counters(),
        shift::ring_counter(),
        shift::lfsr(),
        shift::twin_shift(),
        ecc::parity_pipe(),
        ecc::hamming74(),
        ecc::secded84(),
        ecc::ecc_counter(),
        fifo::fifo_counters(),
        control::credit_flow(),
        control::div_checker(),
        control::watchdog(),
        control::token_arbiter(),
    ]
}

/// Arithmetic datapath checkers (registered multiplier identities):
/// encoding-bound induction workloads for the template-unrolling bench
/// and differential suites.
pub fn datapath_designs() -> Vec<DesignBundle> {
    vec![datapath::mul_incr(), datapath::mul_distrib()]
}

/// Looks a design up by name (flow corpus plus datapath designs).
pub fn by_name(name: &str) -> Option<DesignBundle> {
    all_designs().into_iter().chain(datapath_designs()).find(|d| d.name == name)
}

/// The designs whose targets require helper lemmas (the paper's headline
/// scenario set).
pub fn lemma_hungry_designs() -> Vec<DesignBundle> {
    all_designs().into_iter().filter(|d| d.expectation == Expectation::NeedsLemmas).collect()
}
