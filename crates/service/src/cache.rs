//! Design-hash-keyed LRU cache of warm session capital.
//!
//! Preparing a design (parse → elaborate → compile targets) and warming
//! its first [`genfv_mc::ProofSession`] (bit-blasting the transition
//! template, probing base cases) is the dominant cost of small repeat
//! requests. The service keeps both behind one key — the request's
//! [`design_hash`](crate::DesignInput::design_hash) — as a
//! [`CacheEntry`]: the shared [`PreparedDesign`] and the design's
//! [`SessionSeed`] (template + clean depths, see `genfv-mc`). Repeat
//! traffic skips preparation entirely and every session it starts adopts
//! the seed, reusing the template and the already-proven base-case
//! depths.
//!
//! Eviction is plain LRU under two budgets: entry count and approximate
//! resident bytes ([`SessionSeed::approx_bytes`]). A zero entry budget
//! disables caching (the cold-service configuration that
//! `service_differential.rs` checks warm traffic against).

use genfv_core::PreparedDesign;
use genfv_mc::SessionSeed;
use std::collections::HashMap;
use std::sync::Arc;

/// Warm capital for one design.
#[derive(Clone)]
pub struct CacheEntry {
    /// The elaborated design (skips re-preparation).
    pub design: Arc<PreparedDesign>,
    /// Cross-session warm-start capital (template + clean depths).
    pub seed: Arc<SessionSeed>,
}

/// LRU cache of [`CacheEntry`]s keyed by design hash.
pub(crate) struct DesignCache {
    entries: HashMap<u64, CacheEntry>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
    max_entries: usize,
    max_bytes: usize,
    evictions: u64,
}

impl DesignCache {
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        DesignCache {
            entries: HashMap::new(),
            order: Vec::new(),
            max_entries,
            max_bytes,
            evictions: 0,
        }
    }

    /// Looks `hash` up, marking it most-recently used.
    pub(crate) fn get(&mut self, hash: u64) -> Option<CacheEntry> {
        let entry = self.entries.get(&hash)?.clone();
        self.touch(hash);
        Some(entry)
    }

    /// Inserts (or refreshes) `hash`, then evicts LRU entries until both
    /// budgets hold. The just-inserted entry is never evicted by its own
    /// insertion, even if it alone exceeds the byte budget.
    pub(crate) fn insert(&mut self, hash: u64, entry: CacheEntry) {
        if self.max_entries == 0 {
            return;
        }
        self.entries.insert(hash, entry);
        self.touch(hash);
        while self.order.len() > 1
            && (self.order.len() > self.max_entries || self.resident_bytes() > self.max_bytes)
        {
            let victim = self.order.remove(0);
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }

    fn touch(&mut self, hash: u64) {
        self.order.retain(|&h| h != hash);
        self.order.push(hash);
    }

    fn resident_bytes(&self) -> usize {
        self.entries.values().map(|e| e.seed.approx_bytes()).sum()
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Keys from least- to most-recently used (tests).
    #[cfg(test)]
    pub(crate) fn lru_order(&self) -> &[u64] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CacheEntry {
        let design = Arc::new(
            PreparedDesign::new(
                "d",
                "module d (input clk, output logic q);\n  always_ff @(posedge clk) q <= ~q;\nendmodule\n",
                "toggle",
                &[],
            )
            .unwrap(),
        );
        let seed = SessionSeed::for_design(&design.ctx, &design.ts);
        CacheEntry { design, seed }
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = DesignCache::new(2, usize::MAX);
        c.insert(1, entry());
        c.insert(2, entry());
        assert_eq!(c.lru_order(), &[1, 2]);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        assert_eq!(c.lru_order(), &[2, 1]);
        c.insert(3, entry());
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn byte_budget_evicts_but_keeps_newest() {
        // Every entry's seed is non-empty-template-free but approx_bytes
        // counts clean entries; an empty seed still reports 0 bytes, so
        // force eviction purely via the entry budget being generous and
        // the byte budget being zero: the newest entry must survive.
        let mut c = DesignCache::new(10, 0);
        c.insert(1, entry());
        c.insert(2, entry());
        assert!(c.len() >= 1, "newest insertion always survives");
        assert!(c.get(2).is_some());
    }

    #[test]
    fn zero_entry_budget_disables_cache() {
        let mut c = DesignCache::new(0, usize::MAX);
        c.insert(1, entry());
        assert_eq!(c.len(), 0);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = DesignCache::new(2, usize::MAX);
        c.insert(1, entry());
        c.insert(2, entry());
        c.insert(1, entry());
        assert_eq!(c.lru_order(), &[2, 1]);
    }
}
