//! Adaptive per-call-site sampling decisions.
//!
//! The global 1/N pacing lives on the heap's fast path
//! (`fa_heap::Heap::sentry_tick`); this sampler layers per-site policy on
//! top of it:
//!
//! * **boost** — the first allocation from a site that has never been
//!   sampled is taken unconditionally (while a small budget lasts), so
//!   rare sites are covered long before the global countdown would reach
//!   them;
//! * **cooling** — once a site has been sampled `hot_threshold` times,
//!   it only takes every `cool_factor`-th tick it wins, so a hot
//!   allocation loop cannot monopolize the slot arena;
//! * **suppression** — sites already covered by an installed patch are
//!   never sampled (there is nothing left to learn; the patch prevents
//!   the bug). A generic program-wide patch suppresses all sampling.
//!
//! All state is plain counters keyed by call-site: decisions are a pure
//! function of the allocation trace, so re-execution from a cloned
//! sampler replays the exact decision sequence.

use std::collections::{BTreeMap, BTreeSet};

use fa_proc::CallSite;

/// Per-site adaptive state.
#[derive(Clone, Debug, Default)]
struct SiteState {
    /// Allocations seen from this site.
    seen: u64,
    /// Allocations sampled from this site.
    sampled: u64,
    /// Ticks declined while cooling.
    cooled: u64,
}

/// The adaptive per-site sampling policy.
#[derive(Clone, Debug)]
pub struct Sampler {
    sites: BTreeMap<CallSite, SiteState>,
    suppressed: BTreeSet<CallSite>,
    /// A generic (program-wide) patch suppresses all sampling.
    suppress_all: bool,
    /// First-occurrence boosts still available.
    boost_left: u32,
    hot_threshold: u64,
    cool_factor: u64,
}

impl Sampler {
    /// Creates a sampler with the given boost budget and cooling knobs.
    pub fn new(boost_budget: u32, hot_threshold: u64, cool_factor: u64) -> Sampler {
        Sampler {
            sites: BTreeMap::new(),
            suppressed: BTreeSet::new(),
            suppress_all: false,
            boost_left: boost_budget,
            hot_threshold: hot_threshold.max(1),
            cool_factor: cool_factor.max(1),
        }
    }

    /// Replaces the suppression set with the sites of the installed
    /// patches. `suppress_all` corresponds to a generic program-wide
    /// patch being active.
    pub fn set_suppressed(
        &mut self,
        sites: impl IntoIterator<Item = CallSite>,
        suppress_all: bool,
    ) {
        self.suppressed = sites.into_iter().collect();
        self.suppress_all = suppress_all;
    }

    /// Returns `true` if `site` is currently suppressed.
    pub fn is_suppressed(&self, site: CallSite) -> bool {
        self.suppress_all || self.suppressed.contains(&site)
    }

    /// The currently suppressed sites, sorted (journaling supervisors
    /// record these so a recovered runtime re-suppresses exactly).
    pub fn suppressed_sites(&self) -> Vec<CallSite> {
        self.suppressed.iter().copied().collect()
    }

    /// Whether a generic program-wide patch suppresses all sampling.
    pub fn suppresses_all(&self) -> bool {
        self.suppress_all
    }

    /// One allocation from `site`; `tick` is the global 1/N pacing
    /// decision from the heap hook. Returns `true` if the allocation
    /// should be redirected into a guarded slot.
    pub fn decide(&mut self, site: CallSite, tick: bool) -> bool {
        let st = self.sites.entry(site).or_default();
        st.seen += 1;
        if self.suppress_all || self.suppressed.contains(&site) {
            return false;
        }
        // Boost: first sight of a never-sampled site.
        if st.sampled == 0 && st.seen == 1 && self.boost_left > 0 {
            self.boost_left -= 1;
            st.sampled += 1;
            return true;
        }
        if !tick {
            return false;
        }
        // Cooling: hot sites surrender most of the ticks they win.
        if st.sampled >= self.hot_threshold {
            st.cooled += 1;
            if !st.cooled.is_multiple_of(self.cool_factor) {
                return false;
            }
        }
        st.sampled += 1;
        true
    }

    /// Marks a sampled placement as declined after the fact (no slot was
    /// available), so the site does not heat up from it.
    pub fn undo_sample(&mut self, site: CallSite) {
        if let Some(st) = self.sites.get_mut(&site) {
            st.sampled = st.sampled.saturating_sub(1);
        }
    }
}

impl Default for Sampler {
    fn default() -> Sampler {
        Sampler::new(8, 4, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> CallSite {
        CallSite([n, n + 1, n + 2])
    }

    #[test]
    fn first_occurrence_is_boosted() {
        let mut s = Sampler::default();
        assert!(s.decide(site(1), false), "boost ignores the tick");
        assert!(!s.decide(site(1), false), "boost fires once per site");
    }

    #[test]
    fn boost_budget_is_finite() {
        let mut s = Sampler::new(2, 4, 4);
        assert!(s.decide(site(1), false));
        assert!(s.decide(site(2), false));
        assert!(!s.decide(site(3), false), "budget exhausted");
        assert!(s.decide(site(3), true), "but ticks still sample it");
    }

    #[test]
    fn hot_sites_are_cooled() {
        let mut s = Sampler::new(0, 2, 4);
        // Heat the site up to the threshold.
        assert!(s.decide(site(1), true));
        assert!(s.decide(site(1), true));
        // Now only every 4th won tick samples.
        let taken = (0..8).filter(|_| s.decide(site(1), true)).count();
        assert_eq!(taken, 2);
    }

    #[test]
    fn suppressed_sites_never_sample() {
        let mut s = Sampler::default();
        s.set_suppressed([site(1)], false);
        assert!(!s.decide(site(1), true));
        assert!(s.decide(site(2), true), "other sites unaffected");
        s.set_suppressed([], true);
        assert!(!s.decide(site(3), true), "generic patch suppresses all");
        assert!(s.is_suppressed(site(9)));
    }

    #[test]
    fn decisions_replay_after_clone() {
        let mut a = Sampler::new(3, 2, 3);
        let trace: Vec<(CallSite, bool)> = (0..200).map(|i| (site(i % 5), i % 7 == 0)).collect();
        let mut b = a.clone();
        let da: Vec<bool> = trace.iter().map(|&(s, t)| a.decide(s, t)).collect();
        let db: Vec<bool> = trace.iter().map(|&(s, t)| b.decide(s, t)).collect();
        assert_eq!(da, db);
    }
}
