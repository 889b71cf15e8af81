//! The O(M·log N) call-site bisection for the read bugs.
//!
//! Dangling and uninitialized reads leave no direct evidence at a single
//! call-site, so the triggering sites are found by binary search over the
//! candidate set: expose half the candidates, see whether the bug still
//! manifests, and recurse into the manifesting half. Each identified site
//! is then held preventive while the remainder is re-checked, so multiple
//! triggering sites cost M searches of log N trials each.

use std::collections::HashSet;

use fa_allocext::{BugType, ChangePlan, Mode};
use fa_exec::RunReport;
use fa_proc::CallSite;

use super::{DiagnosisEngine, Ledger, MAX_REEXECUTIONS};

impl DiagnosisEngine {
    /// Binary call-site search for dangling-read / uninit-read bugs:
    /// O(M·log N) re-executions for M triggering sites among N candidates,
    /// all from checkpoint `ckpt_id` with the `prevent` types preventive.
    /// `seeded` sites count as identified from the start.
    pub(super) fn binary_search_sites(
        lg: &mut Ledger,
        ckpt_id: u64,
        bug: BugType,
        prevent: &[BugType],
        first_probe: &RunReport,
        seeded: &[CallSite],
    ) -> Vec<CallSite> {
        let mut identified: Vec<CallSite> = seeded.to_vec();
        // Candidates from the manifesting probe run.
        let mut candidates: Vec<CallSite> = if bug.patches_at_allocation() {
            first_probe.alloc_sites.clone()
        } else {
            first_probe.dealloc_sites.clone()
        };

        loop {
            if lg.past_deadline() {
                lg.deadline_exceeded("diagnosis deadline exceeded during binary search");
                break;
            }
            if lg.rollbacks >= MAX_REEXECUTIONS {
                break;
            }
            // Do the remaining candidates still trigger the bug with the
            // identified sites held preventive?
            let except: HashSet<CallSite> = identified.iter().copied().collect();
            let mut plan = ChangePlan::probe(bug, prevent);
            *plan.mode_mut(bug) = Mode::ExposeExcept(except);
            let r = lg.run(ckpt_id, plan, lg.opts);
            if !Self::manifested(bug, &r) {
                break;
            }
            // Refresh candidates from the farthest-reaching view.
            let seen = if bug.patches_at_allocation() {
                &r.alloc_sites
            } else {
                &r.dealloc_sites
            };
            for &s in seen {
                if !candidates.contains(&s) {
                    candidates.push(s);
                }
            }
            let mut range: Vec<CallSite> = candidates
                .iter()
                .filter(|s| !identified.contains(s))
                .copied()
                .collect();
            if range.is_empty() {
                break;
            }
            while range.len() > 1 {
                if lg.rollbacks >= MAX_REEXECUTIONS || lg.past_deadline() {
                    break;
                }
                let half: Vec<CallSite> = range[..range.len() / 2].to_vec();
                let half_set: HashSet<CallSite> = half.iter().copied().collect();
                let mut plan = ChangePlan::probe(bug, prevent);
                *plan.mode_mut(bug) = Mode::ExposeOnly(half_set);
                let r = lg.run(ckpt_id, plan, lg.opts);
                if Self::manifested(bug, &r) {
                    range = half;
                } else {
                    range = range[range.len() / 2..].to_vec();
                }
            }
            let site = range[0];
            lg.log.push(format!(
                "binary search: identified {bug} trigger call-site {:x?}",
                site.0
            ));
            identified.push(site);
        }
        identified
    }
}
