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
use fa_checkpoint::CheckpointManager;
use fa_exec::{RunReport, TrialLedger as Ledger, TrialSpec};
use fa_proc::{CallSite, Process};

use super::{DiagnosisEngine, MAX_REEXECUTIONS};

impl DiagnosisEngine {
    /// Binary call-site search for dangling-read / uninit-read bugs:
    /// O(M·log N) re-executions for M triggering sites among N candidates.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn binary_search_sites(
        &self,
        process: &mut Process,
        manager: &CheckpointManager,
        ckpt_id: u64,
        bug: BugType,
        prevent: &[BugType],
        first_probe: &RunReport,
        until: usize,
        ledger: &mut Ledger,
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
            if ledger.rollbacks >= MAX_REEXECUTIONS || self.past_deadline(ledger) {
                if self.past_deadline(ledger) {
                    ledger
                        .log
                        .push("diagnosis deadline exceeded during binary search".into());
                }
                break;
            }
            // Do the remaining candidates still trigger the bug with the
            // identified sites held preventive?
            let except: HashSet<CallSite> = identified.iter().copied().collect();
            let mut plan = ChangePlan::probe(bug, prevent);
            *plan.mode_mut(bug) = Mode::ExposeExcept(except);
            let spec = TrialSpec {
                ckpt_id,
                plan,
                mark: false,
                timing_seed: 0,
                until,
            };
            let r = self.run(process, manager, ledger, &spec);
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
                if ledger.rollbacks >= MAX_REEXECUTIONS || self.past_deadline(ledger) {
                    break;
                }
                let half: Vec<CallSite> = range[..range.len() / 2].to_vec();
                let half_set: HashSet<CallSite> = half.iter().copied().collect();
                let mut plan = ChangePlan::probe(bug, prevent);
                *plan.mode_mut(bug) = Mode::ExposeOnly(half_set);
                let spec = TrialSpec {
                    ckpt_id,
                    plan,
                    mark: false,
                    timing_seed: 0,
                    until,
                };
                let r = self.run(process, manager, ledger, &spec);
                if Self::manifested(bug, &r) {
                    range = half;
                } else {
                    range = range[range.len() / 2..].to_vec();
                }
            }
            let site = range[0];
            ledger.log.push(format!(
                "binary search: identified {bug} trigger call-site {:x?}",
                site.0
            ));
            identified.push(site);
        }
        identified
    }
}
