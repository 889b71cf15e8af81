//! The degradation ladder (rungs 2–4): what recovery does when precise
//! diagnosis is unavailable — generic best-effort patches, rollback-and-
//! drop, and the cheap in-place descent that feeds the rung-4 restart
//! decision.

use fa_allocext::{BugType, Patch, TrapRecord, GENERIC_SITE};
use fa_exec::ROLLBACK_COST_NS;
use fa_proc::FailureRecord;

use crate::log;
use crate::report::BugReport;

use super::{FirstAidRuntime, RecoveryKind, RecoveryRecord};

impl FirstAidRuntime {
    /// Makes sure the program-wide generic best-effort patches
    /// (`AddPadding` + `DelayFree` at every call-site) are in the pool,
    /// unless that rung has itself been revoked. Returns the freshly
    /// added patches (empty if they were already present or revoked).
    fn arm_generic_rung(&mut self) -> Vec<Patch> {
        if self.pool.is_revoked(&self.program, GENERIC_SITE) {
            return Vec::new();
        }
        let generics = vec![
            Patch::generic(BugType::BufferOverflow),
            Patch::generic(BugType::DanglingRead),
        ];
        if self.pool.add(&self.program, generics.iter().cloned()) > 0 {
            log::warn(format!(
                "{}: descending to generic best-effort patches \
                 (program-wide add-padding + delay-free)",
                self.program
            ));
            generics
        } else {
            Vec::new()
        }
    }

    /// Ladder rungs 2 and 3: roll back to the **oldest** intact
    /// checkpoint (maximum distance from the poisoned state), install
    /// the generic best-effort patches if that rung is still available,
    /// replay, and — under generic protection — attempt the poisoned
    /// input itself. Serving it is rung 2 ([`RecoveryKind::GenericPatched`]);
    /// dropping it is rung 3 ([`RecoveryKind::Dropped`]).
    pub(super) fn descend_ladder(
        &mut self,
        failure: &FailureRecord,
        wall_at_failure: u64,
        diag_log: Vec<String>,
        sig: &str,
        trap: Option<&TrapRecord>,
    ) -> RecoveryRecord {
        let fresh = self.arm_generic_rung();
        let patchset = self.sync_pool_patches();
        let generic_active = patchset.has_generic();

        let Some(target) = self.manager.oldest().map(|c| c.id) else {
            // Every checkpoint was corrupt and got swept: no rollback
            // target at all. Cheapest possible recovery in place.
            return self.descend_cheap(wall_at_failure, sig);
        };
        self.manager.rollback_to(&mut self.process, target);
        self.install_patchset(patchset);
        let t0 = self.process.ctx.clock.now();
        while self.process.cursor() < failure.input_index {
            match self.process.step() {
                Some(r) if r.is_ok() => {}
                _ => break,
            }
        }
        let mut served_through = false;
        if self.process.failure.is_some() {
            // The replay itself failed en route; drop whatever input it
            // died on rather than loop.
            self.process.clear_failure();
            self.process.skip_current();
        } else if self.process.cursor() == failure.input_index {
            if generic_active {
                // Attempt the poisoned input under generic protection.
                match self.process.step() {
                    Some(r) if r.is_ok() => served_through = true,
                    _ => {
                        if self.process.failure.is_some() {
                            self.process.clear_failure();
                        }
                        self.process.skip_current();
                    }
                }
            } else {
                self.process.skip_current();
            }
        }
        self.wall_ns += self.process.ctx.clock.now().saturating_sub(t0) + ROLLBACK_COST_NS;
        self.resync_without_credit();
        self.manager.truncate_after(target);
        self.manager.rearm(&self.process);

        if generic_active {
            // The generic rung now guards this signature; if it recurs
            // anyway, the health monitor revokes GENERIC_SITE and the
            // next descent lands on rung 3.
            let entry = self.monitor.entry(sig.to_owned()).or_default();
            entry.sites = vec![GENERIC_SITE];
        }
        let (kind, rung) = if served_through {
            self.degradation.generic_patches += 1;
            (
                RecoveryKind::GenericPatched,
                "generic best-effort patch (rung 2)",
            )
        } else {
            self.degradation.rollback_drops += 1;
            (RecoveryKind::Dropped, "rollback-and-drop (rung 3)")
        };
        let report = BugReport::degraded(&self.program, failure, rung, &fresh, diag_log, trap);
        RecoveryRecord {
            kind,
            diagnosis: None,
            patches: fresh,
            recovery_ns: self.wall_ns - wall_at_failure,
            validation: None,
            report: Some(report),
        }
    }

    /// Cheap in-place descent (crash loops, or no intact checkpoint):
    /// no rollback, no replay — arm the generic rung so prevention gets
    /// a chance to break the loop, then drop the poisoned input.
    pub(super) fn descend_cheap(&mut self, wall_at_failure: u64, sig: &str) -> RecoveryRecord {
        let fresh = self.arm_generic_rung();
        if !fresh.is_empty() {
            let patchset = self.sync_pool_patches();
            self.install_patchset(patchset);
            let entry = self.monitor.entry(sig.to_owned()).or_default();
            entry.sites = vec![GENERIC_SITE];
        }
        self.process.clear_failure();
        self.process.skip_current();
        self.manager.rearm(&self.process);
        self.degradation.rollback_drops += 1;
        RecoveryRecord {
            kind: RecoveryKind::Dropped,
            diagnosis: None,
            patches: fresh,
            recovery_ns: self.wall_ns - wall_at_failure,
            validation: None,
            report: None,
        }
    }
}
