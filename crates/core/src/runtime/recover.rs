//! The failure path: trap consumption, the patch health monitor,
//! diagnosis (fast path or full ladder), the final patched replay, and
//! validation.

use fa_allocext::TrapRecord;
use fa_checkpoint::ROLLBACK_COST_NS;
use fa_exec::FaError;
use fa_proc::FailureRecord;

use crate::diagnose::{trap_bug_type, trap_seed_site, DiagnosisEngine, DiagnosisOutcome};
use crate::log;
use crate::report::BugReport;
use crate::validate::ValidationEngine;

use super::{FirstAidRuntime, RecoveryKind, RecoveryRecord, PATCH_RECURRENCE_LIMIT};

impl FirstAidRuntime {
    /// Health-monitor key for a failure: fault class + failing op code.
    /// Deliberately coarse — a patch that "works" but lets the same kind
    /// of failure recur on the same request type is not working.
    ///
    /// Sentry traps carry the faulting object's call-site, so their
    /// signature additionally pins the patch-relevant site: a sampled
    /// trap at one call-site must not count as a recurrence against a
    /// patch that was installed for a *different* call-site signature.
    fn bug_signature(&self, failure: &FailureRecord, trap: Option<&TrapRecord>) -> String {
        let op = self
            .process
            .log()
            .get(failure.input_index)
            .map(|i| i.op)
            .unwrap_or(u32::MAX);
        match trap {
            Some(t) => {
                let bug = trap_bug_type(t);
                let site = trap_seed_site(t, bug).unwrap_or(t.alloc_site);
                format!("{}@op{op}@s{:x}", failure.fault.class(), site.leaf())
            }
            None => format!("{}@op{op}", failure.fault.class()),
        }
    }

    /// Diagnoses the pending failure, installs patches, resumes execution,
    /// validates, and files a [`RecoveryRecord`]. Returns its index, or
    /// [`FaError::NoPendingFailure`] if no failure is pending.
    ///
    /// When precise diagnosis is impossible (timeout, flaky re-execution,
    /// lost checkpoints, revoked patches), recovery descends the
    /// degradation ladder instead of giving up: generic best-effort
    /// patches → rollback-and-drop → (via [`FirstAidRuntime::needs_restart`])
    /// drop-and-restart.
    pub fn recover(&mut self) -> Result<usize, FaError> {
        let Some(failure) = self.process.failure.clone() else {
            return Err(FaError::NoPendingFailure("recover"));
        };
        self.sync_wall();
        let wall_at_failure = self.wall_ns;

        // A sentry trap caught the bug at the faulting access; consume
        // the trap record now (rollbacks below would discard it) so it
        // can key the health monitor and seed the fast diagnosis path.
        let trap = if failure.fault.class() == "sentry-trap" {
            self.with_ext(|ext| ext.take_pending_trap())
        } else {
            None
        };
        if let Some(t) = &trap {
            // The extension's counters for this trap sit in state the
            // recovery is about to roll back; re-home the trap onto the
            // runtime's own counters (which survive rollbacks) and drop
            // the extension's copy so no-rollback recoveries do not
            // count it twice.
            let kind = t.kind;
            self.with_ext(|ext| {
                if let Some(e) = ext.sentry_mut() {
                    e.metrics_mut().uncount_trap(kind);
                }
            });
            self.sentry_counters.count_trap(kind);
        }

        // Discard checkpoints whose checksum no longer matches before
        // anything relies on the ring: diagnosis and the ladder both
        // fall back to the next-older intact checkpoint.
        let swept = self.manager.sweep_corrupt();
        if !swept.is_empty() {
            self.degradation.checkpoint_checksum_misses += swept.len();
            log::warn(format!(
                "{}: discarded {} corrupt checkpoint(s) {:?}; falling back to older intact ones",
                self.program,
                swept.len(),
                swept
            ));
        }

        // Patch health monitor: a recurring bug signature means the
        // patches installed for it are not working. Revoke them (fleet-
        // wide tombstone) and escalate one rung.
        let sig = self.bug_signature(&failure, trap.as_ref());
        let recurrence = {
            let entry = self.monitor.entry(sig.clone()).or_default();
            entry.count += 1;
            entry.count
        };
        if recurrence >= PATCH_RECURRENCE_LIMIT {
            let sites = self
                .monitor
                .get_mut(&sig)
                .map(|e| std::mem::take(&mut e.sites))
                .unwrap_or_default();
            if !sites.is_empty() {
                let mut revoked = 0usize;
                for site in sites {
                    if self.pool.revoke(&self.program, site) {
                        revoked += 1;
                    }
                }
                if revoked > 0 {
                    self.degradation.patch_revocations += revoked;
                    log::warn(format!(
                        "{}: bug signature {sig} recurred {recurrence}x under its patches; \
                         revoked {revoked} site(s) and escalating one rung",
                        self.program
                    ));
                }
                if let Some(e) = self.monitor.get_mut(&sig) {
                    e.count = 0;
                }
                self.last_failure_index = Some(failure.input_index);
                let record =
                    self.descend_ladder(&failure, wall_at_failure, Vec::new(), &sig, trap.as_ref());
                return Ok(self.push_record(record));
            }
        }

        // Crash-loop safeguard: if failures recur within a few inputs of
        // the previous one, diagnosis is evidently not helping (e.g. an
        // ineffective patch, or a bug First-Aid cannot fix) — resort to
        // the cheap recovery scheme and drop the input (paper §2: "times
        // out and resorts to other recovery schemes").
        let crash_loop = self
            .last_failure_index
            .is_some_and(|prev| failure.input_index.saturating_sub(prev) < 20);
        self.last_failure_index = Some(failure.input_index);
        if crash_loop {
            let record = self.descend_cheap(wall_at_failure, &sig);
            return Ok(self.push_record(record));
        }

        let engine = DiagnosisEngine::with_faults(self.config.engine, self.config.faults.clone());
        // Sentry traps name the faulting call-site, so try the fast path
        // first: one confirming re-execution seeded with the trapped
        // site instead of the full trial ladder. When it cannot confirm
        // (or a pipeline fault wedges it), degrade to the full ladder.
        let outcome = match trap
            .as_ref()
            .and_then(|t| engine.diagnose_fast(&mut self.process, &self.manager, t))
        {
            Some(d) => {
                self.sentry_counters.fast_path_diagnoses += 1;
                DiagnosisOutcome::Diagnosed(d)
            }
            None => {
                if trap.is_some() {
                    self.sentry_counters.full_ladder_diagnoses += 1;
                }
                engine.diagnose(&mut self.process, &self.manager)
            }
        };
        self.degradation.reexec_retries += engine.retries_used();
        self.degradation.trial_hangs += engine.trial_hangs();
        self.trial_errors += engine.trial_errors();
        let record = match outcome {
            DiagnosisOutcome::NonDeterministic {
                elapsed_ns, log, ..
            } => {
                // The successful plain re-execution left the process past
                // the failure region; keep going from there.
                self.wall_ns += elapsed_ns;
                self.resync_without_credit();
                self.manager.rearm(&self.process);
                self.degradation.nondeterministic += 1;
                let _ = log;
                RecoveryRecord {
                    kind: RecoveryKind::NonDeterministic,
                    diagnosis: None,
                    patches: Vec::new(),
                    recovery_ns: self.wall_ns - wall_at_failure,
                    validation: None,
                    report: None,
                }
            }
            DiagnosisOutcome::NonPatchable {
                elapsed_ns,
                log,
                timed_out,
                ..
            } => {
                self.wall_ns += elapsed_ns;
                if timed_out {
                    self.degradation.diagnosis_timeouts += 1;
                }
                self.descend_ladder(&failure, wall_at_failure, log, &sig, trap.as_ref())
            }
            DiagnosisOutcome::Diagnosed(diagnosis) => {
                self.wall_ns += diagnosis.elapsed_ns;
                let patches = diagnosis.patches(&self.process.ctx.symbols);
                // A diagnosis that only re-derives revoked (known-
                // ineffective) sites would re-install them and loop;
                // escalate instead.
                if !patches.is_empty()
                    && patches
                        .iter()
                        .all(|p| self.pool.is_revoked(&self.program, p.site))
                {
                    log::warn(format!(
                        "{}: diagnosis re-derived only revoked patch site(s); escalating",
                        self.program
                    ));
                    let record = self.descend_ladder(
                        &failure,
                        wall_at_failure,
                        diagnosis.log.clone(),
                        &sig,
                        trap.as_ref(),
                    );
                    return Ok(self.push_record(record));
                }
                self.pool.add(&self.program, patches.iter().cloned());
                if let Some(e) = self.monitor.get_mut(&sig) {
                    e.sites = patches.iter().map(|p| p.site).collect();
                }
                self.degradation.precise_patches += 1;
                let patchset = self.sync_pool_patches();

                // Final recovery pass: back to the diagnosis checkpoint in
                // normal mode with the patches installed; replay forward.
                self.manager
                    .rollback_to(&mut self.process, diagnosis.checkpoint_id);
                self.install_patchset(patchset.clone());
                // Recovery ends when the process is back in normal mode
                // and has caught up to the input it crashed on; traffic
                // beyond that is ordinary execution (the paper's recovery
                // time is "from when the failure is first caught to when
                // the program changes back to normal mode").
                let t0 = self.process.ctx.clock.now();
                self.process.replay_until(failure.input_index + 1);
                if self.process.failure.is_some() {
                    // The patch did not carry the replay through the
                    // region (should not happen after a clean phase 1);
                    // drop the poisoned input rather than loop.
                    self.process.clear_failure();
                    self.process.skip_current();
                }
                self.wall_ns += self.process.ctx.clock.now().saturating_sub(t0) + ROLLBACK_COST_NS;
                self.resync_without_credit();
                let recovery_ns = self.wall_ns - wall_at_failure;

                // Validation runs on a fork from the diagnosis checkpoint;
                // it is parallel in the paper, so its virtual time is
                // reported but not added to the main wall.
                let (validation, report) = if self.config.validation_iterations > 0 {
                    let snap = self
                        .manager
                        .get(diagnosis.checkpoint_id)
                        .map(|c| c.snap.clone());
                    match snap {
                        Some(snap) => {
                            let verdict = ValidationEngine::new(self.config.validation_iterations)
                                .try_validate(
                                    &self.config.faults,
                                    &self.process,
                                    &snap,
                                    &patchset,
                                    diagnosis.until_cursor,
                                );
                            match verdict {
                                None => {
                                    // The validation fork died; the patches
                                    // already survived diagnosis, so keep
                                    // them — but file no consistency verdict
                                    // and no report.
                                    self.degradation.validation_fork_failures += 1;
                                    log::warn(format!(
                                        "{}: validation fork failed; keeping patches unvalidated",
                                        self.program
                                    ));
                                    (None, None)
                                }
                                Some(v) => {
                                    if !v.consistent {
                                        for p in &patches {
                                            self.pool.remove_site(&self.program, p.site);
                                        }
                                        let reduced = self.sync_pool_patches();
                                        self.install_patchset(reduced);
                                        if let Some(e) = self.monitor.get_mut(&sig) {
                                            e.sites.clear();
                                        }
                                    }
                                    let report = BugReport::build(
                                        &self.program,
                                        &failure,
                                        &diagnosis,
                                        &patches,
                                        &v,
                                        &self.process.ctx.symbols,
                                        trap.as_ref(),
                                    );
                                    (Some(v), Some(report))
                                }
                            }
                        }
                        None => (None, None),
                    }
                } else {
                    (None, None)
                };

                self.manager.truncate_after(diagnosis.checkpoint_id);
                self.manager.rearm(&self.process);
                RecoveryRecord {
                    kind: RecoveryKind::Patched,
                    diagnosis: Some(diagnosis),
                    patches,
                    recovery_ns,
                    validation,
                    report,
                }
            }
        };
        // A trap that did not end in precise patches is a false (or at
        // least unconfirmable) trap; feed the rate back into metrics so
        // the bench can police sampling quality.
        if trap.is_some() && record.kind != RecoveryKind::Patched {
            self.sentry_counters.false_traps += 1;
        }
        Ok(self.push_record(record))
    }
}
