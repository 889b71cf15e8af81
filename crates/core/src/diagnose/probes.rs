//! Probe semantics: trial-spec constructors, manifestation rules, and the
//! sentry fast path.

use fa_allocext::{BugType, ChangePlan, Manifestation, Mode, TrapRecord};
use fa_checkpoint::CheckpointManager;
use fa_exec::{ReplayHarness, RunReport, TrialLedger as Ledger, TrialSpec};
use fa_faults::FaultStage;
use fa_proc::{CallSite, Process};

use super::{
    trap_bug_type, trap_seed_site, DiagnosedBug, Diagnosis, DiagnosisEngine, MARGIN_INTERVALS,
    MAX_CHECKPOINT_TRIES, MAX_REEXECUTIONS,
};

impl DiagnosisEngine {
    /// Sentry fast-path diagnosis: a trapped failure arrives with the bug
    /// type and triggering call-site already suggested, so instead of the
    /// full ladder (non-determinism probe, phase-1 checkpoint scan, the
    /// `Su` rule-out chain) the engine runs one confirming re-execution
    /// with the suspected type exposing and everything else preventive.
    /// For directly-identifiable types the manifestations name the sites;
    /// for the read bugs the trapped site seeds the search: a clean
    /// `ExposeExcept({site})` run pins the whole bug on it, and only a
    /// residue falls back to the (seeded) binary search.
    ///
    /// Returns `None` when the trap does not confirm — a wedged engine,
    /// an expired deadline, or a probe that never manifests — in which
    /// case the caller falls back to [`DiagnosisEngine::diagnose`].
    pub fn diagnose_fast(
        &self,
        process: &mut Process,
        manager: &CheckpointManager,
        trap: &TrapRecord,
    ) -> Option<Diagnosis> {
        let failure = process.failure.clone()?;
        let f_idx = failure.input_index;
        let margin_ns = MARGIN_INTERVALS * manager.interval_ns();
        let until = ReplayHarness::success_end_cursor(process, f_idx, margin_ns);
        let bug = trap_bug_type(trap);
        let mut ledger = Ledger::new(format!(
            "sentry fast path: {} trap at input #{f_idx} suggests {bug}",
            trap.kind
        ));
        // A wedged engine degrades to the full ladder (which will consult
        // the same gate) instead of hanging the fast path.
        if self.faults.should_fail(FaultStage::DiagnosisTimeout) {
            return None;
        }
        // Checkpoint selection follows the ladder's phase-1 rule (latest
        // checkpoint that survives all-preventive with clean marks) so
        // both paths bisect over the same re-execution window — a later
        // checkpoint would see only a suffix of the triggering sites.
        let mut chosen: Option<u64> = None;
        for k in 0..MAX_CHECKPOINT_TRIES {
            if ledger.rollbacks >= MAX_REEXECUTIONS || self.past_deadline(&ledger) {
                return None;
            }
            let Some(ckpt) = manager.nth_newest(k) else {
                break;
            };
            let id = ckpt.id;
            let r = self.run(process, manager, &mut ledger, &Self::phase1_spec(id, until));
            if r.passed && !r.mark_corrupt() {
                ledger.log.push(format!(
                    "fast path: checkpoint {id} (-{k}) precedes the trigger"
                ));
                chosen = Some(id);
                break;
            }
        }
        let ckpt_id = chosen?;
        {
            // One confirming re-execution: the suspected type exposing,
            // everything else preventive.
            let spec = TrialSpec {
                ckpt_id,
                plan: ChangePlan::probe(bug, &BugType::ALL),
                mark: false,
                timing_seed: 0,
                until,
            };
            let r = self.run(process, manager, &mut ledger, &spec);
            if !Self::manifested(bug, &r) {
                ledger.log.push(format!(
                    "fast path: {bug} did not manifest from checkpoint {ckpt_id}; full ladder"
                ));
                return None;
            }
            ledger.log.push(format!(
                "fast path: {bug} confirmed from checkpoint {ckpt_id}"
            ));
            let sites = if bug.directly_identifiable() {
                Self::direct_sites(bug, &r)
            } else {
                let seed = trap_seed_site(trap, bug)?;
                let mut plan = ChangePlan::probe(bug, &BugType::ALL);
                *plan.mode_mut(bug) = Mode::ExposeExcept([seed].into_iter().collect());
                let spec = TrialSpec {
                    ckpt_id,
                    plan,
                    mark: false,
                    timing_seed: 0,
                    until,
                };
                let r2 = self.run(process, manager, &mut ledger, &spec);
                if !Self::manifested(bug, &r2) {
                    ledger.log.push(format!(
                        "fast path: trapped call-site {:x?} alone accounts for the bug",
                        seed.0
                    ));
                    vec![seed]
                } else {
                    ledger
                        .log
                        .push("fast path: residue beyond the trapped site; seeded search".into());
                    self.binary_search_sites(
                        process,
                        manager,
                        ckpt_id,
                        bug,
                        &BugType::ALL,
                        &r,
                        until,
                        &mut ledger,
                        &[seed],
                    )
                }
            };
            if sites.is_empty() {
                return None;
            }
            ledger.log.push(format!(
                "fast path: {bug} triggered at {} call-site(s)",
                sites.len()
            ));
            Some(Diagnosis {
                bugs: vec![DiagnosedBug {
                    bug,
                    sites,
                    evidence: r.manifests.clone(),
                }],
                checkpoint_id: ckpt_id,
                rollbacks: ledger.rollbacks,
                elapsed_ns: ledger.elapsed_ns,
                log: ledger.log,
                until_cursor: until,
            })
        }
    }

    /// Decides whether bug type `b` manifested in a probe run.
    pub(super) fn manifested(b: BugType, r: &RunReport) -> bool {
        match b {
            BugType::BufferOverflow | BugType::DanglingWrite | BugType::DoubleFree => {
                r.manifested(b)
            }
            // The exposing changes for the read bugs manifest as failures;
            // the extension's access counters disambiguate which kind of
            // read preceded the failure.
            BugType::DanglingRead => !r.passed && r.quarantine_reads > 0,
            BugType::UninitRead => !r.passed && r.uninit_reads > 0,
        }
    }

    /// Reads the triggering call-sites directly off the manifestations.
    pub(super) fn direct_sites(b: BugType, r: &RunReport) -> Vec<CallSite> {
        let mut sites = Vec::new();
        for m in &r.manifests {
            let site = match (b, m) {
                (BugType::BufferOverflow, Manifestation::PaddingCorrupt { alloc_site, .. }) => {
                    Some(*alloc_site)
                }
                (BugType::DanglingWrite, Manifestation::QuarantineCorrupt { freed_site, .. }) => {
                    Some(*freed_site)
                }
                (
                    BugType::DoubleFree,
                    Manifestation::DoubleFree {
                        first_free_site, ..
                    },
                ) => Some(*first_free_site),
                _ => None,
            };
            if let Some(s) = site {
                if !sites.contains(&s) {
                    sites.push(s);
                }
            }
        }
        sites
    }

    /// The phase-1 trial at checkpoint `id`: all preventive changes with
    /// heap marking.
    pub(super) fn phase1_spec(id: u64, until: usize) -> TrialSpec {
        TrialSpec {
            ckpt_id: id,
            plan: ChangePlan {
                heap_marking: true,
                ..ChangePlan::all_preventive()
            },
            mark: true,
            timing_seed: 0,
            until,
        }
    }

    /// The coverage-check trial: preventive for the identified set,
    /// exposing for the rest.
    pub(super) fn coverage_spec(
        ckpt: u64,
        su: &[BugType],
        si: &[BugType],
        until: usize,
    ) -> TrialSpec {
        let mut plan = ChangePlan::none();
        for &b in si {
            *plan.mode_mut(b) = Mode::Prevent;
        }
        for &b in su {
            *plan.mode_mut(b) = Mode::Expose;
        }
        TrialSpec {
            ckpt_id: ckpt,
            plan,
            mark: false,
            timing_seed: 0,
            until,
        }
    }
}
