//! The diagnosis engine (paper §4).
//!
//! Phase 1 identifies the latest checkpoint before the bug-triggering
//! point; phase 2 identifies the bug types (the `Su`/`Si` probe algorithm)
//! and the bug-triggering call-sites — directly from canary corruption and
//! deallocation parameters for overflow / dangling write / double free, and
//! by O(M·log N) binary search over call-sites for dangling read and
//! uninitialized read.
//!
//! The engine never drives rollback/replay plumbing itself: every trial is
//! a [`TrialSpec`] re-executed on the supervised process through
//! [`ReplayHarness::try_reexecute`], one at a time, as in the paper. The
//! engine's concerns are split across submodules: `probes` (spec
//! construction, manifestation rules, and the sentry fast path
//! [`DiagnosisEngine::diagnose_fast`]), `tree` (the O(M·log N) call-site
//! bisection), and `trial` (fault gate, re-execution, watchdog and ledger
//! charge for one trial).

mod probes;
mod tree;
mod trial;

use std::cell::Cell;

use fa_allocext::{BugType, ChangePlan, Manifestation, Patch, TrapKind, TrapRecord};
use fa_checkpoint::CheckpointManager;
use fa_exec::{FaError, ReplayHarness, TrialLedger as Ledger, TrialSpec};
use fa_faults::{FaultPlan, FaultStage};
use fa_mem::AccessKind;
use fa_proc::{CallSite, Process};

/// Maps a sentry trap to the bug type it evidences.
pub fn trap_bug_type(trap: &TrapRecord) -> BugType {
    match trap.kind {
        TrapKind::GuardHit | TrapKind::CanaryOnFree => BugType::BufferOverflow,
        TrapKind::DoubleFreeSlot => BugType::DoubleFree,
        TrapKind::UninitReadSlot => BugType::UninitRead,
        TrapKind::PoisonAccess => match trap.access {
            Some(AccessKind::Write) => BugType::DanglingWrite,
            _ => BugType::DanglingRead,
        },
    }
}

/// The call-site a sentry trap suggests as the patch point for `bug`.
pub fn trap_seed_site(trap: &TrapRecord, bug: BugType) -> Option<CallSite> {
    if bug.patches_at_allocation() {
        Some(trap.alloc_site)
    } else {
        trap.free_site
    }
}

/// Success margin past the failure point, as a multiple of the
/// checkpoint interval (the paper uses 3).
pub(crate) const MARGIN_INTERVALS: u64 = 3;

/// How many checkpoints phase 1 tries before declaring the bug
/// non-patchable.
pub(crate) const MAX_CHECKPOINT_TRIES: usize = 8;

/// Hard cap on total re-executions (the diagnosis timeout).
const MAX_REEXECUTIONS: usize = 96;

/// Hard deadline on total diagnosis time (virtual ns). A diagnosis that
/// blows it is abandoned as non-patchable and the runtime descends the
/// degradation ladder.
const DEADLINE_NS: u64 = 120_000_000_000;

/// How many times a flaky re-execution (one that dies for reasons
/// unrelated to the bug) is retried before the iteration is written off
/// as failed.
const REEXEC_RETRIES: u32 = 2;

/// Base backoff charged per flaky retry; doubles per attempt.
const RETRY_BACKOFF_NS: u64 = 2_000_000;

/// Per-trial virtual-time deadline enforced by the hung-trial watchdog.
/// A trial past it is declared lost and recovery degrades (descends the
/// ladder) instead of wedging diagnosis.
const TRIAL_DEADLINE_NS: u64 = 60_000_000_000;

/// Tunables of the diagnosis engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Run the heap-integrity monitor during re-executions (must match
    /// the deployment's normal-execution monitors).
    pub integrity_check: bool,
}

/// One diagnosed bug: its type, triggering call-sites, and evidence.
#[derive(Clone, Debug)]
pub struct DiagnosedBug {
    /// The bug type.
    pub bug: BugType,
    /// Allocation or deallocation call-sites of the bug-triggering
    /// objects (the patch application points).
    pub sites: Vec<CallSite>,
    /// Manifestations supporting the conclusion.
    pub evidence: Vec<Manifestation>,
}

/// The result of a completed diagnosis.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// All diagnosed bugs (the identified set `Si` with call-sites).
    pub bugs: Vec<DiagnosedBug>,
    /// The checkpoint the patches take effect from.
    pub checkpoint_id: u64,
    /// Number of rollback/re-execution iterations performed.
    pub rollbacks: usize,
    /// Virtual time consumed by diagnosis.
    pub elapsed_ns: u64,
    /// Human-readable diagnosis log (part of the bug report).
    pub log: Vec<String>,
    /// End of the success region used as the re-execution criterion.
    pub until_cursor: usize,
}

/// What the diagnosis concluded.
#[derive(Clone, Debug)]
pub enum DiagnosisOutcome {
    /// Deterministic memory bugs were identified; patches follow.
    Diagnosed(Diagnosis),
    /// A plain re-execution with only timing changes succeeded: the
    /// failure was non-deterministic; execution simply continues.
    NonDeterministic {
        /// Iterations used.
        rollbacks: usize,
        /// Virtual time consumed.
        elapsed_ns: u64,
        /// Diagnosis log.
        log: Vec<String>,
    },
    /// The engine timed out or no checkpoint survives the region; other
    /// recovery schemes (e.g. restart) must take over.
    NonPatchable {
        /// Iterations used.
        rollbacks: usize,
        /// Virtual time consumed.
        elapsed_ns: u64,
        /// Diagnosis log.
        log: Vec<String>,
    },
}

impl Diagnosis {
    /// Generates the runtime patches for this diagnosis.
    pub fn patches(&self, symbols: &fa_proc::SymbolTable) -> Vec<Patch> {
        self.bugs
            .iter()
            .flat_map(|d| d.sites.iter().map(|&s| Patch::new(d.bug, s, symbols)))
            .collect()
    }
}

/// The diagnosis engine. Almost stateless; state lives in the process,
/// the checkpoint manager, and the returned [`Diagnosis`] — the engine
/// itself only tracks the retry, hang and error counters of the current
/// diagnosis and holds the fault plan it consults before each
/// re-execution.
pub struct DiagnosisEngine {
    config: EngineConfig,
    faults: FaultPlan,
    retries: Cell<usize>,
    trial_errors: Cell<usize>,
    trial_hangs: Cell<usize>,
}

impl DiagnosisEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_faults(config, FaultPlan::none())
    }

    /// Creates an engine whose re-executions are subject to `faults`.
    pub fn with_faults(config: EngineConfig, faults: FaultPlan) -> Self {
        DiagnosisEngine {
            config,
            faults,
            retries: Cell::new(0),
            trial_errors: Cell::new(0),
            trial_hangs: Cell::new(0),
        }
    }

    /// Flaky re-executions retried so far by this engine.
    pub fn retries_used(&self) -> usize {
        self.retries.get()
    }

    /// Always 0: diagnosis runs its trials on the supervised process and
    /// pools no trial contexts. Kept only because
    /// `benchmark/src/recovery.rs:125` reads it; remove it together with
    /// that read.
    pub fn slab_reuses(&self) -> usize {
        0
    }

    /// Trials that could not run (lost or corrupt checkpoint, foreign
    /// allocator); each degraded to a failed run instead of aborting
    /// diagnosis.
    pub fn trial_errors(&self) -> usize {
        self.trial_errors.get()
    }

    /// Hung trials reaped by the watchdog (injected hangs plus genuine
    /// deadline overruns), counting every reap-and-retry.
    pub fn trial_hangs(&self) -> usize {
        self.trial_hangs.get()
    }

    /// True once the ledger has consumed the diagnosis deadline.
    fn past_deadline(&self, ledger: &Ledger) -> bool {
        ledger.elapsed_ns >= DEADLINE_NS
    }

    /// Diagnoses the pending failure of `process`.
    ///
    /// On return the process is in some rolled-back re-executed state; the
    /// caller (the runtime) is expected to roll back once more to the
    /// diagnosis checkpoint, install patches, and resume.
    ///
    /// # Panics
    ///
    /// Panics if the process has no pending failure.
    pub fn diagnose(&self, process: &mut Process, manager: &CheckpointManager) -> DiagnosisOutcome {
        let Some(failure) = process.failure.clone() else {
            panic!("{}", FaError::NoPendingFailure("diagnose"));
        };
        let f_idx = failure.input_index;
        let margin_ns = MARGIN_INTERVALS * manager.interval_ns();
        let until = ReplayHarness::success_end_cursor(process, f_idx, margin_ns);
        let mut ledger = Ledger::new(format!(
            "failure: {} at input #{f_idx} (t={:.3}s); success region ends at #{until}",
            failure.fault,
            failure.at_ns as f64 / 1e9
        ));

        // Injected wedge: the whole diagnosis hangs and blows its
        // deadline without producing anything.
        if self.faults.should_fail(FaultStage::DiagnosisTimeout) {
            ledger.elapsed_ns += DEADLINE_NS;
            ledger.log.push(format!(
                "diagnosis deadline exceeded after {:.3}s (injected wedge); non-patchable",
                DEADLINE_NS as f64 / 1e9
            ));
            return DiagnosisOutcome::NonPatchable {
                rollbacks: ledger.rollbacks,
                elapsed_ns: ledger.elapsed_ns,
                log: ledger.log,
            };
        }

        // --------------------------------------------------------------
        // Phase 0: non-determinism probe at the latest checkpoint.
        // --------------------------------------------------------------
        let Some(newest) = manager.nth_newest(0) else {
            ledger
                .log
                .push("no checkpoints retained; non-patchable".into());
            return DiagnosisOutcome::NonPatchable {
                rollbacks: ledger.rollbacks,
                elapsed_ns: ledger.elapsed_ns,
                log: ledger.log,
            };
        };
        let spec = TrialSpec {
            ckpt_id: newest.id,
            plan: ChangePlan::none(),
            mark: false,
            timing_seed: 0xfa11,
            until,
        };
        let r = self.run(process, manager, &mut ledger, &spec);
        if r.passed {
            ledger.log.push(
                "plain re-execution with timing changes passed: non-deterministic bug".into(),
            );
            return DiagnosisOutcome::NonDeterministic {
                rollbacks: ledger.rollbacks,
                elapsed_ns: ledger.elapsed_ns,
                log: ledger.log,
            };
        }
        ledger
            .log
            .push("plain re-execution failed again: deterministic bug".into());

        // --------------------------------------------------------------
        // Phase 1: find the latest checkpoint before the trigger point.
        // --------------------------------------------------------------
        let mut chosen: Option<u64> = None;
        for k in 0..MAX_CHECKPOINT_TRIES {
            if self.past_deadline(&ledger) {
                ledger
                    .log
                    .push("diagnosis deadline exceeded during phase 1; non-patchable".into());
                return DiagnosisOutcome::NonPatchable {
                    rollbacks: ledger.rollbacks,
                    elapsed_ns: ledger.elapsed_ns,
                    log: ledger.log,
                };
            }
            let Some(ckpt) = manager.nth_newest(k) else {
                break;
            };
            let id = ckpt.id;
            let r = self.run(process, manager, &mut ledger, &Self::phase1_spec(id, until));
            if r.passed && !r.mark_corrupt() {
                ledger.log.push(format!(
                    "phase 1: checkpoint {id} (-{k}) survives with all preventive changes \
                     and clean heap marks"
                ));
                chosen = Some(id);
                break;
            }
            ledger.log.push(format!(
                "phase 1: checkpoint {id} (-{k}) insufficient (passed={}, marks corrupt={})",
                r.passed,
                r.mark_corrupt()
            ));
        }
        let Some(ckpt_id) = chosen else {
            ledger
                .log
                .push("phase 1 exhausted checkpoints: non-patchable".into());
            return DiagnosisOutcome::NonPatchable {
                rollbacks: ledger.rollbacks,
                elapsed_ns: ledger.elapsed_ns,
                log: ledger.log,
            };
        };

        // --------------------------------------------------------------
        // Phase 2: identify bug types (Su/Si) and call-sites.
        // --------------------------------------------------------------
        let mut su: Vec<BugType> = BugType::ALL.to_vec();
        let mut si: Vec<DiagnosedBug> = Vec::new();
        while let Some(&probe_bug) = su.first() {
            if ledger.rollbacks >= MAX_REEXECUTIONS || self.past_deadline(&ledger) {
                ledger.log.push(if self.past_deadline(&ledger) {
                    "diagnosis deadline exceeded during phase 2; non-patchable".into()
                } else {
                    "re-execution budget exhausted".into()
                });
                return DiagnosisOutcome::NonPatchable {
                    rollbacks: ledger.rollbacks,
                    elapsed_ns: ledger.elapsed_ns,
                    log: ledger.log,
                };
            }
            let si_bugs: Vec<BugType> = si.iter().map(|d| d.bug).collect();
            let prevent: Vec<BugType> = su.iter().chain(si_bugs.iter()).copied().collect();
            let spec = TrialSpec {
                ckpt_id,
                plan: ChangePlan::probe(probe_bug, &prevent),
                mark: false,
                timing_seed: 0,
                until,
            };
            let r = self.run(process, manager, &mut ledger, &spec);
            let manifested = Self::manifested(probe_bug, &r);
            ledger.log.push(format!(
                "phase 2: probe {probe_bug}: {}",
                if manifested {
                    "manifested"
                } else {
                    "ruled out"
                }
            ));
            su.retain(|&b| b != probe_bug);
            if manifested {
                let (sites, evidence) = if probe_bug.directly_identifiable() {
                    (Self::direct_sites(probe_bug, &r), r.manifests.clone())
                } else {
                    let prevent_rest: Vec<BugType> = su
                        .iter()
                        .chain(si.iter().map(|d| &d.bug))
                        .copied()
                        .collect();
                    let sites = self.binary_search_sites(
                        process,
                        manager,
                        ckpt_id,
                        probe_bug,
                        &prevent_rest,
                        &r,
                        until,
                        &mut ledger,
                        &[],
                    );
                    (sites, r.manifests.clone())
                };
                ledger.log.push(format!(
                    "phase 2: {probe_bug} triggered at {} call-site(s)",
                    sites.len()
                ));
                si.push(DiagnosedBug {
                    bug: probe_bug,
                    sites,
                    evidence,
                });

                // Coverage check: preventive for Si, exposing for Su.
                if !su.is_empty() {
                    let si_bugs: Vec<BugType> = si.iter().map(|d| d.bug).collect();
                    let spec = Self::coverage_spec(ckpt_id, &su, &si_bugs, until);
                    let r = self.run(process, manager, &mut ledger, &spec);
                    if r.passed && r.manifests.is_empty() {
                        ledger
                            .log
                            .push("coverage check clean: all bug types identified".into());
                        su.clear();
                    } else {
                        ledger
                            .log
                            .push("coverage check found residue: continuing".into());
                    }
                }
            }
        }

        if si.is_empty() || si.iter().all(|d| d.sites.is_empty()) {
            ledger
                .log
                .push("no memory bug type manifested: non-patchable".into());
            return DiagnosisOutcome::NonPatchable {
                rollbacks: ledger.rollbacks,
                elapsed_ns: ledger.elapsed_ns,
                log: ledger.log,
            };
        }
        DiagnosisOutcome::Diagnosed(Diagnosis {
            bugs: si,
            checkpoint_id: ckpt_id,
            rollbacks: ledger.rollbacks,
            elapsed_ns: ledger.elapsed_ns,
            log: ledger.log,
            until_cursor: until,
        })
    }
}

impl Default for DiagnosisEngine {
    fn default() -> Self {
        DiagnosisEngine::new(EngineConfig::default())
    }
}
