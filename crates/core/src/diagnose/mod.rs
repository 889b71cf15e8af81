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
//! a checkpoint, a [`ChangePlan`] and [`ReexecOptions`] re-executed on the
//! supervised process through [`ReplayHarness::try_reexecute`], one at a
//! time, as in the paper. The engine's concerns are split across
//! submodules: `probes` (change-plan construction, manifestation rules,
//! and the sentry fast path [`DiagnosisEngine::diagnose_fast`]), `tree`
//! (the O(M·log N) call-site bisection), and `trial` (the per-diagnosis
//! ledger, and the fault gate and watchdog around each trial).
//!
//! [`ReplayHarness::try_reexecute`]: fa_exec::ReplayHarness::try_reexecute

mod probes;
mod tree;
mod trial;

use std::cell::Cell;

use fa_allocext::{BugType, ChangePlan, Manifestation, Patch, TrapKind, TrapRecord};
use fa_checkpoint::CheckpointManager;
use fa_exec::{FaError, ReexecOptions};
use fa_faults::{FaultPlan, FaultStage};
use fa_mem::AccessKind;
use fa_proc::{CallSite, Process};

use trial::Ledger;

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
        /// The diagnosis deadline cut the search short (an injected wedge
        /// included), as opposed to the search running out of
        /// checkpoints, re-executions or manifesting bug types.
        timed_out: bool,
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
/// diagnosis and holds the fault plan its gate and watchdog consult
/// around each re-execution.
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
        let mut lg = Ledger::open(self, process, manager, f_idx);
        let until = lg.opts.until_cursor;
        lg.log.push(format!(
            "failure: {} at input #{f_idx} (t={:.3}s); success region ends at #{until}",
            failure.fault,
            failure.at_ns as f64 / 1e9
        ));

        // Injected wedge: the whole diagnosis hangs and blows its
        // deadline without producing anything.
        if self.faults.should_fail(FaultStage::DiagnosisTimeout) {
            lg.elapsed_ns += DEADLINE_NS;
            lg.deadline_exceeded(format!(
                "diagnosis deadline exceeded after {:.3}s (injected wedge); non-patchable",
                DEADLINE_NS as f64 / 1e9
            ));
            return lg.non_patchable();
        }

        // --------------------------------------------------------------
        // Phase 0: non-determinism probe at the latest checkpoint.
        // --------------------------------------------------------------
        let Some(newest) = manager.nth_newest(0) else {
            lg.log.push("no checkpoints retained; non-patchable".into());
            return lg.non_patchable();
        };
        let opts = ReexecOptions {
            timing_seed: 0xfa11,
            ..lg.opts
        };
        let r = lg.run(newest.id, ChangePlan::none(), opts);
        if r.passed {
            lg.log.push(
                "plain re-execution with timing changes passed: non-deterministic bug".into(),
            );
            return lg.non_deterministic();
        }
        lg.log
            .push("plain re-execution failed again: deterministic bug".into());

        // --------------------------------------------------------------
        // Phase 1: find the latest checkpoint before the trigger point.
        // --------------------------------------------------------------
        let mut chosen: Option<u64> = None;
        for k in 0..MAX_CHECKPOINT_TRIES {
            if lg.past_deadline() {
                lg.deadline_exceeded("diagnosis deadline exceeded during phase 1; non-patchable");
                return lg.non_patchable();
            }
            let Some(ckpt) = manager.nth_newest(k) else {
                break;
            };
            let id = ckpt.id;
            let r = Self::phase1(&mut lg, id);
            if r.passed && !r.mark_corrupt() {
                lg.log.push(format!(
                    "phase 1: checkpoint {id} (-{k}) survives with all preventive changes \
                     and clean heap marks"
                ));
                chosen = Some(id);
                break;
            }
            lg.log.push(format!(
                "phase 1: checkpoint {id} (-{k}) insufficient (passed={}, marks corrupt={})",
                r.passed,
                r.mark_corrupt()
            ));
        }
        let Some(ckpt_id) = chosen else {
            lg.log
                .push("phase 1 exhausted checkpoints: non-patchable".into());
            return lg.non_patchable();
        };

        // --------------------------------------------------------------
        // Phase 2: identify bug types (Su/Si) and call-sites.
        // --------------------------------------------------------------
        let mut su: Vec<BugType> = BugType::ALL.to_vec();
        let mut si: Vec<DiagnosedBug> = Vec::new();
        while let Some(&probe_bug) = su.first() {
            if lg.past_deadline() {
                lg.deadline_exceeded("diagnosis deadline exceeded during phase 2; non-patchable");
                return lg.non_patchable();
            }
            if lg.rollbacks >= MAX_REEXECUTIONS {
                lg.log.push("re-execution budget exhausted".into());
                return lg.non_patchable();
            }
            let si_bugs: Vec<BugType> = si.iter().map(|d| d.bug).collect();
            let prevent: Vec<BugType> = su.iter().chain(si_bugs.iter()).copied().collect();
            let r = lg.run(ckpt_id, ChangePlan::probe(probe_bug, &prevent), lg.opts);
            let manifested = Self::manifested(probe_bug, &r);
            lg.log.push(format!(
                "phase 2: probe {probe_bug}: {}",
                if manifested {
                    "manifested"
                } else {
                    "ruled out"
                }
            ));
            su.retain(|&b| b != probe_bug);
            if manifested {
                let sites = if probe_bug.directly_identifiable() {
                    Self::direct_sites(probe_bug, &r)
                } else {
                    let prevent_rest: Vec<BugType> = su
                        .iter()
                        .chain(si.iter().map(|d| &d.bug))
                        .copied()
                        .collect();
                    Self::binary_search_sites(&mut lg, ckpt_id, probe_bug, &prevent_rest, &r, &[])
                };
                lg.log.push(format!(
                    "phase 2: {probe_bug} triggered at {} call-site(s)",
                    sites.len()
                ));
                si.push(DiagnosedBug {
                    bug: probe_bug,
                    sites,
                    evidence: r.manifests,
                });

                // Coverage check: preventive for Si, exposing for Su.
                if !su.is_empty() {
                    let si_bugs: Vec<BugType> = si.iter().map(|d| d.bug).collect();
                    let r = lg.run(ckpt_id, Self::coverage_plan(&su, &si_bugs), lg.opts);
                    if r.passed && r.manifests.is_empty() {
                        lg.log
                            .push("coverage check clean: all bug types identified".into());
                        su.clear();
                    } else {
                        lg.log
                            .push("coverage check found residue: continuing".into());
                    }
                }
            }
        }

        if si.is_empty() || si.iter().all(|d| d.sites.is_empty()) {
            lg.log
                .push("no memory bug type manifested: non-patchable".into());
            return lg.non_patchable();
        }
        DiagnosisOutcome::Diagnosed(lg.diagnosis(si, ckpt_id))
    }
}

impl Default for DiagnosisEngine {
    fn default() -> Self {
        DiagnosisEngine::new(EngineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use fa_allocext::ExtAllocator;
    use fa_checkpoint::AdaptiveConfig;
    use fa_faults::Injection;
    use fa_proc::{App, BoxedApp, Fault, Input, InputBuilder, ProcessCtx, Response};

    use super::*;

    /// Fails an assertion on op 1: a deterministic failure that no
    /// environmental change prevents.
    #[derive(Clone)]
    struct Asserts;

    impl App for Asserts {
        fn name(&self) -> &'static str {
            "asserts"
        }

        fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
            ctx.call("serve", |ctx| {
                let p = ctx.malloc(64)?;
                ctx.fill(p, 64, 0x42)?;
                ctx.free(p)?;
                ctx.check(input.op != 1, "op 1 is unsupported")?;
                Ok(Response::bytes(64))
            })
        }

        fn clone_app(&self) -> BoxedApp {
            Box::new(self.clone())
        }
    }

    /// A crashed process with two checkpoints before the failing input
    /// and a few inputs queued behind it.
    fn crashed() -> (Process, CheckpointManager) {
        let mut ctx = ProcessCtx::new(1 << 26);
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
        let mut process = Process::launch(Box::new(Asserts), ctx).expect("launch");
        let mut manager = CheckpointManager::new(
            AdaptiveConfig {
                base_interval_ns: 1_000_000,
                ..AdaptiveConfig::default()
            },
            16,
        );
        let normal = || InputBuilder::op(0).gap_us(50).build();
        for _ in 0..2 {
            manager.force_checkpoint(&mut process);
            for _ in 0..4 {
                assert!(process.feed(normal()).is_ok());
            }
        }
        assert!(!process.feed(InputBuilder::op(1).gap_us(50).build()).is_ok());
        for _ in 0..4 {
            process.enqueue(normal());
        }
        (process, manager)
    }

    fn non_patchable(outcome: DiagnosisOutcome) -> (usize, Vec<String>, bool) {
        match outcome {
            DiagnosisOutcome::NonPatchable {
                rollbacks,
                log,
                timed_out,
                ..
            } => (rollbacks, log, timed_out),
            other => panic!("expected a non-patchable outcome, got {other:?}"),
        }
    }

    #[test]
    fn an_injected_wedge_is_a_timeout() {
        let (mut process, manager) = crashed();
        let wedge = FaultPlan::builder(1)
            .inject(FaultStage::DiagnosisTimeout, Injection::Nth(vec![0]))
            .build();
        let engine = DiagnosisEngine::with_faults(EngineConfig::default(), wedge);
        let (rollbacks, _, timed_out) = non_patchable(engine.diagnose(&mut process, &manager));
        assert_eq!(rollbacks, 0, "the wedge runs no trial");
        assert!(timed_out);
    }

    #[test]
    fn running_out_of_phase1_checkpoints_is_not_a_timeout() {
        let (mut process, manager) = crashed();
        let engine = DiagnosisEngine::default();
        let (rollbacks, log, timed_out) = non_patchable(engine.diagnose(&mut process, &manager));
        // Phase 0, then one all-preventive trial per checkpoint.
        assert_eq!(rollbacks, 3);
        assert_eq!(
            log.last().map(String::as_str),
            Some("phase 1 exhausted checkpoints: non-patchable")
        );
        assert!(!timed_out);
    }
}
