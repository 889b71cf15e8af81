//! The recovery breakdown. `FirstAidRuntime::feed` runs a whole recovery
//! inside one call, so the traced pass re-runs it phase by phase: it
//! launches a process the way `FirstAidRuntime::launch` does, feeds the
//! same inputs with the same checkpoint policy up to the same failure,
//! then times the public calls the runtime's precise-recovery path makes.
//! Everything is deterministic, so the mirror diagnoses exactly what the
//! runtime did; the diagnosis rollback count is checked to be sure.

use std::time::Instant;

use fa_allocext::ExtAllocator;
use fa_apps::AppSpec;
use fa_checkpoint::CheckpointManager;
use fa_exec::expect_ext;
use fa_proc::{Input, Process, ProcessCtx, StepResult};
use first_aid_core::{
    BugReport, DiagnosisEngine, DiagnosisOutcome, FirstAidConfig, PatchPool, ValidationEngine,
};

use crate::trace::{ensure_wrapped, us_since};

/// Wall time of each recovery phase, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    /// The runtime's own recovery: the `feed` call that failed.
    pub wall_ms: f64,
    /// Checksum sweep of the checkpoint ring.
    pub sweep_ms: f64,
    pub diagnose_ms: f64,
    pub patch_add_ms: f64,
    /// Rollback to the diagnosis checkpoint plus patch install.
    pub rollback_ms: f64,
    /// Patched replay up to the failing input.
    pub replay_ms: f64,
    pub validate_ms: f64,
    pub report_ms: f64,
    /// Rollback/re-execution trials the diagnosis ran.
    pub trials: usize,
    pub slab_reuses: usize,
}

impl Phases {
    /// The timed phases in the order the runtime runs them.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("fa-checkpoint.sweep", self.sweep_ms),
            ("core.diagnose", self.diagnose_ms),
            ("core.patchpool.add", self.patch_add_ms),
            ("fa-checkpoint.rollback", self.rollback_ms),
            ("fa-exec.replay", self.replay_ms),
            ("core.validate", self.validate_ms),
            ("core.report", self.report_ms),
        ]
    }

    /// Recovery wall time no timed phase accounts for.
    pub fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.named().iter().map(|(_, ms)| ms).sum::<f64>()
    }
}

/// Mirrors the first recovery of `spec` over `inputs`. `wall_ms` is the
/// runtime's measured recovery and `rollbacks` its diagnosis trial count.
pub fn mirror(
    spec: &AppSpec,
    inputs: &[Input],
    config: &FirstAidConfig,
    wall_ms: f64,
    rollbacks: usize,
) -> Result<Phases, String> {
    let key = spec.key;
    let pool = PatchPool::in_memory();
    let app = (spec.build)();
    let program = app.name().to_owned();
    let mut ctx = ProcessCtx::new(config.heap_limit);
    let patches = pool.get(&program);
    let quarantine = config.quarantine_bytes;
    ctx.swap_alloc(|old| {
        let mut ext = ExtAllocator::attach(old.heap().clone());
        ext.set_quarantine_threshold(quarantine);
        ext.set_normal(patches);
        Box::new(ext)
    });
    let mut p = Process::launch(app, ctx).map_err(|f| format!("{key}: mirror launch: {f}"))?;
    let mut mgr = CheckpointManager::new(config.adaptive, config.max_checkpoints);
    mgr.force_checkpoint(&mut p);
    ensure_wrapped(&mut p);
    for input in inputs {
        match p.feed(input.clone()) {
            StepResult::Ok(_) => {
                mgr.maybe_checkpoint(&mut p);
            }
            StepResult::Failed(_) => break,
        }
    }
    let failure = p
        .failure
        .clone()
        .ok_or_else(|| format!("{key}: mirror never failed"))?;

    let mut ph = Phases {
        wall_ms,
        ..Phases::default()
    };
    let t = Instant::now();
    mgr.sweep_corrupt();
    ph.sweep_ms = us_since(t) / 1e3;

    let mut engine_config = config.engine;
    engine_config.integrity_check = config.integrity_check_every > 0;
    let engine = DiagnosisEngine::with_faults(engine_config, config.faults.clone());
    let t = Instant::now();
    let outcome = engine.diagnose(&mut p, &mgr);
    ph.diagnose_ms = us_since(t) / 1e3;
    let DiagnosisOutcome::Diagnosed(d) = outcome else {
        return Err(format!("{key}: mirror diagnosis did not conclude"));
    };
    if d.rollbacks != rollbacks {
        return Err(format!(
            "{key}: mirror diverged ({} trials, runtime {rollbacks})",
            d.rollbacks
        ));
    }
    ph.trials = d.rollbacks;
    ph.slab_reuses = engine.slab_reuses();

    let patches = d.patches(&p.ctx.symbols);
    let t = Instant::now();
    pool.add(&program, patches.iter().cloned());
    let set = pool.get(&program);
    ph.patch_add_ms = us_since(t) / 1e3;

    let t = Instant::now();
    mgr.rollback_to(&mut p, d.checkpoint_id);
    p.ctx.with_alloc_and_mem(|alloc, _| {
        let ext = expect_ext(alloc);
        ext.set_quarantine_threshold(quarantine);
        ext.set_normal(set.clone());
    });
    ph.rollback_ms = us_since(t) / 1e3;

    let t = Instant::now();
    while p.cursor() <= failure.input_index {
        match p.step() {
            Some(r) if r.is_ok() => {}
            _ => break,
        }
    }
    ph.replay_ms = us_since(t) / 1e3;
    if p.failure.is_some() {
        return Err(format!("{key}: mirror's patched replay failed"));
    }

    let t = Instant::now();
    let snap = mgr
        .get(d.checkpoint_id)
        .map(|c| c.snap.clone())
        .ok_or_else(|| format!("{key}: diagnosis checkpoint not retained"))?;
    let v = ValidationEngine::new(config.validation_iterations).validate(
        &p,
        &snap,
        &set,
        d.until_cursor,
    );
    ph.validate_ms = us_since(t) / 1e3;

    let t = Instant::now();
    let report = BugReport::build(&program, &failure, &d, &patches, &v, &p.ctx.symbols, None);
    ph.report_ms = us_since(t) / 1e3;
    std::hint::black_box(report);
    Ok(ph)
}
