//! Table 7: space overhead of checkpointing.
//!
//! COW checkpoints cost one page copy per page dirtied in the interval, so
//! MB/checkpoint tracks the write working set. The adaptive interval keeps
//! MB/second bounded even for large-working-set programs (paper §7.6.3).

use fa_allocext::ExtAllocator;
use fa_apps::{all_specs, alloc_intensive_profiles, spec_profiles, SynthApp, WorkloadSpec};
use fa_checkpoint::{CheckpointManager, CheckpointStats};
use fa_proc::{BoxedApp, Input, Process, ProcessCtx};

use crate::paper_config;

/// One row of Table 7.
#[derive(Clone, Debug)]
pub struct Table7Row {
    /// Program name.
    pub name: String,
    /// Average checkpoint size, MB.
    pub mb_per_checkpoint: f64,
    /// Average checkpoint data rate, MB per virtual second.
    pub mb_per_second: f64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

fn measure(app: BoxedApp, workload: Vec<Input>, name: &str) -> Table7Row {
    let cfg = paper_config();
    let mut ctx = ProcessCtx::new(1 << 31);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut p = Process::launch(app, ctx).unwrap();
    let mut mgr = CheckpointManager::new(cfg.adaptive, cfg.max_checkpoints);
    mgr.force_checkpoint(&mut p);
    for input in workload {
        let r = p.feed(input);
        assert!(
            r.is_ok(),
            "{name}: checkpoint workloads must be failure-free"
        );
        mgr.maybe_checkpoint(&mut p);
    }
    let stats: CheckpointStats = mgr.stats();
    Table7Row {
        name: name.to_owned(),
        mb_per_checkpoint: stats.mb_per_checkpoint(),
        mb_per_second: stats.mb_per_second(),
        checkpoints: stats.taken,
    }
}

/// Runs all 22 programs.
pub fn rows() -> Vec<Table7Row> {
    let mut out = Vec::new();
    for spec in all_specs().iter().filter(|s| !s.key.starts_with("apache-")) {
        let w = (spec.workload)(&WorkloadSpec::new(2_400, &[]));
        out.push(measure((spec.build)(), w, spec.display));
    }
    for profile in spec_profiles()
        .into_iter()
        .chain(alloc_intensive_profiles())
    {
        let w = fa_apps::synth::workload(&profile, 70_000);
        out.push(measure(Box::new(SynthApp::new(profile)), w, profile.name));
    }
    out
}

/// Renders Table 7 in the paper's layout.
pub fn render(rows: &[Table7Row]) -> String {
    let mut out = String::from(
        "Table 7. Space overhead incurred by checkpointing.\n\
         Program          MB/checkpoint  MB/second  (checkpoints)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<14.3} {:<10.3} {}\n",
            r.name, r.mb_per_checkpoint, r.mb_per_second, r.checkpoints,
        ));
    }
    out
}
