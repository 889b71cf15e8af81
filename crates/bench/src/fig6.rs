//! Fig. 6: normal-execution time overhead.
//!
//! Three configurations per program: the original allocator, the allocator
//! extension alone, and the full system (extension + checkpointing). The
//! reported figure is *busy* virtual time (arrival idle gaps excluded),
//! i.e. execution time for desktop programs and per-request service time
//! for servers — matching the paper's methodology.

use fa_allocext::ExtAllocator;
use fa_apps::{all_specs, alloc_intensive_profiles, spec_profiles, SynthApp, WorkloadSpec};
use fa_checkpoint::CheckpointManager;
use fa_proc::{BoxedApp, Input, Process, ProcessCtx};

use crate::paper_config;

/// One bar group of Fig. 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Program name.
    pub name: String,
    /// Busy virtual time with the plain allocator, ns.
    pub original_ns: u64,
    /// Busy time with the allocator extension, ns.
    pub allocator_ns: u64,
    /// Busy time with extension + checkpointing, ns.
    pub overall_ns: u64,
}

impl Fig6Row {
    /// Allocator-extension-only normalized time.
    pub fn allocator_norm(&self) -> f64 {
        self.allocator_ns as f64 / self.original_ns.max(1) as f64
    }

    /// Full-system normalized time.
    pub fn overall_norm(&self) -> f64 {
        self.overall_ns as f64 / self.original_ns.max(1) as f64
    }
}

enum Config {
    Original,
    Allocator,
    Overall,
}

fn busy_time(app: BoxedApp, workload: &[Input], config: Config) -> u64 {
    let mut ctx = ProcessCtx::new(1 << 31);
    if !matches!(config, Config::Original) {
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    }
    let mut p = Process::launch(app, ctx).unwrap();
    let mut mgr = matches!(config, Config::Overall).then(|| {
        let cfg = paper_config();
        CheckpointManager::new(cfg.adaptive, cfg.max_checkpoints)
    });
    let gap_total: u64 = workload.iter().map(|i| i.gap_ns).sum();
    for input in workload {
        let r = p.feed(input.clone());
        assert!(r.is_ok(), "overhead workloads must be failure-free");
        if let Some(mgr) = mgr.as_mut() {
            mgr.maybe_checkpoint(&mut p);
        }
    }
    // The fork-like snapshot operation itself runs between requests (in
    // arrival gaps / scheduler slack); what the application pays on its
    // critical path is the COW page replication, which stays charged.
    let fork_base: u64 = mgr
        .map(|m| m.stats().taken * paper_config().adaptive.checkpoint_base_ns)
        .unwrap_or(0);
    p.ctx
        .clock
        .now()
        .saturating_sub(gap_total)
        .saturating_sub(fork_base)
}

fn measure(build: impl Fn() -> BoxedApp, workload: Vec<Input>, name: &str) -> Fig6Row {
    Fig6Row {
        name: name.to_owned(),
        original_ns: busy_time(build(), &workload, Config::Original),
        allocator_ns: busy_time(build(), &workload, Config::Allocator),
        overall_ns: busy_time(build(), &workload, Config::Overall),
    }
}

/// Runs all 22 programs.
pub fn rows() -> Vec<Fig6Row> {
    let mut out = Vec::new();
    for spec in all_specs().iter().filter(|s| !s.key.starts_with("apache-")) {
        let w = (spec.workload)(&WorkloadSpec::new(2_000, &[]));
        out.push(measure(spec.build, w, spec.display));
    }
    for profile in spec_profiles()
        .into_iter()
        .chain(alloc_intensive_profiles())
    {
        let w = fa_apps::synth::workload(&profile, 70_000);
        out.push(measure(
            move || Box::new(SynthApp::new(profile)),
            w,
            profile.name,
        ));
    }
    out
}

/// Average full-system overhead across rows.
pub fn average_overhead(rows: &[Fig6Row]) -> f64 {
    let sum: f64 = rows.iter().map(|r| r.overall_norm() - 1.0).sum();
    sum / rows.len().max(1) as f64
}

/// Renders Fig. 6 as a text table of normalized times.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out = String::from(
        "Figure 6. Overhead for First-Aid during normal execution (normalized time).\n\
         Program          original  allocator  overall\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<9.3} {:<10.3} {:.3}\n",
            r.name,
            1.0,
            r.allocator_norm(),
            r.overall_norm(),
        ));
    }
    out.push_str(&format!(
        "Average overhead: {}\n",
        crate::pct(average_overhead(rows))
    ));
    out
}
