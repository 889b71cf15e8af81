//! Table 6: space overhead of the memory allocator extension.
//!
//! The extension keeps 16 bytes of metadata per live object, so programs
//! with many small objects (cfrac, p2c, twolf) pay a large *relative*
//! overhead on a small heap while big-heap programs (gzip, mcf, bzip2)
//! pay nearly nothing (paper §7.6.2).

use fa_allocext::ExtAllocator;
use fa_apps::{all_specs, alloc_intensive_profiles, spec_profiles, SynthApp, WorkloadSpec};
use fa_proc::{BoxedApp, Input, Process, ProcessCtx};

/// One row of Table 6.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Program name.
    pub name: String,
    /// Heap footprint without the extension, MB.
    pub original_mb: f64,
    /// Heap footprint with the extension (metadata included), MB.
    pub firstaid_mb: f64,
}

impl Table6Row {
    /// Relative overhead.
    pub fn overhead(&self) -> f64 {
        (self.firstaid_mb - self.original_mb) / self.original_mb.max(1e-9)
    }
}

fn measure(app: BoxedApp, workload: Vec<Input>, name: &str) -> Table6Row {
    let mut ctx = ProcessCtx::new(1 << 31);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut p = Process::launch(app, ctx).unwrap();
    for input in workload {
        let r = p.feed(input);
        assert!(r.is_ok(), "{name}: overhead workloads must be failure-free");
    }
    let heap = p.ctx.alloc().heap().stats().heap_bytes as f64;
    let meta = p.ctx.with_alloc_and_mem(|alloc, _| {
        alloc
            .as_any()
            .downcast_ref::<ExtAllocator>()
            .expect("ext installed")
            .meta_bytes()
    }) as f64;
    Table6Row {
        name: name.to_owned(),
        original_mb: heap / 1048576.0,
        firstaid_mb: (heap + meta) / 1048576.0,
    }
}

/// Runs all 22 programs (7 apps + 11 SPEC + 4 allocation-intensive).
pub fn rows() -> Vec<Table6Row> {
    let mut out = Vec::new();
    for spec in all_specs().iter().filter(|s| !s.key.starts_with("apache-")) {
        let w = (spec.workload)(&WorkloadSpec::new(1_000, &[]));
        out.push(measure((spec.build)(), w, spec.display));
    }
    for profile in spec_profiles()
        .into_iter()
        .chain(alloc_intensive_profiles())
    {
        let w = fa_apps::synth::workload(&profile, 2_000);
        out.push(measure(Box::new(SynthApp::new(profile)), w, profile.name));
    }
    out
}

/// Renders Table 6 in the paper's layout.
pub fn render(rows: &[Table6Row]) -> String {
    let mut out = String::from(
        "Table 6. Space overhead incurred by the memory allocator extension.\n\
         Program          Original heap (MB)  First-Aid heap (MB)  Overhead\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<19.3} {:<20.3} {}\n",
            r.name,
            r.original_mb,
            r.firstaid_mb,
            crate::pct(r.overhead()),
        ));
    }
    out
}
