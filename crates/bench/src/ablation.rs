//! Ablations of First-Aid's design choices (called out in DESIGN.md):
//!
//! * **padding size** — the overflow patch only neutralizes overflows it
//!   can physically absorb; the paper's ~1 KB padding covers the common
//!   case, tiny padding does not;
//! * **quarantine threshold** — delay-free only protects dangling reads
//!   while the freed object stays resident; a too-small budget evicts the
//!   object before its stale read and the patch stops working;
//! * **adaptive vs. fixed checkpoint interval** — the adaptive controller
//!   bounds checkpoint overhead for large-working-set programs by
//!   stretching the interval (paper §3 / Table 7);
//! * **heap marking** — covered by the `fig3_misidentification`
//!   integration tests: without it, phase 1 picks a checkpoint *after*
//!   the bug-triggering point.

use fa_allocext::ExtAllocator;
use fa_apps::{spec_by_key, SynthApp, WorkloadSpec};
use fa_checkpoint::{AdaptiveConfig, CheckpointManager};
use fa_proc::{Process, ProcessCtx};
use first_aid_core::{DegradationMetrics, FirstAidConfig, FirstAidRuntime, PatchPool};

use crate::paper_config;

/// Outcome of one padding-size point: did the patch keep preventing?
#[derive(Clone, Debug)]
pub struct PaddingPoint {
    /// Per-side padding bytes.
    pub pad: u64,
    /// Failures over a workload with 3 bug triggers (1 = only the first,
    /// the patch works; >1 = the patch failed to absorb later overflows).
    pub failures: usize,
}

/// Sweeps the padding size on the Squid overflow (24-byte overflow).
pub fn padding_sweep(pads: &[u64]) -> Vec<PaddingPoint> {
    let spec = spec_by_key("squid").expect("squid registered");
    pads.iter()
        .map(|&pad| {
            let pool = PatchPool::in_memory();
            let mut fa = FirstAidRuntime::launch((spec.build)(), paper_config(), pool).unwrap();
            fa.with_ext(|ext| ext.set_padding(pad));
            let w = (spec.workload)(&WorkloadSpec::new(1_500, &[400, 800, 1_100]));
            let summary = fa.run(w, None);
            PaddingPoint {
                pad,
                failures: summary.failures,
            }
        })
        .collect()
}

/// Outcome of one quarantine-threshold point.
#[derive(Clone, Debug)]
pub struct QuarantinePoint {
    /// Quarantine byte budget.
    pub threshold: u64,
    /// Failures over a workload with 3 triggers.
    pub failures: usize,
    /// Quarantine residency at the end of the run, in bytes.
    pub final_bytes: u64,
    /// The run's recoveries by ladder rung. A descent to rung 2 or 3
    /// arms the generic patches, and with them a wider quarantine budget.
    pub ladder: DegradationMetrics,
}

/// Sweeps the quarantine threshold on the Apache dangling read, whose
/// stale pointers are dereferenced ~250 requests after the free: the
/// delay-free patch only helps while the entries stay quarantined. One
/// purge quarantines ~1.9 KB (seven 272-byte entries), so a budget below
/// that evicts entries before the stale reads and the bug recurs, until
/// a recurrence sends recovery down the degradation ladder, whose generic
/// patches bring their own, wider budget.
pub fn quarantine_sweep(thresholds: &[u64]) -> Vec<QuarantinePoint> {
    let spec = spec_by_key("apache").expect("apache registered");
    thresholds
        .iter()
        .map(|&threshold| {
            let pool = PatchPool::in_memory();
            let config = FirstAidConfig {
                quarantine_bytes: threshold,
                ..paper_config()
            };
            let mut fa = FirstAidRuntime::launch((spec.build)(), config, pool).unwrap();
            let w = (spec.workload)(&WorkloadSpec::new(2_200, &[400, 1_000, 1_600]));
            let summary = fa.run(w, None);
            QuarantinePoint {
                threshold,
                failures: summary.failures,
                final_bytes: fa.with_ext(|ext| ext.quarantine().bytes()),
                ladder: fa.degradation(),
            }
        })
        .collect()
}

/// Outcome of one checkpoint-interval policy.
#[derive(Clone, Debug)]
pub struct IntervalPoint {
    /// Policy name.
    pub policy: String,
    /// Checkpoint overhead fraction of busy time.
    pub overhead: f64,
    /// Final interval the controller settled on, ms.
    pub final_interval_ms: u64,
}

/// Compares the adaptive controller against a fixed 200 ms interval on
/// the vortex profile (the largest write working set).
pub fn interval_ablation() -> Vec<IntervalPoint> {
    let profile = fa_apps::spec_profiles()
        .into_iter()
        .find(|p| p.name == "255.vortex")
        .expect("vortex profile");
    let run = |adaptive: bool| -> IntervalPoint {
        let config = if adaptive {
            AdaptiveConfig::default()
        } else {
            AdaptiveConfig {
                // An absurd target never triggers adjustment: fixed 200 ms.
                overhead_target: f64::INFINITY,
                ..AdaptiveConfig::default()
            }
        };
        let mut ctx = ProcessCtx::new(1 << 31);
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
        let mut p = Process::launch(Box::new(SynthApp::new(profile)), ctx).unwrap();
        let mut mgr = CheckpointManager::new(config, 50);
        mgr.force_checkpoint(&mut p);
        let busy_start = p.ctx.clock.now();
        for input in fa_apps::synth::workload(&profile, 60_000) {
            let r = p.feed(input);
            assert!(r.is_ok());
            mgr.maybe_checkpoint(&mut p);
        }
        let total = p.ctx.clock.now() - busy_start;
        let ckpt_cost = mgr.stats().total_cost_ns;
        IntervalPoint {
            policy: if adaptive {
                "adaptive".into()
            } else {
                "fixed-200ms".into()
            },
            overhead: ckpt_cost as f64 / (total - ckpt_cost).max(1) as f64,
            final_interval_ms: mgr.interval_ns() / 1_000_000,
        }
    };
    vec![run(false), run(true)]
}

/// Renders all ablations as text.
pub fn render() -> String {
    let mut out =
        String::from("Ablation 1: padding size vs overflow prevention (Squid, 24-byte overflow)\n");
    out.push_str("  pad/side  failures (of 3 triggers)\n");
    for p in padding_sweep(&[8, 16, 64, 508]) {
        out.push_str(&format!("  {:<9} {}\n", p.pad, p.failures));
    }
    out.push_str("\nAblation 2: quarantine threshold vs dangling-read prevention (Apache)\n");
    out.push_str(
        "  threshold  failures  final quarantine bytes  recoveries: precise/generic/drop\n",
    );
    for q in quarantine_sweep(&[512, 1 << 20]) {
        let l = &q.ladder;
        out.push_str(&format!(
            "  {:<10} {:<9} {:<23} {}/{}/{}\n",
            q.threshold,
            q.failures,
            q.final_bytes,
            l.precise_patches,
            l.generic_patches,
            l.rollback_drops
        ));
    }
    out.push_str("\nAblation 3: adaptive vs fixed checkpoint interval (255.vortex)\n");
    out.push_str("  policy       ckpt overhead  final interval\n");
    for i in interval_ablation() {
        out.push_str(&format!(
            "  {:<12} {:<14} {} ms\n",
            i.policy,
            crate::pct(i.overhead),
            i.final_interval_ms
        ));
    }
    out.push_str("\nAblation 4: heap marking — see tests/fig3_misidentification.rs:\n");
    out.push_str("  without marking, phase 1 accepts a post-trigger checkpoint whose\n");
    out.push_str("  preventive changes only mask the failure by disturbing the layout.\n");
    out
}
