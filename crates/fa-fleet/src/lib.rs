//! Fleet supervision: many First-Aid processes, one patch pool.
//!
//! The paper's patch management stores every generated patch in a central
//! per-program pool so that patches are "available to all the processes
//! that are running the same program" (§3). This crate exercises that
//! claim at fleet scale: a [`Fleet`] launches N workers, each a full
//! [`FirstAidRuntime`](first_aid_core::FirstAidRuntime) supervising its
//! own process of the same program, and dispatches a mixed stream of
//! normal and bug-triggering inputs across them. All workers share one
//! [`PatchPool`](first_aid_core::PatchPool), so the *first* worker to hit
//! the bug pays the diagnosis cost and every other worker picks the patch
//! up before its own first trigger — the fleet is **immunized** by a
//! single diagnosis.
//!
//! What the supervisor provides:
//!
//! * **Epoch-driven refresh** — before each input a worker calls
//!   [`refresh_patches`](first_aid_core::FirstAidRuntime::refresh_patches),
//!   one lock-free read of its program's epoch from the pool's plane,
//!   and re-installs its patch set only when that epoch moved.
//! * **Dispatch** — strict rotation over bounded per-worker queues (8
//!   inputs deep): input `i` goes to worker `i % N`, which pairs with
//!   sharded streams.
//! * **Sharing ablation** — [`PoolSharing::PerWorker`] gives each worker
//!   a private pool, reproducing the no-sharing baseline where every
//!   worker must diagnose the same bug independently.
//! * **Crash-loop backoff** — a worker failing on consecutive inputs
//!   charges an exponentially growing virtual pause (50 ms doubling to
//!   a 2 s cap) before taking more traffic.
//! * **Drop-and-restart fallback** — a worker that exhausts its recovery
//!   budget (16 recoveries) is degraded: its process is thrown away and
//!   relaunched at full restart cost (1.5 s of virtual downtime; the
//!   paper's whole-process-restart baseline becomes the last resort, not
//!   the first).
//! * **Metrics** — per-worker and fleet-wide throughput timelines on
//!   [`ThroughputSampler`](first_aid_core::ThroughputSampler), recovery /
//!   patch-hit / rollback counts, and *time-to-fleet-immunity*: the
//!   latest per-worker virtual time at which a worker first held patches
//!   ([`FleetReport::time_to_fleet_immunity_ns`]).
//! * **Scale harness** — [`ScaleFleet`] shards 10²–10⁵ simulated
//!   workers into gossip cells ([`CellTopology`]) and drives the real
//!   lock-free patch plane from every simulated input, with a
//!   deterministic virtual-time propagation model (used by the
//!   `fleet_scale` bench).
//!
//! # Example
//!
//! ```
//! use fa_fleet::{Fleet, FleetConfig};
//! use fa_apps::spec_by_key;
//!
//! let spec = spec_by_key("squid").unwrap();
//! let fleet = Fleet::new(spec.build, FleetConfig { workers: 3, ..FleetConfig::default() });
//! // One trigger in the stream: one worker diagnoses, all are immunized.
//! let stream = fa_apps::fleet::sharded_stream(
//!     &spec,
//!     &[vec![40], vec![], vec![]],
//!     120,
//!     7,
//! );
//! let report = fleet.run(stream);
//! assert_eq!(report.patched, 1, "one worker pays the diagnosis");
//! assert!(!fleet.pool().is_empty("squid"));
//!
//! // A second wave of triggers: every worker launches from the warm
//! // pool, so the whole fleet is immunized from the start.
//! let wave2 = fa_apps::fleet::sharded_stream(&spec, &[vec![10], vec![10], vec![10]], 40, 8);
//! let r2 = fleet.run(wave2);
//! assert_eq!(r2.failures, 0);
//! assert_eq!(r2.patch_hits, 3);
//! assert!(r2.time_to_fleet_immunity_ns.is_some());
//! ```

// Supervision code must not be what crashes: no `unwrap`/`expect`
// outside tests, except at sites whose `#[allow]` says why.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod cells;
pub mod metrics;
pub mod scale;
pub mod supervisor;
mod worker;

pub use cells::CellTopology;
pub use metrics::{FleetMetrics, FleetReport, WorkerReport};
pub use scale::{
    measure_query_latency, AppPlan, QueryLatency, ScaleConfig, ScaleFleet, ScaleOutcome,
};
pub use supervisor::{AppFactory, Fleet, FleetConfig, PoolSharing};
