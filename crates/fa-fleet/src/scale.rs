//! Fleet scale harness: 10²–10⁵ simulated workers over the real pool.
//!
//! The threaded [`Fleet`](crate::Fleet) runs one OS thread per worker —
//! honest, but a wall around 10³ workers. This module scales the fleet
//! model to six digits by splitting what must be *real* from what must
//! be *deterministic*:
//!
//! * **Real:** the patch plane. Every simulated input performs the
//!   actual per-input hot path against a live [`PatchPool`] — one
//!   lock-free [`PatchPool::get_with_epoch`] (the set plus the epoch a
//!   worker's "anything new?" check compares) and a call-site match —
//!   across real OS threads, so aggregate inputs/sec measures the true
//!   cost of the lock-free read side under core-count concurrency. The pool holds
//!   real patches produced by real diagnoses (the bench's diagnosis
//!   phase, see [`AppPlan`]).
//! * **Deterministic:** the propagation timeline. Worker `w` runs
//!   program `plans[w % napps]`; the first victim worker of each app
//!   pays the app's measured diagnosis cost (`recovery_ns`) and
//!   publishes at `T_pub = per_input_ns + recovery_ns`; the patch then
//!   spreads cell-to-cell on the seeded gossip schedule
//!   ([`CellTopology::informed_rounds`]), and every other worker is
//!   immunized at its first input boundary after its cell is informed.
//!   Per-worker trigger times are seeded; a trigger before immunity is
//!   a failure, after it a patch hit. All of this is pure arithmetic on
//!   virtual time, so `immunity_ns`, `patch_hits`, `failures` and the
//!   query `checksum` are byte-reproducible across machines — which is
//!   what lets `fleet_scale --check` gate them exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fa_allocext::Patch;
use fa_proc::CallSite;
use first_aid_core::PatchPool;
use serde::Serialize;

use crate::cells::{splitmix64_next, CellTopology};

/// One program's contribution to the mixed-traffic profile: the real
/// patches its diagnosis produced and what that diagnosis cost in
/// virtual time. Built by the bench's diagnosis phase from a real
/// `FirstAidRuntime` run; the scale harness treats it as ground truth.
#[derive(Clone, Debug)]
pub struct AppPlan {
    /// Program executable name (pool key).
    pub program: String,
    /// The patches the app's diagnosis published.
    pub patches: Vec<Patch>,
    /// Virtual time the victim worker spent diagnosing (trigger to
    /// patch publish).
    pub recovery_ns: u64,
}

/// Scale-harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Simulated workers.
    pub workers: usize,
    /// Workers per gossip cell.
    pub cell_size: usize,
    /// Gossip fanout (cells informed per round per informed cell).
    pub fanout: usize,
    /// Virtual duration of one gossip round.
    pub gossip_round_ns: u64,
    /// Real hot-path queries each simulated worker performs.
    pub inputs_per_worker: usize,
    /// Virtual time per input (the modeled service time).
    pub per_input_ns: u64,
    /// OS threads carrying the simulated workers (0 = auto: the
    /// machine's available parallelism, capped at 8).
    pub threads: usize,
    /// Seed for trigger times and the gossip schedules.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            workers: 10_000,
            cell_size: 64,
            fanout: 3,
            gossip_round_ns: 2_000_000, // 2 ms per gossip round
            inputs_per_worker: 24,
            per_input_ns: 250_000, // 250 µs service time
            threads: 0,
            seed: 42,
        }
    }
}

/// What one scale run produced. The virtual-time fields (`immunity_ns`,
/// `patch_hits`, `failures`, `checksum`) are deterministic for a given
/// config + plans; the wall-clock fields (`elapsed_ns`,
/// `inputs_per_sec`) measure this machine.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleOutcome {
    pub workers: usize,
    pub cells: usize,
    /// Gossip rounds to full propagation (the logarithmic term).
    pub gossip_rounds: u32,
    /// Total simulated inputs (= real hot-path queries performed).
    pub inputs: u64,
    /// Virtual time at which the last worker became immunized.
    pub immunity_ns: u64,
    /// Virtual time of the last patch publication (slowest diagnosis).
    pub last_publish_ns: u64,
    /// Triggers neutralized by an installed patch.
    pub patch_hits: u64,
    /// Triggers that fired before the worker was immunized.
    pub failures: u64,
    /// Order-independent digest of every query result (reproducibility
    /// witness: the real reads saw exactly the expected patch state).
    pub checksum: u64,
    /// Wall-clock time of the threaded query phase.
    pub elapsed_ns: u64,
    /// Real aggregate throughput of the query phase.
    pub inputs_per_sec: f64,
}

/// Per-allocation query-latency comparison: the retired locked read
/// path ([`PatchPool::get_locked`], mutex + full `PatchSet` clone per
/// call) against the lock-free plane ([`PatchPool::get`]), hammered
/// from `threads` concurrent readers.
#[derive(Clone, Debug, Serialize)]
pub struct QueryLatency {
    pub threads: usize,
    pub iters_per_thread: u64,
    /// Mean ns per locked query under contention.
    pub locked_ns: f64,
    /// Mean ns per lock-free query under contention.
    pub lockfree_ns: f64,
    /// `locked_ns / lockfree_ns`.
    pub speedup: f64,
}

/// The auto thread count: all cores, capped so laptop CI and the
/// 64-core bench box measure comparable contention.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// A simulated fleet at scale: a real patch pool pre-warmed with the
/// plans' diagnosed patches, queried by `workers` simulated workers.
pub struct ScaleFleet {
    config: ScaleConfig,
    plans: Vec<AppPlan>,
    pool: PatchPool,
}

impl ScaleFleet {
    /// Builds the fleet and pre-publishes every plan's patches through
    /// the real pool write path (journal-less `add`), as the victim
    /// workers' diagnoses would have.
    pub fn new(config: ScaleConfig, plans: Vec<AppPlan>) -> ScaleFleet {
        let pool = PatchPool::in_memory();
        for plan in &plans {
            pool.add(&plan.program, plan.patches.iter().cloned());
        }
        ScaleFleet {
            config,
            plans,
            pool,
        }
    }

    /// The underlying pool (pre-warmed; also the latency-bench target).
    pub fn pool(&self) -> &PatchPool {
        &self.pool
    }

    /// Runs the simulation: deterministic virtual-time propagation, real
    /// threaded hot-path queries.
    pub fn run(&self) -> ScaleOutcome {
        let cfg = self.config;
        let topo = CellTopology::new(cfg.workers, cfg.cell_size, cfg.fanout, cfg.gossip_round_ns);
        let cells = topo.cells();
        let napps = self.plans.len().max(1);

        // Per-app propagation schedule: when each cell is informed.
        struct Sched {
            program: String,
            site: Option<CallSite>,
            informed_ns: Vec<u64>,
            pub_ns: u64,
        }
        let scheds: Vec<Sched> = self
            .plans
            .iter()
            .enumerate()
            .map(|(a, plan)| {
                // The app's first victim is worker `a` (workers are
                // assigned round-robin, so worker `a` runs app `a`).
                let origin = topo.cell_of(a.min(cfg.workers.saturating_sub(1)));
                let rounds =
                    topo.informed_rounds(origin, cfg.seed ^ (a as u64).wrapping_mul(0x9e37));
                let pub_ns = cfg.per_input_ns + plan.recovery_ns;
                let informed_ns = (0..cells)
                    .map(|c| pub_ns + topo.gossip_delay_ns(&rounds, c))
                    .collect();
                Sched {
                    program: plan.program.clone(),
                    site: plan.patches.first().map(|p| p.site),
                    informed_ns,
                    pub_ns,
                }
            })
            .collect();
        let last_publish_ns = scheds.iter().map(|s| s.pub_ns).max().unwrap_or(0);
        let max_informed = scheds
            .iter()
            .flat_map(|s| s.informed_ns.iter().copied())
            .max()
            .unwrap_or(0);
        // Trigger times land anywhere in the run's virtual horizon, so
        // some precede immunity (failures) and some follow it (hits).
        let horizon_inputs = (max_informed / cfg.per_input_ns.max(1)) + 2;

        let threads = if cfg.threads == 0 {
            default_threads()
        } else {
            cfg.threads
        };
        let immunity = AtomicU64::new(0);
        let hits = AtomicU64::new(0);
        let fails = AtomicU64::new(0);
        let checksum = AtomicU64::new(0);
        let chunk = cfg.workers.div_ceil(threads.max(1));
        let started = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(cfg.workers);
                if lo >= hi {
                    continue;
                }
                let pool = &self.pool;
                let scheds = &scheds;
                let immunity = &immunity;
                let hits = &hits;
                let fails = &fails;
                let checksum = &checksum;
                s.spawn(move || {
                    let mut local_imm = 0u64;
                    let mut local_hits = 0u64;
                    let mut local_fails = 0u64;
                    let mut local_sum = 0u64;
                    for w in lo..hi {
                        let sched = &scheds[w % napps];
                        let cell = topo.cell_of(w);
                        let informed = sched.informed_ns[cell];
                        // Immunized at the first input boundary at or
                        // after the cell learned the patch.
                        let immunized_ns =
                            informed.div_ceil(cfg.per_input_ns.max(1)) * cfg.per_input_ns.max(1);
                        local_imm = local_imm.max(immunized_ns);
                        let mut rng = cfg.seed ^ (w as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                        let trig_ns =
                            (splitmix64_next(&mut rng) % horizon_inputs) * cfg.per_input_ns;
                        if trig_ns >= immunized_ns {
                            local_hits += 1;
                        } else {
                            local_fails += 1;
                        }
                        // The real per-input hot path: one lock-free read
                        // of the patch set and its epoch, plus site match.
                        for _ in 0..cfg.inputs_per_worker {
                            let (set, epoch) =
                                std::hint::black_box(pool.get_with_epoch(&sched.program));
                            let matched = sched.site.is_some_and(|site| {
                                set.match_alloc(site).is_some() || set.match_dealloc(site).is_some()
                            });
                            local_sum = local_sum
                                .wrapping_add(epoch ^ (set.len() as u64) ^ u64::from(matched));
                        }
                    }
                    immunity.fetch_max(local_imm, Ordering::Relaxed);
                    hits.fetch_add(local_hits, Ordering::Relaxed);
                    fails.fetch_add(local_fails, Ordering::Relaxed);
                    checksum.fetch_add(local_sum, Ordering::Relaxed);
                });
            }
        });
        let elapsed = started.elapsed();
        let inputs = (cfg.workers * cfg.inputs_per_worker) as u64;
        let secs = elapsed.as_secs_f64();
        ScaleOutcome {
            workers: cfg.workers,
            cells,
            gossip_rounds: topo.rounds_to_full(),
            inputs,
            immunity_ns: immunity.load(Ordering::Relaxed),
            last_publish_ns,
            patch_hits: hits.load(Ordering::Relaxed),
            failures: fails.load(Ordering::Relaxed),
            checksum: checksum.load(Ordering::Relaxed),
            elapsed_ns: elapsed.as_nanos() as u64,
            inputs_per_sec: if secs > 0.0 {
                inputs as f64 / secs
            } else {
                0.0
            },
        }
    }
}

/// Measures mean per-query latency of the locked baseline against the
/// lock-free plane, with `threads` readers hammering the same pool
/// concurrently (the contention profile a fleet's allocation fast
/// paths produce). Returns mean ns/query per mode and the speedup.
pub fn measure_query_latency(
    pool: &PatchPool,
    programs: &[String],
    threads: usize,
    iters_per_thread: u64,
) -> QueryLatency {
    fn timed(threads: usize, iters: u64, f: impl Fn(u64) -> u64 + Sync) -> f64 {
        let started = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move || {
                    let mut acc = 0u64;
                    for i in 0..iters {
                        acc = acc.wrapping_add(f(t as u64 ^ i));
                    }
                    std::hint::black_box(acc)
                });
            }
        });
        let total = (threads as u64 * iters).max(1);
        started.elapsed().as_nanos() as f64 / total as f64
    }

    let n = programs.len().max(1) as u64;
    let locked_ns = timed(threads, iters_per_thread, |i| {
        let set = pool.get_locked(&programs[(i % n) as usize]);
        std::hint::black_box(set.len() as u64)
    });
    let lockfree_ns = timed(threads, iters_per_thread, |i| {
        let set = pool.get(&programs[(i % n) as usize]);
        std::hint::black_box(set.len() as u64)
    });
    QueryLatency {
        threads,
        iters_per_thread,
        locked_ns,
        lockfree_ns,
        speedup: if lockfree_ns > 0.0 {
            locked_ns / lockfree_ns
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_allocext::BugType;
    use fa_proc::SymbolTable;

    fn plan(program: &str, id: u64, recovery_ns: u64) -> AppPlan {
        AppPlan {
            program: program.to_owned(),
            patches: vec![Patch::new(
                BugType::BufferOverflow,
                CallSite([id, 0, 0]),
                &SymbolTable::new(),
            )],
            recovery_ns,
        }
    }

    fn quick(workers: usize) -> ScaleConfig {
        ScaleConfig {
            workers,
            inputs_per_worker: 4,
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn virtual_metrics_are_deterministic_and_account_every_worker() {
        let plans = vec![plan("apache", 1, 90_000_000), plan("squid", 2, 30_000_000)];
        let a = ScaleFleet::new(quick(500), plans.clone()).run();
        let b = ScaleFleet::new(quick(500), plans).run();
        assert_eq!(a.patch_hits, b.patch_hits);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.immunity_ns, b.immunity_ns);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(
            a.patch_hits + a.failures,
            500,
            "every worker triggered once"
        );
        assert_eq!(a.inputs, 500 * 4);
        assert!(a.immunity_ns >= a.last_publish_ns);
        assert!(a.patch_hits > 0 && a.failures > 0);
    }

    #[test]
    fn immunity_grows_sublinearly_with_fleet_size() {
        let plans = vec![plan("apache", 1, 90_000_000)];
        let small = ScaleFleet::new(quick(100), plans.clone()).run();
        let large = ScaleFleet::new(quick(10_000), plans).run();
        // 100x the workers must cost far less than 100x the immunity
        // time — gossip rounds grow with log(cells).
        let ratio = large.immunity_ns as f64 / small.immunity_ns.max(1) as f64;
        assert!(ratio < 10.0, "immunity ratio {ratio} for 100x workers");
        assert!(large.gossip_rounds >= small.gossip_rounds);
    }

    #[test]
    fn latency_bench_reports_positive_rates() {
        let fleet = ScaleFleet::new(quick(50), vec![plan("pine", 3, 1_000_000)]);
        let programs = vec!["pine".to_owned()];
        let lat = measure_query_latency(fleet.pool(), &programs, 2, 2_000);
        assert!(lat.locked_ns > 0.0 && lat.lockfree_ns > 0.0);
        assert!(lat.speedup > 0.0);
    }
}
