//! Fleet scale harness: 10²–10⁵ simulated workers over the real pool.
//!
//! [`Fleet`](crate::Fleet) runs a full `FirstAidRuntime` per worker —
//! a whole simulated process each, which walls it around 10³ workers.
//! This module scales the fleet model to six digits by splitting what
//! must be *real* from what must be *deterministic*:
//!
//! * **Real:** the pool reads. Each simulated worker launches with one
//!   locked [`PatchPool::get_with_epoch`] (its set plus the epoch that
//!   set belongs to), then performs the actual per-input quiet path
//!   against a live [`PatchPool`] — [`EpochSignal::moved`], the check
//!   `FirstAidRuntime::refresh_patches` makes, and a call-site match on
//!   the set it holds — across real OS threads, so aggregate inputs/sec
//!   measures the true cost of a fleet's pool traffic under core-count
//!   concurrency. Every block of workers is also served once without
//!   the per-input check, right beside its signal pass, as a
//!   same-process reference. The pool holds real patches produced by
//!   real diagnoses (the bench's diagnosis phase, see [`AppPlan`]).
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

use std::sync::Barrier;
use std::time::Instant;

use fa_allocext::Patch;
use fa_proc::CallSite;
use first_aid_core::{EpochSignal, PatchPool};
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
    /// Inputs each simulated worker serves (one real signal load each).
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

/// Simulated workers per timed block. Each block is served twice back
/// to back, with and without the per-input check, so a stall of the
/// machine lands on one block's pair, not on one whole pass.
const BLOCK: usize = 8;

/// What one scale run produced. The virtual-time fields (`immunity_ns`,
/// `patch_hits`, `failures`, `checksum`) are deterministic for a given
/// config + plans; the wall-clock fields (`elapsed_ns`,
/// `inputs_per_sec`, `unchecked_inputs_per_sec`, `vs_unchecked`)
/// measure this machine.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleOutcome {
    pub workers: usize,
    pub cells: usize,
    /// Gossip rounds to full propagation (the logarithmic term).
    pub gossip_rounds: u32,
    /// Total simulated inputs (= real per-input pool checks performed).
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
    /// Wall-clock time of the threaded query phase on the signal path:
    /// the slowest thread's summed signal passes.
    pub elapsed_ns: u64,
    /// Real aggregate throughput of the signal path.
    pub inputs_per_sec: f64,
    /// The same for the passes without the per-input check.
    pub unchecked_inputs_per_sec: f64,
    /// Median, over pairs of consecutive blocks, of the signal passes'
    /// throughput as a fraction of their unchecked twins': the cost of
    /// the per-input check, with the machine's speed at the time
    /// cancelled out.
    pub vs_unchecked: f64,
}

/// One query thread's share of a run.
#[derive(Default)]
struct Tally {
    immunity_ns: u64,
    hits: u64,
    fails: u64,
    checksum: u64,
    /// Per block: the signal pass's and the unchecked pass's time.
    blocks: Vec<(u64, u64)>,
}

/// Per-input query-latency comparison: a locked read
/// ([`PatchPool::get_with_epoch`]) against a worker's quiet path
/// ([`EpochSignal::moved`] on the epoch it last read), hammered from
/// `threads` concurrent readers.
#[derive(Clone, Debug, Serialize)]
pub struct QueryLatency {
    pub threads: usize,
    pub iters_per_thread: u64,
    /// Mean ns per locked query under contention, fastest round.
    pub locked_ns: f64,
    /// Mean ns per quiet-path signal check under contention, fastest
    /// round.
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
    /// threaded hot-path queries. Each thread serves its workers in
    /// blocks of `BLOCK` (8), every block once on the signal path and once
    /// without the check, in alternating order so neither pass always
    /// finds the caches warm. The pool is quiet during the run, so both
    /// passes install the same sets; the checksum folds the signal
    /// passes.
    pub fn run(&self) -> ScaleOutcome {
        let cfg = self.config;
        let topo = CellTopology::new(cfg.workers, cfg.cell_size, cfg.fanout, cfg.gossip_round_ns);
        let cells = topo.cells();
        let napps = self.plans.len().max(1);

        // Per-app propagation schedule: when each cell is informed.
        struct Sched {
            program: String,
            signal: EpochSignal,
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
                    signal: self.pool.epoch_signal(&plan.program),
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
        let chunk = cfg.workers.div_ceil(threads.max(1));
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(cfg.workers)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        // Every thread starts timing once all are running, so thread
        // start-up stays out of the timed passes.
        let start = Barrier::new(ranges.len());
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    let start = &start;
                    let pool = &self.pool;
                    let scheds = &scheds;
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        for w in lo..hi {
                            let sched = &scheds[w % napps];
                            let informed = sched.informed_ns[topo.cell_of(w)];
                            // Immunized at the first input boundary at
                            // or after the cell learned the patch.
                            let immunized_ns = informed.div_ceil(cfg.per_input_ns.max(1))
                                * cfg.per_input_ns.max(1);
                            tally.immunity_ns = tally.immunity_ns.max(immunized_ns);
                            let mut rng = cfg.seed ^ (w as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                            let trig_ns =
                                (splitmix64_next(&mut rng) % horizon_inputs) * cfg.per_input_ns;
                            if trig_ns >= immunized_ns {
                                tally.hits += 1;
                            } else {
                                tally.fails += 1;
                            }
                        }
                        // One worker's inputs. Launch: the set and its
                        // epoch in one locked read. Then, per input, the
                        // real check (if `check`) and the site match.
                        let serve = |w: usize, check: bool| {
                            let sched = &scheds[w % napps];
                            let (mut set, mut seen) = pool.get_with_epoch(&sched.program);
                            let mut sum = 0u64;
                            for _ in 0..cfg.inputs_per_worker {
                                if check && sched.signal.moved(seen) {
                                    (set, seen) = pool.get_with_epoch(&sched.program);
                                }
                                let matched = sched.site.is_some_and(|site| {
                                    set.match_alloc(site).is_some()
                                        || set.match_dealloc(site).is_some()
                                });
                                sum = sum
                                    .wrapping_add(seen ^ (set.len() as u64) ^ u64::from(matched));
                            }
                            sum
                        };
                        let pass = |block: std::ops::Range<usize>, check: bool| {
                            let started = Instant::now();
                            let sum = block.fold(0u64, |acc, w| acc.wrapping_add(serve(w, check)));
                            (started.elapsed().as_nanos() as u64, sum)
                        };
                        start.wait();
                        for (b, first) in (lo..hi).step_by(BLOCK).enumerate() {
                            let block = first..(first + BLOCK).min(hi);
                            let ((signal_ns, sum), (unchecked_ns, _)) = if b % 2 == 0 {
                                let signal = pass(block.clone(), true);
                                (signal, pass(block, false))
                            } else {
                                let unchecked = pass(block.clone(), false);
                                (pass(block, true), unchecked)
                            };
                            tally.checksum = tally.checksum.wrapping_add(sum);
                            tally.blocks.push((signal_ns, unchecked_ns));
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let inputs = (cfg.workers * cfg.inputs_per_worker) as u64;
        let rate = |ns: u64| {
            if ns > 0 {
                inputs as f64 * 1e9 / ns as f64
            } else {
                0.0
            }
        };
        // A thread's time on one path is the sum of its passes; the
        // slowest thread sets the phase.
        let slowest = |path: fn(&(u64, u64)) -> u64| {
            let per_thread = tallies
                .iter()
                .map(|t| t.blocks.iter().map(path).sum::<u64>());
            per_thread.max().unwrap_or(0)
        };
        let elapsed_ns = slowest(|b| b.0);
        let unchecked_ns = slowest(|b| b.1);
        // One ratio per two consecutive blocks, which ran in opposite
        // orders, so a warm-cache edge for the second pass cancels.
        let mut ratios: Vec<f64> = tallies
            .iter()
            .flat_map(|t| t.blocks.chunks(2))
            .map(|pair| {
                let (signal, unchecked) = pair
                    .iter()
                    .fold((0u64, 0u64), |(s, u), b| (s + b.0, u + b.1));
                unchecked as f64 / signal.max(1) as f64
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        ScaleOutcome {
            workers: cfg.workers,
            cells,
            gossip_rounds: topo.rounds_to_full(),
            inputs,
            immunity_ns: tallies.iter().map(|t| t.immunity_ns).max().unwrap_or(0),
            last_publish_ns,
            patch_hits: tallies.iter().map(|t| t.hits).sum(),
            failures: tallies.iter().map(|t| t.fails).sum(),
            checksum: tallies
                .iter()
                .fold(0, |acc, t| acc.wrapping_add(t.checksum)),
            elapsed_ns,
            inputs_per_sec: rate(elapsed_ns),
            unchecked_inputs_per_sec: rate(unchecked_ns),
            vs_unchecked: ratios.get(ratios.len() / 2).copied().unwrap_or(0.0),
        }
    }
}

/// Rounds per mode in [`measure_query_latency`].
const LATENCY_ROUNDS: usize = 5;

/// Measures mean per-query latency of a locked read against a worker's
/// quiet path, with `threads` readers hammering the same pool
/// concurrently (the contention profile a fleet's per-input checks
/// produce). Returns each mode's fastest of `LATENCY_ROUNDS` (5) rounds,
/// in ns/query, and the speedup.
pub fn measure_query_latency(
    pool: &PatchPool,
    programs: &[String],
    threads: usize,
    iters_per_thread: u64,
) -> QueryLatency {
    // The slowest thread's time from a common start, per query of all
    // threads together.
    fn timed(threads: usize, iters: u64, f: impl Fn(u64) -> u64 + Sync) -> f64 {
        let start = Barrier::new(threads);
        let slowest = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (f, start) = (&f, &start);
                    s.spawn(move || {
                        start.wait();
                        let started = Instant::now();
                        let mut acc = 0u64;
                        for i in 0..iters {
                            acc = acc.wrapping_add(f(t as u64 ^ i));
                        }
                        std::hint::black_box(acc);
                        started.elapsed().as_nanos() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .max()
                .unwrap_or(0)
        });
        slowest as f64 / (threads as u64 * iters).max(1) as f64
    }

    let n = programs.len().max(1) as u64;
    let quiet: Vec<(EpochSignal, u64)> = programs
        .iter()
        .map(|p| (pool.epoch_signal(p), pool.epoch(p)))
        .collect();
    // Alternate the two modes and keep each one's fastest round, so a
    // stall of the machine during one round does not set either figure.
    let (mut locked_ns, mut lockfree_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..LATENCY_ROUNDS {
        locked_ns = locked_ns.min(timed(threads, iters_per_thread, |i| {
            let (set, epoch) = pool.get_with_epoch(&programs[(i % n) as usize]);
            std::hint::black_box(set.len() as u64 ^ epoch)
        }));
        lockfree_ns = lockfree_ns.min(timed(threads, iters_per_thread, |i| {
            let (signal, seen) = &quiet[(i % n) as usize];
            u64::from(signal.moved(*seen))
        }));
    }
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
        assert!(a.inputs_per_sec > 0.0 && a.unchecked_inputs_per_sec > 0.0);
        assert!(a.vs_unchecked > 0.0);
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
