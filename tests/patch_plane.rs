//! Multi-threaded stress of the patch pool's read path.
//!
//! Readers take the pool mutex for one lookup of a program's published
//! entry while writers rebuild those entries behind the same mutex.
//! This suite hammers that protocol from concurrent OS threads and
//! asserts the guarantees downstream code leans on:
//!
//! * **No torn snapshots** — a reader never observes a patch set mixing
//!   programs or half-applied mutations; every snapshot it sees was
//!   fully published by exactly one writer.
//! * **Monotone epochs** — per program, the epoch a reader observes
//!   never moves backwards, and an unchanged epoch always hands back
//!   the *same* `Arc` (pointer-equal: no clone, no rebuild).
//! * **Oracle agreement** — once writers quiesce, the published view is
//!   byte-identical to the set rebuilt from the writer-side state
//!   (`get_locked_with_epoch`), the correctness baseline.
//!
//! Everything is seeded; failures reproduce deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fa_proc::{CallSite, SymbolTable};
use first_aid::prelude::*;

/// Splitmix64 — the repo's standard seeded stream.
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn patch_at(bug: BugType, id: u64) -> Patch {
    Patch::new(bug, CallSite([id, 0, 0]), &SymbolTable::new())
}

/// Canonical, order-insensitive digest of a patch set.
fn digest(set: &PatchSet) -> Vec<String> {
    let mut rows: Vec<String> = set.patches().iter().map(|p| format!("{p:?}")).collect();
    rows.sort();
    rows
}

/// Each program owns a disjoint call-site id range; a snapshot holding
/// a site outside its program's range is torn or cross-contaminated.
const PROGRAMS: [&str; 3] = ["apache", "squid", "m4"];
const SITE_RANGE: u64 = 40;

fn site_base(program_idx: usize) -> u64 {
    1_000 * (program_idx as u64 + 1)
}

#[test]
fn concurrent_writers_never_tear_reader_snapshots() {
    let pool = PatchPool::in_memory();
    let stop = Arc::new(AtomicBool::new(false));
    const OPS_PER_WRITER: u64 = 400;

    std::thread::scope(|s| {
        // One writer per program, each with its own seeded op stream:
        // adds dominate, with removes and revocations mixed in so the
        // published entries see replacement, shrinkage, and tombstones.
        let writers: Vec<_> = PROGRAMS
            .iter()
            .enumerate()
            .map(|(idx, program)| {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut rng = 0xDEC0 + idx as u64;
                    let base = site_base(idx);
                    for _ in 0..OPS_PER_WRITER {
                        let id = base + splitmix64_next(&mut rng) % SITE_RANGE;
                        match splitmix64_next(&mut rng) % 8 {
                            0 => {
                                pool.remove_site(program, CallSite([id, 0, 0]));
                            }
                            1 => {
                                pool.revoke(program, CallSite([id, 0, 0]));
                            }
                            _ => {
                                let bug = if id.is_multiple_of(2) {
                                    BugType::BufferOverflow
                                } else {
                                    BugType::DanglingRead
                                };
                                pool.add(program, [patch_at(bug, id)]);
                            }
                        }
                    }
                })
            })
            .collect();

        // Two readers per program, spinning on the read path until the
        // writers quiesce.
        for (idx, program) in PROGRAMS.iter().enumerate() {
            for _ in 0..2 {
                let pool = pool.clone();
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let base = site_base(idx);
                    let mut last_epoch = 0u64;
                    let mut last_set: Option<Arc<PatchSet>> = None;
                    let mut observed = 0u64;
                    loop {
                        let done = stop.load(Ordering::Acquire);
                        let (set, epoch) = pool.get_with_epoch(program);
                        assert!(
                            epoch >= last_epoch,
                            "{program}: epoch moved backwards ({epoch} < {last_epoch})"
                        );
                        if epoch == last_epoch {
                            if let Some(prev) = &last_set {
                                assert!(
                                    Arc::ptr_eq(prev, &set),
                                    "{program}: same epoch {epoch} returned a different Arc"
                                );
                            }
                        }
                        for p in set.patches() {
                            let id = p.site.0[0];
                            assert!(
                                (base..base + SITE_RANGE).contains(&id),
                                "{program}: torn snapshot leaked foreign site {id}"
                            );
                        }
                        observed += u64::from(epoch != last_epoch);
                        last_epoch = epoch;
                        last_set = Some(set);
                        if done {
                            break;
                        }
                    }
                    assert!(observed > 0, "{program}: reader saw no publishes at all");
                });
            }
        }

        for w in writers {
            w.join().expect("writer thread");
        }
        stop.store(true, Ordering::Release);
    });

    // Writers have quiesced (scope joined): the published sets must
    // agree exactly with the locked oracle for every program.
    for program in PROGRAMS {
        let (fast, fast_epoch) = pool.get_with_epoch(program);
        let (oracle, oracle_epoch) = pool.get_locked_with_epoch(program);
        assert_eq!(fast_epoch, oracle_epoch, "{program}: epoch mismatch");
        assert_eq!(
            digest(&fast),
            digest(&oracle),
            "{program}: published set diverged from the locked oracle"
        );
        assert_eq!(fast.patches().len(), pool.len(program));
    }
}

#[test]
fn worker_scoped_views_stay_consistent_under_stress() {
    // Canary overlays are per-worker snapshots rebuilt at publish time;
    // under quarantine churn a scoped reader must see base + canary
    // atomically — never a half-merged tear — and unscoped readers must
    // never see canaries at all.
    let pool = PatchPool::in_memory().with_quarantine(QuarantinePolicy {
        quarantine_after: 2,
        max_window: 2,
    });
    let program = "bc";
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // The writer mutates through a worker-0 scope: revocations past
        // the flap threshold quarantine the site, scoped re-adds fly
        // canaries (after riding out the denial window), and
        // confirm_canary promotes them fleet-wide.
        let writer = {
            let scoped = pool.for_worker(0);
            s.spawn(move || {
                let mut rng = 0xCAFE_u64;
                for round in 0..90u64 {
                    let id = 1 + splitmix64_next(&mut rng) % 8;
                    let p = patch_at(BugType::DoubleFree, id);
                    scoped.add(program, [p.clone()]);
                    if round % 3 == 0 {
                        scoped.revoke(program, CallSite([id, 0, 0]));
                        scoped.revoke(program, CallSite([id, 0, 0]));
                        // Retry through the denial window until the
                        // canary is admitted (or the site was never
                        // quarantined and the add publishes directly).
                        for _ in 0..4 {
                            scoped.add(program, [p.clone()]);
                        }
                    }
                    if round % 5 == 0 {
                        scoped.confirm_canary(program);
                    }
                }
            })
        };

        let unscoped = {
            let pool = pool.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut polls = 0u64;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let set = pool.get(program);
                    // Unscoped views never include canary overlays and
                    // draw only from the 8 base sites.
                    assert!(set.patches().len() <= 8);
                    for p in set.patches() {
                        assert!((1..=8).contains(&p.site.0[0]));
                    }
                    polls += 1;
                    if done {
                        break;
                    }
                }
                polls
            })
        };

        let scoped_reader = {
            let worker0 = pool.for_worker(0);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last_epoch = 0u64;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let (set, epoch) = worker0.get_with_epoch(program);
                    assert!(epoch >= last_epoch, "scoped epoch went backwards");
                    last_epoch = epoch;
                    // The scoped overlay is base + canaries, all from
                    // the same 8-site namespace.
                    for p in set.patches() {
                        assert!((1..=8).contains(&p.site.0[0]));
                    }
                    if done {
                        break;
                    }
                }
            })
        };

        writer.join().expect("writer thread");
        stop.store(true, Ordering::Release);
        assert!(unscoped.join().unwrap() > 0);
        scoped_reader.join().unwrap();
    });

    // Quiesced: scoped and unscoped views both agree with their locked
    // oracles.
    assert!(!pool.get(program).patches().is_empty());
    assert_eq!(
        digest(&pool.get(program)),
        digest(&pool.get_locked_with_epoch(program).0)
    );
    let w0 = pool.for_worker(0);
    assert_eq!(
        digest(&w0.get(program)),
        digest(&w0.get_locked_with_epoch(program).0)
    );
}
