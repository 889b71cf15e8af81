//! Cell sharding and gossip-style patch propagation.
//!
//! At six-digit fleet sizes a central pool cannot notify every worker
//! directly — the paper's per-program pool becomes the *origin* of a
//! patch, and propagation between groups of workers follows a push
//! gossip: workers are sharded into **cells** (a cell models a rack, a
//! zone, or one supervisor's span of control), the cell that diagnosed
//! the bug pushes the patch to `fanout` other cells per round, and
//! every informed cell keeps pushing. Informed cells grow by a factor
//! of `1 + fanout` per round, so full propagation takes
//! `ceil(log_{1+fanout}(cells))` rounds — time-to-fleet-immunity grows
//! *logarithmically* in the number of cells (and therefore sublinearly
//! in workers), which is what the `fleet_scale` bench gate enforces.
//!
//! The schedule is deterministic: which cells learn in which round is a
//! seeded shuffle ([`CellTopology::informed_rounds`]), so two runs with
//! the same seed produce byte-identical propagation timelines.

use serde::Serialize;

/// Splitmix64, the repo's standard seeded-shuffle generator.
pub(crate) fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How a fleet's workers are sharded into gossip cells.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CellTopology {
    /// Total workers in the fleet.
    pub workers: usize,
    /// Workers per cell (the last cell may be smaller).
    pub cell_size: usize,
    /// Cells each informed cell pushes to per gossip round.
    pub fanout: usize,
    /// Virtual duration of one gossip round.
    pub round_ns: u64,
}

impl CellTopology {
    /// A topology with sane floors (at least one worker per cell, at
    /// least fanout 1).
    pub fn new(workers: usize, cell_size: usize, fanout: usize, round_ns: u64) -> CellTopology {
        CellTopology {
            workers: workers.max(1),
            cell_size: cell_size.max(1),
            fanout: fanout.max(1),
            round_ns,
        }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.workers.div_ceil(self.cell_size)
    }

    /// The cell a worker belongs to.
    pub fn cell_of(&self, worker: usize) -> usize {
        worker / self.cell_size
    }

    /// Informed-cell count after `round` rounds, starting from one
    /// origin cell: grows by `1 + fanout` per round, saturating at the
    /// cell count.
    pub fn informed_after(&self, round: u32) -> usize {
        let cells = self.cells();
        let mut informed = 1usize;
        for _ in 0..round {
            informed = informed.saturating_mul(1 + self.fanout).min(cells);
            if informed == cells {
                break;
            }
        }
        informed
    }

    /// Rounds until every cell is informed — the logarithmic term that
    /// keeps fleet immunity sublinear.
    pub fn rounds_to_full(&self) -> u32 {
        let cells = self.cells();
        let mut informed = 1usize;
        let mut rounds = 0u32;
        while informed < cells {
            informed = informed.saturating_mul(1 + self.fanout).min(cells);
            rounds += 1;
        }
        rounds
    }

    /// The deterministic gossip schedule from `origin`: element `c` is
    /// the round at which cell `c` learns the patch (0 for the origin
    /// itself). Which cells learn early is a seeded Fisher-Yates
    /// shuffle — decorrelated between programs via the seed — but the
    /// informed-count curve per round is exactly [`Self::informed_after`].
    pub fn informed_rounds(&self, origin: usize, seed: u64) -> Vec<u32> {
        let cells = self.cells();
        let origin = origin.min(cells.saturating_sub(1));
        // Shuffle the non-origin cells into their "learn order".
        let mut order: Vec<usize> = (0..cells).filter(|&c| c != origin).collect();
        let mut state = seed ^ 0xce11_70b0_1091_c0de;
        splitmix64_next(&mut state); // warm the stream past the raw seed
        for i in (1..order.len()).rev() {
            let j = (splitmix64_next(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut rounds = vec![0u32; cells];
        let mut informed = 1usize;
        let mut round = 0u32;
        let mut next = 0usize; // next position in `order` to assign
        while next < order.len() {
            round += 1;
            let informed_now = informed.saturating_mul(1 + self.fanout).min(cells);
            for &cell in order.iter().take(informed_now - 1).skip(next) {
                rounds[cell] = round;
            }
            next = informed_now - 1;
            informed = informed_now;
        }
        rounds
    }

    /// Virtual delay until `cell` holds a patch that originated in
    /// `origin`'s cell, per the seeded schedule.
    pub fn gossip_delay_ns(&self, rounds: &[u32], cell: usize) -> u64 {
        u64::from(rounds[cell]) * self.round_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_learns_first_and_everyone_learns_by_the_last_round() {
        let topo = CellTopology::new(10_000, 64, 3, 2_000_000);
        let rounds = topo.informed_rounds(5, 42);
        assert_eq!(rounds.len(), topo.cells());
        assert_eq!(rounds[5], 0, "origin is informed immediately");
        let max = *rounds.iter().max().unwrap();
        assert_eq!(max, topo.rounds_to_full());
        // The informed-count curve matches the fanout model exactly.
        for r in 0..=max {
            let informed = rounds.iter().filter(|&&x| x <= r).count();
            assert_eq!(informed, topo.informed_after(r), "round {r}");
        }
    }

    #[test]
    fn propagation_rounds_grow_logarithmically() {
        let round = |workers| CellTopology::new(workers, 64, 3, 1).rounds_to_full();
        // 100x more workers adds a constant number of rounds (log), it
        // does not multiply them.
        assert!(round(100_000) <= round(1_000) + 4);
        assert!(round(100) <= 1);
        assert!(round(100_000) >= round(100));
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let topo = CellTopology::new(4096, 64, 2, 1_000);
        assert_eq!(topo.informed_rounds(0, 7), topo.informed_rounds(0, 7));
        assert_ne!(
            topo.informed_rounds(0, 7),
            topo.informed_rounds(0, 8),
            "different seeds, different early-learner cells"
        );
    }

    #[test]
    fn single_cell_fleets_need_no_gossip() {
        let topo = CellTopology::new(50, 64, 3, 1_000);
        assert_eq!(topo.cells(), 1);
        assert_eq!(topo.rounds_to_full(), 0);
        assert_eq!(topo.informed_rounds(0, 1), vec![0]);
    }
}
