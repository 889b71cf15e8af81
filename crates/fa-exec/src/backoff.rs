//! Seeded, jittered exponential backoff.
//!
//! One policy object replaces the hand-rolled backoff loops that used
//! to live in the fleet worker crash-loop, the diagnosis retry gate,
//! and the journal append retry. All time here is *virtual*:
//! callers charge the returned delays to their own virtual clocks, so
//! the schedule is deterministic and free of wall-clock sleeps.

use fa_faults::splitmix64;

/// Exponential backoff with optional deterministic jitter.
///
/// The k-th call to [`Backoff::next_delay_ns`] (0-based) returns
/// `base << k` capped at `max`, optionally scaled by a seeded jitter in
/// `[0.75, 1.25)` so that independent actors (fleet workers retrying a
/// shared resource) decorrelate without any global RNG state.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ns: u64,
    max_ns: u64,
    jitter_seed: Option<u64>,
    attempt: u32,
}

impl Backoff {
    /// An unjittered policy: the k-th delay is exactly `base << k`,
    /// capped at `max`.
    pub fn new(base_ns: u64, max_ns: u64) -> Backoff {
        Backoff {
            base_ns,
            max_ns,
            jitter_seed: None,
            attempt: 0,
        }
    }

    /// A jittered policy: each delay is scaled by a deterministic
    /// pseudo-random factor in `[0.75, 1.25)` derived from `seed` and
    /// the attempt number.
    pub fn seeded(base_ns: u64, max_ns: u64, seed: u64) -> Backoff {
        Backoff {
            jitter_seed: Some(seed),
            ..Backoff::new(base_ns, max_ns)
        }
    }

    /// The delay to charge for the next retry, advancing the attempt
    /// counter. Shifts saturate (attempts past 63 stay at the cap).
    pub fn next_delay_ns(&mut self) -> u64 {
        let exp = self.attempt.min(24);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self.base_ns.saturating_mul(1u64 << exp).min(self.max_ns);
        match self.jitter_seed {
            None => raw,
            Some(seed) => {
                // Deterministic jitter in [0.75, 1.25): raw * (3/4 + r/2)
                // with r uniform in [0, 1) over 1024 buckets.
                let r = splitmix64(seed ^ u64::from(exp).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let bucket = r % 1024;
                (raw / 4)
                    .saturating_mul(3)
                    .saturating_add((raw / 2048).saturating_mul(bucket))
            }
        }
    }

    /// Retries attempted so far (calls to [`Backoff::next_delay_ns`]
    /// since construction or the last [`Backoff::reset`]).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Clears the attempt counter (the guarded operation succeeded).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unjittered_doubles_and_caps() {
        let mut b = Backoff::new(100, 500);
        assert_eq!(b.next_delay_ns(), 100);
        assert_eq!(b.next_delay_ns(), 200);
        assert_eq!(b.next_delay_ns(), 400);
        assert_eq!(b.next_delay_ns(), 500, "capped at max");
        assert_eq!(b.attempts(), 4);
        b.reset();
        assert_eq!(b.next_delay_ns(), 100);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = Backoff::seeded(1_000_000, u64::MAX, 42);
        let mut b = Backoff::seeded(1_000_000, u64::MAX, 42);
        let sa: Vec<u64> = (0..8).map(|_| a.next_delay_ns()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_delay_ns()).collect();
        assert_eq!(sa, sb, "same seed, same schedule");
        for (k, &d) in sa.iter().enumerate() {
            let raw = 1_000_000u64 << k;
            assert!(
                d >= raw / 4 * 3 && d < raw / 4 * 5,
                "attempt {k}: {d} outside [0.75, 1.25) of {raw}"
            );
        }
        let mut c = Backoff::seeded(1_000_000, u64::MAX, 43);
        let sc: Vec<u64> = (0..8).map(|_| c.next_delay_ns()).collect();
        assert_ne!(sa, sc, "different seed, different jitter");
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let mut b = Backoff::new(u64::MAX / 2, u64::MAX);
        for _ in 0..100 {
            // Would panic on shift/mul overflow in debug builds if the
            // schedule did not saturate.
            let _ = b.next_delay_ns();
        }
        assert_eq!(b.attempts(), 100);
    }
}
