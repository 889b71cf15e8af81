//! Fleet workload generation: one deterministic stream, many shards.
//!
//! A fleet supervisor dispatches a single input stream across N workers.
//! To make "which worker sees a trigger when" part of the spec, the
//! stream is built shard-first: each shard is an independent workload
//! from [`AppSpec::workload`] with its own derived seed and its own
//! trigger schedule, and the shards are interleaved round-robin into one
//! stream. Under round-robin dispatch with the same N, shard `s` is
//! exactly worker `s`'s traffic, so "which worker sees a trigger when"
//! is fully determined by the spec — not by scheduling.

use fa_proc::Input;

use crate::registry::{AppSpec, WorkloadSpec};

/// Derives a per-shard seed from the stream seed (splitmix64 step, so
/// neighboring shards get uncorrelated request mixes).
fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + shard as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a fleet stream with an explicit trigger schedule per shard.
///
/// `shard_triggers[s]` lists the *within-shard* indices at which shard
/// `s`'s inputs trigger the bug; `per_shard` is each shard's length. The
/// result interleaves the shards round-robin:
/// `out[i] = shard[i % N][i / N]` — length `N * per_shard`.
pub fn sharded_stream(
    spec: &AppSpec,
    shard_triggers: &[Vec<usize>],
    per_shard: usize,
    seed: u64,
) -> Vec<Input> {
    let shards: Vec<Vec<Input>> = shard_triggers
        .iter()
        .enumerate()
        .map(|(s, triggers)| {
            (spec.workload)(&WorkloadSpec {
                n: per_shard,
                triggers: triggers.clone(),
                seed: shard_seed(seed, s),
            })
        })
        .collect();
    interleave(shards)
}

/// Builds the periodic fleet stream of the immunization experiment:
/// every shard triggers the bug every `period` inputs after a `warmup`,
/// shard `s` offset by `s * stagger` so triggers arrive spread out — the
/// first worker to hit one can immunize the rest before their turn.
///
/// For a later worker to be spared its own diagnosis, `stagger` must
/// exceed the bug's error-propagation distance (the inputs between
/// trigger and failure, ~250 for the Apache dangling read) plus the
/// diagnosis time, counted in inputs: a sibling installs the patch only
/// once its own clock reaches the instant the patch was published, so a
/// trigger it runs before then is one it must diagnose itself.
pub fn periodic_stream(
    spec: &AppSpec,
    shards: usize,
    per_shard: usize,
    warmup: usize,
    period: usize,
    stagger: usize,
    seed: u64,
) -> Vec<Input> {
    let shard_triggers: Vec<Vec<usize>> = (0..shards)
        .map(|s| {
            (0..)
                .map(|k| warmup + s * stagger + k * period)
                .take_while(|&i| i < per_shard)
                .collect()
        })
        .collect();
    sharded_stream(spec, &shard_triggers, per_shard, seed)
}

fn interleave(shards: Vec<Vec<Input>>) -> Vec<Input> {
    let n = shards.len();
    let per_shard = shards.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(n * per_shard);
    for _ in 0..per_shard {
        for it in &mut iters {
            if let Some(input) = it.next() {
                out.push(input);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::spec_by_key;

    #[test]
    fn shards_interleave_round_robin() {
        let spec = spec_by_key("squid").unwrap();
        let stream = sharded_stream(&spec, &[vec![2], vec![]], 5, 1);
        assert_eq!(stream.len(), 10);
        // Shard 0's trigger at within-shard index 2 lands at stream
        // index 2 * 2 = 4; shard 1 carries none.
        let buggy: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, i)| i.buggy)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(buggy, vec![4]);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let spec = spec_by_key("apache").unwrap();
        let a = sharded_stream(&spec, &[vec![], vec![]], 20, 7);
        let b = sharded_stream(&spec, &[vec![], vec![]], 20, 7);
        let c = sharded_stream(&spec, &[vec![], vec![]], 20, 8);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different mix");
    }

    #[test]
    fn shards_get_distinct_mixes() {
        let spec = spec_by_key("squid").unwrap();
        let stream = sharded_stream(&spec, &[vec![], vec![]], 40, 3);
        let shard0: Vec<_> = stream.iter().step_by(2).collect();
        let shard1: Vec<_> = stream.iter().skip(1).step_by(2).collect();
        assert_ne!(shard0, shard1, "derived seeds differ");
    }

    #[test]
    fn periodic_stream_staggers_triggers() {
        let spec = spec_by_key("apache").unwrap();
        let stream = periodic_stream(&spec, 2, 100, 10, 40, 20, 5);
        assert_eq!(stream.len(), 200);
        let triggers = stream.iter().filter(|i| i.buggy).count();
        assert!(triggers >= 4, "both shards trigger repeatedly: {triggers}");
    }
}
