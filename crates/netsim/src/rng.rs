//! Independent deterministic RNG streams derived from one master seed.
//!
//! A simulation needs several sources of randomness — the communication
//! schedule, the fault injector, workload generation — and they must be
//! *independent*: turning the fault injector on must not change which
//! partners nodes pick (otherwise Fig. 4/7-style "same schedule, different
//! protocol/faults" comparisons are impossible). Each stream seeds its own
//! [`StdRng`] from `splitmix64(master_seed ⊕ stream_tag)`.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The well-mixed SplitMix64 finalizer; decorrelates nearby seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named randomness consumers of a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RngStream {
    /// Partner choice each round.
    Schedule,
    /// Message-loss and bit-flip coin flips.
    Faults,
    /// Initial data / workload generation.
    Workload,
    /// Partner choice for one partition of a partitioned run.
    /// Distinct from [`RngStream::Schedule`] even for partition 0, so the
    /// partitioned schedule (any `P ≥ 2`) is one fixed deterministic
    /// function of `(seed, partition)` — independent of worker-thread
    /// count by construction.
    SchedulePart(u32),
    /// Fault coin flips for one partition of a partitioned run.
    FaultsPart(u32),
    /// The correlated-burst (Gilbert–Elliott) loss chain. Separate from
    /// [`RngStream::Faults`] so enabling bursts never perturbs the i.i.d.
    /// loss/flip draws — existing golden hashes stay bit-exact.
    Burst,
    /// Burst chain for one partition of a partitioned run.
    BurstPart(u32),
    /// Anything experiment-specific (run replication etc.).
    Aux(u64),
}

impl RngStream {
    fn tag(self) -> u64 {
        match self {
            RngStream::Schedule => 0x5348_4544, // "SHED"
            RngStream::Faults => 0x4641_554C,   // "FAUL"
            RngStream::Workload => 0x574f_524b, // "WORK"
            RngStream::SchedulePart(p) => 0x5350_0000_0000_0000 | u64::from(p), // "SP"
            RngStream::FaultsPart(p) => 0x4650_0000_0000_0000 | u64::from(p), // "FP"
            RngStream::Burst => 0x4255_5253,    // "BURS"
            RngStream::BurstPart(p) => 0x4250_0000_0000_0000 | u64::from(p), // "BP"
            RngStream::Aux(k) => 0xA000_0000_0000_0000 ^ k,
        }
    }
}

/// Construct the RNG for `stream` under `master_seed`.
pub fn stream_rng(master_seed: u64, stream: RngStream) -> StdRng {
    StdRng::seed_from_u64(splitmix64(master_seed ^ splitmix64(stream.tag())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn streams_are_deterministic() {
        let mut a = stream_rng(42, RngStream::Schedule);
        let mut b = stream_rng(42, RngStream::Schedule);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn streams_differ_from_each_other() {
        let mut a = stream_rng(42, RngStream::Schedule);
        let mut b = stream_rng(42, RngStream::Faults);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream_rng(1, RngStream::Schedule);
        let mut b = stream_rng(2, RngStream::Schedule);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn aux_streams_distinct() {
        let mut a = stream_rng(7, RngStream::Aux(0));
        let mut b = stream_rng(7, RngStream::Aux(1));
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn burst_stream_is_independent() {
        // The burst chain must never replay (or perturb) the i.i.d. fault
        // stream — that independence is what keeps golden hashes stable
        // when a plan turns bursts on.
        let mut f = stream_rng(42, RngStream::Faults);
        let mut b = stream_rng(42, RngStream::Burst);
        let xs: Vec<u64> = (0..8).map(|_| f.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
        let mut b0 = stream_rng(42, RngStream::BurstPart(0));
        let mut b1 = stream_rng(42, RngStream::BurstPart(1));
        assert_ne!(b0.random::<u64>(), b1.random::<u64>());
    }
}
