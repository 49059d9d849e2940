//! Communication schedules: who talks to whom each round.
//!
//! Gossip protocols specify "choose a neighbor uniformly at random", but the
//! worked bus-network example of the paper (Fig. 2) assumes "a regular,
//! synchronous communication schedule", and deterministic schedules make
//! unit tests exact. The schedule is owned by the simulator so that the
//! same seed reproduces the same partner sequence for any protocol.

use gr_topology::NodeId;
use rand::rngs::StdRng;
use rand::RngExt;

/// Partner-selection policy.
#[derive(Clone, Debug)]
pub enum Schedule {
    /// Each round, each node picks a partner uniformly at random among its
    /// believed-alive neighbors (the paper's model).
    UniformRandom,
    /// Each node cycles deterministically through its believed-alive
    /// neighbor list (position advances every round). Useful for exact
    /// tests and for the Fig. 2 worked example.
    RoundRobin {
        /// Per-node cursor into the alive-neighbor list.
        cursors: Vec<usize>,
    },
}

impl Schedule {
    /// A fresh uniform-random schedule.
    pub fn uniform() -> Self {
        Schedule::UniformRandom
    }

    /// A fresh round-robin schedule for `n` nodes.
    pub fn round_robin(n: usize) -> Self {
        Schedule::RoundRobin {
            cursors: vec![0; n],
        }
    }

    /// Choose the partner for `node` among `alive` (its believed-alive
    /// neighbor list, sorted). Returns `None` when the list is empty.
    ///
    /// Public because external round drivers (the multi-tenant batch
    /// executor in `gr-batch`, and `NodeDriver` in `gr-reduction`) pick
    /// with the simulator's exact draw sequence: one
    /// `random_range(0..alive.len())` per uniform pick, one cursor
    /// advance per round-robin pick. `node` only indexes the
    /// round-robin cursor array, so drivers with their own node numbering
    /// may pass a driver-local index.
    pub fn pick(&mut self, node: NodeId, alive: &[NodeId], rng: &mut StdRng) -> Option<NodeId> {
        if alive.is_empty() {
            return None;
        }
        match self {
            Schedule::UniformRandom => {
                let k = rng.random_range(0..alive.len());
                Some(alive[k])
            }
            Schedule::RoundRobin { cursors } => {
                let c = &mut cursors[node as usize];
                let pick = alive[*c % alive.len()];
                *c += 1;
                Some(pick)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, RngStream};

    #[test]
    fn round_robin_cycles() {
        let mut s = Schedule::round_robin(1);
        let mut rng = stream_rng(0, RngStream::Schedule);
        let alive = [10, 20, 30];
        let picks: Vec<_> = (0..6)
            .map(|_| s.pick(0, &alive, &mut rng).unwrap())
            .collect();
        assert_eq!(picks, vec![10, 20, 30, 10, 20, 30]);
    }

    #[test]
    fn empty_neighborhood_yields_none() {
        let mut s = Schedule::uniform();
        let mut rng = stream_rng(0, RngStream::Schedule);
        assert_eq!(s.pick(0, &[], &mut rng), None);
    }

    #[test]
    fn uniform_is_deterministic_under_seed() {
        let alive = [1, 2, 3, 4];
        let mut rng1 = stream_rng(9, RngStream::Schedule);
        let mut rng2 = stream_rng(9, RngStream::Schedule);
        let mut s1 = Schedule::uniform();
        let mut s2 = Schedule::uniform();
        for _ in 0..50 {
            assert_eq!(s1.pick(0, &alive, &mut rng1), s2.pick(0, &alive, &mut rng2));
        }
    }

    #[test]
    fn uniform_covers_all_neighbors() {
        let alive = [5, 6, 7];
        let mut rng = stream_rng(3, RngStream::Schedule);
        let mut s = Schedule::uniform();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.pick(0, &alive, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }
}
