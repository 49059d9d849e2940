//! Execution observability: a bounded event trace.
//!
//! Debugging a distributed algorithm is mostly asking "what actually
//! happened, in order?" — the trace answers that without printf noise.
//! Its `Delivered` events also give per-link load, which exposes schedule
//! fairness (on degree-skewed topologies like Barabási–Albert graphs,
//! hubs are contacted far more often than leaves, which is exactly what
//! starves push gossip).

use gr_topology::NodeId;
use serde::Serialize;
use std::collections::VecDeque;

/// One simulator event.
///
/// Serializes externally tagged (`{"Sent": {"round": …, …}}`) so JSON
/// trace dumps are self-describing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Event {
    /// A message was handed to the transport.
    Sent {
        /// Round of the send.
        round: u64,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
    },
    /// A message reached its receive handler.
    Delivered {
        /// Round of delivery.
        round: u64,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
    },
    /// A message was dropped by the correlated-burst (Gilbert–Elliott)
    /// loss chain while it was in its bad state.
    LostBurst {
        /// Round of the drop.
        round: u64,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
    },
    /// A message was dropped by the probabilistic loss model.
    LostRandom {
        /// Round of the drop.
        round: u64,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
    },
    /// A message died because its link or an endpoint was dead.
    LostDead {
        /// Round of the drop.
        round: u64,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
    },
    /// A bit flip was injected into a message.
    BitFlipped {
        /// Round of the corruption.
        round: u64,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// Which bit of the payload.
        bit: u32,
    },
    /// A link physically died.
    LinkFailed {
        /// Round the fault fired.
        round: u64,
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// A node crashed (fail-stop).
    NodeCrashed {
        /// Round the fault fired.
        round: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// A failure detection was delivered to the protocol.
    Detected {
        /// Round of detection.
        round: u64,
        /// Detecting node.
        node: NodeId,
        /// The neighbor it lost.
        neighbor: NodeId,
    },
    /// A failed link returned to service.
    LinkHealed {
        /// Round the heal fired.
        round: u64,
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// A crashed node rejoined with fresh state.
    NodeRestarted {
        /// Round the restart fired.
        round: u64,
        /// The restarted node.
        node: NodeId,
    },
    /// A timeout detector suspected a neighbor (possibly falsely).
    NodeSuspected {
        /// Round of the suspicion.
        round: u64,
        /// Suspecting node.
        node: NodeId,
        /// The silent neighbor.
        neighbor: NodeId,
    },
    /// A suspected neighbor proved alive (message arrived, link healed, or
    /// the node restarted) and was re-admitted.
    NodeRehabilitated {
        /// Round of the rehabilitation.
        round: u64,
        /// Re-admitting node.
        node: NodeId,
        /// The rehabilitated neighbor.
        neighbor: NodeId,
    },
    /// A scripted network partition fired: every link between the cut
    /// group and the rest died at once (each one also records its own
    /// [`Event::LinkFailed`]).
    PartitionStarted {
        /// Round the cut fired.
        round: u64,
        /// Number of links severed.
        cut: u32,
    },
    /// A scripted partition healed: every severed crossing link returned
    /// to service (each one also records its own [`Event::LinkHealed`]).
    PartitionHealed {
        /// Round the heal fired.
        round: u64,
        /// Number of links restored.
        cut: u32,
    },
}

impl Event {
    /// The round the event belongs to.
    pub fn round(&self) -> u64 {
        match *self {
            Event::Sent { round, .. }
            | Event::Delivered { round, .. }
            | Event::LostBurst { round, .. }
            | Event::LostRandom { round, .. }
            | Event::LostDead { round, .. }
            | Event::BitFlipped { round, .. }
            | Event::LinkFailed { round, .. }
            | Event::NodeCrashed { round, .. }
            | Event::Detected { round, .. }
            | Event::LinkHealed { round, .. }
            | Event::NodeRestarted { round, .. }
            | Event::NodeSuspected { round, .. }
            | Event::NodeRehabilitated { round, .. }
            | Event::PartitionStarted { round, .. }
            | Event::PartitionHealed { round, .. } => round,
        }
    }
}

/// A bounded event recorder: keeps the most recent `capacity` events.
#[derive(Clone, Debug)]
pub struct Trace {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Record one event, evicting the oldest if full.
    pub fn push(&mut self, e: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(e);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events of a given round, oldest first.
    pub fn round_events(&self, round: u64) -> impl Iterator<Item = &Event> {
        self.ring.iter().filter(move |e| e.round() == round)
    }

    /// The last `n` retained events, oldest first (replay dumps want the
    /// end of the story, not the beginning).
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &Event> {
        self.ring.iter().skip(self.ring.len().saturating_sub(n))
    }
}

/// Serializes as `{"capacity": …, "dropped": …, "events": […]}` —
/// `dropped` records how many events were evicted before the window, so
/// a consumer knows whether the JSON is the whole story.
impl Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("capacity".to_string(), self.capacity.to_value()),
            ("dropped".to_string(), self.dropped.to_value()),
            ("events".to_string(), self.ring.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(3);
        for r in 0..5 {
            t.push(Event::Sent {
                round: r,
                src: 0,
                dst: 1,
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let rounds: Vec<u64> = t.events().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn round_filter() {
        let mut t = Trace::new(10);
        t.push(Event::Sent {
            round: 1,
            src: 0,
            dst: 1,
        });
        t.push(Event::Delivered {
            round: 1,
            src: 0,
            dst: 1,
        });
        t.push(Event::Sent {
            round: 2,
            src: 1,
            dst: 0,
        });
        assert_eq!(t.round_events(1).count(), 2);
        assert_eq!(t.round_events(2).count(), 1);
        assert_eq!(t.round_events(9).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Trace::new(0);
    }

    #[test]
    fn serializes_with_eviction_count() {
        let mut t = Trace::new(2);
        t.push(Event::Sent {
            round: 0,
            src: 0,
            dst: 1,
        });
        t.push(Event::NodeCrashed { round: 1, node: 3 });
        t.push(Event::Delivered {
            round: 2,
            src: 1,
            dst: 0,
        });
        let v = t.to_value();
        assert_eq!(v["dropped"], 1);
        assert_eq!(v["capacity"], 2);
        assert_eq!(v["events"][0]["NodeCrashed"]["node"], 3);
        assert_eq!(v["events"][1]["Delivered"]["round"], 2);
    }

    #[test]
    fn tail_returns_most_recent() {
        let mut t = Trace::new(5);
        for r in 0..4 {
            t.push(Event::Sent {
                round: r,
                src: 0,
                dst: 1,
            });
        }
        let rounds: Vec<u64> = t.tail(2).map(|e| e.round()).collect();
        assert_eq!(rounds, vec![2, 3]);
        assert_eq!(t.tail(99).count(), 4);
    }

    #[test]
    fn event_round_accessor() {
        assert_eq!(Event::NodeCrashed { round: 7, node: 3 }.round(), 7);
        assert_eq!(
            Event::LinkHealed {
                round: 4,
                a: 0,
                b: 1
            }
            .round(),
            4
        );
        assert_eq!(Event::NodeRestarted { round: 6, node: 2 }.round(), 6);
        assert_eq!(
            Event::NodeSuspected {
                round: 8,
                node: 0,
                neighbor: 1
            }
            .round(),
            8
        );
        assert_eq!(
            Event::NodeRehabilitated {
                round: 9,
                node: 0,
                neighbor: 1
            }
            .round(),
            9
        );
        assert_eq!(
            Event::BitFlipped {
                round: 9,
                src: 1,
                dst: 2,
                bit: 5
            }
            .round(),
            9
        );
        assert_eq!(
            Event::LostBurst {
                round: 3,
                src: 0,
                dst: 1
            }
            .round(),
            3
        );
        assert_eq!(Event::PartitionStarted { round: 5, cut: 8 }.round(), 5);
        assert_eq!(Event::PartitionHealed { round: 7, cut: 8 }.round(), 7);
    }
}
