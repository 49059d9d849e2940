//! The one timeout failure detector, shared by the round engine (one per
//! partition, ticked once per round) and the real-transport `NodeDriver`
//! (one over its neighbor slots, ticked once per own iteration).

use gr_topology::NodeId;

/// Packs a timing-wheel / suspect-list entry: owner node in the high 32
/// bits, arc index in the low 32. Sorting packed entries ascending is
/// exactly (node asc, arc asc) order.
#[inline]
fn pack(node: NodeId, arc: usize) -> u64 {
    ((node as u64) << 32) | arc as u64
}

#[inline]
fn unpack(e: u64) -> (NodeId, usize) {
    ((e >> 32) as NodeId, (e & 0xFFFF_FFFF) as usize)
}

/// O(active) silence detector over a contiguous range of arcs.
///
/// Each *monitored* arc keeps exactly one entry in a timing wheel,
/// parked in the slot of its current deadline `last_heard + window`. A
/// tick's [`scan`](Self::scan) touches only the entries whose slot comes
/// due: an entry whose silence clock was reset re-parks at its new
/// deadline, an entry the caller no longer monitors is dropped, and the
/// rest become suspicions: an arc last heard at tick `h` is suspected at
/// the end of tick `h + window`. A suspected arc leaves the wheel until
/// [`heard`](Self::heard) puts it back.
///
/// Scans must run on consecutive ticks, one per tick, and `heard` may
/// not name a tick that was already scanned.
pub struct SilenceDetector {
    /// First arc index of the range; bit `arc - arc_start` in the masks
    /// below. Separate detectors are separate allocations, so parallel
    /// workers never touch the same word.
    arc_start: usize,
    /// Silence threshold in ticks.
    window: u64,
    /// Tick of the last arrival over each arc (`arc - arc_start`).
    last_heard: Vec<u64>,
    /// Arc is suspected.
    suspected: Vec<u64>,
    /// Arc currently holds a timing-wheel entry.
    in_wheel: Vec<u64>,
    /// `wheel[deadline % wheel.len()]` holds the entries to examine at
    /// tick `deadline`; length `min(window, 4096) + 1` so a re-park never
    /// lands back in the slot being drained (deadlines beyond one lap
    /// just take extra no-op hops).
    wheel: Vec<Vec<u64>>,
    /// Entries suspected by the last scan, sorted (node asc, arc desc).
    due: Vec<u64>,
    /// Sorted packed entries for every suspected arc.
    suspects: Vec<u64>,
}

impl SilenceDetector {
    /// A detector over the arcs from `arc_start` on, one per item of
    /// `owners` (each arc's owner node, in arc order), that suspects after
    /// `window` silent ticks. Every arc starts monitored, last heard at
    /// tick 0.
    ///
    /// # Panics
    /// Panics if an arc id does not fit in 32 bits (entries pack arc ids
    /// into 32 bits).
    pub fn new(
        arc_start: usize,
        owners: impl Iterator<Item = NodeId> + Clone,
        window: u64,
    ) -> SilenceDetector {
        let arcs = owners.clone().count();
        assert!(
            arc_start + arcs <= u32::MAX as usize,
            "silence detector packs arc ids into 32 bits"
        );
        let wheel_len = (window.min(4096) + 1) as usize;
        let mut d = SilenceDetector {
            arc_start,
            window,
            last_heard: vec![0; arcs],
            suspected: vec![0; arcs.div_ceil(64)],
            in_wheel: vec![0; arcs.div_ceil(64)],
            wheel: (0..wheel_len).map(|_| Vec::new()).collect(),
            due: Vec::new(),
            suspects: Vec::new(),
        };
        for (k, node) in owners.enumerate() {
            d.heard(node, arc_start + k, 0);
        }
        d
    }

    /// `true` if `arc` is currently suspected.
    #[inline]
    pub fn is_suspected(&self, arc: usize) -> bool {
        let a = arc - self.arc_start;
        self.suspected[a / 64] & (1 << (a % 64)) != 0
    }

    /// `node` heard over `arc` at `tick` (an arrival, or monitoring
    /// resuming after a heal or restart): restart the arc's silence
    /// clock, lift any suspicion, and park the arc in the wheel if it is
    /// not there. Returns `true` if the arc was suspected, so the caller
    /// rehabilitates the neighbor.
    #[inline]
    pub fn heard(&mut self, node: NodeId, arc: usize, tick: u64) -> bool {
        let a = arc - self.arc_start;
        let (w, b) = (a / 64, 1u64 << (a % 64));
        self.last_heard[a] = tick;
        let was_suspected = self.suspected[w] & b != 0;
        if was_suspected {
            self.suspected[w] &= !b;
            if let Ok(pos) = self.suspects.binary_search(&pack(node, arc)) {
                self.suspects.remove(pos);
            }
        }
        if self.in_wheel[w] & b == 0 {
            self.in_wheel[w] |= b;
            let slot = (tick.saturating_add(self.window) % self.wheel.len() as u64) as usize;
            self.wheel[slot].push(pack(node, arc));
        }
        was_suspected
    }

    /// The end-of-tick scan: every arc due at `tick` that
    /// `monitored(node, arc)` accepts becomes suspected and is listed in
    /// [`due`](Self::due); due arcs it rejects simply leave the wheel
    /// (the caller re-arms them through [`heard`](Self::heard) when
    /// monitoring resumes). Consumes no RNG.
    pub fn scan(&mut self, tick: u64, mut monitored: impl FnMut(NodeId, usize) -> bool) {
        let wheel_len = self.wheel.len() as u64;
        let si = (tick % wheel_len) as usize;
        let len0 = self.wheel[si].len();
        self.due.clear();
        for k in 0..len0 {
            let e = self.wheel[si][k];
            let (node, arc) = unpack(e);
            let a = arc - self.arc_start;
            let deadline = self.last_heard[a].saturating_add(self.window);
            if deadline > tick {
                // Heard from since parking: re-park at the new deadline
                // (same-slot pushes land past `len0` and are not re-read).
                self.wheel[(deadline % wheel_len) as usize].push(e);
                continue;
            }
            // Due. The entry leaves the wheel either way: a suspicion
            // stops monitoring until the arc is heard from again.
            self.in_wheel[a / 64] &= !(1 << (a % 64));
            if monitored(node, arc) {
                self.due.push(e);
            }
        }
        self.wheel[si].drain(..len0);
        // Node ascending, arc descending: the order of a backward walk
        // over each node's sorted neighbor list.
        self.due
            .sort_unstable_by(|a, b| (a >> 32).cmp(&(b >> 32)).then(b.cmp(a)));
        for k in 0..self.due.len() {
            let e = self.due[k];
            let a = unpack(e).1 - self.arc_start;
            self.suspected[a / 64] |= 1 << (a % 64);
            if let Err(pos) = self.suspects.binary_search(&e) {
                self.suspects.insert(pos, e);
            }
        }
    }

    /// The `(node, arc)` pairs the last [`scan`](Self::scan) suspected,
    /// node ascending, arc descending.
    pub fn due(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.due.iter().map(|&e| unpack(e))
    }

    /// Every currently suspected `(node, arc)` pair, node ascending, arc
    /// ascending.
    pub(crate) fn suspects(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.suspects.iter().map(|&e| unpack(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans ticks `from..to` and returns those at which anything was
    /// suspected.
    fn fired(d: &mut SilenceDetector, from: u64, to: u64) -> Vec<u64> {
        (from..to)
            .filter(|&t| {
                d.scan(t, |_, _| true);
                d.due().next().is_some()
            })
            .collect()
    }

    #[test]
    fn fires_at_last_heard_plus_window_not_earlier() {
        for window in [1, 3, 7] {
            let mut d = SilenceDetector::new(0, [0].into_iter(), window);
            assert_eq!(fired(&mut d, 0, window + 1), vec![window]);
            // Heard at tick 20: the deadline moves with it.
            assert!(d.heard(0, 0, 20));
            assert_eq!(fired(&mut d, window + 1, 40), vec![20 + window]);
        }
    }

    #[test]
    fn arrival_reparks_the_arc() {
        let mut d = SilenceDetector::new(0, [0].into_iter(), 3);
        for t in 0..30 {
            if t % 2 == 0 {
                assert!(!d.heard(0, 0, t));
            }
            assert!(fired(&mut d, t, t + 1).is_empty(), "fired at tick {t}");
        }
        // One wheel entry per arc, however many arrivals re-armed it.
        assert_eq!(d.wheel.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn suspected_arc_leaves_the_wheel_until_heard() {
        let mut d = SilenceDetector::new(10, [5, 5].into_iter(), 2);
        assert_eq!(fired(&mut d, 0, 3), vec![2]);
        assert_eq!(d.due().collect::<Vec<_>>(), vec![(5, 11), (5, 10)]);
        assert_eq!(d.suspects().collect::<Vec<_>>(), vec![(5, 10), (5, 11)]);
        assert_eq!(d.wheel.iter().map(Vec::len).sum::<usize>(), 0);
        assert!(fired(&mut d, 3, 20).is_empty(), "suspected twice");
        // Heard again: rehabilitated and back in the wheel.
        assert!(d.heard(5, 11, 20));
        assert!(!d.is_suspected(11) && d.is_suspected(10));
        assert_eq!(d.suspects().collect::<Vec<_>>(), vec![(5, 10)]);
        assert_eq!(fired(&mut d, 20, 30), vec![22]);
        // A due arc the caller no longer monitors leaves unsuspected.
        assert!(d.heard(5, 11, 30));
        d.scan(30, |_, _| false);
        d.scan(31, |_, _| false);
        d.scan(32, |_, _| false);
        assert!(!d.is_suspected(11) && fired(&mut d, 33, 40).is_empty());
    }
}
