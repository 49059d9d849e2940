//! A fixed reference kernel that tells how fast the machine runs now.
//!
//! On a shared virtual machine the same solve takes up to about 2× longer
//! while other guests load the host, in phases of seconds to minutes, so
//! raw medians of separate runs spread by 20–100%. The benchmark times
//! this kernel around every solve and reports the solve's timings scaled
//! to the speed at which the kernel takes [`NOMINAL_S`]. The kernel is the
//! benchmark's own code: no change to the repository moves it, and a
//! change that speeds up a solve still shows in full.
//!
//! Of the kernels tried (a register-only loop, random read-modify-write
//! over 4 MiB and over 64 MiB, pointer chasing, streaming reads), random
//! read-modify-write over 64 MiB tracked the workloads' slow-downs best;
//! it removes about half of the spread, not all of it.

use std::time::Instant;

/// Kernel seconds that define the reporting speed: about the kernel's
/// median on the 2-vCPU Xeon virtual machine the benchmark was tuned on.
pub const NOMINAL_S: f64 = 1.5e-3;

/// 64 MiB of `f64`.
const SLOTS: usize = 1 << 23;
const UPDATES: usize = 100_000;

pub struct Pace {
    slots: Vec<f64>,
}

impl Pace {
    pub fn new() -> Self {
        Pace {
            slots: vec![1.0; SLOTS],
        }
    }

    /// Median seconds of three kernel runs (the median drops a run hit by
    /// an interrupt).
    pub fn sample(&mut self) -> f64 {
        let mut t = [self.run(), self.run(), self.run()];
        t.sort_by(f64::total_cmp);
        t[1]
    }

    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (SLOTS - 1);
            self.slots[i] = self.slots[i] * 0.5 + 1.0;
        }
        std::hint::black_box(&self.slots);
        start.elapsed().as_secs_f64()
    }
}
