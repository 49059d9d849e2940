//! A tiny persistent worker pool for partitioned rounds.
//!
//! The round loop dispatches a handful of short parallel phases per round
//! (probe delivery, send, deliver, detector scan). Spawning OS threads per phase —
//! or even per round via `thread::scope` — costs syscalls and heap
//! allocations in the steady state, which the simulator's zero-alloc
//! budget forbids. This pool spawns its workers once, parks them on a
//! condvar between phases, and hands each phase over as a type-erased
//! `(data, fn)` pair, so the per-phase dispatch is two mutex acquisitions
//! and zero allocations.
//!
//! Work distribution is an atomic claim counter over `0..njobs`: workers
//! (and the calling thread, which participates) grab the next unclaimed
//! job index until the range is exhausted. The caller returns only after
//! every worker has finished the phase, so the closure's borrows stay
//! valid and phases are strictly barrier-separated.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One dispatched phase: a pointer to the caller's closure plus a
/// monomorphized trampoline that invokes it for a job index.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` points at a `F: Fn(usize) + Sync` that outlives the
// phase (the dispatching thread blocks until all workers are done), and
// `Sync` makes shared cross-thread calls through it sound.
unsafe impl Send for Job {}

struct Ctrl {
    /// Phase generation counter; bumping it wakes the workers.
    epoch: u64,
    /// Jobs in the current phase.
    njobs: usize,
    /// The current phase's trampoline, if one is active.
    job: Option<Job>,
    /// Workers that have finished the current phase.
    done: usize,
    /// A worker's closure panicked during this phase.
    poisoned: bool,
    /// Tells workers to exit.
    shutdown: bool,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    /// Wakes workers for a new phase (or shutdown).
    work_cv: Condvar,
    /// Wakes the dispatcher when the last worker finishes a phase.
    done_cv: Condvar,
    /// Claim counter over `0..njobs` for the current phase.
    next: AtomicUsize,
}

/// Persistent fork-join pool; see the module docs.
///
/// Public (re-exported as `gr_netsim::WorkerPool`) so sibling round
/// drivers — the multi-tenant batch executor in `gr-batch` — can reuse
/// the same zero-allocation phase dispatch instead of growing a second
/// pool implementation. The contract is unchanged: `run` is a strict
/// barrier, and results must never depend on which participant claims
/// which job index.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `threads` total participants: `threads - 1` spawned
    /// workers plus the dispatching thread itself.
    pub fn new(threads: usize) -> WorkerPool {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                epoch: 0,
                njobs: 0,
                job: None,
                done: 0,
                poisoned: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Run `f(0) .. f(njobs - 1)`, distributing job indices over the pool
    /// plus the calling thread. Returns when every index has been
    /// executed to completion. Allocation-free after construction.
    ///
    /// # Panics
    /// Propagates (as a fresh panic) if `f` panicked on any thread.
    pub fn run<F: Fn(usize) + Sync>(&self, njobs: usize, f: F) {
        if self.handles.is_empty() || njobs <= 1 {
            for idx in 0..njobs {
                f(idx);
            }
            return;
        }
        unsafe fn trampoline<F: Fn(usize)>(data: *const (), idx: usize) {
            // SAFETY: `data` is the `&f` of the matching `run` call, which
            // outlives the phase per the dispatch/barrier protocol.
            unsafe { (*(data as *const F))(idx) }
        }
        let job = Job {
            data: (&raw const f).cast(),
            call: trampoline::<F>,
        };
        {
            let mut c = self.shared.ctrl.lock().unwrap();
            self.shared.next.store(0, Ordering::SeqCst);
            c.job = Some(job);
            c.njobs = njobs;
            c.done = 0;
            c.poisoned = false;
            c.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // The dispatcher claims jobs too.
        let caller_poisoned = catch_unwind(AssertUnwindSafe(|| loop {
            let idx = self.shared.next.fetch_add(1, Ordering::SeqCst);
            if idx >= njobs {
                break;
            }
            f(idx);
        }))
        .is_err();
        // Barrier: wait until every worker has retired the phase, so `f`'s
        // borrows are release-able and the next phase sees all writes.
        let mut c = self.shared.ctrl.lock().unwrap();
        while c.done < self.handles.len() {
            c = self.shared.done_cv.wait(c).unwrap();
        }
        c.job = None;
        let poisoned = c.poisoned || caller_poisoned;
        drop(c);
        if poisoned {
            panic!("worker pool job panicked");
        }
    }

    /// Run `phase(target, 0) .. phase(target, njobs - 1)` like
    /// [`run`](Self::run), handing every job the same `&mut T`. This is
    /// how a round engine splits one phase of its state across the pool
    /// (one job per partition or tenant chunk) without a lock.
    ///
    /// # Safety
    ///
    /// The jobs alias `target` mutably, so the caller must guarantee they
    /// are disjoint: job `k` writes only state that no other job of the
    /// same call reads or writes (state owned by partition or chunk `k`,
    /// and arenas indexed by `k`), and reads shared state only if no job
    /// writes it. The barrier in `run` retires every job before this
    /// returns, so the aliasing never overlaps the caller's own use of
    /// `target`.
    pub unsafe fn run_split<T: ?Sized>(
        &self,
        njobs: usize,
        target: &mut T,
        phase: impl Fn(&mut T, usize) + Sync,
    ) {
        struct Shared<T: ?Sized>(*mut T);
        // SAFETY: sharing the pointer is sound under the caller's
        // disjointness contract above.
        unsafe impl<T: ?Sized> Sync for Shared<T> {}
        let ptr = Shared(target as *mut T);
        let ptr = &ptr;
        self.run(njobs, |job| {
            // SAFETY: see the function's safety contract.
            phase(unsafe { &mut *ptr.0 }, job)
        });
    }

    /// Total participating threads (workers + the caller).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.handles.len() + 1
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = self.shared.ctrl.lock().unwrap();
            c.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, njobs) = {
            let mut c = shared.ctrl.lock().unwrap();
            while c.epoch == seen_epoch && !c.shutdown {
                c = shared.work_cv.wait(c).unwrap();
            }
            if c.shutdown {
                return;
            }
            seen_epoch = c.epoch;
            (c.job.expect("epoch bumped without a job"), c.njobs)
        };
        let panicked = catch_unwind(AssertUnwindSafe(|| loop {
            let idx = shared.next.fetch_add(1, Ordering::SeqCst);
            if idx >= njobs {
                break;
            }
            // SAFETY: see `Job`.
            unsafe { (job.call)(job.data, idx) };
        }))
        .is_err();
        let mut c = shared.ctrl.lock().unwrap();
        c.done += 1;
        if panicked {
            c.poisoned = true;
        }
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_job_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(8, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn propagates_worker_panics() {
        let pool = WorkerPool::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // Pool must still be usable after a poisoned phase.
        let count = AtomicUsize::new(0);
        pool.run(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }
}
