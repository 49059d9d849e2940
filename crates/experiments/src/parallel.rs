//! Parallel map over independent simulation runs, with chunked claiming.
//!
//! Experiments replicate runs over seeds and sweep configurations; every
//! run is an independent, internally-sequential, deterministic simulation
//! — the embarrassingly-parallel shape. Results come back in input order
//! regardless of completion order, so parallelism never perturbs output
//! files.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item on up to `threads` worker threads and return
/// the results in input order. `threads == 1` (or a single-item input)
/// runs inline with zero overhead.
///
/// # Panics
/// Re-raises the first worker panic on the calling thread with its
/// original payload (via [`std::panic::resume_unwind`]), so a
/// `panic!("boom")` inside `f` surfaces as "boom" to the caller.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Workers claim whole chunks through one shared atomic cursor and then
    // work through the chunk's own disjoint `&mut` slices — one
    // synchronisation per chunk instead of two mutex round-trips per item,
    // and results land in input order by construction. Chunks are a
    // fraction of `n / threads` so stragglers can still steal work from a
    // slow neighbor.
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = (n / (threads * 4)).max(1);
    type Task<'a, T, R> = Mutex<Option<(&'a mut [Option<T>], &'a mut [Option<R>])>>;
    let tasks: Vec<Task<'_, T, R>> = items
        .chunks_mut(chunk)
        .zip(results.chunks_mut(chunk))
        .map(|pair| Mutex::new(Some(pair)))
        .collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let (inp, out) = task.lock().unwrap().take().expect("chunk claimed twice");
                    for (slot, res) in inp.iter_mut().zip(out.iter_mut()) {
                        let item = slot.take().expect("item taken twice");
                        *res = Some(f(item));
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    drop(tasks);
    results
        .into_iter()
        .map(|r| r.expect("missing result"))
        .collect()
}

/// The machine's available parallelism (≥ 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), 4, |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_inline() {
        let out = par_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(vec![5], 64, |x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn non_clone_items_move_through() {
        // Items only need Send, not Clone.
        struct NoClone(String);
        let items = vec![NoClone("a".into()), NoClone("b".into())];
        let out = par_map(items, 2, |x| x.0);
        assert_eq!(out, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_propagates() {
        let _ = par_map(vec![0, 1, 2, 3], 2, |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn threads_helper_positive() {
        assert!(default_threads() >= 1);
    }
}
