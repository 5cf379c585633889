//! A scoped parallel `for` over item indices: the runner's two passes and
//! the `fuzz` driver's cases run on it.
//!
//! Workers claim items in index order from one atomic counter, so there is
//! no queue and nothing to steal.  Items write their results into slots the
//! caller pre-allocated and reads back in its own fixed order, which makes
//! outputs independent of the interleaving.  With one thread the items run
//! on the caller's thread in index order: the reference schedule the
//! `--jobs N` equivalence tests compare against, with every span on one
//! thread.
//!
//! A panicking item (e.g. a golden-result verification failure) cancels the
//! loop: no new item starts, and the first panic is re-raised on the
//! caller's thread with its own payload, so a miscomputing kernel can never
//! be reported as a result.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads for a `--jobs` value: `0` means one per available core.
pub fn worker_count(jobs: usize) -> usize {
    if jobs != 0 {
        return jobs;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(i)` for every `i` in `0..n` on up to `threads` scoped threads.
pub fn par_for(n: usize, threads: usize, f: impl Fn(usize) + Sync) {
    let threads = threads.min(n);
    if threads <= 1 {
        (0..n).for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    // Every later claim now lands past the end.
                    next.store(n, Ordering::SeqCst);
                    let mut first = panic.lock().expect("no panic while held");
                    first.get_or_insert(payload);
                    return;
                }
            });
        }
    });
    if let Some(payload) = panic.into_inner().expect("no panic while held") {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn runs_every_job_once() {
        for threads in [1, 2, 8] {
            let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            par_for(runs.len(), threads, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn one_thread_runs_in_index_order_on_the_caller() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        par_for(5, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_items_and_more_threads_than_items() {
        let runs = AtomicUsize::new(0);
        par_for(3, 8, |_| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        par_for(0, 8, |_| panic!("no item to run"));
        par_for(0, 1, |_| panic!("no item to run"));
    }

    /// The indices started before `par_for` re-raised item `panicking`'s
    /// panic, and the re-raised message.
    fn started_until_panic(threads: usize, panicking: usize) -> (Vec<usize>, String) {
        let started = Mutex::new(Vec::new());
        let exploded = AtomicBool::new(false);
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_for(64, threads, |i| {
                started.lock().unwrap().push(i);
                if i == panicking {
                    exploded.store(true, Ordering::SeqCst);
                    panic!("item {i} exploded");
                }
                // Hold every other worker until well after the panic, so
                // each could claim another item only once it is recorded.
                while threads > 1 && !exploded.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if threads > 1 {
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        let mut started = started.into_inner().unwrap();
        started.sort_unstable();
        (started, msg)
    }

    /// The first panic's payload is re-raised, and no item starts after it.
    #[test]
    fn panic_propagates() {
        let (started, msg) = started_until_panic(1, 3);
        assert_eq!(msg, "item 3 exploded");
        assert_eq!(started, [0, 1, 2, 3], "one thread stops at the panic");

        let (started, msg) = started_until_panic(4, 0);
        assert_eq!(msg, "item 0 exploded");
        assert!(started.contains(&0));
        assert!(
            started.len() <= 4,
            "items started after the panic: {started:?}"
        );
    }
}
