//! The worker pool behind every fork: nesting, concurrent callers, panic
//! recovery, and growth under `set_max_threads`.
//!
//! This binary owns its process-wide pool. Every test takes the file-wide
//! lock and sets the thread budget it needs, so no test sees another's
//! workers busy or its budget changed underneath it.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The distinct threads that ran the items of one `par_map` over `n`
/// items. Each item waits (up to a second) until all `n` have started, so a
/// fork that claimed `n − 1` workers shows `n` threads: a worker that
/// finished its part early cannot take over a part meant for another.
fn threads_used(n: usize) -> HashSet<ThreadId> {
    let started = (Mutex::new(0usize), Condvar::new());
    let items: Vec<usize> = (0..n).collect();
    qdp_par::par_map(&items, |_| {
        let (count, all_in) = &started;
        let mut count = count.lock().unwrap();
        *count += 1;
        all_in.notify_all();
        let deadline = Instant::now() + Duration::from_secs(1);
        while *count < n && Instant::now() < deadline {
            count = all_in
                .wait_timeout(count, Duration::from_millis(10))
                .unwrap()
                .0;
        }
        thread::current().id()
    })
    .into_iter()
    .collect()
}

#[test]
fn par_map_nested_in_a_worker_item_runs_inline_and_completes() {
    let _l = serialized();
    qdp_par::set_max_threads(2);
    let outer: Vec<usize> = (0..2).collect();
    let inner: Vec<usize> = (0..64).collect();
    let runs = qdp_par::par_map(&outer, |&i| {
        let here = thread::current().id();
        let threads: HashSet<ThreadId> = qdp_par::par_map(&inner, |_| thread::current().id())
            .into_iter()
            .collect();
        let sum: usize = qdp_par::par_map(&inner, |&x| i * 64 + x).into_iter().sum();
        (here, threads, sum)
    });
    qdp_par::set_max_threads(0);
    // Item 1 ran on the worker; its nested map never left that thread.
    let (worker, nested, _) = &runs[1];
    assert_ne!(
        *worker,
        thread::current().id(),
        "item 1 must run on a worker"
    );
    assert_eq!(
        nested,
        &HashSet::from([*worker]),
        "nested map inside a worker must run inline"
    );
    let total: usize = runs.iter().map(|(_, _, s)| s).sum();
    assert_eq!(total, (0..128).sum::<usize>());
}

#[test]
fn concurrent_callers_each_get_ordered_correct_results() {
    let _l = serialized();
    qdp_par::set_max_threads(4);
    thread::scope(|s| {
        for caller in 0..8usize {
            s.spawn(move || {
                for round in 0..25usize {
                    let items: Vec<usize> = (0..97).collect();
                    let out = qdp_par::par_map(&items, |&x| x * 1000 + caller * 100 + round);
                    let want: Vec<usize> = items
                        .iter()
                        .map(|&x| x * 1000 + caller * 100 + round)
                        .collect();
                    assert_eq!(out, want, "caller {caller} round {round}");

                    let mut data = vec![0usize; 4096];
                    qdp_par::par_chunks_mut(&mut data, 8, |offset, chunk| {
                        for (i, slot) in chunk.iter_mut().enumerate() {
                            *slot = offset + i + caller;
                        }
                    });
                    assert!(data.iter().enumerate().all(|(i, &v)| v == i + caller));
                }
            });
        }
    });
    qdp_par::set_max_threads(0);
}

#[test]
fn pool_survives_a_panicking_tile_and_still_fans_out() {
    let _l = serialized();
    qdp_par::set_max_threads(2);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let items: Vec<usize> = (0..64).collect();
    for _ in 0..4 {
        let err = qdp_par::try_par_map_retry(
            &items,
            |&x| {
                assert!(x != 50, "tile {x} exploded");
                x
            },
            0,
        )
        .unwrap_err();
        assert_eq!(err.index, 50);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut data = vec![0u8; 1024];
            qdp_par::par_chunks_mut(&mut data, 1, |offset, _| {
                assert!(offset == 0, "chunk at {offset} exploded");
            });
        }));
        assert!(caught.is_err());
    }
    std::panic::set_hook(hook);
    // The worker that ran the panicking half is still parked and claimable.
    assert_eq!(threads_used(2).len(), 2, "the next call must still fan out");
    qdp_par::set_max_threads(0);
}

#[test]
fn set_max_threads_grows_the_pool_and_zero_restores_the_default() {
    let _l = serialized();
    // `QDP_PAR_THREADS` (the CI matrix) takes precedence over hardware
    // detection, so the restored default must honour it too.
    let default = std::env::var("QDP_PAR_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));

    // Eight threads on any host, a 2-core one included: eight one-item
    // parts, each on its own thread.
    qdp_par::set_max_threads(8);
    assert_eq!(qdp_par::max_threads(), 8);
    assert_eq!(threads_used(8).len(), 8);

    qdp_par::set_max_threads(0);
    assert_eq!(qdp_par::max_threads(), default);
    // The surplus workers stay parked: a fork uses at most the default.
    assert_eq!(threads_used(default).len(), default);
    let items: Vec<usize> = (0..64).collect();
    let ran_on: HashSet<ThreadId> = qdp_par::par_map(&items, |_| thread::current().id())
        .into_iter()
        .collect();
    assert!(ran_on.len() <= default);
}
