//! # qdp-par
//!
//! Minimal deterministic fork-join parallelism on a std-only pool of parked
//! worker threads.
//!
//! The build environment for this workspace is fully offline, so `rayon` is
//! not available; this crate provides the small subset the simulator and the
//! gradient engine need:
//!
//! * [`par_map`] — order-preserving parallel map over a slice,
//! * [`par_chunks_mut`] — parallel iteration over disjoint contiguous chunks
//!   of a mutable slice (each callback also receives the chunk's offset),
//! * [`max_threads`] / [`set_max_threads`] — the global worker budget,
//! * [`FORK_MIN_WORK`] / [`fork_pays`] — the least work worth a fork.
//!
//! **Determinism.** Results are always assembled in input order and any
//! reductions are performed by the caller over that ordered output, so a
//! computation produces bit-identical results regardless of how many threads
//! actually ran — including the degenerate single-thread case. The test suite
//! of `qdp-ad` relies on this.
//!
//! **The pool.** Workers are spawned lazily, on the first fork that wants
//! them, and the pool grows to at most `max_threads() − 1` of them. An idle
//! worker parks on a [`Condvar`] and never spins, so a quiet pool costs no
//! CPU. A fork try-claims idle workers, hands each one part, runs the first
//! part on the calling thread, and waits for the rest; when no worker is
//! free it runs everything inline. Handing a part to a parked worker costs
//! a wake-up, not a thread spawn.
//!
//! **Nesting.** A call made from inside a worker always runs inline. Nested
//! parallelism (a parallel gradient whose per-parameter work splits gate
//! application) therefore never oversubscribes the machine and never waits
//! on the pool it runs in. Busy workers count against the budget, so the
//! pool never runs more than `max_threads() − 1` parts at once, however many
//! callers fork concurrently.
//!
//! **Environment override.** The `QDP_PAR_THREADS` environment variable,
//! when set to a positive integer, fixes the detected parallelism for the
//! whole process (it is read once, on first use). CI uses it to run the
//! entire test suite under forced 1-, 2- and 8-thread configurations so that
//! any result depending on the thread count fails loudly. A runtime
//! [`set_max_threads`] call still takes precedence; `set_max_threads(0)`
//! falls back to the environment value (or hardware detection when the
//! variable is unset or invalid).
//!
//! **Panic isolation.** Every item of a parallel map runs under
//! [`std::panic::catch_unwind`], so a panicking tile never tears down the
//! process or a worker by itself. [`try_par_map`] surfaces the failure as a
//! typed [`TileError`] naming the lowest failing item index (deterministic
//! under any thread interleaving); [`try_par_map_retry`] additionally re-runs
//! failed items — valid because tiles are pure and order-invariant by
//! contract, so a retry is bit-identical to a first-try success. [`par_map`]
//! keeps its infallible signature by re-raising the original panic message
//! on the calling thread, which also makes panic propagation identical
//! between the sequential fallback and the threaded path.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The least work, in amplitude updates, that pays for one fork.
///
/// Measured on a 2-vCPU KVM guest (Intel Xeon, AVX-512): handing a part
/// to a parked worker costs ~5 µs of process CPU, and the worker starts
/// ~30 µs after the handoff (a spawned thread cost ~20–35 µs CPU and
/// started as late). The gate kernels run at 0.3–0.8 ns per amplitude
/// update, 0.7–0.8 for dense and diagonal gates on DRAM-resident states.
/// At `2¹⁸` updates each half of a split runs ~100 µs — several worker
/// start-ups — and the handoff is a few percent of the work: forked
/// kernels there cost 0–5% more CPU than serial ones, against 10–25% at
/// `2¹⁷`. Below this, every split runs inline.
pub const FORK_MIN_WORK: usize = 1 << 18;

/// Optional override of the detected parallelism (0 = auto-detect).
static MAX_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Cached effective parallelism — the `QDP_PAR_THREADS` environment
/// variable when set to a positive integer, hardware detection otherwise.
/// Cached because `available_parallelism()` is a syscall and this is
/// queried on every kernel invocation.
static DETECTED: OnceLock<usize> = OnceLock::new();

fn detected_parallelism() -> usize {
    let over = MAX_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    *DETECTED.get_or_init(|| {
        std::env::var("QDP_PAR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The number of threads a top-level parallel call may use (including the
/// calling thread itself).
pub fn max_threads() -> usize {
    detected_parallelism()
}

/// Overrides the detected hardware parallelism (useful in tests; pass 1 to
/// force sequential execution globally, 0 to restore auto-detection).
///
/// The pool follows at the next fork: it grows when the budget rises, and
/// workers beyond a lowered budget stay parked and are not claimed.
pub fn set_max_threads(n: usize) {
    MAX_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Whether `work` amplitude updates are worth splitting across threads:
/// at least [`FORK_MIN_WORK`], with more than one thread allowed.
pub fn fork_pays(work: usize) -> bool {
    work >= FORK_MIN_WORK && max_threads() > 1
}

/// A part of a fork, erased to `'static` while it sits in the pool queue.
/// It returns the latch its fork waits on; the worker counts it down.
type Job = Box<dyn FnOnce() -> Arc<Latch> + Send>;

/// The pool's bookkeeping, under one lock.
struct PoolState {
    /// Worker threads alive.
    spawned: usize,
    /// Workers parked (or about to park) and not claimed by a fork.
    idle: usize,
    /// Parts handed to claimed workers and not yet picked up.
    jobs: VecDeque<Job>,
}

static POOL: Mutex<PoolState> = Mutex::new(PoolState {
    spawned: 0,
    idle: 0,
    jobs: VecDeque::new(),
});
/// Parked workers wait here for jobs.
static WAKE: Condvar = Condvar::new();

thread_local! {
    /// Set on pool workers: their nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Locks `m`, ignoring poison: every critical section in this crate leaves
/// its data consistent, and user code never runs under these locks.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claims up to `want` idle workers, spawning new ones while the pool is
/// below `max_threads() − 1`. Returns how many were claimed (possibly 0).
/// Busy workers count against the budget, so concurrent top-level callers
/// share it instead of each taking a full set.
fn claim(want: usize) -> usize {
    if want == 0 || IN_WORKER.get() {
        return 0;
    }
    let cap = max_threads() - 1;
    let mut pool = lock(&POOL);
    let busy = pool.spawned - pool.idle;
    let allowed = cap.saturating_sub(busy).min(want);
    while pool.idle < allowed && pool.spawned < cap {
        // Detached on purpose: a worker never returns, and every job it
        // runs catches its own panics, so there is nothing to join.
        let name = format!("qdp-par-{}", pool.spawned);
        if std::thread::Builder::new()
            .name(name)
            .spawn(worker)
            .is_err()
        {
            break;
        }
        pool.spawned += 1;
        pool.idle += 1;
    }
    let granted = allowed.min(pool.idle);
    pool.idle -= granted;
    granted
}

/// A worker's life: take a job, run it, report idle, park.
fn worker() {
    IN_WORKER.set(true);
    let mut pool = lock(&POOL);
    loop {
        match pool.jobs.pop_front() {
            Some(job) => {
                drop(pool);
                let latch = job();
                pool = lock(&POOL);
                // Idle before the fork sees its part done, so the caller's
                // next fork can claim this worker straight away.
                pool.idle += 1;
                latch.count_down();
            }
            None => pool = WAKE.wait(pool).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Counts a fork's outstanding parts down to zero.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn count_down(&self) {
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Blocks until every part handed to the pool has finished — on drop, so
/// the fork's frame outlives its jobs even if the caller unwinds.
struct Join(Arc<Latch>);

impl Drop for Join {
    fn drop(&mut self) {
        let mut pending = lock(&self.0.pending);
        while *pending > 0 {
            pending = self
                .0
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The shared fan-out core: runs `f` on every part — the first on the
/// calling thread, the others on `claimed` workers (at least
/// `parts.len() − 1` of them; any surplus returns to the pool) — and
/// returns each part's outcome in part order. Every part runs under
/// `catch_unwind`, so a panic never kills a worker or strands the join.
fn fork_join<P, Q, F>(claimed: usize, parts: Vec<P>, f: &F) -> Vec<std::thread::Result<Q>>
where
    P: Send,
    Q: Send,
    F: Fn(P) -> Q + Sync,
{
    debug_assert!(!parts.is_empty() && parts.len() - 1 <= claimed);
    let mut parts = parts.into_iter();
    let first = parts.next();
    let slots: Vec<Mutex<Option<std::thread::Result<Q>>>> =
        parts.as_slice().iter().map(|_| Mutex::new(None)).collect();
    let latch = Arc::new(Latch {
        pending: Mutex::new(0),
        done: Condvar::new(),
    });
    let join = Join(Arc::clone(&latch));
    let jobs: Vec<Job> = parts
        .zip(&slots)
        .map(|(part, slot)| {
            let latch = Arc::clone(&latch);
            let job: Box<dyn FnOnce() -> Arc<Latch> + Send + '_> = Box::new(move || {
                *lock(slot) = Some(catch_unwind(AssertUnwindSafe(|| f(part))));
                latch
            });
            // SAFETY: the job borrows `f`, its part and its slot from this
            // frame. `join` is dropped — and blocks until the latch reaches
            // zero — before this frame ends, on return and on unwind alike,
            // and the latch is counted down only after the job has returned
            // and made its last access to borrowed data. So no job outlives
            // what it borrows. Jobs that never reach the queue are dropped
            // here without running.
            unsafe { std::mem::transmute::<Box<dyn FnOnce() -> Arc<Latch> + Send + '_>, Job>(job) }
        })
        .collect();
    let handed = jobs.len();
    *lock(&latch.pending) = handed;
    {
        let mut pool = lock(&POOL);
        pool.idle += claimed - handed;
        pool.jobs.extend(jobs);
    }
    for _ in 0..handed {
        WAKE.notify_one();
    }
    let own = first.map(|part| catch_unwind(AssertUnwindSafe(|| f(part))));
    drop(join);
    own.into_iter()
        .chain(slots.into_iter().map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| unreachable!("the join waits for every part"))
        }))
        .collect()
}

/// Re-raises the lowest-index part failure of a chunked fork, if any, with
/// its original message.
fn rethrow_first(results: Vec<std::thread::Result<()>>) {
    if let Some(Err(payload)) = results.into_iter().find(Result::is_err) {
        panic!("{}", panic_message(payload));
    }
}

/// A tile (one item of a parallel map) that panicked instead of returning.
///
/// `index` is the item's position in the input slice — by the determinism
/// contract it identifies the same work under any thread count — and
/// `message` carries the original panic payload when it was a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileError {
    /// Index of the failing item in the input slice. When several tiles
    /// fail, the lowest index is reported (deterministic under any
    /// interleaving).
    pub index: usize,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker tile {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TileError {}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Order-preserving map with every item call isolated under
/// `catch_unwind`. A part can therefore only fail outside the guarded
/// calls (e.g. allocator failure); such a failure is re-raised verbatim.
/// With `fork` false every item runs on the calling thread.
fn map_isolated<T, R, F>(items: &[T], f: &F, fork: bool) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |x: &T| catch_unwind(AssertUnwindSafe(|| f(x))).map_err(panic_message);
    let claimed = if fork { claim(items.len().saturating_sub(1)) } else { 0 };
    if claimed == 0 {
        return items.iter().map(call).collect();
    }
    let chunk = items.len().div_ceil(claimed + 1);
    let parts: Vec<&[T]> = items.chunks(chunk).collect();
    let mut out = Vec::with_capacity(items.len());
    for part in fork_join(claimed, parts, &|part: &[T]| {
        part.iter().map(call).collect::<Vec<_>>()
    }) {
        out.extend(part.unwrap_or_else(|p| resume_unwind(p)));
    }
    out
}

/// Flattens per-item results into the first (lowest-index) failure, if any.
fn collect_tiles<R>(results: Vec<Result<R, String>>) -> Result<Vec<R>, TileError> {
    let mut out = Vec::with_capacity(results.len());
    let mut first_err: Option<TileError> = None;
    for (index, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => out.push(v),
            Err(message) => {
                if first_err.is_none() {
                    first_err = Some(TileError { index, message });
                }
            }
        }
    }
    match first_err {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Splits `items` into contiguous runs, maps each run on its own pool
/// worker (the first on the calling thread), and concatenates the per-run
/// outputs in order. Falls back to a plain sequential map when `items` is
/// small or no worker is free.
///
/// # Panics
///
/// A panicking item re-raises its original panic message on the calling
/// thread after every other item has completed — identical behaviour to
/// the sequential fallback modulo the completion of later items. Use
/// [`try_par_map`] or [`try_par_map_retry`] to receive a [`TileError`]
/// instead.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match collect_tiles(map_isolated(items, &f, true)) {
        Ok(out) => out,
        Err(e) => panic!("{}", e.message),
    }
}

/// Fallible order-preserving parallel map: like [`par_map`], but a
/// panicking item surfaces as `Err(TileError)` — naming the lowest failing
/// item index — instead of tearing down the calling thread. All items run
/// to completion before the error is reported, so every claimed worker is
/// back in the pool on return.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, TileError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    collect_tiles(map_isolated(items, &f, true))
}

/// [`try_par_map`] with bounded retries: items that panicked are re-run
/// sequentially on the calling thread, in index order, up to `max_retries`
/// additional attempts each.
///
/// Retrying is sound because map items are pure functions of their input
/// by the crate's determinism contract — a successful retry returns the
/// same bits a first-try success would have, so transient faults (a
/// poisoned scratch buffer, an injected test fault) heal without
/// observable effect. Items that still fail after the budget surface as
/// the lowest-index [`TileError`].
pub fn try_par_map_retry<T, R, F>(items: &[T], f: F, max_retries: usize) -> Result<Vec<R>, TileError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_retry(items, &f, max_retries, true)
}

/// [`try_par_map_retry`] over items that together cost `work` amplitude
/// updates: the items fan out only when that work pays for a fork
/// ([`fork_pays`]), and otherwise all run on the calling thread, with the
/// same isolation, retries and errors.
pub fn try_par_map_retry_work<T, R, F>(
    work: usize,
    items: &[T],
    f: F,
    max_retries: usize,
) -> Result<Vec<R>, TileError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_retry(items, &f, max_retries, fork_pays(work))
}

fn map_retry<T, R, F>(items: &[T], f: &F, max_retries: usize, fork: bool) -> Result<Vec<R>, TileError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = map_isolated(items, f, fork);
    for _ in 0..max_retries {
        if results.iter().all(Result::is_ok) {
            break;
        }
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_err() {
                *slot = catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(panic_message);
            }
        }
    }
    collect_tiles(results)
}

/// The chunk length of an `n`-element split among `1 + claimed` threads,
/// rounded up to a multiple of `align`.
fn chunk_len(n: usize, claimed: usize, align: usize) -> usize {
    n.div_ceil(claimed + 1).div_ceil(align) * align
}

/// Parallel iteration over disjoint contiguous chunks of `data`.
///
/// `f(offset, chunk)` is invoked once per chunk, where `offset` is the index
/// of the chunk's first element in `data`. Chunk boundaries are aligned to
/// multiples of `align` elements (pass 1 for no constraint) so kernels can
/// guarantee that index orbits never cross a boundary. Runs sequentially when
/// the slice is short or no worker is free.
///
/// # Panics
///
/// A panicking chunk re-raises the lowest-offset failure's message after
/// every chunk has finished.
pub fn par_chunks_mut<T, F>(data: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let align = align.max(1);
    let claimed = claim((data.len() / align).saturating_sub(1));
    if claimed == 0 {
        f(0, data);
        return;
    }
    let chunk = chunk_len(data.len(), claimed, align);
    let parts: Vec<(usize, &mut [T])> = data
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, c)| (i * chunk, c))
        .collect();
    rethrow_first(fork_join(claimed, parts, &|(offset, c)| f(offset, c)));
}

/// Parallel iteration over two equal-length mutable slices split at the
/// same aligned points: `f(offset, a_chunk, b_chunk)` sees corresponding
/// chunks of both slices, with `offset` the index of the chunks' first
/// element. The split-plane kernels use this to walk the `re` and `im`
/// planes of a state in lockstep; `align` keeps index orbits inside one
/// chunk exactly as in [`par_chunks_mut`].
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn par_chunks2_mut<T, F>(a: &mut [T], b: &mut [T], align: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T]) + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped slices must have equal lengths");
    let align = align.max(1);
    let claimed = claim((a.len() / align).saturating_sub(1));
    if claimed == 0 {
        f(0, a, b);
        return;
    }
    let chunk = chunk_len(a.len(), claimed, align);
    let parts: Vec<(usize, &mut [T], &mut [T])> = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .enumerate()
        .map(|(i, (ca, cb))| (i * chunk, ca, cb))
        .collect();
    rethrow_first(fork_join(claimed, parts, &|(offset, ca, cb)| {
        f(offset, ca, cb)
    }));
}

/// Parallel iteration over four equal-length mutable slices split at the
/// same points: `f(a_chunk, b_chunk, c_chunk, d_chunk)` sees corresponding
/// chunks. The split-plane single-qubit kernel uses this when the target is
/// the top bit, pairing the contiguous lo/hi orbit halves of the `re` plane
/// with the matching halves of the `im` plane.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn par_zip4_chunks_mut<T, F>(a: &mut [T], b: &mut [T], c: &mut [T], d: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut [T], &mut [T], &mut [T], &mut [T]) + Sync,
{
    let n = a.len();
    assert!(
        b.len() == n && c.len() == n && d.len() == n,
        "zipped slices must have equal lengths"
    );
    let claimed = claim(n.saturating_sub(1));
    if claimed == 0 {
        f(a, b, c, d);
        return;
    }
    let chunk = chunk_len(n, claimed, 1);
    let parts: Vec<_> = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .zip(c.chunks_mut(chunk))
        .zip(d.chunks_mut(chunk))
        .map(|(((ca, cb), cc), cd)| (ca, cb, cc, cd))
        .collect();
    rethrow_first(fork_join(claimed, parts, &|(ca, cb, cc, cd)| {
        f(ca, cb, cc, cd)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[usize], |&x| x), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_mut_covers_every_element_once() {
        let mut data = vec![0u32; 4096];
        par_chunks_mut(&mut data, 8, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot += (offset + i) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_respects_alignment() {
        let mut data = vec![0u8; 1000];
        par_chunks_mut(&mut data, 64, |offset, chunk| {
            assert_eq!(offset % 64, 0, "chunk offset must be aligned");
            chunk.fill(1);
        });
        assert!(data.iter().all(|&b| b == 1));
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let outer: Vec<usize> = (0..16).collect();
        let sums = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..64).map(|j| i * 64 + j).collect();
            par_map(&inner, |&x| x).into_iter().sum::<usize>()
        });
        let total: usize = sums.iter().sum();
        assert_eq!(total, (0..1024).sum::<usize>());
    }

    #[test]
    fn par_chunks2_mut_pairs_aligned_chunks() {
        let mut a: Vec<usize> = (0..4096).collect();
        let mut b: Vec<usize> = (0..4096).map(|x| x + 7).collect();
        par_chunks2_mut(&mut a, &mut b, 16, |offset, ca, cb| {
            assert_eq!(offset % 16, 0, "chunk offset must be aligned");
            assert_eq!(ca.len(), cb.len());
            for (i, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                assert_eq!(*y, *x + 7, "planes desynced at {}", offset + i);
                *x += offset;
                *y += offset;
            }
        });
        for i in 0..4096 {
            // offset is the largest multiple of the chunk size ≤ i only in
            // the sequential case; either way both slices saw the same one.
            assert_eq!(b[i], a[i] + 7);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn par_chunks2_mut_rejects_length_mismatch() {
        let mut a = vec![0u8; 8];
        let mut b = vec![0u8; 9];
        par_chunks2_mut(&mut a, &mut b, 1, |_, _, _| {});
    }

    #[test]
    fn par_zip4_chunks_mut_splits_all_four_in_lockstep() {
        let n = 5000usize;
        let mut a: Vec<usize> = (0..n).collect();
        let mut b: Vec<usize> = (0..n).map(|x| x * 2).collect();
        let mut c: Vec<usize> = (0..n).map(|x| x * 3).collect();
        let mut d: Vec<usize> = (0..n).map(|x| x * 4).collect();
        par_zip4_chunks_mut(&mut a, &mut b, &mut c, &mut d, |ca, cb, cc, cd| {
            for i in 0..ca.len() {
                assert_eq!(cb[i], ca[i] * 2);
                assert_eq!(cc[i], ca[i] * 3);
                assert_eq!(cd[i], ca[i] * 4);
                cd[i] += cb[i] + cc[i];
            }
        });
        for (i, &v) in d.iter().enumerate() {
            assert_eq!(v, i * 9);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn par_zip4_chunks_mut_rejects_length_mismatch() {
        let mut a = vec![0u8; 4];
        let mut b = vec![0u8; 4];
        let mut c = vec![0u8; 3];
        let mut d = vec![0u8; 4];
        par_zip4_chunks_mut(&mut a, &mut b, &mut c, &mut d, |_, _, _, _| {});
    }

    #[test]
    fn deterministic_across_repeats() {
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let a: f64 = par_map(&items, |&x| x * x).iter().sum();
        let b: f64 = par_map(&items, |&x| x * x).iter().sum();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Panic-isolation tests inject real panics; silence the default hook's
    /// stderr spew for the duration of one closure (hook is global, so these
    /// tests serialize on a lock).
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn try_par_map_matches_par_map_on_healthy_input() {
        let items: Vec<f64> = (0..4096).map(|i| (i as f64).cos()).collect();
        let ok = try_par_map(&items, |&x| x * x).unwrap();
        let plain = par_map(&items, |&x| x * x);
        assert_eq!(ok.len(), plain.len());
        for (a, b) in ok.iter().zip(plain.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn try_par_map_reports_lowest_failing_index() {
        with_quiet_panics(|| {
            let items: Vec<usize> = (0..64).collect();
            let err = try_par_map(&items, |&x| {
                assert!(x != 13 && x != 40, "tile {x} exploded");
                x * 2
            })
            .unwrap_err();
            assert_eq!(err.index, 13);
            assert!(err.message.contains("tile 13 exploded"), "{}", err.message);
        });
    }

    #[test]
    fn try_par_map_retry_heals_transient_faults() {
        with_quiet_panics(|| {
            // Item 7 panics on its first attempt only; the bounded retry
            // must heal it and return the same bits as a clean run.
            let fired = AtomicUsize::new(0);
            let items: Vec<usize> = (0..32).collect();
            let out = try_par_map_retry(
                &items,
                |&x| {
                    if x == 7 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient");
                    }
                    x + 1
                },
                2,
            )
            .unwrap();
            assert_eq!(out, (1..=32).collect::<Vec<_>>());
            assert_eq!(fired.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn try_par_map_retry_exhausts_budget_into_tile_error() {
        with_quiet_panics(|| {
            let attempts = AtomicUsize::new(0);
            let items: Vec<usize> = (0..8).collect();
            let err = try_par_map_retry(
                &items,
                |&x| {
                    if x == 3 {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        panic!("permanent fault");
                    }
                    x
                },
                2,
            )
            .unwrap_err();
            assert_eq!(err.index, 3);
            assert!(err.message.contains("permanent fault"));
            // First pass + two retries.
            assert_eq!(attempts.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn par_map_repanics_with_original_message() {
        with_quiet_panics(|| {
            let items: Vec<usize> = (0..128).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, |&x| {
                    assert!(x != 100, "original payload {x}");
                    x
                })
            }))
            .unwrap_err();
            assert!(panic_message(caught).contains("original payload 100"));
        });
    }

    #[test]
    fn par_chunks_mut_propagates_worker_panic_message() {
        with_quiet_panics(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut data = vec![0u32; 4096];
                par_chunks_mut(&mut data, 1, |offset, chunk| {
                    // Exactly one chunk holds the final element, whether the
                    // run is threaded or degraded to sequential.
                    assert!(offset + chunk.len() < 4096, "chunk fault at {offset}");
                    chunk.fill(1);
                });
            }))
            .unwrap_err();
            assert!(panic_message(caught).contains("chunk fault"));
        });
    }
}
