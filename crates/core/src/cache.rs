//! The interned-program cache — lowering as a memoized query, with a
//! bounded cost-weighted footprint.
//!
//! Interning a compiled multiset returns an [`Arc<CompiledSkeleton>`] that
//! is built **once per resident entry** and shared by every caller
//! thereafter: `Differentiated`, `GradientEngine`'s forward program, the
//! shot estimators and the service all look their skeletons up here
//! instead of lowering the AST behind their own `OnceLock`s.
//!
//! # Cache key contract
//!
//! The key is [`qdp_lang::multiset_fingerprint`] — a structural hash of the
//! ordered program list **and** the register it lowers against (variable
//! names, order, width; an ancilla-extended register keys differently from
//! its base). The hash only routes the lookup: every entry stores the full
//! compiled multiset and register, and lookup verifies structural equality
//! before sharing, so a 64-bit collision costs a bucket scan but can never
//! alias two different programs onto one skeleton.
//!
//! Holders that look the same multiset up again and again (each
//! `Differentiated` and `GradientEngine`, once or more per call) keep it
//! as a crate-private shared multiset: the programs behind one `Arc`, with
//! the fingerprint memoised on the first lookup. A new entry keeps that
//! very `Arc`, and the bucket match tests pointer identity before deep
//! equality, so a warm lookup hashes nothing and compares no trees. Deep
//! equality still decides for distinct allocations, and hits and
//! evictions count the same on both paths.
//!
//! # Bounded residency
//!
//! A long-lived multi-program server cannot let the cache grow
//! monotonically. A cache built with [`ProgramCache::with_capacity`]
//! charges each entry a **cost weight** — the skeleton's total lowered op
//! count plus its parameterised gates, a direct proxy for the matrices
//! and op lists held resident — and never holds more total weight than the
//! capacity. Overflow evicts by **second-chance** (clock) order: entries
//! touched since their last consideration get one more lap before they go.
//! Three properties keep eviction safe:
//!
//! * **Warm hits are bitwise-unchanged**: a hit returns the same
//!   `Arc<CompiledSkeleton>` the first touch built; eviction only governs
//!   *residency*, never mutates a skeleton.
//! * **Pinning by `Arc`**: an evicted skeleton stays fully usable for as
//!   long as any caller holds its `Arc` — eviction drops the cache's
//!   reference, nothing else. A later intern of the same program simply
//!   recompiles a fresh entry.
//! * **Oversized bypass**: a program whose weight alone exceeds the
//!   capacity is built and returned but never kept resident, so one huge
//!   program cannot wipe the whole working set.
//!
//! [`ProgramCache::global`] defaults to a generous bound (`2²⁰` weight
//! units — far above any training-loop working set, so the compile-once
//! contract of short-lived processes is unaffected), overridable with the
//! `QDP_CACHE_WEIGHT` environment variable (`0` = unbounded).
//!
//! # Concurrency
//!
//! The bucket map is held behind a `Mutex` only long enough to find or
//! insert an entry; the skeleton is built inside the entry's own
//! `OnceLock::get_or_init`, and lowered inside the skeleton's on its first
//! use, so concurrent first-touch of one program lowers once (every other
//! thread blocks on that skeleton alone, not on the cache), and
//! first-touch of *different* programs never serializes against each
//! other's compilation. A lock poisoned by a panicking holder is recovered
//! by rebuilding the map empty (mid-eviction bookkeeping cannot be
//! trusted): outstanding `Arc`s keep working, later interns recompile.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use qdp_lang::{multiset_fingerprint, Register, Stmt};

use crate::lowered::LoweredSet;

/// Everything parameter-independent about one compiled multiset, built
/// once, on its first use: the lowered multiset (constant matrices
/// hoisted), which builds the programs its sweeps run on its own first
/// sweep. Interning builds nothing, so a multiset nobody evaluates (an
/// exact gradient runs on the forward program, not on the derivative
/// multisets) is never lowered.
#[derive(Debug)]
pub struct CompiledSkeleton {
    compiled: Arc<[Stmt]>,
    register: Register,
    /// The cost weight residency charges, counted on the programs.
    weight: usize,
    lowered: OnceLock<LoweredSet>,
}

impl CompiledSkeleton {
    fn build(compiled: Arc<[Stmt]>, reg: &Register) -> Self {
        CompiledSkeleton {
            weight: compiled.iter().map(crate::lowered::weight).sum::<usize>().max(1),
            compiled,
            register: reg.clone(),
            lowered: OnceLock::new(),
        }
    }

    /// The shared lowered multiset, lowered on the first call.
    pub fn lowered(&self) -> &LoweredSet {
        self.lowered
            .get_or_init(|| LoweredSet::lower(&self.compiled, &self.register))
    }
}

/// A compiled multiset over its register, as a holder that interns it
/// repeatedly keeps it: the programs behind one `Arc` (a new cache entry
/// keeps that `Arc`, so warm lookups match by pointer) and the cache key,
/// hashed on the first lookup.
#[derive(Clone, Debug)]
pub(crate) struct SharedMultiset {
    compiled: Arc<[Stmt]>,
    register: Register,
    key: OnceLock<u64>,
}

impl SharedMultiset {
    pub(crate) fn new(compiled: Arc<[Stmt]>, register: Register) -> Self {
        SharedMultiset {
            compiled,
            register,
            key: OnceLock::new(),
        }
    }

    pub(crate) fn compiled(&self) -> &[Stmt] {
        &self.compiled
    }

    pub(crate) fn register(&self) -> &Register {
        &self.register
    }

    /// The cache key, [`multiset_fingerprint`], computed once.
    fn key(&self) -> u64 {
        *self
            .key
            .get_or_init(|| multiset_fingerprint(&self.compiled, &self.register))
    }
}

/// Per-entry bookkeeping: the verified identity plus the lazily-built
/// skeleton, its usage counters, and its clock state.
#[derive(Debug)]
struct Entry {
    key: u64,
    compiled: Arc<[Stmt]>,
    register: Register,
    cell: OnceLock<Arc<CompiledSkeleton>>,
    lowers: AtomicUsize,
    hits: AtomicUsize,
    /// The skeleton's cost weight, set once the build completes (entries
    /// join the clock only after that point).
    weight: AtomicUsize,
    /// Second-chance bit: set on every warm hit (not at insertion, so a
    /// never-reused entry is the first eviction candidate), cleared for
    /// one lap of grace when the clock hand passes the entry.
    referenced: AtomicBool,
}

/// Usage counters of one interned program (see
/// [`ProgramCache::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// How many times the entry's skeleton was compiled — at most 1.
    pub lowers: usize,
    /// How many interns were served from the already-built skeleton.
    pub hits: usize,
}

/// Whole-cache observability counters (see [`ProgramCache::counters`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheCounters {
    /// Interns served from an already-built skeleton.
    pub hits: usize,
    /// Interns that had to compile (first touch, or re-touch after
    /// eviction).
    pub misses: usize,
    /// Entries removed to keep the resident weight under capacity
    /// (including oversized bypasses).
    pub evictions: usize,
    /// Total resident cost weight right now.
    pub weight: usize,
    /// The configured bound, `None` when unbounded.
    pub capacity: Option<usize>,
}

/// The guarded state: buckets for lookup, the clock for eviction order,
/// and the resident-weight ledger. One mutex guards all three so their
/// invariants (clock entries ⊆ bucket entries, `weight` = Σ clock entry
/// weights) hold at every unlock.
#[derive(Debug, Default)]
struct CacheInner {
    buckets: HashMap<u64, Vec<Arc<Entry>>>,
    clock: VecDeque<Arc<Entry>>,
    weight: usize,
    capacity: Option<usize>,
}

/// A memoization table from structural program fingerprints to shared
/// compiled skeletons, with optional cost-weighted residency bounds (see
/// the module docs). One global instance ([`ProgramCache::global`]) backs
/// every gradient entry point; fresh instances exist for tests that need
/// isolated first-touch behaviour.
#[derive(Debug, Default)]
pub struct ProgramCache {
    inner: Mutex<CacheInner>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl ProgramCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// An empty cache that never holds more than `capacity` total cost
    /// weight resident.
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = ProgramCache::default();
        cache.lock_inner().capacity = Some(capacity);
        cache
    }

    /// The process-wide cache every gradient entry point interns through.
    /// Bounded at `2²⁰` weight units by default; `QDP_CACHE_WEIGHT`
    /// overrides (`0` = unbounded).
    pub fn global() -> &'static ProgramCache {
        static GLOBAL: OnceLock<ProgramCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            match std::env::var("QDP_CACHE_WEIGHT")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
            {
                Some(0) => ProgramCache::new(),
                Some(cap) => ProgramCache::with_capacity(cap),
                None => ProgramCache::with_capacity(1 << 20),
            }
        })
    }

    /// Locks the state, recovering a lock poisoned by a panicking holder:
    /// mid-eviction bookkeeping cannot be trusted, so the map rebuilds
    /// empty (outstanding `Arc`s keep working; later interns recompile).
    /// The configured capacity survives.
    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut g = poisoned.into_inner();
                g.buckets.clear();
                g.clock.clear();
                g.weight = 0;
                g
            }
        }
    }

    /// Evicts clock entries (second-chance order) until the resident
    /// weight fits `cap`.
    fn enforce(&self, inner: &mut CacheInner, cap: usize) {
        while inner.weight > cap {
            let Some(e) = inner.clock.pop_front() else {
                break;
            };
            if e.referenced.swap(false, Ordering::Relaxed) {
                // Touched since the hand last passed: one more lap.
                inner.clock.push_back(e);
                continue;
            }
            let w = e.weight.load(Ordering::Relaxed);
            if let Some(bucket) = inner.buckets.get_mut(&e.key) {
                bucket.retain(|x| !Arc::ptr_eq(x, &e));
                if bucket.is_empty() {
                    inner.buckets.remove(&e.key);
                }
            }
            inner.weight -= w.min(inner.weight);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Interns a compiled multiset over a register: returns the shared
    /// skeleton, compiling it only on the first touch of this exact
    /// (multiset, register) pair since it was last resident.
    ///
    /// # Panics
    ///
    /// Panics when lowering does (additive programs, variables outside the
    /// register).
    pub fn intern(&self, compiled: &[Stmt], reg: &Register) -> Arc<CompiledSkeleton> {
        self.intern_keyed(multiset_fingerprint(compiled, reg), compiled, reg, || {
            Arc::from(compiled)
        })
    }

    /// [`intern`](Self::intern) of a multiset the caller keeps shared: the
    /// key is the one memoised on `multiset`, a new entry holds its `Arc`
    /// instead of a copy, and a lookup that finds that `Arc` skips the
    /// deep comparison.
    pub(crate) fn intern_shared(&self, multiset: &SharedMultiset) -> Arc<CompiledSkeleton> {
        self.intern_keyed(
            multiset.key(),
            &multiset.compiled,
            &multiset.register,
            || Arc::clone(&multiset.compiled),
        )
    }

    /// The intern body, with the key supplied by the caller — split out so
    /// collision behaviour is testable (two different programs forced onto
    /// one key must still get distinct skeletons). `owned` gives a new
    /// entry its copy of `compiled`. An entry matches when its register is
    /// `reg` and its programs are `compiled` itself (the same allocation)
    /// or, failing that, structurally equal to it.
    fn intern_keyed(
        &self,
        key: u64,
        compiled: &[Stmt],
        reg: &Register,
        owned: impl FnOnce() -> Arc<[Stmt]>,
    ) -> Arc<CompiledSkeleton> {
        let entry = {
            let mut inner = self.lock_inner();
            let bucket = inner.buckets.entry(key).or_default();
            match bucket.iter().find(|e| {
                e.register == *reg
                    && (std::ptr::eq(&*e.compiled, compiled) || *e.compiled == *compiled)
            }) {
                Some(e) => Arc::clone(e),
                None => {
                    let e = Arc::new(Entry {
                        key,
                        compiled: owned(),
                        register: reg.clone(),
                        cell: OnceLock::new(),
                        lowers: AtomicUsize::new(0),
                        hits: AtomicUsize::new(0),
                        weight: AtomicUsize::new(0),
                        referenced: AtomicBool::new(false),
                    });
                    bucket.push(Arc::clone(&e));
                    e
                }
            }
        };
        // Lowering runs outside the map lock; losers of a first-touch race
        // block on this entry's cell only.
        let mut fresh = false;
        let skeleton = entry
            .cell
            .get_or_init(|| {
                fresh = true;
                entry.lowers.fetch_add(1, Ordering::Relaxed);
                Arc::new(CompiledSkeleton::build(Arc::clone(&entry.compiled), &entry.register))
            })
            .clone();
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let w = skeleton.weight;
            entry.weight.store(w, Ordering::Relaxed);
            let mut inner = self.lock_inner();
            match inner.capacity {
                Some(cap) if w > cap => {
                    // Oversized bypass: hand the skeleton out but never
                    // keep it resident — it would evict everything else
                    // for a single program.
                    if let Some(bucket) = inner.buckets.get_mut(&key) {
                        bucket.retain(|x| !Arc::ptr_eq(x, &entry));
                        if bucket.is_empty() {
                            inner.buckets.remove(&key);
                        }
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                cap => {
                    // The entry may have been dropped by a concurrent
                    // poison rebuild or `set_capacity` sweep; only charge
                    // residency while it is still reachable for lookup.
                    let resident = inner
                        .buckets
                        .get(&key)
                        .is_some_and(|b| b.iter().any(|x| Arc::ptr_eq(x, &entry)));
                    if resident {
                        inner.clock.push_back(Arc::clone(&entry));
                        inner.weight += w;
                        if let Some(cap) = cap {
                            self.enforce(&mut inner, cap);
                        }
                    }
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            entry.hits.fetch_add(1, Ordering::Relaxed);
            entry.referenced.store(true, Ordering::Relaxed);
        }
        skeleton
    }

    /// Reconfigures the residency bound (`None` = unbounded), evicting
    /// immediately if the resident weight no longer fits.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        let mut inner = self.lock_inner();
        inner.capacity = capacity;
        if let Some(cap) = capacity {
            self.enforce(&mut inner, cap);
        }
    }

    /// Whole-cache counters: hit/miss/eviction totals plus the current
    /// resident weight and configured bound.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.lock_inner();
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            weight: inner.weight,
            capacity: inner.capacity,
        }
    }

    /// The usage counters of one interned program, or `None` when the pair
    /// is not currently resident.
    pub fn stats(&self, compiled: &[Stmt], reg: &Register) -> Option<CacheStats> {
        let inner = self.lock_inner();
        let bucket = inner.buckets.get(&multiset_fingerprint(compiled, reg))?;
        let entry = bucket
            .iter()
            .find(|e| e.register == *reg && *e.compiled == *compiled)?;
        Some(CacheStats {
            lowers: entry.lowers.load(Ordering::Relaxed),
            hits: entry.hits.load(Ordering::Relaxed),
        })
    }

    /// How many distinct programs are currently resident.
    pub fn unique_programs(&self) -> usize {
        self.lock_inner().buckets.values().map(Vec::len).sum()
    }

    /// Total compilations across currently-resident entries — equals
    /// [`unique_programs`](Self::unique_programs) once every entry's first
    /// touch has completed.
    pub fn total_lowers(&self) -> usize {
        self.lock_inner()
            .buckets
            .values()
            .flatten()
            .map(|e| e.lowers.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::parse_program;

    fn program(src: &str) -> (Vec<Stmt>, Register) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        (vec![p], reg)
    }

    #[test]
    fn intern_compiles_once_and_shares_the_skeleton() {
        let cache = ProgramCache::new();
        let (p, reg) = program("q1 *= RX(a); q1 *= H");
        let first = cache.intern(&p, &reg);
        let second = cache.intern(&p, &reg);
        assert!(Arc::ptr_eq(&first, &second), "interns must share one skeleton");
        assert_eq!(
            cache.stats(&p, &reg),
            Some(CacheStats { lowers: 1, hits: 1 })
        );
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 0));
        assert!(c.weight > 0 && c.capacity.is_none());
    }

    #[test]
    fn forced_key_collision_does_not_alias() {
        // Drive two structurally different programs through one bucket: the
        // deep-equality check must keep their skeletons distinct.
        let cache = ProgramCache::new();
        let (p1, reg1) = program("q1 *= RX(a)");
        let (p2, reg2) = program("q1 *= RY(b); q1 *= H");
        let s1 = cache.intern_keyed(42, &p1, &reg1, || Arc::from(&p1[..]));
        let s2 = cache.intern_keyed(42, &p2, &reg2, || Arc::from(&p2[..]));
        assert!(!Arc::ptr_eq(&s1, &s2), "collision must not alias skeletons");
        assert_eq!(s1.lowered().param_names(), ["a"]);
        assert_eq!(s2.lowered().param_names(), ["b"]);
        assert_eq!(cache.unique_programs(), 2);
        assert_eq!(cache.total_lowers(), 2);
        // Re-interning under the collided key still finds the right entry.
        assert!(Arc::ptr_eq(&s1, &cache.intern_keyed(42, &p1, &reg1, || Arc::from(&p1[..]))));

        // The pointer-identity path: shared multisets forced onto the same
        // key. Each entry keeps its holder's `Arc`, a lookup by that `Arc`
        // finds its own entry, a structurally equal copy in another
        // allocation finds it by deep equality, and the same `Arc` over a
        // different register is a different entry.
        let cache = ProgramCache::new();
        let a1: Arc<[Stmt]> = Arc::from(&p1[..]);
        let a2: Arc<[Stmt]> = Arc::from(&p2[..]);
        let shared =
            |a: &Arc<[Stmt]>, reg: &Register| cache.intern_keyed(42, a, reg, || Arc::clone(a));
        let t1 = shared(&a1, &reg1);
        let t2 = shared(&a2, &reg2);
        assert!(
            !Arc::ptr_eq(&t1, &t2),
            "collision must not alias shared skeletons"
        );
        assert!(
            Arc::ptr_eq(&t1, &shared(&a1, &reg1)),
            "pointer hit finds its own entry"
        );
        assert!(
            Arc::ptr_eq(&t2, &shared(&a2, &reg2)),
            "pointer hit finds its own entry"
        );
        let copy: Arc<[Stmt]> = Arc::from(&p1[..]);
        assert!(
            Arc::ptr_eq(&t1, &shared(&copy, &reg1)),
            "an equal copy hits by deep equality"
        );
        let wide = Register::from_vars([qdp_lang::Var::new("q1"), qdp_lang::Var::new("q2")]);
        let t3 = shared(&a1, &wide);
        assert!(
            !Arc::ptr_eq(&t1, &t3),
            "one allocation over two registers is two entries"
        );
        assert_eq!(t2.lowered().param_names(), ["b"]);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (3, 3, 0));
        assert_eq!(cache.unique_programs(), 3);
    }

    #[test]
    fn register_variants_get_distinct_entries() {
        use qdp_lang::Var;
        let cache = ProgramCache::new();
        let p = vec![parse_program("q1 *= RX(a)").unwrap()];
        let base = Register::from_vars([Var::new("q1")]);
        let wide = Register::from_vars([Var::new("q1"), Var::new("q2")]);
        let ext = base.with_ancilla_front(Var::new("A"));
        let s_base = cache.intern(&p, &base);
        let s_wide = cache.intern(&p, &wide);
        let s_ext = cache.intern(&p, &ext);
        assert!(!Arc::ptr_eq(&s_base, &s_wide));
        assert!(!Arc::ptr_eq(&s_base, &s_ext));
        assert_eq!(cache.unique_programs(), 3);
    }

    #[test]
    fn capacity_bound_holds_and_second_chance_protects_hot_entries() {
        // Learn real weights first, then size the capacity to fit exactly
        // two of the three programs.
        let probe = ProgramCache::new();
        let (pa, ra) = program("q1 *= RX(a)");
        let (pb, rb) = program("q1 *= RY(b)");
        let (pc, rc) = program("q1 *= RZ(c)");
        probe.intern(&pa, &ra);
        let w = probe.counters().weight;

        let cache = ProgramCache::with_capacity(2 * w);
        cache.intern(&pa, &ra);
        cache.intern(&pb, &rb);
        assert_eq!(cache.counters().weight, 2 * w);
        // Touch A so its referenced bit protects it for one lap.
        cache.intern(&pa, &ra);
        cache.intern(&pc, &rc);
        let c = cache.counters();
        assert!(c.weight <= 2 * w, "resident weight {} over bound {}", c.weight, 2 * w);
        assert_eq!(c.evictions, 1);
        assert!(cache.stats(&pa, &ra).is_some(), "hot entry A must survive");
        assert!(cache.stats(&pb, &rb).is_none(), "cold entry B must be evicted");
        assert!(cache.stats(&pc, &rc).is_some(), "new entry C must be resident");
        // Re-interning the evicted program recompiles a fresh entry.
        let again = cache.intern(&pb, &rb);
        assert_eq!(again.lowered().param_names(), ["b"]);
        assert_eq!(cache.stats(&pb, &rb).map(|s| s.lowers), Some(1));
    }

    #[test]
    fn pinned_arcs_survive_eviction_and_warm_hits_stay_identical() {
        let probe = ProgramCache::new();
        let (pa, ra) = program("q1 *= RX(a)");
        probe.intern(&pa, &ra);
        let w = probe.counters().weight;

        let cache = ProgramCache::with_capacity(w);
        let pinned = cache.intern(&pa, &ra);
        let warm = cache.intern(&pa, &ra);
        assert!(Arc::ptr_eq(&pinned, &warm), "warm hit returns the same skeleton");
        // Evict A from a capacity of one entry: the warm hit above earns A
        // one lap of grace (the first overflow evicts the unreferenced
        // newcomer B instead), so a second B intern is what displaces A.
        let (pb, rb) = program("q1 *= RY(b)");
        cache.intern(&pb, &rb);
        assert!(cache.stats(&pa, &ra).is_some(), "hot A survives its grace lap");
        cache.intern(&pb, &rb);
        assert!(cache.stats(&pa, &ra).is_none(), "A must be evicted");
        // The pinned skeleton is untouched by eviction.
        assert_eq!(pinned.lowered().param_names(), ["a"]);
        let engine = pinned.lowered().shot_engines(&[0.3]).next().unwrap();
        assert!(!engine.program().is_empty());
    }

    #[test]
    fn oversized_programs_bypass_residency() {
        let cache = ProgramCache::with_capacity(1);
        let (p, reg) = program("q1 *= RX(a); q1 *= H; q1 *= RY(b)");
        let s = cache.intern(&p, &reg);
        // The skeleton is handed out fully usable...
        assert_eq!(s.lowered().param_names(), ["a", "b"]);
        // ...but never kept resident.
        assert_eq!(cache.unique_programs(), 0);
        let c = cache.counters();
        assert_eq!((c.weight, c.evictions), (0, 1));
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache = ProgramCache::new();
        let (pa, ra) = program("q1 *= RX(a)");
        let (pb, rb) = program("q1 *= RY(b)");
        cache.intern(&pa, &ra);
        cache.intern(&pb, &rb);
        assert_eq!(cache.unique_programs(), 2);
        cache.set_capacity(Some(0));
        assert_eq!(cache.unique_programs(), 0);
        assert_eq!(cache.counters().weight, 0);
        // Unbounding again lets entries stay resident.
        cache.set_capacity(None);
        cache.intern(&pa, &ra);
        assert_eq!(cache.unique_programs(), 1);
    }

    #[test]
    fn poisoned_cache_lock_rebuilds_an_empty_usable_map() {
        let cache = Arc::new(ProgramCache::with_capacity(1 << 10));
        let (p, reg) = program("q1 *= RX(a)");
        let pinned = cache.intern(&p, &reg);

        // Poison the inner lock from a thread that panics while holding it.
        let c = Arc::clone(&cache);
        let poisoner = std::thread::spawn(move || {
            let _guard = c.inner.lock().unwrap();
            panic!("injected poison");
        });
        assert!(poisoner.join().is_err());

        // Recovery rebuilds empty: the entry is gone but the pinned Arc
        // still works, and a fresh intern recompiles.
        assert_eq!(cache.unique_programs(), 0);
        assert_eq!(cache.counters().weight, 0);
        assert_eq!(pinned.lowered().param_names(), ["a"]);
        let again = cache.intern(&p, &reg);
        assert!(!Arc::ptr_eq(&pinned, &again), "post-poison intern recompiles");
        assert_eq!(again.lowered().param_names(), ["a"]);
        assert_eq!(cache.counters().capacity, Some(1 << 10));
    }
}
