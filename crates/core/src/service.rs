//! A long-lived, multi-tenant gradient front end with request coalescing,
//! deadlines, backpressure, and leader-failure containment.
//!
//! [`GradientService`] generalizes the one-valuation estimator embryo into
//! a server: clients register programs (deduplicated structurally — two
//! registrations of the same program share one tenant and therefore one
//! [`crate::GradientEngine`] and one interned skeleton) and submit
//! expectation/gradient requests from any number of threads. Requests
//! against the same tenant that are **compatible** — same request kind,
//! same valuation, same observable, same shot budget — coalesce into one
//! shared [`qdp_sim::BatchedStates`] tile: a single leader gathers the
//! queued inputs into one contiguous batch, runs **one** kernel sweep
//! through the engine's batched entry point, and distributes the per-row
//! results. The batch axis of PR 2 becomes the multi-tenancy axis.
//!
//! # Determinism contract
//!
//! Every client's result is **bit-identical to running its request solo**:
//!
//! * exact kinds ride the batched evaluators, whose per-row outputs are
//!   invariant under batch composition (pinned by
//!   `crates/core/tests/batch_equivalence.rs` and the branch-weighted
//!   differential suite) — row `r` of a coalesced sweep carries the same
//!   bits as a one-row sweep of that input;
//! * shot kinds pass each client's own seed as its row's stream
//!   (`row_seeds[r]`), and the batched shot entry points guarantee row `r`
//!   is bit-identical to the single-input call with that seed (the
//!   [`qdp_sim::derive_seed`] per-row stream contract of PR 3).
//!
//! So coalescing changes *when* work happens, never *what* any client
//! observes — under any thread count and any arrival interleaving. The
//! robustness machinery below preserves this: shedding, deadline expiry,
//! and eviction only remove requests from service, they never change the
//! bits of a request that completes.
//!
//! # Leadership protocol
//!
//! Per tenant: submitters enqueue under the tenant lock and wait on its
//! condvar. When no leader is active and at least
//! [`min_batch`](ServiceConfig::min_batch) requests are pending (or an
//! earlier [`flush`](GradientService::flush)/gate-open marked requests
//! admitted), one waiter elects itself leader, drains the **head group**
//! (the oldest request plus every pending request compatible with it, in
//! submission order), releases the lock, runs the one batched sweep,
//! publishes results keyed by ticket, and steps down. When the gate opens
//! on the threshold, every request pending at that moment is marked
//! `admitted` — owed a sweep — so an incompatible remainder smaller than
//! the threshold elects follow-up leaders instead of stranding. The flag
//! rides the request itself, which keeps the carryover gate exact when
//! individual requests are later removed by deadline expiry.
//!
//! # Robustness contract
//!
//! * **Deadlines** ([`RequestOptions::deadline`]): the deadline bounds
//!   the *queue wait*. A request still
//!   queued when its deadline passes removes exactly its own entry and
//!   returns [`qdp_sim::QdpError::DeadlineExceeded`]; followers and the
//!   admitted-carryover gate are untouched. A request already drained
//!   into an active sweep is past cancellation — its leader serves the
//!   batch it admitted (no torn batches) and the late requester simply
//!   waits for the published result. In particular a leader past its own
//!   deadline still completes its sweep.
//! * **Backpressure** ([`ServiceConfig::max_pending`]): with the default
//!   [`OverloadPolicy::RejectNewest`], a submit that finds the tenant
//!   queue at its bound sheds immediately with a typed
//!   [`qdp_sim::QdpError::Overloaded`] — it never blocks waiting for
//!   space, and never enqueues. [`OverloadPolicy::Block`] instead waits
//!   for space (bounded by the request deadline, when one is set).
//! * **Leader-failure containment**: the coalesced sweep runs under
//!   `catch_unwind`, and every request kind reaches the engine through its
//!   one infallible batched entry point. So a worker panic surviving
//!   `try_par_map_retry` (its message names the tile) or an injected
//!   [`qdp_sim::fault::FaultSite::Service`] panic becomes a typed
//!   [`qdp_sim::QdpError::ServicePanic`], never a propagated panic.
//!   Group members with retry budget left
//!   ([`RequestOptions::max_retries`]) are re-queued at the head, still
//!   admitted, so a follow-up leader re-serves them; members past their
//!   budget receive the typed error. Either way every follower gets a
//!   publication — no hangs.
//! * **Poison recovery**: a tenant lock poisoned by a panicking holder is
//!   recovered on the next acquisition — the queue drains with typed
//!   [`qdp_sim::QdpError::ServicePanic`] errors, leadership resets, and
//!   the tenant keeps serving fresh requests.
//!
//! # One entry
//!
//! Every request kind enters through [`GradientService::submit`]: a
//! [`Request`] on one input state, answered by a [`Response`] or a typed
//! [`qdp_sim::QdpError`]. `submit` validates the request on the
//! **caller's** thread before enqueueing (parameters, input width, shot
//! counts, shift-rule eligibility), so a malformed request panics there
//! and never fails a coalesced group. The per-kind calls
//! ([`expectation`](GradientService::expectation),
//! [`expectation_with`](GradientService::expectation_with),
//! [`gradient_with`](GradientService::gradient_with),
//! [`gradient_shift_with`](GradientService::gradient_shift_with),
//! [`gradient_shots_with`](GradientService::gradient_shots_with)) are thin
//! wrappers over it that unpack the response; `expectation` panics with
//! the typed error's message on the caller's thread.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qdp_lang::ast::{Params, Stmt};
use qdp_sim::{BatchedStates, Observable, QdpError, StateVector};

use crate::exec::GradientEngine;
use crate::transform::TransformError;

/// What one request to [`GradientService::submit`] asks for. Seeds live
/// here (not in the compatibility key) so clients with distinct seeds
/// still coalesce.
#[derive(Clone, Debug)]
pub enum Request {
    /// Exact forward value `⟨O⟩`
    /// ([`GradientEngine::value_pure_batch`]), answered by
    /// [`Response::Value`].
    Value {
        /// The valuation; every parameter of the program needs a value.
        params: Params,
        /// The observable `O`.
        obs: Observable,
    },
    /// Exact gradient ([`GradientEngine::gradient_pure_batch`]), answered
    /// by [`Response::Gradient`].
    Gradient {
        /// The valuation; every parameter of the program needs a value.
        params: Params,
        /// The observable `O`.
        obs: Observable,
    },
    /// Exact gradient via the `±π/2` shift rule on the forward skeleton
    /// ([`GradientEngine::gradient_pure_shift_batch`]), answered by
    /// [`Response::Gradient`]. The program must be shift-rule eligible.
    ShiftGradient {
        /// The valuation; every parameter of the program needs a value.
        params: Params,
        /// The observable `O`.
        obs: Observable,
    },
    /// Shot-sampled forward value on the client's seed stream —
    /// bit-identical to [`GradientEngine::value_pure_shots`] with the same
    /// seed, whichever clients it coalesced with. Answered by
    /// [`Response::Value`].
    ValueShots {
        /// The valuation; every parameter of the program needs a value.
        params: Params,
        /// The observable `O`.
        obs: Observable,
        /// Trajectories to sample; at least one.
        shots: usize,
        /// The client's seed stream.
        seed: u64,
    },
    /// Shot-sampled gradient on the client's seed stream — bit-identical
    /// to [`GradientEngine::gradient_pure_shots`] with the same seed,
    /// whichever clients it coalesced with. Answered by
    /// [`Response::Gradient`].
    GradientShots {
        /// The valuation; every parameter of the program needs a value.
        params: Params,
        /// The observable `O`.
        obs: Observable,
        /// Trajectories to sample per parameter; at least one.
        shots_per_param: usize,
        /// The client's seed stream.
        seed: u64,
    },
}

/// The answer to one [`Request`].
#[derive(Clone, Debug)]
pub enum Response {
    /// A value kind's `⟨O⟩`.
    Value(f64),
    /// A gradient kind's derivatives, keyed by parameter name.
    Gradient(BTreeMap<String, f64>),
}

/// The answer to a value kind.
fn value(out: Response) -> f64 {
    match out {
        Response::Value(v) => v,
        Response::Gradient(_) => unreachable!("value requests produce scalar outputs"),
    }
}

/// The answer to a gradient kind.
fn gradient(out: Response) -> BTreeMap<String, f64> {
    match out {
        Response::Gradient(g) => g,
        Response::Value(_) => unreachable!("gradient requests produce map outputs"),
    }
}

/// Whether two requests may share one batched sweep: same kind, same
/// valuation (`Params` is an ordered map; names equal, values compared by
/// `f64::to_bits`), same observable (register width, targets, matrix
/// shape, entries compared by `to_bits`), same shot budget. Bits, not
/// `==`: `-0.0` and `+0.0` requests never share a sweep, so each stays
/// bit-identical to its solo run by construction. Seeds are intentionally
/// excluded: they become per-row streams.
fn compatible(a: &Request, b: &Request) -> bool {
    fn params_eq(x: &Params, y: &Params) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y.iter())
                .all(|((n1, v1), (n2, v2))| n1 == n2 && v1.to_bits() == v2.to_bits())
    }
    fn obs_eq(x: &Observable, y: &Observable) -> bool {
        let (mx, my) = (x.matrix(), y.matrix());
        x.num_qubits() == y.num_qubits()
            && x.targets() == y.targets()
            && (mx.rows(), mx.cols()) == (my.rows(), my.cols())
            && mx.as_slice().iter().zip(my.as_slice()).all(|(u, v)| {
                u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits()
            })
    }
    match (a, b) {
        (
            Request::Value { params: p1, obs: o1 },
            Request::Value { params: p2, obs: o2 },
        )
        | (
            Request::Gradient { params: p1, obs: o1 },
            Request::Gradient { params: p2, obs: o2 },
        )
        | (
            Request::ShiftGradient { params: p1, obs: o1 },
            Request::ShiftGradient { params: p2, obs: o2 },
        ) => params_eq(p1, p2) && obs_eq(o1, o2),
        (
            Request::ValueShots { params: p1, obs: o1, shots: s1, .. },
            Request::ValueShots { params: p2, obs: o2, shots: s2, .. },
        ) => s1 == s2 && params_eq(p1, p2) && obs_eq(o1, o2),
        (
            Request::GradientShots { params: p1, obs: o1, shots_per_param: s1, .. },
            Request::GradientShots { params: p2, obs: o2, shots_per_param: s2, .. },
        ) => s1 == s2 && params_eq(p1, p2) && obs_eq(o1, o2),
        _ => false,
    }
}

/// Per-request submission options of [`GradientService::submit`].
#[derive(Clone, Debug)]
pub struct RequestOptions {
    /// Maximum time the request may spend **queued** before it is
    /// cancelled with [`qdp_sim::QdpError::DeadlineExceeded`]. Once the
    /// request is drained into an active sweep it is past cancellation
    /// and the submitter waits for the published result. `None` waits
    /// indefinitely.
    pub deadline: Option<Duration>,
    /// How many times a failed coalesced sweep may re-serve this request
    /// before it is failed with the sweep's typed error. The default `1`
    /// means one fresh leader retries the group once.
    pub max_retries: usize,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions { deadline: None, max_retries: 1 }
    }
}

impl RequestOptions {
    /// The default options: no deadline, one re-serve retry.
    pub fn new() -> Self {
        RequestOptions::default()
    }

    /// Bounds the queue wait (see [`RequestOptions::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the re-serve budget after leader failures.
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// What a submit does when the tenant queue is at
/// [`ServiceConfig::max_pending`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Shed the incoming request immediately with a typed
    /// [`qdp_sim::QdpError::Overloaded`] — the non-blocking `try_submit`
    /// behaviour: saturation degrades to fast failure instead of
    /// unbounded queue growth and latency collapse.
    #[default]
    RejectNewest,
    /// Block the submitter until queue space frees up (bounded by the
    /// request deadline, when one is set).
    Block,
}

/// Service-wide configuration: the admission threshold plus the
/// backpressure bound and policy.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Requests that must be pending before a leader sweeps a *quiet*
    /// queue (see [`GradientService::with_admission`]). Must be ≥ 1.
    pub min_batch: usize,
    /// Per-tenant bound on the pending queue; `None` is unbounded (the
    /// pre-robustness behaviour). Must be ≥ 1 when set.
    pub max_pending: Option<usize>,
    /// What happens to a submit that finds the queue at the bound.
    pub overload: OverloadPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            min_batch: 1,
            max_pending: None,
            overload: OverloadPolicy::RejectNewest,
        }
    }
}

/// One queued request.
#[derive(Debug)]
struct Pending {
    ticket: u64,
    input: StateVector,
    request: Request,
    /// Owed a sweep: the admission gate opened while this request was
    /// queued (or a flush covered it). The flag rides the request, so
    /// removing an expired request cannot miscount the carryover.
    admitted: bool,
    /// Failed coalesced sweeps this request has already been part of.
    attempts: usize,
    /// Re-serve budget after leader failures ([`RequestOptions`]).
    max_retries: usize,
}

#[derive(Debug, Default)]
struct TenantState {
    pending: Vec<Pending>,
    results: HashMap<u64, Result<Response, QdpError>>,
    /// Whether a leader is currently running a sweep.
    leader: bool,
    next_ticket: u64,
}

/// One registered program: the shared engine plus the coalescing queue.
#[derive(Debug)]
struct Tenant {
    engine: Arc<GradientEngine>,
    state: Mutex<TenantState>,
    ready: Condvar,
    /// Batched sweeps completed on behalf of this tenant.
    sweeps: AtomicUsize,
    /// Requests served successfully (across all sweeps).
    served: AtomicUsize,
    /// Requests shed at submission by the overload policy.
    shed: AtomicUsize,
    /// Requests cancelled by deadline expiry while queued.
    expired: AtomicUsize,
    /// Coalesced sweeps that died (panic or typed failure) before
    /// publishing results.
    leader_failures: AtomicUsize,
}

impl Tenant {
    /// Locks the tenant state, recovering a lock poisoned by a panicking
    /// holder (see [`Tenant::recover`]).
    fn lock_state(&self) -> MutexGuard<'_, TenantState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.state.clear_poison();
                self.recover(poisoned.into_inner())
            }
        }
    }

    /// Sanitizes possibly-torn state behind a poisoned lock: whatever the
    /// panicking holder was doing, its bookkeeping cannot be trusted, so
    /// every queued request fails with a typed error (their submitters
    /// return it; nobody hangs on a queue nobody will sweep) and
    /// leadership resets so the tenant keeps serving fresh requests. If a
    /// healthy leader was mid-sweep during recovery, its group was already
    /// drained out of `pending` — its publications still land, at worst
    /// alongside a concurrently elected second leader with a disjoint
    /// group.
    fn recover<'a>(&'a self, mut st: MutexGuard<'a, TenantState>) -> MutexGuard<'a, TenantState> {
        st.leader = false;
        let drained: Vec<Pending> = st.pending.drain(..).collect();
        for p in drained {
            st.results.insert(
                p.ticket,
                Err(QdpError::ServicePanic {
                    message: "tenant lock poisoned by a panicking holder; queued request drained"
                        .to_string(),
                }),
            );
        }
        self.ready.notify_all();
        st
    }

    /// Condvar wait with the same poison recovery as
    /// [`lock_state`](Self::lock_state).
    fn wait<'a>(&'a self, st: MutexGuard<'a, TenantState>) -> MutexGuard<'a, TenantState> {
        match self.ready.wait(st) {
            Ok(g) => g,
            Err(poisoned) => {
                self.state.clear_poison();
                self.recover(poisoned.into_inner())
            }
        }
    }

    /// Bounded condvar wait with the same poison recovery. Timeouts are
    /// indistinguishable from wakeups to the caller — the submit loop
    /// re-checks its deadline against the clock.
    fn wait_timeout<'a>(
        &'a self,
        st: MutexGuard<'a, TenantState>,
        dur: Duration,
    ) -> MutexGuard<'a, TenantState> {
        match self.ready.wait_timeout(st, dur) {
            Ok((g, _)) => g,
            Err(poisoned) => {
                self.state.clear_poison();
                self.recover(poisoned.into_inner().0)
            }
        }
    }
}

/// An opaque reference to a registered program — cheap to clone and share
/// across client threads.
#[derive(Clone, Debug)]
pub struct ProgramHandle {
    tenant: Arc<Tenant>,
}

/// The compile-once gradient server (see the module docs).
#[derive(Debug)]
pub struct GradientService {
    tenants: Mutex<Vec<Arc<Tenant>>>,
    config: ServiceConfig,
}

impl Default for GradientService {
    fn default() -> Self {
        GradientService::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            // The registry is a Vec of Arcs; a panicked holder cannot have
            // torn it (pushes are the only mutation).
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Steps a panicked leader down so followers re-elect instead of hanging
/// forever on a leadership that will never complete. The sweep itself
/// runs under `catch_unwind`, so this is a backstop for panics in the
/// leader's own bookkeeping.
struct LeaderGuard<'a> {
    tenant: &'a Tenant,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.tenant.lock_state().leader = false;
            self.tenant.ready.notify_all();
        }
    }
}

impl GradientService {
    /// A service that sweeps as soon as any request is pending
    /// (`min_batch = 1`), with an unbounded queue: correct everywhere,
    /// coalescing opportunistically when requests happen to queue up.
    pub fn new() -> Self {
        GradientService::with_config(ServiceConfig::default())
    }

    /// A service whose leaders wait until `min_batch` requests are pending
    /// before sweeping — the throughput knob: `N` compatible clients with
    /// `min_batch = N` are guaranteed to share exactly one sweep. Pair
    /// with [`flush`](Self::flush) when fewer requests may arrive.
    ///
    /// # Panics
    ///
    /// Panics when `min_batch` is zero.
    pub fn with_admission(min_batch: usize) -> Self {
        GradientService::with_config(ServiceConfig {
            min_batch,
            ..ServiceConfig::default()
        })
    }

    /// A service with full robustness configuration: admission threshold,
    /// queue bound, and overload policy.
    ///
    /// # Panics
    ///
    /// Panics when `min_batch` is zero or `max_pending` is `Some(0)`.
    pub fn with_config(config: ServiceConfig) -> Self {
        assert!(config.min_batch > 0, "admission threshold must be at least 1");
        assert!(
            config.max_pending != Some(0),
            "queue bound must be at least 1 (use None for unbounded)"
        );
        GradientService {
            tenants: Mutex::new(Vec::new()),
            config,
        }
    }

    /// Registers a program, deduplicating structurally: a program equal to
    /// an already-registered one returns a handle to the **same** tenant
    /// (same engine, same interned skeletons, shared coalescing queue).
    ///
    /// # Errors
    ///
    /// Returns the [`TransformError`] of engine construction.
    pub fn register(&self, program: &Stmt) -> Result<ProgramHandle, TransformError> {
        if let Some(t) = lock(&self.tenants)
            .iter()
            .find(|t| t.engine.program() == program)
        {
            return Ok(ProgramHandle { tenant: Arc::clone(t) });
        }
        // Engine construction (per-parameter derivative programs) runs
        // outside the registry lock; a racing duplicate is resolved on
        // re-entry below.
        let engine = Arc::new(GradientEngine::new(program)?);
        let mut tenants = lock(&self.tenants);
        if let Some(t) = tenants.iter().find(|t| t.engine.program() == program) {
            return Ok(ProgramHandle { tenant: Arc::clone(t) });
        }
        let tenant = Arc::new(Tenant {
            engine,
            state: Mutex::new(TenantState::default()),
            ready: Condvar::new(),
            sweeps: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            expired: AtomicUsize::new(0),
            leader_failures: AtomicUsize::new(0),
        });
        tenants.push(Arc::clone(&tenant));
        Ok(ProgramHandle { tenant })
    }

    /// The handle's shared engine, for direct (uncoalesced) evaluation —
    /// e.g. wiring a `qdp-vqc` trainer onto the same compiled skeletons
    /// the service serves.
    pub fn engine(&self, handle: &ProgramHandle) -> Arc<GradientEngine> {
        Arc::clone(&handle.tenant.engine)
    }

    /// How many distinct programs are registered.
    pub fn tenant_count(&self) -> usize {
        lock(&self.tenants).len()
    }

    /// Batched sweeps completed for this handle's program so far.
    pub fn sweeps(&self, handle: &ProgramHandle) -> usize {
        handle.tenant.sweeps.load(Ordering::Relaxed)
    }

    /// Requests served successfully for this handle's program so far.
    pub fn served(&self, handle: &ProgramHandle) -> usize {
        handle.tenant.served.load(Ordering::Relaxed)
    }

    /// Requests shed by the overload policy for this handle's program.
    pub fn shed(&self, handle: &ProgramHandle) -> usize {
        handle.tenant.shed.load(Ordering::Relaxed)
    }

    /// Requests cancelled by deadline expiry while queued.
    pub fn expired(&self, handle: &ProgramHandle) -> usize {
        handle.tenant.expired.load(Ordering::Relaxed)
    }

    /// Coalesced sweeps that failed (before any re-serve retries
    /// succeeded).
    pub fn leader_failures(&self, handle: &ProgramHandle) -> usize {
        handle.tenant.leader_failures.load(Ordering::Relaxed)
    }

    /// The current pending-queue depth of this handle's tenant.
    pub fn pending_depth(&self, handle: &ProgramHandle) -> usize {
        handle.tenant.lock_state().pending.len()
    }

    /// Overrides the admission threshold for everything **currently
    /// pending** on this handle's program: those requests are marked
    /// admitted, so the next leader sweeps them even if fewer than
    /// `min_batch` arrived. A flush with an empty queue is a no-op — it
    /// cannot go stale and admit a later lone request early — and a
    /// request arriving after the flush is not covered by it.
    pub fn flush(&self, handle: &ProgramHandle) {
        let mut st = handle.tenant.lock_state();
        for p in &mut st.pending {
            p.admitted = true;
        }
        drop(st);
        handle.tenant.ready.notify_all();
    }

    /// Exact forward value `⟨O⟩` — blocks until a (possibly shared) sweep
    /// serves it.
    ///
    /// # Panics
    ///
    /// Panics on the malformed requests [`submit`](Self::submit) rejects,
    /// and when the request fails (overload shedding under a bounded
    /// config, sweep failure past the retry budget) — the panic carries
    /// the typed error's message. Use
    /// [`expectation_with`](Self::expectation_with) to handle failures.
    pub fn expectation(
        &self,
        handle: &ProgramHandle,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
    ) -> f64 {
        self.expectation_with(handle, params, obs, psi, &RequestOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`submit`](Self::submit) of a [`Request::Value`], with its errors
    /// and panics.
    pub fn expectation_with(
        &self,
        handle: &ProgramHandle,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        opts: &RequestOptions,
    ) -> Result<f64, QdpError> {
        let request = Request::Value { params: params.clone(), obs: obs.clone() };
        self.submit(handle, psi, request, opts).map(value)
    }

    /// [`submit`](Self::submit) of a [`Request::Gradient`], with its errors
    /// and panics.
    pub fn gradient_with(
        &self,
        handle: &ProgramHandle,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        opts: &RequestOptions,
    ) -> Result<BTreeMap<String, f64>, QdpError> {
        let request = Request::Gradient { params: params.clone(), obs: obs.clone() };
        self.submit(handle, psi, request, opts).map(gradient)
    }

    /// [`submit`](Self::submit) of a [`Request::ShiftGradient`], with its errors
    /// and panics.
    pub fn gradient_shift_with(
        &self,
        handle: &ProgramHandle,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        opts: &RequestOptions,
    ) -> Result<BTreeMap<String, f64>, QdpError> {
        let request = Request::ShiftGradient { params: params.clone(), obs: obs.clone() };
        self.submit(handle, psi, request, opts).map(gradient)
    }

    /// [`submit`](Self::submit) of a [`Request::GradientShots`], with its errors
    /// and panics.
    #[allow(clippy::too_many_arguments)]
    pub fn gradient_shots_with(
        &self,
        handle: &ProgramHandle,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        shots_per_param: usize,
        seed: u64,
        opts: &RequestOptions,
    ) -> Result<BTreeMap<String, f64>, QdpError> {
        let request = Request::GradientShots {
            params: params.clone(),
            obs: obs.clone(),
            shots_per_param,
            seed,
        };
        self.submit(handle, psi, request, opts).map(gradient)
    }

    /// Fail fast on the caller's thread, before enqueueing: a request that
    /// would panic mid-sweep would fail its whole coalesced group.
    fn validate(&self, handle: &ProgramHandle, psi: &StateVector, request: &Request) {
        let engine = &handle.tenant.engine;
        assert_eq!(
            psi.num_qubits(),
            engine.register().len(),
            "input state width must match the program register"
        );
        let (Request::Value { params, .. }
        | Request::Gradient { params, .. }
        | Request::ShiftGradient { params, .. }
        | Request::ValueShots { params, .. }
        | Request::GradientShots { params, .. }) = request;
        for name in engine.parameters() {
            assert!(
                params.get(name).is_some(),
                "parameter '{name}' has no value"
            );
        }
        match request {
            Request::ShiftGradient { .. } => assert!(
                engine.shift_rule_eligible(),
                "shift-rule gradient requires every parameter to occur exactly once \
                 per execution path"
            ),
            Request::ValueShots { shots, .. } => assert!(*shots > 0, "need at least one shot"),
            Request::GradientShots { shots_per_param, .. } => {
                assert!(*shots_per_param > 0, "need at least one shot per parameter")
            }
            Request::Value { .. } | Request::Gradient { .. } => {}
        }
    }

    /// Submits `request` on the input `psi` and blocks until a (possibly
    /// shared) sweep serves it or it fails typed: the one entry of every
    /// request kind. A value kind is answered by [`Response::Value`], a
    /// gradient kind by [`Response::Gradient`].
    ///
    /// The request is validated on the caller's thread before it is
    /// enqueued. Enqueueing applies the overload policy first — with
    /// [`OverloadPolicy::RejectNewest`] it never blocks for queue space —
    /// and the caller serves as leader when elected (see the module docs).
    ///
    /// # Errors
    ///
    /// [`QdpError::Overloaded`] when shed at submission,
    /// [`QdpError::DeadlineExceeded`] when the queue wait outlived
    /// `opts.deadline`, [`QdpError::ServicePanic`] when the serving sweep
    /// failed past the retry budget.
    ///
    /// # Panics
    ///
    /// Panics on malformed requests: a parameter of the program without a
    /// value, an input whose width does not match the program register,
    /// zero shots, or a shift-rule gradient of a program that is not
    /// shift-rule eligible.
    pub fn submit(
        &self,
        handle: &ProgramHandle,
        psi: &StateVector,
        request: Request,
        opts: &RequestOptions,
    ) -> Result<Response, QdpError> {
        self.validate(handle, psi, &request);
        let tenant = &*handle.tenant;
        let deadline = opts.deadline.map(|d| (Instant::now() + d, duration_ms(d)));
        let mut st = tenant.lock_state();

        // Backpressure: bound the queue before enqueueing.
        if let Some(max_pending) = self.config.max_pending {
            match self.config.overload {
                OverloadPolicy::RejectNewest => {
                    if st.pending.len() >= max_pending {
                        let pending = st.pending.len();
                        tenant.shed.fetch_add(1, Ordering::Relaxed);
                        return Err(QdpError::Overloaded { pending, max_pending });
                    }
                }
                OverloadPolicy::Block => {
                    while st.pending.len() >= max_pending {
                        st = match deadline {
                            None => tenant.wait(st),
                            Some((at, deadline_ms)) => {
                                let now = Instant::now();
                                if now >= at {
                                    tenant.expired.fetch_add(1, Ordering::Relaxed);
                                    return Err(QdpError::DeadlineExceeded { deadline_ms });
                                }
                                tenant.wait_timeout(st, at - now)
                            }
                        };
                    }
                }
            }
        }

        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.pending.push(Pending {
            ticket,
            input: psi.clone(),
            request,
            admitted: false,
            attempts: 0,
            max_retries: opts.max_retries,
        });

        loop {
            if let Some(out) = st.results.remove(&ticket) {
                return out;
            }
            let gate_open = st.pending.len() >= self.config.min_batch
                || st.pending.iter().any(|p| p.admitted);
            if !st.leader && !st.pending.is_empty() && gate_open {
                st.leader = true;
                if st.pending.iter().all(|p| !p.admitted) {
                    // The gate just opened on the threshold: everything
                    // queued right now is owed service, however the head
                    // groups split it. The flags ride the requests, so a
                    // later deadline removal stays exact.
                    for p in &mut st.pending {
                        p.admitted = true;
                    }
                }
                // Drain the head group: oldest request plus every pending
                // request compatible with it, in submission order.
                let mut group: Vec<Pending> = Vec::new();
                let mut rest: Vec<Pending> = Vec::new();
                for p in st.pending.drain(..) {
                    if group.is_empty() || compatible(&group[0].request, &p.request) {
                        group.push(p);
                    } else {
                        rest.push(p);
                    }
                }
                st.pending = rest;
                drop(st);

                let mut guard = LeaderGuard {
                    tenant,
                    armed: true,
                };
                // Containment: the injected service checkpoint and any
                // panic that escapes the sweep (worker-panic exhaustion)
                // become a typed error to publish — never an unwind past
                // the leader, never a stranded follower.
                let outcome: Result<Vec<Response>, QdpError> =
                    catch_unwind(AssertUnwindSafe(|| {
                        qdp_sim::fault::service_checkpoint();
                        run_group(&tenant.engine, &group)
                    }))
                    .map_err(|payload| QdpError::ServicePanic {
                        message: panic_message(payload.as_ref()),
                    });

                st = tenant.lock_state();
                match outcome {
                    Ok(outputs) => {
                        tenant.sweeps.fetch_add(1, Ordering::Relaxed);
                        tenant.served.fetch_add(group.len(), Ordering::Relaxed);
                        for (p, out) in group.iter().zip(outputs) {
                            st.results.insert(p.ticket, Ok(out));
                        }
                    }
                    Err(e) => {
                        tenant.leader_failures.fetch_add(1, Ordering::Relaxed);
                        // Bounded re-serve: members with retry budget left
                        // go back to the head of the queue still admitted
                        // (so a follow-up leader elects below the
                        // threshold); exhausted members fail typed.
                        let mut requeue: Vec<Pending> = Vec::new();
                        for mut p in group {
                            if p.attempts < p.max_retries {
                                p.attempts += 1;
                                p.admitted = true;
                                requeue.push(p);
                            } else {
                                st.results.insert(p.ticket, Err(e.clone()));
                            }
                        }
                        if !requeue.is_empty() {
                            requeue.append(&mut st.pending);
                            st.pending = requeue;
                        }
                    }
                }
                st.leader = false;
                guard.armed = false;
                tenant.ready.notify_all();
                continue;
            }
            st = match deadline {
                None => tenant.wait(st),
                Some((at, deadline_ms)) => {
                    let now = Instant::now();
                    if now >= at {
                        if let Some(pos) = st.pending.iter().position(|p| p.ticket == ticket) {
                            // Still queued: cancel exactly our own entry
                            // (its admitted flag leaves with it, keeping
                            // the carryover gate exact for followers).
                            st.pending.remove(pos);
                            tenant.expired.fetch_add(1, Ordering::Relaxed);
                            return Err(QdpError::DeadlineExceeded { deadline_ms });
                        }
                        // Drained into an active sweep: past cancellation.
                        // The leader owes us a publication (result, typed
                        // error, or a re-queue we can expire from), so
                        // wait for it — a torn batch would be worse than a
                        // late result.
                        tenant.wait(st)
                    } else {
                        tenant.wait_timeout(st, at - now)
                    }
                }
            };
        }
    }
}

/// Extracts the human-readable message from a panic payload (the two
/// payload shapes `panic!` produces, with a fallback for exotic ones).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Saturating milliseconds of a `Duration`, for the typed deadline error.
fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Runs one coalesced group as a single batched sweep and returns one
/// output per member, in group (submission) order. Worker-panic
/// exhaustion panics out of the engine's batched entry point, and the
/// leader's `catch_unwind` turns it into [`QdpError::ServicePanic`].
fn run_group(engine: &GradientEngine, group: &[Pending]) -> Vec<Response> {
    let rows: Vec<&StateVector> = group.iter().map(|p| &p.input).collect();
    match &group[0].request {
        Request::Value { params, obs } => {
            let batch = BatchedStates::gather(&rows);
            engine
                .value_pure_batch(params, obs, &batch)
                .into_iter()
                .map(Response::Value)
                .collect()
        }
        Request::Gradient { params, obs } => {
            let batch = BatchedStates::gather(&rows);
            engine
                .gradient_pure_batch(params, obs, &batch)
                .into_iter()
                .map(Response::Gradient)
                .collect()
        }
        Request::ShiftGradient { params, obs } => {
            let batch = BatchedStates::gather(&rows);
            engine
                .gradient_pure_shift_batch(params, obs, &batch)
                .into_iter()
                .map(Response::Gradient)
                .collect()
        }
        Request::ValueShots {
            params, obs, shots, ..
        } => {
            let inputs: Vec<StateVector> = group.iter().map(|p| p.input.clone()).collect();
            let row_seeds: Vec<u64> = group.iter().map(|p| request_seed(&p.request)).collect();
            engine
                .value_pure_shots_batch(params, obs, &inputs, *shots, &row_seeds)
                .into_iter()
                .map(Response::Value)
                .collect()
        }
        Request::GradientShots {
            params,
            obs,
            shots_per_param,
            ..
        } => {
            let inputs: Vec<StateVector> = group.iter().map(|p| p.input.clone()).collect();
            let row_seeds: Vec<u64> = group.iter().map(|p| request_seed(&p.request)).collect();
            engine
                .gradient_pure_shots_batch(params, obs, &inputs, *shots_per_param, &row_seeds)
                .into_iter()
                .map(Response::Gradient)
                .collect()
        }
    }
}

/// The per-client seed of a shot request (exact requests carry none).
fn request_seed(request: &Request) -> u64 {
    match request {
        Request::ValueShots { seed, .. } | Request::GradientShots { seed, .. } => *seed,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::parse_program;

    #[test]
    fn registration_deduplicates_structurally() {
        let service = GradientService::new();
        let p = parse_program("q1 *= RX(a); q1 *= RY(b)").unwrap();
        let same = parse_program("q1 *= RX(a); q1 *= RY(b)").unwrap();
        let other = parse_program("q1 *= RX(a); q1 *= RZ(b)").unwrap();
        let h1 = service.register(&p).unwrap();
        let h2 = service.register(&same).unwrap();
        let h3 = service.register(&other).unwrap();
        assert!(Arc::ptr_eq(&h1.tenant, &h2.tenant));
        assert!(!Arc::ptr_eq(&h1.tenant, &h3.tenant));
        assert_eq!(service.tenant_count(), 2);
    }

    #[test]
    fn solo_requests_match_direct_engine_calls() {
        let service = GradientService::new();
        let p = parse_program("q1 *= RX(a); q2 *= RY(b); q1, q2 *= RZZ(c)").unwrap();
        let handle = service.register(&p).unwrap();
        let engine = service.engine(&handle);
        let params = Params::from_pairs([("a", 0.3), ("b", -0.7), ("c", 1.9)]);
        let obs = Observable::pauli_z(2, 0);
        let psi = StateVector::zero_state(2);

        let v = service.expectation(&handle, &params, &obs, &psi);
        let direct_v = engine.value_pure_batch(
            &params,
            &obs,
            &BatchedStates::gather(&[&psi]),
        )[0];
        assert_eq!(v.to_bits(), direct_v.to_bits());

        let opts = RequestOptions::default();
        let g = service.gradient_with(&handle, &params, &obs, &psi, &opts).unwrap();
        let direct_g = engine.gradient_pure_batch(
            &params,
            &obs,
            &BatchedStates::gather(&[&psi]),
        );
        for (name, val) in &g {
            assert_eq!(val.to_bits(), direct_g[0][name].to_bits(), "∂/∂{name}");
        }

        let shift = Request::ShiftGradient { params: params.clone(), obs: obs.clone() };
        let Ok(Response::Gradient(gs)) = service.submit(&handle, &psi, shift, &opts) else {
            panic!("a shift-rule gradient answers a gradient");
        };
        for (name, val) in &g {
            assert!((gs[name] - val).abs() < 1e-10, "shift ∂/∂{name}");
        }
        assert_eq!(service.served(&handle), 3);
        assert_eq!(service.sweeps(&handle), 3);
    }

    #[test]
    #[should_panic(expected = "has no value")]
    fn missing_parameter_fails_fast_on_the_caller_thread() {
        let service = GradientService::new();
        let p = parse_program("q1 *= RX(a)").unwrap();
        let handle = service.register(&p).unwrap();
        let _ = service.expectation(
            &handle,
            &Params::new(),
            &Observable::pauli_z(1, 0),
            &StateVector::zero_state(1),
        );
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn mismatched_input_fails_fast_on_the_caller_thread() {
        let service = GradientService::new();
        let p = parse_program("q1 *= RX(a)").unwrap();
        let handle = service.register(&p).unwrap();
        let _ = service.expectation(
            &handle,
            &Params::from_pairs([("a", 0.2)]),
            &Observable::pauli_z(1, 0),
            &StateVector::zero_state(3),
        );
    }

    #[test]
    fn stale_flush_cannot_admit_a_later_lone_request() {
        let service = Arc::new(GradientService::with_admission(2));
        let p = parse_program("q1 *= RX(a)").unwrap();
        let handle = service.register(&p).unwrap();
        // Flush with nothing pending: must be a no-op, not a sticky flag.
        service.flush(&handle);

        let svc = Arc::clone(&service);
        let h = handle.clone();
        let worker = std::thread::spawn(move || {
            svc.expectation(
                &h,
                &Params::from_pairs([("a", 0.4)]),
                &Observable::pauli_z(1, 0),
                &StateVector::zero_state(1),
            )
        });
        // The lone request must stay queued below the threshold: the
        // pre-fix stale flush would have admitted it here.
        while service.pending_depth(&handle) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            service.served(&handle),
            0,
            "stale flush admitted a lone request below min_batch"
        );
        assert_eq!(service.pending_depth(&handle), 1);
        // A flush that actually covers the queued request releases it.
        service.flush(&handle);
        let v = worker.join().unwrap();
        let direct = service.engine(&handle).value_pure_batch(
            &Params::from_pairs([("a", 0.4)]),
            &Observable::pauli_z(1, 0),
            &BatchedStates::gather(&[&StateVector::zero_state(1)]),
        )[0];
        assert_eq!(v.to_bits(), direct.to_bits());
    }

    #[test]
    fn poisoned_tenant_lock_drains_queue_typed_and_recovers() {
        let service = Arc::new(GradientService::with_admission(3));
        let p = parse_program("q1 *= RX(a)").unwrap();
        let handle = service.register(&p).unwrap();
        let params = Params::from_pairs([("a", 0.9)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);

        // One queued request waiting below the threshold.
        let svc = Arc::clone(&service);
        let (h, pr, ob, ps) = (handle.clone(), params.clone(), obs.clone(), psi.clone());
        let waiter = std::thread::spawn(move || {
            svc.expectation_with(&h, &pr, &ob, &ps, &RequestOptions::default())
        });
        while service.pending_depth(&handle) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Poison the tenant lock from a thread that panics while holding
        // it — the failure mode the recovery path exists for.
        let tenant = Arc::clone(&handle.tenant);
        let poisoner = std::thread::spawn(move || {
            let _guard = tenant.state.lock().unwrap();
            panic!("injected poison");
        });
        assert!(poisoner.join().is_err());

        // The next acquisition recovers: the queued request fails typed
        // (flush locks the state, triggering recovery and the wakeup).
        service.flush(&handle);
        let err = waiter.join().unwrap().unwrap_err();
        assert!(
            matches!(err, QdpError::ServicePanic { .. }),
            "expected a typed poison-drain error, got {err:?}"
        );

        // And the tenant still serves fresh requests with correct bits.
        let svc = Arc::clone(&service);
        let (h, pr, ob, ps) = (handle.clone(), params.clone(), obs.clone(), psi.clone());
        let fresh = std::thread::spawn(move || {
            svc.expectation_with(&h, &pr, &ob, &ps, &RequestOptions::default())
        });
        while service.served(&handle) < 1 {
            service.flush(&handle);
            std::thread::sleep(Duration::from_millis(1));
        }
        let v = fresh.join().unwrap().unwrap();
        let direct = service.engine(&handle).value_pure_batch(
            &params,
            &obs,
            &BatchedStates::gather(&[&psi]),
        )[0];
        assert_eq!(v.to_bits(), direct.to_bits());
    }
}
