//! Deterministic fault injection for the fault-tolerance test suites.
//!
//! This module is **test instrumentation**: it lets a test poison
//! amplitudes at the Nth batched kernel call or panic a specific worker
//! tile, so the recovery machinery (panic isolation, health policies,
//! bounded retries) can be driven deterministically. It ships in the
//! library (integration tests link the crate as a dependency, where
//! `cfg(test)` is off), but when no fault is armed the only cost on a hot
//! path is one relaxed atomic load.
//!
//! Arming returns a [`FaultGuard`] that holds a global lock for its whole
//! lifetime, so tests that inject faults serialize against each other
//! automatically; dropping the guard disarms the plan.
//!
//! **Determinism.** Tile indices are stable under any thread count (they
//! are positions in the fan-out's input slice), so [`FaultSite::Tile`]
//! plans are deterministic everywhere. Kernel-call counting is a global
//! sequence number; it is deterministic only for workloads whose kernel
//! calls are serially ordered (single-tile batches, or
//! `QDP_PAR_THREADS=1`) — the fault suites use exactly those shapes for
//! [`FaultSite::Kernel`] plans.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How a poisoned row's amplitudes are corrupted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Overwrite the row's first amplitude with NaN.
    Nan,
    /// Overwrite the row's first amplitude with +∞.
    Inf,
    /// Multiply every amplitude of the row by the factor (norm drift).
    Scale(f64),
}

/// Where a fault fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSite {
    /// Poison row `row` after the `call`-th `BatchedStates::apply_gate`
    /// (0-based, counted from arming). Fires once.
    Kernel {
        /// Which kernel call (0-based since arming) to poison.
        call: usize,
        /// Which state row of the batch the call ran on to poison. A
        /// sampled sweep keeps one state row per class of trajectories
        /// known to carry bitwise the same state, so the fault reaches
        /// every member of that class. Each input row starts as the class
        /// of all its shots: before the first measurement, state row `r`
        /// is input row `r`.
        row: usize,
        /// The corruption to apply.
        kind: FaultKind,
    },
    /// Panic at the `index`-th tile checkpoint of a parallel fan-out, the
    /// first `panics` times that tile runs (so bounded retries can be
    /// proven to heal — or to exhaust).
    Tile {
        /// Tile index in the fan-out's input slice.
        index: usize,
        /// How many times the tile panics before succeeding.
        panics: usize,
    },
    /// Panic at the service-leader checkpoint — the start of a coalesced
    /// sweep in `qdp_ad::GradientService` — the first `panics` times a
    /// leader reaches it. Drives the leader-failure containment suite:
    /// `panics = 1` proves a follow-up leader re-serves the group,
    /// `panics > retry budget` proves followers get typed errors instead
    /// of hanging.
    Service {
        /// How many successive leader sweeps panic before one succeeds.
        panics: usize,
    },
}

struct Plan {
    site: FaultSite,
    /// Kernel calls observed since arming.
    kernel_calls: usize,
    /// How many times the fault has fired.
    fired: usize,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Plan>> = Mutex::new(None);
/// Serializes tests that inject faults (held by [`FaultGuard`]).
static INJECTION_LOCK: Mutex<()> = Mutex::new(());

fn plan() -> MutexGuard<'static, Option<Plan>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps an injected fault armed; disarms on drop. Holding the guard also
/// holds the global injection lock, so concurrently running tests cannot
/// observe each other's faults.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *plan() = None;
    }
}

/// Arms a fault plan. The returned guard must be kept alive for the
/// duration of the faulty run and dropped to disarm.
pub fn inject(site: FaultSite) -> FaultGuard {
    let lock = INJECTION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    *plan() = Some(Plan { site, kernel_calls: 0, fired: 0 });
    ARMED.store(true, Ordering::Release);
    FaultGuard { _lock: lock }
}

/// How many times the armed fault has fired (0 when disarmed). Lets tests
/// assert that a fault actually triggered and how often retries re-hit it.
pub fn fired_count() -> usize {
    plan().as_ref().map_or(0, |p| p.fired)
}

/// Hook called by `BatchedStates::apply_gate` after each kernel
/// invocation. `re`/`im` are the full `rows × 2ⁿ` split amplitude planes.
#[inline]
pub(crate) fn kernel_checkpoint(n_qubits: usize, rows: usize, re: &mut [f64], im: &mut [f64]) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = plan();
    let Some(p) = guard.as_mut() else { return };
    let FaultSite::Kernel { call, row, kind } = p.site else { return };
    let seen = p.kernel_calls;
    p.kernel_calls += 1;
    if seen != call || p.fired > 0 || row >= rows {
        return;
    }
    p.fired += 1;
    let dim = 1usize << n_qubits;
    let row_re = &mut re[row * dim..(row + 1) * dim];
    let row_im = &mut im[row * dim..(row + 1) * dim];
    match kind {
        FaultKind::Nan => {
            row_re[0] = f64::NAN;
            row_im[0] = 0.0;
        }
        FaultKind::Inf => {
            row_re[0] = f64::INFINITY;
            row_im[0] = 0.0;
        }
        FaultKind::Scale(factor) => {
            // Matches `C64 * f64` componentwise, so the drift is the exact
            // scaling the AoS hook produced.
            for (ar, ai) in row_re.iter_mut().zip(row_im.iter_mut()) {
                *ar *= factor;
                *ai *= factor;
            }
        }
    }
}

/// Hook called at the top of each parallel tile closure with the tile's
/// deterministic index. Panics when an armed [`FaultSite::Tile`] plan
/// targets this tile and still has panics to spend. Public (like
/// [`service_checkpoint`]) because `qdp_ad`'s shift-rule and shot-gradient
/// fan-outs call it too.
#[inline]
pub fn tile_checkpoint(tile: usize) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let should_panic = {
        let mut guard = plan();
        match guard.as_mut() {
            Some(p) => {
                let FaultSite::Tile { index, panics } = p.site else { return };
                if index == tile && p.fired < panics {
                    p.fired += 1;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    };
    if should_panic {
        panic!("injected fault: tile {tile} panicked");
    }
}

/// Hook called by `qdp_ad::GradientService` at the start of each coalesced
/// leader sweep. Public (unlike the in-crate kernel hook) because the
/// service lives in a downstream crate. Panics while an armed
/// [`FaultSite::Service`] plan still has panics to spend.
#[inline]
pub fn service_checkpoint() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let should_panic = {
        let mut guard = plan();
        match guard.as_mut() {
            Some(p) => {
                let FaultSite::Service { panics } = p.site else { return };
                if p.fired < panics {
                    p.fired += 1;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    };
    if should_panic {
        panic!("injected fault: leader sweep panicked");
    }
}
