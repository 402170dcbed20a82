//! Batched trajectory execution — **sampled, exact and adjoint** sweeps
//! over [`BatchedStates`], on one branching IR and one branch walker.
//!
//! [`TrajProgram`] is the single lowered form every branching program runs
//! as. Every sweep is one depth-first walk over the program's tree of
//! measurement branches: the walker (`Walker`) steps the ops, streams each
//! gate over the whole group as one batched kernel call, enters `case`
//! arms through stack-linked continuation frames, and forks the group at
//! every measurement. It is generic, and monomorphised, over two things:
//!
//! * **The fork rule** — how a group splits at a measurement.
//!   - *Weighted* (`WeightedFork`, the exact sweeps): every row forks into
//!     **every** surviving outcome, and the sub-groups carry their branch
//!     weights (probabilities, riding inside the unnormalised amplitudes).
//!     This is exact branch enumeration at batched-kernel speed. The rule
//!     carries the health surface: per-fork trace checks with oracle
//!     fallback ([`ShotEngine::with_health`]).
//!   - *Sampled* (`SampledFork`, Section 7's shot-noise model): every
//!     shot draws one outcome from its own stream, and shots are regrouped
//!     into outcome-homogeneous sub-batches (*branch-grouped batching*),
//!     so a Chernoff budget of `O(m²/δ²)` trajectories executes as batched
//!     kernel calls instead of one state at a time. Trajectories known to
//!     carry bitwise the same state **share one amplitude row** (a
//!     *class*): each input row starts as the class of all its shots, and a
//!     measurement splits a class only by what its members drew. A shot
//!     block therefore simulates each distinct trajectory once instead of
//!     once per shot, and the input is never copied per shot. It carries
//!     the same health checks, against each shot's expected norm.
//! * **The action** — what the walk does at leaves, aborts and forks.
//!   - The exact read-out sum ([`ShotEngine::expectation_sweep`]): one
//!     batched read-out pass per leaf group adds `⟨ψleaf|O|ψleaf⟩` to its
//!     rows; `qdp_ad` sweeps every exact forward value and every multiset
//!     this way, one program after another, unmonitored. The
//!     [`leaf_weights`] view collects the leaf weights instead.
//!   - The sampled finished and aborted lists ([`ShotEngine::run`],
//!     [`ShotEngine::sample_sweep`]): the leaf groups are kept, then read
//!     out per shot (or returned as trajectories).
//!   - The adjoint ([`AdjointProgram::gradient_sweep`], the production
//!     exact gradient): it records every gate of the open segments, keeps
//!     the block each fork forked, sets the costate `λ = Oφ` at a leaf, and
//!     walks each segment backward once its subtree has run, joining the
//!     outcomes' costates at each fork and reading out every parameter's
//!     derivative at once. Each parameter's derivative multiset swept
//!     program by program is its oracle.
//!
//!   [`leaf_weights`]: ShotEngine::leaf_weights
//!
//! **Fusion** is the walk's, decided per action: the exact sweeps fuse
//! commuting single-qubit gates per qubit into one 2×2 product (flushed at
//! measurements, at multi-qubit gates on that qubit and at leaves), and
//! their runs continue across `case` joins; [`ShotEngine::sample_sweep`]
//! fuses the same way; [`ShotEngine::run`], the bitwise reference, and
//! the adjoint apply (and the adjoint records) every gate unfused. The
//! per-row oracles stay outside the walker: `replay_trajectory` (one shot
//! on a single state, serial sampler) and `exact_reference_from` (per-row
//! branch enumeration), which [`HealthPolicy::DegradeToOracle`] replays
//! defected rows on.
//!
//! A program's parameterised gates may name entries of a matrix table
//! instead of holding their own matrices
//! ([`TrajProgram::push_table_gate`]): each program is built once and
//! bound per call to one table of that valuation's matrices
//! ([`ShotEngine::bound`], and the [`ParamGate`] table of
//! [`AdjointProgram::gradient_sweep`]), so evaluating a valuation clones
//! no program. The adjoint runs on the same programs: a fixed gate's `U†`
//! and a measurement's `M_m†` are built once per program, the first time
//! an adjoint sweep reads them.
//!
//! Measurements are **block-level** under both fork rules: one bucketed
//! probability sweep over the whole group's contiguous amplitude block
//! ([`Measurement::branch_probabilities_block`]), one strided collapse
//! pass per surviving outcome ([`Measurement::collapse_block_into`]), and
//! a pooled `RegroupScratch` arena recycling every buffer a fork needs —
//! so a measurement performs no per-row kernel calls and, once the pools
//! are warm, no allocations at all.
//!
//! # Determinism contract
//!
//! Sampled sweeps: every shot owns an independent stream, named by its
//! [`ShotStream`]: its `k`-th draw is the `k`-th uniform of
//! `ShotSampler::derived(seed, index)`, read at depth `k`, after `k`
//! measurements. The sweep never steps a generator per shot: it reads draw
//! `k` of every shot off plane `k` of its [`ShotVariates`], seeded and
//! filled in vector passes that carry the sampler's bits, and the serial
//! [`ShotSampler`] stays the oracle. Measurement collapse goes through the
//! same [`collapse_with_draw`] the
//! serial sampler uses, gate streaming goes through
//! [`BatchedStates::apply_gate`] (bit-for-bit equal to per-row
//! application), and regrouping preserves shot order within each outcome —
//! so a batched sweep produces **bitwise** the same outcomes and collapsed
//! states as running each shot alone on its input with the same stream,
//! no matter how inputs are grouped or how many threads run the kernels.
//! `crates/core/tests/shot_engine_differential.rs` is the oracle.
//!
//! Row sharing keeps that contract by construction, not by rounding luck.
//! Members of a class start from one row, and every gate is a per-row
//! function of the row's bits. At a measurement each member still draws
//! from **its own** stream against its class's probabilities, which are
//! the ones its own row would have produced. Members are then split by
//! (class, outcome, slack flag), and each sub-class is collapsed and
//! rescaled once. The rescale (`rescale_collapsed`) reads only the
//! class's `(p, total)` and the slack flag, so every member of a sub-class
//! gets the bits its own row would have carried. Distinct inputs of one
//! shot each are the case of one member per class.
//!
//! # Per-shot layout
//!
//! A sampled sweep's per-shot work is only each shot's own draws. A
//! member is two `u32`s, its shot and its class. A measurement makes one
//! pass over a group's members, run by run of one class: eight members at
//! a time load their uniforms off the plane of the group's depth, select
//! their outcomes against the class's probability row with the serial
//! `r -= p` chain, one lane each, picked without a data-dependent branch,
//! and join their outcomes' buckets keyed by (class, slack flag); `p` and
//! `total` stay in the class's rows. The buckets are a stable distribution
//! sort, so each keeps shot order, and one pass over each numbers its
//! sub-classes by first member; a bucket becomes its child group's member
//! list. The read-out is one draw off the next plane and one branch-free
//! selection per member against its class's row of the group's
//! probability table, eight lanes at a time.
//!
//! Exact sweeps, the adjoint's among them, are deterministic, full stop:
//! per-row results are a pure
//! function of the program and that row's input, **bit-for-bit invariant
//! under thread count, batch decomposition, and row order** (every
//! batched kernel call and leaf read-out performs per-row-identical
//! floating-point operations, and each row's leaves accumulate in its own
//! depth-first branch order). Against the per-row branch enumerator they
//! agree to ≪ 1e-12 (fusion and leaf-order differences move rounding,
//! nothing else) — `crates/core/tests/branch_weighted_differential.rs` is
//! the oracle.

use crate::batch::BatchedStates;
use crate::error::{HealthConfig, HealthPolicy, QdpError};
use crate::measurement::Measurement;
use crate::observable::Observable;
use crate::sampling::{
    collapse_with_draw, select_counts, ProjectiveObservable, ShotSampler, ShotStream, ShotVariates,
    SELECT_LANES,
};
use crate::state::StateVector;
use qdp_linalg::{C64, Matrix};
use std::sync::{Arc, OnceLock};

/// Shots per parallel tile of [`estimate_batch`].
///
/// Fixed (not derived from the thread count) so the tile partition — and
/// with it every drawn value and every rounding order — is identical under
/// any `qdp_par` configuration.
pub const SHOT_TILE: usize = 256;

/// Rows per parallel tile of the exact branch-weighted sweep
/// ([`ShotEngine::expectation_sweep`]) once its work pays for a fork.
/// Smaller than [`SHOT_TILE`] because exact batches are datasets (tens of
/// rows), not shot blocks: the tile must be small enough that one large
/// branching program over one training batch still fans out across
/// workers. Fixed for a predictable partition; per-row bits do not depend
/// on it.
pub const EXACT_TILE: usize = 8;

/// Bounded retry budget for panicked worker tiles, shared by every
/// `qdp_par` fan-out of the workspace: a tile is re-run up to this many
/// extra times (bit-identically — tiles are pure functions of their
/// inputs) before its failure surfaces as [`QdpError::WorkerPanic`]. Two
/// retries heal any transient fault the fault-injection suite models.
pub const TILE_RETRIES: usize = 2;

/// Where a gate of a [`TrajProgram`] takes its matrix from.
#[derive(Clone, Debug)]
enum TrajMatrix {
    /// Its own matrix, built with the program, and its adjoint `U†`,
    /// which [`AdjointProgram::build`] fills once per program.
    Own { matrix: Matrix, adjoint: OnceLock<Matrix> },
    /// Entry `i` of the table the program's engine is bound to
    /// ([`ShotEngine::bound`]).
    Table(usize),
}

impl TrajMatrix {
    /// The matrix, read from `table` for a table gate.
    ///
    /// # Panics
    ///
    /// Panics when `table` has no entry the gate names.
    #[inline]
    fn get<'a, T: GateTable + ?Sized>(&'a self, table: &'a T) -> &'a Matrix {
        match self {
            TrajMatrix::Own { matrix, .. } => matrix,
            TrajMatrix::Table(i) => table.entry(*i),
        }
    }
}

/// The per-call table a walk's table gates read: the bound engine's
/// matrices, or an adjoint sweep's [`ParamGate`]s.
trait GateTable {
    fn entry(&self, i: usize) -> &Matrix;
}

impl GateTable for [Matrix] {
    fn entry(&self, i: usize) -> &Matrix {
        &self[i]
    }
}

impl GateTable for [ParamGate] {
    fn entry(&self, i: usize) -> &Matrix {
        &self[i].matrix
    }
}

/// A measurement of a [`TrajProgram`] with the adjoint `M_m†` of each
/// operator, which pulls a costate back through outcome `m`; like a fixed
/// gate's `U†`, [`AdjointProgram::build`] fills them once per program.
#[derive(Clone, Debug)]
struct TrajMeasurement {
    meas: Measurement,
    adjoints: OnceLock<Vec<Matrix>>,
}

impl TrajMeasurement {
    fn adjoint(&self, outcome: usize) -> &Matrix {
        &self.adjoints.get_or_init(|| self.meas.operators().iter().map(Matrix::dagger).collect())
            [outcome]
    }
}

/// One operation of a sampled-trajectory program.
#[derive(Clone, Debug)]
enum TrajOp {
    /// An operator application.
    Gate {
        matrix: TrajMatrix,
        targets: Vec<usize>,
    },
    /// `q := |0⟩`, sampled: measure `q` and flip on outcome 1.
    Init {
        meas: TrajMeasurement,
        flip: Matrix,
        target: usize,
    },
    /// A measurement branching over per-outcome arm programs.
    Case {
        meas: TrajMeasurement,
        arms: Vec<TrajProgram>,
    },
    /// Drop the trajectory.
    Abort,
}

/// A trajectory program: the form every branching program runs as, in
/// both the sampled and the exact sweeps.
///
/// Built through the `push_*` methods, either with every matrix its own
/// ([`push_gate`](Self::push_gate), a fixed valuation) or with
/// parameterised gates naming entries of a per-call table
/// ([`push_table_gate`](Self::push_table_gate)): `qdp_ad::LoweredSet::lower`
/// builds each program once this way, straight from its AST, for every
/// valuation. The sampled semantics
/// mirror `qdp_ad::estimator::sample_trajectory` op for op: `Init`
/// measures the target and applies `X` on outcome 1, `Case` draws one
/// outcome from the Born rule and continues into that arm.
#[derive(Clone, Debug, Default)]
pub struct TrajProgram {
    ops: Vec<TrajOp>,
}

impl TrajProgram {
    /// An empty (skip) program.
    pub fn new() -> Self {
        TrajProgram::default()
    }

    /// Appends an operator application.
    pub fn push_gate(&mut self, matrix: Matrix, targets: Vec<usize>) {
        self.ops.push(TrajOp::Gate {
            matrix: TrajMatrix::Own { matrix, adjoint: OnceLock::new() },
            targets,
        });
    }

    /// Appends an operator application whose matrix is entry `entry` of
    /// the table the program's engine is bound to ([`ShotEngine::bound`]).
    /// A program built with [`push_gate`](Self::push_gate) alone needs no
    /// table.
    pub fn push_table_gate(&mut self, entry: usize, targets: Vec<usize>) {
        self.ops.push(TrajOp::Gate {
            matrix: TrajMatrix::Table(entry),
            targets,
        });
    }

    /// Appends a `q := |0⟩` reset of qubit `target` (measure + conditional
    /// flip — the sampled form of the reset channel).
    pub fn push_init(&mut self, target: usize) {
        self.ops.push(TrajOp::Init {
            meas: TrajMeasurement {
                meas: Measurement::computational(vec![target]),
                adjoints: OnceLock::new(),
            },
            flip: Matrix::pauli_x(),
            target,
        });
    }

    /// Appends a measurement case: `meas` is sampled once per trajectory
    /// and execution continues into `arms[outcome]`.
    ///
    /// # Panics
    ///
    /// Panics when the arm count does not match the outcome count.
    pub fn push_case(&mut self, meas: Measurement, arms: Vec<TrajProgram>) {
        assert_eq!(
            meas.num_outcomes(),
            arms.len(),
            "one arm per measurement outcome"
        );
        let meas = TrajMeasurement { meas, adjoints: OnceLock::new() };
        self.ops.push(TrajOp::Case { meas, arms });
    }

    /// Appends an abort: trajectories reaching it are dropped.
    pub fn push_abort(&mut self) {
        self.ops.push(TrajOp::Abort);
    }

    /// Number of top-level operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Number of operations including every `Case` arm's — the ops the
    /// exact sweep, which follows every arm, executes at most.
    pub fn op_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                TrajOp::Case { arms, .. } => {
                    1 + arms.iter().map(TrajProgram::op_count).sum::<usize>()
                }
                _ => 1,
            })
            .sum()
    }

    /// Whether the program is a bare `skip`.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The op slices a sweep resumes once its current slice is exhausted: the
/// rest of each enclosing `case`, innermost first. Frames live on the
/// call stack of the recursion that enters the arms, so entering an arm
/// allocates nothing.
#[derive(Clone, Copy)]
struct Cont<'c, 'p> {
    ops: &'p [TrajOp],
    outer: Option<&'c Cont<'c, 'p>>,
}

/// The result of one sampled trajectory (one shot).
#[derive(Clone, Debug)]
pub struct TrajectoryRow {
    /// The final collapsed state, or `None` when the trajectory aborted.
    pub state: Option<StateVector>,
    /// Every measurement outcome drawn along the trajectory, in program
    /// order (`Init` resets included).
    pub outcomes: Vec<usize>,
}

/// A trajectory in flight: its shot index (shots are numbered row-major
/// over the sweep's input rows) and its class, the state row of its group
/// it shares with the trajectories known to carry bitwise the same state.
/// A sweep runs at most [`MAX_SWEEP_SHOTS`] shots, so both fit in `u32`
/// with a bit to spare for the slack flag a fork keys its buckets by.
#[derive(Clone, Copy, Debug)]
struct Member {
    shot: u32,
    class: u32,
}

/// The most shots one sampled sweep runs (see [`Member`]).
const MAX_SWEEP_SHOTS: usize = (u32::MAX >> 1) as usize;

impl Member {
    fn shot(self) -> usize {
        self.shot as usize
    }

    fn class(self) -> usize {
        self.class as usize
    }
}

/// An outcome-homogeneous group of trajectories evolving together under
/// the **sampled** executor.
///
/// Trajectories known to carry bitwise the same state share one amplitude
/// row — a *class*: `states` holds one row per class and `members` maps
/// every trajectory to its class. Classes are numbered in the order of their
/// first member, and members stay in ascending shot order, so a class's
/// first member is its lowest shot. The group is
/// outcome-homogeneous, so one outcome history serves every member.
/// Sharing never changes a bit: see the module's determinism contract.
struct Group {
    /// One state row per class.
    states: BatchedStates,
    /// Every measurement outcome the members drew, in program order.
    outcomes: Vec<usize>,
    members: Vec<Member>,
    /// Fused-mode state: per qubit, the pending product of
    /// not-yet-applied single-qubit gates (`pending[q] = g_k · … · g_1` in
    /// program order), held as a stack 2×2 so fusing a gate never touches
    /// the heap. Always empty in bitwise (unfused) mode.
    pending: Vec<Option<[C64; 4]>>,
}

/// The 2×2 operator as a stack array — how the fusion path reads a 1q gate
/// matrix without cloning it.
#[inline]
fn mat2(m: &Matrix) -> [C64; 4] {
    let s = m.as_slice();
    debug_assert_eq!(s.len(), 4, "1q gates are 2x2");
    [s[0], s[1], s[2], s[3]]
}

/// The 2×2 product `a · b` on stack arrays, replicating
/// [`Matrix::mul`]'s accumulation order (including its zero-entry skip)
/// exactly — fused products carry the identical bits the heap path
/// produced, with zero allocation.
#[inline]
fn mul2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    let mut out = [C64::ZERO; 4];
    for i in 0..2 {
        for k in 0..2 {
            let aik = a[i * 2 + k];
            if aik == C64::ZERO {
                continue;
            }
            let ro = i * 2;
            let rb = k * 2;
            out[ro] = out[ro].mul_add(aik, b[rb]);
            out[ro + 1] = out[ro + 1].mul_add(aik, b[rb + 1]);
        }
    }
    out
}

/// Applies the pending 1q products of `targets` (ascending qubit order,
/// deterministically), as one batched kernel call each, through the
/// walk's reusable 2×2 `gate` scratch (no per-flush heap traffic).
fn flush_targets(
    states: &mut BatchedStates,
    pending: &mut [Option<[C64; 4]>],
    targets: &[usize],
    gate: &mut Matrix,
) {
    // Multi-qubit gates in the pipeline have two targets; sort on the
    // stack and only spill for exotic hand-built operators.
    let mut small = [0usize; 2];
    let mut spilled: Vec<usize>;
    let ts: &[usize] = if targets.len() <= 2 {
        small[..targets.len()].copy_from_slice(targets);
        small[..targets.len()].sort_unstable();
        &small[..targets.len()]
    } else {
        spilled = targets.to_vec();
        spilled.sort_unstable();
        &spilled
    };
    for &t in ts {
        if let Some(m) = pending[t].take() {
            gate.as_mut_slice().copy_from_slice(&m);
            states.apply_gate(gate, &[t]);
        }
    }
}

/// Applies every pending product (ascending qubit order).
fn flush_all(states: &mut BatchedStates, pending: &mut [Option<[C64; 4]>], gate: &mut Matrix) {
    for (t, slot) in pending.iter_mut().enumerate() {
        if let Some(m) = slot.take() {
            gate.as_mut_slice().copy_from_slice(&m);
            states.apply_gate(gate, &[t]);
        }
    }
}

/// Branches whose accumulated weight (unnormalised squared norm) is at or
/// below this threshold are pruned by the exact branch-weighted sweep —
/// the same constant `qdp_lang::denot::run_pure_branches` and the per-row
/// branch enumerators use, so pruning decisions line up across executors.
pub const BRANCH_PRUNE: f64 = 1e-24;

/// A row in flight of the **exact** branch-weighted sweep: its original
/// batch index and the accumulated branch weight — the squared norm of its
/// unnormalised state, i.e. the probability of the measurement history
/// that produced it (times the input row's own squared norm). This is the
/// weight-carrying counterpart of the sampled executor's [`Member`]: where
/// a sampled group records the outcomes its rows drew, a weighted row
/// records how much probability mass its branch carries. Exact rows never
/// share a state row: each carries its own weight.
#[derive(Clone, Debug)]
struct WeightedRow {
    orig: usize,
    weight: f64,
}

/// An outcome-homogeneous group of weighted rows evolving together under
/// the **exact** executor. Gates always fuse (the exact path has no
/// bitwise-reference mode — its oracle is the per-row branch enumerator,
/// pinned at 1e-12).
struct WeightedGroup {
    states: BatchedStates,
    rows: Vec<WeightedRow>,
    pending: Vec<Option<[C64; 4]>>,
}

/// Reusable scratch of the block-level regrouping machinery: the
/// probability table, per-row records, and pooled buffers every fork
/// needs. One arena lives per thread ([`SCRATCH`]), shared by every sweep
/// that runs on it, so once the first forks warm the pools a measurement
/// performs **zero per-row and zero per-fork allocations** — buffers flow
/// from spent parent groups back into new child groups, double-buffered:
/// a parent's amplitude block is the read side of the collapse passes
/// while its children's blocks are the write side, and it returns to the
/// pool the moment the children exist. Scratch contents never influence
/// results, so the reuse is invisible to the determinism contract.
#[derive(Default)]
struct RegroupScratch {
    /// Total capacity (in amplitudes) currently held by `blocks`.
    pooled_amps: usize,
    /// Blocks `take_block` handed out that have not come back. The pool
    /// takes back at most these, so a block a caller donates (every
    /// sweep's root block ends up offered) is freed instead of staying
    /// pinned in the thread's arena.
    lent: usize,
    /// `rows × outcomes` branch-probability table of the current fork (or
    /// `rows × pairs` read-out table of the current leaf group).
    probs: Vec<f64>,
    /// Per-row squared norms of the current fork or read-out group.
    totals: Vec<f64>,
    /// Per outcome of the current fork, the members that drew it, each
    /// with its class shifted left by one and its slack flag in bit 0
    /// until the sub-classes are numbered (sampled mode). Emptied by every
    /// fork: the buckets become the children's member lists.
    buckets: Vec<Vec<Member>>,
    /// Parent-block indices of the rows surviving into the outcome under
    /// construction (sampled mode: the parent class of each sub-class).
    selected: Vec<usize>,
    /// The slack flag each sub-class of the outcome under construction
    /// rescales with (sampled mode).
    sub_slack: Vec<bool>,
    /// Sub-class index of each (parent class, slack flag) pair in the
    /// outcome under construction, or `u32::MAX` (sampled mode).
    class_slot: Vec<u32>,
    /// `rows × outcomes` keep flags of the current fork (exact mode).
    keep: Vec<bool>,
    /// Pooled amplitude-plane pairs (`re`, `im`).
    blocks: Vec<(Vec<f64>, Vec<f64>)>,
    /// Pooled pending-product tables.
    pendings: Vec<Vec<Option<[C64; 4]>>>,
    /// Pooled weighted row lists (exact mode).
    weighted_rows: Vec<Vec<WeightedRow>>,
    /// Pooled sampled member lists.
    sampled_rows: Vec<Vec<Member>>,
    /// Pooled sampled outcome histories.
    histories: Vec<Vec<usize>>,
    /// Pooled fork child lists (exact mode).
    weighted_forks: Vec<Vec<(usize, WeightedGroup)>>,
    /// Pooled fork child lists (sampled mode).
    sampled_forks: Vec<Vec<(usize, Group)>>,
    /// The pooled state and plane buffers of a sweep's [`ShotVariates`].
    variates: (Vec<u64>, Vec<f64>),
}

/// Upper bound on every [`RegroupScratch`] pool: enough that real branch
/// trees never miss (a fork holds a handful of buffers per outcome times
/// the tree depth), while the pools cannot accumulate without bound
/// across the thread's lifetime.
const SCRATCH_POOL_CAP: usize = 64;

/// Upper bound on the **amplitudes retained** by a thread's pooled blocks
/// (`4 Mi` amplitudes = two 32 MiB planes): large-register sweeps still
/// recycle a few big blocks through their own forks, but a long-lived
/// thread cannot stay pinned at the footprint of the largest sweep it ever
/// ran.
const SCRATCH_POOL_AMPS: usize = 1 << 22;

/// Pushes onto a pool unless it is at [`SCRATCH_POOL_CAP`] (the buffer is
/// dropped instead).
fn pool_give<T>(pool: &mut Vec<T>, item: T) {
    if pool.len() < SCRATCH_POOL_CAP {
        pool.push(item);
    }
}

impl RegroupScratch {
    fn take_block(&mut self) -> (Vec<f64>, Vec<f64>) {
        self.lent += 1;
        let (re, im) = self.blocks.pop().unwrap_or_default();
        self.pooled_amps -= re.capacity().max(im.capacity());
        (re, im)
    }

    fn give_block(&mut self, (mut re, mut im): (Vec<f64>, Vec<f64>)) {
        if self.lent == 0 {
            return;
        }
        self.lent -= 1;
        let amps = re.capacity().max(im.capacity());
        if self.blocks.len() >= SCRATCH_POOL_CAP || self.pooled_amps + amps > SCRATCH_POOL_AMPS {
            return;
        }
        re.clear();
        im.clear();
        self.pooled_amps += amps;
        self.blocks.push((re, im));
    }

    fn take_pending(&mut self, n_qubits: usize) -> Vec<Option<[C64; 4]>> {
        let mut pending = self.pendings.pop().unwrap_or_default();
        pending.clear();
        pending.resize(n_qubits, None);
        pending
    }

    /// Reclaims a spent **exact** group's buffers into the pools.
    fn reclaim_weighted(&mut self, group: WeightedGroup) {
        let WeightedGroup { states, mut rows, pending } = group;
        self.give_block(states.into_raw());
        rows.clear();
        pool_give(&mut self.weighted_rows, rows);
        pool_give(&mut self.pendings, pending);
    }

    /// A copy of an **exact** group in pooled buffers: the block an
    /// adjoint sweep keeps where it forks.
    fn copy_weighted(&mut self, group: &WeightedGroup) -> WeightedGroup {
        let states = self.copy_states(&group.states);
        let mut rows = self.weighted_rows.pop().unwrap_or_default();
        rows.extend_from_slice(&group.rows);
        let mut pending = self.pendings.pop().unwrap_or_default();
        pending.clear();
        pending.extend_from_slice(&group.pending);
        WeightedGroup {
            states,
            rows,
            pending,
        }
    }

    /// A copy of `states` in a pooled block.
    fn copy_states(&mut self, states: &BatchedStates) -> BatchedStates {
        let (mut re, mut im) = self.take_block();
        let (src_re, src_im) = states.planes();
        re.extend_from_slice(src_re);
        im.extend_from_slice(src_im);
        BatchedStates::from_raw(states.len(), states.num_qubits(), re, im)
    }

    /// An empty outcome history.
    fn take_history(&mut self) -> Vec<usize> {
        let mut history = self.histories.pop().unwrap_or_default();
        history.clear();
        history
    }

    /// Reclaims a spent **sampled** group's buffers into the pools.
    fn reclaim_sampled(&mut self, group: Group) {
        let Group { states, outcomes, mut members, pending } = group;
        self.give_block(states.into_raw());
        members.clear();
        pool_give(&mut self.sampled_rows, members);
        pool_give(&mut self.histories, outcomes);
        pool_give(&mut self.pendings, pending);
    }
}

thread_local! {
    /// The per-thread regroup arena. The serial paths, and the `qdp_par`
    /// pool workers, which live as long as the process, keep their pools
    /// warm across calls and forks.
    static SCRATCH: std::cell::RefCell<RegroupScratch> =
        std::cell::RefCell::new(RegroupScratch::default());
}

/// The Born-rule selection of [`collapse_with_draw`] on a pre-computed
/// probability row, from the selection count [`select_counts`] took for
/// the draw: the first outcome that drives `r` non-positive, and under
/// floating-point slack (`first == probs.len()`) the last outcome with
/// support (`true` in the second slot: the rescale then skips the
/// `(total/p).sqrt()` blow-up). A NaN never compares non-positive, as in
/// the early-exit walk.
///
/// # Panics
///
/// Panics when no branch has support.
#[inline]
fn select_branch(first: usize, probs: &[f64]) -> (usize, bool) {
    if first < probs.len() {
        return (first, false);
    }
    // The walk only falls through when `total > 0`, so at least one branch
    // probability is positive unless the row holds NaN.
    #[allow(clippy::expect_used)]
    let outcome = probs.iter().rposition(|&p| p > 0.0).expect("no branch has support");
    (outcome, true)
}

/// The draws of up to [`SELECT_LANES`] members off `plane`, one lane each;
/// lanes past the members draw 0 and are ignored.
#[inline(always)]
fn draws_of(members: &[Member], plane: &[f64]) -> [f64; SELECT_LANES] {
    let mut us = [0.0; SELECT_LANES];
    for (u, m) in us.iter_mut().zip(members) {
        *u = plane[m.shot()];
    }
    us
}

/// Replays, in place on one freshly collapsed destination row, the
/// rescaling [`collapse_with_draw`] applies to the selected branch, of
/// probability `p`, of a row of squared norm `total`: the
/// `(total/p).sqrt()` blow-up (skipped on the slack path, and — like the
/// serial path — skipped entirely together with the renormalisation when
/// the drawn probability is zero), then the renormalisation to the parent
/// norm. The identical complex scalar multiplies over the identical full
/// row ([`StateVector::scale`], transcribed onto the planes) and the
/// identical lane-split norm fold ([`StateVector::norm_sqr`]), so the row
/// carries the serial path's bits.
fn rescale_collapsed(re: &mut [f64], im: &mut [f64], p: f64, total: f64, slack: bool) {
    if !slack {
        if p <= 0.0 {
            return;
        }
        scale_planes(re, im, C64::real((total / p).sqrt().min(1e150)));
    }
    let norm = crate::lanes::sum_norm_sqr(re, im).sqrt();
    if norm > 0.0 {
        scale_planes(re, im, C64::real(total.sqrt() / norm));
    }
}

/// [`StateVector::scale`] transcribed onto borrowed planes: the full
/// complex multiply per amplitude — not a componentwise shortcut, whose
/// signed zeros would differ from the serial path's.
fn scale_planes(re: &mut [f64], im: &mut [f64], s: C64) {
    for (ar, ai) in re.iter_mut().zip(im.iter_mut()) {
        let z = C64::new(*ar, *ai) * s;
        *ar = z.re;
        *ai = z.im;
    }
}

/// The batched shot-noise executor for one [`TrajProgram`], bound to the
/// matrix table its table gates read ([`bound`](Self::bound)).
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::{BatchedStates, ShotEngine, ShotStream, TrajProgram};
///
/// // H then a computational measurement: every shot collapses to a basis
/// // state recorded in its outcome history.
/// let mut p = TrajProgram::new();
/// p.push_gate(Matrix::hadamard(), vec![0]);
/// p.push_case(
///     qdp_sim::Measurement::computational(vec![0]),
///     vec![TrajProgram::new(), TrajProgram::new()],
/// );
/// let engine = ShotEngine::new(p);
/// let streams: Vec<ShotStream> = (0..8).map(|index| ShotStream { seed: 1, index }).collect();
/// // Eight shots of one input row, |0⟩.
/// let rows = engine.run(BatchedStates::zero(1, 1), &[8], &streams)?;
/// for row in &rows {
///     assert_eq!(row.outcomes.len(), 1);
/// }
/// # Ok::<(), qdp_sim::QdpError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShotEngine {
    program: Arc<TrajProgram>,
    /// The matrices the program's table gates name; empty for a program
    /// built with `push_gate` alone.
    table: Arc<[Matrix]>,
    /// Numerical-health monitoring at measurement boundaries — see
    /// [`with_health`](Self::with_health). `None` (the default) performs
    /// no checks and preserves the unmonitored engine bit for bit.
    health: Option<HealthConfig>,
}

impl ShotEngine {
    /// Wraps a trajectory program with no table gates for batched
    /// execution.
    pub fn new(program: TrajProgram) -> Self {
        ShotEngine::bound(Arc::new(program), Arc::from([]))
    }

    /// Binds a program to the table its table gates
    /// ([`TrajProgram::push_table_gate`]) read. The engine shares both, so
    /// the engines of one multiset share one table and binding a valuation
    /// copies no program.
    ///
    /// Every sweep panics when the program names an entry past the end of
    /// `table`.
    pub fn bound(program: Arc<TrajProgram>, table: Arc<[Matrix]>) -> Self {
        ShotEngine {
            program,
            table,
            health: None,
        }
    }

    /// Enables numerical-health monitoring: at every measurement boundary
    /// the per-row norm / branch-probability sweeps the engine already
    /// performs are additionally checked for NaN/Inf and for norm drift
    /// beyond `cfg.drift_tol`, and failing rows are handled per
    /// `cfg.policy` (see [`HealthPolicy`]). The checks piggyback on
    /// existing block passes — no extra sweeps over the amplitudes.
    ///
    /// Every entry point ([`run`](Self::run),
    /// [`sample_sweep`](Self::sample_sweep),
    /// [`expectation_sweep`](Self::expectation_sweep)) and
    /// [`estimate_batch`] over the engine report a failed check as a
    /// [`QdpError`]. Unmonitored engines (the default) skip every check
    /// and stay bit-identical to the pre-monitoring engine.
    pub fn with_health(mut self, cfg: HealthConfig) -> Self {
        self.health = Some(cfg);
        self
    }

    /// The engine's health configuration, when monitoring is enabled.
    pub fn health(&self) -> Option<HealthConfig> {
        self.health
    }

    /// The wrapped program.
    pub fn program(&self) -> &TrajProgram {
        &self.program
    }

    /// Runs `shots[r]` sampled trajectories from row `r` of `states`, shot
    /// `i` drawing from the stream `streams[i]`, where shots are numbered
    /// row-major: row 0's shots first, then row 1's, and so on. Returns one
    /// result per shot, in that order.
    ///
    /// Shot `i`'s `k`-th draw is the `k`-th uniform of
    /// `ShotSampler::derived(streams[i].seed, streams[i].index)`, read at
    /// depth `k` (after `k` measurements) off the sweep's
    /// [`ShotVariates`] plane `k`; no shot steps a generator of its own.
    ///
    /// This is the **bitwise-reference executor**: gates are applied one
    /// by one in program order, so results equal running each shot as its
    /// own batch of one and (via the shared collapse primitive) the serial
    /// per-shot loop, bit for bit — see the module docs for the contract.
    ///
    /// # Errors
    ///
    /// With health monitoring enabled, check failures under
    /// [`HealthPolicy::FailFast`] (or unrepairable NaN/Inf under
    /// [`HealthPolicy::Renormalize`]) return a [`QdpError`] naming the
    /// lowest affected shot. Under [`HealthPolicy::DegradeToOracle`] the
    /// affected shots are re-run serially from their inputs on their
    /// streams' own samplers (`ShotSampler::derived`), on the per-row
    /// reference path ([`collapse_with_draw`]) — bit-identical
    /// to this unfused executor's own contract — while healthy shots keep
    /// their batched bits.
    ///
    /// # Panics
    ///
    /// Panics when `shots` does not hold one count per row, a count is
    /// zero, `streams` does not hold one stream per shot, or there are
    /// 2^31 shots or more.
    pub fn run(
        &self,
        states: BatchedStates,
        shots: &[usize],
        streams: &[ShotStream],
    ) -> Result<Vec<TrajectoryRow>, QdpError> {
        let inputs = self.degrade_snapshot(&states, shots);
        let sweep = self.sampled_sweep(states, shots, streams, false)?;
        let mut out: Vec<Option<TrajectoryRow>> = (0..streams.len()).map(|_| None).collect();
        for group in &sweep.finished {
            for &m in &group.members {
                out[m.shot()] = Some(TrajectoryRow {
                    state: Some(group.states.row_state(m.class())),
                    outcomes: group.outcomes.clone(),
                });
            }
        }
        for (outcomes, members) in &sweep.aborted {
            for &m in members {
                out[m.shot()] = Some(TrajectoryRow {
                    state: None,
                    outcomes: outcomes.clone(),
                });
            }
        }
        let defects = sweep.reclaim();
        if let Some(inputs) = inputs {
            for orig in dedup_defects(defects) {
                out[orig] = Some(self.replay_row(&inputs[orig], streams[orig]).0);
            }
        }
        Ok(out
            .into_iter()
            .enumerate()
            .map(|(r, row)| match row {
                Some(row) => row,
                // Unreachable by construction: every shot finishes, aborts,
                // or is replaced by its oracle replay.
                None => panic!("shot {r} neither finished nor aborted"),
            })
            .collect())
    }

    /// The per-shot inputs `DegradeToOracle` recovery replays from, each
    /// shot's input read from its row — taken only when that policy is
    /// active, so the other configurations pay nothing.
    fn degrade_snapshot(
        &self,
        states: &BatchedStates,
        shots: &[usize],
    ) -> Option<Vec<StateVector>> {
        match self.health {
            Some(HealthConfig { policy: HealthPolicy::DegradeToOracle, .. }) => {
                Some(per_shot(shots, |r| states.row_state(r)))
            }
            _ => None,
        }
    }

    /// Serial reference replay of one shot on its own stream: gates in
    /// program order on a single [`StateVector`], every measurement
    /// through the shared [`collapse_with_draw`] primitive, each draw
    /// stepped from `ShotSampler::derived` — the retained per-row path the
    /// batched sampled executor is pinned against bit for bit. Returns the
    /// trajectory and the stream, ready for the read-out's draw.
    fn replay_row(&self, input: &StateVector, stream: ShotStream) -> (TrajectoryRow, ShotSampler) {
        let mut sampler = ShotSampler::derived(stream.seed, stream.index);
        let row = self.replay_trajectory(input, &mut sampler);
        (row, sampler)
    }

    /// [`replay_row`](Self::replay_row)'s trajectory, drawing from `sampler`.
    fn replay_trajectory(&self, input: &StateVector, sampler: &mut ShotSampler) -> TrajectoryRow {
        let mut psi = input.clone();
        let mut outcomes = Vec::new();
        let mut ops: &[TrajOp] = &self.program.ops;
        let mut cont: Vec<&[TrajOp]> = Vec::new();
        let mut i = 0;
        loop {
            if i == ops.len() {
                match cont.pop() {
                    Some(next) => {
                        ops = next;
                        i = 0;
                    }
                    None => return TrajectoryRow { state: Some(psi), outcomes },
                }
                continue;
            }
            match &ops[i] {
                TrajOp::Gate { matrix, targets } => {
                    psi.apply_gate(matrix.get(&*self.table), targets);
                    i += 1;
                }
                TrajOp::Abort => return TrajectoryRow { state: None, outcomes },
                TrajOp::Init { meas, flip, target } => {
                    let (outcome, collapsed) =
                        collapse_with_draw(sampler.next_uniform(), &psi, &meas.meas);
                    psi = collapsed;
                    outcomes.push(outcome);
                    if outcome == 1 {
                        psi.apply_gate(flip, &[*target]);
                    }
                    i += 1;
                }
                TrajOp::Case { meas, arms } => {
                    let (outcome, collapsed) =
                        collapse_with_draw(sampler.next_uniform(), &psi, &meas.meas);
                    psi = collapsed;
                    outcomes.push(outcome);
                    cont.push(&ops[i + 1..]);
                    ops = &arms[outcome].ops;
                    i = 0;
                }
            }
        }
    }

    /// Runs `shots[r]` trajectories from row `r` of `states`, numbered
    /// row-major and drawing from `streams` as in [`run`](Self::run), and
    /// samples `readout` once on each surviving final state (0.0 for
    /// aborted shots, which draw nothing — matching the serial estimator).
    /// Returns one sample per shot, in shot order. A shot's read-out is its
    /// stream's next uniform: after `k` measurements, the `k`-th, read off
    /// plane `k`.
    ///
    /// The read-out of each final group is **block-level**: one
    /// `classes × pairs` probability table per group
    /// ([`ProjectiveObservable::pair_probabilities_batch`] — a single
    /// bucketed `|amp|²` sweep over the group's contiguous block for
    /// diagonal observables, one batched expectation pass per projector
    /// otherwise) plus one norm pass, so leaf read-out is one sweep per
    /// group instead of one per shot. Per shot there remain its own draws:
    /// at each measurement one uniform off the variate plane and a
    /// branch-free selection against its class's probability row, then one
    /// place in its outcome's bucket (see the module's per-shot layout), and
    /// at the read-out one uniform and the branch-free selection of the
    /// serial sampler against its class's table row. The probabilities are
    /// bit-identical to the per-row passes the serial sampler selects from,
    /// so draws can never drift apart. On top of that, straight-line gate segments
    /// **fuse** commuting single-qubit gates per qubit into one 2×2
    /// product before streaming (exactly like the exact sweeps), flushed
    /// at measurements, multi-qubit gates, and the read-out. Fusion
    /// reorders rounding, so samples agree with
    /// [`run`](Self::run)-plus-serial-sampling statistically (states differ by ≪ 1e-12) rather than bit for bit;
    /// the sweep itself stays fully deterministic — identical bits for any
    /// thread count, any batch decomposition, and any row grouping.
    ///
    /// # Errors
    ///
    /// The health-policy semantics of [`run`](Self::run), with
    /// [`HealthPolicy::DegradeToOracle`] shots re-run serially from their
    /// inputs on `ShotSampler::derived` ([`collapse_with_draw`] plus the
    /// shared per-row read-out selection), unaffected shots keeping their
    /// batched bits.
    ///
    /// # Panics
    ///
    /// Panics on the malformed arguments [`run`](Self::run) rejects.
    pub fn sample_sweep(
        &self,
        states: BatchedStates,
        shots: &[usize],
        streams: &[ShotStream],
        readout: &ProjectiveObservable,
    ) -> Result<Vec<f64>, QdpError> {
        let inputs = self.degrade_snapshot(&states, shots);
        let mut sweep = self.sampled_sweep(states, shots, streams, true)?;
        let mut out = vec![0.0; streams.len()];
        sweep.read_out(readout, &mut out);
        // Aborted shots stay 0.0 and draw nothing.
        let defects = sweep.reclaim();
        if let Some(inputs) = inputs {
            for orig in dedup_defects(defects) {
                let (row, mut sampler) = self.replay_row(&inputs[orig], streams[orig]);
                out[orig] = match row.state {
                    None => 0.0, // aborted shots draw nothing
                    Some(psi) => {
                        let total = psi.norm_sqr();
                        if total <= 1e-300 {
                            0.0
                        } else {
                            let u = sampler.next_uniform();
                            let (re, im) = psi.planes();
                            readout.sample_with_draw_planes(u, total, re, im)
                        }
                    }
                };
            }
        }
        Ok(out)
    }

    /// **Branch-weighted exact execution**: the exact expectation
    /// `Σ_branches ⟨ψb|O|ψb⟩` of the program's output for every row of the
    /// batch, in row order.
    ///
    /// Where [`run`](Self::run) samples one outcome per row, this sweep
    /// measures all rows at once, computes per-outcome branch
    /// probabilities (the selected-branch primitives of [`Measurement`] —
    /// one bucketed `|amp|²` pass for computational measurements), and
    /// forks the block into **every** surviving outcome: each sub-group
    /// carries its rows' accumulated branch weights in their unnormalised
    /// amplitudes and keeps streaming batched kernel calls. At the leaves,
    /// one batched read-out pass per group accumulates
    /// `out[r] += ⟨ψleaf|O|ψleaf⟩` — exactly the quantity per-row branch
    /// enumeration computes, evaluated block-wise.
    ///
    /// Straight-line segments fuse commuting single-qubit gates per qubit
    /// into one 2×2 product, flushed at measurements, multi-qubit gates,
    /// and leaves. Per-row results are **bit-for-bit invariant
    /// under thread count, batch decomposition, and row order**, and agree
    /// with the per-row enumerator to ≪ 1e-12 (fusion and leaf-summation
    /// order move rounding only). Aborted branches contribute 0; branches
    /// at weight ≤ [`BRANCH_PRUNE`] are dropped, matching the per-row
    /// enumerators.
    ///
    /// Batches whose work — rows × amplitudes × program ops — reaches
    /// [`qdp_par::FORK_MIN_WORK`] split into fixed-size [`EXACT_TILE`]-row
    /// tiles fanned out across `qdp_par`, so a single branching program
    /// over a large batch still scales with threads; smaller sweeps run as
    /// one block on the calling thread. Tiling is harmless to the
    /// contract precisely *because* of the decomposition invariance above:
    /// every row's bits are the same in any tile.
    ///
    /// # Errors
    ///
    /// Row tiles run panic-isolated with up to 2 bit-identical retries
    /// each, health checks at every fork compare each row's
    /// branch-probability mass against its carried weight (trace
    /// preservation), and failures surface as typed [`QdpError`]s. Under
    /// [`HealthPolicy::DegradeToOracle`] affected rows are re-run from
    /// their tile inputs on the retained per-row branch enumerator
    /// ([`Measurement::branches_pure`], agreeing with the sweep to
    /// ≪ 1e-12); healthy rows keep their batched bits.
    pub fn expectation_sweep(
        &self,
        states: BatchedStates,
        obs: &Observable,
    ) -> Result<Vec<f64>, QdpError> {
        let mut out = Vec::with_capacity(states.len());
        if states.is_empty() {
            return Ok(out);
        }
        let ops = self.program.op_count();
        for (_, rows) in exact_tiles(states, ops, |block| self.expectation_sweep_tile(block, obs))?
        {
            out.extend(rows);
        }
        Ok(out)
    }

    /// One tile of [`expectation_sweep`](Self::expectation_sweep): the
    /// serial branch-weighted sweep over a whole block, with
    /// `DegradeToOracle` recovery handled tile-locally (row indices are
    /// tile-local, so a degraded row's oracle re-run needs only this
    /// tile's inputs).
    fn expectation_sweep_tile(
        &self,
        states: BatchedStates,
        obs: &Observable,
    ) -> Result<Vec<f64>, QdpError> {
        let inputs: Option<Vec<StateVector>> = match self.health {
            Some(HealthConfig { policy: HealthPolicy::DegradeToOracle, .. }) => {
                Some((0..states.len()).map(|r| states.row_state(r)).collect())
            }
            _ => None,
        };
        let mut out = vec![0.0; states.len()];
        let mut values = Vec::new();
        let defects = self.exact_walk(states, self.health, |group: &WeightedGroup| {
            obs.expectation_batch_into(&group.states, &mut values);
            for (ctx, v) in group.rows.iter().zip(&values) {
                out[ctx.orig] += v;
            }
        })?;
        if let Some(inputs) = inputs {
            for orig in dedup_defects(defects) {
                // Overwrite, not accumulate: partial leaf sums from
                // branches that completed before the fault are discarded.
                out[orig] = self.exact_reference_row(inputs[orig].clone(), obs);
            }
        }
        Ok(out)
    }

    /// The retained per-row exact reference: depth-first branch
    /// enumeration of the trajectory program on one state, unnormalised
    /// branches carried whole, leaves summed as `Σ_b ⟨ψb|O|ψb⟩`. This is
    /// the path [`HealthPolicy::DegradeToOracle`] re-runs defected rows
    /// on; it agrees with the branch-weighted sweep to ≪ 1e-12 (fusion
    /// and leaf-order rounding only).
    fn exact_reference_row(&self, psi: StateVector, obs: &Observable) -> f64 {
        let mut acc = 0.0;
        self.exact_reference_from(&self.program.ops, Vec::new(), psi, obs, &mut acc);
        acc
    }

    fn exact_reference_from<'p>(
        &'p self,
        ops: &'p [TrajOp],
        cont: Vec<&'p [TrajOp]>,
        mut psi: StateVector,
        obs: &Observable,
        acc: &mut f64,
    ) {
        for (i, op) in ops.iter().enumerate() {
            match op {
                TrajOp::Gate { matrix, targets } => {
                    psi.apply_gate(matrix.get(&*self.table), targets)
                }
                TrajOp::Abort => return,
                TrajOp::Init { meas, flip, target } => {
                    let rest = &ops[i + 1..];
                    for b in meas.meas.branches_pure(&psi) {
                        if b.probability <= BRANCH_PRUNE {
                            continue;
                        }
                        let mut sub = b.state;
                        if b.outcome == 1 {
                            sub.apply_gate(flip, &[*target]);
                        }
                        self.exact_reference_from(rest, cont.clone(), sub, obs, acc);
                    }
                    return;
                }
                TrajOp::Case { meas, arms } => {
                    let rest = &ops[i + 1..];
                    for b in meas.meas.branches_pure(&psi) {
                        if b.probability <= BRANCH_PRUNE {
                            continue;
                        }
                        let mut arm_cont = cont.clone();
                        arm_cont.push(rest);
                        self.exact_reference_from(&arms[b.outcome].ops, arm_cont, b.state, obs, acc);
                    }
                    return;
                }
            }
        }
        let mut cont = cont;
        match cont.pop() {
            Some(next) => self.exact_reference_from(next, cont, psi, obs, acc),
            None => *acc += obs.expectation_pure(&psi),
        }
    }

    /// The surviving leaf weights of every row of an exact sweep, in that
    /// row's depth-first branch order — the diagnostic view of
    /// [`expectation_sweep`](Self::expectation_sweep) the property suites
    /// pin: for an abort-free program on normalised inputs each row's
    /// weights sum to 1 (up to the [`BRANCH_PRUNE`] threshold), because its
    /// branch tree is trace-preserving.
    pub fn leaf_weights(&self, states: BatchedStates) -> Vec<Vec<f64>> {
        let total_rows = states.len();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); total_rows];
        if total_rows == 0 {
            return out;
        }
        // Diagnostic view: never health-monitored.
        self.exact_walk(states, None, |group: &WeightedGroup| {
            for ctx in &group.rows {
                out[ctx.orig].push(ctx.weight);
            }
        })
        .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Walks the program exactly over `states`, health-checking its forks
    /// under `health`, and calls `leaf` on every surviving leaf group;
    /// returns the (tile-local) rows degraded to the oracle.
    fn exact_walk(
        &self,
        states: BatchedStates,
        health: Option<HealthConfig>,
        leaf: impl FnMut(&WeightedGroup),
    ) -> Result<Vec<usize>, QdpError> {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let group = weighted_root(states, scratch);
            let rule = WeightedFork {
                health,
                defects: Vec::new(),
            };
            let mut walker = Walker::new(scratch, &*self.table, true, rule, Leaves(leaf));
            walker.walk(&self.program.ops, None, group)?;
            Ok(walker.rule.defects)
        })
    }

    /// Executes the program over every shot, branch-grouping on every
    /// measurement; returns the surviving outcome-homogeneous groups, the
    /// aborted shots, and the indices of shots degraded to the oracle
    /// (non-empty only under [`HealthPolicy::DegradeToOracle`]).
    /// With `fuse`, straight-line segments accumulate per-qubit 1q
    /// products instead of applying each gate immediately.
    ///
    /// When the engine is health-monitored, each shot's expected squared
    /// norm is its row's, read off one extra root pass and checked
    /// (piggybacked on the norms sweep every measurement already performs)
    /// at each boundary; unmonitored engines skip all of it.
    fn sampled_sweep<'s>(
        &self,
        states: BatchedStates,
        shots: &[usize],
        streams: &'s [ShotStream],
        fuse: bool,
    ) -> Result<SweepOutput<'s>, QdpError> {
        assert_eq!(states.len(), shots.len(), "one shot count per input row");
        assert!(shots.iter().all(|&k| k > 0), "every input row needs a shot");
        assert_eq!(
            shots.iter().sum::<usize>(),
            streams.len(),
            "one stream per batch row shot"
        );
        assert!(
            streams.len() <= MAX_SWEEP_SHOTS,
            "a sweep runs at most 2^31 - 1 shots"
        );
        let expected = match self.health {
            Some(_) => {
                let mut norms = Vec::new();
                states.row_norms_sqr_into(&mut norms);
                per_shot(shots, |r| norms[r])
            }
            None => Vec::new(),
        };
        if states.is_empty() {
            return Ok(SweepOutput {
                finished: Vec::new(),
                aborted: Vec::new(),
                defects: Vec::new(),
                variates: ShotVariates::new(streams),
            });
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let group = sampled_root(states, shots, scratch);
            let (state, planes) = std::mem::take(&mut scratch.variates);
            let rule = SampledFork {
                variates: ShotVariates::with_buffers(streams, state, planes),
                health: self.health,
                expected,
                defects: Vec::new(),
            };
            let mut walker = Walker::new(scratch, &*self.table, fuse, rule, Collect::default());
            walker.walk(&self.program.ops, None, group)?;
            let Walker { rule, action, .. } = walker;
            Ok(SweepOutput {
                finished: action.finished,
                aborted: action.aborted,
                defects: rule.defects,
                variates: rule.variates,
            })
        })
    }
}

/// Shot estimates of several multisets of programs on several inputs, by
/// the paper's sampling procedure (Section 7): each shot draws one of a
/// multiset's `m` programs uniformly, runs it, and reads `readout` out
/// once (0 when the trajectory aborted); the estimate is `m` times the
/// mean sample. `out[j][r]` is multiset `multisets[j]` (one [`ShotEngine`]
/// per program) on `inputs[r]` from `shots` trajectories on the seed
/// `streams[j][r]`. A forward value is the case `m = 1`; an empty multiset
/// estimates 0.
///
/// Each row of a multiset with `m > 1` programs draws its shots' programs
/// up front from the master stream `ShotSampler::seeded(streams[j][r])`;
/// with `m = 1` every draw would be 0 and the master stream feeds nothing
/// else, so nothing is drawn. Shots are cut into fixed [`SHOT_TILE`]-shot
/// tiles, and each (multiset, tile) pair runs one
/// [`sample_sweep`](ShotEngine::sample_sweep) per program over every
/// row's shots of that program, shot `s` on the stream
/// `ShotStream { seed: streams[j][r], index: s }`: its `k`-th draw is the
/// `k`-th uniform of `ShotSampler::derived(streams[j][r], s)`, read at
/// depth `k` off the sweep's variate planes. A row sums its samples per
/// tile, program by program in shot order, then its tile sums in tile
/// order. Rows share sweeps but no bits: entry `[j][r]` carries the bits
/// of a batch of one row with that seed, under any thread count and
/// beside any other inputs.
///
/// The pairs run on the calling thread unless their work (rows ×
/// amplitudes × program ops) pays for a fork ([`qdp_par::fork_pays`]);
/// then they fan out across `qdp_par`. Pair `i` passes the
/// fault-injection tile checkpoint `i`, runs panic-isolated, and is
/// retried up to [`TILE_RETRIES`] times, bit-identically.
///
/// # Errors
///
/// A pair that panicked through its retries surfaces as
/// [`QdpError::WorkerPanic`]; a health check that fails in a monitored
/// engine's sweep surfaces as that sweep's typed error.
///
/// # Panics
///
/// Panics when `shots` is zero, `streams` does not hold one stream list
/// per multiset, or a stream list does not hold one seed per input.
pub fn estimate_batch(
    multisets: &[&[ShotEngine]],
    readout: &ProjectiveObservable,
    inputs: &[StateVector],
    shots: usize,
    streams: &[Vec<u64>],
) -> Result<Vec<Vec<f64>>, QdpError> {
    assert!(shots > 0, "need at least one shot");
    assert_eq!(multisets.len(), streams.len(), "one stream list per multiset");
    assert!(
        streams.iter().all(|s| s.len() == inputs.len()),
        "one seed per input"
    );
    let rows = inputs.len();
    // Per multiset and row, the program of every shot, drawn up front
    // from the row's master stream.
    let draws: Vec<Vec<Vec<u32>>> = multisets
        .iter()
        .zip(streams)
        .map(|(engines, row_streams)| {
            let m = engines.len();
            row_streams
                .iter()
                .map(|&seed| match m {
                    0 | 1 => Vec::new(),
                    _ => {
                        let mut master = ShotSampler::seeded(seed);
                        (0..shots).map(|_| master.uniform_index(m) as u32).collect()
                    }
                })
                .collect()
        })
        .collect();
    let tiles = shot_tiles(shots);
    let items: Vec<(usize, usize, (usize, usize))> = (0..multisets.len())
        .filter(|&j| !multisets[j].is_empty())
        .flat_map(|j| tiles.iter().map(move |&tile| (j, tile)))
        .enumerate()
        .map(|(i, (j, tile))| (i, j, tile))
        .collect();
    let dim = inputs.first().map_or(0, StateVector::dim);
    let work = items
        .iter()
        .map(|&(_, j, _)| {
            rows * dim * multisets[j].iter().map(|e| e.program.op_count()).sum::<usize>()
        })
        .sum();
    let sums = qdp_par::try_par_map_retry_work(
        work,
        &items,
        |&(i, j, tile)| {
            crate::fault::tile_checkpoint(i);
            tile_sums(multisets[j], readout, inputs, &draws[j], &streams[j], tile)
        },
        TILE_RETRIES,
    )
    .map_err(QdpError::from)?
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut sums = sums.chunks(tiles.len());
    Ok(multisets
        .iter()
        .map(|engines| {
            let m = engines.len();
            if m == 0 {
                return vec![0.0; rows];
            }
            let per_tile = sums.next().unwrap_or_default();
            (0..rows)
                .map(|r| m as f64 * per_tile.iter().map(|t| t[r]).sum::<f64>() / shots as f64)
                .collect()
        })
        .collect())
}

/// Per input row, the sum of its samples in the shot tile `start..start +
/// len` of the multiset `engines`: program by program, each program's
/// shots in shot order. One loop over the tile's shots, row by row,
/// buckets each shot's stream identity by program, and each program runs
/// **one** sampled sweep over every row's shots of it; row `r`'s shots
/// drew their programs into `draws[r]` and sample on the streams of seed
/// `streams[r]`, shot `s` on index `s`, so a program's indices skip the
/// shots of the others. A one-program multiset draws nothing: every shot
/// runs program 0, so each row's streams are one run of indices.
fn tile_sums(
    engines: &[ShotEngine],
    readout: &ProjectiveObservable,
    inputs: &[StateVector],
    draws: &[Vec<u32>],
    streams: &[u64],
    (start, len): (usize, usize),
) -> Result<Vec<f64>, QdpError> {
    // Per program: the rows that drew it, each row's shots of it, and one
    // stream per shot, row by row.
    let m = engines.len();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut counts: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut shot_streams: Vec<Vec<ShotStream>> =
        (0..m).map(|_| Vec::with_capacity(len * streams.len() / m)).collect();
    for (r, &seed) in streams.iter().enumerate() {
        if m == 1 {
            rows[0].push(r);
            counts[0].push(len);
            let run = (start..start + len).map(|s| ShotStream { seed, index: s as u64 });
            shot_streams[0].extend(run);
            continue;
        }
        for (s, &prog) in draws[r].iter().enumerate().skip(start).take(len) {
            let prog = prog as usize;
            match counts[prog].last_mut() {
                Some(k) if rows[prog].last() == Some(&r) => *k += 1,
                _ => {
                    rows[prog].push(r);
                    counts[prog].push(1);
                }
            }
            shot_streams[prog].push(ShotStream { seed, index: s as u64 });
        }
    }
    let mut acc = vec![0.0; inputs.len()];
    let sweeps = engines.iter().zip(&rows).zip(&counts).zip(&shot_streams);
    for (((engine, rows), counts), shot_streams) in sweeps {
        if rows.is_empty() {
            continue;
        }
        let states: Vec<&StateVector> = rows.iter().map(|&r| &inputs[r]).collect();
        let states = BatchedStates::gather(&states);
        let values = engine.sample_sweep(states, counts, shot_streams, readout)?;
        let mut rest = values.as_slice();
        for (&r, &k) in rows.iter().zip(counts) {
            let (row, tail) = rest.split_at(k);
            acc[r] += row.iter().sum::<f64>();
            rest = tail;
        }
    }
    Ok(acc)
}

/// Outcome of a sampled sweep: finished leaf groups, aborted trajectories,
/// the indices of health-defected shots, and the variate planes the sweep
/// filled, which the read-out goes on drawing from.
struct SweepOutput<'s> {
    finished: Vec<Group>,
    aborted: Vec<Aborted>,
    defects: Vec<usize>,
    variates: ShotVariates<'s>,
}

impl SweepOutput<'_> {
    /// Samples `readout` once on every finished shot with support into
    /// `out[shot]`: per group one `classes × pairs` table and one norm
    /// pass, then per member its draw at the group's depth (its history's
    /// length) and the branch-free selection against its class's row. A
    /// group whose classes all have zero norm draws nothing, so it fills no
    /// plane.
    fn read_out(&mut self, readout: &ProjectiveObservable, out: &mut [f64]) {
        let pairs = readout.pairs().len();
        let mut table = Vec::new();
        let mut totals = Vec::new();
        for group in &self.finished {
            // One table row per class, one draw per member.
            readout.pair_probabilities_batch(&group.states, &mut table);
            group.states.row_norms_sqr_into(&mut totals);
            if !totals.iter().any(|&total| total > 1e-300) {
                continue;
            }
            let plane = self.variates.uniforms(group.outcomes.len());
            for run in group.members.chunk_by(|a, b| a.class == b.class) {
                // The shared selection walk of `sample_with_draw_planes`,
                // with the probabilities read off the group's table.
                let c = run[0].class();
                let total = totals[c];
                if total <= 1e-300 {
                    continue;
                }
                let probs = &table[c * pairs..(c + 1) * pairs];
                for lanes in run.chunks(SELECT_LANES) {
                    let firsts = select_counts(draws_of(lanes, plane), total, probs);
                    for (&m, &first) in lanes.iter().zip(&firsts) {
                        out[m.shot()] = readout.eigenvalue_at(first);
                    }
                }
            }
        }
    }

    /// Returns the leaf groups, aborted member lists and variate buffers
    /// to the thread's [`RegroupScratch`], so the next sweep reuses them;
    /// hands back the defected shots.
    fn reclaim(self) -> Vec<usize> {
        let SweepOutput { finished, aborted, defects, variates } = self;
        SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            for group in finished {
                scratch.reclaim_sampled(group);
            }
            for (outcomes, mut members) in aborted {
                members.clear();
                pool_give(&mut scratch.sampled_rows, members);
                pool_give(&mut scratch.histories, outcomes);
            }
            let (state, planes) = variates.into_buffers();
            if state.capacity() <= SCRATCH_POOL_AMPS && planes.capacity() <= SCRATCH_POOL_AMPS {
                scratch.variates = (state, planes);
            }
        });
        defects
    }
}

/// The trajectories of one group that reached an `abort`: the outcome
/// history they share and their members (whose classes no longer mean
/// anything: the states are gone).
type Aborted = (Vec<usize>, Vec<Member>);

/// The [`SHOT_TILE`]-shot tiles of `shots` shots: `(first shot, shots)`.
fn shot_tiles(shots: usize) -> Vec<(usize, usize)> {
    (0..shots)
        .step_by(SHOT_TILE)
        .map(|start| (start, SHOT_TILE.min(shots - start)))
        .collect()
}

/// One value per shot, in shot order: row `r`'s value `at(r)` repeated
/// `shots[r]` times.
fn per_shot<T: Clone>(shots: &[usize], at: impl Fn(usize) -> T) -> Vec<T> {
    shots
        .iter()
        .enumerate()
        .flat_map(|(r, &k)| std::iter::repeat_n(at(r), k))
        .collect()
}

/// The root group of a sampled sweep: input row `r` is the class of its
/// `shots[r]` shots, whose members are numbered row-major. The rows are
/// the block as given: no shot copies its input.
fn sampled_root(states: BatchedStates, shots: &[usize], scratch: &mut RegroupScratch) -> Group {
    let mut members = scratch.sampled_rows.pop().unwrap_or_default();
    let mut shot = 0;
    for (class, &k) in (0u32..).zip(shots) {
        // `sampled_sweep` caps the shot count at `MAX_SWEEP_SHOTS`.
        members.extend((shot..shot + k as u32).map(|shot| Member { shot, class }));
        shot += k as u32;
    }
    let n = states.num_qubits();
    Group {
        states,
        outcomes: scratch.take_history(),
        members,
        pending: scratch.take_pending(n),
    }
}

/// Sorts and deduplicates the degraded-row index list (a row can fail
/// checks at more than one boundary before its placeholder stabilises).
fn dedup_defects(mut defects: Vec<usize>) -> Vec<usize> {
    defects.sort_unstable();
    defects.dedup();
    defects
}

/// A group of rows a walk carries through the ops: the sampled [`Group`]
/// or the exact [`WeightedGroup`].
trait Branch: Sized {
    /// The group's states and the pending 1q product of each qubit.
    fn parts(&mut self) -> (&mut BatchedStates, &mut [Option<[C64; 4]>]);

    /// The arena's pool of fork child lists of this group type.
    fn fork_pool(scratch: &mut RegroupScratch) -> &mut Vec<Vec<(usize, Self)>>;
}

impl Branch for Group {
    fn parts(&mut self) -> (&mut BatchedStates, &mut [Option<[C64; 4]>]) {
        (&mut self.states, &mut self.pending)
    }

    fn fork_pool(scratch: &mut RegroupScratch) -> &mut Vec<Vec<(usize, Self)>> {
        &mut scratch.sampled_forks
    }
}

impl Branch for WeightedGroup {
    fn parts(&mut self) -> (&mut BatchedStates, &mut [Option<[C64; 4]>]) {
        (&mut self.states, &mut self.pending)
    }

    fn fork_pool(scratch: &mut RegroupScratch) -> &mut Vec<Vec<(usize, Self)>> {
        &mut scratch.weighted_forks
    }
}

/// How a walk forks a group at a measurement: into every surviving
/// outcome, carrying branch weights ([`WeightedFork`]), or into the
/// outcomes its shots draw ([`SampledFork`]).
trait ForkRule {
    type Group: Branch;

    /// Forks `group`, whose pending products are flushed, at `meas`,
    /// appending the child groups to `forks` in ascending outcome order.
    fn fork(
        &mut self,
        scratch: &mut RegroupScratch,
        group: Self::Group,
        meas: &Measurement,
        forks: &mut Vec<(usize, Self::Group)>,
    ) -> Result<(), QdpError>;
}

/// What a walk does besides stepping its ops. A walk runs one
/// straight-line segment, from its start (the root, or an outcome of a
/// fork) to its end: a leaf, an `abort`, or a fork, whose outcomes each
/// walk a segment of their own before the fork closes. `Up` is what a
/// segment's walk hands back to the fork above it.
trait Action<'p, G> {
    type Up;

    /// The walk applied (or fused) a gate.
    fn gate(&mut self, _matrix: &'p TrajMatrix, _targets: &'p [usize]) {}

    /// The walk reached the end of the program, its products flushed.
    fn leaf(&mut self, scratch: &mut RegroupScratch, group: G) -> Self::Up;

    /// The walk reached an `abort`.
    fn abort(&mut self, scratch: &mut RegroupScratch, group: G) -> Self::Up;

    /// A fork is about to take `group`, its products flushed.
    fn split(&mut self, _scratch: &mut RegroupScratch, _group: &G) {}

    /// Outcome `outcome` of the fork at `meas` handed back `up`; `flip` is
    /// the reset's flip and target when the fork is an `init` and the
    /// outcome is 1.
    fn join(
        &mut self,
        _scratch: &mut RegroupScratch,
        _outcome: usize,
        _up: Self::Up,
        _meas: &TrajMeasurement,
        _flip: Option<(&Matrix, usize)>,
    ) {
    }

    /// Every outcome of the fork has joined.
    fn close(&mut self, scratch: &mut RegroupScratch) -> Self::Up;
}

/// The one depth-first walk over a [`TrajProgram`]'s branch tree, behind
/// every sweep: it steps the ops, fuses 1q gates when `fuse` asks for it,
/// enters `case` arms through stack-linked [`Cont`] frames, and forks at
/// every measurement by its [`ForkRule`]; its [`Action`] does the rest.
struct Walker<'s, T: ?Sized, R, A> {
    scratch: &'s mut RegroupScratch,
    /// The table the program's table gates read.
    table: &'s T,
    /// Whether straight-line segments fuse commuting 1q gates per qubit
    /// into one 2×2 product, flushed at measurements, at multi-qubit gates
    /// on that qubit, and at the leaf; otherwise every gate is one batched
    /// kernel call, in program order.
    fuse: bool,
    /// Reusable 2×2 the pending products flush through.
    flush_gate: Matrix,
    rule: R,
    action: A,
}

impl<'s, T: GateTable + ?Sized, R: ForkRule, A> Walker<'s, T, R, A> {
    fn new(scratch: &'s mut RegroupScratch, table: &'s T, fuse: bool, rule: R, action: A) -> Self {
        Walker {
            scratch,
            table,
            fuse,
            flush_gate: Matrix::zeros(2, 2),
            rule,
            action,
        }
    }

    /// Walks `ops` on `group`, then `cont`, the continuation a `case` arm
    /// returns into: the segment up to the next fork or the leaf, then,
    /// through the fork, every subtree below it.
    fn walk<'p>(
        &mut self,
        mut ops: &'p [TrajOp],
        mut cont: Option<&Cont<'_, 'p>>,
        mut group: R::Group,
    ) -> Result<A::Up, QdpError>
    where
        A: Action<'p, R::Group>,
    {
        loop {
            for (i, op) in ops.iter().enumerate() {
                match op {
                    TrajOp::Gate { matrix, targets } => {
                        let (states, pending) = group.parts();
                        let m = matrix.get(self.table);
                        if !self.fuse {
                            states.apply_gate(m, targets);
                        } else if let [t] = targets[..] {
                            pending[t] = Some(match pending[t].take() {
                                None => mat2(m),
                                Some(prev) => mul2(&mat2(m), &prev),
                            });
                        } else {
                            // A multi-qubit gate orders against the pending
                            // rotations of its own targets only.
                            flush_targets(states, pending, targets, &mut self.flush_gate);
                            states.apply_gate(m, targets);
                        }
                        self.action.gate(matrix, targets);
                    }
                    TrajOp::Abort => return Ok(self.action.abort(self.scratch, group)),
                    TrajOp::Init { meas, flip, target } => {
                        let rest = (&ops[i + 1..], cont);
                        return self.fork(group, meas, Some((flip, *target)), |_| rest);
                    }
                    TrajOp::Case { meas, arms } => {
                        let arm_cont = Cont {
                            ops: &ops[i + 1..],
                            outer: cont,
                        };
                        let arm = |m: usize| (&arms[m].ops[..], Some(&arm_cont));
                        return self.fork(group, meas, None, arm);
                    }
                }
            }
            // Pending products flow into the continuation: there is no
            // measurement between an arm's trailing gates and the join.
            match cont {
                Some(next) => (ops, cont) = (next.ops, next.outer),
                None => break,
            }
        }
        let (states, pending) = group.parts();
        flush_all(states, pending, &mut self.flush_gate);
        Ok(self.action.leaf(self.scratch, group))
    }

    /// Forks `group` at `meas`, flipping `reset`'s target on outcome 1, and
    /// walks each outcome's subtree from `next(outcome)`, in ascending
    /// outcome order.
    fn fork<'p: 'c, 'c>(
        &mut self,
        mut group: R::Group,
        meas: &'p TrajMeasurement,
        reset: Option<(&'p Matrix, usize)>,
        next: impl Fn(usize) -> (&'p [TrajOp], Option<&'c Cont<'c, 'p>>),
    ) -> Result<A::Up, QdpError>
    where
        A: Action<'p, R::Group>,
    {
        let (states, pending) = group.parts();
        flush_all(states, pending, &mut self.flush_gate);
        self.action.split(self.scratch, &group);
        let mut forks = R::Group::fork_pool(self.scratch).pop().unwrap_or_default();
        self.rule.fork(self.scratch, group, &meas.meas, &mut forks)?;
        for (outcome, mut sub) in forks.drain(..) {
            let flip = reset.filter(|_| outcome == 1);
            if let Some((flip, target)) = flip {
                sub.parts().0.apply_gate(flip, &[target]);
            }
            let (ops, cont) = next(outcome);
            let up = self.walk(ops, cont, sub)?;
            self.action.join(self.scratch, outcome, up, meas, flip);
        }
        pool_give(R::Group::fork_pool(self.scratch), forks);
        Ok(self.action.close(self.scratch))
    }
}

/// What a failed health check leaves a fork to repair.
enum Repair {
    /// Rescale the row's amplitudes by `√ratio` (and its probability row
    /// by `ratio`), `ratio` being the expected mass over the measured one.
    Rescale(f64),
    /// Drop the row from the sweep: it is re-run on the per-row oracle.
    Degrade,
}

/// The health check of both forks: the mass `total` a fork measured on a
/// row against the mass `expected` the row carries in. Returns `None` for
/// a healthy row, the repair `cfg.policy` asks for otherwise, and under
/// [`HealthPolicy::FailFast`] (or for NaN/Inf or zero mass under
/// [`HealthPolicy::Renormalize`], which no rescale repairs) the error
/// naming `row` and `context`.
fn check_health(
    cfg: HealthConfig,
    row: usize,
    context: &'static str,
    expected: f64,
    total: f64,
) -> Result<Option<Repair>, QdpError> {
    let non_finite = !total.is_finite() || !expected.is_finite();
    let drifted = !non_finite
        && (total - expected).abs() > cfg.drift_tol * expected.abs().max(f64::MIN_POSITIVE);
    if !non_finite && !drifted {
        return Ok(None);
    }
    match cfg.policy {
        HealthPolicy::FailFast if non_finite => Err(QdpError::NonFinite { row, context }),
        HealthPolicy::FailFast => Err(QdpError::NormDrift {
            row,
            expected,
            actual: total,
            tolerance: cfg.drift_tol,
        }),
        HealthPolicy::Renormalize if non_finite || total <= 1e-300 => {
            Err(QdpError::NonFinite { row, context })
        }
        HealthPolicy::Renormalize => Ok(Some(Repair::Rescale(expected / total))),
        HealthPolicy::DegradeToOracle => Ok(Some(Repair::Degrade)),
    }
}

/// The sampled sweep's action: it keeps every leaf group and every aborted
/// group's history and members.
#[derive(Default)]
struct Collect {
    finished: Vec<Group>,
    aborted: Vec<Aborted>,
}

impl Action<'_, Group> for Collect {
    type Up = ();

    fn leaf(&mut self, _: &mut RegroupScratch, group: Group) {
        self.finished.push(group);
    }

    fn abort(&mut self, scratch: &mut RegroupScratch, group: Group) {
        // Dropped rows never need their states or pending products.
        let Group { states, outcomes, members, pending } = group;
        scratch.give_block(states.into_raw());
        pool_give(&mut scratch.pendings, pending);
        self.aborted.push((outcomes, members));
    }

    fn close(&mut self, _: &mut RegroupScratch) {}
}

/// The sampled sweep's fork rule: each shot draws its outcome. Holds the
/// variate planes, the health configuration, every shot's expected squared
/// norm and the shots degraded to the oracle.
struct SampledFork<'v> {
    /// Draw `k` of every shot, filled on the first measurement (or
    /// read-out) at depth `k`.
    variates: ShotVariates<'v>,
    /// Health monitoring config (`None` = no checks, today's bits).
    health: Option<HealthConfig>,
    /// Expected squared norm per shot: its input row's norm (collapse
    /// renormalises to the parent norm and gates are unitary, so a healthy
    /// trajectory carries its root norm at every boundary). Empty when
    /// unmonitored.
    expected: Vec<f64>,
    /// Indices of shots degraded to the oracle.
    defects: Vec<usize>,
}

impl ForkRule for SampledFork<'_> {
    type Group = Group;

    /// Measures every member of `group` at once and regroups the members
    /// into outcome-homogeneous sub-batches, appended to `forks` in
    /// ascending outcome order (members keep their relative order inside
    /// each one, so the regrouping is a pure deterministic function of the
    /// drawn outcomes).
    ///
    /// **Block-level, once per class**: the pre-measurement norms, the
    /// health checks and the full `classes × outcomes` probability table
    /// come from one sweep each over the group's contiguous amplitude
    /// block ([`Measurement::branch_probabilities_block`]).
    ///
    /// **Per member, only its own draw**: one pass over the members, each
    /// loading its uniform off the variate plane of the group's depth (its
    /// history's length) and selecting against its
    /// class's row through the branch-free [`select_branch`], appends the
    /// member to its outcome's bucket with its class and slack flag packed
    /// in the class field. Buckets fill in member order, so each is a
    /// stable distribution sort: shot order holds inside every outcome,
    /// and no pass scans the members once per outcome. One pass over each
    /// bucket numbers its sub-classes, one per (parent class, slack flag),
    /// by first member, and the bucket becomes the child's member list;
    /// the outcome's sub-batch is materialised by one strided
    /// [`Measurement::collapse_block_into`] pass over the parent classes,
    /// and each sub-class replays the serial rescaling once
    /// ([`rescale_collapsed`]) from its parent class's `p` and `total` and
    /// its slack flag. Drawn outcomes and collapsed amplitudes are
    /// **bit for bit** the per-row [`collapse_with_draw`] results — the
    /// differential suites pin this — and the scratch arena makes the
    /// whole fork allocation-free once its pools are warm.
    ///
    /// # Panics
    ///
    /// Panics when a row has (numerically) zero norm.
    fn fork(
        &mut self,
        s: &mut RegroupScratch,
        group: Group,
        meas: &Measurement,
        forks: &mut Vec<(usize, Group)>,
    ) -> Result<(), QdpError> {
        debug_assert!(
            group.pending.iter().all(Option::is_none),
            "pending products must be flushed before measuring"
        );
        let Group { mut states, outcomes: history, mut members, pending } = group;
        let n = states.num_qubits();
        let dim = states.dim();
        let classes = states.len();
        states.row_norms_sqr_into(&mut s.totals);
        // Health checks piggyback on the norms pass the measurement just
        // performed — before the zero-norm assert (NaN fails `> 1e-300`
        // too) and before the probability table is built, so repairs and
        // placeholder rows feed consistent probabilities downstream. Each
        // class is checked once, at its first member: members start from
        // one input row, so they share the expected norm, and classes come
        // in first-member order, so `FailFast` names the lowest failing
        // shot, as an unshared sweep would.
        if let Some(cfg) = self.health {
            let mut next_class = 0;
            for &m in &members {
                if m.class() != next_class {
                    continue;
                }
                next_class += 1;
                let c = m.class();
                let expected = self.expected[m.shot()];
                match check_health(cfg, m.shot(), "row norms", expected, s.totals[c])? {
                    None => {}
                    Some(Repair::Rescale(ratio)) => {
                        let (row_re, row_im) = states.row_planes_mut(c);
                        scale_planes(row_re, row_im, C64::real(ratio.sqrt()));
                        s.totals[c] = expected;
                    }
                    Some(Repair::Degrade) => {
                        // Replace the class row with a well-formed
                        // placeholder so the batched sweep stays defined;
                        // every member's output is discarded and recomputed
                        // on the reference path. Per-shot stream
                        // independence and the row-order invariance
                        // contract keep healthy rows' bits untouched by the
                        // substitution.
                        self.defects
                            .extend(members.iter().filter(|m| m.class() == c).map(|m| m.shot()));
                        let norm = if expected.is_finite() && expected > 1e-300 {
                            expected
                        } else {
                            1.0
                        };
                        let (row_re, row_im) = states.row_planes_mut(c);
                        row_re.fill(0.0);
                        row_im.fill(0.0);
                        row_re[0] = norm.sqrt();
                        s.totals[c] = norm;
                    }
                }
            }
        }
        {
            let (re, im) = states.planes();
            meas.branch_probabilities_block(n, re, im, &mut s.probs);
        }
        assert!(
            s.totals.iter().all(|&total| total > 1e-300),
            "cannot measure a zero-norm state"
        );
        let outcomes = meas.num_outcomes();
        let plane = self.variates.uniforms(history.len());
        // One pass: every member draws against its class's row and joins
        // its outcome's bucket, keyed by (class, slack flag) — a stable
        // distribution sort, so each bucket keeps shot order.
        let mut buckets = std::mem::take(&mut s.buckets);
        buckets.extend((0..outcomes).map(|_| s.sampled_rows.pop().unwrap_or_default()));
        for run in members.chunk_by(|a, b| a.class == b.class) {
            let c = run[0].class();
            let probs = &s.probs[c * outcomes..(c + 1) * outcomes];
            for lanes in run.chunks(SELECT_LANES) {
                let firsts = select_counts(draws_of(lanes, plane), s.totals[c], probs);
                for (&m, &first) in lanes.iter().zip(&firsts) {
                    let (outcome, slack) = select_branch(first, probs);
                    let class = m.class << 1 | u32::from(slack);
                    buckets[outcome].push(Member { shot: m.shot, class });
                }
            }
        }
        s.class_slot.clear();
        s.class_slot.resize(2 * classes, u32::MAX);
        for (outcome, mut sub_members) in buckets.drain(..).enumerate() {
            if sub_members.is_empty() {
                pool_give(&mut s.sampled_rows, sub_members);
                continue;
            }
            s.selected.clear();
            s.sub_slack.clear();
            for m in &mut sub_members {
                // Sub-classes are numbered by first member, like classes.
                let slot = &mut s.class_slot[m.class()];
                if *slot == u32::MAX {
                    *slot = s.selected.len() as u32;
                    s.selected.push(m.class() >> 1);
                    s.sub_slack.push(m.class & 1 == 1);
                }
                m.class = *slot;
            }
            let (mut dst_re, mut dst_im) = s.take_block();
            {
                let (re, im) = states.planes();
                meas.collapse_block_into(n, re, im, &s.selected, outcome, &mut dst_re, &mut dst_im);
            }
            for (j, (&c, &slack)) in s.selected.iter().zip(&s.sub_slack).enumerate() {
                // Leave the slot table all `u32::MAX` for the next outcome.
                s.class_slot[2 * c + usize::from(slack)] = u32::MAX;
                rescale_collapsed(
                    &mut dst_re[j * dim..(j + 1) * dim],
                    &mut dst_im[j * dim..(j + 1) * dim],
                    s.probs[c * outcomes + outcome],
                    s.totals[c],
                    slack,
                );
            }
            let mut sub_history = s.take_history();
            sub_history.extend_from_slice(&history);
            sub_history.push(outcome);
            let pending = s.take_pending(n);
            forks.push((
                outcome,
                Group {
                    states: BatchedStates::from_raw(s.selected.len(), n, dst_re, dst_im),
                    outcomes: sub_history,
                    members: sub_members,
                    pending,
                },
            ));
        }
        s.buckets = buckets;
        members.clear();
        s.reclaim_sampled(Group { states, outcomes: history, members, pending });
        Ok(())
    }
}

/// Runs `tile` over the rows of an exact sweep: as one block on the
/// calling thread, or, once rows × amplitudes × `ops` reaches
/// [`qdp_par::FORK_MIN_WORK`], as fixed [`EXACT_TILE`]-row tiles fanned
/// out across `qdp_par` (panic-isolated, each retried bit-identically up
/// to [`TILE_RETRIES`] times). Returns each block's row count and result,
/// in row order. Exact sweeps are invariant under batch decomposition, so
/// the split never moves a bit.
fn exact_tiles<T: Send>(
    states: BatchedStates,
    ops: usize,
    tile: impl Fn(BatchedStates) -> Result<T, QdpError> + Sync,
) -> Result<Vec<(usize, T)>, QdpError> {
    let (total_rows, dim) = (states.len(), states.dim());
    if total_rows <= EXACT_TILE || !qdp_par::fork_pays(total_rows * dim * ops) {
        return Ok(vec![(total_rows, tile(states)?)]);
    }
    let n = states.num_qubits();
    let tiles: Vec<(usize, usize)> = (0..total_rows)
        .step_by(EXACT_TILE)
        .map(|start| (start, EXACT_TILE.min(total_rows - start)))
        .collect();
    let per_tile = qdp_par::try_par_map_retry(
        &tiles,
        |&(start, rows)| {
            crate::fault::tile_checkpoint(start / EXACT_TILE);
            let (re, im) = states.planes();
            let block = BatchedStates::from_raw(
                rows,
                n,
                re[start * dim..(start + rows) * dim].to_vec(),
                im[start * dim..(start + rows) * dim].to_vec(),
            );
            tile(block)
        },
        TILE_RETRIES,
    )
    .map_err(QdpError::from)?;
    tiles
        .iter()
        .zip(per_tile)
        .map(|(&(_, rows), result)| result.map(|t| (rows, t)))
        .collect()
}

/// The root group of an exact sweep: every input row with its own squared
/// norm as the initial weight (1 for normalised inputs), read off one
/// block pass, with the row list and pending table drawn from the arena.
fn weighted_root(states: BatchedStates, scratch: &mut RegroupScratch) -> WeightedGroup {
    states.row_norms_sqr_into(&mut scratch.totals);
    let mut rows = scratch.weighted_rows.pop().unwrap_or_default();
    rows.extend(
        scratch
            .totals
            .iter()
            .enumerate()
            .map(|(orig, &weight)| WeightedRow { orig, weight }),
    );
    WeightedGroup {
        pending: scratch.take_pending(states.num_qubits()),
        rows,
        states,
    }
}

/// The exact sweep's action: `F` reads out every surviving leaf group,
/// whose buffers then go back to the arena; aborted branches contribute
/// nothing.
struct Leaves<F>(F);

impl<F: FnMut(&WeightedGroup)> Action<'_, WeightedGroup> for Leaves<F> {
    type Up = ();

    fn leaf(&mut self, scratch: &mut RegroupScratch, group: WeightedGroup) {
        (self.0)(&group);
        scratch.reclaim_weighted(group);
    }

    fn abort(&mut self, scratch: &mut RegroupScratch, group: WeightedGroup) {
        scratch.reclaim_weighted(group);
    }

    fn close(&mut self, _: &mut RegroupScratch) {}
}

/// The fork rule of the exact sweeps: every surviving outcome, weighted.
/// Holds the health configuration and the rows degraded to the oracle.
struct WeightedFork {
    /// Health monitoring config (`None` = no checks, today's bits).
    health: Option<HealthConfig>,
    /// Original (tile-local) indices of rows degraded to the oracle.
    defects: Vec<usize>,
}

impl ForkRule for WeightedFork {
    type Group = WeightedGroup;

    /// Forks a weighted group at a measurement, appending the surviving
    /// outcome-homogeneous sub-groups to `forks` in ascending outcome
    /// order (rows keep their relative order inside each one — for a
    /// single row this is exactly the depth-first branch order of the
    /// per-row enumerators, so leaf accumulation per row follows the same
    /// order batched as alone).
    ///
    /// **Block-level**: every row's branch probabilities come from **one**
    /// bucketed `|amp|²` sweep over the group's contiguous amplitude block
    /// ([`Measurement::branch_probabilities_block`]), and each surviving
    /// outcome's sub-batch is materialised by one strided
    /// [`Measurement::collapse_block_into`] pass — kept **unnormalised**
    /// so the branch probability rides inside the amplitudes, as exact
    /// branch enumeration requires. No per-row kernel calls; the scratch
    /// arena makes the fork allocation-free once warm.
    ///
    /// Branches at weight ≤ [`BRANCH_PRUNE`] are dropped.
    fn fork(
        &mut self,
        s: &mut RegroupScratch,
        group: WeightedGroup,
        meas: &Measurement,
        forks: &mut Vec<(usize, WeightedGroup)>,
    ) -> Result<(), QdpError> {
        debug_assert!(
            group.pending.iter().all(Option::is_none),
            "pending products must be flushed before measuring"
        );
        let WeightedGroup { mut states, mut rows, pending } = group;
        let n = states.num_qubits();
        {
            let (re, im) = states.planes();
            meas.branch_probabilities_block(n, re, im, &mut s.probs);
        }
        let outcomes = meas.num_outcomes();
        // Health checks piggyback on the probability pass: measurements
        // are trace-complete (`Σm M†mMm = I`), so each row's probability
        // mass must equal its carried branch weight up to drift tolerance.
        if let Some(cfg) = self.health {
            for (r, ctx) in rows.iter().enumerate() {
                let range = r * outcomes..(r + 1) * outcomes;
                let total: f64 = s.probs[range.clone()].iter().sum();
                let check = check_health(cfg, ctx.orig, "branch probabilities", ctx.weight, total);
                match check? {
                    None => {}
                    Some(Repair::Rescale(ratio)) => {
                        // Rescale the row's amplitudes and its probability
                        // entries together, so child weights stay
                        // consistent with the repaired amplitudes.
                        let (row_re, row_im) = states.row_planes_mut(r);
                        scale_planes(row_re, row_im, C64::real(ratio.sqrt()));
                        for p in &mut s.probs[range] {
                            *p *= ratio;
                        }
                    }
                    Some(Repair::Degrade) => {
                        // Zeroing the row's probability entries drops it
                        // from every outcome (nothing clears BRANCH_PRUNE),
                        // excising its subtree from the batched sweep; the
                        // tile re-runs it on the per-row enumerator.
                        self.defects.push(ctx.orig);
                        for p in &mut s.probs[range] {
                            *p = 0.0;
                        }
                    }
                }
            }
        }
        s.keep.clear();
        s.keep.resize(rows.len() * outcomes, false);
        for (keep, &w) in s.keep.iter_mut().zip(&s.probs) {
            *keep = w > BRANCH_PRUNE;
        }
        let mut selected = std::mem::take(&mut s.selected);
        for m in 0..outcomes {
            selected.clear();
            let mut sub_rows = s.weighted_rows.pop().unwrap_or_default();
            for (r, ctx) in rows.iter().enumerate() {
                if s.keep[r * outcomes + m] {
                    selected.push(r);
                    sub_rows.push(WeightedRow {
                        orig: ctx.orig,
                        weight: s.probs[r * outcomes + m],
                    });
                }
            }
            if selected.is_empty() {
                pool_give(&mut s.weighted_rows, sub_rows);
                continue;
            }
            let (mut dst_re, mut dst_im) = s.take_block();
            {
                let (re, im) = states.planes();
                meas.collapse_block_into(n, re, im, &selected, m, &mut dst_re, &mut dst_im);
            }
            let pending = s.take_pending(n);
            forks.push((
                m,
                WeightedGroup {
                    states: BatchedStates::from_raw(selected.len(), n, dst_re, dst_im),
                    rows: sub_rows,
                    pending,
                },
            ));
        }
        s.selected = selected;
        rows.clear();
        s.reclaim_weighted(WeightedGroup { states, rows, pending });
        Ok(())
    }
}

/// The per-call matrices of one parameterised gate of an
/// [`AdjointProgram`]: entry `i` of the table
/// [`AdjointProgram::gradient_sweep`] takes is what a table gate naming
/// entry `i` ([`TrajProgram::push_table_gate`]) reads.
#[derive(Clone, Debug)]
pub struct ParamGate {
    /// `U(θ)`, the matrix the forward pass applies.
    pub matrix: Matrix,
    /// `U(θ + π)`. Every rotation-type gate `exp(−iθG/2)·C` with `G² = I`
    /// (rotations, couplings and their iterated controlled forms) has
    /// `∂U/∂θ = ½·U(θ + π)`, the identity behind the paper's gadget.
    pub shifted: Matrix,
    /// The gradient column the gate's terms add to.
    pub column: usize,
}

/// Kernel passes an adjoint sweep makes per op, about: the forward
/// application, then `U†` on the state and on the costate and `U(θ + π)`
/// on a copy for the parameter's term.
const ADJOINT_PASSES: usize = 4;

/// Exact gradients by the **adjoint method** (reverse mode): every
/// parameter's derivative of `Σ_programs Σ_branches ⟨ψb|O|ψb⟩` on every
/// row, from one forward and one backward sweep per branch.
///
/// Each branch of a program is a linear map `A_b` on the unnormalised
/// state (gates, then at every `case` or reset the operator `M_m` of the
/// outcome taken), and `E = Σ_b ⟨A_bψ|O|A_bψ⟩`. So the sweep runs the
/// program forward on the walker every sweep runs on, unfused: a
/// depth-first walk over its branch tree that forks each group at
/// measurements with the exact sweeps' weighted fork rule (unmonitored),
/// while its action records each gate and keeps the
/// block each fork forked. At a leaf it sets the costate
/// `λ = Oφ`. Walking each straight-line segment backward, it undoes every
/// gate `U` on `φ` and on `λ` with `U†`, and adds `Re⟨λ|U(θ+π)|φ⟩` (with
/// `λ` after the gate and `φ` before it: `2·Re⟨λ|∂U|φ⟩`) to the
/// parameterised gate's column. At a fork it sums `M_m†λ_m` over the
/// outcomes, in ascending order, into the costate of the kept block.
/// Repeated parameters simply add up their occurrences. There is no
/// ancilla: everything runs on the input's `2ⁿ` amplitudes.
///
/// By Theorem 6.2 this is the quantity the paper's derivative programs
/// compute, so it agrees with sweeping each parameter's derivative
/// multiset (each program's [`ShotEngine::expectation_sweep`] on `|0⟩⊗ψ`
/// with `Z_A⊗O`) to rounding. Every row's arithmetic depends on that row alone: its
/// gradients are bit-for-bit the same under any thread count and batch
/// composition.
///
/// It holds the programs it is built from, shared, not copied: `qdp_ad`'s
/// `LoweredSet` builds it from the same programs its exact and
/// sampled sweeps bind. Each fixed gate's `U†` and each measurement's
/// `M_m†` are built once per program, the first time a gradient sweep
/// reads them, and are kept with the program; the other sweeps never
/// build them.
#[derive(Clone, Debug)]
pub struct AdjointProgram {
    programs: Vec<Arc<TrajProgram>>,
    /// Ops over every program, each measurement once plus its arms.
    ops: usize,
}

impl AdjointProgram {
    /// The programs of a multiset, whose gradients sum in multiset order,
    /// shared with their other owners.
    /// Table gates ([`TrajProgram::push_table_gate`]) are parameterised:
    /// the gate naming entry `i` reads entry `i` of the [`ParamGate`] table
    /// each sweep takes.
    pub fn build(programs: impl IntoIterator<Item = Arc<TrajProgram>>) -> Self {
        let programs: Vec<Arc<TrajProgram>> = programs.into_iter().collect();
        AdjointProgram {
            ops: programs.iter().map(|p| p.op_count()).sum(),
            programs,
        }
    }

    /// `out[c][r]`: the derivative, on row `r`, of the programs' summed
    /// exact expectation of `obs` with respect to the parameter of column
    /// `c`, each gate's matrices read from `table` (see [`ParamGate`]).
    ///
    /// Batches whose work (rows × amplitudes × ops × the sweep's passes)
    /// reaches [`qdp_par::FORK_MIN_WORK`] split into [`EXACT_TILE`]-row
    /// tiles across `qdp_par`; smaller ones run on the calling thread.
    ///
    /// The sweep runs **unmonitored**, as an engine without
    /// [`ShotEngine::with_health`] does: its forks carry no health checks
    /// and drop only branches at weight ≤ [`BRANCH_PRUNE`].
    ///
    /// # Panics
    ///
    /// Panics when a row tile still panicked after its bit-identical
    /// retries, when `table` lacks an entry the programs name or names a
    /// column at or past `columns`, or when the register sizes of the
    /// batch, the programs and `obs` disagree.
    pub fn gradient_sweep(
        &self,
        table: &[ParamGate],
        columns: usize,
        states: BatchedStates,
        obs: &Observable,
    ) -> Vec<Vec<f64>> {
        let total_rows = states.len();
        if total_rows == 0 || self.programs.is_empty() {
            return vec![vec![0.0; total_rows]; columns];
        }
        assert_eq!(
            obs.num_qubits(),
            states.num_qubits(),
            "observable register size mismatch"
        );
        let adjoints: Vec<Matrix> = table.iter().map(|g| g.matrix.dagger()).collect();
        let blocks = exact_tiles(states, self.ops * ADJOINT_PASSES, |block| {
            self.sweep_tile(table, &adjoints, columns, block, obs)
        })
        .unwrap_or_else(|e| panic!("{e}"));
        let mut out = vec![Vec::with_capacity(total_rows); columns];
        for (rows, grads) in blocks {
            for (c, col) in out.iter_mut().enumerate() {
                col.extend((0..rows).map(|r| grads[r * columns + c]));
            }
        }
        out
    }

    /// One tile: every program over one block, into a row-major
    /// `rows × columns` buffer.
    fn sweep_tile(
        &self,
        table: &[ParamGate],
        adjoints: &[Matrix],
        columns: usize,
        states: BatchedStates,
        obs: &Observable,
    ) -> Result<Vec<f64>, QdpError> {
        let rows = states.len();
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            // The unmonitored exact sweep's forks: no health checks.
            let rule = WeightedFork {
                health: None,
                defects: Vec::new(),
            };
            let action = Adjoint {
                table,
                adjoints,
                obs,
                grads: vec![0.0; rows * columns],
                columns,
                gates: Vec::new(),
                forks: Vec::new(),
            };
            let mut walker = Walker::new(scratch, table, false, rule, action);
            if let Some((last, rest)) = self.programs.split_last() {
                for program in rest {
                    let root = weighted_root(states.clone(), walker.scratch);
                    walker.walk(&program.ops, None, root)?;
                }
                let root = weighted_root(states, walker.scratch);
                walker.walk(&last.ops, None, root)?;
            }
            Ok(walker.action.grads)
        })
    }
}

/// The adjoint sweep's action over its (unfused) walk: it records the
/// gates of every open segment, keeps the block each fork forked, sets the
/// costate `λ = Oφ` at a leaf, joins each fork's outcomes into their
/// parent's costate, and walks every segment backward once its subtree
/// has run.
struct Adjoint<'a> {
    table: &'a [ParamGate],
    /// `U†` of each table entry.
    adjoints: &'a [Matrix],
    obs: &'a Observable,
    /// Row-major `rows × columns`: row `r`'s gradient in column `c` at
    /// `r * columns + c`.
    grads: Vec<f64>,
    columns: usize,
    /// The gates of every open segment, outermost segment first.
    gates: Vec<(&'a TrajMatrix, &'a [usize])>,
    /// Per open fork, innermost last: the block it forked, the costate its
    /// outcomes have joined into so far, and where its outcomes' segments
    /// start in `gates` (the root's segment starts at 0).
    forks: Vec<(WeightedGroup, Option<BatchedStates>, usize)>,
}

impl<'a> Action<'a, WeightedGroup> for Adjoint<'a> {
    /// The costate at the segment's start over its rows, when some leaf
    /// below survived.
    type Up = Option<WeightedGroup>;

    fn gate(&mut self, matrix: &'a TrajMatrix, targets: &'a [usize]) {
        self.gates.push((matrix, targets));
    }

    fn leaf(&mut self, scratch: &mut RegroupScratch, group: WeightedGroup) -> Self::Up {
        let mut lambda = scratch.copy_states(&group.states);
        lambda.apply_gate(self.obs.matrix(), self.obs.targets());
        self.backward(scratch, group, Some(lambda))
    }

    fn abort(&mut self, scratch: &mut RegroupScratch, group: WeightedGroup) -> Self::Up {
        // Aborted branches contribute nothing.
        self.backward(scratch, group, None)
    }

    fn split(&mut self, scratch: &mut RegroupScratch, group: &WeightedGroup) {
        let kept = scratch.copy_weighted(group);
        self.forks.push((kept, None, self.gates.len()));
    }

    /// Pulls the outcome's costate back (`M_m†λ_m`, the reset's flip
    /// undone first) and adds it, row by row, into the fork's costate.
    fn join(
        &mut self,
        scratch: &mut RegroupScratch,
        outcome: usize,
        up: Self::Up,
        meas: &TrajMeasurement,
        flip: Option<(&Matrix, usize)>,
    ) {
        let (Some(mut child), Some((group, lambda, _))) = (up, self.forks.last_mut()) else {
            return;
        };
        if let Some((flip, target)) = flip {
            child.states.apply_gate(flip, &[target]);
        }
        child.states.apply_gate(meas.adjoint(outcome), meas.meas.targets());
        let lambda = lambda.get_or_insert_with(|| {
            let (mut re, mut im) = scratch.take_block();
            let len = group.states.len() * group.states.dim();
            re.resize(len, 0.0);
            im.resize(len, 0.0);
            BatchedStates::from_raw(group.states.len(), group.states.num_qubits(), re, im)
        });
        // Rows keep their relative order through every fork, so each
        // child row is found by one forward scan of the parent's.
        let mut p = 0;
        for (c, ctx) in child.rows.iter().enumerate() {
            while group.rows[p].orig != ctx.orig {
                p += 1;
            }
            let (cre, cim) = child.states.row_planes(c);
            let (lre, lim) = lambda.row_planes_mut(p);
            for (l, x) in lre.iter_mut().zip(cre) {
                *l += x;
            }
            for (l, x) in lim.iter_mut().zip(cim) {
                *l += x;
            }
        }
        scratch.reclaim_weighted(child);
    }

    fn close(&mut self, scratch: &mut RegroupScratch) -> Self::Up {
        let Some((kept, lambda, _)) = self.forks.pop() else {
            unreachable!("a fork closes after it split")
        };
        self.backward(scratch, kept, lambda)
    }
}

impl Adjoint<'_> {
    /// Ends the innermost open segment, the one that starts at the
    /// innermost open fork (or the root): walks it backward from its end,
    /// where `phi` holds the state and `lambda` the costate of `phi`'s rows
    /// (`None`: no leaf below survived, so nothing flows back). Each gate is
    /// undone on both with `U†`, and a parameterised gate adds
    /// `Re⟨λ|U(θ+π)|φ⟩`, the costate after it against the state before it,
    /// to its column. Returns the costate at the segment's start, over
    /// `phi`'s rows, unless the segment is the root's, whose costate no
    /// fork reads; undoes nothing the rest of the walk does not read.
    fn backward(
        &mut self,
        scratch: &mut RegroupScratch,
        mut phi: WeightedGroup,
        lambda: Option<BatchedStates>,
    ) -> Option<WeightedGroup> {
        let (start, costate) = match self.forks.last() {
            Some(&(_, _, start)) => (start, true),
            None => (0, false),
        };
        let Some(mut lambda) = lambda else {
            self.gates.truncate(start);
            scratch.reclaim_weighted(phi);
            return None;
        };
        let segment = &self.gates[start..];
        let first_param = segment.iter().position(|(m, _)| matches!(m, TrajMatrix::Table(_)));
        for (k, &(matrix, targets)) in segment.iter().enumerate().rev() {
            let terms_left = first_param.is_some_and(|f| f <= k);
            if !terms_left && !costate {
                break;
            }
            let adjoint = match matrix {
                TrajMatrix::Own { matrix, adjoint } => adjoint.get_or_init(|| matrix.dagger()),
                TrajMatrix::Table(i) => &self.adjoints[*i],
            };
            if terms_left {
                phi.states.apply_gate(adjoint, targets);
            }
            if let TrajMatrix::Table(i) = matrix {
                // `Re⟨λr|U(θ+π)|φr⟩` into row `r`'s column, every row.
                let gate = &self.table[*i];
                let mut shifted = scratch.copy_states(&phi.states);
                shifted.apply_gate(&gate.shifted, targets);
                for (r, ctx) in phi.rows.iter().enumerate() {
                    let (lre, lim) = lambda.row_planes(r);
                    let (sre, sim) = shifted.row_planes(r);
                    self.grads[ctx.orig * self.columns + gate.column] +=
                        crate::lanes::dot_re(lre, lim, sre, sim);
                }
                scratch.give_block(shifted.into_raw());
            }
            if costate || first_param.is_some_and(|f| f < k) {
                lambda.apply_gate(adjoint, targets);
            }
        }
        self.gates.truncate(start);
        if costate {
            let WeightedGroup { states, rows, pending } = phi;
            scratch.give_block(states.into_raw());
            Some(WeightedGroup {
                states: lambda,
                rows,
                pending,
            })
        } else {
            scratch.reclaim_weighted(phi);
            scratch.give_block(lambda.into_raw());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observable::Observable;
    use crate::simd::SimdTier;
    use crate::test_support::{crafted_rows, draws, oracle_sampler, streams};

    fn rotation_y(theta: f64) -> Matrix {
        Matrix::rotation_from_involution(&Matrix::pauli_y(), theta)
    }

    #[test]
    fn straight_line_batch_matches_per_row_gates() {
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_gate(Matrix::cnot(), vec![0, 1]);
        p.push_gate(rotation_y(0.7), vec![1]);
        let engine = ShotEngine::new(p);
        let inputs: Vec<StateVector> = (0..5).map(|k| StateVector::basis_state(2, k % 4)).collect();
        let batch = BatchedStates::from_states(&inputs);
        let rows = engine.run(batch, &[1; 5], &streams(3, 5)).unwrap();
        for (input, row) in inputs.iter().zip(&rows) {
            let mut expected = input.clone();
            expected.apply_gate(&Matrix::hadamard(), &[0]);
            expected.apply_gate(&Matrix::cnot(), &[0, 1]);
            expected.apply_gate(&rotation_y(0.7), &[1]);
            assert!(row.outcomes.is_empty());
            assert_eq!(
                row.state.as_ref().unwrap().amplitudes(),
                expected.amplitudes()
            );
        }
    }

    #[test]
    fn init_resets_every_row_to_zero() {
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_init(0);
        let engine = ShotEngine::new(p);
        let rows = engine.run(BatchedStates::zero(1, 1), &[32], &streams(7, 32)).unwrap();
        let mut seen = [false, false];
        for row in &rows {
            assert_eq!(row.outcomes.len(), 1);
            seen[row.outcomes[0]] = true;
            let state = row.state.as_ref().unwrap();
            assert_eq!(state.classical_bit(0), Some(false));
        }
        // Both measurement outcomes occur across 32 shots of |+⟩.
        assert!(seen[0] && seen[1], "outcomes {seen:?}");
    }

    #[test]
    fn abort_rows_are_reported_as_none() {
        let mut killed = TrajProgram::new();
        killed.push_abort();
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_case(
            Measurement::computational(vec![0]),
            vec![TrajProgram::new(), killed],
        );
        let engine = ShotEngine::new(p);
        let rows = engine.run(BatchedStates::zero(1, 1), &[64], &streams(11, 64)).unwrap();
        let mut aborted = 0usize;
        for row in &rows {
            match row.outcomes[0] {
                0 => assert!(row.state.is_some()),
                _ => {
                    assert!(row.state.is_none());
                    aborted += 1;
                }
            }
        }
        assert!(aborted > 0, "no trajectory took the aborting arm");
    }

    #[test]
    fn repeated_shots_share_state_rows() {
        // 256 shots of one input through `H; case M[q0]`: the sweep must
        // finish holding one state row per outcome, not one per shot.
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_case(
            Measurement::computational(vec![0]),
            vec![TrajProgram::new(), TrajProgram::new()],
        );
        let engine = ShotEngine::new(p);
        let streams = streams(4, 256);
        let psi = StateVector::zero_state(2);
        for fuse in [false, true] {
            let batch = BatchedStates::from_states(std::slice::from_ref(&psi));
            let sweep = engine.sampled_sweep(batch, &[256], &streams, fuse).unwrap();
            assert!(sweep.aborted.is_empty());
            let rows: usize = sweep.finished.iter().map(|g| g.states.len()).sum();
            let members: usize = sweep.finished.iter().map(|g| g.members.len()).sum();
            assert!(rows <= 2, "fuse {fuse}: {rows} state rows for 256 shots");
            assert_eq!(members, 256);
        }
    }

    #[test]
    fn sample_sweep_matches_run_plus_serial_sampling() {
        // One engine call with a read-out must equal running trajectories
        // first and sampling each surviving state with the continued
        // per-row stream. (Every straight-line segment here is a single
        // gate, so sweep fusion is trivially the identity and the
        // agreement is bitwise.)
        let mut arm1 = TrajProgram::new();
        arm1.push_gate(rotation_y(1.1), vec![1]);
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_case(
            Measurement::computational(vec![0]),
            vec![TrajProgram::new(), arm1],
        );
        let engine = ShotEngine::new(p);
        let obs = Observable::pauli_z(2, 1);
        let readout = ProjectiveObservable::new(&obs);
        let shots = 40;

        let streams = streams(5, shots);
        let batch = BatchedStates::zero(1, 2);
        let samples = engine.sample_sweep(batch, &[shots], &streams, &readout).unwrap();

        let batch = BatchedStates::zero(1, 2);
        let rows = engine.run(batch, &[shots], &streams).unwrap();
        for (row, (&stream, sample)) in rows.iter().zip(streams.iter().zip(&samples)) {
            // The read-out is the stream's draw after the trajectory's.
            let mut sampler = oracle_sampler(stream);
            for _ in &row.outcomes {
                sampler.next_uniform();
            }
            let expected = match &row.state {
                None => 0.0,
                Some(psi) => sampler.sample_observable(psi, &obs),
            };
            assert_eq!(expected.to_bits(), sample.to_bits());
        }
    }

    #[test]
    fn estimate_expectation_converges_and_is_deterministic() {
        let mut p = TrajProgram::new();
        p.push_gate(rotation_y(0.8), vec![0]);
        let engine = ShotEngine::new(p);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let readout = ProjectiveObservable::new(&obs);
        let inputs = std::slice::from_ref(&psi);
        let multiset = std::slice::from_ref(&engine);
        let est = estimate_batch(&[multiset], &readout, inputs, 40_000, &[vec![2024]]).unwrap()[0][0];
        assert!((est - 0.8f64.cos()).abs() < 0.02, "estimate {est}");
        let again = estimate_batch(&[multiset], &readout, inputs, 40_000, &[vec![2024]]).unwrap()[0][0];
        assert_eq!(est.to_bits(), again.to_bits());
    }

    #[test]
    fn empty_batch_is_harmless() {
        let engine = ShotEngine::new(TrajProgram::new());
        let rows = engine.run(BatchedStates::from_states(&[]), &[], &[]).unwrap();
        assert!(rows.is_empty());
        assert!(engine
            .expectation_sweep(BatchedStates::from_states(&[]), &Observable::pauli_z(1, 0))
            .unwrap()
            .is_empty());
    }

    /// The per-row exact branch enumerator — the oracle of the weighted
    /// sweep on the trajectory IR, branch for branch in the depth-first
    /// order of `qdp_lang::denot::run_pure_branches` (Init enumerated as
    /// measure + flip).
    fn enumerate_branches(ops: &[TrajOp], mut psi: StateVector, out: &mut Vec<StateVector>) {
        for (i, op) in ops.iter().enumerate() {
            match op {
                TrajOp::Gate { matrix, targets } => {
                    psi.apply_gate(matrix.get::<[Matrix]>(&[]), targets)
                }
                TrajOp::Abort => return,
                TrajOp::Init { meas, flip, target } => {
                    for b in meas.meas.branches_pure(&psi) {
                        if b.probability > BRANCH_PRUNE {
                            let mut state = b.state;
                            if b.outcome == 1 {
                                state.apply_gate(flip, &[*target]);
                            }
                            enumerate_branches(&ops[i + 1..], state, out);
                        }
                    }
                    return;
                }
                TrajOp::Case { meas, arms } => {
                    for b in meas.meas.branches_pure(&psi) {
                        if b.probability > BRANCH_PRUNE {
                            let mut mids = Vec::new();
                            enumerate_branches(&arms[b.outcome].ops, b.state, &mut mids);
                            for mid in mids {
                                enumerate_branches(&ops[i + 1..], mid, out);
                            }
                        }
                    }
                    return;
                }
            }
        }
        out.push(psi);
    }

    fn branching_program() -> TrajProgram {
        // H; case M[0] = 0 -> RY(1.1)[1], 1 -> (RY(0.4)[0]; init 1) end; CNOT
        let mut arm0 = TrajProgram::new();
        arm0.push_gate(rotation_y(1.1), vec![1]);
        let mut arm1 = TrajProgram::new();
        arm1.push_gate(rotation_y(0.4), vec![0]);
        arm1.push_init(1);
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_case(Measurement::computational(vec![0]), vec![arm0, arm1]);
        p.push_gate(Matrix::cnot(), vec![0, 1]);
        p
    }

    #[test]
    fn expectation_sweep_matches_per_row_enumeration() {
        let engine = ShotEngine::new(branching_program());
        let obs = Observable::pauli_z(2, 1);
        let inputs: Vec<StateVector> = (0..5)
            .map(|k| {
                let mut s = StateVector::basis_state(2, k % 4);
                s.apply_gate(&rotation_y(0.3 + 0.2 * k as f64), &[0]);
                s
            })
            .collect();
        let swept = engine.expectation_sweep(BatchedStates::from_states(&inputs), &obs).unwrap();
        for (r, psi) in inputs.iter().enumerate() {
            let mut leaves = Vec::new();
            enumerate_branches(&engine.program().ops, psi.clone(), &mut leaves);
            let expected: f64 = leaves.iter().map(|b| obs.expectation_pure(b)).sum();
            assert!(
                (swept[r] - expected).abs() < 1e-12,
                "row {r}: swept {} vs enumerated {expected}",
                swept[r]
            );
        }
    }

    #[test]
    fn expectation_sweep_rows_are_invariant_under_batch_composition() {
        // Per-row results must carry identical bits whether the row runs
        // alone or inside any batch, in any order.
        let engine = ShotEngine::new(branching_program());
        let obs = Observable::pauli_z(2, 1);
        let inputs: Vec<StateVector> = (0..6)
            .map(|k| {
                let mut s = StateVector::basis_state(2, k % 4);
                s.apply_gate(&rotation_y(0.9 - 0.1 * k as f64), &[1]);
                s
            })
            .collect();
        let together = engine.expectation_sweep(BatchedStates::from_states(&inputs), &obs).unwrap();
        for (r, psi) in inputs.iter().enumerate() {
            let alone = engine
                .expectation_sweep(BatchedStates::from_states(std::slice::from_ref(psi)), &obs)
                .unwrap()[0];
            assert_eq!(together[r].to_bits(), alone.to_bits(), "row {r}");
        }
        let reversed: Vec<StateVector> = inputs.iter().rev().cloned().collect();
        let backwards = engine.expectation_sweep(BatchedStates::from_states(&reversed), &obs).unwrap();
        for (r, v) in together.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                backwards[inputs.len() - 1 - r].to_bits(),
                "row {r} under reversal"
            );
        }
    }

    /// A program over the table entries `0` (`RY`) and `1` (`RX`): `RY`
    /// before a case on qubit 0 and in its continuation, `RX` in arm 0,
    /// and `other` in arm 1. With `table = Some(..)` each table gate holds
    /// its own copy of the entry instead.
    fn table_program(other: fn(&mut TrajProgram), table: Option<&[Matrix]>) -> TrajProgram {
        let gate = |p: &mut TrajProgram, entry: usize, t: usize| match table {
            Some(table) => p.push_gate(table[entry].clone(), vec![t]),
            None => p.push_table_gate(entry, vec![t]),
        };
        let (mut arm0, mut arm1) = (TrajProgram::new(), TrajProgram::new());
        gate(&mut arm0, 1, 1);
        gate(&mut arm0, 0, 1);
        other(&mut arm1);
        let mut p = TrajProgram::new();
        gate(&mut p, 0, 0);
        p.push_gate(Matrix::hadamard(), vec![1]);
        p.push_case(Measurement::computational(vec![0]), vec![arm0, arm1]);
        gate(&mut p, 0, 1);
        p
    }

    fn ry_rx(a: [f64; 2]) -> Vec<Matrix> {
        vec![
            rotation_y(a[0]),
            Matrix::rotation_from_involution(&Matrix::pauli_x(), a[1]),
        ]
    }

    fn inputs(n: usize) -> Vec<StateVector> {
        (0..n)
            .map(|k| {
                let mut s = StateVector::basis_state(2, k % 4);
                s.apply_gate(&rotation_y(0.4 + 0.3 * k as f64), &[0]);
                s
            })
            .collect()
    }

    #[test]
    fn table_gates_carry_the_bits_of_their_own_matrices() {
        let table = ry_rx([0.9, -0.6]);
        let reset = |p: &mut TrajProgram| p.push_init(1);
        let bound = ShotEngine::bound(
            Arc::new(table_program(reset, None)),
            Arc::from(table.clone()),
        );
        let own = ShotEngine::new(table_program(reset, Some(&table)));
        let obs = Observable::pauli_z(2, 1);
        let readout = ProjectiveObservable::new(&obs);
        let rows = || BatchedStates::from_states(&inputs(3));
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let shots = [5, 3, 4];
        let streams = streams(3, 12);
        let run = |engine: &ShotEngine| -> Vec<(Vec<usize>, Option<Vec<u64>>)> {
            let out = engine.run(rows(), &shots, &streams).unwrap();
            out.into_iter()
                .map(|row| {
                    let amps = row.state.map(|s| {
                        let (re, im) = s.planes();
                        bits(re.iter().chain(im).copied().collect())
                    });
                    (row.outcomes, amps)
                })
                .collect()
        };
        let sample = |engine: &ShotEngine| {
            bits(
                engine
                    .sample_sweep(rows(), &shots, &streams, &readout)
                    .unwrap(),
            )
        };
        let exact = |engine: &ShotEngine| bits(engine.expectation_sweep(rows(), &obs).unwrap());
        assert_eq!(run(&bound), run(&own));
        assert_eq!(sample(&bound), sample(&own));
        assert_eq!(exact(&bound), exact(&own));
    }

    #[test]
    fn adjoint_gradient_matches_finite_differences_through_forks() {
        // θ0 on a rotation before a case and in its continuation, θ1 in
        // one arm; the other arm resets, and a second program aborts in
        // one arm: every kind of fork the backward pass pulls back through.
        let programs = [
            Arc::new(table_program(|p| p.push_init(1), None)),
            Arc::new(table_program(TrajProgram::push_abort, None)),
        ];
        let angles = [0.7, -1.3];
        let gates = |a: [f64; 2]| -> Vec<ParamGate> {
            let shifted = ry_rx([a[0] + std::f64::consts::PI, a[1] + std::f64::consts::PI]);
            ry_rx(a)
                .into_iter()
                .zip(shifted)
                .enumerate()
                .map(|(column, (matrix, shifted))| ParamGate {
                    matrix,
                    shifted,
                    column,
                })
                .collect()
        };
        let obs = Observable::pauli_z(2, 1);
        let rows = inputs(3);
        let grads = AdjointProgram::build(programs.iter().cloned()).gradient_sweep(
            &gates(angles),
            2,
            BatchedStates::from_states(&rows),
            &obs,
        );
        let value = |a: [f64; 2]| -> Vec<f64> {
            let table: Arc<[Matrix]> = Arc::from(ry_rx(a));
            let columns: Vec<Vec<f64>> = programs
                .iter()
                .map(|p| {
                    ShotEngine::bound(Arc::clone(p), Arc::clone(&table))
                        .expectation_sweep(BatchedStates::from_states(&rows), &obs)
                        .unwrap()
                })
                .collect();
            (0..rows.len())
                .map(|r| columns[0][r] + columns[1][r])
                .collect()
        };
        let step = 1e-6;
        for c in 0..2 {
            let (mut up, mut down) = (angles, angles);
            up[c] += step;
            down[c] -= step;
            for (r, (u, d)) in value(up).iter().zip(value(down)).enumerate() {
                let numeric = (u - d) / (2.0 * step);
                assert!(
                    (grads[c][r] - numeric).abs() < 1e-8,
                    "column {c} row {r}: adjoint {} vs finite difference {numeric}",
                    grads[c][r]
                );
            }
        }
    }

    #[test]
    fn leaf_weights_sum_to_one_for_abort_free_programs() {
        let engine = ShotEngine::new(branching_program());
        let inputs: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(2, k)).collect();
        let weights = engine.leaf_weights(BatchedStates::from_states(&inputs));
        for (r, row) in weights.iter().enumerate() {
            let total: f64 = row.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "row {r}: leaf weights {row:?} sum to {total}"
            );
            assert!(row.iter().all(|&w| w > 0.0), "row {r}: {row:?}");
        }
    }

    #[test]
    fn aborted_branches_contribute_nothing() {
        // H; case M[0] = 0 -> skip, 1 -> abort end: only the |0⟩ branch
        // (weight 1/2) reads out.
        let mut killed = TrajProgram::new();
        killed.push_abort();
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_case(
            Measurement::computational(vec![0]),
            vec![TrajProgram::new(), killed],
        );
        let engine = ShotEngine::new(p);
        let obs = Observable::projector_zero(1, 0);
        let swept = engine.expectation_sweep(BatchedStates::zero(3, 1), &obs).unwrap();
        for (r, v) in swept.iter().enumerate() {
            assert!((v - 0.5).abs() < 1e-12, "row {r}: {v}");
        }
        let weights = engine.leaf_weights(BatchedStates::zero(2, 1));
        for row in &weights {
            assert_eq!(row.len(), 1, "only the surviving branch leaves a leaf");
            assert!((row[0] - 0.5).abs() < 1e-12);
        }
    }

    /// The early-exit selection walk the sampled fork ran before it
    /// became branch-free: the oracle [`select_branch`] is pinned to.
    fn early_exit_select(u: f64, total: f64, probs: &[f64]) -> (usize, bool) {
        let mut r: f64 = u * total;
        for (outcome, &p) in probs.iter().enumerate() {
            r -= p;
            if r <= 0.0 {
                return (outcome, false);
            }
        }
        let outcome = (0..probs.len())
            .rev()
            .find(|&m| probs[m] > 0.0)
            .expect("no branch has support");
        (outcome, true)
    }

    #[test]
    fn branch_free_selection_matches_the_early_exit_walk() {
        // One draw at a time, and `SELECT_LANES` draws at a time as the
        // member loops count them.
        for (total, probs) in crafted_rows() {
            let us = draws(total, &probs);
            for u in &us {
                let [first] = select_counts([*u], total, &probs);
                assert_eq!(
                    select_branch(first, &probs),
                    early_exit_select(*u, total, &probs),
                    "u {u} total {total} probs {probs:?}"
                );
            }
            for lanes in us.chunks(SELECT_LANES) {
                let mut padded = [0.0; SELECT_LANES];
                padded[..lanes.len()].copy_from_slice(lanes);
                let firsts = select_counts(padded, total, &probs);
                for (u, &first) in lanes.iter().zip(&firsts) {
                    assert_eq!(
                        select_branch(first, &probs),
                        early_exit_select(*u, total, &probs),
                        "lanes: u {u} total {total} probs {probs:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no branch has support")]
    fn branch_free_selection_of_a_nan_row_panics() {
        let probs = [f64::NAN, f64::NAN];
        select_branch(select_counts([0.5], f64::NAN, &probs)[0], &probs);
    }

    #[test]
    fn regroup_keeps_shot_order_and_first_member_numbering() {
        // 2048 shots of three inputs through a two-qubit measurement: every
        // leaf lists its shots in ascending order, and its classes are
        // numbered by first member.
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_gate(Matrix::hadamard(), vec![1]);
        p.push_case(
            Measurement::computational(vec![0, 1]),
            (0..4).map(|_| TrajProgram::new()).collect(),
        );
        let engine = ShotEngine::new(p);
        let inputs = inputs(3);
        let counts = [1000, 24, 1024];
        let streams = streams(8, 2048);
        let sweep = engine
            .sampled_sweep(BatchedStates::from_states(&inputs), &counts, &streams, false)
            .unwrap();
        assert!(sweep.aborted.is_empty());
        assert_eq!(sweep.finished.len(), 4);
        let mut seen = 0;
        for group in &sweep.finished {
            assert!(group.members.windows(2).all(|w| w[0].shot < w[1].shot));
            let mut next_class = 0;
            for m in &group.members {
                assert!(m.class() <= next_class, "class {} before {next_class}", m.class());
                next_class = next_class.max(m.class() + 1);
            }
            assert_eq!(next_class, group.states.len());
            seen += group.members.len();
        }
        assert_eq!(seen, 2048);
    }

    #[test]
    #[should_panic(expected = "one stream per batch row shot")]
    fn mismatched_stream_count_panics() {
        let engine = ShotEngine::new(TrajProgram::new());
        let _ = engine.run(BatchedStates::zero(2, 1), &[1, 1], &streams(1, 1));
    }

    /// Streams of two seeds whose indices skip, as a multi-program
    /// multiset's do, plus the index extremes.
    fn scattered_streams(shots: usize) -> Vec<ShotStream> {
        (0..shots as u64)
            .map(|i| match i % 7 {
                5 => ShotStream { seed: u64::MAX - i, index: u64::MAX - i },
                _ => ShotStream { seed: 0xD1CE + (i & 1), index: 5 * i + 2 },
            })
            .collect()
    }

    /// Every plane up to `depth` against the streams' own samplers, bitwise.
    fn assert_planes_match_samplers(
        variates: &mut ShotVariates,
        streams: &[ShotStream],
        what: &str,
    ) {
        let depth = variates.depth();
        let mut oracles: Vec<ShotSampler> = streams.iter().map(|&s| oracle_sampler(s)).collect();
        for k in 0..depth {
            let plane = variates.uniforms(k).to_vec();
            for (i, (oracle, u)) in oracles.iter_mut().zip(&plane).enumerate() {
                let want = oracle.next_uniform();
                assert_eq!(want.to_bits(), u.to_bits(), "{what}: shot {i} draw {k}");
            }
        }
    }

    #[test]
    fn variate_plane_matches_derived_streams_at_every_tier() {
        // 37 shots: whole vectors plus a remainder at every tier.
        let streams = scattered_streams(37);
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            let mut variates = ShotVariates::new(&streams);
            for _ in 0..5 {
                variates.fill_next(tier);
            }
            assert_eq!(variates.depth(), 5);
            assert_planes_match_samplers(&mut variates, &streams, &format!("{tier:?}"));
        }
        // Asking for a deep plane first fills every plane before it, and
        // no more.
        let mut variates = ShotVariates::new(&streams);
        let deep = variates.uniforms(3).to_vec();
        assert_eq!(variates.depth(), 4);
        assert_eq!(deep, variates.uniforms(3));
        assert_planes_match_samplers(&mut variates, &streams, "lazy");
        assert!(ShotVariates::new(&[]).uniforms(2).is_empty());
    }

    /// `while M[q0] = 1 do RY(1.6)[q0] od` unrolled `bound` times (abort
    /// past the bound), after an arm-dependent prelude: outcome 0 of the
    /// first `case` resets `q1` (`init`) and reads out, outcome 1 enters
    /// the loop. Every segment is one gate, so the fused sample sweep
    /// carries `run`'s bits.
    fn ragged_depth_program(bound: usize) -> TrajProgram {
        fn unroll(k: usize) -> TrajProgram {
            let mut p = TrajProgram::new();
            if k == 0 {
                p.push_abort();
            } else {
                p.push_gate(rotation_y(1.6), vec![0]);
                p.push_case(
                    Measurement::computational(vec![0]),
                    vec![TrajProgram::new(), unroll(k - 1)],
                );
            }
            p
        }
        let mut reset = TrajProgram::new();
        reset.push_init(1);
        let mut p = TrajProgram::new();
        p.push_gate(Matrix::hadamard(), vec![0]);
        p.push_case(Measurement::computational(vec![0]), vec![reset, unroll(bound)]);
        p
    }

    /// Serialises the lib tests that move the process-wide SIMD tier cap.
    static TIER_CAP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Holds [`TIER_CAP_LOCK`] and puts back the cap it found when dropped,
    /// a panic included, so a `QDP_SIMD` leg's cap outlives the test.
    struct TierCapGuard {
        prev: SimdTier,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl TierCapGuard {
        fn hold() -> Self {
            let lock = TIER_CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            Self { prev: crate::simd::tier_cap(), _lock: lock }
        }
    }

    impl Drop for TierCapGuard {
        fn drop(&mut self) {
            crate::simd::set_tier_cap(self.prev);
        }
    }

    #[test]
    fn variate_plane_sweeps_draw_each_stream_at_its_depth() {
        // Arms of different draw depth, an `init` reset, a bounded `while`
        // and scattered stream indices, at every tier: each shot's
        // outcomes, state and read-out equal its serial replay on
        // `ShotSampler::derived`, and a sweep fills one plane per draw
        // depth it reaches, none past its deepest draw.
        let bound = 12;
        let engine = ShotEngine::new(ragged_depth_program(bound));
        let readout = ProjectiveObservable::new(&Observable::pauli_z(2, 1));
        let inputs = inputs(3);
        let counts = [40, 1, 23];
        let streams = scattered_streams(counts.iter().sum());
        let shot_inputs: Vec<&StateVector> =
            inputs.iter().zip(&counts).flat_map(|(psi, &k)| std::iter::repeat_n(psi, k)).collect();
        let _cap = TierCapGuard::hold();
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            crate::simd::set_tier_cap(tier);
            let rows = engine.run(BatchedStates::from_states(&inputs), &counts, &streams).unwrap();
            let samples = engine
                .sample_sweep(BatchedStates::from_states(&inputs), &counts, &streams, &readout)
                .unwrap();
            let mut deepest = 0;
            let shots = rows.iter().zip(&streams).zip(&shot_inputs);
            for (i, ((row, &stream), &input)) in shots.enumerate() {
                let mut sampler = oracle_sampler(stream);
                let replay = engine.replay_trajectory(input, &mut sampler);
                assert_eq!(replay.outcomes, row.outcomes, "{tier:?} shot {i}");
                let bits = |psi: &Option<StateVector>| {
                    psi.as_ref().map(|psi| {
                        let amps = psi.amplitudes();
                        amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect::<Vec<_>>()
                    })
                };
                assert_eq!(bits(&replay.state), bits(&row.state), "{tier:?} shot {i}");
                let read = match &replay.state {
                    Some(psi) => {
                        let (re, im) = psi.planes();
                        let u = sampler.next_uniform();
                        readout.sample_with_draw_planes(u, psi.norm_sqr(), re, im)
                    }
                    None => 0.0,
                };
                assert_eq!(read.to_bits(), samples[i].to_bits(), "{tier:?} shot {i} read-out");
                deepest = deepest.max(row.outcomes.len() + usize::from(row.state.is_some()));
            }
            // The loop exits early for every shot, so the bound's planes
            // stay unfilled.
            assert!(deepest < bound, "{tier:?}: deepest draw {deepest}");
            for fuse in [false, true] {
                let mut sweep = engine
                    .sampled_sweep(BatchedStates::from_states(&inputs), &counts, &streams, fuse)
                    .unwrap();
                let mut out = vec![0.0; streams.len()];
                let trajectory_depth = rows.iter().map(|row| row.outcomes.len()).max().unwrap_or(0);
                assert_eq!(sweep.variates.depth(), trajectory_depth, "{tier:?} fuse {fuse}");
                if fuse {
                    sweep.read_out(&readout, &mut out);
                    assert_eq!(sweep.variates.depth(), deepest, "{tier:?} read-out");
                }
                assert_planes_match_samplers(&mut sweep.variates, &streams, &format!("{tier:?}"));
                let _ = sweep.reclaim();
            }
        }
    }
}
