//! Batched trajectory execution — **sampled and exact** sweeps over
//! [`BatchedStates`], on one branching IR.
//!
//! [`TrajProgram`] is the single lowered form every branching program runs
//! as, in both execution modes:
//!
//! * **Sampled** (Section 7's shot-noise model): [`ShotEngine::run`] /
//!   [`ShotEngine::sample_sweep`] take one state row per distinct input
//!   and each row's shot count. Every shot draws one measurement outcome
//!   from its own [`ShotSampler`] stream, and shots are regrouped into
//!   outcome-homogeneous sub-batches (*branch-grouped batching*), so a
//!   Chernoff budget of `O(m²/δ²)` trajectories executes as batched
//!   kernel calls instead of one state at a time. Trajectories known to
//!   carry bitwise the same state **share one amplitude row** (a
//!   *class*): each input row starts as the class of all its shots, and a
//!   measurement splits a class only by what its members drew. A shot
//!   block therefore simulates each distinct trajectory once instead of
//!   once per shot, and the input is never copied per shot.
//! * **Exact** (*branch-weighted*): [`ShotEngine::expectation_sweep`]
//!   measures all rows at once, computes per-outcome branch probabilities,
//!   and forks the block into **every** surviving outcome at once — the
//!   same regrouping machinery generalized over a weight-carrying row
//!   descriptor. Sub-batches carry accumulated branch weights
//!   (probabilities, riding inside the unnormalised amplitudes) instead of
//!   sampled draws, and leaf read-outs sum weighted expectations per
//!   original row. This is exact branch enumeration at batched-kernel
//!   speed, one program at a time. It is the named bitwise oracle of the
//!   prefix-shared sweep below, and it carries the health surface:
//!   per-fork trace checks with oracle fallback
//!   ([`ShotEngine::with_health`]), the droppable-mass budget
//!   ([`ShotEngine::with_mass_budget`]), the [`leaf_weights`] view and
//!   the fault-injection checkpoints of its row tiles.
//!
//!   [`leaf_weights`]: ShotEngine::leaf_weights
//! * **Exact, prefix-shared**: [`SweepTrie::expectation_sweep`] runs many
//!   programs merged into one prefix trie as a single exact sweep — each
//!   shared prefix, forks included, once — and reads every program out
//!   into its own column, with the bits of that program's own sweep. It
//!   is the production exact batched executor: `qdp_ad` sweeps a trie
//!   for every forward value, single multiset and exact gradient. Batches
//!   too small for row tiles split their programs among the free workers
//!   instead.
//!
//! Both modes share the straight-line machinery: gate segments stream as
//! single batched kernel calls (with per-qubit 2×2 fusion of commuting
//! single-qubit gates where the mode allows), and measurements are
//! **block-level**: one bucketed probability sweep over the whole group's
//! contiguous amplitude block
//! ([`Measurement::branch_probabilities_block`]), one strided collapse
//! pass per surviving outcome ([`Measurement::collapse_block_into`]), and
//! a pooled `RegroupScratch` arena recycling every buffer a fork needs —
//! so a measurement performs no per-row kernel calls and, once the pools
//! are warm, no allocations at all.
//!
//! # Determinism contract
//!
//! Sampled sweeps: every shot owns an independent [`ShotSampler`] stream.
//! Measurement collapse goes through the same [`collapse_with_draw`] the
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

//! Exact sweeps are deterministic, full stop: per-row results are a pure
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
use crate::sampling::{collapse_with_draw, ProjectiveObservable, ShotSampler};
use crate::state::StateVector;
use qdp_linalg::{C64, Matrix};

/// Shots per parallel tile of [`ShotEngine::estimate_expectation_batch`].
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

/// One operation of a sampled-trajectory program.
#[derive(Clone, Debug)]
enum TrajOp {
    /// An operator application with the matrix already built.
    Gate { matrix: Matrix, targets: Vec<usize> },
    /// `q := |0⟩`, sampled: measure `q` and flip on outcome 1.
    Init {
        meas: Measurement,
        flip: Matrix,
        target: usize,
    },
    /// A measurement branching over per-outcome arm programs.
    Case {
        meas: Measurement,
        arms: Vec<TrajProgram>,
    },
    /// Drop the trajectory.
    Abort,
}

/// A trajectory program: the sampled-execution form of a normal program,
/// with every matrix and measurement pre-built for a fixed valuation.
///
/// Built either directly through the `push_*` methods or from a lowered
/// derivative program (`qdp_ad::ResolvedProgram::to_trajectory`). The
/// sampled semantics mirror `qdp_ad::estimator::sample_trajectory` op for
/// op: `Init` measures the target and applies `X` on outcome 1, `Case`
/// draws one outcome from the Born rule and continues into that arm.
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
        self.ops.push(TrajOp::Gate { matrix, targets });
    }

    /// Appends a `q := |0⟩` reset of qubit `target` (measure + conditional
    /// flip — the sampled form of the reset channel).
    pub fn push_init(&mut self, target: usize) {
        self.ops.push(TrajOp::Init {
            meas: Measurement::computational(vec![target]),
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
        self.ops.push(TrajOp::Case { meas, arms });
    }

    /// Appends an abort: trajectories reaching it are dropped.
    pub fn push_abort(&mut self) {
        self.ops.push(TrajOp::Abort);
    }

    /// Mutable access to the matrix of one `Gate` op, addressed by a path
    /// that alternates op index and `Case`-arm index from the root:
    /// `[i]` is `ops[i]`, `[i, a, j]` is op `j` inside arm `a` of the
    /// `Case` at `ops[i]`, and so on. This is the slot-patching seam of the
    /// compile-once pipeline: a cached trajectory skeleton re-substitutes
    /// only its parameterized matrices per valuation instead of rebuilding
    /// the whole program.
    ///
    /// # Panics
    ///
    /// Panics when the path runs off the program or does not end on a
    /// `Gate` op.
    pub fn gate_matrix_mut(&mut self, path: &[usize]) -> &mut Matrix {
        let (&op_idx, rest) = path
            .split_first()
            .unwrap_or_else(|| panic!("gate path must not be empty"));
        let op = self
            .ops
            .get_mut(op_idx)
            .unwrap_or_else(|| panic!("gate path op index {op_idx} out of range"));
        match (op, rest) {
            (TrajOp::Gate { matrix, .. }, []) => matrix,
            (TrajOp::Case { arms, .. }, [arm_idx, deeper @ ..]) => {
                let arm = arms
                    .get_mut(*arm_idx)
                    .unwrap_or_else(|| panic!("gate path arm index {arm_idx} out of range"));
                arm.gate_matrix_mut(deeper)
            }
            _ => panic!("gate path does not address a Gate op"),
        }
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
#[derive(Clone, Copy, Debug)]
struct RowCtx {
    orig: usize,
    class: usize,
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
    members: Vec<RowCtx>,
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
/// sweep's reusable 2×2 `gate` scratch (no per-flush heap traffic).
/// Shared by the sampled and exact executors.
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

/// Applies one gate to an exact group in fused form: a single-qubit gate
/// joins its qubit's pending product; a multi-qubit gate flushes the
/// pending products of its own targets, then runs as one batched kernel
/// call.
fn apply_fused(
    group: &mut WeightedGroup,
    matrix: &Matrix,
    targets: &[usize],
    flush_gate: &mut Matrix,
) {
    if let [t] = targets[..] {
        group.pending[t] = Some(match group.pending[t].take() {
            None => mat2(matrix),
            Some(prev) => mul2(&mat2(matrix), &prev),
        });
    } else {
        flush_targets(&mut group.states, &mut group.pending, targets, flush_gate);
        group.states.apply_gate(matrix, targets);
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
/// weight-carrying counterpart of the sampled executor's [`RowCtx`]: where
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
    /// `rows × outcomes` branch-probability table of the current fork (or
    /// `rows × pairs` read-out table of the current leaf group).
    probs: Vec<f64>,
    /// Per-row squared norms of the current fork or read-out group.
    totals: Vec<f64>,
    /// Per-member draw records of the current fork (sampled mode).
    draws: Vec<Draw>,
    /// Parent-block indices of the rows surviving into the outcome under
    /// construction (sampled mode: the parent class of each sub-class).
    selected: Vec<usize>,
    /// The draw each sub-class of the outcome under construction rescales
    /// with (sampled mode).
    class_draws: Vec<Draw>,
    /// Sub-class index of each (parent class, slack flag) pair in the
    /// outcome under construction, or `usize::MAX` (sampled mode).
    class_slot: Vec<usize>,
    /// Outcome indices ordered by weight (mass-budget pruning).
    order: Vec<usize>,
    /// `rows × outcomes` keep flags of the current fork (exact mode).
    keep: Vec<bool>,
    /// Pooled amplitude-plane pairs (`re`, `im`).
    blocks: Vec<(Vec<f64>, Vec<f64>)>,
    /// Pooled pending-product tables.
    pendings: Vec<Vec<Option<[C64; 4]>>>,
    /// Pooled weighted row lists (exact mode).
    weighted_rows: Vec<Vec<WeightedRow>>,
    /// Pooled sampled member lists.
    sampled_rows: Vec<Vec<RowCtx>>,
    /// Pooled sampled outcome histories.
    histories: Vec<Vec<usize>>,
    /// Pooled fork child lists (exact mode).
    weighted_forks: Vec<Vec<(usize, WeightedGroup)>>,
    /// Pooled fork child lists (sampled mode).
    sampled_forks: Vec<Vec<(usize, Group)>>,
}

/// Upper bound on every [`RegroupScratch`] pool: enough that real branch
/// trees never miss (a fork holds a handful of buffers per outcome times
/// the tree depth), while buffers donated by callers — every sweep's root
/// block ends up offered to the arena — cannot accumulate without bound
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
        let (re, im) = self.blocks.pop().unwrap_or_default();
        self.pooled_amps -= re.capacity().max(im.capacity());
        (re, im)
    }

    fn give_block(&mut self, (mut re, mut im): (Vec<f64>, Vec<f64>)) {
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

    /// A copy of an **exact** group in pooled buffers: what a prefix-trie
    /// sweep hands each extra path where programs part.
    fn copy_weighted(&mut self, group: &WeightedGroup) -> WeightedGroup {
        let (mut re, mut im) = self.take_block();
        let (src_re, src_im) = group.states.planes();
        re.extend_from_slice(src_re);
        im.extend_from_slice(src_im);
        let mut rows = self.weighted_rows.pop().unwrap_or_default();
        rows.extend_from_slice(&group.rows);
        let mut pending = self.pendings.pop().unwrap_or_default();
        pending.clear();
        pending.extend_from_slice(&group.pending);
        WeightedGroup {
            states: BatchedStates::from_raw(group.states.len(), group.states.num_qubits(), re, im),
            rows,
            pending,
        }
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

/// One member's Born-rule record at a sampled fork — everything the
/// in-place rescale of its collapsed row needs, mirroring
/// [`collapse_with_draw`]. `p` and `total` are functions of the class's
/// row and the outcome; only `outcome` and `slack` depend on the member's
/// own draw.
#[derive(Clone, Copy, Debug)]
struct Draw {
    /// The drawn outcome.
    outcome: usize,
    /// The drawn branch's probability.
    p: f64,
    /// The row's pre-measurement squared norm.
    total: f64,
    /// Whether the floating-point-slack fallback selected the branch
    /// (which skips the `(total/p).sqrt()` blow-up, like the serial path).
    slack: bool,
}

/// The Born-rule selection walk of [`collapse_with_draw`] on a
/// pre-computed probability row — identical arithmetic to the serial path
/// (including the slack fallback to the last branch with support), so
/// batched draws match it bit for bit.
///
/// # Panics
///
/// Panics when no branch has support.
fn select_branch(u: f64, total: f64, probs: &[f64]) -> Draw {
    let mut r: f64 = u * total;
    for (outcome, &p) in probs.iter().enumerate() {
        r -= p;
        if r <= 0.0 {
            return Draw { outcome, p, total, slack: false };
        }
    }
    // Infallible: the walk only falls through when `total > 0`, so at
    // least one branch probability is positive.
    #[allow(clippy::expect_used)]
    let outcome = (0..probs.len())
        .rev()
        .find(|&m| probs[m] > 0.0)
        .expect("no branch has support");
    Draw {
        outcome,
        p: probs[outcome],
        total,
        slack: true,
    }
}

/// Replays, in place on one freshly collapsed destination row, the
/// rescaling [`collapse_with_draw`] applies to the selected branch: the
/// `(total/p).sqrt()` blow-up (skipped on the slack path, and — like the
/// serial path — skipped entirely together with the renormalisation when
/// the drawn probability is zero), then the renormalisation to the parent
/// norm. The identical complex scalar multiplies over the identical full
/// row ([`StateVector::scale`], transcribed onto the planes) and the
/// identical lane-split norm fold ([`StateVector::norm_sqr`]), so the row
/// carries the serial path's bits.
fn rescale_collapsed(re: &mut [f64], im: &mut [f64], d: Draw) {
    if !d.slack {
        if d.p <= 0.0 {
            return;
        }
        scale_planes(re, im, C64::real((d.total / d.p).sqrt().min(1e150)));
    }
    let norm = crate::lanes::sum_norm_sqr(re, im).sqrt();
    if norm > 0.0 {
        scale_planes(re, im, C64::real(d.total.sqrt() / norm));
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

/// The batched shot-noise executor for one [`TrajProgram`].
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::{BatchedStates, ShotEngine, ShotSampler, TrajProgram};
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
/// let mut samplers: Vec<ShotSampler> =
///     (0..8).map(|s| ShotSampler::derived(1, s)).collect();
/// // Eight shots of one input row, |0⟩.
/// let rows = engine.run(BatchedStates::zero(1, 1), &[8], &mut samplers)?;
/// for row in &rows {
///     assert_eq!(row.outcomes.len(), 1);
/// }
/// # Ok::<(), qdp_sim::QdpError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShotEngine {
    program: TrajProgram,
    /// Droppable probability mass per row of the exact sweep, as a
    /// fraction of the row's initial mass — see
    /// [`with_mass_budget`](Self::with_mass_budget). 0 (the default)
    /// prunes only below [`BRANCH_PRUNE`], preserving today's bits.
    mass_budget: f64,
    /// Numerical-health monitoring at measurement boundaries — see
    /// [`with_health`](Self::with_health). `None` (the default) performs
    /// no checks and preserves the unmonitored engine bit for bit.
    health: Option<HealthConfig>,
}

/// Bounded retry budget for panicked worker tiles on the fallible fan-out
/// paths: a tile is re-run up to this many extra times (deterministically
/// — tiles are pure functions of their input) before its failure surfaces
/// as [`QdpError::WorkerPanic`].
const TILE_RETRIES: usize = 2;

impl ShotEngine {
    /// Wraps a trajectory program for batched execution.
    pub fn new(program: TrajProgram) -> Self {
        ShotEngine {
            program,
            mass_budget: 0.0,
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
    /// [`expectation_sweep`](Self::expectation_sweep),
    /// [`estimate_expectation_batch`](Self::estimate_expectation_batch))
    /// reports a failed check as a [`QdpError`]. Unmonitored engines (the
    /// default) skip every check and stay bit-identical to the
    /// pre-monitoring engine.
    pub fn with_health(mut self, cfg: HealthConfig) -> Self {
        self.health = Some(cfg);
        self
    }

    /// The engine's health configuration, when monitoring is enabled.
    pub fn health(&self) -> Option<HealthConfig> {
        self.health
    }

    /// Gives the **exact** sweep a weighted-leaf pruning budget: each
    /// row may drop measurement branches totalling at most
    /// `epsilon × (that row's initial squared norm)` of probability mass
    /// over its whole branch tree — i.e. the cumulative kept leaf weight
    /// stays ≥ `1 − ε` on normalised inputs. At every fork the
    /// lowest-weight surviving branches are dropped first (greedily, in
    /// the sweep's deterministic depth-first order), which prunes whole
    /// subtrees and trades a **bounded** read-out error — at most `ε` for
    /// observables with `‖O‖ ≤ 1`, since
    /// `|Σ_dropped ⟨ψb|O|ψb⟩| ≤ Σ_dropped ‖ψb‖²` — for large speedups on
    /// deep while-unrollings.
    ///
    /// Pruning decisions are a pure per-row function of the program and
    /// that row's input, so the exact sweep's thread-count / batch-composition /
    /// row-order invariance is untouched. The default `ε = 0` drops
    /// nothing beyond [`BRANCH_PRUNE`] and preserves the unpruned sweep
    /// bit for bit. Sampled sweeps never prune (every shot follows one
    /// drawn branch).
    ///
    /// # Errors
    ///
    /// Rejects ε outside `[0, 1)` — NaN included, since `(0.0..1.0)`
    /// contains no NaN — as [`QdpError::InvalidMassBudget`].
    pub fn with_mass_budget(mut self, epsilon: f64) -> Result<Self, QdpError> {
        if !(0.0..1.0).contains(&epsilon) {
            return Err(QdpError::InvalidMassBudget { epsilon });
        }
        self.mass_budget = epsilon;
        Ok(self)
    }

    /// The wrapped program.
    pub fn program(&self) -> &TrajProgram {
        &self.program
    }

    /// Runs `shots[r]` sampled trajectories from row `r` of `states`, shot
    /// `i` drawing from `samplers[i]`, where shots are numbered row-major:
    /// row 0's shots first, then row 1's, and so on. Returns one result per
    /// shot, in that order.
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
    /// affected shots are re-run serially from their inputs and streams on
    /// the per-row reference path ([`collapse_with_draw`]) — bit-identical
    /// to this unfused executor's own contract — while healthy shots keep
    /// their batched bits.
    ///
    /// # Panics
    ///
    /// Panics when `shots` does not hold one count per row, a count is
    /// zero, or `samplers` does not hold one stream per shot.
    pub fn run(
        &self,
        states: BatchedStates,
        shots: &[usize],
        samplers: &mut [ShotSampler],
    ) -> Result<Vec<TrajectoryRow>, QdpError> {
        let snapshot = self.degrade_snapshot(&states, shots, samplers);
        let (finished, aborted, defects) = self.sampled_sweep(states, shots, samplers, false)?;
        let mut out: Vec<Option<TrajectoryRow>> = (0..samplers.len()).map(|_| None).collect();
        for group in &finished {
            for ctx in &group.members {
                out[ctx.orig] = Some(TrajectoryRow {
                    state: Some(group.states.row_state(ctx.class)),
                    outcomes: group.outcomes.clone(),
                });
            }
        }
        for (outcomes, members) in &aborted {
            for ctx in members {
                out[ctx.orig] = Some(TrajectoryRow {
                    state: None,
                    outcomes: outcomes.clone(),
                });
            }
        }
        reclaim_leaves(finished, aborted);
        if let Some((inputs, mut streams)) = snapshot {
            for orig in dedup_defects(defects) {
                out[orig] = Some(self.replay_row(&inputs[orig], &mut streams[orig]));
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

    /// The per-shot input/stream snapshots `DegradeToOracle` recovery
    /// replays from, each shot's input read from its row — taken only when
    /// that policy is active, so the other configurations pay nothing.
    fn degrade_snapshot(
        &self,
        states: &BatchedStates,
        shots: &[usize],
        samplers: &[ShotSampler],
    ) -> Option<(Vec<StateVector>, Vec<ShotSampler>)> {
        match self.health {
            Some(HealthConfig { policy: HealthPolicy::DegradeToOracle, .. }) => Some((
                per_shot(shots, |r| states.row_state(r)),
                samplers.to_vec(),
            )),
            _ => None,
        }
    }

    /// Serial reference replay of one shot: gates in program order on a
    /// single [`StateVector`], every measurement through the shared
    /// [`collapse_with_draw`] primitive — the retained per-row path the
    /// batched sampled executor is pinned against bit for bit.
    fn replay_row(&self, input: &StateVector, sampler: &mut ShotSampler) -> TrajectoryRow {
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
                    psi.apply_gate(matrix, targets);
                    i += 1;
                }
                TrajOp::Abort => return TrajectoryRow { state: None, outcomes },
                TrajOp::Init { meas, flip, target } => {
                    let (outcome, collapsed) =
                        collapse_with_draw(sampler.next_uniform(), &psi, meas);
                    psi = collapsed;
                    outcomes.push(outcome);
                    if outcome == 1 {
                        psi.apply_gate(flip, &[*target]);
                    }
                    i += 1;
                }
                TrajOp::Case { meas, arms } => {
                    let (outcome, collapsed) =
                        collapse_with_draw(sampler.next_uniform(), &psi, meas);
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
    /// row-major as in [`run`](Self::run), and samples `readout` once on
    /// each surviving final state (0.0 for aborted shots, which draw
    /// nothing — matching the serial estimator). Returns one sample per
    /// shot, in shot order.
    ///
    /// The read-out of each final group is **block-level**: one
    /// `classes × pairs` probability table per group
    /// ([`ProjectiveObservable::pair_probabilities_batch`] — a single
    /// bucketed `|amp|²` sweep over the group's contiguous block for
    /// diagonal observables, one batched expectation pass per projector
    /// otherwise) plus one norm pass, so leaf read-out is one sweep per
    /// group instead of one per shot, and each shot draws once against its
    /// class's table row. The probabilities are bit-identical
    /// to the per-row passes the serial sampler selects from, so draws can
    /// never drift apart. On top of that, straight-line gate segments
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
    /// inputs and streams ([`collapse_with_draw`] plus the shared per-row
    /// read-out selection), unaffected shots keeping their batched bits.
    ///
    /// # Panics
    ///
    /// Panics on the malformed arguments [`run`](Self::run) rejects.
    pub fn sample_sweep(
        &self,
        states: BatchedStates,
        shots: &[usize],
        samplers: &mut [ShotSampler],
        readout: &ProjectiveObservable,
    ) -> Result<Vec<f64>, QdpError> {
        let snapshot = self.degrade_snapshot(&states, shots, samplers);
        let (finished, aborted, defects) = self.sampled_sweep(states, shots, samplers, true)?;
        let mut out = vec![0.0; samplers.len()];
        let pairs = readout.pairs().len();
        let mut table = Vec::new();
        let mut totals = Vec::new();
        for group in &finished {
            // One table row per class, one draw per member.
            readout.pair_probabilities_batch(&group.states, &mut table);
            group.states.row_norms_sqr_into(&mut totals);
            for ctx in &group.members {
                // The shared selection loop of `sample_with_draw_planes`, with
                // the probabilities read off the group's table.
                let c = ctx.class;
                let total = totals[c];
                if total <= 1e-300 {
                    continue;
                }
                let u = samplers[ctx.orig].next_uniform();
                out[ctx.orig] = readout.select_with(u, total, |k| table[c * pairs + k]);
            }
        }
        // Aborted shots stay 0.0 and draw nothing.
        reclaim_leaves(finished, aborted);
        if let Some((inputs, mut streams)) = snapshot {
            for orig in dedup_defects(defects) {
                let row = self.replay_row(&inputs[orig], &mut streams[orig]);
                out[orig] = match row.state {
                    None => 0.0, // aborted shots draw nothing
                    Some(psi) => {
                        let total = psi.norm_sqr();
                        if total <= 1e-300 {
                            0.0
                        } else {
                            let u = streams[orig].next_uniform();
                            let (re, im) = psi.planes();
                            readout.sample_with_draw_planes(u, total, re, im)
                        }
                    }
                };
            }
        }
        Ok(out)
    }

    /// Shot estimates of `⟨readout⟩` on the program's output for every
    /// input: entry `r` is the mean of `shots` read-out samples from
    /// `inputs[r]` (0 for aborted trajectories), shot `s` of row `r` on the
    /// derived stream `ShotSampler::derived(seeds[r], s)`.
    ///
    /// Shots are cut into fixed [`SHOT_TILE`]-shot tiles, and each tile is
    /// **one** sampled sweep over every input's shots of that tile. Each
    /// row sums its samples per tile, in shot order, then the tile sums in
    /// tile order, so entry `r` carries the bits of a batch of one with
    /// `seeds[r]`, under any thread count and beside any other inputs.
    /// Tiles run on the calling thread unless their work (inputs ×
    /// amplitudes × program ops, summed over tiles) pays for a fork
    /// ([`qdp_par::fork_pays`]); then they fan out across `qdp_par`. Each
    /// tile runs panic-isolated, a panicked tile is retried up to 2 extra
    /// times (bit-identically: tiles are pure functions of their inputs,
    /// seeds and shot range), and exhausted retries or health-check
    /// failures surface as a typed [`QdpError`].
    ///
    /// # Panics
    ///
    /// Panics when `shots` is zero or `inputs` and `seeds` differ in length.
    pub fn estimate_expectation_batch(
        &self,
        inputs: &[StateVector],
        readout: &ProjectiveObservable,
        shots: usize,
        seeds: &[u64],
    ) -> Result<Vec<f64>, QdpError> {
        assert!(shots > 0, "need at least one shot");
        assert_eq!(inputs.len(), seeds.len(), "one seed per input");
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let tiles = shot_tiles(shots);
        let work = tiles.len() * inputs.len() * inputs[0].dim() * self.program.op_count();
        let sums = qdp_par::try_par_map_retry_work(
            work,
            &tiles,
            |&(start, len)| {
                crate::fault::tile_checkpoint(start / SHOT_TILE);
                let mut samplers: Vec<ShotSampler> = seeds
                    .iter()
                    .flat_map(|&seed| (start..start + len).map(move |s| ShotSampler::derived(seed, s as u64)))
                    .collect();
                let counts = vec![len; inputs.len()];
                let values = self.sample_sweep(
                    BatchedStates::from_states(inputs),
                    &counts,
                    &mut samplers,
                    readout,
                )?;
                Ok::<Vec<f64>, QdpError>(values.chunks(len).map(|row| row.iter().sum::<f64>()).collect())
            },
            TILE_RETRIES,
        )
        .map_err(QdpError::from)?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok((0..inputs.len())
            .map(|r| {
                let mut acc = 0.0;
                for tile in &sums {
                    acc += tile[r];
                }
                acc / shots as f64
            })
            .collect())
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
        let defects = SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            let group = weighted_root(states, scratch);
            let mut sweep = ExactSweep {
                budgets: self.budgets_for(&group),
                scratch,
                flush_gate: Matrix::zeros(2, 2),
                health: self.health,
                defects: Vec::new(),
            };
            sweep.exec(&self.program.ops, Vec::new(), group, &mut |group: &WeightedGroup| {
                obs.expectation_batch_into(&group.states, &mut values);
                for (ctx, v) in group.rows.iter().zip(&values) {
                    out[ctx.orig] += v;
                }
            })?;
            Ok::<Vec<usize>, QdpError>(sweep.defects)
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
                TrajOp::Gate { matrix, targets } => psi.apply_gate(matrix, targets),
                TrajOp::Abort => return,
                TrajOp::Init { meas, flip, target } => {
                    let rest = &ops[i + 1..];
                    for b in meas.branches_pure(&psi) {
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
                    for b in meas.branches_pure(&psi) {
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
    /// weights sum to 1 (up to the [`BRANCH_PRUNE`] threshold — and up to
    /// the engine's [mass budget](Self::with_mass_budget), which drops at
    /// most `ε` of each row's mass), because its branch tree is
    /// trace-preserving.
    pub fn leaf_weights(&self, states: BatchedStates) -> Vec<Vec<f64>> {
        let total_rows = states.len();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); total_rows];
        if total_rows == 0 {
            return out;
        }
        SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            let group = weighted_root(states, scratch);
            let mut sweep = ExactSweep {
                budgets: self.budgets_for(&group),
                scratch,
                flush_gate: Matrix::zeros(2, 2),
                // Diagnostic view: never health-monitored.
                health: None,
                defects: Vec::new(),
            };
            sweep
                .exec(&self.program.ops, Vec::new(), group, &mut |group: &WeightedGroup| {
                    for ctx in &group.rows {
                        out[ctx.orig].push(ctx.weight);
                    }
                })
                .unwrap_or_else(|e| panic!("{e}"));
        });
        out
    }

    /// Each root row's droppable-mass budget: `ε ×` its initial mass.
    fn budgets_for(&self, root: &WeightedGroup) -> Vec<f64> {
        root.rows
            .iter()
            .map(|ctx| self.mass_budget * ctx.weight)
            .collect()
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
    fn sampled_sweep(
        &self,
        states: BatchedStates,
        shots: &[usize],
        samplers: &mut [ShotSampler],
        fuse: bool,
    ) -> Result<SweepOutput, QdpError> {
        assert_eq!(states.len(), shots.len(), "one shot count per input row");
        assert!(shots.iter().all(|&k| k > 0), "every input row needs a shot");
        assert_eq!(
            shots.iter().sum::<usize>(),
            samplers.len(),
            "one sampler stream per batch row shot"
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
            return Ok((Vec::new(), Vec::new(), Vec::new()));
        }
        SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            let group = sampled_root(states, shots, scratch);
            let mut sweep = SampledSweep {
                samplers,
                fuse,
                scratch,
                flush_gate: Matrix::zeros(2, 2),
                finished: Vec::new(),
                aborted: Vec::new(),
                health: self.health,
                expected,
                defects: Vec::new(),
            };
            sweep.exec(&self.program.ops, Vec::new(), group)?;
            Ok((sweep.finished, sweep.aborted, sweep.defects))
        })
    }
}

/// Outcome of a sampled sweep: finished leaf groups, aborted trajectories,
/// and the indices of health-defected shots.
type SweepOutput = (Vec<Group>, Vec<Aborted>, Vec<usize>);

/// The trajectories of one group that reached an `abort`: the outcome
/// history they share and their members (whose classes no longer mean
/// anything: the states are gone).
type Aborted = (Vec<usize>, Vec<RowCtx>);

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
    for (class, &k) in shots.iter().enumerate() {
        let first = members.len();
        members.extend((first..first + k).map(|orig| RowCtx { orig, class }));
    }
    let n = states.num_qubits();
    Group {
        states,
        outcomes: scratch.take_history(),
        members,
        pending: scratch.take_pending(n),
    }
}

/// Returns a read-out sweep's leaf groups and aborted member lists to the
/// thread's [`RegroupScratch`], so the next sweep's leaves reuse them.
fn reclaim_leaves(finished: Vec<Group>, aborted: Vec<Aborted>) {
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
    });
}

/// Sorts and deduplicates the degraded-row index list (a row can fail
/// checks at more than one boundary before its placeholder stabilises).
fn dedup_defects(mut defects: Vec<usize>) -> Vec<usize> {
    defects.sort_unstable();
    defects.dedup();
    defects
}

/// The state of one **sampled** sweep: the per-row streams, the fusion
/// mode, the regroup scratch arena, and the accumulating leaf/abort lists.
struct SampledSweep<'s> {
    samplers: &'s mut [ShotSampler],
    fuse: bool,
    scratch: &'s mut RegroupScratch,
    /// Reusable 2×2 the pending products flush through.
    flush_gate: Matrix,
    finished: Vec<Group>,
    aborted: Vec<Aborted>,
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

impl SampledSweep<'_> {
    /// Executes `ops` on `group`, with `cont` the stack of suspended op
    /// slices to resume (innermost last) once `ops` is exhausted — the
    /// continuation a `case` arm returns into.
    fn exec<'p>(
        &mut self,
        ops: &'p [TrajOp],
        cont: Vec<&'p [TrajOp]>,
        mut group: Group,
    ) -> Result<(), QdpError> {
        for (i, op) in ops.iter().enumerate() {
            match op {
                TrajOp::Gate { matrix, targets } => {
                    if !self.fuse {
                        // Bitwise mode: one batched kernel call streams the
                        // operator over every row, in program order.
                        group.states.apply_gate(matrix, targets);
                    } else if let [t] = targets[..] {
                        group.pending[t] = Some(match group.pending[t].take() {
                            None => mat2(matrix),
                            Some(prev) => mul2(&mat2(matrix), &prev),
                        });
                    } else {
                        // A multi-qubit gate orders against the pending
                        // rotations of its own targets only.
                        flush_targets(
                            &mut group.states,
                            &mut group.pending,
                            targets,
                            &mut self.flush_gate,
                        );
                        group.states.apply_gate(matrix, targets);
                    }
                }
                TrajOp::Abort => {
                    // Dropped rows never need their states or pending
                    // products.
                    let Group { states, outcomes, members, pending } = group;
                    self.scratch.give_block(states.into_raw());
                    pool_give(&mut self.scratch.pendings, pending);
                    self.aborted.push((outcomes, members));
                    return Ok(());
                }
                TrajOp::Init { meas, flip, target } => {
                    flush_all(&mut group.states, &mut group.pending, &mut self.flush_gate);
                    let rest = &ops[i + 1..];
                    let mut forks = self.scratch.sampled_forks.pop().unwrap_or_default();
                    self.measure_group(group, meas, &mut forks)?;
                    for (outcome, mut sub) in forks.drain(..) {
                        if outcome == 1 {
                            sub.states.apply_gate(flip, &[*target]);
                        }
                        self.exec(rest, cont.clone(), sub)?;
                    }
                    pool_give(&mut self.scratch.sampled_forks, forks);
                    return Ok(());
                }
                TrajOp::Case { meas, arms } => {
                    flush_all(&mut group.states, &mut group.pending, &mut self.flush_gate);
                    let rest = &ops[i + 1..];
                    let mut forks = self.scratch.sampled_forks.pop().unwrap_or_default();
                    self.measure_group(group, meas, &mut forks)?;
                    for (outcome, sub) in forks.drain(..) {
                        let mut arm_cont = cont.clone();
                        arm_cont.push(rest);
                        self.exec(&arms[outcome].ops, arm_cont, sub)?;
                    }
                    pool_give(&mut self.scratch.sampled_forks, forks);
                    return Ok(());
                }
            }
        }
        let mut cont = cont;
        match cont.pop() {
            // Pending products flow into the continuation: there is no
            // measurement between an arm's trailing gates and the join.
            Some(next) => self.exec(next, cont, group),
            None => {
                flush_all(&mut group.states, &mut group.pending, &mut self.flush_gate);
                self.finished.push(group);
                Ok(())
            }
        }
    }

    /// Measures every member of `group` at once and regroups the members
    /// into outcome-homogeneous sub-batches, appended to `forks` in
    /// ascending outcome order (members keep their relative order inside
    /// each one, so the regrouping is a pure deterministic function of the
    /// drawn outcomes).
    ///
    /// **Block-level, once per class**: the pre-measurement norms, the
    /// health checks and the full `classes × outcomes` probability table
    /// come from one sweep each over the group's contiguous amplitude
    /// block ([`Measurement::branch_probabilities_block`]). Each member
    /// then draws from its own stream against its class's row through
    /// [`select_branch`]. Members that drew the same outcome from the same
    /// class, with the same slack flag, form one sub-class; each outcome's
    /// sub-batch is materialised by one strided
    /// [`Measurement::collapse_block_into`] pass over the parent classes,
    /// with the serial rescaling replayed in place once per sub-class
    /// ([`rescale_collapsed`]). Drawn outcomes and collapsed amplitudes are
    /// **bit for bit** the per-row [`collapse_with_draw`] results — the
    /// differential suites pin this — and the scratch arena makes the
    /// whole fork allocation-free once its pools are warm.
    ///
    /// # Panics
    ///
    /// Panics when a row has (numerically) zero norm.
    fn measure_group(
        &mut self,
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
        states.row_norms_sqr_into(&mut self.scratch.totals);
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
            for ctx in &members {
                if ctx.class != next_class {
                    continue;
                }
                next_class += 1;
                let c = ctx.class;
                let total = self.scratch.totals[c];
                let expected = self.expected[ctx.orig];
                let non_finite = !total.is_finite() || !expected.is_finite();
                let drifted = !non_finite
                    && (total - expected).abs()
                        > cfg.drift_tol * expected.abs().max(f64::MIN_POSITIVE);
                if !non_finite && !drifted {
                    continue;
                }
                match cfg.policy {
                    HealthPolicy::FailFast => {
                        return Err(if non_finite {
                            QdpError::NonFinite { row: ctx.orig, context: "row norms" }
                        } else {
                            QdpError::NormDrift {
                                row: ctx.orig,
                                expected,
                                actual: total,
                                tolerance: cfg.drift_tol,
                            }
                        });
                    }
                    HealthPolicy::Renormalize => {
                        // Finite drift is repairable by rescaling; NaN/Inf
                        // amplitudes are not — no scale factor undoes them.
                        if non_finite || total <= 1e-300 {
                            return Err(QdpError::NonFinite { row: ctx.orig, context: "row norms" });
                        }
                        let s = C64::real((expected / total).sqrt());
                        let (row_re, row_im) = states.row_planes_mut(c);
                        scale_planes(row_re, row_im, s);
                        self.scratch.totals[c] = expected;
                    }
                    HealthPolicy::DegradeToOracle => {
                        // Replace the class row with a well-formed
                        // placeholder so the batched sweep stays defined;
                        // every member's output is discarded and recomputed
                        // on the reference path. Per-row sampler
                        // independence and the row-order invariance
                        // contract keep healthy rows' bits untouched by the
                        // substitution.
                        self.defects
                            .extend(members.iter().filter(|m| m.class == c).map(|m| m.orig));
                        let norm = if expected.is_finite() && expected > 1e-300 {
                            expected
                        } else {
                            1.0
                        };
                        let (row_re, row_im) = states.row_planes_mut(c);
                        row_re.fill(0.0);
                        row_im.fill(0.0);
                        row_re[0] = norm.sqrt();
                        self.scratch.totals[c] = norm;
                    }
                }
            }
        }
        {
            let (re, im) = states.planes();
            meas.branch_probabilities_block(n, re, im, &mut self.scratch.probs);
        }
        assert!(
            self.scratch.totals.iter().all(|&total| total > 1e-300),
            "cannot measure a zero-norm state"
        );
        let outcomes = meas.num_outcomes();
        self.scratch.draws.clear();
        for ctx in &members {
            let c = ctx.class;
            let u = self.samplers[ctx.orig].next_uniform();
            let probs = &self.scratch.probs[c * outcomes..(c + 1) * outcomes];
            self.scratch.draws.push(select_branch(u, self.scratch.totals[c], probs));
        }
        let mut selected = std::mem::take(&mut self.scratch.selected);
        for m in 0..outcomes {
            selected.clear();
            self.scratch.class_draws.clear();
            self.scratch.class_slot.clear();
            self.scratch.class_slot.resize(2 * classes, usize::MAX);
            let mut sub_members = self.scratch.sampled_rows.pop().unwrap_or_default();
            for (ctx, d) in members.iter().zip(&self.scratch.draws) {
                if d.outcome != m {
                    continue;
                }
                // Sub-classes are numbered by first member, like classes.
                let slot = &mut self.scratch.class_slot[2 * ctx.class + usize::from(d.slack)];
                if *slot == usize::MAX {
                    *slot = selected.len();
                    selected.push(ctx.class);
                    self.scratch.class_draws.push(*d);
                }
                sub_members.push(RowCtx { orig: ctx.orig, class: *slot });
            }
            if selected.is_empty() {
                pool_give(&mut self.scratch.sampled_rows, sub_members);
                continue;
            }
            let (mut dst_re, mut dst_im) = self.scratch.take_block();
            {
                let (re, im) = states.planes();
                meas.collapse_block_into(n, re, im, &selected, m, &mut dst_re, &mut dst_im);
            }
            for (j, &d) in self.scratch.class_draws.iter().enumerate() {
                rescale_collapsed(
                    &mut dst_re[j * dim..(j + 1) * dim],
                    &mut dst_im[j * dim..(j + 1) * dim],
                    d,
                );
            }
            let mut sub_history = self.scratch.take_history();
            sub_history.extend_from_slice(&history);
            sub_history.push(m);
            let pending = self.scratch.take_pending(n);
            forks.push((
                m,
                Group {
                    states: BatchedStates::from_raw(selected.len(), n, dst_re, dst_im),
                    outcomes: sub_history,
                    members: sub_members,
                    pending,
                },
            ));
        }
        self.scratch.selected = selected;
        members.clear();
        self.scratch.reclaim_sampled(Group { states, outcomes: history, members, pending });
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

/// The state of one **exact** branch-weighted sweep: the per-row
/// droppable-mass budgets and the regroup scratch arena.
struct ExactSweep<'a> {
    /// Remaining droppable probability mass per original (tile-local) row
    /// — `ε ×` the row's initial mass, shared by every fork of that row's
    /// branch tree in the sweep's deterministic depth-first order (see
    /// [`ShotEngine::with_mass_budget`]). All zero by default.
    budgets: Vec<f64>,
    scratch: &'a mut RegroupScratch,
    /// Reusable 2×2 the pending products flush through.
    flush_gate: Matrix,
    /// Health monitoring config (`None` = no checks, today's bits).
    health: Option<HealthConfig>,
    /// Original (tile-local) indices of rows degraded to the oracle.
    defects: Vec<usize>,
}

impl ExactSweep<'_> {
    /// Executes `ops` on `group` **exactly**, with `cont` the stack of
    /// suspended op slices to resume (innermost last) once `ops` is
    /// exhausted. At every measurement the group forks into
    /// outcome-homogeneous sub-groups via
    /// [`branch_groups`](Self::branch_groups); `leaf` is called once per
    /// surviving leaf group (pending products flushed), whose buffers are
    /// then reclaimed into the arena.
    fn exec<'p>(
        &mut self,
        ops: &'p [TrajOp],
        cont: Vec<&'p [TrajOp]>,
        mut group: WeightedGroup,
        leaf: &mut dyn FnMut(&WeightedGroup),
    ) -> Result<(), QdpError> {
        for (i, op) in ops.iter().enumerate() {
            match op {
                TrajOp::Gate { matrix, targets } => {
                    apply_fused(&mut group, matrix, targets, &mut self.flush_gate);
                }
                TrajOp::Abort => {
                    // Aborted branches contribute nothing.
                    self.scratch.reclaim_weighted(group);
                    return Ok(());
                }
                TrajOp::Init { meas, flip, target } => {
                    let rest = &ops[i + 1..];
                    let mut forks = self.fork(group, meas)?;
                    for (outcome, mut sub) in forks.drain(..) {
                        if outcome == 1 {
                            sub.states.apply_gate(flip, &[*target]);
                        }
                        self.exec(rest, cont.clone(), sub, leaf)?;
                    }
                    pool_give(&mut self.scratch.weighted_forks, forks);
                    return Ok(());
                }
                TrajOp::Case { meas, arms } => {
                    let rest = &ops[i + 1..];
                    let mut forks = self.fork(group, meas)?;
                    for (outcome, sub) in forks.drain(..) {
                        let mut arm_cont = cont.clone();
                        arm_cont.push(rest);
                        self.exec(&arms[outcome].ops, arm_cont, sub, leaf)?;
                    }
                    pool_give(&mut self.scratch.weighted_forks, forks);
                    return Ok(());
                }
            }
        }
        let mut cont = cont;
        match cont.pop() {
            // Pending products flow into the continuation: there is no
            // measurement between an arm's trailing gates and the join.
            Some(next) => self.exec(next, cont, group, leaf),
            None => {
                flush_all(&mut group.states, &mut group.pending, &mut self.flush_gate);
                leaf(&group);
                self.scratch.reclaim_weighted(group);
                Ok(())
            }
        }
    }

    /// Flushes the group's pending products and forks it at `meas` (see
    /// [`branch_groups`](Self::branch_groups)). The caller drains the
    /// returned list and hands it back to the arena with `pool_give`.
    fn fork(
        &mut self,
        mut group: WeightedGroup,
        meas: &Measurement,
    ) -> Result<Vec<(usize, WeightedGroup)>, QdpError> {
        flush_all(&mut group.states, &mut group.pending, &mut self.flush_gate);
        let mut forks = self.scratch.weighted_forks.pop().unwrap_or_default();
        self.branch_groups(group, meas, &mut forks)?;
        Ok(forks)
    }

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
    /// Branches at weight ≤ [`BRANCH_PRUNE`] are dropped as always; on top
    /// of that, a row with remaining [mass budget](ShotEngine::with_mass_budget)
    /// greedily drops its lowest-weight surviving branches while their
    /// cumulative mass still fits the budget.
    fn branch_groups(
        &mut self,
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
            meas.branch_probabilities_block(n, re, im, &mut self.scratch.probs);
        }
        let outcomes = meas.num_outcomes();
        // Health checks piggyback on the probability pass: measurements
        // are trace-complete (`Σm M†mMm = I`), so each row's probability
        // mass must equal its carried branch weight up to drift tolerance.
        if let Some(cfg) = self.health {
            for (r, ctx) in rows.iter().enumerate() {
                let range = r * outcomes..(r + 1) * outcomes;
                let total: f64 = self.scratch.probs[range.clone()].iter().sum();
                let expected = ctx.weight;
                let orig = ctx.orig;
                let non_finite = !total.is_finite() || !expected.is_finite();
                let drifted = !non_finite
                    && (total - expected).abs()
                        > cfg.drift_tol * expected.abs().max(f64::MIN_POSITIVE);
                if !non_finite && !drifted {
                    continue;
                }
                match cfg.policy {
                    HealthPolicy::FailFast => {
                        return Err(if non_finite {
                            QdpError::NonFinite { row: orig, context: "branch probabilities" }
                        } else {
                            QdpError::NormDrift {
                                row: orig,
                                expected,
                                actual: total,
                                tolerance: cfg.drift_tol,
                            }
                        });
                    }
                    HealthPolicy::Renormalize => {
                        if non_finite || total <= 1e-300 {
                            return Err(QdpError::NonFinite {
                                row: orig,
                                context: "branch probabilities",
                            });
                        }
                        // Rescale the row's amplitudes and its probability
                        // entries together, so child weights stay
                        // consistent with the repaired amplitudes.
                        let ratio = expected / total;
                        let s = C64::real(ratio.sqrt());
                        let (row_re, row_im) = states.row_planes_mut(r);
                        scale_planes(row_re, row_im, s);
                        for p in &mut self.scratch.probs[range] {
                            *p *= ratio;
                        }
                    }
                    HealthPolicy::DegradeToOracle => {
                        // Zeroing the row's probability entries drops it
                        // from every outcome (nothing clears BRANCH_PRUNE),
                        // excising its subtree from the batched sweep; the
                        // tile re-runs it on the per-row enumerator.
                        self.defects.push(orig);
                        for p in &mut self.scratch.probs[range] {
                            *p = 0.0;
                        }
                    }
                }
            }
        }
        self.scratch.keep.clear();
        self.scratch.keep.resize(rows.len() * outcomes, false);
        for (r, ctx) in rows.iter().enumerate() {
            let probs = &self.scratch.probs[r * outcomes..(r + 1) * outcomes];
            let keep = &mut self.scratch.keep[r * outcomes..(r + 1) * outcomes];
            for (m, &w) in probs.iter().enumerate() {
                keep[m] = w > BRANCH_PRUNE;
            }
            let budget = self.budgets[ctx.orig];
            if budget > 0.0 {
                // Mass-budget pruning: drop the lowest-weight surviving
                // branches (ties by outcome index — fully deterministic)
                // while their cumulative mass fits the row's remaining
                // budget, and charge the budget for what was dropped.
                let order = &mut self.scratch.order;
                order.clear();
                order.extend((0..outcomes).filter(|&m| keep[m]));
                order.sort_by(|&a, &b| probs[a].total_cmp(&probs[b]).then(a.cmp(&b)));
                let mut remaining = budget;
                for &m in order.iter() {
                    if probs[m] > remaining {
                        break;
                    }
                    remaining -= probs[m];
                    keep[m] = false;
                }
                self.budgets[ctx.orig] = remaining;
            }
        }
        let mut selected = std::mem::take(&mut self.scratch.selected);
        for m in 0..outcomes {
            selected.clear();
            let mut sub_rows = self.scratch.weighted_rows.pop().unwrap_or_default();
            for (r, ctx) in rows.iter().enumerate() {
                if self.scratch.keep[r * outcomes + m] {
                    selected.push(r);
                    sub_rows.push(WeightedRow {
                        orig: ctx.orig,
                        weight: self.scratch.probs[r * outcomes + m],
                    });
                }
            }
            if selected.is_empty() {
                pool_give(&mut self.scratch.weighted_rows, sub_rows);
                continue;
            }
            let (mut dst_re, mut dst_im) = self.scratch.take_block();
            {
                let (re, im) = states.planes();
                meas.collapse_block_into(n, re, im, &selected, m, &mut dst_re, &mut dst_im);
            }
            let pending = self.scratch.take_pending(n);
            forks.push((
                m,
                WeightedGroup {
                    states: BatchedStates::from_raw(selected.len(), n, dst_re, dst_im),
                    rows: sub_rows,
                    pending,
                },
            ));
        }
        self.scratch.selected = selected;
        rows.clear();
        self.scratch.reclaim_weighted(WeightedGroup { states, rows, pending });
        Ok(())
    }
}

/// Where a [`SweepTrie`] gate takes its matrix from.
#[derive(Clone, Copy, Debug)]
pub enum TrieMatrix<'a> {
    /// A matrix fixed when the trie is built. Two gates share a node when
    /// their matrices carry the same bits.
    Fixed(&'a Matrix),
    /// Entry `i` of the matrix table each sweep call passes in. Two gates
    /// share a node when they name the same entry.
    Table(usize),
}

/// One op of a program inserted into a [`SweepTrie`]: a [`TrajProgram`]
/// op whose gate matrix may be a per-call table entry. The trie copies
/// what it keeps, so the ops may borrow from the caller's program.
#[derive(Clone, Debug)]
pub enum TrieOp<'a> {
    /// An operator application.
    Gate {
        /// The matrix, or the table entry it is read from.
        matrix: TrieMatrix<'a>,
        /// The qubits it acts on.
        targets: &'a [usize],
    },
    /// `q := |0⟩` on `target`: measure it and flip on outcome 1.
    Init {
        /// The reset qubit.
        target: usize,
    },
    /// A measurement that continues into the arm of its outcome.
    Case {
        /// The measurement.
        meas: &'a Measurement,
        /// One arm per outcome.
        arms: Vec<Vec<TrieOp<'a>>>,
    },
    /// Drop the branch.
    Abort,
}

/// Many exact programs over one register, merged into a prefix trie and
/// swept **together**: one branch-weighted exact sweep (see
/// [`ShotEngine::expectation_sweep`]) for a whole family of programs that
/// share prefixes, such as every derivative program of a gradient.
///
/// A node is a point that every program through it reaches with the same
/// state. Programs share a node only while they execute the same ops:
/// gates with the same matrix bits (or the same table entry) on the same
/// targets, resets of the same qubit, measurements with the same operators
/// on the same qubits. A measurement node has one child per outcome, over
/// each program's `arm ++ continuation`; a program whose arm aborts has no
/// leaf there, and subtrees without leaves are pruned.
///
/// [`expectation_sweep`](Self::expectation_sweep) runs the trie
/// depth-first on one weighted group. It copies the group only where
/// programs part, and it adds each leaf's read-out to the column of every
/// program that ends there. So every column carries exactly the bits of
/// that program's own exact sweep: the same ops, with the same fusion and
/// flush order, run on the same rows, and each column sums its leaves in
/// the program's own depth-first order, starting at `0.0` as the
/// program's own sweep does.
#[derive(Clone, Debug)]
pub struct SweepTrie {
    /// The arena; node 0 is the root.
    nodes: Vec<TrieNode>,
    /// Constant gate matrices, one per distinct bit pattern.
    fixed: Vec<Matrix>,
    /// Measurements of measurement and reset nodes, one per distinct one.
    measurements: Vec<Measurement>,
    /// Gate target lists, addressed by range.
    targets: Vec<usize>,
    /// The flip of reset nodes.
    flip: Matrix,
    /// Number of programs.
    programs: usize,
}

/// "No node" in a child or sibling link: the root is nobody's child.
const NO_NODE: usize = 0;

#[derive(Clone, Debug)]
struct TrieNode {
    /// The op a program runs to reach this node.
    step: Step,
    /// First child and next sibling, or [`NO_NODE`].
    child: usize,
    sibling: usize,
    /// Programs that end here.
    leaves: Vec<usize>,
    /// Ops in the subtree below; the root's is [`SweepTrie::op_count`].
    weight: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Root,
    /// A gate, with the range of its targets in [`SweepTrie::targets`].
    Gate {
        matrix: GateMatrix,
        targets: (usize, usize),
    },
    /// A reset: measure with `measurements[meas]`, flip on outcome 1.
    Init {
        meas: usize,
        target: usize,
    },
    /// A measurement; its children are [`Step::Arm`]s.
    Case {
        meas: usize,
    },
    /// The programs that go on after one outcome of the parent case.
    Arm {
        outcome: usize,
    },
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum GateMatrix {
    Fixed(usize),
    Table(usize),
}

fn same_matrix_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

impl SweepTrie {
    /// Merges `programs` into one trie; program `i` reads out into column
    /// `i` of every sweep.
    pub fn build<'a>(programs: impl IntoIterator<Item = Vec<TrieOp<'a>>>) -> Self {
        let mut trie = SweepTrie {
            nodes: vec![TrieNode {
                step: Step::Root,
                child: NO_NODE,
                sibling: NO_NODE,
                leaves: Vec::new(),
                weight: 0,
            }],
            fixed: Vec::new(),
            measurements: Vec::new(),
            targets: Vec::new(),
            flip: Matrix::pauli_x(),
            programs: 0,
        };
        for ops in programs {
            trie.insert(0, &ops, &[], trie.programs);
            trie.programs += 1;
        }
        trie.finish();
        trie.nodes.shrink_to_fit();
        trie
    }

    /// Number of programs (read-out columns).
    pub fn programs(&self) -> usize {
        self.programs
    }

    /// Ops in the trie, each measurement once plus the ops of every arm:
    /// what one sweep executes at most.
    pub fn op_count(&self) -> usize {
        self.nodes[0].weight
    }

    fn children(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let first = Some(self.nodes[node].child).filter(|&c| c != NO_NODE);
        std::iter::successors(first, |&c| {
            Some(self.nodes[c].sibling).filter(|&s| s != NO_NODE)
        })
    }

    /// The child of `node` reached by `step`, added (as the last child) if
    /// no program took it yet. `same` decides whether a child's step is
    /// the one sought.
    fn child(
        &mut self,
        node: usize,
        same: impl Fn(&Self, &Step) -> bool,
        step: impl FnOnce(&mut Self) -> Step,
    ) -> usize {
        let mut last = NO_NODE;
        for c in self.children(node) {
            if same(self, &self.nodes[c].step) {
                return c;
            }
            last = c;
        }
        let step = step(self);
        let id = self.nodes.len();
        self.nodes.push(TrieNode {
            step,
            child: NO_NODE,
            sibling: NO_NODE,
            leaves: Vec::new(),
            weight: 0,
        });
        match last {
            NO_NODE => self.nodes[node].child = id,
            last => self.nodes[last].sibling = id,
        }
        id
    }

    fn intern_measurement(&mut self, meas: &Measurement) -> usize {
        let same = |m: &Measurement| {
            m.targets() == meas.targets()
                && m.num_outcomes() == meas.num_outcomes()
                && m.operators()
                    .iter()
                    .zip(meas.operators())
                    .all(|(a, b)| same_matrix_bits(a, b))
        };
        match self.measurements.iter().position(same) {
            Some(i) => i,
            None => {
                self.measurements.push(meas.clone());
                self.measurements.len() - 1
            }
        }
    }

    /// Inserts program `id`'s path from `node`: `ops`, then the suspended
    /// continuations `cont` (innermost last).
    fn insert<'a, 'p>(
        &mut self,
        mut node: usize,
        mut ops: &'p [TrieOp<'a>],
        mut cont: &[&'p [TrieOp<'a>]],
        id: usize,
    ) {
        loop {
            let Some((op, rest)) = ops.split_first() else {
                match cont.split_last() {
                    Some((next, outer)) => {
                        ops = next;
                        cont = outer;
                        continue;
                    }
                    None => {
                        self.nodes[node].leaves.push(id);
                        return;
                    }
                }
            };
            ops = rest;
            node = match op {
                TrieOp::Abort => return,
                TrieOp::Gate { matrix, targets } => {
                    let matrix = match matrix {
                        TrieMatrix::Table(i) => GateMatrix::Table(*i),
                        TrieMatrix::Fixed(m) => GateMatrix::Fixed(
                            match self.fixed.iter().position(|f| same_matrix_bits(f, m)) {
                                Some(i) => i,
                                None => {
                                    self.fixed.push((*m).clone());
                                    self.fixed.len() - 1
                                }
                            },
                        ),
                    };
                    self.child(
                        node,
                        |trie, step| match *step {
                            Step::Gate {
                                matrix: m,
                                targets: (s, e),
                            } => m == matrix && trie.targets[s..e] == **targets,
                            _ => false,
                        },
                        |trie| {
                            let start = trie.targets.len();
                            trie.targets.extend_from_slice(targets);
                            Step::Gate {
                                matrix,
                                targets: (start, trie.targets.len()),
                            }
                        },
                    )
                }
                TrieOp::Init { target } => self.child(
                    node,
                    |_, step| matches!(*step, Step::Init { target: t, .. } if t == *target),
                    |trie| Step::Init {
                        meas: trie.intern_measurement(&Measurement::computational(vec![*target])),
                        target: *target,
                    },
                ),
                TrieOp::Case { meas, arms } => {
                    let meas = self.intern_measurement(meas);
                    let case = self.child(
                        node,
                        |_, step| *step == Step::Case { meas },
                        |_| Step::Case { meas },
                    );
                    let mut arm_cont = cont.to_vec();
                    arm_cont.push(rest);
                    for (outcome, arm) in arms.iter().enumerate() {
                        let arm_node = self.child(
                            case,
                            |_, step| *step == Step::Arm { outcome },
                            |_| Step::Arm { outcome },
                        );
                        self.insert(arm_node, arm, &arm_cont, id);
                    }
                    return;
                }
            };
        }
    }

    /// Unlinks every subtree without a leaf (paths only aborting programs
    /// take) and fills in the weights. Children sit after their parents in
    /// the arena, so one backward pass sees every child before its parent.
    fn finish(&mut self) {
        for node in (0..self.nodes.len()).rev() {
            let (mut first, mut prev, mut weight) = (NO_NODE, NO_NODE, 0);
            let mut c = self.nodes[node].child;
            while c != NO_NODE {
                let next = self.nodes[c].sibling;
                let child = &self.nodes[c];
                if !child.leaves.is_empty() || child.child != NO_NODE {
                    let own = usize::from(!matches!(child.step, Step::Arm { .. }));
                    weight += own + child.weight;
                    match prev {
                        NO_NODE => first = c,
                        p => self.nodes[p].sibling = c,
                    }
                    prev = c;
                }
                c = next;
            }
            if prev != NO_NODE {
                self.nodes[prev].sibling = NO_NODE;
            }
            self.nodes[node].child = first;
            self.nodes[node].weight = weight;
        }
    }

    /// Which nodes lead to a leaf of part `part` of `parts`, where program
    /// `p` belongs to part `p % parts`. Children sit after their parents in
    /// the arena, so one backward pass sees every child first.
    fn live_nodes(&self, part: usize, parts: usize) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        for node in (0..self.nodes.len()).rev() {
            live[node] = self.nodes[node].leaves.iter().any(|&p| p % parts == part)
                || self.children(node).any(|c| live[c]);
        }
        live
    }

    /// Every program's exact expectation `Σ_branches ⟨ψb|O|ψb⟩` on every
    /// row of the batch: `out[i][r]` for program `i` on row `r`, with the
    /// gate matrices of [`TrieMatrix::Table`] entries read from `table`.
    ///
    /// Work (rows × amplitudes × trie ops) that reaches
    /// [`qdp_par::FORK_MIN_WORK`] is split across `qdp_par`: batches of
    /// more than [`EXACT_TILE`] rows into `EXACT_TILE`-row tiles, smaller
    /// ones of more than one program into one part per free worker, each
    /// sweeping the trie for every `parts`-th program. A part repeats the prefixes its programs
    /// share with other parts', but every column is still summed by one
    /// thread in its program's own depth-first order. Per-row bits are the
    /// same under any thread count and batch decomposition.
    ///
    /// The sweep runs **unmonitored**: its forks carry no health checks
    /// (`health: None`, so no NaN/Inf or norm-drift detection, unlike
    /// [`ShotEngine::with_health`]) and a zero mass budget (only branches
    /// at weight ≤ [`BRANCH_PRUNE`] are dropped).
    ///
    /// # Panics
    ///
    /// Panics when a row tile still panicked after its bit-identical
    /// retries, when `table` lacks an entry the trie names, or when the
    /// register sizes of the batch, the programs and `obs` disagree.
    pub fn expectation_sweep(
        &self,
        table: &[Matrix],
        states: BatchedStates,
        obs: &Observable,
    ) -> Vec<Vec<f64>> {
        let total_rows = states.len();
        let mut out = vec![Vec::with_capacity(total_rows); self.programs()];
        if total_rows == 0 || out.is_empty() {
            return out;
        }
        let ops = self.op_count();
        let work = total_rows * states.dim() * ops;
        let split = total_rows <= EXACT_TILE && self.programs() > 1;
        let blocks = if split && qdp_par::fork_pays(work) {
            self.sweep_split(table, &states, obs)
                .map(|cols| vec![(total_rows, cols)])
        } else {
            exact_tiles(states, ops, |block| {
                self.sweep_tile(table, block, obs, 0, 1)
            })
        };
        for (rows, cols) in blocks.unwrap_or_else(|e| panic!("{e}")) {
            for (col, part) in out.iter_mut().zip(cols.chunks(rows)) {
                col.extend_from_slice(part);
            }
        }
        out
    }

    /// The whole batch as one block, its programs split among the free
    /// workers: part `k` of `n` sweeps the programs `p` with `p % n == k`.
    fn sweep_split(
        &self,
        table: &[Matrix],
        states: &BatchedStates,
        obs: &Observable,
    ) -> Result<Vec<f64>, QdpError> {
        let parts = qdp_par::par_split(self.programs(), |part, parts| {
            self.sweep_tile(table, states.clone(), obs, part, parts)
        });
        let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
        let rows = states.len();
        Ok((0..self.programs())
            .flat_map(|p| &parts[p % parts.len()][p * rows..(p + 1) * rows])
            .copied()
            .collect())
    }

    /// One tile: the trie for part `part` of `parts` (see
    /// [`live_nodes`](Self::live_nodes)) over one block, into a
    /// column-major `programs × rows` buffer. Columns of other parts keep
    /// their start values.
    fn sweep_tile(
        &self,
        table: &[Matrix],
        states: BatchedStates,
        obs: &Observable,
        part: usize,
        parts: usize,
    ) -> Result<Vec<f64>, QdpError> {
        let rows = states.len();
        let mut cols = vec![0.0; self.programs * rows];
        let live = if parts > 1 {
            self.live_nodes(part, parts)
        } else {
            Vec::new()
        };
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let group = weighted_root(states, scratch);
            let mut sweep = TrieSweep {
                trie: self,
                exact: ExactSweep {
                    budgets: vec![0.0; rows],
                    scratch,
                    flush_gate: Matrix::zeros(2, 2),
                    health: None,
                    defects: Vec::new(),
                },
                table,
                obs,
                rows,
                live: &live,
                split: (part, parts),
                values: Vec::new(),
            };
            sweep.run(0, group, &mut cols)
        })?;
        Ok(cols)
    }
}

/// The state of one [`SweepTrie`] sweep over one tile.
struct TrieSweep<'a> {
    trie: &'a SweepTrie,
    /// The exact sweep's fork machinery: arena, flush scratch, zero mass
    /// budgets, no health checks.
    exact: ExactSweep<'a>,
    table: &'a [Matrix],
    obs: &'a Observable,
    /// Rows of the tile: the stride of the column buffer.
    rows: usize,
    /// The nodes this sweep runs ([`SweepTrie::live_nodes`]); empty when
    /// it runs them all.
    live: &'a [bool],
    /// This sweep's part and the number of parts: it reads out program
    /// `p` only when `p % parts == part`.
    split: (usize, usize),
    /// Read-out buffer of the current leaf group.
    values: Vec<f64>,
}

impl<'a> TrieSweep<'a> {
    fn owns(&self, program: usize) -> bool {
        let (part, parts) = self.split;
        program % parts == part
    }

    /// The children of `node` this sweep runs.
    fn live_children(&self, node: usize) -> impl Iterator<Item = usize> + 'a {
        let live = self.live;
        self.trie
            .children(node)
            .filter(move |&c| live.is_empty() || live[c])
    }

    /// Runs the subtree at `node` on `group`. Chains of single gates run
    /// in place; only nodes where programs part recurse.
    fn run(
        &mut self,
        mut node: usize,
        mut group: WeightedGroup,
        cols: &mut [f64],
    ) -> Result<(), QdpError> {
        let trie = self.trie;
        loop {
            let mut children = self.live_children(node);
            let (child, more) = (children.next(), children.next().is_some());
            let leaves = &trie.nodes[node].leaves;
            if leaves.iter().any(|&p| self.owns(p)) {
                self.read_leaves(leaves, &mut group, cols, child.is_none());
            }
            let Some(child) = child else {
                self.exact.scratch.reclaim_weighted(group);
                return Ok(());
            };
            if more {
                return self.part(node, group, cols);
            }
            match trie.nodes[child].step {
                Step::Gate { matrix, targets } => {
                    self.gate(&mut group, matrix, targets);
                    node = child;
                }
                _ => return self.step(child, group, cols),
            }
        }
    }

    fn gate(
        &mut self,
        group: &mut WeightedGroup,
        matrix: GateMatrix,
        (start, end): (usize, usize),
    ) {
        let trie = self.trie;
        let matrix = match matrix {
            GateMatrix::Fixed(i) => &trie.fixed[i],
            GateMatrix::Table(i) => &self.table[i],
        };
        apply_fused(
            group,
            matrix,
            &trie.targets[start..end],
            &mut self.exact.flush_gate,
        );
    }

    /// Adds the group's read-out to the column of every program of this
    /// sweep ending here. Pending products are flushed first, on a copy
    /// when programs go on from the unflushed group.
    fn read_leaves(
        &mut self,
        leaves: &[usize],
        group: &mut WeightedGroup,
        cols: &mut [f64],
        last: bool,
    ) {
        if last || group.pending.iter().all(Option::is_none) {
            flush_all(
                &mut group.states,
                &mut group.pending,
                &mut self.exact.flush_gate,
            );
            self.obs
                .expectation_batch_into(&group.states, &mut self.values);
        } else {
            let mut copy = self.exact.scratch.copy_weighted(group);
            flush_all(
                &mut copy.states,
                &mut copy.pending,
                &mut self.exact.flush_gate,
            );
            self.obs
                .expectation_batch_into(&copy.states, &mut self.values);
            self.exact.scratch.reclaim_weighted(copy);
        }
        for &p in leaves.iter().filter(|&&p| self.owns(p)) {
            let col = &mut cols[p * self.rows..(p + 1) * self.rows];
            for (ctx, v) in group.rows.iter().zip(&self.values) {
                col[ctx.orig] += v;
            }
        }
    }

    /// Runs the op of node `node` on `group`, then the subtree below it.
    fn step(
        &mut self,
        node: usize,
        mut group: WeightedGroup,
        cols: &mut [f64],
    ) -> Result<(), QdpError> {
        let trie = self.trie;
        match trie.nodes[node].step {
            Step::Gate { matrix, targets } => {
                self.gate(&mut group, matrix, targets);
                self.run(node, group, cols)
            }
            Step::Init { meas, target } => {
                let mut forks = self.exact.fork(group, &trie.measurements[meas])?;
                for (outcome, mut sub) in forks.drain(..) {
                    if outcome == 1 {
                        sub.states.apply_gate(&trie.flip, &[target]);
                    }
                    self.run(node, sub, cols)?;
                }
                pool_give(&mut self.exact.scratch.weighted_forks, forks);
                Ok(())
            }
            Step::Case { meas } => {
                let mut forks = self.exact.fork(group, &trie.measurements[meas])?;
                for (outcome, sub) in forks.drain(..) {
                    match self
                        .live_children(node)
                        .find(|&arm| trie.nodes[arm].step == Step::Arm { outcome })
                    {
                        Some(arm) => self.run(arm, sub, cols)?,
                        None => self.exact.scratch.reclaim_weighted(sub),
                    }
                }
                pool_give(&mut self.exact.scratch.weighted_forks, forks);
                Ok(())
            }
            Step::Root | Step::Arm { .. } => unreachable!("the root and arms have no op"),
        }
    }

    /// Runs each child of a node where programs part on its own copy of
    /// the group, the last on the group itself.
    fn part(
        &mut self,
        node: usize,
        group: WeightedGroup,
        cols: &mut [f64],
    ) -> Result<(), QdpError> {
        let mut children = self.live_children(node).peekable();
        while let Some(child) = children.next() {
            if children.peek().is_none() {
                return self.step(child, group, cols);
            }
            let copy = self.exact.scratch.copy_weighted(&group);
            self.step(child, copy, cols)?;
        }
        unreachable!("a node where programs part has children");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observable::Observable;

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
        let mut samplers: Vec<ShotSampler> = (0..5).map(|s| ShotSampler::derived(3, s)).collect();
        let rows = engine.run(BatchedStates::from_states(&inputs), &[1; 5], &mut samplers).unwrap();
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
        let mut samplers: Vec<ShotSampler> = (0..32).map(|s| ShotSampler::derived(7, s)).collect();
        let rows = engine.run(BatchedStates::zero(1, 1), &[32], &mut samplers).unwrap();
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
        let mut samplers: Vec<ShotSampler> = (0..64).map(|s| ShotSampler::derived(11, s)).collect();
        let rows = engine.run(BatchedStates::zero(1, 1), &[64], &mut samplers).unwrap();
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
        let mut samplers: Vec<ShotSampler> = (0..256).map(|s| ShotSampler::derived(4, s)).collect();
        let psi = StateVector::zero_state(2);
        for fuse in [false, true] {
            let (finished, aborted, _) = engine
                .sampled_sweep(BatchedStates::from_states(std::slice::from_ref(&psi)), &[256], &mut samplers, fuse)
                .unwrap();
            assert!(aborted.is_empty());
            let rows: usize = finished.iter().map(|g| g.states.len()).sum();
            let members: usize = finished.iter().map(|g| g.members.len()).sum();
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

        let batch = BatchedStates::zero(1, 2);
        let mut samplers: Vec<ShotSampler> =
            (0..shots).map(|s| ShotSampler::derived(5, s as u64)).collect();
        let samples = engine.sample_sweep(batch, &[shots], &mut samplers, &readout).unwrap();

        let batch = BatchedStates::zero(1, 2);
        let mut samplers: Vec<ShotSampler> =
            (0..shots).map(|s| ShotSampler::derived(5, s as u64)).collect();
        let rows = engine.run(batch, &[shots], &mut samplers).unwrap();
        for (row, (sampler, sample)) in rows.iter().zip(samplers.iter_mut().zip(&samples)) {
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
        let est = engine
            .estimate_expectation_batch(inputs, &readout, 40_000, &[2024])
            .unwrap()[0];
        assert!((est - 0.8f64.cos()).abs() < 0.02, "estimate {est}");
        let again = engine
            .estimate_expectation_batch(inputs, &readout, 40_000, &[2024])
            .unwrap()[0];
        assert_eq!(est.to_bits(), again.to_bits());
    }

    #[test]
    fn empty_batch_is_harmless() {
        let engine = ShotEngine::new(TrajProgram::new());
        let rows = engine.run(BatchedStates::from_states(&[]), &[], &mut []).unwrap();
        assert!(rows.is_empty());
        assert!(engine
            .expectation_sweep(BatchedStates::from_states(&[]), &Observable::pauli_z(1, 0))
            .unwrap()
            .is_empty());
    }

    /// The per-row exact branch enumerator — the oracle of the weighted
    /// sweep, mirroring `qdp_ad::ResolvedProgram::run_from` on the
    /// trajectory IR (Init enumerated as measure + flip).
    fn enumerate_branches(ops: &[TrajOp], mut psi: StateVector, out: &mut Vec<StateVector>) {
        for (i, op) in ops.iter().enumerate() {
            match op {
                TrajOp::Gate { matrix, targets } => psi.apply_gate(matrix, targets),
                TrajOp::Abort => return,
                TrajOp::Init { meas, flip, target } => {
                    for b in meas.branches_pure(&psi) {
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
                    for b in meas.branches_pure(&psi) {
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

    /// A [`SweepTrie`] program as its own [`TrajProgram`], with the table
    /// entries substituted.
    fn trie_traj(ops: &[TrieOp<'_>], table: &[Matrix]) -> TrajProgram {
        let mut p = TrajProgram::new();
        for op in ops {
            match op {
                TrieOp::Gate { matrix, targets } => p.push_gate(
                    match matrix {
                        TrieMatrix::Fixed(m) => (*m).clone(),
                        TrieMatrix::Table(i) => table[*i].clone(),
                    },
                    targets.to_vec(),
                ),
                TrieOp::Init { target } => p.push_init(*target),
                TrieOp::Case { meas, arms } => p.push_case(
                    (*meas).clone(),
                    arms.iter().map(|a| trie_traj(a, table)).collect(),
                ),
                TrieOp::Abort => p.push_abort(),
            }
        }
        p
    }

    fn gate<'a>(matrix: TrieMatrix<'a>, targets: &'a [usize]) -> TrieOp<'a> {
        TrieOp::Gate { matrix, targets }
    }

    #[test]
    fn sweep_trie_columns_carry_each_programs_own_sweep_bits() {
        let table = [
            rotation_y(0.3),
            Matrix::rotation_from_involution(&Matrix::pauli_x(), 0.7),
            Matrix::hadamard(),
        ];
        let (h, cnot) = (Matrix::hadamard(), Matrix::cnot());
        let m0 = Measurement::computational(vec![0]);
        let case = |arm1: TrieOp<'static>| TrieOp::Case {
            meas: &m0,
            arms: vec![vec![gate(TrieMatrix::Table(2), &[1])], vec![arm1]],
        };
        let ry = || gate(TrieMatrix::Table(0), &[0]);
        let rx = |t: &'static [usize]| gate(TrieMatrix::Table(1), t);
        let programs = vec![
            // A prefix of the next three: it reads out while they go on
            // fusing into the same pending product.
            vec![ry()],
            vec![ry(), rx(&[0]), gate(TrieMatrix::Fixed(&cnot), &[0, 1])],
            // One shared measurement; one arm aborts in the first program only.
            vec![ry(), case(TrieOp::Abort), rx(&[1])],
            vec![ry(), case(TrieOp::Init { target: 1 }), rx(&[1])],
            // Parts at the root; the same matrix as entry 2, by its bits.
            vec![gate(TrieMatrix::Fixed(&h), &[1])],
            vec![TrieOp::Abort],
        ];
        let own: Vec<TrajProgram> = programs.iter().map(|ops| trie_traj(ops, &table)).collect();
        let trie = SweepTrie::build(programs);
        // ry; rx, cnot; case, H, rx (arm 0), init, rx (arm 1); H.
        assert_eq!(trie.op_count(), 9);
        let obs = Observable::pauli_z(2, 1);
        let inputs: Vec<StateVector> = (0..3)
            .map(|k| {
                let mut s = StateVector::basis_state(2, k);
                s.apply_gate(&rotation_y(0.5 + 0.2 * k as f64), &[1]);
                s
            })
            .collect();
        let columns = trie.expectation_sweep(&table, BatchedStates::from_states(&inputs), &obs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, program) in own.into_iter().enumerate() {
            let alone = ShotEngine::new(program)
                .expectation_sweep(BatchedStates::from_states(&inputs), &obs)
                .unwrap();
            assert_eq!(bits(&columns[i]), bits(&alone), "program {i}");
        }
        // Split into parts, each sweeping every `parts`-th program: the
        // part that owns a program reads out the same bits.
        let rows = inputs.len();
        for parts in 2..=columns.len() {
            for part in 0..parts {
                let batch = BatchedStates::from_states(&inputs);
                let cols = trie.sweep_tile(&table, batch, &obs, part, parts).unwrap();
                for i in (part..columns.len()).step_by(parts) {
                    let split = &cols[i * rows..(i + 1) * rows];
                    let what = format!("program {i} of {parts} parts");
                    assert_eq!(bits(split), bits(&columns[i]), "{what}");
                }
            }
        }
    }

    #[test]
    fn sweep_trie_columns_start_at_the_oracles_zero() {
        // Straight-line programs whose read-out is exactly zero: `Z` on an
        // equal superposition of qubit 1. Each column holds the oracle's
        // bits, `+0.0`, and a part that owns none of the columns leaves
        // them at the oracle's start value, `+0.0`, as well.
        let (h, x) = (Matrix::hadamard(), Matrix::pauli_x());
        let programs = vec![
            vec![gate(TrieMatrix::Fixed(&h), &[1])],
            vec![gate(TrieMatrix::Fixed(&x), &[0]), gate(TrieMatrix::Fixed(&h), &[1])],
        ];
        let own: Vec<TrajProgram> = programs.iter().map(|ops| trie_traj(ops, &[])).collect();
        let trie = SweepTrie::build(programs);
        let obs = Observable::pauli_z(2, 1);
        let inputs: Vec<StateVector> = (0..2).map(|k| StateVector::basis_state(2, k)).collect();
        let columns = trie.expectation_sweep(&[], BatchedStates::from_states(&inputs), &obs);
        for (i, program) in own.into_iter().enumerate() {
            let alone = ShotEngine::new(program)
                .expectation_sweep(BatchedStates::from_states(&inputs), &obs)
                .unwrap();
            for (c, a) in columns[i].iter().zip(&alone) {
                assert_eq!(c.to_bits(), 0.0f64.to_bits(), "program {i}");
                assert_eq!(c.to_bits(), a.to_bits(), "program {i}");
            }
        }
        let unowned = trie
            .sweep_tile(&[], BatchedStates::from_states(&inputs), &obs, 2, 3)
            .unwrap();
        assert!(unowned.iter().all(|v| v.to_bits() == 0.0f64.to_bits()), "{unowned:?}");
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

    #[test]
    fn zero_mass_budget_preserves_unpruned_bits() {
        let plain = ShotEngine::new(branching_program());
        let pruned = ShotEngine::new(branching_program()).with_mass_budget(0.0).unwrap();
        let obs = Observable::pauli_z(2, 1);
        let inputs: Vec<StateVector> = (0..5)
            .map(|k| {
                let mut s = StateVector::basis_state(2, k % 4);
                s.apply_gate(&rotation_y(0.2 + 0.3 * k as f64), &[1]);
                s
            })
            .collect();
        let batch = BatchedStates::from_states(&inputs);
        let a = plain.expectation_sweep(batch.clone(), &obs).unwrap();
        let b = pruned.expectation_sweep(batch, &obs).unwrap();
        for (r, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row {r}");
        }
    }

    #[test]
    fn mass_budget_error_is_bounded_by_epsilon() {
        // ‖Z‖ = 1, so the pruned sweep may deviate from the unpruned
        // oracle by at most the dropped probability mass — ε per row.
        let oracle = ShotEngine::new(branching_program());
        let obs = Observable::pauli_z(2, 1);
        let inputs: Vec<StateVector> = (0..6)
            .map(|k| {
                let mut s = StateVector::basis_state(2, k % 4);
                s.apply_gate(&rotation_y(0.15 + 0.23 * k as f64), &[0]);
                s
            })
            .collect();
        let exact = oracle.expectation_sweep(BatchedStates::from_states(&inputs), &obs).unwrap();
        for epsilon in [0.01, 0.1, 0.3] {
            let engine = ShotEngine::new(branching_program()).with_mass_budget(epsilon).unwrap();
            let pruned = engine.expectation_sweep(BatchedStates::from_states(&inputs), &obs).unwrap();
            for (r, (p, e)) in pruned.iter().zip(&exact).enumerate() {
                assert!(
                    (p - e).abs() <= epsilon + 1e-12,
                    "ε = {epsilon} row {r}: pruned {p} vs exact {e}"
                );
            }
            // Kept leaf mass per row stays ≥ 1 − ε.
            let weights = engine.leaf_weights(BatchedStates::from_states(&inputs));
            for (r, row) in weights.iter().enumerate() {
                let total: f64 = row.iter().sum();
                assert!(
                    total >= 1.0 - epsilon - 1e-12,
                    "ε = {epsilon} row {r}: kept mass {total}"
                );
            }
            // Pruning decisions are per-row: batch composition invariance
            // survives a non-zero budget.
            for (r, psi) in inputs.iter().enumerate() {
                let alone = engine
                    .expectation_sweep(BatchedStates::from_states(std::slice::from_ref(psi)), &obs)
                    .unwrap()[0];
                assert_eq!(pruned[r].to_bits(), alone.to_bits(), "ε = {epsilon} row {r}");
            }
        }
    }

    #[test]
    fn mass_budget_drops_low_weight_branches() {
        // RY(0.2) puts ~1% of the mass on |1⟩; a 5% budget prunes that
        // branch (and everything under it), halving the leaf count.
        let mut p = TrajProgram::new();
        p.push_gate(rotation_y(0.2), vec![0]);
        p.push_case(
            Measurement::computational(vec![0]),
            vec![TrajProgram::new(), TrajProgram::new()],
        );
        let unpruned = ShotEngine::new(p.clone()).leaf_weights(BatchedStates::zero(1, 1));
        assert_eq!(unpruned[0].len(), 2);
        let pruned = ShotEngine::new(p)
            .with_mass_budget(0.05)
            .unwrap()
            .leaf_weights(BatchedStates::zero(1, 1));
        assert_eq!(pruned[0].len(), 1, "low-weight branch survives: {:?}", pruned[0]);
        assert!(pruned[0][0] >= 0.95);
    }

    #[test]
    fn mass_budget_rejects_out_of_range_epsilon() {
        let err = ShotEngine::new(TrajProgram::new()).with_mass_budget(1.0).unwrap_err();
        assert!(err.to_string().contains("mass budget must be in [0, 1)"), "{err}");
    }

    #[test]
    #[should_panic(expected = "one sampler stream per batch row")]
    fn mismatched_sampler_count_panics() {
        let engine = ShotEngine::new(TrajProgram::new());
        let mut samplers = vec![ShotSampler::seeded(1)];
        let _ = engine.run(BatchedStates::zero(2, 1), &[1, 1], &mut samplers);
    }
}
