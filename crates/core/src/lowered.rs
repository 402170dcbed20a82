//! Lowered (pre-resolved) execution of compiled derivative programs.
//!
//! [`crate::Differentiated`] evaluates the same compiled multiset `{P′i}` at
//! every gradient step; interpreting the AST each time re-resolves variable
//! names against the register, re-allocates measurement operators, and
//! re-unfolds bounded loops — all parameter-independent work. This module
//! hoists it: each program is lowered **once** into a flat op list with
//!
//! * qubit indices resolved (no per-gate register lookups or `Vec` allocs),
//! * parameter names interned into **slots** (one valuation lookup per
//!   parameter per run instead of one per gate),
//! * measurement operators and the `q := |0⟩` Kraus pair pre-built,
//! * bounded `while` loops statically unfolded into nested cases.
//!
//! The executor mirrors `qdp_lang::denot::run_pure_branches` exactly —
//! branch order, pruning threshold, and per-gate arithmetic are identical,
//! so results agree bit-for-bit with the AST interpreter.
//!
//! # Batched evaluation
//!
//! Evaluating the same multiset against **many** input states (a training
//! dataset, parallel shot batches) repeats yet more parameter-independent
//! work: every gate matrix `Rσ(θ)` depends only on the valuation, not the
//! state. [`LoweredSet::expectation_batch`] therefore resolves each program
//! once per batch into a [`ResolvedProgram`] — slots substituted, every
//! gate matrix built exactly once — and then fans the programs out through
//! `qdp_par`. Straight-line programs fuse commuting rotations and stream
//! the whole batch per operator; branching programs convert to the
//! [`qdp_sim::TrajProgram`] IR (the same lowered form the shot engine
//! samples) and run the **branch-weighted exact sweep**
//! [`qdp_sim::ShotEngine::expectation_sweep`] — all rows measured at once,
//! the block forked into outcome-homogeneous sub-batches carrying branch
//! weights, leaf read-outs summed per row. Results are reduced per row in
//! multiset order, so they are bit-for-bit independent of the thread
//! count; against the per-row oracle ([`ResolvedProgram::expectation_pure`])
//! they agree to numerical precision (≪ 1e-12 — fusion and
//! leaf-summation order move rounding, nothing else).
//!
//! That is how forward values and single multisets run (and the
//! per-parameter oracle `Differentiated::derivative_pure_batch`). An exact
//! **gradient** has one multiset per parameter, and most of their programs
//! are the forward program with one rotation swapped for its gadget. So
//! `SharedSweep` merges every parameter's programs into one prefix trie
//! over the lowered op streams, keyed on each op and the bits of its
//! matrix (a table entry per canonical slot and offset for parameterised
//! gates), and runs it as **one** branch-weighted sweep
//! ([`qdp_sim::SweepTrie`]): each shared prefix, measurement forks
//! included, runs once, and the batch is copied only where programs part.
//! Every entry carries the bits of the per-multiset sweep by construction.

use qdp_lang::ast::{Gate, Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::Matrix;
use qdp_sim::{BatchedStates, Measurement, Observable, ShotEngine, StateVector};

/// Branches below this squared norm are pruned (matches `denot` and the
/// branch-weighted batched executor).
const PRUNE: f64 = qdp_sim::BRANCH_PRUNE;

thread_local! {
    static LOWER_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times [`LoweredSet::lower`] has run **on this thread** — the
/// probe behind the compile-once contract. `qdp_ad::ProgramCache` interning
/// lowers on the calling thread (inside its `OnceLock` initializer), so a
/// test thread's delta across a region counts exactly the compilations that
/// region triggered, race-free under the parallel test harness.
pub fn lower_invocations() -> usize {
    LOWER_CALLS.with(std::cell::Cell::get)
}

/// One lowered operation.
#[derive(Clone, Debug)]
enum Op {
    /// `abort`: drop the branch.
    Abort,
    /// A unitary application with pre-resolved targets and parameter slot.
    Gate {
        gate: Gate,
        /// Index into the run's slot values, or `None` for constant angles.
        slot: Option<usize>,
        /// Additive angle offset (the gadget's `θ + π` shifts).
        offset: f64,
        targets: Vec<usize>,
        /// The matrix, pre-built at lowering time, for gates whose angle
        /// carries no parameter (`slot == None`): constant rotations, the
        /// Hadamards and controlled shifts of the differentiation gadget,
        /// every Clifford. Parameter-dependent matrices stay `None` and are
        /// built per valuation by [`LoweredProgram::resolve`] — so a warm
        /// skeleton re-patches only the shifted slots.
        fixed: Option<Matrix>,
    },
    /// `q := |0⟩` with the Kraus pair pre-built.
    Init {
        k0: Matrix,
        k1: Matrix,
        target: usize,
    },
    /// A measurement case over pre-built operators.
    Case {
        meas: Measurement,
        arms: Vec<LoweredProgram>,
    },
}

/// A lowered normal program: a flat sequence of [`Op`]s.
#[derive(Clone, Debug, Default)]
pub struct LoweredProgram {
    ops: Vec<Op>,
}

/// A compiled multiset lowered against one register, with a shared
/// parameter-slot table.
#[derive(Clone, Debug, Default)]
pub struct LoweredSet {
    programs: Vec<LoweredProgram>,
    /// Interned parameter names; slot `i` of a run valuation holds the value
    /// of `param_names[i]`.
    param_names: Vec<String>,
    /// Size of the register the set was lowered against — input states
    /// must match it.
    n_qubits: usize,
}

impl LoweredSet {
    /// Lowers every program of a compiled multiset.
    ///
    /// # Panics
    ///
    /// Panics when a program is additive or uses a variable outside `reg`.
    pub fn lower(compiled: &[Stmt], reg: &Register) -> Self {
        LOWER_CALLS.with(|c| c.set(c.get() + 1));
        let mut set = LoweredSet {
            n_qubits: reg.len(),
            ..LoweredSet::default()
        };
        set.programs = compiled
            .iter()
            .map(|p| {
                let mut prog = LoweredProgram::default();
                set_lower(p, reg, &mut set.param_names, &mut prog.ops);
                prog
            })
            .collect();
        set
    }

    /// The interned parameter names, in slot order.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Resolves a valuation into slot values.
    ///
    /// # Panics
    ///
    /// Panics when a used parameter has no value (same message as
    /// `Angle::eval`).
    pub fn slot_values(&self, params: &Params) -> Vec<f64> {
        self.param_names
            .iter()
            .map(|name| {
                params
                    .get(name)
                    .unwrap_or_else(|| panic!("parameter '{name}' has no value"))
            })
            .collect()
    }

    /// The lowered programs, for per-program parallel evaluation.
    pub fn programs(&self) -> &[LoweredProgram] {
        &self.programs
    }

    /// Evaluates the whole multiset against **every** row of a batch in one
    /// pass: returns `out[r] = Σᵢ ⟨ψ·|O|ψ·⟩` over the branches of program
    /// `i` run on input row `r`.
    ///
    /// Parameter slots are resolved **once** — each gate matrix is built a
    /// single time and shared by all rows and branches — and the work is
    /// split across `qdp_par` workers one program at a time: straight-line
    /// programs stream every fused operator over the whole batch block in
    /// one kernel call each, and branching programs run the
    /// branch-weighted exact sweep over the whole block (see
    /// [`ResolvedProgram::expectation_batch`]). Per-row sums run in
    /// multiset order over the order-preserving `par_map` output, so the
    /// result is bit-for-bit deterministic under any thread count; it
    /// agrees with the per-sample serial loop to numerical precision
    /// (≪ 1e-12 — fusion and branch-weighted leaf summation reorder
    /// rounding, nothing else).
    ///
    /// # Panics
    ///
    /// Panics when the batch register does not match the register the set
    /// was lowered against, or when `values` is shorter than the slot table.
    pub fn expectation_batch(
        &self,
        values: &[f64],
        states: &BatchedStates,
        obs: &Observable,
    ) -> Vec<f64> {
        let rows = states.len();
        if rows == 0 || self.programs.is_empty() {
            // An empty multiset denotes the zero map: every row reads 0.
            return vec![0.0; rows];
        }
        assert_eq!(
            states.num_qubits(),
            self.n_qubits,
            "batch register size must match the register the set was lowered against"
        );
        let resolved: Vec<ResolvedProgram<'_>> =
            self.programs.iter().map(|p| p.resolve(values)).collect();
        // Pure per program, so a panicked worker tile retries
        // bit-identically (twice) before the failure is surfaced.
        let per_program: Vec<Vec<f64>> =
            qdp_par::try_par_map_retry(&resolved, |p| p.expectation_batch(states, obs), 2)
                .unwrap_or_else(|e| panic!("{}", qdp_sim::QdpError::from(e)));
        (0..rows)
            .map(|r| per_program.iter().map(|per_row| per_row[r]).sum())
            .collect()
    }
}

fn intern(names: &mut Vec<String>, name: &str) -> usize {
    match names.iter().position(|n| n == name) {
        Some(i) => i,
        None => {
            names.push(name.to_string());
            names.len() - 1
        }
    }
}

fn set_lower(stmt: &Stmt, reg: &Register, names: &mut Vec<String>, out: &mut Vec<Op>) {
    match stmt {
        Stmt::Skip { .. } => {}
        Stmt::Abort { .. } => out.push(Op::Abort),
        Stmt::Init { q } => out.push(Op::Init {
            k0: Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
            k1: Matrix::from_real_rows(&[&[0.0, 1.0], &[0.0, 0.0]]),
            target: reg.indices_of(std::slice::from_ref(q))[0],
        }),
        Stmt::Unitary { gate, qs } => {
            let (slot, offset) = match gate.angle() {
                Some(angle) => (
                    angle.param.as_deref().map(|p| intern(names, p)),
                    angle.offset,
                ),
                None => (None, 0.0),
            };
            // Parameter-independent matrices are built here, once per
            // lowering, and shared by every subsequent resolve.
            let fixed = match slot {
                None => Some(gate.matrix_at(offset)),
                Some(_) => None,
            };
            out.push(Op::Gate {
                gate: gate.clone(),
                slot,
                offset,
                targets: reg.indices_of(qs),
                fixed,
            });
        }
        Stmt::Seq(a, b) => {
            set_lower(a, reg, names, out);
            set_lower(b, reg, names, out);
        }
        Stmt::Case { qs, arms } => {
            let meas = Measurement::computational(reg.indices_of(qs));
            let arms = arms
                .iter()
                .map(|arm| {
                    let mut prog = LoweredProgram::default();
                    set_lower(arm, reg, names, &mut prog.ops);
                    prog
                })
                .collect();
            out.push(Op::Case { meas, arms });
        }
        Stmt::While { .. } => {
            // Bounded loops terminate statically: each unfold decrements the
            // bound, so full unrolling at lowering time is finite.
            set_lower(&stmt.unfold_while_once(), reg, names, out);
        }
        Stmt::Sum(..) => panic!("lowering is defined on normal programs; compile first"),
    }
}

impl LoweredProgram {
    /// Total lowered operations, counting nested measurement arms — the
    /// cost weight `qdp_ad::ProgramCache` charges for keeping this
    /// program's share of a skeleton resident.
    pub fn op_weight(&self) -> usize {
        fn count(ops: &[Op]) -> usize {
            ops.iter()
                .map(|op| match op {
                    Op::Case { arms, .. } => {
                        1 + arms.iter().map(|a| count(&a.ops)).sum::<usize>()
                    }
                    _ => 1,
                })
                .sum()
        }
        count(&self.ops)
    }

    /// `Σ_branches ⟨ψb|O|ψb⟩` — the expectation of the program's output.
    ///
    /// Substitutes the valuation and delegates to the **single** per-row
    /// branch enumerator, [`ResolvedProgram::expectation_pure`] (the
    /// resolved matrices carry the identical bits `Gate::matrix_at`
    /// produces, so this equals the pre-resolution executor bit for bit —
    /// there is no second enumeration copy to drift from it).
    pub fn expectation_pure(&self, values: &[f64], psi: &StateVector, obs: &Observable) -> f64 {
        self.resolve(values).expectation_pure(psi, obs)
    }

    /// Substitutes the slot values into the op list: every gate matrix is
    /// built exactly once, so a [`ResolvedProgram`] can be replayed against
    /// arbitrarily many input states with zero trigonometry and zero matrix
    /// allocation per run.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the program's slot table.
    pub fn resolve(&self, values: &[f64]) -> ResolvedProgram<'_> {
        ResolvedProgram {
            ops: self
                .ops
                .iter()
                .map(|op| match op {
                    Op::Abort => ResolvedOp::Abort,
                    Op::Gate {
                        gate,
                        slot,
                        offset,
                        targets,
                        fixed,
                    } => match (slot, fixed) {
                        // Constant-angle gates borrow the matrix built at
                        // lowering time — zero trigonometry, zero allocation
                        // per valuation.
                        (None, Some(matrix)) => ResolvedOp::FixedGate { matrix, targets },
                        _ => {
                            let theta = slot.map_or(0.0, |s| values[s]) + offset;
                            ResolvedOp::Gate {
                                matrix: gate.matrix_at(theta),
                                targets,
                            }
                        }
                    },
                    Op::Init { k0, k1, target } => ResolvedOp::Init {
                        k0,
                        k1,
                        target: *target,
                    },
                    Op::Case { meas, arms } => ResolvedOp::Case {
                        meas,
                        arms: arms.iter().map(|arm| arm.resolve(values)).collect(),
                    },
                })
                .collect(),
        }
    }
}

/// One entry of a [`SharedSweep`]'s per-call matrix table: `gate` at the
/// canonical slot's value plus `offset`, built exactly as
/// [`LoweredProgram::resolve`] builds it.
#[derive(Clone, Debug)]
struct TableEntry {
    gate: Gate,
    slot: Option<usize>,
    offset: f64,
}

/// Every parameter's lowered derivative multiset merged into **one**
/// prefix trie ([`qdp_sim::SweepTrie`]) over canonical parameter slots:
/// what `GradientEngine::gradient_pure_batch` sweeps once per call instead
/// of one sweep per parameter.
///
/// Most derivative programs are the forward program with one rotation
/// swapped for its gadget, so they share every op before it, measurements
/// included. A gate keys on its matrix: a constant gate on the bits built
/// at lowering time, a parameterised gate on its table entry, one per
/// distinct (gate, canonical slot, offset bits). So two programs share a
/// node only where they would run the same op on the same data, and every
/// entry carries the bits of the per-parameter sweep
/// ([`LoweredSet::expectation_batch`], the oracle
/// `Differentiated::derivative_pure_batch` runs).
#[derive(Clone, Debug)]
pub(crate) struct SharedSweep {
    trie: qdp_sim::SweepTrie,
    table: Vec<TableEntry>,
    /// Per parameter, its programs' trie columns, in multiset order.
    spans: Vec<std::ops::Range<usize>>,
    /// Size of the register every multiset was lowered against.
    n_qubits: usize,
}

impl SharedSweep {
    /// Merges the multisets `sets[j] = (lowered, remap)` of parameters
    /// `j = 0, 1, …`, where `remap` maps the multiset's slots to canonical
    /// slots, all lowered against one `n_qubits`-qubit register.
    pub(crate) fn build<'s>(
        n_qubits: usize,
        sets: impl IntoIterator<Item = (&'s LoweredSet, &'s [usize])>,
    ) -> Self {
        let mut table = TableBuilder::default();
        let mut spans = Vec::new();
        let mut next = 0;
        let programs = sets.into_iter().flat_map(|(set, remap)| {
            spans.push(next..next + set.programs.len());
            next += set.programs.len();
            set.programs.iter().map(move |p| (p, remap))
        });
        let trie =
            qdp_sim::SweepTrie::build(programs.map(|(p, remap)| table.trie_ops(&p.ops, remap)));
        SharedSweep {
            trie,
            table: table.entries,
            spans,
            n_qubits,
        }
    }

    /// Ops in the trie: what one shared sweep executes at most, against
    /// the summed [`LoweredProgram::op_weight`] of the separate sweeps.
    pub(crate) fn op_count(&self) -> usize {
        self.trie.op_count()
    }

    /// `out[j][r]`: parameter `j`'s multiset expectation on row `r`, at the
    /// canonical slot values `canonical` — the bits
    /// [`LoweredSet::expectation_batch`] returns for that multiset, per
    /// row summed over its programs in multiset order.
    ///
    /// # Panics
    ///
    /// Panics when the batch register does not match the register the
    /// multisets were lowered against, or a worker tile panicked through
    /// its retries.
    pub(crate) fn expectation_batch(
        &self,
        canonical: &[f64],
        states: BatchedStates,
        obs: &Observable,
    ) -> Vec<Vec<f64>> {
        let rows = states.len();
        if rows > 0 && self.trie.programs() > 0 {
            assert_eq!(
                states.num_qubits(),
                self.n_qubits,
                "batch register size must match the register the set was lowered against"
            );
        }
        let matrices: Vec<Matrix> = self
            .table
            .iter()
            .map(|e| {
                e.gate
                    .matrix_at(e.slot.map_or(0.0, |s| canonical[s]) + e.offset)
            })
            .collect();
        let columns = self.trie.expectation_sweep(&matrices, states, obs);
        self.spans
            .iter()
            .map(|span| {
                let programs = &columns[span.clone()];
                if programs.is_empty() {
                    // An empty multiset denotes the zero map.
                    return vec![0.0; rows];
                }
                (0..rows)
                    .map(|r| programs.iter().map(|column| column[r]).sum())
                    .collect()
            })
            .collect()
    }
}

/// The per-call matrix table of a [`SharedSweep`] under construction,
/// with its entries indexed by canonical slot.
#[derive(Default)]
struct TableBuilder {
    entries: Vec<TableEntry>,
    /// `by_slot[s]`: the entries at canonical slot `s`.
    by_slot: Vec<Vec<usize>>,
}

impl TableBuilder {
    /// A lowered op list as [`qdp_sim::TrieOp`]s borrowing from it:
    /// constant matrices as they are, parameterised ones as their table
    /// entry (added on first use).
    fn trie_ops<'p>(&mut self, ops: &'p [Op], remap: &[usize]) -> Vec<qdp_sim::TrieOp<'p>> {
        use qdp_sim::{TrieMatrix, TrieOp};
        ops.iter()
            .map(|op| match op {
                Op::Abort => TrieOp::Abort,
                Op::Gate {
                    gate,
                    slot,
                    offset,
                    targets,
                    fixed,
                } => TrieOp::Gate {
                    matrix: match (slot, fixed) {
                        (None, Some(matrix)) => TrieMatrix::Fixed(matrix),
                        _ => TrieMatrix::Table(self.entry(gate, slot.map(|s| remap[s]), *offset)),
                    },
                    targets,
                },
                Op::Init { target, .. } => TrieOp::Init { target: *target },
                Op::Case { meas, arms } => TrieOp::Case {
                    meas,
                    arms: arms
                        .iter()
                        .map(|arm| self.trie_ops(&arm.ops, remap))
                        .collect(),
                },
            })
            .collect()
    }

    /// The entry building `gate` at `slot` plus `offset`.
    fn entry(&mut self, gate: &Gate, slot: Option<usize>, offset: f64) -> usize {
        let key = slot.map_or(0, |s| s + 1);
        if self.by_slot.len() <= key {
            self.by_slot.resize(key + 1, Vec::new());
        }
        let entries = &self.entries;
        let same = |&i: &usize| {
            let e = &entries[i];
            e.slot == slot && e.offset.to_bits() == offset.to_bits() && e.gate == *gate
        };
        if let Some(&i) = self.by_slot[key].iter().find(|i| same(i)) {
            return i;
        }
        self.entries.push(TableEntry {
            gate: gate.clone(),
            slot,
            offset,
        });
        self.by_slot[key].push(self.entries.len() - 1);
        self.entries.len() - 1
    }
}

/// The location and recipe of one parameter-dependent matrix inside a
/// [`TrajSkeleton`] template.
#[derive(Clone, Debug)]
struct SlotPatch {
    /// Path into the template: op index, then alternating arm index / op
    /// index through nested `Case`s (the addressing scheme of
    /// [`qdp_sim::TrajProgram::gate_matrix_mut`]).
    path: Vec<usize>,
    gate: Gate,
    slot: usize,
    offset: f64,
}

/// A pre-built [`qdp_sim::TrajProgram`] with **patchable parameter slots**
/// — the per-valuation artifact of the compile-once pipeline.
///
/// Building a trajectory program from scratch per valuation re-clones every
/// constant matrix, re-resolves the read-out, and re-walks the op tree;
/// only the parameterized matrices actually change. A skeleton does that
/// walk once: the template holds every constant matrix, measurement, and
/// arm structure final, with parameterized gates holding a placeholder
/// matrix (their value at slot 0), and [`at`](Self::at) clones the template
/// and overwrites **only** the recorded slot positions via
/// `TrajProgram::gate_matrix_mut`.
///
/// `skeleton.at(&values)` is bit-identical to
/// `program.resolve(&values).to_trajectory()`: both routes build every
/// matrix through the same `Gate::matrix_at` at the same angle, and the op
/// order is the same tree walk.
#[derive(Clone, Debug)]
pub struct TrajSkeleton {
    template: qdp_sim::TrajProgram,
    patches: Vec<SlotPatch>,
}

impl TrajSkeleton {
    /// Substitutes a valuation: clones the template and re-patches only the
    /// parameterized matrices.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the program's slot table.
    pub fn at(&self, values: &[f64]) -> qdp_sim::TrajProgram {
        let mut out = self.template.clone();
        for p in &self.patches {
            *out.gate_matrix_mut(&p.path) = p.gate.matrix_at(values[p.slot] + p.offset);
        }
        out
    }

    /// How many parameterized slots the template re-patches per valuation.
    pub fn patch_count(&self) -> usize {
        self.patches.len()
    }
}

impl LoweredProgram {
    /// Builds the patchable trajectory skeleton of this program (see
    /// [`TrajSkeleton`]). Placeholder matrices for parameterized gates are
    /// built at angle `offset` and are always overwritten by
    /// [`TrajSkeleton::at`].
    pub fn to_skeleton(&self) -> TrajSkeleton {
        let mut patches = Vec::new();
        let mut prefix = Vec::new();
        let template = skeleton_template(&self.ops, &mut prefix, &mut patches);
        TrajSkeleton { template, patches }
    }
}

fn skeleton_template(
    ops: &[Op],
    prefix: &mut Vec<usize>,
    patches: &mut Vec<SlotPatch>,
) -> qdp_sim::TrajProgram {
    let mut out = qdp_sim::TrajProgram::new();
    // Ops map 1:1 onto trajectory ops (`Skip` vanished at lowering time),
    // so the template op index is the lowered op index.
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Abort => out.push_abort(),
            Op::Gate {
                gate,
                slot,
                offset,
                targets,
                fixed,
            } => {
                if let Some(s) = slot {
                    prefix.push(i);
                    patches.push(SlotPatch {
                        path: prefix.clone(),
                        gate: gate.clone(),
                        slot: *s,
                        offset: *offset,
                    });
                    prefix.pop();
                }
                let placeholder = match fixed {
                    Some(m) => m.clone(),
                    None => gate.matrix_at(*offset),
                };
                out.push_gate(placeholder, targets.clone());
            }
            Op::Init { target, .. } => out.push_init(*target),
            Op::Case { meas, arms } => {
                let arm_templates = arms
                    .iter()
                    .enumerate()
                    .map(|(a, arm)| {
                        prefix.push(i);
                        prefix.push(a);
                        let t = skeleton_template(&arm.ops, prefix, patches);
                        prefix.pop();
                        prefix.pop();
                        t
                    })
                    .collect();
                out.push_case(meas.clone(), arm_templates);
            }
        }
    }
    out
}

/// One op of a [`ResolvedProgram`]: like [`Op`] but with the gate matrix
/// already built for a fixed valuation.
#[derive(Clone, Debug)]
enum ResolvedOp<'p> {
    /// `abort`: drop the branch.
    Abort,
    /// A parameterized unitary with its matrix built for this valuation.
    Gate {
        matrix: Matrix,
        targets: &'p [usize],
    },
    /// A constant unitary borrowing the matrix hoisted at lowering time.
    FixedGate {
        matrix: &'p Matrix,
        targets: &'p [usize],
    },
    /// `q := |0⟩`, borrowing the pre-built Kraus pair.
    Init {
        k0: &'p Matrix,
        k1: &'p Matrix,
        target: usize,
    },
    /// A measurement case over pre-built operators and resolved arms.
    Case {
        meas: &'p Measurement,
        arms: Vec<ResolvedProgram<'p>>,
    },
}

/// A [`LoweredProgram`] with a valuation substituted in (see
/// [`LoweredProgram::resolve`]) — the replay artifact of batched
/// evaluation. The executor mirrors [`LoweredProgram::run_from`] op for op:
/// gate matrices carry the identical bits `Gate::matrix_at` produces, so
/// replayed results equal the unresolved executor's bit-for-bit.
#[derive(Clone, Debug)]
pub struct ResolvedProgram<'p> {
    ops: Vec<ResolvedOp<'p>>,
}

impl ResolvedProgram<'_> {
    /// Runs the program from op `start`, appending surviving unnormalised
    /// branches to `out` in the same depth-first order as
    /// `denot::run_pure_branches`.
    ///
    /// This is the **retained per-row branch-enumeration oracle**: the
    /// production batched path runs the branch-weighted sweep on the
    /// trajectory IR instead, and the randomized differential suite
    /// (`crates/core/tests/branch_weighted_differential.rs`) pins the two
    /// against each other at 1e-12.
    fn run_from(&self, start: usize, mut psi: StateVector, out: &mut Vec<StateVector>) {
        for (i, op) in self.ops.iter().enumerate().skip(start) {
            match op {
                ResolvedOp::Abort => return,
                ResolvedOp::Gate { matrix, targets } => {
                    psi.apply_gate(matrix, targets);
                }
                ResolvedOp::FixedGate { matrix, targets } => {
                    psi.apply_gate(matrix, targets);
                }
                ResolvedOp::Init { k0, k1, target } => {
                    let b1 = psi.with_gate(k1, &[*target]);
                    psi.apply_gate(k0, &[*target]);
                    if psi.norm_sqr() > PRUNE {
                        self.run_from(i + 1, psi, out);
                    }
                    if b1.norm_sqr() > PRUNE {
                        self.run_from(i + 1, b1, out);
                    }
                    return;
                }
                ResolvedOp::Case { meas, arms } => {
                    for b in meas.branches_pure(&psi) {
                        if b.probability > PRUNE {
                            let mut mids = Vec::new();
                            arms[b.outcome].run_from(0, b.state, &mut mids);
                            for mid in mids {
                                self.run_from(i + 1, mid, out);
                            }
                        }
                    }
                    return;
                }
            }
        }
        out.push(psi);
    }

    /// `Σ_branches ⟨ψb|O|ψb⟩` — the expectation of the program's output on
    /// one input state, by per-row branch enumeration (the retained
    /// oracle; see [`run_from`](Self::run_from)).
    pub fn expectation_pure(&self, psi: &StateVector, obs: &Observable) -> f64 {
        let mut branches = Vec::new();
        self.run_from(0, psi.clone(), &mut branches);
        branches.iter().map(|b| obs.expectation_pure(b)).sum()
    }

    /// Converts into an owned [`qdp_sim::TrajProgram`] — the **single
    /// lowered branching IR** both execution modes run: sampled trajectory
    /// sweeps ([`ShotEngine::run`]/[`ShotEngine::sample_sweep`]) and the
    /// branch-weighted exact sweep
    /// ([`ShotEngine::expectation_sweep`], the production path of
    /// [`expectation_batch`](Self::expectation_batch) for branching
    /// programs). Every gate matrix and measurement is carried over as-is.
    ///
    /// The only representational change is `q := |0⟩`: the per-row oracle
    /// enumerates both Kraus branches, while the trajectory form measures
    /// the qubit and flips on outcome 1 (`TrajProgram::push_init`) —
    /// exactly what `qdp_ad::estimator::sample_trajectory` does, so engine
    /// trajectories driven by the same streams match it bit for bit (and
    /// the exact sweep's branches agree with the Kraus pair to numerical
    /// precision).
    pub fn to_trajectory(&self) -> qdp_sim::TrajProgram {
        let mut out = qdp_sim::TrajProgram::new();
        for op in &self.ops {
            match op {
                ResolvedOp::Abort => out.push_abort(),
                ResolvedOp::Gate { matrix, targets } => {
                    out.push_gate(matrix.clone(), targets.to_vec());
                }
                ResolvedOp::FixedGate { matrix, targets } => {
                    out.push_gate((*matrix).clone(), targets.to_vec());
                }
                ResolvedOp::Init { target, .. } => out.push_init(*target),
                ResolvedOp::Case { meas, arms } => out.push_case(
                    (*meas).clone(),
                    arms.iter().map(ResolvedProgram::to_trajectory).collect(),
                ),
            }
        }
        out
    }

    /// The expectation of the program's output on **every** row of a batch,
    /// in row order.
    ///
    /// Straight-line programs (gates only — every compiled derivative of a
    /// control-free circuit, and the hot path of training) have exactly one
    /// branch per row, so the whole batch is evolved together, with two
    /// amortisations on top of the shared gate matrices:
    ///
    /// * **fusion** — single-qubit gates on *distinct* qubits commute, so
    ///   each qubit accumulates the 2×2 product of its pending rotations
    ///   and is flushed only when a multi-qubit gate touches it (or at the
    ///   end). A 25-gate derivative program collapses to a handful of
    ///   kernel sweeps;
    /// * **streaming** — each surviving operator goes through **one**
    ///   [`BatchedStates::apply_gate`] call that evolves all rows at once.
    ///
    /// Programs with `Init`/`Case`/`Abort` branch points — the
    /// measurement-controlled programs the code transformation produces —
    /// convert to the trajectory IR ([`to_trajectory`](Self::to_trajectory))
    /// and run the **branch-weighted exact sweep**
    /// ([`ShotEngine::expectation_sweep`]): all rows measured at once, the
    /// block forked into outcome-homogeneous weighted sub-batches that
    /// keep streaming batched (fused) kernel calls, leaf read-outs summed
    /// per row. Both paths share one IR with sampled execution; neither
    /// decays to per-row evaluation.
    ///
    /// Fusion and leaf-summation order reorder rounding, so batched
    /// results agree with the per-row oracle
    /// ([`expectation_pure`](Self::expectation_pure)) to numerical
    /// precision (≪ 1e-12) rather than bit-for-bit; the batched path
    /// itself is fully deterministic — identical bits for any thread
    /// count and any batch decomposition.
    pub fn expectation_batch(&self, states: &BatchedStates, obs: &Observable) -> Vec<f64> {
        let straight_line = self
            .ops
            .iter()
            .all(|op| matches!(op, ResolvedOp::Gate { .. } | ResolvedOp::FixedGate { .. }));
        if !straight_line {
            return ShotEngine::new(self.to_trajectory()).expectation_sweep(states.clone(), obs);
        }
        let n = states.num_qubits();
        let mut work = states.clone();
        // Per-qubit pending product of not-yet-applied single-qubit gates;
        // `pending[q] = g_k · … · g_1` in program order.
        let mut pending: Vec<Option<Matrix>> = vec![None; n];
        for op in &self.ops {
            let (matrix, targets): (&Matrix, &[usize]) = match op {
                ResolvedOp::Gate { matrix, targets } => (matrix, targets),
                ResolvedOp::FixedGate { matrix, targets } => (matrix, targets),
                _ => unreachable!("straight-line programs contain only gates"),
            };
            if let [t] = targets[..] {
                pending[t] = Some(match pending[t].take() {
                    None => matrix.clone(),
                    Some(prev) => matrix.mul(&prev),
                });
            } else {
                // A multi-qubit gate orders against the pending rotations
                // of its own targets: flush those (ascending qubit order,
                // deterministically), then apply the gate itself. Keeping
                // the flushes as separate 1q passes preserves the gate's
                // own kernel fast path (the gadget's controlled rotations
                // are block-diagonal; absorbing the flushed products into
                // the 4×4 would densify it and cost more than it saves).
                let mut ts: Vec<usize> = targets.to_vec();
                ts.sort_unstable();
                for t in ts {
                    if let Some(m) = pending[t].take() {
                        work.apply_gate(&m, &[t]);
                    }
                }
                work.apply_gate(matrix, targets);
            }
        }
        for (t, slot) in pending.iter_mut().enumerate() {
            if let Some(m) = slot.take() {
                work.apply_gate(&m, &[t]);
            }
        }
        work.expectations(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::{denot, parse_program};

    fn check_agreement(src: &str, values: &[(&str, f64)]) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let params = Params::from_pairs(values.iter().map(|&(k, v)| (k, v)));
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let slots = set.slot_values(&params);
        let psi = StateVector::zero_state(reg.len());
        let obs = Observable::pauli_z(reg.len(), 0);

        let lowered = set.programs()[0].expectation_pure(&slots, &psi, &obs);
        let interpreted = denot::expectation_pure(&p, &reg, &params, &psi, &obs);
        assert!(
            (lowered - interpreted).abs() < 1e-14,
            "{src}: lowered {lowered} vs interpreted {interpreted}"
        );
    }

    #[test]
    fn straight_line_program_agrees_with_interpreter() {
        check_agreement("q1 *= RX(a); q1 *= RY(b); q1 *= RZ(a + pi/2); q1 *= H", &[
            ("a", 0.4),
            ("b", -1.2),
        ]);
    }

    #[test]
    fn branching_programs_agree_with_interpreter() {
        check_agreement(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0>; q1, q2 *= RZZ(a) end",
            &[("a", 0.8), ("b", 0.3)],
        );
        check_agreement(
            "q1 *= RY(a); while[2] M[q1] = 1 do q1 *= RY(b) done",
            &[("a", 1.9), ("b", 0.7)],
        );
        check_agreement("q1 *= H; abort[q1]", &[]);
    }

    #[test]
    fn resolved_executor_matches_unresolved_bitwise() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0> end; q1, q2 *= RZZ(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.9), ("b", -0.4)]));
        let psi = StateVector::basis_state(reg.len(), 1);
        let obs = Observable::pauli_z(reg.len(), 1);
        let unresolved = set.programs()[0].expectation_pure(&values, &psi, &obs);
        let resolved = set.programs()[0].resolve(&values).expectation_pure(&psi, &obs);
        assert_eq!(unresolved.to_bits(), resolved.to_bits());
    }

    #[test]
    fn branching_expectation_batch_matches_per_row_oracle() {
        // Branching programs (the `while` forces branch points) run the
        // branch-weighted sweep; the retained per-row oracle pins it at
        // 1e-12 (leaf-summation order and the measure+flip form of `init`
        // move rounding; the randomized suite in
        // `branch_weighted_differential.rs` covers the full space).
        let p = parse_program(
            "q1 *= RY(a); while[2] M[q1] = 1 do q1 *= RY(b) done; q2 *= RX(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 1.2), ("b", 0.5)]));
        let obs = Observable::pauli_z(reg.len(), 0);
        let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(reg.len(), k)).collect();
        let batch = qdp_sim::BatchedStates::from_states(&rows);
        let batched = set.expectation_batch(&values, &batch, &obs);
        for (r, psi) in rows.iter().enumerate() {
            let serial: f64 = set
                .programs()
                .iter()
                .map(|prog| prog.expectation_pure(&values, psi, &obs))
                .sum();
            assert!(
                (batched[r] - serial).abs() < 1e-12,
                "row {r}: batched {} vs per-row {serial}",
                batched[r]
            );
        }
    }

    #[test]
    fn branching_expectation_batch_is_invariant_under_batch_composition() {
        // Per-row results of the branch-weighted sweep carry identical
        // bits whether a row runs alone or inside any batch.
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 := |0> end; q1, q2 *= RZZ(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.9), ("b", -0.4)]));
        let obs = Observable::pauli_z(reg.len(), 1);
        let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(reg.len(), k)).collect();
        let batch = qdp_sim::BatchedStates::from_states(&rows);
        let together = set.expectation_batch(&values, &batch, &obs);
        for (r, psi) in rows.iter().enumerate() {
            let alone = set.expectation_batch(
                &values,
                &qdp_sim::BatchedStates::from_states(std::slice::from_ref(psi)),
                &obs,
            )[0];
            assert_eq!(together[r].to_bits(), alone.to_bits(), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "lowered against")]
    fn mismatched_batch_register_panics() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.1)]));
        // 3-qubit rows against a 1-qubit lowering must be rejected loudly.
        let batch = qdp_sim::BatchedStates::zero(2, 3);
        let _ = set.expectation_batch(&values, &batch, &Observable::pauli_z(3, 0));
    }

    #[test]
    fn expectation_batch_of_empty_batch_and_empty_set() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let values = set.slot_values(&Params::from_pairs([("a", 0.1)]));
        let obs = Observable::pauli_z(1, 0);
        let empty = qdp_sim::BatchedStates::from_states(&[]);
        assert!(set.expectation_batch(&values, &empty, &obs).is_empty());

        let none = LoweredSet::default();
        let batch = qdp_sim::BatchedStates::zero(3, 1);
        assert_eq!(none.expectation_batch(&[], &batch, &obs), vec![0.0; 3]);
    }

    #[test]
    fn slots_are_shared_and_deduplicated() {
        let p = parse_program("q1 *= RX(a); q1 *= RY(a); q1 *= RZ(b)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        assert_eq!(set.param_names.len(), 2);
    }

    #[test]
    #[should_panic(expected = "has no value")]
    fn missing_parameter_panics_like_the_interpreter() {
        let p = parse_program("q1 *= RX(a)").unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let _ = set.slot_values(&Params::new());
    }
}
