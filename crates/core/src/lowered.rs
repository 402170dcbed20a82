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
//! dataset, a coalesced service batch) repeats yet more
//! parameter-independent work: every gate matrix `Rσ(θ)` depends only on
//! the valuation, not the state. A [`LoweredSet`] therefore builds its
//! programs once, on first use, as [`qdp_sim::TrajProgram`]s whose
//! parameterised gates name entries of one per-call matrix table (an
//! entry per distinct gate, slot and offset, built exactly as
//! [`LoweredProgram::resolve`] builds it). Every sweep runs on that one
//! form, bound to the table of its call's valuation:
//!
//! * [`LoweredSet::expectation_batch`] runs each program as a
//!   branch-weighted exact sweep
//!   ([`qdp_sim::ShotEngine::expectation_sweep`]): all rows measured at
//!   once, the block forked into outcome-homogeneous sub-batches carrying
//!   branch weights, leaf read-outs summed per row, the programs summed
//!   per row in multiset order. It serves forward values, the shift
//!   rule's `2P` valuations, and, on each parameter's derivative
//!   multiset, the named oracle of exact gradients. It runs
//!   unmonitored: no health checks (no NaN/Inf or norm-drift detection)
//!   and no mass budget.
//! * [`LoweredSet::gradient_batch`] differentiates the programs by the
//!   adjoint method ([`qdp_sim::AdjointProgram`]): one forward and one
//!   backward sweep per branch give every slot's derivative. On the
//!   forward program this is the production exact gradient
//!   (`GradientEngine::gradient_pure_batch`,
//!   `Differentiated::derivative_pure_batch`): by Theorem 6.2 it equals
//!   sweeping each parameter's derivative multiset, without an ancilla.
//! * [`LoweredSet::shot_engines`] binds the programs for the sampled
//!   sweeps of the shot-noise estimators.
//!
//! The exact sweep has two oracles. Each program's own sweep on its
//! [`ResolvedProgram::to_trajectory`], summed in multiset order, carries
//! the same bits (the table gates read matrices built by the same
//! `Gate::matrix_at` at the same angles). [`ResolvedProgram::expectation_pure`],
//! the per-row branch enumerator, agrees to ≪ 1e-12 (fusion and
//! leaf-summation order move rounding, nothing else). The adjoint agrees
//! with each parameter's multiset swept this way within 1e-12. Both
//! sweeps give bit-for-bit the same results under any thread count and
//! batch composition.

use qdp_lang::ast::{Gate, Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::Matrix;
use qdp_sim::{
    AdjointProgram, BatchedStates, Measurement, Observable, ShotEngine, StateVector, TrajProgram,
};
use std::sync::{Arc, OnceLock};

/// Branches below this squared norm are pruned (matches `denot` and the
/// branch-weighted batched executor).
const PRUNE: f64 = qdp_sim::BRANCH_PRUNE;

thread_local! {
    static LOWER_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times [`LoweredSet::lower`] has run **on this thread** — the
/// probe behind the compile-once contract. An interned skeleton lowers on
/// the thread of its first `CompiledSkeleton::lowered` call (inside its
/// `OnceLock` initializer), so a test thread's delta across a region
/// counts exactly the compilations that region triggered, race-free under
/// the parallel test harness.
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
        /// built per valuation, by [`LoweredProgram::resolve`] or into the
        /// table a sweep binds, so a warm call builds only those.
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

/// A lowered normal program: a flat sequence of ops.
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
    /// The programs in table form with the recipe of each table entry:
    /// the one form every sweep of the set runs. Built on the first
    /// sweep, never at lowering.
    table_form: OnceLock<TableForm>,
    /// The table form as one adjoint program, the sweep behind
    /// [`gradient_batch`](Self::gradient_batch). Built on the first
    /// gradient.
    adjoint: OnceLock<AdjointProgram>,
}

/// A [`LoweredSet`]'s programs as [`TrajProgram`]s whose parameterised
/// gates name entries of one table, and the recipe of every entry.
#[derive(Clone, Debug)]
struct TableForm {
    programs: Vec<Arc<TrajProgram>>,
    entries: Vec<TableEntry>,
}

impl TableForm {
    /// The table of the valuation `values`, one matrix per entry.
    fn table(&self, values: &[f64]) -> Arc<[Matrix]> {
        self.entries.iter().map(|e| e.matrix(values)).collect()
    }
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

    /// The lowered programs, in multiset order.
    pub fn programs(&self) -> &[LoweredProgram] {
        &self.programs
    }

    /// Evaluates the whole multiset against **every** row of a batch:
    /// returns `out[r] = Σᵢ ⟨ψ·|O|ψ·⟩` over the branches of program `i` run
    /// on input row `r`.
    ///
    /// Each program runs as one branch-weighted exact sweep
    /// ([`ShotEngine::expectation_sweep`]) over the whole batch, bound to
    /// one table of the call's parameterised matrices (see
    /// [`shot_engines`](Self::shot_engines)), and the per-program columns
    /// sum per row in multiset order. The sweeps run unmonitored: no
    /// health checks and no mass budget. The result is bit-for-bit the
    /// same under any thread count and batch composition, and equal to
    /// summing each program's own sweep on its
    /// [`ResolvedProgram::to_trajectory`] (the bitwise oracle); against
    /// the per-row oracle ([`ResolvedProgram::expectation_pure`]) it
    /// agrees to ≪ 1e-12.
    ///
    /// # Panics
    ///
    /// Panics when the batch register does not match the register the set
    /// was lowered against, when `values` is shorter than the slot table,
    /// or with the [`qdp_sim::QdpError::WorkerPanic`] message when a row
    /// tile panicked through its bounded bit-identical retries.
    pub fn expectation_batch(
        &self,
        values: &[f64],
        states: &BatchedStates,
        obs: &Observable,
    ) -> Vec<f64> {
        self.check_register(states);
        let columns: Vec<Vec<f64>> = self
            .shot_engines(values)
            .map(|engine| {
                engine
                    .expectation_sweep(states.clone(), obs)
                    .unwrap_or_else(|e| panic!("{e}"))
            })
            .collect();
        if columns.is_empty() {
            // An empty multiset denotes the zero map.
            return vec![0.0; states.len()];
        }
        (0..states.len())
            .map(|r| columns.iter().map(|column| column[r]).sum())
            .collect()
    }

    /// `out[s][r]`: the derivative of
    /// [`expectation_batch`](Self::expectation_batch)'s entry `r` with
    /// respect to slot `s`, for every slot, by one adjoint sweep
    /// ([`qdp_sim::AdjointProgram::gradient_sweep`]): each program forward
    /// and backward over its branch tree on the batch's own `2ⁿ`
    /// amplitudes, the programs' gradients summed in multiset order. By
    /// Theorem 6.2 slot `s`'s entries agree with the parameter's
    /// derivative multiset swept on `|0⟩⊗ψ` with `Z_A⊗O` to ≪ 1e-12, and
    /// every entry is bit-for-bit the same under any thread count and
    /// batch composition. Like the exact sweeps, it runs unmonitored.
    ///
    /// # Panics
    ///
    /// Panics when the batch register does not match the register the set
    /// was lowered against, or when `values` is shorter than the slot table.
    pub fn gradient_batch(
        &self,
        values: &[f64],
        states: &BatchedStates,
        obs: &Observable,
    ) -> Vec<Vec<f64>> {
        let form = self.table_form();
        let adjoint = self
            .adjoint
            .get_or_init(|| AdjointProgram::build(form.programs.iter().map(|p| &**p)));
        self.check_register(states);
        let gates: Vec<qdp_sim::ParamGate> = form
            .entries
            .iter()
            .map(|e| qdp_sim::ParamGate {
                matrix: e.matrix(values),
                shifted: e.gate.matrix_at(e.angle(values) + std::f64::consts::PI),
                column: e.slot,
            })
            .collect();
        adjoint.gradient_sweep(&gates, self.param_names.len(), states.clone(), obs)
    }

    /// One [`ShotEngine`] per program, in multiset order, every one bound
    /// to one table of the parameterised matrices at the slot values
    /// `values`: what the sampled and exact sweeps run. Each program is
    /// built once per set, on the first call, and shared by every engine
    /// since; a call builds the table and copies no program. The table's
    /// matrices carry the bits [`LoweredProgram::resolve`] builds, so each
    /// engine runs bit for bit as one on
    /// [`ResolvedProgram::to_trajectory`] does.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the slot table.
    pub fn shot_engines(&self, values: &[f64]) -> impl ExactSizeIterator<Item = ShotEngine> + '_ {
        let form = self.table_form();
        let table = form.table(values);
        form.programs
            .iter()
            .map(move |p| ShotEngine::bound(Arc::clone(p), Arc::clone(&table)))
    }

    fn table_form(&self) -> &TableForm {
        self.table_form.get_or_init(|| {
            let mut table = TableBuilder::default();
            let programs = self
                .programs
                .iter()
                .map(|p| Arc::new(table.trajectory(&p.ops)))
                .collect();
            TableForm {
                programs,
                entries: table.entries,
            }
        })
    }

    /// Panics unless a non-empty batch matches the register of a
    /// non-empty set.
    fn check_register(&self, states: &BatchedStates) {
        if !states.is_empty() && !self.programs.is_empty() {
            assert_eq!(
                states.num_qubits(),
                self.n_qubits,
                "batch register size must match the register the set was lowered against"
            );
        }
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

/// What [`LoweredSet::lower`] makes of `stmt`, counted without building
/// it: the lowered ops, nested arms included
/// ([`LoweredProgram::op_weight`]), plus one per parameterised gate, whose
/// table entry a sweep binds per call. The program cache charges it as an
/// entry's cost weight.
///
/// # Panics
///
/// Panics on an additive program, as lowering does.
pub(crate) fn weight(stmt: &Stmt) -> usize {
    match stmt {
        Stmt::Skip { .. } => 0,
        Stmt::Abort { .. } | Stmt::Init { .. } => 1,
        Stmt::Unitary { gate, .. } => {
            1 + usize::from(gate.angle().is_some_and(|a| a.param.is_some()))
        }
        Stmt::Seq(a, b) => weight(a) + weight(b),
        Stmt::Case { arms, .. } => 1 + arms.iter().map(weight).sum::<usize>(),
        Stmt::While { .. } => weight(&stmt.unfold_while_once()),
        Stmt::Sum(..) => panic!("lowering is defined on normal programs; compile first"),
    }
}

/// `gate` without its angle's parameter name: once lowered, the slot names
/// the parameter, and a copy of the name in every op would only take
/// memory.
fn unnamed(gate: &Gate) -> Gate {
    let mut gate = gate.clone();
    if let Gate::Rot { angle, .. }
    | Gate::Coupling { angle, .. }
    | Gate::CRot { angle, .. }
    | Gate::CCoupling { angle, .. } = &mut gate
    {
        angle.param = None;
    }
    gate
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
                gate: unnamed(gate),
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

/// One entry of the per-call matrix table of a [`LoweredSet`]'s sweeps:
/// `gate` at slot `slot`'s value plus `offset`, built exactly as
/// [`LoweredProgram::resolve`] builds it.
#[derive(Clone, Debug)]
struct TableEntry {
    gate: Gate,
    slot: usize,
    offset: f64,
}

impl TableEntry {
    fn angle(&self, values: &[f64]) -> f64 {
        values[self.slot] + self.offset
    }

    fn matrix(&self, values: &[f64]) -> Matrix {
        self.gate.matrix_at(self.angle(values))
    }
}

/// The per-call matrix table under construction, with its entries indexed
/// by slot: one entry per distinct (gate, slot, offset bits), shared by
/// every program of the set.
#[derive(Default)]
struct TableBuilder {
    entries: Vec<TableEntry>,
    /// `by_slot[s]`: the entries at slot `s`.
    by_slot: Vec<Vec<usize>>,
}

impl TableBuilder {
    /// A lowered op list as a [`TrajProgram`]: constant matrices copied
    /// as they are, parameterised ones as a gate naming their table entry
    /// (added on first use).
    fn trajectory(&mut self, ops: &[Op]) -> TrajProgram {
        let mut out = TrajProgram::new();
        for op in ops {
            match op {
                Op::Abort => out.push_abort(),
                Op::Gate {
                    gate,
                    slot,
                    offset,
                    targets,
                    fixed,
                } => match (slot, fixed) {
                    (Some(s), _) => {
                        out.push_table_gate(self.entry(gate, *s, *offset), targets.clone())
                    }
                    (None, Some(matrix)) => out.push_gate(matrix.clone(), targets.clone()),
                    (None, None) => unreachable!("constant gates are built at lowering"),
                },
                Op::Init { target, .. } => out.push_init(*target),
                Op::Case { meas, arms } => out.push_case(
                    meas.clone(),
                    arms.iter().map(|arm| self.trajectory(&arm.ops)).collect(),
                ),
            }
        }
        out
    }

    /// The entry building `gate` at `slot` plus `offset`.
    fn entry(&mut self, gate: &Gate, slot: usize, offset: f64) -> usize {
        if self.by_slot.len() <= slot {
            self.by_slot.resize(slot + 1, Vec::new());
        }
        let entries = &self.entries;
        let same = |&i: &usize| {
            let e = &entries[i];
            e.offset.to_bits() == offset.to_bits() && e.gate == *gate
        };
        if let Some(&i) = self.by_slot[slot].iter().find(|i| same(i)) {
            return i;
        }
        self.entries.push(TableEntry {
            gate: gate.clone(),
            slot,
            offset,
        });
        self.by_slot[slot].push(self.entries.len() - 1);
        self.entries.len() - 1
    }
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
/// [`LoweredProgram::resolve`]): the per-row oracle
/// ([`expectation_pure`](Self::expectation_pure)) and the source of the
/// trajectory IR ([`to_trajectory`](Self::to_trajectory)). Gate matrices
/// carry the identical bits `Gate::matrix_at` produces, so replayed
/// results equal the unresolved executor's bit-for-bit.
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
    /// production batched path runs the branch-weighted sweep instead, and the
    /// randomized differential suite
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
    /// oracle; see `run_from`).
    pub fn expectation_pure(&self, psi: &StateVector, obs: &Observable) -> f64 {
        let mut branches = Vec::new();
        self.run_from(0, psi.clone(), &mut branches);
        branches.iter().map(|b| obs.expectation_pure(b)).sum()
    }

    /// Converts into an owned [`qdp_sim::TrajProgram`], the branching IR
    /// the shot engine runs, with every gate matrix its own. Every gate
    /// matrix and measurement is carried over as-is.
    /// [`qdp_sim::ShotEngine::expectation_sweep`] on it, summed over a
    /// multiset's programs in order, is the bitwise oracle of
    /// [`LoweredSet::expectation_batch`], and its sampled sweeps are the
    /// bitwise oracle of the engines [`LoweredSet::shot_engines`] binds.
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

        // Every branch aborting (no leaf), and a read-out of exactly zero
        // (`Z` on `H|0⟩`) beside it: each row reads `+0.0`, the bits of
        // the oracle, which adds every leaf to `0.0`.
        let compiled = [
            parse_program("q1 *= RX(a); abort[q1]").unwrap(),
            parse_program("q1 *= H").unwrap(),
        ];
        let reg = Register::from_program(&compiled[1]);
        let batch = qdp_sim::BatchedStates::zero(2, 1);
        for programs in [&compiled[..1], &compiled[..]] {
            let set = LoweredSet::lower(programs, &reg);
            let values = set.slot_values(&Params::from_pairs([("a", 0.1)]));
            for v in set.expectation_batch(&values, &batch, &obs) {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{} programs", programs.len());
            }
        }
    }

    #[test]
    fn adjoint_program_is_built_on_the_first_gradient() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end; q2 *= RY(b)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        assert!(
            set.table_form.get().is_none() && set.adjoint.get().is_none(),
            "lowering must build no sweep"
        );
        let values = set.slot_values(&Params::from_pairs([("a", 0.5), ("b", 1.4)]));
        let obs = Observable::pauli_z(2, 1);
        let batch = qdp_sim::BatchedStates::from_states(&[StateVector::zero_state(2)]);
        let first = set.gradient_batch(&values, &batch, &obs);
        let built: *const AdjointProgram = set.adjoint.get().expect("built by the first call");
        let program: *const TrajProgram =
            &*set.table_form.get().expect("built with it").programs[0];
        let second = set.gradient_batch(&values, &batch, &obs);
        set.expectation_batch(&values, &batch, &obs);
        assert!(
            std::ptr::eq(built, set.adjoint.get().unwrap())
                && std::ptr::eq(program, &*set.table_form.get().unwrap().programs[0]),
            "later calls reuse the programs the first call built"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn weight_counts_what_lowering_builds() {
        fn param_gates(ops: &[Op]) -> usize {
            ops.iter()
                .map(|op| match op {
                    Op::Case { arms, .. } => arms.iter().map(|a| param_gates(&a.ops)).sum(),
                    Op::Gate { slot: Some(_), .. } => 1,
                    _ => 0,
                })
                .sum()
        }
        for src in [
            "q1 *= RX(a); q1 *= H; q1, q2 *= RZZ(b + pi)",
            "q1 *= RY(a); while[3] M[q1] = 1 do q1 *= RY(b); q2 := |0> done; skip[q2]",
            "case M[q1, q2] = 0 -> abort[q1], 1 -> q1 *= RX(0.3), 2 -> skip[q1], 3 -> q2 *= RY(a) end",
        ] {
            let p = parse_program(src).unwrap();
            let set = LoweredSet::lower(std::slice::from_ref(&p), &Register::from_program(&p));
            let program = &set.programs()[0];
            assert_eq!(weight(&p), program.op_weight() + param_gates(&program.ops), "{src}");
        }
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
