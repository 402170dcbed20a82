//! Lowered execution of compiled derivative programs.
//!
//! [`crate::Differentiated`] evaluates the same compiled multiset `{P′i}` at
//! every gradient step; interpreting the AST each time re-resolves variable
//! names against the register, re-builds measurement operators and constant
//! matrices, and re-unfolds bounded loops — all parameter-independent work.
//! [`LoweredSet::lower`] hoists it: one walk over each program's AST builds
//! the program **once**, straight into the form every sweep runs, a
//! [`qdp_sim::TrajProgram`], with
//!
//! * qubit indices resolved (no per-gate register lookups or `Vec` allocs),
//! * every constant gate's matrix built once, at lowering: constant
//!   rotations, the Hadamards and controlled shifts of the differentiation
//!   gadget, every Clifford,
//! * every parameterised gate naming an entry of one per-call matrix table
//!   shared by the set's programs: an entry per distinct gate, parameter
//!   slot and angle offset, parameter names interned into **slots** (one
//!   valuation lookup per parameter per call instead of one per gate),
//! * `case` measurements pre-built, and `q := |0⟩` as a measurement of the
//!   qubit and a flip on outcome 1,
//! * bounded `while` loops statically unfolded into nested cases.
//!
//! Slots and table entries are numbered by first occurrence in the walk,
//! the programs in multiset order.
//!
//! # Batched evaluation
//!
//! Evaluating the same multiset against **many** input states (a training
//! dataset, a coalesced service batch) repeats yet more
//! parameter-independent work: every gate matrix `Rσ(θ)` depends only on
//! the valuation, not the state. Every sweep therefore binds the set's
//! programs to one table of its call's matrices, and every sweep is the
//! one branch walker of `qdp_sim` with its own fork rule and action:
//!
//! * [`LoweredSet::expectation_batch`] runs each program as a
//!   branch-weighted exact sweep
//!   ([`qdp_sim::ShotEngine::expectation_sweep`]): all rows measured at
//!   once, the block forked into outcome-homogeneous sub-batches carrying
//!   branch weights, leaf read-outs summed per row, the programs summed
//!   per row in multiset order. It serves forward values, the shift
//!   rule's `2P` valuations, and, on each parameter's derivative
//!   multiset, the named oracle of exact gradients. It runs
//!   unmonitored: no health checks (no NaN/Inf or norm-drift detection).
//! * [`LoweredSet::gradient_batch`] differentiates the programs by the
//!   adjoint method ([`qdp_sim::AdjointProgram`], built on the first
//!   gradient from the same shared programs, not from copies): one
//!   forward and one backward sweep per branch give every slot's
//!   derivative. On the
//!   forward program this is the production exact gradient
//!   (`GradientEngine::gradient_pure_batch`,
//!   `Differentiated::derivative_pure_batch`): by Theorem 6.2 it equals
//!   sweeping each parameter's derivative multiset, without an ancilla.
//! * [`LoweredSet::shot_engines`] binds the programs for the sampled
//!   sweeps of the shot-noise estimators.
//!
//! The exact sweep's oracle is the AST itself: each program built
//! straight from it at the valuation, every gate its own `Gate::matrix`,
//! and swept on its own carries the same bits (the table's matrices are
//! built by the same `Gate::matrix_at` at the same angles), and the AST
//! interpreter (`qdp_lang::denot::expectation_pure`) agrees to ≪ 1e-12
//! (fusion, leaf-summation order and the measured form of `q := |0⟩` move
//! rounding, nothing else). The adjoint agrees with each parameter's
//! multiset swept this way within 1e-12. Both sweeps give bit-for-bit the
//! same results under any thread count and batch composition.

use qdp_lang::ast::{Angle, Gate, Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::Matrix;
use qdp_sim::{AdjointProgram, BatchedStates, Measurement, Observable, ShotEngine, TrajProgram};
use std::sync::{Arc, OnceLock};

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

/// One lowered normal program: a handle to the [`TrajProgram`] its set
/// built, shared by every sweep of the set and by its adjoint program.
#[derive(Clone, Debug)]
pub struct LoweredProgram {
    program: Arc<TrajProgram>,
}

/// A compiled multiset lowered against one register, with a shared
/// parameter-slot table and a shared per-call matrix table.
#[derive(Clone, Debug, Default)]
pub struct LoweredSet {
    programs: Vec<LoweredProgram>,
    /// Interned parameter names; slot `i` of a run valuation holds the value
    /// of `param_names[i]`.
    param_names: Vec<String>,
    /// The recipe of every entry of the per-call matrix table the
    /// programs' parameterised gates name.
    entries: Vec<TableEntry>,
    /// Size of the register the set was lowered against — input states
    /// must match it.
    n_qubits: usize,
    /// The programs as one adjoint program, the sweep behind
    /// [`gradient_batch`](Self::gradient_batch), sharing the set's
    /// programs. Built on the first gradient.
    adjoint: OnceLock<AdjointProgram>,
}

impl LoweredSet {
    /// Lowers every program of a compiled multiset, each in one walk over
    /// its AST.
    ///
    /// # Panics
    ///
    /// Panics when a program is additive or uses a variable outside `reg`.
    pub fn lower(compiled: &[Stmt], reg: &Register) -> Self {
        LOWER_CALLS.with(|c| c.set(c.get() + 1));
        let mut lowering = Lowering {
            reg,
            param_names: Vec::new(),
            entries: Vec::new(),
            by_slot: Vec::new(),
        };
        let programs = compiled
            .iter()
            .map(|p| LoweredProgram {
                program: Arc::new(lowering.program(p)),
            })
            .collect();
        LoweredSet {
            programs,
            param_names: lowering.param_names,
            entries: lowering.entries,
            n_qubits: reg.len(),
            adjoint: OnceLock::new(),
        }
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
    /// health checks. The result is bit-for-bit the same under any thread
    /// count and batch composition, and equal to summing each program's
    /// own sweep on the program built straight from its AST at the
    /// valuation (the bitwise oracle); against the AST interpreter
    /// (`qdp_lang::denot::expectation_pure`) it agrees to ≪ 1e-12.
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
        let adjoint = self.adjoint.get_or_init(|| {
            AdjointProgram::build(self.programs.iter().map(|p| Arc::clone(&p.program)))
        });
        self.check_register(states);
        let gates: Vec<qdp_sim::ParamGate> = self
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
    /// `values`: what the sampled and exact sweeps run. The engines share
    /// the set's programs; a call builds the table and copies no program.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the slot table.
    pub fn shot_engines(&self, values: &[f64]) -> impl ExactSizeIterator<Item = ShotEngine> + '_ {
        let table: Arc<[Matrix]> = self.entries.iter().map(|e| e.matrix(values)).collect();
        self.programs
            .iter()
            .map(move |p| ShotEngine::bound(Arc::clone(&p.program), Arc::clone(&table)))
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

impl LoweredProgram {
    /// Total lowered operations, counting nested measurement arms — the
    /// cost weight `qdp_ad::ProgramCache` charges for keeping this
    /// program's share of a skeleton resident.
    pub fn op_weight(&self) -> usize {
        self.program.op_count()
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

/// One entry of the per-call matrix table of a [`LoweredSet`]'s sweeps:
/// `gate` at slot `slot`'s value plus `offset`.
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

/// A set's lowering in progress: the register, and the slots and table
/// entries interned so far, shared by every program of the set.
struct Lowering<'r> {
    reg: &'r Register,
    param_names: Vec<String>,
    entries: Vec<TableEntry>,
    /// `by_slot[s]`: the entries at slot `s`.
    by_slot: Vec<Vec<usize>>,
}

impl Lowering<'_> {
    fn program(&mut self, stmt: &Stmt) -> TrajProgram {
        let mut out = TrajProgram::new();
        self.lower(stmt, &mut out);
        out
    }

    fn lower(&mut self, stmt: &Stmt, out: &mut TrajProgram) {
        match stmt {
            Stmt::Skip { .. } => {}
            Stmt::Abort { .. } => out.push_abort(),
            Stmt::Init { q } => out.push_init(self.reg.indices_of(std::slice::from_ref(q))[0]),
            Stmt::Unitary { gate, qs } => {
                let targets = self.reg.indices_of(qs);
                match gate.angle() {
                    Some(Angle { param: Some(name), offset }) => {
                        let slot = self.slot(name);
                        let entry = self.entry(unnamed(gate), slot, *offset);
                        out.push_table_gate(entry, targets);
                    }
                    // A parameter-independent matrix is built here, once
                    // per lowering.
                    angle => out.push_gate(gate.matrix_at(angle.map_or(0.0, |a| a.offset)), targets),
                }
            }
            Stmt::Seq(a, b) => {
                self.lower(a, out);
                self.lower(b, out);
            }
            Stmt::Case { qs, arms } => {
                let meas = Measurement::computational(self.reg.indices_of(qs));
                let arms = arms.iter().map(|arm| self.program(arm)).collect();
                out.push_case(meas, arms);
            }
            // Bounded loops terminate statically: each unfold decrements
            // the bound, so full unrolling at lowering time is finite.
            Stmt::While { .. } => self.lower(&stmt.unfold_while_once(), out),
            Stmt::Sum(..) => panic!("lowering is defined on normal programs; compile first"),
        }
    }

    /// The slot of parameter `name`, interned on first use.
    fn slot(&mut self, name: &str) -> usize {
        match self.param_names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.param_names.push(name.to_string());
                self.param_names.len() - 1
            }
        }
    }

    /// The entry building `gate` at `slot` plus `offset`, interned on
    /// first use: one per distinct (gate, slot, offset bits).
    fn entry(&mut self, gate: Gate, slot: usize, offset: f64) -> usize {
        if self.by_slot.len() <= slot {
            self.by_slot.resize(slot + 1, Vec::new());
        }
        let entries = &self.entries;
        let same = |&i: &usize| {
            let e = &entries[i];
            e.offset.to_bits() == offset.to_bits() && e.gate == gate
        };
        if let Some(&i) = self.by_slot[slot].iter().find(|i| same(i)) {
            return i;
        }
        self.entries.push(TableEntry { gate, slot, offset });
        self.by_slot[slot].push(self.entries.len() - 1);
        self.entries.len() - 1
    }
}

/// `gate` without its angle's parameter name: once lowered, the slot names
/// the parameter, and a copy of the name in every entry would only take
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

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::{denot, parse_program};
    use qdp_sim::StateVector;

    fn check_agreement(src: &str, values: &[(&str, f64)]) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let params = Params::from_pairs(values.iter().map(|&(k, v)| (k, v)));
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let slots = set.slot_values(&params);
        let psi = StateVector::zero_state(reg.len());
        let obs = Observable::pauli_z(reg.len(), 0);

        let batch = BatchedStates::from_states(std::slice::from_ref(&psi));
        let lowered = set.expectation_batch(&slots, &batch, &obs)[0];
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
    fn branching_expectation_batch_matches_per_row_oracle() {
        // Branching programs (the `while` forces branch points) run the
        // branch-weighted sweep; the AST interpreter pins it at 1e-12
        // (fusion and leaf-summation order move rounding; the randomized
        // suite in `branch_weighted_differential.rs` covers the full
        // space).
        let p = parse_program(
            "q1 *= RY(a); while[2] M[q1] = 1 do q1 *= RY(b) done; q2 *= RX(a)",
        )
        .unwrap();
        let reg = Register::from_program(&p);
        let set = LoweredSet::lower(std::slice::from_ref(&p), &reg);
        let params = Params::from_pairs([("a", 1.2), ("b", 0.5)]);
        let values = set.slot_values(&params);
        let obs = Observable::pauli_z(reg.len(), 0);
        let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(reg.len(), k)).collect();
        let batch = qdp_sim::BatchedStates::from_states(&rows);
        let batched = set.expectation_batch(&values, &batch, &obs);
        for (r, psi) in rows.iter().enumerate() {
            let serial = denot::expectation_pure(&p, &reg, &params, psi, &obs);
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
        assert!(set.adjoint.get().is_none(), "lowering must build no adjoint");
        let values = set.slot_values(&Params::from_pairs([("a", 0.5), ("b", 1.4)]));
        let obs = Observable::pauli_z(2, 1);
        let batch = qdp_sim::BatchedStates::from_states(&[StateVector::zero_state(2)]);
        let first = set.gradient_batch(&values, &batch, &obs);
        let built: *const AdjointProgram = set.adjoint.get().expect("built by the first call");
        let second = set.gradient_batch(&values, &batch, &obs);
        set.expectation_batch(&values, &batch, &obs);
        assert!(
            std::ptr::eq(built, set.adjoint.get().unwrap()),
            "later calls reuse the adjoint program the first call built"
        );
        assert_eq!(first, second);
        // The adjoint program holds the set's own programs, not copies:
        // each has exactly two owners, the set and the adjoint (the
        // engines of the calls above are gone), where a copy would leave
        // the set's program one.
        for (i, p) in set.programs.iter().enumerate() {
            assert_eq!(Arc::strong_count(&p.program), 2, "program {i} is shared, not copied");
        }
    }

    #[test]
    fn weight_counts_what_lowering_builds() {
        // The table gates of a built program, nested arms included, read
        // off its debug form: one `Table(entry)` per parameterised gate.
        fn param_gates(program: &LoweredProgram) -> usize {
            format!("{:?}", program.program).matches("Table(").count()
        }
        for src in [
            "q1 *= RX(a); q1 *= H; q1, q2 *= RZZ(b + pi)",
            "q1 *= RY(a); while[3] M[q1] = 1 do q1 *= RY(b); q2 := |0> done; skip[q2]",
            "case M[q1, q2] = 0 -> abort[q1], 1 -> q1 *= RX(0.3), 2 -> skip[q1], 3 -> q2 *= RY(a) end",
        ] {
            let p = parse_program(src).unwrap();
            let set = LoweredSet::lower(std::slice::from_ref(&p), &Register::from_program(&p));
            let program = &set.programs()[0];
            assert_eq!(weight(&p), program.op_weight() + param_gates(program), "{src}");
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
