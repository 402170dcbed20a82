//! The end-to-end differentiation pipeline (Section 7, “Execution”).
//!
//! For a program `P(θ)` and one parameter `θj`:
//!
//! 1. at *compile time*, build the multiset `{|P′i(θ)|}` of normal,
//!    non-aborting derivative programs in one pass
//!    ([`crate::transform::derivative_programs`]). The paper reaches it in
//!    two steps — the code transformation to the additive `∂/∂θj(P(θ))`
//!    ([`crate::transform::transform`], Fig. 4), then compilation
//!    ([`qdp_lang::compile`], Fig. 3) — and those two steps are the one-pass
//!    builder's oracle; the additive program, `Θ(n²)` statements for an
//!    `n`-statement sequence, is never built,
//! 2. at run time, evaluate `Σi tr((ZA⊗O)·[[P′i]](|0⟩A⟨0| ⊗ ρ))` (Eq. 7.1).
//!
//! [`Differentiated`] packages step 1; [`GradientEngine`] caches one
//! `Differentiated` per parameter and evaluates whole gradients.

use crate::cache::{CompiledSkeleton, ProgramCache};
use crate::lowered::{LoweredSet, SharedSweep};
use crate::semantics::observable_semantics;
use crate::transform::{derivative_programs, fresh_ancilla, TransformError};
use qdp_lang::ast::{Params, Stmt, Var};
use qdp_lang::Register;
use qdp_sim::{BatchedStates, DensityMatrix, Observable, StateVector};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bounded retry budget for panicked worker tiles in this module's
/// parallel fan-outs. Every fanned-out closure here is pure per call, so
/// a retry is bit-identical to a first-try success.
const TILE_RETRIES: usize = 2;

/// The compile-time artifact of differentiating one program with respect to
/// one parameter.
///
/// # Examples
///
/// ```
/// use qdp_ad::differentiate;
/// use qdp_lang::ast::Params;
/// use qdp_lang::parse_program;
/// use qdp_sim::{DensityMatrix, Observable};
///
/// let p = parse_program("q1 *= RY(t)")?;
/// let diff = differentiate(&p, "t")?;
/// let obs = Observable::pauli_z(1, 0);
/// let rho = DensityMatrix::pure_zero(1);
/// let params = Params::from_pairs([("t", 0.5)]);
/// // d/dθ cos θ = −sin θ.
/// let d = diff.derivative(&params, &obs, &rho);
/// assert!((d + 0.5f64.sin()).abs() < 1e-10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Differentiated {
    param: String,
    ancilla: Var,
    compiled: Vec<Stmt>,
    base_register: Register,
    ext_register: Register,
}

/// Differentiates `program` with respect to `param`: the compiled
/// derivative multiset (the paper's compile-time phase).
///
/// # Errors
///
/// Returns [`TransformError`] on an ancilla-name collision (never happens
/// with the automatically chosen ancilla).
pub fn differentiate(program: &Stmt, param: &str) -> Result<Differentiated, TransformError> {
    differentiate_in(program, param, &Register::from_program(program))
}

/// Like [`differentiate`], but over a caller-supplied base register (which
/// must contain every program variable). This is what higher-order
/// differentiation uses: the base register of the second pass is the
/// ancilla-extended register of the first, so observables keep lining up.
///
/// # Errors
///
/// Returns [`TransformError`] on an ancilla-name collision.
///
/// # Panics
///
/// Panics when the program uses a variable outside `base_register`.
pub fn differentiate_in(
    program: &Stmt,
    param: &str,
    base_register: &Register,
) -> Result<Differentiated, TransformError> {
    for v in program.qvar() {
        assert!(
            base_register.contains(&v),
            "program variable '{v}' missing from the supplied register"
        );
    }
    let mut ancilla = fresh_ancilla(program, param);
    while base_register.contains(&ancilla) {
        ancilla = Var::new(format!("{}'", ancilla.name()));
    }
    let compiled = derivative_programs(program, param, &ancilla)?;
    let ext_register = base_register.with_ancilla_front(ancilla.clone());
    Ok(Differentiated {
        param: param.to_string(),
        ancilla,
        compiled,
        base_register: base_register.clone(),
        ext_register,
    })
}

/// The second-order derivative
/// `∂²/∂θp2 ∂θp1 · tr(O·[[P(θ*)]]ρ)`, computed by differentiating each
/// compiled first-derivative program again (the nesting of the paper's
/// footnote 7: the old ancilla joins the register, a fresh one is added,
/// and the observable picks up another `Z` factor).
///
/// # Errors
///
/// Returns [`TransformError`] on ancilla collisions.
pub fn second_derivative(
    program: &Stmt,
    param1: &str,
    param2: &str,
    params: &Params,
    obs: &Observable,
    rho: &DensityMatrix,
) -> Result<f64, TransformError> {
    let first = differentiate(program, param1)?;
    let obs_ext = obs.with_ancilla_z();
    let rho_ext = rho.prepend_zero_ancilla();
    // Each first-derivative program is differentiated and evaluated
    // independently; summation stays in multiset order for determinism.
    let partials = qdp_par::par_map(first.compiled(), |inner| {
        let second = differentiate_in(inner, param2, first.ext_register())?;
        Ok(second.derivative(params, &obs_ext, &rho_ext))
    });
    let mut total = 0.0;
    for partial in partials {
        total += partial?;
    }
    Ok(total)
}

/// The full Hessian over a set of parameters, keyed by `(row, column)`.
/// Symmetric up to numerical error; both triangles are computed
/// independently, which doubles as a smoothness check.
///
/// # Errors
///
/// Returns [`TransformError`] on ancilla collisions.
pub fn hessian(
    program: &Stmt,
    params: &Params,
    obs: &Observable,
    rho: &DensityMatrix,
) -> Result<BTreeMap<(String, String), f64>, TransformError> {
    let names: Vec<String> = program.parameters().into_iter().collect();
    let mut out = BTreeMap::new();
    for p1 in &names {
        for p2 in &names {
            let value = second_derivative(program, p1, p2, params, obs, rho)?;
            out.insert((p1.clone(), p2.clone()), value);
        }
    }
    Ok(out)
}

impl Differentiated {
    /// The differentiated parameter name.
    pub fn param(&self) -> &str {
        &self.param
    }

    /// The ancilla variable `A` introduced by the transformation.
    pub fn ancilla(&self) -> &Var {
        &self.ancilla
    }

    /// The compiled multiset of non-aborting normal programs — its length is
    /// `|#∂/∂θj(P(θ))|` (Definition 4.3), the number of initial-state copies
    /// per evaluation (Section 7).
    pub fn compiled(&self) -> &[Stmt] {
        &self.compiled
    }

    /// The register of the original program.
    pub fn base_register(&self) -> &Register {
        &self.base_register
    }

    /// The extended register (`ancilla` at qubit 0).
    pub fn ext_register(&self) -> &Register {
        &self.ext_register
    }

    /// Evaluates the derivative
    /// `Σi tr((ZA⊗O) · [[P′i(θ*)]]((|0⟩A⟨0|) ⊗ ρ))` (Eq. 7.1) exactly.
    ///
    /// By Theorem 6.2 this equals `∂/∂θj tr(O · [[P(θ*)]]ρ)` for **every**
    /// observable `O` and input `ρ` — the strongest differential-semantics
    /// guarantee (Definition 5.3).
    ///
    /// The compiled programs `{P′i}` are independent simulations; they are
    /// evaluated in parallel and summed in multiset order, so the result is
    /// identical (bit-for-bit) no matter how many threads run. The ancilla
    /// extension of `O` and `ρ` is built once and shared across the multiset
    /// instead of once per program.
    pub fn derivative(&self, params: &Params, obs: &Observable, rho: &DensityMatrix) -> f64 {
        assert_eq!(
            self.ext_register.len(),
            rho.num_qubits() + 1,
            "extended register must have exactly one more qubit than the input state"
        );
        let ext_obs = obs.with_ancilla_z();
        let ext_rho = rho.prepend_zero_ancilla();
        self.derivative_prepared(params, &ext_obs, &ext_rho)
    }

    /// [`derivative`](Self::derivative) with the ancilla extension already
    /// applied — what [`GradientEngine::gradient`] calls so the
    /// `O(4^(n+1))` extended buffers are built once per gradient instead of
    /// once per parameter.
    pub(crate) fn derivative_prepared(
        &self,
        params: &Params,
        ext_obs: &Observable,
        ext_rho: &DensityMatrix,
    ) -> f64 {
        // Pure per program, so a panicked worker tile retries
        // bit-identically before the failure is surfaced.
        qdp_par::try_par_map_retry(
            &self.compiled,
            |p| observable_semantics(p, &self.ext_register, params, ext_obs, ext_rho),
            TILE_RETRIES,
        )
        .unwrap_or_else(|e| panic!("{}", qdp_sim::QdpError::from(e)))
        .into_iter()
        .sum()
    }

    /// [`derivative`](Self::derivative) on a pure input: row 0 of
    /// [`derivative_pure_batch`](Self::derivative_pure_batch) on a batch
    /// of one, so it carries that row's bits exactly.
    pub fn derivative_pure(&self, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
        self.derivative_pure_batch(params, obs, &BatchedStates::gather(&[psi]))
            .remove(0)
    }

    /// [`derivative`](Self::derivative) for every row of a pure batch: the
    /// multiset swept as one prefix trie over the whole batch
    /// ([`LoweredSet::expectation_batch`]), the ancilla extension of the
    /// batch and the observable built once. Each entry agrees with the
    /// per-row oracle (each lowered program's
    /// [`LoweredProgram::expectation_pure`](crate::LoweredProgram::expectation_pure)
    /// on `|0⟩⊗ψ`, summed) to ≪ 1e-12 (fusion reorders rounding), and is
    /// bit-for-bit the same under any thread count and batch composition.
    pub fn derivative_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<f64> {
        let ext_obs = obs.with_ancilla_z();
        let ext_states = states.prepend_zero_ancilla();
        let skeleton = self.skeleton();
        let values = skeleton.lowered().slot_values(params);
        skeleton
            .lowered()
            .expectation_batch(&values, &ext_states, &ext_obs)
    }

    /// The compiled skeleton (lowered multiset with resolved qubit indices,
    /// interned parameter slots, pre-built measurements and constant
    /// matrices, plus patchable trajectory templates), interned through the
    /// process-wide [`ProgramCache`]: the first `Differentiated` of a given
    /// (multiset, register) pair anywhere in the process compiles it, every
    /// later one — including clones and re-differentiations of the same
    /// program — shares that one skeleton. Public so batch evaluators and
    /// future backends can drive [`LoweredSet::expectation_batch`] directly.
    pub fn skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern(&self.compiled, &self.ext_register)
    }
}

/// Gradient evaluation over all parameters of a program, with the per-
/// parameter transformations cached.
#[derive(Clone, Debug)]
pub struct GradientEngine {
    program: Stmt,
    register: Register,
    diffs: BTreeMap<String, Differentiated>,
    /// Every parameter's derivative programs merged into one prefix trie,
    /// the sweep behind [`gradient_pure_batch`](Self::gradient_pure_batch).
    /// Built on the first exact batched gradient, never at set-up.
    shared_sweep: std::sync::OnceLock<SharedSweep>,
}

impl GradientEngine {
    /// Differentiates `program` with respect to every parameter it uses.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransformError`] encountered.
    pub fn new(program: &Stmt) -> Result<Self, TransformError> {
        let register = Register::from_program(program);
        let mut diffs = BTreeMap::new();
        for param in program.parameters() {
            diffs.insert(param.clone(), differentiate_in(program, &param, &register)?);
        }
        Ok(GradientEngine {
            program: program.clone(),
            register,
            diffs,
            shared_sweep: std::sync::OnceLock::new(),
        })
    }

    /// The forward program as an interned one-element skeleton — the fast
    /// path of batched forward evaluation and the shift-rule gradient.
    /// Compiled once per process via the shared [`ProgramCache`].
    pub fn forward_skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern(std::slice::from_ref(&self.program), &self.register)
    }

    /// The remap from a multiset's interned slots into the engine's
    /// canonical parameter order (`diffs` key order).
    fn slot_remap(&self, lowered: &LoweredSet) -> Vec<usize> {
        lowered
            .param_names()
            .iter()
            .map(|p| {
                // Infallible: every gadget parameter is a parameter of the
                // program it was derived from.
                #[allow(clippy::expect_used)]
                self.diffs
                    .keys()
                    .position(|c| c == p)
                    .expect("gadget parameters are program parameters")
            })
            .collect()
    }

    /// Ops in the prefix trie [`gradient_pure_batch`](Self::gradient_pure_batch)
    /// sweeps: what one exact gradient executes at most, against the
    /// summed [`LoweredProgram::op_weight`](crate::LoweredProgram::op_weight)
    /// of the per-parameter sweeps. Builds the trie if no gradient has yet.
    pub fn shared_sweep_op_count(&self) -> usize {
        self.shared_sweep().op_count()
    }

    /// Every parameter's derivative multiset as one prefix trie over the
    /// lowered op streams, built on first use from the interned lowerings.
    fn shared_sweep(&self) -> &SharedSweep {
        self.shared_sweep.get_or_init(|| {
            let sets: Vec<(Arc<CompiledSkeleton>, Vec<usize>)> = self
                .diffs
                .values()
                .map(|diff| {
                    let skeleton = diff.skeleton();
                    let remap = self.slot_remap(skeleton.lowered());
                    (skeleton, remap)
                })
                .collect();
            SharedSweep::build(
                self.register.len() + 1,
                sets.iter()
                    .map(|(skeleton, remap)| (skeleton.lowered(), remap.as_slice())),
            )
        })
    }

    /// The program under differentiation.
    pub fn program(&self) -> &Stmt {
        &self.program
    }

    /// The program's register.
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// Parameter names in lexicographic order.
    pub fn parameters(&self) -> impl Iterator<Item = &str> {
        self.diffs.keys().map(String::as_str)
    }

    /// The cached differentiation artifact for one parameter.
    pub fn differentiated(&self, param: &str) -> Option<&Differentiated> {
        self.diffs.get(param)
    }

    /// Forward value `tr(O · [[P(θ*)]]ρ)`.
    pub fn value(&self, params: &Params, obs: &Observable, rho: &DensityMatrix) -> f64 {
        observable_semantics(&self.program, &self.register, params, obs, rho)
    }

    /// Forward value on a pure input: row 0 of
    /// [`value_pure_batch`](Self::value_pure_batch) on a batch of one.
    pub fn value_pure(&self, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
        self.value_pure_batch(params, obs, &BatchedStates::gather(&[psi]))
            .remove(0)
    }

    /// The full gradient, keyed by parameter name.
    ///
    /// The per-parameter evaluations are independent and run in parallel;
    /// each entry's value is computed exactly as by
    /// [`Differentiated::derivative`], so the map is deterministic under any
    /// thread count.
    pub fn gradient(
        &self,
        params: &Params,
        obs: &Observable,
        rho: &DensityMatrix,
    ) -> BTreeMap<String, f64> {
        // The ancilla extension is identical for every parameter: build the
        // O(4^(n+1)) extended buffers once and share them.
        let ext_obs = obs.with_ancilla_z();
        let ext_rho = rho.prepend_zero_ancilla();
        let entries: Vec<(&String, &Differentiated)> = self.diffs.iter().collect();
        qdp_par::par_map(&entries, |(name, diff)| {
            (
                (*name).clone(),
                diff.derivative_prepared(params, &ext_obs, &ext_rho),
            )
        })
        .into_iter()
        .collect()
    }

    /// The full gradient on a pure input: row 0 of
    /// [`gradient_pure_batch`](Self::gradient_pure_batch) on a batch of
    /// one.
    pub fn gradient_pure(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
    ) -> BTreeMap<String, f64> {
        self.gradient_pure_batch(params, obs, &BatchedStates::gather(&[psi]))
            .remove(0)
    }

    /// Total number of circuit programs per full gradient evaluation —
    /// `Σj |#∂/∂θj(P)|`, the paper's resource-count headline (Section 7).
    pub fn total_programs(&self) -> usize {
        self.diffs.values().map(|d| d.compiled().len()).sum()
    }

    /// Shot-based estimate of the forward value `⟨O⟩` — what a hardware
    /// run would report: `shots` sampled trajectories of the program from
    /// `psi`, one projective read-out each, averaged.
    ///
    /// Runs on the lowered forward program through the batched
    /// [`qdp_sim::ShotEngine`] (tiled across `qdp_par`, shot `s` on the
    /// derived stream `(seed, s)`), so the estimate is bit-for-bit
    /// deterministic for a fixed seed under any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `shots` is zero or a used parameter has no value.
    pub fn value_pure_shots(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        shots: usize,
        seed: u64,
    ) -> f64 {
        self.value_pure_shots_batch(params, obs, std::slice::from_ref(psi), shots, &[seed])
            .remove(0)
    }

    /// [`value_pure_shots`](Self::value_pure_shots) for many inputs at
    /// once: the forward program is resolved and the read-out decomposed
    /// **once**, then each shot tile runs as one sampled sweep over every
    /// row's shots (row `r` on stream `row_seeds[r]`; see
    /// [`qdp_sim::ShotEngine::estimate_expectation_batch`]). Entry `r`
    /// is bit-identical to the single-input call with the same seed, under
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` and `row_seeds` disagree in length, `shots` is
    /// zero, or a used parameter has no value, and with the
    /// [`qdp_sim::QdpError::WorkerPanic`] message when a shot tile
    /// panicked through its bounded bit-identical retries (the gradient
    /// service turns that panic into [`qdp_sim::QdpError::ServicePanic`]).
    pub fn value_pure_shots_batch(
        &self,
        params: &Params,
        obs: &Observable,
        inputs: &[StateVector],
        shots: usize,
        row_seeds: &[u64],
    ) -> Vec<f64> {
        assert_eq!(
            inputs.len(),
            row_seeds.len(),
            "one seed stream per input row"
        );
        let fwd = self.forward_skeleton();
        let values = fwd.lowered().slot_values(params);
        // The patched skeleton carries the identical bits a fresh
        // resolve-and-convert would: shot streams stay bit-stable across
        // cold and warm cache states.
        let engine = qdp_sim::ShotEngine::new(fwd.trajectory_at(0, &values));
        let readout = qdp_sim::ProjectiveObservable::new(obs);
        engine
            .estimate_expectation_batch(inputs, &readout, shots, row_seeds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shot-based estimate of the full gradient on a pure input: each
    /// parameter's derivative is estimated by
    /// [`crate::estimator::estimate_derivative_batched`] with
    /// `shots_per_param` trajectories on its own derived seed stream
    /// (`qdp_sim::derive_seed(seed, j)` for the `j`-th parameter in
    /// lexicographic order).
    ///
    /// For the Chernoff guarantee of Section 7, pass
    /// `shots_per_param = chernoff_shots(mj, δ)` per parameter; a fixed
    /// budget trades accuracy uniformly. Deterministic for a fixed seed
    /// under any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `shots_per_param` is zero or a used parameter has no
    /// value.
    pub fn gradient_pure_shots(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
        shots_per_param: usize,
        seed: u64,
    ) -> BTreeMap<String, f64> {
        self.gradient_pure_shots_batch(params, obs, std::slice::from_ref(psi), shots_per_param, &[seed])
            .remove(0)
    }

    /// [`gradient_pure_shots`](Self::gradient_pure_shots) for many inputs
    /// at once: every parameter's
    /// [`crate::estimator::PreparedDerivativeEstimator`] (resolved
    /// programs, decomposed read-out) is built **once** and shared by all
    /// rows. Row `r` estimates parameter `j` on the derived stream
    /// `(row_seeds[r], j)`, exactly as the single-input call does, and each
    /// parameter's programs run as **one** sampled sweep per program (and
    /// shot tile) over every row's shots of that program. Each row is
    /// reduced from its own samples in the single-input order, so entry
    /// `r` is bit-identical to the single-input call. (Parameter, tile)
    /// pairs fan out across `qdp_par` only when their work (rows ×
    /// amplitudes × program ops) pays for a fork; a single small row runs
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` and `row_seeds` disagree in length,
    /// `shots_per_param` is zero, or a used parameter has no value, and
    /// with the [`qdp_sim::QdpError::WorkerPanic`] message when a shot
    /// tile panicked through its bounded bit-identical retries.
    pub fn gradient_pure_shots_batch(
        &self,
        params: &Params,
        obs: &Observable,
        inputs: &[StateVector],
        shots_per_param: usize,
        row_seeds: &[u64],
    ) -> Vec<BTreeMap<String, f64>> {
        assert_eq!(
            inputs.len(),
            row_seeds.len(),
            "one seed stream per input row"
        );
        let prepared: Vec<crate::estimator::PreparedDerivativeEstimator> = self
            .diffs
            .values()
            .map(|diff| crate::estimator::PreparedDerivativeEstimator::new(diff, params, obs))
            .collect();
        let estimators: Vec<&_> = prepared.iter().collect();
        let ext_inputs: Vec<StateVector> = inputs
            .iter()
            .map(|psi| StateVector::zero_state(1).tensor(psi))
            .collect();
        let streams: Vec<Vec<u64>> = (0..estimators.len() as u64)
            .map(|j| row_seeds.iter().map(|&seed| qdp_sim::derive_seed(seed, j)).collect())
            .collect();
        let per_param =
            crate::estimator::estimate_batch(&estimators, &ext_inputs, shots_per_param, &streams);
        (0..inputs.len())
            .map(|r| {
                self.diffs
                    .keys()
                    .zip(&per_param)
                    .map(|(name, column)| (name.clone(), column[r]))
                    .collect()
            })
            .collect()
    }

    /// Forward values `tr(O·[[P(θ*)]]|ψr⟩⟨ψr|)` for every row of a batch.
    ///
    /// Runs on the **lowered** forward program (resolved indices, interned
    /// slots, gate matrices built once per batch, swept as a one-program
    /// trie by [`LoweredSet::expectation_batch`]). Agrees with the per-row
    /// oracles ([`LoweredProgram::expectation_pure`](crate::LoweredProgram::expectation_pure)
    /// and the interpreter's `denot::expectation_pure`) to ≪ 1e-12 on
    /// every row.
    pub fn value_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<f64> {
        let fwd = self.forward_skeleton();
        let values = fwd.lowered().slot_values(params);
        fwd.lowered().expectation_batch(&values, states, obs)
    }

    /// The full gradient for **every** row of a batch, keyed by parameter
    /// name, in **one** sweep over every parameter's derivative programs.
    ///
    /// The programs run as one prefix trie, built on the first call: the
    /// branch-weighted exact sweep executes each shared prefix, measurement
    /// forks included, once for all the programs that share it, and copies
    /// the batch only where programs part. Each node's matrix is built once
    /// per call from the canonical valuation. Large batches split into row
    /// tiles across `qdp_par`; a batch too small to split that still has
    /// the work for a fork splits its programs among the free workers
    /// instead (see [`qdp_sim::SweepTrie::expectation_sweep`]). Programs
    /// share a node only where they run the same op on the same data, so
    /// every entry carries the bits of each program's own
    /// [`qdp_sim::ShotEngine::expectation_sweep`] summed in multiset order
    /// (the named oracle, pinned bitwise by
    /// `crates/core/tests/shared_sweep_oracle.rs`). It agrees with the
    /// per-row oracle, each program's
    /// [`LoweredProgram::expectation_pure`](crate::LoweredProgram::expectation_pure)
    /// summed, to ≪ 1e-12 (fusion reorders rounding), and the result is
    /// bit-for-bit the same under any thread count and batch composition
    /// (`crates/core/tests/batch_equivalence.rs`).
    pub fn gradient_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<BTreeMap<String, f64>> {
        let canonical: Vec<f64> = self
            .diffs
            .keys()
            .map(|name| {
                params
                    .get(name)
                    .unwrap_or_else(|| panic!("parameter '{name}' has no value"))
            })
            .collect();
        let per_param = self.shared_sweep().expectation_batch(
            &canonical,
            states.prepend_zero_ancilla(),
            &obs.with_ancilla_z(),
        );
        (0..states.len())
            .map(|r| {
                self.diffs
                    .keys()
                    .zip(&per_param)
                    .map(|(name, derivs)| (name.clone(), derivs[r]))
                    .collect()
            })
            .collect()
    }

    /// Whether the phase-shift rule applies: every parameter occurs exactly
    /// once along any execution path ([`crate::resource::occurrence_count`]
    /// counts `while` bodies `bound` times and takes the per-path maximum
    /// over `case` arms). Each parameterized gate is `exp(−iθG/2)·C` with
    /// `G² = I`, so each surviving branch's read-out — and hence the
    /// multiset expectation — is `a + b·cos θ + c·sin θ` in a
    /// once-occurring θ, which the `±π/2` shift rule differentiates
    /// exactly.
    pub fn shift_rule_eligible(&self) -> bool {
        self.diffs
            .keys()
            .all(|p| crate::resource::occurrence_count(&self.program, p) == 1)
    }

    /// The full gradient on a pure input via the `±π/2` shift rule — the
    /// compile-once fast path for shift-eligible programs (see
    /// [`shift_rule_eligible`](Self::shift_rule_eligible)).
    ///
    /// Where the gadget path compiles one multiset per parameter (36
    /// lowered multisets for a 36-parameter circuit), this path evaluates
    /// the **single** interned forward skeleton at `2P` shifted valuations:
    /// `∂f/∂θj = (f(θj + π/2) − f(θj − π/2)) / 2`. One program skeleton is
    /// lowered per process, total, and only slot `j` changes between
    /// evaluations. Agrees with [`gradient_pure`](Self::gradient_pure) to
    /// numerical precision and with the interpreter-level shift rule
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when the program is not shift-eligible or a used parameter
    /// has no value.
    pub fn gradient_pure_shift(
        &self,
        params: &Params,
        obs: &Observable,
        psi: &StateVector,
    ) -> BTreeMap<String, f64> {
        self.gradient_pure_shift_batch(params, obs, &BatchedStates::gather(&[psi]))
            .remove(0)
    }

    /// [`gradient_pure_shift`](Self::gradient_pure_shift) for every row of
    /// a batch: the `2P` shifted valuations fan out across `qdp_par`
    /// workers, each evaluating the shared forward skeleton over the whole
    /// batch, and per-row central differences are assembled in canonical
    /// parameter order — bit-for-bit deterministic under any thread count.
    ///
    /// # Panics
    ///
    /// Panics when the program is not shift-eligible, a used parameter has
    /// no value, or the batch register does not match the program's, and
    /// with the [`qdp_sim::QdpError::WorkerPanic`] message when a
    /// valuation panicked through its bounded bit-identical retries.
    pub fn gradient_pure_shift_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<BTreeMap<String, f64>> {
        assert!(
            self.shift_rule_eligible(),
            "shift-rule gradient requires every parameter to occur exactly once \
             per execution path; use gradient_pure_batch for general programs"
        );
        let fwd = self.forward_skeleton();
        let lowered = fwd.lowered();
        let base = lowered.slot_values(params);
        let names: Vec<&String> = self.diffs.keys().collect();
        // Two shifted valuations per parameter, in canonical order: job
        // `2j` shifts parameter `j` up, job `2j + 1` down. Slots are
        // looked up once; the jobs share the base valuation.
        let jobs: Vec<(usize, usize, f64)> = names
            .iter()
            .enumerate()
            .flat_map(|(j, name)| {
                // Infallible: the forward lowering interns every parameter
                // the program uses.
                #[allow(clippy::expect_used)]
                let slot = lowered
                    .param_names()
                    .iter()
                    .position(|p| p == *name)
                    .expect("engine parameters are forward-program parameters");
                let half = std::f64::consts::FRAC_PI_2;
                [(2 * j, slot, half), (2 * j + 1, slot, -half)]
            })
            .collect();
        // Pure per valuation, so a panicked worker tile retries
        // bit-identically before the failure is surfaced. Inner batch
        // evaluations run inline on the pool worker that took the job.
        let evals: Vec<Vec<f64>> = qdp_par::try_par_map_retry(
            &jobs,
            |&(job, slot, shift)| {
                qdp_sim::fault::tile_checkpoint(job);
                let mut values = base.clone();
                values[slot] += shift;
                lowered.expectation_batch(&values, states, obs)
            },
            TILE_RETRIES,
        )
        .unwrap_or_else(|e| panic!("{}", qdp_sim::QdpError::from(e)));
        (0..states.len())
            .map(|r| {
                names
                    .iter()
                    .enumerate()
                    .map(|(j, name)| {
                        ((*name).clone(), (evals[2 * j][r] - evals[2 * j + 1][r]) / 2.0)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::numeric_derivative;
    use qdp_lang::parse_program;

    fn check_against_finite_difference(src: &str, values: &[(&str, f64)], obs: &Observable) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let params = Params::from_pairs(values.iter().map(|&(k, v)| (k, v)));
        let rho = DensityMatrix::pure_zero(reg.len());
        for (name, _) in values {
            let diff = differentiate(&p, name).unwrap();
            let analytic = diff.derivative(&params, obs, &rho);
            let numeric = numeric_derivative(&p, &reg, &params, name, obs, &rho, 1e-5);
            assert!(
                (analytic - numeric).abs() < 1e-7,
                "{src} ∂/∂{name}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn single_rotation_derivative() {
        check_against_finite_difference(
            "q1 *= RY(t)",
            &[("t", 0.8)],
            &Observable::pauli_z(1, 0),
        );
    }

    #[test]
    fn all_axes_and_offsets() {
        for src in [
            "q1 *= RX(t)",
            "q1 *= RZ(t + pi/2)",
            "q1 *= H; q1 *= RZ(t)",
        ] {
            check_against_finite_difference(src, &[("t", 1.3)], &Observable::pauli_z(1, 0));
        }
    }

    #[test]
    fn sequence_derivative_via_product_rule() {
        check_against_finite_difference(
            "q1 *= RX(t); q1 *= RY(t)",
            &[("t", 0.4)],
            &Observable::pauli_z(1, 0),
        );
    }

    #[test]
    fn coupling_gate_derivative() {
        check_against_finite_difference(
            "q1 *= H; q1, q2 *= RXX(t)",
            &[("t", 0.9)],
            &Observable::pauli_z(2, 1),
        );
    }

    #[test]
    fn case_statement_derivative() {
        check_against_finite_difference(
            "q1 *= RX(t); case M[q1] = 0 -> q2 *= RY(t), 1 -> q2 *= RZ(t); q2 *= RX(t) end",
            &[("t", 0.65)],
            &Observable::pauli_z(2, 1),
        );
    }

    #[test]
    fn bounded_while_derivative() {
        check_against_finite_difference(
            "q1 *= RY(t); while[2] M[q1] = 1 do q1 *= RY(t) done",
            &[("t", 1.1)],
            &Observable::pauli_z(1, 0),
        );
    }

    #[test]
    fn multi_parameter_gradient_matches_finite_differences() {
        let src = "q1 *= RX(a); q2 *= RY(b); q1, q2 *= RZZ(c); q1 *= RY(a)";
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.3), ("b", -0.7), ("c", 1.9)]);
        let obs = Observable::pauli_z(2, 0);
        let rho = DensityMatrix::pure_zero(2);
        let grad = engine.gradient(&params, &obs, &rho);
        assert_eq!(grad.len(), 3);
        for (name, value) in &grad {
            let numeric = numeric_derivative(&p, &reg, &params, name, &obs, &rho, 1e-5);
            assert!((value - numeric).abs() < 1e-7, "∂/∂{name}");
        }
    }

    #[test]
    fn gradient_pure_matches_dense() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
        let obs = Observable::projector_one(2, 1);
        let psi = StateVector::zero_state(2);
        let rho = DensityMatrix::from_pure(&psi);
        let dense = engine.gradient(&params, &obs, &rho);
        let pure = engine.gradient_pure(&params, &obs, &psi);
        for (name, v) in &dense {
            assert!((v - pure[name]).abs() < 1e-10, "∂/∂{name}");
        }
        // Forward values agree too.
        assert!((engine.value(&params, &obs, &rho) - engine.value_pure(&params, &obs, &psi))
            .abs()
            < 1e-10);
    }

    #[test]
    fn derivative_works_for_any_observable_and_state() {
        // Definition 5.3's strong quantifier order: one transformed program
        // serves every (O, ρ) pair.
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        let reg = Register::from_program(&p);
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.35)]);
        let observables = [
            Observable::pauli_z(1, 0),
            Observable::projector_one(1, 0),
            Observable::new(1, vec![0], qdp_linalg::Matrix::pauli_x()),
        ];
        let mut plus = StateVector::zero_state(1);
        plus.apply_gate(&qdp_linalg::Matrix::hadamard(), &[0]);
        let states = [
            DensityMatrix::pure_zero(1),
            DensityMatrix::from_pure(&plus),
            DensityMatrix::maximally_mixed(1),
        ];
        for obs in &observables {
            for rho in &states {
                let analytic = diff.derivative(&params, obs, rho);
                let numeric = numeric_derivative(&p, &reg, &params, "t", obs, rho, 1e-5);
                assert!((analytic - numeric).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn set_up_leaves_the_shared_sweep_unbuilt_until_the_first_batched_gradient() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end; q2 *= RY(b)",
        )
        .unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        engine.forward_skeleton();
        for name in engine.parameters() {
            engine.differentiated(name).unwrap().skeleton();
        }
        assert!(
            engine.shared_sweep.get().is_none(),
            "set-up must not build the trie"
        );

        let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
        let obs = Observable::pauli_z(2, 1);
        let batch = BatchedStates::from_states(&[StateVector::zero_state(2)]);
        let first = engine.gradient_pure_batch(&params, &obs, &batch);
        let built: *const SharedSweep = engine.shared_sweep.get().expect("built by the first call");
        let second = engine.gradient_pure_batch(&params, &obs, &batch);
        assert!(
            std::ptr::eq(built, engine.shared_sweep.get().unwrap()),
            "later calls reuse the trie the first call built"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn shot_based_value_and_gradient_track_exact_ones() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
        let obs = Observable::pauli_z(2, 1);
        let psi = StateVector::zero_state(2);

        let value = engine.value_pure_shots(&params, &obs, &psi, 40_000, 3);
        assert!(
            (value - engine.value_pure(&params, &obs, &psi)).abs() < 0.02,
            "shot value {value}"
        );

        let grad = engine.gradient_pure_shots(&params, &obs, &psi, 60_000, 9);
        let exact = engine.gradient_pure(&params, &obs, &psi);
        assert_eq!(grad.len(), exact.len());
        for (name, v) in &exact {
            assert!(
                (grad[name] - v).abs() < 0.06,
                "∂/∂{name}: shots {} vs exact {v}",
                grad[name]
            );
        }

        // Fixed seed ⇒ bitwise reproducible.
        let again = engine.gradient_pure_shots(&params, &obs, &psi, 60_000, 9);
        for (name, v) in &grad {
            assert_eq!(v.to_bits(), again[name].to_bits(), "∂/∂{name}");
        }
    }

    #[test]
    fn unparameterized_program_has_empty_gradient() {
        let p = parse_program("q1 *= H; q1 *= X").unwrap();
        let engine = GradientEngine::new(&p).unwrap();
        assert_eq!(engine.parameters().count(), 0);
        assert_eq!(engine.total_programs(), 0);
    }

    #[test]
    fn compiled_count_matches_occurrences_for_straightline() {
        // t occurs 3 times in a straight-line program → exactly 3 programs.
        let p = parse_program("q1 *= RX(t); q1 *= RY(t); q1 *= RZ(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        assert_eq!(diff.compiled().len(), 3);
    }

    #[test]
    fn second_derivative_of_single_rotation() {
        // ⟨Z⟩ = cos t ⇒ second derivative is −cos t.
        let p = parse_program("q1 *= RY(t)").unwrap();
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        for theta in [0.0, 0.5, 1.9] {
            let params = Params::from_pairs([("t", theta)]);
            let d2 = second_derivative(&p, "t", "t", &params, &obs, &rho).unwrap();
            assert!(
                (d2 + theta.cos()).abs() < 1e-9,
                "θ={theta}: {d2} vs {}",
                -theta.cos()
            );
        }
    }

    #[test]
    fn second_derivative_matches_finite_difference_of_first() {
        let p = parse_program(
            "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
        )
        .unwrap();
        let obs = Observable::pauli_z(2, 1);
        let rho = DensityMatrix::pure_zero(2);
        let base = Params::from_pairs([("a", 0.7), ("b", -0.3)]);
        for (p1, p2) in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")] {
            let analytic = second_derivative(&p, p1, p2, &base, &obs, &rho).unwrap();
            // Finite difference of the (exact) first derivative in p1.
            let h = 1e-5;
            let first = differentiate(&p, p1).unwrap();
            let eval = |x: f64| {
                let mut shifted = base.clone();
                shifted.set(p2, x);
                first.derivative(&shifted, &obs, &rho)
            };
            let x0 = base.get(p2).unwrap();
            let numeric = (eval(x0 + h) - eval(x0 - h)) / (2.0 * h);
            assert!(
                (analytic - numeric).abs() < 1e-6,
                "∂²/∂{p2}∂{p1}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let p = parse_program("q1 *= RX(a); q1 *= RY(b); q1 *= RZ(a)").unwrap();
        let params = Params::from_pairs([("a", 0.4), ("b", 1.2)]);
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        let h = hessian(&p, &params, &obs, &rho).unwrap();
        assert_eq!(h.len(), 4);
        let ab = h[&("a".to_string(), "b".to_string())];
        let ba = h[&("b".to_string(), "a".to_string())];
        assert!((ab - ba).abs() < 1e-9, "mixed partials {ab} vs {ba}");
    }

    #[test]
    fn third_derivative_via_manual_nesting() {
        // sanity-check that the iterated controlled gates keep working one
        // level deeper: f = cos t ⇒ f''' = sin t.
        let p = parse_program("q1 *= RY(t)").unwrap();
        let theta = 0.8;
        let params = Params::from_pairs([("t", theta)]);
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);

        let d1 = differentiate(&p, "t").unwrap();
        let mut third = 0.0;
        for p1 in d1.compiled() {
            let d2 = differentiate_in(p1, "t", d1.ext_register()).unwrap();
            let obs1 = obs.with_ancilla_z();
            let rho1 = rho.prepend_zero_ancilla();
            for p2 in d2.compiled() {
                let d3 = differentiate_in(p2, "t", d2.ext_register()).unwrap();
                third += d3.derivative(&params, &obs1.with_ancilla_z(), &rho1.prepend_zero_ancilla());
            }
        }
        assert!((third - theta.sin()).abs() < 1e-9, "{third} vs {}", theta.sin());
    }
}
