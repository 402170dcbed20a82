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
//!
//! Step 2 is what the paper's hardware would run, and the shot-based
//! entry points run it: each sampled trajectory executes one derivative
//! program. For exact gradients on pure inputs it is the **named oracle**
//! (each parameter's multiset swept by
//! [`LoweredSet::expectation_batch`](crate::LoweredSet::expectation_batch)).
//! Theorem 6.2 says that it computes `∂/∂θj tr(O·[[P(θ)]]ρ)`, so the
//! production path computes that quantity directly instead, by the
//! adjoint method ([`LoweredSet::gradient_batch`](crate::LoweredSet::gradient_batch)):
//! one forward and one backward sweep per branch of the program itself,
//! on `2ⁿ` amplitudes, for every parameter at once.
//! `crates/core/tests/adjoint_oracle.rs` pins the two within 1e-12.

use crate::cache::{CompiledSkeleton, ProgramCache, SharedMultiset};
use crate::lowered::LoweredSet;
use crate::semantics::observable_semantics;
use crate::transform::{derivative_programs, fresh_ancilla, TransformError};
use qdp_lang::ast::{Params, Stmt, Var};
use qdp_lang::Register;
use qdp_sim::{BatchedStates, DensityMatrix, Observable, StateVector, TILE_RETRIES};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

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
    /// The multiset whose adjoint sweep serves
    /// [`derivative_pure_batch`](Self::derivative_pure_batch), over the
    /// base register (see [`adjoint_multiset`]). Shared with the other
    /// parameters of a [`GradientEngine`].
    adjoint: SharedMultiset,
    ancilla: Var,
    /// The compiled multiset over the extended register, shared with the
    /// [`ProgramCache`] entry it interns as.
    compiled: SharedMultiset,
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
    let shared = SharedMultiset::new(Arc::from([program.clone()]), base_register.clone());
    differentiate_shared(program, adjoint_multiset(shared), param)
}

/// The multiset exact values and the adjoint sweep run for the
/// one-program multiset `program`: the program itself when it is normal
/// (the same interned skeleton as [`GradientEngine::forward_skeleton`]),
/// its compiled multiset otherwise, since an additive program has no
/// lowering of its own and means the sum over that multiset
/// (Proposition 3.1). Built once per differentiation, so warm calls look
/// it up by pointer.
fn adjoint_multiset(program: SharedMultiset) -> SharedMultiset {
    let stmt = &program.compiled()[0];
    if stmt.is_normal() {
        program
    } else {
        SharedMultiset::new(
            qdp_lang::compile::compile(stmt).into(),
            program.register().clone(),
        )
    }
}

/// [`differentiate_in`] of `program`, whose [`adjoint_multiset`] the
/// caller built over the base register.
fn differentiate_shared(
    program: &Stmt,
    adjoint: SharedMultiset,
    param: &str,
) -> Result<Differentiated, TransformError> {
    let base_register = adjoint.register();
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
    let compiled = SharedMultiset::new(
        derivative_programs(program, param, &ancilla)?.into(),
        base_register.with_ancilla_front(ancilla.clone()),
    );
    Ok(Differentiated {
        param: param.to_string(),
        adjoint,
        ancilla,
        compiled,
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
        self.compiled.compiled()
    }

    /// The register of the original program.
    pub fn base_register(&self) -> &Register {
        self.adjoint.register()
    }

    /// The extended register (`ancilla` at qubit 0).
    pub fn ext_register(&self) -> &Register {
        self.compiled.register()
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
            self.ext_register().len(),
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
            self.compiled(),
            |p| observable_semantics(p, self.ext_register(), params, ext_obs, ext_rho),
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

    /// [`derivative`](Self::derivative) for every row of a pure batch, by
    /// the adjoint method: this parameter's column of one adjoint sweep of
    /// the program itself
    /// ([`LoweredSet::gradient_batch`](crate::LoweredSet::gradient_batch)),
    /// forward and backward once per branch on the batch's own `2ⁿ`
    /// amplitudes, with no ancilla and no derivative program run. By
    /// Theorem 6.2 it agrees with sweeping the compiled multiset on
    /// `|0⟩⊗ψ` with `Z_A⊗O` (the named oracle,
    /// [`skeleton`](Self::skeleton)'s
    /// [`LoweredSet::expectation_batch`](crate::LoweredSet::expectation_batch)),
    /// within 1e-12 (`crates/core/tests/adjoint_oracle.rs`). It carries bit
    /// for bit the column [`GradientEngine::gradient_pure_batch`] computes
    /// for this parameter, and the same bits under any thread count and
    /// batch composition. The sweep's forks run unmonitored, as every
    /// exact sweep's do: no health checks and no mass budget. For a program
    /// with `+` it sweeps the program's compiled multiset, built once when
    /// this artifact was.
    pub fn derivative_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<f64> {
        let skeleton = ProgramCache::global().intern_shared(&self.adjoint);
        let lowered = skeleton.lowered();
        match lowered.param_names().iter().position(|p| *p == self.param) {
            Some(slot) => lowered
                .gradient_batch(&lowered.slot_values(params), states, obs)
                .swap_remove(slot),
            // A parameter the program never reaches has the zero derivative.
            None => vec![0.0; states.len()],
        }
    }

    /// The compiled skeleton (lowered multiset with resolved qubit indices,
    /// interned parameter slots, pre-built measurements and constant
    /// matrices, and the programs its sweeps run), interned through the
    /// process-wide [`ProgramCache`]: the first `Differentiated` of a given
    /// (multiset, register) pair anywhere in the process compiles it, every
    /// later one — including clones and re-differentiations of the same
    /// program — shares that one skeleton. The cache key is hashed on the
    /// first call and kept (clones made after that share it), and a lookup
    /// that finds the entry this artifact's own multiset created matches it
    /// by pointer, so a warm call hashes nothing and compares no trees.
    /// Public so batch evaluators and future backends can drive
    /// [`LoweredSet::expectation_batch`](crate::LoweredSet::expectation_batch)
    /// directly.
    pub fn skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern_shared(&self.compiled)
    }
}

/// Gradient evaluation over all parameters of a program, with the per-
/// parameter transformations cached.
#[derive(Clone, Debug)]
pub struct GradientEngine {
    /// The program over its register, as a one-program multiset.
    program: SharedMultiset,
    /// Its [`adjoint_multiset`], shared with every parameter's
    /// [`Differentiated`].
    adjoint: SharedMultiset,
    diffs: BTreeMap<String, Differentiated>,
    /// Between the engine's parameters and the slots of the adjoint
    /// skeleton's lowering, both ways. Built on the first exact gradient.
    slot_index: OnceLock<SlotIndex>,
    /// Per parameter (in name order), the index among the engine's
    /// parameters of each slot of its derivative multiset's lowering: a
    /// shot gradient looks each parameter's value up once and gathers
    /// every multiset's slot values through this map. Built on the first
    /// shot gradient.
    shot_slots: OnceLock<Vec<Vec<usize>>>,
}

/// Where each engine parameter sits in the lowering of a
/// [`GradientEngine`]'s adjoint multiset, and back. Lowering interns slots
/// in a fixed order, so an index built once stays right for every
/// re-lowering of the same multiset, after an eviction too.
#[derive(Clone, Debug)]
struct SlotIndex {
    /// `slot[j]`: the slot of parameter `j` (in the engine's order), `None`
    /// when the multiset never reaches it.
    slot: Vec<Option<usize>>,
    /// `param[s]`: the engine index of slot `s`.
    param: Vec<usize>,
}

impl SlotIndex {
    fn new<'a>(names: impl Iterator<Item = &'a String>, lowered: &LoweredSet) -> Self {
        let slots = lowered.param_names();
        let slot: Vec<Option<usize>> = names
            .map(|name| slots.iter().position(|p| p == name))
            .collect();
        let mut param = vec![0; slots.len()];
        for (j, s) in slot.iter().enumerate() {
            if let Some(s) = *s {
                param[s] = j;
            }
        }
        SlotIndex { slot, param }
    }
}

/// Exact values and gradient of a batch, in a [`GradientEngine`]'s
/// parameter order: what [`GradientEngine::value_and_gradient_batch`]
/// returns.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseEvaluation {
    values: Vec<f64>,
    gradient: Vec<f64>,
    parameters: usize,
}

impl DenseEvaluation {
    /// Each row's value `tr(O·[[P(θ)]]|ψr⟩⟨ψr|)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The gradient, row-major: `rows × parameters` entries, entry
    /// `r · parameters + j` the derivative of row `r`'s value by parameter
    /// `j`.
    pub fn gradient(&self) -> &[f64] {
        &self.gradient
    }

    /// Row `r`'s gradient, one entry per parameter in the engine's order.
    ///
    /// # Panics
    ///
    /// Panics when `r` is not a row of the batch.
    pub fn gradient_row(&self, r: usize) -> &[f64] {
        &self.gradient[r * self.parameters..(r + 1) * self.parameters]
    }
}

impl GradientEngine {
    /// Differentiates `program` with respect to every parameter it uses.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransformError`] encountered.
    pub fn new(program: &Stmt) -> Result<Self, TransformError> {
        let shared = SharedMultiset::new(
            Arc::from([program.clone()]),
            Register::from_program(program),
        );
        let adjoint = adjoint_multiset(shared.clone());
        let mut diffs = BTreeMap::new();
        for param in program.parameters() {
            let diff = differentiate_shared(program, adjoint.clone(), &param)?;
            diffs.insert(param, diff);
        }
        Ok(GradientEngine {
            program: shared,
            adjoint,
            diffs,
            slot_index: OnceLock::new(),
            shot_slots: OnceLock::new(),
        })
    }

    /// The forward program as an interned one-element skeleton — what the
    /// shift-rule gradient runs. For a normal program it is also the
    /// skeleton exact values, gradients and shot values sweep.
    /// Compiled once per process via the shared [`ProgramCache`]; as with
    /// [`Differentiated::skeleton`], a warm call matches the entry by
    /// pointer under a memoised key.
    pub fn forward_skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern_shared(&self.program)
    }

    /// The program under differentiation.
    pub fn program(&self) -> &Stmt {
        &self.program.compiled()[0]
    }

    /// The program's register.
    pub fn register(&self) -> &Register {
        self.program.register()
    }

    /// Parameter names in lexicographic order.
    pub fn parameters(&self) -> impl Iterator<Item = &str> {
        self.diffs.keys().map(String::as_str)
    }

    /// The cached differentiation artifact for one parameter.
    pub fn differentiated(&self, param: &str) -> Option<&Differentiated> {
        self.diffs.get(param)
    }

    /// Forward value `tr(O · [[P(θ*)]]ρ)`. For a program with `+` it is
    /// the sum over its compiled multiset, in multiset order
    /// (Proposition 3.1); a normal program is its own one-program
    /// multiset.
    pub fn value(&self, params: &Params, obs: &Observable, rho: &DensityMatrix) -> f64 {
        self.adjoint
            .compiled()
            .iter()
            .map(|p| observable_semantics(p, self.register(), params, obs, rho))
            .reduce(|a, b| a + b)
            .unwrap_or(0.0)
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
    /// Row 0 of [`value_pure_shots_batch`](Self::value_pure_shots_batch):
    /// shot `s` runs on the derived stream `(seed, s)`, so the estimate is
    /// bit-for-bit deterministic for a fixed seed under any thread count.
    /// A program with `+` is estimated on its compiled multiset.
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
    /// once: the adjoint multiset's programs are bound to the valuation
    /// and the read-out `O` decomposed **once**, then
    /// [`qdp_sim::estimate_batch`] runs each shot tile as one sampled
    /// sweep per program over every row's shots (row `r` on stream
    /// `row_seeds[r]`). Entry `r` is bit-identical to the single-input
    /// call with the same seed, under any thread count.
    ///
    /// That multiset is the forward program's own interned entry when the
    /// program is normal, so every shot runs it and nothing is drawn. A
    /// program with `+` has no lowering of its own: its value is the sum
    /// over its compiled multiset (Proposition 3.1), estimated as `m`
    /// times the mean of shots that each run one of the `m` programs,
    /// drawn uniformly from the row's master stream
    /// `ShotSampler::seeded(row_seeds[r])` — the sampled sweeps derivative
    /// multisets run, on the unextended register.
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
        let skeleton = self.adjoint_skeleton();
        let lowered = skeleton.lowered();
        // The bound programs carry the identical bits a fresh
        // resolve-and-convert would: shot streams stay bit-stable across
        // cold and warm cache states.
        let engines: Vec<qdp_sim::ShotEngine> =
            lowered.shot_engines(&lowered.slot_values(params)).collect();
        // Unmonitored engines: the only error is a tile's exhausted retries.
        qdp_sim::estimate_batch(
            &[&engines],
            &qdp_sim::ProjectiveObservable::new(obs),
            inputs,
            shots,
            &[row_seeds.to_vec()],
        )
        .unwrap_or_else(|e| panic!("{e}"))
        .remove(0)
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
    /// at once. Row `r` estimates parameter `j` on the derived stream
    /// `(row_seeds[r], j)`, exactly as the single-input call does, and
    /// each parameter's programs run as **one** sampled sweep per program
    /// (and shot tile) over every row's shots of that program. Each row is
    /// reduced from its own samples in the single-input order, so entry
    /// `r` is bit-identical to the single-input call, and parameter `j`'s
    /// entry to [`crate::estimator::PreparedDerivativeEstimator::estimate`]
    /// on that stream. (Parameter, tile) pairs fan out across `qdp_par`
    /// only when their work (rows × amplitudes × program ops) pays for a
    /// fork; a single small row runs on the calling thread.
    ///
    /// The set-up is per call and shared by all rows and parameters: each
    /// parameter's value is looked up once and gathered into every
    /// multiset's slot order through a map the engine builds on its first
    /// shot gradient; `ZA ⊗ O` is decomposed once; each multiset's
    /// skeleton is looked up by pointer under its memoised key (see
    /// [`Differentiated::skeleton`]) and its programs bound to one table of
    /// the valuation's matrices, with no program copied. A parameter with
    /// one derivative program draws no program indices.
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
        let skeletons: Vec<Arc<CompiledSkeleton>> =
            self.diffs.values().map(Differentiated::skeleton).collect();
        let slots = self.shot_slots.get_or_init(|| {
            let names: Vec<&String> = self.diffs.keys().collect();
            skeletons
                .iter()
                .map(|skeleton| {
                    skeleton
                        .lowered()
                        .param_names()
                        .iter()
                        .map(|name| {
                            // Infallible: derivative programs use only the
                            // program's own parameters.
                            #[allow(clippy::expect_used)]
                            names
                                .binary_search(&name)
                                .expect("derivative parameters are engine parameters")
                        })
                        .collect()
                })
                .collect()
        });
        let values: Vec<Option<f64>> = self.diffs.keys().map(|name| params.get(name)).collect();
        let engines: Vec<Vec<qdp_sim::ShotEngine>> = skeletons
            .iter()
            .zip(slots)
            .map(|(skeleton, slots)| {
                let slot_values: Vec<f64> = slots
                    .iter()
                    .map(|&k| {
                        values[k].unwrap_or_else(|| {
                            let name = self.diffs.keys().nth(k).map_or("", String::as_str);
                            panic!("parameter '{name}' has no value")
                        })
                    })
                    .collect();
                skeleton.lowered().shot_engines(&slot_values).collect()
            })
            .collect();
        let multisets: Vec<&[qdp_sim::ShotEngine]> = engines.iter().map(Vec::as_slice).collect();
        let readout = qdp_sim::ProjectiveObservable::new(&obs.with_ancilla_z());
        let ext_inputs: Vec<StateVector> = inputs
            .iter()
            .map(|psi| StateVector::zero_state(1).tensor(psi))
            .collect();
        let streams: Vec<Vec<u64>> = (0..multisets.len() as u64)
            .map(|j| row_seeds.iter().map(|&seed| qdp_sim::derive_seed(seed, j)).collect())
            .collect();
        let per_param =
            qdp_sim::estimate_batch(&multisets, &readout, &ext_inputs, shots_per_param, &streams)
                .unwrap_or_else(|e| panic!("{e}"));
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

    /// Forward values `tr(O·[[P(θ*)]]|ψr⟩⟨ψr|)` for every row of a batch:
    /// [`value_and_gradient_batch`](Self::value_and_gradient_batch)'s
    /// values, bit for bit, without the gradient sweep, for a valuation
    /// keyed by name.
    ///
    /// Runs on the **lowered** adjoint multiset (resolved indices,
    /// interned slots, gate matrices built once per batch, swept by
    /// [`LoweredSet::expectation_batch`](crate::LoweredSet::expectation_batch)),
    /// unmonitored: no health checks and no mass budget. That multiset is
    /// the program itself when it is normal, and its compiled multiset,
    /// summed in multiset order, when it has `+` (Proposition 3.1).
    /// Agrees with the per-row oracles
    /// ([`LoweredProgram::expectation_pure`](crate::LoweredProgram::expectation_pure)
    /// and the interpreter's `denot::expectation_pure`) to ≪ 1e-12 on
    /// every row.
    ///
    /// # Panics
    ///
    /// Panics when a used parameter has no value or the batch register
    /// does not match the program's.
    pub fn value_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<f64> {
        let skeleton = self.adjoint_skeleton();
        let lowered = skeleton.lowered();
        lowered.expectation_batch(&lowered.slot_values(params), states, obs)
    }

    /// The full gradient for **every** row of a batch, keyed by parameter
    /// name: [`value_and_gradient_batch`](Self::value_and_gradient_batch)'s
    /// gradient rows, bit for bit, without the value sweep, for a
    /// valuation keyed by name.
    ///
    /// The gradient runs by the adjoint method
    /// ([`LoweredSet::gradient_batch`](crate::LoweredSet::gradient_batch)).
    /// One sweep runs the forward program over the batch as a depth-first
    /// walk of its branch tree, measurement forks included, and sets the
    /// costate `λ = Oφ` at each leaf. Walking back, it undoes every gate
    /// on the state and the costate, adds each parameterised gate's term,
    /// and sums the outcomes' costates at each fork. That costs a few
    /// forward passes on `2ⁿ` amplitudes, where running each parameter's
    /// derivative programs costs `Σj |#∂/∂θj|` programs on `2^(n+1)`. By
    /// Theorem 6.2 both compute the same derivatives: each entry agrees
    /// with the parameter's multiset swept on its own (the named oracle,
    /// [`Differentiated::skeleton`]'s
    /// [`LoweredSet::expectation_batch`](crate::LoweredSet::expectation_batch)
    /// on `|0⟩⊗ψ` with `Z_A⊗O`) within 1e-12
    /// (`crates/core/tests/adjoint_oracle.rs`). Column `j` carries the bits
    /// of parameter `j`'s [`Differentiated::derivative_pure_batch`], and
    /// every entry is bit-for-bit the same under any thread count and
    /// batch composition (`crates/core/tests/batch_equivalence.rs`). Large
    /// batches split into row tiles across `qdp_par`. The sweep's forks
    /// run unmonitored, as every exact sweep's do: no health checks and no
    /// mass budget.
    ///
    /// # Panics
    ///
    /// Panics when a used parameter has no value or the batch register
    /// does not match the program's.
    pub fn gradient_pure_batch(
        &self,
        params: &Params,
        obs: &Observable,
        states: &BatchedStates,
    ) -> Vec<BTreeMap<String, f64>> {
        let skeleton = self.adjoint_skeleton();
        let lowered = skeleton.lowered();
        let gradient = self.dense_gradient(lowered, &lowered.slot_values(params), states, obs);
        let width = self.diffs.len();
        (0..states.len())
            .map(|r| {
                self.diffs
                    .keys()
                    .cloned()
                    .zip(gradient[r * width..(r + 1) * width].iter().copied())
                    .collect()
            })
            .collect()
    }

    /// Exact values and the full gradient of every row of a batch, dense:
    /// the valuation enters as one value per parameter in
    /// [`parameters`](Self::parameters) order, and the gradient comes back
    /// row-major in that order ([`DenseEvaluation`]), with no parameter
    /// name looked up or copied.
    ///
    /// One lookup of the adjoint skeleton serves two sweeps of it: the
    /// values are [`LoweredSet::expectation_batch`](crate::LoweredSet::expectation_batch)'s,
    /// the bits [`value_pure_batch`](Self::value_pure_batch) returns, and
    /// the gradient is [`LoweredSet::gradient_batch`](crate::LoweredSet::gradient_batch)'s
    /// columns, the bits [`gradient_pure_batch`](Self::gradient_pure_batch)
    /// returns. A parameter the lowering never reaches gets a zero column.
    /// Which slot serves which parameter is worked out once per engine.
    /// Both sweeps run unmonitored, and every entry is bit-for-bit the
    /// same under any thread count and batch composition. A program with
    /// `+` runs on its compiled multiset, summed in multiset order.
    ///
    /// # Panics
    ///
    /// Panics when `values` does not hold one value per parameter or the
    /// batch register does not match the program's.
    pub fn value_and_gradient_batch(
        &self,
        values: &[f64],
        obs: &Observable,
        states: &BatchedStates,
    ) -> DenseEvaluation {
        assert_eq!(
            values.len(),
            self.diffs.len(),
            "one value per engine parameter, in parameters() order"
        );
        let skeleton = self.adjoint_skeleton();
        let lowered = skeleton.lowered();
        let slot_values: Vec<f64> = self
            .slot_index(lowered)
            .param
            .iter()
            .map(|&j| values[j])
            .collect();
        DenseEvaluation {
            values: lowered.expectation_batch(&slot_values, states, obs),
            gradient: self.dense_gradient(lowered, &slot_values, states, obs),
            parameters: self.diffs.len(),
        }
    }

    /// The skeleton of the [`adjoint_multiset`], which every exact value
    /// and gradient sweeps; a warm call matches it by pointer.
    fn adjoint_skeleton(&self) -> Arc<CompiledSkeleton> {
        ProgramCache::global().intern_shared(&self.adjoint)
    }

    fn slot_index(&self, lowered: &LoweredSet) -> &SlotIndex {
        self.slot_index
            .get_or_init(|| SlotIndex::new(self.diffs.keys(), lowered))
    }

    /// The adjoint gradient at `slot_values`, row-major in the engine's
    /// parameter order.
    fn dense_gradient(
        &self,
        lowered: &LoweredSet,
        slot_values: &[f64],
        states: &BatchedStates,
        obs: &Observable,
    ) -> Vec<f64> {
        let columns = lowered.gradient_batch(slot_values, states, obs);
        let slots = &self.slot_index(lowered).slot;
        let width = slots.len();
        // A parameter without a slot keeps its zero column.
        let mut gradient = vec![0.0; states.len() * width];
        for (j, slot) in slots.iter().enumerate() {
            if let Some(s) = *slot {
                for (r, &d) in columns[s].iter().enumerate() {
                    gradient[r * width + j] = d;
                }
            }
        }
        gradient
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
            .all(|p| crate::resource::occurrence_count(self.program(), p) == 1)
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
