//! Shot-based estimation of derivatives (Section 7, “Execution”).
//!
//! On hardware one cannot read `tr((ZA⊗O)·[[P′i]]ρ)` exactly; the paper's
//! procedure estimates the sum (7.1) by treating `sum/m` as an observable on
//! the program that first draws `i` uniformly from the `m` compiled programs
//! and then runs `P′i`. A Chernoff bound gives `O(m²/δ²)` repetitions for
//! additive error `δ`, each consuming a fresh copy of the input state — the
//! resource `|#∂/∂θ(P)|` controls.

use crate::exec::Differentiated;
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::Matrix;
use qdp_sim::{
    BatchedStates, Measurement, Observable, ProjectiveObservable, ShotEngine, ShotSampler,
    StateVector, SHOT_TILE,
};

/// Runs one *sampled trajectory* of a normal program on a pure state:
/// measurement outcomes are drawn from the Born rule and the state collapses
/// accordingly. Returns `None` when the trajectory aborts.
///
/// # Panics
///
/// Panics on additive programs.
pub fn sample_trajectory(
    stmt: &Stmt,
    reg: &Register,
    params: &Params,
    psi: &StateVector,
    sampler: &mut ShotSampler,
) -> Option<StateVector> {
    let mut outcomes = Vec::new();
    sample_trajectory_traced(stmt, reg, params, psi, sampler, &mut outcomes)
}

/// [`sample_trajectory`] with the drawn measurement outcomes appended to
/// `outcomes` in program order (`init` resets included) — the serial
/// reference the batched [`ShotEngine`] is differentially tested against.
///
/// # Panics
///
/// Panics on additive programs.
pub fn sample_trajectory_traced(
    stmt: &Stmt,
    reg: &Register,
    params: &Params,
    psi: &StateVector,
    sampler: &mut ShotSampler,
    outcomes: &mut Vec<usize>,
) -> Option<StateVector> {
    match stmt {
        Stmt::Abort { .. } => None,
        Stmt::Skip { .. } => Some(psi.clone()),
        Stmt::Init { q } => {
            let idx = reg.indices_of(std::slice::from_ref(q))[0];
            // E_{q→0} on a pure state: branch on the current value of q,
            // then map both branches to |0⟩. Equivalent to measuring q and
            // applying X on outcome 1.
            let meas = Measurement::computational(vec![idx]);
            let (outcome, mut collapsed) = sampler.measure(psi, &meas);
            outcomes.push(outcome);
            if outcome == 1 {
                collapsed.apply_gate(&Matrix::pauli_x(), &[idx]);
            }
            Some(collapsed)
        }
        Stmt::Unitary { gate, qs } => {
            Some(psi.with_gate(&gate.matrix(params), &reg.indices_of(qs)))
        }
        Stmt::Seq(a, b) => {
            let mid = sample_trajectory_traced(a, reg, params, psi, sampler, outcomes)?;
            sample_trajectory_traced(b, reg, params, &mid, sampler, outcomes)
        }
        Stmt::Case { qs, arms } => {
            let meas = Measurement::computational(reg.indices_of(qs));
            let (outcome, collapsed) = sampler.measure(psi, &meas);
            outcomes.push(outcome);
            sample_trajectory_traced(&arms[outcome], reg, params, &collapsed, sampler, outcomes)
        }
        Stmt::While { .. } => {
            sample_trajectory_traced(&stmt.unfold_while_once(), reg, params, psi, sampler, outcomes)
        }
        Stmt::Sum(..) => panic!("sample_trajectory is defined on normal programs"),
    }
}

/// A shot-based estimate of the derivative computed by a [`Differentiated`]
/// artifact on a pure input — the **serial per-shot reference loop**.
///
/// Each shot: draw `i` uniformly from the `m` compiled programs, run a
/// sampled trajectory of `P′i` on `|0⟩A ⊗ |ψ⟩`, sample the observable
/// `ZA ⊗ O` once (0 when the trajectory aborted), and scale by `m`.
/// The estimator is unbiased for the exact derivative.
///
/// This interprets the AST one shot at a time on a single state; it is kept
/// as the oracle and benchmark baseline of
/// [`estimate_derivative_batched`], which spends the same budget in batched
/// trajectory sweeps (`estimator_shots` in `BENCH_sim.json` tracks the
/// gap).
///
/// Returns 0 when the derivative multiset is empty.
pub fn estimate_derivative(
    diff: &Differentiated,
    params: &Params,
    obs: &Observable,
    psi: &StateVector,
    shots: usize,
    sampler: &mut ShotSampler,
) -> f64 {
    assert!(shots > 0, "need at least one shot");
    let m = diff.compiled().len();
    if m == 0 {
        return 0.0;
    }
    let ext_obs = obs.with_ancilla_z();
    let ext_psi = StateVector::zero_state(1).tensor(psi);
    let mut acc = 0.0;
    for _ in 0..shots {
        let i = sampler.uniform_index(m);
        let program = &diff.compiled()[i];
        match sample_trajectory(program, diff.ext_register(), params, &ext_psi, sampler) {
            None => {}
            Some(final_state) => {
                acc += sampler.sample_observable(&final_state, &ext_obs);
            }
        }
    }
    m as f64 * acc / shots as f64
}

/// A batched shot-noise estimate of the same sum — the production path.
///
/// The estimator is statistically identical to [`estimate_derivative`]
/// (uniform program draws, Born-rule trajectories, one `ZA ⊗ O` sample per
/// shot, scaled by `m`) but spends the Chernoff budget in **batched
/// trajectory sweeps**:
///
/// * each compiled program is resolved **once** per call
///   (`ResolvedProgram` → [`qdp_sim::TrajProgram`]): every gate matrix is
///   built a single time and the `ZA ⊗ O` eigendecomposition is hoisted
///   out of the shot loop entirely,
/// * the per-shot program indices are drawn **up front** from the master
///   stream `ShotSampler::seeded(seed)`,
/// * shots are split into fixed [`SHOT_TILE`]-sized tiles fanned out
///   across `qdp_par`; within a tile, same-program shots form one
///   [`BatchedStates`] block per program (one row per shot) that a
///   [`ShotEngine`] sweeps with branch-grouped batching,
/// * shot `s` draws its trajectory and read-out from the derived stream
///   `ShotSampler::derived(seed, s)` wherever it runs, and tile sums are
///   reduced in tile order.
///
/// The last two points make the result **bit-for-bit identical under any
/// thread count** for a fixed `seed` — the determinism contract CI pins
/// under forced 1/2/8-thread configurations.
///
/// Returns 0 when the derivative multiset is empty.
///
/// # Panics
///
/// Panics when `shots` is zero or a used parameter has no value.
pub fn estimate_derivative_batched(
    diff: &Differentiated,
    params: &Params,
    obs: &Observable,
    psi: &StateVector,
    shots: usize,
    seed: u64,
) -> f64 {
    PreparedDerivativeEstimator::new(diff, params, obs).estimate(psi, shots, seed)
}

/// [`estimate_derivative_batched`] split into its per-valuation setup and
/// its per-evaluation sweep: programs resolved into [`ShotEngine`]s and
/// the `ZA ⊗ O` read-out eigendecomposed **once**, reusable across
/// arbitrarily many inputs and seeds. Batch evaluators (the shot-noise
/// `Trainer` sweeping a dataset) build one per parameter per epoch and
/// share it across the row fan-out.
#[derive(Clone, Debug)]
pub struct PreparedDerivativeEstimator {
    engines: Vec<ShotEngine>,
    readout: ProjectiveObservable,
}

/// The valuation-independent half of a [`PreparedDerivativeEstimator`]:
/// the interned compiled skeleton (trajectory templates with constant
/// matrices final) and the decomposed `ZA ⊗ O` read-out. Everything here
/// depends only on (program, observable) — **not** on the parameter
/// values — so a caller evaluating many valuations (a parameter-shift
/// sweep, a training loop) builds this once and calls
/// [`prepare`](Self::prepare) per valuation, which re-patches only the
/// shifted parameter slots.
#[derive(Clone, Debug)]
pub struct DerivativeEstimatorSkeleton {
    skeleton: std::sync::Arc<crate::cache::CompiledSkeleton>,
    readout: ProjectiveObservable,
}

impl DerivativeEstimatorSkeleton {
    /// Interns the compiled multiset of `diff` (shared across the process
    /// via [`crate::ProgramCache`]) and decomposes the extended read-out.
    pub fn new(diff: &Differentiated, obs: &Observable) -> Self {
        DerivativeEstimatorSkeleton {
            skeleton: diff.skeleton(),
            readout: ProjectiveObservable::new(&obs.with_ancilla_z()),
        }
    }

    /// Substitutes one valuation: clones the trajectory templates and
    /// overwrites only the parameterized matrices
    /// ([`crate::TrajSkeleton::at`]). Bit-identical to resolving the
    /// multiset from scratch under the same valuation.
    ///
    /// # Panics
    ///
    /// Panics when a used parameter has no value.
    pub fn prepare(&self, params: &Params) -> PreparedDerivativeEstimator {
        let values = self.skeleton.lowered().slot_values(params);
        PreparedDerivativeEstimator {
            engines: (0..self.skeleton.trajectories().len())
                .map(|i| ShotEngine::new(self.skeleton.trajectory_at(i, &values)))
                .collect(),
            readout: self.readout.clone(),
        }
    }
}

impl PreparedDerivativeEstimator {
    /// Resolves the compiled multiset of `diff` under `params` and
    /// decomposes the extended read-out — the one-valuation convenience
    /// form of [`DerivativeEstimatorSkeleton::new`] +
    /// [`prepare`](DerivativeEstimatorSkeleton::prepare); multi-valuation
    /// callers should hold the skeleton instead.
    ///
    /// # Panics
    ///
    /// Panics when a used parameter has no value.
    pub fn new(diff: &Differentiated, params: &Params, obs: &Observable) -> Self {
        DerivativeEstimatorSkeleton::new(diff, obs).prepare(params)
    }

    /// The number of compiled programs `m` of the underlying multiset.
    pub fn num_programs(&self) -> usize {
        self.engines.len()
    }

    /// One batched derivative estimate — identical bits to
    /// [`estimate_derivative_batched`] with the same arguments.
    ///
    /// # Panics
    ///
    /// Panics when `shots` is zero.
    pub fn estimate(&self, psi: &StateVector, shots: usize, seed: u64) -> f64 {
        self.try_estimate(psi, shots, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`estimate`](Self::estimate): worker-panic
    /// exhaustion surfaces as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`qdp_sim::QdpError::WorkerPanic`] when a shot tile
    /// panicked and the bounded bit-identical retries did not heal it.
    ///
    /// # Panics
    ///
    /// Panics when `shots` is zero.
    pub fn try_estimate(
        &self,
        psi: &StateVector,
        shots: usize,
        seed: u64,
    ) -> Result<f64, qdp_sim::QdpError> {
        assert!(shots > 0, "need at least one shot");
        let m = self.engines.len();
        if m == 0 {
            return Ok(0.0);
        }
        let ext_psi = StateVector::zero_state(1).tensor(psi);

        // Per-shot program indices, drawn up front from the master stream.
        let mut master = ShotSampler::seeded(seed);
        let indices: Vec<u32> = (0..shots).map(|_| master.uniform_index(m) as u32).collect();

        let tiles: Vec<(usize, &[u32])> = indices
            .chunks(SHOT_TILE)
            .enumerate()
            .map(|(t, chunk)| (t * SHOT_TILE, chunk))
            .collect();
        let tile_sums = qdp_par::try_par_map_retry(&tiles, |&(start, chunk)| {
            let mut acc = 0.0;
            for (prog, engine) in self.engines.iter().enumerate() {
                // The tile's shots of this program become one batch row
                // each.
                let shot_ids: Vec<usize> = chunk
                    .iter()
                    .enumerate()
                    .filter(|&(_, &ix)| ix as usize == prog)
                    .map(|(r, _)| start + r)
                    .collect();
                if shot_ids.is_empty() {
                    continue;
                }
                let batch = BatchedStates::repeat(&ext_psi, shot_ids.len());
                let mut samplers: Vec<ShotSampler> = shot_ids
                    .iter()
                    .map(|&s| ShotSampler::derived(seed, s as u64))
                    .collect();
                acc += engine
                    .sample_sweep(batch, &mut samplers, &self.readout)
                    .into_iter()
                    .sum::<f64>();
            }
            acc
        }, TILE_RETRIES)
        .map_err(qdp_sim::QdpError::from)?;
        Ok(m as f64 * tile_sums.into_iter().sum::<f64>() / shots as f64)
    }
}

/// Bounded retry budget for panicked worker tiles: tiles are pure per
/// call (fresh batch, fresh derived streams), so a retry is bit-identical
/// to a first-try success, and two retries heal any transient fault the
/// fault-injection suite models.
const TILE_RETRIES: usize = 2;

/// The shot budget the Chernoff analysis prescribes for precision `delta`
/// given `m` compiled programs — the single workspace definition lives in
/// the simulator ([`qdp_sim::chernoff_shots`]); this is a re-export.
pub use qdp_sim::chernoff_shots;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::differentiate;
    use qdp_lang::parse_program;

    #[test]
    fn trajectory_of_deterministic_program() {
        let p = parse_program("q1 *= X; q1 *= X").unwrap();
        let reg = Register::from_program(&p);
        let mut sampler = ShotSampler::seeded(5);
        let out = sample_trajectory(&p, &reg, &Params::new(), &StateVector::zero_state(1), &mut sampler)
            .unwrap();
        assert_eq!(out.classical_bit(0), Some(false));
    }

    #[test]
    fn trajectory_aborts_on_abort() {
        let p = parse_program("q1 *= X; abort[q1]").unwrap();
        let reg = Register::from_program(&p);
        let mut sampler = ShotSampler::seeded(5);
        assert!(sample_trajectory(
            &p,
            &reg,
            &Params::new(),
            &StateVector::zero_state(1),
            &mut sampler
        )
        .is_none());
    }

    #[test]
    fn trajectory_init_resets_qubit() {
        let p = parse_program("q1 *= H; q1 := |0>").unwrap();
        let reg = Register::from_program(&p);
        let mut sampler = ShotSampler::seeded(11);
        for _ in 0..10 {
            let out = sample_trajectory(
                &p,
                &reg,
                &Params::new(),
                &StateVector::zero_state(1),
                &mut sampler,
            )
            .unwrap();
            assert_eq!(out.classical_bit(0), Some(false));
        }
    }

    #[test]
    fn trajectory_case_branches_statistically() {
        let p = parse_program("q1 *= H; case M[q1] = 0 -> skip[q1], 1 -> q1 *= X end").unwrap();
        let reg = Register::from_program(&p);
        let mut sampler = ShotSampler::seeded(21);
        // Both branches end in |0⟩ (identity or X after measuring 1).
        for _ in 0..20 {
            let out = sample_trajectory(
                &p,
                &reg,
                &Params::new(),
                &StateVector::zero_state(1),
                &mut sampler,
            )
            .unwrap();
            assert_eq!(out.classical_bit(0), Some(false));
        }
    }

    #[test]
    fn estimator_is_consistent_with_exact_derivative() {
        let p = parse_program("q1 *= RY(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.8)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let exact = diff.derivative_pure(&params, &obs, &psi);
        let mut sampler = ShotSampler::seeded(2024);
        let estimate = estimate_derivative(&diff, &params, &obs, &psi, 60_000, &mut sampler);
        assert!(
            (estimate - exact).abs() < 0.03,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn estimator_handles_multi_program_multisets() {
        // Two occurrences of t → m = 2 compiled programs.
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        assert_eq!(diff.compiled().len(), 2);
        let params = Params::from_pairs([("t", 0.5)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let exact = diff.derivative_pure(&params, &obs, &psi);
        let mut sampler = ShotSampler::seeded(7);
        let estimate = estimate_derivative(&diff, &params, &obs, &psi, 80_000, &mut sampler);
        assert!(
            (estimate - exact).abs() < 0.05,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn estimator_of_parameterless_program_is_zero() {
        let p = parse_program("q1 *= H").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        assert!(diff.compiled().is_empty());
        let mut sampler = ShotSampler::seeded(1);
        let est = estimate_derivative(
            &diff,
            &Params::new(),
            &Observable::pauli_z(1, 0),
            &StateVector::zero_state(1),
            10,
            &mut sampler,
        );
        assert_eq!(est, 0.0);
    }

    #[test]
    fn chernoff_budget_grows_with_m() {
        assert!(chernoff_shots(4, 0.1) > chernoff_shots(2, 0.1));
    }

    #[test]
    fn batched_estimator_is_consistent_with_exact_derivative() {
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.5)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let exact = diff.derivative_pure(&params, &obs, &psi);
        let estimate = estimate_derivative_batched(&diff, &params, &obs, &psi, 80_000, 7);
        assert!(
            (estimate - exact).abs() < 0.05,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn batched_estimator_handles_control_flow_programs() {
        let p = parse_program(
            "q1 *= RX(t); case M[q1] = 0 -> q1 *= RY(t), 1 -> q1 *= RZ(t) end; \
             while[2] M[q1] = 1 do q1 *= RY(t) done",
        )
        .unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 1.1)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let exact = diff.derivative_pure(&params, &obs, &psi);
        let estimate = estimate_derivative_batched(&diff, &params, &obs, &psi, 120_000, 77);
        assert!(
            (estimate - exact).abs() < 0.06,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn batched_estimator_of_parameterless_program_is_zero() {
        let p = parse_program("q1 *= H").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        assert!(diff.compiled().is_empty());
        let est = estimate_derivative_batched(
            &diff,
            &Params::new(),
            &Observable::pauli_z(1, 0),
            &StateVector::zero_state(1),
            10,
            1,
        );
        assert_eq!(est, 0.0);
    }

    #[test]
    fn batched_estimator_is_reproducible_per_seed() {
        let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.9)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let run = |seed: u64| estimate_derivative_batched(&diff, &params, &obs, &psi, 3000, seed);
        assert_eq!(run(4).to_bits(), run(4).to_bits());
        assert_ne!(run(4).to_bits(), run(5).to_bits());
    }

    #[test]
    fn estimator_handles_control_flow_programs() {
        // Derivative programs of a case statement contain measurements that
        // the trajectory sampler must resolve shot by shot.
        let p = parse_program(
            "q1 *= RX(t); case M[q1] = 0 -> q1 *= RY(t), 1 -> q1 *= RZ(t) end",
        )
        .unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 1.1)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let exact = diff.derivative_pure(&params, &obs, &psi);
        let mut sampler = ShotSampler::seeded(77);
        let estimate = estimate_derivative(&diff, &params, &obs, &psi, 120_000, &mut sampler);
        assert!(
            (estimate - exact).abs() < 0.05,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn estimator_handles_bounded_while() {
        let p = parse_program("q1 *= RY(t); while[2] M[q1] = 1 do q1 *= RY(t) done").unwrap();
        let diff = differentiate(&p, "t").unwrap();
        let params = Params::from_pairs([("t", 0.7)]);
        let obs = Observable::pauli_z(1, 0);
        let psi = StateVector::zero_state(1);
        let exact = diff.derivative_pure(&params, &obs, &psi);
        let mut sampler = ShotSampler::seeded(3);
        let estimate = estimate_derivative(&diff, &params, &obs, &psi, 120_000, &mut sampler);
        assert!(
            (estimate - exact).abs() < 0.07,
            "estimate {estimate} vs exact {exact}"
        );
    }
}
