//! Training loop for variational quantum classifiers (Section 8.1).
//!
//! Gradients of the loss flow through two stages: the classical chain rule
//! on the loss (`dL/d pred`) and the quantum derivative of the read-out
//! (`d pred/dθj`), the latter computed by the paper's code-transformation
//! scheme via [`qdp_ad::GradientEngine`]. Training is full-batch gradient
//! descent, exactly as in the paper's case study.
//!
//! The dataset is packed once into a [`BatchedStates`] block at
//! construction; every forward and gradient pass then evaluates the
//! compiled multisets against **all** samples in one batched sweep
//! (`GradientEngine::value_pure_batch` / `gradient_pure_batch`) instead of
//! looping the per-sample engine — parameter slots and gate matrices are
//! resolved once per epoch and shared by the whole batch. The results are
//! numerically identical to the per-sample loop (see
//! `crates/core/tests/batch_equivalence.rs`).

use crate::loss::Loss;
use crate::optim::Optimizer;
use qdp_ad::{GradientEngine, TransformError};
use qdp_lang::ast::{Params, Stmt};
use qdp_sim::{derive_seed, BatchedStates, Observable, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A labelled pure-state dataset.
pub type Dataset = Vec<(StateVector, f64)>;

/// Configuration of the trainer's hardware-realistic **shot-noise mode**:
/// every prediction and every quantum derivative is estimated from sampled
/// trajectories through the batched shot engine (Section 7's execution
/// model) instead of read off the exact simulator.
///
/// Streams derive deterministically from `seed`: epoch `e` uses
/// `derive_seed(seed, e)`, sample `r` of that epoch draws its forward
/// estimate from sub-stream `2r` and its gradient estimates from `2r + 1`
/// — a fixed seed reproduces a training run bit for bit under any thread
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShotNoise {
    /// Trajectories per forward (prediction) estimate.
    pub value_shots: usize,
    /// Trajectories per parameter-derivative estimate. For the Chernoff
    /// guarantee pass `chernoff_shots(m, δ)`; smaller budgets trade
    /// gradient accuracy for wall time.
    pub gradient_shots: usize,
    /// Master seed of the run's shot streams.
    pub seed: u64,
}

/// A resumable snapshot of a [`Trainer`]'s training position: the epoch
/// counter, every parameter value, and the shot-noise configuration.
///
/// Because all of the trainer's randomness derives from
/// `(ShotNoise::seed, epoch)` — epoch `e` uses `derive_seed(seed, e)`,
/// with per-sample sub-streams `2r` / `2r + 1` below that — these three
/// pieces are the *entire* training state: restoring a checkpoint into a
/// fresh trainer over the same program and dataset and continuing
/// produces **bit-identical** parameters to the uninterrupted run.
/// Optimizer state is not carried; pair checkpoints with a stateless
/// optimizer (plain [`crate::optim::GradientDescent`]) or persist the
/// optimizer separately.
///
/// [`serialize`](Self::serialize) round-trips through a line-oriented text
/// format with every `f64` written as the hex of its IEEE-754 bits, so a
/// file round trip is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The shot-noise epoch counter at snapshot time.
    pub epoch: u64,
    /// Every parameter's value at snapshot time.
    pub params: BTreeMap<String, f64>,
    /// The shot-noise configuration (`None` = exact mode).
    pub shot_noise: Option<ShotNoise>,
}

/// A structured [`Checkpoint::deserialize`] failure. Restoring is
/// all-or-nothing: any of these means nothing was parsed into a trainer,
/// so a corrupt or truncated file can never silently restore a partial —
/// or bit-garbled — training position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input leads with a `qdp-checkpoint` header of a version this
    /// build does not read — a real checkpoint from a different release,
    /// not line noise.
    VersionMismatch {
        /// The header line as found.
        found: String,
    },
    /// The input does not lead with a checkpoint header at all (`None` =
    /// empty input).
    BadHeader {
        /// The first line as found.
        found: Option<String>,
    },
    /// The required `epoch` line never appeared — the classic signature
    /// of a file truncated near its start.
    MissingEpoch,
    /// A body line failed to parse; `what` names the defect.
    MalformedLine {
        /// The offending line.
        line: String,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found } => {
                write!(f, "unsupported checkpoint version: {found:?} (this build reads v1)")
            }
            CheckpointError::BadHeader { found } => {
                write!(f, "bad checkpoint header: {found:?}")
            }
            CheckpointError::MissingEpoch => {
                write!(f, "checkpoint is missing the epoch line (truncated file?)")
            }
            CheckpointError::MalformedLine { line, what } => {
                write!(f, "malformed checkpoint line {line:?}: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Renders the checkpoint as a line-oriented text block (`f64`s as
    /// hex bit patterns, so deserialization is bit-exact).
    pub fn serialize(&self) -> String {
        let mut out = String::from("qdp-checkpoint v1\n");
        out.push_str(&format!("epoch {}\n", self.epoch));
        if let Some(cfg) = &self.shot_noise {
            out.push_str(&format!(
                "shots {} {} {}\n",
                cfg.value_shots, cfg.gradient_shots, cfg.seed
            ));
        }
        for (name, value) in &self.params {
            out.push_str(&format!("param {name} {:016x}\n", value.to_bits()));
        }
        out
    }

    /// Parses a checkpoint produced by [`serialize`](Self::serialize).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on the first defect: an
    /// unsupported header version, a missing epoch, or a malformed line.
    /// Parameter payloads must be **exactly 16 hex digits** — the width
    /// `serialize` writes for an `f64`'s bits. A bare `from_str_radix`
    /// would happily accept a truncated payload (`"3ff"` parses to a tiny
    /// garbage double) or a `+` sign prefix, silently restoring corrupted
    /// values; the width check turns every such truncation into an error.
    pub fn deserialize(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        match lines.next() {
            Some("qdp-checkpoint v1") => {}
            Some(other) if other.starts_with("qdp-checkpoint ") => {
                return Err(CheckpointError::VersionMismatch { found: other.to_string() });
            }
            other => {
                return Err(CheckpointError::BadHeader { found: other.map(str::to_string) });
            }
        }
        let malformed = |line: &str, what: &'static str| CheckpointError::MalformedLine {
            line: line.to_string(),
            what,
        };
        let mut epoch = None;
        let mut shot_noise = None;
        let mut params = BTreeMap::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["epoch", e] => {
                    epoch = Some(
                        e.parse::<u64>()
                            .map_err(|_| malformed(line, "epoch must be a decimal u64"))?,
                    );
                }
                ["shots", v, g, s] => {
                    let parse = |x: &str| {
                        x.parse::<u64>()
                            .map_err(|_| malformed(line, "shots fields must be decimal u64s"))
                    };
                    shot_noise = Some(ShotNoise {
                        value_shots: parse(v)? as usize,
                        gradient_shots: parse(g)? as usize,
                        seed: parse(s)?,
                    });
                }
                ["param", name, bits] => {
                    if bits.len() != 16 || !bits.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(malformed(
                            line,
                            "param payload must be exactly 16 hex digits",
                        ));
                    }
                    let bits = u64::from_str_radix(bits, 16)
                        .map_err(|_| malformed(line, "param payload must be exactly 16 hex digits"))?;
                    params.insert(name.to_string(), f64::from_bits(bits));
                }
                _ => return Err(malformed(line, "unrecognised checkpoint line")),
            }
        }
        Ok(Checkpoint {
            epoch: epoch.ok_or(CheckpointError::MissingEpoch)?,
            params,
            shot_noise,
        })
    }
}

/// A full-batch trainer for one program and read-out observable.
///
/// # Examples
///
/// ```
/// use qdp_vqc::circuits::p1;
/// use qdp_vqc::loss::SquaredLoss;
/// use qdp_vqc::optim::GradientDescent;
/// use qdp_vqc::task;
/// use qdp_vqc::train::Trainer;
///
/// let data = task::dataset()
///     .into_iter()
///     .map(|s| (s.input_state(), s.target()))
///     .collect();
/// let mut trainer = Trainer::new(&p1(), task::readout_observable(), data)?;
/// trainer.init_params_seeded(42);
/// let history = trainer.train(3, &SquaredLoss, &mut GradientDescent::new(0.2));
/// assert_eq!(history.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Trainer {
    engine: Arc<GradientEngine>,
    observable: Observable,
    /// The dataset's input states packed contiguously — built once, reused
    /// by every batched forward/gradient sweep (the only copy held).
    batch: BatchedStates,
    /// The dataset's labels in row order.
    labels: Vec<f64>,
    params: BTreeMap<String, f64>,
    /// `Some` puts every evaluation on the shot-noise estimators.
    shot_noise: Option<ShotNoise>,
    /// Epoch counter of shot-noise mode — each [`epoch`](Self::epoch)
    /// advances it so successive steps draw fresh noise streams.
    shot_epoch: u64,
}

impl Trainer {
    /// Builds a trainer, differentiating the program with respect to every
    /// parameter up front (the compile-time phase) and packing the dataset
    /// into one contiguous batch.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] when the program contains gates outside
    /// the differentiable fragment.
    pub fn new(
        program: &Stmt,
        observable: Observable,
        dataset: Dataset,
    ) -> Result<Self, TransformError> {
        let engine = Arc::new(GradientEngine::new(program)?);
        Ok(Self::with_engine(engine, observable, dataset))
    }

    /// Builds a trainer over an **already-compiled** engine — the engine
    /// a [`qdp_ad::GradientService`] hands out for a registered program,
    /// so the trainer and the service share one set of interned compiled
    /// artifacts instead of differentiating and lowering the program a
    /// second time.
    pub fn with_engine(
        engine: Arc<GradientEngine>,
        observable: Observable,
        dataset: Dataset,
    ) -> Self {
        let params = engine
            .parameters()
            .map(|name| (name.to_string(), 0.0))
            .collect();
        let (inputs, labels): (Vec<StateVector>, Vec<f64>) = dataset.into_iter().unzip();
        Trainer {
            engine,
            observable,
            batch: BatchedStates::from_states(&inputs),
            labels,
            params,
            shot_noise: None,
            shot_epoch: 0,
        }
    }

    /// Switches between exact evaluation (`None`, the default) and
    /// shot-noise mode: with `Some(cfg)`, [`predictions`](Self::predictions),
    /// [`loss_value`](Self::loss_value), [`loss_gradient`](Self::loss_gradient)
    /// and [`accuracy`](Self::accuracy) all run on sampled-trajectory
    /// estimates — training sees exactly what a hardware run would report.
    pub fn set_shot_noise(&mut self, cfg: Option<ShotNoise>) {
        self.shot_noise = cfg;
    }

    /// The active shot-noise configuration, if any.
    pub fn shot_noise(&self) -> Option<ShotNoise> {
        self.shot_noise
    }

    /// Initialises all parameters uniformly in `[0, 2π)` from a seed.
    pub fn init_params_seeded(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for value in self.params.values_mut() {
            *value = rng.gen::<f64>() * std::f64::consts::TAU;
        }
    }

    /// Current parameter values.
    pub fn params(&self) -> &BTreeMap<String, f64> {
        &self.params
    }

    /// Overwrites parameter values (missing names keep their value).
    pub fn set_params(&mut self, values: &BTreeMap<String, f64>) {
        for (name, v) in values {
            if let Some(slot) = self.params.get_mut(name) {
                *slot = *v;
            }
        }
    }

    /// The underlying gradient engine.
    pub fn engine(&self) -> &GradientEngine {
        &self.engine
    }

    fn params_struct(&self) -> Params {
        Params::from_pairs(self.params.iter().map(|(k, &v)| (k.clone(), v)))
    }

    /// The derived stream of the current epoch (shot-noise mode).
    fn epoch_stream(&self, cfg: &ShotNoise) -> u64 {
        derive_seed(cfg.seed, self.shot_epoch)
    }

    /// Predictions `lθ(z)` for every sample under the current parameters —
    /// one batched sweep of the lowered forward program over all samples,
    /// or (in shot-noise mode) one trajectory-sampled estimate per sample.
    pub fn predictions(&self) -> Vec<f64> {
        let params = self.params_struct();
        match &self.shot_noise {
            None => self
                .engine
                .value_pure_batch(&params, &self.observable, &self.batch),
            Some(cfg) => {
                // One batch call: the forward program and read-out are
                // prepared once, and every row's shots (independent
                // derived streams) run in one sampled sweep per tile.
                let stream = self.epoch_stream(cfg);
                let inputs: Vec<StateVector> =
                    (0..self.batch.len()).map(|r| self.batch.row_state(r)).collect();
                let seeds: Vec<u64> = (0..self.batch.len())
                    .map(|r| derive_seed(stream, 2 * r as u64))
                    .collect();
                self.engine.value_pure_shots_batch(
                    &params,
                    &self.observable,
                    &inputs,
                    cfg.value_shots,
                    &seeds,
                )
            }
        }
    }

    /// Total loss under the current parameters, from one batched forward
    /// sweep.
    pub fn loss_value(&self, loss: &impl Loss) -> f64 {
        self.predictions()
            .iter()
            .zip(&self.labels)
            .map(|(&pred, &label)| loss.loss(pred, label))
            .sum()
    }

    /// The gradient of the total loss with respect to every parameter.
    ///
    /// One batched forward sweep produces all predictions, one batched
    /// gradient sweep produces all per-sample quantum gradients; the chain
    /// rule then accumulates `Σr dL/d predr · d predr/dθj` in sample order,
    /// so the result matches the per-sample loop it replaced.
    pub fn loss_gradient(&self, loss: &impl Loss) -> BTreeMap<String, f64> {
        self.gradient_from_predictions(loss, &self.predictions())
    }

    /// The chain rule over already-computed predictions — shared by
    /// [`loss_gradient`](Self::loss_gradient) and [`epoch`](Self::epoch)
    /// so one forward pass (exact sweep or shot estimates) serves both
    /// the reported loss and the outer derivatives.
    ///
    /// In shot-noise mode the outer derivatives thus come from the *same*
    /// estimates `predictions()` reports (identical streams): the chain
    /// rule is applied to what the hardware would have measured.
    fn gradient_from_predictions(
        &self,
        loss: &impl Loss,
        preds: &[f64],
    ) -> BTreeMap<String, f64> {
        let params = self.params_struct();
        let mut grads: BTreeMap<String, f64> =
            self.params.keys().map(|k| (k.clone(), 0.0)).collect();
        let outers: Vec<f64> = preds
            .iter()
            .zip(&self.labels)
            .map(|(&pred, &label)| loss.grad(pred, label))
            .collect();
        if outers.iter().all(|&outer| outer == 0.0) {
            return grads;
        }
        match &self.shot_noise {
            None => {
                let inner = self
                    .engine
                    .gradient_pure_batch(&params, &self.observable, &self.batch);
                for (row, outer) in inner.iter().zip(&outers) {
                    if *outer == 0.0 {
                        continue;
                    }
                    for (name, g) in row {
                        *grads.get_mut(name).expect("known parameter") += outer * g;
                    }
                }
            }
            Some(cfg) => {
                // One batch call over the rows with gradient signal: the
                // per-parameter estimators are prepared once, and each
                // program runs one sampled sweep over every row's shots
                // (independent derived streams); accumulation stays in
                // row order, so the result is deterministic under any
                // thread count.
                let stream = self.epoch_stream(cfg);
                let live: Vec<(usize, f64)> = outers
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, outer)| outer != 0.0)
                    .collect();
                let inputs: Vec<StateVector> =
                    live.iter().map(|&(r, _)| self.batch.row_state(r)).collect();
                let seeds: Vec<u64> = live
                    .iter()
                    .map(|&(r, _)| derive_seed(stream, 2 * r as u64 + 1))
                    .collect();
                let rows = self.engine.gradient_pure_shots_batch(
                    &params,
                    &self.observable,
                    &inputs,
                    cfg.gradient_shots,
                    &seeds,
                );
                for ((_, outer), row) in live.iter().zip(&rows) {
                    for (name, g) in row {
                        *grads.get_mut(name).expect("known parameter") += outer * g;
                    }
                }
            }
        }
        grads
    }

    /// One full-batch epoch: computes the loss, takes one optimizer step,
    /// and returns the *pre-step* loss (matching how training curves are
    /// usually reported). One forward pass serves both the reported loss
    /// and the chain rule. In shot-noise mode each epoch advances the
    /// noise stream first, so successive steps see fresh shots.
    pub fn epoch(&mut self, loss: &impl Loss, optimizer: &mut dyn Optimizer) -> f64 {
        self.shot_epoch = self.shot_epoch.wrapping_add(1);
        let preds = self.predictions();
        let value = preds
            .iter()
            .zip(&self.labels)
            .map(|(&pred, &label)| loss.loss(pred, label))
            .sum();
        let grads = self.gradient_from_predictions(loss, &preds);
        optimizer.step(&mut self.params, &grads);
        value
    }

    /// Snapshots the trainer's resumable state — see [`Checkpoint`] for
    /// the exact-resume contract.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            epoch: self.shot_epoch,
            params: self.params.clone(),
            shot_noise: self.shot_noise,
        }
    }

    /// Restores a [`Checkpoint`] taken from a trainer over the same
    /// program and dataset: epoch counter, parameter values (unknown
    /// names are ignored, as in [`set_params`](Self::set_params)), and
    /// shot-noise configuration. Training continued from here is
    /// bit-identical to the run the checkpoint was taken from.
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        self.shot_epoch = ckpt.epoch;
        self.set_params(&ckpt.params);
        self.shot_noise = ckpt.shot_noise;
    }

    /// Runs `epochs` epochs and returns the loss history.
    pub fn train(
        &mut self,
        epochs: usize,
        loss: &impl Loss,
        optimizer: &mut dyn Optimizer,
    ) -> Vec<f64> {
        (0..epochs).map(|_| self.epoch(loss, optimizer)).collect()
    }

    /// Runs up to `epochs` epochs, stopping at the first **epoch
    /// boundary** past the wall-clock `deadline`, and returns the loss
    /// history of the epochs that ran.
    ///
    /// The deadline changes only *how many* epochs run, never the bits of
    /// the epochs that do run: each completed epoch (its loss value, its
    /// optimizer step, its shot-noise stream position) is bit-identical to
    /// the same-index epoch of an undeadlined [`train`](Self::train) call
    /// from the same state. An epoch already under way when the deadline
    /// passes completes normally — there are no torn optimizer steps — so
    /// the overrun is bounded by one epoch.
    pub fn train_for(
        &mut self,
        epochs: usize,
        loss: &impl Loss,
        optimizer: &mut dyn Optimizer,
        deadline: Duration,
    ) -> Vec<f64> {
        let cutoff = Instant::now() + deadline;
        let mut history = Vec::new();
        for _ in 0..epochs {
            if Instant::now() >= cutoff {
                break;
            }
            history.push(self.epoch(loss, optimizer));
        }
        history
    }

    /// Classification accuracy with a 0.5 decision threshold.
    pub fn accuracy(&self) -> f64 {
        let preds = self.predictions();
        let correct = preds
            .iter()
            .zip(&self.labels)
            .filter(|(&p, &label)| (p >= 0.5) == (label >= 0.5))
            .count();
        correct as f64 / self.labels.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{p1, p2};
    use crate::loss::SquaredLoss;
    use crate::optim::GradientDescent;
    use crate::task;

    fn data() -> Dataset {
        task::dataset()
            .into_iter()
            .map(|s| (s.input_state(), s.target()))
            .collect()
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(3);
        let loss = SquaredLoss;
        let grads = trainer.loss_gradient(&loss);
        // Spot check three parameters against central differences.
        for name in ["T0", "F5", "T11"] {
            let base = trainer.params()[name];
            let h = 1e-5;
            let probe = |x: f64| {
                let mut p = trainer.params().clone();
                p.insert(name.to_string(), x);
                let mut t2 = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
                t2.set_params(&p);
                t2.loss_value(&loss)
            };
            let numeric = (probe(base + h) - probe(base - h)) / (2.0 * h);
            assert!(
                (grads[name] - numeric).abs() < 1e-6,
                "{name}: {} vs {numeric}",
                grads[name]
            );
        }
    }

    #[test]
    fn batched_loss_and_gradient_match_per_sample_loop() {
        // The pre-batch implementation: one interpreter forward and one
        // per-sample gradient per dataset row, each derivative summed over
        // its lowered multiset by per-row branch enumeration. The batched
        // trainer must reproduce it to 1e-12 on both circuits (P2
        // exercises the branching executor).
        for program in [p1(), p2()] {
            let dataset = data();
            let mut trainer =
                Trainer::new(&program, task::readout_observable(), dataset.clone()).unwrap();
            trainer.init_params_seeded(9);
            let loss = SquaredLoss;
            let params = trainer.params_struct();
            let engine = trainer.engine();
            let obs = task::readout_observable();

            let mut serial_loss = 0.0;
            let mut serial_grads: BTreeMap<String, f64> =
                trainer.params().keys().map(|k| (k.clone(), 0.0)).collect();
            let ext_obs = obs.with_ancilla_z();
            for (psi, label) in &dataset {
                let pred = qdp_lang::denot::expectation_pure(
                    engine.program(),
                    engine.register(),
                    &params,
                    psi,
                    &obs,
                );
                serial_loss += loss.loss(pred, *label);
                let outer = loss.grad(pred, *label);
                if outer == 0.0 {
                    continue;
                }
                let ext_psi = StateVector::zero_state(1).tensor(psi);
                for (name, g) in serial_grads.iter_mut() {
                    let skeleton = engine.differentiated(name).unwrap().skeleton();
                    let values = skeleton.lowered().slot_values(&params);
                    let derivative: f64 = skeleton
                        .lowered()
                        .programs()
                        .iter()
                        .map(|p| p.expectation_pure(&values, &ext_psi, &ext_obs))
                        .sum();
                    *g += outer * derivative;
                }
            }

            assert!((trainer.loss_value(&loss) - serial_loss).abs() < 1e-12);
            let batched = trainer.loss_gradient(&loss);
            for (name, s) in &serial_grads {
                assert!(
                    (batched[name] - s).abs() < 1e-12,
                    "dL/d{name}: batched {} vs serial {s}",
                    batched[name]
                );
            }
        }
    }

    #[test]
    fn training_p1_reduces_loss() {
        let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(7);
        let history = trainer.train(15, &SquaredLoss, &mut GradientDescent::new(0.3));
        assert!(history.last().unwrap() < &history[0], "{history:?}");
    }

    #[test]
    fn train_for_with_a_generous_deadline_matches_train_bitwise() {
        let mut bounded = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        bounded.init_params_seeded(7);
        let mut unbounded = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        unbounded.init_params_seeded(7);

        let history = bounded.train_for(
            8,
            &SquaredLoss,
            &mut GradientDescent::new(0.3),
            Duration::from_secs(3600),
        );
        let reference = unbounded.train(8, &SquaredLoss, &mut GradientDescent::new(0.3));
        assert_eq!(history.len(), reference.len());
        for (i, (a, b)) in history.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "epoch {i} loss diverged");
        }
        for (name, v) in bounded.params() {
            assert_eq!(
                v.to_bits(),
                unbounded.params()[name].to_bits(),
                "parameter {name} diverged"
            );
        }
    }

    #[test]
    fn train_for_with_an_expired_deadline_runs_no_epochs() {
        let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(7);
        let before = trainer.params().clone();
        let history = trainer.train_for(
            8,
            &SquaredLoss,
            &mut GradientDescent::new(0.3),
            Duration::ZERO,
        );
        assert!(history.is_empty());
        for (name, v) in trainer.params() {
            assert_eq!(v.to_bits(), before[name].to_bits(), "parameter {name} moved");
        }
    }

    #[test]
    fn training_p2_reduces_loss() {
        let mut trainer = Trainer::new(&p2(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(7);
        let history = trainer.train(10, &SquaredLoss, &mut GradientDescent::new(0.3));
        assert!(history.last().unwrap() < &history[0], "{history:?}");
    }

    #[test]
    fn shot_noise_training_p1_reduces_exact_loss() {
        // Train entirely on the hardware-realistic estimator, then judge
        // progress on the exact loss: the noisy gradients must still
        // descend on the paper's P1 classification task.
        let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(3);
        let exact_before = trainer.loss_value(&SquaredLoss);
        trainer.set_shot_noise(Some(ShotNoise {
            value_shots: 96,
            gradient_shots: 64,
            seed: 2026,
        }));
        let noisy_history = trainer.train(6, &SquaredLoss, &mut GradientDescent::new(0.25));
        assert_eq!(noisy_history.len(), 6);
        trainer.set_shot_noise(None);
        let exact_after = trainer.loss_value(&SquaredLoss);
        // Exact training from this init reaches ≈2.0 from 2.77; the noisy
        // run lands in the same basin (ratio ≈0.72 across probe seeds —
        // 0.8 leaves honest headroom).
        assert!(
            exact_after < 0.8 * exact_before,
            "shot-noise training did not descend: {exact_before} -> {exact_after}"
        );
    }

    #[test]
    fn shot_noise_training_is_reproducible_per_seed() {
        let run = |seed: u64| {
            let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
            trainer.init_params_seeded(3);
            trainer.set_shot_noise(Some(ShotNoise {
                value_shots: 32,
                gradient_shots: 32,
                seed,
            }));
            trainer.train(2, &SquaredLoss, &mut GradientDescent::new(0.2));
            trainer.params().clone()
        };
        let a = run(11);
        let b = run(11);
        for (name, v) in &a {
            assert_eq!(v.to_bits(), b[name].to_bits(), "{name}");
        }
        // A different seed draws different shots.
        let c = run(12);
        assert!(a.iter().any(|(name, v)| v.to_bits() != c[name].to_bits()));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let noise = ShotNoise { value_shots: 32, gradient_shots: 32, seed: 17 };
        let make = || {
            let mut t = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
            t.init_params_seeded(3);
            t.set_shot_noise(Some(noise));
            t
        };

        // Uninterrupted run: 6 shot-noise epochs.
        let mut straight = make();
        straight.train(6, &SquaredLoss, &mut GradientDescent::new(0.2));

        // Interrupted run: 3 epochs, checkpoint through the text format,
        // resume in a *fresh* trainer, 3 more epochs.
        let mut first_half = make();
        first_half.train(3, &SquaredLoss, &mut GradientDescent::new(0.2));
        let text = first_half.checkpoint().serialize();
        drop(first_half);
        let ckpt = Checkpoint::deserialize(&text).unwrap();
        assert_eq!(ckpt.epoch, 3);
        assert_eq!(ckpt.shot_noise, Some(noise));
        let mut resumed = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        resumed.restore(&ckpt);
        resumed.train(3, &SquaredLoss, &mut GradientDescent::new(0.2));

        for (name, v) in straight.params() {
            assert_eq!(
                v.to_bits(),
                resumed.params()[name].to_bits(),
                "{name} diverged after resume"
            );
        }
    }

    #[test]
    fn checkpoint_serialization_is_bit_exact() {
        let ckpt = Checkpoint {
            epoch: 41,
            params: BTreeMap::from([
                ("T0".to_string(), -0.0),
                ("F5".to_string(), std::f64::consts::PI),
                ("T11".to_string(), 1e-300),
            ]),
            shot_noise: None,
        };
        let round = Checkpoint::deserialize(&ckpt.serialize()).unwrap();
        assert_eq!(round.epoch, 41);
        assert_eq!(round.shot_noise, None);
        for (name, v) in &ckpt.params {
            assert_eq!(v.to_bits(), round.params[name].to_bits(), "{name}");
        }
    }

    #[test]
    fn checkpoint_deserialize_rejects_malformed_input() {
        assert!(Checkpoint::deserialize("").is_err());
        assert!(Checkpoint::deserialize("nonsense").is_err());
        assert!(Checkpoint::deserialize("qdp-checkpoint v1\n").is_err()); // no epoch
        assert!(Checkpoint::deserialize("qdp-checkpoint v1\nepoch x\n").is_err());
        assert!(
            Checkpoint::deserialize("qdp-checkpoint v1\nepoch 1\nparam T0 zz\n").is_err()
        );
        assert!(
            Checkpoint::deserialize("qdp-checkpoint v1\nepoch 1\nmystery line\n").is_err()
        );
    }

    #[test]
    fn checkpoint_deserialize_rejects_corrupt_payloads_with_typed_errors() {
        // Truncated or padded hex payloads once slipped through
        // `from_str_radix` and restored a bit-garbled f64; each must now
        // surface as a typed MalformedLine, never a silent partial restore.
        let corrupt = [
            "param t0 3ff",               // truncated payload
            "param t0 3ff00000000000000", // 17 digits
            "param t0 +ff0000000000000",  // sign prefix, 16 bytes
            "param t0 3ff000000000000g",  // non-hex digit
        ];
        for line in corrupt {
            let text = format!("qdp-checkpoint v1\nepoch 1\n{line}\n");
            match Checkpoint::deserialize(&text) {
                Err(CheckpointError::MalformedLine { what, .. }) => {
                    assert!(what.contains("16 hex"), "{line}: {what}")
                }
                other => panic!("{line}: expected MalformedLine, got {other:?}"),
            }
        }
        // A checkpoint from a future format version is told apart from
        // line noise.
        assert_eq!(
            Checkpoint::deserialize("qdp-checkpoint v2\nepoch 1\n"),
            Err(CheckpointError::VersionMismatch {
                found: "qdp-checkpoint v2".to_string()
            })
        );
        assert_eq!(
            Checkpoint::deserialize(""),
            Err(CheckpointError::BadHeader { found: None })
        );
        assert_eq!(
            Checkpoint::deserialize("qdp-checkpoint v1\n"),
            Err(CheckpointError::MissingEpoch)
        );
    }

    #[test]
    fn checkpoint_prefix_truncations_never_restore_garbage() {
        // Every byte-prefix of a real serialized checkpoint either errors
        // or parses to a checkpoint whose surviving params are bit-exact
        // copies of the originals — a torn write can lose trailing lines,
        // but it can never garble a value that does restore.
        let full = Checkpoint {
            epoch: 12,
            params: [("alpha".to_string(), -0.75), ("beta".to_string(), 1e-12)]
                .into_iter()
                .collect(),
            shot_noise: Some(ShotNoise {
                value_shots: 64,
                gradient_shots: 256,
                seed: 9,
            }),
        };
        let text = full.serialize();
        for cut in 0..text.len() {
            let prefix = &text[..cut];
            if let Ok(partial) = Checkpoint::deserialize(prefix) {
                // A cut inside the decimal epoch line can shorten the
                // number itself — inherent to the text format; the
                // hardening target is the hex f64 payloads below.
                if prefix.ends_with('\n') {
                    assert_eq!(partial.epoch, full.epoch, "prefix of {cut} bytes");
                }
                for (name, value) in &partial.params {
                    assert_eq!(
                        value.to_bits(),
                        full.params[name].to_bits(),
                        "prefix of {cut} bytes: param {name} restored garbled"
                    );
                }
            }
        }
    }

    #[test]
    fn accuracy_is_a_fraction() {
        let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(1);
        let acc = trainer.accuracy();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn epoch_reports_pre_step_loss() {
        let mut trainer = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
        trainer.init_params_seeded(5);
        let loss_before = trainer.loss_value(&SquaredLoss);
        let reported = trainer.epoch(&SquaredLoss, &mut GradientDescent::new(0.1));
        assert!((reported - loss_before).abs() < 1e-12);
    }
}
