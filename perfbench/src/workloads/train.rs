//! `train_p2` and `train_p2_shots`: closed loops of full-batch `Trainer`
//! epochs on the paper's measurement-controlled case study `P2`
//! (Section 8.1), exact and under shot noise.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::counts;
use perfbench::stats::{self, Parts};
use perfbench::trace::{breakdown, Recorder};
use qdp_ad::estimator::PreparedDerivativeEstimator;
use qdp_ad::{GradientEngine, ProgramCache};
use qdp_lang::ast::Params;
use qdp_sim::{derive_seed, BatchedStates, Observable, StateVector};
use qdp_vqc::loss::{Loss, SquaredLoss};
use qdp_vqc::optim::{GradientDescent, Optimizer};
use qdp_vqc::train::{Checkpoint, ShotNoise, Trainer};
use qdp_vqc::{circuits, task};

use super::{
    clear_global_cache, decomposed_compile, layer_ms, layer_probes, lower_probe, process_cpu_s,
    same_multisets, service_probe, set_cache_deltas, set_setup, thread_ratio, timed, Args, Report,
};

/// Learning rate of the case study's plain gradient descent.
const LEARNING_RATE: f64 = 0.5;
/// `train_p2` must reach accuracy 1.0 within this many epochs.
const CONVERGENCE_EPOCHS: usize = 200;
/// Epochs replayed by the determinism oracles.
const REPLAY_EPOCHS: usize = 5;

/// The shot budget of `train_p2_shots`: 16 × (256 + 36 × 64) = 40 960
/// trajectories per epoch.
fn shot_config(seed: u64) -> ShotNoise {
    ShotNoise {
        value_shots: 256,
        gradient_shots: 64,
        seed,
    }
}

fn dataset() -> Vec<(StateVector, f64)> {
    task::dataset()
        .into_iter()
        .map(|s| (s.input_state(), s.target()))
        .collect()
}

/// A trainer over `engine` at the workload's initial point.
fn trainer(engine: &Arc<GradientEngine>, seed: u64, shots: bool) -> Trainer {
    let mut t = Trainer::with_engine(Arc::clone(engine), task::readout_observable(), dataset());
    t.init_params_seeded(seed);
    t.set_shot_noise(shots.then(|| shot_config(seed)));
    t
}

/// One cold set-up: differentiate `P2`, compile and intern every skeleton
/// into the emptied global cache, and finish the lazy set-up with one
/// throwaway epoch.
fn setup(seed: u64, shots: bool) -> Arc<GradientEngine> {
    clear_global_cache();
    let engine = Arc::new(GradientEngine::new(&circuits::p2()).expect("P2 is differentiable"));
    engine.forward_skeleton();
    for name in engine.parameters() {
        engine
            .differentiated(name)
            .expect("known parameter")
            .skeleton();
    }
    trainer(&engine, seed, shots).epoch(&SquaredLoss, &mut GradientDescent::new(LEARNING_RATE));
    engine
}

fn params_struct(params: &BTreeMap<String, f64>) -> Params {
    Params::from_pairs(params.iter().map(|(k, &v)| (k.clone(), v)))
}

/// Bitwise equality of two parameter maps.
fn same_bits(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Runs `train_p2` (`shots = false`) or `train_p2_shots`.
pub fn run(args: &Args, shots: bool) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced(args, shots, &mut report);
    } else {
        untraced(args, shots, &mut report);
    }
    report
}

/// Epochs per training round. Every round restarts from one of
/// [`INIT_POINTS`] seeded initial points, so a run samples several
/// training trajectories and its timing does not hinge on where one
/// trajectory wanders (under shot noise an epoch's cost depends on how
/// deterministic the measurements have become). Exact rounds last the 200
/// epochs the convergence oracle allows.
fn round_epochs(shots: bool) -> usize {
    if shots {
        10
    } else {
        CONVERGENCE_EPOCHS
    }
}

/// Initial points the rounds cycle through, so that every point is
/// trained several times in a run and each epoch's work repeats.
const INIT_POINTS: u64 = 16;

/// The initial-point seed of round `k`: the workload seed itself, then
/// streams derived from it, cycling after [`INIT_POINTS`].
fn round_seed(seed: u64, round: u64) -> u64 {
    match round % INIT_POINTS {
        0 => seed,
        k => derive_seed(seed, k),
    }
}

/// The CPU-time part of epoch `index` of `round`: epochs that do the same
/// work share one. An exact epoch costs the same from any point; under
/// shot noise the cost follows the parameters, so the part also names the
/// initial point.
fn epoch_part(shots: bool, round: u64, index: usize) -> usize {
    if shots {
        (round % INIT_POINTS) as usize * round_epochs(shots) + index
    } else {
        index
    }
}

/// What a closed loop of training rounds measured.
#[derive(Default)]
struct LoopOut {
    /// Per-epoch wall times, s.
    times: Vec<f64>,
    /// Per-epoch process CPU times, s, by [`epoch_part`].
    cpu: Parts,
    /// The last round's engine.
    engine: Option<Arc<GradientEngine>>,
    /// The first losses of round 0 (for the replay oracles).
    first_losses: Vec<f64>,
    rounds: u64,
    /// Rounds that reached accuracy 1.0 within 200 epochs.
    converged: u64,
    /// Rounds that ran 200 epochs without reaching it.
    unconverged: u64,
}

/// Closed loop of epochs, in rounds, until the window closes (at least one
/// epoch). `engine_for(round)` gives each round's engine. With
/// `check_convergence`, accuracy is checked (untimed) after every epoch
/// until the round reaches 1.0.
fn epoch_loop(
    mut engine_for: impl FnMut(u64) -> Arc<GradientEngine>,
    seed: u64,
    shots: bool,
    window: Duration,
    check_convergence: bool,
) -> LoopOut {
    let end = Instant::now() + window;
    let mut out = LoopOut::default();
    while out.rounds == 0 || Instant::now() < end {
        let engine = engine_for(out.rounds);
        let mut t = trainer(&engine, round_seed(seed, out.rounds), shots);
        let mut opt = GradientDescent::new(LEARNING_RATE);
        let mut reached = false;
        let mut ran = 0;
        while ran == 0 || (ran < round_epochs(shots) && Instant::now() < end) {
            let t0 = Instant::now();
            let c0 = process_cpu_s();
            let loss = t.epoch(&SquaredLoss, &mut opt);
            out.cpu
                .push(epoch_part(shots, out.rounds, ran), process_cpu_s() - c0);
            out.times.push(t0.elapsed().as_secs_f64());
            ran += 1;
            if out.rounds == 0 && out.first_losses.len() < REPLAY_EPOCHS {
                out.first_losses.push(loss);
            }
            if check_convergence && !reached && t.accuracy() == 1.0 {
                reached = true;
            }
        }
        if reached {
            out.converged += 1;
        } else if check_convergence && ran >= CONVERGENCE_EPOCHS {
            out.unconverged += 1;
        }
        out.rounds += 1;
        out.engine = Some(engine);
    }
    out
}

/// The untraced run: every round starts from a cold set-up (so the set-up
/// samples spread over the window), and an epoch's CPU time is the least
/// over the rounds of its part's samples.
fn untraced(args: &Args, shots: bool, report: &mut Report) {
    let mut setup_samples = Vec::new();
    let out = epoch_loop(
        |round| {
            timed(&mut setup_samples, || {
                setup(round_seed(args.seed, round), shots)
            })
        },
        args.seed,
        shots,
        args.window(),
        !shots,
    );
    let engine = out.engine.clone().expect("at least one round");
    set_setup(report, &setup_samples);
    let times = &out.times;
    report.attempted += times.len() as u64;
    report.note("rounds", out.rounds);
    report.set_cpu_parts(&out.cpu, out.cpu.len());
    report.set_wall_metrics(times, times.len() as f64 / times.iter().sum::<f64>());
    report.set("peak_rss_mb", perfbench::host::peak_rss_mb());
    if !shots {
        report.check(
            "every_round_converges_within_200_epochs",
            out.unconverged == 0 && out.converged >= 1,
        );
        report.note("converged_rounds", out.converged);
    }
    oracles(report, &engine, args.seed, shots, &out.first_losses);
}

/// The replay oracles. Exact: the first epochs replay bit for bit at one
/// thread. Shots: a fresh trainer replays the first epochs bit for bit,
/// and one shot gradient lies within the Hoeffding bound of the exact one.
fn oracles(
    report: &mut Report,
    engine: &Arc<GradientEngine>,
    seed: u64,
    shots: bool,
    losses: &[f64],
) {
    let mut replay = trainer(engine, seed, shots);
    let mut opt = GradientDescent::new(LEARNING_RATE);
    if !shots {
        qdp_par::set_max_threads(1);
    }
    let replayed: Vec<f64> = (0..losses.len())
        .map(|_| replay.epoch(&SquaredLoss, &mut opt))
        .collect();
    qdp_par::set_max_threads(0);
    let same = losses
        .iter()
        .zip(&replayed)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        if shots {
            "fresh_trainer_replays_bitwise"
        } else {
            "one_thread_replays_bitwise"
        },
        same,
    );
    if shots {
        report.check(
            "shot_gradient_within_hoeffding_bound",
            shot_gradient_in_bound(engine, seed),
        );
    }
}

/// One 64-shot gradient of `P2` against the exact gradient. Each shot of
/// parameter `j` lies in `[−m_j, m_j]` (`m_j` = its derivative programs),
/// so by Hoeffding the estimate misses by more than
/// `m_j · sqrt(2 ln(2/p) / N)` with probability below `p` (here 1e-9).
fn shot_gradient_in_bound(engine: &Arc<GradientEngine>, seed: u64) -> bool {
    let t = trainer(engine, seed, false);
    let params = params_struct(t.params());
    let obs = task::readout_observable();
    let psi = task::dataset()[5].input_state();
    let n = shot_config(seed).gradient_shots;
    let estimate = engine.gradient_pure_shots(&params, &obs, &psi, n, seed);
    let exact = engine.gradient_pure(&params, &obs, &psi);
    let slack = (2.0 * (2.0 / 1e-9f64).ln() / n as f64).sqrt();
    estimate.iter().all(|(name, est)| {
        let m = engine
            .differentiated(name)
            .expect("known parameter")
            .compiled()
            .len() as f64;
        (est - exact[name]).abs() <= m * slack
    })
}

/// The traced run: the compile pipeline decomposed in a traced set-up, an
/// untraced window for the overhead baseline, then epochs decomposed into
/// public layer calls — each checked bit for bit against
/// `gradient_pure_batch` (or `gradient_pure_shots_batch`) and against an
/// undecomposed `Trainer::epoch` from the same state.
fn traced(args: &Args, shots: bool, report: &mut Report) {
    let epoch0 = Instant::now();
    let mut rec = Recorder::new(epoch0);
    let engine = setup(args.seed, shots);
    let program = circuits::p2();
    let names: Vec<String> = engine.parameters().map(str::to_string).collect();
    rec.open("setup_compile", "op");
    let sets = decomposed_compile(&mut rec, &program, &names, &ProgramCache::new());
    rec.close();
    report.check(
        "decomposed_compile_matches_engine",
        same_multisets(&engine, &sets),
    );
    let setup_ops = breakdown(rec.spans());
    report.set("transform.ms", layer_ms(&setup_ops, 1, "qdp_ad.transform"));
    report.set("compile.ms", layer_ms(&setup_ops, 1, "qdp_lang.compile"));
    report.set("compile.programs", engine.total_programs() as f64);
    let (lower_ms, _) = lower_probe(&mut rec, &sets);
    report.set("lower.ms", lower_ms);
    report.spans.extend(rec.take());

    // Untraced baseline window (also the cache-delta window).
    let before = ProgramCache::global().counters();
    let baseline = epoch_loop(
        |_| Arc::clone(&engine),
        args.seed,
        shots,
        args.window().mul_f64(0.3),
        false,
    );
    set_cache_deltas(report, before, ProgramCache::global().counters());
    let untraced_p50_ms = stats::median(&baseline.times) * 1e3;
    report.attempted += baseline.times.len() as u64;
    report.set_wall_metrics(
        &baseline.times,
        baseline.times.len() as f64 / baseline.times.iter().sum::<f64>(),
    );

    // Traced window, in the same rounds.
    let mut reference = trainer(&engine, args.seed, shots);
    let mut ctx = EpochCtx::new(&engine);
    let mut gradient_ms = Vec::new();
    let mut mismatches = 0u64;
    let end = Instant::now() + args.window().mul_f64(0.5);
    let mut trajectories = 0u64;
    let mut round = 0u64;
    while Instant::now() < end {
        let seed = round_seed(args.seed, round);
        let mut params = trainer(&engine, seed, shots).params().clone();
        ctx.shots = shots.then(|| shot_config(seed));
        let mut epoch = 0u64;
        while epoch < round_epochs(shots) as u64 && Instant::now() < end {
            epoch += 1;
            let before_params = params.clone();
            let out = ctx.decomposed_epoch(&mut rec, &mut params, epoch);
            trajectories += out.trajectories;
            // Check against the undecomposed gradient and epoch (untimed).
            let t0 = Instant::now();
            let reference_grad = ctx.reference_gradient(&before_params, epoch, &out.live);
            gradient_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let grads_match = reference_grad.len() == out.per_param.len()
                && reference_grad.iter().zip(&out.per_param).all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                });
            reference.restore(&Checkpoint {
                epoch: epoch - 1,
                params: before_params,
                shot_noise: ctx.shots,
            });
            let loss = reference.epoch(&SquaredLoss, &mut GradientDescent::new(LEARNING_RATE));
            if !(grads_match
                && loss.to_bits() == out.loss.to_bits()
                && same_bits(reference.params(), &params))
            {
                mismatches += 1;
            }
        }
        round += 1;
    }
    let spans = rec.take();
    let ops: Vec<_> = breakdown(&spans)
        .into_iter()
        .filter(|o| o.name == "epoch")
        .collect();
    report.spans.extend(spans);
    report.attempted += ops.len() as u64;
    report.failed += mismatches;
    report.note("decomposition_mismatches", mismatches);
    report.set_attribution(&ops, 1, untraced_p50_ms);
    report.set("exec.value_ms", mean_named(&ops, "exec.value"));
    report.set("exec.gradient_ms", stats::median(&gradient_ms));
    let per_param: Vec<&Vec<i64>> = ops
        .iter()
        .filter_map(|o| o.by_name.get("exec.param"))
        .collect();
    let n = per_param.len().max(1) as f64;
    report.set(
        "exec.param_ms_max",
        per_param
            .iter()
            .map(|v| *v.iter().max().unwrap_or(&0) as f64)
            .sum::<f64>()
            / n
            / 1e6,
    );
    report.set(
        "exec.param_ms_sum",
        per_param
            .iter()
            .map(|v| v.iter().sum::<i64>() as f64)
            .sum::<f64>()
            / n
            / 1e6,
    );
    report.set("train.self_ms", layer_ms(&ops, 1, "qdp_vqc.train"));
    report.set(
        "shots.trajectories",
        trajectories as f64 / ops.len().max(1) as f64,
    );

    // Computed work per epoch from the lowered op weights.
    let fwd_w = counts::op_weight(engine.forward_skeleton().lowered());
    let rows = 16u64;
    let mut lowered_ops = fwd_w;
    let mut amps = 0u64;
    if shots {
        let cfg = shot_config(args.seed);
        amps += counts::amp_updates(fwd_w, rows * cfg.value_shots as u64, 4);
    } else {
        amps += counts::amp_updates(fwd_w, rows, 4);
    }
    for name in engine.parameters() {
        let skeleton = engine
            .differentiated(name)
            .expect("known parameter")
            .skeleton();
        let w = counts::op_weight(skeleton.lowered());
        lowered_ops += w;
        amps += if shots {
            // Each shot runs one program of the multiset.
            let m = skeleton.lowered().programs().len().max(1) as u64;
            counts::amp_updates(w, rows * shot_config(args.seed).gradient_shots as u64, 5) / m
        } else {
            counts::amp_updates(w, rows, 5)
        };
    }
    report.set("lowered.ops", lowered_ops as f64);
    report.set("kernels.amp_updates", amps as f64);
    report.set(
        "kernels.bytes_computed",
        counts::bytes_computed(amps) as f64,
    );

    // Thread ratio on the workload's own op, then the layer probes.
    let mut ratio_trainer = trainer(&engine, args.seed, shots);
    let mut opt = GradientDescent::new(LEARNING_RATE);
    report.set(
        "par.thread_ratio",
        thread_ratio(if shots { 10 } else { 100 }, || {
            ratio_trainer.epoch(&SquaredLoss, &mut opt);
        }),
    );
    let rows_shape = if shots { 256 } else { 16 };
    layer_probes(report, args.seed, rows_shape, 5, &engine);
    service_probe(report, args.seed, &program, &task::readout_observable());
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

fn mean_named(ops: &[perfbench::trace::OpBreakdown], name: &str) -> f64 {
    let n = ops.len().max(1) as f64;
    ops.iter()
        .filter_map(|o| o.by_name.get(name))
        .map(|v| v.iter().sum::<i64>() as f64)
        .sum::<f64>()
        / n
        / 1e6
}

/// Everything a decomposed epoch needs besides the parameters.
struct EpochCtx<'a> {
    engine: &'a GradientEngine,
    obs: Observable,
    inputs: Vec<StateVector>,
    labels: Vec<f64>,
    batch: BatchedStates,
    /// The current round's shot configuration (`None` = exact).
    shots: Option<ShotNoise>,
}

/// What one decomposed epoch produced.
struct EpochOut {
    loss: f64,
    /// Rows with a non-zero outer derivative, in row order.
    live: Vec<usize>,
    /// Per-parameter derivative columns over the live rows (shots) or all
    /// rows (exact), in parameter order.
    per_param: Vec<Vec<f64>>,
    trajectories: u64,
}

impl<'a> EpochCtx<'a> {
    fn new(engine: &'a GradientEngine) -> Self {
        let (inputs, labels): (Vec<StateVector>, Vec<f64>) = dataset().into_iter().unzip();
        let batch = BatchedStates::from_states(&inputs);
        EpochCtx {
            engine,
            obs: task::readout_observable(),
            inputs,
            labels,
            batch,
            shots: None,
        }
    }

    /// `Trainer::epoch` spelled out as public layer calls: forward values,
    /// loss, one derivative sweep per parameter, chain rule, optimizer
    /// step — each in a span. Shot mode reproduces the trainer's streams
    /// (epoch `e` on `derive_seed(seed, e)`, row `r` on sub-streams `2r`
    /// and `2r + 1`, parameter `j` on `derive_seed(row stream, j)`).
    fn decomposed_epoch(
        &mut self,
        rec: &mut Recorder,
        params: &mut BTreeMap<String, f64>,
        epoch: u64,
    ) -> EpochOut {
        rec.open("epoch", "op");
        let p = params_struct(params);
        let stream = self.shots.map(|cfg| derive_seed(cfg.seed, epoch));
        let preds = rec.span("exec.value", "qdp_ad.exec", || {
            match (&self.shots, stream) {
                (Some(cfg), Some(stream)) => {
                    let seeds: Vec<u64> = (0..self.inputs.len())
                        .map(|r| derive_seed(stream, 2 * r as u64))
                        .collect();
                    self.engine.value_pure_shots_batch(
                        &p,
                        &self.obs,
                        &self.inputs,
                        cfg.value_shots,
                        &seeds,
                    )
                }
                _ => self.engine.value_pure_batch(&p, &self.obs, &self.batch),
            }
        });
        let (loss, outers) = rec.span("train.loss", "qdp_vqc.train", || {
            let loss: f64 = preds
                .iter()
                .zip(&self.labels)
                .map(|(&y, &l)| SquaredLoss.loss(y, l))
                .sum();
            let outers: Vec<f64> = preds
                .iter()
                .zip(&self.labels)
                .map(|(&y, &l)| SquaredLoss.grad(y, l))
                .collect();
            (loss, outers)
        });
        let live: Vec<usize> = (0..outers.len()).filter(|&r| outers[r] != 0.0).collect();
        let mut per_param = Vec::new();
        let mut trajectories = 0u64;
        if let Some(cfg) = &self.shots {
            trajectories += (self.inputs.len() * cfg.value_shots) as u64;
        }
        if !live.is_empty() {
            for (j, name) in self.engine.parameters().enumerate() {
                let diff = self.engine.differentiated(name).expect("known parameter");
                let column = rec.span("exec.param", "qdp_ad.exec", || {
                    match (&self.shots, stream) {
                        (Some(cfg), Some(stream)) => {
                            let estimator = PreparedDerivativeEstimator::new(diff, &p, &self.obs);
                            live.iter()
                                .map(|&r| {
                                    let row_stream = derive_seed(
                                        derive_seed(stream, 2 * r as u64 + 1),
                                        j as u64,
                                    );
                                    estimator.estimate(
                                        &self.inputs[r],
                                        cfg.gradient_shots,
                                        row_stream,
                                    )
                                })
                                .collect()
                        }
                        _ => diff.derivative_pure_batch(&p, &self.obs, &self.batch),
                    }
                });
                if let Some(cfg) = &self.shots {
                    trajectories += (live.len() * cfg.gradient_shots) as u64;
                }
                per_param.push(column);
            }
        }
        let grads = rec.span("train.chain", "qdp_vqc.train", || {
            let mut grads: BTreeMap<String, f64> =
                params.keys().map(|k| (k.clone(), 0.0)).collect();
            for (i, &r) in live.iter().enumerate() {
                // Exact columns hold every row; shot columns only live rows.
                let at = if self.shots.is_some() { i } else { r };
                for (name, column) in self.engine.parameters().zip(&per_param) {
                    *grads.get_mut(name).expect("known parameter") += outers[r] * column[at];
                }
            }
            grads
        });
        rec.span("train.step", "qdp_vqc.train", || {
            GradientDescent::new(LEARNING_RATE).step(params, &grads);
        });
        rec.close();
        EpochOut {
            loss,
            live,
            per_param,
            trajectories,
        }
    }

    /// The undecomposed gradient for the same state: `gradient_pure_batch`
    /// (exact) or `gradient_pure_shots_batch` over the live rows (shots),
    /// as per-parameter columns.
    fn reference_gradient(
        &self,
        params: &BTreeMap<String, f64>,
        epoch: u64,
        live: &[usize],
    ) -> Vec<Vec<f64>> {
        if live.is_empty() {
            return Vec::new();
        }
        let p = params_struct(params);
        let rows: Vec<BTreeMap<String, f64>> = match &self.shots {
            Some(cfg) => {
                let stream = derive_seed(cfg.seed, epoch);
                let inputs: Vec<StateVector> =
                    live.iter().map(|&r| self.inputs[r].clone()).collect();
                let seeds: Vec<u64> = live
                    .iter()
                    .map(|&r| derive_seed(stream, 2 * r as u64 + 1))
                    .collect();
                self.engine.gradient_pure_shots_batch(
                    &p,
                    &self.obs,
                    &inputs,
                    cfg.gradient_shots,
                    &seeds,
                )
            }
            None => self.engine.gradient_pure_batch(&p, &self.obs, &self.batch),
        };
        self.engine
            .parameters()
            .map(|name| rows.iter().map(|row| row[name]).collect())
            .collect()
    }
}
