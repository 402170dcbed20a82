//! The exact `Trainer` epoch runs on one dense engine call
//! (`GradientEngine::value_and_gradient_batch`) and folds the chain rule
//! over its gradient rows. Its named oracle is the map epoch spelled out
//! below: `value_pure_batch` for the predictions and the loss,
//! `gradient_pure_batch` for one `BTreeMap` per row, the fold over those
//! maps in row order, and `Optimizer::step`. Every epoch's loss and every
//! parameter after it must carry the oracle's bits, on P1, P2 and a
//! program with `+`, with plain descent, momentum and Adam, under forced
//! 1-, 2- and 8-thread configurations.

use qdp_ad::GradientEngine;
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::parse_program;
use qdp_sim::{BatchedStates, Observable};
use qdp_vqc::circuits::{p1, p2};
use qdp_vqc::loss::{Loss, SquaredLoss};
use qdp_vqc::optim::{Adam, GradientDescent, Momentum, Optimizer};
use qdp_vqc::task;
use qdp_vqc::train::{Dataset, Trainer};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `set_max_threads` is process-global: every test of this binary holds
/// this lock while it runs.
static THREADS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(PoisonError::into_inner)
}

const EPOCHS: usize = 4;

fn data() -> Dataset {
    task::dataset()
        .into_iter()
        .map(|s| (s.input_state(), s.target()))
        .collect()
}

/// A four-qubit program with `+`, a measurement and a repeated parameter:
/// its value is the sum over its compiled multiset.
fn additive() -> Stmt {
    parse_program(
        "q1 *= RY(a); q2 *= RX(b); case M[q1] = 0 -> q4 *= RY(c), 1 -> q4 *= RX(a) end \
         + q3, q4 *= RZZ(b); q4 *= RY(c); q2 *= RY(d)",
    )
    .unwrap()
}

/// The squared loss on rows labelled 1 and nothing on rows labelled 0, so
/// half the rows have a zero outer derivative and the fold skips them.
struct OnesOnly;

impl Loss for OnesOnly {
    fn loss(&self, prediction: f64, label: f64) -> f64 {
        if label >= 0.5 {
            SquaredLoss.loss(prediction, label)
        } else {
            0.0
        }
    }

    fn grad(&self, prediction: f64, label: f64) -> f64 {
        if label >= 0.5 {
            SquaredLoss.grad(prediction, label)
        } else {
            0.0
        }
    }
}

/// The map epoch: two engine calls, one gradient map per row, the fold
/// over those maps in row order, and one optimizer step.
fn map_epoch(
    engine: &GradientEngine,
    obs: &Observable,
    batch: &BatchedStates,
    labels: &[f64],
    params: &mut BTreeMap<String, f64>,
    loss: &impl Loss,
    optimizer: &mut dyn Optimizer,
) -> f64 {
    let valuation = Params::from_pairs(params.iter().map(|(k, &v)| (k.clone(), v)));
    let preds = engine.value_pure_batch(&valuation, obs, batch);
    let value = preds
        .iter()
        .zip(labels)
        .map(|(&pred, &label)| loss.loss(pred, label))
        .sum();
    let rows = engine.gradient_pure_batch(&valuation, obs, batch);
    let mut grads: BTreeMap<String, f64> = params.keys().map(|k| (k.clone(), 0.0)).collect();
    for ((row, &pred), &label) in rows.iter().zip(&preds).zip(labels) {
        let outer = loss.grad(pred, label);
        if outer == 0.0 {
            continue;
        }
        for (name, g) in row {
            *grads.get_mut(name).unwrap() += outer * g;
        }
    }
    optimizer.step(params, &grads);
    value
}

/// Builds a fresh optimizer, so both epochs start from the same state.
type MakeOptimizer = fn() -> Box<dyn Optimizer>;

fn optimizers() -> [(&'static str, MakeOptimizer); 3] {
    [
        ("gradient descent", || Box::new(GradientDescent::new(0.3))),
        ("momentum", || Box::new(Momentum::new(0.2, 0.8))),
        ("adam", || Box::new(Adam::new(0.1))),
    ]
}

/// `EPOCHS` trainer epochs against `EPOCHS` map epochs from the same
/// seeded point, bit for bit, for every optimizer and thread count. The
/// trainer's bits must also agree across thread counts.
fn check_program(label: &str, program: &Stmt, loss: &impl Loss) {
    let obs = task::readout_observable();
    let dataset = data();
    let labels: Vec<f64> = dataset.iter().map(|(_, l)| *l).collect();
    let inputs: Vec<_> = dataset.iter().map(|(psi, _)| psi.clone()).collect();
    let batch = BatchedStates::from_states(&inputs);
    for (name, make) in optimizers() {
        let mut across_threads: Option<Vec<u64>> = None;
        for threads in [1, 2, 8] {
            qdp_par::set_max_threads(threads);
            let mut trainer = Trainer::new(program, obs.clone(), dataset.clone()).unwrap();
            trainer.init_params_seeded(11);
            let mut params = trainer.params().clone();
            let (mut dense_opt, mut map_opt) = (make(), make());
            let mut bits = Vec::new();
            for epoch in 0..EPOCHS {
                let dense = trainer.epoch(loss, dense_opt.as_mut());
                let mapped = map_epoch(
                    trainer.engine(),
                    &obs,
                    &batch,
                    &labels,
                    &mut params,
                    loss,
                    map_opt.as_mut(),
                );
                let at = format!("{label}, {name}, {threads} threads, epoch {epoch}");
                assert_eq!(dense.to_bits(), mapped.to_bits(), "{at}: loss");
                assert_eq!(trainer.params().len(), params.len(), "{at}");
                for (k, v) in &params {
                    assert_eq!(trainer.params()[k].to_bits(), v.to_bits(), "{at}: {k}");
                }
                bits.push(dense.to_bits());
                bits.extend(trainer.params().values().map(|v| v.to_bits()));
            }
            match &across_threads {
                None => across_threads = Some(bits),
                Some(first) => assert_eq!(&bits, first, "{label}, {name}: {threads} threads"),
            }
        }
        qdp_par::set_max_threads(0);
    }
}

#[test]
fn dense_epochs_carry_the_map_epoch_bits_on_p1() {
    let _guard = serialized();
    check_program("P1", &p1(), &SquaredLoss);
}

#[test]
fn dense_epochs_carry_the_map_epoch_bits_on_p2() {
    let _guard = serialized();
    check_program("P2", &p2(), &SquaredLoss);
    check_program("P2 with skipped rows", &p2(), &OnesOnly);
}

#[test]
fn dense_epochs_carry_the_map_epoch_bits_on_a_program_with_a_sum() {
    let _guard = serialized();
    check_program("sum", &additive(), &SquaredLoss);
    check_program("sum with skipped rows", &additive(), &OnesOnly);
}

#[test]
fn loss_gradient_is_the_dense_epoch_gradient() {
    // `loss_gradient` runs the epoch's dense call: one plain-descent step
    // at rate 1 moves each parameter by exactly its gradient entry.
    let _guard = serialized();
    let mut trainer = Trainer::new(&p2(), task::readout_observable(), data()).unwrap();
    trainer.init_params_seeded(5);
    let before = trainer.params().clone();
    let grads = trainer.loss_gradient(&SquaredLoss);
    let value = trainer.loss_value(&SquaredLoss);
    let reported = trainer.epoch(&SquaredLoss, &mut GradientDescent::new(1.0));
    assert_eq!(reported.to_bits(), value.to_bits());
    for (name, g) in &grads {
        assert_eq!(
            trainer.params()[name].to_bits(),
            (before[name] - 1.0 * g).to_bits(),
            "{name}"
        );
    }
}
