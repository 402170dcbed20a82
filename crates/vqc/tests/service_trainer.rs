//! The trainer on service-shared compilation (PR 8): a
//! [`qdp_vqc::train::Trainer`] built via [`Trainer::with_engine`] on the
//! engine a [`qdp_ad::GradientService`] hands out must train bit-for-bit
//! identically to a standalone trainer that compiled the program itself —
//! and the two must actually share one engine (no second differentiation
//! or lowering of the program).

use qdp_ad::{GradientService, Request, RequestOptions, Response};
use qdp_vqc::circuits::p1;
use qdp_vqc::loss::SquaredLoss;
use qdp_vqc::optim::GradientDescent;
use qdp_vqc::task;
use qdp_vqc::train::{Dataset, ShotNoise, Trainer};

fn data() -> Dataset {
    task::dataset()
        .into_iter()
        .map(|s| (s.input_state(), s.target()))
        .collect()
}

#[test]
fn trainer_on_a_service_engine_matches_a_standalone_trainer_bitwise() {
    let service = GradientService::new();
    let handle = service.register(&p1()).unwrap();
    let shared = service.engine(&handle);

    let mut on_service = Trainer::with_engine(shared.clone(), task::readout_observable(), data());
    let mut standalone = Trainer::new(&p1(), task::readout_observable(), data()).unwrap();
    assert!(
        std::ptr::eq(on_service.engine(), &*shared),
        "with_engine must adopt the service's engine, not rebuild one"
    );

    for trainer in [&mut on_service, &mut standalone] {
        trainer.init_params_seeded(21);
        trainer.train(3, &SquaredLoss, &mut GradientDescent::new(0.25));
    }
    for (name, v) in on_service.params() {
        assert_eq!(
            v.to_bits(),
            standalone.params()[name].to_bits(),
            "{name} diverged between service-shared and standalone training"
        );
    }
    assert_eq!(on_service.accuracy(), standalone.accuracy());
}

#[test]
fn shot_noise_training_on_a_service_engine_is_bitwise_reproducible() {
    // The sharper contract: shot-noise mode threads derived seed streams
    // through the shared engine's batched estimators, so even sampled
    // training must not care which path compiled the program.
    let noise = ShotNoise {
        value_shots: 32,
        gradient_shots: 32,
        seed: 77,
    };
    let service = GradientService::new();
    let handle = service.register(&p1()).unwrap();

    let run = |mut trainer: Trainer| {
        trainer.init_params_seeded(4);
        trainer.set_shot_noise(Some(noise));
        trainer.train(2, &SquaredLoss, &mut GradientDescent::new(0.2));
        trainer.params().clone()
    };
    let a = run(Trainer::with_engine(
        service.engine(&handle),
        task::readout_observable(),
        data(),
    ));
    let b = run(Trainer::new(&p1(), task::readout_observable(), data()).unwrap());
    for (name, v) in &a {
        assert_eq!(v.to_bits(), b[name].to_bits(), "{name}");
    }
}

#[test]
fn service_requests_and_trainer_share_one_tenant_engine() {
    // Registering the trainer's program twice (trainer wiring + a direct
    // client) must not create a second tenant, and service gradients on
    // the shared tenant agree with the engine the trainer uses.
    let service = GradientService::new();
    let h1 = service.register(&p1()).unwrap();
    let h2 = service.register(&p1()).unwrap();
    assert_eq!(service.tenant_count(), 1);

    let trainer = Trainer::with_engine(service.engine(&h1), task::readout_observable(), data());
    let params = qdp_lang::ast::Params::from_pairs(
        trainer.params().iter().map(|(k, &v)| (k.clone(), v + 0.3)),
    );
    let obs = task::readout_observable();
    let psi = data()[0].0.clone();

    let request = Request::Gradient { params: params.clone(), obs: obs.clone() };
    let Ok(Response::Gradient(via_service)) =
        service.submit(&h2, &psi, request, &RequestOptions::default())
    else {
        panic!("a gradient request answers a gradient");
    };
    let via_engine = trainer.engine().gradient_pure_batch(
        &params,
        &obs,
        &qdp_sim::BatchedStates::from_states(std::slice::from_ref(&psi)),
    );
    for (name, v) in &via_service {
        assert_eq!(v.to_bits(), via_engine[0][name].to_bits(), "∂/∂{name}");
    }
}
