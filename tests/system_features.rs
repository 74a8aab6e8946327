//! Integration tests of the deployment-realism features spanning crates:
//! wire codec ↔ local updates, communication accounting ↔ strategies,
//! availability and latency models ↔ the round loop.

use fedcav::core::{FedCav, FedCavConfig};
use fedcav::data::{partition, ImbalanceSpec, SyntheticConfig, SyntheticKind};
use fedcav::fl::{
    BernoulliAvailability, CommModel, FedAvg, LocalConfig, LogNormalLatency, Simulation,
    SimulationConfig,
};
use fedcav::nn::wire::{self, CodecSpec};
use fedcav::nn::{models, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(
    n_clients: usize,
) -> (Vec<fedcav::data::Dataset>, fedcav::data::Dataset, impl Fn() -> Sequential + Sync) {
    let (train, test) =
        SyntheticConfig::new(SyntheticKind::MnistLike, 6, 2).generate().expect("generation");
    let mut rng = StdRng::seed_from_u64(0);
    let part = partition::noniid(&train, n_clients, 2, ImbalanceSpec::Balanced, &mut rng);
    let clients = part.client_datasets(&train).expect("partition");
    let img_len = train.image_len();
    let factory = move || {
        let mut rng = StdRng::seed_from_u64(7);
        models::tiny_mlp(&mut rng, img_len, 10)
    };
    (clients, test, factory)
}

fn config() -> SimulationConfig {
    SimulationConfig {
        sample_ratio: 0.5,
        local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
        eval_batch: 32,
        seed: 42,
    }
}

#[test]
fn local_update_round_trips_through_wire_codec() {
    let (clients, _test, factory) = setup(4);
    let global = factory().flat_params();
    let update = fedcav::fl::local_update(
        &factory,
        &global,
        0,
        &clients[0],
        &LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
        1,
    )
    .expect("local update");

    // Client-side encode, server-side decode: bit-exact params + loss.
    let codec = CodecSpec::Identity.build(&[]);
    let frame = codec.encode(&update.params, Some(update.inference_loss), &[]).expect("encode");
    let decoded = wire::decode(&frame, &[]).expect("decode");
    assert_eq!(decoded.params, update.params);
    assert_eq!(decoded.inference_loss, Some(update.inference_loss));

    // The decoded params must load back into a model.
    let mut model = factory();
    model.set_flat_params(&decoded.params).expect("load decoded params");
}

#[test]
fn fedcav_uplink_costs_exactly_one_float_more_than_fedavg() {
    let run = |strategy: Box<dyn fedcav::fl::Strategy>| -> (u64, usize) {
        let (clients, test, factory) = setup(4);
        let mut sim = Simulation::new(&factory, clients, test, strategy, config());
        let r = sim.run_round().expect("round");
        (r.bytes_up, r.participants)
    };
    let (avg_up, avg_n) = run(Box::new(FedAvg::new()));
    let (cav_up, cav_n) = run(Box::new(FedCav::new(FedCavConfig::default())));
    assert_eq!(avg_n, cav_n, "same sampling under same seed");
    assert_eq!(
        cav_up - avg_up,
        4 * cav_n as u64,
        "FedCav uplink = FedAvg + one f32 per client (§6)"
    );
}

#[test]
fn comm_totals_equal_sum_of_round_records() {
    let (clients, test, factory) = setup(4);
    let mut sim = Simulation::new(&factory, clients, test, Box::new(FedAvg::new()), config());
    sim.run(3).expect("rounds");
    let stats = sim.comm_stats();
    let sum_down: u64 = sim.history().records.iter().map(|r| r.bytes_down).sum();
    let sum_up: u64 = sim.history().records.iter().map(|r| r.bytes_up).sum();
    assert_eq!(stats.total_down, sum_down);
    assert_eq!(stats.total_up, sum_up);
    assert_eq!(stats.rounds, 3);
    // Sanity: the numbers match the analytic model.
    let m = CommModel::new(factory().state_len());
    let per_round_down = m.downlink(sim.history().records[0].participants);
    assert_eq!(sim.history().records[0].bytes_down, per_round_down);
}

#[test]
fn availability_and_latency_compose_in_one_run() {
    let (clients, test, factory) = setup(8);
    let mut sim = Simulation::new(&factory, clients, test, Box::new(FedAvg::new()), config());
    sim.set_availability(Box::new(BernoulliAvailability::new(0.6, 9))).set_latency(Box::new(
        LogNormalLatency { median: 10.0, client_sigma: 0.5, round_sigma: 0.1, seed: 2 },
    ));
    sim.run(4).expect("rounds");
    let records = &sim.history().records;
    // Sim time strictly increases and equals the cumulative durations.
    let mut acc = 0.0;
    for r in records {
        assert!(r.round_duration > 0.0);
        acc += r.round_duration;
        assert!((r.sim_time - acc).abs() < 1e-9);
        // Bernoulli(0.6) over 8 clients, q=0.5 of online: 1..=8 participants.
        assert!(r.participants >= 1 && r.participants <= 8);
    }
    assert!(sim.history().time_to_accuracy(0.0).is_some());
}

#[test]
fn simulation_deterministic_with_all_features_installed() {
    let run = || -> Vec<f32> {
        let (clients, test, factory) = setup(6);
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedCav::new(FedCavConfig::default())),
            config(),
        );
        sim.set_availability(Box::new(BernoulliAvailability::new(0.7, 5))).set_latency(Box::new(
            LogNormalLatency { median: 5.0, client_sigma: 0.3, round_sigma: 0.1, seed: 6 },
        ));
        sim.run(3).expect("rounds");
        sim.global().to_vec()
    };
    assert_eq!(run(), run());
}
