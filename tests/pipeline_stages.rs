//! Stage-seam integration suite: the round pipeline's stages are public
//! free functions over a [`fedcav::fl::stages::RoundContext`], so a custom
//! round loop can be composed by hand from outside the crate — and any
//! single stage can be driven against a hand-built context (e.g. validate a
//! poisoned update without ever running training).

use fedcav::data::{partition, Dataset, SyntheticConfig, SyntheticKind};
use fedcav::fl::stages::{self, ClientOutcome, RoundContext};
use fedcav::fl::{
    AlwaysAvailable, ClientExecutor, CommModel, CommStats, FedAvg, LocalConfig, LocalUpdate,
    ModelFactory, UpdateMeta,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn deployment(n_clients: usize) -> (Vec<Dataset>, Dataset, usize) {
    let (train, test) =
        SyntheticConfig::new(SyntheticKind::MnistLike, 8, 2).generate().expect("synthetic data");
    let mut rng = StdRng::seed_from_u64(0);
    let part = partition::iid_balanced(&train, n_clients, &mut rng);
    let img_len = train.image_len();
    (part.client_datasets(&train).expect("partition"), test, img_len)
}

#[test]
fn a_round_loop_composes_by_hand_from_the_public_stages() {
    let (clients, test, img_len) = deployment(3);
    let factory = move || {
        let mut rng = StdRng::seed_from_u64(7);
        fedcav::nn::models::mlp(&mut rng, img_len, 10)
    };
    let factory: &ModelFactory = &factory;
    let mut global = Arc::new(factory().flat_params());
    let before = global.to_vec();
    let local = LocalConfig { epochs: 1, batch_size: 8, lr: 0.1, prox_mu: 0.0 };
    let mut comm_stats = CommStats::default();
    let mut strategy = FedAvg::new();
    let mut rng = StdRng::seed_from_u64(5);

    let mut ctx = RoundContext::new(0);
    stages::sampling::run(&mut ctx, &AlwaysAvailable, clients.len(), 1.0, &mut rng);
    assert_eq!(ctx.participants, vec![0, 1, 2], "full participation at q=1");

    let env = stages::training::TrainingEnv {
        factory,
        global: &global,
        clients: stages::training::Clients::Datasets(&clients),
        local,
        seed: 11,
        fault_model: None,
    };
    let cohort = ctx.participants.clone();
    stages::training::run(&mut ctx, &cohort, &env, ClientExecutor::Sequential);
    assert!(ctx
        .outcomes
        .iter()
        .all(|(_, f, o)| { f.is_none() && matches!(o, ClientOutcome::Arrived(_)) }));

    let delivery_env = stages::delivery::DeliveryEnv {
        latency: None,
        deadline: None,
        comm: CommModel::new(global.len()),
        counts_loss: false,
        global: &global,
        transport: None,
    };
    stages::delivery::run(&mut ctx, &delivery_env, None).expect("delivery");
    stages::delivery::bill(&mut ctx, &delivery_env, &mut comm_stats);
    assert_eq!(ctx.delivered, 3);
    assert_eq!(comm_stats.total_up, ctx.bytes_up);

    stages::validation::run(&mut ctx, global.len(), None);
    assert_eq!(ctx.surviving(), 3);
    let metas: Vec<UpdateMeta> = ctx.updates.iter().map(UpdateMeta::of).collect();
    stages::validation::close(&mut ctx, &metas);
    assert!(ctx.mean_inference_loss > 0.0);

    stages::aggregation::run(&mut ctx, &mut strategy, Arc::make_mut(&mut global), 1)
        .expect("aggregation");
    assert!(!ctx.rejected);
    assert_ne!(global.as_slice(), &before[..], "one round of training moved the model");

    stages::evaluation::run(&mut ctx, factory, &global, &test, 32).expect("evaluation");
    assert!((0.0..=1.0).contains(&ctx.test_accuracy));

    let record = ctx.into_record(Default::default(), 0.0, 0.0);
    assert_eq!(record.participants, 3);
    assert_eq!(record.aggregated(), 3);
    assert!(!record.faults.degraded);
}

#[test]
fn validation_stage_quarantines_poison_without_running_training() {
    let mut ctx = RoundContext::new(0);
    ctx.participants = vec![0, 1];
    ctx.updates = vec![
        LocalUpdate::new(0, vec![0.1, 0.2, 0.3], 0.5, 10),
        LocalUpdate::new(1, vec![f32::NAN, 0.0, 0.0], 0.5, 10),
    ];
    stages::validation::run(&mut ctx, 3, None);
    let metas: Vec<UpdateMeta> = ctx.updates.iter().map(UpdateMeta::of).collect();
    stages::validation::close(&mut ctx, &metas);
    assert_eq!(ctx.surviving(), 1, "the NaN update is gone");
    assert_eq!(ctx.telemetry.quarantined, 1);
    assert!(ctx.mean_inference_loss.is_finite());
    assert!(ctx.max_inference_loss.is_finite());
}

#[test]
fn aggregation_stage_holds_the_model_on_a_quorum_miss() {
    let mut ctx = RoundContext::new(0);
    ctx.updates = vec![LocalUpdate::new(0, vec![9.0; 3], 0.5, 10)];
    let mut global = vec![1.0, 2.0, 3.0];
    let before = global.clone();
    stages::aggregation::run(&mut ctx, &mut FedAvg::new(), &mut global, 2).expect("quorum miss");
    assert!(ctx.telemetry.degraded);
    assert_eq!(global, before, "model held, not aggregated from one survivor");
}

#[test]
fn derive_seed_is_part_of_the_public_api() {
    // Reproductions that re-implement a client (e.g. in another language)
    // need the exact per-(round, client) seed derivation.
    let a = stages::training::derive_seed(42, 3, 7);
    assert_eq!(a, stages::training::derive_seed(42, 3, 7));
    assert_ne!(a, stages::training::derive_seed(42, 3, 8));
}
