//! Experiment specifications and runners shared by all figure harnesses.

use fedcav_attack::{ModelReplacement, ModelReplacementConfig};
use fedcav_core::{FedCav, FedCavConfig};
use fedcav_data::poison::{flip_all_labels, flip_fraction};
use fedcav_data::{
    partition, Dataset, FreshClassSplit, ImbalanceSpec, SyntheticConfig, SyntheticKind,
};
use fedcav_fl::{
    CentralizedTrainer, ClientExecutor, CodecSpec, CollectingTracer, FedAvg, FedProx, History,
    LocalConfig, Simulation, SimulationConfig, Strategy,
};
use fedcav_nn::{models, Sequential};
use fedcav_tensor::{backend_kind, Backend, BackendKind, CpuBlocked, Reference, Result};
use fedcav_trace::Event;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Harness scale: CI-friendly vs paper-scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced clients/samples/rounds so `cargo bench` finishes in minutes.
    Fast,
    /// The paper's §5.1.4 parameters (n=100, q=0.3, B=10, E=5, η=0.01).
    Full,
}

impl Scale {
    /// Parse from harness CLI args (`--full` selects [`Scale::Full`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Fast
        }
    }
}

/// The aggregation algorithms compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Centralized gradient descent (upper-bound baseline).
    Centralized,
    /// FedAvg (McMahan et al.).
    FedAvg,
    /// FedProx with μ = 0.01.
    FedProx,
    /// FedCav, paper configuration (clip + detection).
    FedCav,
    /// FedCav without loss clipping (Fig. 5 ablation).
    FedCavNoClip,
    /// FedCav without detection (Fig. 6 configuration).
    FedCavNoDetect,
}

impl Algo {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Centralized => "Centralized",
            Algo::FedAvg => "FedAvg",
            Algo::FedProx => "FedProx",
            Algo::FedCav => "FedCav",
            Algo::FedCavNoClip => "FedCav-noClip",
            Algo::FedCavNoDetect => "FedCav-noDetect",
        }
    }

    /// Build the strategy object (not valid for [`Algo::Centralized`]).
    pub fn strategy(self) -> Box<dyn Strategy> {
        match self {
            Algo::Centralized => panic!("Centralized is not an aggregation strategy"),
            Algo::FedAvg => Box::new(FedAvg::new()),
            Algo::FedProx => Box::new(FedProx::new(0.01)),
            Algo::FedCav => Box::new(FedCav::new(FedCavConfig::default())),
            Algo::FedCavNoClip => Box::new(FedCav::new(FedCavConfig {
                clip: false,
                detection: None,
                ..Default::default()
            })),
            Algo::FedCavNoDetect => Box::new(FedCav::new(FedCavConfig::without_detection())),
        }
    }
}

/// Data distribution across clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// IID & balanced (Table 1 row 1).
    IidBalanced,
    /// Non-IID (2 classes/client) & balanced (row 2).
    NonIidBalanced,
    /// Non-IID & imbalanced with the paper's σ (row 3).
    NonIidSigma(f32),
}

impl Dist {
    /// Display name matching Fig. 2's legend.
    pub fn name(self) -> String {
        match self {
            Dist::IidBalanced => "IID&balanced".to_string(),
            Dist::NonIidBalanced => "non-IID&balanced".to_string(),
            Dist::NonIidSigma(s) => format!("non-IID&sigma={s:.0}"),
        }
    }

    /// Partition `data` across `n_clients` according to this distribution.
    pub fn partition(
        self,
        data: &Dataset,
        n_clients: usize,
        rng: &mut StdRng,
    ) -> partition::ClientPartition {
        match self {
            Dist::IidBalanced => partition::iid_balanced(data, n_clients, rng),
            Dist::NonIidBalanced => {
                partition::noniid(data, n_clients, 2, ImbalanceSpec::Balanced, rng)
            }
            Dist::NonIidSigma(s) => {
                partition::noniid(data, n_clients, 2, ImbalanceSpec::PaperSigma(s), rng)
            }
        }
    }
}

/// A fully-specified experiment environment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Dataset tier.
    pub kind: SyntheticKind,
    /// Deployment size `n`.
    pub n_clients: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Communication rounds to run.
    pub rounds: usize,
    /// Client sample ratio `q`.
    pub sample_ratio: f64,
    /// Local-training parameters.
    pub local: LocalConfig,
    /// Master seed.
    pub seed: u64,
    /// Pixel-noise override for the synthetic data (difficulty knob).
    /// Fast scale raises it so the reduced-size task does not saturate in a
    /// couple of rounds; `None` keeps the tier default.
    pub noise_override: Option<f32>,
    /// Client executor for the training stage. Results are bit-identical
    /// across executors; only wall-clock changes. The presets read
    /// `FEDCAV_EXECUTOR` (e.g. `threads:4`) so CI can sweep it.
    pub executor: ClientExecutor,
    /// Tensor backend the run's models are built on (see
    /// [`ExperimentSpec::model_factory`]). The presets default to the
    /// process [`backend_kind`], so `FEDCAV_BACKEND` still selects it from
    /// the environment; set explicitly to pin a spec to one backend.
    pub backend: BackendKind,
    /// Uplink wire codec for the federated runners. The presets default to
    /// [`CodecSpec::Identity`], which keeps the legacy uncompressed path
    /// (no transport installed, billing byte-identical to prior releases);
    /// any other scheme routes every upload through
    /// `decode(encode(·))` at the delivery stage and bills encoded frames.
    pub codec: CodecSpec,
}

impl ExperimentSpec {
    /// CI-friendly scale: 30 clients, 90 samples/class, shortened training.
    pub fn fast(kind: SyntheticKind, rounds: usize) -> Self {
        ExperimentSpec {
            kind,
            n_clients: 30,
            train_per_class: 90,
            test_per_class: 20,
            rounds,
            sample_ratio: 0.3,
            local: LocalConfig { epochs: 3, batch_size: 10, lr: 0.03, prox_mu: 0.0 },
            seed: 42,
            noise_override: Some(match kind {
                SyntheticKind::MnistLike => 0.45,
                SyntheticKind::FmnistLike => 0.55,
                SyntheticKind::Cifar10Like => 0.6,
            }),
            executor: ClientExecutor::from_env(),
            backend: backend_kind(),
            codec: CodecSpec::Identity,
        }
    }

    /// Paper-scale: 100 clients, q=0.3, B=10, E=5, η=0.01 (§5.1.4).
    pub fn full(kind: SyntheticKind, rounds: usize) -> Self {
        ExperimentSpec {
            kind,
            n_clients: 100,
            train_per_class: 500,
            test_per_class: 100,
            rounds,
            sample_ratio: 0.3,
            local: LocalConfig { epochs: 5, batch_size: 10, lr: 0.01, prox_mu: 0.0 },
            seed: 42,
            noise_override: None,
            executor: ClientExecutor::from_env(),
            backend: backend_kind(),
            codec: CodecSpec::Identity,
        }
    }

    /// Pick by scale.
    pub fn at(scale: Scale, kind: SyntheticKind, fast_rounds: usize, full_rounds: usize) -> Self {
        match scale {
            Scale::Fast => Self::fast(kind, fast_rounds),
            Scale::Full => Self::full(kind, full_rounds),
        }
    }

    /// Generate the (train, test) data for this spec.
    pub fn data(&self) -> Result<(Dataset, Dataset)> {
        let mut cfg = SyntheticConfig::new(self.kind, self.train_per_class, self.test_per_class)
            .with_seed(self.seed);
        if let Some(noise) = self.noise_override {
            cfg = cfg.with_noise(noise);
        }
        cfg.generate()
    }

    /// The paper's model for this dataset tier (§5.1.1) on `self.backend`,
    /// seeded for reproducibility: every `factory()` call yields identical
    /// weights.
    pub fn model_factory(&self) -> Box<dyn Fn() -> Sequential + Send + Sync> {
        match self.backend {
            BackendKind::CpuBlocked => self.model_factory_on::<CpuBlocked>(),
            BackendKind::Reference => self.model_factory_on::<Reference>(),
        }
    }

    fn model_factory_on<B: Backend>(&self) -> Box<dyn Fn() -> Sequential + Send + Sync> {
        let kind = self.kind;
        let seed = self.seed ^ 0xF00D;
        Box::new(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            match kind {
                SyntheticKind::MnistLike => models::lenet5_on::<B, _>(&mut rng, 10),
                SyntheticKind::FmnistLike => models::cnn9_on::<B, _>(&mut rng, 10),
                SyntheticKind::Cifar10Like => {
                    models::resnet18_on::<B, _>(&mut rng, 10, models::RESNET18_DEFAULT_WIDTH)
                }
            }
        })
    }

    /// Simulation config derived from this spec.
    pub fn sim_config(&self) -> SimulationConfig {
        SimulationConfig {
            sample_ratio: self.sample_ratio,
            local: self.local,
            eval_batch: 64,
            seed: self.seed,
        }
    }
}

/// The shared standard-experiment runner: partition per `dist`, aggregate
/// per `algo`, `spec.rounds` rounds on `spec.executor`. For
/// [`Algo::Centralized`] the pooled trainer is used instead (it has no
/// tracer hook, so a supplied `tracer` stays empty). [`run_standard`] and
/// [`run_standard_traced`] are thin wrappers over this.
pub fn run_standard_with(
    spec: &ExperimentSpec,
    dist: Dist,
    algo: Algo,
    tracer: Option<Arc<CollectingTracer>>,
) -> Result<History> {
    let (train, test) = spec.data()?;
    let factory = spec.model_factory();
    if algo == Algo::Centralized {
        let mut t = CentralizedTrainer::new(&*factory, train, test, spec.local, 64, spec.seed);
        t.run(spec.rounds)?;
        return Ok(t.history().clone());
    }
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xD157);
    let part = dist.partition(&train, spec.n_clients, &mut rng);
    let clients = part.client_datasets(&train)?;
    let mut sim = Simulation::new(&*factory, clients, test, algo.strategy(), spec.sim_config());
    sim.set_executor(spec.executor);
    if spec.codec != CodecSpec::Identity {
        sim.set_codec(spec.codec);
    }
    if let Some(tracer) = tracer {
        sim.set_tracer(tracer);
    }
    sim.run(spec.rounds)?;
    Ok(sim.history().clone())
}

/// Run one federated experiment: partition per `dist`, aggregate per
/// `algo`, `spec.rounds` rounds. For [`Algo::Centralized`] the pooled
/// trainer is used instead.
pub fn run_standard(spec: &ExperimentSpec, dist: Dist, algo: Algo) -> Result<History> {
    run_standard_with(spec, dist, algo, None)
}

/// Like [`run_standard`], but with a [`CollectingTracer`] installed and the
/// op-level kernel counters enabled for the duration of the run: returns
/// the history together with the captured trace events, ready for
/// `fedcav_trace::export::{to_jsonl, to_csv, write_jsonl}`. Results are
/// bit-identical to [`run_standard`] — tracing only observes.
/// [`Algo::Centralized`] has no tracer hook and yields an empty event list.
pub fn run_standard_traced(
    spec: &ExperimentSpec,
    dist: Dist,
    algo: Algo,
) -> Result<(History, Vec<Event>)> {
    let tracer = Arc::new(CollectingTracer::new());
    let was_counting = fedcav_tensor::counters::is_enabled();
    fedcav_tensor::counters::enable();
    let outcome = run_standard_with(spec, dist, algo, Some(tracer.clone()));
    if !was_counting {
        fedcav_tensor::counters::disable();
    }
    Ok((outcome?, tracer.take()))
}

/// Outcome of a fresh-class run: the history plus what's needed to read
/// out fresh-class recall from the final model.
pub struct FreshClassOutcome {
    /// Per-round records.
    pub history: History,
    /// Final global model parameters.
    pub final_params: Vec<f32>,
    /// Which classes were fresh.
    pub fresh_classes: Vec<usize>,
}

impl FreshClassOutcome {
    /// Mean recall of the fresh classes on `test` under the final model.
    pub fn fresh_recall(&self, spec: &ExperimentSpec, test: &Dataset) -> Result<Option<f32>> {
        let factory = spec.model_factory();
        let mut model = factory();
        model.set_flat_params(&self.final_params)?;
        let cm = fedcav_fl::evaluate_confusion(&mut model, test, 64)?;
        Ok(cm.subset_recall(&self.fresh_classes))
    }
}

/// Fig. 4 runner: pre-train on common classes, then run the federated
/// phase over the full (common + fresh) data. For `Algo::Centralized` the
/// federated phase is replaced by pooled training from the same
/// pre-trained weights.
pub fn run_fresh_class(
    spec: &ExperimentSpec,
    alpha: f64,
    dist: Dist,
    algo: Algo,
    pretrain_rounds: usize,
) -> Result<FreshClassOutcome> {
    let (train, test) = spec.data()?;
    let factory = spec.model_factory();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xA1FA);
    let split = FreshClassSplit::new(&train, alpha, &mut rng)?;

    // Pre-train on the common classes (the paper "pre-trains the global
    // model in the common class").
    let mut pre = CentralizedTrainer::new(
        &*factory,
        split.common.clone(),
        test.clone(),
        spec.local,
        64,
        spec.seed ^ 0x9E,
    );
    pre.run(pretrain_rounds)?;
    let pretrained = pre.global().to_vec();

    let full = split.full()?;
    if algo == Algo::Centralized {
        let mut t =
            CentralizedTrainer::new(&*factory, full, test, spec.local, 64, spec.seed ^ 0xCE);
        t.set_global(pretrained)?;
        t.run(spec.rounds)?;
        return Ok(FreshClassOutcome {
            history: t.history().clone(),
            final_params: t.global().to_vec(),
            fresh_classes: split.fresh_classes,
        });
    }
    let part = dist.partition(&full, spec.n_clients, &mut rng);
    let clients = part.client_datasets(&full)?;
    let mut sim = Simulation::new(&*factory, clients, test, algo.strategy(), spec.sim_config());
    sim.set_executor(spec.executor);
    sim.set_global(pretrained)?;
    sim.run(spec.rounds)?;
    Ok(FreshClassOutcome {
        history: sim.history().clone(),
        final_params: sim.global().to_vec(),
        fresh_classes: split.fresh_classes,
    })
}

/// Fig. 6 / Fig. 7 runner: run `algo` under a model-replacement attack at
/// `attack_round`, with the adversary's model trained on data whose labels
/// are flipped at `poison_fraction` (1.0 = the paper's Fig. 6 "all labels
/// flipped").
pub fn run_under_attack(
    spec: &ExperimentSpec,
    dist: Dist,
    algo: Algo,
    attack_round: usize,
    poison_fraction: f64,
) -> Result<History> {
    let (train, test) = spec.data()?;
    let factory = spec.model_factory();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ X_ATTACK_SEED);
    let part = dist.partition(&train, spec.n_clients, &mut rng);
    let clients = part.client_datasets(&train)?;

    // The adversary holds a small poisoned shard of its own.
    let adv_data = clients[0].clone();
    let poisoned = if poison_fraction >= 1.0 {
        flip_all_labels(&adv_data)
    } else {
        flip_fraction(&adv_data, poison_fraction, &mut rng)
    };
    let adversary = ModelReplacement::new(
        &*factory,
        poisoned,
        ModelReplacementConfig {
            attack_rounds: vec![attack_round],
            boost: None,
            reported_loss: 5.0,
            local: spec.local,
            seed: spec.seed ^ 0xE011,
        },
    );

    let mut sim = Simulation::new(&*factory, clients, test, algo.strategy(), spec.sim_config());
    sim.set_executor(spec.executor).set_interceptor(Box::new(adversary));
    sim.run(spec.rounds)?;
    Ok(sim.history().clone())
}

const X_ATTACK_SEED: u64 = 0xA77AC4;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            kind: SyntheticKind::MnistLike,
            n_clients: 4,
            train_per_class: 4,
            test_per_class: 2,
            rounds: 2,
            sample_ratio: 0.5,
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
            seed: 7,
            noise_override: None,
            executor: ClientExecutor::Sequential,
            backend: BackendKind::CpuBlocked,
            codec: CodecSpec::Identity,
        }
    }

    #[test]
    fn run_standard_all_algos_produce_history() {
        let spec = tiny_spec();
        for algo in [Algo::Centralized, Algo::FedAvg, Algo::FedProx, Algo::FedCav] {
            let h = run_standard(&spec, Dist::NonIidBalanced, algo).unwrap();
            assert_eq!(h.len(), spec.rounds, "{}", algo.name());
        }
    }

    #[test]
    fn run_standard_traced_captures_round_spans() {
        let spec = tiny_spec();
        let (h, events) = run_standard_traced(&spec, Dist::IidBalanced, Algo::FedAvg).unwrap();
        assert_eq!(h.len(), spec.rounds);
        assert_eq!(events.iter().filter(|e| e.name == "round").count(), spec.rounds);
        assert!(events.iter().any(|e| e.name == "round.ops"), "kernel counters were enabled");
        assert!(h.records.iter().all(|r| r.phases.total_ns > 0));
        // The export path accepts what the round loop emits.
        let jsonl = fedcav_trace::export::to_jsonl(&events);
        assert_eq!(fedcav_trace::export::parse_jsonl(&jsonl).unwrap(), events);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        // Both public entry points are wrappers over run_standard_with;
        // tracing must only observe. Phase timings are real wall-clock and
        // legitimately differ, so compare with them zeroed.
        let spec = tiny_spec();
        let strip = |h: &History| {
            h.records
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.phases = Default::default();
                    r
                })
                .collect::<Vec<_>>()
        };
        let plain = run_standard(&spec, Dist::IidBalanced, Algo::FedAvg).unwrap();
        let (traced, _) = run_standard_traced(&spec, Dist::IidBalanced, Algo::FedAvg).unwrap();
        assert_eq!(strip(&plain), strip(&traced));
    }

    #[test]
    fn concurrent_runs_on_different_backends_match_their_solo_runs() {
        // A spec's backend belongs to its run alone: two runs on different
        // backends, started together, must each reproduce their solo run.
        let zero_phases = |h: History| {
            h.records
                .into_iter()
                .map(|mut r| {
                    r.phases = Default::default();
                    r
                })
                .collect::<Vec<_>>()
        };
        let run = |backend: BackendKind| {
            let spec = ExperimentSpec { backend, ..tiny_spec() };
            zero_phases(run_standard(&spec, Dist::IidBalanced, Algo::FedAvg).unwrap())
        };
        let solo_blocked = run(BackendKind::CpuBlocked);
        let solo_reference = run(BackendKind::Reference);
        // Vacuity guard: a run on the wrong backend must be visible.
        assert_ne!(solo_blocked, solo_reference, "the two backends' histories coincide");
        for _ in 0..4 {
            let barrier = std::sync::Barrier::new(2);
            let (blocked, reference) = std::thread::scope(|s| {
                let blocked = s.spawn(|| {
                    barrier.wait();
                    run(BackendKind::CpuBlocked)
                });
                let reference = s.spawn(|| {
                    barrier.wait();
                    run(BackendKind::Reference)
                });
                (blocked.join().unwrap(), reference.join().unwrap())
            });
            assert_eq!(blocked, solo_blocked, "concurrent blocked run diverged from its solo run");
            assert_eq!(reference, solo_reference, "concurrent reference run diverged");
        }
    }

    #[test]
    fn run_fresh_class_history_len() {
        let spec = tiny_spec();
        let out = run_fresh_class(&spec, 0.3, Dist::NonIidBalanced, Algo::FedCav, 1).unwrap();
        assert_eq!(out.history.len(), spec.rounds);
        assert_eq!(out.fresh_classes.len(), 3);
        let (_, test) = spec.data().unwrap();
        let recall = out.fresh_recall(&spec, &test).unwrap();
        assert!(recall.is_some());
    }

    #[test]
    fn run_under_attack_fires() {
        let spec = tiny_spec();
        let h = run_under_attack(&spec, Dist::IidBalanced, Algo::FedAvg, 0, 1.0).unwrap();
        assert_eq!(h.len(), spec.rounds);
    }

    #[test]
    fn algo_names() {
        assert_eq!(Algo::FedCav.name(), "FedCav");
        assert_eq!(Dist::NonIidSigma(300.0).name(), "non-IID&sigma=300");
    }

    #[test]
    #[should_panic(expected = "not an aggregation strategy")]
    fn centralized_strategy_panics() {
        let _ = Algo::Centralized.strategy();
    }
}
