//! The million-client entry point (DESIGN.md §14), kept as a thin facade.
//!
//! [`ShardedSimulation`] is a [`Simulation`] over a procedural
//! [`Population`] ([`Simulation::over_population`]): the same round driver,
//! stages and fault handling, with the two-pass streaming aggregation for
//! cohorts larger than one shard. This module maps [`ShardedConfig`] onto
//! that driver and projects each [`crate::RoundRecord`] into a
//! [`ShardedRoundRecord`]; it holds no round logic of its own.
//!
//! It also hosts [`sample_cohort`], the O(cohort) sampler a population
//! source draws its cohorts with.

use crate::client::LocalConfig;
use crate::comm::CommStats;
use crate::executor::ClientExecutor;
use crate::faults::FaultModel;
use crate::metrics::FaultTelemetry;
use crate::population::Population;
use crate::server::{FaultPolicy, ModelFactory, Simulation, SimulationConfig};
use crate::strategy::Strategy;
use crate::transport::UpdateTransport;
use fedcav_nn::wire::CodecSpec;
use rand::Rng;
use std::collections::HashSet;

/// Configuration of a sharded deployment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Fraction `q` of clients sampled each round (scale default: 0.3%).
    pub sample_ratio: f64,
    /// Local-training hyper-parameters (Algorithm 2).
    pub local: LocalConfig,
    /// Master seed; drives sampling, training and fault streams.
    pub seed: u64,
    /// Clients per shard: the unit of pass-1/pass-2 batching, and the bound
    /// on how many updates exist at once. Values below 1 are treated as 1.
    pub shard_size: usize,
    /// Minimum validated updates required to aggregate; below it the round
    /// degrades (global model held). Values below 1 are treated as 1.
    pub min_quorum: usize,
    /// Optional L2-norm quarantine bound on incoming parameter vectors.
    pub max_param_norm: Option<f32>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            sample_ratio: 0.003,
            local: LocalConfig::default(),
            seed: 42,
            shard_size: 256,
            min_quorum: 1,
            max_param_norm: None,
        }
    }
}

/// What a [`ShardedSimulation`] records after each round.
#[derive(Debug, Clone)]
pub struct ShardedRoundRecord {
    /// Communication round index (0-based).
    pub round: usize,
    /// Total deployment size `n`.
    pub clients: usize,
    /// Sampled cohort size.
    pub cohort: usize,
    /// Updates that survived validation into the weight query.
    pub aggregated: usize,
    /// Mean inference loss over the surviving updates.
    pub mean_inference_loss: f32,
    /// Max inference loss over the surviving updates.
    pub max_inference_loss: f32,
    /// Whether the strategy rejected and reverted the round.
    pub rejected: bool,
    /// Rejection reason, when `rejected`.
    pub reject_reason: Option<String>,
    /// Dropped / quarantined contributions and quorum state.
    pub faults: FaultTelemetry,
    /// Bytes the server pushed this round (global model broadcast).
    pub bytes_down: u64,
    /// Bytes the cohort pushed back — encoded frame sizes when a wire
    /// codec is installed, the full-precision model otherwise.
    pub bytes_up: u64,
}

/// Sample `ceil(q · n)` distinct client indices in O(k) time and memory
/// (Floyd's algorithm) — the O(n) shuffle of [`crate::sampling`] would
/// allocate a million-entry scratch vector per round. Returns them sorted
/// ascending (cohort order). Degenerate inputs are clamped, never panicked
/// over: `n == 0` yields an empty cohort, any `q` outside `(0, 1]` is
/// clamped to it.
pub fn sample_cohort<R: Rng>(n: usize, q: f64, rng: &mut R) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let q = if q.is_finite() { q.clamp(0.0, 1.0) } else { 1.0 };
    let k = ((q * n as f64).ceil() as usize).clamp(1, n);
    if k == n {
        // Full participation: identical output (and no rng consumption
        // beyond what the result needs) for every sampler.
        return (0..n).collect();
    }
    let mut chosen: HashSet<usize> = HashSet::with_capacity(k);
    let mut cohort = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        if chosen.insert(t) {
            cohort.push(t);
        } else {
            chosen.insert(j);
            cohort.push(j);
        }
    }
    cohort.sort_unstable();
    cohort
}

/// A federated deployment over a procedural [`Population`]: a
/// [`Simulation::over_population`] configured from a [`ShardedConfig`].
/// Peak memory per round is O(shard_size · dim + cohort) — independent of
/// the deployment size `n`.
pub struct ShardedSimulation<'a> {
    sim: Simulation<'a>,
    records: Vec<ShardedRoundRecord>,
}

impl<'a> ShardedSimulation<'a> {
    /// Build a sharded deployment. The initial global model is one fresh
    /// `factory()` instance; the executor defaults to
    /// [`ClientExecutor::from_env`] (results are bit-identical either way).
    pub fn new(
        factory: &'a ModelFactory,
        population: Population,
        strategy: Box<dyn Strategy + 'a>,
        config: ShardedConfig,
    ) -> Self {
        let sim_config = SimulationConfig {
            sample_ratio: config.sample_ratio,
            local: config.local,
            seed: config.seed,
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::over_population(
            factory,
            population,
            config.shard_size,
            strategy,
            sim_config,
        );
        sim.set_fault_policy(FaultPolicy {
            min_quorum: config.min_quorum,
            max_param_norm: config.max_param_norm,
            ..FaultPolicy::default()
        });
        ShardedSimulation { sim, records: Vec::new() }
    }

    /// Install a fault model (default: none). Returns `&mut self`.
    pub fn set_fault_model(&mut self, model: Box<dyn FaultModel + 'a>) -> &mut Self {
        self.sim.set_fault_model(model);
        self
    }

    /// Choose the client executor. Returns `&mut self`.
    pub fn set_executor(&mut self, executor: ClientExecutor) -> &mut Self {
        self.sim.set_executor(executor);
        self
    }

    /// Install a compressed update transport (see
    /// [`Simulation::set_transport`]). Returns `&mut self`.
    pub fn set_transport(&mut self, transport: UpdateTransport) -> &mut Self {
        self.sim.set_transport(transport);
        self
    }

    /// Build and install the transport for a codec spec (see
    /// [`Simulation::set_codec`]). Returns `&mut self`.
    pub fn set_codec(&mut self, spec: CodecSpec) -> &mut Self {
        self.sim.set_codec(spec);
        self
    }

    /// The installed transport, if any.
    pub fn transport(&self) -> Option<&UpdateTransport> {
        self.sim.transport()
    }

    /// Cumulative traffic over all rounds run so far.
    pub fn comm_stats(&self) -> CommStats {
        self.sim.comm_stats()
    }

    /// Current global model parameters.
    pub fn global(&self) -> &[f32] {
        self.sim.global()
    }

    /// Number of clients in the deployment.
    pub fn n_clients(&self) -> usize {
        self.sim.n_clients()
    }

    /// Strategy name (for experiment output).
    pub fn strategy_name(&self) -> &'static str {
        self.sim.strategy_name()
    }

    /// Records of the rounds run so far, in order.
    pub fn records(&self) -> &[ShardedRoundRecord] {
        &self.records
    }

    /// Run one round.
    pub fn run_round(&mut self) -> crate::Result<ShardedRoundRecord> {
        let r = self.sim.run_round()?;
        let record = ShardedRoundRecord {
            round: r.round,
            clients: self.sim.n_clients(),
            cohort: r.participants,
            aggregated: r.aggregated(),
            mean_inference_loss: r.mean_inference_loss,
            max_inference_loss: r.max_inference_loss,
            rejected: r.rejected,
            reject_reason: r.reject_reason,
            faults: r.faults,
            bytes_down: r.bytes_down,
            bytes_up: r.bytes_up,
        };
        self.records.push(record.clone());
        Ok(record)
    }

    /// Run `rounds` rounds, returning the final record. `rounds == 0` is an
    /// error, not a panic.
    pub fn run(&mut self, rounds: usize) -> crate::Result<ShardedRoundRecord> {
        if rounds == 0 {
            return Err(crate::TensorError::Empty { op: "ShardedSimulation::run" });
        }
        let mut last = self.run_round()?;
        for _ in 1..rounds {
            last = self.run_round()?;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommModel;
    use crate::faults::InjectedFault;
    use crate::fedavg::FedAvg;
    use crate::strategy::{Aggregation, RoundContext as StrategyContext};
    use crate::update::LocalUpdate;
    use fedcav_data::{SyntheticConfig, SyntheticKind};
    use fedcav_nn::{models, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_population(n: usize) -> Population {
        Population::new(n, 5, SyntheticConfig::new(SyntheticKind::MnistLike, 2, 1))
    }

    fn factory() -> impl Fn() -> Sequential + Sync {
        let img_len = 28 * 28;
        move || models::mlp(&mut StdRng::seed_from_u64(7), img_len, 10)
    }

    #[test]
    fn cohort_size_matches_ratio() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_cohort(1_000_000, 0.003, &mut rng).len(), 3000);
        assert_eq!(sample_cohort(100, 1.0, &mut rng), (0..100).collect::<Vec<_>>());
        assert_eq!(sample_cohort(10, 0.05, &mut rng).len(), 1);
        assert!(sample_cohort(0, 0.5, &mut rng).is_empty());
    }

    #[test]
    fn cohort_is_sorted_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = sample_cohort(10_000, 0.01, &mut rng);
        assert_eq!(c.len(), 100);
        assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert!(c.iter().all(|&i| i < 10_000));
    }

    #[test]
    fn degenerate_ratio_is_clamped_not_panicked() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_cohort(10, 0.0, &mut rng).len(), 1);
        assert_eq!(sample_cohort(10, 7.0, &mut rng).len(), 10);
        assert_eq!(sample_cohort(10, f64::NAN, &mut rng).len(), 10);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let draw = |seed| sample_cohort(5000, 0.01, &mut StdRng::seed_from_u64(seed));
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn sharded_round_runs_and_learns_state() {
        let f = factory();
        let mut sim = ShardedSimulation::new(
            &f,
            tiny_population(6),
            Box::new(FedAvg::new()),
            ShardedConfig {
                sample_ratio: 0.5,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                shard_size: 2,
                ..Default::default()
            },
        );
        let before = sim.global().to_vec();
        let r = sim.run_round().unwrap();
        assert_eq!(r.cohort, 3);
        assert_eq!(r.aggregated, 3);
        assert!(!r.rejected);
        assert_ne!(sim.global(), &before[..], "aggregation moved the model");
        assert_eq!(sim.records().len(), 1);
    }

    #[test]
    fn shard_size_does_not_change_the_model() {
        let run_with = |shard_size: usize| {
            let f = factory();
            let mut sim = ShardedSimulation::new(
                &f,
                tiny_population(5),
                Box::new(FedAvg::new()),
                ShardedConfig {
                    sample_ratio: 1.0,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    shard_size,
                    ..Default::default()
                },
            );
            sim.set_executor(ClientExecutor::Sequential);
            sim.run(2).unwrap();
            sim.global().to_vec()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2), "shard size 2 diverged");
        assert_eq!(one, run_with(64), "shard size 64 diverged");
    }

    #[test]
    fn quorum_miss_degrades_and_holds_the_model() {
        struct CrashAll;
        impl FaultModel for CrashAll {
            fn inject(&self, _s: u64, _r: usize, _c: usize) -> Option<InjectedFault> {
                Some(InjectedFault::Crash)
            }
        }
        let f = factory();
        let mut sim = ShardedSimulation::new(
            &f,
            tiny_population(4),
            Box::new(FedAvg::new()),
            ShardedConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                ..Default::default()
            },
        );
        sim.set_fault_model(Box::new(CrashAll));
        let before = sim.global().to_vec();
        let r = sim.run_round().unwrap();
        assert!(r.faults.degraded);
        assert_eq!(r.faults.dropped, 4);
        assert_eq!(r.aggregated, 0);
        assert_eq!(sim.global(), &before[..], "global model held");
    }

    #[test]
    fn corrupted_update_is_quarantined() {
        use crate::faults::Corruption;
        struct PoisonOne;
        impl FaultModel for PoisonOne {
            fn inject(&self, _s: u64, _r: usize, c: usize) -> Option<InjectedFault> {
                (c == 1).then_some(InjectedFault::CorruptParams(Corruption::Nan))
            }
        }
        let f = factory();
        let mut sim = ShardedSimulation::new(
            &f,
            tiny_population(3),
            Box::new(FedAvg::new()),
            ShardedConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                ..Default::default()
            },
        );
        sim.set_fault_model(Box::new(PoisonOne));
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.quarantined, 1);
        assert_eq!(r.aggregated, 2);
        assert!(sim.global().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn sharded_transport_bills_encoded_frames() {
        let f = factory();
        let mut sim = ShardedSimulation::new(
            &f,
            tiny_population(4),
            Box::new(FedAvg::new()),
            ShardedConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                shard_size: 2,
                ..Default::default()
            },
        );
        sim.set_codec(CodecSpec::F16 { delta: true });
        let dim = sim.global().len();
        let frame = sim.transport().unwrap().encoded_len(dim, false);
        let r = sim.run_round().unwrap();
        assert_eq!(r.aggregated, 4);
        assert_eq!(r.bytes_up, 4 * (frame + 24), "encoded frames + envelopes");
        assert_eq!(r.bytes_down, CommModel::new(dim).downlink(4));
        assert!(r.bytes_up < CommModel::new(dim).uplink(4, false), "f16 halves the uplink");
        assert!(sim.global().iter().all(|p| p.is_finite()));
        assert_eq!(sim.comm_stats().total_up, r.bytes_up);
    }

    #[test]
    fn sharded_identity_codec_matches_no_transport_bit_for_bit() {
        let run_with = |codec: Option<CodecSpec>| {
            let f = factory();
            let mut sim = ShardedSimulation::new(
                &f,
                tiny_population(4),
                Box::new(FedAvg::new()),
                ShardedConfig {
                    sample_ratio: 1.0,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    shard_size: 2,
                    ..Default::default()
                },
            );
            sim.set_executor(ClientExecutor::Sequential);
            if let Some(spec) = codec {
                sim.set_codec(spec);
            }
            sim.run(2).unwrap();
            sim.global().to_vec()
        };
        let plain = run_with(None);
        let identity = run_with(Some(CodecSpec::Identity));
        let delta = run_with(Some(CodecSpec::Delta));
        assert_eq!(plain, identity, "identity codec changed the trajectory");
        assert_eq!(plain, delta, "bitwise delta is lossless and must match too");
    }

    #[test]
    fn run_zero_rounds_is_an_error() {
        let f = factory();
        let mut sim = ShardedSimulation::new(
            &f,
            tiny_population(2),
            Box::new(FedAvg::new()),
            ShardedConfig::default(),
        );
        assert!(sim.run(0).is_err());
        assert!(sim.records().is_empty());
    }

    /// A strategy with no scalar weighting: exercises the materialized
    /// fallback path.
    struct NeedsParams;
    impl Strategy for NeedsParams {
        fn name(&self) -> &'static str {
            "NeedsParams"
        }
        fn aggregate(
            &mut self,
            _ctx: &StrategyContext<'_>,
            updates: &[LocalUpdate],
        ) -> crate::Result<Aggregation> {
            crate::aggregate::sample_weights(updates)
                .and_then(|w| crate::aggregate::weighted_sum(updates, &w))
                .map(Aggregation::Accept)
        }
    }

    #[test]
    fn fallback_path_matches_streaming_for_equivalent_rules() {
        // NeedsParams aggregates exactly like FedAvg but only via the
        // materialized fallback; the two drivers must agree bit-for-bit.
        let run_with = |streaming: bool| {
            let f = factory();
            let strategy: Box<dyn Strategy> =
                if streaming { Box::new(FedAvg::new()) } else { Box::new(NeedsParams) };
            let mut sim = ShardedSimulation::new(
                &f,
                tiny_population(4),
                strategy,
                ShardedConfig {
                    sample_ratio: 1.0,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    shard_size: 2,
                    ..Default::default()
                },
            );
            sim.set_executor(ClientExecutor::Sequential);
            sim.run(2).unwrap();
            sim.global().to_vec()
        };
        assert_eq!(run_with(true), run_with(false));
    }
}
