//! The server round loop: one driver over the staged round pipeline
//! ([`crate::stages`]) — sampling, parallel local training, delivery,
//! validation, aggregation, evaluation (Algorithm 1's outer loop).
//!
//! The loop is *fault-tolerant*: a client that crashes, errors, uploads
//! garbage or misses the deadline costs the round one contribution, never
//! the whole simulation. See [`FaultPolicy`] and [`crate::faults`].
//!
//! A [`Simulation`] draws its clients from one of two sources: live
//! datasets ([`Simulation::new`]) or a procedural [`Population`]
//! ([`Simulation::over_population`]). Both run the same `run_round`. A
//! round keeps its updates and aggregates them in one pass when an
//! interceptor is installed or the cohort fits in one shard (always, for
//! datasets); a larger population cohort runs the two-pass streaming
//! protocol of DESIGN.md §14 instead, holding at most one shard's updates.
//!
//! Each stage lives in its own module under `stages/`; `run_round` only
//! sequences them, times them ([`PhaseTimings`]), and folds the resulting
//! [`crate::stages::RoundContext`] into the permanent [`RoundRecord`].

use crate::availability::{AlwaysAvailable, AvailabilityModel};
use crate::client::LocalConfig;
use crate::comm::{CommModel, CommStats};
use crate::executor::ClientExecutor;
use crate::faults::FaultModel;
use crate::latency::LatencyModel;
use crate::metrics::{History, RoundRecord};
use crate::population::Population;
use crate::sharded::sample_cohort;
use crate::stages::{self, delivery::DeliveryEnv, training::Clients, training::TrainingEnv};
use crate::strategy::{Strategy, UpdateMeta};
use crate::transport::UpdateTransport;
use crate::update::LocalUpdate;
use fedcav_data::Dataset;
use fedcav_nn::wire::CodecSpec;
use fedcav_nn::Sequential;
use fedcav_tensor::{Result, TensorError};
use fedcav_trace::{NoopTracer, PhaseTimings, Span, Tracer, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A model constructor. Every worker thread builds its own model instance
/// from this, so the architecture definition is shared but no tensor is.
pub type ModelFactory = dyn Fn() -> Sequential + Sync;

/// Deployment-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Fraction `q` of clients sampled each round (paper: 0.3).
    pub sample_ratio: f64,
    /// Local-training hyper-parameters (Algorithm 2).
    pub local: LocalConfig,
    /// Batch size for server-side test evaluation.
    pub eval_batch: usize,
    /// Master seed; drives sampling and all per-client shuffles.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            sample_ratio: 0.3,
            local: LocalConfig::default(),
            eval_batch: 64,
            seed: 42,
        }
    }
}

/// How the server degrades gracefully when clients fail.
///
/// The defaults reproduce the pre-fault-tolerance behaviour exactly for
/// healthy runs: no deadline, a quorum of one, no norm bound. Validation
/// (length + finiteness) is always on — it only ever rejects updates that
/// would otherwise poison the aggregation arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Round deadline in simulated seconds. A participant whose modelled
    /// latency (times any injected straggler slowdown) exceeds it is
    /// dropped, and the round's duration is capped at the deadline.
    /// Requires a [`LatencyModel`]; ignored without one.
    pub deadline: Option<f64>,
    /// Minimum number of validated updates required to aggregate. Below
    /// this the round *degrades*: the global model is held unchanged and
    /// the round is recorded with `faults.degraded = true`. Values below 1
    /// are treated as 1 (aggregating nothing is never meaningful).
    pub min_quorum: usize,
    /// Optional L2-norm bound on incoming parameter vectors; updates above
    /// it are quarantined. `None` disables the check.
    pub max_param_norm: Option<f32>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { deadline: None, min_quorum: 1, max_param_norm: None }
    }
}

/// A hook that may tamper with the round's updates before aggregation —
/// the seam where `fedcav-attack` splices in model-replacement updates.
pub trait Interceptor: Send {
    /// Inspect/mutate the collected updates for round `round`.
    fn intercept(
        &mut self,
        round: usize,
        global: &[f32],
        updates: &mut Vec<LocalUpdate>,
    ) -> Result<()>;
}

/// Where a [`Simulation`]'s clients come from.
enum ClientSource {
    /// One live dataset per client, plus the server's test set.
    Datasets { clients: Vec<Dataset>, test: Dataset },
    /// A procedural population. `shard_size` (at least 1) is the largest
    /// cohort whose updates a round keeps, and the unit of the streaming
    /// protocol's passes.
    Population { population: Population, shard_size: usize },
}

impl ClientSource {
    fn n(&self) -> usize {
        match self {
            ClientSource::Datasets { clients, .. } => clients.len(),
            ClientSource::Population { population, .. } => population.n(),
        }
    }

    fn clients(&self) -> Clients<'_> {
        match self {
            ClientSource::Datasets { clients, .. } => Clients::Datasets(clients),
            ClientSource::Population { population, .. } => Clients::Population(population),
        }
    }

    /// A datasets source always keeps its cohort's updates.
    fn shard_size(&self) -> usize {
        match self {
            ClientSource::Datasets { .. } => usize::MAX,
            ClientSource::Population { shard_size, .. } => *shard_size,
        }
    }
}

/// A federated deployment: `n` clients (live datasets or a procedural
/// population), one aggregation strategy, one global model.
pub struct Simulation<'a> {
    factory: &'a ModelFactory,
    source: ClientSource,
    strategy: Box<dyn Strategy + 'a>,
    interceptor: Option<Box<dyn Interceptor + 'a>>,
    transport: Option<UpdateTransport>,
    availability: Box<dyn AvailabilityModel + 'a>,
    latency: Option<Box<dyn LatencyModel + 'a>>,
    fault_model: Option<Box<dyn FaultModel + 'a>>,
    fault_policy: FaultPolicy,
    executor: ClientExecutor,
    sim_time: f64,
    /// The global model, Arc'd so the broadcast to clients is zero-copy
    /// and [`Simulation::global_arc`] snapshots are free. Aggregation
    /// mutates it through `Arc::make_mut` (copy-on-write only while a
    /// snapshot is alive).
    global: Arc<Vec<f32>>,
    history: History,
    config: SimulationConfig,
    round: usize,
    rng: StdRng,
    comm_model: CommModel,
    comm_stats: CommStats,
    tracer: Arc<dyn Tracer>,
}

impl<'a> Simulation<'a> {
    /// Build a deployment over live client datasets and a server test set.
    /// The initial global model is one fresh `factory()` instance (the
    /// paper's "initialize weights" step). The client executor defaults to
    /// [`ClientExecutor::from_env`], so setting `FEDCAV_EXECUTOR=threads:4`
    /// parallelises every simulation in the process without code changes
    /// (results are bit-identical either way).
    pub fn new(
        factory: &'a ModelFactory,
        clients: Vec<Dataset>,
        test: Dataset,
        strategy: Box<dyn Strategy + 'a>,
        config: SimulationConfig,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        Self::with_source(factory, ClientSource::Datasets { clients, test }, strategy, config)
    }

    /// Build a deployment over a procedural [`Population`]: a client's data
    /// exists only while it trains, and the cohort is sampled in O(cohort)
    /// ([`sample_cohort`]; availability models do not apply). A cohort
    /// larger than `shard_size` (values below 1 count as 1) is aggregated
    /// by the two-pass streaming protocol, so at most `shard_size` updates
    /// exist at once — unless an interceptor is installed, which must see
    /// the whole cohort. There is no server test set, so rounds record no
    /// test metrics.
    pub fn over_population(
        factory: &'a ModelFactory,
        population: Population,
        shard_size: usize,
        strategy: Box<dyn Strategy + 'a>,
        config: SimulationConfig,
    ) -> Self {
        let source = ClientSource::Population { population, shard_size: shard_size.max(1) };
        Self::with_source(factory, source, strategy, config)
    }

    fn with_source(
        factory: &'a ModelFactory,
        source: ClientSource,
        strategy: Box<dyn Strategy + 'a>,
        config: SimulationConfig,
    ) -> Self {
        let global = Arc::new(factory().flat_params());
        let comm_model = CommModel::new(global.len());
        let rng = StdRng::seed_from_u64(config.seed);
        Simulation {
            factory,
            source,
            strategy,
            interceptor: None,
            transport: None,
            availability: Box::new(AlwaysAvailable),
            latency: None,
            fault_model: None,
            fault_policy: FaultPolicy::default(),
            executor: ClientExecutor::from_env(),
            sim_time: 0.0,
            global,
            history: History::new(),
            config,
            round: 0,
            rng,
            comm_model,
            comm_stats: CommStats::default(),
            tracer: Arc::new(NoopTracer),
        }
    }

    /// Install an adversarial interceptor. Returns `&mut self` for chaining.
    /// Rounds then keep every update in memory, whatever the source.
    pub fn set_interceptor(&mut self, interceptor: Box<dyn Interceptor + 'a>) -> &mut Self {
        self.interceptor = Some(interceptor);
        self
    }
    /// Install a compressed update transport: every arriving upload is run
    /// through the codec at delivery (before billing and before any
    /// adversarial interceptor), and `CommStats` bills the *encoded* frame
    /// bytes. Returns `&mut self` for chaining.
    pub fn set_transport(&mut self, transport: UpdateTransport) -> &mut Self {
        self.transport = Some(transport);
        self
    }

    /// Build and install the transport for a codec spec, deriving the
    /// per-tensor layout from a fresh factory model. Returns `&mut self`
    /// for chaining.
    pub fn set_codec(&mut self, spec: CodecSpec) -> &mut Self {
        let layout = (self.factory)().param_layout();
        self.set_transport(UpdateTransport::new(spec, &layout))
    }

    /// The installed transport, if any.
    pub fn transport(&self) -> Option<&UpdateTransport> {
        self.transport.as_ref()
    }

    /// Install a tracer (default: [`NoopTracer`]). Tracing only *observes*
    /// wall time — results are bit-identical for the same seed whatever
    /// tracer is installed. Keep a clone of the [`Arc`] to read collected
    /// events back out after the run. Returns `&mut self` for chaining.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) -> &mut Self {
        self.tracer = tracer;
        self
    }

    /// Install a client-availability model (default: everyone online).
    /// Applies to a datasets source; a population samples its whole
    /// deployment. Returns `&mut self` for chaining.
    pub fn set_availability(&mut self, model: Box<dyn AvailabilityModel + 'a>) -> &mut Self {
        self.availability = model;
        self
    }

    /// Install a latency model; rounds then advance simulated wall-clock by
    /// the slowest participant's latency (synchronous FL). Returns
    /// `&mut self` for chaining.
    pub fn set_latency(&mut self, model: Box<dyn LatencyModel + 'a>) -> &mut Self {
        self.latency = Some(model);
        self
    }

    /// Install a fault model (default: none — every client behaves).
    /// Installing [`crate::faults::NoFaults`] is byte-identical to
    /// installing nothing. Returns `&mut self` for chaining.
    pub fn set_fault_model(&mut self, model: Box<dyn FaultModel + 'a>) -> &mut Self {
        self.fault_model = Some(model);
        self
    }

    /// Configure graceful degradation (deadline, quorum, norm bound).
    /// Returns `&mut self` for chaining.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) -> &mut Self {
        self.fault_policy = policy;
        self
    }

    /// Choose how the training stage schedules clients (default: the
    /// [`crate::executor::EXECUTOR_ENV`] override, else sequential). Every
    /// executor produces bit-identical results — only wall-clock changes.
    /// Returns `&mut self` for chaining.
    pub fn set_executor(&mut self, executor: ClientExecutor) -> &mut Self {
        self.executor = executor;
        self
    }

    /// The client executor in force.
    pub fn executor(&self) -> ClientExecutor {
        self.executor
    }

    /// The fault-tolerance policy in force.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// Simulated wall-clock so far (0 when no latency model installed).
    pub fn sim_time(&self) -> f64 {
        self.sim_time
    }

    /// Replace the global model (e.g. with a pre-trained one, §5.2.2).
    pub fn set_global(&mut self, params: Vec<f32>) -> Result<()> {
        if params.len() != self.global.len() {
            return Err(TensorError::ElementCountMismatch {
                from: params.len(),
                to: self.global.len(),
            });
        }
        self.global = Arc::new(params);
        Ok(())
    }

    /// Current global model parameters.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// Zero-copy snapshot of the current global model. The snapshot stays
    /// valid (and unchanged) across later rounds: aggregation replaces the
    /// server's buffer copy-on-write rather than mutating it in place.
    pub fn global_arc(&self) -> Arc<Vec<f32>> {
        Arc::clone(&self.global)
    }

    /// Number of clients in the deployment.
    pub fn n_clients(&self) -> usize {
        self.source.n()
    }

    /// Strategy name (for experiment output).
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// History so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Cumulative communication traffic (§6 overhead accounting).
    pub fn comm_stats(&self) -> CommStats {
        self.comm_stats
    }

    /// Run one communication round; returns the recorded metrics.
    ///
    /// This is a pure driver: it sequences the six pipeline stages, times
    /// each one, and records the result — all round semantics live in
    /// [`crate::stages`].
    pub fn run_round(&mut self) -> Result<RoundRecord> {
        // Phase wall times are always measured (a few `Instant` reads per
        // round and shard); the tracer only decides whether span *events*
        // are also emitted. Cloning the Arc keeps the spans free of `self`
        // borrows.
        let tracer = Arc::clone(&self.tracer);
        let tracer: &dyn Tracer = &*tracer;
        let mut phases = PhaseTimings::default();
        let round_span = Span::begin(tracer, "round");
        let ops_before = fedcav_tensor::counters::snapshot();
        let round = self.round;
        let mut ctx = stages::RoundContext::new(round);

        let span = Span::begin(tracer, "round.sampling");
        let q = self.config.sample_ratio;
        match &self.source {
            ClientSource::Datasets { clients, .. } => stages::sampling::run(
                &mut ctx,
                &*self.availability,
                clients.len(),
                q,
                &mut self.rng,
            ),
            ClientSource::Population { population, .. } => {
                ctx.participants = sample_cohort(population.n(), q, &mut self.rng);
            }
        }
        phases.sampling_ns = span.done();

        let Simulation {
            factory,
            source,
            strategy,
            interceptor,
            transport,
            latency,
            fault_model,
            fault_policy,
            executor,
            global,
            config,
            comm_model,
            comm_stats,
            ..
        } = self;
        // The keep-or-regenerate rule (DESIGN.md §14): keep the updates when
        // the interceptor must see them all or the cohort fits in a shard;
        // otherwise keep only their scalars and regenerate them in pass 2.
        let shard_size = source.shard_size();
        let keep = interceptor.is_some() || ctx.participants.len() <= shard_size;
        // FedProx-style strategies inject their μ into local training;
        // other strategies leave the configured value (normally 0).
        let strategy_mu = strategy.prox_mu();
        let local = LocalConfig {
            prox_mu: if strategy_mu > 0.0 { strategy_mu } else { config.local.prox_mu },
            ..config.local
        };
        let collect = Collect {
            training: TrainingEnv {
                factory: *factory,
                global: &*global,
                clients: source.clients(),
                local,
                seed: config.seed,
                fault_model: fault_model.as_deref(),
            },
            delivery: DeliveryEnv {
                latency: latency.as_deref(),
                deadline: fault_policy.deadline,
                comm: *comm_model,
                counts_loss: strategy.uses_inference_loss(),
                global: &*global,
                transport: transport.as_ref(),
            },
            executor: *executor,
            max_param_norm: fault_policy.max_param_norm,
        };

        // Pass 1: train, deliver and validate shard by shard. Kept updates
        // stay in `ctx.updates`; otherwise only their scalars survive.
        let cohort = std::mem::take(&mut ctx.participants);
        let chunk_len = if keep { cohort.len() } else { shard_size }.max(1);
        let mut interceptor = interceptor.as_deref_mut();
        let mut metas: Vec<UpdateMeta> = Vec::new();
        for chunk in cohort.chunks(chunk_len) {
            collect.chunk(&mut ctx, chunk, interceptor.take(), tracer, &mut phases)?;
            metas.extend(ctx.updates.iter().map(UpdateMeta::of));
            if !keep {
                ctx.updates.clear();
            }
        }
        ctx.participants = cohort;
        // Close the round's ledger and loss statistics. A degraded round
        // still moved its bytes, and pass 2 replays uploads without billing.
        stages::delivery::bill(&mut ctx, &collect.delivery, comm_stats);
        stages::validation::close(&mut ctx, &metas);
        let aggregated = metas.len();

        let span = Span::begin(tracer, "round.aggregation");
        let quorum = fault_policy.min_quorum;
        if keep {
            // Copy-on-write: by now every client's Arc'd download is
            // dropped, so make_mut mutates in place unless a user snapshot
            // is alive.
            stages::aggregation::run(&mut ctx, &mut **strategy, Arc::make_mut(global), quorum)?;
        } else {
            let decision = stages::aggregation::decide_streaming(
                &mut ctx,
                &mut **strategy,
                collect.training.global,
                quorum,
                metas,
                shard_size,
                |ids| collect.replay(round, ids),
            )?;
            if let Some(decision) = decision {
                let global = Arc::make_mut(global);
                stages::aggregation::install(&mut ctx, &mut **strategy, global, decision)?;
            }
        }
        phases.aggregation_ns = span.done();

        let span = Span::begin(tracer, "round.evaluation");
        if let ClientSource::Datasets { test, .. } = source {
            stages::evaluation::run(&mut ctx, *factory, global, test, config.eval_batch)?;
        }
        phases.evaluation_ns = span.done();

        let round_duration = latency
            .as_deref()
            .map(|m| m.round_duration_capped(&ctx.slowdowns, round, fault_policy.deadline))
            .unwrap_or(0.0);
        self.sim_time += round_duration;
        // Close the whole-round span last; `total_ns` is measured by its
        // own Instant, so `phases.phase_sum_ns() <= phases.total_ns` holds.
        phases.total_ns = round_span.finish(round_fields(tracer, &ctx, aggregated));
        emit_ops_counter(tracer, round, &ops_before);

        let record = ctx.into_record(phases, round_duration, self.sim_time);
        self.history.records.push(record.clone());
        self.round += 1;
        Ok(record)
    }

    /// Run `n` rounds, returning the final record. `n == 0` is an error,
    /// not a panic: there is no record to return.
    pub fn run(&mut self, n: usize) -> Result<RoundRecord> {
        if n == 0 {
            return Err(TensorError::Empty { op: "Simulation::run" });
        }
        let mut last = self.run_round()?;
        for _ in 1..n {
            last = self.run_round()?;
        }
        Ok(last)
    }
}

/// What one round's training, delivery and validation stages read.
struct Collect<'r> {
    training: TrainingEnv<'r>,
    delivery: DeliveryEnv<'r>,
    executor: ClientExecutor,
    max_param_norm: Option<f32>,
}

impl Collect<'_> {
    /// Train, deliver and validate `chunk` into `ctx.updates`, adding each
    /// stage's wall time to `phases`.
    fn chunk<'i>(
        &self,
        ctx: &mut stages::RoundContext,
        chunk: &[usize],
        interceptor: Option<&mut (dyn Interceptor + 'i)>,
        tracer: &dyn Tracer,
        phases: &mut PhaseTimings,
    ) -> Result<()> {
        let span = Span::begin(tracer, "round.training");
        stages::training::run(ctx, chunk, &self.training, self.executor);
        phases.training_ns += span.finish(training_fields(tracer, chunk.len()));

        let span = Span::begin(tracer, "round.delivery");
        stages::delivery::run(ctx, &self.delivery, interceptor)?;
        phases.delivery_ns += span.done();

        let span = Span::begin(tracer, "round.validation");
        stages::validation::run(ctx, self.training.global.len(), self.max_param_norm);
        phases.validation_ns += span.done();
        Ok(())
    }

    /// Pass 2 of the streaming protocol: replay `ids` through the same
    /// stages and return their validated updates in order. Clients are pure
    /// functions of `(seed, round, id)` and the codec is deterministic, so
    /// these are the pass-1 updates; the replay is neither billed nor
    /// recorded, and its time counts as aggregation.
    fn replay(&self, round: usize, ids: &[usize]) -> Result<Vec<LocalUpdate>> {
        let mut replay = stages::RoundContext::new(round);
        self.chunk(&mut replay, ids, None, &NoopTracer, &mut PhaseTimings::default())?;
        Ok(replay.updates)
    }
}

/// Span fields for the training phase (only built when the tracer listens).
fn training_fields(tracer: &dyn Tracer, clients: usize) -> Vec<(String, Value)> {
    if tracer.enabled() {
        vec![("clients".to_string(), Value::from(clients))]
    } else {
        Vec::new()
    }
}

/// Span fields for the whole-round span (only built when the tracer
/// listens).
fn round_fields(
    tracer: &dyn Tracer,
    ctx: &stages::RoundContext,
    aggregated: usize,
) -> Vec<(String, Value)> {
    if !tracer.enabled() {
        return Vec::new();
    }
    vec![
        ("round".to_string(), Value::from(ctx.round)),
        ("participants".to_string(), Value::from(ctx.participants.len())),
        ("aggregated".to_string(), Value::from(aggregated)),
        ("accuracy".to_string(), Value::from(ctx.test_accuracy)),
        ("rejected".to_string(), Value::from(ctx.rejected)),
        ("bytes_down".to_string(), Value::from(ctx.bytes_down)),
        ("bytes_up".to_string(), Value::from(ctx.bytes_up)),
    ]
}

/// Emit the per-round op-counter delta as a counter event (only when both a
/// tracer listens and the tensor counters are enabled).
fn emit_ops_counter(
    tracer: &dyn Tracer,
    round: usize,
    before: &fedcav_tensor::counters::OpCounters,
) {
    if tracer.enabled() && fedcav_tensor::counters::is_enabled() {
        let ops = fedcav_tensor::counters::snapshot().delta(before);
        let mut ev =
            fedcav_trace::Event::counter("round.ops", tracer.now_ns()).with("round", round);
        for (k, v) in ops.fields() {
            ev = ev.with(k, v);
        }
        tracer.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Corruption, InjectedFault, NoFaults};
    use crate::fedavg::FedAvg;
    use crate::strategy::{Aggregation, RoundContext};
    use fedcav_data::{partition, SyntheticConfig, SyntheticKind};
    use fedcav_nn::models;

    fn deployment(n_clients: usize) -> (Vec<Dataset>, Dataset, usize) {
        let (train, test) =
            SyntheticConfig::new(SyntheticKind::MnistLike, 8, 2).generate().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let part = partition::iid_balanced(&train, n_clients, &mut rng);
        let img_len = train.image_len();
        (part.client_datasets(&train).unwrap(), test, img_len)
    }

    #[test]
    fn fedavg_learns_over_rounds() {
        let (clients, test, img_len) = deployment(5);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let config = SimulationConfig {
            sample_ratio: 0.6,
            local: LocalConfig { epochs: 2, batch_size: 8, lr: 0.1, prox_mu: 0.0 },
            eval_batch: 32,
            seed: 1,
        };
        let mut sim = Simulation::new(&factory, clients, test, Box::new(FedAvg::new()), config);
        let first = sim.run_round().unwrap();
        let last = sim.run(6).unwrap();
        assert!(
            last.test_accuracy > first.test_accuracy,
            "acc should rise: {} -> {}",
            first.test_accuracy,
            last.test_accuracy
        );
        assert_eq!(sim.history().len(), 7);
    }

    #[test]
    fn round_records_have_expected_fields() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 0.5,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 3,
            },
        );
        let r = sim.run_round().unwrap();
        assert_eq!(r.round, 0);
        assert_eq!(r.participants, 2);
        assert!(!r.rejected);
        assert!(r.max_inference_loss >= r.mean_inference_loss);
        assert!(r.test_accuracy >= 0.0 && r.test_accuracy <= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run_once = || {
            let (clients, test, img_len) = deployment(4);
            let factory = move || {
                let mut rng = StdRng::seed_from_u64(7);
                models::mlp(&mut rng, img_len, 10)
            };
            let mut sim = Simulation::new(
                &factory,
                clients,
                test,
                Box::new(FedAvg::new()),
                SimulationConfig {
                    sample_ratio: 0.5,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    eval_batch: 32,
                    seed: 11,
                },
            );
            sim.run(3).unwrap();
            sim.global().to_vec()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn set_global_validates_len() {
        let (clients, test, img_len) = deployment(2);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig::default(),
        );
        assert!(sim.set_global(vec![0.0; 3]).is_err());
        let p = sim.global().to_vec();
        assert!(sim.set_global(p).is_ok());
    }

    #[test]
    fn global_snapshot_is_zero_copy_and_copy_on_write() {
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.1, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 5,
            },
        );
        let snap = sim.global_arc();
        assert!(Arc::ptr_eq(&snap, &sim.global_arc()), "snapshots share one allocation");
        let before = snap.to_vec();
        sim.run_round().unwrap();
        // Aggregation went copy-on-write because the snapshot was alive:
        // the server moved to a fresh buffer, the snapshot kept the old one.
        assert!(!Arc::ptr_eq(&snap, &sim.global_arc()), "round must not mutate live snapshots");
        assert_eq!(&before[..], &snap[..]);
        assert_ne!(sim.global(), &before[..], "the round moved the server's model");
    }

    #[test]
    fn interceptor_sees_and_mutates_updates() {
        struct DropAll;
        impl Interceptor for DropAll {
            fn intercept(
                &mut self,
                _round: usize,
                global: &[f32],
                updates: &mut Vec<LocalUpdate>,
            ) -> Result<()> {
                // Replace every update with the unchanged global model.
                for u in updates.iter_mut() {
                    u.params = global.to_vec();
                }
                Ok(())
            }
        }
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.1, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 5,
            },
        );
        let before = sim.global().to_vec();
        sim.set_interceptor(Box::new(DropAll));
        sim.run_round().unwrap();
        // Aggregating copies of the global leaves it unchanged.
        for (a, b) in sim.global().iter().zip(&before) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn latency_model_advances_sim_time() {
        use crate::latency::UniformLatency;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 3,
            },
        );
        assert_eq!(sim.sim_time(), 0.0);
        sim.set_latency(Box::new(UniformLatency(3.0)));
        let r1 = sim.run_round().unwrap();
        assert_eq!(r1.round_duration, 3.0);
        assert_eq!(r1.sim_time, 3.0);
        let r2 = sim.run_round().unwrap();
        assert_eq!(r2.sim_time, 6.0);
        assert_eq!(sim.sim_time(), 6.0);
        // History helper: first time accuracy >= 0 is the first round's end.
        assert_eq!(sim.history().time_to_accuracy(0.0), Some(3.0));
    }

    #[test]
    fn availability_restricts_participants() {
        use crate::availability::AvailabilityModel;
        // Only clients 0 and 1 are ever online.
        struct OnlyTwo;
        impl AvailabilityModel for OnlyTwo {
            fn is_available(&self, client: usize, _round: usize) -> bool {
                client < 2
            }
        }
        let (clients, test, img_len) = deployment(6);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 3,
            },
        );
        sim.set_availability(Box::new(OnlyTwo));
        let r = sim.run_round().unwrap();
        assert_eq!(r.participants, 2, "only the online clients participate");
    }

    #[test]
    fn comm_accounting_matches_model() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 0.5,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 3,
            },
        );
        let n_params = sim.global().len();
        let r = sim.run_round().unwrap();
        let model = CommModel::new(n_params);
        assert_eq!(r.bytes_down, model.downlink(r.participants));
        // FedAvg does not consume the inference loss.
        assert_eq!(r.bytes_up, model.uplink(r.participants, false));
        let stats = sim.comm_stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_down, r.bytes_down);
        assert_eq!(stats.total_up, r.bytes_up);
    }

    #[test]
    fn builder_setters_chain() {
        use crate::latency::UniformLatency;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = Simulation::new(
            &factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 3,
            },
        );
        sim.set_latency(Box::new(UniformLatency(2.0)))
            .set_fault_model(Box::new(NoFaults))
            .set_fault_policy(FaultPolicy { deadline: Some(5.0), ..Default::default() })
            .set_executor(ClientExecutor::Sequential);
        assert_eq!(sim.fault_policy().deadline, Some(5.0));
        assert_eq!(sim.executor(), ClientExecutor::Sequential);
        let r = sim.run_round().unwrap();
        assert_eq!(r.round_duration, 2.0);
    }

    /// A fault model that applies one fixed fault to one fixed client.
    struct TargetOne(usize, InjectedFault);
    impl crate::faults::FaultModel for TargetOne {
        fn inject(&self, _seed: u64, _round: usize, client: usize) -> Option<InjectedFault> {
            (client == self.0).then_some(self.1)
        }
    }

    fn full_participation_sim<'a>(
        factory: &'a ModelFactory,
        clients: Vec<Dataset>,
        test: Dataset,
    ) -> Simulation<'a> {
        Simulation::new(
            factory,
            clients,
            test,
            Box::new(FedAvg::new()),
            SimulationConfig {
                sample_ratio: 1.0,
                local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                eval_batch: 32,
                seed: 3,
            },
        )
    }

    #[test]
    fn crash_fault_drops_the_client_not_the_round() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_fault_model(Box::new(TargetOne(0, InjectedFault::Crash)));
        let r = sim.run_round().unwrap();
        assert_eq!(r.participants, 4, "participants counts the sampled cohort");
        assert_eq!(r.faults.dropped, 1);
        assert_eq!(r.aggregated(), 3);
        assert!(!r.faults.degraded);
        assert!(sim.global().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn corrupted_update_is_quarantined_before_aggregation() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_fault_model(Box::new(TargetOne(1, InjectedFault::CorruptParams(Corruption::Nan))));
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.quarantined, 1);
        assert_eq!(r.aggregated(), 3);
        assert!(
            sim.global().iter().all(|p| p.is_finite()),
            "quarantine must keep NaN out of the global model"
        );
        assert!(r.mean_inference_loss.is_finite());
        assert!(r.max_inference_loss.is_finite());
    }

    #[test]
    fn corrupted_loss_is_quarantined() {
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_fault_model(Box::new(TargetOne(2, InjectedFault::CorruptLoss(Corruption::Inf))));
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.quarantined, 1);
        assert!(r.max_inference_loss.is_finite());
    }

    #[test]
    fn quorum_miss_holds_the_global_model() {
        struct CrashAll;
        impl crate::faults::FaultModel for CrashAll {
            fn inject(&self, _s: u64, _r: usize, _c: usize) -> Option<InjectedFault> {
                Some(InjectedFault::Crash)
            }
        }
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_fault_model(Box::new(CrashAll));
        let before = sim.global().to_vec();
        let r = sim.run_round().unwrap();
        assert!(r.faults.degraded);
        assert_eq!(r.faults.dropped, 3);
        assert!(!r.rejected, "degraded is not a strategy rejection");
        assert_eq!(r.mean_inference_loss, 0.0);
        assert_eq!(r.max_inference_loss, 0.0, "no -inf leak on an empty round");
        assert_eq!(sim.global(), &before[..], "global model held");
        // The simulation keeps going afterwards.
        assert_eq!(sim.history().len(), 1);
    }

    #[test]
    fn min_quorum_threshold_enforced() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_fault_model(Box::new(TargetOne(0, InjectedFault::Crash)));
        // 3 of 4 survive; a quorum of 4 is now unreachable.
        sim.set_fault_policy(FaultPolicy { min_quorum: 4, ..Default::default() });
        let before = sim.global().to_vec();
        let r = sim.run_round().unwrap();
        assert!(r.faults.degraded);
        assert_eq!(sim.global(), &before[..]);
    }

    #[test]
    fn deadline_times_out_stragglers_and_caps_duration() {
        use crate::latency::UniformLatency;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_latency(Box::new(UniformLatency(2.0)));
        sim.set_fault_model(Box::new(TargetOne(1, InjectedFault::Straggle(10.0))));
        sim.set_fault_policy(FaultPolicy { deadline: Some(5.0), ..Default::default() });
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.timed_out, 1);
        assert_eq!(r.aggregated(), 2);
        assert_eq!(r.round_duration, 5.0, "server gives up at the deadline");
    }

    #[test]
    fn straggler_without_deadline_just_slows_the_round() {
        use crate::latency::UniformLatency;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_latency(Box::new(UniformLatency(2.0)));
        sim.set_fault_model(Box::new(TargetOne(1, InjectedFault::Straggle(10.0))));
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.timed_out, 0);
        assert_eq!(r.round_duration, 20.0);
    }

    #[test]
    fn no_faults_model_is_byte_identical_to_none() {
        let run_with = |install: bool| -> (Vec<f32>, Vec<f32>) {
            let (clients, test, img_len) = deployment(4);
            let factory = move || {
                let mut rng = StdRng::seed_from_u64(7);
                models::mlp(&mut rng, img_len, 10)
            };
            let mut sim = Simulation::new(
                &factory,
                clients,
                test,
                Box::new(FedAvg::new()),
                SimulationConfig {
                    sample_ratio: 0.5,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    eval_batch: 32,
                    seed: 11,
                },
            );
            if install {
                sim.set_fault_model(Box::new(NoFaults));
            }
            sim.run(3).unwrap();
            (sim.global().to_vec(), sim.history().accuracies())
        };
        let (g_none, a_none) = run_with(false);
        let (g_zero, a_zero) = run_with(true);
        assert_eq!(g_none, g_zero, "zero-fault model must be bit-identical");
        assert_eq!(a_none, a_zero);
    }

    #[test]
    fn timed_out_upload_still_bills_uplink() {
        use crate::latency::UniformLatency;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        let model = CommModel::new(sim.global().len());
        sim.set_latency(Box::new(UniformLatency(2.0)));
        sim.set_fault_model(Box::new(TargetOne(1, InjectedFault::Straggle(10.0))));
        sim.set_fault_policy(FaultPolicy { deadline: Some(5.0), ..Default::default() });
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.timed_out, 1);
        assert_eq!(r.aggregated(), 2);
        // All three uploads physically happened — the straggler's update
        // was discarded *after* it arrived, so it still consumed uplink.
        assert_eq!(r.bytes_up, model.uplink(3, false));
        assert_eq!(sim.comm_stats().total_up, r.bytes_up);
    }

    #[test]
    fn crashed_clients_consume_no_uplink() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        let model = CommModel::new(sim.global().len());
        sim.set_fault_model(Box::new(TargetOne(0, InjectedFault::Crash)));
        let r = sim.run_round().unwrap();
        // Downlink reached all four sampled clients; only the three
        // survivors uploaded anything.
        assert_eq!(r.bytes_down, model.downlink(4));
        assert_eq!(r.bytes_up, model.uplink(3, false));
    }

    #[test]
    fn interceptor_cannot_distort_comm_accounting() {
        // An adversary that swallows every real update (and could just as
        // well forge extra ones) must not alter the traffic ledger: the
        // uplink bytes were spent by the real clients before interception.
        struct SwallowAll;
        impl Interceptor for SwallowAll {
            fn intercept(
                &mut self,
                _round: usize,
                _global: &[f32],
                updates: &mut Vec<LocalUpdate>,
            ) -> Result<()> {
                updates.clear();
                Ok(())
            }
        }
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        let model = CommModel::new(sim.global().len());
        sim.set_interceptor(Box::new(SwallowAll));
        let r = sim.run_round().unwrap();
        assert!(r.faults.degraded, "nothing left to aggregate");
        assert_eq!(r.bytes_up, model.uplink(3, false));
        assert_eq!(sim.comm_stats().total_up, r.bytes_up);
    }

    #[test]
    fn codec_schemes_bill_encoded_frames_end_to_end() {
        // Every scheme through the delivery stage: uplink must equal the
        // encoded frame bytes plus one envelope per delivered upload —
        // never the full-precision `uplink()` model.
        for spec in [
            CodecSpec::Identity,
            CodecSpec::Delta,
            CodecSpec::Int8 { delta: true },
            CodecSpec::F16 { delta: false },
            CodecSpec::TopK { ratio: 0.25, delta: true },
        ] {
            let (clients, test, img_len) = deployment(3);
            let factory = move || {
                let mut rng = StdRng::seed_from_u64(7);
                models::mlp(&mut rng, img_len, 10)
            };
            let mut sim = full_participation_sim(&factory, clients, test);
            sim.set_codec(spec);
            let dim = sim.global().len();
            let frame = sim.transport().unwrap().encoded_len(dim, false);
            let r = sim.run_round().unwrap();
            assert_eq!(r.aggregated(), 3, "{spec:?}");
            assert_eq!(r.bytes_up, 3 * (frame + 24), "{spec:?}");
            assert_eq!(sim.comm_stats().total_up, r.bytes_up, "{spec:?}");
            assert!(sim.global().iter().all(|p| p.is_finite()), "{spec:?}");
        }
    }

    #[test]
    fn crashed_clients_consume_no_uplink_under_codec() {
        let (clients, test, img_len) = deployment(4);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_codec(CodecSpec::Int8 { delta: false });
        sim.set_fault_model(Box::new(TargetOne(0, InjectedFault::Crash)));
        let dim = sim.global().len();
        let frame = sim.transport().unwrap().encoded_len(dim, false);
        let r = sim.run_round().unwrap();
        assert_eq!(r.bytes_down, CommModel::new(dim).downlink(4), "downlink stays full f32");
        assert_eq!(r.bytes_up, 3 * (frame + 24), "the crashed client sent no frame");
    }

    #[test]
    fn timed_out_upload_still_bills_its_encoded_frame() {
        use crate::latency::UniformLatency;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_codec(CodecSpec::TopK { ratio: 0.1, delta: true });
        sim.set_latency(Box::new(UniformLatency(2.0)));
        sim.set_fault_model(Box::new(TargetOne(1, InjectedFault::Straggle(10.0))));
        sim.set_fault_policy(FaultPolicy { deadline: Some(5.0), ..Default::default() });
        let dim = sim.global().len();
        let frame = sim.transport().unwrap().encoded_len(dim, false);
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.timed_out, 1);
        assert_eq!(r.aggregated(), 2);
        // The straggler's encoded frame was fully transmitted before the
        // deadline verdict: all three frames bill.
        assert_eq!(r.bytes_up, 3 * (frame + 24));
        assert_eq!(sim.comm_stats().total_up, r.bytes_up);
    }

    #[test]
    fn interceptor_cannot_distort_encoded_comm_accounting() {
        // The SwallowAll adversary from the uncompressed regression, now
        // with every codec scheme in front of it: the encoded frames were
        // billed before interception, so the ledger must not move.
        struct SwallowAll;
        impl Interceptor for SwallowAll {
            fn intercept(
                &mut self,
                _round: usize,
                _global: &[f32],
                updates: &mut Vec<LocalUpdate>,
            ) -> Result<()> {
                updates.clear();
                Ok(())
            }
        }
        for spec in [
            CodecSpec::Int8 { delta: true },
            CodecSpec::F16 { delta: true },
            CodecSpec::TopK { ratio: 0.25, delta: false },
        ] {
            let (clients, test, img_len) = deployment(3);
            let factory = move || {
                let mut rng = StdRng::seed_from_u64(7);
                models::mlp(&mut rng, img_len, 10)
            };
            let mut sim = full_participation_sim(&factory, clients, test);
            sim.set_codec(spec);
            sim.set_interceptor(Box::new(SwallowAll));
            let dim = sim.global().len();
            let frame = sim.transport().unwrap().encoded_len(dim, false);
            let r = sim.run_round().unwrap();
            assert!(r.faults.degraded, "{spec:?}: nothing left to aggregate");
            assert_eq!(r.bytes_up, 3 * (frame + 24), "{spec:?}");
            assert_eq!(sim.comm_stats().total_up, r.bytes_up, "{spec:?}");
        }
    }

    /// Wraps an inner strategy and force-rejects one round, mimicking a
    /// detector that fires *after* the inner aggregation already mutated
    /// its server-side state (exactly FedAvgM + detection).
    struct RejectOnce<S> {
        inner: S,
        reject_round: usize,
        forward_on_reject: bool,
    }
    impl<S: Strategy> Strategy for RejectOnce<S> {
        fn name(&self) -> &'static str {
            "RejectOnce"
        }
        fn aggregate(
            &mut self,
            ctx: &RoundContext<'_>,
            updates: &[LocalUpdate],
        ) -> Result<Aggregation> {
            let inner = self.inner.aggregate(ctx, updates)?;
            if ctx.round == self.reject_round {
                if !self.forward_on_reject {
                    // Known-good baseline: discard the inner state by hand
                    // instead of relying on the server's on_reject call.
                    self.inner.reset();
                }
                return Ok(Aggregation::Reject {
                    reverted: ctx.global.to_vec(),
                    reason: "forced".to_string(),
                });
            }
            Ok(inner)
        }
        fn on_reject(&mut self) {
            if self.forward_on_reject {
                self.inner.on_reject();
            }
        }
    }

    #[test]
    fn reversal_discards_momentum_via_on_reject() {
        use crate::fedavgm::FedAvgM;
        let run = |forward_on_reject: bool| {
            let (clients, test, img_len) = deployment(4);
            let factory = move || {
                let mut rng = StdRng::seed_from_u64(7);
                models::mlp(&mut rng, img_len, 10)
            };
            let strategy =
                RejectOnce { inner: FedAvgM::new(0.9), reject_round: 1, forward_on_reject };
            let mut sim = Simulation::new(
                &factory,
                clients,
                test,
                Box::new(strategy),
                SimulationConfig {
                    sample_ratio: 1.0,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    eval_batch: 32,
                    seed: 11,
                },
            );
            sim.run(3).unwrap();
            sim.global().to_vec()
        };
        // Relying on the server's reject-path hook must give exactly the
        // trajectory of the hand-rolled rollback: no trace of the rejected
        // round's pseudo-gradient may survive in the velocity.
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn noop_tracer_run_is_bit_identical_to_traced() {
        use fedcav_trace::CollectingTracer;
        let run = |traced: bool| {
            let (clients, test, img_len) = deployment(4);
            let factory = move || {
                let mut rng = StdRng::seed_from_u64(7);
                models::mlp(&mut rng, img_len, 10)
            };
            let mut sim = Simulation::new(
                &factory,
                clients,
                test,
                Box::new(FedAvg::new()),
                SimulationConfig {
                    sample_ratio: 0.5,
                    local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
                    eval_batch: 32,
                    seed: 11,
                },
            );
            let tracer = Arc::new(CollectingTracer::new());
            if traced {
                sim.set_tracer(tracer.clone());
            }
            sim.run(3).unwrap();
            (sim.global().to_vec(), sim.history().accuracies(), tracer.len())
        };
        let (g_plain, a_plain, e_plain) = run(false);
        let (g_traced, a_traced, e_traced) = run(true);
        assert_eq!(g_plain, g_traced, "tracing must not perturb results");
        assert_eq!(a_plain, a_traced);
        assert_eq!(e_plain, 0);
        // 3 rounds × (1 whole-round span + 6 phase spans).
        assert_eq!(e_traced, 21);
    }

    #[test]
    fn traced_round_emits_named_phase_spans() {
        use fedcav_trace::CollectingTracer;
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        let tracer = Arc::new(CollectingTracer::new());
        sim.set_tracer(tracer.clone());
        sim.run_round().unwrap();
        let events = tracer.events();
        for name in [
            "round.sampling",
            "round.training",
            "round.delivery",
            "round.validation",
            "round.aggregation",
            "round.evaluation",
            "round",
        ] {
            assert!(events.iter().any(|e| e.name == name), "missing span {name}");
        }
        let round = events.iter().find(|e| e.name == "round").unwrap();
        assert!(round.field("participants").is_some());
        assert!(round.field("accuracy").is_some());
    }

    #[test]
    fn phase_timings_cover_the_round() {
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        let r = sim.run_round().unwrap();
        assert!(r.phases.total_ns > 0);
        assert!(r.phases.training_ns > 0, "local training takes real time");
        assert!(r.phases.evaluation_ns > 0);
        // The six phases are disjoint sub-intervals of the round and cover
        // almost all of it (the gap is inter-phase bookkeeping).
        assert!(r.phases.phase_sum_ns() <= r.phases.total_ns);
        assert!(r.phases.phase_sum_ns() >= r.phases.total_ns / 2);
        assert_eq!(r.phases, sim.history().records[0].phases);
    }

    #[test]
    fn interceptor_injected_garbage_is_quarantined() {
        struct PoisonFirst;
        impl Interceptor for PoisonFirst {
            fn intercept(
                &mut self,
                _round: usize,
                _global: &[f32],
                updates: &mut Vec<LocalUpdate>,
            ) -> Result<()> {
                updates[0].params[0] = f32::NAN;
                Ok(())
            }
        }
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_interceptor(Box::new(PoisonFirst));
        let r = sim.run_round().unwrap();
        assert_eq!(r.faults.quarantined, 1);
        assert!(sim.global().iter().all(|p| p.is_finite()));
    }

    /// Regression: `run(0)` used to `assert!`-panic; it is now a plain error.
    #[test]
    fn run_zero_rounds_is_an_error_not_a_panic() {
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        assert!(sim.run(0).is_err());
        assert_eq!(sim.history().len(), 0, "no round may have run");
        assert!(sim.run(2).is_ok(), "the simulation is still usable afterwards");
    }

    /// Regression: a buggy availability model returning out-of-range client
    /// ids used to panic the training closure (`&clients[cid]`); it is now a
    /// recorded per-client failure and the round degrades gracefully.
    #[test]
    fn out_of_range_availability_degrades_gracefully() {
        struct Buggy;
        impl AvailabilityModel for Buggy {
            fn is_available(&self, _client: usize, _round: usize) -> bool {
                true
            }
            fn available(&self, n: usize, _round: usize) -> Vec<usize> {
                // Everyone online, plus a client id that does not exist.
                (0..n).chain([n + 40]).collect()
            }
        }
        let (clients, test, img_len) = deployment(3);
        let factory = move || {
            let mut rng = StdRng::seed_from_u64(7);
            models::mlp(&mut rng, img_len, 10)
        };
        let mut sim = full_participation_sim(&factory, clients, test);
        sim.set_availability(Box::new(Buggy));
        let r = sim.run_round().unwrap();
        assert_eq!(r.participants, 4, "the bogus id was sampled");
        assert_eq!(r.faults.dropped, 1, "…and recorded as a drop, not a panic");
        assert!(sim.global().iter().all(|p| p.is_finite()));
    }
}
