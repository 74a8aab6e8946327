//! Streaming-vs-materialized equivalence suite (DESIGN.md §14).
//!
//! The streaming sharded aggregation path must be **bit-identical** to the
//! materialized path, not merely close: the whole point of the two-pass
//! shard protocol is that a million-client deployment produces the exact
//! model a single `weighted_sum` over the full cohort would have. This
//! suite checks that contract at every layer, with the std-only SplitMix64
//! fuzz harness the kernel property suite uses:
//!
//! (a) `OnlineSoftmax` finalization is invariant under any shard
//!     partitioning of a NaN/Inf-poisoned loss corpus (bit-for-bit against
//!     `contribution_weights`),
//! (b) the full shard pipeline — per-shard `UpdateMeta` harvest →
//!     `Strategy::streaming_weights` → `ParamFold` — reproduces
//!     `FedCav::aggregate` bit-for-bit over fuzzed update sets, for every
//!     shard size,
//! (c) FedCav's detection fires identically (same reason, same reverted
//!     model) through both entry points,
//! (d) a `ShardedSimulation` over a procedural `Population` ends on the
//!     bit-identical global model as a materialized `Simulation` over the
//!     same clients at full participation — under both `ClientExecutor`
//!     modes (sequential and scoped threads), pinned explicitly so the
//!     suite covers both `FEDCAV_EXECUTOR` settings regardless of the
//!     ambient env,
//! (e) the population source of the one round driver behaves like the
//!     datasets source over the same clients — identical fault telemetry,
//!     quorum state and deadline verdicts, and an interceptor that sees the
//!     whole cohort at once — and its keep-or-regenerate rule
//!     is invisible: one pass (cohort ≤ shard size) and two passes give the
//!     same bits and records for scalar-weighted, detection-rejecting and
//!     parameter-only strategies, with tracing on or off.
//!
//! Every fuzzed corpus is vacuity-guarded: the suite fails if the random
//! stream never produced the NaN/Inf spikes it claims to exercise.

use fedcav::core::weights::contribution_weights;
use fedcav::core::{FedCav, FedCavConfig, OnlineSoftmax};
use fedcav::data::SyntheticConfig;
use fedcav::data::SyntheticKind;
use fedcav::fl::stages::aggregation::ParamFold;
use fedcav::fl::{
    Aggregation, ClientExecutor, CollectingTracer, Corruption, FaultModel, FaultPolicy, FedAvg,
    InjectedFault, Interceptor, LocalConfig, LocalUpdate, LogNormalLatency, ModelFactory,
    Population, RoundContext, RoundRecord, ShardedConfig, ShardedSimulation, Simulation,
    SimulationConfig, Strategy, UpdateMeta, WeightDecision,
};
use fedcav::nn::{models, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------- harness

/// SplitMix64: tiny, seedable, good enough to fuzz losses and updates.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    fn int_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// Loss in roughly [0, 8), with NaN/Inf spikes (~6% each).
    fn loss(&mut self) -> f32 {
        match self.next_u64() % 16 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            _ => (self.next_u64() % 8_000_000) as f32 / 1_000_000.0,
        }
    }

    /// Parameter value in roughly [-1, 1].
    fn param(&mut self) -> f32 {
        (self.next_u64() % 2_000_001) as f32 / 1_000_000.0 - 1.0
    }
}

fn bits(w: &[f32]) -> Vec<u32> {
    w.iter().map(|v| v.to_bits()).collect()
}

// ------------------------------------------------ (a) OnlineSoftmax layer

#[test]
fn online_softmax_is_partition_invariant_over_poisoned_corpora() {
    let mut g = Gen::new(0x5EED_CA7);
    let (mut saw_nan, mut saw_inf) = (false, false);
    for trial in 0..40 {
        let len = g.int_in(1, 300);
        let losses: Vec<f32> = (0..len).map(|_| g.loss()).collect();
        saw_nan |= losses.iter().any(|l| l.is_nan());
        saw_inf |= losses.iter().any(|l| l.is_infinite());
        let clip = g.next_u64() % 2 == 0;
        let temperature = [0.5f32, 1.0, 2.0][g.int_in(0, 2)];
        let reference = contribution_weights(&losses, clip, temperature);
        for _ in 0..3 {
            let shard = g.int_in(1, len + 8);
            let mut merged = OnlineSoftmax::new(clip, temperature);
            for chunk in losses.chunks(shard) {
                let mut acc = OnlineSoftmax::new(clip, temperature);
                for &l in chunk {
                    acc.push(l);
                }
                merged.merge(&acc);
            }
            assert_eq!(
                bits(&merged.finalize()),
                bits(&reference),
                "trial {trial}: shard size {shard} diverged (len {len}, clip {clip}, T {temperature})"
            );
        }
    }
    // Vacuity: the fuzz stream must actually exercise the poison paths.
    assert!(saw_nan, "no NaN loss in 40 corpora");
    assert!(saw_inf, "no Inf loss in 40 corpora");
}

// --------------------------------------- (b) shard pipeline vs aggregate

/// Fuzzed update sets pushed through the complete scalar-harvest →
/// weights → parameter-fold pipeline, checked bit-for-bit against the
/// one-shot materialized aggregation, for every shard size.
#[test]
fn shard_pipeline_reproduces_materialized_fedcav_bit_for_bit() {
    let mut g = Gen::new(0xF01D);
    let (mut saw_nan, mut saw_inf) = (false, false);
    for trial in 0..25 {
        let n = g.int_in(1, 40);
        let dim = g.int_in(1, 24);
        let updates: Vec<LocalUpdate> = (0..n)
            .map(|i| {
                let params: Vec<f32> = (0..dim).map(|_| g.param()).collect();
                LocalUpdate::new(i, params, g.loss(), g.int_in(1, 500))
            })
            .collect();
        saw_nan |= updates.iter().any(|u| u.inference_loss.is_nan());
        saw_inf |= updates.iter().any(|u| u.inference_loss.is_infinite());
        let global = vec![0.0f32; dim];
        let ctx = RoundContext { round: 0, global: &global };

        let materialized = match FedCav::new(FedCavConfig::default())
            .aggregate(&ctx, &updates)
            .expect("materialized aggregate")
        {
            Aggregation::Accept(params) => params,
            Aggregation::Reject { .. } => panic!("round 0 cannot reject"),
        };

        for shard in [1usize, 2, 3, 7, 64] {
            // Pass 1 harvests scalars shard by shard, in cohort order.
            let mut metas: Vec<UpdateMeta> = Vec::new();
            for chunk in updates.chunks(shard) {
                metas.extend(chunk.iter().map(UpdateMeta::of));
            }
            let decision = FedCav::new(FedCavConfig::default())
                .streaming_weights(&ctx, &metas)
                .expect("streaming weights")
                .expect("FedCav always answers the scalar query");
            let weights = match decision {
                WeightDecision::Weights(w) => w,
                WeightDecision::Reject { .. } => panic!("round 0 cannot reject"),
            };
            let mut fold = ParamFold::new(dim, weights, metas).expect("aligned fold");
            for u in &updates {
                fold.fold(u).expect("replay in cohort order");
            }
            let streamed = fold.finish().expect("complete fold");
            assert_eq!(
                bits(&streamed),
                bits(&materialized),
                "trial {trial}: shard size {shard} diverged (n {n}, dim {dim})"
            );
        }
    }
    assert!(saw_nan, "no NaN loss in 25 update sets");
    assert!(saw_inf, "no Inf loss in 25 update sets");
}

// ------------------------------------------------ (c) detection parity

#[test]
fn detection_rejects_identically_through_both_entry_points() {
    let healthy = vec![1.0f32, -2.0, 0.5];
    let poisoned = vec![9.0f32, 9.0, 9.0];
    let benign: Vec<LocalUpdate> = (0..3)
        .map(|i| LocalUpdate::new(i, vec![0.1 * i as f32; 3], 1.0 + 0.1 * i as f32, 10))
        .collect();
    let attacked: Vec<LocalUpdate> =
        (0..3).map(|i| LocalUpdate::new(i, vec![5.0; 3], 50.0 + i as f32, 10)).collect();
    let metas = |u: &[LocalUpdate]| u.iter().map(UpdateMeta::of).collect::<Vec<_>>();

    // Materialized path: baseline round, then an attacked round.
    let mut mat = FedCav::new(FedCavConfig::default());
    let ctx0 = RoundContext { round: 0, global: &healthy };
    assert!(matches!(mat.aggregate(&ctx0, &benign), Ok(Aggregation::Accept(_))));
    let ctx1 = RoundContext { round: 1, global: &poisoned };
    let (mat_reverted, mat_reason) = match mat.aggregate(&ctx1, &attacked) {
        Ok(Aggregation::Reject { reverted, reason }) => (reverted, reason),
        other => panic!("materialized path did not reject: {other:?}"),
    };

    // Streaming path: identical scalar history, scalar-only entry point.
    let mut stream = FedCav::new(FedCavConfig::default());
    assert!(matches!(
        stream.streaming_weights(&ctx0, &metas(&benign)),
        Ok(Some(WeightDecision::Weights(_)))
    ));
    let (st_reverted, st_reason) = match stream.streaming_weights(&ctx1, &metas(&attacked)) {
        Ok(Some(WeightDecision::Reject { reverted, reason })) => (reverted, reason),
        other => panic!("streaming path did not reject: {other:?}"),
    };

    assert_eq!(bits(&st_reverted), bits(&mat_reverted), "reverted models differ");
    assert_eq!(st_reason, mat_reason, "reject reasons differ");
    assert_eq!(bits(&mat_reverted), bits(&healthy), "reverse target is the cached healthy model");
}

// ------------------------------------- (d) end-to-end driver equivalence

fn factory() -> impl Fn() -> Sequential + Sync {
    let img_len = 28 * 28;
    move || models::tiny_mlp(&mut StdRng::seed_from_u64(7), img_len, 10)
}

fn population(n: usize) -> Population {
    Population::new(n, 11, SyntheticConfig::new(SyntheticKind::MnistLike, 2, 1))
}

const ROUNDS: usize = 2;
const SEED: u64 = 42;

fn local() -> LocalConfig {
    LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 }
}

/// The materialized driver over the population's own clients, full
/// participation, FedCav.
fn run_materialized(n: usize, executor: ClientExecutor) -> Vec<f32> {
    let f = factory();
    let pop = population(n);
    let clients = pop.materialize_all().expect("materialize population");
    let test = pop.test_set().expect("test set");
    let mut sim = Simulation::new(
        &f,
        clients,
        test,
        Box::new(FedCav::new(FedCavConfig::default())),
        SimulationConfig { sample_ratio: 1.0, local: local(), eval_batch: 64, seed: SEED },
    );
    sim.set_executor(executor);
    sim.run(ROUNDS).expect("materialized run");
    sim.global().to_vec()
}

/// The streaming sharded driver over the same population.
fn run_sharded(n: usize, shard_size: usize, executor: ClientExecutor) -> Vec<f32> {
    let f = factory();
    let mut sim = ShardedSimulation::new(
        &f,
        population(n),
        Box::new(FedCav::new(FedCavConfig::default())),
        ShardedConfig {
            sample_ratio: 1.0,
            local: local(),
            seed: SEED,
            shard_size,
            min_quorum: 1,
            max_param_norm: None,
        },
    );
    sim.set_executor(executor);
    sim.run(ROUNDS).expect("sharded run");
    sim.global().to_vec()
}

#[test]
fn sharded_driver_matches_materialized_driver_bit_for_bit() {
    let n = 5;
    let reference = run_materialized(n, ClientExecutor::Sequential);
    assert!(reference.iter().all(|p| p.is_finite()), "reference model went non-finite");
    for shard_size in [1usize, 2, 256] {
        let streamed = run_sharded(n, shard_size, ClientExecutor::Sequential);
        assert_eq!(
            bits(&streamed),
            bits(&reference),
            "shard size {shard_size} diverged from the materialized driver"
        );
    }
}

#[test]
fn driver_equivalence_holds_under_both_executor_modes() {
    let n = 4;
    let sequential = run_materialized(n, ClientExecutor::Sequential);
    // Both drivers, scoped threads: bit-identical to the sequential pair.
    let mat_threads = run_materialized(n, ClientExecutor::ScopedThreads(4));
    let sh_threads = run_sharded(n, 2, ClientExecutor::ScopedThreads(4));
    assert_eq!(bits(&mat_threads), bits(&sequential), "materialized driver not thread-invariant");
    assert_eq!(bits(&sh_threads), bits(&sequential), "sharded driver diverged under threads");
}

// ------------------------------ (e) one driver over two client sources

/// Full-participation config shared by the source-equivalence cases.
fn full_participation() -> SimulationConfig {
    SimulationConfig { sample_ratio: 1.0, local: local(), eval_batch: 64, seed: SEED }
}

/// Client 3 crashes and client 1 uploads NaN parameters, every round.
struct CrashAndNan;

impl FaultModel for CrashAndNan {
    fn inject(&self, _seed: u64, _round: usize, client: usize) -> Option<InjectedFault> {
        match client {
            1 => Some(InjectedFault::CorruptParams(Corruption::Nan)),
            3 => Some(InjectedFault::Crash),
            _ => None,
        }
    }
}

/// The datasets source over `pop.materialize_all()`.
fn datasets_sim<'a>(
    f: &'a ModelFactory,
    pop: &Population,
    strategy: Box<dyn Strategy + 'a>,
) -> Simulation<'a> {
    let clients = pop.materialize_all().expect("materialize population");
    let test = pop.test_set().expect("test set");
    Simulation::new(f, clients, test, strategy, full_participation())
}

/// The population source over `pop` itself.
fn population_sim<'a>(
    f: &'a ModelFactory,
    pop: Population,
    shard_size: usize,
    strategy: Box<dyn Strategy + 'a>,
) -> Simulation<'a> {
    Simulation::over_population(f, pop, shard_size, strategy, full_participation())
}

/// A round record with its wall-clock phase timings zeroed: everything
/// else is deterministic.
fn without_phases(records: &[RoundRecord]) -> Vec<RoundRecord> {
    records.iter().map(|r| RoundRecord { phases: Default::default(), ..r.clone() }).collect()
}

#[test]
fn fault_telemetry_is_identical_across_client_sources() {
    for executor in [ClientExecutor::Sequential, ClientExecutor::ScopedThreads(4)] {
        let f = factory();
        let pop = population(5);
        let strategy = || Box::new(FedCav::new(FedCavConfig::default()));
        let mut datasets = datasets_sim(&f, &pop, strategy());
        // Shards {0, 1}, {2, 3}, {4}: the quarantine (client 1) is recorded
        // in an earlier shard than the crash (client 3), the reverse of the
        // one-pass stage order.
        let mut streamed = population_sim(&f, pop, 2, strategy());
        for sim in [&mut datasets, &mut streamed] {
            sim.set_executor(executor).set_fault_model(Box::new(CrashAndNan));
            sim.run(ROUNDS).expect("run");
        }
        let (d, s) = (&datasets.history().records, &streamed.history().records);
        for (a, b) in d.iter().zip(s) {
            assert_eq!(a.faults, b.faults, "{executor:?} round {}", a.round);
            assert_eq!(a.faults.dropped, 1, "vacuity: the crash was recorded");
            assert_eq!(a.faults.quarantined, 1, "vacuity: the NaN upload was quarantined");
            assert!(!a.faults.degraded);
            assert_eq!(a.aggregated(), b.aggregated());
            assert_eq!(a.bytes_up, b.bytes_up);
        }
        assert_eq!(d.len(), s.len());
        assert_eq!(bits(datasets.global()), bits(streamed.global()), "{executor:?}");
    }
}

#[test]
fn deadline_times_out_the_same_clients_across_client_sources() {
    let latency = LogNormalLatency { median: 1.0, client_sigma: 0.8, round_sigma: 0.3, seed: 5 };
    let policy = FaultPolicy { deadline: Some(1.2), ..Default::default() };
    let f = factory();
    let pop = population(8);
    let mut datasets = datasets_sim(&f, &pop, Box::new(FedAvg::new()));
    let mut streamed = population_sim(&f, pop, 3, Box::new(FedAvg::new()));
    for sim in [&mut datasets, &mut streamed] {
        sim.set_executor(ClientExecutor::Sequential)
            .set_latency(Box::new(latency))
            .set_fault_policy(policy);
        sim.run(ROUNDS).expect("run");
    }
    let timed_out = |sim: &Simulation<'_>| -> Vec<Vec<usize>> {
        let records = &sim.history().records;
        records.iter().map(|r| r.faults.events.iter().map(|e| e.client).collect()).collect()
    };
    let expected = timed_out(&datasets);
    assert!(expected.iter().any(|r| !r.is_empty()), "vacuity: nobody missed the deadline");
    assert!(expected.iter().all(|r| r.len() < 8), "vacuity: everybody missed the deadline");
    assert_eq!(timed_out(&streamed), expected);
    for (a, b) in datasets.history().records.iter().zip(&streamed.history().records) {
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.round_duration, b.round_duration);
        assert_eq!(a.sim_time, b.sim_time);
    }
    assert_eq!(bits(datasets.global()), bits(streamed.global()));
}

/// Every client's round-0 upload is finite garbage, which FedCav averages
/// into a broken model; round 1's losses then all exceed round 0's maximum
/// and detection rejects the round.
struct GarbageFirstRound;

impl FaultModel for GarbageFirstRound {
    fn inject(&self, _seed: u64, round: usize, _client: usize) -> Option<InjectedFault> {
        (round == 0).then_some(InjectedFault::CorruptParams(Corruption::Garbage(5.0)))
    }
}

/// Aggregates exactly like FedAvg but answers no scalar weight query, so a
/// two-pass round takes the materialized fallback.
struct NeedsParams;

impl Strategy for NeedsParams {
    fn name(&self) -> &'static str {
        "NeedsParams"
    }

    fn aggregate(
        &mut self,
        _ctx: &RoundContext<'_>,
        updates: &[LocalUpdate],
    ) -> fedcav::fl::Result<Aggregation> {
        fedcav::fl::aggregate::sample_weights(updates)
            .and_then(|w| fedcav::fl::aggregate::weighted_sum(updates, &w))
            .map(Aggregation::Accept)
    }
}

#[test]
fn one_pass_and_two_pass_rounds_are_bit_identical() {
    let n = 6;
    let rounds = 3;
    for name in ["FedCav", "FedAvg", "NeedsParams"] {
        // FedCav sees a garbage round, so its detection rejects the next.
        let garbage = name == "FedCav";
        let strategy = || -> Box<dyn Strategy> {
            match name {
                "FedCav" => Box::new(FedCav::new(FedCavConfig::default())),
                "FedAvg" => Box::new(FedAvg::new()),
                _ => Box::new(NeedsParams),
            }
        };
        let run = |shard_size: usize| {
            let f = factory();
            let mut sim = population_sim(&f, population(n), shard_size, strategy());
            sim.set_executor(ClientExecutor::Sequential);
            if garbage {
                sim.set_fault_model(Box::new(GarbageFirstRound));
            }
            sim.run(rounds).expect("run");
            (bits(sim.global()), without_phases(&sim.history().records))
        };
        let (one_pass, one_records) = run(n);
        if garbage {
            assert!(one_records.iter().any(|r| r.rejected), "{name}: vacuity: nothing rejected");
        }
        for shard_size in [1usize, 2, 4] {
            let (two_pass, two_records) = run(shard_size);
            assert_eq!(two_pass, one_pass, "{name}: shard size {shard_size} moved the model");
            assert_eq!(two_records, one_records, "{name}: shard size {shard_size} moved a record");
        }
    }
}

#[test]
fn tracing_observes_population_rounds_without_perturbing_them() {
    let run = |traced: bool| {
        let f = factory();
        let mut sim =
            population_sim(&f, population(6), 2, Box::new(FedCav::new(FedCavConfig::default())));
        sim.set_executor(ClientExecutor::Sequential);
        let tracer = Arc::new(CollectingTracer::new());
        if traced {
            sim.set_tracer(tracer.clone());
        }
        sim.run(ROUNDS).expect("run");
        (bits(sim.global()), sim.history().records.clone(), tracer.events())
    };
    let (plain, plain_records, plain_events) = run(false);
    let (traced, traced_records, events) = run(true);
    assert_eq!(plain, traced, "tracing must not perturb results");
    assert_eq!(without_phases(&plain_records), without_phases(&traced_records));
    assert!(plain_events.is_empty());
    for name in [
        "round",
        "round.sampling",
        "round.training",
        "round.delivery",
        "round.validation",
        "round.aggregation",
        "round.evaluation",
    ] {
        assert!(events.iter().any(|e| e.name == name), "missing span {name}");
    }
    for r in &traced_records {
        let p = r.phases;
        assert!(p.training_ns > 0 && p.aggregation_ns > 0, "round {}: {p:?}", r.round);
        assert!(p.phase_sum_ns() <= p.total_ns, "round {}: {p:?}", r.round);
    }
}

/// Replaces the first update with the unchanged global model and logs how
/// many updates each call saw.
struct ReplaceFirst(Arc<Mutex<Vec<usize>>>);

impl Interceptor for ReplaceFirst {
    fn intercept(
        &mut self,
        _round: usize,
        global: &[f32],
        updates: &mut Vec<LocalUpdate>,
    ) -> fedcav::fl::Result<()> {
        self.0.lock().expect("interceptor log").push(updates.len());
        if let Some(first) = updates.first_mut() {
            first.params = global.to_vec();
        }
        Ok(())
    }
}

#[test]
fn an_interceptor_sees_the_whole_population_cohort() {
    let f = factory();
    let pop = population(6);
    let strategy = || Box::new(FedCav::new(FedCavConfig::default()));
    let seen = [Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(Vec::new()))];
    let mut datasets = datasets_sim(&f, &pop, strategy());
    // Shard size 2 < cohort 6: without the interceptor this would be a
    // two-pass round.
    let mut streamed = population_sim(&f, pop, 2, strategy());
    for (sim, log) in [&mut datasets, &mut streamed].into_iter().zip(&seen) {
        sim.set_executor(ClientExecutor::Sequential)
            .set_interceptor(Box::new(ReplaceFirst(Arc::clone(log))));
        sim.run(ROUNDS).expect("run");
    }
    for log in &seen {
        assert_eq!(*log.lock().expect("log"), vec![6; ROUNDS], "one call per round, whole cohort");
    }
    for (a, b) in datasets.history().records.iter().zip(&streamed.history().records) {
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.mean_inference_loss.to_bits(), b.mean_inference_loss.to_bits());
        assert_eq!(a.rejected, b.rejected);
    }
    assert_eq!(bits(datasets.global()), bits(streamed.global()));
}
