#![warn(missing_docs)]
//! # fedcav-fl
//!
//! The federated-learning simulation substrate: everything the FedCav paper
//! *builds on* rather than contributes.
//!
//! * [`update`] — the client→server wire format ([`LocalUpdate`]: flat model
//!   state + inference loss + sample count),
//! * [`client`] — Algorithm 2 (`LocalUpdate`): inference-loss computation on
//!   the downloaded global model followed by `E` local epochs of SGD,
//! * [`strategy`] — the [`Strategy`] trait every aggregation rule
//!   implements, with an accept-or-reject decision so FedCav's detection
//!   can *reverse* a round,
//! * [`fedavg`] / [`fedprox`] — the paper's baselines (§5.1.2),
//! * [`robust`] / [`krum`] / [`normclip`] / [`learned`] / [`sizeguard`] —
//!   the Byzantine-robust aggregation zoo (trimmed statistics, distance
//!   scoring, norm clipping with server momentum, server-side learnable
//!   weights, dishonest-size-robust weighting), all honouring the
//!   graceful-degradation contract of [`Strategy::take_breach`],
//! * [`centralized`] — the centralized gradient-descent upper-bound baseline,
//! * [`server`] — the one round-loop driver ([`Simulation`]) over a staged
//!   pipeline, with an [`Interceptor`] hook where adversaries splice in
//!   malicious updates; its clients are live datasets or a procedural
//!   [`Population`],
//! * [`stages`] — the six round stages (sampling → training → delivery →
//!   validation → aggregation → evaluation), each an isolated function over
//!   a [`stages::RoundContext`],
//! * [`executor`] — deterministic client-level parallelism for the training
//!   stage ([`ClientExecutor`]: sequential or scoped threads, bit-identical
//!   results either way; `FEDCAV_EXECUTOR` env override),
//! * [`population`] / [`sharded`] — the million-client scale substrate:
//!   procedural [`ClientDescriptor`]s replacing live datasets for clients
//!   not sampled this round ([`Simulation::over_population`], whose large
//!   cohorts aggregate through the two-pass streaming shard protocol,
//!   bit-identical to one pass, in constant memory — DESIGN.md §14), the
//!   O(cohort) [`sample_cohort`], and the [`ShardedSimulation`] facade,
//! * [`eval`] / [`metrics`] — test-set evaluation and per-round records,
//! * [`availability`] — who is online each round (always / Bernoulli /
//!   diurnal cohorts),
//! * [`faults`] — deterministic fault injection (crashes, NaN/Inf
//!   corruption, stragglers); the round loop tolerates everything this
//!   module can inject via validation, quarantine, deadlines and quorum
//!   ([`FaultPolicy`]),
//! * [`latency`] — simulated wall-clock per round (uniform / log-normal
//!   stragglers) for time-to-accuracy readouts,
//! * [`comm`] — byte-level traffic accounting (§6's "one extra float"
//!   overhead claim, made measurable).
//!
//! The round loop is instrumented with the `fedcav-trace` span API: every
//! [`RoundRecord`] carries [`PhaseTimings`], and installing a
//! [`fedcav_trace::CollectingTracer`] via [`Simulation::set_tracer`] turns
//! on structured span/counter events without perturbing results.

pub mod aggregate;
pub mod availability;
pub mod centralized;
pub mod client;
pub mod comm;
pub mod confusion;
pub mod eval;
pub mod executor;
pub mod faults;
pub mod fedavg;
pub mod fedavgm;
pub mod fedprox;
pub mod krum;
pub mod latency;
pub mod learned;
pub mod metrics;
pub mod normclip;
pub mod population;
pub mod robust;
pub mod sampling;
pub mod server;
pub mod sharded;
pub mod sizeguard;
pub mod stages;
pub mod strategy;
pub mod transport;
pub mod update;

pub use availability::{
    AlwaysAvailable, AvailabilityModel, BernoulliAvailability, DiurnalAvailability,
};
pub use centralized::CentralizedTrainer;
pub use client::{local_update, LocalConfig};
pub use comm::{CommModel, CommStats};
pub use confusion::{evaluate_confusion, ConfusionMatrix};
pub use executor::ClientExecutor;
pub use faults::{apply_fault, Corruption, FaultModel, InjectedFault, NoFaults, RandomFaults};
pub use fedavg::FedAvg;
pub use fedavgm::FedAvgM;
pub use fedprox::FedProx;
pub use krum::Krum;
pub use latency::{LatencyModel, LogNormalLatency, UniformLatency};
pub use learned::LearnedWeights;
pub use metrics::{
    FaultEvent, FaultEventKind, FaultTelemetry, History, RoundRecord, ToleranceBreach,
};
pub use normclip::NormClippedMomentum;
pub use population::{ClientDescriptor, Population};
pub use robust::{CoordinateMedian, TrimmedMean};
pub use server::{FaultPolicy, Interceptor, ModelFactory, Simulation, SimulationConfig};
pub use sharded::{sample_cohort, ShardedConfig, ShardedRoundRecord, ShardedSimulation};
pub use sizeguard::SizeGuard;
pub use strategy::{Aggregation, RoundContext, Strategy, UpdateMeta, WeightDecision};
pub use transport::UpdateTransport;
pub use update::{LocalUpdate, UpdateDefect};

pub use fedcav_nn::wire::CodecSpec;

pub use fedcav_tensor::{Result, TensorError};
pub use fedcav_trace::{CollectingTracer, NoopTracer, PhaseTimings, Tracer};
