//! The staged round pipeline.
//!
//! `Simulation::run_round` is a thin driver over six stage modules, each a
//! free function with narrow, explicit inputs so it can be exercised in
//! isolation against a hand-built [`RoundContext`]:
//!
//! 1. [`sampling`] — availability query + cohort sampling,
//! 2. [`training`] — per-client local training (fault injection included),
//!    scheduled by a [`crate::ClientExecutor`],
//! 3. [`delivery`] — deadline arbitration, drop telemetry, §6 traffic
//!    accounting, adversarial interception,
//! 4. [`validation`] — server-side quarantine of defective updates,
//! 5. [`aggregation`] — strategy aggregate / reject / quorum degradation,
//!    or the two-pass streaming aggregate of a large cohort,
//! 6. [`evaluation`] — test-set evaluation of the new global model.
//!
//! Training, delivery and validation may run once per *shard* of the
//! cohort: the driver feeds them one chunk of participants at a time and
//! closes billing ([`delivery::bill`]) and loss statistics
//! ([`validation::close`]) once per round (DESIGN.md §14).
//!
//! **Ownership rules.** The [`RoundContext`] owns everything produced
//! *within* the round (cohort, outcomes, updates, telemetry, metrics); the
//! driver lends each stage only the deployment state it reads (models,
//! datasets, policies) or mutates (the global parameter vector, comm
//! counters, the strategy). Updates move forward through the context and
//! are never copied: training fills `outcomes`, delivery drains them into
//! `updates`, validation retains the valid ones in place, aggregation
//! consumes them by reference. A stage therefore cannot reach back into an
//! earlier stage's inputs, and the borrow checker enforces the stage order
//! the paper describes.
//!
//! Every stage on this path obeys the `no-panic-in-round-loop` lint: a
//! malformed update or a buggy model degrades the round, never the server.
//!
//! This module's [`RoundContext`] is the *pipeline* state; the much smaller
//! [`crate::strategy::RoundContext`] is the read-only view handed to a
//! [`crate::Strategy`] at aggregation time. The aggregation stage builds
//! the latter from the former.

pub mod aggregation;
pub mod delivery;
pub mod evaluation;
pub mod sampling;
pub mod training;
pub mod validation;

use crate::faults::InjectedFault;
use crate::metrics::{FaultTelemetry, RoundRecord};
use crate::update::LocalUpdate;
use fedcav_trace::PhaseTimings;

/// Per-client result of the training stage. A crash, a training error or an
/// injected corruption is a recorded outcome, never a `?`-abort of the
/// whole round.
#[derive(Debug)]
pub enum ClientOutcome {
    /// The update reached the server (possibly corrupted).
    Arrived(LocalUpdate),
    /// The client went silent; nothing arrived.
    Crashed,
    /// Local training errored out.
    Failed(String),
}

/// The state one communication round threads through the pipeline stages.
///
/// Built empty by the driver, filled left-to-right as stages run, and
/// finally consumed by [`RoundContext::into_record`]. All fields are public
/// so tests can hand-build a context at any pipeline seam (e.g. validate a
/// poisoned update without running training first).
#[derive(Debug, Default)]
pub struct RoundContext {
    /// Communication round index `t` (0-based).
    pub round: usize,
    /// The sampled cohort `P_t`, in ascending client order (sampling).
    pub participants: Vec<usize>,
    /// One `(client, injected fault, outcome)` triple per participant, in
    /// cohort order (training).
    pub outcomes: Vec<(usize, Option<InjectedFault>, ClientOutcome)>,
    /// Per-participant straggler slowdown factors, for the latency model's
    /// round-duration math (delivery).
    pub slowdowns: Vec<(usize, f64)>,
    /// Updates still in play: delivered (delivery), then validated
    /// (validation), then consumed by the strategy (aggregation).
    pub updates: Vec<LocalUpdate>,
    /// How many uploads physically reached the server, including ones later
    /// timed out or quarantined — this is what uplink billing counts.
    pub delivered: usize,
    /// Encoded frame bytes of those uploads, when a wire transport is
    /// installed (delivery) — the other uplink billing input.
    pub frame_bytes: u64,
    /// Dropped / quarantined / timed-out contributions and quorum state.
    pub telemetry: FaultTelemetry,
    /// Bytes the server pushed this round (delivery).
    pub bytes_down: u64,
    /// Bytes the participants pushed back (delivery).
    pub bytes_up: u64,
    /// Mean inference loss over the validated updates (validation).
    pub mean_inference_loss: f32,
    /// Max inference loss over the validated updates (validation).
    pub max_inference_loss: f32,
    /// Whether the strategy rejected and reverted the round (aggregation).
    pub rejected: bool,
    /// Rejection reason, when `rejected` (aggregation).
    pub reject_reason: Option<String>,
    /// Test-set mean cross-entropy of the new global model (evaluation).
    pub test_loss: f32,
    /// Test-set top-1 accuracy of the new global model (evaluation).
    pub test_accuracy: f32,
}

impl RoundContext {
    /// Fresh context for round `round`; everything else starts empty.
    pub fn new(round: usize) -> Self {
        RoundContext { round, ..Default::default() }
    }

    /// Number of updates that survived to the current stage.
    pub fn surviving(&self) -> usize {
        self.updates.len()
    }

    /// Close out the round: fold the pipeline state into the permanent
    /// [`RoundRecord`] (the driver supplies the timings it measured). Fault
    /// events are put in participant order — delivery and validation record
    /// them shard by shard, and the order must not depend on the sharding.
    pub fn into_record(
        mut self,
        phases: PhaseTimings,
        round_duration: f64,
        sim_time: f64,
    ) -> RoundRecord {
        self.telemetry.events.sort_by_key(|e| e.client);
        RoundRecord {
            round: self.round,
            test_accuracy: self.test_accuracy,
            test_loss: self.test_loss,
            mean_inference_loss: self.mean_inference_loss,
            max_inference_loss: self.max_inference_loss,
            participants: self.participants.len(),
            rejected: self.rejected,
            reject_reason: self.reject_reason,
            bytes_down: self.bytes_down,
            bytes_up: self.bytes_up,
            round_duration,
            sim_time,
            faults: self.telemetry,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_context_is_empty() {
        let ctx = RoundContext::new(3);
        assert_eq!(ctx.round, 3);
        assert!(ctx.participants.is_empty());
        assert!(ctx.updates.is_empty());
        assert_eq!(ctx.surviving(), 0);
        assert!(ctx.telemetry.is_clean());
    }

    #[test]
    fn into_record_carries_pipeline_state() {
        let mut ctx = RoundContext::new(2);
        ctx.participants = vec![0, 3, 5];
        ctx.bytes_down = 100;
        ctx.bytes_up = 70;
        ctx.test_accuracy = 0.5;
        ctx.rejected = true;
        ctx.reject_reason = Some("vote".to_string());
        let record = ctx.into_record(PhaseTimings::default(), 2.5, 10.0);
        assert_eq!(record.round, 2);
        assert_eq!(record.participants, 3);
        assert_eq!(record.bytes_down, 100);
        assert_eq!(record.round_duration, 2.5);
        assert_eq!(record.sim_time, 10.0);
        assert!(record.rejected);
        assert_eq!(record.reject_reason.as_deref(), Some("vote"));
    }
}
