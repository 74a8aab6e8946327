//! Stage 3 — delivery.
//!
//! Decide which training outcomes actually reach the aggregation: crashes
//! and training errors are dropped contributions; with a deadline and a
//! latency model installed, over-deadline clients time out. Crashed clients
//! keep their nominal latency in the round-duration math — a synchronous
//! server still waits on them until it gives up.
//!
//! This stage also owns the §6 communication ledger and the adversarial
//! interception seam. [`run`] may be called once per shard of the cohort;
//! it only accumulates the billing inputs (`ctx.delivered`,
//! `ctx.frame_bytes`), which the interceptor cannot touch, and [`bill`]
//! closes the ledger once per round — so adversarially added or removed
//! updates cannot distort it.

use super::{ClientOutcome, RoundContext};
use crate::comm::{CommModel, CommStats};
use crate::faults::slowdown_of;
use crate::latency::LatencyModel;
use crate::metrics::{FaultEvent, FaultEventKind};
use crate::server::Interceptor;
use crate::transport::UpdateTransport;
use fedcav_tensor::Result;
use std::sync::Arc;

/// The deployment state the delivery stage reads.
pub struct DeliveryEnv<'a> {
    /// Latency model, if any; required for the deadline to have an effect.
    pub latency: Option<&'a dyn LatencyModel>,
    /// Round deadline in simulated seconds ([`crate::FaultPolicy`]).
    pub deadline: Option<f64>,
    /// Byte-accounting model for downlink/uplink traffic.
    pub comm: CommModel,
    /// Whether uplink includes the per-client inference loss (FedCav's "one
    /// extra float").
    pub counts_loss: bool,
    /// The current global model — the same shared broadcast buffer the
    /// training stage handed each client (shown to the interceptor,
    /// read-only).
    pub global: &'a Arc<Vec<f32>>,
    /// Wire codec pipeline, if installed: every arriving upload is run
    /// through `decode(encode(·))` and billed its *encoded* frame bytes.
    pub transport: Option<&'a UpdateTransport>,
}

/// Drain `ctx.outcomes` into `ctx.updates`/`ctx.telemetry`, record straggler
/// slowdowns and the billing inputs, then hand the delivered updates to the
/// interceptor (the attack seam).
///
/// `ctx.delivered` counts every upload that physically reached the server,
/// including ones immediately timed out (and ones later quarantined): the
/// bytes were spent. Only crashed/failed clients sent nothing.
pub fn run<'a>(
    ctx: &mut RoundContext,
    env: &DeliveryEnv<'_>,
    interceptor: Option<&mut (dyn Interceptor + 'a)>,
) -> Result<()> {
    let outcomes = std::mem::take(&mut ctx.outcomes);
    ctx.slowdowns.reserve(outcomes.len());
    ctx.updates.reserve(outcomes.len());
    for (cid, fault, outcome) in outcomes {
        let slowdown = slowdown_of(fault);
        ctx.slowdowns.push((cid, slowdown));
        match outcome {
            ClientOutcome::Arrived(mut update) => {
                ctx.delivered += 1;
                let late = match (env.deadline, env.latency) {
                    (Some(d), Some(m)) => {
                        let eff = m.latency(cid, ctx.round) * slowdown;
                        (eff > d).then_some((eff, d))
                    }
                    _ => None,
                };
                match late {
                    Some((eff, d)) => {
                        // The upload was fully transmitted before the
                        // deadline verdict: bill its nominal encoded frame.
                        if let Some(t) = env.transport {
                            ctx.frame_bytes += t.encoded_len(update.params.len(), env.counts_loss);
                        }
                        ctx.telemetry.record(FaultEvent {
                            client: cid,
                            kind: FaultEventKind::TimedOut,
                            detail: format!("latency {eff:.3}s exceeds round deadline {d:.3}s"),
                        });
                    }
                    None => match env.transport {
                        Some(t) => match t.apply(&mut update, env.global, env.counts_loss) {
                            Ok(bytes) => {
                                ctx.frame_bytes += bytes;
                                ctx.updates.push(update);
                            }
                            Err(err) => {
                                // A garbage frame still crossed the network.
                                ctx.frame_bytes +=
                                    t.encoded_len(update.params.len(), env.counts_loss);
                                ctx.telemetry.record(FaultEvent {
                                    client: cid,
                                    kind: FaultEventKind::Quarantined,
                                    detail: format!("wire codec rejected update: {err}"),
                                });
                            }
                        },
                        None => ctx.updates.push(update),
                    },
                }
            }
            ClientOutcome::Crashed => ctx.telemetry.record(FaultEvent {
                client: cid,
                kind: FaultEventKind::Dropped,
                detail: "client crashed mid-round".to_string(),
            }),
            ClientOutcome::Failed(err) => ctx.telemetry.record(FaultEvent {
                client: cid,
                kind: FaultEventKind::Dropped,
                detail: format!("local training failed: {err}"),
            }),
        }
    }

    if let Some(interceptor) = interceptor {
        interceptor.intercept(ctx.round, env.global, &mut ctx.updates)?;
    }
    Ok(())
}

/// Close the round's §6 ledger: one downlink per sampled participant, and
/// the uplink of every delivered upload (its encoded frame when a
/// transport is installed), recorded into `comm_stats`.
pub fn bill(ctx: &mut RoundContext, env: &DeliveryEnv<'_>, comm_stats: &mut CommStats) {
    ctx.bytes_down = env.comm.downlink(ctx.participants.len());
    ctx.bytes_up = match env.transport {
        Some(_) => env.comm.uplink_encoded(ctx.frame_bytes, ctx.delivered),
        None => env.comm.uplink(ctx.delivered, env.counts_loss),
    };
    comm_stats.record(ctx.bytes_down, ctx.bytes_up);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;
    use crate::update::LocalUpdate;

    fn arrived(
        cid: usize,
        loss: f32,
    ) -> (usize, Option<crate::faults::InjectedFault>, ClientOutcome) {
        (cid, None, ClientOutcome::Arrived(LocalUpdate::new(cid, vec![0.0; 4], loss, 10)))
    }

    fn env_no_latency(global: &Arc<Vec<f32>>) -> DeliveryEnv<'_> {
        DeliveryEnv {
            latency: None,
            deadline: None,
            comm: CommModel::new(4),
            counts_loss: false,
            global,
            transport: None,
        }
    }

    #[test]
    fn crashes_and_failures_become_drops() {
        let global = Arc::new(vec![0.0; 4]);
        let mut ctx = RoundContext::new(0);
        ctx.participants = vec![0, 1, 2];
        ctx.outcomes = vec![
            arrived(0, 0.5),
            (1, None, ClientOutcome::Crashed),
            (2, None, ClientOutcome::Failed("oom".to_string())),
        ];
        run(&mut ctx, &env_no_latency(&global), None).unwrap();
        assert_eq!(ctx.updates.len(), 1);
        assert_eq!(ctx.delivered, 1);
        assert_eq!(ctx.telemetry.dropped, 2);
        assert_eq!(ctx.slowdowns.len(), 3, "every participant keeps a slowdown entry");
    }

    #[test]
    fn deadline_times_out_the_straggler() {
        use crate::faults::InjectedFault;
        let global = Arc::new(vec![0.0; 4]);
        let mut ctx = RoundContext::new(0);
        ctx.participants = vec![0, 1];
        ctx.outcomes = vec![arrived(0, 0.5), arrived(1, 0.5)];
        ctx.outcomes[1].1 = Some(InjectedFault::Straggle(10.0));
        let latency = UniformLatency(2.0);
        let env = DeliveryEnv {
            latency: Some(&latency),
            deadline: Some(5.0),
            comm: CommModel::new(4),
            counts_loss: false,
            global: &global,
            transport: None,
        };
        run(&mut ctx, &env, None).unwrap();
        bill(&mut ctx, &env, &mut CommStats::default());
        assert_eq!(ctx.telemetry.timed_out, 1);
        assert_eq!(ctx.updates.len(), 1);
        // The straggler's upload still physically happened.
        assert_eq!(ctx.delivered, 2);
        assert_eq!(ctx.bytes_up, CommModel::new(4).uplink(2, false));
    }

    #[test]
    fn traffic_is_billed_before_interception() {
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
        let global = Arc::new(vec![0.0; 4]);
        let mut ctx = RoundContext::new(0);
        ctx.participants = vec![0, 1];
        ctx.outcomes = vec![arrived(0, 0.5), arrived(1, 0.5)];
        let mut stats = CommStats::default();
        let mut interceptor = SwallowAll;
        let env = env_no_latency(&global);
        run(&mut ctx, &env, Some(&mut interceptor)).unwrap();
        bill(&mut ctx, &env, &mut stats);
        assert!(ctx.updates.is_empty(), "the interceptor swallowed everything");
        assert_eq!(ctx.bytes_up, CommModel::new(4).uplink(2, false), "…but the bytes were spent");
        assert_eq!(stats.total_up, ctx.bytes_up);
    }

    #[test]
    fn transport_bills_encoded_frames_and_replaces_params() {
        use fedcav_nn::wire::CodecSpec;
        let global = Arc::new(vec![0.0f32; 4]);
        let transport = UpdateTransport::new(CodecSpec::F16 { delta: false }, &[]);
        let mut ctx = RoundContext::new(0);
        ctx.participants = vec![0, 1];
        ctx.outcomes = vec![arrived(0, 0.5), arrived(1, 0.25)];
        let mut env = env_no_latency(&global);
        env.transport = Some(&transport);
        let mut stats = CommStats::default();
        run(&mut ctx, &env, None).unwrap();
        bill(&mut ctx, &env, &mut stats);
        assert_eq!(ctx.updates.len(), 2);
        let expected = 2 * (transport.encoded_len(4, false) + 24);
        assert_eq!(ctx.bytes_up, expected, "uplink = encoded frames + envelopes");
        assert_eq!(stats.total_up, expected);
    }

    #[test]
    fn transport_quarantines_codec_rejected_upload_but_bills_its_frame() {
        use fedcav_nn::wire::CodecSpec;
        let global = Arc::new(vec![0.0f32; 4]);
        let transport = UpdateTransport::new(CodecSpec::Int8 { delta: false }, &[]);
        let mut ctx = RoundContext::new(0);
        ctx.participants = vec![0, 1];
        let mut poisoned = LocalUpdate::new(1, vec![0.0, f32::NAN, 0.0, 0.0], 0.5, 10);
        poisoned.params[1] = f32::NAN;
        ctx.outcomes = vec![arrived(0, 0.5), (1, None, ClientOutcome::Arrived(poisoned))];
        let mut env = env_no_latency(&global);
        env.transport = Some(&transport);
        run(&mut ctx, &env, None).unwrap();
        bill(&mut ctx, &env, &mut CommStats::default());
        assert_eq!(ctx.updates.len(), 1, "rejected frame never reaches aggregation");
        assert_eq!(ctx.telemetry.quarantined, 1);
        assert_eq!(ctx.delivered, 2);
        assert_eq!(
            ctx.bytes_up,
            2 * (transport.encoded_len(4, false) + 24),
            "the garbage frame still crossed the network"
        );
    }

    #[test]
    fn shared_broadcast_still_bills_downlink_per_client() {
        // Regression for the zero-copy broadcast: the simulator holds ONE
        // Arc'd buffer, but the §6 ledger must keep billing one downlink
        // per sampled client — sharing memory is a simulator optimisation,
        // not a change to the modelled network.
        let global = Arc::new(vec![0.0; 4]);
        let mut ctx = RoundContext::new(0);
        ctx.participants = vec![0, 1, 2];
        ctx.outcomes = vec![arrived(0, 0.5), arrived(1, 0.5), arrived(2, 0.5)];
        let mut stats = CommStats::default();
        let env = env_no_latency(&global);
        run(&mut ctx, &env, None).unwrap();
        bill(&mut ctx, &env, &mut stats);
        assert_eq!(ctx.bytes_down, CommModel::new(4).downlink(3));
        assert_eq!(stats.total_down, ctx.bytes_down);
        assert_eq!(Arc::strong_count(&global), 1, "delivery takes no ownership of the broadcast");
    }
}
