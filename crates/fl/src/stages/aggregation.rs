//! Stage 5 — aggregation.
//!
//! Hand the validated updates to the [`Strategy`] (Algorithm 1 lines 6–9).
//! Three outcomes:
//!
//! * **quorum miss** — too few valid updates survived; hold the global
//!   model and record a degraded round rather than aggregating a handful of
//!   survivors (or nothing at all),
//! * **accept** — install the aggregated parameters,
//! * **reject** — the strategy's detection fired (Eq. 13): install the
//!   reverted parameters and call [`Strategy::on_reject`] so server-side
//!   optimizer state accumulated from the rolled-back trajectory (e.g.
//!   FedAvgM's velocity) is discarded too.
//!
//! A round whose updates were kept aggregates them in one call ([`run`]).
//! A large cohort over a procedural population keeps only each survivor's
//! scalar [`UpdateMeta`] and is decided by `decide_streaming`: the
//! strategy's scalar-only weight query, then a second pass that regenerates
//! the survivors shard by shard (every client is a pure function of
//! `(seed, round, client)`) and folds `Σ w_i · p_i` through one
//! [`ParamFold`] (DESIGN.md §14).

use super::RoundContext;
use crate::strategy::{
    Aggregation, RoundContext as StrategyContext, Strategy, UpdateMeta, WeightDecision,
};
use crate::update::LocalUpdate;
use fedcav_tensor::{Result, TensorError};

/// Aggregate `ctx.updates` into `global` (or hold/revert it), updating
/// `ctx.rejected` / `ctx.reject_reason` / `ctx.telemetry.degraded`.
/// `min_quorum` values below 1 are treated as 1: aggregating nothing is
/// never meaningful.
pub fn run(
    ctx: &mut RoundContext,
    strategy: &mut (dyn Strategy + '_),
    global: &mut Vec<f32>,
    min_quorum: usize,
) -> Result<()> {
    if !quorum_met(ctx, ctx.updates.len(), min_quorum) {
        return Ok(());
    }
    let decision = {
        let sctx = StrategyContext { round: ctx.round, global };
        strategy.aggregate(&sctx, &ctx.updates)?
    };
    // Graceful-degradation contract: if the strategy had to aggregate
    // beyond its tolerance bound, fold the breach into the round telemetry
    // so the history shows which rounds carry weakened guarantees.
    ctx.telemetry.tolerance_breach = strategy.take_breach();
    install(ctx, strategy, global, decision)
}

/// Decide a round whose parameter vectors were not kept: `metas` are the
/// survivors' scalars in cohort order, and `regenerate(ids)` replays those
/// clients through training, delivery and validation, returning their
/// updates in the same order. Returns `None` on a quorum miss; the caller
/// [`install`]s the decision.
///
/// The strategy's [`Strategy::streaming_weights`] either rejects the round
/// from scalars alone (the second pass never runs), or gives weights that
/// [`ParamFold`] applies to the survivors regenerated `shard_size` at a
/// time. A strategy without scalar weights (`Ok(None)`) gets the
/// regenerated cohort materialized and aggregated in one call: correct, but
/// O(cohort · dim) memory again.
pub(crate) fn decide_streaming(
    ctx: &mut RoundContext,
    strategy: &mut (dyn Strategy + '_),
    global: &[f32],
    min_quorum: usize,
    metas: Vec<UpdateMeta>,
    shard_size: usize,
    mut regenerate: impl FnMut(&[usize]) -> Result<Vec<LocalUpdate>>,
) -> Result<Option<Aggregation>> {
    if !quorum_met(ctx, metas.len(), min_quorum) {
        return Ok(None);
    }
    let sctx = StrategyContext { round: ctx.round, global };
    let decision = strategy.streaming_weights(&sctx, &metas)?;
    ctx.telemetry.tolerance_breach = strategy.take_breach();
    let survivors: Vec<usize> = metas.iter().map(|m| m.client_id).collect();
    let aggregation = match decision {
        Some(WeightDecision::Reject { reverted, reason }) => {
            Aggregation::Reject { reverted, reason }
        }
        Some(WeightDecision::Weights(weights)) => {
            let mut fold = ParamFold::new(global.len(), weights, metas)?;
            for chunk in survivors.chunks(shard_size.max(1)) {
                for update in regenerate(chunk)? {
                    fold.fold(&update)?;
                }
            }
            Aggregation::Accept(fold.finish()?)
        }
        None => {
            let updates = regenerate(&survivors)?;
            if !updates.iter().map(|u| u.client_id).eq(survivors.iter().copied()) {
                return Err(TensorError::ShapeMismatch {
                    op: "decide_streaming (pass-2 replay diverged from pass 1)",
                    lhs: survivors,
                    rhs: updates.iter().map(|u| u.client_id).collect(),
                });
            }
            let fallback = strategy.aggregate(&sctx, &updates)?;
            ctx.telemetry.tolerance_breach = strategy.take_breach();
            fallback
        }
    };
    Ok(Some(aggregation))
}

/// Whether `survivors` meet the quorum (values below 1 count as 1); a miss
/// marks the round degraded and the global model is held.
fn quorum_met(ctx: &mut RoundContext, survivors: usize, min_quorum: usize) -> bool {
    let met = survivors >= min_quorum.max(1);
    if !met {
        ctx.telemetry.degraded = true;
    }
    met
}

/// Install an aggregation decision: accept (replace the global model) or
/// reject (install the reverted parameters and notify the strategy).
pub(crate) fn install(
    ctx: &mut RoundContext,
    strategy: &mut (dyn Strategy + '_),
    global: &mut Vec<f32>,
    decision: Aggregation,
) -> Result<()> {
    match decision {
        Aggregation::Accept(params) => {
            if params.len() != global.len() {
                return Err(TensorError::ElementCountMismatch {
                    from: params.len(),
                    to: global.len(),
                });
            }
            *global = params;
        }
        Aggregation::Reject { reverted, reason } => {
            if reverted.len() != global.len() {
                return Err(TensorError::ElementCountMismatch {
                    from: reverted.len(),
                    to: global.len(),
                });
            }
            *global = reverted;
            // Server-side optimizer state (e.g. FedAvgM's velocity) was
            // accumulated from the trajectory we just rolled back; give the
            // strategy the chance to discard it.
            strategy.on_reject();
            ctx.rejected = true;
            ctx.reject_reason = Some(reason);
        }
    }
    Ok(())
}

/// Pass-2 accumulator: the running weighted sum `Σ w_i · p_i` over one
/// in-flight parameter vector at a time.
///
/// The fold replicates [`crate::aggregate::weighted_sum`]'s operation
/// order exactly — updates outer, coordinates inner, one f32 accumulator
/// per coordinate — so feeding it the cohort's updates in cohort order is
/// bit-identical to the materialized call. Peak memory is the accumulator
/// plus one update, independent of cohort size.
#[derive(Debug, Clone)]
pub struct ParamFold {
    out: Vec<f32>,
    weights: Vec<f32>,
    metas: Vec<UpdateMeta>,
    next: usize,
}

impl ParamFold {
    /// New fold over `dim`-length parameter vectors with per-update
    /// `weights` aligned to `metas` (the pass-1 cohort order). Errors when
    /// the two disagree in length.
    pub fn new(dim: usize, weights: Vec<f32>, metas: Vec<UpdateMeta>) -> Result<Self> {
        if weights.len() != metas.len() {
            return Err(TensorError::ShapeMismatch {
                op: "ParamFold::new",
                lhs: vec![weights.len()],
                rhs: vec![metas.len()],
            });
        }
        Ok(ParamFold { out: vec![0.0f32; dim], weights, metas, next: 0 })
    }

    /// Fold the next update in. The update must be the one pass 1 recorded
    /// at this position (checked by client id) — a mismatch means the
    /// pass-2 regeneration diverged from pass 1, which breaks the weight
    /// alignment and is reported as an error, never a panic.
    pub fn fold(&mut self, update: &LocalUpdate) -> Result<()> {
        let (Some(&w), Some(meta)) = (self.weights.get(self.next), self.metas.get(self.next))
        else {
            return Err(TensorError::IndexOutOfBounds {
                index: self.next,
                bound: self.weights.len(),
            });
        };
        if meta.client_id != update.client_id {
            return Err(TensorError::ShapeMismatch {
                op: "ParamFold::fold (pass-2 replay diverged from pass 1)",
                lhs: vec![meta.client_id],
                rhs: vec![update.client_id],
            });
        }
        if update.params.len() != self.out.len() {
            return Err(TensorError::ElementCountMismatch {
                from: update.params.len(),
                to: self.out.len(),
            });
        }
        for (o, &p) in self.out.iter_mut().zip(&update.params) {
            *o += w * p;
        }
        self.next += 1;
        Ok(())
    }

    /// Number of updates still expected.
    pub fn remaining(&self) -> usize {
        self.weights.len().saturating_sub(self.next)
    }

    /// Finish the fold. Errors when fewer updates arrived than pass 1
    /// recorded (a non-deterministic replay would silently mis-weight).
    pub fn finish(self) -> Result<Vec<f32>> {
        if self.next != self.weights.len() {
            return Err(TensorError::ShapeMismatch {
                op: "ParamFold::finish (pass 2 incomplete)",
                lhs: vec![self.next],
                rhs: vec![self.weights.len()],
            });
        }
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedavg::FedAvg;
    use crate::update::LocalUpdate;

    fn update(cid: usize, params: Vec<f32>) -> LocalUpdate {
        LocalUpdate::new(cid, params, 0.5, 10)
    }

    #[test]
    fn quorum_miss_degrades_and_holds_the_model() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![1.0; 4])];
        let mut global = vec![0.5; 4];
        let before = global.clone();
        run(&mut ctx, &mut FedAvg::new(), &mut global, 2).unwrap();
        assert!(ctx.telemetry.degraded);
        assert!(!ctx.rejected);
        assert_eq!(global, before, "global model held on a quorum miss");
    }

    #[test]
    fn accept_installs_the_aggregate() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![1.0; 4]), update(1, vec![3.0; 4])];
        let mut global = vec![0.0; 4];
        run(&mut ctx, &mut FedAvg::new(), &mut global, 1).unwrap();
        assert!(!ctx.rejected);
        assert!(!ctx.telemetry.degraded);
        assert!(global.iter().all(|&p| (p - 2.0).abs() < 1e-6), "equal-sized clients average");
    }

    /// A strategy that always rejects, tracking whether on_reject ran.
    struct AlwaysReject {
        on_reject_calls: usize,
    }
    impl Strategy for AlwaysReject {
        fn name(&self) -> &'static str {
            "AlwaysReject"
        }
        fn aggregate(
            &mut self,
            ctx: &StrategyContext<'_>,
            _updates: &[LocalUpdate],
        ) -> Result<Aggregation> {
            Ok(Aggregation::Reject {
                reverted: ctx.global.to_vec(),
                reason: "vote failed".to_string(),
            })
        }
        fn on_reject(&mut self) {
            self.on_reject_calls += 1;
        }
    }

    #[test]
    fn reject_reverts_and_fires_on_reject() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![9.0; 4])];
        let mut global = vec![0.5; 4];
        let before = global.clone();
        let mut strategy = AlwaysReject { on_reject_calls: 0 };
        run(&mut ctx, &mut strategy, &mut global, 1).unwrap();
        assert!(ctx.rejected);
        assert_eq!(ctx.reject_reason.as_deref(), Some("vote failed"));
        assert_eq!(global, before);
        assert_eq!(strategy.on_reject_calls, 1);
    }

    /// A strategy that always aggregates beyond its tolerance bound.
    struct AlwaysBreached;
    impl Strategy for AlwaysBreached {
        fn name(&self) -> &'static str {
            "AlwaysBreached"
        }
        fn aggregate(
            &mut self,
            _ctx: &StrategyContext<'_>,
            updates: &[LocalUpdate],
        ) -> Result<Aggregation> {
            Ok(Aggregation::Accept(updates[0].params.clone()))
        }
        fn take_breach(&mut self) -> Option<crate::metrics::ToleranceBreach> {
            Some(crate::metrics::ToleranceBreach {
                strategy: "AlwaysBreached",
                detail: "cohort below tolerance bound".to_string(),
            })
        }
    }

    #[test]
    fn breach_lands_in_round_telemetry() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![1.0; 4])];
        let mut global = vec![0.5; 4];
        run(&mut ctx, &mut AlwaysBreached, &mut global, 1).unwrap();
        let breach = ctx.telemetry.tolerance_breach.as_ref().expect("breach recorded");
        assert_eq!(breach.strategy, "AlwaysBreached");
        assert!(!ctx.telemetry.is_clean(), "a breached round is not clean");
        assert_eq!(global, vec![1.0; 4], "model still installed");
    }

    #[test]
    fn clean_aggregation_records_no_breach() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![1.0; 4]), update(1, vec![3.0; 4])];
        let mut global = vec![0.0; 4];
        run(&mut ctx, &mut FedAvg::new(), &mut global, 1).unwrap();
        assert!(ctx.telemetry.tolerance_breach.is_none());
    }

    /// A strategy that returns a wrong-length aggregate.
    struct WrongLen;
    impl Strategy for WrongLen {
        fn name(&self) -> &'static str {
            "WrongLen"
        }
        fn aggregate(
            &mut self,
            _ctx: &StrategyContext<'_>,
            _updates: &[LocalUpdate],
        ) -> Result<Aggregation> {
            Ok(Aggregation::Accept(vec![0.0; 2]))
        }
    }

    #[test]
    fn wrong_length_aggregate_is_an_error() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![1.0; 4])];
        let mut global = vec![0.5; 4];
        assert!(run(&mut ctx, &mut WrongLen, &mut global, 1).is_err());
    }

    #[test]
    fn param_fold_matches_weighted_sum_bit_for_bit() {
        let updates = vec![
            update(0, vec![0.1, -0.2, 0.3]),
            update(1, vec![1.5, 2.5, -3.5]),
            update(2, vec![0.7, 0.07, 0.007]),
        ];
        let weights = vec![0.2f32, 0.5, 0.3];
        let reference = crate::aggregate::weighted_sum(&updates, &weights).unwrap();
        let metas: Vec<UpdateMeta> = updates.iter().map(UpdateMeta::of).collect();
        let mut fold = ParamFold::new(3, weights, metas).unwrap();
        for u in &updates {
            assert_eq!(fold.remaining(), 3 - u.client_id);
            fold.fold(u).unwrap();
        }
        let out = fold.finish().unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&reference));
    }

    #[test]
    fn param_fold_rejects_misaligned_replay() {
        let metas = vec![UpdateMeta { client_id: 4, inference_loss: 0.1, num_samples: 1 }];
        let mut fold = ParamFold::new(2, vec![1.0], metas).unwrap();
        // Wrong client arrives: the pass-2 replay diverged from pass 1.
        assert!(fold.fold(&update(5, vec![1.0, 2.0])).is_err());
        // Right client, wrong dimension.
        assert!(fold.fold(&update(4, vec![1.0])).is_err());
        // Right client, right dimension.
        fold.fold(&update(4, vec![1.0, 2.0])).unwrap();
        // One more than pass 1 recorded.
        assert!(fold.fold(&update(4, vec![1.0, 2.0])).is_err());
    }

    #[test]
    fn param_fold_incomplete_finish_is_an_error() {
        let metas = vec![
            UpdateMeta { client_id: 0, inference_loss: 0.1, num_samples: 1 },
            UpdateMeta { client_id: 1, inference_loss: 0.2, num_samples: 1 },
        ];
        let mut fold = ParamFold::new(1, vec![0.5, 0.5], metas).unwrap();
        fold.fold(&update(0, vec![2.0])).unwrap();
        assert!(fold.finish().is_err(), "a silent short-count would mis-weight the round");
    }

    #[test]
    fn param_fold_weight_meta_mismatch_is_an_error() {
        assert!(ParamFold::new(2, vec![1.0, 2.0], Vec::new()).is_err());
    }
}
