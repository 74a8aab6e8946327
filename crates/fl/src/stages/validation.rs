//! Stage 4 — server-side validation.
//!
//! Quarantine anything that would poison the aggregation arithmetic: wrong
//! length, non-finite parameters or loss, norm-bound violations. §4.4's
//! detection defends against clients that *lie*; this pass defends against
//! clients that *break*. Once the whole cohort is validated, [`close`]
//! computes the round's mean/max inference loss over the survivors (the
//! detector's inputs).

use super::RoundContext;
use crate::metrics::{FaultEvent, FaultEventKind};
use crate::strategy::UpdateMeta;

/// Retain only the updates in `ctx.updates` that pass
/// [`crate::LocalUpdate::validate`], recording a quarantine event for each
/// reject. May be called once per shard of the cohort.
pub fn run(ctx: &mut RoundContext, expected_len: usize, max_param_norm: Option<f32>) {
    let updates = std::mem::take(&mut ctx.updates);
    let mut valid = Vec::with_capacity(updates.len());
    for update in updates {
        match update.validate(expected_len, max_param_norm) {
            Ok(()) => valid.push(update),
            Err(defect) => ctx.telemetry.record(FaultEvent {
                client: update.client_id,
                kind: FaultEventKind::Quarantined,
                detail: defect.to_string(),
            }),
        }
    }
    ctx.updates = valid;
}

/// Fill `ctx.mean_inference_loss` / `ctx.max_inference_loss` from the
/// round's validated updates, in cohort order.
pub fn close(ctx: &mut RoundContext, survivors: &[UpdateMeta]) {
    ctx.mean_inference_loss = if survivors.is_empty() {
        0.0
    } else {
        survivors.iter().map(|m| m.inference_loss).sum::<f32>() / survivors.len() as f32
    };
    // `fold(NEG_INFINITY, max)` over an empty round would leak -inf into
    // the record (and from there into detector baselines); report 0.0
    // instead, matching mean_inference_loss.
    let max_loss = survivors.iter().map(|m| m.inference_loss).fold(f32::NEG_INFINITY, f32::max);
    ctx.max_inference_loss = if max_loss.is_finite() { max_loss } else { 0.0 };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::LocalUpdate;

    fn update(cid: usize, params: Vec<f32>, loss: f32) -> LocalUpdate {
        LocalUpdate::new(cid, params, loss, 10)
    }

    /// Validate, then close the loss statistics over the survivors.
    fn validate_round(ctx: &mut RoundContext, expected_len: usize, max_norm: Option<f32>) {
        run(ctx, expected_len, max_norm);
        let metas: Vec<UpdateMeta> = ctx.updates.iter().map(UpdateMeta::of).collect();
        close(ctx, &metas);
    }

    #[test]
    fn poisoned_update_is_quarantined_without_running_training() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![
            update(0, vec![0.1; 4], 0.5),
            update(1, vec![0.1, f32::NAN, 0.1, 0.1], 0.5),
            update(2, vec![0.1; 4], 0.7),
        ];
        validate_round(&mut ctx, 4, None);
        assert_eq!(ctx.surviving(), 2);
        assert_eq!(ctx.telemetry.quarantined, 1);
        assert_eq!(ctx.telemetry.events.len(), 1);
        assert_eq!(ctx.telemetry.events[0].client, 1);
        assert!((ctx.mean_inference_loss - 0.6).abs() < 1e-6);
        assert!((ctx.max_inference_loss - 0.7).abs() < 1e-6);
    }

    #[test]
    fn wrong_length_and_norm_bound_are_defects() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![
            update(0, vec![0.1; 3], 0.5),   // wrong length
            update(1, vec![100.0; 4], 0.5), // norm 200 > bound
            update(2, vec![0.1; 4], 0.5),   // fine
        ];
        run(&mut ctx, 4, Some(10.0));
        assert_eq!(ctx.surviving(), 1);
        assert_eq!(ctx.telemetry.quarantined, 2);
        assert_eq!(ctx.updates[0].client_id, 2);
    }

    #[test]
    fn empty_round_reports_zero_losses_not_neg_inf() {
        let mut ctx = RoundContext::new(0);
        validate_round(&mut ctx, 4, None);
        assert_eq!(ctx.mean_inference_loss, 0.0);
        assert_eq!(ctx.max_inference_loss, 0.0);
        assert_eq!(ctx.surviving(), 0);
    }

    #[test]
    fn non_finite_loss_is_quarantined() {
        let mut ctx = RoundContext::new(0);
        ctx.updates = vec![update(0, vec![0.1; 4], f32::INFINITY), update(1, vec![0.1; 4], 0.4)];
        validate_round(&mut ctx, 4, None);
        assert_eq!(ctx.telemetry.quarantined, 1);
        assert!(ctx.max_inference_loss.is_finite());
    }
}
