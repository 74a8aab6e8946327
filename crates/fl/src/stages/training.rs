//! Stage 2 — local training.
//!
//! Algorithm 1 line 4: "for each client i in P_t *in parallel*". Each
//! participant downloads the global model, runs Algorithm 2 locally and
//! produces a [`ClientOutcome`]; injected faults (crashes, corruption,
//! straggling) are applied here, at the client, before anything reaches the
//! server.
//!
//! Every client is a pure function of `(seed, round, client)`: its RNG
//! stream is derived with [`derive_seed`], never shared. The
//! [`ClientExecutor`] may therefore run participants in any order on any
//! number of threads — outcomes land in cohort order regardless, which is
//! what makes parallel execution bit-identical to sequential.
//!
//! The same purity lets a client's data come from either source of
//! [`Clients`]: a live dataset, or a [`Population`] that regenerates it
//! bit-for-bit on every call — which is what lets the streaming round
//! replay a client in its second pass (DESIGN.md §14).

use super::{ClientOutcome, RoundContext};
use crate::client::{local_update, LocalConfig};
use crate::executor::ClientExecutor;
use crate::faults::{apply_fault, FaultModel, InjectedFault};
use crate::population::Population;
use crate::server::ModelFactory;
use fedcav_data::Dataset;
use std::borrow::Cow;
use std::sync::Arc;

/// Seed salt separating the corruption-value stream from the training
/// stream (both hash the same master seed per (round, client)).
pub(crate) const CORRUPTION_STREAM: u64 = 0xC044_BADD_0B5E_55ED;

/// SplitMix64 — derives independent per-(round, client) seeds from the
/// master seed so parallel execution order never affects results.
pub fn derive_seed(master: u64, round: usize, client: usize) -> u64 {
    let mut z = master
        .wrapping_add((round as u64).wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add((client as u64).wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Where the training stage finds a client's local data.
#[derive(Debug, Clone, Copy)]
pub enum Clients<'a> {
    /// Live datasets, indexed by client id.
    Datasets(&'a [Dataset]),
    /// A procedural population: a client's dataset is generated when it
    /// trains and dropped when it is done.
    Population(&'a Population),
}

impl Clients<'_> {
    /// Client `cid`'s dataset. An id outside the deployment is an error
    /// message (the client fails), never a panic.
    fn dataset(&self, cid: usize) -> Result<Cow<'_, Dataset>, String> {
        match self {
            Clients::Datasets(all) => {
                all.get(cid).map(Cow::Borrowed).ok_or_else(|| format!("unknown client id {cid}"))
            }
            Clients::Population(p) => p.materialize(cid).map(Cow::Owned).map_err(|e| e.to_string()),
        }
    }
}

/// The deployment state the training stage reads: shared across worker
/// threads, owned by the driver. Everything here is immutable for the
/// duration of the stage.
pub struct TrainingEnv<'a> {
    /// Model constructor; every client builds its own instance.
    pub factory: &'a ModelFactory,
    /// The current global model parameters (downlink payload). The
    /// broadcast is **zero-copy**: every client's "download" is an
    /// [`Arc`] clone of this one buffer, never a per-client `Vec` copy.
    /// The §6 ledger still bills the downlink per client — the simulated
    /// network sent `n` copies even though the simulator holds one.
    pub global: &'a Arc<Vec<f32>>,
    /// Every client's local data, by client id.
    pub clients: Clients<'a>,
    /// Local-training hyper-parameters, with any strategy μ already merged.
    pub local: LocalConfig,
    /// The master seed.
    pub seed: u64,
    /// Fault model, if any — consulted per (seed, round, client).
    pub fault_model: Option<&'a dyn FaultModel>,
}

/// Train `cohort` (all of `ctx.participants`, or one shard of it), filling
/// `ctx.outcomes` in cohort order. The executor only decides scheduling;
/// see the module docs for why results cannot depend on it.
pub fn run(
    ctx: &mut RoundContext,
    cohort: &[usize],
    env: &TrainingEnv<'_>,
    executor: ClientExecutor,
) {
    let round = ctx.round;
    ctx.outcomes = executor.map(cohort, |&cid| train_one(env, round, cid));
}

/// One client's round: inject any fault, train locally, corrupt the payload
/// if the fault says so. A crash, a training error or an out-of-range
/// client id is a recorded outcome, never a `?`-abort of the whole round.
fn train_one(
    env: &TrainingEnv<'_>,
    round: usize,
    cid: usize,
) -> (usize, Option<InjectedFault>, ClientOutcome) {
    let fault = env.fault_model.and_then(|m| m.inject(env.seed, round, cid));
    if matches!(fault, Some(InjectedFault::Crash)) {
        return (cid, fault, ClientOutcome::Crashed);
    }
    // An availability model returning an out-of-range id is a model bug;
    // treat it as a failed client, not a panic.
    let dataset = match env.clients.dataset(cid) {
        Ok(d) => d,
        Err(msg) => return (cid, fault, ClientOutcome::Failed(msg)),
    };
    // The client's download: an Arc clone of the broadcast buffer, shared
    // with every other participant in the cohort.
    let download = Arc::clone(env.global);
    let trained = local_update(
        env.factory,
        &download,
        cid,
        &dataset,
        &env.local,
        derive_seed(env.seed, round, cid),
    );
    match trained {
        Ok(mut update) => {
            if let Some(f) = fault {
                apply_fault(f, &mut update, derive_seed(env.seed ^ CORRUPTION_STREAM, round, cid));
            }
            (cid, fault, ClientOutcome::Arrived(update))
        }
        Err(e) => (cid, fault, ClientOutcome::Failed(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcav_data::{SyntheticConfig, SyntheticKind};
    use fedcav_nn::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 2, 4));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
    }

    fn tiny_deployment() -> (Vec<Dataset>, Arc<Vec<f32>>, usize) {
        let (train, _test) =
            SyntheticConfig::new(SyntheticKind::MnistLike, 8, 2).generate().unwrap();
        let img_len = train.image_len();
        let mut rng = StdRng::seed_from_u64(0);
        let part = fedcav_data::partition::iid_balanced(&train, 2, &mut rng);
        let clients = part.client_datasets(&train).unwrap();
        let global =
            Arc::new(models::mlp(&mut StdRng::seed_from_u64(7), img_len, 10).flat_params());
        (clients, global, img_len)
    }

    #[test]
    fn outcomes_land_in_cohort_order_with_any_executor() {
        let (clients, global, img_len) = tiny_deployment();
        let factory = move || models::mlp(&mut StdRng::seed_from_u64(7), img_len, 10);
        let env = TrainingEnv {
            factory: &factory,
            global: &global,
            clients: Clients::Datasets(&clients),
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
            seed: 3,
            fault_model: None,
        };
        let run_with = |executor: ClientExecutor| {
            let mut ctx = RoundContext::new(0);
            run(&mut ctx, &[0, 1], &env, executor);
            ctx.outcomes
        };
        let seq = run_with(ClientExecutor::Sequential);
        let par = run_with(ClientExecutor::ScopedThreads(2));
        assert_eq!(seq.len(), 2);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.0, p.0, "cohort order must not depend on the executor");
            match (&s.2, &p.2) {
                (ClientOutcome::Arrived(a), ClientOutcome::Arrived(b)) => assert_eq!(a, b),
                other => panic!("expected two arrivals, got {other:?}"),
            }
        }
    }

    #[test]
    fn broadcast_leaves_no_stray_arc_clones() {
        // Each participant's download is an Arc clone of the one broadcast
        // buffer; all clones must be dropped by the time the stage returns,
        // so the server's later `Arc::make_mut` never pays a copy for them.
        let (clients, global, img_len) = tiny_deployment();
        let factory = move || models::mlp(&mut StdRng::seed_from_u64(7), img_len, 10);
        let env = TrainingEnv {
            factory: &factory,
            global: &global,
            clients: Clients::Datasets(&clients),
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
            seed: 3,
            fault_model: None,
        };
        assert_eq!(Arc::strong_count(&global), 1);
        let mut ctx = RoundContext::new(0);
        run(&mut ctx, &[0, 1], &env, ClientExecutor::Sequential);
        assert_eq!(Arc::strong_count(&global), 1, "downloads must not outlive the stage");
        assert!(ctx.outcomes.iter().all(|(_, _, o)| matches!(o, ClientOutcome::Arrived(_))));
    }

    #[test]
    fn unknown_client_id_is_a_failure_not_a_panic() {
        let (clients, global, img_len) = tiny_deployment();
        let factory = move || models::mlp(&mut StdRng::seed_from_u64(7), img_len, 10);
        let env = TrainingEnv {
            factory: &factory,
            global: &global,
            clients: Clients::Datasets(&clients),
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
            seed: 3,
            fault_model: None,
        };
        let mut ctx = RoundContext::new(0);
        run(&mut ctx, &[0, 99], &env, ClientExecutor::Sequential);
        assert!(matches!(ctx.outcomes[0].2, ClientOutcome::Arrived(_)));
        match &ctx.outcomes[1].2 {
            ClientOutcome::Failed(msg) => assert!(msg.contains("99")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn crash_fault_short_circuits_training() {
        struct CrashAll;
        impl FaultModel for CrashAll {
            fn inject(&self, _s: u64, _r: usize, _c: usize) -> Option<InjectedFault> {
                Some(InjectedFault::Crash)
            }
        }
        let (clients, global, img_len) = tiny_deployment();
        let factory = move || models::mlp(&mut StdRng::seed_from_u64(7), img_len, 10);
        let env = TrainingEnv {
            factory: &factory,
            global: &global,
            clients: Clients::Datasets(&clients),
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
            seed: 3,
            fault_model: Some(&CrashAll),
        };
        let mut ctx = RoundContext::new(0);
        run(&mut ctx, &[0, 1], &env, ClientExecutor::Sequential);
        assert!(ctx.outcomes.iter().all(|(_, f, o)| {
            matches!(f, Some(InjectedFault::Crash)) && matches!(o, ClientOutcome::Crashed)
        }));
    }
}
