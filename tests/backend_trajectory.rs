//! Differential trajectory pin for the backend refactor (ISSUE 9
//! acceptance): an end-to-end FedCav round sequence on the `CpuBlocked`
//! and `Reference` backends must be **bit-identical** to the pre-refactor
//! HEAD, where the same two trajectories ran behind the `FEDCAV_KERNELS`
//! env dispatch.
//!
//! The constants below were captured at the pre-refactor HEAD (commit
//! 6668a60) by running this exact recipe under both kernel modes and
//! hashing the final global parameter vector (FNV-1a 64 over the f32 bit
//! patterns, little-endian). If either hash moves, the trait boundary
//! changed the numerics — which the refactor promised not to do.
//!
//! They were re-captured once, with the recipe unchanged, when two
//! deliberate numeric changes landed together: the workspace's seeded
//! streams moved to the in-repo `rand` (xoshiro256**, `crates/rand`), and
//! the blocked matmul's `m % 4` remainder rows began taking the full-band
//! micro-kernel (DESIGN.md §12). Accuracy and dimension did not move.
//!
//! Each run names its backend as a type (`models::mlp_on::<B, _>`), so
//! the tests share no state and cargo may run them on parallel threads.

use fedcav::core::{FedCav, FedCavConfig};
use fedcav::data::synthetic::{SyntheticConfig, SyntheticKind};
use fedcav::data::{partition, Dataset};
use fedcav::fl::executor::ClientExecutor;
use fedcav::fl::{LocalConfig, Simulation, SimulationConfig};
use fedcav::tensor::backend::{Backend, CpuBlocked, Reference};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Captured at pre-refactor HEAD: flat parameter count of the model.
const HEAD_DIM: usize = 52650;
/// Captured at pre-refactor HEAD: final test accuracy, identical in both
/// kernel modes (the last-ulp kernel differences don't flip a label at
/// this scale).
const HEAD_ACC: f32 = 0.55;
/// Captured at pre-refactor HEAD: first parameter's bit pattern, shared
/// by both modes (round 0's first weight moves identically).
const HEAD_G0: u32 = 0x3d0bd3ba;
/// Captured at pre-refactor HEAD: middle parameter's bit pattern, shared
/// by both modes.
const HEAD_GMID: u32 = 0x3d652fee;
/// Captured at pre-refactor HEAD under `FEDCAV_KERNELS=blocked`.
const HEAD_BLOCKED_HASH: u64 = 0x7fa0e749f555bf91;
const HEAD_BLOCKED_GLAST: u32 = 0x3c3a9458;
/// Captured at pre-refactor HEAD under `FEDCAV_KERNELS=reference`.
const HEAD_REFERENCE_HASH: u64 = 0x90222c4c6a2e04ca;
const HEAD_REFERENCE_GLAST: u32 = 0x3c3a9456;

/// FNV-1a 64 over the parameter bit patterns, little-endian — the same
/// fold the capture harness used.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn param_hash(global: &[f32]) -> u64 {
    fnv1a(global.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn deployment() -> (Vec<Dataset>, Dataset, usize) {
    let (train, test) =
        SyntheticConfig::new(SyntheticKind::MnistLike, 12, 2).generate().expect("synthetic data");
    let mut rng = StdRng::seed_from_u64(0);
    let part = partition::iid_balanced(&train, 6, &mut rng);
    let img_len = train.image_len();
    (part.client_datasets(&train).expect("partition"), test, img_len)
}

/// The captured recipe, verbatim: 6 IID clients, MLP, FedCav default
/// config, 2 sequential rounds at seed 91, with every model on backend `B`.
fn run_on<B: Backend>() -> (Vec<f32>, f32) {
    let (clients, test, img_len) = deployment();
    let factory = move || {
        let mut rng = StdRng::seed_from_u64(7);
        fedcav::nn::models::mlp_on::<B, _>(&mut rng, img_len, 10)
    };
    let mut sim = Simulation::new(
        &factory,
        clients,
        test,
        Box::new(FedCav::new(FedCavConfig::default())),
        SimulationConfig {
            sample_ratio: 1.0,
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.1, prox_mu: 0.0 },
            eval_batch: 32,
            seed: 91,
        },
    );
    sim.set_executor(ClientExecutor::Sequential);
    sim.run(2).expect("run");
    let acc = sim.history().records.last().expect("records").test_accuracy;
    (sim.global().to_vec(), acc)
}

#[test]
fn blocked_backend_matches_pre_refactor_head_bit_for_bit() {
    let (global, acc) = run_on::<CpuBlocked>();
    assert_eq!(global.len(), HEAD_DIM);
    assert_eq!(acc, HEAD_ACC);
    assert_eq!(global[0].to_bits(), HEAD_G0, "first parameter moved");
    assert_eq!(global[HEAD_DIM / 2].to_bits(), HEAD_GMID, "middle parameter moved");
    assert_eq!(global[HEAD_DIM - 1].to_bits(), HEAD_BLOCKED_GLAST, "last parameter moved");
    assert_eq!(
        param_hash(&global),
        HEAD_BLOCKED_HASH,
        "blocked trajectory diverged from pre-refactor HEAD"
    );
}

#[test]
fn reference_backend_matches_pre_refactor_head_bit_for_bit() {
    let (global, acc) = run_on::<Reference>();
    assert_eq!(global.len(), HEAD_DIM);
    assert_eq!(acc, HEAD_ACC);
    assert_eq!(global[0].to_bits(), HEAD_G0, "first parameter moved");
    assert_eq!(global[HEAD_DIM / 2].to_bits(), HEAD_GMID, "middle parameter moved");
    assert_eq!(global[HEAD_DIM - 1].to_bits(), HEAD_REFERENCE_GLAST, "last parameter moved");
    assert_eq!(
        param_hash(&global),
        HEAD_REFERENCE_HASH,
        "reference trajectory diverged from pre-refactor HEAD"
    );
}

#[test]
fn the_two_pinned_trajectories_really_differ() {
    // Vacuity guard on the pin itself: if the two backends ever collapse
    // to one kernel set, the two captured hashes could both "pass" while
    // testing half of what they claim. The captured constants must stay
    // distinguishable.
    assert_ne!(HEAD_BLOCKED_HASH, HEAD_REFERENCE_HASH);
    assert_ne!(HEAD_BLOCKED_GLAST, HEAD_REFERENCE_GLAST);
}
