//! Backend-conformance property suite (DESIGN.md §12, §16). The std-only
//! property harness in `tests/support` — seeded SplitMix64 generator plus
//! greedy shrinking — checks the contracts every registered
//! [`Backend`] must keep against the `Reference` oracle:
//!
//! (a) matmul conformance: `CpuBlocked` ≍ `Reference` within 1e-5
//!     relative tolerance (they may differ in the last ulp: the reference
//!     kernel skips `a_ik == 0.0` terms, the blocked kernel does not),
//! (b) conv conformance: same oracle, same tolerance, for the forward
//!     pass (fused ReLU included) and all three backward gradients,
//! (c) the im2col scratch-arena conv forward/backward is **bit-for-bit**
//!     identical to the per-call-allocation path, even when the arena is
//!     dirty from previous, differently-shaped calls,
//! (d) every backend is run-to-run bit-identical and
//!     `ScopedThreads(4)` ≍ `Sequential` — the full simulation, faults
//!     and latency active, reusing the vacuity-guard pattern from
//!     `tests/executor_determinism.rs` — and the two backends really
//!     produce two different trajectories (a model built on a backend
//!     type really runs that backend's kernels).
//!
//! The suite must stay green under any process `FEDCAV_BACKEND`: (a) and
//! (b) call the backends' static [`TensorOps`] entry points directly, (c)
//! calls the im2col functions directly, and (d) builds its models on each
//! backend by type.

use fedcav::data::{partition, Dataset, SyntheticConfig, SyntheticKind};
use fedcav::fl::{
    ClientExecutor, FaultPolicy, FedAvg, History, LocalConfig, LogNormalLatency, RandomFaults,
    RoundRecord, Simulation, SimulationConfig,
};
use fedcav::tensor::backend::{Backend, CpuBlocked, Reference, TensorOps};
use fedcav::tensor::conv::Conv2dParams;
use fedcav::tensor::im2col::{
    conv2d_backward_im2col, conv2d_backward_im2col_with, conv2d_forward_im2col,
    conv2d_forward_im2col_with, Im2colScratch,
};
use fedcav::tensor::matmul::{Epilogue, MR, NR};
use fedcav::tensor::{counters, BackendKind, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use support::{check, Gen};

mod support;

/// Conformance tolerance against the `Reference` oracle (relative,
/// floored at scale 1.0 — see `close_within`).
const TOL: f32 = 1e-5;

// ---------------------------------------------------------------- harness

/// This suite's value distribution over the shared [`Gen`].
trait KernelValues {
    /// Uniform f32 in roughly [-1, 1], with an exact-0.0 spike (~12%) so
    /// the reference kernel's zero-skip path is genuinely exercised.
    fn value(&mut self) -> f32;

    fn fill(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.value()).collect()
    }
}

impl KernelValues for Gen {
    fn value(&mut self) -> f32 {
        if self.next_u64() % 8 == 0 {
            return 0.0;
        }
        (self.next_u64() % 2_000_001) as f32 / 1_000_000.0 - 1.0
    }
}

/// Compare a backend's output against the oracle's, element by element,
/// within `tol` relative tolerance (floored at scale 1.0 so tiny outputs
/// compare absolutely).
fn close_within(oracle: &[f32], candidate: &[f32], tol: f32) -> Result<(), String> {
    if oracle.len() != candidate.len() {
        return Err(format!("length {} vs {}", candidate.len(), oracle.len()));
    }
    for (i, (x, y)) in oracle.iter().zip(candidate).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        if (x - y).abs() > tol * scale {
            return Err(format!("element {i}: oracle {x} vs candidate {y} (tol {tol})"));
        }
    }
    Ok(())
}

// ------------------------------------ (a) matmul conformance per backend

#[derive(Clone, Debug)]
struct MatCase {
    m: usize,
    k: usize,
    n: usize,
    epilogue: u8,
    seed: u64,
}

fn mat_cases() -> Vec<MatCase> {
    let mut g = Gen::new(0xFEDCA);
    let mut cases = Vec::new();
    for i in 0..60 {
        cases.push(MatCase {
            m: g.int_in(1, 33),
            k: g.int_in(1, 40),
            n: g.int_in(1, 37),
            epilogue: (g.next_u64() % 4) as u8,
            seed: i,
        });
    }
    // A few larger shapes straddling the MR/NR grid.
    cases.push(MatCase { m: 4 * MR + 1, k: 64, n: 16 * NR + 3, epilogue: 3, seed: 1001 });
    cases.push(MatCase { m: 128, k: 17, n: 130, epilogue: 0, seed: 1002 });
    cases
}

fn shrink_mat(c: &MatCase) -> Vec<MatCase> {
    let mut out = Vec::new();
    for (m, k, n) in [(c.m / 2, c.k, c.n), (c.m, c.k / 2, c.n), (c.m, c.k, c.n / 2)] {
        if m >= 1 && k >= 1 && n >= 1 {
            out.push(MatCase { m, k, n, ..c.clone() });
        }
    }
    if c.epilogue != 0 {
        out.push(MatCase { epilogue: 0, ..c.clone() });
    }
    out
}

/// Run the matmul corpus through backend `B` against the oracle.
fn conform_matmul<B: Backend>() {
    let cases = mat_cases();
    let mut zero_inputs = 0usize;
    for c in &cases {
        let mut g = Gen::new(c.seed);
        zero_inputs += g.fill(c.m * c.k).iter().filter(|v| **v == 0.0).count();
    }
    // Vacuity guard: the zero-skip divergence between the kernels must
    // actually be exercised somewhere in the corpus.
    assert!(zero_inputs > 0, "corpus never produced an exact-zero input");

    check(&format!("{} matmul ≍ reference", B::NAME), &cases, shrink_mat, |c| {
        let mut g = Gen::new(c.seed);
        let a = g.fill(c.m * c.k);
        let b = g.fill(c.k * c.n);
        let bias = g.fill(c.n);
        let ep = |_: ()| match c.epilogue {
            0 => Epilogue::None,
            1 => Epilogue::Relu,
            2 => Epilogue::Bias(&bias),
            _ => Epilogue::BiasRelu(&bias),
        };
        let mut oracle = Vec::new();
        Reference::matmul(&a, &b, c.m, c.k, c.n, ep(()), &mut oracle);
        let mut candidate = Vec::new();
        B::matmul(&a, &b, c.m, c.k, c.n, ep(()), &mut candidate);
        close_within(&oracle, &candidate, TOL)
    });
}

#[test]
fn prop_blocked_matmul_matches_reference_within_tolerance() {
    conform_matmul::<CpuBlocked>();
}

// -------------------------------------- (b) conv conformance per backend

#[derive(Clone, Debug)]
struct ConvCase {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    k: usize,
    stride: usize,
    padding: usize,
    relu: bool,
    seed: u64,
}

impl ConvCase {
    fn params(&self) -> Conv2dParams {
        Conv2dParams { stride: self.stride, padding: self.padding }
    }

    fn valid(&self) -> bool {
        let p = self.params();
        p.out_extent(self.h, self.k).is_some() && p.out_extent(self.w, self.k).is_some()
    }

    fn tensors(&self) -> Result<(Tensor, Tensor, Tensor), String> {
        let mut g = Gen::new(self.seed);
        let input = Tensor::from_vec(
            &[self.n, self.c, self.h, self.w],
            g.fill(self.n * self.c * self.h * self.w),
        )
        .map_err(|e| e.to_string())?;
        let weight = Tensor::from_vec(
            &[self.oc, self.c, self.k, self.k],
            g.fill(self.oc * self.c * self.k * self.k),
        )
        .map_err(|e| e.to_string())?;
        let bias = Tensor::from_vec(&[self.oc], g.fill(self.oc)).map_err(|e| e.to_string())?;
        Ok((input, weight, bias))
    }
}

fn conv_cases() -> Vec<ConvCase> {
    let mut g = Gen::new(0xC0F_FEE);
    let mut cases = Vec::new();
    while cases.len() < 25 {
        let case = ConvCase {
            n: g.int_in(1, 3),
            c: g.int_in(1, 4),
            h: g.int_in(2, 12),
            w: g.int_in(2, 12),
            oc: g.int_in(1, 5),
            k: g.int_in(1, 5),
            stride: g.int_in(1, 2),
            padding: g.int_in(0, 2),
            relu: g.next_u64() % 2 == 0,
            seed: 7000 + cases.len() as u64,
        };
        if case.valid() {
            cases.push(case);
        }
    }
    cases
}

fn shrink_conv(c: &ConvCase) -> Vec<ConvCase> {
    let mut out = Vec::new();
    let halved = [
        ConvCase { n: c.n / 2, ..c.clone() },
        ConvCase { c: c.c / 2, ..c.clone() },
        ConvCase { oc: c.oc / 2, ..c.clone() },
        ConvCase { h: c.h / 2, ..c.clone() },
        ConvCase { w: c.w / 2, ..c.clone() },
        ConvCase { padding: 0, relu: false, ..c.clone() },
    ];
    for cand in halved {
        let dims_ok = cand.n >= 1 && cand.c >= 1 && cand.oc >= 1 && cand.h >= 1 && cand.w >= 1;
        let differs = format!("{cand:?}") != format!("{c:?}");
        if dims_ok && differs && cand.valid() {
            out.push(cand);
        }
    }
    out
}

/// Run the conv corpus through backend `B` against the oracle: forward
/// (fused ReLU included) and all three backward gradients.
fn conform_conv<B: Backend>() {
    check(&format!("{} conv ≍ reference", B::NAME), &conv_cases(), shrink_conv, |c| {
        let (input, weight, bias) = c.tensors()?;
        let params = c.params();
        let mut oracle_scratch = Im2colScratch::new();
        let mut scratch = Im2colScratch::new();

        let oracle =
            Reference::conv2d_forward(&input, &weight, &bias, params, c.relu, &mut oracle_scratch)
                .map_err(|e| e.to_string())?;
        let fwd = B::conv2d_forward(&input, &weight, &bias, params, c.relu, &mut scratch)
            .map_err(|e| e.to_string())?;
        close_within(oracle.as_slice(), fwd.as_slice(), TOL)
            .map_err(|e| format!("forward: {e}"))?;

        let mut g = Gen::new(c.seed ^ 0xD0);
        let d_out =
            Tensor::from_vec(oracle.dims(), g.fill(oracle.numel())).map_err(|e| e.to_string())?;
        let oracle_b =
            Reference::conv2d_backward(&input, &weight, &d_out, params, true, &mut oracle_scratch)
                .map_err(|e| e.to_string())?;
        let bwd = B::conv2d_backward(&input, &weight, &d_out, params, true, &mut scratch)
            .map_err(|e| e.to_string())?;
        for (label, x, y) in [
            ("d_input", &oracle_b.d_input, &bwd.d_input),
            ("d_weight", &oracle_b.d_weight, &bwd.d_weight),
            ("d_bias", &oracle_b.d_bias, &bwd.d_bias),
        ] {
            close_within(x.as_slice(), y.as_slice(), TOL)
                .map_err(|e| format!("backward {label}: {e}"))?;
        }
        Ok(())
    });
}

#[test]
fn prop_blocked_conv_matches_reference_within_tolerance() {
    conform_conv::<CpuBlocked>();
}

// ------------------------------- (c) arena conv ≍ per-call, bit-for-bit

fn bits_differ(a: &Tensor, b: &Tensor) -> Option<String> {
    if a.dims() != b.dims() {
        return Some(format!("dims {:?} vs {:?}", a.dims(), b.dims()));
    }
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Some(format!(
                "element {i}: {x} ({:#x}) vs {y} ({:#x})",
                x.to_bits(),
                y.to_bits()
            ));
        }
    }
    None
}

#[test]
fn prop_arena_conv_is_bit_identical_to_per_call_allocation() {
    // The whole point: ONE arena, dirtied by every previous case (larger
    // and smaller shapes alike), must keep matching fresh allocations.
    let arena = Mutex::new(Im2colScratch::new());
    let cases = conv_cases();
    check("arena conv ≍ fresh conv", &cases, shrink_conv, |c| {
        let (input, weight, bias) = c.tensors()?;
        let params = c.params();
        let mut scratch = arena.lock().unwrap_or_else(|e| e.into_inner());

        let mut fresh =
            conv2d_forward_im2col(&input, &weight, &bias, params).map_err(|e| e.to_string())?;
        if c.relu {
            fresh.map_in_place(|v| v.max(0.0));
        }
        let arena_out =
            conv2d_forward_im2col_with(&input, &weight, &bias, params, c.relu, &mut scratch)
                .map_err(|e| e.to_string())?;
        if let Some(diff) = bits_differ(&fresh, &arena_out) {
            return Err(format!("forward: {diff}"));
        }

        let mut g = Gen::new(c.seed ^ 0xD0);
        let d_out =
            Tensor::from_vec(fresh.dims(), g.fill(fresh.numel())).map_err(|e| e.to_string())?;
        let fresh_b =
            conv2d_backward_im2col(&input, &weight, &d_out, params).map_err(|e| e.to_string())?;
        let arena_b =
            conv2d_backward_im2col_with(&input, &weight, &d_out, params, true, &mut scratch)
                .map_err(|e| e.to_string())?;
        for (label, x, y) in [
            ("d_input", &fresh_b.d_input, &arena_b.d_input),
            ("d_weight", &fresh_b.d_weight, &arena_b.d_weight),
            ("d_bias", &fresh_b.d_bias, &arena_b.d_bias),
        ] {
            if let Some(diff) = bits_differ(x, y) {
                return Err(format!("backward {label}: {diff}"));
            }
        }
        Ok(())
    });
    // Vacuity guard: the arena really was carried (and grown) across cases.
    let scratch = arena.lock().unwrap_or_else(|e| e.into_inner());
    assert!(scratch.capacity_elems() > 0, "arena never grew — cases never ran through it");
}

// ------------- (d) every backend deterministic under ScopedThreads(4)

fn deployment(n_clients: usize) -> (Vec<Dataset>, Dataset, usize) {
    let (train, test) =
        SyntheticConfig::new(SyntheticKind::MnistLike, 12, 2).generate().expect("synthetic data");
    let mut rng = StdRng::seed_from_u64(0);
    let part = partition::iid_balanced(&train, n_clients, &mut rng);
    let img_len = train.image_len();
    (part.client_datasets(&train).expect("partition"), test, img_len)
}

/// One full-featured run (faults, latency, deadline + quorum), with every
/// model on backend `B`.
fn run<B: Backend>(executor: ClientExecutor) -> (Vec<f32>, History) {
    let (clients, test, img_len) = deployment(6);
    let factory = move || {
        let mut rng = StdRng::seed_from_u64(7);
        fedcav::nn::models::mlp_on::<B, _>(&mut rng, img_len, 10)
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
            seed: 91,
        },
    );
    sim.set_executor(executor)
        .set_fault_model(Box::new(RandomFaults {
            crash_rate: 0.15,
            corrupt_param_rate: 0.10,
            corrupt_loss_rate: 0.05,
            straggler_rate: 0.15,
            ..Default::default()
        }))
        .set_latency(Box::new(LogNormalLatency {
            median: 5.0,
            client_sigma: 0.4,
            round_sigma: 0.1,
            seed: 3,
        }))
        .set_fault_policy(FaultPolicy {
            deadline: Some(40.0),
            min_quorum: 1,
            max_param_norm: Some(1e4),
        });
    sim.run(3).expect("run");
    (sim.global().to_vec(), sim.history().clone())
}

/// Phase timings are wall-clock measurement, not simulation — zero them
/// before comparing (same as `tests/executor_determinism.rs`).
fn deterministic_view(history: &History) -> Vec<RoundRecord> {
    history
        .records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.phases = Default::default();
            r
        })
        .collect()
}

/// Backend `B`'s final global: run-to-run and across executors, the
/// globals and round records must be bit-identical.
fn deterministic_on<B: Backend>() -> Vec<f32> {
    let name = B::NAME;
    let (global_a, history_a) = run::<B>(ClientExecutor::ScopedThreads(4));
    let (global_b, history_b) = run::<B>(ClientExecutor::ScopedThreads(4));
    let (global_seq, history_seq) = run::<B>(ClientExecutor::Sequential);

    assert_eq!(global_a, global_b, "{name} kernels varied run-to-run");
    assert_eq!(
        deterministic_view(&history_a),
        deterministic_view(&history_b),
        "{name} round records varied run-to-run"
    );
    assert_eq!(global_a, global_seq, "{name}: ScopedThreads(4) diverged from Sequential");
    assert_eq!(
        deterministic_view(&history_a),
        deterministic_view(&history_seq),
        "{name} round records diverged from Sequential"
    );
    // Fault injection is a function of the seeds alone, so it must
    // fire identically on every backend.
    assert!(
        history_a.records.iter().any(|r| r.faults.total_lost() > 0),
        "{name}: fault injection never fired — comparison is vacuous"
    );
    global_a
}

#[test]
fn prop_every_backend_bit_identical_under_scoped_threads() {
    // Count kernel work so the "kernels ran" claim is not vacuous.
    let before = counters::snapshot();
    counters::enable();
    let blocked = deterministic_on::<CpuBlocked>();
    let reference = deterministic_on::<Reference>();
    counters::disable();
    let work = counters::snapshot().delta(&before);

    assert!(work.matmul_calls > 0, "no matmul ran — kernel determinism untested");
    assert_eq!(BackendKind::ALL.len(), 2, "a new backend needs a run here");
    // Vacuity guard for the backend type itself: two backends, two
    // different trajectories (they differ in the last ulp through the
    // zero-skip path).
    assert_ne!(blocked, reference, "blocked and reference produced identical trajectories");
}
