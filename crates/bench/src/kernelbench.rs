//! Kernel benchmark machinery: measured GFLOP/s and ns/op for the tensor
//! hot paths (matmul, conv forward/backward) under every registered
//! backend (`blocked`, `reference`), plus end-to-end mean round
//! wall-clock per backend, serialised to the `BENCH_kernels.json`
//! trajectory file.
//!
//! The JSON is hand-rolled (no serde in the workspace): flat records, no
//! escaping needed because every string is a kernel/backend/shape token.
//! Schema: `{"schema": "...", "kernels": [...], "e2e": [...]}` — see
//! [`KernelReport::to_json`].
//!
//! Measurement style: best-of-`reps` after one warm-up run. Best (not
//! mean) because the quantity of interest is the kernel's cost, and every
//! source of noise on a quiet machine is additive.
//!
//! Per-backend kernels are timed through the static [`TensorOps`] methods
//! of each backend type, so the rows measure exactly what a model generic
//! over that backend would run. The end-to-end figure runs models built on
//! the backend named by [`ExperimentSpec::backend`]. No process-global
//! state is touched.

use crate::experiment::{run_standard, Algo, Dist, ExperimentSpec};
use fedcav_data::SyntheticKind;
use fedcav_fl::{ClientExecutor, LocalConfig};
use fedcav_tensor::backend::{Backend, CpuBlocked, Reference};
use fedcav_tensor::conv::{conv2d_forward, Conv2dParams};
use fedcav_tensor::im2col::Im2colScratch;
use fedcav_tensor::matmul::Epilogue;
use fedcav_tensor::{init, BackendKind, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The stable JSON token for a backend (matches `FEDCAV_BACKEND`
/// spellings and each backend's `NAME`).
pub fn backend_token(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::CpuBlocked => CpuBlocked::NAME,
        BackendKind::Reference => Reference::NAME,
    }
}

/// One timed kernel measurement.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Which kernel: `matmul`, `conv_fwd` or `conv_bwd`.
    pub kernel: &'static str,
    /// Shape token, e.g. `256x256x256` or `n2c4h14w14_oc8k5`.
    pub shape: String,
    /// Backend token: `blocked` or `reference`.
    pub backend: &'static str,
    /// Best observed wall-clock nanoseconds for one invocation.
    pub ns_per_op: f64,
    /// Throughput implied by `ns_per_op` (FLOPs / ns ≡ GFLOP/s).
    pub gflops: f64,
}

/// End-to-end figure: mean wall-clock seconds per federated round under
/// one backend (from [`fedcav_fl::History::mean_round_wall_secs`],
/// i.e. the `PhaseTimings` the round loop records).
#[derive(Debug, Clone)]
pub struct E2eMeasurement {
    /// Backend token: `blocked` or `reference`.
    pub backend: &'static str,
    /// Mean wall-clock seconds per round.
    pub mean_round_wall_secs: f64,
    /// Rounds the mean is over.
    pub rounds: usize,
}

/// Everything `BENCH_kernels.json` carries.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Per-shape kernel timings, one row per (kernel, shape, backend).
    pub kernels: Vec<KernelMeasurement>,
    /// End-to-end round timings per backend.
    pub e2e: Vec<E2eMeasurement>,
}

impl KernelReport {
    /// Serialise to the `BENCH_kernels.json` schema (v2: a `backend`
    /// column replaces v1's two-valued `mode`, and every shape carries a
    /// row per registered backend).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fedcav-kernel-bench-v2\",\n");
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let sep = if i + 1 == self.kernels.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"backend\": \"{}\", \
                 \"ns_per_op\": {:.1}, \"gflops\": {:.4}}}{sep}\n",
                k.kernel, k.shape, k.backend, k.ns_per_op, k.gflops
            ));
        }
        out.push_str("  ],\n  \"e2e\": [\n");
        for (i, e) in self.e2e.iter().enumerate() {
            let sep = if i + 1 == self.e2e.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"backend\": \"{}\", \"mean_round_wall_secs\": {:.6}, \"rounds\": {}}}{sep}\n",
                e.backend, e.mean_round_wall_secs, e.rounds
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Speedup of `fast` over `slow` for a `(kernel, shape)` pair, if
    /// both backends were measured.
    pub fn speedup_of(
        &self,
        kernel: &str,
        shape: &str,
        fast: BackendKind,
        slow: BackendKind,
    ) -> Option<f64> {
        let find = |backend: &str| {
            self.kernels
                .iter()
                .find(|k| k.kernel == kernel && k.shape == shape && k.backend == backend)
                .map(|k| k.ns_per_op)
        };
        let fast_ns = find(backend_token(fast))?;
        let slow_ns = find(backend_token(slow))?;
        Some(slow_ns / fast_ns.max(f64::MIN_POSITIVE))
    }

    /// Blocked-over-reference speedup for a `(kernel, shape)` pair — the
    /// headline acceptance number.
    pub fn speedup(&self, kernel: &str, shape: &str) -> Option<f64> {
        self.speedup_of(kernel, shape, BackendKind::CpuBlocked, BackendKind::Reference)
    }
}

/// Best-of-`reps` wall-clock nanoseconds for `f` (one warm-up call first).
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        let ns = start.elapsed().as_nanos() as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// A matmul problem size `[m,k] × [k,n]`.
#[derive(Debug, Clone, Copy)]
pub struct MatmulShape {
    /// Rows of the left operand.
    pub m: usize,
    /// Shared (inner) dimension.
    pub k: usize,
    /// Columns of the right operand.
    pub n: usize,
}

impl MatmulShape {
    /// Cubic shape `s×s×s`.
    pub fn cube(s: usize) -> MatmulShape {
        MatmulShape { m: s, k: s, n: s }
    }

    fn token(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }

    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// Time one backend's matmul on one shape through its static
/// [`TensorOps`] entry point (`Epilogue::None`).
fn time_matmul<B: Backend>(
    shape: MatmulShape,
    reps: usize,
    a: &Tensor,
    b: &Tensor,
) -> KernelMeasurement {
    let mut out = Vec::new();
    let ns = time_best(reps, || {
        B::matmul(a.as_slice(), b.as_slice(), shape.m, shape.k, shape.n, Epilogue::None, &mut out);
    });
    KernelMeasurement {
        kernel: "matmul",
        shape: shape.token(),
        backend: B::NAME,
        ns_per_op: ns,
        gflops: shape.flops() / ns,
    }
}

/// Time every backend's matmul on one shape.
pub fn bench_matmul(shape: MatmulShape, reps: usize) -> Vec<KernelMeasurement> {
    let mut rng = StdRng::seed_from_u64(0x3A7);
    let a = init::uniform(&mut rng, &[shape.m, shape.k], -1.0, 1.0);
    let b = init::uniform(&mut rng, &[shape.k, shape.n], -1.0, 1.0);
    vec![
        time_matmul::<CpuBlocked>(shape, reps, &a, &b),
        time_matmul::<Reference>(shape, reps, &a, &b),
    ]
}

/// A convolution problem size (square spatial extent, square kernel).
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input spatial extent (height = width).
    pub hw: usize,
    /// Output channels.
    pub oc: usize,
    /// Kernel extent (height = width).
    pub k: usize,
}

impl ConvShape {
    fn token(&self) -> String {
        format!("n{}c{}h{}w{}_oc{}k{}", self.n, self.c, self.hw, self.hw, self.oc, self.k)
    }

    /// Forward MAC-lattice FLOPs (stride 1, no padding).
    fn fwd_flops(&self) -> f64 {
        let o = (self.hw - self.k + 1) as f64;
        2.0 * self.n as f64 * self.oc as f64 * o * o * self.c as f64 * (self.k * self.k) as f64
    }
}

/// Time one backend's conv forward + backward on one shape through its
/// static [`TensorOps`] entry points — the exact code path a
/// `fedcav_nn::Conv2d<B>` layer runs.
fn time_conv<B: Backend>(
    shape: ConvShape,
    reps: usize,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    d_out: &Tensor,
) -> Vec<KernelMeasurement> {
    let params = Conv2dParams::default();
    let mut scratch = Im2colScratch::new();
    let fwd = time_best(reps, || {
        B::conv2d_forward(input, weight, bias, params, false, &mut scratch).expect("conv fwd");
    });
    let bwd = time_best(reps, || {
        B::conv2d_backward(input, weight, d_out, params, true, &mut scratch).expect("conv bwd");
    });
    let fwd_flops = shape.fwd_flops();
    // The backward pass walks the MAC lattice twice (d_input + d_weight),
    // same accounting as `fedcav_tensor::counters`.
    let bwd_flops = 2.0 * fwd_flops;
    let meas = |kernel: &'static str, ns: f64, flops: f64| KernelMeasurement {
        kernel,
        shape: shape.token(),
        backend: B::NAME,
        ns_per_op: ns,
        gflops: flops / ns,
    };
    vec![meas("conv_fwd", fwd, fwd_flops), meas("conv_bwd", bwd, bwd_flops)]
}

/// Time every backend's conv forward + backward on one shape: `blocked`
/// runs the scratch-arena im2col lowering, `reference` the direct
/// convolution — exactly the paths `fedcav_nn::Conv2d<B>` dispatches to.
pub fn bench_conv(shape: ConvShape, reps: usize) -> Vec<KernelMeasurement> {
    let mut rng = StdRng::seed_from_u64(0xC0CA ^ 0x5A5A);
    let input = init::uniform(&mut rng, &[shape.n, shape.c, shape.hw, shape.hw], -1.0, 1.0);
    let weight = init::uniform(&mut rng, &[shape.oc, shape.c, shape.k, shape.k], -0.5, 0.5);
    let bias = Tensor::zeros(&[shape.oc]);
    let d_out =
        conv2d_forward(&input, &weight, &bias, Conv2dParams::default()).expect("conv shape");

    let mut out = time_conv::<CpuBlocked>(shape, reps, &input, &weight, &bias, &d_out);
    out.extend(time_conv::<Reference>(shape, reps, &input, &weight, &bias, &d_out));
    out
}

/// The spec the end-to-end figure runs: LeNet-5 on MNIST-like data, small
/// enough for a bench smoke job when `tiny`.
pub fn e2e_spec(tiny: bool) -> ExperimentSpec {
    if tiny {
        ExperimentSpec {
            kind: SyntheticKind::MnistLike,
            n_clients: 4,
            train_per_class: 6,
            test_per_class: 2,
            rounds: 2,
            sample_ratio: 0.5,
            local: LocalConfig { epochs: 1, batch_size: 8, lr: 0.05, prox_mu: 0.0 },
            seed: 7,
            noise_override: None,
            executor: ClientExecutor::Sequential,
            backend: BackendKind::CpuBlocked,
            codec: fedcav_fl::CodecSpec::Identity,
        }
    } else {
        ExperimentSpec::fast(SyntheticKind::MnistLike, 3)
    }
}

/// Mean round wall-seconds of one standard FedCav run with its models
/// built on `backend`.
pub fn bench_e2e(spec: &ExperimentSpec, backend: BackendKind) -> E2eMeasurement {
    let spec = ExperimentSpec { backend, ..*spec };
    let history = run_standard(&spec, Dist::NonIidBalanced, Algo::FedCav).expect("e2e run");
    E2eMeasurement {
        backend: backend_token(backend),
        mean_round_wall_secs: history.mean_round_wall_secs().unwrap_or(0.0),
        rounds: history.len(),
    }
}

/// The standard shape sets. `tiny` keeps a CI smoke job in milliseconds;
/// the default set includes the 256×256×256 acceptance shape.
pub fn standard_shapes(tiny: bool) -> (Vec<MatmulShape>, Vec<ConvShape>) {
    if tiny {
        (
            vec![MatmulShape::cube(32), MatmulShape { m: 24, k: 48, n: 16 }],
            vec![ConvShape { n: 1, c: 2, hw: 8, oc: 4, k: 3 }],
        )
    } else {
        (
            vec![
                MatmulShape::cube(64),
                MatmulShape::cube(128),
                MatmulShape::cube(256),
                MatmulShape { m: 512, k: 128, n: 64 },
            ],
            vec![
                ConvShape { n: 4, c: 1, hw: 28, oc: 6, k: 5 },
                ConvShape { n: 4, c: 6, hw: 12, oc: 16, k: 5 },
            ],
        )
    }
}

/// Run the full suite and assemble the report: every shape × every
/// backend, then one end-to-end run per backend.
pub fn run_suite(tiny: bool, reps: usize) -> KernelReport {
    let (mat_shapes, conv_shapes) = standard_shapes(tiny);
    let mut report = KernelReport::default();
    for s in mat_shapes {
        report.kernels.extend(bench_matmul(s, reps));
    }
    for s in conv_shapes {
        report.kernels.extend(bench_conv(s, reps));
    }
    let spec = e2e_spec(tiny);
    for kind in BackendKind::ALL {
        report.e2e.push(bench_e2e(&spec, kind));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let report = KernelReport {
            kernels: vec![
                KernelMeasurement {
                    kernel: "matmul",
                    shape: "8x8x8".into(),
                    backend: "blocked",
                    ns_per_op: 100.0,
                    gflops: 10.24,
                },
                KernelMeasurement {
                    kernel: "matmul",
                    shape: "8x8x8".into(),
                    backend: "reference",
                    ns_per_op: 400.0,
                    gflops: 2.56,
                },
            ],
            e2e: vec![E2eMeasurement { backend: "blocked", mean_round_wall_secs: 0.25, rounds: 3 }],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"schema\": \"fedcav-kernel-bench-v2\""));
        assert!(json.contains("\"shape\": \"8x8x8\""));
        assert!(json.contains("\"backend\": \"blocked\""));
        assert!(json.contains("\"mean_round_wall_secs\": 0.250000"));
        // No trailing commas (the classic hand-rolled-JSON bug).
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n  ]}"));
        assert_eq!(report.speedup("matmul", "8x8x8"), Some(4.0));
        assert_eq!(report.speedup("matmul", "9x9x9"), None);
        assert_eq!(
            report.speedup_of("matmul", "8x8x8", BackendKind::Reference, BackendKind::CpuBlocked),
            Some(0.25)
        );
    }

    #[test]
    fn tiny_suite_measures_every_backend_per_shape() {
        let report = run_suite(true, 1);
        assert!(!report.kernels.is_empty());
        for k in &report.kernels {
            assert!(k.ns_per_op > 0.0, "{k:?}");
            assert!(k.gflops > 0.0, "{k:?}");
            for kind in BackendKind::ALL {
                let token = backend_token(kind);
                assert!(
                    report
                        .kernels
                        .iter()
                        .any(|o| o.kernel == k.kernel && o.shape == k.shape && o.backend == token),
                    "missing {token} row for {k:?}"
                );
            }
        }
        assert_eq!(report.e2e.len(), BackendKind::ALL.len());
        for kind in BackendKind::ALL {
            let token = backend_token(kind);
            let e = report.e2e.iter().find(|e| e.backend == token);
            let e = e.unwrap_or_else(|| panic!("missing e2e row for {token}"));
            assert!(e.mean_round_wall_secs > 0.0);
            assert_eq!(e.rounds, 2);
        }
    }
}
