//! **EXT — kernel scaling trajectory:** GFLOP/s of every tensor backend
//! (blocked, reference) as the matmul problem grows, plus the conv
//! forward/backward pair at LeNet-5 shapes and the end-to-end mean round
//! wall-clock per backend. The table answers "where does the
//! cache-blocked kernel start paying off, and how much of it survives to
//! the round loop" (DESIGN.md §12; `BENCH_kernels.json` is the archived
//! form of the same numbers, written by the `kernel_bench` binary).
//!
//! Run: `cargo bench -p fedcav-bench --bench kernel_scaling`
//! (add `-- --full` for more repetitions and the e2e figure at fast
//! experiment scale).

use fedcav_bench::experiment::Scale;
use fedcav_bench::kernelbench::{
    backend_token, bench_conv, bench_e2e, bench_matmul, e2e_spec, ConvShape, KernelReport,
    MatmulShape,
};
use fedcav_tensor::BackendKind;

fn main() {
    let scale = Scale::from_args();
    let (reps, tiny_e2e) = match scale {
        Scale::Fast => (5, true),
        Scale::Full => (11, false),
    };

    let mut report = KernelReport::default();
    for s in [16usize, 32, 64, 128, 256, 384] {
        report.kernels.extend(bench_matmul(MatmulShape::cube(s), reps));
    }
    for shape in [
        ConvShape { n: 4, c: 1, hw: 28, oc: 6, k: 5 },
        ConvShape { n: 4, c: 6, hw: 12, oc: 16, k: 5 },
    ] {
        report.kernels.extend(bench_conv(shape, reps));
    }

    println!("# kernel_scaling: reps={reps}");
    println!("kernel\tshape\tblocked_gflops\treference_gflops\tspeedup");
    let mut seen: Vec<(&str, String)> = Vec::new();
    for k in &report.kernels {
        let key = (k.kernel, k.shape.clone());
        if seen.contains(&key) {
            continue;
        }
        let row = |backend: &str| {
            report
                .kernels
                .iter()
                .find(|o| o.kernel == k.kernel && o.shape == k.shape && o.backend == backend)
        };
        if let (Some(b), Some(r)) = (row("blocked"), row("reference")) {
            let speedup = report.speedup(k.kernel, &k.shape).unwrap_or(0.0);
            println!("{}\t{}\t{:.3}\t{:.3}\t{:.2}", k.kernel, k.shape, b.gflops, r.gflops, speedup);
        }
        seen.push(key);
    }

    let spec = e2e_spec(tiny_e2e);
    println!("backend\tmean_round_wall_s\trounds");
    for kind in BackendKind::ALL {
        let e = bench_e2e(&spec, kind);
        assert_eq!(e.backend, backend_token(kind));
        println!("{}\t{:.4}\t{}", e.backend, e.mean_round_wall_secs, e.rounds);
    }
}
