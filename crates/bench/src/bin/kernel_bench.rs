//! `kernel_bench` — measure the tensor kernels under every backend
//! (blocked, reference) and write the `BENCH_kernels.json`
//! trajectory file.
//!
//! Usage: `cargo run -p fedcav-bench --release --bin kernel_bench --
//! [--tiny] [--out PATH]`
//!
//! * `--tiny` — smoke-job shapes (milliseconds, used by CI); default is
//!   the full shape set including the 256×256×256 acceptance shape.
//! * `--out PATH` — where to write the JSON (default
//!   `BENCH_kernels.json` in the current directory).
//!
//! Stdout gets a human-readable TSV summary of the same numbers; the JSON
//! file is the machine-readable artifact EXPERIMENTS.md reads from.

use fedcav_bench::kernelbench;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let reps = if tiny { 3 } else { 7 };

    let report = kernelbench::run_suite(tiny, reps);

    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let _ = writeln!(w, "# kernel_bench: tiny={tiny} reps={reps}");
    let _ = writeln!(w, "kernel\tshape\tbackend\tns_per_op\tgflops\tspeedup");
    for k in &report.kernels {
        let speedup = if k.backend == "blocked" {
            report
                .speedup(k.kernel, &k.shape)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "-".to_string())
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            w,
            "{}\t{}\t{}\t{:.0}\t{:.3}\t{}",
            k.kernel, k.shape, k.backend, k.ns_per_op, k.gflops, speedup
        );
    }
    for e in &report.e2e {
        let _ = writeln!(
            w,
            "e2e_round\t{}_rounds\t{}\t{:.0}\t-\t-",
            e.rounds,
            e.backend,
            e.mean_round_wall_secs * 1e9
        );
    }

    if let Err(err) = std::fs::write(&out_path, report.to_json()) {
        let _ = writeln!(std::io::stderr(), "failed to write {out_path}: {err}");
        std::process::exit(1);
    }
    let _ = writeln!(w, "# wrote {out_path}");
}
