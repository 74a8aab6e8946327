//! A "production-flavoured" deployment: Dirichlet(0.3) label skew, diurnal
//! client availability, FedCav aggregation with detection, wire-codec
//! round-trip of the updates, the §6 communication accounting — and the
//! faults a real fleet throws at a server: crashes, corrupted uploads and
//! stragglers, handled by quarantine, a round deadline and a quorum.
//!
//! Run with: `cargo run --release --example realistic_deployment`

use fedcav::core::{FedCav, FedCavConfig};
use fedcav::data::{dirichlet_partition, PartitionStats, SyntheticConfig, SyntheticKind};
use fedcav::fl::{
    DiurnalAvailability, FaultPolicy, LocalConfig, LogNormalLatency, RandomFaults, Simulation,
    SimulationConfig,
};
use fedcav::nn::models;
use fedcav::nn::wire::{self, CodecSpec};
use fedcav::trace::{export, CollectingTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = SyntheticConfig::new(SyntheticKind::MnistLike, 40, 10).generate()?;
    let mut rng = StdRng::seed_from_u64(2);
    let part = dirichlet_partition(&train, 12, 0.3, &mut rng);
    let stats = PartitionStats::compute(&part, &train);
    println!(
        "deployment: 12 clients, Dirichlet(0.3) skew\n\
         label entropy {:.2} nats, size Gini {:.2}, {:.1} classes/client",
        stats.mean_label_entropy, stats.size_gini, stats.mean_classes_per_client
    );

    let factory = || {
        let mut rng = StdRng::seed_from_u64(7);
        models::lenet5(&mut rng, 10)
    };

    // Demonstrate the wire codec the clients would use.
    let params = factory().flat_params();
    let frame = CodecSpec::Identity.build(&[]).encode(&params, Some(2.31), &[])?;
    let decoded = wire::decode(&frame, &[])?;
    println!(
        "wire frame: {} params -> {} bytes (loss included: {:?})",
        params.len(),
        frame.len(),
        decoded.inference_loss
    );

    let mut sim = Simulation::new(
        &factory,
        part.client_datasets(&train)?,
        test,
        Box::new(FedCav::new(FedCavConfig::default())),
        SimulationConfig {
            sample_ratio: 0.5,
            local: LocalConfig { epochs: 3, batch_size: 10, lr: 0.05, prox_mu: 0.0 },
            eval_batch: 64,
            seed: 42,
        },
    );
    // Faults: 10% of client-rounds crash, 5% upload NaN/Inf-corrupted
    // parameters, 10% straggle at 8x their modelled latency. The server
    // quarantines corrupted updates, drops anyone past the 20 s deadline,
    // and holds the global model if fewer than 2 valid updates survive.
    sim.set_availability(Box::new(DiurnalAvailability {
        base: 0.6,
        amplitude: 0.35,
        period: 8,
        cohorts: 3,
        seed: 5,
    }))
    .set_latency(Box::new(LogNormalLatency {
        median: 5.0,
        client_sigma: 0.4,
        round_sigma: 0.2,
        seed: 9,
    }))
    .set_fault_model(Box::new(RandomFaults {
        crash_rate: 0.10,
        corrupt_param_rate: 0.05,
        straggler_rate: 0.10,
        straggler_factor: 8.0,
        ..Default::default()
    }))
    .set_fault_policy(FaultPolicy {
        deadline: Some(20.0),
        min_quorum: 2,
        max_param_norm: None,
    });
    println!("client executor: {} (override with FEDCAV_EXECUTOR)", sim.executor());

    // Profile the run: structured span events + op-level kernel counters.
    // Tracing only observes — results are identical with or without it.
    let tracer = Arc::new(CollectingTracer::new());
    sim.set_tracer(tracer.clone());
    fedcav::tensor::counters::enable();

    println!("\nround\tsampled\tdropped\tquarantined\ttimed-out\taccuracy");
    for round in 1..=12 {
        let r = sim.run_round()?;
        let degraded = if r.faults.degraded { "  [DEGRADED: model held]" } else { "" };
        println!(
            "{round}\t{}\t{}\t{}\t{}\t{:.3}{degraded}",
            r.participants,
            r.faults.dropped,
            r.faults.quarantined,
            r.faults.timed_out,
            r.test_accuracy
        );
    }
    let h = sim.history();
    println!(
        "\nfault totals: {} dropped, {} quarantined, {} timed out, degraded rounds {:?}",
        h.total_dropped(),
        h.total_quarantined(),
        h.total_timed_out(),
        h.degraded_rounds()
    );
    let comm = sim.comm_stats();
    println!(
        "traffic over {} rounds ({:.0} s simulated): {:.2} MiB down, {:.2} MiB up",
        comm.rounds,
        sim.sim_time(),
        comm.total_down as f64 / (1024.0 * 1024.0),
        comm.total_up as f64 / (1024.0 * 1024.0)
    );

    println!("\nphase profile (wall time per round):");
    for r in &h.records {
        println!("  round {}\t{}", r.round + 1, r.phases.summary());
    }
    let totals = h.total_phase_timings();
    let (dominant, _) = totals.dominant();
    println!("  totals\t{} — dominant phase: {dominant}", totals.summary());
    println!("kernel work: {}", fedcav::tensor::counters::snapshot().summary());

    let trace_path = std::env::var("FEDCAV_TRACE_OUT")
        .unwrap_or_else(|_| "target/realistic_deployment.trace.jsonl".to_string());
    let events = tracer.take();
    export::write_jsonl(&trace_path, &events)?;
    println!("wrote {} trace events to {trace_path}", events.len());
    Ok(())
}
