//! Telemetry tour: run a small two-shard SRB simulation with the `srb-obs`
//! layer recording, then read the numbers three ways — a human-oriented
//! table, a machine-oriented JSON snapshot (written to `OBS_snapshot.json`),
//! and a per-sample timeline (`OBS_timeline.jsonl`).
//!
//! ```bash
//! cargo run --release --example telemetry
//! ```

use srb::obs;
use srb::sim::{run_srb, SimConfig};

fn main() {
    let cfg =
        SimConfig { shards: 2, timeline: Some("OBS_timeline.jsonl"), ..SimConfig::test_defaults() };
    println!(
        "running SRB: N={} W={} duration={} shards={}",
        cfg.n_objects, cfg.n_queries, cfg.duration, cfg.shards
    );

    // Baseline snapshot so the report covers exactly this run, even if other
    // code in the process recorded metrics earlier.
    let before = obs::registry().snapshot();
    let metrics = run_srb(&cfg);
    let snap = obs::registry().snapshot().diff(&before);

    println!(
        "\nrun finished: accuracy={:.4}, {} uplinks, {} probes, comm_cost={:.3}",
        metrics.accuracy, metrics.uplinks, metrics.probes, metrics.comm_cost
    );

    // --- 1. Human-oriented table -------------------------------------------
    println!("\n{}", snap.to_table());

    // --- 2. JSON snapshot for tooling --------------------------------------
    let json = snap.to_json();
    match srb_durable::atomic::atomic_write(
        std::path::Path::new("OBS_snapshot.json"),
        format!("{json}\n").as_bytes(),
    ) {
        Ok(()) => println!("wrote OBS_snapshot.json ({} bytes)", json.len()),
        Err(e) => eprintln!("failed to write OBS_snapshot.json: {e}"),
    }

    // --- 3. Timeline: one JSON line per ground-truth sample ----------------
    match std::fs::read_to_string("OBS_timeline.jsonl") {
        Ok(body) => {
            let n = body.lines().count();
            println!("wrote OBS_timeline.jsonl ({n} samples)");
            if let Some(first) = body.lines().next() {
                let preview: String = first.chars().take(120).collect();
                println!("  first line: {preview}...");
            }
        }
        Err(e) => eprintln!("failed to read back OBS_timeline.jsonl: {e}"),
    }

    // Spot-check the acceptance surface: per-layer spans, per-shard batch
    // timings, and the R*-tree visit histogram must all be present.
    for key in ["location.recompute_safe_regions", "sharded.shard0.batch_ns", "index.search.visits"]
    {
        assert!(json.contains(key), "snapshot is missing {key}");
    }
    println!("\nsnapshot covers spans, per-shard batch timings, and index histograms ✓");
}
