//! `monbench` — the end-to-end SRB monitoring benchmark.
//!
//! ```text
//! cargo run --release --manifest-path monbench/Cargo.toml -- \
//!     --workload paper|sharded|durable_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the paper's monitoring loop (random-waypoint fleet, half range and
//! half kNN queries) from the crates' public APIs in one single-threaded
//! closed loop, checks the outputs, and prints every metric by name and
//! unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See `README.md`.

mod engine;
mod episode;
mod report;
mod speed;

use episode::{Churn, Episode, Fleet};
use srb_core::{BackendConfig, DurabilityConfig, Server, ShardedServer};
use srb_sim::SimConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark workload: the fleet shape and the server it runs on.
struct Workload {
    name: &'static str,
    n_objects: usize,
    n_queries: usize,
    /// Client check granularity (tick-batch spacing).
    granularity: f64,
    /// Simulated time units per fleet episode.
    duration: f64,
    /// Independent fleets (derived seeds) per pass; their sum is one
    /// measurement, which averages out the query placement of one seed.
    fleets: usize,
    shards: usize,
    threads: usize,
    durable: bool,
    churn: Option<Churn>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper",
        n_objects: 8_000,
        n_queries: 80,
        granularity: 0.05,
        duration: 1.0,
        fleets: 36,
        shards: 1,
        threads: 1,
        durable: false,
        churn: None,
    },
    Workload {
        name: "sharded",
        n_objects: 8_000,
        n_queries: 80,
        granularity: 0.05,
        duration: 1.0,
        fleets: 36,
        shards: 4,
        threads: 2,
        durable: false,
        churn: None,
    },
    Workload {
        name: "durable_churn",
        n_objects: 4_000,
        n_queries: 40,
        granularity: 0.01,
        duration: 1.0,
        fleets: 48,
        shards: 1,
        threads: 1,
        durable: true,
        churn: Some(Churn { every: 0.1, per_event: 2 }),
    },
];

/// Where durable fleets keep their stores, relative to the working
/// directory; emptied as the run goes.
const WAL_ROOT: &str = ".bench_wal";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The fleets of one run: fleet `j` uses simulator seed `seed + j·2³²`, so
/// fleet 0 is exactly `run_srb` at `--seed`.
fn fleets(w: &Workload, seed: u64) -> Vec<Fleet> {
    (0..w.fleets as u64)
        .map(|j| Fleet {
            sim: SimConfig {
                n_objects: w.n_objects,
                n_queries: w.n_queries,
                duration: w.duration,
                min_reaction: w.granularity,
                seed: seed.wrapping_add(j << 32),
                shards: w.shards,
                // Pinned rather than read from the environment.
                backend: BackendConfig::default(),
                durable: DurabilityConfig::default(),
                timeline: None,
                ..SimConfig::paper_defaults()
            },
            churn: w.churn,
        })
        .collect()
}

/// Runs one episode of `fleet` on the workload's server. A durable fleet
/// gets a fresh store directory, removed afterwards.
fn run_fleet(
    w: &Workload,
    fleet: &Fleet,
    tag: &str,
    trace: bool,
    gauge: Option<&mut speed::Gauge>,
) -> Episode {
    let mut fleet = *fleet;
    let mut dir = None;
    if w.durable {
        let path = PathBuf::from(WAL_ROOT).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let s: &'static str = Box::leak(path.to_string_lossy().into_owned().into_boxed_str());
        fleet.sim.durable = DurabilityConfig { dir: Some(s), ..DurabilityConfig::default() };
        dir = Some(path);
    }
    let config = fleet.server_config();
    let ep = if w.shards == 1 {
        episode::run(&fleet, trace, gauge, || Server::new(config))
    } else {
        episode::run(&fleet, trace, gauge, || {
            ShardedServer::new(config, w.shards).with_threads(w.threads)
        })
    };
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    ep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("monbench: {e}");
            eprintln!("usage: monbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let fleets = fleets(w, args.seed);
    let mut run = report::Run::new(w.name, args.seed, &fleets);

    // Equivalence gate, which also warms the process up: fleet 0 through
    // the simulator's own `run_srb`, which can express every workload
    // without query churn. Its counts are compared with monbench's at the
    // end.
    let reference = w.churn.is_none().then(|| srb_sim::run_srb(&fleets[0].sim));

    // Untraced episodes are timed against the host-speed gauge too; the
    // traced pairs are compared with each other only.
    let mut gauge = speed::Gauge::new();

    // Closed loop: passes over every fleet, each batch handed over only
    // after the previous one returned. An untraced run always completes its
    // first pass, a traced one its first pair; then fleets keep cycling
    // while another episode fits into the time budget.
    let start = Instant::now();
    let required = if args.trace { 1 } else { fleets.len() };
    for step in 0usize.. {
        let spent = start.elapsed().as_secs_f64();
        if step >= required && spent + spent / step as f64 > args.seconds {
            break;
        }
        let j = step % fleets.len();
        let fleet = &fleets[j];
        if args.trace {
            // Pair each traced episode with an untraced twin on the same
            // inputs: the difference is the tracing overhead.
            run.add(j, run_fleet(w, fleet, &format!("{step}-u"), false, None));
            run.add(j, run_fleet(w, fleet, &format!("{step}-t"), true, None));
        } else {
            run.add(j, run_fleet(w, fleet, &step.to_string(), false, Some(&mut gauge)));
        }
    }
    let _ = std::fs::remove_dir(WAL_ROOT);

    if let Some(reference) = reference {
        run.check_equivalence(&reference);
    }
    run.print(args.trace)
}
