//! Collects the episodes of a run, checks them, and turns them into the
//! named metrics: end-to-end ones from untraced episodes, per-layer ones
//! from traced episodes.

use crate::episode::{Counts, Episode, Fleet, Timings, INDEX_HISTOGRAMS};
use srb_obs::Snapshot;
use srb_sim::RunMetrics;
use std::collections::BTreeMap;
use std::process::ExitCode;

pub struct Run {
    workload: &'static str,
    seed: u64,
    fleets: Vec<Fleet>,
    /// Counts of each fleet's first episode; every later one must match.
    first: Vec<Option<Counts>>,
    /// Untraced and traced episodes, by fleet.
    plain: Vec<Vec<Episode>>,
    traced: Vec<Vec<Episode>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Run {
    pub fn new(workload: &'static str, seed: u64, fleets: &[Fleet]) -> Self {
        Run {
            workload,
            seed,
            fleets: fleets.to_vec(),
            first: vec![None; fleets.len()],
            plain: fleets.iter().map(|_| Vec::new()).collect(),
            traced: fleets.iter().map(|_| Vec::new()).collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one episode of fleet `j`, checking its counts reproduce.
    pub fn add(&mut self, j: usize, ep: Episode) {
        self.attempted += ep.attempted + 1;
        self.failed += ep.failed;
        if ep.failed > 0 {
            self.problems.push(format!("fleet {j}: {} failed operations", ep.failed));
        }
        match self.first[j] {
            None => self.first[j] = Some(ep.counts),
            Some(c) if c != ep.counts => {
                self.failed += 1;
                self.problems.push(format!("fleet {j}: counts differ between repetitions"));
            }
            Some(_) => {}
        }
        if ep.telemetry.is_some() {
            self.traced[j].push(ep);
        } else {
            self.plain[j].push(ep);
        }
    }

    /// The equivalence gate: fleet 0's uplinks, probes, accuracy and comm
    /// cost must equal `run_srb` on the same `SimConfig` bit for bit.
    pub fn check_equivalence(&mut self, reference: &RunMetrics) {
        self.attempted += 1;
        let c = self.first[0].expect("fleet 0 ran");
        let mine = (c.uplinks, c.probes, c.accuracy().to_bits(), self.comm_cost(&[0]).to_bits());
        let sim = (
            reference.uplinks,
            reference.probes,
            reference.accuracy.to_bits(),
            reference.comm_cost.to_bits(),
        );
        if mine != sim {
            self.failed += 1;
            self.problems.push(format!(
                "equivalence gate: monbench (uplinks, probes, accuracy, comm) = ({}, {}, {}, {}) \
                 but run_srb = ({}, {}, {}, {})",
                c.uplinks,
                c.probes,
                c.accuracy(),
                self.comm_cost(&[0]),
                reference.uplinks,
                reference.probes,
                reference.accuracy,
                reference.comm_cost
            ));
        }
    }

    /// `(uplinks·c_l + probes·c_p) / (N·duration)` over the given fleets,
    /// evaluated exactly as `RunMetrics::finish_comm` does for one fleet.
    fn comm_cost(&self, fleets: &[usize]) -> f64 {
        let (mut cost, mut client_time) = (0.0, 0.0);
        for &j in fleets {
            let c = self.first[j].expect("fleet ran");
            let sim = &self.fleets[j].sim;
            cost += c.uplinks as f64 * sim.cost.c_l + c.probes as f64 * sim.cost.c_p;
            client_time += sim.n_objects as f64 * sim.duration;
        }
        cost / client_time
    }

    fn duration(&self) -> f64 {
        self.fleets.iter().map(|f| f.sim.duration).sum()
    }

    /// `f` summed over fleets, each fleet at its median over its episodes:
    /// a burst of machine noise in one episode moves no figure.
    fn fleet_medians(&self, f: impl Fn(&Episode) -> f64) -> f64 {
        self.plain.iter().map(|eps| median(eps.iter().map(&f).collect())).sum()
    }

    /// The end-to-end metrics, with times scaled to the reference host
    /// speed or, unscaled, as measured.
    fn end_to_end(&self, scaled: bool) -> Vec<Metric> {
        let all: Vec<usize> = (0..self.fleets.len()).collect();
        let eps = || self.plain.iter().flatten();
        // Every episode of a fleet replays the same batch schedule, so each
        // batch has one service time per episode: take its median, then the
        // percentiles over batches.
        let mut batches: Vec<f64> = self
            .plain
            .iter()
            .flat_map(|eps| {
                let n = eps[0].raw.batch_s.len();
                (0..n)
                    .map(move |b| median(eps.iter().map(|e| times(e, scaled).batch_s[b]).collect()))
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        let total = |c: fn(&Counts) -> u64| self.first.iter().flatten().map(c).sum::<u64>();
        let busy = self.fleet_medians(|e| times(e, scaled).busy_s);
        vec![
            Metric::new("server_cpu_s_per_tu", "s/tu", busy / self.duration()),
            Metric::new("server_us_per_update", "us", 1e6 * busy / total(|c| c.uplinks) as f64),
            Metric::new("batch_p50_ms", "ms", 1e3 * quantile(&batches, 0.50)),
            Metric::new("batch_p95_ms", "ms", 1e3 * quantile(&batches, 0.95)),
            Metric::new("comm_cost", "msg/client/tu", self.comm_cost(&all)),
            Metric::new(
                "accuracy",
                "fraction",
                total(|c| c.matched) as f64 / total(|c| c.compared) as f64,
            ),
            Metric::new("sim_wall_s", "s", self.fleet_medians(|e| times(e, scaled).wall_s)),
            Metric::new("setup_s", "s", median(eps().map(|e| times(e, scaled).setup_s).collect())),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let eps = || self.traced.iter().flatten();
        let n_eps = eps().count() as f64;
        // Per traced episode (one fleet over its duration), averaged.
        let avg = |f: &dyn Fn(&Episode) -> f64| eps().map(f).sum::<f64>() / n_eps;
        let count = |f: fn(&Counts) -> u64| avg(&|e| f(&e.counts) as f64);
        let span_self = |name: &'static str| avg(&|e| span(tele(e), name).1 as f64 / 1e9);
        let span_total = |name: &'static str| avg(&|e| span(tele(e), name).0 as f64 / 1e9);
        let ctr =
            |name: &'static str| avg(&|e| tele(e).counters.get(name).copied().unwrap_or(0) as f64);
        let hsum = |name: &'static str| avg(&|e| hist(tele(e), name).1 as f64);
        // Mean visits per server index query over setup and run, where the
        // registration searches happen; ground truth's own queries are
        // taken out.
        let index_mean = |k: usize| {
            let (n, s) = eps().fold((0u64, 0u64), |(n, s), e| {
                let t = e.telemetry.as_ref().expect("traced episode");
                let (sn, ss) = hist(&t.setup, INDEX_HISTOGRAMS[k]);
                let (rn, rs) = hist(&t.run, INDEX_HISTOGRAMS[k]);
                let (tn, ts) = e.truth_index[k];
                (n + sn + rn - tn, s + ss + rs - ts)
            });
            if n == 0 {
                0.0
            } else {
                s as f64 / n as f64
            }
        };
        let mut gaps: BTreeMap<u64, u64> = BTreeMap::new();
        for e in eps() {
            if let Some(h) = tele(e).histograms.get("sharded.straggler_gap_ns") {
                for &(lo, n) in &h.buckets {
                    *gaps.entry(lo).or_default() += n;
                }
            }
        }
        let run_total = span_total("bench.run");
        let run_self = span_self("bench.run");
        // Every traced episode has an untraced twin on the same inputs.
        let untraced_wall: f64 = self.plain.iter().map(|r| sum(r, |e| e.raw.wall_s)).sum();
        let traced_wall: f64 = self.traced.iter().map(|r| sum(r, |e| e.raw.wall_s)).sum();
        let updates = count(|c| c.uplinks);
        let events = count(|c| c.events);
        let batches = count(|c| c.batches);
        vec![
            Metric::new("location.self_s", "s", span_self("location.recompute_safe_regions")),
            Metric::new("location.safe_regions", "count", count(|c| c.safe_regions)),
            Metric::new("location.neighbor_probes", "count", count(|c| c.probes_neighbor)),
            Metric::new("processor.reeval_self_s", "s", span_self("processor.reevaluate")),
            Metric::new("processor.eval_new_self_s", "s", span_self("processor.evaluate_new")),
            Metric::new("processor.evaluations", "count", count(|c| c.evaluations)),
            Metric::new("index.visits", "count", count(|c| c.index_visits)),
            Metric::new("index.search_visits_mean", "nodes", index_mean(0)),
            Metric::new("index.nn_visits_mean", "nodes", index_mean(1)),
            // Objects enter the index during setup only.
            Metric::new(
                "index.insert_self_s",
                "s",
                avg(&|e| {
                    let setup = &e.telemetry.as_ref().expect("traced episode").setup;
                    span(setup, "object_index.insert").1 as f64 / 1e9
                }),
            ),
            Metric::new("sharded.pipeline_self_s", "s", span_self("sharded.pipeline")),
            Metric::new("sharded.merge_self_s", "s", span_self("sharded.merge")),
            Metric::new("sharded.worker_busy_s", "s", hsum("sharded.worker_busy_ns") / 1e9),
            Metric::new("sharded.merge_wait_s", "s", hsum("sharded.merge_wait_ns") / 1e9),
            Metric::new("sharded.straggler_gap_p95_us", "us", bucket_quantile(&gaps, 0.95) / 1e3),
            Metric::new("sharded.coordinator_probes", "count", ctr("sharded.coordinator_probes")),
            Metric::new("durable.log_appends", "count", ctr("durable.log.appends")),
            Metric::new("durable.log_syncs", "count", ctr("durable.log.syncs")),
            Metric::new(
                "durable.fsync_s",
                "s",
                (hsum("durable.log.fsync_ns") + hsum("durable.ckpt.fsync_ns")) / 1e9,
            ),
            Metric::new(
                "durable.disk_bytes_per_update",
                "B",
                ratio(avg(&|e| e.disk_bytes as f64), updates),
            ),
            Metric::new("durable.recover_s", "s", avg(&|e| e.recover_s)),
            Metric::new("server.busy_s", "s", avg(&|e| e.raw.busy_s)),
            Metric::new("server.batches", "count", batches),
            Metric::new(
                "server.batch_size_mean",
                "reports",
                ratio(count(|c| c.batch_reports), batches),
            ),
            Metric::new("server.register_s", "s", avg(&|e| e.register_s)),
            Metric::new("server.deregister_s", "s", avg(&|e| e.deregister_s)),
            Metric::new("server.deferred_s", "s", avg(&|e| e.deferred_s)),
            Metric::new("comm.uplinks", "count", updates),
            Metric::new("comm.probes", "count", count(|c| c.probes)),
            Metric::new("comm.probes_range", "count", count(|c| c.probes_range)),
            Metric::new("comm.probes_knn_eval", "count", count(|c| c.probes_knn_eval)),
            Metric::new("comm.probes_radius", "count", count(|c| c.probes_radius)),
            Metric::new("comm.probes_reeval", "count", count(|c| c.probes_reeval)),
            Metric::new("comm.probes_neighbor", "count", count(|c| c.probes_neighbor)),
            Metric::new("mobility.busy_s", "s", span_total("bench.mobility")),
            Metric::new("mobility.calls", "count", count(|c| c.mobility_calls)),
            Metric::new("truth.busy_s", "s", span_total("bench.truth")),
            Metric::new("truth.samples", "count", count(|c| c.samples)),
            Metric::new("sim.events", "count", events),
            Metric::new(
                "sim.stale_event_frac",
                "fraction",
                ratio(count(|c| c.stale_events), events),
            ),
            Metric::new("sim.queue_s", "s", span_total("bench.queue")),
            Metric::new("sim.driver_self_s", "s", run_self),
            Metric::new("trace.coverage", "fraction", ratio(run_total - run_self, run_total)),
            Metric::new("trace.overhead_frac", "fraction", traced_wall / untraced_wall - 1.0),
        ]
    }

    /// Prints the report and the final JSON line; the exit code says
    /// whether every check passed. A failed run prints no numbers.
    pub fn print(&self, trace: bool) -> ExitCode {
        let correct = self.failed == 0;
        let metrics = if !correct {
            for p in &self.problems {
                eprintln!("monbench: FAILED {p}");
            }
            Vec::new()
        } else if trace {
            self.per_layer()
        } else {
            self.end_to_end(true)
        };
        let batches: usize = self.plain.iter().flatten().map(|e| e.raw.batch_s.len()).sum();
        println!(
            "monbench workload={} seed={} trace={} episodes={} fleets={} batch_samples={} cpus={}",
            self.workload,
            self.seed,
            trace as u8,
            self.plain.iter().map(Vec::len).sum::<usize>(),
            self.fleets.len(),
            batches,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for m in &metrics {
            println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        if correct && !trace {
            let speed = |e: &Episode| e.at_ref.busy_s / e.raw.busy_s;
            let speed = median(self.plain.iter().flatten().map(speed).collect());
            println!("as measured (host at {speed:.4} of the reference speed):");
            for m in self.end_to_end(false) {
                println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// An episode's timings, scaled to the reference host speed or as measured.
fn times(e: &Episode, scaled: bool) -> &Timings {
    if scaled {
        &e.at_ref
    } else {
        &e.raw
    }
}

fn sum(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    eps.iter().map(f).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Linear-interpolated quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile of a log2-bucketed histogram, as the lower bound of the
/// bucket holding it.
fn bucket_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    let target = (q * total as f64).ceil() as u64;
    let mut seen = 0;
    for (&lo, &n) in buckets {
        seen += n;
        if seen >= target.max(1) {
            return lo as f64;
        }
    }
    0.0
}

/// Telemetry of a traced episode's monitored run.
fn tele(e: &Episode) -> &Snapshot {
    &e.telemetry.as_ref().expect("traced episode").run
}

/// `(total_ns, self_ns)` of a span in a telemetry diff.
fn span(s: &Snapshot, name: &str) -> (u64, u64) {
    s.spans.get(name).map_or((0, 0), |x| (x.total_ns, x.self_ns))
}

/// `(count, sum)` of a histogram in a telemetry diff.
fn hist(s: &Snapshot, name: &str) -> (u64, u64) {
    s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
