//! One monitored run ("episode") of one fleet: set up the server, then
//! drive the SRB protocol through a discrete-event loop that mirrors
//! `srb_sim::run_srb` on the ideal channel with zero delay. Every call into
//! a layer is timed from outside; with tracing on, each is also wrapped in
//! a `bench.*` span so the program's own spans nest under it.

use crate::engine::{Engine, Probe};
use crate::speed::Gauge;
use srb_core::{
    ObjectId, QueryId, QuerySpec, SequencedUpdate, Server, ServerConfig, UpdateResponse,
};
use srb_geom::{Point, Rect};
use srb_mobility::{MobileClient, MobilityConfig, Trajectory};
use srb_sim::{
    check_tick, evaluate_truth, generate_workload, results_match, EventQueue, SimConfig, EXIT_EPS,
};
use std::time::Instant;

/// Opens a benchmark span when tracing; inert (and free) otherwise.
macro_rules! span {
    ($on:expr, $name:literal) => {
        if $on {
            Some(srb_obs::span!($name))
        } else {
            None
        }
    };
}

/// Query churn: every `every` time units, `per_event` live queries are
/// deregistered and replaced by fresh ones.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    pub every: f64,
    pub per_event: usize,
}

/// What one episode runs: the simulator config (shape, seed, channel,
/// durability) plus optional query churn.
#[derive(Clone, Copy, Debug)]
pub struct Fleet {
    pub sim: SimConfig,
    pub churn: Option<Churn>,
}

impl Fleet {
    pub fn server_config(&self) -> ServerConfig {
        let c = &self.sim;
        ServerConfig {
            space: c.space,
            grid_m: c.grid_m,
            max_speed: c.reachability.then(|| c.max_speed()),
            steadiness: c.steadiness,
            cost: c.cost,
            lease: c.lease,
            backend: c.backend,
            durability: c.durable,
        }
    }

    fn churn_events(&self) -> usize {
        self.churn.map_or(0, |ch| (self.sim.duration / ch.every + 1e-9).floor() as usize)
    }
}

/// Deterministic outcome counts of an episode. Every repetition of the
/// same fleet must reproduce them exactly, traced or not. `uplinks` and
/// `probes` cover the whole episode, as the comm cost does, and so does
/// `index_visits`; the other server work counts cover the monitored run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub uplinks: u64,
    pub probes: u64,
    pub matched: u64,
    pub compared: u64,
    pub batches: u64,
    pub batch_reports: u64,
    pub events: u64,
    pub stale_events: u64,
    pub mobility_calls: u64,
    pub samples: u64,
    pub evaluations: u64,
    pub safe_regions: u64,
    pub probes_range: u64,
    pub probes_knn_eval: u64,
    pub probes_radius: u64,
    pub probes_reeval: u64,
    pub probes_neighbor: u64,
    pub index_visits: u64,
}

impl Counts {
    pub fn accuracy(&self) -> f64 {
        if self.compared == 0 {
            1.0
        } else {
            self.matched as f64 / self.compared as f64
        }
    }
}

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    pub counts: Counts,
    /// Times as measured.
    pub raw: Timings,
    /// The same times scaled to the reference host speed (see `speed.rs`);
    /// equal to `raw` when the episode ran without a gauge.
    pub at_ref: Timings,
    /// `register_query` time, setup and churn.
    pub register_s: f64,
    pub deregister_s: f64,
    pub deferred_s: f64,
    /// Operations the server refused or that failed a check.
    pub failed: u64,
    /// Server calls made plus checks run.
    pub attempted: u64,
    /// Durable fleets only: `Server::recover` time and on-disk bytes.
    pub recover_s: f64,
    pub disk_bytes: u64,
    /// Traced episodes only: `(count, sum)` of each of [`INDEX_HISTOGRAMS`]
    /// recorded by ground-truth evaluation, which queries an R*-tree of its
    /// own and must not count as server index work.
    pub truth_index: [(u64, u64); 2],
    /// Traced episodes only: the telemetry recorded during setup and
    /// during the monitored run.
    pub telemetry: Option<Telemetry>,
}

/// The timings the end-to-end metrics are made of.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Server construction + `N` object registrations + `W` query
    /// registrations (+ attaching the WAL when durable).
    pub setup_s: f64,
    /// Wall time of the monitored run, setup and gauge passes excluded.
    pub wall_s: f64,
    /// Time inside server calls during the monitored run.
    pub busy_s: f64,
    /// Service time of each tick batch.
    pub batch_s: Vec<f64>,
}

/// Times an episode both as measured and scaled to the reference host
/// speed, with a gauge pass after every server call. Without a gauge the
/// two agree.
struct Clock<'g> {
    gauge: Option<&'g mut Gauge>,
    /// Start of the current stretch of work.
    since: Instant,
    raw: Timings,
    at_ref: Timings,
}

impl<'g> Clock<'g> {
    fn new(mut gauge: Option<&'g mut Gauge>) -> Self {
        if let Some(g) = gauge.as_deref_mut() {
            g.restart();
        }
        Clock { gauge, since: Instant::now(), raw: Timings::default(), at_ref: Timings::default() }
    }

    /// Ends the current stretch with a gauge pass, which belongs to no
    /// stretch. Returns the stretch's wall time and its scale factor.
    fn lap(&mut self) -> (f64, f64) {
        let wall = self.since.elapsed().as_secs_f64();
        let k = self.gauge.as_deref_mut().map_or(1.0, Gauge::mark);
        self.since = Instant::now();
        (wall, k)
    }

    /// Ends a stretch of the monitored run that made a server call of `dt`
    /// seconds; returns the stretch's scale factor.
    fn server(&mut self, dt: f64) -> f64 {
        let (wall, k) = self.lap();
        self.raw.wall_s += wall;
        self.at_ref.wall_s += wall * k;
        self.raw.busy_s += dt;
        self.at_ref.busy_s += dt * k;
        k
    }
}

/// The object-index visit histograms, shared by the server's index and the
/// ground-truth tree.
pub const INDEX_HISTOGRAMS: [&str; 2] = ["index.search.visits", "index.nn.visits"];

fn index_histograms() -> [(u64, u64); 2] {
    INDEX_HISTOGRAMS.map(|name| {
        let h = srb_obs::registry().histogram(name).snapshot();
        (h.count, h.sum)
    })
}

/// The program's telemetry recorded by a traced episode, per phase.
#[derive(Debug)]
pub struct Telemetry {
    pub setup: srb_obs::Snapshot,
    pub run: srb_obs::Snapshot,
}

enum Ev {
    Exit { id: u32, version: u64 },
    Recv { id: u32, pos: Point, seq: u64 },
    Sr { id: u32, sr: Rect },
    Deferred,
    Sample,
    Churn,
}

/// Runs one episode on a freshly built engine. `build` constructs the
/// server and is timed as part of setup. With a `gauge`, times are also
/// scaled to the reference host speed.
pub fn run<E: Engine>(
    fleet: &Fleet,
    trace: bool,
    gauge: Option<&mut Gauge>,
    build: impl FnOnce() -> E,
) -> Episode {
    let cfg = &fleet.sim;
    assert!(
        cfg.channel.is_ideal() && cfg.delay == 0.0 && cfg.lease.is_none(),
        "monbench models the ideal zero-delay channel without leases only"
    );
    let before = trace.then(|| srb_obs::registry().snapshot());
    let mut ep = Episode::default();
    let mut n = Counts::default();
    let n_obj = cfg.n_objects;
    let w = cfg.n_queries;
    let g = cfg.min_reaction;
    let until = cfg.duration;

    let mob = MobilityConfig {
        space: cfg.space,
        mean_speed: cfg.mean_speed,
        mean_period: cfg.mean_period,
    };
    let mut clients: Vec<MobileClient> = (0..n_obj)
        .map(|i| {
            MobileClient::new(i as u32, Trajectory::random_waypoint(cfg.seed, i as u64, mob, 0.0))
        })
        .collect();
    let mut versions = vec![0u64; n_obj];
    let mut last_update = vec![0.0f64; n_obj];
    // The first `W` specs are the initial queries; churn draws the rest of
    // the same deterministic stream.
    let pool = generate_workload(&SimConfig {
        n_queries: w + fleet.churn_events() * fleet.churn.map_or(0, |c| c.per_event),
        ..*cfg
    });
    let mut live: Vec<(QueryId, QuerySpec)> = Vec::with_capacity(w);

    // --- Setup -------------------------------------------------------------
    let mut clock = Clock::new(gauge);
    let mut server = build();
    for i in 0..n_obj {
        let pos = clients[i].position(0.0);
        let mut p = Probe::new(&mut clients, 0.0);
        ep.attempted += 1;
        match server.add_object(ObjectId(i as u32), pos, &mut p, 0.0) {
            Ok(sr) => {
                clients[i].receive_safe_region(sr, 0.0);
            }
            Err(_) => ep.failed += 1,
        }
    }
    for spec in &pool[..w] {
        let t0 = Instant::now();
        let resp = server.register_query(*spec, &mut Probe::new(&mut clients, 0.0), 0.0);
        ep.register_s += t0.elapsed().as_secs_f64();
        ep.attempted += 1;
        for (oid, sr) in resp.safe_regions {
            clients[oid.index()].receive_safe_region(sr, 0.0);
            versions[oid.index()] += 1;
            n.mobility_calls += 1;
        }
        live.push((resp.id, *spec));
    }
    let (setup_s, k) = clock.lap();
    clock.raw.setup_s = setup_s;
    clock.at_ref.setup_s = setup_s * k;
    // Work counts below are the monitored run's: setup's share is removed.
    let setup_work = server.work();
    let after_setup = trace.then(|| srb_obs::registry().snapshot());
    n.mobility_calls += 2 * n_obj as u64;

    // --- Monitored run -----------------------------------------------------
    clock.since = Instant::now();
    let root = span!(trace, "bench.run");
    let mut q: EventQueue<Ev> = EventQueue::new();
    {
        let _m = span!(trace, "bench.mobility");
        for i in 0..n_obj {
            if let Some(te) = clients[i].next_report(0.0, until) {
                q.push(check_tick(te, g), Ev::Exit { id: i as u32, version: versions[i] });
            }
        }
        n.mobility_calls += n_obj as u64;
    }
    {
        let _q = span!(trace, "bench.queue");
        let mut k = 1u64;
        while k as f64 * cfg.sample_interval <= until + 1e-12 {
            q.push_class(k as f64 * cfg.sample_interval, 1, Ev::Sample);
            k += 1;
        }
        if let Some(ch) = fleet.churn {
            for k in 1..=fleet.churn_events() {
                q.push_class(k as f64 * ch.every, 2, Ev::Churn);
            }
        }
    }
    let due = {
        let _s = span!(trace, "bench.server");
        let t0 = Instant::now();
        let due = server.next_deferred_due();
        clock.server(t0.elapsed().as_secs_f64());
        due
    };
    if let Some(due) = due {
        q.push(due, Ev::Deferred);
    }

    let mut batch: Vec<SequencedUpdate> = Vec::new();
    let mut resps = Vec::new();
    let mut batch_t = 0.0f64;
    let mut next_slot = 0usize;
    let mut next_spec = w;

    // Hands the pending tick batch to the server and delivers the grants.
    macro_rules! flush_batch {
        () => {
            if !batch.is_empty() {
                let due = {
                    let _s = span!(trace, "bench.server");
                    let t0 = Instant::now();
                    server.handle_batch(&batch, &mut clients, batch_t, &mut resps);
                    let dt = t0.elapsed().as_secs_f64();
                    let due = server.next_deferred_due();
                    let k = clock.server(t0.elapsed().as_secs_f64());
                    clock.raw.batch_s.push(dt);
                    clock.at_ref.batch_s.push(dt * k);
                    due
                };
                ep.attempted += 1;
                n.batches += 1;
                n.batch_reports += batch.len() as u64;
                let _q = span!(trace, "bench.queue");
                push_grants(&mut q, batch_t, resps.drain(..), due);
                batch.clear();
            }
        };
    }

    loop {
        let next = {
            let _q = span!(trace, "bench.queue");
            q.pop()
        };
        let Some((t, ev)) = next else { break };
        if t > until + 1e-12 {
            break;
        }
        if !batch.is_empty() && (!matches!(ev, Ev::Recv { .. }) || t > batch_t + 1e-12) {
            flush_batch!();
        }
        n.events += 1;
        match ev {
            Ev::Exit { id, version } => {
                let i = id as usize;
                if versions[i] != version {
                    n.stale_events += 1;
                    continue;
                }
                // With a finite check granularity the client may have dipped
                // out and come back: it reports only if outside now.
                let action = {
                    let _m = span!(trace, "bench.mobility");
                    n.mobility_calls += 3;
                    let pos = clients[i].position(t);
                    if clients[i].safe_region().is_some_and(|sr| sr.contains_point(pos)) {
                        Err(clients[i].next_report(t + EXIT_EPS, until))
                    } else {
                        Ok((pos, clients[i].send_report(pos)))
                    }
                };
                let _q = span!(trace, "bench.queue");
                match action {
                    Ok((pos, seq)) => q.push(t, Ev::Recv { id, pos, seq }),
                    Err(Some(te)) => q.push(check_tick(te, g), Ev::Exit { id, version }),
                    Err(None) => {}
                }
            }
            Ev::Recv { id, pos, seq } => {
                last_update[id as usize] = t;
                batch_t = t;
                batch.push(SequencedUpdate { id: ObjectId(id), pos, seq });
                // Keep buffering only while more reports arrive at this
                // same instant.
                let more = {
                    let _q = span!(trace, "bench.queue");
                    q.peek_time().is_some_and(|nt| nt <= t + 1e-12)
                };
                if !more {
                    flush_batch!();
                }
            }
            Ev::Sr { id, sr } => {
                let i = id as usize;
                versions[i] += 1;
                let next = {
                    let _m = span!(trace, "bench.mobility");
                    n.mobility_calls += 1;
                    if clients[i].receive_safe_region(sr, t) {
                        let from = t.max(last_update[i] + EXIT_EPS);
                        n.mobility_calls += 1;
                        clients[i]
                            .next_report(from, until)
                            .map(|te| check_tick(te, g).max(last_update[i] + EXIT_EPS))
                    } else {
                        // Already outside the region: report again at the
                        // next check tick.
                        versions[i] += 1;
                        Some(check_tick(t + EXIT_EPS, g).max(t))
                    }
                };
                if let Some(at) = next {
                    let _q = span!(trace, "bench.queue");
                    q.push(at, Ev::Exit { id, version: versions[i] });
                }
            }
            Ev::Deferred => {
                let (fired, due) = {
                    let _s = span!(trace, "bench.server");
                    let t0 = Instant::now();
                    let mut fired = Vec::new();
                    if server.next_deferred_due().is_some_and(|d| d <= t + 1e-12) {
                        let mut p = Probe::new(&mut clients, t);
                        fired = server.process_deferred(&mut p, t);
                        p.mark_probed_pending();
                        ep.attempted += 1;
                    }
                    let due = server.next_deferred_due();
                    let dt = t0.elapsed().as_secs_f64();
                    clock.server(dt);
                    ep.deferred_s += dt;
                    (fired, due)
                };
                let _q = span!(trace, "bench.queue");
                push_grants(&mut q, t, fired, due);
            }
            Ev::Sample => {
                let positions: Vec<Point> = {
                    let _m = span!(trace, "bench.mobility");
                    n.mobility_calls += n_obj as u64;
                    clients.iter_mut().map(|c| c.position(t)).collect()
                };
                {
                    let _t = span!(trace, "bench.truth");
                    let specs: Vec<QuerySpec> = live.iter().map(|&(_, s)| s).collect();
                    let before = trace.then(index_histograms);
                    let truth = evaluate_truth(&positions, &specs);
                    if let Some(before) = before {
                        for (acc, (b, a)) in
                            ep.truth_index.iter_mut().zip(before.iter().zip(index_histograms()))
                        {
                            acc.0 += a.0 - b.0;
                            acc.1 += a.1 - b.1;
                        }
                    }
                    for ((qid, spec), want) in live.iter().zip(&truth) {
                        let got: Vec<u64> = server
                            .results(*qid)
                            .map(|r| r.iter().map(|o| o.0 as u64).collect())
                            .unwrap_or_default();
                        n.compared += 1;
                        n.matched += results_match(spec, &got, want) as u64;
                    }
                    n.samples += 1;
                }
                let _m = span!(trace, "bench.mobility");
                n.mobility_calls += n_obj as u64;
                for c in clients.iter_mut() {
                    c.forget_before(t - 1.0);
                }
            }
            Ev::Churn => {
                let ch = fleet.churn.expect("churn scheduled");
                for _ in 0..ch.per_event {
                    let slot = next_slot % w;
                    next_slot += 1;
                    let spec = pool[next_spec];
                    next_spec += 1;
                    let (resp, due) = {
                        let _s = span!(trace, "bench.server");
                        let t0 = Instant::now();
                        let removed = server.deregister_query(live[slot].0);
                        let t1 = Instant::now();
                        let mut p = Probe::new(&mut clients, t);
                        let resp = server.register_query(spec, &mut p, t);
                        p.mark_probed_pending();
                        let t2 = Instant::now();
                        let due = server.next_deferred_due();
                        clock.server(t0.elapsed().as_secs_f64());
                        ep.deregister_s += (t1 - t0).as_secs_f64();
                        ep.register_s += (t2 - t1).as_secs_f64();
                        ep.failed += !removed as u64;
                        (resp, due)
                    };
                    ep.attempted += 2;
                    live[slot] = (resp.id, spec);
                    let _q = span!(trace, "bench.queue");
                    for (oid, sr) in resp.safe_regions {
                        q.push(t, Ev::Sr { id: oid.0, sr });
                    }
                    if let Some(d) = due {
                        q.push(d, Ev::Deferred);
                    }
                }
            }
        }
    }
    flush_batch!();
    {
        // Force group-commit-buffered records to stable storage so the
        // recovery below sees the complete history.
        let _s = span!(trace, "bench.server");
        let t0 = Instant::now();
        server.sync_wal();
        clock.server(t0.elapsed().as_secs_f64());
    }
    drop(root);
    ep.raw = clock.raw;
    ep.at_ref = clock.at_ref;

    let costs = server.costs();
    let work = server.work();
    n.uplinks = costs.source_updates;
    n.probes = costs.probes;
    n.evaluations = work.evaluations - setup_work.evaluations;
    n.safe_regions = work.safe_regions - setup_work.safe_regions;
    n.probes_range = work.probes_range - setup_work.probes_range;
    n.probes_knn_eval = work.probes_knn_eval - setup_work.probes_knn_eval;
    n.probes_radius = work.probes_radius - setup_work.probes_radius;
    n.probes_reeval = work.probes_reeval - setup_work.probes_reeval;
    n.probes_neighbor = work.probes_neighbor - setup_work.probes_neighbor;
    n.index_visits = server.index_visits();
    // An ideal channel delivers every report exactly once to a known
    // object: any drop is a server-side failure.
    ep.failed += work.unknown_object_drops + work.stale_seq_drops;
    if let (Some(before), Some(after_setup)) = (before, after_setup) {
        let run = srb_obs::registry().snapshot().diff(&after_setup);
        ep.telemetry = Some(Telemetry { setup: after_setup.diff(&before), run });
    }
    ep.counts = n;

    if let Some(dir) = cfg.durable.dir {
        ep.attempted += 2;
        ep.failed += server.wal_poisoned() as u64;
        ep.disk_bytes = dir_bytes(std::path::Path::new(dir));
        let t0 = Instant::now();
        let recovered = <Server>::recover(fleet.server_config());
        ep.recover_s = t0.elapsed().as_secs_f64();
        let same = matches!(&recovered, Ok((r, _)) if r.state_digest() == server.state_digest());
        ep.failed += !same as u64;
        if !same {
            eprintln!(
                "[monbench] recovered state differs from the live server (seed {})",
                cfg.seed
            );
        }
    }
    ep
}

/// Schedules the safe-region grants of `resps` at `at`, in response order,
/// then the next deferred-probe check.
fn push_grants(
    q: &mut EventQueue<Ev>,
    at: f64,
    resps: impl IntoIterator<Item = (ObjectId, UpdateResponse)>,
    due: Option<f64>,
) {
    for (oid, resp) in resps {
        q.push(at, Ev::Sr { id: oid.0, sr: resp.safe_region });
        for (other, sr) in resp.probed {
            q.push(at, Ev::Sr { id: other.0, sr });
        }
    }
    if let Some(due) = due {
        q.push(due, Ev::Deferred);
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
