//! The server side of the benchmark: one trait over the single-stack
//! [`Server`] and the [`ShardedServer`], plus the location providers that
//! answer server probes with the clients' true positions.

use srb_core::{
    CostTracker, LocationProvider, ObjectId, QueryId, QuerySpec, RegisterResponse, SequencedUpdate,
    Server, ServerError, ShardedServer, SyncProvider, UpdateResponse, WorkStats,
};
use srb_geom::{Point, Rect};
use srb_mobility::MobileClient;
use std::sync::Mutex;

/// Answers probes from the clients' trajectories and records who was
/// probed: a probed client stops self-reporting until its new safe region
/// arrives.
pub struct Probe<'a> {
    clients: &'a mut [MobileClient],
    now: f64,
    probed: Vec<u32>,
}

impl<'a> Probe<'a> {
    pub fn new(clients: &'a mut [MobileClient], now: f64) -> Self {
        Probe { clients, now, probed: Vec::new() }
    }

    /// Puts every probed client into the pending state.
    pub fn mark_probed_pending(self) {
        for &p in &self.probed {
            self.clients[p as usize].mark_pending();
        }
    }
}

impl LocationProvider for Probe<'_> {
    fn probe(&mut self, id: ObjectId) -> Point {
        self.probed.push(id.0);
        self.clients[id.index()].position(self.now)
    }
}

/// [`Probe`] for the pipelined batch path, which shares one provider
/// between the coordinator and the shard workers.
struct SharedProbe<'a> {
    inner: Mutex<Probe<'a>>,
}

impl SyncProvider for SharedProbe<'_> {
    fn probe(&self, id: ObjectId) -> Point {
        self.inner.lock().expect("probe lock").probe(id)
    }
}

/// The server calls one monitored run makes.
pub trait Engine {
    fn add_object(
        &mut self,
        id: ObjectId,
        pos: Point,
        p: &mut Probe,
        now: f64,
    ) -> Result<Rect, ServerError>;
    fn register_query(&mut self, spec: QuerySpec, p: &mut Probe, now: f64) -> RegisterResponse;
    fn deregister_query(&mut self, id: QueryId) -> bool;
    /// Hands one tick batch to the server and appends its responses to
    /// `out`; clients probed meanwhile are marked pending.
    fn handle_batch(
        &mut self,
        batch: &[SequencedUpdate],
        clients: &mut [MobileClient],
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    );
    fn process_deferred(&mut self, p: &mut Probe, now: f64) -> Vec<(ObjectId, UpdateResponse)>;
    fn next_deferred_due(&mut self) -> Option<f64>;
    fn results(&self, id: QueryId) -> Option<&[ObjectId]>;
    fn costs(&self) -> CostTracker;
    fn work(&self) -> WorkStats;
    fn index_visits(&self) -> u64;
    fn sync_wal(&mut self);
    fn wal_poisoned(&self) -> bool;
    fn state_digest(&self) -> u64;
}

/// The methods both servers spell identically.
macro_rules! forward_common {
    () => {
        fn add_object(
            &mut self,
            id: ObjectId,
            pos: Point,
            p: &mut Probe,
            now: f64,
        ) -> Result<Rect, ServerError> {
            Self::add_object(self, id, pos, p, now)
        }
        fn register_query(&mut self, spec: QuerySpec, p: &mut Probe, now: f64) -> RegisterResponse {
            Self::register_query(self, spec, p, now)
        }
        fn deregister_query(&mut self, id: QueryId) -> bool {
            Self::deregister_query(self, id)
        }
        fn process_deferred(&mut self, p: &mut Probe, now: f64) -> Vec<(ObjectId, UpdateResponse)> {
            Self::process_deferred(self, p, now)
        }
        fn next_deferred_due(&mut self) -> Option<f64> {
            Self::next_deferred_due(self)
        }
        fn results(&self, id: QueryId) -> Option<&[ObjectId]> {
            Self::results(self, id)
        }
        fn costs(&self) -> CostTracker {
            Self::costs(self)
        }
        fn work(&self) -> WorkStats {
            Self::work(self)
        }
        fn index_visits(&self) -> u64 {
            Self::index_visits(self)
        }
        fn sync_wal(&mut self) {
            Self::sync_wal(self)
        }
        fn wal_poisoned(&self) -> bool {
            Self::wal_poisoned(self)
        }
        fn state_digest(&self) -> u64 {
            Self::state_digest(self)
        }
    };
}

impl Engine for Server {
    forward_common!();

    fn handle_batch(
        &mut self,
        batch: &[SequencedUpdate],
        clients: &mut [MobileClient],
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let mut p = Probe::new(clients, now);
        self.handle_sequenced_updates_into(batch, &mut p, now, out);
        p.mark_probed_pending();
    }
}

impl Engine for ShardedServer {
    forward_common!();

    /// Goes through the pipelined front-end (shard workers plus the
    /// streaming coordinator merge), as the simulator does for shards > 1.
    fn handle_batch(
        &mut self,
        batch: &[SequencedUpdate],
        clients: &mut [MobileClient],
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let shared = SharedProbe { inner: Mutex::new(Probe::new(clients, now)) };
        self.handle_sequenced_updates_parallel_into(batch, &shared, now, out);
        shared.inner.into_inner().expect("probe lock").mark_probed_pending();
    }
}
