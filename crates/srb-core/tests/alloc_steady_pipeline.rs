//! Counting-allocator pin for the pipelined front-end: once capacities
//! have warmed up, a steady-state batch through the 4-shard / 4-worker
//! [`ShardedServer::handle_sequenced_updates_parallel_into`] path performs
//! **zero** heap allocations — across *every* thread, coordinator and
//! shard workers alike — both with a snapshot provider and with a
//! provider that has none.
//!
//! Unlike `alloc_steady.rs` (whose counters are thread-local so parallel
//! test threads cannot pollute a measurement), this pin must observe the
//! worker threads, so its counter is a process-wide atomic. That is why it
//! lives in its own test binary with a single `#[test]`: cargo runs test
//! *binaries* sequentially, so nothing else allocates while the batches
//! are measured.

use srb_core::{
    FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ShardedServer, SyncProvider,
    TableProvider, UpdateResponse,
};
use srb_geom::{Point, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Process-wide allocation count: workers allocate on their own threads,
/// so a thread-local counter would miss exactly the path under test.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; only bumps an atomic
// counter on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const N_OBJECTS: usize = 16;
const WARMUP_BATCHES: u64 = 48;
const MEASURED_BATCHES: u64 = 32;

/// Home position of object `i`: the center of a distinct grid cell
/// (`grid_m = 50` means 0.02-wide cells with centers at `0.01 + 0.02 k`),
/// so the ±0.003 jitter never crosses a cell boundary.
fn home(i: usize) -> Point {
    Point::new(0.01 + 0.02 * (2 * i) as f64, 0.01 + 0.02 * (2 * i + 1) as f64)
}

/// Position of object `i` in batch `b`: alternating jitter around home.
fn pos_at(i: usize, b: u64) -> Point {
    let h = home(i);
    let d = if b & 1 == 0 { 0.003 } else { -0.003 };
    Point::new(h.x + d, h.y - d)
}

fn batch(b: u64) -> Vec<SequencedUpdate> {
    (0..N_OBJECTS)
        .map(|i| SequencedUpdate { id: ObjectId(i as u32), pos: pos_at(i, b), seq: b + 1 })
        .collect()
}

/// A 4-shard / 4-worker server holding every object at home plus `query`.
fn populated(query: QuerySpec) -> ShardedServer {
    let mut server = ShardedServer::new(ServerConfig::default(), 4).with_threads(4);
    let mut provider = FnProvider(|id: ObjectId| home(id.index()));
    for i in 0..N_OBJECTS {
        server.add_object(ObjectId(i as u32), home(i), &mut provider, 0.0).expect("fresh id");
    }
    server.register_query(query, &mut provider, 0.0);
    server
}

/// Warms `server` up, then asserts that each measured batch — answered
/// by `provider_at(b)` — allocates nothing on any thread.
fn assert_steady_batches_allocate_nothing<P: SyncProvider>(
    case: &str,
    server: &mut ShardedServer,
    provider_at: impl Fn(u64) -> P,
) {
    let mut out: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    // Warmup spawns the worker pool, resolves every metric slot, and
    // grows ring-slot buffers, partitions, and response chunks to their
    // steady-state capacities.
    for b in 0..WARMUP_BATCHES {
        out.clear();
        server.handle_sequenced_updates_parallel_into(
            &batch(b),
            &provider_at(b),
            b as f64,
            &mut out,
        );
        assert_eq!(out.len(), N_OBJECTS, "{case}: every updater gets a response");
    }

    let before = allocs();
    for b in WARMUP_BATCHES..WARMUP_BATCHES + MEASURED_BATCHES {
        let updates = batch(b);
        let provider = provider_at(b);
        let baseline = allocs();
        out.clear();
        server.handle_sequenced_updates_parallel_into(&updates, &provider, b as f64, &mut out);
        assert_eq!(allocs(), baseline, "{case}: batch {b} allocated on the steady-state path");
        assert_eq!(out.len(), N_OBJECTS);
    }
    // `batch()` itself allocates the update vector; everything else —
    // submission, worker processing, probes, chunk streaming, merge —
    // must not.
    let extra = allocs() - before - MEASURED_BATCHES;
    assert_eq!(extra, 0, "{case}: steady-state pipelined batch must be allocation-free");
}

/// Both probe paths in one test: the allocation counter is process-wide,
/// so a second test running concurrently would pollute the measurement.
#[test]
fn pipelined_steady_state_batches_do_not_allocate() {
    // A query far from every object: present (so the query plane is
    // exercised) but never affected by the jitter.
    let far = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));

    // A snapshot provider: workers copy the table into their lent
    // buffers and answer probes locally, so the pin also covers the
    // snapshot-circulation path (clear + extend into warmed capacity).
    let positions: Vec<Point> = (0..N_OBJECTS).map(home).collect();
    let mut server = populated(QuerySpec::Range { rect: far });
    assert_steady_batches_allocate_nothing("snapshot", &mut server, |_| TableProvider(&positions));
    drop(server);

    // A provider without a snapshot, like the simulator's: no table is
    // copied, and any probe a shard worker makes takes the ring RPC to the
    // coordinator — the path real traffic takes. The jitter affects no
    // query, so these batches make no probes; a batch that does probe
    // hands the caller `probed` safe regions, which are heap payloads of
    // the response by design.
    let mut server = populated(QuerySpec::Range { rect: far });
    assert_steady_batches_allocate_nothing("ring rpc", &mut server, |b| {
        move |id: ObjectId| pos_at(id.index(), b)
    });
}
