//! Footprint gate for a big sparse sharded run: heap allocations and bytes
//! per node, counted by the allocator, so host noise cannot move them.
//!
//! This file is a test binary of its own because it installs a
//! `#[global_allocator]`; keep it to the one test, so nothing else in the
//! process allocates while the run is counted.

use aqs_cluster::{EngineKind, Sim, SimSwitch};
use aqs_core::SyncConfig;
use aqs_net::FabricConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with two statistics: calls that obtained memory
/// and the bytes they asked for. `Relaxed`: the counters publish nothing.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `incast_256k` benchmark workload at a sixteenth of the nodes and one
/// wave: 16 384 nodes on the fat tree, M = 2, unrecorded. One wave keeps the
/// run construction-dominated, which is where the per-node memory goes.
#[test]
fn sparse_sharded_run_stays_within_its_per_node_footprint() {
    const N: u64 = 16_384;
    let spec = aqs_workloads::rpc_incast(N as usize, 24, 1, 64, 2_048, 16_384, 50_000, 42);
    let sim = Sim::new(spec.programs)
        .engine(EngineKind::Sharded)
        .shards(2)
        .switch(SimSwitch::Fabric(FabricConfig::fat_tree()))
        .sync(SyncConfig::fixed_micros(5));
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let report = sim.try_run().expect("the run succeeds");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    assert_eq!(report.messages_received, 2 * 24 * 64);
    let (per_node, bytes_per_node) = (allocations as f64 / N as f64, bytes as f64 / N as f64);
    println!(
        "{allocations} allocations ({per_node:.3}/node), {bytes} bytes ({bytes_per_node:.1}/node)"
    );
    // Measured, debug and release alike (the counts move by a few dozen
    // with how the two workers' packet pools warm up):
    //
    //                                    allocations/node   bytes/node
    //   staged construction, SipHash
    //   maps, lag lanes always (PR 15)   3.507              1410
    //   built in place on the workers    2.136 - 2.140      567 - 571
    //
    // What is left per node: the executor (208 B), 25 B of scheduling
    // lanes, its result record, and two small vectors — the open `KERNEL`
    // region, then its closed record — plus a ready list for each node a
    // request reaches. The bounds are the measured values plus 15 %.
    assert!(per_node <= 2.46, "{per_node:.3} allocations per node");
    assert!(
        bytes_per_node <= 655.0,
        "{bytes_per_node:.1} bytes per node"
    );
}
