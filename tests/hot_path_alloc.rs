//! The runtime's steady state is allocation-free: once a run has warmed
//! up its queues, pools and histograms, simulating longer must not cost
//! more heap allocations. A counting global allocator measures two runs
//! that differ only in simulated duration; the difference must be a
//! small constant, not a per-preemption or per-request cost.
//!
//! The file holds a single test so no concurrent test thread can
//! allocate while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use libpreemptible::{run, FcfsPreempt, RuntimeConfig, ServiceSource, WorkloadSpec};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations of one preemption-heavy run of `ms` simulated
/// milliseconds: 4 workers, exponential service (workload B) at 75%
/// load, UINTR preemption with a 10 us quantum.
fn allocs_for(ms: u64) -> (u64, u64) {
    let dist = ServiceDist::workload_b();
    let rate = dist.rate_for_utilization(0.75, 4);
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rate),
        duration: SimDur::millis(ms),
        warmup: SimDur::millis(5),
    };
    let policy = Box::new(FcfsPreempt::fixed(SimDur::micros(10)));
    let before = ALLOCS.load(Ordering::SeqCst);
    let report = run(RuntimeConfig::default(), policy, spec);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(report.is_conserved());
    (allocs, report.preemptions)
}

#[test]
fn longer_runs_allocate_no_more_than_a_constant() {
    let (short, _) = allocs_for(50);
    let (long, preemptions) = allocs_for(200);
    eprintln!("allocs: 50 ms {short}, 200 ms {long} ({preemptions} preemptions)");
    assert!(preemptions > 1_000, "the probe must be preemption-heavy");
    assert!(
        long <= short + 32,
        "a 200 ms run made {long} heap allocations against {short} for 50 ms: \
         the steady state allocates"
    );
}
