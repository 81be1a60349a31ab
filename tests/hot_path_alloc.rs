//! The runtime's steady state is allocation-free: once a run has warmed
//! up its queues, pools and histograms, simulating longer must not cost
//! more heap allocations. A counting global allocator measures two runs
//! that differ only in simulated duration; the difference must be a
//! small constant, not a per-preemption, per-request or per-control-
//! window cost. Every runtime variant runs with a 2 ms control period,
//! so a 200 ms run rolls the controller's window 75 more times than a
//! 50 ms one; the Shinjuku variant covers central dispatch and posted
//! IPIs.
//!
//! The file holds a single test so no concurrent test thread can
//! allocate while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use libpreemptible::runtime::AdmissionConfig;
use libpreemptible::{
    run, AdaptiveConfig, FcfsPreempt, PreemptMech, QuantumController, RunReport, RuntimeConfig,
    SchedPolicy, ServiceSource, WorkloadSpec,
};
use lp_baselines::{run_shinjuku, ShinjukuConfig};
use lp_sim::fault::FaultPlan;
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

/// 4 workers, exponential service (workload B) at 75% load.
fn dist_and_rate() -> (ServiceDist, f64) {
    let dist = ServiceDist::workload_b();
    let rate = dist.rate_for_utilization(0.75, 4);
    (dist, rate)
}

/// Builds a fresh policy for each run.
type MakePolicy = fn() -> Box<dyn SchedPolicy>;

/// One way to run the workload: the runtime under a configuration and
/// policy, or the Shinjuku baseline.
enum Variant {
    Runtime(Box<RuntimeConfig>, MakePolicy),
    Shinjuku(ShinjukuConfig),
}

fn fixed() -> Box<dyn SchedPolicy> {
    Box::new(FcfsPreempt::fixed(SimDur::micros(10)))
}

fn adaptive() -> Box<dyn SchedPolicy> {
    let max_load = ServiceDist::workload_b().rate_for_utilization(1.0, 4);
    let mut cfg = AdaptiveConfig::paper_defaults(max_load);
    cfg.period = SimDur::millis(2);
    Box::new(FcfsPreempt::adaptive(QuantumController::new(cfg, SimDur::micros(10))))
}

/// Heap allocations and preemptions of one run of `ms` simulated
/// milliseconds of `variant`.
fn allocs_for(ms: u64, variant: &Variant) -> (u64, u64) {
    let (dist, rate) = dist_and_rate();
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rate),
        duration: SimDur::millis(ms),
        warmup: SimDur::millis(5),
    };
    let run_it = || -> RunReport {
        match variant {
            Variant::Runtime(cfg, policy) => run(RuntimeConfig::clone(cfg), policy(), spec),
            Variant::Shinjuku(cfg) => run_shinjuku(cfg.clone(), spec),
        }
    };
    let before = ALLOCS.load(Ordering::SeqCst);
    let report = run_it();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(report.is_conserved());
    (allocs, report.preemptions)
}

#[test]
fn longer_runs_allocate_no_more_than_a_constant() {
    let base = RuntimeConfig { control_period: SimDur::millis(2), ..RuntimeConfig::default() };
    let faults = FaultPlan {
        ipi_drop: 0.05,
        timer_spike: 0.01,
        signal_lost: 0.01,
        core_hog: 0.000_2,
        core_hog_ns: 50_000,
        ..FaultPlan::default()
    };
    let admission = AdmissionConfig { enabled: true, ..AdmissionConfig::default() };
    let shinjuku = ShinjukuConfig {
        workers: 4,
        quantum: SimDur::micros(10),
        ..ShinjukuConfig::default()
    };
    let variants = [
        ("fixed", Variant::Runtime(Box::new(base.clone()), fixed)),
        ("adaptive", Variant::Runtime(Box::new(base.clone()), adaptive)),
        ("faulted", Variant::Runtime(Box::new(RuntimeConfig { faults, ..base.clone() }), fixed)),
        (
            "admission-armed",
            Variant::Runtime(Box::new(RuntimeConfig { admission, ..base.clone() }), fixed),
        ),
        (
            "kernel-timer",
            Variant::Runtime(
                Box::new(RuntimeConfig { mech: PreemptMech::KernelTimerSignal, ..base }),
                fixed,
            ),
        ),
        ("shinjuku", Variant::Shinjuku(shinjuku)),
    ];
    for (name, variant) in &variants {
        let (short, _) = allocs_for(50, variant);
        let (long, preemptions) = allocs_for(200, variant);
        eprintln!("{name}: allocs 50 ms {short}, 200 ms {long} ({preemptions} preemptions)");
        if matches!(*name, "fixed" | "shinjuku") {
            assert!(preemptions > 1_000, "{name}: the probe must be preemption-heavy");
        }
        assert!(
            long <= short + 32,
            "{name}: a 200 ms run made {long} heap allocations against {short} for 50 ms: \
             the steady state allocates"
        );
    }
}
