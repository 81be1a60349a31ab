//! Quickstart: run LibPreemptible on a heavy-tailed workload and watch
//! preemption crush the tail.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Spins up the default runtime (4 workers + 1 timer core, UINTR
//! preemption) on workload A1 (99.5% of requests take 0.5 us, 0.5%
//! take 500 us), first without preemption, then with a 5 us quantum,
//! and prints both latency profiles.

use libpreemptible::{
    run, FcfsPreempt, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

fn main() {
    let dist = ServiceDist::workload_a1();
    // 75% utilization across 4 worker cores.
    let rate = dist.rate_for_utilization(0.75, 4);
    let spec = || WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist.clone())),
        arrivals: RateSchedule::Constant(rate),
        duration: SimDur::millis(200),
        warmup: SimDur::millis(20),
    };

    println!("workload A1 at {:.0} kRPS on 4 workers\n", rate / 1_000.0);

    let base = run(
        RuntimeConfig {
            mech: PreemptMech::None,
            ..RuntimeConfig::default()
        },
        Box::new(FcfsPreempt::fixed(SimDur::MAX)),
        spec(),
    );
    let preemptive = run(
        RuntimeConfig::default(),
        Box::new(FcfsPreempt::fixed(SimDur::micros(5))),
        spec(),
    );

    for (label, r) in [("no preemption", &base), ("5 us quantum", &preemptive)] {
        assert!(r.is_conserved(), "request accounting must balance");
        println!("{label} ({})", r.system);
        println!("  completions : {}", r.completions);
        println!("  median      : {:>8.1} us", r.median_us());
        println!("  p99         : {:>8.1} us", r.p99_us());
        println!("  p99.9       : {:>8.1} us", r.latency.p999() as f64 / 1e3);
        println!("  preemptions : {}", r.preemptions);
        println!();
    }

    let gain = base.p99_us() / preemptive.p99_us();
    println!("p99 improvement from 5 us preemption: {gain:.1}x");
}
