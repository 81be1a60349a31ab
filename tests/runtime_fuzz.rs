//! Property-based fuzzing of the full runtime: random configurations,
//! workloads and zoo policies must always conserve requests, stay
//! deterministic, and keep accounting sane.

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::policies::{
    ClassQuantum, Edf, FcfsPreempt, Mlfq, RoundRobin, Srpt, Vruntime,
};
use libpreemptible::sched::SchedPolicy;
use libpreemptible::{
    run, DispatchMode, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use lp_hw::TimeClass;
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FuzzCase {
    workers: usize,
    mech: u8,
    policy: u8,
    quantum_us: u64,
    rho_pct: u64,
    dist: u8,
    pool: usize,
    seed: u64,
    /// 0: per-worker queues, 1: per-worker with stealing, 2: central.
    dispatch: u8,
}

fn case() -> impl Strategy<Value = FuzzCase> {
    (
        1usize..6,
        0u8..5,
        0u8..POLICIES,
        1u64..200,
        5u64..140, // up to 1.4x overload
        0u8..4,
        16usize..512,
        0u64..1_000,
        0u8..3,
    )
        .prop_map(
            |(workers, mech, policy, quantum_us, rho_pct, dist, pool, seed, dispatch)| FuzzCase {
                workers,
                mech,
                policy,
                quantum_us,
                rho_pct,
                dist,
                pool,
                seed,
                dispatch,
            },
        )
}

/// Number of policy choices [`policy`] draws from.
const POLICIES: u8 = 9;

/// The zoo policy `case` draws, with `q` as its base slice. Choice 8,
/// and every `PreemptMech::None` case, is run-to-completion FCFS.
fn policy(case: &FuzzCase, mech: PreemptMech, q: SimDur) -> Box<dyn SchedPolicy> {
    if mech == PreemptMech::None {
        return Box::new(FcfsPreempt::fixed(SimDur::MAX));
    }
    match case.policy {
        0 => Box::new(FcfsPreempt::fixed(q)),
        1 => {
            let mut a = AdaptiveConfig::paper_defaults(1_000_000.0);
            a.period = SimDur::millis(3);
            Box::new(FcfsPreempt::adaptive(QuantumController::new(a, q)))
        }
        2 => Box::new(Mlfq::new(q, 4)),
        3 => Box::new(Edf::new(q, q * 10, SimDur::millis(1))),
        4 => Box::new(Vruntime::new(q)),
        5 => Box::new(Srpt::new(q)),
        6 => Box::new(ClassQuantum { lc_quantum: q, be_quantum: q * 4 }),
        7 => Box::new(RoundRobin::new(q)),
        _ => Box::new(FcfsPreempt::fixed(SimDur::MAX)),
    }
}

fn build(case: &FuzzCase) -> (RuntimeConfig, Box<dyn SchedPolicy>, WorkloadSpec) {
    let mech = match case.mech {
        0 => PreemptMech::Uintr,
        1 => PreemptMech::TimerCoreSignal,
        2 => PreemptMech::KernelTimerSignal,
        3 => PreemptMech::PostedIpi,
        _ => PreemptMech::None,
    };
    let policy = policy(case, mech, SimDur::micros(case.quantum_us));
    let dist = match case.dist {
        0 => ServiceDist::workload_a1(),
        1 => ServiceDist::workload_b(),
        2 => ServiceDist::Constant(SimDur::micros(7)),
        _ => ServiceDist::Lognormal {
            median: SimDur::micros(2),
            sigma: 1.2,
        },
    };
    let rate = dist.rate_for_utilization(case.rho_pct as f64 / 100.0, case.workers);
    let cfg = RuntimeConfig {
        workers: case.workers,
        mech,
        pool_capacity: case.pool,
        work_stealing: case.dispatch == 1,
        dispatch: if case.dispatch == 2 { DispatchMode::Central } else { DispatchMode::PerWorker },
        seed: case.seed,
        control_period: SimDur::millis(3),
        ..RuntimeConfig::default()
    };
    let spec = WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(dist)),
        arrivals: RateSchedule::Constant(rate.max(1_000.0)),
        duration: SimDur::millis(10),
        warmup: SimDur::millis(1),
    };
    (cfg, policy, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any configuration conserves requests and keeps per-worker time
    /// accounting within the wall clock.
    #[test]
    fn conservation_and_accounting(case in case()) {
        let (cfg, policy, spec) = build(&case);
        let duration = spec.duration;
        let run_to_completion =
            cfg.mech == PreemptMech::None || policy.quantum_hint(0) == SimDur::MAX;
        let r = run(cfg, policy, spec);
        prop_assert!(
            r.is_conserved(),
            "{case:?}: {} != {} + {} + {}",
            r.arrivals, r.completions, r.dropped, r.in_flight
        );
        for (i, w) in r.per_worker.iter().enumerate() {
            let total = w.total_charged();
            prop_assert!(
                total <= duration + SimDur::micros(500),
                "{case:?}: worker {i} charged {total} > wall {duration}"
            );
        }
        if r.completions > 0 {
            prop_assert!(r.latency.p99() >= r.latency.median());
            prop_assert!(r.latency.max() >= r.latency.min());
        }
        // Non-preemptive configurations must never preempt.
        if run_to_completion {
            prop_assert_eq!(r.preemptions, 0);
        }
    }

    /// Same case → identical reports; the master seed fully determines
    /// the run.
    #[test]
    fn determinism(case in case()) {
        let (cfg_a, pol_a, spec_a) = build(&case);
        let (cfg_b, pol_b, spec_b) = build(&case);
        let a = run(cfg_a, pol_a, spec_a);
        let b = run(cfg_b, pol_b, spec_b);
        prop_assert_eq!(a.arrivals, b.arrivals);
        prop_assert_eq!(a.completions, b.completions);
        prop_assert_eq!(a.dropped, b.dropped);
        prop_assert_eq!(a.preemptions, b.preemptions);
        prop_assert_eq!(a.spurious_preemptions, b.spurious_preemptions);
        prop_assert_eq!(a.latency.p99(), b.latency.p99());
        prop_assert_eq!(
            a.cores.charged(TimeClass::Work).as_nanos(),
            b.cores.charged(TimeClass::Work).as_nanos()
        );
    }
}
