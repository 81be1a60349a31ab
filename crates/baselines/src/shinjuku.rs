//! The Shinjuku baseline (Kaffes et al., NSDI'19), as characterized in
//! the paper's evaluation.
//!
//! Shinjuku implements centralized preemptive scheduling: a **dedicated
//! dispatcher core** owns a single request queue, hands requests to
//! workers, tracks each worker's elapsed quantum in its polling loop,
//! and preempts overrunning workers with **posted IPIs** through a
//! ring-3-mapped APIC. Preempted requests return to the tail of the
//! central queue (cFCFS).
//!
//! Mechanically this is LibPreemptible's runtime with
//! [`PreemptMech::PostedIpi`] and [`DispatchMode::Central`]: the same
//! scheduling machinery, with the mechanism differences the paper
//! measures carried by the configuration:
//!
//! * preemption delivery is an ordinary IPI (µs-scale, kernel-trampoline
//!   receiver cost) instead of a user interrupt;
//! * every scheduling decision is a dispatcher hand-off, noticed at the
//!   dispatcher's loop granularity and serialized on its core;
//! * the quantum is static — Shinjuku "needs careful profiling to
//!   select the right time quanta" (§V-A), which experiments mirror by
//!   sweeping.

use std::fmt::Write;

use lp_sim::SimDur;

use libpreemptible::policies::FcfsPreempt;
use libpreemptible::report::RunReport;
use libpreemptible::runtime::{run, DispatchMode, PreemptMech, RuntimeConfig, WorkloadSpec};

/// Shinjuku configuration.
#[derive(Debug, Clone)]
pub struct ShinjukuConfig {
    /// Worker cores (the dispatcher core is extra, as in the paper's
    /// "1 network thread, 5 worker threads" setup).
    pub workers: usize,
    /// The static preemption quantum; [`SimDur::MAX`] disables
    /// preemption.
    pub quantum: SimDur,
    /// Master seed.
    pub seed: u64,
    /// Keep the last N typed trace events (0 disables the ring; see
    /// `docs/TRACING.md`).
    pub trace_capacity: usize,
}

impl Default for ShinjukuConfig {
    fn default() -> Self {
        ShinjukuConfig {
            workers: 5,
            quantum: SimDur::micros(5),
            seed: 1,
            trace_capacity: 0,
        }
    }
}

/// Runs Shinjuku on the given workload.
///
/// ```
/// use lp_baselines::shinjuku::{run_shinjuku, ShinjukuConfig};
/// use libpreemptible::{ServiceSource, WorkloadSpec};
/// use lp_sim::SimDur;
/// use lp_workload::{PhasedService, RateSchedule, ServiceDist};
///
/// let report = run_shinjuku(
///     ShinjukuConfig { workers: 2, ..ShinjukuConfig::default() },
///     WorkloadSpec {
///         source: ServiceSource::Phased(PhasedService::constant(ServiceDist::workload_b())),
///         arrivals: RateSchedule::Constant(50_000.0),
///         duration: SimDur::millis(50),
///         warmup: SimDur::millis(5),
///     },
/// );
/// assert!(report.is_conserved());
/// ```
pub fn run_shinjuku(cfg: ShinjukuConfig, spec: WorkloadSpec) -> RunReport {
    let rt = RuntimeConfig {
        workers: cfg.workers,
        mech: PreemptMech::PostedIpi,
        dispatch: DispatchMode::Central,
        // One dispatcher-to-worker hand-off (cacheline transfer).
        dispatch_cost: SimDur::nanos(220),
        // The dispatcher picks; the worker makes no decision.
        pick_cost: SimDur::ZERO,
        // Finite rings: beyond this many requests in flight, arrivals
        // drop.
        pool_capacity: 65_536,
        seed: cfg.seed,
        trace_capacity: cfg.trace_capacity,
        ..RuntimeConfig::default()
    };
    let mut report = run(rt, Box::new(FcfsPreempt::fixed(cfg.quantum)), spec);
    // Relabel in place: the runtime's name buffer is long enough.
    report.system.clear();
    if cfg.quantum == SimDur::MAX {
        report.system.push_str("Shinjuku (no preemption)");
    } else {
        let _ = write!(report.system, "Shinjuku (q={})", cfg.quantum);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use libpreemptible::runtime::ServiceSource;
    use lp_workload::{PhasedService, RateSchedule, ServiceDist};

    fn spec(rate: f64, ms: u64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(dist)),
            arrivals: RateSchedule::Constant(rate),
            duration: SimDur::millis(ms),
            warmup: SimDur::millis(ms / 10),
        }
    }

    #[test]
    fn conserves_and_completes_at_low_load() {
        let r = run_shinjuku(
            ShinjukuConfig::default(),
            spec(100_000.0, 100, ServiceDist::workload_b()),
        );
        assert!(r.is_conserved());
        assert!(r.completions > 8_000);
        assert!(r.median_us() < 20.0, "median {}", r.median_us());
    }

    #[test]
    fn preempts_long_requests() {
        let r = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(10),
                ..ShinjukuConfig::default()
            },
            spec(10_000.0, 50, ServiceDist::Constant(SimDur::micros(100))),
        );
        assert!(r.preemptions > 4 * r.completions, "{r:?}");
        assert!(r.is_conserved());
    }

    #[test]
    fn no_preemption_mode() {
        let r = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::MAX,
                ..ShinjukuConfig::default()
            },
            spec(100_000.0, 50, ServiceDist::workload_b()),
        );
        assert_eq!(r.preemptions, 0);
        assert!(r.is_conserved());
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_shinjuku(
                ShinjukuConfig::default(),
                spec(300_000.0, 50, ServiceDist::workload_a1()),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.latency.p99(), b.latency.p99());
    }

    #[test]
    fn phase_breakdown_sums_to_end_to_end_latency() {
        // Same tail-attribution contract as the runtime: the baseline's
        // event stream must keep every pinned exemplar's phase
        // breakdown summing exactly to its end-to-end latency.
        let r = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(10),
                ..ShinjukuConfig::default()
            },
            spec(10_000.0, 50, ServiceDist::Constant(SimDur::micros(100))),
        );
        assert_eq!(r.phases.end_to_end.count(), r.completions);
        let exemplars = r.phases.exemplars();
        assert!(!exemplars.is_empty(), "no exemplar pinned");
        for ex in &exemplars {
            assert_eq!(
                ex.phase_sum(),
                ex.latency_ns,
                "phase breakdown does not sum to latency: {ex:?}"
            );
        }
        // 100us tasks on a 10us quantum: the worst request visibly
        // pays switch overhead, and trace capture works when asked.
        use lp_sim::obs::Phase;
        let worst = r.worst_exemplar().unwrap();
        assert!(worst.phase(Phase::PreemptSwitch) > 0, "{worst:?}");
        let traced = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(10),
                trace_capacity: 4096,
                ..ShinjukuConfig::default()
            },
            spec(10_000.0, 50, ServiceDist::Constant(SimDur::micros(100))),
        );
        assert!(traced.events.iter().any(|te| te.ev.name() == "task_start"));
        assert!(traced.perfetto_json().contains("\"ph\":\"X\""));
    }

    #[test]
    fn preemption_helps_bimodal_tail_vs_run_to_completion() {
        let dist = ServiceDist::workload_a1();
        let rate = 1_000_000.0; // ~60% of 5 workers' capacity
        let pre = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::micros(5),
                ..ShinjukuConfig::default()
            },
            spec(rate, 200, dist.clone()),
        );
        let non = run_shinjuku(
            ShinjukuConfig {
                quantum: SimDur::MAX,
                ..ShinjukuConfig::default()
            },
            spec(rate, 200, dist),
        );
        assert!(
            pre.p99_us() * 2.0 < non.p99_us(),
            "pre {} vs non {}",
            pre.p99_us(),
            non.p99_us()
        );
    }
}
