//! The benchmark's workloads: what each one simulates and how its
//! inputs are derived from the seed.
//!
//! Arrivals are open-loop Poisson in simulated time over an arrival
//! window, followed by a drain window in which no request arrives, so
//! every admitted request completes before the run ends. Latency is
//! stamped from each request's due arrival time by the simulator, so
//! the generator is never late.

use libpreemptible::adaptive::{AdaptiveConfig, QuantumController};
use libpreemptible::runtime::AdmissionConfig;
use libpreemptible::{
    run, FcfsPreempt, PreemptMech, RunReport, RuntimeConfig, ServiceSource, WorkloadSpec,
};
use lp_baselines::{run_shinjuku, ShinjukuConfig};
use lp_sim::fault::FaultPlan;
use lp_sim::SimDur;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

/// Which simulator a run workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// `libpreemptible::run`: UINTR preemption, adaptive quantum.
    LibPreemptible,
    /// `lp_baselines::run_shinjuku` with its profiled static quantum.
    Shinjuku,
}

/// One run workload's shape (everything but the seed).
#[derive(Debug, Clone)]
pub struct Shape {
    /// Workload name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Simulator.
    pub system: System,
    /// Service-time distribution label (paper §V-A).
    pub service_label: &'static str,
    /// Offered utilization of the worker cores.
    pub rho: f64,
    /// Worker cores.
    pub workers: usize,
    /// Whether the steady fault plan and hardened admission are armed.
    pub faulty: bool,
    /// Arrival window of one measured pass, simulated ms.
    pub arrive_ms: u64,
    /// Drain window after the last arrival, simulated ms.
    pub drain_ms: u64,
}

/// The utilization grid of the max-throughput search.
pub const SWEEP_RHO: [f64; 6] = [0.6, 0.7, 0.8, 0.85, 0.9, 0.95];
/// Arrival window of one max-throughput search point, simulated ms.
pub const SWEEP_ARRIVE_MS: u64 = 100;

/// The three workloads that call a simulator directly.
pub fn run_shapes() -> [Shape; 3] {
    [
        Shape {
            name: "uintr_a1",
            system: System::LibPreemptible,
            service_label: "A1 (99.5% 0.5us / 0.5% 500us)",
            rho: 0.8,
            workers: 4,
            faulty: false,
            arrive_ms: 100,
            drain_ms: 20,
        },
        Shape {
            name: "shinjuku_b",
            system: System::Shinjuku,
            service_label: "B (exponential, mean 5us)",
            rho: 0.8,
            workers: 5,
            faulty: false,
            arrive_ms: 100,
            drain_ms: 20,
        },
        Shape {
            name: "faults_a1",
            system: System::LibPreemptible,
            service_label: "A1 (99.5% 0.5us / 0.5% 500us)",
            rho: 0.8,
            workers: 4,
            faulty: true,
            arrive_ms: 100,
            drain_ms: 20,
        },
    ]
}

/// The steady fault plan of `faults_a1`: about 5% IPI drops, 1% timer
/// spikes, 1% lost signals, and rare 50 µs core hogs.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        ipi_drop: 0.05,
        timer_spike: 0.01,
        signal_lost: 0.01,
        core_hog: 0.000_2,
        core_hog_ns: 50_000,
        ..FaultPlan::default()
    }
}

/// Hardened admission for `faults_a1`: armed, with caps above the
/// backlog this load reaches, so the gate evaluates every dispatch
/// under mechanism pressure but sheds nothing (a shed request would
/// count as a failed operation).
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        queue_cap: 1_024,
        brownout_cap: 256,
        slo_aware: false,
    }
}

impl Shape {
    /// The service-time distribution.
    pub fn service(&self) -> ServiceDist {
        match self.system {
            System::LibPreemptible => ServiceDist::workload_a1(),
            System::Shinjuku => ServiceDist::workload_b(),
        }
    }

    /// The latency limit, ns: 200x the mean service time, the paper's
    /// Fig. 8 criterion with the stable-system average taken as the
    /// mean service time. Goodput counts completions at or below it;
    /// the max-throughput search requires p99 at or below it.
    pub fn limit_ns(&self) -> u64 {
        200 * self.service().mean().as_nanos()
    }

    /// Offered rate at utilization `rho`, requests per simulated second.
    pub fn rate(&self, rho: f64) -> f64 {
        self.service().rate_for_utilization(rho, self.workers)
    }

    /// Runs the workload once at utilization `rho` with an arrival
    /// window of `arrive_ms`, keeping the last `trace_capacity` events.
    pub fn run(&self, seed: u64, rho: f64, arrive_ms: u64, trace_capacity: usize) -> RunReport {
        let arrive = SimDur::millis(arrive_ms);
        let duration = arrive + SimDur::millis(self.drain_ms);
        let spec = WorkloadSpec {
            source: ServiceSource::Phased(PhasedService::constant(self.service())),
            // The drain phase's rate is positive (the generator needs
            // one) but so low that its first gap overshoots the run.
            arrivals: RateSchedule::Phases(vec![(arrive, self.rate(rho)), (SimDur::secs(1), 1e-6)]),
            duration,
            warmup: arrive / 10,
        };
        match self.system {
            System::LibPreemptible => {
                // As the paper's experiments configure it: the
                // controller acts several times within the run.
                let control_period = (duration / 40).max(SimDur::millis(2));
                let mut adaptive = AdaptiveConfig::paper_defaults(self.rate(1.0));
                adaptive.period = control_period;
                let ctl = QuantumController::new(adaptive, SimDur::micros(10));
                let cfg = RuntimeConfig {
                    workers: self.workers,
                    mech: PreemptMech::Uintr,
                    seed,
                    control_period,
                    trace_capacity,
                    faults: if self.faulty {
                        fault_plan()
                    } else {
                        FaultPlan::disabled()
                    },
                    admission: if self.faulty {
                        admission()
                    } else {
                        AdmissionConfig::default()
                    },
                    ..RuntimeConfig::default()
                };
                run(cfg, Box::new(FcfsPreempt::adaptive(ctl)), spec)
            }
            System::Shinjuku => run_shinjuku(
                ShinjukuConfig {
                    workers: self.workers,
                    // The profiled static quantum for workload B.
                    quantum: SimDur::micros(25),
                    seed,
                    trace_capacity,
                    ..ShinjukuConfig::default()
                },
                spec,
            ),
        }
    }

    /// Simulated seconds over which a pass's completions arrived (the
    /// arrival window minus warmup).
    pub fn measured_secs(arrive_ms: u64) -> f64 {
        (arrive_ms - arrive_ms / 10) as f64 / 1_000.0
    }

    /// One line describing the shape, printed with every result.
    pub fn describe(&self) -> String {
        let system = match self.system {
            System::LibPreemptible => "LibPreemptible, UINTR, adaptive quantum (FCFS)",
            System::Shinjuku => "Shinjuku baseline, static 25us quantum",
        };
        let faults = if self.faulty {
            "faults: 5% IPI drop, 1% timer spike, 1% signal loss, 0.02% 50us core hog; admission armed"
        } else {
            "healthy"
        };
        format!(
            "{}: {system}; service {}; rho {}; {} workers; {faults}; latency limit {} us; \
             {} ms arrivals + {} ms drain per pass",
            self.name,
            self.service_label,
            self.rho,
            self.workers,
            self.limit_ns() as f64 / 1e3,
            self.arrive_ms,
            self.drain_ms
        )
    }
}
