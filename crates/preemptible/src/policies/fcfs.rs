//! Preemptive FCFS (the paper's cFCFS-P, its headline policy): new
//! requests run before preempted ones and parked work resumes
//! oldest-first, under either a fixed slice or the slice Algorithm 1
//! re-derives every control window.

use lp_sim::obs::Observer;
use lp_sim::{SimDur, SimTime};
use lp_stats::WindowSummary;

use crate::adaptive::QuantumController;
use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Where the time quantum comes from.
#[derive(Debug, Clone)]
pub enum QuantumSource {
    /// A fixed quantum; [`SimDur::MAX`] disables preemption.
    Fixed(SimDur),
    /// Algorithm 1's adaptive controller.
    Adaptive(QuantumController),
}

impl QuantumSource {
    /// The current quantum.
    pub fn quantum(&self) -> SimDur {
        match self {
            QuantumSource::Fixed(q) => *q,
            QuantumSource::Adaptive(c) => c.quantum(),
        }
    }

    /// Feeds a control-window summary to the adaptive controller, which
    /// emits `quantum_adjusted` through `obs` when the quantum moves.
    /// A no-op for fixed quanta.
    pub fn on_window(&mut self, s: &WindowSummary, at: SimTime, obs: &mut Observer) {
        if let QuantumSource::Adaptive(c) = self {
            c.update(s, at, obs);
        }
    }
}

/// Preemptive first-come-first-served.
///
/// New requests take priority: under bursty arrivals this keeps the
/// dispatcher queue short, while the slice bounds how long a long
/// request can block it. Preempted requests resume only when no new
/// request waits, receiving quantum-at-a-time service. With
/// `fixed(SimDur::MAX)` nothing is ever preempted: that is
/// run-to-completion FCFS, the `LC-Base` baseline of Fig. 13 and the
/// "0 us time quantum" point of Fig. 2.
#[derive(Debug, Clone)]
pub struct FcfsPreempt {
    quantum: QuantumSource,
}

impl FcfsPreempt {
    /// With a fixed quantum.
    pub fn fixed(quantum: SimDur) -> Self {
        FcfsPreempt {
            quantum: QuantumSource::Fixed(quantum),
        }
    }

    /// With Algorithm 1's adaptive quantum.
    pub fn adaptive(controller: QuantumController) -> Self {
        FcfsPreempt {
            quantum: QuantumSource::Adaptive(controller),
        }
    }
}

impl SchedPolicy for FcfsPreempt {
    fn name(&self) -> &'static str {
        match self.quantum {
            QuantumSource::Fixed(_) => "fifo",
            QuantumSource::Adaptive(_) => "adaptive-quantum",
        }
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        Dispatch::new_first(ctx, ResumeSel::Fifo)
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.quantum.quantum()
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.quantum.quantum()
    }

    fn on_window(&mut self, summary: &WindowSummary, at: SimTime, obs: &mut Observer) {
        self.quantum.on_window(summary, at, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;

    fn ctx<'a>(runnable: usize, parked: usize, obs: &'a mut Observer) -> SchedCtx<'a> {
        SchedCtx {
            now: SimTime::ZERO,
            queue_depths: &[],
            runnable,
            parked,
            window: None,
            obs,
        }
    }

    #[test]
    fn prefers_new_then_parked_fifo_then_idles() {
        let mut obs = Observer::counters_only();
        let mut p = FcfsPreempt::fixed(SimDur::micros(10));
        assert_eq!(p.dispatch(0, &mut ctx(2, 5, &mut obs)), Dispatch::New);
        assert_eq!(
            p.dispatch(0, &mut ctx(0, 5, &mut obs)),
            Dispatch::Parked(ResumeSel::Fifo)
        );
        assert_eq!(p.dispatch(0, &mut ctx(0, 0, &mut obs)), Dispatch::Idle);
    }

    #[test]
    fn fixed_slice_is_the_same_for_every_task_and_class() {
        let mut obs = Observer::counters_only();
        let mut p = FcfsPreempt::fixed(SimDur::micros(7));
        let mut t = TaskView {
            request: 1,
            fiber: 0,
            arrived: SimTime::ZERO,
            remaining: SimDur::micros(500),
            total: SimDur::micros(500),
            preemptions: 3,
            class: 0,
        };
        assert_eq!(p.time_slice(&t, &mut ctx(0, 0, &mut obs)), SimDur::micros(7));
        t.class = 1;
        assert_eq!(p.time_slice(&t, &mut ctx(0, 0, &mut obs)), SimDur::micros(7));
        assert_eq!(p.quantum_hint(0), SimDur::micros(7));
        assert_eq!(p.name(), "fifo");
        assert_eq!(FcfsPreempt::fixed(SimDur::MAX).quantum_hint(0), SimDur::MAX);
    }

    #[test]
    fn adaptive_slice_tracks_the_controller() {
        let ctl = QuantumController::new(
            AdaptiveConfig::paper_defaults(100_000.0),
            SimDur::micros(30),
        );
        let mut p = FcfsPreempt::adaptive(ctl);
        assert_eq!(p.quantum_hint(0), SimDur::micros(30));
        assert_eq!(p.name(), "adaptive-quantum");
        // A heavy-tailed, overloaded window shrinks it.
        let mut obs = Observer::counters_only();
        let summary = WindowSummary {
            load_rps: 95_000.0,
            throughput_rps: 90_000.0,
            median_ns: 1_000,
            p99_ns: 500_000,
            mean_qlen: 10.0,
            completed: 1,
            arrived: 1,
            service_scv: 140.0,
        };
        p.on_window(&summary, SimTime::ZERO, &mut obs);
        assert!(p.quantum_hint(0) < SimDur::micros(30));
        // A fixed quantum ignores windows.
        let mut fixed = FcfsPreempt::fixed(SimDur::micros(30));
        fixed.on_window(&summary, SimTime::ZERO, &mut obs);
        assert_eq!(fixed.quantum_hint(0), SimDur::micros(30));
    }
}
