//! Per-class quanta: preemptive FCFS where latency-critical and
//! best-effort requests get different slices (Fig. 13-right's
//! "variable time quantum" study).

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Preemptive FCFS with one slice per workload class: class 0
/// (latency-critical) runs with `lc_quantum`, every other class with
/// `be_quantum`.
#[derive(Debug, Clone)]
pub struct ClassQuantum {
    /// Quantum for class 0 (latency-critical).
    pub lc_quantum: SimDur,
    /// Quantum for class 1+ (best-effort).
    pub be_quantum: SimDur,
}

impl SchedPolicy for ClassQuantum {
    fn name(&self) -> &'static str {
        "class-quantum"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        Dispatch::new_first(ctx, ResumeSel::Fifo)
    }

    fn time_slice(&mut self, task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.quantum_hint(task.class)
    }

    fn quantum_hint(&self, class: u8) -> SimDur {
        if class == 0 {
            self.lc_quantum
        } else {
            self.be_quantum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::obs::Observer;
    use lp_sim::SimTime;

    #[test]
    fn slice_follows_the_task_class() {
        let mut obs = Observer::counters_only();
        let mut ctx = SchedCtx {
            now: SimTime::ZERO,
            queue_depths: &[],
            runnable: 0,
            parked: 0,
            window: None,
            obs: &mut obs,
        };
        let mut p = ClassQuantum {
            lc_quantum: SimDur::micros(30),
            be_quantum: SimDur::micros(100),
        };
        let mut t = TaskView {
            request: 1,
            fiber: 0,
            arrived: SimTime::ZERO,
            remaining: SimDur::micros(500),
            total: SimDur::micros(500),
            preemptions: 0,
            class: 0,
        };
        assert_eq!(p.time_slice(&t, &mut ctx), SimDur::micros(30));
        t.class = 1;
        assert_eq!(p.time_slice(&t, &mut ctx), SimDur::micros(100));
        assert_eq!(p.quantum_hint(0), SimDur::micros(30));
    }
}
