//! Shortest-remaining-processing-time, using the simulator's oracle
//! knowledge of each task's remaining service demand.

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// SRPT over the parked set: resume whichever preempted task is
/// closest to finishing. Mean-latency-optimal in theory; only possible
/// here because the simulation knows true remaining work (a real
/// system would estimate it). The upper-bound comparator, since
/// service times are unknown upfront in practice (§I).
#[derive(Debug, Clone)]
pub struct Srpt {
    slice: SimDur,
}

impl Srpt {
    /// An SRPT policy with a fixed preemption `slice`.
    pub fn new(slice: SimDur) -> Self {
        Srpt { slice }
    }
}

impl SchedPolicy for Srpt {
    fn name(&self) -> &'static str {
        "srpt"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        Dispatch::new_first(ctx, ResumeSel::MinKey)
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.slice
    }

    fn resume_key(&self, task: &TaskView) -> u64 {
        task.remaining.as_nanos()
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::SimTime;

    fn task(remaining_us: u64) -> TaskView {
        TaskView {
            request: remaining_us,
            fiber: 0,
            arrived: SimTime::ZERO,
            remaining: SimDur::micros(remaining_us),
            total: SimDur::micros(500),
            preemptions: 1,
            class: 0,
        }
    }

    #[test]
    fn resume_key_is_remaining_work() {
        let p = Srpt::new(SimDur::micros(10));
        assert!(p.resume_key(&task(3)) < p.resume_key(&task(400)));
        assert_eq!(p.resume_key(&task(7)), 7_000);
    }
}
