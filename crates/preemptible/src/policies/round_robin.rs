//! Round-robin: new and preempted work take turns, approximating
//! processor sharing as the slice shrinks.

use lp_sim::SimDur;

use crate::sched::{Dispatch, ResumeSel, SchedCtx, SchedPolicy, TaskView};

/// Timesharing between fresh and preempted work: when both wait, the
/// choice alternates; otherwise whichever kind exists runs. Parked
/// work resumes oldest-first. This is the general-purpose preemptible
/// function model of the Libinger baseline, as opposed to
/// LibPreemptible's new-work-first [`FcfsPreempt`](super::FcfsPreempt).
#[derive(Debug, Clone)]
pub struct RoundRobin {
    slice: SimDur,
    prefer_parked: bool,
}

impl RoundRobin {
    /// Round-robin granting every task the same `slice`.
    pub fn new(slice: SimDur) -> Self {
        RoundRobin {
            slice,
            prefer_parked: false,
        }
    }
}

impl SchedPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn dispatch(&mut self, _cpu: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let parked = Dispatch::Parked(ResumeSel::Fifo);
        let choice = match (ctx.runnable > 0, ctx.parked > 0) {
            (false, false) => return Dispatch::Idle,
            (true, false) => Dispatch::New,
            (false, true) => parked,
            (true, true) if self.prefer_parked => parked,
            (true, true) => Dispatch::New,
        };
        self.prefer_parked = !self.prefer_parked;
        choice
    }

    fn time_slice(&mut self, _task: &TaskView, _ctx: &mut SchedCtx<'_>) -> SimDur {
        self.slice
    }

    fn quantum_hint(&self, _class: u8) -> SimDur {
        self.slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::obs::Observer;
    use lp_sim::SimTime;

    #[test]
    fn alternates_when_both_kinds_wait() {
        let mut obs = Observer::counters_only();
        let mut p = RoundRobin::new(SimDur::micros(5));
        let mut d = |runnable, parked| {
            let mut ctx = SchedCtx {
                now: SimTime::ZERO,
                queue_depths: &[],
                runnable,
                parked,
                window: None,
                obs: &mut obs,
            };
            p.dispatch(0, &mut ctx)
        };
        let parked = Dispatch::Parked(ResumeSel::Fifo);
        assert_eq!(d(1, 1), Dispatch::New);
        assert_eq!(d(1, 1), parked);
        assert_eq!(d(1, 1), Dispatch::New);
        // Idle doesn't flip the toggle.
        assert_eq!(d(0, 0), Dispatch::Idle);
        assert_eq!(d(1, 1), parked);
    }
}
