//! Kernel timers: granularity floor, slack, and noise.
//!
//! Fig. 12 of the paper shows that a kernel timer asked for a 20 us
//! period actually fires around 60 us with large variance, while
//! LibUtimer tracks the target within ~1%. The floor comes from hrtimer
//! slack and softirq batching; the variance from unrelated kernel
//! activity. Both are explicit parameters here
//! ([`KernelCosts::timer_floor`], [`KernelCosts::timer_jitter_sigma`],
//! noise spikes).

use lp_sim::fault::TimerFault;
use lp_sim::obs::{Event, Observer};
use lp_sim::{SimDur, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::cost::KernelCosts;
use lp_hw::jitter;

/// A simulated kernel timer (POSIX `timer_create` + `timer_settime`
/// semantics at the fidelity the experiments need).
#[derive(Debug)]
pub struct KernelTimer {
    costs: KernelCosts,
    rng: SmallRng,
    target: SimDur,
    armed: bool,
}

impl KernelTimer {
    /// Creates a timer; arming costs are charged by the caller via
    /// [`arm_cost`](Self::arm_cost).
    pub fn new(costs: KernelCosts, rng: SmallRng) -> Self {
        KernelTimer {
            costs,
            rng,
            target: SimDur::ZERO,
            armed: false,
        }
    }

    /// CPU cost of the arming syscall.
    pub fn arm_cost(&self) -> SimDur {
        self.costs.timer_arm + self.costs.syscall
    }

    /// Arms `worker`'s timer at `at` for the interval `target` (periodic
    /// re-arm uses the same path) and emits a `ktimer_armed` event
    /// recording the requested interval.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn arm(&mut self, target: SimDur, worker: u16, at: SimTime, obs: &mut Observer) {
        assert!(!target.is_zero(), "cannot arm a zero-length kernel timer");
        self.target = target;
        self.armed = true;
        obs.emit(at, Event::KtimerArmed { worker, target_ns: target.as_nanos() });
    }

    /// Disarms without firing.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// `true` if armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The requested interval.
    pub fn target(&self) -> SimDur {
        self.target
    }

    /// Samples the *actual* delay until expiry of the interval armed
    /// at `at`, and emits a `ktimer_fired` event for `worker` stamped at
    /// the expiry instant.
    ///
    /// `fault` is a pre-sampled decision from
    /// [`FaultInjector::timer`](lp_sim::fault::FaultInjector::timer) —
    /// this layer never draws fault randomness itself.
    ///
    /// * `None` — the ordinary expiry.
    /// * [`TimerFault::Miss`] — the kernel loses the arming entirely:
    ///   returns `None`, consumes no expiry randomness and emits nothing
    ///   (the runtime emits the matching `fault_injected`); the caller
    ///   must not schedule a fire (the runtime watchdog recovers).
    /// * [`TimerFault::JitterSpike`] — a normal expiry, late by the
    ///   spike duration.
    /// * [`TimerFault::Spurious`] — a normal expiry; the *caller*
    ///   additionally schedules one extra, spurious fire.
    ///
    /// # Panics
    ///
    /// Panics if the timer is not armed.
    pub fn sample_expiry(
        &mut self,
        fault: Option<TimerFault>,
        worker: u16,
        at: SimTime,
        obs: &mut Observer,
    ) -> Option<SimDur> {
        assert!(self.armed, "sampling expiry of a disarmed timer");
        let spike = match fault {
            None | Some(TimerFault::Spurious) => SimDur::ZERO,
            Some(TimerFault::Miss) => return None,
            Some(TimerFault::JitterSpike(extra)) => extra,
        };
        let effective = self.target.max(self.costs.timer_floor);
        let mut delay = jitter::sample(&mut self.rng, effective, self.costs.timer_jitter_sigma);
        if self.rng.gen_bool(self.costs.noise_spike_prob) {
            delay += jitter::sample(&mut self.rng, self.costs.noise_spike, 0.4);
        }
        // An expiry can be late, never early.
        let delay = delay.max(self.target) + spike;
        obs.emit(at + delay, Event::KtimerFired { worker });
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_sim::rng::rng;

    fn timer(seed: u64) -> KernelTimer {
        KernelTimer::new(KernelCosts::default(), rng(seed, 1))
    }

    fn arm(t: &mut KernelTimer, target: SimDur) {
        t.arm(target, 0, SimTime::ZERO, &mut Observer::counters_only());
    }

    /// One expiry with an optional fault into a throwaway observer.
    fn expiry_with(t: &mut KernelTimer, fault: Option<TimerFault>) -> Option<SimDur> {
        t.sample_expiry(fault, 0, SimTime::ZERO, &mut Observer::counters_only())
    }

    fn expiry(t: &mut KernelTimer) -> SimDur {
        expiry_with(t, None).expect("no fault injected")
    }

    fn mean_std(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let m = samples.iter().sum::<f64>() / n;
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, v.sqrt())
    }

    #[test]
    fn sub_floor_target_quantizes_up() {
        // Fig. 12: a 20 us request fires around the ~55-60 us floor.
        let mut t = timer(1);
        arm(&mut t, SimDur::micros(20));
        let xs: Vec<f64> = (0..5_000).map(|_| expiry(&mut t).as_micros_f64()).collect();
        let (m, s) = mean_std(&xs);
        assert!((45.0..75.0).contains(&m), "mean = {m} us");
        assert!(s > 5.0, "kernel timer must jitter, std = {s} us");
    }

    #[test]
    fn above_floor_tracks_target_with_jitter() {
        let mut t = timer(2);
        arm(&mut t, SimDur::micros(100));
        let xs: Vec<f64> = (0..5_000).map(|_| expiry(&mut t).as_micros_f64()).collect();
        let (m, s) = mean_std(&xs);
        assert!((95.0..125.0).contains(&m), "mean = {m} us");
        assert!(s > 10.0, "std = {s} us");
    }

    #[test]
    fn never_fires_early() {
        let mut t = timer(3);
        arm(&mut t, SimDur::micros(80));
        for _ in 0..2_000 {
            assert!(expiry(&mut t) >= SimDur::micros(80));
        }
    }

    #[test]
    fn arm_disarm_state() {
        let mut t = timer(4);
        assert!(!t.is_armed());
        arm(&mut t, SimDur::micros(10));
        assert!(t.is_armed());
        assert_eq!(t.target(), SimDur::micros(10));
        t.disarm();
        assert!(!t.is_armed());
        assert!(!t.arm_cost().is_zero());
    }

    #[test]
    fn arm_and_expiry_emit_events() {
        use lp_sim::obs::Counter;
        let mut t = timer(7);
        let mut obs = Observer::new(8);
        let at = SimTime::from_nanos(1_000);
        t.arm(SimDur::micros(30), 4, at, &mut obs);
        let delay = t.sample_expiry(None, 4, at, &mut obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::KtimersArmed), 1);
        assert_eq!(obs.metrics().get(Counter::KtimersFired), 1);
        let evs: Vec<_> = obs.events().copied().collect();
        assert_eq!(evs[0].at, at);
        assert_eq!(evs[0].ev, Event::KtimerArmed { worker: 4, target_ns: 30_000 });
        // The fired event is stamped at the sampled expiry instant.
        assert_eq!(evs[1].at, at + delay);
        assert_eq!(evs[1].ev, Event::KtimerFired { worker: 4 });
    }

    #[test]
    #[should_panic(expected = "disarmed timer")]
    fn sampling_disarmed_panics() {
        expiry(&mut timer(5));
    }

    #[test]
    fn injected_timer_faults() {
        let mut t = timer(9);
        arm(&mut t, SimDur::micros(60));
        // A miss never fires and leaves the timer armed for re-use.
        assert_eq!(expiry_with(&mut t, Some(TimerFault::Miss)), None);
        assert!(t.is_armed());
        // A spike is a normal expiry pushed later by exactly the spike.
        let mut u = timer(10);
        let mut v = timer(10);
        arm(&mut u, SimDur::micros(60));
        arm(&mut v, SimDur::micros(60));
        let plain = expiry(&mut v);
        let spiked = expiry_with(&mut u, Some(TimerFault::JitterSpike(SimDur::micros(40))));
        assert_eq!(spiked, Some(plain + SimDur::micros(40)));
        // Spurious fires normally (the extra fire is the caller's job).
        let mut w = timer(10);
        arm(&mut w, SimDur::micros(60));
        assert_eq!(expiry_with(&mut w, Some(TimerFault::Spurious)), Some(plain));
    }

    #[test]
    fn missed_expiry_emits_no_fire_event() {
        use lp_sim::obs::Counter;
        let mut t = timer(11);
        let mut obs = Observer::new(4);
        t.arm(SimDur::micros(30), 2, SimTime::ZERO, &mut obs);
        let fired = t.sample_expiry(Some(TimerFault::Miss), 2, SimTime::ZERO, &mut obs);
        assert_eq!(fired, None);
        assert_eq!(obs.metrics().get(Counter::KtimersArmed), 1);
        assert_eq!(obs.metrics().get(Counter::KtimersFired), 0);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_arm_panics() {
        arm(&mut timer(6), SimDur::ZERO);
    }
}
