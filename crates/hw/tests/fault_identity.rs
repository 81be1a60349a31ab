//! Property test: a rate-0.0 [`FaultPlan`] is indistinguishable from no
//! injector at all. Whatever the magnitudes, seed, and op sequence, the
//! injector never decides to inject (and never even draws from its RNG
//! stream), so a domain whose sends take the injector's decisions lands
//! in byte-identical state to one whose sends take `None` — outcome by
//! outcome, UPID field by UPID field, and event by event in the JSONL
//! the two observers record.
//!
//! This is the contract `FaultPlan::enabled()` gating in the runtime
//! rests on: armed-but-zero plans must be true no-ops.

use lp_hw::uintr::{ReceiverState, Uitt, UintrDomain};
use lp_sim::fault::{FaultInjector, FaultPlan};
use lp_sim::obs::Observer;
use lp_sim::SimTime;
use proptest::prelude::*;

/// A plan whose rates are all zero and schedule empty, but whose
/// magnitudes (which must be irrelevant at rate 0) are arbitrary.
fn zero_rate_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(ipi_delay_ns, timer_spike_ns, core_hog_ns, contention_waiters)| FaultPlan {
            ipi_delay_ns,
            timer_spike_ns,
            core_hog_ns,
            contention_waiters,
            ..FaultPlan::default()
        },
    )
}

fn receiver(rstate: u8) -> ReceiverState {
    match rstate % 3 {
        0 => ReceiverState::RunningUifSet,
        1 => ReceiverState::RunningUifClear,
        _ => ReceiverState::Blocked,
    }
}

proptest! {
    /// Lockstep run: `plain` sends with no fault, `faulted` consults a
    /// rate-0 injector at every site before every op. They must agree
    /// on every outcome, every drained bitmap and every observable UPID
    /// bit at every step, and emit the same event stream.
    #[test]
    fn rate_zero_plan_is_byte_identical_to_no_injector(
        plan in zero_rate_plan(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u8..64, 0u8..3), 1..120),
    ) {
        prop_assert!(!plan.enabled(), "all-zero rates must read as disabled");
        let mut inj = FaultInjector::new(plan, seed);

        let mut plain = UintrDomain::new();
        let hp = plain.register_receiver();
        let mut faulted = UintrDomain::new();
        let hf = faulted.register_receiver();
        let mut uitt = Uitt::new();
        for v in 0..64 {
            uitt.register(hp, v);
        }
        // Room for every event: at most two per op.
        let mut obs_plain = Observer::new(2 * ops.len());
        let mut obs_faulted = Observer::new(2 * ops.len());

        for (i, &(kind, vector, rstate)) in ops.iter().enumerate() {
            // Exercise every injection site each step: a rate-0 plan
            // must never produce a decision anywhere.
            let at = SimTime::from_nanos(i as u64);
            let now = at.as_nanos();
            let ipi = inj.ipi(now);
            prop_assert_eq!(ipi, None, "op {}: rate-0 plan injected an IPI fault", i);
            prop_assert_eq!(inj.timer(now), None, "op {}: timer fault", i);
            prop_assert_eq!(inj.signal(now), None, "op {}: signal fault", i);
            prop_assert_eq!(inj.core(now), None, "op {}: core fault", i);

            let r = receiver(rstate);
            let worker = u16::from(vector);
            match kind {
                0..=2 => {
                    let entry = uitt.get(vector as usize % 64).expect("entry");
                    let a = plain
                        .senduipi(entry, r, None, worker, at, &mut obs_plain)
                        .expect("plain send");
                    let b = faulted
                        .senduipi(entry, r, ipi, worker, at, &mut obs_faulted)
                        .expect("faulted send");
                    prop_assert_eq!(a, b, "op {}: send outcomes diverged", i);
                }
                3 => {
                    let a = plain.acknowledge(hp).expect("plain ack");
                    let b = faulted.acknowledge(hf).expect("faulted ack");
                    prop_assert_eq!(a, b, "op {}: drained vectors diverged", i);
                }
                4 | 5 => {
                    plain.set_suppress(hp, kind == 4).expect("plain suppress");
                    faulted.set_suppress(hf, kind == 4).expect("faulted suppress");
                }
                _ => unreachable!("kind is generated in 0..6"),
            }

            let a = plain.upid(hp).expect("plain registered");
            let b = faulted.upid(hf).expect("faulted registered");
            prop_assert_eq!(
                (a.outstanding, a.suppress, a.pending, a.ndst),
                (b.outstanding, b.suppress, b.pending, b.ndst),
                "op {}: UPID state diverged", i
            );
        }
        prop_assert!(obs_plain.ring().overwritten() == 0, "the ring must hold every event");
        prop_assert_eq!(obs_plain.to_jsonl(), obs_faulted.to_jsonl(), "event streams diverged");
    }

    /// The injector's RNG stream is untouched at rate 0: two injectors
    /// with different seeds make identical (all-`None`) decisions, and
    /// interleaving site queries in any order changes nothing.
    #[test]
    fn rate_zero_plan_never_draws(
        plan in zero_rate_plan(),
        seeds in (any::<u64>(), any::<u64>()),
        sites in proptest::collection::vec(0u8..4, 1..200),
    ) {
        let mut a = FaultInjector::new(plan.clone(), seeds.0);
        let mut b = FaultInjector::new(plan, seeds.1);
        for (i, &s) in sites.iter().enumerate() {
            let now = i as u64 * 1_000;
            match s {
                0 => prop_assert_eq!((a.ipi(now), b.ipi(now)), (None, None)),
                1 => prop_assert_eq!((a.timer(now), b.timer(now)), (None, None)),
                2 => prop_assert_eq!((a.signal(now), b.signal(now)), (None, None)),
                _ => prop_assert_eq!((a.core(now), b.core(now)), (None, None)),
            }
        }
    }
}
