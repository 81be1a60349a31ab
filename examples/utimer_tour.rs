//! A tour of the low-level building blocks: LibUtimer deadline slots
//! and the UINTR architectural state machine — the pieces §IV builds
//! LibPreemptible out of.
//!
//! ```text
//! cargo run --release --example utimer_tour
//! ```

use libpreemptible::utimer::UtimerRegistry;
use lp_hw::uintr::{ReceiverState, SendOutcome, UintrDomain, Uitt};
use lp_sim::obs::Observer;
use lp_sim::SimTime;

fn main() {
    // --- LibUtimer deadline slots (utimer_register / arm_deadline) ---
    // Every mechanism call records its events into one observer.
    let mut obs = Observer::counters_only();
    let mut reg = UtimerRegistry::new();
    let workers: Vec<_> = (0..4).map(|_| reg.register()).collect();
    // Workers arm staggered 5/10/15/20 us deadlines (one cacheline
    // write each — no syscall, which is the whole point).
    for (i, &slot) in workers.iter().enumerate() {
        reg.arm(slot, SimTime::from_nanos(5_000 * (i as u64 + 1)), SimTime::ZERO, &mut obs);
    }
    println!("armed {} deadline slots; earliest = {:?}", reg.armed(), reg.next_deadline());

    // The timer core polls the TSC and collects expiries into one
    // reused buffer.
    let mut due = Vec::new();
    let mut fired = Vec::new();
    for t in [6_000u64, 12_000, 22_000] {
        reg.poll(SimTime::from_nanos(t), &mut due, &mut obs);
        fired.extend(due.iter().map(|slot| (t, slot.index())));
    }
    println!("expiry order (poll-time, worker): {fired:?}");
    assert_eq!(fired.len(), 4);

    // --- The UINTR state machine underneath (§III-A, Fig. 3) ---
    let mut dom = UintrDomain::new();
    let receiver = dom.register_receiver(); // allocates the UPID
    let mut uitt = Uitt::new(); // the timer core's send table
    let idx = uitt.register(receiver, 0); // vector 0 = "deadline"

    let entry = uitt.get(idx).unwrap();
    let mut send = |dom: &mut UintrDomain, receiver_state| {
        dom.senduipi(entry, receiver_state, None, 0, SimTime::ZERO, &mut obs).unwrap()
    };
    let first = send(&mut dom, ReceiverState::RunningUifSet);
    let second = send(&mut dom, ReceiverState::RunningUifSet);
    println!("first SENDUIPI:  {first:?}");
    println!("second SENDUIPI: {second:?} (hardware coalesces while ON=1)");
    assert_eq!(first, SendOutcome::NotifiedRunning);
    assert_eq!(second, SendOutcome::Coalesced);

    let pending = dom.acknowledge(receiver).unwrap();
    println!("handler drained PUIR bitmap: {pending:#b}");

    // Blocked receivers take the kernel-assisted slow path — the
    // "uintrFd (blocked)" row of Table IV.
    let blocked = send(&mut dom, ReceiverState::Blocked);
    println!("send to blocked receiver: {blocked:?}");
    assert_eq!(blocked, SendOutcome::NotifiedBlocked);
}
