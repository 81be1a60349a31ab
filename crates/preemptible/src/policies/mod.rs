//! Scheduling policies (§III-C: separation of mechanism and policy).
//!
//! The runtime provides the *mechanism* — queues, contexts, deadlines,
//! user interrupts. What runs next and for how long is a
//! [`SchedPolicy`](crate::sched::SchedPolicy), the abstraction the
//! paper argues applications should own. This module is the policy
//! zoo: the paper's evaluated policies plus ready-made alternatives,
//! each a self-contained ~100-line module with its own unit tests.
//! Users plug in their own by implementing the trait (see the
//! `custom_policy` example).
//!
//! | Policy | Discipline | Resume order |
//! |---|---|---|
//! | [`FcfsPreempt`] | preemptive FCFS (cFCFS-P), fixed or Algorithm 1 adaptive slice | oldest parked first |
//! | [`ClassQuantum`] | preemptive FCFS with a per-class slice | oldest parked first |
//! | [`RoundRobin`] | new and parked work alternate, fixed slice | oldest parked first |
//! | [`Mlfq`] | multi-level feedback queue, slice doubles per demotion | lowest level first |
//! | [`Edf`] | earliest-deadline-first (per-class latency budgets) | earliest deadline first |
//! | [`Vruntime`] | CFS-like fair scheduling on accumulated runtime | smallest vruntime first |
//! | [`Srpt`] | shortest-remaining-processing-time (oracle) | least remaining first |
//!
//! These modules are held to a stricter hygiene bar than the rest of
//! the workspace: `lp-check`'s `policy-purity` rule forbids any wall
//! clock, RNG seeding, or environment access here (docs/CHECKS.md),
//! which is what makes every policy safe to drop into the
//! deterministic tournament harness (`lp-experiments::tournament`).
//! The authoring guide is `docs/POLICIES.md`.

mod class_quantum;
mod edf;
mod fcfs;
mod mlfq;
mod round_robin;
mod srpt;
mod vruntime;

pub use class_quantum::ClassQuantum;
pub use edf::Edf;
pub use fcfs::{FcfsPreempt, QuantumSource};
pub use mlfq::Mlfq;
pub use round_robin::RoundRobin;
pub use srpt::Srpt;
pub use vruntime::Vruntime;
