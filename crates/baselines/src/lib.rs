//! # lp-baselines — the systems LibPreemptible is compared against
//!
//! * [`shinjuku`] — the prior state of the art: a dedicated dispatcher
//!   core with posted-IPI preemption and a centralized queue (§V-A's
//!   main comparison), run as the core runtime with
//!   [`PreemptMech::PostedIpi`](libpreemptible::PreemptMech::PostedIpi)
//!   and [`DispatchMode::Central`](libpreemptible::DispatchMode::Central).
//! * [`libinger`] — preemptible functions on kernel timers + signals
//!   (the Libinger/libturquoise lineage), run as the core runtime with
//!   [`PreemptMech::KernelTimerSignal`](libpreemptible::PreemptMech::KernelTimerSignal).
//! * [`ktimer`] — the four timer-delivery strategies of Fig. 11
//!   (per-thread creation-time/aligned, per-process chained, and
//!   LibUtimer's user-timer).
//!
//! Both wrappers only pick a configuration: every system shares one
//! runtime, one event vocabulary and one report. The "LibPreemptible
//! w/o UINTR" ablation (Fig. 8's orange line) and the non-preemptive
//! baseline need no wrapper at all: they are
//! [`libpreemptible::PreemptMech`] variants.

#![warn(missing_docs)]

pub mod ktimer;
pub mod libinger;
pub mod shinjuku;

pub use ktimer::{measure, TimerOverhead, TimerStrategy};
pub use libinger::{run_libinger, LibingerConfig};
pub use shinjuku::{run_shinjuku, ShinjukuConfig};
