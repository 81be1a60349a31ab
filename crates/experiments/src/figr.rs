//! Fig. R (extension) — resilience sweep: tail latency vs IPI fault
//! rate under the self-healing preemption path.
//!
//! Not a figure of the paper: LibPreemptible assumes `SENDUIPI` never
//! fails. This extension injects IPI drops at increasing rates
//! (`lp_sim::fault`) and measures how the lost-preemption watchdog
//! holds the tail: retries absorb occasional losses, and sustained loss
//! degrades workers to the kernel signal path — whose tail is the
//! natural floor for the sweep (a signal-path run at rate 0 is shown
//! as the `signal floor` row). Omitted from the `all` binary's
//! paper-order artifact list on purpose; regenerate with
//! `cargo run --release -p lp-experiments --bin figr`.

use lp_sim::fault::{FaultKind, FaultPlan};
use lp_sim::SimDur;
use lp_stats::Table;
use lp_workload::{PhasedService, RateSchedule, ServiceDist};

use libpreemptible::policies::FcfsPreempt;
use libpreemptible::report::RunReport;
use libpreemptible::runtime::{run, PreemptMech, RuntimeConfig, ServiceSource, WorkloadSpec};

use crate::common::Scale;
use crate::runner;

/// One point of the sweep.
#[derive(Debug)]
pub struct FigRRow {
    /// Row label (`drop 5%`, `signal floor`, ...).
    pub label: String,
    /// P(IPI drop) per `SENDUIPI`; `None` for the signal-floor row.
    pub drop_rate: Option<f64>,
    /// p99 latency, us.
    pub p99_us: f64,
    /// Median latency, us.
    pub median_us: f64,
    /// Watchdog re-sends.
    pub retries: u64,
    /// Workers degraded to the signal path.
    pub degradations: u64,
    /// Degraded workers recovered by a successful probe.
    pub recoveries: u64,
    /// The full report.
    pub report: RunReport,
}

/// The IPI drop rates swept (the `0.0` point is the healthy baseline).
pub const DROP_RATES: [f64; 6] = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0];

/// Runs the sweep: constant 400 us requests under a 20 us quantum, so
/// every request needs ~20 preemptions and a lost one lands squarely
/// on the tail. Requests must outlive several watchdog timeouts for
/// consecutive-loss counting to mean anything: a task that completes
/// resets its worker's loss streak (the watchdog cannot tell a lost
/// preemption from one that arrived just after a natural finish).
pub fn run_figr(scale: Scale, seed: u64) -> Vec<FigRRow> {
    let workers = 4;
    let duration = scale.point_duration();
    let mk_spec = || WorkloadSpec {
        source: ServiceSource::Phased(PhasedService::constant(ServiceDist::Constant(
            SimDur::micros(400),
        ))),
        arrivals: RateSchedule::Constant(8_000.0),
        duration,
        warmup: scale.warmup(),
    };
    let mk_cfg = |mech: PreemptMech, faults: FaultPlan| RuntimeConfig {
        workers,
        mech,
        seed,
        control_period: SimDur::millis(10),
        faults,
        ..RuntimeConfig::default()
    };

    // Points: one UINTR run per drop rate, plus the signal-path floor.
    let points: Vec<Option<f64>> = DROP_RATES
        .iter()
        .map(|&r| Some(r))
        .chain(std::iter::once(None))
        .collect();
    runner::map_points("figr", &points, |_id, &rate| {
        let (label, mech, faults) = match rate {
            Some(r) => (
                format!("uintr, drop {:.0}%", r * 100.0),
                PreemptMech::Uintr,
                FaultPlan::only(FaultKind::IpiDrop, r),
            ),
            None => (
                "signal floor".to_string(),
                PreemptMech::TimerCoreSignal,
                FaultPlan::disabled(),
            ),
        };
        let r = run(
            mk_cfg(mech, faults),
            Box::new(FcfsPreempt::fixed(SimDur::micros(20))),
            mk_spec(),
        );
        FigRRow {
            label,
            drop_rate: rate,
            p99_us: r.p99_us(),
            median_us: r.median_us(),
            retries: r.metrics.counter("preempt_retries"),
            degradations: r.metrics.counter("mech_degradations"),
            recoveries: r.metrics.counter("mech_recoveries"),
            report: r,
        }
    })
}

/// Renders the sweep table.
pub fn table(rows: &[FigRRow]) -> Table {
    let mut t = Table::new(&[
        "point",
        "p99 (us)",
        "median (us)",
        "retries",
        "degradations",
        "recoveries",
    ])
    .with_title("Fig R (extension): tail latency vs IPI fault rate, watchdog enabled");
    for r in rows {
        t.row(&[
            r.label.clone(),
            format!("{:.1}", r.p99_us),
            format!("{:.1}", r.median_us),
            r.retries.to_string(),
            r.degradations.to_string(),
            r.recoveries.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_bounds_the_tail_across_the_sweep() {
        let rows = run_figr(Scale::Quick, 7);
        assert_eq!(rows.len(), DROP_RATES.len() + 1);
        let healthy = &rows[0];
        let total_loss = rows
            .iter()
            .find(|r| r.drop_rate == Some(1.0))
            .expect("rate-1.0 point");
        let floor = rows.last().expect("signal floor row");
        // Every point conserves requests — no fault rate strands fibers.
        for r in &rows {
            assert!(r.report.is_conserved(), "{}: not conserved", r.label);
        }
        // The healthy point neither retries nor degrades.
        assert_eq!(healthy.retries, 0);
        assert_eq!(healthy.degradations, 0);
        // Total loss degrades every worker and lands in the signal
        // path's neighborhood, not at infinity.
        assert_eq!(total_loss.degradations, 4);
        assert!(
            total_loss.p99_us < 4.0 * floor.p99_us.max(healthy.p99_us),
            "total-loss p99 {} vs floor {}",
            total_loss.p99_us,
            floor.p99_us
        );
        // Intermediate rates actually exercise the retry path.
        assert!(rows.iter().any(|r| r.retries > 0));
    }
}
