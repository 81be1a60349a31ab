//! The per-layer metrics of the traced run: their names, units, and
//! the end-to-end metric each should move, plus the replays that time
//! single layers through their public entry points.
//!
//! Every replay drives the layer from outside with the run's own
//! inputs: the event stream a run emitted (captured in full through
//! the simulator's event ring), the arrival instants and completion
//! latencies in it, and the engine operation mix its counters imply.

use std::hint::black_box;
use std::time::Instant;

use libpreemptible::RunReport;
use lp_sim::obs::{Attribution, Event, Metrics, TimedEvent};
use lp_sim::{EventQueue, SimTime};
use lp_stats::Histogram;
use lp_workload::{PhasedService, ServiceDist};

use crate::median;

/// Every per-layer metric: name, unit, which direction is better, and
/// the end-to-end metric and workload it should move. A metric whose
/// layer is not on a workload's path reads 0 there.
pub const METRICS: &[(&str, &str, &str, &str)] = &[
    (
        "runtime.run_ms",
        "ms",
        "lower",
        "wall_s on uintr_a1, faults_a1",
    ),
    (
        "runtime.allocs",
        "count",
        "lower",
        "heap_allocs on uintr_a1, faults_a1",
    ),
    (
        "baselines.shinjuku_ms",
        "ms",
        "lower",
        "wall_s on shinjuku_b",
    ),
    (
        "baselines.allocs",
        "count",
        "lower",
        "heap_allocs on shinjuku_b",
    ),
    (
        "sim.wheel.ns_per_op",
        "ns",
        "lower",
        "wall_s on uintr_a1 (cancel-heavy) vs shinjuku_b (push/pop)",
    ),
    (
        "sim.wheel.ops_per_req",
        "1/req",
        "lower",
        "wall_s on uintr_a1 vs shinjuku_b",
    ),
    (
        "sim.wheel.cancel_ratio",
        "ratio",
        "lower",
        "wall_s on uintr_a1 (cancel-heavy) vs shinjuku_b",
    ),
    (
        "utimer.deadlines_per_req",
        "1/req",
        "lower",
        "wall_s on uintr_a1; no change on shinjuku_b",
    ),
    (
        "utimer.disarm_ratio",
        "ratio",
        "lower",
        "wall_s on uintr_a1 (wasted arms); no change on shinjuku_b",
    ),
    (
        "runtime.preempts_per_req",
        "1/req",
        "lower",
        "wall_s, sim_preempt_overhead_pct on uintr_a1",
    ),
    (
        "runtime.spurious_ratio",
        "ratio",
        "lower",
        "wall_s, sim_preempt_overhead_pct on uintr_a1 (waste)",
    ),
    (
        "hw.uipi_per_req",
        "1/req",
        "lower",
        "wall_s, sim_preempt_overhead_pct on uintr_a1",
    ),
    (
        "hw.uipi_delivered_ratio",
        "ratio",
        "higher",
        "sim_p999_us on uintr_a1, faults_a1",
    ),
    (
        "obs.events_per_req",
        "1/req",
        "lower",
        "wall_s on every run workload",
    ),
    (
        "obs.attr.observe_ns",
        "ns",
        "lower",
        "wall_s on uintr_a1 (slow path), shinjuku_b (fast path)",
    ),
    (
        "obs.metrics.account_ns",
        "ns",
        "lower",
        "wall_s on uintr_a1, shinjuku_b, faults_a1",
    ),
    (
        "obs.events_dropped",
        "count",
        "lower",
        "correctness: must be 0",
    ),
    (
        "retry.retries_per_issue",
        "ratio",
        "lower",
        "wall_s, sim_p999_us on faults_a1; no change on uintr_a1",
    ),
    (
        "retry.landed_ratio",
        "ratio",
        "higher",
        "sim_goodput_krps, sim_p999_us on faults_a1",
    ),
    (
        "retry.degradations",
        "1/s",
        "lower",
        "sim_p999_us, sim_goodput_krps on faults_a1",
    ),
    (
        "retry.brownouts",
        "1/s",
        "lower",
        "sim_p999_us, sim_goodput_krps on faults_a1",
    ),
    (
        "admission.admitted_ratio",
        "ratio",
        "lower",
        "wall_s on faults_a1; no change on uintr_a1",
    ),
    (
        "admission.shed_ratio",
        "ratio",
        "lower",
        "sim_goodput_krps on faults_a1 (sheds are failures)",
    ),
    (
        "fault.injected_per_req",
        "1/req",
        "lower",
        "wall_s, sim_p999_us on faults_a1; no change on uintr_a1",
    ),
    (
        "kernel.signals_per_req",
        "1/req",
        "lower",
        "wall_s, sim_p999_us on faults_a1; no change on uintr_a1",
    ),
    (
        "workload.sample_ns",
        "ns",
        "lower",
        "wall_s on shinjuku_b (per-arrival cost dominates)",
    ),
    (
        "stats.record_ns",
        "ns",
        "lower",
        "wall_s on shinjuku_b (per-arrival cost dominates)",
    ),
    (
        "core.work_share",
        "share",
        "higher",
        "sim_preempt_overhead_pct on uintr_a1, faults_a1",
    ),
    (
        "core.preempt_share",
        "share",
        "lower",
        "sim_preempt_overhead_pct on uintr_a1, faults_a1",
    ),
    (
        "core.dispatch_share",
        "share",
        "lower",
        "sim_p99_us on uintr_a1, faults_a1",
    ),
    (
        "core.timer_poll_share",
        "share",
        "lower",
        "sim_preempt_overhead_pct on uintr_a1",
    ),
    (
        "core.kernel_share",
        "share",
        "lower",
        "sim_p999_us on faults_a1",
    ),
    (
        "attr.queued_share",
        "share",
        "lower",
        "sim_p99_us on uintr_a1, faults_a1",
    ),
    (
        "attr.running_share",
        "share",
        "higher",
        "sim_p99_us on uintr_a1, faults_a1",
    ),
    (
        "attr.preempt_switch_share",
        "share",
        "lower",
        "sim_p99_us, sim_preempt_overhead_pct on uintr_a1",
    ),
    (
        "attr.retry_stall_share",
        "share",
        "lower",
        "sim_p999_us on faults_a1",
    ),
    (
        "attr.degraded_signal_share",
        "share",
        "lower",
        "sim_p999_us on faults_a1",
    ),
    (
        "attr.brownout_held_share",
        "share",
        "lower",
        "sim_p999_us on faults_a1",
    ),
    (
        "unowned_share",
        "share",
        "lower",
        "wall_s on every run workload: where in-program spans should look",
    ),
    (
        "trace.wall_s",
        "s",
        "lower",
        "tracing cost: traced wall_s of this run",
    ),
    (
        "trace.overhead_s",
        "s",
        "lower",
        "tracing cost: traced minus untraced wall_s",
    ),
    (
        "experiments.table1_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig1_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig2_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig8_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig9_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig10_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.table4_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig11_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig12_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig13_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    (
        "experiments.fig14_ms",
        "ms",
        "lower",
        "wall_s on paper_quick",
    ),
    ("experiments.ext_ms", "ms", "lower", "wall_s on paper_quick"),
];

/// Times a replay `reps` times and returns the median seconds.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut secs)
}

/// Replays `Attribution::observe` over a captured stream; returns ns
/// per call, or an error if the replayed breakdown differs from the
/// one the run reported.
pub fn attr_observe_ns(cap: &RunReport, reps: usize) -> Result<f64, String> {
    let mut replayed = None;
    let secs = timed(reps, || {
        let mut a = Attribution::new();
        for te in &cap.events {
            a.observe(te.at.as_nanos(), &te.ev);
        }
        replayed = Some(black_box(a).take_stats());
    });
    if replayed.as_ref() != Some(&cap.phases) {
        return Err(
            "attribution replay over the captured stream differs from the run's PhaseStats".into(),
        );
    }
    Ok(secs * 1e9 / cap.events.len() as f64)
}

/// Replays `Metrics::account` over a captured stream; returns ns per
/// call, or an error if an event-driven counter disagrees with the
/// run's (the `core_*_ns` counters are charged outside the stream).
pub fn metrics_account_ns(cap: &RunReport, reps: usize) -> Result<f64, String> {
    let mut replayed = None;
    let secs = timed(reps, || {
        let mut m = Metrics::new();
        for te in &cap.events {
            m.account(&te.ev);
        }
        replayed = Some(black_box(m).snapshot());
    });
    let replayed = replayed.expect("at least one replay");
    for ((name, got), (_, want)) in replayed.counters.iter().zip(&cap.metrics.counters) {
        if !name.starts_with("core_") && got != want {
            return Err(format!(
                "counter replay: {name} = {got}, run reported {want}"
            ));
        }
    }
    Ok(secs * 1e9 / cap.events.len() as f64)
}

/// Replays `PhasedService::sample` at the captured arrival instants;
/// returns ns per sample.
pub fn workload_sample_ns(cap: &RunReport, dist: ServiceDist, seed: u64, reps: usize) -> f64 {
    let svc = PhasedService::constant(dist);
    let at: Vec<SimTime> = arrivals(&cap.events).collect();
    let secs = timed(reps, || {
        let mut rng = lp_sim::rng::rng(seed, lp_sim::rng::streams::SERVICE);
        let mut sum = 0u64;
        for &t in &at {
            sum = sum.wrapping_add(svc.sample(t, &mut rng).as_nanos());
        }
        black_box(sum);
    });
    secs * 1e9 / at.len().max(1) as f64
}

/// Replays `Histogram::record` over the captured completion
/// latencies; returns ns per record.
pub fn stats_record_ns(cap: &RunReport, reps: usize) -> f64 {
    let lat: Vec<u64> = cap
        .events
        .iter()
        .filter_map(|te| match te.ev {
            Event::TaskFinish { latency_ns, .. } => Some(latency_ns),
            _ => None,
        })
        .collect();
    let secs = timed(reps, || {
        let mut h = Histogram::new();
        for &v in &lat {
            h.record(v);
        }
        black_box(h);
    });
    secs * 1e9 / lat.len().max(1) as f64
}

fn arrivals(events: &[TimedEvent]) -> impl Iterator<Item = SimTime> + '_ {
    events
        .iter()
        .filter(|te| matches!(te.ev, Event::Arrival { .. }))
        .map(|te| te.at)
}

/// Replays the public `EventQueue` push/cancel/pop in a given mix:
/// `cancel_ratio` of the pushed events are cancelled (armed, then
/// disarmed), the rest are popped (fired), over a standing population
/// of `live` events. Returns ns per queue operation.
pub fn wheel_ns_per_op(cancel_ratio: f64, live: usize, reps: usize) -> f64 {
    const PUSHES: u64 = 200_000;
    let mut ops = 0u64;
    let secs = timed(reps, || {
        let mut q = EventQueue::with_capacity(live + 1);
        for i in 0..live as u64 {
            q.push(SimTime::from_nanos(scatter(i)), i);
        }
        let mut now = 0u64;
        let mut acc = 0.0;
        ops = 0;
        for i in 0..PUSHES {
            let id = q.push(SimTime::from_nanos(now + 50 + scatter(i) % 20_000), i);
            acc += cancel_ratio;
            if acc >= 1.0 {
                acc -= 1.0;
                q.cancel(id);
            } else {
                let (t, _) = q.pop().expect("standing population");
                now = t.as_nanos();
            }
            ops += 2;
        }
        black_box(&q);
    });
    secs * 1e9 / ops as f64
}

/// Deterministic scatter of event times over 20 µs.
fn scatter(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 20_000
}
