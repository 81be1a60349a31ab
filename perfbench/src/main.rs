//! The repository's benchmark: four workloads over the LibPreemptible
//! simulator, measured from outside through its public entry points
//! (`libpreemptible::run`, `lp_baselines::run_shinjuku`,
//! `lp_experiments::runner::run_artifacts`).
//!
//! ```text
//! perfbench --workload <uintr_a1|shinjuku_b|faults_a1|paper_quick>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with
//! `--trace 1` every per-layer metric, each with the end-to-end metric
//! it should move, and writes its spans as Chrome trace-event JSON to
//! `--trace-out`. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness check marks every operation failed and exits 1.
//!
//! Host time is estimated over many passes of identical simulated work,
//! each normalised by a reference loop (see `calib`); simulated metrics
//! are exact for a given seed.

mod alloc;
mod calib;
mod check;
mod layers;
mod shape;
mod spans;

use std::time::{Duration, Instant};

use libpreemptible::RunReport;
use lp_experiments::common::run_system_spec;
use lp_experiments::runner::{self, ArtifactOutput};
use lp_experiments::{PaperWorkload, Scale, SystemUnderTest};
use lp_hw::CoreClock;
use lp_sim::obs::{Phase, PhaseStats};
use lp_sim::SimDur;
use lp_stats::Histogram;

use check::{quantile_ns, Digest, TIME_CLASSES};
use shape::{Shape, System};
use spans::Spans;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Passes with distinct sub-seeds that make up a run workload's fixed
/// simulated work; the simulated metrics and `heap_allocs` are taken
/// over exactly these, and later passes repeat them and must reproduce
/// their digests.
const ROUND: usize = 80;
/// Zero-length simulator runs per `setup_s` sample (one run takes
/// microseconds); one sample is taken beside every timed pass.
const SETUP_BATCH: usize = 16;
/// `setup_s` samples per `paper_quick` pass, whose passes are few.
const SETUP_PER_ARTIFACT_PASS: usize = 16;
/// Reference-loop runs per `paper_quick` pass.
const REFS_PER_ARTIFACT_PASS: usize = 9;
/// Timed passes the per-pass sample vectors are sized for.
const PASS_CAPACITY: usize = 1 << 14;
/// Repetitions of each single-layer replay in the traced run.
const REPLAY_REPS: usize = 9;
/// Arrival window of the traced run's full event capture, simulated ms.
const CAPTURE_ARRIVE_MS: u64 = 10;
/// Event-ring capacity of the capture (checked: nothing may be evicted).
const CAPTURE_CAPACITY: usize = 1 << 20;
/// Timed `paper_quick` passes at minimum (after the untimed first).
const MIN_ARTIFACT_PASSES: usize = 3;

const WORKLOADS: [&str; 4] = ["uintr_a1", "shinjuku_b", "faults_a1", "paper_quick"];

/// Every end-to-end metric: name, unit, which direction is better, and
/// the share of the parent commit's median by which it may worsen.
/// Each bound is at least three times the widest spread (interquartile
/// range over median, ten seeds) any workload showed, capped at 0.25;
/// `README.md` lists the ones that the cap leaves tighter than that.
/// The untraced run prints exactly these, in this order.
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.25),
    ("heap_allocs", "count", "lower", 0.15),
    ("sim_p50_us", "us", "lower", 0.10),
    ("sim_p99_us", "us", "lower", 0.15),
    ("sim_p999_us", "us", "lower", 0.25),
    ("sim_goodput_krps", "krps", "higher", 0.05),
    ("sim_preempt_overhead_pct", "%", "lower", 0.10),
    ("sim_max_krps", "krps", "higher", 0.20),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// What one benchmark run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Median of `v` (sorts in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sub_seed(seed: u64, i: usize) -> u64 {
    lp_sim::rng::substream(seed, 0x7065_7266_0000 + i as u64)
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Simulated results summed over a round's passes.
struct Round {
    digests: Vec<u64>,
    latency: Histogram,
    cores: CoreClock,
    counters: Vec<(&'static str, u64)>,
    phases: PhaseStats,
    arrivals: u64,
    good: u64,
    allocs: u64,
}

impl Round {
    fn new() -> Self {
        Round {
            digests: Vec::new(),
            latency: Histogram::new(),
            cores: CoreClock::new(),
            counters: Vec::new(),
            phases: PhaseStats::default(),
            arrivals: 0,
            good: 0,
            allocs: 0,
        }
    }

    fn add(&mut self, r: &RunReport, digest: u64, allocs: u64, limit_ns: u64) {
        self.digests.push(digest);
        self.latency.merge(&r.latency);
        self.cores.merge(&r.cores);
        if self.counters.is_empty() {
            self.counters = r.metrics.counters.clone();
        } else {
            for ((_, sum), (_, v)) in self.counters.iter_mut().zip(&r.metrics.counters) {
                *sum += v;
            }
        }
        self.phases.merge(&r.phases);
        self.arrivals += r.arrivals;
        self.good += r.latency.count_at_or_below(limit_ns);
        self.allocs += allocs;
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &x in &self.digests {
            d.word(x);
        }
        d.value()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Timed passes of one run workload, untraced, and (in traced mode)
/// traced with the same sub-seed right after each untraced one.
struct Passes {
    round: Round,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    refs: Vec<f64>,
    setup: Vec<f64>,
    span_allocs: u64,
}

fn run_passes(
    shape: &Shape,
    args: &Args,
    out: &mut Outcome,
    spans: &mut Spans,
    root: usize,
    setup: &mut dyn FnMut() -> Vec<String>,
) -> Passes {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let limit_ns = shape.limit_ns();
    let layer = match shape.system {
        System::LibPreemptible => "runtime",
        System::Shinjuku => "baselines",
    };
    // Sized up front so the benchmark's own growth does not move the
    // heap high-water mark the passes are measured by.
    let mut p = Passes {
        round: Round::new(),
        untraced: Vec::with_capacity(PASS_CAPACITY),
        traced: Vec::with_capacity(PASS_CAPACITY),
        refs: Vec::with_capacity(PASS_CAPACITY),
        setup: Vec::with_capacity(PASS_CAPACITY),
        span_allocs: 0,
    };
    p.round.digests.reserve(ROUND);
    alloc::reset_peak();
    let mut i = 0;
    while i <= ROUND || start.elapsed() < budget {
        let k = i % ROUND;
        let seed = sub_seed(args.seed, k);
        let reference = calib::reference_secs();
        let setup_secs = setup_sample(setup, out);
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let r = shape.run(seed, shape.rho, shape.arrive_ms, 0);
        let secs = t0.elapsed().as_secs_f64();
        let allocs = alloc::allocs() - a0;
        let label = format!("{} pass {i}", shape.name);
        out.errors.extend(check::report(&label, &r));
        out.attempted += r.arrivals;
        out.failed += r.dropped + r.in_flight;
        let digest = check::digest_report(&r);
        if i < ROUND {
            p.round.add(&r, digest, allocs, limit_ns);
        } else if digest != p.round.digests[k] {
            out.errors.push(format!(
                "{label}: digest {digest:016x} differs from the same sub-seed's first pass"
            ));
        }
        drop(r);
        // The first pass is untimed: it pays for cold caches and the
        // allocator's first growth.
        if i > 0 {
            p.untraced.push(secs);
            p.refs.push(reference);
            p.setup.push(setup_secs);
        }
        if args.trace {
            let id = spans.begin(format!("{layer} pass {i}"), layer, Some(root));
            let r = shape.run(seed, shape.rho, shape.arrive_ms, 0);
            let (secs, allocs) = spans.end(id);
            if check::digest_report(&r) != digest {
                out.errors
                    .push(format!("{label}: traced pass differs from untraced"));
            }
            if i > 0 {
                p.traced.push(secs);
            }
            p.span_allocs = allocs;
        }
        i += 1;
    }
    p
}

/// The max-throughput search: the highest measured throughput, over
/// the utilization grid, whose run meets the p99 limit and ends with
/// no backlog, no drop, and no shed.
fn max_krps(shape: &Shape, seed: u64, out: &mut Outcome, digest: &mut Digest) -> f64 {
    let mut best = 0.0f64;
    for (j, &rho) in shape::SWEEP_RHO.iter().enumerate() {
        let r = shape.run(sub_seed(seed, 1_000 + j), rho, shape::SWEEP_ARRIVE_MS, 0);
        out.errors.extend(check::report(
            &format!("{} sweep rho {rho}", shape.name),
            &r,
        ));
        digest.word(check::digest_report(&r));
        let p99_ns = quantile_ns(&r.latency, 0.99);
        if p99_ns <= shape.limit_ns() as f64 && r.dropped == 0 && r.in_flight == 0 {
            best = best.max(r.completions as f64 / Shape::measured_secs(shape::SWEEP_ARRIVE_MS));
        }
    }
    best / 1e3
}

/// One `setup_s` sample: host seconds per zero-length run (building
/// the simulator, starting it, and assembling its report), over a
/// batch of [`SETUP_BATCH`] runs.
fn setup_sample(one: &mut dyn FnMut() -> Vec<String>, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        let errs = one();
        out.errors.extend(errs);
    }
    t.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

fn latency_metrics(out: &mut Outcome, h: &Histogram) {
    out.metric("sim_p50_us", quantile_ns(h, 0.5) / 1e3, "us");
    out.metric("sim_p99_us", quantile_ns(h, 0.99) / 1e3, "us");
    out.metric("sim_p999_us", quantile_ns(h, 0.999) / 1e3, "us");
}

fn run_workload(shape: &Shape, args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    out.notes.push(format!("shape: {}", shape.describe()));
    let root = spans.begin(shape.name, "bench", None);

    let setup_shape = Shape {
        arrive_ms: 0,
        drain_ms: 0,
        ..shape.clone()
    };
    let mut setup_run = || {
        let r = setup_shape.run(sub_seed(args.seed, 0), shape.rho, 0, 0);
        if r.is_conserved() {
            Vec::new()
        } else {
            vec![format!("{} setup run not conserved", shape.name)]
        }
    };
    let p = run_passes(shape, args, &mut out, spans, root, &mut setup_run);
    let peak = alloc::peak_heap_mb();
    let setup = calib::estimate(&p.setup, &p.refs);
    let round = &p.round;
    let wall = calib::estimate(&p.untraced, &p.refs);
    let sim_secs = ROUND as f64 * Shape::measured_secs(shape.arrive_ms);
    out.notes.push(format!(
        "passes: {} timed; estimate {wall:.5} s; raw median {:.5} s; reference loop median {:.5} s; \
         {:.3} us host per simulated request",
        p.untraced.len(),
        median(&mut p.untraced.clone()),
        median(&mut p.refs.clone()),
        wall * 1e6 / (round.arrivals as f64 / ROUND as f64)
    ));

    if !args.trace {
        let mut digest = Digest::default();
        digest.word(round.digest());
        let max = max_krps(shape, args.seed, &mut out, &mut digest);
        out.notes.push(format!("digest: {:016x}", digest.value()));
        out.metric("setup_s", setup, "s");
        out.metric("wall_s", wall, "s");
        out.metric("peak_heap_mb", peak, "MB");
        out.metric("heap_allocs", round.allocs as f64, "count");
        latency_metrics(&mut out, &round.latency);
        out.metric(
            "sim_goodput_krps",
            round.good as f64 / sim_secs / 1e3,
            "krps",
        );
        out.metric(
            "sim_preempt_overhead_pct",
            round.cores.preemption_over_work() * 100.0,
            "%",
        );
        out.metric("sim_max_krps", max, "krps");
        spans.end(root);
        return out;
    }

    // Traced run: per-layer counts from the round, single-layer
    // replays over a full event capture, and host spans.
    let traced_wall = calib::estimate(&p.traced, &p.refs);
    let per_req = |name: &str| ratio(round.counter(name), round.arrivals as f64);
    let c = |name: &str| round.counter(name);

    let cap_id = spans.begin("capture", "obs", Some(root));
    let cap = shape.run(
        sub_seed(args.seed, 0),
        shape.rho,
        CAPTURE_ARRIVE_MS,
        CAPTURE_CAPACITY,
    );
    spans.end(cap_id);
    out.errors
        .extend(check::capture(&format!("{} capture", shape.name), &cap));
    let events_per_req = ratio(cap.events.len() as f64, cap.arrivals as f64);

    let id = spans.begin("replay Attribution::observe", "obs", Some(root));
    let observe_ns = layers::attr_observe_ns(&cap, REPLAY_REPS).unwrap_or_else(|e| {
        out.errors.push(e);
        0.0
    });
    spans.end(id);
    let id = spans.begin("replay Metrics::account", "obs", Some(root));
    let account_ns = layers::metrics_account_ns(&cap, REPLAY_REPS).unwrap_or_else(|e| {
        out.errors.push(e);
        0.0
    });
    spans.end(id);
    let id = spans.begin("replay PhasedService::sample", "workload", Some(root));
    let sample_ns = layers::workload_sample_ns(&cap, shape.service(), args.seed, REPLAY_REPS);
    spans.end(id);
    let id = spans.begin("replay Histogram::record", "stats", Some(root));
    let record_ns = layers::stats_record_ns(&cap, REPLAY_REPS);
    spans.end(id);

    // The engine operation mix the run's counters imply: every
    // arrival schedules an arrival and a dispatch event, every slice a
    // finish, every notification a delivery; a preemption cancels the
    // preempted slice's finish, a disarm cancels a deadline check.
    let (pushes, cancels) = match shape.system {
        System::LibPreemptible => (
            2.0 * c("arrivals")
                + c("task_starts")
                + c("deadlines_armed")
                + c("uipi_sent")
                + c("ktimers_armed")
                + c("signals_sent"),
            c("preemptions") + c("deadlines_disarmed"),
        ),
        // Shinjuku also schedules a quantum check per slice (cancelled
        // when the slice finishes first) and a hand-back per preemption.
        System::Shinjuku => (
            2.0 * c("arrivals") + 2.0 * c("task_starts") + 2.0 * c("preemptions"),
            c("task_finishes") + c("preemptions"),
        ),
    };
    let cancel_ratio = ratio(cancels, pushes);
    let wheel_ops_per_req = ratio(2.0 * pushes, round.arrivals as f64);
    let id = spans.begin("replay EventQueue push/cancel/pop", "sim.wheel", Some(root));
    let live = 64 + shape.workers * 4;
    let wheel_ns = layers::wheel_ns_per_op(cancel_ratio, live, REPLAY_REPS);
    spans.end(id);

    // Host time per request the replays account for, against the
    // pass's raw host time per request (replays are timed raw too); the
    // rest is owned by no measured layer (mostly `Model::handle`). Each
    // completion records two histograms (overall and per class).
    let span_ns_per_req =
        median(&mut p.untraced.clone()) * 1e9 / (round.arrivals as f64 / ROUND as f64);
    let owned = (observe_ns + account_ns) * events_per_req
        + wheel_ns * wheel_ops_per_req
        + sample_ns
        + record_ns * 2.0;
    let unowned = 1.0 - owned / span_ns_per_req;

    // The entry-call spans are the traced passes.
    let (run_ms, run_allocs, base_ms, base_allocs) = match shape.system {
        System::LibPreemptible => (traced_wall * 1e3, p.span_allocs as f64, 0.0, 0.0),
        System::Shinjuku => (0.0, 0.0, traced_wall * 1e3, p.span_allocs as f64),
    };
    let sim = round.cores.total_charged().as_nanos() as f64;
    let e2e = round.phases.end_to_end.sum_ns() as f64;
    let sim_run_secs = ROUND as f64 * (shape.arrive_ms + shape.drain_ms) as f64 / 1e3;
    let mut vals: Vec<(&str, f64)> = vec![
        ("runtime.run_ms", run_ms),
        ("runtime.allocs", run_allocs),
        ("baselines.shinjuku_ms", base_ms),
        ("baselines.allocs", base_allocs),
        ("sim.wheel.ns_per_op", wheel_ns),
        ("sim.wheel.ops_per_req", wheel_ops_per_req),
        ("sim.wheel.cancel_ratio", cancel_ratio),
        ("utimer.deadlines_per_req", per_req("deadlines_armed")),
        (
            "utimer.disarm_ratio",
            ratio(c("deadlines_disarmed"), c("deadlines_armed")),
        ),
        ("runtime.preempts_per_req", per_req("preemptions")),
        (
            "runtime.spurious_ratio",
            ratio(
                c("spurious_preemptions"),
                c("preemptions") + c("spurious_preemptions"),
            ),
        ),
        ("hw.uipi_per_req", per_req("uipi_sent")),
        (
            "hw.uipi_delivered_ratio",
            ratio(c("uipi_delivered"), c("uipi_sent")),
        ),
        ("obs.events_per_req", events_per_req),
        ("obs.attr.observe_ns", observe_ns),
        ("obs.metrics.account_ns", account_ns),
        ("obs.events_dropped", cap.events_dropped as f64),
        (
            "retry.retries_per_issue",
            ratio(c("preempt_retries"), c("preempts_issued")),
        ),
        (
            "retry.landed_ratio",
            ratio(c("preempts_landed"), c("preempts_issued")),
        ),
        ("retry.degradations", c("mech_degradations") / sim_run_secs),
        ("retry.brownouts", c("mech_brownouts") / sim_run_secs),
        ("admission.admitted_ratio", per_req("admissions")),
        ("admission.shed_ratio", per_req("sheds")),
        ("fault.injected_per_req", per_req("faults_injected")),
        ("kernel.signals_per_req", per_req("signals_sent")),
        ("workload.sample_ns", sample_ns),
        ("stats.record_ns", record_ns),
    ];
    let core_names: Vec<String> = TIME_CLASSES
        .iter()
        .map(|(_, n)| format!("core.{n}_share"))
        .collect();
    for ((class, _), name) in TIME_CLASSES.iter().zip(&core_names) {
        vals.push((
            name,
            ratio(round.cores.charged(*class).as_nanos() as f64, sim),
        ));
    }
    let attr_names: Vec<String> = Phase::ALL
        .iter()
        .map(|p| format!("attr.{}_share", p.name()))
        .collect();
    for (p, name) in Phase::ALL.iter().zip(&attr_names) {
        vals.push((
            name,
            ratio(round.phases.per_phase[*p as usize].sum_ns() as f64, e2e),
        ));
    }
    vals.push(("unowned_share", unowned));
    vals.push(("trace.wall_s", traced_wall));
    vals.push(("trace.overhead_s", traced_wall - wall));
    layer_metrics(&mut out, &vals);
    spans.end(root);
    out
}

/// Fills in every per-layer metric in [`layers::METRICS`] order, 0 for
/// those `vals` does not name.
fn layer_metrics(out: &mut Outcome, vals: &[(&str, f64)]) {
    for (name, unit, _, _) in layers::METRICS {
        let v = vals
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        out.metric(name, v, unit);
    }
}

/// The fig8 point `paper_quick` reads its simulated latency metrics
/// from: LibPreemptible on workload B at rho 0.8, as fig8 runs it.
fn fig8_point(scale: Scale, seed: u64) -> RunReport {
    let (sys, wl) = (SystemUnderTest::LibPreemptible, PaperWorkload::B);
    lp_experiments::common::run_system(sys, wl, wl.rate_for(0.8, sys.workers()), scale, seed)
}

/// Full-scale runs of the fig8 point, with sub-seeds, whose merged
/// latencies give `paper_quick`'s simulated metrics (one quick-scale
/// point is too short for a steady tail).
const FIG8_POINT_RUNS: usize = 4;

/// The cells of the CSV row whose leading cells are `key`.
fn csv_row<'a>(
    out: &'a [(&'static str, ArtifactOutput)],
    csv: &str,
    key: &[&str],
) -> Option<Vec<&'a str>> {
    let body = out
        .iter()
        .flat_map(|(_, o)| &o.csvs)
        .find(|(n, _)| *n == csv)?
        .1
        .as_str();
    body.lines()
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|cells| cells.starts_with(key))
}

/// Runs every artifact once, each through its own `run_artifacts`
/// call on `jobs` threads, returning the outputs and each artifact's
/// host seconds; with `spans`, each call is a span under the given
/// parent.
fn artifact_pass(
    jobs: usize,
    seed: u64,
    mut spans: Option<(&mut Spans, usize)>,
) -> (Vec<(&'static str, ArtifactOutput)>, Vec<f64>) {
    let (mut outputs, mut secs) = (Vec::new(), Vec::new());
    for a in runner::all_artifacts() {
        let id = spans.as_mut().map(|(s, parent)| {
            s.begin(
                format!("experiments.{}", a.name),
                "experiments",
                Some(*parent),
            )
        });
        let t = Instant::now();
        outputs.extend(runner::with_jobs(jobs, || {
            runner::run_artifacts(std::slice::from_ref(&a), Scale::Quick, seed)
        }));
        secs.push(t.elapsed().as_secs_f64());
        if let (Some((s, _)), Some(id)) = (spans.as_mut(), id) {
            s.end(id);
        }
    }
    (outputs, secs)
}

fn run_paper_quick(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let jobs = nproc();
    out.notes.push(format!(
        "shape: paper_quick: quick-scale `all` artifact list through runner::run_artifacts, \
         LP_JOBS = nproc = {jobs} (the untimed first pass runs serially)"
    ));
    let root = spans.begin("paper_quick", "bench", None);
    let names: Vec<&'static str> = runner::all_artifacts().iter().map(|a| a.name).collect();

    // Set-up: one zero-length run of each simulator the artifacts drive.
    let mut setup_run = || {
        let mut errs = Vec::new();
        for sys in SystemUnderTest::ALL {
            let spec = libpreemptible::WorkloadSpec {
                source: libpreemptible::ServiceSource::Phased(
                    PaperWorkload::A1.service(SimDur::ZERO),
                ),
                arrivals: lp_workload::RateSchedule::Constant(1e5),
                duration: SimDur::ZERO,
                warmup: SimDur::ZERO,
            };
            let r = run_system_spec(sys, PaperWorkload::A1, spec, args.seed);
            if !r.is_conserved() {
                errs.push(format!("{} setup run not conserved", sys.name()));
            }
        }
        errs
    };

    // The first pass runs serially and untimed: its allocation count
    // and heap high-water mark are exact for the seed (on parallel
    // passes they depend on how the threads interleave), and every
    // later, parallel pass must reproduce its outputs byte for byte.
    alloc::reset_peak();
    let a0 = alloc::allocs();
    let (outputs, _) = artifact_pass(1, args.seed, None);
    let allocs = alloc::allocs() - a0;
    let peak = alloc::peak_heap_mb();
    let digest = check::digest_artifacts(&outputs);
    out.attempted += names.len() as u64;
    out.errors.extend(check::artifacts(&names, &outputs));

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setup, mut setup_refs, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut i = 1;
    while i <= MIN_ARTIFACT_PASSES || start.elapsed() < budget {
        // Passes are few and long here, so each takes the median of
        // several reference runs instead of relying on its neighbours.
        let reference = median(
            &mut (0..REFS_PER_ARTIFACT_PASS)
                .map(|_| calib::reference_secs())
                .collect::<Vec<_>>(),
        );
        for _ in 0..SETUP_PER_ARTIFACT_PASS {
            setup.push(setup_sample(&mut setup_run, &mut out));
            setup_refs.push(reference);
        }
        let (o, secs) = artifact_pass(jobs, args.seed, None);
        refs.push(reference);
        out.attempted += names.len() as u64;
        if check::digest_artifacts(&o) != digest {
            out.errors.push(format!(
                "paper_quick pass {i}: outputs differ from the serial first pass"
            ));
        }
        for (t, s) in untraced.iter_mut().zip(secs) {
            t.push(s);
        }
        if args.trace {
            let pass = spans.begin(format!("experiments pass {i}"), "experiments", Some(root));
            let (o, secs) = artifact_pass(jobs, args.seed, Some((&mut *spans, pass)));
            spans.end(pass);
            if check::digest_artifacts(&o) != digest {
                out.errors
                    .push(format!("paper_quick traced pass {i}: outputs differ"));
            }
            for (t, s) in traced.iter_mut().zip(secs) {
                t.push(s);
            }
        }
        i += 1;
    }
    // The list's time is the sum of its artifacts' estimates: a burst
    // of interference then costs only the artifact it hit.
    let wall: f64 = untraced.iter().map(|t| calib::estimate(t, &refs)).sum();
    out.notes.push(format!(
        "passes: {} timed; estimate {wall:.4} s; raw median {:.4} s",
        refs.len(),
        median(
            &mut (0..refs.len())
                .map(|p| untraced.iter().map(|t| t[p]).sum())
                .collect::<Vec<f64>>()
        )
    ));

    if args.trace {
        let traced_wall: f64 = traced.iter().map(|t| calib::estimate(t, &refs)).sum();
        let art_names: Vec<String> = names
            .iter()
            .map(|n| format!("experiments.{n}_ms"))
            .collect();
        let mut vals: Vec<(&str, f64)> = art_names
            .iter()
            .zip(&traced)
            .map(|(n, t)| (n.as_str(), calib::estimate(t, &refs) * 1e3))
            .collect();
        vals.push(("trace.wall_s", traced_wall));
        vals.push(("trace.overhead_s", traced_wall - wall));
        layer_metrics(&mut out, &vals);
        spans.end(root);
        return out;
    }

    // Simulated metrics. The quick-scale fig8 point is re-run for its
    // full report and cross-checked against the CSV row the artifact
    // wrote; the metrics themselves come from full-scale runs of the
    // same point. The max throughput is fig8's own summary row.
    let quick = fig8_point(Scale::Quick, args.seed);
    out.errors.extend(check::report("fig8 point", &quick));
    let row = csv_row(&outputs, "fig8_sweep.csv", &["B", "LibPreemptible", "0.80"]);
    let expect = [
        format!("{:.1}", quick.median_us()),
        format!("{:.1}", quick.p99_us()),
    ];
    if row.as_ref().map(|r| r.get(4..6))
        != Some(Some(&[expect[0].as_str(), expect[1].as_str()][..]))
    {
        out.errors.push(format!(
            "fig8 point: re-run gives {expect:?}, fig8_sweep.csv row is {row:?}"
        ));
    }
    let max = csv_row(&outputs, "fig8_max.csv", &["C", "LibPreemptible"])
        .and_then(|r| r.get(2).and_then(|v| v.parse::<f64>().ok()));
    if max.is_none() {
        out.errors
            .push("fig8_max.csv has no LibPreemptible / C row".into());
    }
    let mut d = Digest::default();
    d.word(digest);
    let (mut latency, mut cores) = (Histogram::new(), CoreClock::new());
    for k in 0..FIG8_POINT_RUNS {
        let r = fig8_point(Scale::Full, sub_seed(args.seed, k));
        out.errors
            .extend(check::report("fig8 full-scale point", &r));
        d.word(check::digest_report(&r));
        latency.merge(&r.latency);
        cores.merge(&r.cores);
    }
    // Goodput against fig8's criterion: 200x the mean service time.
    let limit_ns = 200 * PaperWorkload::B.mean_service().as_nanos();
    let measured = (Scale::Full.point_duration() - Scale::Full.warmup()).as_secs_f64()
        * FIG8_POINT_RUNS as f64;
    out.notes.push(format!("digest: {:016x}", d.value()));
    out.metric("setup_s", calib::estimate(&setup, &setup_refs), "s");
    out.metric("wall_s", wall, "s");
    out.metric("peak_heap_mb", peak, "MB");
    out.metric("heap_allocs", allocs as f64, "count");
    latency_metrics(&mut out, &latency);
    out.metric(
        "sim_goodput_krps",
        latency.count_at_or_below(limit_ns) as f64 / measured / 1e3,
        "krps",
    );
    out.metric(
        "sim_preempt_overhead_pct",
        cores.preemption_over_work() * 100.0,
        "%",
    );
    out.metric("sim_max_krps", max.unwrap_or(0.0), "krps");
    spans.end(root);
    out
}

fn json_result(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let failed = if correct { out.failed } else { out.attempted };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut spans = Spans::new();
    let mut out = match args.workload.as_str() {
        "paper_quick" => run_paper_quick(&args, &mut spans),
        name => {
            let shape = shape::run_shapes()
                .into_iter()
                .find(|s| s.name == name)
                .expect("validated workload");
            run_workload(&shape, &args, &mut spans)
        }
    };
    for (name, v, _) in &out.metrics {
        if !v.is_finite() {
            out.errors.push(format!("metric {name} is not finite"));
        }
    }
    if out.attempted == 0 {
        out.errors.push("no operation attempted".into());
    }
    let printed: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    let expected: Vec<(&str, &str)> = if args.trace {
        layers::METRICS.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    if printed != expected {
        out.errors.push(format!(
            "metrics printed {printed:?}, expected {expected:?}"
        ));
    }
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        if let Err(e) = std::fs::write(path, spans.chrome_json()) {
            out.errors.push(format!("writing {path}: {e}"));
        }
    }

    println!(
        "workload: {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: nproc = {}", nproc());
    for n in &out.notes {
        println!("{n}");
    }
    println!("accuracy: no real-hardware reference beyond the Table IV calibration anchors; no error reported");
    if args.trace {
        for (name, v, unit) in &out.metrics {
            let target = layers::METRICS
                .iter()
                .find(|m| m.0 == name)
                .map_or("", |m| m.3);
            println!("  {name:<28} {v:>16.6} {unit:<6} -> {target}");
        }
    } else {
        for (name, v, unit) in &out.metrics {
            println!("  {name:<28} {v:>16.6} {unit}");
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!("{}", json_result(&out, correct));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\",")),
                "workload {w}"
            );
        }
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}");
            assert!(compact.contains(&entry), "end-to-end entry {entry}");
        }
        for (name, unit, better, _) in layers::METRICS {
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(compact.contains(&entry), "per-layer entry {entry}");
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(
            names,
            WORKLOADS.len() + END_TO_END.len() + layers::METRICS.len(),
            "extra entries"
        );
    }
}
