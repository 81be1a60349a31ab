//! Correctness checks on what the simulator returns, the digest that
//! lets two runs be compared exactly, and the latency quantile the
//! benchmark reports.

use libpreemptible::RunReport;
use lp_experiments::runner::ArtifactOutput;
use lp_hw::TimeClass;
use lp_stats::{Histogram, DEFAULT_PRECISION_BITS};

/// Every simulated core-time class, with the name its share is
/// reported under.
pub const TIME_CLASSES: [(TimeClass, &str); 5] = [
    (TimeClass::Work, "work"),
    (TimeClass::Preemption, "preempt"),
    (TimeClass::Dispatch, "dispatch"),
    (TimeClass::TimerPoll, "timer_poll"),
    (TimeClass::Kernel, "kernel"),
];

/// Checks one run report: every arrival accounted for, and every
/// pinned exemplar's phase breakdown summing to its latency. Returns
/// one message per violation.
pub fn report(label: &str, r: &RunReport) -> Vec<String> {
    let mut errs = Vec::new();
    if !r.is_conserved() {
        errs.push(format!(
            "{label}: conservation broken: {} arrivals != {} completed + {} dropped + {} in flight",
            r.arrivals, r.completions, r.dropped, r.in_flight
        ));
    }
    if r.completions == 0 {
        errs.push(format!("{label}: no request completed"));
    }
    for ex in r.phases.exemplars() {
        if ex.phase_sum() != ex.latency_ns {
            errs.push(format!(
                "{label}: exemplar fiber {} phases sum to {} ns, latency is {} ns",
                ex.fiber,
                ex.phase_sum(),
                ex.latency_ns
            ));
        }
    }
    errs
}

/// Checks a run whose event stream was captured in full.
pub fn capture(label: &str, r: &RunReport) -> Vec<String> {
    let mut errs = report(label, r);
    if r.events_dropped != 0 {
        errs.push(format!(
            "{label}: {} events dropped from the capture",
            r.events_dropped
        ));
    }
    if r.events.is_empty() {
        errs.push(format!("{label}: captured no events"));
    }
    errs
}

/// Checks the artifact list: every expected artifact present in
/// order, with at least one non-empty table, and every CSV holding a
/// header and at least one row.
pub fn artifacts(expected: &[&str], out: &[(&'static str, ArtifactOutput)]) -> Vec<String> {
    let mut errs = Vec::new();
    let names: Vec<&str> = out.iter().map(|(n, _)| *n).collect();
    if names != expected {
        errs.push(format!("artifacts: expected {expected:?}, got {names:?}"));
    }
    for (name, o) in out {
        if o.tables.is_empty() || o.tables.iter().any(|t| t.is_empty()) {
            errs.push(format!("artifact {name}: empty table"));
        }
        for (csv, body) in &o.csvs {
            if body.lines().filter(|l| !l.trim().is_empty()).count() < 2 {
                errs.push(format!("artifact {name}: {csv} has no data rows"));
            }
        }
    }
    errs
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in (length-prefixed).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a run's simulated results: conservation totals, every
/// counter, every latency and phase histogram bucket, the exemplars,
/// and the simulated core-time accounting.
pub fn digest_report(r: &RunReport) -> u64 {
    let mut d = Digest::default();
    for w in [
        r.arrivals,
        r.completions,
        r.dropped,
        r.in_flight,
        r.oldest_inflight_ns,
    ] {
        d.word(w);
    }
    d.word(r.preemptions);
    d.word(r.spurious_preemptions);
    for (name, v) in &r.metrics.counters {
        d.text(name);
        d.word(*v);
    }
    for (name, v) in &r.metrics.gauges {
        d.text(name);
        d.word(v.to_bits());
    }
    hist(&mut d, &r.latency);
    for h in r
        .phases
        .per_phase
        .iter()
        .chain(std::iter::once(&r.phases.end_to_end))
    {
        for (lo, hi, n) in h.buckets() {
            d.word(lo);
            d.word(hi);
            d.word(n);
        }
    }
    for ex in r.phases.exemplars() {
        d.word(u64::from(ex.fiber));
        d.word(ex.latency_ns);
        d.word(ex.finished_at_ns);
        for p in ex.phase_ns {
            d.word(p);
        }
    }
    for (class, _) in TIME_CLASSES {
        d.word(r.cores.charged(class).as_nanos());
    }
    d.value()
}

fn hist(d: &mut Digest, h: &Histogram) {
    for (v, n) in h.iter() {
        d.word(v);
        d.word(n);
    }
}

/// Digest of an artifact list's outputs: names, CSVs, and rendered
/// tables.
pub fn digest_artifacts(out: &[(&'static str, ArtifactOutput)]) -> u64 {
    let mut d = Digest::default();
    for (name, o) in out {
        d.text(name);
        for (csv, body) in &o.csvs {
            d.text(csv);
            d.text(body);
        }
        for t in &o.tables {
            d.text(&t.render());
        }
    }
    d.value()
}

/// Quantile `q` of `h`, in ns: the nearest-rank bucket, with the
/// rank's position inside it mapped linearly across the bucket's
/// width. Unlike the bucket midpoint alone, the estimate moves with
/// the counts inside a 1%-wide bucket.
pub fn quantile_ns(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil().max(1.0);
    let mut seen = 0u64;
    for (mid, c) in h.iter() {
        if (seen + c) as f64 >= rank {
            // Buckets are exact below 2^bits; above, each octave is
            // split into 2^bits buckets (see `lp_stats::Histogram`).
            let msb = 63 - mid.leading_zeros();
            let width = if mid < 1 << DEFAULT_PRECISION_BITS {
                1
            } else {
                1u64 << (msb - DEFAULT_PRECISION_BITS)
            };
            let lo = (mid - width / 2) as f64;
            let frac = (rank - seen as f64) / c as f64;
            return (lo + width as f64 * frac).clamp(h.min() as f64, h.max() as f64);
        }
        seen += c;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_hw::CoreClock;
    use lp_sim::SimDur;

    fn conserved_report() -> RunReport {
        let mut latency = Histogram::new();
        latency.record_n(10_000, 100);
        RunReport {
            system: "test".into(),
            offered_rps: 100.0,
            duration: SimDur::secs(1),
            arrivals: 100,
            completions: 100,
            dropped: 0,
            in_flight: 0,
            oldest_inflight_ns: 0,
            latency,
            latency_by_class: vec![],
            preemptions: 0,
            spurious_preemptions: 0,
            cores: CoreClock::new(),
            per_worker: vec![],
            timer_core: CoreClock::new(),
            latency_series: vec![],
            qps_series: None,
            quantum_series: None,
            slo_series: None,
            final_quantum: SimDur::ZERO,
            metrics: Default::default(),
            events: vec![],
            events_dropped: 0,
            phases: Default::default(),
        }
    }

    #[test]
    fn a_conserved_report_passes() {
        assert!(report("ok", &conserved_report()).is_empty());
    }

    #[test]
    fn a_report_that_breaks_conservation_is_flagged() {
        let mut r = conserved_report();
        r.completions = 90;
        let errs = report("lossy", &r);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("conservation"), "{errs:?}");
    }

    #[test]
    fn a_capture_with_dropped_events_is_flagged() {
        let mut r = conserved_report();
        r.events_dropped = 3;
        assert!(capture("ring", &r)
            .iter()
            .any(|e| e.contains("events dropped")));
    }

    #[test]
    fn digest_sees_a_single_counter_change() {
        let a = conserved_report();
        let mut b = conserved_report();
        b.preemptions = 1;
        assert_ne!(digest_report(&a), digest_report(&b));
        assert_eq!(digest_report(&a), digest_report(&conserved_report()));
    }

    #[test]
    fn quantile_interpolates_inside_the_crossing_bucket() {
        let mut h = Histogram::new();
        h.record_n(1_000, 50);
        h.record_n(2_000, 50);
        h.record(5_000);
        let p50 = quantile_ns(&h, 0.5);
        assert!((p50 - h.quantile(0.5) as f64).abs() / p50 < 0.01, "{p50}");
        // Both ranks fall in the 2000 ns bucket, at different depths.
        let (p75, p99) = (quantile_ns(&h, 0.75), quantile_ns(&h, 0.99));
        assert!(p75 < p99, "{p75} {p99}");
        assert!((p99 - 2_000.0).abs() / 2_000.0 < 0.01, "{p99}");
        assert_eq!(quantile_ns(&h, 1.0), 5_000.0);
    }
}
