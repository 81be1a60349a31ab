//! The host-speed reference: a fixed, benchmark-owned loop timed next
//! to every measured pass.
//!
//! The shared host this benchmark runs on drifts in speed by 10-40%
//! over minutes, without any steal time showing, as neighbours contend
//! for caches and memory. A median over passes cannot remove a drift
//! that lasts the whole run, so each pass's time is divided by the time
//! of this reference loop measured right beside it. The loop is a small
//! discrete-event simulation written against the standard library only
//! (a binary heap of timed events, a FIFO, a per-worker array, and an
//! xorshift generator): it stresses what the simulator stresses, and it
//! does not change when the repository's code does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Events the reference loop processes.
const EVENTS: u64 = 400_000;

/// The reference loop's nominal time: normalised host seconds are
/// seconds on a host where the loop takes exactly this long (about
/// what it takes on the 2-core host the benchmark was defined on).
const NOMINAL_SECS: f64 = 0.02;

/// Host seconds `secs`, measured beside a reference-loop run of
/// `reference` seconds, expressed at the nominal host speed.
fn normalise(secs: f64, reference: f64) -> f64 {
    secs / reference * NOMINAL_SECS
}

/// The benchmark's host-time estimate from paired samples: each
/// measured time normalised by the reference-loop times measured
/// around it (the median over a window of [`WINDOW`] neighbours, so
/// one disturbed reference run does not skew its pass), then the 10th
/// percentile of those. Interference on a shared host only ever adds
/// time, in bursts shorter than a pass; the low percentile keeps the
/// undisturbed passes and the normalisation removes the slower drift
/// of the host's speed. On the 2-core host the benchmark was defined
/// on, this cut the spread of the estimate over ten runs from 8-20%
/// (raw median) to 1-10%.
pub fn estimate(secs: &[f64], references: &[f64]) -> f64 {
    let n = secs.len().min(references.len());
    if n == 0 {
        return 0.0;
    }
    let mut norm: Vec<f64> = (0..n)
        .map(|i| {
            let lo = i.saturating_sub(WINDOW / 2);
            let hi = (lo + WINDOW).min(n);
            let mut window = references[hi.saturating_sub(WINDOW)..hi].to_vec();
            normalise(secs[i], crate::median(&mut window))
        })
        .collect();
    norm.sort_by(f64::total_cmp);
    norm[(n - 1) / 10]
}

/// Reference-loop runs a normalisation takes the median of.
const WINDOW: usize = 9;

/// Host seconds of one run of the reference loop.
pub fn reference_secs() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(256);
    let mut queue: VecDeque<(u64, u64)> = VecDeque::with_capacity(4_096);
    let mut busy = [0u64; 8];
    for id in 0..128u64 {
        heap.push(Reverse((next() % 1_000, id)));
    }
    for _ in 0..EVENTS {
        let Reverse((now, id)) = heap.pop().expect("standing population");
        let r = next();
        match r % 4 {
            0 if queue.len() < 4_096 => queue.push_back((now, id)),
            1 => {
                if let Some((at, _)) = queue.pop_front() {
                    busy[(id % 8) as usize] += now - at;
                }
            }
            _ => busy[(r % 8) as usize] ^= r,
        }
        heap.push(Reverse((now + 1 + r % 2_000, id)));
    }
    black_box((&heap, &queue, &busy));
    t.elapsed().as_secs_f64()
}
