//! Host-time spans recorded around the benchmark's calls into each
//! layer, kept in memory and written at exit as Chrome trace-event
//! JSON (opens in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    allocs: u64,
}

/// The span log of one benchmark run.
pub struct Spans {
    origin: Instant,
    open_allocs: Vec<u64>,
    list: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            open_allocs: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Opens a span; returns its id for [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        self.list.push(Span {
            name: name.into(),
            layer,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent,
            allocs: 0,
        });
        self.open_allocs.push(crate::alloc::allocs());
        self.list.len() - 1
    }

    /// Closes span `id` (spans close innermost first); returns its
    /// duration in seconds and the heap allocations made inside it.
    pub fn end(&mut self, id: usize) -> (f64, u64) {
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let a0 = self.open_allocs.pop().expect("end without begin");
        let s = &mut self.list[id];
        s.dur_us = now_us - s.start_us;
        s.allocs = crate::alloc::allocs() - a0;
        (s.dur_us / 1e6, s.allocs)
    }

    /// The log as a Chrome trace-event document: one complete (`X`)
    /// event per span on one track, with the layer as its category and
    /// its id, parent, and allocation count as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.list.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"allocs\":{}}}}}",
                s.name, s.layer, s.start_us, s.dur_us, s.allocs
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
