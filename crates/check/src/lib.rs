//! # lp-check — machine-checked guardrails for the reproduction
//!
//! Every result in this repository rests on two unchecked promises:
//!
//! 1. **Determinism** — the simulator is byte-deterministic (same seed,
//!    same JSONL trace, pinned by `tests/observability.rs`). One
//!    `std::collections::HashMap` iteration or `Instant::now()` on a
//!    sim path silently breaks it.
//! 2. **Observability pairing** — every hardware/kernel state mutation
//!    that matters emits an event from the `docs/TRACING.md`
//!    vocabulary, so metrics can never drift from the model.
//!
//! `lp-check` turns both promises (plus the `unsafe` hygiene and
//! concurrency rules) into a CI gate with four engines:
//!
//! * [`lint`] — a token/line-level analyzer over all `crates/*/src`
//!   files enforcing the declared rule table in [`rules`], with
//!   per-site `// lp-check: allow(<rule>, <reason>)` suppressions and
//!   JSON + human diagnostics.
//! * [`model`] — an exhaustive-interleaving checker (bounded DFS with
//!   optional partial-order reduction) that drives the *real*
//!   [`UintrDomain`](lp_hw::uintr::UintrDomain) API through every
//!   schedule of small sender/receiver programs and asserts the UPID
//!   ON/SN/PIR protocol invariants on every path.
//! * [`lifecycle`] — a sleep-set DPOR explorer over the runtime's
//!   watchdog retry/degrade/recover machine and steal-shaped queue
//!   programs.
//! * [`race`] — a vector-clock happens-before race detector over the
//!   deterministic `lp_sim::obs` event stream ([`hb`] holds the
//!   graph).
//!
//! Run them from the workspace root:
//!
//! ```sh
//! cargo run -p lp-check -- lint     # determinism/observability linter
//! cargo run -p lp-check -- model    # exhaustive UINTR + lifecycle check
//! cargo run -p lp-check -- race --trace results/traces/figr.jsonl
//! cargo run -p lp-check -- all      # lint + model; nonzero exit on any finding
//! ```
//!
//! The rule catalogue and invariant list live in `docs/CHECKS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hb;
pub mod lifecycle;
pub mod lint;
pub mod model;
pub mod race;
pub mod rules;

/// Version of the compound `--json` schemas emitted by the CLI (`all`,
/// `model`, `race`). Bump when keys move; `tests/static_analysis.rs`
/// pins the `all` shape against a golden key-path list.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// The combined `all --json` payload: lint findings plus both model
/// checkers, under a top-level schema version. The CLI prints this
/// verbatim; the tier-1 golden test re-derives it through this same
/// function so binary and gate cannot drift.
pub fn all_json(
    lint: &lint::LintReport,
    upid: &model::ModelReport,
    lc: &lifecycle::LifecycleReport,
) -> String {
    format!(
        "{{\"version\":{JSON_SCHEMA_VERSION},\"lint\":{},\"model\":{},\"lifecycle\":{}}}",
        lint.to_json(),
        upid.to_json(),
        lc.to_json()
    )
}
