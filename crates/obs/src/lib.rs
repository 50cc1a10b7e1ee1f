//! # groupview-obs — causal spans, metrics registry, exporters
//!
//! Unified observability for the groupview workspace:
//!
//! * **Causal spans** ([`SpanRec`], [`Phase`]): each atomic action's
//!   lifecycle is broken into phases (bind → probe → lock → invoke /
//!   multicast → prepare → commit, or undo). Protocol layers record
//!   completed spans in virtual time at their existing choke points.
//! * **Metrics registry** ([`Registry`], [`Counter`]): per-world counters
//!   and span storage with a `Cell`-based lock-free hot path. Disabled by
//!   default; when disabled every recording call is an inlined early
//!   return that performs **zero allocations** (asserted by the objects
//!   bench), so observability costs nothing unless switched on.
//! * **Snapshots** ([`MetricsSnapshot`], [`Histogram`]): one world's
//!   counters, per-phase latency distributions, per-node loads and
//!   wire-pool stats, as a scenario report carries them. [`Histogram`]
//!   keeps every sample and answers exact nearest-rank percentiles; run
//!   metrics use it too.
//! * **Exporters** ([`ChromeTrace`], [`span_jsonl`]): Chrome trace-event
//!   JSON that loads directly in Perfetto (one track per node, one per
//!   phase), JSONL span dumps, and a plain-text per-phase latency
//!   breakdown for scenario reports. A Chrome trace is checked as it is
//!   built: its shape holds by construction, and rendering refuses a
//!   timestamp that goes back in time on its track, with no parser and no
//!   external tools.
//!
//! Determinism contract: recording reads the *virtual* clock only, draws
//! no randomness, and schedules nothing — an observed run is bit-for-bit
//! identical (virtual times, metrics, RNG draw count) to an unobserved run
//! of the same seed. A parity test pins this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod phase;
mod registry;
mod snapshot;

pub use export::{escape_json, span_jsonl, ChromeTrace, TraceSummary, PHASE_TID_BASE};
pub use metrics::Histogram;
pub use phase::Phase;
pub use registry::{Counter, NodeLoad, Registry, SpanRec};
pub use snapshot::MetricsSnapshot;
