//! # aivril-obs — structured observability for the AIVRIL2 reproduction
//!
//! The telemetry substrate shared by every crate in the workspace:
//!
//! * [`Recorder`] — a cheap-to-clone handle carrying hierarchical
//!   [`Span`]s (with stage/iteration attributes) and per-run journals.
//!   A disabled recorder is a branch-on-`None` no-op, so instrumented
//!   hot paths cost nothing when telemetry is off.
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket
//!   [`Histogram`]s keyed by `(name, labels)`, with an associative,
//!   order-independent `merge()`: per-worker registries fold into
//!   bit-identical aggregates for any `AIVRIL_THREADS`.
//! * Exporters — [`render_journal`] (schema-versioned JSONL, one line
//!   per span close) and [`chrome_trace`] (Chrome `trace_event` JSON,
//!   viewable in Perfetto). Both are driven entirely off modeled
//!   latencies, never the wall clock, so output is reproducible.
//! * [`codec`] — a deterministic token codec (floats as exact bit
//!   patterns, total decoding) and the FNV-64 [`codec::seal`] for
//!   durable records: on-disk EDA cache entries, shard checkpoint
//!   cells and serve journal lines.
//! * [`applog`] — the append-only log behind the shard checkpoints and
//!   the serve journal: byte-level valid-prefix scan, torn-tail
//!   truncation and an explicit policy for foreign files.
//! * [`faultplan`] — the one grammar of `AIVRIL_FAULTS` and
//!   `AIVRIL_EDA_FAULTS`, and the class pick both fault planes roll.
//! * [`siphash`] — the pinned SipHash-1-3 behind the EDA cache keys
//!   and every seeded draw (content plans, fault rolls, backoff
//!   jitter), independent of std's unspecified `DefaultHasher`.
//! * [`analyze`] — the read side: total parsers for the journal and
//!   `aivril.results` artifacts plus the deterministic report
//!   renderers ([`summary`], [`diff`], [`flame`], [`regress`]) behind
//!   the `aivril-inspect` tool.
//!
//! The determinism contract is documented on the [`metrics`] module;
//! the span/run/fork model on the [`recorder`] module.

#![warn(missing_docs)]

pub mod analyze;
pub mod applog;
pub mod chrome;
pub mod codec;
pub mod faultplan;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod siphash;

pub use analyze::{
    attribution, diff, flame, parse_artifact, parse_journal, parse_results, regress, summary,
    Artifact, DiffOutcome, JournalDoc, RegressOutcome, ResultsDoc, SpanNode,
};
pub use chrome::chrome_trace;
pub use journal::{render_event, render_journal, DIAGNOSTIC_ATTRS, JOURNAL_VERSION};
pub use metrics::{Histogram, MetricKey, MetricValue, MetricsRegistry, DIAGNOSTIC_METRIC_PREFIXES};
pub use recorder::{AttrValue, Recorder, RunJournal, Span, SpanEvent, UNSCOPED};
