//! # qnet-obs — workspace-wide observability
//!
//! A zero-heavy-dependency instrumentation layer shared by every crate
//! in the MUERP workspace: the graph substrate counts Dijkstra/Yen
//! work, the solvers emit span trees and channel-rejection counters,
//! the simulator aggregates per-slot outcomes, and the experiments
//! runner snapshots everything into machine-readable run reports under
//! `results/obs/`.
//!
//! ## Switch
//!
//! The global level is read once from the `MUERP_OBS` environment
//! variable:
//!
//! | value      | spans | counters/histograms | trace events | typical cost             |
//! |------------|-------|---------------------|--------------|--------------------------|
//! | `off`      | no    | no                  | no           | one relaxed atomic load  |
//! | `counters` | no    | yes                 | no           | a few atomic adds        |
//! | `full`     | yes   | yes                 | no           | + one mutex op per span  |
//! | `trace`    | yes   | yes                 | yes          | + one mutex op per event |
//!
//! Unset defaults to `counters`. [`set_level`] overrides the variable at
//! runtime. A [`Capture`] sets the level for one run, zeroes the global
//! sinks and hands back the run's [`RunReport`]; `repro`, the
//! `obs_overhead` bench and every test that reads the sinks take one.
//!
//! At `trace`, every solver decision (channel candidates, tree-growth
//! rounds, beam prunes, local-search moves) and every bridged protocol
//! step lands in the [flight recorder](FlightRecorder) — a
//! fixed-capacity, generation-stamped ring exported as JSONL next to
//! the run reports. [`diff_reports`] compares two serialized
//! [`RunReport`]s and powers the `repro obs-diff` regression gate.
//!
//! For sustained-load runs, the [`timeseries`](TimeSeries) module adds
//! windowed metrics over a deterministic virtual clock (per-window
//! rates, gauges, and latency quantiles, frozen into schema-4 reports
//! and a JSONL metrics stream), and [`TraceSampler`] thins
//! per-admission trace emission 1-in-N so the flight recorder covers
//! the whole run instead of its tail.
//!
//! ## Naming convention
//!
//! Metrics are `<crate>.<component>.<name>` (e.g. `graph.dijkstra.calls`,
//! `core.channel.rejected`). Labels are static key/value pairs:
//! `core.channel.rejected{reason=qubit_capacity}`.
//!
//! ## Quick tour
//!
//! ```
//! use qnet_obs::{span, counter, histogram, Capture, ObsLevel};
//!
//! let capture = Capture::begin(ObsLevel::Full);
//! {
//!     let _solve = span!("docs.example.solve");
//!     counter!("docs.example.calls");
//!     counter!("docs.channel.rejected", reason = "qubit_capacity");
//!     histogram!("docs.slot.duration_us", 17);
//! }
//! let report = capture.finish("doctest");
//! assert_eq!(report.counter_total("docs.example.calls"), 1);
//! let json = report.to_json();
//! assert!(serde_json::to_string(&json).unwrap().contains("docs.example.solve"));
//! ```

// The crate is `unsafe`-free except for the one `GlobalAlloc` impl the
// `alloc-profile` feature brings in (see `alloc.rs`).
#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod capture;
mod chrome_trace;
mod diff;
mod level;
mod profile;
mod registry;
mod report;
mod sample;
mod span;
mod timeseries;
mod trace;

#[cfg(feature = "alloc-profile")]
pub use alloc::CountingAllocator;
pub use alloc::{alloc_profiling_compiled, peak_rss_bytes, AllocScope};
pub use capture::Capture;
pub use chrome_trace::{chrome_trace_value, write_chrome_trace};
pub use diff::{diff_reports, DiffEntry, DiffKind, DiffOptions, ReportDiff, Severity};
pub use level::{enabled, level, set_level, ObsLevel};
pub use profile::{AllocSummary, ProfileRow, ProfileSection};
pub use registry::{
    global, quantiles_from_buckets, Counter, CounterSnapshot, Histogram, HistogramSnapshot,
    MetricKey, Registry,
};
pub use report::{write_report, RunReport, SpanSnapshot, SCHEMA_VERSION};
pub use sample::TraceSampler;
pub use span::{enter, reset_spans, SpanGuard, DEFAULT_SPAN_CAP};
pub use timeseries::{
    prometheus_text, write_metrics_jsonl, write_prometheus, TimeSeries, TimeSeriesConfig,
    TimeSeriesSection, WindowHistogram, WindowSnapshot,
};
pub use trace::{
    record_event, recorder, set_trace_capacity, trace_enabled, trace_snapshot, write_trace_jsonl,
    FlightRecorder, Stamped, TraceEvent, DEFAULT_TRACE_CAPACITY,
};

/// Increments a named counter when the level admits counters.
///
/// The counter handle is resolved once per call site and cached in a
/// `OnceLock`, so the steady-state cost is one relaxed level load plus
/// one relaxed `fetch_add`. An optional static label refines the metric:
///
/// ```
/// qnet_obs::counter!("core.alg1.runs");
/// qnet_obs::counter!("core.channel.rejected", reason = "disconnected");
/// qnet_obs::counter!("sim.slot.success"; 42); // add an explicit amount
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal $(, $key:ident = $value:literal)? $(,)?) => {
        $crate::counter!($name $(, $key = $value)?; 1)
    };
    ($name:literal $(, $key:ident = $value:literal)?; $amount:expr) => {{
        if $crate::enabled($crate::ObsLevel::Counters) {
            static __HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
                ::std::sync::OnceLock::new();
            __HANDLE
                .get_or_init(|| {
                    $crate::global().counter($crate::MetricKey {
                        name: $name,
                        label: $crate::counter!(@label $($key = $value)?),
                    })
                })
                .add($amount);
        }
    }};
    (@label) => {
        ::core::option::Option::None
    };
    (@label $key:ident = $value:literal) => {
        ::core::option::Option::Some((stringify!($key), $value))
    };
}

/// Records a value into a named log-bucketed histogram when the level
/// admits counters.
///
/// ```
/// qnet_obs::histogram!("sim.slot.duration_us", 125);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr $(,)?) => {{
        if $crate::enabled($crate::ObsLevel::Counters) {
            static __HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            __HANDLE
                .get_or_init(|| {
                    $crate::global().histogram($crate::MetricKey {
                        name: $name,
                        label: ::core::option::Option::None,
                    })
                })
                .record($value);
        }
    }};
}

/// Opens a hierarchical timing span, closed when the returned guard
/// drops. A no-op (no allocation, no lock) below [`ObsLevel::Full`].
///
/// ```
/// let _guard = qnet_obs::span!("core.prim_based.solve");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::enter($name)
    };
}
