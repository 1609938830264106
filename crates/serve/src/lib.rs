//! # muerp-serve — batched streaming admission service
//!
//! A long-running admission engine over the seeded open-loop request
//! stream ([`muerp_core::extensions::RequestStream`]): arrivals,
//! departures, and SLO classes are consumed in **batched admission
//! rounds** instead of one request at a time.
//!
//! Each round:
//!
//! 1. applies every due departure — channels released; each cached
//!    run's next lookup nets the returned relays against the relay bits
//!    it is exact for, so a relay that comes back to a run never
//!    repaired without it costs nothing;
//! 2. collects the round's arrivals into a [`BoundedQueue`], shedding
//!    the over-capacity suffix with an exact tally (backpressure);
//! 3. warms the [`ChannelFinderCache`] **once** for all distinct
//!    members of the queued requests (one multi-source batch);
//! 4. orders the queue under a pluggable [`PolicyKind`] — FCFS,
//!    smallest-group-first, or deficit-weighted fairness — and admits
//!    sequentially against shared switch capacity. Each growth step
//!    names the members still outside the tree as its lookups'
//!    targets, so a run the round's reservations made stale is read as
//!    it is when no relay flip since can move those channels, and
//!    repaired otherwise.
//!
//! The headline correctness claim is differential: under FCFS, the
//! batched engine is **decision-equivalent** to the cold sequential
//! per-request oracle ([`sequential_fcfs`]) — the same admit/block
//! sequence with bitwise-identical entanglement trees. That holds
//! because every entry the warm path installs, repairs or revalidates
//! is bitwise equal to cold recomputation, and every scoped answer gives
//! its targets the cold channels (the delta-cache battery in
//! `muerp-core`).
//!
//! [`ChannelFinderCache`]: muerp_core::algorithms::ChannelFinderCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fixture;
pub mod oracle;
pub mod policy;
pub mod queue;

pub use engine::{
    audit_group_tree, serve, serve_requests, ClassTally, Decision, RoundReport, ServeConfig,
    ServeOutcome, ServeStats, Verdict,
};
pub use oracle::sequential_fcfs;
pub use policy::{DeficitState, PolicyKind, CLASS_WEIGHTS};
pub use queue::BoundedQueue;
