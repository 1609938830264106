//! The paper's routing algorithms (§IV) and comparison baselines (§V-A).
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 — maximum entanglement-rate channel | [`max_rate_channel`], [`ChannelFinder`] |
//! | Algorithm 2 — optimal under `Q ≥ 2·\|U\|` | [`OptimalSufficient`] |
//! | Algorithm 3 — conflict-free heuristic | [`ConflictFree`] |
//! | Algorithm 4 — Prim-based heuristic | [`PrimBased`] |
//! | E-Q-CAST (extended \[12\]) | [`baselines::EQCast`] |
//! | N-FUSION (MP-P \[32\] with capacity) | [`baselines::NFusion`] |

pub mod baselines;
mod beam;
mod channel_finder;
mod conflict_free;
mod k_channels;
pub mod local_search;
mod optimal;
mod prim_based;

pub use beam::BeamSearch;
pub use channel_finder::{
    max_rate_channel, CacheEfficiency, ChannelFinder, ChannelFinderCache, ChannelSource,
    ScopedFinder,
};
pub use conflict_free::{ConflictFree, RetentionPolicy};
pub use k_channels::k_best_channels_in;
pub use local_search::{refine, LocalSearchOptions, Refined};
pub use optimal::{all_pairs_best_channels, OptimalSufficient};
pub(crate) use prim_based::{attach, best_cross_channel};
pub use prim_based::{PrimBased, SeedChoice};
