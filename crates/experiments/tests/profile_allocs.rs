//! Allocation counting is live in a profiling build: this binary
//! installs the counting allocator as `repro` does, and a profiled run
//! must tally allocations. Built only with the `alloc-profile` feature:
//!
//! ```text
//! cargo test --release -p muerp-experiments --features alloc-profile --test profile_allocs
//! ```

#![cfg(feature = "alloc-profile")]

#[global_allocator]
static ALLOC: qnet_obs::CountingAllocator = qnet_obs::CountingAllocator;

#[test]
fn a_profiled_run_counts_its_allocations() {
    let run =
        muerp_experiments::profile::run_scenario("paper-default", 2024).expect("known scenario");
    let profile = run.report.profile.as_ref().expect("profile attached");
    let alloc = profile.alloc.expect("alloc tallies recorded");
    assert!(alloc.allocs > 0, "allocation counting inert");
}
