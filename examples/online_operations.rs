//! Operating the quantum internet: online entanglement sessions.
//!
//! Group requests arrive over time, hold switch qubits for their session
//! lifetime, and depart. Admission control routes each request over the
//! residual capacity; a request is blocked when one of its members is
//! still in a session (busy) or when no capacity-respecting tree exists.
//! This sweeps a flat offered load and prints the blocking curve — the
//! Erlang picture of a MUERP-managed network — with the two causes side
//! by side, then sweeps switch memory to show which cause it moves.
//!
//! ```text
//! cargo run --example online_operations --release
//! ```

use muerp::core::extensions::{simulate_stream, StreamConfig, StreamDriver};
use muerp::core::prelude::*;

fn main() {
    // Forty users on the paper's 50 switches. With the default ten, so
    // few groups can be in session at once that busy members block
    // every request long before switch memory binds.
    let net = NetworkSpec::paper_default().with_users(40).build(8);
    println!(
        "Network: {} users, {} switches (Q = 4), {} fibers\n",
        net.user_count(),
        net.switch_count(),
        net.graph().edge_count()
    );

    // A flat load: no diurnal swing, uniform group sizes and members.
    let flat = StreamDriver {
        load: StreamConfig {
            slots: 20_000,
            diurnal_amplitude: 0.0,
            group_size: (2, 4),
            group_alpha: 0.0,
            hold_slots: (10, 40),
            hotspot_fraction: 0.0,
            ..StreamConfig::default()
        },
        ..StreamDriver::default()
    };

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "arrival", "arrived", "busy", "capacity", "block %", "mean active", "session rate"
    );
    for arrival in [0.05, 0.1, 0.2, 0.4, 0.7, 1.0] {
        let mut cfg = flat;
        cfg.load.base_arrival = arrival;
        let stats = simulate_stream(&net, cfg, 7).stats;
        println!(
            "{arrival:<10} {:>10} {:>10} {:>10} {:>9.1}% {:>12.2} {:>14.4e}",
            stats.arrived,
            stats.blocked_no_users,
            stats.blocked_capacity,
            stats.blocking_ratio() * 100.0,
            stats.mean_active_sessions,
            stats.mean_session_rate
        );
    }

    println!("\nSweeping switch memory at arrival 0.7:");
    println!(
        "{:<10} {:>12} {:>16} {:>12}",
        "qubits", "busy @0.7", "capacity @0.7", "mean active"
    );
    for qubits in [2u32, 4, 8, 16] {
        let granted = net.with_uniform_switch_qubits(qubits);
        let mut cfg = flat;
        cfg.load.base_arrival = 0.7;
        let stats = simulate_stream(&granted, cfg, 7).stats;
        println!(
            "{qubits:<10} {:>12} {:>16} {:>12.2}",
            stats.blocked_no_users, stats.blocked_capacity, stats.mean_active_sessions
        );
    }
}
