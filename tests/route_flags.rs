//! `route` turns topology flags no generator can build, and physics
//! outside the range Eq. 1 is defined for, into an argument error: exit
//! 1 with the reason on stderr, not a panic.

use std::process::Command;

#[test]
fn unbuildable_topology_flags_are_argument_errors() {
    let cases: [(&[&str], &str); 6] = [
        (&["--degree", "100"], "asks for 3000 edges"),
        (
            &["--switches", "1", "--users", "0"],
            "need at least two nodes",
        ),
        (
            &["--topology", "watts-strogatz", "--degree", "5"],
            "even integer average degree",
        ),
        (&["--degree", "nan"], "finite and non-negative"),
        (
            &["--swap", "1.5"],
            "swap success must be in [0, 1], got 1.5",
        ),
        (
            &["--swap", "nan"],
            "swap success must be in [0, 1], got NaN",
        ),
    ];
    for (args, why) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_route"))
            .args(args)
            .output()
            .expect("route runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited successfully");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {:?}", out.status);
        assert!(stderr.contains(why), "{args:?}: stderr was {stderr:?}");
        assert!(
            !stderr.contains("panicked"),
            "{args:?}: stderr was {stderr:?}"
        );
    }
}
