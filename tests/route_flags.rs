//! `route` turns topology flags no generator can build into an argument
//! error: a failure exit with the reason on stderr, not a panic.

use std::process::Command;

#[test]
fn unbuildable_topology_flags_are_argument_errors() {
    let cases: [(&[&str], &str); 4] = [
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
    ];
    for (args, why) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_route"))
            .args(args)
            .output()
            .expect("route runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited successfully");
        assert!(stderr.contains(why), "{args:?}: stderr was {stderr:?}");
        assert!(
            !stderr.contains("panicked"),
            "{args:?}: stderr was {stderr:?}"
        );
    }
}
