//! `repro` reads `MUERP_OBS` once, at start-up, and a value that names
//! no level is an error: exit 1 with the value on stderr, before any
//! suite runs or any report is written.

use std::path::Path;
use std::process::Command;

#[test]
fn a_misspelt_obs_level_exits_1_and_names_the_value() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-env");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig5", "--trials", "1", "--obs-report"])
        .env("MUERP_OBS", "tarce")
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("tarce"), "stderr: {stderr}");
    assert!(
        !dir.join("results").exists(),
        "no report may be written at a level nobody asked for"
    );
}
