//! Span-tree causality under concurrency, plus the golden Chrome-trace
//! fixture.
//!
//! The first half hammers the thread-local span stack from many threads
//! and asserts the structural invariants the Chrome exporter and the
//! attribution layer build on: parents precede children, every parent
//! link stays on one thread, and nesting depths match what each thread
//! actually opened. The second half pins the `trace.json` on-disk
//! format (`tests/golden/trace.json`) and validates it against the
//! Chrome trace-event schema's required keys.
//!
//! Regenerate the golden after an intentional exporter change with
//! `UPDATE_GOLDEN=1 cargo test -p qnet-obs --test span_tree`.

use std::path::PathBuf;

use qnet_obs::{Capture, ObsLevel, RunReport, SpanSnapshot, Stamped, TraceEvent, SCHEMA_VERSION};

const THREADS: usize = 8;
const REPEATS: usize = 200;

#[test]
fn concurrent_span_nesting_never_crosses_threads() {
    let capture = Capture::begin(ObsLevel::Full);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..REPEATS {
                    let _outer = qnet_obs::span!("test.tree.outer");
                    {
                        let _mid = qnet_obs::span!("test.tree.mid");
                        let _leaf = qnet_obs::span!("test.tree.leaf");
                    }
                    let _sibling = qnet_obs::span!("test.tree.sibling");
                }
            });
        }
    });

    let report = capture.finish("span-tree-concurrency");
    let spans = &report.spans;
    let expected = THREADS * REPEATS * 4;
    assert_eq!(spans.len(), expected, "no span lost or duplicated");

    let mut roots_per_thread: std::collections::HashMap<u64, usize> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => {
                assert_eq!(s.name, "test.tree.outer", "only outer spans are roots");
                *roots_per_thread.entry(s.thread).or_default() += 1;
            }
            Some(p) => {
                assert!(p < i, "parents precede children in the store");
                let parent = &spans[p];
                assert_eq!(
                    parent.thread, s.thread,
                    "span {i} ({}) links to a parent on another thread",
                    s.name
                );
                // The tree each thread built: mid and sibling under
                // outer, leaf under mid.
                let expected_parent = match s.name.as_str() {
                    "test.tree.mid" | "test.tree.sibling" => "test.tree.outer",
                    "test.tree.leaf" => "test.tree.mid",
                    other => panic!("unexpected nested span {other}"),
                };
                assert_eq!(parent.name, expected_parent, "span {i} mis-nested");
            }
        }
    }
    assert_eq!(
        roots_per_thread.len(),
        THREADS,
        "each worker got its own track"
    );
    for (thread, roots) in roots_per_thread {
        assert_eq!(roots, REPEATS, "thread {thread} lost a root span");
    }
}

#[test]
fn concurrent_spans_export_to_balanced_chrome_tracks() {
    let capture = Capture::begin(ObsLevel::Full);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..50 {
                    let _outer = qnet_obs::span!("test.track.outer");
                    let _inner = qnet_obs::span!("test.track.inner");
                }
            });
        }
    });

    let report = capture.finish("span-tracks");
    let trace = qnet_obs::chrome_trace_value(&report, &[]);
    let events = trace.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    // Per-tid B/E balance, never negative — regardless of how the OS
    // interleaved the workers.
    let mut depth: std::collections::HashMap<u64, i64> = Default::default();
    for ev in events {
        let Some(tid) = ev.get("tid").and_then(|t| t.as_u64()) else {
            panic!("event without tid: {ev}");
        };
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("B") => *depth.entry(tid).or_default() += 1,
            Some("E") => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "E before B on tid {tid}");
            }
            _ => {}
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace.json")
}

/// A fixed report + flight-recorder pair covering every exporter
/// branch: nested spans, a second thread, an overlong child (clamped),
/// and two instant events.
fn fixture() -> (RunReport, Vec<Stamped>) {
    let report = RunReport {
        schema_version: SCHEMA_VERSION,
        run: "golden-trace".into(),
        level: "trace".into(),
        spans: vec![
            SpanSnapshot {
                name: "core.prim_based.solve".into(),
                parent: None,
                thread: 1,
                start_us: 100,
                duration_us: 900,
            },
            SpanSnapshot {
                name: "core.prim_based.round".into(),
                parent: Some(0),
                thread: 1,
                start_us: 120,
                duration_us: 300,
            },
            SpanSnapshot {
                // Ends 20µs after its parent — the exporter clamps it.
                name: "core.channel.finder_run".into(),
                parent: Some(0),
                thread: 1,
                start_us: 500,
                duration_us: 520,
            },
            SpanSnapshot {
                name: "exp.runner.mean_rates".into(),
                parent: None,
                thread: 2,
                start_us: 90,
                duration_us: 1500,
            },
        ],
        counters: vec![],
        histograms: vec![],
        profile: None,
        timeseries: None,
    };
    let events = vec![
        Stamped {
            seq: 0,
            ts_us: 130,
            thread: 1,
            event: TraceEvent::TreeStep {
                algo: "alg4",
                round: 1,
                source: 3,
                destination: 9,
                rate: 0.25,
                epoch: 4,
            },
        },
        Stamped {
            seq: 1,
            ts_us: 140,
            thread: 2,
            event: TraceEvent::BeamRound {
                round: 2,
                expanded: 12,
                kept: 5,
            },
        },
    ];
    (report, events)
}

fn render(report: &RunReport, events: &[Stamped]) -> String {
    let value = qnet_obs::chrome_trace_value(report, events);
    let mut text = serde_json::to_string_pretty(&value).expect("trace serializes");
    text.push('\n');
    text
}

#[test]
fn golden_trace_matches_the_exporter() {
    let (report, events) = fixture();
    let expected = render(&report, &events);
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &expected).unwrap();
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "trace.json format drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_trace_satisfies_the_trace_event_schema() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the file is being rewritten; the next run reads it
    }
    let on_disk = std::fs::read_to_string(golden_path()).expect("golden file present");
    let trace = serde_json::from_str(&on_disk).expect("golden trace is valid JSON");

    // Top level: the JSON-object form of the format — a traceEvents
    // array plus displayTimeUnit.
    let events = trace
        .get("traceEvents")
        .and_then(|e: &serde_json::Value| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert_eq!(
        trace.get("displayTimeUnit").and_then(|u| u.as_str()),
        Some("ms")
    );

    for ev in events {
        // Keys every duration/instant/metadata event must carry.
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
        assert!(ev.get("pid").and_then(|p| p.as_u64()).is_some());
        assert!(ev.get("tid").and_then(|t| t.as_u64()).is_some());
        match ph {
            "B" | "E" | "i" => {
                assert!(ev.get("ts").and_then(|t| t.as_u64()).is_some(), "{ev}");
                if ph == "i" {
                    assert_eq!(
                        ev.get("s").and_then(|s| s.as_str()),
                        Some("t"),
                        "instants are thread-scoped"
                    );
                }
            }
            "M" => {
                assert!(
                    ev.get("args").and_then(|a| a.get("name")).is_some(),
                    "metadata events name their process/thread: {ev}"
                );
            }
            other => panic!("unexpected phase {other}"),
        }
    }

    // The fixture's overlong child must have been clamped inside its
    // parent: every E on tid 1 nests.
    let mut stack: Vec<u64> = Vec::new();
    for ev in events {
        if ev.get("tid").and_then(|t| t.as_u64()) != Some(1) {
            continue;
        }
        let ts = ev.get("ts").and_then(|t| t.as_u64());
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("B") => stack.push(ts.unwrap()),
            Some("E") => {
                let began = stack.pop().expect("balanced");
                assert!(ts.unwrap() >= began, "span ends before it begins");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "tid 1 track is balanced");
}
