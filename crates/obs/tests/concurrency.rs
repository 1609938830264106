//! Concurrency guarantees: counters and histograms accept increments
//! from many threads without losing a single event.
//!
//! Each test holds a [`Capture`] for its run, so the tests in this
//! binary take turns on the global registry and level.

use qnet_obs::{global, Capture, MetricKey, ObsLevel};

const THREADS: usize = 8;
const INCREMENTS: u64 = 25_000;

#[test]
fn concurrent_counter_increments_are_exact() {
    let capture = Capture::begin(ObsLevel::Counters);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..INCREMENTS {
                    qnet_obs::counter!("test.concurrency.hits");
                }
            });
        }
    });

    let report = capture.finish("concurrency");
    assert_eq!(
        report.counter_total("test.concurrency.hits"),
        THREADS as u64 * INCREMENTS,
        "every increment from every thread must be observed exactly once"
    );
}

#[test]
fn concurrent_labeled_counters_stay_separate() {
    let capture = Capture::begin(ObsLevel::Counters);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for _ in 0..INCREMENTS {
                    if t % 2 == 0 {
                        qnet_obs::counter!("test.concurrency.rejected", reason = "even");
                    } else {
                        qnet_obs::counter!("test.concurrency.rejected", reason = "odd");
                    }
                }
            });
        }
    });

    let per_label = (THREADS as u64 / 2) * INCREMENTS;
    let even = global()
        .counter(MetricKey {
            name: "test.concurrency.rejected",
            label: Some(("reason", "even")),
        })
        .get();
    let odd = global()
        .counter(MetricKey {
            name: "test.concurrency.rejected",
            label: Some(("reason", "odd")),
        })
        .get();
    assert_eq!(even, per_label);
    assert_eq!(odd, per_label);
    let report = capture.finish("concurrency-labels");
    assert_eq!(
        report.counter_total("test.concurrency.rejected"),
        THREADS as u64 * INCREMENTS,
        "totals across labels must merge without loss"
    );
}

#[test]
fn concurrent_histogram_records_are_exact() {
    let _capture = Capture::begin(ObsLevel::Counters);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for v in 0..INCREMENTS {
                    qnet_obs::histogram!("test.concurrency.latency_us", v);
                }
            });
        }
    });

    let h = global().histogram(MetricKey {
        name: "test.concurrency.latency_us",
        label: None,
    });
    let n = THREADS as u64 * INCREMENTS;
    assert_eq!(h.count(), n);
    // Each thread records 0..INCREMENTS, summing to I*(I-1)/2.
    let per_thread_sum = INCREMENTS * (INCREMENTS - 1) / 2;
    assert_eq!(h.sum(), THREADS as u64 * per_thread_sum);
}

#[test]
fn off_level_records_nothing() {
    let capture = Capture::begin(ObsLevel::Off);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..100 {
                    qnet_obs::counter!("test.concurrency.dark");
                    qnet_obs::histogram!("test.concurrency.dark_us", 1);
                }
            });
        }
    });

    let report = capture.finish("off");
    assert_eq!(report.counter_total("test.concurrency.dark"), 0);
    assert!(report.histograms.is_empty());
}
