//! Hierarchical timing spans.
//!
//! A span records a name, its parent span, the owning thread, and a
//! monotonic start/duration pair. Parent links come from a
//! *thread-local span stack*: [`enter`] pushes the new span as the
//! thread's innermost open span, and the guard's drop pops it back to
//! whatever was innermost before — so a span's parent is always a span
//! opened earlier **on the same thread**, never a span from another
//! thread (`tests/span_tree.rs` hammers this under concurrency).
//!
//! Spans only exist at [`ObsLevel::Full`]; below that, [`enter`] returns
//! an inert guard without touching any shared state. The store is
//! bounded: past `MUERP_OBS_SPAN_CAP` records (default
//! [`DEFAULT_SPAN_CAP`]) new spans are dropped and tallied under the
//! `obs.spans.dropped` counter instead of growing without limit.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::level::{enabled, ObsLevel};

/// Default cap on stored span records; override with
/// `MUERP_OBS_SPAN_CAP`.
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// One finished (or still-open) span as stored in the collector.
#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    /// Static span name, e.g. `core.prim_based.solve`.
    pub name: &'static str,
    /// Index of the parent span in the store, if nested.
    pub parent: Option<usize>,
    /// Arbitrary id distinguishing the recording thread.
    pub thread: u64,
    /// Start offset from the process obs epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds; `None` while the span is open.
    pub duration_us: Option<u64>,
}

struct Store {
    spans: Mutex<Vec<SpanRecord>>,
    epoch: Instant,
    cap: usize,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        spans: Mutex::new(Vec::new()),
        epoch: Instant::now(),
        cap: std::env::var("MUERP_OBS_SPAN_CAP")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SPAN_CAP)
            .max(1),
    })
}

thread_local! {
    /// Innermost open span on this thread (index into the store).
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
            id.set(NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        }
        id.get()
    })
}

/// The obs-internal id of the calling thread (also stamped onto spans
/// and trace events recorded by this thread).
pub(crate) fn current_thread_id() -> u64 {
    thread_id()
}

/// Microseconds elapsed since the process obs epoch — the shared
/// timebase of span `start_us` offsets and trace-event timestamps.
pub(crate) fn micros_since_epoch() -> u64 {
    Instant::now().duration_since(store().epoch).as_micros() as u64
}

/// Guard returned by [`enter`]; ends the span when dropped.
///
/// The inert form (level below `Full`, or a capped-out store) carries no
/// state and its drop is a no-op.
#[must_use = "a span ends when its guard drops; bind it to a variable"]
pub struct SpanGuard {
    /// Live state when the span was actually recorded.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    /// Index of this span's record in the store.
    index: usize,
    /// Start instant (duration source; `start_us` is derived separately).
    start: Instant,
    /// The thread's innermost open span when this one was entered; the
    /// drop restores it, popping the thread-local span stack.
    prev: Option<usize>,
    /// Thread the span was opened on. A guard that migrates to another
    /// thread (scoped-thread moves, async executors) still closes its
    /// span, but must not touch the *other* thread's span stack.
    thread: u64,
}

/// Opens a span named `name` under the innermost open span of this
/// thread. Returns an inert guard below [`ObsLevel::Full`] or when the
/// span store has reached its cap (tallied as `obs.spans.dropped`).
pub fn enter(name: &'static str) -> SpanGuard {
    if !enabled(ObsLevel::Full) {
        return SpanGuard { live: None };
    }
    let store = store();
    let start = Instant::now();
    let prev = CURRENT.with(|c| c.get());
    let thread = thread_id();
    let record = SpanRecord {
        name,
        parent: prev,
        thread,
        start_us: start.duration_since(store.epoch).as_micros() as u64,
        duration_us: None,
    };
    let index = {
        let mut spans = store.spans.lock();
        if spans.len() >= store.cap {
            drop(spans);
            crate::counter!("obs.spans.dropped");
            return SpanGuard { live: None };
        }
        spans.push(record);
        spans.len() - 1
    };
    CURRENT.with(|c| c.set(Some(index)));
    SpanGuard {
        live: Some(LiveSpan {
            index,
            start,
            prev,
            thread,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(LiveSpan {
            index,
            start,
            prev,
            thread,
        }) = self.live.take()
        else {
            return;
        };
        let elapsed = start.elapsed().as_micros() as u64;
        let store = store();
        {
            let mut spans = store.spans.lock();
            if let Some(record) = spans.get_mut(index) {
                record.duration_us = Some(elapsed);
            }
        }
        // Pop the span stack of the *opening* thread only: restoring the
        // saved `prev` on a different thread would graft that thread's
        // next spans under a parent it never opened (a cross-thread
        // parent link).
        if thread_id() == thread {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// Copies out every recorded span (open spans have `duration_us: None`).
pub(crate) fn snapshot_spans() -> Vec<SpanRecord> {
    store().spans.lock().clone()
}

/// Clears the span store. Open guards from before the reset will write
/// their duration into whatever record now occupies their index, so only
/// reset between runs, not mid-span ([`crate::Capture::begin`] does; the
/// servebench harness clears spans alone between its traced replays).
pub fn reset_spans() {
    store().spans.lock().clear();
    CURRENT.with(|c| c.set(None));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capture;

    #[test]
    fn spans_nest_and_record_parents() {
        let _capture = Capture::begin(ObsLevel::Full);
        {
            let _outer = enter("test.span.outer");
            {
                let _inner = enter("test.span.inner");
            }
            let _sibling = enter("test.span.sibling");
        }
        let spans = snapshot_spans();
        assert_eq!(spans.len(), 3);
        let outer = spans
            .iter()
            .position(|s| s.name == "test.span.outer")
            .unwrap();
        let inner = &spans[spans
            .iter()
            .position(|s| s.name == "test.span.inner")
            .unwrap()];
        let sibling = &spans[spans
            .iter()
            .position(|s| s.name == "test.span.sibling")
            .unwrap()];
        assert_eq!(spans[outer].parent, None);
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(
            sibling.parent,
            Some(outer),
            "parent restored after inner closed"
        );
        assert!(spans.iter().all(|s| s.duration_us.is_some()));
    }

    #[test]
    fn below_full_no_spans_are_recorded() {
        let _capture = Capture::begin(ObsLevel::Counters);
        {
            let _g = enter("test.span.suppressed");
        }
        assert!(snapshot_spans().is_empty());
    }

    #[test]
    fn guard_dropped_on_another_thread_never_links_stacks() {
        let _capture = Capture::begin(ObsLevel::Full);
        {
            let _outer = enter("test.span.migrating_outer");
            let inner = enter("test.span.migrated");
            // Ship the guard to a second thread and drop it there. The
            // span still closes, but the dropping thread must not
            // inherit this thread's span stack: its own next span has to
            // be a root, not a child of `migrating_outer`.
            std::thread::spawn(move || {
                drop(inner);
                let _foreign = enter("test.span.foreign_root");
            })
            .join()
            .unwrap();
        }
        let spans = snapshot_spans();
        let migrated = spans
            .iter()
            .find(|s| s.name == "test.span.migrated")
            .unwrap();
        let foreign = spans
            .iter()
            .find(|s| s.name == "test.span.foreign_root")
            .unwrap();
        assert!(migrated.duration_us.is_some(), "migrated span closed");
        assert_eq!(
            foreign.parent, None,
            "a guard dropped on a foreign thread must not seed that \
             thread's span stack (cross-thread parent link)"
        );
        for s in &spans {
            if let Some(p) = s.parent {
                assert_eq!(spans[p].thread, s.thread, "parents stay same-thread");
            }
        }
    }
}
