//! Scoped spans: wall-clock timing with hierarchical parent tracking.
//!
//! [`crate::span`] returns a guard; dropping it emits an
//! [`Event::Span`] carrying the duration, the enclosing span's name
//! (tracked per thread) and the nesting depth, and adds the duration to
//! the registry counters `span.<name>.count` / `span.<name>.total_ns`
//! so aggregate time attribution is available without replaying the
//! event stream.
//!
//! Guards are cheap to create when telemetry is disabled (one relaxed
//! atomic load, no clock read) and must be dropped in LIFO order on the
//! thread that created them (the natural result of scoping them).

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use crate::event::Event;

/// The process telemetry epoch: all span start times are microseconds
/// since the first telemetry call.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost
    /// first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's open spans set aside, so that spans
/// opened inside it are roots, as on a freshly spawned thread. The outer
/// spans are restored afterwards, also when `f` unwinds.
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = std::mem::take(&mut self.0);
            SPAN_STACK.with(|stack| *stack.borrow_mut() = outer);
        }
    }
    let _restore = Restore(SPAN_STACK.with(|stack| std::mem::take(&mut *stack.borrow_mut())));
    f()
}

/// Live state of an enabled span.
struct ActiveSpan {
    name: &'static str,
    parent: Option<&'static str>,
    depth: u64,
    start: Instant,
    start_us: u64,
}

/// RAII guard recording a span when dropped. Inert (near-zero cost)
/// when telemetry was disabled at creation time.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// An inert guard (telemetry disabled).
    pub(crate) fn disabled() -> Self {
        SpanGuard(None)
    }

    /// Opens a live span and pushes it on the thread's stack.
    pub(crate) fn enabled(name: &'static str) -> Self {
        let (parent, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            let depth = stack.len() as u64;
            stack.push(name);
            (parent, depth)
        });
        let start = Instant::now();
        let start_us = start.duration_since(epoch()).as_micros() as u64;
        SpanGuard(Some(ActiveSpan {
            name,
            parent,
            depth,
            start,
            start_us,
        }))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.0.take() else {
            return;
        };
        let dur_ns = span.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(
                stack.last().copied(),
                Some(span.name),
                "span guards must drop in LIFO order"
            );
            stack.pop();
        });
        // Aggregate totals survive even if the sink is swapped out
        // between span open and close.
        let registry = crate::registry();
        registry.counter_add(&format!("span.{}.count", span.name), 1);
        registry.counter_add(&format!("span.{}.total_ns", span.name), dur_ns);
        crate::dispatch(&Event::Span {
            name: span.name.to_string(),
            parent: span.parent.map(str::to_string),
            depth: span.depth,
            start_us: span.start_us,
            dur_ns,
        });
    }
}
