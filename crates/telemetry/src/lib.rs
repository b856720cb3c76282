//! # gddr-telemetry
//!
//! Zero-dependency (std + `gddr-ser`) telemetry for the GDDR
//! reproduction: scoped **spans** with wall-clock timing and
//! hierarchical parent tracking, a **metrics registry** of counters /
//! gauges / fixed-bucket histograms, and a pluggable **sink** layer
//! that streams every observation as an [`Event`] — to memory for
//! tests, or to a JSONL file whose lines serialise via `gddr-ser` and
//! parse back losslessly.
//!
//! ## Overhead policy
//!
//! Instrumentation is compiled in unconditionally and gated by one
//! global flag:
//!
//! - **Disabled** (default, no sink installed): every call —
//!   [`span`], [`counter_add`], [`gauge_set`], [`histogram_record`],
//!   [`emit`] — short-circuits on a single relaxed atomic load. No
//!   clock reads, no allocation, no locks. Hot paths (`DdrEnv::step`,
//!   the simplex pivot loop) therefore pay effectively nothing when
//!   telemetry is off; per-solve statistics that must always be
//!   available (oracle cache hits, pivot counts) live in their owning
//!   structs instead.
//! - **Enabled** ([`install`]): updates aggregate into the global
//!   [`Registry`] (read-locked name lookup + lock-free atomics) and
//!   stream to the installed [`Sink`]. Instrumentation sits at
//!   call/phase granularity (one span per env step, per LP solve, per
//!   PPO phase), never inside inner numeric loops.
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! use gddr_telemetry as telemetry;
//!
//! let sink = Arc::new(telemetry::MemorySink::new());
//! telemetry::install(sink.clone());
//! {
//!     let _span = telemetry::span("example.work");
//!     telemetry::counter_add("example.items", 3);
//! }
//! telemetry::uninstall();
//! assert!(sink.events().iter().any(|e| e.name() == "example.work"));
//! let snapshot = telemetry::registry().snapshot();
//! assert_eq!(snapshot.counter("example.items"), Some(3));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub mod event;
pub mod hdr;
pub mod metrics;
pub mod progress;
pub mod ring;
pub mod sink;
pub mod slo;
mod span;
pub mod trace;

pub use event::{parse_jsonl, Event};
pub use hdr::{bucket_width, HdrSnapshot, LogHistogram};
pub use metrics::{HistogramSnapshot, MetricsSnapshot, Registry};
pub use progress::Reporter;
pub use ring::{FlightRecorder, FlightRecorderConfig};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink, TeeSink};
pub use slo::{SloAlertInfo, SloConfig, SloTracker};
pub use span::{detached, SpanGuard};
pub use trace::{now_us, trace_annotation_event, trace_span_event, TraceCtx};

/// Fast-path gate: true iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink, if any.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Bumped on every [`install`] / [`uninstall`] so per-thread sink
/// caches know when to refresh (see [`dispatch`]).
static SINK_GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread `(generation, sink)` cache: the enabled-path cost of
    /// [`dispatch`] is one atomic load + one thread-local borrow
    /// instead of a contended `RwLock` read per event.
    static SINK_CACHE: RefCell<(u64, Option<Arc<dyn Sink>>)> = const { RefCell::new((0, None)) };
}

/// Whether telemetry is currently enabled (a sink is installed).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the global event receiver and enables
/// instrumentation. Replaces (and flushes) any previous sink.
pub fn install(sink: Arc<dyn Sink>) {
    let previous = {
        let mut slot = SINK.write().expect("telemetry sink lock");
        let previous = slot.replace(sink);
        SINK_GENERATION.fetch_add(1, Ordering::Release);
        previous
    };
    ENABLED.store(true, Ordering::Relaxed);
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Disables instrumentation and removes the sink, flushing and
/// returning it so callers can inspect buffered state (e.g. a
/// [`MemorySink`]) or keep a JSONL file complete.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let sink = {
        let mut slot = SINK.write().expect("telemetry sink lock");
        let sink = slot.take();
        SINK_GENERATION.fetch_add(1, Ordering::Release);
        sink
    };
    ENABLED.store(false, Ordering::Relaxed);
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// The global metrics registry. Always available; only populated while
/// telemetry is enabled.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Forwards an event to the installed sink, if any.
///
/// The hot path avoids the `SINK` `RwLock` entirely: each thread
/// caches the sink `Arc` tagged with the install generation, and only
/// refreshes (taking the read lock once) after an [`install`] /
/// [`uninstall`] bumps the generation. Per-event cost is therefore an
/// atomic load plus an `Arc` clone.
pub(crate) fn dispatch(event: &Event) {
    let generation = SINK_GENERATION.load(Ordering::Acquire);
    let sink = SINK_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.0 != generation {
            *cache = (
                generation,
                SINK.read().expect("telemetry sink lock").clone(),
            );
        }
        cache.1.clone()
    });
    if let Some(sink) = sink {
        sink.record(event);
    }
}

/// Opens a scoped span; timing is recorded when the returned guard
/// drops. Near-zero cost when telemetry is disabled.
///
/// Guards must drop in LIFO order on their creating thread — the
/// natural consequence of binding them to a scope:
///
/// ```
/// let _span = gddr_telemetry::span("lp.simplex.solve");
/// // ... work ...
/// ```
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::enabled(name)
}

/// Adds `delta` to the counter `name` and streams the increment.
/// No-op when telemetry is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add(name, delta);
    dispatch(&Event::Counter {
        name: name.to_string(),
        delta,
        total,
    });
}

/// Sets the gauge `name` and streams the update. No-op when telemetry
/// is disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    registry().gauge_set(name, value);
    dispatch(&Event::Gauge {
        name: name.to_string(),
        value,
    });
}

/// Records one histogram observation and streams it. No-op when
/// telemetry is disabled.
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    registry().histogram_record(name, value);
    dispatch(&Event::Histogram {
        name: name.to_string(),
        value,
    });
}

/// Emits the typed event built by `make`: bumps its kind's paired
/// counter (see [`Event::counter`]) and streams that [`Event::Counter`]
/// before the event itself. When telemetry is disabled this returns
/// after one relaxed load, so `make` — and any allocation inside it —
/// never runs.
///
/// ```
/// use gddr_telemetry::{emit, Event};
/// emit(|| Event::LpFallback {
///     strategy: "bland_retry".to_string(),
///     degraded: false,
/// });
/// ```
#[inline]
pub fn emit(make: impl FnOnce() -> Event) {
    if is_enabled() {
        emit_enabled(make);
    }
}

/// The enabled half of [`emit`], kept out of line so building, counting
/// and dropping the event does not grow the caller's hot code.
#[inline(never)]
fn emit_enabled(make: impl FnOnce() -> Event) {
    let event = make();
    if let Some((name, delta)) = event.counter() {
        counter_add(name, delta);
    }
    dispatch(&event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::ToJson;
    use std::sync::Mutex;

    /// Serialises tests that touch the global sink/registry: unit tests
    /// in this crate run concurrently in one process.
    static GLOBAL_GUARD: Mutex<()> = Mutex::new(());

    fn with_global<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        registry().clear();
        let result = f();
        uninstall();
        registry().clear();
        result
    }

    #[test]
    fn disabled_calls_are_inert() {
        with_global(|| {
            assert!(!is_enabled());
            let _span = span("inert");
            counter_add("inert.counter", 1);
            gauge_set("inert.gauge", 1.0);
            histogram_record("inert.hist", 1.0);
            drop(_span);
            assert_eq!(registry().snapshot().counter("inert.counter"), None);
        });
    }

    #[test]
    fn memory_sink_captures_span_hierarchy() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            uninstall();
            let events = sink.events();
            // Inner closes first.
            let spans: Vec<&Event> = events
                .iter()
                .filter(|e| matches!(e, Event::Span { .. }))
                .collect();
            assert_eq!(spans.len(), 2);
            match spans[0] {
                Event::Span {
                    name,
                    parent,
                    depth,
                    ..
                } => {
                    assert_eq!(name, "inner");
                    assert_eq!(parent.as_deref(), Some("outer"));
                    assert_eq!(*depth, 1);
                }
                other => panic!("expected span, got {other:?}"),
            }
            match spans[1] {
                Event::Span {
                    name,
                    parent,
                    depth,
                    ..
                } => {
                    assert_eq!(name, "outer");
                    assert_eq!(*parent, None);
                    assert_eq!(*depth, 0);
                }
                other => panic!("expected span, got {other:?}"),
            }
        });
    }

    #[test]
    fn detached_spans_are_roots_and_the_outer_stack_returns() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            {
                let _outer = span("outer");
                detached(|| {
                    let _inner = span("detached");
                });
                let _after = span("after");
            }
            uninstall();
            let spans: Vec<(String, Option<String>, u64)> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::Span {
                        name,
                        parent,
                        depth,
                        ..
                    } => Some((name, parent, depth)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                spans,
                vec![
                    ("detached".to_string(), None, 0),
                    ("after".to_string(), Some("outer".to_string()), 1),
                    ("outer".to_string(), None, 0),
                ]
            );
        });
    }

    #[test]
    fn spans_aggregate_into_registry() {
        with_global(|| {
            install(Arc::new(NoopSink));
            {
                let _s = span("agg.work");
            }
            {
                let _s = span("agg.work");
            }
            let snap = registry().snapshot();
            assert_eq!(snap.counter("span.agg.work.count"), Some(2));
            assert!(snap.counter("span.agg.work.total_ns").unwrap() > 0);
        });
    }

    #[test]
    fn metrics_stream_and_aggregate() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            counter_add("m.count", 2);
            counter_add("m.count", 3);
            gauge_set("m.gauge", 7.5);
            histogram_record("m.hist", 4.0);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("m.count"), Some(5));
            assert_eq!(snap.gauge("m.gauge"), Some(7.5));
            assert_eq!(snap.histogram("m.hist").unwrap().count, 1);
            uninstall();
            let events = sink.events();
            assert_eq!(events.len(), 4);
            assert!(matches!(
                &events[1],
                Event::Counter {
                    total: 5,
                    delta: 3,
                    ..
                }
            ));
        });
    }

    #[test]
    fn uninstall_returns_the_sink_and_disables() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink);
            assert!(is_enabled());
            let back = uninstall().expect("sink was installed");
            assert!(!is_enabled());
            // Downcasting is not needed: the caller keeps its own Arc.
            back.flush();
            assert!(uninstall().is_none());
        });
    }

    /// With no sink installed, `emit` never builds its event.
    #[test]
    fn lifecycle_events_are_inert_when_disabled() {
        with_global(|| {
            emit(|| panic!("emit built an event while telemetry was disabled"));
            trace_annotation_event(TraceCtx::mint(0, 1), "fleet.admitted", 0, &[]);
            assert_eq!(registry().snapshot(), MetricsSnapshot::default());
        });
    }

    /// The committed golden stream: every sample's encoded line, then
    /// the lines `emit` streams into a `MemorySink` on a cleared
    /// registry for each counter-bearing sample (its `Counter`, then
    /// itself).
    #[test]
    fn emitted_events_match_the_golden_stream() {
        let mut stream = String::new();
        for event in event::samples() {
            stream += &(event.to_json().to_string() + "\n");
        }
        for event in event::samples() {
            if event.counter().is_none() {
                continue;
            }
            with_global(|| {
                let sink = Arc::new(MemorySink::new());
                install(sink.clone());
                emit(|| event.clone());
                uninstall();
                assert_eq!(sink.events().len(), 2, "one counter + one typed event");
                for line in sink.events() {
                    stream += &(line.to_json().to_string() + "\n");
                }
            });
        }
        assert_eq!(stream, include_str!("../tests/golden_events.jsonl"));
    }

    #[test]
    fn every_kind_has_a_sample() {
        let samples = event::samples();
        for (kind, counter) in event::KINDS {
            let sample = samples
                .iter()
                .find(|e| e.kind() == *kind)
                .unwrap_or_else(|| panic!("no sample of kind {kind:?}"));
            assert_eq!(sample.counter().map(|(name, _)| name), *counter);
        }
    }

    #[test]
    fn trace_events_stream_without_counter_events() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            let ctx = TraceCtx::mint(3, 17);
            assert!(ctx.is_traced());
            trace_annotation_event(ctx, "fleet.admitted", now_us(), &[]);
            trace_span_event(
                ctx,
                "serve.infer",
                now_us(),
                1_000,
                &[("batch_size", "4".to_string())],
            );
            // Untraced contexts are silently dropped.
            trace_annotation_event(TraceCtx::default(), "fleet.admitted", 0, &[]);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("serve.trace_annotations"), Some(1));
            assert_eq!(snap.counter("serve.trace_spans"), Some(1));
            uninstall();
            let events = sink.events();
            // Aggregates go straight to the registry — no Counter
            // events double the traced stream.
            assert_eq!(events.len(), 2);
            assert!(matches!(
                &events[0],
                Event::TraceAnnotation { trace_id, shard: 3, .. } if *trace_id == ctx.trace_id
            ));
            assert!(matches!(&events[1], Event::TraceSpan { dur_ns: 1_000, .. }));
        });
    }

    #[test]
    fn minted_trace_ids_are_unique_and_nonzero() {
        let a = TraceCtx::mint(0, 0);
        let b = TraceCtx::mint(0, 0);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert!(!TraceCtx::default().is_traced());
    }

    /// Micro-bench for the generation-cached dispatch path; run with
    /// `cargo test -p gddr-telemetry --release -- --ignored
    /// --nocapture dispatch_throughput`.
    #[test]
    #[ignore = "micro-bench, run manually"]
    fn dispatch_throughput() {
        with_global(|| {
            install(Arc::new(NoopSink));
            let event = Event::Counter {
                name: "bench.dispatch".to_string(),
                delta: 1,
                total: 1,
            };
            const N: u32 = 5_000_000;
            // Warm the cache.
            for _ in 0..1_000 {
                dispatch(&event);
            }
            let start = std::time::Instant::now();
            for _ in 0..N {
                dispatch(&event);
            }
            let elapsed = start.elapsed();
            println!(
                "dispatch: {N} events in {elapsed:?} ({:.1} ns/event)",
                elapsed.as_nanos() as f64 / f64::from(N)
            );
        });
    }

    #[test]
    #[ignore = "micro-bench, run manually"]
    fn dispatch_throughput_mt() {
        with_global(|| {
            install(Arc::new(NoopSink));
            const N: u32 = 2_000_000;
            const T: usize = 8;
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for _ in 0..T {
                    s.spawn(|| {
                        let event = Event::Counter {
                            name: "bench.dispatch".to_string(),
                            delta: 1,
                            total: 1,
                        };
                        for _ in 0..N {
                            dispatch(&event);
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            println!(
                "dispatch mt: {} events across {T} threads in {elapsed:?} ({:.1} ns/event)",
                N as u64 * T as u64,
                elapsed.as_nanos() as f64 / (f64::from(N) * T as f64)
            );
        });
    }

    #[test]
    fn doc_example_flow() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            {
                let _span = span("example.work");
                counter_add("example.items", 3);
            }
            uninstall();
            assert!(sink.events().iter().any(|e| e.name() == "example.work"));
            let snapshot = registry().snapshot();
            assert_eq!(snapshot.counter("example.items"), Some(3));
        });
    }
}
