//! The traced run's in-memory ledger: a telemetry sink that keeps every
//! span duration and counter total the program emits, plus the small
//! statistics helpers the workloads share.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gddr_telemetry::{Event, Sink};

/// Durations of one span name, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    /// Every completed span of this name that is not nested inside a
    /// span of the same name.
    pub durations_ns: Vec<u64>,
}

impl SpanLog {
    /// Number of spans.
    pub fn count(&self) -> usize {
        self.durations_ns.len()
    }

    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.durations_ns
            .iter()
            .fold(0.0, |acc, &ns| acc + ns as f64)
            * 1e-9
    }

    /// Median duration in milliseconds (0 when there are no spans).
    pub fn median_ms(&self) -> f64 {
        median(
            &self
                .durations_ns
                .iter()
                .map(|&ns| ns as f64 * 1e-6)
                .collect::<Vec<_>>(),
        )
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    spans: HashMap<String, SpanLog>,
    counters: HashMap<String, u64>,
}

/// A [`Sink`] that aggregates in memory: span durations and counter
/// totals by name. Other events are dropped.
#[derive(Debug, Default)]
pub struct LedgerSink {
    inner: Mutex<LedgerInner>,
}

impl LedgerSink {
    /// An empty ledger.
    pub fn new() -> Arc<Self> {
        Arc::new(LedgerSink::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerInner> {
        self.inner
            .lock()
            .expect("ledger lock is never held across a panic")
    }

    /// The spans recorded under `name` so far.
    pub fn span(&self, name: &str) -> SpanLog {
        self.lock().spans.get(name).cloned().unwrap_or_default()
    }

    /// The total of counter `name` accumulated while installed.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Every span name seen, sorted, with its count and total seconds.
    pub fn span_table(&self) -> Vec<(String, usize, f64)> {
        let inner = self.lock();
        let mut rows: Vec<_> = inner
            .spans
            .iter()
            .map(|(name, log)| (name.clone(), log.count(), log.total_s()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

impl Sink for LedgerSink {
    fn record(&self, event: &Event) {
        let mut inner = self.lock();
        match event {
            // A span re-entered inside itself would be counted twice.
            Event::Span {
                name,
                parent,
                dur_ns,
                ..
            } if parent.as_deref() != Some(name.as_str()) => {
                inner
                    .spans
                    .entry(name.clone())
                    .or_default()
                    .durations_ns
                    .push(*dur_ns);
            }
            Event::Counter { name, delta, .. } => {
                *inner.counters.entry(name.clone()).or_insert(0) += delta;
            }
            _ => {}
        }
    }
}

/// CPU time this process has used so far, summed over its threads
/// (the kernel's `CLOCK_PROCESS_CPUTIME_ID`). A kernel with paravirtual
/// steal accounting leaves out the time a hypervisor gives to other
/// guests, so on a shared host this clock charges a run for its own
/// work only, where the wall clock also charges it for its neighbours.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall and process CPU time of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    /// Elapsed wall-clock time.
    pub wall: Duration,
    /// Process CPU time used, see [`cpu_time`].
    pub cpu: Duration,
}

/// Runs `f` with `sink` installed as the telemetry sink when `traced`,
/// and with no sink otherwise. Returns the result and its times.
pub fn timed<R>(traced: Option<&Arc<LedgerSink>>, f: impl FnOnce() -> R) -> (R, Took) {
    if let Some(sink) = traced {
        gddr_telemetry::install(sink.clone());
    }
    let (start, cpu) = (Instant::now(), cpu_time());
    let out = f();
    let took = Took {
        wall: start.elapsed(),
        cpu: cpu_time() - cpu,
    };
    if traced.is_some() {
        gddr_telemetry::uninstall();
    }
    (out, took)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A report line with the spread of `values`: count and quantiles.
pub fn spread_note(label: &str, values: &[f64]) -> String {
    let qs: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95]
        .iter()
        .map(|&q| format!("p{:.0} {:.2}", q * 100.0, quantile(values, q)))
        .collect();
    format!("{label}: n {} {}", values.len(), qs.join(" "))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The determinism digest: a word-at-a-time multiplicative hash,
/// stable across runs and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf29ce484222325)
    }
}

impl Digest {
    /// Mixes one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .rotate_left(27);
    }

    /// Mixes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
        self.u64(bytes.len() as u64);
    }

    /// Mixes the exact bit pattern of one `f64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MB, from the kernel's
/// `VmHWM` accounting for the process itself.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
