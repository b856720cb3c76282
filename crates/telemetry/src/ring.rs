//! The flight recorder: an always-on, bounded, sharded ring-buffer
//! [`Sink`] plus postmortem dumps.
//!
//! Production and chaos runs cannot afford (or want) a full JSONL
//! stream, but when something breaks the *recent* event history is
//! exactly what a postmortem needs. [`FlightRecorder`] keeps the last
//! `capacity` events per ring shard under per-shard mutexes (events
//! carrying a shard id hash to "their" ring, so one noisy shard cannot
//! evict another's history), stamped with a global sequence number so
//! a dump interleaves shards back into true arrival order.
//!
//! A dump — triggered automatically the first time a configured event
//! kind (e.g. `slo_alert`) is recorded, or manually on a chaos
//! assertion failure — writes a replayable JSONL artifact: one
//! [`Event::Message`] header describing the trigger, then the buffered
//! events oldest-first. The triggering event is always the final line,
//! since it is the newest thing in the buffer. The artifact parses
//! with [`crate::parse_jsonl`], so every existing tool (including
//! `telemetry_check`'s lossless gate) works on postmortems.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use gddr_ser::ToJson;

use crate::event::Event;
use crate::sink::Sink;

/// Configuration for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightRecorderConfig {
    /// Ring shards (events hash across them by owning shard id).
    pub rings: usize,
    /// Events retained per ring shard.
    pub capacity: usize,
    /// Event kinds that trigger an automatic dump (first occurrence
    /// wins; later triggers are ignored so the artifact captures the
    /// *initial* failure).
    pub dump_on: Vec<String>,
    /// Where the automatic dump is written.
    pub dump_path: Option<PathBuf>,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            rings: 8,
            capacity: 256,
            dump_on: Vec::new(),
            dump_path: None,
        }
    }
}

/// FNV-1a over a short string (ring placement for shard-less events).
fn kind_hash(kind: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in kind.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Bounded sharded ring-buffer sink. Cheap enough to stay installed
/// for every production and chaos run: recording is one atomic
/// fetch-add, one uncontended per-ring mutex, one clone, no I/O.
pub struct FlightRecorder {
    config: FlightRecorderConfig,
    rings: Vec<Mutex<VecDeque<(u64, Event)>>>,
    seq: AtomicU64,
    dumped: AtomicBool,
}

impl FlightRecorder {
    /// A recorder with the given configuration.
    pub fn new(config: FlightRecorderConfig) -> Self {
        let rings = (0..config.rings.max(1))
            .map(|_| Mutex::new(VecDeque::with_capacity(config.capacity)))
            .collect();
        FlightRecorder {
            config,
            rings,
            seq: AtomicU64::new(0),
            dumped: AtomicBool::new(false),
        }
    }

    /// A recorder that auto-dumps to `path` on the first event whose
    /// kind is in `dump_on`.
    pub fn with_dump(path: impl Into<PathBuf>, dump_on: &[&str]) -> Self {
        FlightRecorder::new(FlightRecorderConfig {
            dump_on: dump_on.iter().map(|k| (*k).to_string()).collect(),
            dump_path: Some(path.into()),
            ..FlightRecorderConfig::default()
        })
    }

    fn ring_for(&self, event: &Event) -> &Mutex<VecDeque<(u64, Event)>> {
        let key = event.shard().unwrap_or_else(|| kind_hash(event.kind()));
        &self.rings[(key % self.rings.len() as u64) as usize]
    }

    /// Ignores lock poisoning: a panicking worker thread must not take
    /// the recorder (whose whole point is surviving that panic) with it.
    fn lock(
        ring: &Mutex<VecDeque<(u64, Event)>>,
    ) -> std::sync::MutexGuard<'_, VecDeque<(u64, Event)>> {
        ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Events currently buffered across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| Self::lock(r).len()).sum()
    }

    /// Whether nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the automatic dump already fired.
    pub fn has_dumped(&self) -> bool {
        self.dumped.load(Ordering::Relaxed)
    }

    /// All buffered events, interleaved back into arrival order.
    fn drain_ordered(&self) -> Vec<(u64, Event)> {
        let mut all: Vec<(u64, Event)> = Vec::new();
        for ring in &self.rings {
            all.extend(Self::lock(ring).iter().cloned());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all
    }

    /// Writes a postmortem JSONL artifact: a `Message` header naming
    /// the trigger, then the buffered events oldest-first. Does not
    /// clear the buffer.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn dump(&self, trigger: &str, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let header = Event::Message {
            name: "flight_recorder".to_string(),
            text: format!("postmortem trigger: {trigger}"),
        };
        writeln!(out, "{}", header.to_json().to_string())?;
        for (_, event) in self.drain_ordered() {
            writeln!(out, "{}", event.to_json().to_string())?;
        }
        out.flush()
    }

    /// Marks the auto-dump latch taken and dumps if this call won the
    /// race. Returns whether a dump was written.
    pub fn dump_once(&self, trigger: &str) -> bool {
        let Some(path) = self.config.dump_path.clone() else {
            return false;
        };
        if self
            .dumped
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // A failed postmortem write must not take serving down; the
        // latch stays set so the artifact reflects the first trigger.
        self.dump(trigger, &path).is_ok()
    }
}

impl Sink for FlightRecorder {
    fn record(&self, event: &Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = Self::lock(self.ring_for(event));
            if ring.len() == self.config.capacity {
                ring.pop_front();
            }
            ring.push_back((seq, event.clone()));
        }
        if !self.config.dump_on.is_empty() && self.config.dump_on.iter().any(|k| k == event.kind())
        {
            self.dump_once(&format!("{} event", event.kind()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gddr_ring_{tag}_{}.jsonl", std::process::id()))
    }

    fn counter(i: u64) -> Event {
        Event::Counter {
            name: format!("c{}", i % 3),
            delta: 1,
            total: i,
        }
    }

    fn served(shard: u64, epoch: u64) -> Event {
        Event::RungServed {
            shard,
            epoch,
            rung: "fresh".to_string(),
            shed: false,
            trace: 0,
        }
    }

    #[test]
    fn buffer_is_bounded_and_ordered() {
        let rec = FlightRecorder::new(FlightRecorderConfig {
            rings: 2,
            capacity: 4,
            ..FlightRecorderConfig::default()
        });
        for i in 0..100 {
            rec.record(&served(i % 2, i));
        }
        assert_eq!(rec.len(), 8);
        let events = rec.drain_ordered();
        let epochs: Vec<u64> = events
            .iter()
            .map(|(_, e)| match e {
                Event::RungServed { epoch, .. } => *epoch,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // The newest 4 per ring shard, interleaved in arrival order.
        assert_eq!(epochs, vec![92, 93, 94, 95, 96, 97, 98, 99]);
    }

    #[test]
    fn one_noisy_shard_cannot_evict_anothers_history() {
        let failover = Event::Failover {
            shard: 1,
            from_replica: 0,
            to_replica: 1,
            reason: "pool_dead".to_string(),
            clock: 5,
        };
        for (victim, noisy_shard) in [(served(1, 7), 2), (failover, 3)] {
            let rec = FlightRecorder::new(FlightRecorderConfig {
                rings: 4,
                capacity: 8,
                ..FlightRecorderConfig::default()
            });
            rec.record(&victim);
            for i in 0..1000 {
                rec.record(&served(noisy_shard, i));
            }
            assert!(
                rec.drain_ordered().iter().any(|(_, e)| *e == victim),
                "shard {noisy_shard} evicted {victim:?}"
            );
        }
    }

    #[test]
    fn dump_writes_replayable_jsonl_with_trigger_last() {
        let path = temp_path("manual");
        let rec = FlightRecorder::new(FlightRecorderConfig::default());
        for i in 0..10 {
            rec.record(&counter(i));
        }
        let alert = Event::SloAlert {
            shard: 3,
            metric: "serve.fresh_fraction".to_string(),
            burn_rate: 8.0,
            threshold: 4.0,
            window: 64,
            epoch: 10,
        };
        rec.record(&alert);
        rec.dump("unit test", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(matches!(&events[0], Event::Message { name, .. } if name == "flight_recorder"));
        assert_eq!(events.last(), Some(&alert));
        assert_eq!(events.len(), 12);
        // The buffer survives the dump.
        assert_eq!(rec.len(), 11);
    }

    #[test]
    fn auto_dump_fires_once_on_configured_kind() {
        let path = temp_path("auto");
        let rec = FlightRecorder::with_dump(&path, &["slo_alert"]);
        for i in 0..5 {
            rec.record(&counter(i));
        }
        assert!(!rec.has_dumped());
        let alert = Event::SloAlert {
            shard: 0,
            metric: "m".to_string(),
            burn_rate: 5.0,
            threshold: 4.0,
            window: 64,
            epoch: 5,
        };
        rec.record(&alert);
        assert!(rec.has_dumped());
        let first = std::fs::read_to_string(&path).unwrap();
        // A second trigger must not overwrite the first postmortem.
        rec.record(&alert);
        let second = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(first, second);
        let events = parse_jsonl(&first).unwrap();
        assert_eq!(events.last(), Some(&alert));
    }
}
