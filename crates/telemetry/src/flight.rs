//! The flight recorder: an always-on, fixed-size ring buffer of recent
//! span/log events, snapshotted when something goes wrong.
//!
//! Postmortems need to see what a job was doing *right before* it
//! panicked or timed out — after the fact, when nobody asked for a
//! trace up front. The recorder keeps the last [`CAPACITY`] events in a
//! preallocated ring with bounded overhead: writers claim a slot with
//! one `fetch_add` and a `try_lock`; a contended slot is never waited
//! on — the event is dropped and counted (`nqpv_flight_dropped_total`),
//! so the hot path cannot block on observability.
//!
//! Snapshots ([`snapshot`], [`dump_to`]) are taken on worker panic,
//! deadline expiry, and `error` verdicts, and on demand via the
//! daemon's `dump_flight` request. A dump is a standalone JSON document
//! naming the triggering job and its wire trace id, so a panic under
//! `nqpv client … submit --trace-out` cross-references the fetched
//! trace.

use crate::json::{n, obj, s, Json};
use crate::log::Level;
use crate::metrics::global;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Ring capacity of the process-global recorder. Power of two so the
/// slot index is a mask, small enough to dump in one syscall-ish write.
pub const CAPACITY: usize = 2048;

/// One recorded event: what happened, when, and under which trace.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Global sequence number (monotone; gaps mark dropped writes).
    pub seq: u64,
    /// Epoch microseconds at record time.
    pub ts_us: u64,
    /// Severity the event was recorded at.
    pub level: Level,
    /// Subsystem that recorded it (`"daemon"`, `"pool"`, …).
    pub target: &'static str,
    /// Wire trace id (0 = none).
    pub trace_id: u64,
    /// Message text.
    pub message: String,
}

struct Slot {
    /// Sequence of the event the slot holds, +1 (0 = empty).
    seq: AtomicU64,
    data: Mutex<Option<FlightEvent>>,
}

/// A fixed-capacity event ring; see the module docs. The process-global
/// instance is reached through [`record`]/[`snapshot`]/[`dump_to`];
/// standalone rings exist for tests.
pub struct FlightRing {
    slots: Vec<Slot>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRing {
    /// A ring holding at most `capacity` events (rounded up to one).
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(1);
        FlightRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: Mutex::new(None),
                })
                .collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event; never blocks. Returns `false` when the slot
    /// was contended and the event dropped.
    pub fn record(
        &self,
        level: Level,
        target: &'static str,
        trace_id: u64,
        message: String,
    ) -> bool {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        match slot.data.try_lock() {
            Ok(mut guard) => {
                *guard = Some(FlightEvent {
                    seq,
                    ts_us: crate::trace::wall_clock_us(),
                    level,
                    target,
                    trace_id,
                    message,
                });
                slot.seq.store(seq + 1, Ordering::Release);
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                global()
                    .counter(
                        "nqpv_flight_dropped_total",
                        "Flight-recorder events dropped due to slot contention.",
                        &[],
                    )
                    .inc();
                false
            }
        }
    }

    /// Events dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total events ever recorded (including dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The surviving recent events, oldest first. Slots mid-write are
    /// skipped, like writers skip contended slots.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            if let Ok(guard) = slot.data.try_lock() {
                if let Some(ev) = guard.as_ref() {
                    out.push(ev.clone());
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    #[cfg(test)]
    fn jam_slot(&self, index: usize) -> std::sync::MutexGuard<'_, Option<FlightEvent>> {
        self.slots[index].data.lock().unwrap()
    }
}

/// The process-global recorder (always on).
pub fn recorder() -> &'static FlightRing {
    static RING: OnceLock<FlightRing> = OnceLock::new();
    RING.get_or_init(|| {
        // Register the drop counter up front so scrapes expose the
        // family at 0 on healthy runs instead of omitting it.
        global().counter(
            "nqpv_flight_dropped_total",
            "Flight-recorder events dropped due to slot contention.",
            &[],
        );
        FlightRing::new(CAPACITY)
    })
}

/// Records into the process-global ring.
pub fn record(level: Level, target: &'static str, trace_id: u64, message: String) {
    recorder().record(level, target, trace_id, message);
}

/// Snapshot of the process-global ring, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    recorder().snapshot()
}

/// Snapshots the process-global ring as a standalone JSON document: the
/// trigger (`reason`, `job`, `trace_id`), drop statistics, then the
/// events.
pub fn render_dump(reason: &str, job: &str, trace_id_hex: &str) -> Json {
    let events = snapshot()
        .into_iter()
        .map(|ev| {
            obj(vec![
                ("seq", n(ev.seq as f64)),
                ("ts_us", n(ev.ts_us as f64)),
                ("level", s(ev.level.label())),
                ("target", s(ev.target)),
                ("trace_id", s(format!("{:016x}", ev.trace_id))),
                ("msg", s(ev.message)),
            ])
        })
        .collect();
    obj(vec![
        ("reason", s(reason)),
        ("job", s(job)),
        ("trace_id", s(trace_id_hex)),
        ("recorded", n(recorder().recorded() as f64)),
        ("dropped", n(recorder().dropped() as f64)),
        ("events", Json::Arr(events)),
    ])
}

/// Writes `dump` (a [`render_dump`] document for `reason` and `job`)
/// into `dir` (created if missing) and returns its path. File names
/// embed the reason, a sanitised job name, and the global sequence, so
/// successive dumps never clobber each other.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn dump_to(dir: &Path, reason: &str, job: &str, dump: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let safe_job: String = job
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(64)
        .collect();
    let path = dir.join(format!(
        "flight-{reason}-{}-{}.json",
        if safe_job.is_empty() {
            "none"
        } else {
            &safe_job
        },
        recorder().recorded(),
    ));
    std::fs::write(&path, dump.to_string())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_only_the_newest_events() {
        let ring = FlightRing::new(8);
        for i in 0..20u64 {
            assert!(ring.record(Level::Info, "test", 7, format!("ev{i}")));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        // Oldest-first and exactly the last 8 written.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        assert_eq!(snap.last().unwrap().message, "ev19");
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn contended_slots_drop_and_count_instead_of_blocking() {
        let ring = FlightRing::new(4);
        // Jam slot 2: the write whose sequence lands there must drop.
        let guard = ring.jam_slot(2);
        for i in 0..4u64 {
            ring.record(Level::Warn, "test", 0, format!("ev{i}"));
        }
        drop(guard);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.recorded(), 4);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3, "the jammed slot stayed empty");
        assert!(snap.iter().all(|e| e.seq != 2));
        // Subsequent writes reuse the freed slot normally.
        ring.record(Level::Warn, "test", 0, "late".into());
        assert!(ring.snapshot().iter().any(|e| e.message == "late"));
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn dump_renders_parseable_json_with_the_trigger() {
        record(Level::Error, "test", 0xABCD, "panic: \"boom\"".into());
        let dump = render_dump("panic", "grover_10", "000000000000abcd");
        let doc = dump.to_string();
        assert!(doc.starts_with("{\"reason\":\"panic\",\"job\":\"grover_10\""));
        assert!(doc.contains("\"trace_id\":\"000000000000abcd\""));
        assert!(doc.contains("\\\"boom\\\""));
        assert!(doc.ends_with("]}"));
        let dir = std::env::temp_dir().join("nqpv_flight_test");
        let path = dump_to(&dir, "panic", "job/with:odd chars", &dump).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            Json::parse(&body).unwrap(),
            dump,
            "the file is the snapshot"
        );
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("flight-panic-job_with_odd_chars-"));
    }
}
