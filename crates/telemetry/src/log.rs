//! Leveled structured logging: JSON lines (or plain text) on stderr,
//! tagged with wire trace ids, with every emission also feeding the
//! always-on flight recorder.
//!
//! Zero-dependency by design, like the rest of the crate: a global
//! level + format pair of atomics, free functions instead of macros.
//! The daemon configures it from `serve --log-level L --log-json`;
//! un-initialised processes default to `info` in plain text, so library
//! callers can log unconditionally.

use crate::flight;
use crate::json::{n, obj, s};
use crate::trace::wall_clock_us;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or verdict-affecting conditions.
    Error = 0,
    /// Degraded but continuing (evictions, quarantines, retries).
    Warn = 1,
    /// Normal lifecycle decisions (admissions, drains, cancellations).
    Info = 2,
    /// High-volume diagnostics (per-job placement, cache traffic).
    Debug = 3,
}

impl Level {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses `error|warn|info|debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Configures the process-wide sink: emit records at `level` and above,
/// as JSON lines when `json`. Also routes panics through the logger —
/// the default hook's free-form multi-line print would tear a
/// `--log-json` stream, and this way every panic reaches the flight
/// recorder with its source location.
pub fn init(level: Level, json: bool) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
    JSON.store(json, Ordering::Relaxed);
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            let location = info
                .location()
                .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                .unwrap_or_default();
            error("panic", 0, &msg, &[("location", &location)]);
        }));
    });
}

/// `true` when records at `level` currently reach stderr.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Emits one record. Always feeds the flight recorder (that is its
/// job: keeping recent context for postmortems regardless of the
/// configured verbosity); writes to stderr only when `level` clears the
/// configured threshold. `trace_id` 0 means "no trace"; `fields` are
/// extra key/value pairs rendered into the line.
pub fn log(level: Level, target: &'static str, trace_id: u64, msg: &str, fields: &[(&str, &str)]) {
    let flight_msg = if fields.is_empty() {
        msg.to_string()
    } else {
        let mut m = String::from(msg);
        for (k, v) in fields {
            m.push_str(&format!(" {k}={v}"));
        }
        m
    };
    flight::record(level, target, trace_id, flight_msg);
    if !enabled(level) {
        return;
    }
    let line = if JSON.load(Ordering::Relaxed) {
        let mut members = vec![
            ("ts_us", n(wall_clock_us() as f64)),
            ("level", s(level.label())),
            ("target", s(target)),
            ("msg", s(msg)),
        ];
        if trace_id != 0 {
            members.push(("trace_id", s(format!("{trace_id:016x}"))));
        }
        members.extend(fields.iter().map(|&(k, v)| (k, s(v))));
        obj(members).to_string()
    } else {
        let mut l = format!("[{} {}] {}", level.label(), target, msg);
        for (k, v) in fields {
            l.push_str(&format!(" {k}={v}"));
        }
        if trace_id != 0 {
            l.push_str(&format!(" trace={trace_id:016x}"));
        }
        l
    };
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &'static str, trace_id: u64, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Error, target, trace_id, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &'static str, trace_id: u64, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, target, trace_id, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &'static str, trace_id: u64, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Info, target, trace_id, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &'static str, trace_id: u64, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Debug, target, trace_id, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_parse_and_label() {
        assert!(Level::Error < Level::Warn && Level::Warn < Level::Info);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
        assert_eq!(Level::Info.label(), "info");
    }

    #[test]
    fn suppressed_levels_still_reach_the_flight_recorder() {
        init(Level::Error, false);
        assert!(!enabled(Level::Debug));
        let before = flight::recorder().recorded();
        debug("log_test", 0x42, "invisible but recorded", &[("k", "v")]);
        assert_eq!(flight::recorder().recorded(), before + 1);
        let snap = flight::snapshot();
        let ev = snap
            .iter()
            .rev()
            .find(|e| e.target == "log_test")
            .expect("flight event");
        assert_eq!(ev.trace_id, 0x42);
        assert!(ev.message.contains("invisible but recorded k=v"));
        init(Level::Info, false);
    }
}
