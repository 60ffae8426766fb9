//! Host facts, `/proc` readers, order statistics and the result line.

use crate::gen::{Entry, Expect};
use nqpv_service::json::escape;
use std::fmt::Write as _;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by process `pid`.
pub fn cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong verdicts on jobs outside the near-boundary class, errors, or
    /// counts that did not repeat. Any of these fails the run.
    pub violations: Vec<String>,
    /// Wrong verdicts on near-boundary jobs (counted in `failed`).
    pub near_boundary_misses: u64,
    /// `(name, value)`; units and which list a name belongs to come from
    /// `BENCHMARK.json`.
    pub metrics: Vec<(String, f64)>,
    /// Deterministic counts (must repeat exactly for a seed).
    pub counts: Vec<(String, u64)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Checks one job against its known answer. `got`: whether it
    /// verified, or an error message.
    pub fn check(&mut self, entry: Option<&Entry>, name: &str, got: Result<bool, String>) {
        self.attempted += 1;
        let Some(entry) = entry else {
            self.failed += 1;
            self.violations.push(format!("{name}: not in the manifest"));
            return;
        };
        match got {
            Ok(verified) if verified == (entry.expect == Expect::Verified) => {}
            Ok(verified) => {
                self.failed += 1;
                if entry.near_boundary {
                    self.near_boundary_misses += 1;
                } else {
                    self.violations.push(format!(
                        "{name} ({}): got {}, expected {}",
                        entry.template,
                        if verified { "verified" } else { "rejected" },
                        entry.expect.label()
                    ));
                }
            }
            Err(e) => {
                self.failed += 1;
                self.violations
                    .push(format!("{name} ({}): {e}", entry.template));
            }
        }
    }
}

/// A finite JSON number with all its digits.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// `metrics` holding `(name, value, unit)`.
pub fn result_line(o: &Outcome, correct: bool, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(name),
                json_num(*value),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// One Chrome trace "complete" event.
pub struct TraceEvent {
    pub name: String,
    /// The layer.
    pub cat: String,
    pub tid: u32,
    pub start_us: f64,
    pub dur_us: f64,
    pub args: Vec<(&'static str, String)>,
}

/// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let args: Vec<String> = e
            .args
            .iter()
            .map(|(k, v)| format!("{}:{}", escape(k), escape(v)))
            .collect();
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            escape(&e.name),
            escape(&e.cat),
            e.tid,
            e.start_us,
            e.dur_us,
            args.join(",")
        );
    }
    out.push_str("\n]}\n");
    out
}
