//! Span-derived self-time profiles, rendered as collapsed stacks.
//!
//! Traces answer "what did *this* job do"; a profile answers "where
//! does the time go *across* a workload". This module folds finished
//! [`TraceData`] into an aggregate keyed by span ancestry — frames are
//! `phase:name` (the name is the statement kind for wp spans), refined
//! by the span's classification when it has one (`solver:obligation:
//! cholesky`, `cache:verdict_tier:hit`) — and emits the classic
//! collapsed-stack text (`frame;frame;frame µs`) that `flamegraph.pl`
//! and speedscope ingest directly. Counts are **self-time
//! microseconds**: each span's duration minus its direct children, so
//! the flamegraph's widths are exclusive time and the total equals
//! traced wall time, not a multiple of it.
//!
//! Nesting is reconstructed per thread from event timestamps (events
//! arrive in completion order, so the tree is rebuilt by interval
//! containment — the same invariant `chrome_json` relies on).
//!
//! Three consumers share the fold: `nqpv batch --profile-out` and
//! `nqpv explain --profile-out` write one file per run via a local
//! [`Profile`]; the daemon enables the process-global collector
//! ([`enable`]/[`global`]) and serves the aggregate-since-startup
//! through its `profile` request. The global hook lives in
//! `record_job`, so every finished job feeds the profile exactly where
//! it already feeds the metrics registry.

use crate::trace::{ArgValue, TraceData, TraceEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Classification keys that refine a frame name when present on a span
/// (recording mode attaches them as args).
const CLASSIFY_KEYS: [&str; 2] = ["solver_path", "verdict_tier"];

/// An accumulating self-time profile; see the module docs.
#[derive(Default)]
pub struct Profile {
    /// Collapsed stack (`frame;frame`) → self-time µs.
    stacks: Mutex<BTreeMap<String, u64>>,
    jobs: AtomicU64,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Folds one finished trace in. A trace without recorded events
    /// (non-recording tracer) contributes nothing but still counts as a
    /// job, so the daemon's aggregate reports coverage honestly.
    pub fn fold(&self, data: &TraceData) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if data.events.is_empty() {
            return;
        }
        let folded = collapse(data);
        let mut stacks = self.stacks.lock().unwrap_or_else(|e| e.into_inner());
        for (stack, self_us) in folded {
            *stacks.entry(stack).or_insert(0) += self_us;
        }
    }

    /// Jobs folded so far (including event-less ones).
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// True when no stack has accumulated positive self-time.
    pub fn is_empty(&self) -> bool {
        self.stacks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .all(|&v| v == 0)
    }

    /// Renders collapsed-stack text: one `stack count` line per stack
    /// with positive self-time, in stable sorted order. Counts are
    /// microseconds of self-time.
    pub fn render(&self) -> String {
        let stacks = self.stacks.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (stack, self_us) in stacks.iter() {
            if *self_us > 0 {
                out.push_str(&format!("{stack} {self_us}\n"));
            }
        }
        out
    }
}

/// Collapses one trace into `(stack, self_time_µs)` pairs (one entry
/// per distinct ancestry within the job).
pub fn collapse(data: &TraceData) -> Vec<(String, u64)> {
    /// A span still open while walking a thread's events in start
    /// order.
    struct Open {
        end: i64,
        frame: String,
        dur: u64,
        child_us: u64,
    }

    fn close_top(stack: &mut Vec<Open>, folded: &mut BTreeMap<String, u64>) {
        let top = stack.pop().expect("close on empty stack");
        let path = stack
            .iter()
            .map(|o| o.frame.as_str())
            .chain(std::iter::once(top.frame.as_str()))
            .collect::<Vec<_>>()
            .join(";");
        *folded.entry(path).or_insert(0) += top.dur.saturating_sub(top.child_us);
        if let Some(parent) = stack.last_mut() {
            parent.child_us += top.dur;
        }
    }

    let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &data.events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for events in by_tid.values_mut() {
        // Parents first: by start ascending, then longer spans first so
        // a parent sharing its child's start time precedes it.
        events.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then(b.dur_us.cmp(&a.dur_us)));
        let mut stack: Vec<Open> = Vec::new();
        for e in events.iter() {
            let end = e.ts_us + e.dur_us as i64;
            // This event starts at/after every open span's start (sort
            // order), so it nests in the top iff it also ends by the
            // top's end; close spans it has outlived.
            while let Some(top) = stack.last() {
                if end > top.end {
                    close_top(&mut stack, &mut folded);
                } else {
                    break;
                }
            }
            stack.push(Open {
                end,
                frame: frame(e),
                dur: e.dur_us,
                child_us: 0,
            });
        }
        while !stack.is_empty() {
            close_top(&mut stack, &mut folded);
        }
    }
    folded.into_iter().collect()
}

/// Builds the frame label for one event: `phase:name`, refined by the
/// first classification arg present.
fn frame(e: &TraceEvent) -> String {
    let mut f = format!("{}:{}", e.phase.label(), e.name);
    for key in CLASSIFY_KEYS {
        if let Some((_, v)) = e.args.iter().find(|(k, _)| *k == key) {
            match v {
                ArgValue::Static(s) => {
                    f.push(':');
                    f.push_str(s);
                }
                ArgValue::Str(s) => {
                    f.push(':');
                    f.push_str(s);
                }
                _ => {}
            }
            break;
        }
    }
    f
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables the process-global collector; `record_job` folds every
/// finished job's trace into [`global`] from then on. Irreversible for
/// the process lifetime (the daemon turns it on at startup; `batch
/// --profile-out` turns it on before the run).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// True once [`enable`] has been called.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global profile collector (fed by `record_job` only
/// after [`enable`]).
pub fn global() -> &'static Profile {
    static GLOBAL: OnceLock<Profile> = OnceLock::new();
    GLOBAL.get_or_init(Profile::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Phase, Tracer};

    #[test]
    fn collapse_computes_self_time_by_nesting() {
        let t = Tracer::create(true);
        {
            let mut outer = t.span(Phase::Wp, "seq");
            {
                let mut inner = t.span(Phase::Solver, "obligation");
                inner.classify("solver_path", "cholesky");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            outer.arg("k", crate::trace::ArgValue::U64(1));
        }
        let data = t.finish().expect("live sink");
        let folded: BTreeMap<String, u64> = collapse(&data).into_iter().collect();
        let outer_self = folded["wp:seq"];
        let inner_self = folded["wp:seq;solver:obligation:cholesky"];
        assert!(inner_self >= 2_000, "inner {inner_self}µs");
        assert!(outer_self >= 1_000, "outer {outer_self}µs");
        // Self-times telescope: outer self + inner self == outer span
        // duration, which is exactly the wp phase total (the inner
        // span's duration lives in the solver total).
        let (_, wp_total) = data.phases.get(Phase::Wp);
        assert_eq!(outer_self + inner_self, wp_total);
    }

    #[test]
    fn profile_accumulates_and_renders_collapsed_lines() {
        let prof = Profile::new();
        for _ in 0..2 {
            let t = Tracer::create(true);
            {
                let _p = t.span(Phase::Parse, "parse");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _w = t.span(Phase::Wp, "unitary");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            prof.fold(&t.finish().expect("live sink"));
        }
        assert_eq!(prof.jobs(), 2);
        assert!(!prof.is_empty());
        let text = prof.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "{text}");
        for line in &lines {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().expect("µs") > 0, "{line}");
        }
        assert!(text.contains("parse:parse "), "{text}");
        assert!(text.contains("wp:unitary "), "{text}");
    }

    #[test]
    fn eventless_traces_count_jobs_but_add_no_stacks() {
        let prof = Profile::new();
        let t = Tracer::create(false); // totals only, no events
        {
            let _s = t.span(Phase::Wp, "stmt");
        }
        prof.fold(&t.finish().expect("live sink"));
        assert_eq!(prof.jobs(), 1);
        assert!(prof.is_empty());
        assert_eq!(prof.render(), "");
    }
}
