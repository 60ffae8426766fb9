//! `daemon_open`: an `nqpv serve` subprocess with default options, fed
//! tiny generated programs by an open-loop generator in this process.
//!
//! One connection submits inline sources on a fixed schedule and reads
//! its replies; a second connection `watch`es every job's lifecycle
//! events. Latency runs from each job's *due* time, so a stall also
//! charges the jobs queued behind it.

use crate::gen::{read_manifest, Entry};
use crate::host::{cpu_secs, median, peak_rss_mb, quantile, Outcome, TraceEvent};
use crate::Ctx;
use nqpv_service::{Event, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two fixed open-loop rates (jobs/s): roughly ¼ and ¾ of the
/// ≈3800 jobs/s at which the ladder saturated on the 2-core host the
/// benchmark was defined on.
const LO_RATE: f64 = 950.0;
const HI_RATE: f64 = 2850.0;
/// Ladder: rising rates `LADDER_START · LADDER_FACTOR^k`, one short step
/// each, until the backlog at a step's end grows.
const LADDER_START: f64 = 2000.0;
const LADDER_FACTOR: f64 = 1.05;
const LADDER_STEPS: usize = 24;
/// The ladder's latency limit on p99 (ms).
const P99_LIMIT_MS: f64 = 50.0;
/// Daemon launches per run; `setup_s` is the median launch-to-`pong`.
const SETUP_LAUNCHES: usize = 15;
/// A phase's p99 is the median of the p99s of consecutive windows of at
/// least this many jobs (so ≥ 10 samples lie beyond each window's p99):
/// one stall moves one window, not the metric.
const P99_WINDOW_JOBS: usize = 1000;
/// At most this many windows per phase.
const P99_MAX_WINDOWS: usize = 16;
/// How long a phase may take to drain before its missing verdicts count
/// as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// The same for a batch workload's service pass, whose jobs may take
/// seconds each.
const SERVICE_DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// A service pass submits its jobs this fast (jobs/s): back to back.
const BURST_RATE: f64 = 1e6;
/// `jobs_per_s`: the saturation phase keeps this many jobs in flight and
/// measures the verdict rate in slices after its first `SATURATE_RAMP`
/// share.
const SATURATE_WINDOW: usize = 512;
const SATURATE_RAMP: f64 = 0.1;
const SATURATE_SLICE: Duration = Duration::from_millis(500);
/// The share of a traced run spent on in-process layer spans over the
/// sample corpus (the rest drives the daemon).
const TRACE_LAYER_SHARE: f64 = 0.5;

struct Daemon {
    child: Child,
    /// Empty until the daemon has announced its address.
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
    stopped: bool,
}

impl Daemon {
    /// Launches `nqpv serve` and waits for its first `pong`; returns the
    /// daemon and the launch-to-pong seconds.
    fn launch(nqpv: &Path, log: &Path) -> std::io::Result<(Daemon, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(nqpv)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        // From here on, dropping `daemon` stops the process.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: None,
            stopped: false,
        };
        let mut line = String::new();
        out.read_line(&mut line)?;
        daemon.addr = match line.trim().rsplit(' ').next() {
            Some(addr) if addr.contains(':') => addr.to_string(),
            _ => {
                let msg = format!("unexpected daemon banner {line:?}");
                return Err(std::io::Error::other(msg));
            }
        };
        // Keep draining stdout so the daemon never writes into a closed pipe.
        daemon.stdout = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(out.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        let mut conn = daemon.connect()?;
        writeln!(conn.get_mut(), "{}", Request::Ping.to_line())?;
        let mut reply = String::new();
        conn.read_line(&mut reply)?;
        let secs = t0.elapsed().as_secs_f64();
        if !reply.contains("\"pong\"") {
            return Err(std::io::Error::other(format!(
                "expected pong, got {reply:?}"
            )));
        }
        Ok((daemon, secs))
    }

    fn connect(&self) -> std::io::Result<BufReader<TcpStream>> {
        let s = TcpStream::connect(&self.addr)?;
        s.set_nodelay(true)?;
        Ok(BufReader::new(s))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it; kills it if it has
    /// not exited within five seconds (at once if it never announced an
    /// address).
    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        let asked = !self.addr.is_empty()
            && self.connect().is_ok_and(|mut c| {
                writeln!(
                    c.get_mut(),
                    "{}",
                    Request::Shutdown { drain: false }.to_line()
                )
                .is_ok()
            });
        let deadline = Instant::now() + Duration::from_secs(if asked { 5 } else { 0 });
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The value after `key` (`"name":`) in a protocol line: a string's contents or a
/// bare token. Event lines are flat enough for a scan.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|end| &s[..end])
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn job_index(line: &str) -> Option<usize> {
    field(line, "\"name\":")?.strip_prefix('j')?.parse().ok()
}

/// One observed event: (nanoseconds since epoch, job index, kind).
type Seen = (u64, usize, Kind);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Accepted,
    Queued,
    Running,
    Verified,
    Rejected,
    Failed,
    Refused,
}

fn event_kind(line: &str) -> Option<Kind> {
    Some(match field(line, "\"event\":")? {
        "accepted" => Kind::Accepted,
        "queued" => Kind::Queued,
        "running" => Kind::Running,
        "verdict" => match field(line, "\"status\":") {
            Some("verified") => Kind::Verified,
            Some("rejected") => Kind::Rejected,
            _ => Kind::Failed,
        },
        "overloaded" => Kind::Refused,
        _ => return None,
    })
}

/// Reads one connection until it closes, recording the events `keep`
/// selects (`queued`/`running` only while `lifecycle` is set); `stats`
/// replies go to `stats_tx`, verdicts bump `verdicts`.
fn reader(
    conn: BufReader<TcpStream>,
    epoch: Instant,
    keep: fn(Kind) -> bool,
    lifecycle: Arc<AtomicBool>,
    verdicts: Option<Arc<AtomicUsize>>,
    stats_tx: Option<std::sync::mpsc::Sender<String>>,
) -> Vec<Seen> {
    let mut seen = Vec::new();
    for line in conn.lines() {
        let Ok(line) = line else { break };
        let t = epoch.elapsed().as_nanos() as u64;
        match event_kind(&line) {
            Some(kind) => {
                if matches!(kind, Kind::Verified | Kind::Rejected | Kind::Failed) {
                    if let Some(v) = &verdicts {
                        v.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let span_event = matches!(kind, Kind::Queued | Kind::Running);
                if keep(kind) && (!span_event || lifecycle.load(Ordering::Relaxed)) {
                    if let Some(i) = job_index(&line) {
                        seen.push((t, i, kind));
                    } else if kind == Kind::Refused {
                        seen.push((t, usize::MAX, kind));
                    }
                }
            }
            None => {
                if let Some(tx) = &stats_tx {
                    if line.contains("\"stats\"") {
                        let _ = tx.send(line);
                    }
                }
            }
        }
    }
    seen
}

/// A scheduled phase: `count` jobs at `rate`, starting at job `first`.
struct Phase {
    name: String,
    first: usize,
    count: usize,
    rate: f64,
    /// Queue depth from `stats` right after the last submission.
    backlog_end: u64,
}

struct Generator {
    epoch: Instant,
    submit: TcpStream,
    lines: Vec<String>,
    due: Vec<u64>,
    sent: Vec<u64>,
    next: usize,
    verdicts: Arc<AtomicUsize>,
    stats_rx: Receiver<String>,
    /// How long a phase may take to drain before its missing verdicts
    /// count as lost.
    drain: Duration,
}

impl Generator {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Submits job `i`, due at `due`.
    fn send(&mut self, i: usize, due: u64) -> std::io::Result<()> {
        self.due[i] = due;
        self.sent[i] = self.now();
        self.submit.write_all(self.lines[i].as_bytes())
    }

    /// Submits `count` jobs at `rate` on an open-loop schedule, reads the
    /// backlog from `stats`, then waits for the phase to drain.
    fn phase(&mut self, name: &str, rate: f64, secs: f64) -> std::io::Result<Phase> {
        let count = ((rate * secs).round() as usize).min(self.lines.len() - self.next);
        let first = self.next;
        let start = self.now() + 1_000_000;
        for k in 0..count {
            let due = start + (k as f64 * 1e9 / rate) as u64;
            let now = self.now();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            self.send(first + k, due)?;
        }
        self.next += count;
        self.end_phase(name, first, rate)
    }

    /// Closed loop: keeps `SATURATE_WINDOW` jobs in flight for `secs`.
    /// Returns the phase and the median verdict rate (jobs/s) over
    /// windows of `SATURATE_SLICE` after the first `SATURATE_RAMP` share,
    /// so a stall of the host moves one window, not the rate.
    fn saturate(&mut self, secs: f64) -> std::io::Result<(Phase, f64)> {
        let first = self.next;
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs);
        let mut mark = t0 + Duration::from_secs_f64(secs * SATURATE_RAMP);
        let mut marks: Vec<(Instant, usize)> = Vec::new();
        while self.next < self.lines.len() {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let done = self.verdicts.load(Ordering::SeqCst);
            if now >= mark {
                marks.push((now, done));
                mark = now + SATURATE_SLICE;
            }
            let room = SATURATE_WINDOW.saturating_sub(self.next - done.min(self.next));
            if room >= SATURATE_WINDOW / 4 {
                // Top the window up in one write.
                let (from, to) = (self.next, (self.next + room).min(self.lines.len()));
                let due = self.now();
                let mut buf = Vec::new();
                for i in from..to {
                    self.due[i] = due;
                    self.sent[i] = due;
                    buf.extend_from_slice(self.lines[i].as_bytes());
                }
                self.submit.write_all(&buf)?;
                self.next = to;
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let rates: Vec<f64> = marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).as_secs_f64())
            .collect();
        let rate = median(&rates);
        let count = self.next - first;
        let phase = self.end_phase("saturate", first, count as f64 / secs)?;
        Ok((phase, rate))
    }

    /// Reads the backlog from `stats` right after a phase's last
    /// submission, then waits for the phase to drain.
    fn end_phase(&mut self, name: &str, first: usize, rate: f64) -> std::io::Result<Phase> {
        writeln!(self.submit, "{}", Request::Stats.to_line())?;
        let stats = self
            .stats_rx
            .recv_timeout(self.drain)
            .map_err(|_| std::io::Error::other("no stats reply"))?;
        let backlog_end = match Event::parse(&stats) {
            Ok(Event::Stats { queue, .. }) => queue.queued,
            _ => return Err(std::io::Error::other(format!("bad stats reply {stats:?}"))),
        };
        let deadline = Instant::now() + self.drain;
        while self.verdicts.load(Ordering::SeqCst) < self.next && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Phase {
            name: name.to_string(),
            first,
            count: self.next - first,
            rate,
            backlog_end,
        })
    }
}

/// Per-job timeline assembled from both connections.
#[derive(Clone, Copy, Default)]
struct Timeline {
    accepted: Option<u64>,
    queued: Option<u64>,
    running: Option<u64>,
    verdict: Option<u64>,
    watched_verdict: Option<u64>,
    verified: Option<bool>,
}

/// A daemon under load: the open-loop generator on one connection, a
/// watcher on the other, and a reader thread on each.
struct Session {
    daemon: Daemon,
    gen: Generator,
    /// Lifecycle (`queued`/`running`) events are recorded only while this
    /// is set.
    lifecycle: Arc<AtomicBool>,
    submit_reader: std::thread::JoinHandle<Vec<Seen>>,
    watch_reader: std::thread::JoinHandle<Vec<Seen>>,
}

impl Session {
    /// Connects to `daemon` and starts watching; `lines` are the submit
    /// requests, job `i` named `j<i>`.
    fn start(daemon: Daemon, lines: Vec<String>, drain: Duration) -> std::io::Result<Session> {
        let epoch = Instant::now();
        let submit_conn = daemon.connect()?;
        let mut watch_conn = daemon.connect()?;
        writeln!(watch_conn.get_mut(), "{}", Request::Watch.to_line())?;
        let mut reply = String::new();
        watch_conn.read_line(&mut reply)?;
        if !reply.contains("\"watching\"") {
            return Err(std::io::Error::other(format!(
                "expected watching, got {reply:?}"
            )));
        }
        let verdicts = Arc::new(AtomicUsize::new(0));
        let (stats_tx, stats_rx) = channel();
        let submit = submit_conn.get_ref().try_clone()?;
        let lifecycle = Arc::new(AtomicBool::new(false));
        let submit_reader = {
            let verdicts = Arc::clone(&verdicts);
            let lifecycle = Arc::clone(&lifecycle);
            let keep: fn(Kind) -> bool = |k| !matches!(k, Kind::Queued | Kind::Running);
            std::thread::spawn(move || {
                reader(
                    submit_conn,
                    epoch,
                    keep,
                    lifecycle,
                    Some(verdicts),
                    Some(stats_tx),
                )
            })
        };
        let watch_reader = {
            let lifecycle = Arc::clone(&lifecycle);
            let keep: fn(Kind) -> bool = |k| !matches!(k, Kind::Accepted | Kind::Refused);
            std::thread::spawn(move || reader(watch_conn, epoch, keep, lifecycle, None, None))
        };
        let n = lines.len();
        let gen = Generator {
            epoch,
            submit,
            lines,
            due: vec![0; n],
            sent: vec![0; n],
            next: 0,
            verdicts,
            stats_rx,
            drain,
        };
        Ok(Session {
            daemon,
            gen,
            lifecycle,
            submit_reader,
            watch_reader,
        })
    }

    /// Stops the daemon, joins the readers and assembles the timelines of
    /// the submitted jobs. Returns the generator, the timelines and the
    /// number of `overloaded` replies.
    fn finish(mut self) -> (Generator, Vec<Timeline>, u64) {
        self.daemon.stop();
        let seen_submit = self.submit_reader.join().expect("submit reader panicked");
        let seen_watch = self.watch_reader.join().expect("watch reader panicked");
        let mut tl = vec![Timeline::default(); self.gen.next];
        let mut refused = 0u64;
        for &(t, i, kind) in &seen_submit {
            if kind == Kind::Refused {
                refused += 1;
                continue;
            }
            let Some(j) = tl.get_mut(i) else { continue };
            match kind {
                Kind::Accepted => j.accepted = Some(t),
                Kind::Verified | Kind::Rejected | Kind::Failed => {
                    j.verdict = Some(t);
                    j.verified = match kind {
                        Kind::Verified => Some(true),
                        Kind::Rejected => Some(false),
                        _ => None,
                    };
                }
                _ => {}
            }
        }
        for &(t, i, kind) in &seen_watch {
            let Some(j) = tl.get_mut(i) else { continue };
            match kind {
                Kind::Queued => j.queued = Some(t),
                Kind::Running => j.running = Some(t),
                _ => j.watched_verdict = Some(t),
            }
        }
        (self.gen, tl, refused)
    }
}

/// The inline `submit` request of job `i`.
fn submit_line(i: usize, source: &str) -> String {
    let req = Request::Submit {
        name: format!("j{i}"),
        source: source.to_string(),
        priority: 0,
        trace: None,
    };
    format!("{}\n", req.to_line())
}

/// Checks every submitted job's verdict against its known answer;
/// `entry(i)` gives job `i`'s manifest row and name. Refused and lost jobs
/// count as failed. Returns the number lost.
fn check_verdicts<'a>(
    tl: &[Timeline],
    entry: impl Fn(usize) -> (Option<&'a Entry>, String),
    refused: u64,
    drain: Duration,
    o: &mut Outcome,
) -> u64 {
    let mut lost = 0u64;
    for (i, j) in tl.iter().enumerate() {
        if j.verdict.is_none() {
            o.attempted += 1;
            o.failed += 1;
            lost += 1;
        } else {
            let (e, name) = entry(i);
            let got = j.verified.ok_or_else(|| "error or timeout".to_string());
            o.check(e, &name, got);
        }
    }
    o.failed += refused;
    if lost > 0 {
        o.violations
            .push(format!("{lost} jobs got no verdict within {drain:?}"));
    }
    lost
}

/// The `service.*` per-layer metrics over the `measured` jobs.
fn service_metrics(
    o: &mut Outcome,
    measured: &[usize],
    tl: &[Timeline],
    sent: &[u64],
    backlog_end: u64,
    refused: u64,
    lost: u64,
) {
    let gap = |a: Option<u64>, b: Option<u64>| match (a, b) {
        (Some(a), Some(b)) => Some(ms(b.saturating_sub(a))),
        _ => None,
    };
    let series = |f: &dyn Fn(usize) -> Option<f64>| -> Vec<f64> {
        measured.iter().filter_map(|&i| f(i)).collect()
    };
    let accept = series(&|i| gap(Some(sent[i]), tl[i].accepted));
    let wait = series(&|i| gap(tl[i].queued, tl[i].running));
    let run = series(&|i| gap(tl[i].running, tl[i].watched_verdict));
    o.metric("service.accept_ms_p50", median(&accept));
    o.metric("service.queue_wait_ms_p50", median(&wait));
    o.metric("service.queue_wait_ms_p99", quantile(&wait, 0.99));
    o.metric("service.run_ms_p50", median(&run));
    o.metric("service.backlog_end", backlog_end as f64);
    o.metric("service.refused", refused as f64);
    o.metric("service.lost", lost as f64);
}

/// The service layer on a batch workload's jobs: `(name, known answer,
/// source)` each submitted once, back to back, to a fresh `nqpv serve`
/// with default options; both connections as in `daemon_open`.
pub fn service_pass(
    ctx: &Ctx,
    jobs: &[(String, Option<Entry>, String)],
    o: &mut Outcome,
) -> std::io::Result<()> {
    let nqpv = ctx
        .nqpv
        .as_ref()
        .ok_or_else(|| std::io::Error::other("the service pass needs --nqpv"))?;
    let lines = jobs
        .iter()
        .enumerate()
        .map(|(i, (_, _, src))| submit_line(i, src))
        .collect();
    let (daemon, _) = Daemon::launch(nqpv, &ctx.dir.join("daemon.log"))?;
    let mut session = Session::start(daemon, lines, SERVICE_DRAIN_LIMIT)?;
    session.lifecycle.store(true, Ordering::Relaxed);
    let burst = session
        .gen
        .phase("burst", BURST_RATE, jobs.len() as f64 / BURST_RATE);
    let (gen, tl, refused) = session.finish();
    let burst = burst?;
    let lost = check_verdicts(
        &tl,
        |i| (jobs[i].1.as_ref(), jobs[i].0.clone()),
        refused,
        SERVICE_DRAIN_LIMIT,
        o,
    );
    let measured: Vec<usize> = (0..gen.next).collect();
    service_metrics(
        o,
        &measured,
        &tl,
        &gen.sent,
        burst.backlog_end,
        refused,
        lost,
    );
    o.notes.push(format!(
        "service pass: {} jobs submitted back to back to nqpv serve, {} queued after the last",
        gen.next, burst.backlog_end
    ));
    Ok(())
}

/// The median of the p99s of consecutive windows of at least
/// `P99_WINDOW_JOBS` jobs each (one window when the phase is shorter).
fn windowed_p99(latencies: &[f64]) -> f64 {
    let windows = (latencies.len() / P99_WINDOW_JOBS).clamp(1, P99_MAX_WINDOWS);
    let size = latencies.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                latencies.len()
            } else {
                (w + 1) * size
            };
            quantile(&latencies[w * size..end], 0.99)
        })
        .collect();
    median(&p99s)
}

/// No growing backlog: the queue left at a phase's end holds less than
/// the latency limit's worth of arrivals.
fn backlog_ok(p: &Phase) -> bool {
    p.backlog_end as f64 <= p.rate * P99_LIMIT_MS / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let nqpv = ctx
        .nqpv
        .as_ref()
        .ok_or_else(|| std::io::Error::other("daemon_open needs --nqpv"))?;
    let entries: Vec<Entry> = read_manifest(&ctx.dir)?;
    let lines: Vec<String> = std::fs::read_to_string(ctx.dir.join("sources.txt"))?
        .lines()
        .enumerate()
        .map(|(i, src)| submit_line(i, src))
        .collect();
    let log = ctx.dir.join("daemon.log");

    let mut setup = Vec::new();
    let launches = if ctx.trace { 1 } else { SETUP_LAUNCHES };
    let mut daemon = None;
    for k in 0..launches {
        let (mut d, secs) = Daemon::launch(nqpv, &log)?;
        setup.push(secs);
        if k + 1 < launches {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one launch");
    let pid = daemon.pid();
    let mut session = Session::start(daemon, lines, DRAIN_LIMIT)?;
    let lifecycle = Arc::clone(&session.lifecycle);
    let open_loop = &mut session.gen;

    // A traced run gives the daemon half its time; the in-process layer
    // spans over the sample corpus get the other half.
    let s = if ctx.trace {
        ctx.seconds * (1.0 - TRACE_LAYER_SHARE)
    } else {
        ctx.seconds
    };
    let mut phases = Vec::new();
    let result = (|| -> std::io::Result<(f64, u64, Option<f64>, f64)> {
        phases.push(open_loop.phase("warmup", LO_RATE, 0.05 * s)?);
        lifecycle.store(ctx.trace, Ordering::Relaxed);
        let share = if ctx.trace { 0.2 } else { 0.25 };
        let cpu0 = cpu_secs(pid).unwrap_or(0.0);
        let lo = open_loop.phase("lo", LO_RATE, share * s)?;
        let hi = open_loop.phase("hi", HI_RATE, share * s)?;
        let cpu = cpu_secs(pid).unwrap_or(0.0) - cpu0;
        // Peak RSS before the ladder, whose length varies run to run.
        let peak = peak_rss_mb(pid);
        let jobs = (lo.count + hi.count) as u64;
        phases.push(lo);
        phases.push(hi);
        let mut rate = f64::NAN;
        if ctx.trace {
            // The `hi` load again without span bookkeeping, for the
            // overhead ratio.
            lifecycle.store(false, Ordering::Relaxed);
            phases.push(open_loop.phase("hi_plain", HI_RATE, 0.15 * s)?);
        } else {
            let (p, r) = open_loop.saturate(0.3 * s)?;
            phases.push(p);
            rate = r;
        }
        // Climb until the backlog grows; the p99 limit is judged below,
        // once the readers have handed over their events.
        let ladder_share = if ctx.trace { 0.4 } else { 0.15 };
        let step_secs = ladder_share * s / LADDER_STEPS as f64;
        for k in 0..LADDER_STEPS {
            let rate = LADDER_START * LADDER_FACTOR.powi(k as i32);
            let p = open_loop.phase(&format!("ladder{k}"), rate, step_secs)?;
            let grown = !backlog_ok(&p);
            phases.push(p);
            if grown || open_loop.next >= open_loop.lines.len() {
                break;
            }
        }
        Ok((cpu, jobs, peak, rate))
    })();
    let (open_loop, tl, refused) = session.finish();
    let (cpu, jobs_measured, peak, saturated_rate) = result?;
    let submitted = open_loop.next;

    // Known answers.
    let mut o = Outcome::default();
    let lost = check_verdicts(
        &tl,
        |i| (entries.get(i), format!("j{i}")),
        refused,
        DRAIN_LIMIT,
        &mut o,
    );

    let latency = |p: &Phase| -> Vec<f64> {
        (p.first..p.first + p.count)
            .map(|i| match tl[i].verdict {
                Some(v) => ms(v.saturating_sub(open_loop.due[i])),
                None => f64::INFINITY,
            })
            .collect()
    };
    let find = |name: &str| phases.iter().find(|p| p.name == name).expect("phase ran");

    // A ladder step passes when p99 meets the limit and the backlog at its
    // end is under the limit's worth of arrivals. The metric is the last
    // passing rate before two consecutive steps fail, so one stalled step
    // below saturation does not end the climb.
    let mut max_rate = None;
    let mut failures = 0;
    for p in phases.iter().filter(|p| p.name.starts_with("ladder")) {
        let p99 = quantile(&latency(p), 0.99);
        o.notes.push(format!(
            "ladder {:.0} jobs/s: p99 {:.2} ms, backlog {}",
            p.rate, p99, p.backlog_end
        ));
        if failures >= 2 {
            continue;
        }
        if p99 <= P99_LIMIT_MS && backlog_ok(p) {
            max_rate = Some(p.rate);
            failures = 0;
        } else {
            failures += 1;
        }
    }

    let (lo, hi) = (find("lo"), find("hi"));
    let (lo_lat, hi_lat) = (latency(lo), latency(hi));
    o.metric("setup_s", median(&setup));
    o.metric("peak_rss_mb", peak.unwrap_or(f64::NAN));
    o.metric("cpu_ms_per_job", cpu * 1e3 / jobs_measured.max(1) as f64);
    if !ctx.trace {
        o.metric("jobs_per_s", saturated_rate);
        let sat = find("saturate");
        o.notes.push(format!(
            "saturate: {} jobs with at most {SATURATE_WINDOW} in flight, {:.1} verdicts/s",
            sat.count, saturated_rate
        ));
    }
    o.metric("latency_ms_p50.lo", median(&lo_lat));
    o.metric("latency_ms_p99.lo", windowed_p99(&lo_lat));
    o.metric("latency_ms_p50.hi", median(&hi_lat));
    o.metric("latency_ms_p99.hi", windowed_p99(&hi_lat));
    // 0 when no step met the limit (the host was already saturated).
    o.metric("max_rate_jobs_s", max_rate.unwrap_or(0.0));

    o.notes.push(format!(
        "setup launch-to-pong (ms): min {:.3} median {:.3} max {:.3} over {} launches",
        quantile(&setup, 0.0) * 1e3,
        median(&setup) * 1e3,
        quantile(&setup, 1.0) * 1e3,
        setup.len()
    ));
    o.notes.push(format!(
        "lo {} jobs at {LO_RATE}/s, hi {} jobs at {HI_RATE}/s, p99 windows of >= {P99_WINDOW_JOBS} jobs",
        lo.count, hi.count
    ));
    o.counts.push(("jobs.lo".into(), lo.count as u64));
    o.counts.push(("jobs.hi".into(), hi.count as u64));
    o.notes.push(format!(
        "{submitted} jobs submitted, {refused} refused, {lost} lost"
    ));
    let measured: Vec<usize> = (lo.first..lo.first + lo.count)
        .chain(hi.first..hi.first + hi.count)
        .collect();
    let late_max = measured
        .iter()
        .map(|&i| ms(open_loop.sent[i].saturating_sub(open_loop.due[i])))
        .fold(0.0, f64::max);
    o.metric("gen.late_ms_max", late_max);
    if ctx.trace {
        let backlog = lo.backlog_end.max(hi.backlog_end);
        service_metrics(
            &mut o,
            &measured,
            &tl,
            &open_loop.sent,
            backlog,
            refused,
            lost,
        );
        let plain = median(&latency(find("hi_plain")));
        o.notes.push(format!(
            "lifecycle-recording overhead: hi p50 latency {:.3} ms with it, {:.3} ms without",
            median(&hi_lat),
            plain
        ));
        write_trace(ctx, &measured, &tl, &open_loop.due, &open_loop.sent, &mut o)?;
        crate::batch::traced_layers(ctx, ctx.seconds * TRACE_LAYER_SHARE, &mut o)?;
    }
    o.metric("failed_ratio", o.failed as f64 / o.attempted.max(1) as f64);
    Ok(o)
}

/// Writes the benchmark-side spans of the measured jobs as a Chrome
/// trace: `job` (due → verdict) with `service.submit` (sent →
/// `accepted`), `service.queue` (`queued` → `running`) and `service.run`
/// (`running` → `verdict`, as the watcher saw them).
fn write_trace(
    ctx: &Ctx,
    measured: &[usize],
    tl: &[Timeline],
    due: &[u64],
    sent: &[u64],
    o: &mut Outcome,
) -> std::io::Result<()> {
    let mut events = Vec::new();
    for &i in measured {
        let j = &tl[i];
        let name = format!("j{i}");
        let mut push = |span: &str, a: Option<u64>, b: Option<u64>| {
            if let (Some(a), Some(b)) = (a, b) {
                let parent = if span == "job" { "" } else { "job" };
                events.push(TraceEvent {
                    name: span.to_string(),
                    cat: span.split('.').next().unwrap_or(span).to_string(),
                    tid: (i % 2) as u32,
                    start_us: a as f64 / 1e3,
                    dur_us: b.saturating_sub(a) as f64 / 1e3,
                    args: vec![("job", name.clone()), ("parent", parent.to_string())],
                });
            }
        };
        push("job", Some(due[i]), j.verdict);
        push("service.submit", Some(sent[i]), j.accepted);
        push("service.queue", j.queued, j.running);
        push("service.run", j.running, j.watched_verdict);
    }
    let path = ctx.out.join(format!(
        "{}-seed{}.service.trace.json",
        ctx.workload, ctx.seed
    ));
    std::fs::write(&path, crate::host::chrome_trace(&events))?;
    o.notes.push(format!("trace written to {}", path.display()));
    Ok(())
}
