//! The batch workloads, `grover_files` and `corpus_batch`: corpora loaded
//! with `Corpus::from_dir` and verified with `engine::run_batch`, as
//! `nqpv batch` does, inside this (the measuring) process. The traced run
//! here also serves `daemon_open`, over the first programs of its stream.

use crate::gen::{read_counts, read_manifest, Entry, GROVER_CASES};
use crate::host::{cpu_secs, median, peak_rss_mb, Outcome, TraceEvent};
use crate::traced::{append, layer_of, run_job, self_times, JobOutcome, Recorder, Span};
use crate::Ctx;
use nqpv_core::TransformerCache;
use nqpv_engine::{run_batch, BatchOptions, BatchReport, Corpus, JobStatus, MemoCache};
use nqpv_telemetry::Phase;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-up probes per run, at least: each launches a fresh process that
/// loads the corpora with `Corpus::from_dir`; `setup_s` is their median.
/// `PROBES_PER_CORPUS` follow every corpus run of every pass, so the
/// probes sample the whole run rather than one moment of it.
const SETUP_PROBES: usize = 15;
const PROBES_PER_CORPUS: usize = 3;

/// The order of case runs in one `grover_files` pass: the short cases
/// repeat (`g8` 8 times, `g9` 3 times) and are spread through the pass,
/// so their medians sample the host over the whole run rather than one
/// burst of it.
const GROVER_SCHEDULE: [&str; 14] = [
    "g8", "g9", "g8", "g8_false", "g8", "g10", "g8", "g9", "g8", "g8_edge", "g8", "g9", "g8", "g8",
];

/// `corpus_batch` worker count (`nqpv batch --jobs 2`).
const CORPUS_WORKERS: usize = 2;

/// One corpus directory.
struct Case {
    name: String,
    dir: PathBuf,
}

/// A batch workload's corpora: one per Grover case, or the one corpus.
struct Corpora {
    dirs: Vec<Case>,
    /// Indices into `dirs`: the case runs of one pass, in order.
    schedule: Vec<usize>,
    entries: HashMap<String, Entry>,
    options: BatchOptions,
}

fn corpora(ctx: &Ctx) -> std::io::Result<Corpora> {
    let manifest = read_manifest(&ctx.dir)?;
    let (dirs, schedule, options): (Vec<Case>, Vec<usize>, _) = if ctx.workload == "grover_files" {
        let dirs = GROVER_CASES
            .iter()
            .map(|c| Case {
                name: c.to_string(),
                dir: ctx.dir.join(c),
            })
            .collect();
        let schedule = GROVER_SCHEDULE
            .iter()
            .map(|s| {
                GROVER_CASES
                    .iter()
                    .position(|c| c == s)
                    .expect("scheduled case exists")
            })
            .collect();
        (dirs, schedule, BatchOptions::default())
    } else {
        // `daemon_open`'s sample corpus runs with the `nqpv batch` defaults.
        let jobs = if ctx.workload == "corpus_batch" {
            CORPUS_WORKERS
        } else {
            0
        };
        let options = BatchOptions {
            jobs,
            ..BatchOptions::default()
        };
        let corpus = Case {
            name: "corpus".into(),
            dir: ctx.dir.join("corpus"),
        };
        (vec![corpus], vec![0], options)
    };
    // Grover cases are single-job corpora whose job is named `grover`;
    // key them by case directory instead.
    let entries = manifest.into_iter().map(|e| (e.name.clone(), e)).collect();
    Ok(Corpora {
        dirs,
        schedule,
        entries,
        options,
    })
}

/// `perfbench probe DIR…`: the set-up a batch user pays before the first
/// job can run — process start plus `Corpus::from_dir` on each corpus.
pub fn probe(dirs: &[String]) -> i32 {
    let mut jobs = 0;
    for d in dirs {
        match Corpus::from_dir(d) {
            Ok(c) => jobs += c.len(),
            Err(e) => {
                eprintln!("probe: {e}");
                return 2;
            }
        }
    }
    println!("ready {jobs}");
    0
}

/// One set-up measurement: launch to "ready".
fn setup_probe(ctx: &Ctx, c: &Corpora) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let mut child = Command::new(std::env::current_exe()?)
        .arg("probe")
        .args(c.dirs.iter().map(|case| &case.dir))
        .current_dir(&ctx.root)
        .stdout(Stdio::piped())
        .spawn()?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let secs = t0.elapsed().as_secs_f64();
    let status = child.wait()?;
    read?;
    if !status.success() || !line.starts_with("ready") {
        return Err(std::io::Error::other("setup probe failed"));
    }
    Ok(secs)
}

fn status_result(status: &JobStatus) -> Result<bool, String> {
    match status {
        JobStatus::Verified { .. } => Ok(true),
        JobStatus::Rejected { .. } => Ok(false),
        other => Err(other.label().to_string()),
    }
}

/// One untraced pass: every corpus from files to verdicts.
struct Pass {
    /// Per case, per run: wall seconds from `Corpus::from_dir` to the
    /// report.
    walls: Vec<Vec<f64>>,
    load_secs: f64,
    run_secs: f64,
    jobs: usize,
    reports: Vec<BatchReport>,
}

/// Runs `schedule` (indices into `c.dirs`) once; with `probes`, takes
/// set-up probes after each case run.
fn batch_pass(
    c: &Corpora,
    schedule: &[usize],
    options: &BatchOptions,
    o: &mut Outcome,
    mut probes: Option<(&Ctx, &mut Vec<f64>)>,
) -> std::io::Result<Pass> {
    let mut pass = Pass {
        walls: Vec::new(),
        load_secs: 0.0,
        run_secs: 0.0,
        jobs: 0,
        reports: Vec::new(),
    };
    pass.walls = vec![Vec::new(); c.dirs.len()];
    for &k in schedule {
        let case = &c.dirs[k];
        let t0 = Instant::now();
        let corpus =
            Corpus::from_dir(&case.dir).map_err(|e| std::io::Error::other(e.to_string()))?;
        let t1 = Instant::now();
        let report = run_batch(&corpus, options);
        let t2 = Instant::now();
        pass.walls[k].push((t2 - t0).as_secs_f64());
        pass.load_secs += (t1 - t0).as_secs_f64();
        pass.run_secs += (t2 - t1).as_secs_f64();
        pass.jobs += report.jobs.len();
        for job in &report.jobs {
            let key = if c.dirs.len() > 1 {
                &case.name
            } else {
                &job.name
            };
            o.check(c.entries.get(key), key, status_result(&job.status));
        }
        pass.reports.push(report);
        if let Some((ctx, setup)) = probes.as_mut() {
            for _ in 0..PROBES_PER_CORPUS {
                setup.push(setup_probe(ctx, c)?);
            }
        }
    }
    Ok(pass)
}

/// Median wall time of case `i` over every run of it in `passes`.
fn case_median(passes: &[Pass], i: usize) -> f64 {
    let walls: Vec<f64> = passes.iter().flat_map(|p| p.walls[i].clone()).collect();
    median(&walls)
}

/// Reports `grover.n{8,9,10}_s` (report-only metrics) from untraced
/// passes.
fn grover_metrics(passes: &[Pass], o: &mut Outcome) {
    for (i, name) in ["grover.n8_s", "grover.n9_s", "grover.n10_s"]
        .iter()
        .enumerate()
    {
        o.metric(name, case_median(passes, i));
    }
}

/// Runs passes until `budget` seconds are used (at least one; a pass is
/// not started when the mean pass would overrun the budget).
fn passes_for<T>(
    budget: f64,
    mut pass: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<Vec<T>> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass()?);
        let used = t0.elapsed().as_secs_f64();
        if used + used / out.len() as f64 > budget {
            return Ok(out);
        }
    }
}

pub fn run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let c = corpora(ctx)?;
    let mut o = Outcome::default();
    let grover = ctx.workload == "grover_files";
    let expected = read_counts(&ctx.dir)?;
    let corpus_jobs = expected.get("jobs").copied().unwrap_or(0) as usize;
    let jobs_expected = if grover {
        c.schedule.len()
    } else {
        corpus_jobs
    };

    if !ctx.trace {
        let mut setup = Vec::new();
        let pid = std::process::id();
        let cpu0 = cpu_secs(pid).unwrap_or(0.0);
        // Peak RSS is read after the first pass: later passes rebuild the
        // same caches, and allocator reuse would make the peak depend on
        // how many passes fit in the run.
        let mut peak = None;
        let passes = passes_for(ctx.seconds, || {
            let pass = batch_pass(&c, &c.schedule, &c.options, &mut o, Some((ctx, &mut setup)))?;
            peak = peak.or_else(|| peak_rss_mb(pid));
            Ok(pass)
        })?;
        let cpu = cpu_secs(pid).unwrap_or(0.0) - cpu0;
        while setup.len() < SETUP_PROBES {
            setup.push(setup_probe(ctx, &c)?);
        }
        let jobs: usize = passes.iter().map(|p| p.jobs).sum();
        for p in &passes {
            if p.jobs != jobs_expected {
                o.violations.push(format!(
                    "pass ran {} jobs, expected {jobs_expected}",
                    p.jobs
                ));
            }
        }
        o.metric("setup_s", median(&setup));
        o.metric("failed_ratio", o.failed as f64 / o.attempted.max(1) as f64);
        o.metric("peak_rss_mb", peak.unwrap_or(f64::NAN));
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.jobs as f64 / (p.load_secs + p.run_secs))
            .collect();
        o.metric("jobs_per_s", median(&rates));
        o.metric("cpu_ms_per_job", cpu * 1e3 / jobs.max(1) as f64);
        if grover {
            grover_metrics(&passes, &mut o);
        }
        o.notes.push(format!(
            "{} passes, {jobs} jobs, {:.3} s CPU, {} setup probes",
            passes.len(),
            cpu,
            setup.len()
        ));
        o.counts
            .push(("jobs_per_pass".into(), jobs_expected as u64));
    } else {
        traced_run(
            ctx,
            &c,
            &expected,
            &mut o,
            ctx.seconds * (1.0 - SERVICE_SHARE),
        )?;
        service_pass(ctx, &c, &mut o)?;
        o.metric("failed_ratio", o.failed as f64 / o.attempted.max(1) as f64);
    }
    Ok(o)
}

/// The share of a batch workload's traced run left to its service pass
/// (which runs every job once, however long that takes).
const SERVICE_SHARE: f64 = 0.2;

/// The in-process part of `daemon_open`'s traced run: [`traced_run`] over
/// the sample corpus, within `budget` seconds.
pub fn traced_layers(ctx: &Ctx, budget: f64, o: &mut Outcome) -> std::io::Result<()> {
    let c = corpora(ctx)?;
    let expected = read_counts(&ctx.dir)?;
    traced_run(ctx, &c, &expected, o, budget)
}

/// The service layer on a batch workload's jobs: every job of every case
/// once, as inline `submit`s to an `nqpv serve` subprocess.
fn service_pass(ctx: &Ctx, c: &Corpora, o: &mut Outcome) -> std::io::Result<()> {
    let mut jobs = Vec::new();
    for case in &c.dirs {
        let corpus =
            Corpus::from_dir(&case.dir).map_err(|e| std::io::Error::other(e.to_string()))?;
        for job in corpus.jobs() {
            let key = if c.dirs.len() > 1 {
                &case.name
            } else {
                &job.name
            };
            // The daemon resolves `load` paths against its own directory:
            // make them absolute.
            let base = std::fs::canonicalize(&job.base_dir)?;
            let source = job
                .source
                .replace("load \"", &format!("load \"{}/", base.display()));
            jobs.push((key.clone(), c.entries.get(key).cloned(), source));
        }
    }
    crate::daemon::service_pass(ctx, &jobs, o)
}

/// The traced run: untraced `run_batch` passes (engine ratios, the
/// program's own phase totals), `run_batch` with `trace_dir` set
/// (telemetry overhead), then benchmark-side span passes that call each
/// layer directly, all within `budget` seconds (each runs at least once).
fn traced_run(
    ctx: &Ctx,
    c: &Corpora,
    expected: &BTreeMap<String, u64>,
    o: &mut Outcome,
    budget: f64,
) -> std::io::Result<()> {
    let grover = ctx.workload == "grover_files";
    let (untraced_share, telemetry_share) = (0.4, 0.2);
    let plain = passes_for(budget * untraced_share, || {
        batch_pass(c, &c.schedule, &c.options, o, None)
    })?;
    let plain_wall: Vec<f64> = plain.iter().map(|p| p.load_secs + p.run_secs).collect();
    // One run of every case, as a span pass makes: the sum over cases of
    // each case's median untraced wall.
    let plain_once: f64 = (0..c.dirs.len()).map(|i| case_median(&plain, i)).sum();
    if grover {
        grover_metrics(&plain, o);
    }

    let (mut hits, mut misses, mut vhits, mut vmisses) = (0u64, 0u64, 0u64, 0u64);
    let (mut busy_ms, mut capacity_ms) = (0.0, 0.0);
    let mut phases = nqpv_telemetry::PhaseTotals::default();
    for p in &plain {
        for r in &p.reports {
            if let Some(s) = &r.cache {
                hits += s.hits;
                misses += s.misses;
                vhits += s.verdict_hits;
                vmisses += s.verdict_misses;
            }
            busy_ms += r.jobs.iter().map(|j| j.ms).sum::<f64>();
            capacity_ms += r.workers as f64 * r.total_ms;
            phases.merge(&r.phase_totals());
        }
    }
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };

    // `run_batch` with `trace_dir` set, every case once per pass,
    // against one untraced run of every case.
    let trace_dir = ctx.dir.join("engine-traces");
    let traced_opts = BatchOptions {
        trace_dir: Some(trace_dir),
        ..c.options.clone()
    };
    let every_case: Vec<usize> = (0..c.dirs.len()).collect();
    let with_trace = passes_for(budget * telemetry_share, || {
        batch_pass(c, &every_case, &traced_opts, o, None)
    })?;
    let traced_once: f64 = (0..c.dirs.len()).map(|i| case_median(&with_trace, i)).sum();
    o.metric("telemetry.trace_overhead_ratio", traced_once / plain_once);

    // Benchmark-side spans.
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut span_passes = 0usize;
    let mut span_walls = Vec::new();
    let mut job_names: Vec<String> = Vec::new();
    let mut per_pass_counts: Vec<BTreeMap<String, u64>> = Vec::new();
    let span_budget = budget * (1.0 - untraced_share - telemetry_share);
    let t_spans = Instant::now();
    loop {
        let t0 = Instant::now();
        let (pass_spans, counts) = span_pass(c, epoch, &mut job_names, o)?;
        span_walls.push(t0.elapsed().as_secs_f64());
        append(&mut spans, pass_spans);
        per_pass_counts.push(counts);
        span_passes += 1;
        let used = t_spans.elapsed().as_secs_f64();
        if used + used / span_passes as f64 > span_budget {
            break;
        }
    }

    // Deterministic counts: every pass equal, and equal to the generator's.
    let counts = per_pass_counts[0].clone();
    if per_pass_counts.iter().any(|p| *p != counts) {
        o.violations
            .push("deterministic counts differ between passes".into());
    }
    for (k, v) in expected {
        let got = counts.get(k).copied().unwrap_or(0);
        if got != *v {
            o.violations.push(format!(
                "count {k}: traced run saw {got}, generator wrote {v}"
            ));
        }
    }
    o.counts = counts.iter().map(|(k, v)| (k.clone(), *v)).collect();

    // Per-layer self time.
    let selfs = self_times(&spans);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut job_wall: HashMap<(u32, u32, usize), (f64, f64)> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let ms = selfs[i] as f64 / 1e6;
        *by_name.entry(s.name).or_insert(0.0) += ms;
        *by_layer.entry(layer_of(s.name)).or_insert(0.0) += ms;
        if s.name == "job" {
            job_wall.insert((s.tid, s.job, i), ((s.end - s.start) as f64 / 1e6, ms));
        }
    }
    let per_pass = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / span_passes as f64;
    let mut attributed_min = 1.0f64;
    let (mut job_total, mut unattributed_total) = (0.0, 0.0);
    for (wall, unattributed) in job_wall.values() {
        job_total += wall;
        unattributed_total += unattributed;
        if *wall > 0.0 {
            attributed_min = attributed_min.min(1.0 - unattributed / wall);
        }
    }

    o.metric("linalg.npy_read_ms", per_pass("linalg.npy_read"));
    o.metric(
        "linalg.npy_bytes",
        counts.get("linalg.npy_bytes").copied().unwrap_or(0) as f64,
    );
    o.metric("quantum.validate_ms", per_pass("quantum.validate"));
    o.metric("lang.parse_ms", per_pass("lang.parse"));
    for kind in crate::STMT_KINDS {
        let key = format!("lang.stmts.{kind}");
        o.metric(&key, counts.get(&key).copied().unwrap_or(0) as f64);
    }
    o.metric("core.resolve_ms", per_pass("core.resolve"));
    o.metric("core.wp_ms", per_pass("core.wp"));
    o.metric("core.verify_self_ms", per_pass("core.verify"));
    o.metric("solver.accept_ms", per_pass("solver.accept"));
    o.metric("solver.reject_ms", per_pass("solver.reject"));
    o.metric(
        "solver.obligations",
        counts.get("solver.obligations").copied().unwrap_or(0) as f64,
    );
    o.metric("engine.corpus_load_ms", per_pass("engine.corpus_load"));
    o.metric("engine.cache_hit_ratio", ratio(hits, misses));
    o.metric("engine.verdict_hit_ratio", ratio(vhits, vmisses));
    o.metric(
        "engine.pool_busy_ratio",
        busy_ms / capacity_ms.max(f64::MIN_POSITIVE),
    );
    o.metric(
        "bench.trace_overhead_ratio",
        median(&span_walls) / plain_once,
    );
    o.metric(
        "bench.unattributed_ms",
        unattributed_total / span_passes as f64,
    );
    o.metric(
        "bench.attributed_ratio",
        1.0 - unattributed_total / job_total.max(f64::MIN_POSITIVE),
    );
    o.metric("bench.attributed_ratio_min", attributed_min);

    o.notes.push(format!(
        "{} untraced passes, {} span passes",
        plain.len(),
        span_passes
    ));
    let mut layer_line = String::from("self time per pass by layer (ms):");
    for (layer, ms) in &by_layer {
        layer_line.push_str(&format!(" {layer}={:.3}", ms / span_passes as f64));
    }
    o.notes.push(layer_line);
    let mut phase_line = String::from("cross-check, BatchReport phase totals per pass (ms):");
    for phase in Phase::ALL {
        let (_, us) = phases.get(phase);
        phase_line.push_str(&format!(
            " {}={:.3}",
            phase.label(),
            us as f64 / 1e3 / plain.len() as f64
        ));
    }
    phase_line.push_str(&format!(" wall={:.3}", median(&plain_wall) * 1e3));
    o.notes.push(phase_line);

    // Chrome trace of every span pass.
    let events: Vec<TraceEvent> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| TraceEvent {
            name: s.name.to_string(),
            cat: layer_of(s.name).to_string(),
            tid: s.tid,
            start_us: s.start as f64 / 1e3,
            dur_us: (s.end - s.start) as f64 / 1e3,
            args: vec![
                (
                    "job",
                    job_names.get(s.job as usize).cloned().unwrap_or_default(),
                ),
                ("parent", s.parent.map_or("", |p| spans[p].name).to_string()),
                ("self_us", format!("{:.3}", selfs[i] as f64 / 1e3)),
            ],
        })
        .collect();
    let path = ctx
        .out
        .join(format!("{}-seed{}.trace.json", ctx.workload, ctx.seed));
    std::fs::write(&path, crate::host::chrome_trace(&events))?;
    o.notes.push(format!("trace written to {}", path.display()));
    Ok(())
}

/// One span worker's spans and `(job index, outcome)` pairs.
type WorkerOut = (Vec<Span>, Vec<(usize, JobOutcome)>);

/// One benchmark-side span pass over every corpus: `Corpus::from_dir`,
/// then each job through [`run_job`] on the workload's worker count,
/// sharing one memo cache per corpus as `run_batch` does.
fn span_pass(
    c: &Corpora,
    epoch: Instant,
    job_names: &mut Vec<String>,
    o: &mut Outcome,
) -> std::io::Result<(Vec<Span>, BTreeMap<String, u64>)> {
    let mut spans = Vec::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for case in &c.dirs {
        let mut rec = Recorder::new(epoch, 0);
        let corpus = rec
            .span("engine.corpus_load", |_| Corpus::from_dir(&case.dir))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        append(&mut spans, rec.spans);
        let workers = c.options.effective_workers(corpus.len());
        let cache: Option<Arc<MemoCache>> = c.options.use_cache.then(|| Arc::new(MemoCache::new()));
        let next = AtomicUsize::new(0);
        let base = job_names.len() as u32;
        let results: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cache = cache.clone();
                    let corpus = &corpus;
                    let next = &next;
                    let vc = c.options.vc;
                    s.spawn(move || {
                        let mut rec = Recorder::new(epoch, w as u32 + 1);
                        let mut outs = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = corpus.jobs().get(i) else {
                                break;
                            };
                            rec.job = base + i as u32;
                            let cache_ref = cache.as_deref().map(|m| m as &dyn TransformerCache);
                            outs.push((
                                i,
                                run_job(&mut rec, &job.source, &job.base_dir, vc, cache_ref),
                            ));
                        }
                        (rec.spans, outs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("span worker panicked"))
                .collect()
        });
        for job in corpus.jobs() {
            job_names.push(if c.dirs.len() > 1 {
                case.name.clone()
            } else {
                job.name.clone()
            });
        }
        let mut outs: Vec<(usize, JobOutcome)> = Vec::new();
        for (s, o) in results {
            append(&mut spans, s);
            outs.extend(o);
        }
        outs.sort_by_key(|(i, _)| *i);
        for (i, out) in outs {
            let name = &job_names[base as usize + i];
            let got = match (out.verified, out.error) {
                (Some(v), _) => Ok(v),
                (None, e) => Err(e.unwrap_or_default()),
            };
            o.check(c.entries.get(name), name, got);
            for (k, v) in out.stmts {
                *counts.entry(k).or_insert(0) += v;
            }
            *counts.entry("linalg.npy_bytes".into()).or_insert(0) += out.npy_bytes;
            *counts.entry("solver.obligations".into()).or_insert(0) += out.obligations;
            *counts.entry("jobs".into()).or_insert(0) += 1;
        }
    }
    Ok((spans, counts))
}
