//! `perfbench`: the nqpv verifier's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench bench --workload grover_files|corpus_batch|daemon_open --seed N
//!                 --seconds S --trace 0|1 [--nqpv PATH] [--rustc V] [--commit C]
//! perfbench gen   --workload W --seed N --dir DIR
//! perfbench probe DIR…
//! ```
//!
//! `bench` generates the workload's inputs in a child process, measures
//! for `--seconds`, checks every verdict against its known answer, prints
//! a human-readable report and, as the last line, one JSON result object.
//! See `perfbench/README.md` for the workloads and metrics.

mod batch;
mod daemon;
mod gen;
mod host;
mod rng;
mod traced;

use host::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["grover_files", "corpus_batch", "daemon_open"];

/// Statement kinds reported as `lang.stmts.<kind>`.
pub const STMT_KINDS: [&str; 6] = ["init", "unitary", "choice", "if", "while", "skip"];

/// Everything a workload run needs.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the checkout is; inputs and outputs stay below it.
    pub root: PathBuf,
    /// Generated inputs for this run (removed afterwards).
    pub dir: PathBuf,
    /// Trace files and run reports.
    pub out: PathBuf,
    /// The `nqpv` binary (`daemon_open`).
    pub nqpv: Option<PathBuf>,
}

struct Args {
    map: Vec<(String, String)>,
    rest: Vec<String>,
}

fn parse_args(args: &[String]) -> Args {
    let mut map = Vec::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) => map.push((key.to_string(), it.next().cloned().unwrap_or_default())),
            None => rest.push(a.clone()),
        }
    }
    Args { map, rest }
}

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench bench --workload {} --seed N --seconds S --trace 0|1 [--nqpv PATH]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage("missing subcommand");
    };
    let args = parse_args(&argv[1..]);
    match cmd.as_str() {
        "probe" => ExitCode::from(batch::probe(&args.rest) as u8),
        "gen" => {
            let (Some(w), Some(seed), Some(dir)) = (
                args.get("workload"),
                args.get("seed").and_then(|s| s.parse().ok()),
                args.get("dir"),
            ) else {
                return usage("gen needs --workload, --seed and --dir");
            };
            match gen::generate(w, seed, std::path::Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench gen: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "bench" => bench(&args),
        other => usage(&format!("unknown subcommand '{other}'")),
    }
}

fn bench(args: &Args) -> ExitCode {
    let Some(workload) = args.get("workload").filter(|w| WORKLOADS.contains(w)) else {
        return usage("--workload must name a workload");
    };
    let Some(seed) = args.get("seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a non-negative integer");
    };
    let Some(seconds) = args
        .get("seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds must be positive");
    };
    let trace = match args.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    let root = std::env::current_dir().expect("current directory");
    let dir = root
        .join(".bench_work")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let out = root.join(".bench_out");
    let ctx = Ctx {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        root: root.clone(),
        dir: dir.clone(),
        out: out.clone(),
        nqpv: args.get("nqpv").map(PathBuf::from),
    };
    let result = (|| -> std::io::Result<Outcome> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        std::fs::create_dir_all(&out)?;
        // Inputs come from a child process, so nothing the generator
        // allocates shows in the measuring process's peak RSS.
        let status = Command::new(std::env::current_exe()?)
            .args([
                "gen",
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--dir",
            ])
            .arg(&dir)
            .status()?;
        if !status.success() {
            return Err(std::io::Error::other("input generation failed"));
        }
        if workload == "daemon_open" {
            daemon::run(&ctx)
        } else {
            batch::run(&ctx)
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    match report(&ctx, args, &o, o.violations.is_empty()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Metrics printed in the human-readable report only: each applies to one
/// workload, and the result line holds only metrics every workload
/// measures.
const REPORT_ONLY: [(&str, &str); 9] = [
    ("grover.n8_s", "s"),
    ("grover.n9_s", "s"),
    ("grover.n10_s", "s"),
    ("latency_ms_p50.lo", "ms"),
    ("latency_ms_p99.lo", "ms"),
    ("latency_ms_p50.hi", "ms"),
    ("latency_ms_p99.hi", "ms"),
    ("max_rate_jobs_s", "1/s"),
    ("gen.late_ms_max", "ms"),
];

/// A metric's `(name, unit)` from `BENCHMARK.json`.
type MetricSpec = (String, String);

/// The `end_to_end` and `per_layer` lists of `BENCHMARK.json`.
fn metric_lists(root: &std::path::Path) -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = nqpv_service::Json::parse(&text)?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.get(key)
            .and_then(nqpv_service::Json::as_arr)
            .ok_or(format!("BENCHMARK.json: missing {key}"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(nqpv_service::Json::as_str)
                        .map(str::to_string)
                };
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("BENCHMARK.json: bad {key} entry"))
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Prints the human-readable report (every metric the run measured),
/// writes it next to the traces, and prints the JSON result as the last
/// line: every `end_to_end` metric, or with `--trace 1` every
/// `per_layer` one. A listed metric the run did not measure is an error.
fn report(ctx: &Ctx, args: &Args, o: &Outcome, mut correct: bool) -> Result<bool, String> {
    let (e2e, layers) = metric_lists(&ctx.root)?;
    let unit_of = |name: &str| {
        e2e.iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .chain(layers.iter().map(|(n, u)| (n.as_str(), u.as_str())))
            .chain(REPORT_ONLY)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
    };
    let mut text = String::new();
    let mut line = |s: String| {
        text.push_str(&s);
        text.push('\n');
    };
    line(format!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    ));
    line(format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        host::nproc(),
        host::cpu_model(),
        args.get("rustc").unwrap_or("unknown"),
        args.get("commit").unwrap_or("unknown")
    ));
    let counts: Vec<String> = o.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    line(format!(
        "counts (must repeat for this seed): {}",
        counts.join(" ")
    ));
    for n in &o.notes {
        line(n.clone());
    }
    line(format!(
        "verdicts: {} attempted, {} failed, {} of them near-boundary jobs reported verified \
         (known answer: rejected)",
        o.attempted, o.failed, o.near_boundary_misses
    ));
    for v in &o.violations {
        line(format!("WRONG: {v}"));
    }
    for (name, value) in &o.metrics {
        let unit = unit_of(name).ok_or(format!("metric {name} is not in BENCHMARK.json"))?;
        line(format!("{name:<32} {value:>16.6} {unit}"));
    }
    let listed = if ctx.trace { &layers } else { &e2e };
    let mut selected = Vec::new();
    for (name, unit) in listed {
        let Some((_, value)) = o.metrics.iter().find(|(n, _)| n == name) else {
            return Err(format!("metric {name} was not measured"));
        };
        if !value.is_finite() {
            line(format!("WRONG: metric {name} has no finite value"));
            correct = false;
        }
        selected.push((name.as_str(), *value, unit.as_str()));
    }
    let json = host::result_line(o, correct, &selected);
    print!("{text}");
    let name = format!(
        "{}-seed{}{}.txt",
        ctx.workload,
        ctx.seed,
        if ctx.trace { "-trace" } else { "" }
    );
    let _ = std::fs::write(ctx.out.join(name), format!("{text}{json}\n"));
    println!("{json}");
    Ok(correct)
}
