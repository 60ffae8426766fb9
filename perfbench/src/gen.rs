//! Seeded input generator. Everything the program under test sees is
//! written here, before any timing starts: `.nqpv` sources, dense `.npy`
//! operators, a manifest carrying each job's known answer, and the
//! deterministic counts a run must reproduce.
//!
//! Programs come from the paper's case-study templates (err_corr, Deutsch,
//! qwalk, repeat-until-success, one Grover step) and hand-written false
//! triples. Each template is varied only by verdict-preserving rewrites:
//! identity pairs (`H;H`, `X;X`, `CX;CX`) spliced into the top-level
//! sequence, and idle ancilla qubits added to the register.

use crate::rng::Rng;
use nqpv_lang::{parse_source, Command, Decl, Stmt};
use nqpv_linalg::{c, cr, write_matrix, CMat, CVec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The answer a job must get.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    Verified,
    Rejected,
}

impl Expect {
    pub fn label(self) -> &'static str {
        match self {
            Expect::Verified => "verified",
            Expect::Rejected => "rejected",
        }
    }

    fn parse(s: &str) -> Option<Expect> {
        match s {
            "verified" => Some(Expect::Verified),
            "rejected" => Some(Expect::Rejected),
            _ => None,
        }
    }
}

/// One manifest row: a job and its known answer.
#[derive(Clone, Debug)]
pub struct Entry {
    pub name: String,
    /// Path relative to the work directory (a `.nqpv` file, or a Grover
    /// case directory).
    pub path: String,
    pub expect: Expect,
    pub template: String,
    pub qubits: usize,
    /// The near-boundary false triple `{(p+5e-8)·I} … {post}`: its known
    /// answer is "rejected", but it sits inside the solver's 1e-7
    /// tolerance, so the verifier currently reports it verified. Such
    /// misses are counted as failures, never hidden.
    pub near_boundary: bool,
}

/// Jobs in one mix block: every block of the stream holds exactly this
/// template mix, so any prefix of it (an open-loop phase, a corpus) has
/// the stated shares to within one block.
const BLOCK: usize = 50;

/// `(template, occurrences per block of 50)`: 60% verified templates,
/// 38% false triples, 2% near-boundary — 40% expected rejected.
const MIX: [(&str, usize); 11] = [
    ("err_corr", 6),
    ("deutsch", 6),
    ("qwalk", 6),
    ("rus", 6),
    ("grover_step", 6),
    ("false_h", 4),
    ("false_ndet", 4),
    ("false_err_corr", 4),
    ("false_grover_step", 4),
    ("false_init", 3),
    ("near_boundary", 1),
];

/// `corpus_batch`: distinct programs per corpus (a multiple of `BLOCK`).
const CORPUS_DISTINCT: usize = 600;
/// `corpus_batch`: one byte-identical repeat after every this many jobs.
const CORPUS_REPEAT_EVERY: usize = 10;
/// `daemon_open`: programs generated for the open-loop stream.
const DAEMON_JOBS: usize = 120_000;
/// `daemon_open`: the first this many programs of the stream, also
/// written as a corpus for the traced run's in-process layer spans.
const DAEMON_SAMPLE: usize = 600;
/// Grover cases, each its own single-job corpus directory.
pub const GROVER_CASES: [&str; 5] = ["g8", "g9", "g10", "g8_false", "g8_edge"];

/// A template instance before rendering.
struct Program {
    loads: Vec<(&'static str, String)>,
    qubits: Vec<String>,
    pre: String,
    atoms: Vec<String>,
    post: String,
    expect: Expect,
}

fn base_qubits(template: &str) -> usize {
    match template {
        "err_corr" | "deutsch" | "false_err_corr" => 3,
        "qwalk" | "grover_step" | "false_grover_step" => 2,
        _ => 1,
    }
}

fn strs(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Instantiates a template. `psi` selects one of the seeded `psi<k>.npy`
/// states for the error-correction templates.
fn template(name: &str, psi: usize) -> Program {
    let err_corr_atoms = |correct: bool| {
        let mut atoms = strs(&[
            "[q1 q2] := 0",
            "[q q1] *= CX",
            "[q q2] *= CX",
            "( skip # [q] *= X # [q1] *= X # [q2] *= X )",
            "[q q2] *= CX",
            "[q q1] *= CX",
        ]);
        if correct {
            atoms.push("if M01[q2] then if M01[q1] then [q] *= X end end".into());
        }
        atoms
    };
    let grover_step_atoms = strs(&[
        "[q1 q2] := 0",
        "[q1] *= H",
        "[q2] *= H",
        "[q1 q2] *= CZ",
        "[q1] *= H",
        "[q2] *= H",
        "[q1] *= X",
        "[q2] *= X",
        "[q1 q2] *= CZ",
        "[q1] *= X",
        "[q2] *= X",
        "[q1] *= H",
        "[q2] *= H",
    ]);
    let psi_file = format!("psi{psi}.npy");
    let (loads, qubits, pre, atoms, post, expect): (Vec<(&str, String)>, _, _, _, _, _) = match name
    {
        "err_corr" => (
            vec![("Psi", psi_file)],
            strs(&["q", "q1", "q2"]),
            "Psi[q]",
            err_corr_atoms(true),
            "Psi[q]",
            Expect::Verified,
        ),
        "false_err_corr" => (
            vec![("Psi", psi_file)],
            strs(&["q", "q1", "q2"]),
            "Psi[q]",
            err_corr_atoms(false),
            "Psi[q]",
            Expect::Rejected,
        ),
        "deutsch" => (
            vec![("DPost", "dpost.npy".to_string())],
            strs(&["q", "q1", "q2"]),
            "I[q]",
            strs(&[
                "[q1 q2] := 0",
                "[q1] *= H",
                "[q2] *= X",
                "[q2] *= H",
                "if M01[q] then ( [q1 q2] *= CX # [q1 q2] *= C0X ) else ( skip # [q2] *= X ) end",
                "[q1] *= H",
                "if M01[q1] then skip else skip end",
            ]),
            "DPost[q q1]",
            Expect::Verified,
        ),
        "qwalk" => (
            vec![("invN", "invN.npy".to_string())],
            strs(&["q1", "q2"]),
            "I[q1]",
            strs(&[
                "[q1 q2] := 0",
                "{ inv : invN[q1 q2] }; while MQWalk[q1 q2] do \
                 ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end",
            ]),
            "Zero[q1]",
            Expect::Verified,
        ),
        "rus" => (
            vec![],
            strs(&["q"]),
            "I[q]",
            strs(&[
                "[q] := 0",
                "[q] *= H",
                "{ inv : I[q] }; while M01[q] do [q] *= H end",
            ]),
            "P0[q]",
            Expect::Verified,
        ),
        "grover_step" => (
            vec![],
            strs(&["q1", "q2"]),
            "I[q1]",
            grover_step_atoms,
            "P1[q1]",
            Expect::Verified,
        ),
        "false_grover_step" => (
            vec![],
            strs(&["q1", "q2"]),
            "I[q1]",
            grover_step_atoms,
            "P0[q1]",
            Expect::Rejected,
        ),
        "false_h" => (
            vec![],
            strs(&["q"]),
            "P1[q]",
            strs(&["[q] *= H"]),
            "P0[q]",
            Expect::Rejected,
        ),
        "false_ndet" => (
            vec![],
            strs(&["q"]),
            "P0[q]",
            strs(&["( skip # [q] *= X )"]),
            "P0[q]",
            Expect::Rejected,
        ),
        "false_init" => (
            vec![],
            strs(&["q"]),
            "I[q]",
            strs(&["[q] := 0", "[q] *= H"]),
            "P0[q]",
            Expect::Rejected,
        ),
        "near_boundary" => (
            vec![("Edge", "edge.npy".to_string())],
            strs(&["q"]),
            "Edge[q]",
            strs(&["[q] := 0", "[q] *= H"]),
            "P0[q]",
            Expect::Rejected,
        ),
        other => unreachable!("unknown template {other}"),
    };
    Program {
        loads,
        qubits,
        pre: pre.to_string(),
        atoms,
        post: post.to_string(),
        expect,
    }
}

/// Adds the slot's idle ancilla qubits and splices its identity pairs
/// into the top-level sequence (never between an invariant and its loop:
/// loops are single atoms). Pair kinds, qubits and positions are a
/// function of the template occurrence, so a corpus's structure, and
/// with it the work and the cache contents, does not depend on the seed.
fn vary(p: &mut Program, slot: &Slot) {
    for i in 0..slot.ancillas {
        p.qubits.push(format!("a{i}"));
    }
    let n = p.qubits.len();
    for pair in 0..slot.pairs {
        let step = slot.occurrence + pair;
        let x = &p.qubits[step % n];
        let y = &p.qubits[(step + 1) % n];
        let atom = match step % if n > 1 { 3 } else { 2 } {
            0 => format!("[{x}] *= H; [{x}] *= H"),
            1 => format!("[{x}] *= X; [{x}] *= X"),
            _ => format!("[{x} {y}] *= CX; [{x} {y}] *= CX"),
        };
        let at = (slot.occurrence * 7 + pair * 3) % (p.atoms.len() + 1);
        p.atoms.insert(at, atom);
    }
}

/// Renders a program; `asset` maps an `.npy` file name to the path the
/// source should load it from.
fn render(p: &Program, proof: &str, asset: &dyn Fn(&str) -> String, one_line: bool) -> String {
    let nl = if one_line { " " } else { "\n" };
    let mut s = String::new();
    for (name, file) in &p.loads {
        let _ = write!(s, "def {name} := load \"{}\" end{nl}", asset(file));
    }
    let _ = write!(s, "def {proof} := proof [{}] :{nl}", p.qubits.join(" "));
    let _ = write!(s, "  {{ {} }};{nl}", p.pre);
    for atom in &p.atoms {
        let _ = write!(s, "  {atom};{nl}");
    }
    let _ = write!(s, "  {{ {} }}{nl}end{nl}", p.post);
    s
}

/// One job of the template stream.
struct Slot {
    template: &'static str,
    /// How many times `template` occurred before this slot.
    occurrence: usize,
    ancillas: usize,
    pairs: usize,
    /// Which seeded `psi<k>.npy` state the error-correction templates use.
    psi: usize,
}

/// The template stream: blocks of `BLOCK` jobs, each holding exactly the
/// `MIX`, shuffled within the block. Every cost-relevant choice (ancilla
/// count, pair count, `psi` file) cycles with the template's occurrence
/// count, so the work in a corpus or phase does not depend on the seed;
/// the seed picks the order of each block and the operator contents.
fn stream(n: usize, max_qubits: usize, rng: &mut Rng) -> Vec<Slot> {
    let mut out = Vec::with_capacity(n);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    while out.len() < n {
        let mut block = mix_block();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for template in block {
            let k = seen.entry(template).or_insert(0);
            let spare = max_qubits.saturating_sub(base_qubits(template)).min(4);
            out.push(Slot {
                template,
                occurrence: *k,
                ancillas: *k % (spare + 1),
                pairs: (*k / (spare + 1)) % 4,
                psi: *k % 4,
            });
            *k += 1;
        }
    }
    out.truncate(n);
    out
}

/// One block of the `MIX`, in `MIX` order.
fn mix_block() -> Vec<&'static str> {
    let block: Vec<&'static str> = MIX
        .iter()
        .flat_map(|&(t, k)| std::iter::repeat_n(t, k))
        .collect();
    assert_eq!(block.len(), BLOCK, "MIX sums to one block");
    block
}

/// Instantiates and varies one slot.
fn program(slot: &Slot) -> Program {
    let mut p = template(slot.template, slot.psi);
    vary(&mut p, slot);
    p
}

fn write_assets(dir: &Path, rng: &mut Rng) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Four seeded single-qubit states |ψ⟩ = cos t|0⟩ + sin t|1⟩.
    for k in 0..4 {
        let t = rng.range_f64(0.1, 1.4);
        let psi = CVec::new(vec![cr(t.cos()), cr(t.sin())]).projector();
        write_matrix(dir.join(format!("psi{k}.npy")), &psi).map_err(io_err)?;
    }
    // Deutsch postcondition |00⟩⟨00| + |11⟩⟨11| on [q q1].
    let dpost = CMat::diag(&[cr(1.0), cr(0.0), cr(0.0), cr(1.0)]);
    write_matrix(dir.join("dpost.npy"), &dpost).map_err(io_err)?;
    // Quantum-walk invariant N = [|00⟩] + [(|01⟩+|11⟩)/√2].
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let v = CVec::new(vec![cr(0.0), cr(h), cr(0.0), cr(h)]);
    let inv_n = CVec::basis(4, 0).projector().add_mat(&v.projector());
    write_matrix(dir.join("invN.npy"), &inv_n).map_err(io_err)?;
    // The near-boundary precondition (0.5 + 5e-8)·I: wp of `[q]:=0; H`
    // on P0 is exactly 0.5·I, so the triple is false by 5e-8.
    write_matrix(
        dir.join("edge.npy"),
        &CMat::identity(2).scale_re(0.5 + 5e-8),
    )
    .map_err(io_err)?;
    Ok(())
}

fn io_err(e: nqpv_linalg::NpyError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Statement counts by kind over a source, plus the `.npy` paths it loads.
fn count_source(src: &str, counts: &mut BTreeMap<String, u64>) -> Vec<String> {
    let file = parse_source(src).expect("generated sources parse");
    let mut loads = Vec::new();
    for cmd in &file.commands {
        match cmd {
            Command::Def(Decl::LoadOperator { path, .. }) => loads.push(path.clone()),
            Command::Def(Decl::Proof { term, .. }) => count_stmt(&term.body, counts),
            Command::Show(_) => {}
        }
    }
    loads
}

/// Adds one statement tree's node counts to `counts` (`lang.stmts.<kind>`).
pub fn count_stmt(stmt: &Stmt, counts: &mut BTreeMap<String, u64>) {
    let kind = match stmt {
        Stmt::Skip => "skip",
        Stmt::Abort => "abort",
        Stmt::Init { .. } => "init",
        Stmt::Unitary { .. } => "unitary",
        Stmt::Seq(items) => {
            for s in items {
                count_stmt(s, counts);
            }
            return;
        }
        Stmt::NDet(a, b) => {
            count_stmt(a, counts);
            count_stmt(b, counts);
            "choice"
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            count_stmt(then_branch, counts);
            count_stmt(else_branch, counts);
            "if"
        }
        Stmt::While { body, .. } => {
            count_stmt(body, counts);
            "while"
        }
        Stmt::Assert(_) => "assert",
    };
    *counts.entry(format!("lang.stmts.{kind}")).or_insert(0) += 1;
}

/// Adds the matrix payload (rows × cols × 16 bytes) of each loaded file
/// to `linalg.npy_bytes`.
fn add_npy_bytes(
    base: &Path,
    loads: Vec<String>,
    counts: &mut BTreeMap<String, u64>,
) -> io::Result<()> {
    for load in loads {
        let m = nqpv_linalg::read_matrix(base.join(load)).map_err(io_err)?;
        *counts.entry("linalg.npy_bytes".into()).or_insert(0) += (m.rows() * m.cols() * 16) as u64;
    }
    Ok(())
}

/// Writes the inputs of `workload` for `seed` into `dir`.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    std::fs::create_dir_all(dir)?;
    let mut entries: Vec<Entry> = Vec::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    match workload {
        "grover_files" => {
            for case in GROVER_CASES {
                let (n, expect, near) = match case {
                    "g8" => (8, Expect::Verified, false),
                    "g9" => (9, Expect::Verified, false),
                    "g10" => (10, Expect::Verified, false),
                    "g8_false" => (8, Expect::Rejected, false),
                    _ => (8, Expect::Rejected, true),
                };
                let case_dir = dir.join(case);
                let src = write_grover(&case_dir, case, n, &mut rng)?;
                add_npy_bytes(&case_dir, count_source(&src, &mut counts), &mut counts)?;
                entries.push(Entry {
                    name: case.to_string(),
                    path: case.to_string(),
                    expect,
                    template: "grover".into(),
                    qubits: n,
                    near_boundary: near,
                });
            }
        }
        "corpus_batch" => {
            let corpus = dir.join("corpus");
            write_assets(&corpus, &mut rng)?;
            let slots = stream(CORPUS_DISTINCT, 7, &mut rng);
            let mut distinct: Vec<(String, Entry)> = Vec::new();
            for (i, slot) in slots.iter().enumerate() {
                let p = program(slot);
                let src = render(&p, &format!("pf_{i}"), &|f| f.to_string(), false);
                let entry = Entry {
                    name: String::new(),
                    path: String::new(),
                    expect: p.expect,
                    template: slot.template.to_string(),
                    qubits: p.qubits.len(),
                    near_boundary: slot.template == "near_boundary",
                };
                distinct.push((src, entry));
            }
            // After every CORPUS_REPEAT_EVERY-th program, a byte-identical
            // repeat of another one. Repeated templates follow the MIX
            // and the repeated occurrence is fixed, so the repeat share,
            // its verdict mix and its work do not depend on the seed.
            let cycle = mix_block();
            let mut rendered: Vec<(String, Entry)> = Vec::new();
            for (i, job) in distinct.iter().enumerate() {
                rendered.push(job.clone());
                if (i + 1) % CORPUS_REPEAT_EVERY == 0 {
                    let r = i / CORPUS_REPEAT_EVERY;
                    let t = cycle[r % cycle.len()];
                    let same: Vec<usize> = (0..slots.len())
                        .filter(|&j| slots[j].template == t)
                        .collect();
                    let (src, orig) = distinct[same[r % same.len()]].clone();
                    let entry = Entry {
                        template: format!("{}+repeat", orig.template),
                        ..orig
                    };
                    rendered.push((src, entry));
                }
            }
            for (k, (_, entry)) in rendered.iter_mut().enumerate() {
                entry.name = format!("j{k:05}");
                entry.path = format!("corpus/j{k:05}.nqpv");
            }
            for (src, entry) in rendered {
                std::fs::write(dir.join(&entry.path), &src)?;
                add_npy_bytes(&corpus, count_source(&src, &mut counts), &mut counts)?;
                entries.push(entry);
            }
        }
        "daemon_open" => {
            let assets = dir.join("assets");
            write_assets(&assets, &mut rng)?;
            let abs = std::fs::canonicalize(&assets)?;
            let asset = |f: &str| abs.join(f).display().to_string();
            let corpus = dir.join("corpus");
            std::fs::create_dir_all(&corpus)?;
            let mut lines = String::new();
            for (i, slot) in stream(DAEMON_JOBS, 3, &mut rng).iter().enumerate() {
                let p = program(slot);
                let t = slot.template;
                let src = render(&p, &format!("pf_{i}"), &asset, true);
                lines.push_str(src.trim_end());
                lines.push('\n');
                if i < DAEMON_SAMPLE {
                    std::fs::write(corpus.join(format!("j{i}.nqpv")), &src)?;
                    add_npy_bytes(&corpus, count_source(&src, &mut counts), &mut counts)?;
                }
                entries.push(Entry {
                    name: format!("j{i}"),
                    path: format!("sources.txt:{i}"),
                    expect: p.expect,
                    template: t.to_string(),
                    qubits: p.qubits.len(),
                    near_boundary: t == "near_boundary",
                });
            }
            std::fs::write(dir.join("sources.txt"), lines)?;
        }
        other => {
            return Err(io::Error::other(format!("unknown workload '{other}'")));
        }
    }
    // For `daemon_open` the counts describe the sample corpus.
    let jobs = if workload == "daemon_open" {
        DAEMON_SAMPLE
    } else {
        entries.len()
    };
    counts.insert("jobs".into(), jobs as u64);
    write_manifest(dir, &entries, &counts)
}

/// Writes Grover-n as `.nqpv` plus dense `HN`, `Oracle`, `Diff`, `Marked`
/// and `PreG` operators, with a seeded marked state. Returns the source.
fn write_grover(dir: &Path, case: &str, n: usize, rng: &mut Rng) -> io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let dim = 1usize << n;
    let marked = rng.below(dim);
    let theta = (1.0 / (dim as f64).sqrt()).asin();
    let k = ((std::f64::consts::FRAC_PI_4 / theta).floor() as usize).max(1);
    let p_opt = ((2 * k + 1) as f64 * theta).sin().powi(2);
    let (iterations, pre) = match case {
        // Stops after half the iterations yet claims the optimal success
        // probability: the precondition exceeds the true one by ≫ 1e-7.
        "g8_false" => (k / 2, p_opt - 1e-9),
        // (p + 5e-8)·I: false, but within the solver's 1e-7 tolerance.
        "g8_edge" => (k, p_opt + 5e-8),
        _ => (k, p_opt - rng.range_f64(1e-9, 5e-9)),
    };
    let scale = 1.0 / (dim as f64).sqrt();
    let hn = CMat::from_fn(dim, dim, |i, j| {
        let sign = if (i & j).count_ones() % 2 == 0 {
            1.0
        } else {
            -1.0
        };
        cr(sign * scale)
    });
    let oracle = CMat::from_fn(dim, dim, |i, j| match (i == j, i == marked) {
        (true, true) => cr(-1.0),
        (true, false) => cr(1.0),
        _ => c(0.0, 0.0),
    });
    // Diffusion Hⁿ(2|0⟩⟨0| − I)Hⁿ = 2|s⟩⟨s| − I for the uniform |s⟩.
    let diff = CMat::from_fn(dim, dim, |i, j| {
        cr(2.0 / dim as f64 - if i == j { 1.0 } else { 0.0 })
    });
    let marked_proj = CVec::basis(dim, marked).projector();
    let pre_g = CMat::identity(dim).scale_re(pre);
    for (name, m) in [
        ("HN", &hn),
        ("Oracle", &oracle),
        ("Diff", &diff),
        ("Marked", &marked_proj),
        ("PreG", &pre_g),
    ] {
        write_matrix(dir.join(format!("{name}.npy")), m).map_err(io_err)?;
    }
    let all: Vec<String> = (0..n).map(|i| format!("q{i}")).collect();
    let all = all.join(" ");
    let mut src = String::new();
    for name in ["HN", "Oracle", "Diff", "Marked", "PreG"] {
        let _ = writeln!(src, "def {name} := load \"{name}.npy\" end");
    }
    let _ = writeln!(src, "def pf := proof [{all}] :");
    let _ = writeln!(src, "  {{ PreG[{all}] }};");
    let _ = writeln!(src, "  [{all}] := 0;");
    let _ = writeln!(src, "  [{all}] *= HN;");
    for _ in 0..iterations {
        let _ = writeln!(src, "  [{all}] *= Oracle; [{all}] *= Diff;");
    }
    let _ = writeln!(src, "  {{ Marked[{all}] }}\nend");
    std::fs::write(dir.join("grover.nqpv"), &src)?;
    Ok(src)
}

fn write_manifest(dir: &Path, entries: &[Entry], counts: &BTreeMap<String, u64>) -> io::Result<()> {
    let mut m = String::from("# name\tpath\texpect\ttemplate\tqubits\tnear_boundary\n");
    for e in entries {
        let _ = writeln!(
            m,
            "{}\t{}\t{}\t{}\t{}\t{}",
            e.name,
            e.path,
            e.expect.label(),
            e.template,
            e.qubits,
            u8::from(e.near_boundary)
        );
    }
    std::fs::write(dir.join("manifest.tsv"), m)?;
    let mut c = String::new();
    for (k, v) in counts {
        let _ = writeln!(c, "{k}\t{v}");
    }
    std::fs::write(dir.join("counts.tsv"), c)
}

/// Reads the manifest written by [`generate`].
pub fn read_manifest(dir: &Path) -> io::Result<Vec<Entry>> {
    let text = std::fs::read_to_string(dir.join("manifest.tsv"))?;
    let bad = || io::Error::other("malformed manifest.tsv");
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 6 {
            return Err(bad());
        }
        out.push(Entry {
            name: f[0].to_string(),
            path: f[1].to_string(),
            expect: Expect::parse(f[2]).ok_or_else(bad)?,
            template: f[3].to_string(),
            qubits: f[4].parse().map_err(|_| bad())?,
            near_boundary: f[5] == "1",
        });
    }
    Ok(out)
}

/// Reads the expected deterministic counts written by [`generate`].
pub fn read_counts(dir: &Path) -> io::Result<BTreeMap<String, u64>> {
    let text = std::fs::read_to_string(dir.join("counts.tsv"))?;
    text.lines()
        .map(|l| {
            let (k, v) = l
                .split_once('\t')
                .ok_or_else(|| io::Error::other("bad counts"))?;
            Ok((
                k.to_string(),
                v.parse().map_err(|_| io::Error::other("bad counts"))?,
            ))
        })
        .collect()
}
