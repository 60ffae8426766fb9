//! The traced run's instrumentation, kept entirely on the benchmark side:
//! a job is verified by calling each layer's public functions in the
//! order `Session::run_str` and `verify_proof_term_with` call them, and
//! every call is wrapped in an in-memory span (name, start, end, parent,
//! job). Nothing inside the program is instrumented.

use nqpv_core::{
    backward_with_cache, render_assertion, render_outline, Assertion, PredicateRegistry,
    TransformerCache, VcOptions, VerifError,
};
use nqpv_lang::{parse_source, AssertionExpr, Command, Decl, ProofTerm, Stmt};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_solver::Verdict;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub job: u32,
    pub tid: u32,
}

/// Per-thread span buffer.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub job: u32,
    tid: u32,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            job: u32::MAX,
            tid,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.stack.last().copied(),
            job: self.job,
            tid: self.tid,
        });
        self.stack.push(idx);
        self.spans[idx].start = self.now();
        let out = f(self);
        self.spans[idx].end = self.now();
        self.stack.pop();
        out
    }
}

/// Moves `src` (one recorder's spans) onto the end of `dst`, rebasing
/// parent indices.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// The outcome of one traced job.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// `Some(true)` verified, `Some(false)` rejected, `None` error.
    pub verified: Option<bool>,
    pub error: Option<String>,
    pub obligations: u64,
    pub npy_bytes: u64,
    pub stmts: BTreeMap<String, u64>,
}

/// Verifies one `.nqpv` source the way a batch worker does, with a span
/// around every layer call. The root span is `job`; its self time is the
/// job's unattributed time.
pub fn run_job(
    rec: &mut Recorder,
    src: &str,
    base_dir: &Path,
    vc: VcOptions,
    cache: Option<&dyn TransformerCache>,
) -> JobOutcome {
    let mut out = JobOutcome::default();
    let result = rec.span("job", |rec| -> Result<bool, String> {
        let mut lib = rec.span("quantum.builtins", |_| OperatorLibrary::with_builtins());
        let mut registry = PredicateRegistry::new();
        let file = rec
            .span("lang.parse", |_| parse_source(src))
            .map_err(|e| e.to_string())?;
        let mut all_verified = true;
        for cmd in &file.commands {
            match cmd {
                Command::Def(Decl::LoadOperator { name, path }) => {
                    let full = base_dir.join(path);
                    let m = rec
                        .span("linalg.npy_read", |_| nqpv_linalg::read_matrix(&full))
                        .map_err(|e| format!("loading '{path}': {e}"))?;
                    out.npy_bytes += (m.rows() * m.cols() * 16) as u64;
                    rec.span("quantum.validate", |_| lib.insert_auto(name, m))
                        .map_err(|e| e.to_string())?;
                }
                Command::Def(Decl::Proof { name, term }) => {
                    crate::gen::count_stmt(&term.body, &mut out.stmts);
                    let verified = rec
                        .span("core.verify", |rec| {
                            verify(
                                rec,
                                term,
                                &lib,
                                vc,
                                &mut registry,
                                cache,
                                &mut out.obligations,
                            )
                        })
                        .map_err(|e| format!("verifying proof '{name}':\n{e}"))?;
                    all_verified &= verified;
                }
                Command::Show(_) => {}
            }
        }
        Ok(all_verified)
    });
    match result {
        Ok(v) => out.verified = Some(v),
        Err(e) => out.error = Some(e),
    }
    out
}

/// `verify_proof_term_with`, step by step: resolve, wp, final decision,
/// outline. Returns whether the proof verified.
fn verify(
    rec: &mut Recorder,
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    registry: &mut PredicateRegistry,
    cache: Option<&dyn TransformerCache>,
    obligations: &mut u64,
) -> Result<bool, VerifError> {
    let reg = Register::new(&term.qubits)?;
    let (post, pre) = rec.span("core.resolve", |_| -> Result<_, VerifError> {
        let post = resolve(&term.post, lib, &reg, registry, opts.factor_assertions)?;
        let pre = match &term.pre {
            Some(expr) => Some(resolve(expr, lib, &reg, registry, opts.factor_assertions)?),
            None => None,
        };
        register_stmt_assertions(&term.body, lib, &reg, registry);
        Ok((post, pre))
    })?;
    let rankings = HashMap::new();
    let ann = rec.span("core.wp", |_| {
        backward_with_cache(&term.body, &post, lib, &reg, opts, &rankings, cache)
    })?;
    let verified = match &pre {
        None => true,
        Some(p) => {
            *obligations += ann.pre.len() as u64;
            let idx = rec.spans.len();
            let verdict = rec.span("solver.decide", |_| {
                p.le_inf_cached(&ann.pre, opts.lowner, cache)
            })?;
            let holds = verdict.holds();
            rec.spans[idx].name = if holds {
                "solver.accept"
            } else {
                "solver.reject"
            };
            if let Verdict::Violated(v) = &verdict {
                // The verifier renders the violation into its report.
                std::hint::black_box(format!(
                    "Order relation not satisfied:\n  {} <= {}\n  (violation margin {:.3e})",
                    nqpv_lang::pretty_assertion(term.pre.as_ref().unwrap_or(&term.post)),
                    render_assertion(&ann.pre.clone(), registry, &term.qubits.join(" ")),
                    v.margin
                ));
            }
            holds
        }
    };
    let pre_display = term.pre.as_ref().map(nqpv_lang::pretty_assertion);
    std::hint::black_box(render_outline(
        &term.qubits,
        pre_display.as_deref(),
        &ann,
        &nqpv_lang::pretty_assertion(&term.post),
        registry,
    ));
    Ok(verified)
}

fn resolve(
    expr: &AssertionExpr,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
    factor: bool,
) -> Result<Assertion, VerifError> {
    let a = Assertion::from_expr_with(expr, lib, reg, factor)?;
    if !a.validate_predicates(1e-6) {
        return Err(VerifError::InvalidInvariant {
            details: "assertion contains operators outside 0 ⊑ M ⊑ I".into(),
        });
    }
    register_expr(expr, lib, reg, registry);
    Ok(a)
}

fn register_stmt_assertions(
    stmt: &Stmt,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
) {
    match stmt {
        Stmt::Assert(a) => register_expr(a, lib, reg, registry),
        Stmt::Seq(items) => {
            for s in items {
                register_stmt_assertions(s, lib, reg, registry);
            }
        }
        Stmt::NDet(a, b) => {
            register_stmt_assertions(a, lib, reg, registry);
            register_stmt_assertions(b, lib, reg, registry);
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            register_stmt_assertions(then_branch, lib, reg, registry);
            register_stmt_assertions(else_branch, lib, reg, registry);
        }
        Stmt::While {
            invariant, body, ..
        } => {
            if let Some(inv) = invariant {
                register_expr(inv, lib, reg, registry);
            }
            register_stmt_assertions(body, lib, reg, registry);
        }
        _ => {}
    }
}

fn register_expr(
    expr: &AssertionExpr,
    lib: &OperatorLibrary,
    reg: &Register,
    registry: &mut PredicateRegistry,
) {
    for term in &expr.terms {
        if let Ok(m) = lib.predicate(&term.op) {
            if let Ok(pos) = reg.positions(&term.qubits) {
                if m.rows() == (1usize << pos.len()) {
                    let embedded = nqpv_linalg::embed(&m, &pos, reg.n_qubits());
                    registry.register_named(
                        &format!("{}[{}]", term.op, term.qubits.join(" ")),
                        &embedded,
                    );
                }
            }
        }
    }
}

/// The layer a span's self time is attributed to: the prefix of its name,
/// except the root `job` span, whose self time is time no layer call
/// covered.
pub fn layer_of(name: &str) -> &str {
    if name == "job" {
        "unattributed"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// Self time (ns) of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}
