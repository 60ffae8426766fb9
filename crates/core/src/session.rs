//! Session driver: executes whole NQPV source files
//! (`def … end` / `show … end`), maintaining the operator library, proof
//! outcomes and the `show` registry — the programmatic face of the CLI.
//!
//! Proofs are verified for their verdict alone. Outlines, predicate names
//! and violation text are rendered the first time something reads them
//! (`show`, [`Session::outline`], [`Session::registry`]), for every
//! pending proof in proof order, so `VARk` numbering matches an eager run.

use crate::cache::TransformerCache;
use crate::error::VerifError;
use crate::outline::{render_matrix, PredicateRegistry};
use crate::ranking::RankingCertificate;
use crate::transformer::VcOptions;
use crate::verifier::{verify_proof_term_with, Rendered, VerifyOutcome, VerifyStatus};
use nqpv_lang::{parse_source, Command, Decl, SourceFile};
use nqpv_quantum::OperatorLibrary;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors produced while executing a source file.
#[derive(Debug)]
pub enum SessionError {
    /// Parse failure.
    Parse(nqpv_lang::ParseError),
    /// `.npy` load failure.
    Npy(String, nqpv_linalg::NpyError),
    /// Operator registration failure.
    Library(nqpv_quantum::LibraryError),
    /// Verification failure (structural).
    Verify {
        /// The proof's `def` name.
        name: String,
        /// The underlying error.
        error: VerifError,
    },
    /// `show` of an unknown name.
    UnknownShow(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Npy(path, e) => write!(f, "loading '{path}': {e}"),
            SessionError::Library(e) => write!(f, "{e}"),
            SessionError::Verify { name, error } => {
                write!(f, "verifying proof '{name}':\n{error}")
            }
            SessionError::UnknownShow(n) => write!(f, "show: unknown name '{n}'"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// `true` when the underlying failure is a cooperative-deadline
    /// expiry (see [`VerifError::is_timeout`]) — the batch engine maps
    /// these to `TIMEOUT` verdicts instead of generic errors.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SessionError::Verify { error, .. } if error.is_timeout())
    }
}

/// An interactive-style NQPV session.
///
/// # Examples
///
/// ```
/// use nqpv_core::Session;
/// let mut session = Session::new();
/// session.run_str(
///     "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end show pf end",
/// )?;
/// assert!(session.outcome("pf").unwrap().status.verified());
/// # Ok::<(), nqpv_core::SessionError>(())
/// ```
pub struct Session {
    lib: OperatorLibrary,
    registry: PredicateRegistry,
    /// Every proof verified so far, in order (shadowed duplicates too:
    /// their rendering still allocates `VARk` names).
    proofs: Vec<VerifyOutcome>,
    /// The display text of `proofs[..rendered.len()]`.
    rendered: Vec<Rendered>,
    /// Proof name → index of its latest run in `proofs`.
    latest: HashMap<String, usize>,
    rankings: HashMap<String, HashMap<usize, RankingCertificate>>,
    opts: VcOptions,
    base_dir: PathBuf,
    output: Vec<String>,
    cache: Option<Arc<dyn TransformerCache>>,
    proof_log: Vec<(String, bool)>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("lib", &self.lib)
            .field("registry", &self.registry)
            .field("proofs", &self.proofs)
            .field("rendered", &self.rendered)
            .field("latest", &self.latest)
            .field("rankings", &self.rankings)
            .field("opts", &self.opts)
            .field("base_dir", &self.base_dir)
            .field("output", &self.output)
            .field("proof_log", &self.proof_log)
            .field("cache", &self.cache.as_ref().map(|_| "<shared>"))
            .finish()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with the built-in operator library and default
    /// options.
    pub fn new() -> Self {
        Session {
            lib: OperatorLibrary::with_builtins(),
            registry: PredicateRegistry::new(),
            proofs: Vec::new(),
            rendered: Vec::new(),
            latest: HashMap::new(),
            rankings: HashMap::new(),
            opts: VcOptions::default(),
            base_dir: PathBuf::from("."),
            output: Vec::new(),
            cache: None,
            proof_log: Vec::new(),
        }
    }

    /// Overrides the verification options.
    pub fn with_options(mut self, opts: VcOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the directory `.npy` paths are resolved against.
    pub fn with_base_dir<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.base_dir = dir.into();
        self
    }

    /// Shares a solver verdict cache; batch drivers hand the same `Arc`
    /// to every session so repeated `⊑_inf` queries across a corpus are
    /// decided once.
    pub fn with_cache(mut self, cache: Arc<dyn TransformerCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Mutable access to the operator library (to pre-register operators
    /// programmatically, as tests and examples do). Pending proofs are
    /// rendered first, against the library they were verified with.
    pub fn library_mut(&mut self) -> &mut OperatorLibrary {
        self.render_pending();
        &mut self.lib
    }

    /// Supplies ranking certificates for the loops of a named proof
    /// (keyed by pre-order loop index), for total-correctness runs.
    pub fn set_rankings(&mut self, proof: &str, rankings: HashMap<usize, RankingCertificate>) {
        self.rankings.insert(proof.to_string(), rankings);
    }

    /// Parses and executes NQPV source text.
    ///
    /// # Errors
    ///
    /// Returns the first [`SessionError`] encountered.
    pub fn run_str(&mut self, src: &str) -> Result<(), SessionError> {
        let file = {
            let mut span = self.opts.tracer.span(nqpv_telemetry::Phase::Parse, "parse");
            if span.recording() {
                span.arg("bytes", nqpv_telemetry::ArgValue::U64(src.len() as u64));
            }
            parse_source(src).map_err(SessionError::Parse)?
        };
        self.run(&file)
    }

    /// Executes a parsed source file.
    ///
    /// # Errors
    ///
    /// Returns the first [`SessionError`] encountered.
    pub fn run(&mut self, file: &SourceFile) -> Result<(), SessionError> {
        for cmd in &file.commands {
            match cmd {
                Command::Def(Decl::LoadOperator { name, path }) => {
                    let full = self.base_dir.join(path);
                    let m = nqpv_linalg::read_matrix(&full)
                        .map_err(|e| SessionError::Npy(path.clone(), e))?;
                    self.library_mut()
                        .insert_auto(name, m)
                        .map_err(SessionError::Library)?;
                }
                Command::Def(Decl::Proof { name, term }) => {
                    // One span per proof: brackets the whole wp+solver
                    // cascade so a multi-proof file's trace shows where
                    // each proof's time went.
                    let mut span = self.opts.tracer.span(nqpv_telemetry::Phase::Other, "proof");
                    if span.recording() {
                        span.arg("name", nqpv_telemetry::ArgValue::Str(name.clone()));
                        span.arg(
                            "qubits",
                            nqpv_telemetry::ArgValue::U64(term.qubits.len() as u64),
                        );
                    }
                    let empty = HashMap::new();
                    let rankings = self.rankings.get(name).unwrap_or(&empty);
                    let outcome = verify_proof_term_with(
                        term,
                        &self.lib,
                        self.opts,
                        rankings,
                        self.cache.as_deref(),
                    )
                    .map_err(|error| SessionError::Verify {
                        name: name.clone(),
                        error,
                    })?;
                    self.proof_log
                        .push((name.clone(), outcome.status.verified()));
                    self.latest.insert(name.clone(), self.proofs.len());
                    self.proofs.push(outcome);
                }
                Command::Show(name) => {
                    let text = self.show(name)?;
                    self.output.push(text);
                }
            }
        }
        Ok(())
    }

    /// Renders every pending proof, in proof order.
    fn render_pending(&mut self) {
        for outcome in &self.proofs[self.rendered.len()..] {
            self.rendered
                .push(outcome.render(&self.lib, &mut self.registry));
        }
    }

    /// Renders a proof outline or an operator matrix by name.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownShow`] for unresolved names.
    pub fn show(&mut self, name: &str) -> Result<String, SessionError> {
        self.render_pending();
        if let Some(&i) = self.latest.get(name) {
            let rendered = &self.rendered[i];
            let mut text = rendered.outline.clone();
            if let Some(violation) = &rendered.violation {
                text.push_str(&format!("\nError:\n  {violation}\n"));
            }
            if let VerifyStatus::Unresolved { details } = &self.proofs[i].status {
                text.push_str(&format!("\nWarning: {details}\n"));
            }
            return Ok(text);
        }
        if let Some(m) = self.registry.matrix(name) {
            return Ok(render_matrix(name, m));
        }
        if let Some(op) = self.lib.get(name) {
            return Ok(match op {
                nqpv_quantum::LibOp::Unitary(m) | nqpv_quantum::LibOp::Predicate(m) => {
                    render_matrix(name, m)
                }
                nqpv_quantum::LibOp::Measurement(meas) => {
                    format!("{name}.P0 =\n{}\n{name}.P1 =\n{}", meas.p0(), meas.p1())
                }
            });
        }
        Err(SessionError::UnknownShow(name.to_string()))
    }

    /// The outcome for a named proof, if it has been verified.
    /// With duplicate `def` names, later proofs shadow earlier ones;
    /// [`Session::proof_verdicts`] keeps every run in order.
    pub fn outcome(&self, name: &str) -> Option<&VerifyOutcome> {
        self.latest.get(name).map(|&i| &self.proofs[i])
    }

    /// The annotated proof outline of a named proof, rendered on first
    /// read.
    pub fn outline(&mut self, name: &str) -> Option<&str> {
        self.render_pending();
        let &i = self.latest.get(name)?;
        Some(&self.rendered[i].outline)
    }

    /// Every proof this session has verified, in execution order, with
    /// its verdict — the per-proof record batch drivers and the CLI
    /// report from (robust to duplicate proof names, unlike the
    /// name-keyed [`Session::outcome`] map).
    pub fn proof_verdicts(&self) -> &[(String, bool)] {
        &self.proof_log
    }

    /// Output accumulated by `show` commands, in order.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// The predicate registry (for `show VARk`-style queries), with every
    /// proof so far rendered into it.
    pub fn registry(&mut self) -> &PredicateRegistry {
        self.render_pending();
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_a_simple_proof_and_show() {
        let mut s = Session::new();
        s.run_str("def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end\nshow pf end")
            .unwrap();
        assert!(s.outcome("pf").unwrap().status.verified());
        assert_eq!(s.output().len(), 1);
        assert!(s.output()[0].contains("proof [q]"));
    }

    #[test]
    fn outlines_and_names_render_on_first_read() {
        // No `show` in the source: nothing reads the outline until the
        // accessors do, and they agree with `show`.
        let mut s = Session::new();
        s.run_str("def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end")
            .unwrap();
        assert!(s.registry().matrix("VAR0").is_some());
        let outline = s.outline("pf").unwrap().to_string();
        assert!(
            outline.contains("{ VAR0[q] }; // the Veri. Con."),
            "{outline}"
        );
        let shown = s.show("pf").unwrap();
        assert!(shown.starts_with(&outline));
        assert!(shown.contains("{ P1[q] } <= { VAR0[q] }"), "{shown}");
        assert!(s.outline("nope").is_none());
    }

    #[test]
    fn show_library_operators_and_measurements() {
        let mut s = Session::new();
        assert!(s.show("H").unwrap().contains("0.7071"));
        let m01 = s.show("M01").unwrap();
        assert!(m01.contains("M01.P0"));
        assert!(m01.contains("M01.P1"));
        assert!(matches!(s.show("NOPE"), Err(SessionError::UnknownShow(_))));
    }

    #[test]
    fn load_command_reads_npy_files() {
        let dir = std::env::temp_dir().join("nqpv_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = nqpv_quantum::gates::h();
        nqpv_linalg::write_matrix(dir.join("had.npy"), &m).unwrap();
        let mut s = Session::new().with_base_dir(&dir);
        s.run_str("def MyH := load \"had.npy\" end").unwrap();
        assert!(s.library_mut().unitary("MyH").is_ok());
        // Broken path errors out.
        let mut s2 = Session::new().with_base_dir(&dir);
        let err = s2.run_str("def Q := load \"missing.npy\" end").unwrap_err();
        assert!(matches!(err, SessionError::Npy(_, _)));
    }

    #[test]
    fn structural_errors_carry_the_proof_name() {
        let mut s = Session::new();
        let err = s
            .run_str("def broken := proof [q] : { I[q] }; [q] *= NOPE; { I[q] } end")
            .unwrap_err();
        match err {
            SessionError::Verify { name, .. } => assert_eq!(name, "broken"),
            other => panic!("expected verify error, got {other}"),
        }
    }

    #[test]
    fn failed_precondition_shows_error_in_outline() {
        let mut s = Session::new();
        s.run_str("def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end\nshow pf end")
            .unwrap();
        assert!(!s.outcome("pf").unwrap().status.verified());
        assert!(s.output()[0].contains("Order relation not satisfied"));
    }
}
