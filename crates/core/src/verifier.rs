//! The NQPV verifier: binds a proof term against an operator library,
//! runs the backward pass and the final comparison, and renders the
//! annotated proof outline when a reader asks for it.
//!
//! This reproduces the Sec. 6.2 workflow: "after successfully parsing the
//! input, NQPV inductively constructs proofs … The strategy is to calculate
//! the weakest preconditions in the backward direction … In the end, the
//! assistant compares the verification condition and the precondition
//! proposed by the user and then generates the final result."

use crate::assertion::Assertion;
use crate::error::VerifError;
use crate::outline::{render_assertion, render_outline, PredicateRegistry};
use crate::ranking::RankingCertificate;
use crate::transformer::{Annotated, VcOptions};
use nqpv_lang::{AssertionExpr, ProofTerm, Stmt};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_solver::Verdict;
use std::collections::HashMap;

/// The machine-readable record of a failed final comparison
/// `Θ ⊑_inf wp.S.Ψ`: which obligation (element of the computed VC set)
/// was violated, the solver's witness state, and the certified margin.
/// This is the raw material the `nqpv-diagnose` counterexample extractor
/// refines into a replayed witness + scheduler trace; previously the
/// solver's evidence was rendered into a string and discarded.
#[derive(Debug, Clone)]
pub struct FailedObligation {
    /// Index of the violated element of the computed VC set
    /// ([`VerifyOutcome::computed_pre`]).
    pub vc_index: usize,
    /// The solver's witness density operator `ρ` with
    /// `Exp(ρ ⊨ Θ) > tr(VC[vc_index]·ρ) + margin`.
    pub witness: nqpv_linalg::CMat,
    /// The certified violation margin.
    pub margin: f64,
}

/// The final status of a verification run.
#[derive(Debug, Clone)]
pub enum VerifyStatus {
    /// The user's precondition entails the computed verification condition
    /// (or no precondition was given — the tool then reports the weakest
    /// precondition it computed, Sec. 6.1).
    Verified,
    /// `pre ⊑_inf VC` failed: the correctness formula is rejected. The
    /// tool's "Order relation not satisfied" text is
    /// [`Rendered::violation`].
    PreconditionViolated {
        /// The structured violation evidence (obligation index, witness
        /// state, margin).
        violation: FailedObligation,
    },
    /// The solver could not resolve the final comparison within tolerance.
    Unresolved {
        /// Diagnostic.
        details: String,
    },
}

impl VerifyStatus {
    /// `true` for [`VerifyStatus::Verified`].
    pub fn verified(&self) -> bool {
        matches!(self, VerifyStatus::Verified)
    }
}

/// The result of verifying one proof term: the verdict plus what a
/// reader needs to render the proof outline on demand
/// ([`VerifyOutcome::render`]). Verdict-only callers (batch, daemon,
/// `explain`) never pay for names or text.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Whether the correctness formula was established.
    pub status: VerifyStatus,
    /// The annotated backward pass; its root `pre` is the computed
    /// verification condition.
    pub annotated: Annotated,
    /// The verified proof term.
    pub term: ProofTerm,
}

/// The display text of a [`VerifyOutcome`], as the tool prints it.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The annotated proof outline, in the tool's output format.
    pub outline: String,
    /// For a rejected proof, the tool's "Order relation not satisfied"
    /// diagnostic.
    pub violation: Option<String>,
}

impl VerifyOutcome {
    /// The computed verification condition (weakest precondition when no
    /// loops intervene; invariant-derived otherwise).
    pub fn computed_pre(&self) -> &Assertion {
        &self.annotated.pre
    }

    /// Renders the outline and the violation text, extending `registry`
    /// with every predicate that appears (user-supplied names first, then
    /// generated `VAR*`). `lib` must be the library the term was verified
    /// against. Rendering outcomes in proof order into one registry gives
    /// every session-wide `VARk` the same number as the tool.
    pub fn render(&self, lib: &OperatorLibrary, registry: &mut PredicateRegistry) -> Rendered {
        let term = &self.term;
        let ann = &self.annotated;
        let register_display = term.qubits.join(" ");
        if let Ok(reg) = Register::new(&term.qubits) {
            register_expr(&term.post, lib, &reg, registry);
            if let Some(pre) = &term.pre {
                register_expr(pre, lib, &reg, registry);
            }
            register_stmt_assertions(&term.body, lib, &reg, registry);
        }
        let pre_display = term.pre.as_ref().map(nqpv_lang::pretty_assertion);
        let violation = match &self.status {
            VerifyStatus::PreconditionViolated { violation } => Some(format!(
                "Order relation not satisfied:\n  {} <= {}\n  (violation margin {:.3e})",
                pre_display.as_deref().unwrap_or_default(),
                render_assertion(&ann.pre, registry, &register_display),
                violation.margin
            )),
            _ => None,
        };
        let outline = render_outline(
            &term.qubits,
            pre_display.as_deref(),
            ann,
            &nqpv_lang::pretty_assertion(&term.post),
            registry,
        );
        Rendered { outline, violation }
    }
}

/// Verifies a proof term: the backward pass and the final comparison.
/// Nothing is named or rendered; see [`VerifyOutcome::render`].
///
/// # Errors
///
/// Returns [`VerifError`] for structural failures (unknown operators,
/// invalid invariants/rankings, failed cut assertions, resource limits).
/// A failing *final* precondition check is reported through
/// [`VerifyStatus::PreconditionViolated`], not an error, so the outline is
/// still available — mirroring the tool, which prints the outline and the
/// error message.
pub fn verify_proof_term(
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
) -> Result<VerifyOutcome, VerifError> {
    verify_proof_term_with(term, lib, opts, rankings, None)
}

/// [`verify_proof_term`] with an optional verdict cache threaded through
/// every `⊑_inf` obligation (see [`crate::cache::TransformerCache`]);
/// batch drivers share one cache across many proof terms.
///
/// # Errors
///
/// Same as [`verify_proof_term`].
pub fn verify_proof_term_with(
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
    cache: Option<&dyn crate::cache::TransformerCache>,
) -> Result<VerifyOutcome, VerifError> {
    let reg = Register::new(&term.qubits)?;
    // Resolve the user-facing assertions (rank detection per
    // `opts.factor_assertions`).
    let post = resolve_user_assertion(&term.post, lib, &reg, opts.factor_assertions)?;
    let pre = match &term.pre {
        Some(expr) => Some(resolve_user_assertion(
            expr,
            lib,
            &reg,
            opts.factor_assertions,
        )?),
        None => None,
    };

    // Backward pass.
    let ann = crate::transformer::backward_with_cache(
        &term.body, &post, lib, &reg, opts, rankings, cache,
    )?;

    // Final comparison (when a precondition was supplied) — through the
    // verdict cache, so byte-identical jobs in a batch decide it once.
    let status = match &pre {
        None => VerifyStatus::Verified,
        Some(p) => match p.le_inf_cached(&ann.pre, opts.lowner, cache)? {
            Verdict::Holds => VerifyStatus::Verified,
            Verdict::Violated(v) => VerifyStatus::PreconditionViolated {
                violation: FailedObligation {
                    vc_index: v.index,
                    witness: v.witness,
                    margin: v.margin,
                },
            },
            Verdict::Inconclusive { lower, upper, .. } => VerifyStatus::Unresolved {
                details: format!("final comparison unresolved in [{lower:.3e}, {upper:.3e}]"),
            },
        },
    };
    Ok(VerifyOutcome {
        status,
        annotated: ann,
        term: term.clone(),
    })
}

/// Resolves a user assertion, checking `0 ⊑ M ⊑ I` for each term.
fn resolve_user_assertion(
    expr: &AssertionExpr,
    lib: &OperatorLibrary,
    reg: &Register,
    factor: bool,
) -> Result<Assertion, VerifError> {
    let a = Assertion::from_expr_with(expr, lib, reg, factor)?;
    if !a.validate_predicates(1e-6) {
        return Err(VerifError::InvalidInvariant {
            details: "assertion contains operators outside 0 ⊑ M ⊑ I".into(),
        });
    }
    Ok(a)
}

/// Registers the embedded matrices of every assertion expression appearing
/// inside a statement (invariants and cut assertions), so the outline shows
/// source names instead of `VAR*`.
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

/// Registers each term's embedded matrix under its source display name.
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
                    let embedded = nqpv_linalg::embed(m, &pos, reg.n_qubits());
                    registry.register_named(
                        &format!("{}[{}]", term.op, term.qubits.join(" ")),
                        &embedded,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::Mode;
    use nqpv_lang::parse_proof_body;
    use nqpv_linalg::CVec;

    fn qwalk_library() -> OperatorLibrary {
        let mut lib = OperatorLibrary::with_builtins();
        let n00 = nqpv_quantum::ket("00").projector();
        let v = CVec::new(vec![
            nqpv_linalg::cr(0.0),
            nqpv_linalg::cr(std::f64::consts::FRAC_1_SQRT_2),
            nqpv_linalg::cr(0.0),
            nqpv_linalg::cr(std::f64::consts::FRAC_1_SQRT_2),
        ]);
        lib.insert_predicate("invN", n00.add_mat(&v.projector()))
            .unwrap();
        lib
    }

    const QWALK_BODY: &str = "{ I[q1] }; \
        [q1 q2] := 0; \
        { inv : invN[q1 q2] }; \
        while MQWalk[q1 q2] do \
          ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) \
        end; \
        { Zero[q1] }";

    #[test]
    fn qwalk_verifies_and_produces_the_sec62_outline() {
        let lib = qwalk_library();
        let term = parse_proof_body(&["q1", "q2"], QWALK_BODY).unwrap();
        let outcome =
            verify_proof_term(&term, &lib, VcOptions::default(), &HashMap::new()).unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
        // The generated VC for the whole program is I (full space), i.e.
        // the formula {I} QWalk {0} of Eq. 15.
        assert_eq!(outcome.computed_pre().len(), 1);
        assert!(outcome.computed_pre().ops()[0].approx_eq(&nqpv_linalg::CMat::identity(4), 1e-9));
        // Verification names nothing; rendering does.
        let mut registry = PredicateRegistry::new();
        let outline = outcome.render(&lib, &mut registry).outline;
        // The outline must show the invariant name and the while structure.
        assert!(outline.contains("invN[q1 q2]"), "{outline}");
        assert!(outline.contains("while MQWalk[q1 q2] do"));
        assert!(outline.contains("// the Veri. Con."));
        // show VAR-like names resolve.
        assert!(registry.matrix("invN[q1 q2]").is_some());
        assert!(registry.matrix("VAR0").is_some());
    }

    #[test]
    fn invalid_invariant_reports_the_paper_error() {
        let lib = qwalk_library();
        let body = QWALK_BODY.replace("invN[q1 q2]", "P0[q1]");
        let term = parse_proof_body(&["q1", "q2"], &body).unwrap();
        let err =
            verify_proof_term(&term, &lib, VcOptions::default(), &HashMap::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Order relation not satisfied"), "{msg}");
        assert!(msg.contains("not a valid loop invariant"), "{msg}");
    }

    #[test]
    fn failing_precondition_is_reported_not_errored() {
        // {P1} H {P0} is false (wlp = |+⟩⟨+|, and P1 ⋢ |+⟩⟨+|).
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(&["q"], "{ P1[q] }; [q] *= H; { P0[q] }").unwrap();
        let outcome =
            verify_proof_term(&term, &lib, VcOptions::default(), &HashMap::new()).unwrap();
        match &outcome.status {
            VerifyStatus::PreconditionViolated { violation } => {
                // The structured record carries the solver's evidence: the
                // witness is a state with tr(P1·ρ) − tr(Pp·ρ) = margin.
                assert!(violation.margin > 0.2, "{}", violation.margin);
                assert!(nqpv_linalg::is_partial_density(&violation.witness, 1e-6));
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // Outline and violation text still rendered.
        let rendered = outcome.render(&lib, &mut PredicateRegistry::new());
        assert!(rendered.outline.contains("[q] *= H"));
        let details = rendered.violation.expect("violation text");
        assert_eq!(
            details,
            "Order relation not satisfied:\n  { P1[q] } <= { VAR0[q] }\n  (violation margin 5.000e-1)"
        );
    }

    #[test]
    fn omitted_precondition_reports_weakest_precondition() {
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(&["q"], "[q] *= H; { P0[q] }").unwrap();
        let outcome =
            verify_proof_term(&term, &lib, VcOptions::default(), &HashMap::new()).unwrap();
        assert!(outcome.status.verified());
        // VC = |+⟩⟨+| = Pp.
        assert!(
            outcome.computed_pre().ops()[0].approx_eq(&nqpv_quantum::ket("+").projector(), 1e-9)
        );
    }

    #[test]
    fn total_mode_verifies_rus_with_ranking() {
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(
            &["q"],
            "{ I[q] }; [q] := 0; [q] *= H; { inv : I[q] }; \
             while M01[q] do [q] *= H end; { P0[q] }",
        )
        .unwrap();
        let mut rankings = HashMap::new();
        rankings.insert(
            0,
            RankingCertificate::geometric(2, nqpv_quantum::ket("1").projector(), 0.5),
        );
        let outcome = verify_proof_term(
            &term,
            &lib,
            VcOptions {
                mode: Mode::Total,
                ..VcOptions::default()
            },
            &rankings,
        )
        .unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
    }
}
