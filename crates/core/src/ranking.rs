//! Ranking assertions for total correctness (Definition 4.3).
//!
//! A `Θ̂`-ranking assertion is a scheduler-indexed family
//! `{R_i^η : i ≥ 0, η ∈ [[S]]^ℕ}` with (1) `Θ̂ ⊑_inf R_0^η`, (2) each
//! sequence decreasing to `0`, and (3) `P¹∘η₁†(R_i^{η→}) ⊑ R_{i+1}^η`.
//! The checker accepts the *uniform, finitely-presented* form
//! [`RankingCertificate`]: an explicit prefix plus a geometric tail,
//! which instantiates the definition.

use crate::assertion::Assertion;
use crate::error::VerifError;
use nqpv_lang::Stmt;
use nqpv_linalg::{is_psd, lowner_le, CMat};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_semantics::denote;
use nqpv_solver::{LownerOptions, Verdict};

/// A finitely-presented ranking assertion for one `while` loop
/// (Definition 4.3, uniform in the scheduler, with a geometric tail):
/// predicates `R_0 ⊒ … ⊒ R_k` plus a factor `γ ∈ [0,1)` such that
/// `P¹∘E†(R_i) ⊑ R_{i+1}` for every body denotation `E` and
/// `P¹∘E†(R_k) ⊑ γ·R_k`. The implicit tail `R_{k+j} = γ^j·R_k` then
/// satisfies all three conditions and `⋀_i R_i = 0`.
#[derive(Debug, Clone)]
pub struct RankingCertificate {
    /// The explicit prefix `R_0 … R_k` (full-register dimension).
    pub prefix: Vec<CMat>,
    /// The geometric tail contraction factor `γ < 1`.
    pub tail_factor: f64,
}

impl RankingCertificate {
    /// Convenience constructor.
    pub fn new(prefix: Vec<CMat>, tail_factor: f64) -> Self {
        RankingCertificate {
            prefix,
            tail_factor,
        }
    }

    /// The canonical certificate for an *always-terminating-in-one-step*
    /// loop: `R_0 = I`, `R_1 = P¹` (embedded), tail γ.
    pub fn geometric(dim: usize, p1: CMat, gamma: f64) -> Self {
        RankingCertificate {
            prefix: vec![CMat::identity(dim), p1],
            tail_factor: gamma,
        }
    }
}

/// Discharges a [`RankingCertificate`] against Definition 4.3 for a loop
/// with rule-(WhileT) precondition `phi = P⁰(Ψ)+P¹(Θ)`, loop-free `body`,
/// and the embedded continue projector `p1`.
///
/// # Errors
///
/// Returns [`VerifError::InvalidRanking`] naming the failing condition.
pub fn check_ranking(
    cert: &RankingCertificate,
    phi: &Assertion,
    body: &Stmt,
    p1: &CMat,
    lib: &OperatorLibrary,
    reg: &Register,
    lowner: LownerOptions,
) -> Result<(), VerifError> {
    let dim = reg.dim();
    if cert.prefix.is_empty() {
        return Err(VerifError::InvalidRanking {
            details: "ranking prefix is empty".into(),
        });
    }
    if !(0.0..1.0).contains(&cert.tail_factor) {
        return Err(VerifError::InvalidRanking {
            details: format!("tail factor {} must lie in [0, 1)", cert.tail_factor),
        });
    }
    for (i, r) in cert.prefix.iter().enumerate() {
        if r.rows() != dim || r.cols() != dim {
            return Err(VerifError::InvalidRanking {
                details: format!("R_{i} has wrong dimension"),
            });
        }
        if !r.is_hermitian(1e-7) {
            return Err(VerifError::InvalidRanking {
                details: format!("R_{i} is not hermitian"),
            });
        }
        if !is_psd(r, 1e-8) {
            return Err(VerifError::InvalidRanking {
                details: format!("R_{i} is not positive"),
            });
        }
    }
    // Condition (1): Θ̂ ⊑_inf R_0.
    let r0 = Assertion::from_ops(dim, vec![cert.prefix[0].clone()])?;
    match phi.le_inf(&r0, lowner)? {
        Verdict::Holds => {}
        Verdict::Violated(v) => {
            return Err(VerifError::InvalidRanking {
                details: format!("Θ̂ ⊑_inf R_0 fails with margin {:.3e}", v.margin),
            })
        }
        Verdict::Inconclusive { .. } => {
            return Err(VerifError::InvalidRanking {
                details: "Θ̂ ⊑_inf R_0 unresolved".into(),
            })
        }
    }
    // Condition (2): the prefix is ⊑-decreasing (the γ-tail extends it).
    for w in cert.prefix.windows(2) {
        if !lowner_le(&w[1], &w[0], 1e-8) {
            return Err(VerifError::InvalidRanking {
                details: "ranking prefix is not ⊑-decreasing".into(),
            });
        }
    }
    // Condition (3): P¹∘E†(R_i) ⊑ R_{i+1} for every body denotation E.
    if body.has_loop() {
        return Err(VerifError::InvalidRanking {
            details: "ranking certificates require a loop-free body".into(),
        });
    }
    let body_set = denote(body, lib, reg).map_err(|e| VerifError::InvalidRanking {
        details: format!("cannot enumerate loop body: {e}"),
    })?;
    let k = cert.prefix.len() - 1;
    for (ei, e) in body_set.iter().enumerate() {
        for i in 0..=k {
            let transported = p1.conjugate(&e.apply_heisenberg(&cert.prefix[i]));
            let target = if i < k {
                cert.prefix[i + 1].clone()
            } else {
                cert.prefix[k].scale_re(cert.tail_factor)
            };
            if !lowner_le(&transported, &target, 1e-8) {
                let tname = if i < k {
                    format!("R_{}", i + 1)
                } else {
                    format!("γ·R_{k}")
                };
                return Err(VerifError::InvalidRanking {
                    details: format!("P¹∘E†(R_{i}) ⊑ {tname} fails for body branch {ei}"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_lang::parse_stmt;
    use nqpv_quantum::ket;

    #[test]
    fn geometric_certificate_for_rus_loop() {
        // while M01[q] (continue on 1) do q *= H: the Eq.-18 ranking is
        // R_0 = I, R_i = 2^{1-i}|1⟩⟨1|; the finite form uses γ = 1/2.
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let body = parse_stmt("[q] *= H").unwrap();
        let p1 = ket("1").projector();
        let phi = Assertion::identity(2);
        let cert = RankingCertificate::geometric(2, p1.clone(), 0.5);
        check_ranking(
            &cert,
            &phi,
            &body,
            &p1,
            &lib,
            &reg,
            LownerOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn tail_factor_too_small_fails() {
        // γ = 0.4 < 1/2: the contraction condition fails.
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let body = parse_stmt("[q] *= H").unwrap();
        let p1 = ket("1").projector();
        let phi = Assertion::identity(2);
        let cert = RankingCertificate::geometric(2, p1.clone(), 0.4);
        let err = check_ranking(
            &cert,
            &phi,
            &body,
            &p1,
            &lib,
            &reg,
            LownerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifError::InvalidRanking { .. }));
    }

    #[test]
    fn nondeterministic_body_checks_every_branch() {
        // body = (H # I): the skip branch never leaves |1⟩, so no
        // certificate can contract it.
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let body = parse_stmt("( [q] *= H # skip )").unwrap();
        let p1 = ket("1").projector();
        let phi = Assertion::identity(2);
        let cert = RankingCertificate::geometric(2, p1.clone(), 0.9);
        let err = check_ranking(
            &cert,
            &phi,
            &body,
            &p1,
            &lib,
            &reg,
            LownerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifError::InvalidRanking { .. }));
    }

    #[test]
    fn structural_validation() {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let body = parse_stmt("[q] *= H").unwrap();
        let p1 = ket("1").projector();
        let phi = Assertion::identity(2);
        // Empty prefix.
        let err = check_ranking(
            &RankingCertificate::new(vec![], 0.5),
            &phi,
            &body,
            &p1,
            &lib,
            &reg,
            LownerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifError::InvalidRanking { .. }));
        // Negative prefix element.
        let err2 = check_ranking(
            &RankingCertificate::new(vec![CMat::identity(2).scale_re(-1.0)], 0.5),
            &phi,
            &body,
            &p1,
            &lib,
            &reg,
            LownerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err2, VerifError::InvalidRanking { .. }));
    }
}
