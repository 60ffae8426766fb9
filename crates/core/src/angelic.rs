//! Angelic nondeterminism — the paper's Sec. 7 future work, made concrete.
//!
//! The paper's correctness is *demonic*: `Exp(ρ ⊨ Θ) = inf_M tr(Mρ)` and
//! the adversary picks the worst branch of `[[S]]`. The angelic reading
//! flips both quantifiers: satisfaction is `sup_M tr(Mρ)` and the
//! scheduler *cooperates*, picking the best branch:
//!
//! ```text
//! ⊨ang {Θ} S {Ψ}  ⇔  ∀ρ. Expsup(ρ ⊨ Θ) ≤ sup { Expsup(σ ⊨ Ψ) : σ ∈ [[S]](ρ) }
//! ```
//!
//! The matching assertion order is `⊑_sup` (decided by
//! [`nqpv_solver::assertion_le_sup`] through the same minimax engine as
//! `⊑_inf`). This module provides the semantic checking machinery and the
//! angelic analogue of the nondeterminism proof rule, so the classic
//! demonic/angelic gap (`skip □ q*=X` *can* reach `|1⟩` from `|0⟩` but
//! need not) is machine-checkable.

use crate::assertion::Assertion;
use crate::error::VerifError;
use nqpv_linalg::CMat;
use nqpv_quantum::SuperOp;
use nqpv_solver::{assertion_le_sup, LownerOptions, Verdict};

/// Angelic satisfaction `Expsup(ρ ⊨ Θ) = sup_{M∈Θ} tr(Mρ)` — the
/// optimistic dual of Definition 4.1. Factored predicates evaluate as
/// `tr(V†ρV)` without materialising the operator.
pub fn exp_sup(rho: &CMat, theta: &Assertion) -> f64 {
    theta
        .ops()
        .iter()
        .map(|m| m.expectation(rho))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The angelic analogue of Definition 4.2 (total sense), evaluated on one
/// state against an explicit semantic set: the scheduler is allowed to
/// pick the *best* branch.
pub fn holds_angelic_on_state(
    semantics: &[SuperOp],
    rho: &CMat,
    pre: &Assertion,
    post: &Assertion,
    tol: f64,
) -> bool {
    let lhs = exp_sup(rho, pre);
    let rhs = semantics
        .iter()
        .map(|e| exp_sup(&e.apply(rho), post))
        .fold(f64::NEG_INFINITY, f64::max);
    lhs <= rhs + tol
}

/// Decides the angelic assertion order `Θ ⊑_sup Ψ`. Pairs of factored
/// predicates try the Gram-eigenproblem fast path first (the `⊑_sup`
/// certificate is `∀M∈Θ ∃N∈Ψ: M ⊑ N`), falling back to the dense minimax
/// solver.
///
/// # Errors
///
/// Wraps solver input failures.
pub fn le_sup(
    theta: &Assertion,
    psi: &Assertion,
    opts: LownerOptions,
) -> Result<Verdict, VerifError> {
    {
        let mut span = opts
            .tracer
            .span(nqpv_telemetry::Phase::Solver, "obligation");
        if theta.fast_le_sup_holds(psi, opts.eps) {
            span.classify("solver_path", "factored-gram");
            span.arg("outcome", nqpv_telemetry::ArgValue::Static("holds"));
            return Ok(Verdict::Holds);
        }
        // Undecided: the dense solver records the real spans.
        span.cancel();
    }
    assertion_le_sup(&theta.dense_ops(), &psi.dense_ops(), opts).map_err(VerifError::Solver)
}

/// [`le_sup`] through an optional verdict cache (the `⊑_sup` twin of
/// [`Assertion::le_inf_cached`]); keys carry a distinct tag so the two
/// orders never alias.
///
/// # Errors
///
/// Same as [`le_sup`]. Solver errors are never cached.
pub fn le_sup_cached(
    theta: &Assertion,
    psi: &Assertion,
    opts: LownerOptions,
    cache: Option<&dyn crate::cache::TransformerCache>,
) -> Result<Verdict, VerifError> {
    let Some(cache) = cache else {
        return le_sup(theta, psi, opts);
    };
    let key = crate::cache::verdict_key(crate::cache::VERDICT_TAG_SUP, theta, psi, &opts);
    let hit = {
        let mut span = opts
            .tracer
            .span(nqpv_telemetry::Phase::Cache, "verdict_tier");
        let hit = cache.get_verdict(key);
        span.classify("verdict_tier", if hit.is_some() { "hit" } else { "miss" });
        hit
    };
    if let Some(v) = hit {
        return Ok(v);
    }
    let v = le_sup(theta, psi, opts)?;
    cache.put_verdict(key, &v);
    Ok(v)
}

/// Angelic weakest precondition of a *branch set* for a singleton-style
/// postcondition set: under the angelic reading, the wp of `S₀ □ S₁` is
/// still the element-wise union `wp.S₀.Ψ ∪ wp.S₁.Ψ` — but it must be
/// interpreted through `Expsup`/`⊑_sup` rather than `Exp`/`⊑_inf`. This
/// helper packages the union so call sites stay explicit about the
/// reading.
///
/// # Errors
///
/// Returns [`VerifError::AssertionShape`] on mismatched dimensions.
pub fn angelic_choice_pre(a: &Assertion, b: &Assertion) -> Result<Assertion, VerifError> {
    a.union(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correctness::{holds_on_state, sample_states, Sense};
    use nqpv_lang::parse_stmt;
    use nqpv_quantum::{ket, OperatorLibrary, Register};
    use nqpv_semantics::denote;

    fn bitflip_semantics() -> Vec<SuperOp> {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let s = parse_stmt("( skip # [q] *= X )").unwrap();
        denote(&s, &lib, &reg).unwrap()
    }

    #[test]
    fn exp_sup_is_the_max() {
        let theta =
            Assertion::from_ops(2, vec![ket("0").projector(), ket("1").projector()]).unwrap();
        let rho = ket("0").projector();
        assert!((exp_sup(&rho, &theta) - 1.0).abs() < 1e-12);
        assert!((theta.expectation(&rho) - 0.0).abs() < 1e-12); // demonic inf
    }

    #[test]
    fn angelic_and_demonic_differ_on_the_bitflip_choice() {
        // {P1} (skip □ X) {P1}: demonically FALSE from |1⟩ (adversary flips
        // to |0⟩), angelically TRUE (scheduler keeps it).
        let sem = bitflip_semantics();
        let p1 = Assertion::from_ops(2, vec![ket("1").projector()]).unwrap();
        let rho = ket("1").projector();
        assert!(!holds_on_state(Sense::Total, &sem, &rho, &p1, &p1, 1e-9));
        assert!(holds_angelic_on_state(&sem, &rho, &p1, &p1, 1e-9));
    }

    #[test]
    fn angelic_reachability_of_the_flipped_state() {
        // From |0⟩ the angelic scheduler can reach |1⟩: {P0} S {P1} holds
        // angelically but not demonically.
        let sem = bitflip_semantics();
        let p0 = Assertion::from_ops(2, vec![ket("0").projector()]).unwrap();
        let p1 = Assertion::from_ops(2, vec![ket("1").projector()]).unwrap();
        for rho in sample_states(2, 8, 321) {
            assert!(holds_angelic_on_state(&sem, &rho, &p0, &p1, 1e-9));
        }
        let rho0 = ket("0").projector();
        assert!(!holds_on_state(Sense::Total, &sem, &rho0, &p0, &p1, 1e-9));
    }

    #[test]
    fn le_sup_connects_to_angelic_satisfaction() {
        // Θ ⊑_sup Ψ ⇔ ∀ρ: Expsup(ρ⊨Θ) ≤ Expsup(ρ⊨Ψ); spot-check the
        // solver verdict against sampled states.
        let theta =
            Assertion::from_ops(2, vec![nqpv_linalg::CMat::identity(2).scale_re(0.5)]).unwrap();
        let psi = Assertion::from_ops(2, vec![ket("0").projector(), ket("1").projector()]).unwrap();
        let verdict = le_sup(&theta, &psi, LownerOptions::default()).unwrap();
        assert!(verdict.holds());
        for rho in sample_states(2, 10, 77) {
            assert!(exp_sup(&rho, &theta) <= exp_sup(&rho, &psi) + 1e-9);
        }
        // Converse direction fails, witnessed by the solver.
        let v2 = le_sup(&psi, &theta, LownerOptions::default()).unwrap();
        match v2 {
            Verdict::Violated(viol) => {
                let lhs = exp_sup(&viol.witness, &psi);
                let rhs = exp_sup(&viol.witness, &theta);
                assert!(
                    lhs > rhs + 1e-3,
                    "witness does not separate: {lhs} vs {rhs}"
                );
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn cached_orders_share_the_verdict_store_but_not_keys() {
        use crate::cache::{CacheKey, TransformerCache};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        /// Minimal verdict cache double (the full concurrent
        /// implementation lives in `nqpv-engine`).
        #[derive(Default)]
        struct VerdictStore {
            verdicts: Mutex<std::collections::HashMap<CacheKey, Verdict>>,
            hits: AtomicU64,
        }

        impl TransformerCache for VerdictStore {
            fn get_verdict(&self, key: CacheKey) -> Option<Verdict> {
                let found = self.verdicts.lock().unwrap().get(&key).cloned();
                if found.is_some() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                found
            }
            fn put_verdict(&self, key: CacheKey, verdict: &Verdict) {
                self.verdicts.lock().unwrap().insert(key, verdict.clone());
            }
        }

        let cache = VerdictStore::default();
        let theta =
            Assertion::from_ops(2, vec![nqpv_linalg::CMat::identity(2).scale_re(0.5)]).unwrap();
        let psi = Assertion::from_ops(2, vec![ket("0").projector(), ket("1").projector()]).unwrap();
        let opts = LownerOptions::default();

        // First ⊑_sup query computes and stores; the second hits.
        assert!(le_sup_cached(&theta, &psi, opts, Some(&cache))
            .unwrap()
            .holds());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 0);
        assert!(le_sup_cached(&theta, &psi, opts, Some(&cache))
            .unwrap()
            .holds());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.verdicts.lock().unwrap().len(), 1);

        // The ⊑_inf order on the *same* operands carries a distinct tag:
        // no aliasing, a second entry appears (and the verdict differs —
        // inf over {P0, P1} drops to 0 on basis states, so ⊑_inf fails).
        assert!(!theta
            .le_inf_cached(&psi, opts, Some(&cache))
            .unwrap()
            .holds());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.verdicts.lock().unwrap().len(), 2);

        // Cached and fresh verdicts agree.
        assert_eq!(
            le_sup_cached(&theta, &psi, opts, Some(&cache))
                .unwrap()
                .holds(),
            le_sup(&theta, &psi, opts).unwrap().holds()
        );
    }

    #[test]
    fn angelic_choice_pre_is_the_union() {
        let a = Assertion::from_ops(2, vec![ket("0").projector()]).unwrap();
        let b = Assertion::from_ops(2, vec![ket("1").projector()]).unwrap();
        let u = angelic_choice_pre(&a, &b).unwrap();
        assert_eq!(u.len(), 2);
        // Angelic satisfaction of the union is the max of the parts —
        // the (NDet) rule is sound in the angelic reading as well.
        let rho = ket("1").projector();
        assert!((exp_sup(&rho, &u) - 1.0).abs() < 1e-12);
    }
}
