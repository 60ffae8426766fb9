//! Property-based tests for the linear-algebra substrate: the invariants
//! every downstream verification step silently relies on.

use nqpv_linalg::{
    c, cholesky, cr, eigh, embed, is_psd, partial_trace, read_matrix_bytes, write_matrix_bytes,
    CMat, CVec,
};
use proptest::prelude::*;

/// Strategy: a random complex matrix with entries in [-1, 1]².
fn cmat(dim: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), dim * dim).prop_map(move |xs| {
        CMat::from_vec(dim, dim, xs.into_iter().map(|(re, im)| c(re, im)).collect())
    })
}

/// Strategy: a random hermitian matrix.
fn hermitian(dim: usize) -> impl Strategy<Value = CMat> {
    cmat(dim).prop_map(|g| g.add_mat(&g.adjoint()).scale_re(0.5))
}

/// Dimensions for the unitarity checks: below, at and across the Gram
/// kernel's 32-row panels, 4-row groups and 128-column blocks.
const UNITARY_DIMS: [usize; 9] = [1, 2, 3, 5, 8, 31, 33, 67, 130];

/// The tolerance `OperatorLibrary` validates unitaries with.
const UNITARY_TOL: f64 = 1e-8;

/// The dense reference for `is_unitary`: `A†A` against the identity.
fn unitary_reference(m: &CMat, tol: f64) -> bool {
    m.adjoint().mul(m).approx_eq(&CMat::identity(m.rows()), tol)
}

/// A `dim × dim` unitary from the random entries `xs`: two Householder
/// reflections `I − 2vv†/‖v‖²` (dense), then, when `sparse`, a Kronecker
/// factor of X so half the entries are exact zeros. Real when `complex`
/// is false.
fn random_unitary(dim: usize, xs: &[(f64, f64)], complex: bool, sparse: bool) -> CMat {
    let half = if sparse && dim.is_multiple_of(2) {
        dim / 2
    } else {
        dim
    };
    let mut u = CMat::identity(half);
    for v in xs.chunks_exact(half).take(2) {
        let v = CVec::new(
            v.iter()
                .map(|&(re, im)| c(re, if complex { im } else { 0.0 }))
                .collect(),
        );
        let n2 = v.norm().powi(2);
        if n2 > 1e-6 {
            u = u.mul(&CMat::identity(half).sub_mat(&v.projector().scale_re(2.0 / n2)));
        }
    }
    if half == dim {
        u
    } else {
        u.kron(&CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eigh_reconstructs_and_orders(h in hermitian(5)) {
        let e = eigh(&h).unwrap();
        prop_assert!(e.reconstruct().approx_eq(&h, 1e-7));
        prop_assert!(e.vectors.is_unitary(1e-7));
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-10);
        }
        // Trace = sum of eigenvalues.
        let tr: f64 = e.values.iter().sum();
        prop_assert!((tr - h.trace_re()).abs() < 1e-7);
    }

    #[test]
    fn cholesky_and_eigenvalues_agree_on_psdness(h in hermitian(4)) {
        let min = eigh(&h).unwrap().min();
        // Outside a narrow band around zero the two tests must agree.
        if min.abs() > 1e-6 {
            prop_assert_eq!(is_psd(&h, 1e-9), min > 0.0);
        }
        // A hermitian square is always PSD.
        let sq = h.mul(&h);
        prop_assert!(is_psd(&sq, 1e-8));
        let l = cholesky(&sq.add_mat(&CMat::identity(4).scale_re(1e-6)));
        prop_assert!(l.is_some());
    }

    #[test]
    fn adjoint_is_an_involution_and_antihomomorphism(a in cmat(4), b in cmat(4)) {
        prop_assert!(a.adjoint().adjoint().approx_eq(&a, 1e-12));
        prop_assert!(a.mul(&b).adjoint().approx_eq(&b.adjoint().mul(&a.adjoint()), 1e-9));
    }

    #[test]
    fn trace_is_cyclic(a in cmat(4), b in cmat(4), cm in cmat(4)) {
        let t1 = a.mul(&b).mul(&cm).trace();
        let t2 = cm.mul(&a).mul(&b).trace();
        prop_assert!(t1.approx_eq(t2, 1e-8));
    }

    #[test]
    fn kron_respects_products(a in cmat(2), b in cmat(2), cm in cmat(2), d in cmat(2)) {
        let lhs = a.kron(&b).mul(&cm.kron(&d));
        let rhs = a.mul(&cm).kron(&b.mul(&d));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn partial_trace_is_trace_preserving_and_linear(a in hermitian(8), b in hermitian(8)) {
        // 3-qubit space: trace out qubit 1.
        let ta = partial_trace(&a, &[1], 3);
        prop_assert!((ta.trace_re() - a.trace_re()).abs() < 1e-9);
        let tsum = partial_trace(&a.add_mat(&b), &[1], 3);
        prop_assert!(tsum.approx_eq(&ta.add_mat(&partial_trace(&b, &[1], 3)), 1e-9));
    }

    #[test]
    fn embed_preserves_spectrum_support(h in hermitian(2)) {
        // λ(M ⊗ I) = λ(M) each with doubled multiplicity.
        let big = embed(&h, &[0], 2);
        let small_eigs = eigh(&h).unwrap().values;
        let big_eigs = eigh(&big).unwrap().values;
        for lam in small_eigs {
            let count = big_eigs.iter().filter(|&&x| (x - lam).abs() < 1e-7).count();
            prop_assert!(count >= 2, "eigenvalue {lam} lost multiplicity");
        }
    }

    #[test]
    fn npy_round_trip_arbitrary(a in cmat(3)) {
        let bytes = write_matrix_bytes(&a);
        let back = read_matrix_bytes(&bytes).unwrap();
        prop_assert!(back.approx_eq(&a, 0.0));
    }

    #[test]
    fn outer_products_are_rank_one_projectors(xs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4)) {
        let v = CVec::new(xs.into_iter().map(|(re, im)| c(re, im)).collect());
        prop_assume!(v.norm() > 1e-3);
        let p = v.normalized().projector();
        prop_assert!(p.is_hermitian(1e-10));
        prop_assert!(p.mul(&p).approx_eq(&p, 1e-9));
        prop_assert!((p.trace_re() - 1.0).abs() < 1e-9);
        prop_assert!(is_psd(&p, 1e-9));
    }

    #[test]
    fn lowner_order_respects_addition_of_psd(h in hermitian(3), g in cmat(3)) {
        // h ⊑ h + GG† always.
        let psd = g.mul(&g.adjoint());
        prop_assert!(nqpv_linalg::lowner_le(&h, &h.add_mat(&psd), 1e-8));
    }

    #[test]
    fn is_unitary_matches_the_dense_reference_near_the_tolerance(
        di in 0usize..UNITARY_DIMS.len(),
        xs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 260),
        kind in 0usize..4,
        at in (0usize..1000, 0usize..1000),
    ) {
        let dim = UNITARY_DIMS[di];
        let complex = kind % 2 == 1;
        let u = random_unitary(dim, &xs, complex, kind >= 2);
        prop_assert!(unitary_reference(&u, UNITARY_TOL));
        prop_assert!(u.is_unitary(UNITARY_TOL));
        prop_assume!(dim >= 2);
        // One entry above and one below the diagonal.
        let (i, j) = (at.0 % (dim - 1), at.1 % (dim - 1));
        let upper = (i, i + 1 + j % (dim - 1 - i));
        let lower = (upper.1, upper.0);
        for entry in [upper, lower] {
            for s in [0.5, 2.0] {
                let eps = s * UNITARY_TOL;
                let z = u[entry];
                // An additive nudge, and a relative one that moves the
                // diagonal of A†A by about `eps` — right at the tolerance.
                let rel = if z.abs() > 1e-3 { z.scale(eps / (2.0 * z.norm_sqr())) } else { cr(eps) };
                for nudge in [cr(eps), c(0.0, eps), rel] {
                    let mut m = u.clone();
                    m[entry] += nudge;
                    prop_assert_eq!(
                        m.is_unitary(UNITARY_TOL),
                        unitary_reference(&m, UNITARY_TOL),
                        "dim {} entry {:?} nudge {:?}", dim, entry, nudge
                    );
                }
            }
        }
    }

    #[test]
    fn is_unitary_matches_the_dense_reference_off_the_square_and_off_the_reals(
        di in 0usize..UNITARY_DIMS.len(),
        xs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 260),
        kind in 0usize..4,
        at in (0usize..1000, 0usize..1000),
        bad in 0usize..5,
    ) {
        let dim = UNITARY_DIMS[di];
        let u = random_unitary(dim, &xs, kind % 2 == 1, kind >= 2);
        // Non-square: the first `dim − 1` rows, and one extra zero row.
        let short = CMat::from_vec(dim - 1, dim, u.as_slice()[dim..].to_vec());
        let mut tall = u.as_slice().to_vec();
        tall.extend(std::iter::repeat_n(c(0.0, 0.0), dim));
        let tall = CMat::from_vec(dim + 1, dim, tall);
        for m in [&short, &tall] {
            prop_assert!(!m.is_unitary(UNITARY_TOL));
            prop_assert!(!unitary_reference(m, UNITARY_TOL));
        }
        // One non-finite entry, under a finite and an infinite tolerance.
        let value = [
            c(f64::NAN, 0.0),
            c(f64::INFINITY, 0.0),
            c(f64::NEG_INFINITY, 0.0),
            c(0.5, f64::INFINITY),
            c(0.0, f64::NAN),
        ][bad];
        let mut m = u.clone();
        m[(at.0 % dim, at.1 % dim)] = value;
        for tol in [UNITARY_TOL, f64::INFINITY] {
            prop_assert_eq!(
                m.is_unitary(tol),
                unitary_reference(&m, tol),
                "dim {} value {:?} tol {}", dim, value, tol
            );
        }
    }
}
