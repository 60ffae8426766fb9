//! Shared workload generators for the NQPV benchmark harness.
//!
//! Every experiment of the paper's evaluation has a bench target and a
//! row in the `harness` binary's report. The generators
//! here are deterministic so criterion runs and harness tables are
//! reproducible.

use nqpv_engine::Corpus;
use nqpv_linalg::{c, cr, eigh, CMat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random hermitian matrix.
pub fn random_hermitian(dim: usize, seed: u64) -> CMat {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = CMat::from_fn(dim, dim, |_, _| {
        c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    g.add_mat(&g.adjoint()).scale_re(0.5)
}

/// Deterministic random quantum predicate (`0 ⊑ M ⊑ I`) via spectral
/// squashing.
pub fn random_predicate(dim: usize, seed: u64) -> CMat {
    let h = random_hermitian(dim, seed);
    let e = eigh(&h).expect("hermitian decomposes");
    let clamped: Vec<_> = e
        .values
        .iter()
        .map(|&x| cr(1.0 / (1.0 + (-2.0 * x).exp())))
        .collect();
    let v = &e.vectors;
    v.mul(&CMat::diag(&clamped)).mul(&v.adjoint()).hermitize()
}

/// Deterministic random density matrix.
pub fn random_density(dim: usize, seed: u64) -> CMat {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let g = CMat::from_fn(dim, dim, |_, _| {
        c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    let p = g.mul(&g.adjoint());
    let t = p.trace_re();
    p.scale_re(1.0 / t)
}

/// A `⊑_inf` instance `(Θ, Ψ)` that holds: Θ elements are dominated by the
/// single Ψ element.
pub fn holding_instance(dim: usize, k: usize, seed: u64) -> (Vec<CMat>, Vec<CMat>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = random_predicate(dim, seed ^ 1);
    let theta = (0..k)
        .map(|_| {
            let g = CMat::from_fn(dim, dim, |_, _| {
                c(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3))
            });
            n.sub_mat(&g.mul(&g.adjoint()))
        })
        .collect();
    (theta, vec![n])
}

/// A `⊑_inf` instance that is violated (Ψ strictly below Θ's guaranteed
/// level).
pub fn violated_instance(dim: usize, k: usize, seed: u64) -> (Vec<CMat>, Vec<CMat>) {
    let theta: Vec<CMat> = (0..k)
        .map(|i| {
            CMat::identity(dim)
                .scale_re(0.6)
                .add_mat(&random_predicate(dim, seed ^ (i as u64 + 3)).scale_re(0.2))
        })
        .collect();
    let psi = vec![CMat::identity(dim).scale_re(0.3)];
    (theta, psi)
}

/// Builtin-only corpus programs used by the batch-engine workloads: a
/// two-qubit Grover iteration, a repeat-until-success loop, and a
/// CX-ladder — all of which verify without `.npy` assets.
const CORPUS_TEMPLATES: [(&str, &str); 3] = [
    (
        "grover_step",
        "def pf := proof [q1 q2] : { I[q1] }; [q1 q2] := 0; \
         [q1] *= H; [q2] *= H; [q1 q2] *= CZ; [q1] *= H; [q2] *= H; \
         [q1] *= X; [q2] *= X; [q1 q2] *= CZ; [q1] *= X; [q2] *= X; \
         [q1] *= H; [q2] *= H; { P1[q1] } end",
    ),
    (
        "rus",
        "def pf := proof [q] : { I[q] }; [q] := 0; [q] *= H; \
         { inv : I[q] }; while M01[q] do [q] *= H end; { P0[q] } end",
    ),
    (
        "cx_ladder",
        "def pf := proof [q1 q2] : { Pp[q1] }; [q2] := 0; \
         [q1 q2] *= CX; [q1 q2] *= CX; [q1] *= H; { P0[q1] } end",
    ),
];

/// An in-memory batch-engine corpus: `replicas` copies of each template
/// program under distinct job names. Replicated jobs are byte-identical,
/// so the engine's memo cache collapses all repeated backward passes —
/// the workload behind the E17 scaling table and bench.
pub fn sample_corpus(replicas: usize) -> Corpus {
    let mut sources: Vec<(String, String)> = Vec::with_capacity(3 * replicas);
    for r in 0..replicas {
        for (name, src) in CORPUS_TEMPLATES {
            sources.push((format!("{name}_{r}"), src.to_string()));
        }
    }
    Corpus::from_sources(sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_solver::{assertion_le, LownerOptions};

    #[test]
    fn generators_are_deterministic() {
        assert!(random_hermitian(4, 9).approx_eq(&random_hermitian(4, 9), 0.0));
        assert!(random_predicate(4, 9).approx_eq(&random_predicate(4, 9), 0.0));
    }

    #[test]
    fn instances_have_the_advertised_verdicts() {
        let (t, p) = holding_instance(4, 3, 11);
        assert!(assertion_le(&t, &p, LownerOptions::default())
            .unwrap()
            .holds());
        let (t2, p2) = violated_instance(4, 3, 12);
        assert!(!assertion_le(&t2, &p2, LownerOptions::default())
            .unwrap()
            .holds());
    }

    #[test]
    fn densities_are_states() {
        assert!(nqpv_linalg::is_partial_density(&random_density(8, 5), 1e-8));
    }

    #[test]
    fn sample_corpus_verifies_fully_and_caches() {
        let corpus = sample_corpus(2);
        assert_eq!(corpus.len(), 6);
        let report = nqpv_engine::run_batch(&corpus, &nqpv_engine::BatchOptions::default());
        assert!(report.all_verified(), "{}", report.human_summary());
        let stats = report.cache.expect("cache on by default");
        assert!(
            stats.verdict_hits > 0,
            "replicated jobs must hit: {stats:?}"
        );
    }
}
