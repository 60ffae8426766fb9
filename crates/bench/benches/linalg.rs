//! Substrate micro-benchmarks: the dense-linear-algebra primitives that
//! dominate verification cost (the "calculation backend … in the worst
//! case exponential in the number of qubits" of paper Sec. 6.4), including
//! the embed-vs-in-place gate-conjugation ablation (E12a), the load-time
//! unitarity check and the in-place `U†` sweep of the (Unit) rule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nqpv_bench::{random_density, random_hermitian};
use nqpv_core::{Assertion, Predicate};
use nqpv_linalg::{cholesky, conjugate_gate, cr, eigh, embed, is_psd, CMat, Complex};
use nqpv_quantum::gates;

/// `H^{⊗n}`: a dense, real, full-width unitary.
fn hadamard_n(n: usize) -> CMat {
    let mut hn = gates::h();
    for _ in 1..n {
        hn = hn.kron(&gates::h());
    }
    hn
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_matmul");
    group.sample_size(15);
    for dim in [16usize, 64, 128] {
        let a = random_hermitian(dim, 1);
        let b = random_hermitian(dim, 2);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bch, _| {
            bch.iter(|| a.mul(&b))
        });
    }
    group.finish();
}

fn bench_eigh(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_eigh");
    group.sample_size(10);
    for dim in [8usize, 16, 32, 64] {
        let a = random_hermitian(dim, 3);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bch, _| {
            bch.iter(|| eigh(&a).expect("decomposes"))
        });
    }
    group.finish();
}

fn bench_psd_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_psd");
    group.sample_size(20);
    for dim in [16usize, 64, 128] {
        let g = random_hermitian(dim, 4);
        let psd = g.mul(&g); // hermitian square is PSD
        group.bench_with_input(BenchmarkId::new("cholesky", dim), &dim, |bch, _| {
            bch.iter(|| cholesky(&psd.add_mat(&CMat::identity(dim).scale_re(1e-9))))
        });
        group.bench_with_input(BenchmarkId::new("is_psd", dim), &dim, |bch, _| {
            bch.iter(|| assert!(is_psd(&psd, 1e-9)))
        });
    }
    group.finish();
}

fn bench_gate_conjugation(c: &mut Criterion) {
    // E12a: applying CX ρ CX† on an n-qubit density matrix.
    let mut group = c.benchmark_group("linalg_conjugation");
    group.sample_size(10);
    for n in [6usize, 8, 10] {
        let dim = 1usize << n;
        let rho = random_density(dim, n as u64);
        let g = gates::cx();
        group.bench_with_input(BenchmarkId::new("embed_mul", n), &n, |bch, _| {
            bch.iter(|| {
                let big = embed(&g, &[0, 1], n);
                big.conjugate(&rho)
            })
        });
        group.bench_with_input(BenchmarkId::new("in_place", n), &n, |bch, _| {
            bch.iter(|| conjugate_gate(&g, &[0, 1], n, &rho))
        });
    }
    group.finish();
}

fn bench_unitarity_check(c: &mut Criterion) {
    // `CMat::is_unitary` as `OperatorLibrary` runs it on every loaded
    // operator: the real f64 path, the complex path, and the early exit
    // on a dense non-unitary matrix.
    let mut group = c.benchmark_group("linalg_is_unitary");
    group.sample_size(10);
    for n in [8usize, 10] {
        let dim = 1usize << n;
        let real = hadamard_n(n);
        let phases: Vec<Complex> = (0..dim)
            .map(|i| Complex::from_polar(1.0, 0.1 * i as f64))
            .collect();
        let complex = real.mul(&CMat::diag(&phases));
        let cases = [
            ("real", real.clone()),
            ("complex", complex.clone()),
            ("real_not_unitary", real.scale_re(1.5)),
            ("complex_not_unitary", complex.scale_re(1.5)),
        ];
        for (name, m) in &cases {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| m.is_unitary(1e-8))
            });
        }
    }
    group.finish();
}

fn bench_adjoint_sweep(c: &mut Criterion) {
    // The factored (Unit) rule with a full-width gate: one `U†·V` sweep
    // reading `U` in place, no `U†` copy.
    let mut group = c.benchmark_group("linalg_wp_unitary_full_width");
    group.sample_size(10);
    let n = 10;
    let dim = 1usize << n;
    let positions: Vec<usize> = (0..n).collect();
    let hn = hadamard_n(n);
    let v = CMat::from_fn(dim, 1, |i, _| cr(if i == dim - 1 { 1.0 } else { 0.0 }));
    let factored = Assertion::from_predicates(dim, vec![Predicate::from_factor(v)]).unwrap();
    group.bench_with_input(BenchmarkId::new("factored", n), &n, |b, _| {
        b.iter(|| factored.wp_unitary(&hn, &positions, n))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_eigh,
    bench_psd_checks,
    bench_gate_conjugation,
    bench_unitarity_check,
    bench_adjoint_sweep
);
criterion_main!(benches);
