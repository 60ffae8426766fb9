//! Bench E12b: primal (projected-supergradient witness search) vs dual
//! (exponentiated-gradient certificate) components of the `⊑_inf` solver —
//! the ablation of replacing the paper's SDP solver with these two.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nqpv_bench::{holding_instance, violated_instance};
use nqpv_linalg::CMat;
use nqpv_solver::{
    assertion_le, max_eigenpair, max_min_expectation, LanczosOptions, LownerOptions, PrimalOptions,
};

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    for dim in [8usize, 32, 64] {
        // Violated instance: compare the full decision against primal-only.
        let (t, p) = violated_instance(dim, 3, dim as u64 + 5);
        let diffs: Vec<CMat> = t.iter().map(|m| m.sub_mat(&p[0])).collect();
        group.bench_with_input(BenchmarkId::new("full_decision", dim), &dim, |b, _| {
            b.iter(|| {
                assert!(!assertion_le(&t, &p, LownerOptions::default())
                    .unwrap()
                    .holds())
            })
        });
        group.bench_with_input(BenchmarkId::new("primal_only", dim), &dim, |b, _| {
            b.iter(|| {
                let (v, _) = max_min_expectation(&diffs, PrimalOptions::default());
                assert!(v > 0.0);
            })
        });
        // Holding instance: dual certificate path.
        let (t2, p2) = holding_instance(dim, 3, dim as u64 + 9);
        group.bench_with_input(BenchmarkId::new("dual_certificate", dim), &dim, |b, _| {
            b.iter(|| {
                assert!(assertion_le(&t2, &p2, LownerOptions::default())
                    .unwrap()
                    .holds())
            })
        });
    }
    group.finish();
}

fn bench_extreme_eigs(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_lanczos");
    group.sample_size(10);
    for dim in [32usize, 64, 128, 256] {
        let a = nqpv_bench::random_hermitian(dim, dim as u64);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| max_eigenpair(&a, LanczosOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_components, bench_extreme_eigs);
criterion_main!(benches);
