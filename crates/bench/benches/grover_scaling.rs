//! Bench E6: Grover verification time vs qubit count (paper Sec. 6.5 /
//! Artifact Appendix C — "90 seconds for the 13-qubit Grover algorithm").
//! The reproduced observable is the exponential growth *shape*; criterion
//! sweeps the laptop-scale prefix.
//!
//! `grover_render/{n}/…` splits one job into the verdict alone (what
//! `batch`, `serve` and `explain` compute) and the verdict plus the
//! proof-outline render that `verify`/`show` add, so rendering cost stays
//! a measured row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nqpv_core::casestudies::grover;
use nqpv_core::PredicateRegistry;

fn bench_grover(c: &mut Criterion) {
    let mut group = c.benchmark_group("grover_scaling");
    group.sample_size(10);
    for n in 2..=7usize {
        let study = grover(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &study, |b, s| {
            b.iter(|| {
                let outcome = s.verify().expect("runs");
                assert!(outcome.status.verified());
            })
        });
    }
    group.finish();
}

fn bench_grover_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("grover_render");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let study = grover(n);
        group.bench_with_input(
            BenchmarkId::new(&n.to_string(), "verdict"),
            &study,
            |b, s| {
                b.iter(|| {
                    let outcome = s.verify().expect("runs");
                    assert!(outcome.status.verified());
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(&n.to_string(), "verdict+outline"),
            &study,
            |b, s| {
                b.iter(|| {
                    let outcome = s.verify().expect("runs");
                    assert!(outcome.status.verified());
                    let mut registry = PredicateRegistry::new();
                    criterion::black_box(outcome.render(&s.library, &mut registry));
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_grover, bench_grover_render);
criterion_main!(benches);
