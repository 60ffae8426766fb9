//! Bench E17: the batch-verification engine — worker-pool scaling and
//! verdict-cache effectiveness on a synthetic corpus of repeated jobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nqpv_bench::sample_corpus;
use nqpv_engine::{run_batch, BatchOptions};

fn bench_batch(c: &mut Criterion) {
    let corpus = sample_corpus(4);
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("cached", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let report = run_batch(
                    &corpus,
                    &BatchOptions {
                        jobs,
                        ..BatchOptions::default()
                    },
                );
                assert_eq!(report.errored_jobs(), 0);
                report
            })
        });
    }
    group.bench_with_input(BenchmarkId::new("uncached", 4usize), &4usize, |b, &jobs| {
        b.iter(|| {
            run_batch(
                &corpus,
                &BatchOptions {
                    jobs,
                    use_cache: false,
                    ..BatchOptions::default()
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
