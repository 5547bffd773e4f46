//! Microbenchmarks of the sparse Kronecker kernels: the materialised COO
//! product against the streaming edge iterator, which yields the same entries
//! without storing them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use kron_core::{SelfLoop, StarGraph};
use kron_sparse::{kron_coo, CooMatrix, KronEdgeIter, PlusTimes};

fn star(points: u64) -> CooMatrix<u64> {
    StarGraph::new(points, SelfLoop::Centre)
        .expect("valid star")
        .adjacency()
}

fn bench_kron_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("kron_ops");
    group.sample_size(20);

    for &(pa, pb) in &[(81u64, 16u64), (256, 81), (625, 256)] {
        let a = star(pa);
        let b = star(pb);
        let produced = (a.nnz() * b.nnz()) as u64;
        group.throughput(Throughput::Elements(produced));

        group.bench_with_input(
            BenchmarkId::new("coo_sequential", format!("{pa}x{pb}")),
            &(),
            |bench, _| {
                bench.iter(|| kron_coo::<u64, PlusTimes>(&a, &b).expect("fits").nnz());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming_iter", format!("{pa}x{pb}")),
            &(),
            |bench, _| {
                bench.iter(|| KronEdgeIter::<u64, PlusTimes>::new(&a, &b).count());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kron_ops);
criterion_main!(benches);
