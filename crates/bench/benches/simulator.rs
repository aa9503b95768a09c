//! Simulator throughput: micro-ops per second through the OoO timing
//! model on representative workloads and configurations.
//!
//! The `simulator` group measures the evaluation path exploration code
//! actually runs ([`xps_core::sim::evaluate`]): the profile's trace is
//! memoized once per process and replayed for every configuration, so the
//! numbers track the cycle engine itself. `trace-generation` measures
//! the generator's raw (uncached) sampling throughput separately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xps_core::paper;
use xps_core::sim::{evaluate, CoreConfig};
use xps_core::workload::{spec, TraceGenerator};

fn sim_throughput(c: &mut Criterion) {
    let n = 50_000u64;
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(n));
    for name in ["gzip", "mcf", "crafty"] {
        let p = spec::profile(name).expect("known benchmark");
        g.bench_with_input(BenchmarkId::new("initial-config", name), &p, |b, p| {
            let cfg = CoreConfig::initial();
            b.iter(|| evaluate(p, &cfg, n));
        });
        let cfg = paper::table4_config(name).expect("in Table 4");
        g.bench_with_input(BenchmarkId::new("table4-config", name), &p, |b, p| {
            b.iter(|| evaluate(p, &cfg, n));
        });
    }
    g.finish();
}

fn trace_generation(c: &mut Criterion) {
    let n = 100_000usize;
    let mut g = c.benchmark_group("trace-generation");
    g.throughput(Throughput::Elements(n as u64));
    for name in ["gcc", "mcf"] {
        let p = spec::profile(name).expect("known benchmark");
        g.bench_function(name, |b| {
            b.iter(|| TraceGenerator::new(p.clone()).take(n).count());
        });
    }
    g.finish();
}

criterion_group!(benches, sim_throughput, trace_generation);
criterion_main!(benches);
