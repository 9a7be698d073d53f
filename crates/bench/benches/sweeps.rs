//! Criterion macrobenchmarks: whole-tier parallel sweeps — the unit of
//! work behind every surface figure — plus `run_configs` on the
//! acceptance-sized sweep (32 configurations, 120k branches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bpred_core::PredictorConfig;
use bpred_sim::{run_configs, Simulator, Surface};
use bpred_workloads::suite;

fn tier_sweep(c: &mut Criterion) {
    let trace = suite::espresso().scaled(30_000).trace(2);
    let mut group = c.benchmark_group("tier-sweep");
    group.sample_size(10);

    for total_bits in [8u32, 10] {
        group.bench_with_input(
            BenchmarkId::new("gas", total_bits),
            &total_bits,
            |b, &bits| {
                b.iter(|| {
                    Surface::sweep(
                        "GAs",
                        "espresso",
                        bits..=bits,
                        &trace,
                        Simulator::new(),
                        |r, c| PredictorConfig::Gas {
                            history_bits: r,
                            col_bits: c,
                        },
                    )
                });
            },
        );
    }
    group.finish();
}

/// The acceptance sweep: 32 configurations over a 120k-branch trace,
/// decoded once and replayed in fused lane groups.
fn engine_comparison(c: &mut Criterion) {
    let trace = suite::espresso().scaled(120_000).trace(2);
    let configs: Vec<PredictorConfig> = (2..10u32)
        .flat_map(|history_bits| {
            [
                PredictorConfig::Gas {
                    history_bits,
                    col_bits: 3,
                },
                PredictorConfig::Gshare {
                    history_bits,
                    col_bits: 3,
                },
                PredictorConfig::PasInfinite {
                    history_bits,
                    col_bits: 2,
                },
                PredictorConfig::AddressIndexed {
                    addr_bits: history_bits + 3,
                },
            ]
        })
        .collect();
    assert_eq!(configs.len(), 32);

    let mut group = c.benchmark_group("engine-32x120k");
    group.sample_size(10);
    group.bench_function("batched", |b| {
        b.iter(|| run_configs(&configs, &trace, Simulator::new()));
    });
    group.finish();
}

criterion_group!(benches, tier_sweep, engine_comparison);
criterion_main!(benches);
