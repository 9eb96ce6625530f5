//! Microbenchmarks of the individual substrates.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use leakage_cachesim::{Cache, CacheConfig, FrameId};
use leakage_core::policy::{OptHybrid, PrefetchGuided, PrefetchScheme};
use leakage_core::{
    CircuitParams, EnergyContext, GeneralizedModel, OptFamily, RefetchAccounting, TechnologyNode,
};
use leakage_experiments::profile_suite;
use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalExtractor, IntervalKind, WakeHints};
use leakage_prefetch::{NextLinePrefetcher, StridePrefetcher};
use leakage_trace::{Address, Cycle, LineAddr, Pc};
use leakage_workloads::{Scale, SplitMix64};

const N: u64 = 100_000;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cachesim");
    group.throughput(Throughput::Elements(N));
    group.bench_function("l1d_mixed_access", |b| {
        b.iter(|| {
            let mut cache = Cache::new(CacheConfig::alpha_l1d());
            let mut rng = SplitMix64::new(1);
            for i in 0..N {
                // 75% hot set, 25% streaming.
                let line = if rng.chance(0.75) {
                    LineAddr::new(rng.below(256))
                } else {
                    LineAddr::new(10_000 + i)
                };
                black_box(cache.access(line));
            }
            black_box(cache.stats().hits)
        })
    });
    group.finish();
}

fn bench_extractor(c: &mut Criterion) {
    let mut group = c.benchmark_group("intervals");
    group.throughput(Throughput::Elements(N));
    group.bench_function("extract_into_compact_dist", |b| {
        b.iter(|| {
            let mut extractor = IntervalExtractor::new(1024);
            let mut dist = CompactIntervalDist::new();
            let mut rng = SplitMix64::new(2);
            for i in 0..N {
                let frame = FrameId::new(rng.below(1024) as u32);
                extractor.on_access(frame, Cycle::new(i * 3), rng.chance(0.9), &mut dist);
            }
            extractor.finish(Cycle::new(N * 3), &mut dist);
            black_box(dist.num_classes())
        })
    });
    group.finish();
}

fn bench_prefetchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefetch");
    group.throughput(Throughput::Elements(N));
    group.bench_function("next_line", |b| {
        b.iter(|| {
            let mut p = NextLinePrefetcher::new();
            for i in 0..N {
                black_box(p.observe(LineAddr::new(i / 4)));
            }
            p.triggers()
        })
    });
    group.bench_function("stride_table", |b| {
        b.iter(|| {
            let mut p = StridePrefetcher::new(1024);
            for i in 0..N {
                let pc = Pc::new((i % 64) * 4);
                black_box(p.observe(pc, Address::new(i * 128)));
            }
            p.triggers()
        })
    });
    group.finish();
}

fn bench_policy_eval(c: &mut Criterion) {
    // A representative distribution with 10K classes.
    let mut dist = CompactIntervalDist::new();
    let mut rng = SplitMix64::new(3);
    for _ in 0..10_000 {
        dist.add(
            IntervalClass {
                length: rng.below(1_000_000),
                kind: IntervalKind::Interior {
                    reaccess: rng.chance(0.8),
                },
                wake: WakeHints {
                    next_line: rng.chance(0.3),
                    stride: rng.chance(0.05),
                },
                dirty: false,
            },
            1 + rng.below(100),
        );
    }
    let table = dist.freeze();
    let ctx = EnergyContext::new(
        CircuitParams::for_node(TechnologyNode::N70),
        RefetchAccounting::PaperStrict,
    );
    let mut group = c.benchmark_group("policy");
    group.throughput(Throughput::Elements(table.num_classes() as u64));
    group.bench_function("opt_hybrid_over_10k_classes", |b| {
        b.iter(|| black_box(ctx.evaluate(&OptHybrid::new(), &table)))
    });
    group.bench_function("prefetch_b_over_10k_classes", |b| {
        b.iter(|| {
            black_box(ctx.evaluate(&PrefetchGuided::new(PrefetchScheme::B), &table))
        })
    });
    group.finish();
}

/// One sweep point (a profile side at 70nm: OPT-Drowsy, OPT-Sleep and
/// OPT-Hybrid savings) evaluated by the per-class oracle and in closed
/// form, back to back on each suite profile. `scripts/bench_sweep_eval.sh`
/// turns the printed pairs into `results/BENCH_sweep_eval.json`.
fn bench_sweep_eval(c: &mut Criterion) {
    let model = GeneralizedModel::from_params(CircuitParams::for_node(TechnologyNode::N70));
    let ctx = model.context();
    let b = ctx.inflection_points().drowsy_sleep;
    let families = [OptFamily::Drowsy, OptFamily::Sleep { threshold: b }, OptFamily::Hybrid];
    let policies = families.map(OptFamily::policy);
    let mut group = c.benchmark_group("sweep_eval");
    for profile in profile_suite(Scale::Small) {
        for (side, cache) in [("icache", &profile.icache), ("dcache", &profile.dcache)] {
            let table = &cache.dist;
            group.bench_function(format!("oracle/{}/{side}", profile.name), |bench| {
                bench.iter(|| policies.each_ref().map(|p| ctx.evaluate(p.as_ref(), table)))
            });
            group.bench_function(format!("closed_form/{}/{side}", profile.name), |bench| {
                bench.iter(|| model.optimal_savings(table))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_extractor,
    bench_prefetchers,
    bench_policy_eval,
    bench_sweep_eval
);
criterion_main!(benches);
