//! `profile-cold`: one op is one cold profile of one registered
//! benchmark, fetched from a fresh memory-only `ProfileStore` on one
//! thread — generation → `Hierarchy` → `IntervalExtractor` →
//! `PrefetchAnalyzer`, with the modelled caches empty at the start.
//!
//! Ops cycle through the six synthetic analogs and the six `isa:*`
//! programs in whole passes, so every benchmark is profiled equally
//! often. The seed picks each benchmark's cycle budget inside a small
//! window above its base budget; the base budgets are scaled so that
//! every op costs about the same host time.

use crate::{median, stream_ns, sys, Args, Checks, CountSink, Layers, Rng, Timed, SETUPS};
use leakage_cachesim::{FrameId, Hierarchy, HierarchyConfig, Level1};
use leakage_experiments::codec::encode_profile;
use leakage_experiments::{BenchmarkProfile, ProfileStore};
use leakage_intervals::{CompactIntervalDist, IntervalExtractor};
use leakage_prefetch::PrefetchAnalyzer;
use leakage_trace::{Cycle, TraceSource, VecTrace};
use leakage_workloads::{by_name, Benchmark, Scale};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The benchmarks and their base cycle budgets. The
/// executed programs retire fewer simulated cycles per host second
/// than the synthetic analogs, so their budgets are larger.
const BENCHMARKS: [(&str, u64); 12] = [
    ("ammp", 2_000_000),
    ("applu", 2_000_000),
    ("gcc", 2_000_000),
    ("gzip", 2_000_000),
    ("mesa", 2_000_000),
    ("vortex", 2_000_000),
    ("isa:matmul", 4_200_000),
    ("isa:isort", 3_400_000),
    ("isa:msort", 3_600_000),
    ("isa:chase", 3_600_000),
    ("isa:memset", 4_400_000),
    ("isa:memcpy", 4_100_000),
];

/// Host seconds one pass over the twelve benchmarks takes on the
/// reference machine (2 vCPUs); sets the number of passes per run.
const PASS_S: f64 = 2.4;

/// One op's input: a benchmark and its cycle budget.
struct Op {
    name: &'static str,
    budget: u64,
}

/// The seeded inputs: each budget is its base plus up to 1/64 more.
fn inputs(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    BENCHMARKS
        .iter()
        .map(|&(name, base)| Op {
            name,
            budget: base + rng.below(base / 64),
        })
        .collect()
}

/// The op itself: a cold fetch from a fresh store.
fn fetch(op: &Op) -> Result<Arc<BenchmarkProfile>, String> {
    ProfileStore::new()
        .try_fetch(op.name, Scale::Custom(op.budget))
        .map_err(|err| format!("{} @ {}: {err}", op.name, op.budget))
}

/// Checks an op's profile: both sides cover the timeline, and the
/// encoded profile's digest equals the one recorded for this input.
fn verify(
    digests: &mut HashMap<u64, u64>,
    op: &Op,
    profile: &BenchmarkProfile,
) -> Result<(), String> {
    if !profile.icache.covers_timeline() || !profile.dcache.covers_timeline() {
        return Err(format!(
            "{} @ {}: interval coverage broken",
            op.name, op.budget
        ));
    }
    let digest = crate::fnv1a(&encode_profile(profile));
    let recorded = *digests
        .entry(op.budget ^ crate::fnv1a(op.name.as_bytes()))
        .or_insert(digest);
    if digest != recorded {
        return Err(format!(
            "{} @ {}: profile digest {digest:016x} != recorded {recorded:016x}",
            op.name, op.budget
        ));
    }
    Ok(())
}

fn accesses(profile: &BenchmarkProfile) -> u64 {
    profile.icache.cache.accesses + profile.dcache.cache.accesses
}

fn passes(seconds: f64) -> usize {
    ((seconds / PASS_S).round() as usize).max(2)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The end-to-end run: set-up is input generation plus one warm-up op.
pub fn timed(args: &Args, checks: &mut Checks) -> Result<Timed, String> {
    let mut digests = HashMap::new();
    let mut setup_s = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        ops = inputs(args.seed);
        let warm = fetch(&ops[0])?;
        setup_s.push(start.elapsed().as_secs_f64());
        checks.output(verify(&mut digests, &ops[0], &warm));
    }
    let me = std::process::id();
    let (mut latencies_ms, mut cpu_s, mut work) = (Vec::new(), 0.0, 0.0);
    for _ in 0..passes(args.seconds) {
        for op in &ops {
            let cpu = sys::cpu_s(me);
            let start = Instant::now();
            let fetched = fetch(op);
            let latency_ms = ms(start);
            cpu_s += sys::cpu_s(me) - cpu;
            match fetched {
                Ok(profile) => {
                    latencies_ms.push(latency_ms);
                    work += accesses(&profile) as f64;
                    checks.output(verify(&mut digests, op, &profile));
                }
                Err(err) => checks.no_answer(err),
            }
        }
    }
    Ok(Timed {
        setup_s,
        latencies_ms,
        cpu_s,
        peak_rss_mb: sys::peak_rss_mb(me),
        work,
        work_unit: ("sim_maccess_per_s", "Maccess/s", 1e-6),
    })
}

/// Sums over the traced ops.
#[derive(Default)]
struct Totals {
    op_ns: f64,
    layer_ns: f64,
    generate_ns: [f64; 2],
    generated: [u64; 2],
    cachesim_ns: f64,
    accesses: u64,
    misses: [u64; 2],
    side_accesses: [u64; 2],
    extract_ns: f64,
    l1_events: u64,
    classes: u64,
    sides: u64,
    prefetch_ns: f64,
    triggers: u64,
}

/// One L1 event as the interval extractor consumes it.
#[derive(Clone, Copy)]
struct L1Record {
    frame: FrameId,
    cycle: Cycle,
    hit: bool,
    now_dirty: bool,
}

fn bench(op: &Op) -> Benchmark {
    by_name(op.name, Scale::Custom(op.budget)).expect("registered benchmark")
}

fn side_index(side: Level1) -> usize {
    match side {
        Level1::Instruction => 0,
        Level1::Data => 1,
    }
}

/// Replays one op through each layer alone, timing only the layer's
/// public entry points, and checks every replay against the fused
/// profile. A replay's time is its loop's time minus the time to stream
/// the recorded input, which the fused op never reads from memory.
fn replay(
    op: &Op,
    op_ns: f64,
    profile: &BenchmarkProfile,
    totals: &mut Totals,
) -> Result<(), String> {
    let family = usize::from(op.name.starts_with("isa:"));
    let mut count = CountSink(0);
    let mut source = bench(op);
    let start = Instant::now();
    source.run(&mut count);
    let generate_ns = start.elapsed().as_nanos() as f64;

    let mut trace = VecTrace::new();
    bench(op).run(&mut trace);
    let events = trace.into_events();
    if events.len() as u64 != count.0 || count.0 != accesses(profile) {
        return Err(format!(
            "{}: generated {} accesses, profile saw {}",
            op.name,
            count.0,
            accesses(profile)
        ));
    }

    let config = HierarchyConfig::alpha_like();
    let mut hierarchy = Hierarchy::new(config.clone());
    let start = Instant::now();
    for access in &events {
        black_box(hierarchy.access(access));
    }
    let cachesim_ns = start.elapsed().as_nanos() as f64 - stream_ns(&events);
    let stats = [*hierarchy.l1i().stats(), *hierarchy.l1d().stats()];
    if stats != [profile.icache.cache, profile.dcache.cache] {
        return Err(format!(
            "{}: replayed cache counts differ from the profile",
            op.name
        ));
    }

    let mut hierarchy = Hierarchy::new(config.clone());
    let mut l1: [Vec<L1Record>; 2] = [Vec::new(), Vec::new()];
    let mut end = Cycle::ZERO;
    for access in &events {
        let event = hierarchy.access(access).l1;
        l1[side_index(event.cache)].push(L1Record {
            frame: event.frame,
            cycle: event.cycle,
            hit: event.hit,
            now_dirty: hierarchy.l1(event.cache).frame_dirty(event.frame),
        });
        if access.cycle >= end {
            end = access.cycle.advanced(1);
        }
    }
    let frames = [config.l1i.num_frames(), config.l1d.num_frames()];
    let start = Instant::now();
    let dists = [0, 1].map(|side| {
        let mut extractor = IntervalExtractor::new(frames[side]);
        let mut dist = CompactIntervalDist::new();
        for e in &l1[side] {
            extractor.on_access_full(e.frame, e.cycle, e.hit, e.now_dirty, &mut dist);
        }
        extractor.finish(end, &mut dist);
        dist
    });
    let extract_ns = start.elapsed().as_nanos() as f64 - stream_ns(&l1[0]) - stream_ns(&l1[1]);
    for (dist, side) in dists.iter().zip([&profile.icache, &profile.dcache]) {
        if dist.total_intervals() != side.dist.total_intervals()
            || dist.total_cycles() != side.dist.total_cycles()
        {
            return Err(format!(
                "{}: replayed intervals differ from the profile",
                op.name
            ));
        }
    }

    let mut analyzers = [
        PrefetchAnalyzer::for_instruction_cache(config.l1i.line_bits()),
        PrefetchAnalyzer::for_data_cache(config.l1d.line_bits()),
    ];
    let mut triggers = Vec::with_capacity(4);
    let start = Instant::now();
    for access in &events {
        let side = usize::from(!access.kind.is_fetch());
        analyzers[side].observe_into(access, &mut triggers);
        black_box(&triggers);
    }
    let prefetch_ns = start.elapsed().as_nanos() as f64 - stream_ns(&events);
    let prefetch = [analyzers[0].stats(), analyzers[1].stats()];
    if prefetch != [profile.icache.prefetch, profile.dcache.prefetch] {
        return Err(format!(
            "{}: replayed prefetch triggers differ from the profile",
            op.name
        ));
    }

    totals.op_ns += op_ns;
    totals.layer_ns += generate_ns + cachesim_ns + extract_ns + prefetch_ns;
    totals.generate_ns[family] += generate_ns;
    totals.generated[family] += count.0;
    totals.cachesim_ns += cachesim_ns;
    totals.accesses += count.0;
    for (side, s) in stats.iter().enumerate() {
        totals.misses[side] += s.misses;
        totals.side_accesses[side] += s.accesses;
    }
    totals.extract_ns += extract_ns;
    totals.l1_events += (l1[0].len() + l1[1].len()) as u64;
    totals.classes +=
        (profile.icache.dist.num_classes() + profile.dcache.dist.num_classes()) as u64;
    totals.sides += 2;
    totals.prefetch_ns += prefetch_ns;
    totals.triggers += prefetch
        .iter()
        .map(|p| p.next_line_triggers + p.stride_triggers)
        .sum::<u64>();
    Ok(())
}

/// The traced run: pairs of one plain pass and one traced pass, so the
/// tracing overhead is measured on the same ops in the same process.
pub fn traced(args: &Args, checks: &mut Checks) -> Result<Layers, String> {
    let ops = inputs(args.seed);
    let mut digests = HashMap::new();
    let warm = fetch(&ops[0])?;
    checks.output(verify(&mut digests, &ops[0], &warm));
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut totals = Totals::default();
    for _ in 0..(passes(args.seconds) / 4).max(1) {
        for op in &ops {
            let start = Instant::now();
            match fetch(op) {
                Ok(profile) => {
                    plain_ms.push(ms(start));
                    checks.output(verify(&mut digests, op, &profile));
                }
                Err(err) => checks.no_answer(err),
            }
        }
        for op in &ops {
            let start = Instant::now();
            match fetch(op) {
                Ok(profile) => {
                    let op_ms = ms(start);
                    traced_ms.push(op_ms);
                    let checked = verify(&mut digests, op, &profile)
                        .and_then(|()| replay(op, op_ms * 1e6, &profile, &mut totals));
                    checks.output(checked);
                }
                Err(err) => checks.no_answer(err),
            }
        }
    }
    let t = &totals;
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let residual_ns = t.op_ns - t.layer_ns;
    Ok(Layers::from([
        (
            "workloads.generate_ns_per_access",
            per(t.generate_ns[0], t.generated[0]),
        ),
        (
            "isa.execute_ns_per_access",
            per(t.generate_ns[1], t.generated[1]),
        ),
        ("cachesim.access_ns", per(t.cachesim_ns, t.accesses)),
        (
            "cachesim.l1i_miss_ratio",
            per(t.misses[0] as f64, t.side_accesses[0]),
        ),
        (
            "cachesim.l1d_miss_ratio",
            per(t.misses[1] as f64, t.side_accesses[1]),
        ),
        (
            "intervals.extract_ns_per_event",
            per(t.extract_ns, t.l1_events),
        ),
        ("intervals.classes", per(t.classes as f64, t.sides)),
        (
            "prefetch.observe_ns_per_access",
            per(t.prefetch_ns, t.accesses),
        ),
        (
            "prefetch.triggers_per_access",
            per(t.triggers as f64, t.accesses),
        ),
        (
            "experiments.glue_ns_per_access",
            per(residual_ns, t.accesses),
        ),
        ("op.residual_share", residual_ns / t.op_ns),
        (
            "op.tracing_overhead_share",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        ),
    ]))
}
