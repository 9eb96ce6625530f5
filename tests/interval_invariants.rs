//! Property tests on the interval-extraction substrate: random access
//! patterns through a real cache, checked against global invariants.

use cache_leakage_limits::cachesim::{Cache, CacheConfig};
use cache_leakage_limits::intervals::{
    CollectSink, CompactIntervalDist, IntervalExtractor, IntervalKind,
};
use cache_leakage_limits::trace::{Cycle, LineAddr};
use proptest::prelude::*;

/// Random (line, gap) access sequences over a small cache.
fn arb_accesses() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..64, 1u64..500), 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Per-frame interval lengths tile the trace exactly: the coverage
    /// invariant that makes energy accounting exhaustive and
    /// non-overlapping.
    #[test]
    fn interval_lengths_tile_the_timeline(accesses in arb_accesses()) {
        let mut cache = Cache::new(CacheConfig::new("t", 16 * 64, 2, 64, 1).unwrap());
        let mut extractor = IntervalExtractor::new(cache.config().num_frames());
        let mut sink = CollectSink::new();
        let mut cycle = 0u64;
        for (line, gap) in &accesses {
            cycle += gap;
            let result = cache.access(LineAddr::new(*line));
            extractor.on_access(result.frame, Cycle::new(cycle), result.hit, &mut sink);
        }
        let end = cycle + 1;
        extractor.finish(Cycle::new(end), &mut sink);

        let intervals = sink.into_intervals();
        let frames = cache.config().num_frames();
        // Exactly one leading-or-untouched and one trailing-or-untouched
        // interval per frame; untouched counts as both.
        for frame in 0..frames {
            let per_frame: Vec<_> = intervals
                .iter()
                .filter(|i| i.frame.index() == frame)
                .collect();
            let sum: u64 = per_frame.iter().map(|i| i.length).sum();
            prop_assert_eq!(sum, end, "frame {} must cover the timeline", frame);
            let untouched = per_frame
                .iter()
                .filter(|i| i.kind == IntervalKind::Untouched)
                .count();
            let leading = per_frame
                .iter()
                .filter(|i| i.kind == IntervalKind::Leading)
                .count();
            let trailing = per_frame
                .iter()
                .filter(|i| i.kind == IntervalKind::Trailing)
                .count();
            prop_assert!(untouched == 1 && leading == 0 && trailing == 0
                || untouched == 0 && leading == 1 && trailing == 1);
        }
    }

    /// The compact distribution agrees with the raw interval list on
    /// every aggregate.
    #[test]
    fn compact_dist_is_a_faithful_summary(accesses in arb_accesses()) {
        let mut cache = Cache::new(CacheConfig::new("t", 16 * 64, 2, 64, 1).unwrap());
        let mut extractor = IntervalExtractor::new(cache.config().num_frames());
        let mut collect = CollectSink::new();
        let mut dist = CompactIntervalDist::new();
        let mut cycle = 0u64;
        {
            let mut both = (&mut collect, &mut dist);
            for (line, gap) in &accesses {
                cycle += gap;
                let result = cache.access(LineAddr::new(*line));
                extractor.on_access(result.frame, Cycle::new(cycle), result.hit, &mut both);
            }
            extractor.finish(Cycle::new(cycle + 1), &mut both);
        }
        let intervals = collect.into_intervals();
        prop_assert_eq!(dist.total_intervals(), intervals.len() as u64);
        prop_assert_eq!(
            dist.total_cycles(),
            intervals.iter().map(|i| i.length).sum::<u64>()
        );
        // Freezing keeps every aggregate.
        let table = dist.clone().freeze();
        prop_assert_eq!(table.num_classes(), dist.num_classes());
        prop_assert_eq!(table.total_intervals(), dist.total_intervals());
        prop_assert_eq!(table.total_cycles(), dist.total_cycles());
        let dead = intervals
            .iter()
            .filter(|i| i.kind == IntervalKind::Interior { reaccess: false })
            .count() as u64;
        prop_assert_eq!(
            table.count_matching(|c| c.kind == IntervalKind::Interior { reaccess: false }),
            dead
        );
    }

    /// Hits close live intervals, fills close dead ones: the extractor's
    /// classification matches the cache's ground truth.
    #[test]
    fn liveness_matches_cache_outcomes(accesses in arb_accesses()) {
        let mut cache = Cache::new(CacheConfig::new("t", 8 * 64, 1, 64, 1).unwrap());
        let mut extractor = IntervalExtractor::new(cache.config().num_frames());
        let mut sink = CollectSink::new();
        let mut cycle = 0u64;
        let mut hits = 0u64;
        let mut touched_frames = std::collections::HashSet::new();
        let mut refills = 0u64;
        for (line, gap) in &accesses {
            cycle += gap;
            let result = cache.access(LineAddr::new(*line));
            if result.hit {
                hits += 1;
            } else if !touched_frames.insert(result.frame) {
                refills += 1;
            }
            extractor.on_access(result.frame, Cycle::new(cycle), result.hit, &mut sink);
        }
        extractor.finish(Cycle::new(cycle + 1), &mut sink);
        let intervals = sink.into_intervals();
        let live = intervals
            .iter()
            .filter(|i| i.kind == IntervalKind::Interior { reaccess: true })
            .count() as u64;
        let dead = intervals
            .iter()
            .filter(|i| i.kind == IntervalKind::Interior { reaccess: false })
            .count() as u64;
        prop_assert_eq!(live, hits, "every hit closes a live interval");
        prop_assert_eq!(dead, refills, "every refill of a touched frame closes a dead interval");
    }
}
