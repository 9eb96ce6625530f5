//! Property test: the closed-form OPT evaluation equals the per-class
//! oracle on random circuit parameters and random tables whose lengths
//! sit on and next to every breakpoint. The committed
//! `closed_form_props.proptest-regressions` seeds replay first.

use leakage_conformance::energy_close;
use leakage_conformance::harness::breakpoint_lengths;
use leakage_core::{
    CircuitParams, ClassCategory, CompactIntervalDist, EnergyContext, ModePowers, ModeTimings,
    OptFamily, RefetchAccounting, TransitionModel,
};
use proptest::prelude::*;

/// Random but physically sensible circuit parameters, any transition
/// model, either accounting, optional writeback charge.
fn arb_context() -> impl Strategy<Value = EnergyContext> {
    (
        (
            0.001f64..10.0,
            0.05f64..0.9,
            0.0f64..0.04,
            0.0f64..100_000.0,
        ),
        (2u64..50, 1u64..4, 0u64..20),
        prop::sample::select(vec![
            TransitionModel::Trapezoidal,
            TransitionModel::HighEndpoint,
            TransitionModel::LowEndpoint,
        ]),
        prop::sample::select(vec![
            RefetchAccounting::PaperStrict,
            RefetchAccounting::DeadAware,
        ]),
        0.0f64..3.0,
    )
        .prop_map(
            |((active, dr, sr, refetch_units), (s1_extra, d, s4), transition, accounting, wb)| {
                let params = CircuitParams::builder()
                    .powers(ModePowers::from_ratios(active, dr.max(sr + 0.01), sr))
                    .timings(ModeTimings {
                        s1: d + s1_extra,
                        s3: d,
                        s4,
                        d1: d,
                        d3: d,
                    })
                    .transition_model(transition)
                    .refetch_energy(refetch_units * active)
                    .build();
                if wb < 1.0 {
                    EnergyContext::new(params, accounting)
                } else {
                    let charge = wb * params.refetch_energy();
                    EnergyContext::with_writeback(params, accounting, charge)
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn closed_form_equals_per_class_oracle(
        ctx in arb_context(),
        picks in prop::collection::vec((0usize..10_000, 0usize..ClassCategory::COUNT, 0u64..1_000), 1..40),
        threshold_pick in 0usize..10_000,
    ) {
        let breakpoints = breakpoint_lengths(&ctx);
        let mut dist = CompactIntervalDist::new();
        for &(pick, code, count) in &picks {
            let length = breakpoints[pick % breakpoints.len()];
            let count = if length >= 1 << 32 { count % 4 } else { count };
            dist.add(ClassCategory::from_code(code).class(length), count);
        }
        let table = dist.freeze();
        let b = ctx.inflection_points().drowsy_sleep;
        let threshold = breakpoints[threshold_pick % breakpoints.len()];
        for family in [
            OptFamily::Drowsy,
            OptFamily::Hybrid,
            OptFamily::Sleep { threshold: b },
            OptFamily::Sleep { threshold },
        ] {
            let fast = ctx.evaluate_opt(family, &table);
            let oracle = ctx.evaluate(family.policy().as_ref(), &table);
            prop_assert!(
                energy_close(fast.energy, oracle.energy) && energy_close(fast.baseline, oracle.baseline),
                "{:?}: closed form {:?} vs oracle {:?}", family, fast, oracle
            );
            prop_assert_eq!(fast.infeasible_fallbacks, oracle.infeasible_fallbacks);
        }
    }
}
