//! Integration tests of the generalized model (Fig. 6) across crates.

use cache_leakage_limits::core::{
    CircuitParams, GeneralizedModel, ModePowers, ModeTimings, PowerMode, RefetchAccounting,
};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};
use cache_leakage_limits::workloads::{mesa, Scale};

fn class(length: u64) -> IntervalClass {
    IntervalClass {
        length,
        kind: IntervalKind::Interior { reaccess: true },
        wake: WakeHints::NONE,
        dirty: false,
    }
}

#[test]
fn model_runs_on_real_profiles() {
    let profile = profile_benchmark(&mut mesa(Scale::Test));
    for node in TechnologyNode::ALL {
        let model = GeneralizedModel::from_params(CircuitParams::for_node(node));
        for dist in [&profile.icache.dist, &profile.dcache.dist] {
            let savings = model.optimal_savings(dist);
            assert!(savings.opt_hybrid + 1e-9 >= savings.opt_drowsy, "{node}");
            assert!(savings.opt_hybrid + 1e-9 >= savings.opt_sleep, "{node}");
            assert!(savings.opt_hybrid <= 100.0);
            assert!(savings.opt_drowsy >= 0.0);
        }
    }
}

#[test]
fn fig6_edge_energies_scale_with_voltage_swing() {
    for node in TechnologyNode::ALL {
        let model = GeneralizedModel::from_params(CircuitParams::for_node(node));
        use PowerMode::*;
        // Deeper transitions swing more voltage over more cycles.
        assert!(model.transition_energy(Active, Sleep) > model.transition_energy(Active, Drowsy));
        // Waking from sleep pays the refetch wait at full power.
        assert!(model.transition_energy(Sleep, Active) > model.transition_energy(Drowsy, Active));
        // Self-loops are free; cross-technique edges do not exist.
        assert_eq!(model.transition_energy(Drowsy, Drowsy), 0.0);
        assert!(model.try_transition_energy(Drowsy, Sleep).is_none());
        assert!(model.refetch_energy() > 0.0);
    }
}

#[test]
fn custom_technology_point_behaves_sanely() {
    // A made-up future node: very leaky, very cheap refetch.
    let params = CircuitParams::builder()
        .powers(ModePowers::from_ratios(0.5, 0.25, 0.002))
        .timings(ModeTimings::with_l2_latency(5))
        .refetch_energy(2.0)
        .build();
    let model = GeneralizedModel::from_params(params);
    let b = model.inflection_points().drowsy_sleep;
    assert!(b < 1057, "cheap refetch + heavy leakage pulls b below 70nm's");

    // With everything long-interval, sleep approaches 1 - sleep_ratio.
    let mut dist = CompactIntervalDist::new();
    dist.add(class(10_000_000), 8);
    let savings = model.optimal_savings(&dist.freeze());
    assert!(savings.opt_sleep > 99.0);
    assert!((savings.opt_drowsy - 75.0).abs() < 1.0, "1 - 0.25 = 75%");
}

#[test]
fn accounting_mode_is_selectable() {
    let mut dist = CompactIntervalDist::new();
    dist.add(
        IntervalClass {
            length: 50_000,
            kind: IntervalKind::Interior { reaccess: false }, // dead
            wake: WakeHints::NONE,
            dirty: false,
        },
        1000,
    );
    let params = CircuitParams::for_node(TechnologyNode::N70);
    let strict = GeneralizedModel::with_accounting(params.clone(), RefetchAccounting::PaperStrict);
    let aware = GeneralizedModel::with_accounting(params, RefetchAccounting::DeadAware);
    // Dead intervals slept without refetch save strictly more.
    let table = dist.freeze();
    assert!(aware.optimal_savings(&table).opt_sleep > strict.optimal_savings(&table).opt_sleep);
}

#[test]
fn empty_distribution_yields_zero_savings() {
    let model = GeneralizedModel::from_params(CircuitParams::for_node(TechnologyNode::N70));
    let savings = model.optimal_savings(&CompactIntervalDist::new().freeze());
    assert_eq!(savings.opt_drowsy, 0.0);
    assert_eq!(savings.opt_sleep, 0.0);
    assert_eq!(savings.opt_hybrid, 0.0);
}
