//! Mode census: where the oracle puts the cache's time and energy.
//!
//! Savings percentages say *how much* the oracle wins; the census says
//! *where from* — how many intervals (and how much rest time) land in
//! each operating mode under Theorem 1's classification, and how the
//! optimal energy splits into resting leakage, transition ramps and
//! refetches. The paper's §4.3 discussion ("the sleep mode plays a much
//! more important role in the data cache") is this census in prose.

use crate::{EnergyContext, PowerMode};
use leakage_intervals::IntervalTable;
use serde::{Deserialize, Serialize};

/// Census counters for one operating mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ModeShare {
    /// Intervals assigned to the mode.
    pub intervals: u64,
    /// Rest cycles spent in the mode (cycle-weighted share).
    pub cycles: u64,
    /// Energy consumed by intervals in this mode, pJ (rest + ramps +
    /// refetch).
    pub energy: f64,
}

/// The oracle's time/energy distribution over operating modes.
///
/// # Examples
///
/// ```
/// use leakage_core::{CircuitParams, EnergyContext, ModeCensus, RefetchAccounting};
/// use leakage_core::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};
/// use leakage_energy::TechnologyNode;
///
/// let ctx = EnergyContext::new(
///     CircuitParams::for_node(TechnologyNode::N70),
///     RefetchAccounting::PaperStrict,
/// );
/// let mut dist = CompactIntervalDist::new();
/// dist.add(IntervalClass {
///     length: 50_000,
///     kind: IntervalKind::Interior { reaccess: true },
///     wake: WakeHints::NONE,
///     dirty: false,
/// }, 10);
/// let census = ModeCensus::compute(&ctx, &dist.freeze());
/// assert_eq!(census.sleep.intervals, 10);
/// assert!(census.cycle_fraction(leakage_core::PowerMode::Sleep) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ModeCensus {
    /// Intervals the oracle keeps fully active.
    pub active: ModeShare,
    /// Intervals the oracle puts in the drowsy state.
    pub drowsy: ModeShare,
    /// Intervals the oracle gates off.
    pub sleep: ModeShare,
}

impl ModeCensus {
    /// Classifies every interval of `table` with the context's optimal
    /// mode and aggregates time and energy per mode.
    pub fn compute(ctx: &EnergyContext, table: &IntervalTable) -> Self {
        let mut census = ModeCensus::default();
        for (class, count) in table.iter() {
            let mode = ctx.optimal_mode(&class);
            let energy = ctx.optimal_energy(&class);
            let share = census.share_mut(mode);
            share.intervals += count;
            share.cycles += class.length * count;
            share.energy += energy * count as f64;
        }
        census
    }

    fn share_mut(&mut self, mode: PowerMode) -> &mut ModeShare {
        match mode {
            PowerMode::Active => &mut self.active,
            PowerMode::Drowsy => &mut self.drowsy,
            PowerMode::Sleep => &mut self.sleep,
        }
    }

    /// The share for one mode.
    pub fn share(&self, mode: PowerMode) -> &ModeShare {
        match mode {
            PowerMode::Active => &self.active,
            PowerMode::Drowsy => &self.drowsy,
            PowerMode::Sleep => &self.sleep,
        }
    }

    /// Total rest cycles across all modes.
    pub fn total_cycles(&self) -> u64 {
        self.active.cycles + self.drowsy.cycles + self.sleep.cycles
    }

    /// Total intervals across all modes.
    pub fn total_intervals(&self) -> u64 {
        self.active.intervals + self.drowsy.intervals + self.sleep.intervals
    }

    /// Fraction of rest cycles the oracle puts in `mode` (0 for an empty
    /// census).
    pub fn cycle_fraction(&self, mode: PowerMode) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.share(mode).cycles as f64 / total as f64
        }
    }

    /// Fraction of intervals assigned to `mode`.
    pub fn interval_fraction(&self, mode: PowerMode) -> f64 {
        let total = self.total_intervals();
        if total == 0 {
            0.0
        } else {
            self.share(mode).intervals as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ModeCensus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "active {:.1}% / drowsy {:.1}% / sleep {:.1}% of rest cycles \
             ({} / {} / {} intervals)",
            self.cycle_fraction(PowerMode::Active) * 100.0,
            self.cycle_fraction(PowerMode::Drowsy) * 100.0,
            self.cycle_fraction(PowerMode::Sleep) * 100.0,
            self.active.intervals,
            self.drowsy.intervals,
            self.sleep.intervals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitParams, RefetchAccounting, TechnologyNode};
    use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};

    fn ctx() -> EnergyContext {
        EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::PaperStrict,
        )
    }

    fn class(length: u64) -> IntervalClass {
        IntervalClass {
            length,
            kind: IntervalKind::Interior { reaccess: true },
            wake: WakeHints::NONE,
            dirty: false,
        }
    }

    #[test]
    fn census_respects_theorem_bands() {
        let ctx = ctx();
        let mut dist = CompactIntervalDist::new();
        dist.add(class(3), 100); // active band
        dist.add(class(500), 50); // drowsy band
        dist.add(class(100_000), 7); // sleep band
        let census = ModeCensus::compute(&ctx, &dist.freeze());
        assert_eq!(census.active.intervals, 100);
        assert_eq!(census.drowsy.intervals, 50);
        assert_eq!(census.sleep.intervals, 7);
        assert_eq!(census.active.cycles, 300);
        assert_eq!(census.drowsy.cycles, 25_000);
        assert_eq!(census.sleep.cycles, 700_000);
        assert_eq!(census.total_intervals(), 157);
    }

    #[test]
    fn fractions_sum_to_one() {
        let ctx = ctx();
        let mut dist = CompactIntervalDist::new();
        dist.add(class(10), 5);
        dist.add(class(5_000), 5);
        let census = ModeCensus::compute(&ctx, &dist.freeze());
        let cycle_sum: f64 = PowerMode::ALL
            .iter()
            .map(|&m| census.cycle_fraction(m))
            .sum();
        assert!((cycle_sum - 1.0).abs() < 1e-12);
        let interval_sum: f64 = PowerMode::ALL
            .iter()
            .map(|&m| census.interval_fraction(m))
            .sum();
        assert!((interval_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn census_energy_matches_hybrid_evaluation() {
        let ctx = ctx();
        let mut dist = CompactIntervalDist::new();
        dist.add(class(3), 10);
        dist.add(class(900), 10);
        dist.add(class(90_000), 10);
        let table = dist.freeze();
        let census = ModeCensus::compute(&ctx, &table);
        let hybrid = ctx.evaluate(&crate::policy::OptHybrid::new(), &table);
        let total = census.active.energy + census.drowsy.energy + census.sleep.energy;
        assert!((total - hybrid.energy).abs() < 1e-9 * hybrid.energy.max(1.0));
    }

    #[test]
    fn empty_census_is_zero() {
        let census = ModeCensus::compute(&ctx(), &IntervalTable::default());
        assert_eq!(census.total_cycles(), 0);
        assert_eq!(census.cycle_fraction(PowerMode::Sleep), 0.0);
        assert!(census.to_string().contains("active"));
    }
}
