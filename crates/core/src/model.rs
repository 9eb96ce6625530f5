//! The generalized optimal-savings model of Fig. 6.

use crate::closed_form::OptFamily;
use crate::{EnergyContext, PowerMode, RefetchAccounting};
use leakage_energy::{CircuitParams, Energy, InflectionPoints};
use leakage_intervals::IntervalTable;
use serde::{Deserialize, Serialize};

/// Output of the generalized model: the optimal leakage saving
/// percentages of the three technique families (the rows of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimalSavings {
    /// `OPT-Drowsy` saving, percent of baseline leakage.
    pub opt_drowsy: f64,
    /// `OPT-Sleep` saving (gating every interval beyond the drowsy–sleep
    /// inflection point), percent.
    pub opt_sleep: f64,
    /// `OPT-Hybrid` saving, percent.
    pub opt_hybrid: f64,
}

impl std::fmt::Display for OptimalSavings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OPT-Drowsy {:.1}% | OPT-Sleep {:.1}% | OPT-Hybrid {:.1}%",
            self.opt_drowsy, self.opt_sleep, self.opt_hybrid
        )
    }
}

/// The paper's parameterized model (Fig. 6): three states — Active,
/// Drowsy, Sleep — each with a static power, connected by transitions
/// with fixed energy costs. Feed it any circuit assumptions
/// ([`CircuitParams`]) and any interval distribution, and it reports the
/// optimal achievable savings of drowsy-only, sleep-only and hybrid
/// management.
///
/// This is the reusable artifact the paper describes as "coded in C
/// language and … publicly available for cache leakage studies",
/// rebuilt in Rust.
///
/// # Examples
///
/// ```
/// use leakage_core::{GeneralizedModel, CircuitParams, PowerMode};
/// use leakage_energy::TechnologyNode;
///
/// let model = GeneralizedModel::from_params(CircuitParams::for_node(TechnologyNode::N70));
/// // Edge weights of the Fig. 6 state machine:
/// let e_ad = model.transition_energy(PowerMode::Active, PowerMode::Drowsy);
/// let e_as = model.transition_energy(PowerMode::Active, PowerMode::Sleep);
/// assert!(e_as > e_ad, "the deeper transition swings more voltage");
/// ```
#[derive(Debug, Clone)]
pub struct GeneralizedModel {
    ctx: EnergyContext,
}

impl GeneralizedModel {
    /// Builds the model from circuit parameters with the paper's strict
    /// refetch accounting.
    pub fn from_params(params: CircuitParams) -> Self {
        GeneralizedModel {
            ctx: EnergyContext::new(params, RefetchAccounting::PaperStrict),
        }
    }

    /// Builds the model with explicit refetch accounting.
    pub fn with_accounting(params: CircuitParams, accounting: RefetchAccounting) -> Self {
        GeneralizedModel {
            ctx: EnergyContext::new(params, accounting),
        }
    }

    /// The underlying energy context.
    pub fn context(&self) -> &EnergyContext {
        &self.ctx
    }

    /// The static power of one state (`P(Active)`, `P(Drowsy)`,
    /// `P(Sleep)` in Fig. 6), pJ/cycle.
    pub fn state_power(&self, mode: PowerMode) -> f64 {
        self.ctx.params().powers().of(mode)
    }

    /// The energy of one state-machine edge (`E_AD`, `E_DA`, `E_AS`,
    /// `E_SA` in Fig. 6), pJ. Self-edges are free; the `Sleep → Active`
    /// edge includes the refetch-wait cycles at full power but *not* the
    /// dynamic refetch energy `C_D`, which Fig. 6 accounts on the induced
    /// miss itself ([`refetch_energy`](Self::refetch_energy)).
    ///
    /// Direct `Drowsy ↔ Sleep` edges do not exist in the paper's model —
    /// §3.1 shows an optimal policy never changes technique mid-interval
    /// — and return `None`.
    pub fn transition_energy(&self, from: PowerMode, to: PowerMode) -> Energy {
        self.try_transition_energy(from, to)
            .expect("drowsy<->sleep transitions are not part of the Fig. 6 model")
    }

    /// Like [`transition_energy`](Self::transition_energy) but returning
    /// `None` for the nonexistent `Drowsy ↔ Sleep` edges.
    pub fn try_transition_energy(&self, from: PowerMode, to: PowerMode) -> Option<Energy> {
        use PowerMode::*;
        let p = self.ctx.params();
        let t = p.timings();
        let ramp = p.transition_model();
        let pa = p.powers().active;
        let pd = p.powers().drowsy;
        let ps = p.powers().sleep;
        Some(match (from, to) {
            (Active, Drowsy) => ramp.ramp_power(pa, pd) * t.d1 as f64,
            (Drowsy, Active) => ramp.ramp_power(pd, pa) * t.d3 as f64,
            (Active, Sleep) => ramp.ramp_power(pa, ps) * t.s1 as f64,
            (Sleep, Active) => ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64,
            (Active, Active) | (Drowsy, Drowsy) | (Sleep, Sleep) => 0.0,
            (Drowsy, Sleep) | (Sleep, Drowsy) => return None,
        })
    }

    /// The dynamic energy of an induced miss, `C_D`.
    pub fn refetch_energy(&self) -> Energy {
        self.ctx.params().refetch_energy()
    }

    /// The inflection points implied by the parameters.
    pub fn inflection_points(&self) -> InflectionPoints {
        self.ctx.inflection_points()
    }

    /// Runs the model: optimal savings of the three technique families
    /// over the given interval table (one Table 2 cell group), in
    /// closed form (see [`crate::closed_form`]).
    pub fn optimal_savings(&self, table: &IntervalTable) -> OptimalSavings {
        let b = self.ctx.inflection_points().drowsy_sleep;
        let saving = |family| self.ctx.evaluate_opt(family, table).saving_percent();
        OptimalSavings {
            opt_drowsy: saving(OptFamily::Drowsy),
            opt_sleep: saving(OptFamily::Sleep { threshold: b }),
            opt_hybrid: saving(OptFamily::Hybrid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntervalClass, IntervalKind, WakeHints};
    use leakage_energy::TechnologyNode;

    fn model() -> GeneralizedModel {
        GeneralizedModel::from_params(CircuitParams::for_node(TechnologyNode::N70))
    }

    fn dist(entries: &[(u64, u64)]) -> IntervalTable {
        let mut d = leakage_intervals::CompactIntervalDist::new();
        for &(length, count) in entries {
            d.add(
                IntervalClass {
                    length,
                    kind: IntervalKind::Interior { reaccess: true },
                    wake: WakeHints::NONE,
                    dirty: false,
                },
                count,
            );
        }
        d.freeze()
    }

    #[test]
    fn state_powers_match_params() {
        let m = model();
        assert!(m.state_power(PowerMode::Active) > m.state_power(PowerMode::Drowsy));
        assert!(m.state_power(PowerMode::Drowsy) > m.state_power(PowerMode::Sleep));
    }

    #[test]
    fn edge_energies() {
        let m = model();
        use PowerMode::*;
        assert_eq!(m.transition_energy(Active, Active), 0.0);
        assert!(m.transition_energy(Active, Sleep) > m.transition_energy(Active, Drowsy));
        // Sleep->Active includes the refetch wait at full power.
        assert!(m.transition_energy(Sleep, Active) > m.transition_energy(Drowsy, Active));
        assert_eq!(m.try_transition_energy(Drowsy, Sleep), None);
        assert_eq!(m.try_transition_energy(Sleep, Drowsy), None);
    }

    #[test]
    #[should_panic(expected = "Fig. 6")]
    fn drowsy_sleep_edge_panics() {
        let _ = model().transition_energy(PowerMode::Drowsy, PowerMode::Sleep);
    }

    #[test]
    fn hybrid_never_worse_than_components() {
        let m = model();
        let d = dist(&[(4, 1000), (500, 500), (20_000, 100), (2_000_000, 3)]);
        let s = m.optimal_savings(&d);
        assert!(s.opt_hybrid + 1e-9 >= s.opt_drowsy);
        assert!(s.opt_hybrid + 1e-9 >= s.opt_sleep);
        assert!(s.opt_hybrid <= 100.0);
    }

    #[test]
    fn drowsy_only_distribution_prefers_drowsy() {
        let m = model();
        // All intervals between a and b: sleep can do nothing optimal.
        let d = dist(&[(500, 10_000)]);
        let s = m.optimal_savings(&d);
        assert!(s.opt_drowsy > s.opt_sleep);
        assert!((s.opt_hybrid - s.opt_drowsy).abs() < 1e-9);
    }

    #[test]
    fn sleep_dominated_distribution_prefers_sleep() {
        let m = model();
        let d = dist(&[(10_000_000, 64)]);
        let s = m.optimal_savings(&d);
        assert!(s.opt_sleep > s.opt_drowsy);
        assert!(s.opt_sleep > 95.0);
    }

    #[test]
    fn display_formats_percentages() {
        let s = OptimalSavings {
            opt_drowsy: 66.4,
            opt_sleep: 95.2,
            opt_hybrid: 96.4,
        };
        let text = s.to_string();
        assert!(text.contains("66.4") && text.contains("96.4"));
    }

    #[test]
    fn table2_qualitative_shape_across_nodes() {
        // With a fixed heavy-tailed distribution, hybrid savings grow as
        // technology scales down (smaller b ⇒ more sleepable intervals),
        // reproducing Table 2's trend.
        let d = dist(&[
            (4, 2_000),
            (300, 3_000),
            (3_000, 500),
            (30_000, 300),
            (300_000, 50),
        ]);
        let mut prev = f64::INFINITY;
        for node in TechnologyNode::ALL {
            let m = GeneralizedModel::from_params(CircuitParams::for_node(node));
            let s = m.optimal_savings(&d);
            assert!(
                s.opt_hybrid <= prev + 1e-9,
                "savings should not grow at older nodes"
            );
            prev = s.opt_hybrid;
        }
    }
}
