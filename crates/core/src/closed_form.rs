//! Closed-form evaluation of the oracle policies over an
//! [`IntervalTable`].
//!
//! Theorem 1 (Eq. 1–3) makes every mode's energy over an interval a
//! line in the interval's length once the category — kind, wake hints,
//! dirtiness — is fixed: a fixed transition cost plus the mode's static
//! power times the rest cycles. `OPT-Drowsy`, `OPT-Sleep(θ)` and
//! `OPT-Hybrid` pick, per interval, either the cheapest feasible
//! allowed line or a line forced by a threshold, so within one category
//! their choice changes only at a handful of *breakpoints*:
//!
//! * the feasibility overheads of drowsy and sleep in context (`d1 + d3`,
//!   `s1 + s3 + s4`, or less at a timeline edge),
//! * the lengths where two allowed lines cross (the inflection points
//!   `a` and `b` of Definition 3, and the sleep–active crossing),
//! * `θ + 1` for the threshold of `OPT-Sleep(θ)`.
//!
//! Between two breakpoints one line applies to every class, so the
//! segment's energy is `fixed · N + slope · (M − overhead · N)` where `N`
//! and `M` are the segment's interval count and cycle mass: two binary
//! searches on the table's sorted lengths and exact integer differences
//! of its running sums. The per-class evaluator
//! ([`EnergyContext::evaluate`]) remains the oracle this path is checked
//! against.

use crate::policy::{frame_invalid, OptDrowsy, OptHybrid, OptSleep};
use crate::{EnergyContext, LeakagePolicy, PolicyEvaluation, PowerMode};
use leakage_energy::Energy;
use leakage_intervals::{CategoryRun, ClassCategory, IntervalTable};

/// An oracle policy family with a closed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptFamily {
    /// [`OptDrowsy`]: the cheaper of active and drowsy.
    Drowsy,
    /// [`OptSleep`] with the given threshold: gate every valid-frame
    /// interval longer than `threshold`, the cheaper of active and sleep
    /// on invalid frames.
    Sleep {
        /// Intervals longer than this many cycles are gated.
        threshold: u64,
    },
    /// [`OptHybrid::new`]: the cheapest of all three modes.
    Hybrid,
}

impl OptFamily {
    /// The per-class policy this family evaluates in closed form.
    pub fn policy(self) -> Box<dyn LeakagePolicy> {
        match self {
            OptFamily::Drowsy => Box::new(OptDrowsy),
            OptFamily::Sleep { threshold } => Box::new(OptSleep::new(threshold)),
            OptFamily::Hybrid => Box::new(OptHybrid::new()),
        }
    }
}

/// One mode's energy over intervals of one category, as a function of
/// the length `t`: `fixed + slope · (t − overhead)`, feasible only for
/// `t ≥ overhead`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeLine {
    /// Transition, refetch and writeback energy: the cost at `t = overhead`.
    pub fixed: Energy,
    /// Static power while resting in the mode, pJ/cycle.
    pub slope: f64,
    /// Transition cycles; the shortest feasible length.
    pub overhead: u64,
}

impl ModeLine {
    fn at(&self, t: f64) -> Energy {
        self.fixed + self.slope * (t - self.overhead as f64)
    }

    /// Energy of `count` intervals of total length `mass`, all feasible.
    fn total(&self, count: u64, mass: u64) -> Energy {
        self.fixed * count as f64 + self.slope * (mass - self.overhead * count) as f64
    }

    /// The first whole length at or beyond the crossing of two lines, if
    /// they cross at a positive finite length.
    pub fn crossing(&self, other: &ModeLine) -> Option<u64> {
        let intercept = |line: &ModeLine| line.fixed - line.slope * line.overhead as f64;
        let x = (intercept(other) - intercept(self)) / (self.slope - other.slope);
        (x.is_finite() && x > 0.0).then(|| x.ceil().min(u64::MAX as f64) as u64)
    }
}

/// Index of each mode in per-category line arrays.
const MODES: [PowerMode; 3] = [PowerMode::Active, PowerMode::Drowsy, PowerMode::Sleep];

impl EnergyContext {
    /// The energy line of `mode` for intervals of `category`: the same
    /// accounting as [`mode_energy`](Self::mode_energy), written as a
    /// function of length.
    pub fn mode_line(&self, mode: PowerMode, category: ClassCategory) -> ModeLine {
        let p = self.params();
        let t = p.timings();
        let pa = p.powers().active;
        let ramp = p.transition_model();
        let entry = category.kind.starts_after_access();
        let exit = category.kind.ends_with_access();
        match mode {
            PowerMode::Active => ModeLine {
                fixed: 0.0,
                slope: pa,
                overhead: 0,
            },
            PowerMode::Drowsy => {
                let pd = p.powers().drowsy;
                let entry_cycles = if entry { t.d1 } else { 0 };
                let exit_cycles = if exit { t.d3 } else { 0 };
                ModeLine {
                    fixed: ramp.ramp_power(pa, pd) * entry_cycles as f64
                        + ramp.ramp_power(pd, pa) * exit_cycles as f64,
                    slope: pd,
                    overhead: entry_cycles + exit_cycles,
                }
            }
            PowerMode::Sleep => {
                let ps = p.powers().sleep;
                let entry_cycles = if entry { t.s1 } else { 0 };
                let exit_cycles = if exit { t.s3 + t.s4 } else { 0 };
                let refetch = if self.charges_refetch(&category.class(0)) {
                    p.refetch_energy()
                } else {
                    0.0
                };
                let writeback = match self.writeback_energy() {
                    Some(wb) if category.dirty => wb,
                    _ => 0.0,
                };
                ModeLine {
                    fixed: ramp.ramp_power(pa, ps) * entry_cycles as f64
                        + if exit {
                            ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64
                        } else {
                            0.0
                        }
                        + refetch
                        + writeback,
                    slope: ps,
                    overhead: entry_cycles + exit_cycles,
                }
            }
        }
    }

    /// Evaluates an oracle family over a table in closed form. Agrees
    /// with [`evaluate`](Self::evaluate) on
    /// [`family.policy()`](OptFamily::policy) up to float rounding, and
    /// exactly on the fallback count.
    pub fn evaluate_opt(&self, family: OptFamily, table: &IntervalTable) -> PolicyEvaluation {
        let mut energy = 0.0;
        let mut fallbacks = 0;
        for run in table.categories() {
            let (run_energy, run_fallbacks) = self.run_energy(family, &run);
            energy += run_energy;
            fallbacks += run_fallbacks;
        }
        PolicyEvaluation {
            energy,
            baseline: self.params().powers().active * table.total_cycles() as f64,
            infeasible_fallbacks: fallbacks,
        }
    }

    /// One category's energy and fallback count under `family`.
    fn run_energy(&self, family: OptFamily, run: &CategoryRun<'_>) -> (Energy, u64) {
        let category = run.category();
        let lines = MODES.map(|mode| self.mode_line(mode, category));
        let invalid_frame = frame_invalid(&category.class(0));
        // Which lines the family chooses among; `forced` is OPT-Sleep's
        // threshold on valid frames, where it gates without comparing.
        let (allowed, forced) = match family {
            OptFamily::Drowsy => ([true, true, false], None),
            OptFamily::Hybrid => ([true, true, true], None),
            OptFamily::Sleep { .. } if invalid_frame => ([true, false, true], None),
            OptFamily::Sleep { threshold } => ([true, false, true], Some(threshold)),
        };

        let mut cuts = [0u64; 5];
        let mut n = 0;
        let mut cut = |at: u64| {
            cuts[n] = at;
            n += 1;
        };
        for (line, _) in lines.iter().zip(allowed).skip(1).filter(|(_, ok)| *ok) {
            cut(line.overhead);
        }
        match forced {
            Some(threshold) => cut(threshold.saturating_add(1)),
            None => {
                for (i, j) in [(0, 1), (0, 2), (1, 2)] {
                    if allowed[i] && allowed[j] {
                        if let Some(at) = lines[i].crossing(&lines[j]) {
                            cut(at);
                        }
                    }
                }
            }
        }
        let cuts = &mut cuts[..n];
        cuts.sort_unstable();

        let lengths = run.lengths();
        let (mut energy, mut fallbacks) = (0.0, 0);
        let mut start = 0;
        for end_cut in cuts.iter().map(Some).chain([None]) {
            let end = match end_cut {
                Some(&at) => start + lengths[start..].partition_point(|&l| l < at),
                None => lengths.len(),
            };
            if end == start {
                continue;
            }
            let (count, mass) = run.sums(start..end);
            let first = lengths[start];
            let feasible = |mode: usize| allowed[mode] && first >= lines[mode].overhead;
            let mode = match forced {
                Some(threshold) if first > threshold => {
                    if feasible(2) {
                        2
                    } else {
                        fallbacks += count;
                        0
                    }
                }
                Some(_) => 0,
                None => {
                    // No crossing lies strictly inside the segment, so
                    // the cheapest line at its midpoint is cheapest at
                    // every class (up to exact ties).
                    let mid = (first as f64 + lengths[end - 1] as f64) / 2.0;
                    (1..3).filter(|&mode| feasible(mode)).fold(0, |best, mode| {
                        if lines[mode].at(mid) < lines[best].at(mid) {
                            mode
                        } else {
                            best
                        }
                    })
                }
            };
            energy += lines[mode].total(count, mass);
            start = end;
        }
        (energy, fallbacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RefetchAccounting;
    use leakage_energy::{CircuitParams, TechnologyNode};
    use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};

    fn table(classes: &[(u64, IntervalKind, bool, u64)]) -> IntervalTable {
        let mut dist = CompactIntervalDist::new();
        for &(length, kind, dirty, count) in classes {
            dist.add(
                IntervalClass {
                    length,
                    kind,
                    wake: WakeHints::NONE,
                    dirty,
                },
                count,
            );
        }
        dist.freeze()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn lines_match_mode_energy() {
        let ctx = EnergyContext::with_writeback(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::DeadAware,
            3.0,
        );
        for code in 0..ClassCategory::COUNT {
            let category = ClassCategory::from_code(code);
            for mode in MODES {
                let line = ctx.mode_line(mode, category);
                for length in [0, 1, 5, 6, 36, 37, 1_057, 1_000_000] {
                    let class = category.class(length);
                    let expected = ctx.mode_energy(mode, &class);
                    let got = (length >= line.overhead).then(|| line.total(1, length));
                    match (expected, got) {
                        (None, None) => {}
                        (Some(e), Some(g)) => {
                            assert!(close(e, g), "{mode:?} {class:?}: {e} vs {g}")
                        }
                        other => panic!("{mode:?} {class:?}: feasibility differs {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn families_match_the_per_class_policies() {
        let kinds = [
            IntervalKind::Interior { reaccess: true },
            IntervalKind::Interior { reaccess: false },
            IntervalKind::Leading,
            IntervalKind::Trailing,
            IntervalKind::Untouched,
        ];
        let mut classes = Vec::new();
        for (k, &kind) in kinds.iter().enumerate() {
            for length in [
                0,
                3,
                6,
                7,
                36,
                37,
                38,
                500,
                1_056,
                1_057,
                1_058,
                10_001,
                1 << 40,
            ] {
                classes.push((length, kind, k % 2 == 0, 1 + length % 7));
            }
        }
        let table = table(&classes);
        for node in TechnologyNode::ALL {
            let ctx = EnergyContext::new(
                CircuitParams::for_node(node),
                RefetchAccounting::PaperStrict,
            );
            let b = ctx.inflection_points().drowsy_sleep;
            for family in [
                OptFamily::Drowsy,
                OptFamily::Hybrid,
                OptFamily::Sleep { threshold: b },
                OptFamily::Sleep { threshold: 10 },
                OptFamily::Sleep { threshold: 0 },
            ] {
                let fast = ctx.evaluate_opt(family, &table);
                let oracle = ctx.evaluate(family.policy().as_ref(), &table);
                assert!(
                    close(fast.energy, oracle.energy),
                    "{node} {family:?}: {fast:?} vs {oracle:?}"
                );
                assert!(close(fast.baseline, oracle.baseline));
                assert_eq!(
                    fast.infeasible_fallbacks, oracle.infeasible_fallbacks,
                    "{family:?}"
                );
            }
        }
    }

    #[test]
    fn empty_table_costs_nothing() {
        let ctx = EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::PaperStrict,
        );
        let eval = ctx.evaluate_opt(OptFamily::Hybrid, &IntervalTable::default());
        assert_eq!(
            (eval.energy, eval.baseline, eval.infeasible_fallbacks),
            (0.0, 0.0, 0)
        );
    }
}
