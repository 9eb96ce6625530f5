//! The frozen, read-only interval table that analyses evaluate.

use crate::{IntervalClass, IntervalKind, WakeHints};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The part of an [`IntervalClass`] other than its length: what every
/// leakage policy treats as fixed while the length varies.
///
/// Categories have a canonical total order, `(kind, wake, dirty)` with
/// kinds ordered interior-dead, interior-live, leading, trailing,
/// untouched, and wake hints ordered by their bit pattern
/// (next-line = 1, stride = 2). [`ClassCategory::code`] numbers them in
/// that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClassCategory {
    /// Position/liveness classification.
    pub kind: IntervalKind,
    /// Prefetchability marks.
    pub wake: WakeHints,
    /// Whether the resting data was dirty.
    pub dirty: bool,
}

impl ClassCategory {
    /// Number of distinct categories (5 kinds × 4 wake patterns × 2).
    pub const COUNT: usize = 40;

    /// The category's index in the canonical order, `0..COUNT`.
    pub const fn code(self) -> usize {
        let kind = match self.kind {
            IntervalKind::Interior { reaccess: false } => 0,
            IntervalKind::Interior { reaccess: true } => 1,
            IntervalKind::Leading => 2,
            IntervalKind::Trailing => 3,
            IntervalKind::Untouched => 4,
        };
        let wake = self.wake.next_line as usize | (self.wake.stride as usize) << 1;
        kind * 8 + wake * 2 + self.dirty as usize
    }

    /// The category with the given [`code`](Self::code).
    ///
    /// # Panics
    ///
    /// Panics if `code >= COUNT`.
    pub const fn from_code(code: usize) -> Self {
        assert!(code < Self::COUNT, "category code out of range");
        let kind = match code / 8 {
            0 => IntervalKind::Interior { reaccess: false },
            1 => IntervalKind::Interior { reaccess: true },
            2 => IntervalKind::Leading,
            3 => IntervalKind::Trailing,
            _ => IntervalKind::Untouched,
        };
        let wake = (code % 8) / 2;
        ClassCategory {
            kind,
            wake: WakeHints {
                next_line: wake & 1 != 0,
                stride: wake & 2 != 0,
            },
            dirty: code % 2 == 1,
        }
    }

    /// The class of this category with the given length.
    pub const fn class(self, length: u64) -> IntervalClass {
        IntervalClass {
            length,
            kind: self.kind,
            wake: self.wake,
            dirty: self.dirty,
        }
    }
}

impl From<&IntervalClass> for ClassCategory {
    fn from(class: &IntervalClass) -> Self {
        ClassCategory {
            kind: class.kind,
            wake: class.wake,
            dirty: class.dirty,
        }
    }
}

/// Why a class sequence could not become an [`IntervalTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// A class was not longer than the class before it in its
    /// category: out of order, or a duplicate.
    NotCanonical,
    /// The interval count or the cycle mass `Σ length · count` does not
    /// fit in 64 bits.
    Overflow,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::NotCanonical => write!(f, "interval classes out of canonical order"),
            TableError::Overflow => write!(f, "interval count or cycle mass overflows u64"),
        }
    }
}

impl std::error::Error for TableError {}

/// A frozen multiset of [`IntervalClass`]es, laid out for evaluation.
///
/// Classes are grouped by [`ClassCategory`] (in canonical category
/// order) and sorted by length within each category. Three parallel
/// arrays hold, per class, its length, the running interval count and
/// the running cycle mass `Σ length · count` — 24 bytes per class, with
/// both running sums taken over the whole table so that the count and
/// mass of any run of classes is one exact integer difference. The
/// whole table's cycle mass must fit in a `u64`; for an extracted
/// profile it equals `frames × trace cycles`.
///
/// Tables come from [`CompactIntervalDist::freeze`] (the extractors'
/// accumulating sink) or from a [`TableBuilder`] fed classes in the
/// canonical `(length, category)` order, as the profile codec stores
/// them. Equal multisets give equal tables, so everything computed from
/// a table is a function of the interval multiset alone, never of how
/// it was accumulated.
///
/// [`CompactIntervalDist::freeze`]: crate::CompactIntervalDist::freeze
///
/// # Examples
///
/// ```
/// use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};
///
/// let mut dist = CompactIntervalDist::new();
/// let class = |length| IntervalClass {
///     length,
///     kind: IntervalKind::Interior { reaccess: true },
///     wake: WakeHints::NONE,
///     dirty: false,
/// };
/// dist.add(class(500), 2);
/// dist.add(class(20), 3);
/// let table = dist.freeze();
/// assert_eq!(table.num_classes(), 2);
/// assert_eq!(table.total_intervals(), 5);
/// assert_eq!(table.total_cycles(), 2 * 500 + 3 * 20);
/// let run = &table.categories().next().unwrap();
/// assert_eq!(run.lengths(), &[20, 500]);
/// assert_eq!(run.sums(1..2), (2, 1_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalTable {
    /// Category `c` owns classes `starts[c]..starts[c + 1]`.
    starts: [u32; ClassCategory::COUNT + 1],
    lengths: Vec<u64>,
    /// `cum_count[i]`: intervals in classes `0..i` (one more entry than
    /// there are classes).
    cum_count: Vec<u64>,
    /// `cum_mass[i]`: cycle mass of classes `0..i`.
    cum_mass: Vec<u64>,
}

impl Default for IntervalTable {
    fn default() -> Self {
        TableBuilder::new()
            .finish()
            .expect("the empty table is valid")
    }
}

impl IntervalTable {
    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.lengths.len()
    }

    /// Total number of intervals.
    pub fn total_intervals(&self) -> u64 {
        self.cum_count[self.lengths.len()]
    }

    /// Total cycle mass: `Σ length · count`. For a full extraction this
    /// equals `num_frames × trace_cycles` (the coverage invariant).
    pub fn total_cycles(&self) -> u64 {
        self.cum_mass[self.lengths.len()]
    }

    /// The non-empty categories, in canonical order.
    pub fn categories(&self) -> impl Iterator<Item = CategoryRun<'_>> {
        (0..ClassCategory::COUNT).filter_map(move |code| {
            let (start, end) = (self.starts[code] as usize, self.starts[code + 1] as usize);
            (start < end).then(|| CategoryRun {
                category: ClassCategory::from_code(code),
                lengths: &self.lengths[start..end],
                cum_count: &self.cum_count[start..=end],
                cum_mass: &self.cum_mass[start..=end],
            })
        })
    }

    /// Iterates over `(class, count)` pairs in table order: categories
    /// in canonical order, lengths ascending within each.
    pub fn iter(&self) -> impl Iterator<Item = (IntervalClass, u64)> + '_ {
        self.categories().flat_map(|run| {
            run.lengths
                .iter()
                .enumerate()
                .map(move |(i, &length)| (run.category.class(length), run.count(i)))
        })
    }

    /// Total intervals matching a predicate.
    pub fn count_matching(&self, mut pred: impl FnMut(&IntervalClass) -> bool) -> u64 {
        self.iter()
            .filter(|(class, _)| pred(class))
            .map(|(_, count)| count)
            .sum()
    }

    /// Total cycle mass of intervals matching a predicate.
    pub fn cycles_matching(&self, mut pred: impl FnMut(&IntervalClass) -> bool) -> u64 {
        self.iter()
            .filter(|(class, _)| pred(class))
            .map(|(class, count)| class.length * count)
            .sum()
    }
}

/// One category's classes inside an [`IntervalTable`]: sorted lengths
/// plus exact running sums.
#[derive(Debug, Clone, Copy)]
pub struct CategoryRun<'a> {
    category: ClassCategory,
    lengths: &'a [u64],
    cum_count: &'a [u64],
    cum_mass: &'a [u64],
}

impl<'a> CategoryRun<'a> {
    /// The category every class of the run belongs to.
    pub fn category(&self) -> ClassCategory {
        self.category
    }

    /// The run's distinct lengths, strictly ascending.
    pub fn lengths(&self) -> &'a [u64] {
        self.lengths
    }

    /// The interval count of the class at `index`.
    pub fn count(&self, index: usize) -> u64 {
        self.cum_count[index + 1] - self.cum_count[index]
    }

    /// `(intervals, cycle mass)` of the classes at `range` (indices into
    /// [`lengths`](Self::lengths)): two exact integer differences.
    pub fn sums(&self, range: Range<usize>) -> (u64, u64) {
        (
            self.cum_count[range.end] - self.cum_count[range.start],
            self.cum_mass[range.end] - self.cum_mass[range.start],
        )
    }
}

/// Builds an [`IntervalTable`] from classes arriving with lengths
/// ascending within each category — as they do in the canonical
/// `(length, category)` order the profile codec stores — without an
/// intermediate map.
///
/// # Examples
///
/// ```
/// use leakage_intervals::{IntervalClass, IntervalKind, TableBuilder, TableError, WakeHints};
///
/// let class = |length, kind| IntervalClass { length, kind, wake: WakeHints::NONE, dirty: false };
/// let mut builder = TableBuilder::new();
/// builder.push(class(5, IntervalKind::Leading), 1).unwrap();
/// builder.push(class(9, IntervalKind::Trailing), 2).unwrap();
/// assert_eq!(
///     builder.push(class(7, IntervalKind::Trailing), 1),
///     Err(TableError::NotCanonical)
/// );
/// assert_eq!(builder.finish().unwrap().total_cycles(), 5 + 18);
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    buckets: Vec<Vec<(u64, u64)>>,
}

impl Default for TableBuilder {
    fn default() -> Self {
        TableBuilder::new()
    }
}

impl TableBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TableBuilder {
            buckets: vec![Vec::new(); ClassCategory::COUNT],
        }
    }

    /// Appends `count` intervals of `class`.
    ///
    /// # Errors
    ///
    /// [`TableError::NotCanonical`] when `class` is not longer than the
    /// last class pushed in its category — classes must come sorted by
    /// length, each at most once.
    pub fn push(&mut self, class: IntervalClass, count: u64) -> Result<(), TableError> {
        let bucket = &mut self.buckets[ClassCategory::from(&class).code()];
        if bucket.last().is_some_and(|&(last, _)| last >= class.length) {
            return Err(TableError::NotCanonical);
        }
        bucket.push((class.length, count));
        Ok(())
    }

    /// Freezes the pushed classes into a table.
    ///
    /// # Errors
    ///
    /// [`TableError::Overflow`] when the interval count or cycle mass
    /// exceeds `u64`.
    pub fn finish(self) -> Result<IntervalTable, TableError> {
        let mut starts = [0; ClassCategory::COUNT + 1];
        for (code, bucket) in self.buckets.iter().enumerate() {
            starts[code + 1] = starts[code] + bucket.len();
        }
        let lengths = self
            .buckets
            .iter()
            .flatten()
            .map(|&(length, _)| length)
            .collect();
        let mut counts = self.buckets.iter().flatten().map(|&(_, count)| count);
        IntervalTable::from_sorted(starts, lengths, |_, _| {
            counts.next().expect("one count per length")
        })
    }
}

impl IntervalTable {
    /// Completes a table from its lengths — category `c` owning
    /// `lengths[starts[c]..starts[c + 1]]`, strictly ascending — and
    /// each class's count, asked for in table order.
    pub(crate) fn from_sorted(
        starts: [usize; ClassCategory::COUNT + 1],
        lengths: Vec<u64>,
        mut count_of: impl FnMut(ClassCategory, u64) -> u64,
    ) -> Result<IntervalTable, TableError> {
        let n = lengths.len();
        let mut table = IntervalTable {
            starts: [0; ClassCategory::COUNT + 1],
            lengths,
            cum_count: Vec::with_capacity(n + 1),
            cum_mass: Vec::with_capacity(n + 1),
        };
        let (mut count_sum, mut mass_sum) = (0u64, 0u64);
        table.cum_count.push(0);
        table.cum_mass.push(0);
        for code in 0..ClassCategory::COUNT {
            let category = ClassCategory::from_code(code);
            table.starts[code] = u32::try_from(starts[code]).map_err(|_| TableError::Overflow)?;
            for &length in &table.lengths[starts[code]..starts[code + 1]] {
                let count = count_of(category, length);
                let mass = length.checked_mul(count).ok_or(TableError::Overflow)?;
                count_sum = count_sum.checked_add(count).ok_or(TableError::Overflow)?;
                mass_sum = mass_sum.checked_add(mass).ok_or(TableError::Overflow)?;
                table.cum_count.push(count_sum);
                table.cum_mass.push(mass_sum);
            }
        }
        table.starts[ClassCategory::COUNT] = u32::try_from(n).map_err(|_| TableError::Overflow)?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompactIntervalDist;

    fn class(length: u64, kind: IntervalKind, dirty: bool) -> IntervalClass {
        IntervalClass {
            length,
            kind,
            wake: WakeHints::NONE,
            dirty,
        }
    }

    #[test]
    fn category_codes_round_trip_in_canonical_order() {
        for code in 0..ClassCategory::COUNT {
            assert_eq!(ClassCategory::from_code(code).code(), code);
        }
        let live = ClassCategory::from(&class(1, IntervalKind::Interior { reaccess: true }, false));
        let lead = ClassCategory::from(&class(1, IntervalKind::Leading, false));
        assert!(live.code() < lead.code());
    }

    #[test]
    fn freeze_groups_by_category_and_sorts_by_length() {
        let mut dist = CompactIntervalDist::new();
        dist.add(class(300, IntervalKind::Trailing, false), 1);
        dist.add(class(7, IntervalKind::Leading, true), 2);
        dist.add(class(40, IntervalKind::Trailing, false), 3);
        dist.add(class(0, IntervalKind::Trailing, false), 0);
        let table = dist.clone().freeze();
        assert_eq!(table.num_classes(), 4);
        assert_eq!(table.total_intervals(), 6);
        assert_eq!(table.total_cycles(), dist.total_cycles());
        let runs: Vec<_> = table.categories().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].category().kind, IntervalKind::Leading);
        assert_eq!(runs[1].lengths(), &[0, 40, 300]);
        assert_eq!(runs[1].sums(0..3), (4, 420));
        assert_eq!(runs[1].sums(1..2), (3, 120));
        assert_eq!(runs[1].count(0), 0);
        // Iteration reproduces the multiset exactly.
        let mut back = CompactIntervalDist::new();
        back.extend(table.iter());
        assert_eq!(back, dist);
    }

    #[test]
    fn equal_multisets_freeze_identically() {
        let classes: Vec<_> = (0..50u64)
            .map(|i| {
                (
                    class(
                        i * 37 % 101,
                        IntervalKind::Interior {
                            reaccess: i % 3 == 0,
                        },
                        i % 2 == 0,
                    ),
                    i,
                )
            })
            .collect();
        let mut forward = CompactIntervalDist::new();
        forward.extend(classes.iter().copied());
        let mut backward = CompactIntervalDist::new();
        backward.extend(classes.iter().rev().copied());
        assert_eq!(forward.freeze(), backward.freeze());
    }

    #[test]
    fn builder_rejects_duplicates_and_overflow() {
        let mut builder = TableBuilder::new();
        builder
            .push(class(5, IntervalKind::Leading, false), 1)
            .unwrap();
        assert_eq!(
            builder.push(class(5, IntervalKind::Leading, false), 1),
            Err(TableError::NotCanonical)
        );
        // Another category may reuse the length.
        builder
            .push(class(5, IntervalKind::Leading, true), 1)
            .unwrap();

        let mut builder = TableBuilder::new();
        builder
            .push(class(1 << 40, IntervalKind::Untouched, false), 1 << 23)
            .unwrap();
        builder
            .push(class(1 << 41, IntervalKind::Untouched, false), 1 << 23)
            .unwrap();
        assert_eq!(builder.finish(), Err(TableError::Overflow));
    }

    #[test]
    fn empty_table() {
        let table = IntervalTable::default();
        assert_eq!(table.num_classes(), 0);
        assert_eq!(table.total_intervals(), 0);
        assert_eq!(table.total_cycles(), 0);
        assert_eq!(table.categories().count(), 0);
        assert_eq!(table, CompactIntervalDist::new().freeze());
    }
}
