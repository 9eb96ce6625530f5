//! A lock-striped read front over the global [`ProfileStore`].
//!
//! The store itself memoizes profiles, but every fetch — hit or miss
//! — goes through its internal synchronization, so under a pipelined
//! keep-alive load all workers serialize on the same lock for what is
//! almost always a pure read of an already-computed `Arc`. This front
//! stripes `(benchmark, scale)` keys across independent mutexes that
//! each guard a plain `HashMap` of `Arc` clones: a hot-path hit takes
//! one uncontended stripe lock and bumps a refcount.
//!
//! Misses fall through to the store **outside** the stripe lock (a
//! first-touch simulation must not block unrelated fetches on the
//! same stripe); the store's own memoization dedups concurrent
//! first-touches of the same benchmark.

use leakage_experiments::{BenchmarkProfile, ProfileStore};
use leakage_faults::StoreError;
use leakage_workloads::Scale;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One stripe: benchmark name → `(cycles, profile)` per cached scale.
type Stripe = Mutex<HashMap<String, Vec<(u64, Arc<BenchmarkProfile>)>>>;

/// Striped read-through cache of `(benchmark, scale)` → profile.
///
/// Each stripe maps benchmark name → a short `(cycles, profile)`
/// list (a handful of scales per benchmark at most), so a hit looks
/// up by `&str` — no key allocation on the hot path.
pub struct StoreFront {
    store: &'static ProfileStore,
    stripes: Vec<Stripe>,
}

fn stripe_of(benchmark: &str, cycles: u64, stripes: usize) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in benchmark.bytes().chain(cycles.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % stripes as u64) as usize
}

impl StoreFront {
    /// A front of `stripes` independent shards (clamped to ≥ 1) over
    /// `store`.
    pub fn new(store: &'static ProfileStore, stripes: usize) -> Self {
        StoreFront {
            store,
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// The backing store (for paths that need its full API).
    pub fn store(&self) -> &'static ProfileStore {
        self.store
    }

    /// Fetches a profile: stripe hit → `Arc` clone; miss → the
    /// memoized store, then publish into the stripe.
    ///
    /// # Errors
    ///
    /// Store errors (unknown benchmark, simulation failure) — which
    /// are **not** negatively cached, so a transient failure retries
    /// the real path.
    pub fn fetch(&self, benchmark: &str, scale: Scale) -> Result<Arc<BenchmarkProfile>, StoreError> {
        let cycles = scale.cycles();
        let stripe = &self.stripes[stripe_of(benchmark, cycles, self.stripes.len())];
        {
            let map = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(scales) = map.get(benchmark) {
                if let Some((_, profile)) = scales.iter().find(|(c, _)| *c == cycles) {
                    return Ok(Arc::clone(profile));
                }
            }
        }
        let profile = self.store.try_fetch(benchmark, scale)?;
        let mut map = stripe.lock().unwrap_or_else(PoisonError::into_inner);
        let scales = map.entry(benchmark.to_string()).or_default();
        if !scales.iter().any(|(c, _)| *c == cycles) {
            scales.push((cycles, Arc::clone(&profile)));
        }
        Ok(profile)
    }

    /// Total profiles held across all stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether no profile has been fronted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_returns_same_profile_as_store() {
        let front = StoreFront::new(ProfileStore::global(), 8);
        let direct = ProfileStore::global().fetch("gzip", Scale::Test);
        let fronted = front.fetch("gzip", Scale::Test).unwrap();
        assert!(Arc::ptr_eq(&direct, &fronted), "same memoized Arc");
        assert_eq!(front.len(), 1);
        // Second fetch is a stripe hit, still the same Arc.
        let again = front.fetch("gzip", Scale::Test).unwrap();
        assert!(Arc::ptr_eq(&fronted, &again));
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn errors_pass_through_and_are_not_cached() {
        let front = StoreFront::new(ProfileStore::global(), 2);
        assert!(matches!(
            front.fetch("perlbmk", Scale::Test),
            Err(StoreError::UnknownBenchmark { .. })
        ));
        assert!(front.is_empty(), "failures are not negatively cached");
    }
}
