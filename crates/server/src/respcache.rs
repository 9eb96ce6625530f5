//! LRU cache of pre-serialized responses, keyed by the canonical
//! query — the serving path's only response memo.
//!
//! Only successful `GET /v1/*` responses are cached — `/healthz` and
//! `/metrics` must always be fresh, errors should retry the real
//! path, and `POST /v1/sweep` is arbitrary-batch compute. Entries are
//! [`WireResponse`]s, so a hit is two `Arc` bumps and a `memcpy` onto
//! the wire — never a re-render.
//!
//! One mutex guards the whole cache; the critical section is a hash
//! probe plus an O(1) relink of an intrusive doubly-linked recency
//! list threaded through a slot arena, so get, put and evict are all
//! constant-time.

use crate::http::{Request, WireResponse};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// Running hit/miss/eviction totals for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out by capacity.
    pub evictions: u64,
}

/// A bounded LRU map from canonical request key to a pre-serialized
/// response.
pub struct ResponseCache {
    lru: Mutex<Lru>,
    capacity: usize,
}

/// One slot in the arena: the entry plus its recency-list links.
struct Slot {
    key: String,
    value: WireResponse,
    prev: usize,
    next: usize,
}

#[derive(Default)]
struct Lru {
    map: HashMap<String, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used — the eviction victim.
    tail: usize,
    stats: CacheStats,
}

impl Lru {
    fn new() -> Self {
        Lru {
            head: NIL,
            tail: NIL,
            ..Lru::default()
        }
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.slots[index].prev, self.slots[index].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, index: usize) {
        self.slots[index].prev = NIL;
        self.slots[index].next = self.head;
        match self.head {
            NIL => self.tail = index,
            h => self.slots[h].prev = index,
        }
        self.head = index;
    }
}

impl ResponseCache {
    /// A cache holding at most `capacity` entries (`capacity == 0`
    /// disables caching).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            lru: Mutex::new(Lru::new()),
            capacity,
        }
    }

    /// Whether this request's successful (200) response may be
    /// cached. Job endpoints are mutable state (status advances,
    /// results appear) and must never be served from cache.
    pub fn cacheable(request: &Request) -> bool {
        request.method == "GET"
            && request.path.starts_with("/v1/")
            && !request.path.starts_with("/v1/jobs")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<WireResponse> {
        let mut lru = self.lock();
        let Some(&index) = lru.map.get(key) else {
            lru.stats.misses += 1;
            return None;
        };
        lru.stats.hits += 1;
        lru.unlink(index);
        lru.push_front(index);
        Some(lru.slots[index].value.clone())
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry when full. All O(1).
    pub fn put(&self, key: &str, value: WireResponse) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.lock();
        if let Some(&index) = lru.map.get(key) {
            lru.slots[index].value = value;
            lru.unlink(index);
            lru.push_front(index);
            return;
        }
        if lru.map.len() >= self.capacity {
            let victim = lru.tail;
            lru.unlink(victim);
            let key = std::mem::take(&mut lru.slots[victim].key);
            lru.map.remove(&key);
            lru.free.push(victim);
            lru.stats.evictions += 1;
        }
        let index = match lru.free.pop() {
            Some(index) => {
                lru.slots[index].key = key.to_string();
                lru.slots[index].value = value;
                index
            }
            None => {
                lru.slots.push(Slot {
                    key: key.to_string(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                lru.slots.len() - 1
            }
        };
        lru.push_front(index);
        lru.map.insert(key.to_string(), index);
    }

    /// Point-in-time hit/miss/eviction totals.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;

    fn wire(tag: &str) -> WireResponse {
        Response::json(200, format!("{{\"tag\": \"{tag}\"}}")).into_wire()
    }

    fn body(wire: &WireResponse) -> String {
        String::from_utf8_lossy(wire.body()).into_owned()
    }

    #[test]
    fn hit_refreshes_recency() {
        let cache = ResponseCache::new(2);
        cache.put("a", wire("a"));
        cache.put("b", wire("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get("a").is_some());
        cache.put("c", wire("c"));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_chain_is_exact_lru_order() {
        let cache = ResponseCache::new(3);
        for key in ["a", "b", "c"] {
            cache.put(key, wire(key));
        }
        // Recency now c > b > a; each insert evicts the exact tail.
        cache.put("d", wire("d")); // evicts a
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some()); // recency b > d > c
        cache.put("e", wire("e")); // evicts c
        assert!(cache.get("c").is_none());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResponseCache::new(1);
        cache.put("k", wire("v1"));
        cache.put("k", wire("v2"));
        assert_eq!(cache.len(), 1);
        assert!(body(&cache.get("k").unwrap()).ends_with("\"v2\"}"));
        assert_eq!(cache.stats().evictions, 0, "update is not an eviction");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResponseCache::new(0);
        cache.put("k", wire("v"));
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_count_hits_misses_evictions() {
        let cache = ResponseCache::new(2);
        assert!(cache.get("a").is_none());
        cache.put("a", wire("a"));
        assert!(cache.get("a").is_some());
        cache.put("b", wire("b"));
        cache.put("c", wire("c")); // evicts "a"
        assert!(cache.get("a").is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 1
            }
        );
    }

    #[test]
    fn cacheability_rules() {
        let req = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            body: Vec::new(),
            close: false,
            chunked: false,
            trace: crate::trace::ReqTrace::default(),
        };
        assert!(ResponseCache::cacheable(&req("GET", "/v1/table/2")));
        assert!(!ResponseCache::cacheable(&req("GET", "/healthz")));
        assert!(!ResponseCache::cacheable(&req("GET", "/metrics")));
        assert!(!ResponseCache::cacheable(&req("POST", "/v1/sweep")));
        assert!(!ResponseCache::cacheable(&req("GET", "/v1/jobs/j1")));
    }
}
