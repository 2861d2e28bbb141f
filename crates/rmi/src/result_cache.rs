//! Client-side result cache backing the IDL `@cached(ttl_ms)` annotation.
//!
//! A `@cached` operation's reply body is remembered for the annotation's
//! TTL and replayed for subsequent identical calls — no connection
//! checkout, no wire round trip. "Identical" means the same target
//! reference, the same method, and byte-equal marshaled arguments: the
//! key is the request body from the end of the request id (which differs
//! on every call) to the end of the arguments, one byte slice that
//! already spells all three. A lookup borrows it; only a store copies it.
//!
//! Only *successful* replies are cached. Exception and busy replies
//! always travel the wire, so a recovering server is re-probed rather
//! than having its failure replayed until the TTL lapses.
//!
//! The cache is per-ORB and bounded: past [`ResultCache::CAPACITY`] live
//! entries, inserting evicts the entry closest to expiry. Expired entries
//! are dropped lazily on lookup and on insert.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct CacheEntry {
    body: Vec<u8>,
    expires_at: Instant,
}

/// A TTL-bounded map from invocation identity to raw reply body.
#[derive(Debug, Default)]
pub(crate) struct ResultCache {
    entries: Mutex<HashMap<Vec<u8>, CacheEntry>>,
}

impl ResultCache {
    /// Live-entry bound; see the module docs for the eviction rule.
    const CAPACITY: usize = 1024;

    /// Returns the cached reply body for `key` when present and fresh;
    /// drops the entry (and returns `None`) when its TTL has lapsed.
    pub fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut entries = self.entries.lock();
        match entries.get(key) {
            Some(e) if e.expires_at > Instant::now() => Some(e.body.clone()),
            Some(_) => {
                entries.remove(key);
                None
            }
            None => None,
        }
    }

    /// Remembers `body` as the reply for `key` for the next `ttl`.
    pub fn store(&self, key: &[u8], body: Vec<u8>, ttl: Duration) {
        let now = Instant::now();
        let mut entries = self.entries.lock();
        if entries.len() >= Self::CAPACITY {
            entries.retain(|_, e| e.expires_at > now);
            if entries.len() >= Self::CAPACITY {
                // Still full of live entries: evict the one expiring
                // soonest — it has the least remaining value.
                if let Some(victim) =
                    entries.iter().min_by_key(|(_, e)| e.expires_at).map(|(k, _)| k.clone())
                {
                    entries.remove(&victim);
                }
            }
        }
        entries.insert(key.to_vec(), CacheEntry { body, expires_at: now + ttl });
    }

    /// Number of entries currently held (live or not yet reaped).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(args: &[u8]) -> Vec<u8> {
        [b"\"@tcp:h:1#7#IDL:T:1.0\" \"m\" T ".as_slice(), args].concat()
    }

    #[test]
    fn hit_within_ttl_miss_after_expiry() {
        let cache = ResultCache::default();
        cache.store(&key(b"a"), vec![1, 2, 3], Duration::from_millis(40));
        assert_eq!(cache.lookup(&key(b"a")), Some(vec![1, 2, 3]));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(cache.lookup(&key(b"a")), None, "expired entry must not serve");
        assert_eq!(cache.len(), 0, "expired entry is reaped on lookup");
    }

    #[test]
    fn distinct_arguments_are_distinct_entries() {
        let cache = ResultCache::default();
        cache.store(&key(b"a"), vec![1], Duration::from_secs(5));
        cache.store(&key(b"b"), vec![2], Duration::from_secs(5));
        assert_eq!(cache.lookup(&key(b"a")), Some(vec![1]));
        assert_eq!(cache.lookup(&key(b"b")), Some(vec![2]));
        assert_eq!(cache.lookup(&key(b"c")), None);
    }

    #[test]
    fn capacity_evicts_soonest_expiring_live_entry() {
        let cache = ResultCache::default();
        for i in 0..ResultCache::CAPACITY {
            // Entry 0 expires soonest and is the designated victim.
            let ttl = Duration::from_secs(if i == 0 { 1 } else { 3600 });
            cache.store(&key(&i.to_le_bytes()), vec![0], ttl);
        }
        cache.store(&key(b"one-more"), vec![9], Duration::from_secs(3600));
        assert_eq!(cache.len(), ResultCache::CAPACITY);
        assert_eq!(cache.lookup(&key(&0usize.to_le_bytes())), None, "victim was evicted");
        assert_eq!(cache.lookup(&key(b"one-more")), Some(vec![9]));
    }
}
