//! The privilege-gated, concurrent answering front door.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gdp_core::Privilege;

use crate::error::ServeError;
use crate::query::{Query, TypedAnswer};
use crate::store::ReleaseStore;
use crate::Result;

/// Memoization counters, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered straight from the memo table.
    pub hits: u64,
    /// Requests that computed a fresh answer.
    pub misses: u64,
    /// Entries displaced to admit a newer key once the table was full.
    pub evictions: u64,
    /// Distinct memoized queries currently resident.
    pub entries: usize,
    /// The configured upper bound on resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of requests answered from the memo table, in `[0, 1]`
    /// (`0.0` before any request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The memo key is variant-aware: two queries of different kinds (or
/// the same kind with different parameters) at the same
/// `(dataset, epoch, level)` are distinct entries. The third component
/// is the release's manifest `content_digest`: a `(dataset, epoch)`
/// that is retired and later re-registered with different bytes —
/// retention GC followed by a republish, a `merge_dir` hot-reload — can
/// never be served from the old release's memo entries, because the new
/// artifact's digest keys a disjoint part of the table. Stale entries age out through the
/// normal CLOCK sweep (or immediately via
/// [`AnswerService::invalidate_release`]).
type CacheKey = (String, u64, u64, usize, Query);

/// One resident memo entry in the clock ring.
#[derive(Debug)]
struct Slot {
    key: Arc<CacheKey>,
    value: TypedAnswer,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// sweeps past; a slot is displaced only when the hand finds it
    /// unreferenced.
    referenced: bool,
}

/// A capacity-bounded memo table with CLOCK (second-chance) eviction.
///
/// The ring grows to `capacity` slots and then recycles them: the hand
/// sweeps from its last position, giving every recently-hit entry one
/// more round before displacement. Keys are `Arc`-shared between the
/// ring and the index so each entry stores its key once.
#[derive(Debug)]
struct ClockCache {
    capacity: usize,
    slots: Vec<Slot>,
    index: HashMap<Arc<CacheKey>, usize>,
    hand: usize,
}

impl ClockCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            index: HashMap::new(),
            hand: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn get(&mut self, key: &CacheKey) -> Option<TypedAnswer> {
        let &pos = self.index.get(key)?;
        let slot = self.slots.get_mut(pos)?;
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// Inserts `key → value`, displacing one unreferenced entry when the
    /// ring is full. Returns the number of evictions performed (0 or 1).
    fn insert(&mut self, key: CacheKey, value: TypedAnswer) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        if let Some(&pos) = self.index.get(&key) {
            if let Some(slot) = self.slots.get_mut(pos) {
                slot.value = value;
                slot.referenced = true;
            }
            return 0;
        }
        let key = Arc::new(key);
        if self.slots.len() < self.capacity {
            self.index.insert(Arc::clone(&key), self.slots.len());
            self.slots.push(Slot {
                key,
                value,
                referenced: false,
            });
            return 0;
        }
        // Second-chance sweep: clear reference bits until an
        // unreferenced victim turns up. Terminates within two laps — the
        // first lap clears every bit in the worst case.
        loop {
            let pos = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let Some(slot) = self.slots.get_mut(pos) else {
                return 0;
            };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            self.index.remove(&slot.key);
            self.index.insert(Arc::clone(&key), pos);
            slot.key = key;
            slot.value = value;
            slot.referenced = false;
            return 1;
        }
    }

    /// Drops every resident entry; returns how many were dropped.
    fn flush(&mut self) -> usize {
        let dropped = self.slots.len();
        self.slots.clear();
        self.index.clear();
        self.hand = 0;
        dropped
    }

    /// Drops every entry memoized for `(dataset, epoch)` — any digest;
    /// returns how many were dropped. Rebuilds the ring compactly, so
    /// the hand restarts; correctness never depends on hand position.
    fn remove_release(&mut self, dataset: &str, epoch: u64) -> usize {
        let old = std::mem::take(&mut self.slots);
        self.index.clear();
        self.hand = 0;
        let before = old.len();
        for slot in old {
            if slot.key.0 == dataset && slot.key.1 == epoch {
                continue;
            }
            self.index.insert(Arc::clone(&slot.key), self.slots.len());
            self.slots.push(slot);
        }
        before - self.slots.len()
    }
}

/// Answers typed queries from a release store under the paper's
/// graded-privilege model — the path `gdp answer` and `gdp serve` run.
///
/// Three properties define the service:
///
/// * **Every request is privilege-checked.** The artifact's monotone
///   [`AccessPolicy`](gdp_core::AccessPolicy) is enforced before the
///   query variant is even looked at; a reader cleared for level `p`
///   can answer from levels `p..` and nothing finer — for every
///   [`Query`] variant alike — exactly the paper's `I_{L,i}`-per-
///   audience mapping.
/// * **A batch is a plain loop; concurrency comes from the callers.**
///   Answering is RNG-free pure post-processing, and
///   [`AnswerService::answer_typed_batch`] answers its queries in input
///   order on the calling thread. Every method takes `&self` and the
///   store behind it is one `RwLock`ed map, so a server's worker
///   threads answer concurrently while a republisher inserts next
///   week's artifact.
/// * **Repeated queries are memoized, under a hard memory bound.**
///   Post-processing invariance means re-answering a released value
///   costs no privacy budget, so caching is always *sound*; memory is
///   the only constraint, and the memo table is capacity-bounded with
///   CLOCK (second-chance) eviction — a hostile or fully-unique
///   workload displaces cold entries instead of growing the table
///   without limit, and correctness never depends on the cache (every
///   miss just recomputes the lookup). Evictions are counted in
///   [`CacheStats`]. The memo key is `(dataset, epoch, level, query)`
///   with the full typed query, so variants never collide; histogram
///   answers are `Arc`s, so a cached histogram costs one pointer, not
///   one copy of the bins.
#[derive(Debug)]
pub struct AnswerService {
    store: Arc<ReleaseStore>,
    cache: Mutex<ClockCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AnswerService {
    /// Default upper bound on resident memo entries; beyond this the
    /// clock hand starts displacing unreferenced entries, bounding
    /// memory on workloads of mostly-unique queries.
    pub const CACHE_CAPACITY: usize = 1 << 20;

    /// Wraps a store (or an `Arc<ReleaseStore>` — services sharing one
    /// `Arc` share one registry) with an empty memo table of the
    /// default [`AnswerService::CACHE_CAPACITY`].
    pub fn new(store: impl Into<Arc<ReleaseStore>>) -> Self {
        Self::with_cache_capacity(store, Self::CACHE_CAPACITY)
    }

    /// Like [`AnswerService::new`] with an explicit memo-table bound.
    /// A capacity of `0` disables memoization entirely (every request
    /// recomputes; still correct).
    pub fn with_cache_capacity(store: impl Into<Arc<ReleaseStore>>, capacity: usize) -> Self {
        Self {
            store: store.into(),
            cache: Mutex::new(ClockCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The memo table, immune to lock poisoning: a panicking thread
    /// elsewhere never wedges the cache, because entries are only ever
    /// whole key→value pairs (a torn write cannot be observed).
    fn cache(&self) -> MutexGuard<'_, ClockCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The underlying store.
    pub fn store(&self) -> &ReleaseStore {
        &self.store
    }

    /// Answers one typed query from `(dataset, epoch)` at `level`,
    /// enforcing `privilege` — the general entry point every variant
    /// routes through.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownRelease`] for an unregistered key.
    /// * [`ServeError::Core`] with
    ///   [`CoreError::AccessDenied`](gdp_core::CoreError::AccessDenied)
    ///   when `level` is finer than `privilege` allows, or
    ///   [`CoreError::LevelOutOfRange`](gdp_core::CoreError::LevelOutOfRange)
    ///   for unknown levels — access is checked **before** the query is
    ///   looked at.
    /// * The variant's own errors
    ///   ([`IndexedRelease::answer`](crate::IndexedRelease::answer)).
    pub fn answer_typed(
        &self,
        dataset: &str,
        epoch: u64,
        privilege: Privilege,
        level: usize,
        query: &Query,
    ) -> Result<TypedAnswer> {
        let indexed = self.gated(dataset, epoch, privilege, level)?;
        self.answer_resolved(&indexed, dataset, epoch, level, query.clone())
    }

    /// Resolves `(dataset, epoch)` and enforces `privilege` — the one
    /// store lookup and policy check every request (or whole batch)
    /// pays exactly once.
    fn gated(
        &self,
        dataset: &str,
        epoch: u64,
        privilege: Privilege,
        level: usize,
    ) -> Result<std::sync::Arc<crate::IndexedRelease>> {
        let indexed = self.store.get(dataset, epoch)?;
        indexed
            .policy()
            .check(privilege, level)
            .map_err(ServeError::Core)?;
        Ok(indexed)
    }

    /// Memoized dispatch against an already-resolved, already-gated
    /// release. Takes the query by value: it becomes the cache key's
    /// tail, so the whole path costs exactly one query clone (paid by
    /// the borrowing callers), never two.
    fn answer_resolved(
        &self,
        indexed: &crate::IndexedRelease,
        dataset: &str,
        epoch: u64,
        level: usize,
        query: Query,
    ) -> Result<TypedAnswer> {
        // Key on the release's content digest as well as its store key:
        // if this (dataset, epoch) was retired and re-registered with
        // different bytes, the old release's memo entries are
        // unreachable rather than stale.
        let digest = indexed.artifact().manifest().content_digest;
        let key: CacheKey = (dataset.to_string(), epoch, digest, level, query);
        if let Some(value) = self.cache().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        let value = indexed.answer(level, &key.4)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let evicted = self.cache().insert(key, value.clone());
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Answers a batch of typed queries against one
    /// `(dataset, epoch, level)` under one privilege, in input order on
    /// the calling thread. The privilege is checked once up front so a
    /// denied workload is refused as a whole, before any answer is
    /// computed.
    ///
    /// # Errors
    ///
    /// Same as [`AnswerService::answer_typed`]; for malformed queries,
    /// the error of the first failing query in input order (the queries
    /// after it are not answered).
    pub fn answer_typed_batch(
        &self,
        dataset: &str,
        epoch: u64,
        privilege: Privilege,
        level: usize,
        queries: &[Query],
    ) -> Result<Vec<TypedAnswer>> {
        let indexed = self.gated(dataset, epoch, privilege, level)?;
        let mut answers = Vec::with_capacity(queries.len());
        for query in queries {
            answers.push(self.answer_resolved(&indexed, dataset, epoch, level, query.clone())?);
        }
        Ok(answers)
    }

    /// The finest level `privilege` may read from `(dataset, epoch)`,
    /// or `None` when the privilege is coarser than the whole
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownRelease`] for an unregistered key.
    pub fn finest_allowed(
        &self,
        dataset: &str,
        epoch: u64,
        privilege: Privilege,
    ) -> Result<Option<usize>> {
        let indexed = self.store.get(dataset, epoch)?;
        let mut range = indexed.policy().accessible_levels(privilege);
        Ok(range.next())
    }

    /// Drops every memo entry for `(dataset, epoch)`, any content
    /// digest — the explicit companion to the digest-keyed protection:
    /// call it after retiring or replacing a release
    /// ([`ReleaseStore::merge_dir`](crate::ReleaseStore::merge_dir),
    /// retention GC) to reclaim the table space immediately instead of
    /// letting the unreachable entries age out through the CLOCK
    /// sweep. Returns how many entries were dropped.
    pub fn invalidate_release(&self, dataset: &str, epoch: u64) -> usize {
        self.cache().remove_release(dataset, epoch)
    }

    /// Drops every memo entry. Returns how many were dropped. Hit/miss
    /// counters are not reset — they count requests, not residency.
    pub fn flush_cache(&self) -> usize {
        self.cache().flush()
    }

    /// Current memoization counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: cache.len(),
            capacity: cache.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexedRelease, SubsetQuery};
    use gdp_core::{
        CoreError, DisclosureConfig, MultiLevelDiscloser, Query as CoreQuery, ReleaseArtifact,
        SpecializationConfig, Specializer,
    };
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use gdp_graph::Side;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service() -> AnswerService {
        service_with_capacity(AnswerService::CACHE_CAPACITY)
    }

    fn service_with_capacity(capacity: usize) -> AnswerService {
        let mut rng = StdRng::seed_from_u64(90);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.9, 1e-6)
                .unwrap()
                .with_queries(vec![
                    CoreQuery::PerGroupCounts,
                    CoreQuery::LeftDegreeHistogram { max_degree: 12 },
                ]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        let artifact = ReleaseArtifact::seal("dblp", 4, hierarchy, release).unwrap();
        let store = ReleaseStore::new();
        store
            .insert(IndexedRelease::new(artifact).unwrap())
            .unwrap();
        AnswerService::with_cache_capacity(store, capacity)
    }

    fn query(nodes: &[u32]) -> SubsetQuery {
        SubsetQuery {
            side: Side::Left,
            nodes: nodes.to_vec(),
        }
    }

    #[test]
    fn privilege_gates_every_level_for_every_variant() {
        let service = service();
        let variants = [
            Query::SubsetCount(query(&[0, 1, 2])),
            Query::GroupMass {
                side: Side::Left,
                group: 0,
            },
            Query::DegreeHistogram { side: Side::Left },
            Query::SideTotal { side: Side::Right },
        ];
        let levels = service.store().get("dblp", 4).unwrap().level_count();
        for finest in 0..levels {
            let privilege = Privilege::new(finest);
            for level in 0..levels {
                for q in &variants {
                    let got = service.answer_typed("dblp", 4, privilege, level, q);
                    if level >= finest {
                        assert!(
                            got.is_ok(),
                            "privilege {finest} refused level {level} {}",
                            q.name()
                        );
                    } else {
                        assert!(
                            matches!(
                                got.unwrap_err(),
                                ServeError::Core(CoreError::AccessDenied { .. })
                            ),
                            "privilege {finest} was served level {level} {}",
                            q.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_keys_and_levels_are_typed() {
        let service = service();
        let q = Query::SubsetCount(query(&[0]));
        assert!(matches!(
            service
                .answer_typed("dblp", 99, Privilege::full(), 0, &q)
                .unwrap_err(),
            ServeError::UnknownRelease { epoch: 99, .. }
        ));
        assert!(matches!(
            service
                .answer_typed("movies", 4, Privilege::full(), 0, &q)
                .unwrap_err(),
            ServeError::UnknownRelease { .. }
        ));
        assert!(matches!(
            service
                .answer_typed("dblp", 4, Privilege::full(), 99, &q)
                .unwrap_err(),
            ServeError::Core(CoreError::LevelOutOfRange { level: 99, .. })
        ));
    }

    #[test]
    fn memoization_hits_on_repeats_without_changing_answers() {
        let service = service();
        let q = Query::SubsetCount(query(&[3, 1, 7]));
        let first = service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        let again = service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        assert_eq!(
            first.scalar().unwrap().to_bits(),
            again.scalar().unwrap().to_bits()
        );
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // A different level is a different memo entry.
        service
            .answer_typed("dblp", 4, Privilege::full(), 2, &q)
            .unwrap();
        assert_eq!(service.cache_stats().entries, 2);
    }

    #[test]
    fn cache_keys_are_variant_aware() {
        let service = service();
        // Four different variants at the same (dataset, epoch, level):
        // four distinct entries, no collisions.
        let variants = [
            Query::SubsetCount(query(&[0])),
            Query::GroupMass {
                side: Side::Left,
                group: 0,
            },
            Query::DegreeHistogram { side: Side::Left },
            Query::SideTotal { side: Side::Left },
        ];
        for q in &variants {
            service
                .answer_typed("dblp", 4, Privilege::full(), 1, q)
                .unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 0);
        // Replay: all hits, and each variant returns its own bits.
        for q in &variants {
            let a = service
                .answer_typed("dblp", 4, Privilege::full(), 1, q)
                .unwrap();
            let b = service
                .store()
                .get("dblp", 4)
                .unwrap()
                .answer(1, q)
                .unwrap();
            assert_eq!(a, b, "{} cached answer drifted", q.name());
        }
        assert_eq!(service.cache_stats().hits, 4);
        // Same variant kind, different parameter: a fresh entry.
        service
            .answer_typed(
                "dblp",
                4,
                Privilege::full(),
                1,
                &Query::GroupMass {
                    side: Side::Left,
                    group: 1,
                },
            )
            .unwrap();
        assert_eq!(service.cache_stats().entries, 5);
    }

    #[test]
    fn cache_is_bounded_and_counts_evictions() {
        let service = service_with_capacity(3);
        let queries: Vec<Query> = (0..6u32).map(|k| Query::SubsetCount(query(&[k]))).collect();
        for q in &queries {
            service
                .answer_typed("dblp", 4, Privilege::full(), 2, q)
                .unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.capacity, 3);
        assert_eq!(stats.entries, 3, "the table never outgrows its bound");
        assert_eq!(stats.misses, 6);
        assert_eq!(
            stats.evictions, 3,
            "each admission past the bound displaces one entry"
        );
        // Evicted or not, every answer stays bit-identical to the index.
        let indexed = service.store().get("dblp", 4).unwrap();
        for q in &queries {
            let served = service
                .answer_typed("dblp", 4, Privilege::full(), 2, q)
                .unwrap();
            assert_eq!(served, indexed.answer(2, q).unwrap());
        }
    }

    #[test]
    fn clock_eviction_gives_hot_entries_a_second_chance() {
        let service = service_with_capacity(2);
        let hot = Query::SideTotal { side: Side::Left };
        let cold = |k: u32| Query::SubsetCount(query(&[k]));
        service
            .answer_typed("dblp", 4, Privilege::full(), 2, &hot)
            .unwrap();
        service
            .answer_typed("dblp", 4, Privilege::full(), 2, &cold(0))
            .unwrap();
        // Keep the hot entry referenced, then push a stream of cold
        // inserts through the full table: the hand must displace the
        // unreferenced cold slots and keep the hot one resident.
        for group in 1..5 {
            service
                .answer_typed("dblp", 4, Privilege::full(), 2, &hot)
                .unwrap();
            service
                .answer_typed("dblp", 4, Privilege::full(), 2, &cold(group))
                .unwrap();
        }
        let stats = service.cache_stats();
        let hits_before = stats.hits;
        service
            .answer_typed("dblp", 4, Privilege::full(), 2, &hot)
            .unwrap();
        assert_eq!(
            service.cache_stats().hits,
            hits_before + 1,
            "the repeatedly-referenced entry survived eviction pressure"
        );
        assert!(stats.evictions > 0);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_memoization_but_stays_correct() {
        let service = service_with_capacity(0);
        let q = Query::SubsetCount(query(&[3, 1, 7]));
        let first = service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        let again = service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        assert_eq!(
            first.scalar().unwrap().to_bits(),
            again.scalar().unwrap().to_bits()
        );
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn batch_is_checked_before_answering_and_matches_singles() {
        let service = service();
        let queries: Vec<Query> = (0..20u32)
            .map(|k| Query::SubsetCount(query(&(0..=k).collect::<Vec<_>>())))
            .collect();
        // Denied as a whole…
        assert!(matches!(
            service
                .answer_typed_batch("dblp", 4, Privilege::new(2), 0, &queries)
                .unwrap_err(),
            ServeError::Core(CoreError::AccessDenied { .. })
        ));
        assert_eq!(service.cache_stats().misses, 0, "no answer was computed");
        // …and allowed batches equal the sequential loop.
        let batch = service
            .answer_typed_batch("dblp", 4, Privilege::new(2), 2, &queries)
            .unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            let single = service
                .answer_typed("dblp", 4, Privilege::new(2), 2, q)
                .unwrap();
            assert_eq!(
                single.scalar().unwrap().to_bits(),
                got.scalar().unwrap().to_bits()
            );
        }
    }

    #[test]
    fn batch_error_is_the_first_failing_query_in_input_order() {
        let service = service();
        let out_of_range_group = Query::GroupMass {
            side: Side::Left,
            group: 10_000,
        };
        let duplicate_node = Query::SubsetCount(query(&[4, 4]));
        let batch = [
            Query::SideTotal { side: Side::Left },
            out_of_range_group.clone(),
            duplicate_node.clone(),
        ];
        let indexed = service.store().get("dblp", 4).unwrap();
        let is_group_error = |err: &ServeError| {
            matches!(
                err,
                ServeError::Core(CoreError::GroupOutOfRange { group: 10_000, .. })
            )
        };
        // Both batch entry points report the group error, the first
        // failure in input order.
        let err = service
            .answer_typed_batch("dblp", 4, Privilege::full(), 1, &batch)
            .unwrap_err();
        assert!(is_group_error(&err), "{err:?}");
        let err = indexed.answer_batch(1, &batch).unwrap_err();
        assert!(is_group_error(&err), "{err:?}");
        // Swapped, the duplicate-node subset comes first and wins.
        let swapped = [duplicate_node, out_of_range_group];
        let err = service
            .answer_typed_batch("dblp", 4, Privilege::full(), 1, &swapped)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Core(CoreError::DuplicateSubsetNode { node: 4, .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn typed_batch_fans_out_all_variants() {
        let service = service();
        let queries: Vec<Query> = (0..24u32)
            .map(|k| match k % 4 {
                0 => Query::SubsetCount(query(&(0..=k).collect::<Vec<_>>())),
                1 => Query::GroupMass {
                    side: Side::Right,
                    group: k % 2,
                },
                2 => Query::DegreeHistogram { side: Side::Left },
                _ => Query::SideTotal { side: Side::Left },
            })
            .collect();
        // Denied as a whole before any variant is touched…
        assert!(matches!(
            service
                .answer_typed_batch("dblp", 4, Privilege::new(2), 1, &queries)
                .unwrap_err(),
            ServeError::Core(CoreError::AccessDenied { .. })
        ));
        assert_eq!(service.cache_stats().misses, 0);
        // …and allowed batches equal the sequential loop.
        let batch = service
            .answer_typed_batch("dblp", 4, Privilege::new(2), 2, &queries)
            .unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            let single = service
                .answer_typed("dblp", 4, Privilege::new(2), 2, q)
                .unwrap();
            assert_eq!(&single, got, "{} batch answer drifted", q.name());
        }
    }

    /// Seals a ("dblp", 4) artifact whose noisy values depend on
    /// `noise_seed` — different seeds give different content digests.
    fn artifact_with_noise(noise_seed: u64) -> ReleaseArtifact {
        let mut rng = StdRng::seed_from_u64(90);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.9, 1e-6)
                .unwrap()
                .with_queries(vec![CoreQuery::PerGroupCounts]),
        )
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(noise_seed))
        .unwrap();
        ReleaseArtifact::seal("dblp", 4, hierarchy, release).unwrap()
    }

    #[test]
    fn reload_replacing_a_release_never_serves_stale_cached_answers() {
        // Regression: the memo key used to be (dataset, epoch, level,
        // query) with no notion of release identity, so a release
        // retired by `merge_dir` and re-registered with different bytes
        // kept answering from the *old* release's cache entries.
        let dir = std::env::temp_dir().join("gdp_service_reload_invalidation");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = artifact_with_noise(1);
        let path = dir.join(ReleaseArtifact::canonical_file_name("dblp", 4));
        old.save_atomic(&path).unwrap();
        let store = ReleaseStore::open_dir(&dir).unwrap();
        let service = AnswerService::new(store);
        let q = Query::GroupMass {
            side: Side::Left,
            group: 0,
        };
        let before = service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        // Warm the cache.
        service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        assert_eq!(service.cache_stats().hits, 1);

        // Operator retires the file and republishes the epoch with
        // fresh noise; two merge_dir passes make it a real
        // retire-then-register reload.
        std::fs::remove_file(&path).unwrap();
        service.store().merge_dir(&dir).unwrap();
        let new = artifact_with_noise(2);
        assert_ne!(
            old.manifest().content_digest,
            new.manifest().content_digest,
            "republish really changed the bytes"
        );
        new.save_atomic(&path).unwrap();
        service.store().merge_dir(&dir).unwrap();

        let after = service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        let expected = service
            .store()
            .get("dblp", 4)
            .unwrap()
            .answer(1, &q)
            .unwrap();
        assert_eq!(after, expected, "answer must come from the new release");
        assert_ne!(before, after, "stale cache entry was served after reload");
        // And repeats hit the *new* entry.
        let hits = service.cache_stats().hits;
        service
            .answer_typed("dblp", 4, Privilege::full(), 1, &q)
            .unwrap();
        assert_eq!(service.cache_stats().hits, hits + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalidate_release_and_flush_drop_entries() {
        let service = service();
        let qs: Vec<Query> = (0..4u32).map(|k| Query::SubsetCount(query(&[k]))).collect();
        for q in &qs {
            service
                .answer_typed("dblp", 4, Privilege::full(), 1, q)
                .unwrap();
        }
        assert_eq!(service.cache_stats().entries, 4);
        // A different (dataset, epoch) is untouched by invalidation.
        assert_eq!(service.invalidate_release("dblp", 5), 0);
        assert_eq!(service.cache_stats().entries, 4);
        assert_eq!(service.invalidate_release("dblp", 4), 4);
        assert_eq!(service.cache_stats().entries, 0);
        // Entries recompute (a miss), not resurrect.
        service
            .answer_typed("dblp", 4, Privilege::full(), 1, &qs[0])
            .unwrap();
        assert_eq!(service.cache_stats().entries, 1);
        assert_eq!(service.flush_cache(), 1);
        assert_eq!(service.cache_stats().entries, 0);
        assert_eq!(service.flush_cache(), 0);
    }

    #[test]
    fn finest_allowed_follows_policy() {
        let service = service();
        assert_eq!(
            service
                .finest_allowed("dblp", 4, Privilege::full())
                .unwrap(),
            Some(0)
        );
        assert_eq!(
            service
                .finest_allowed("dblp", 4, Privilege::new(3))
                .unwrap(),
            Some(3)
        );
        assert_eq!(
            service
                .finest_allowed("dblp", 4, Privilege::new(99))
                .unwrap(),
            None
        );
        assert!(service
            .finest_allowed("dblp", 9, Privilege::full())
            .is_err());
    }
}
