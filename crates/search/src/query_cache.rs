//! Directory-versioned query planning cache.
//!
//! Computing a query plan — the IPF table (eq. 3's term weights) plus
//! the ranked candidate list — costs one Bloom probe per (term, peer)
//! pair. The gossip directory those probes read is versioned and
//! changes slowly relative to query rates, so [`QueryCache`] memoizes
//! the per-term *presence row*: a bitset over the community recording
//! which peers' filters claim the term, plus its popcount (`N_t`).
//! Repeated and overlapping queries then skip IPF recomputation
//! entirely; filters are only re-probed for terms never seen before.
//!
//! Invalidation follows the directory, not the clock:
//!
//! - a peer republishing (its gossiped version advances) re-probes
//!   exactly that peer's column of every cached row — other peers'
//!   cached bits are untouched;
//! - a membership change (join, leave, or reordering) rebuilds the
//!   cache from scratch, since presence rows are positional.
//!
//! Plans produced through the cache are bit-for-bit identical to
//! [`IpfTable::compute`] + [`rank_peers`](crate::rank_peers) over the
//! same view: same hash path, same float-addition order, same sort.
//!
//! # Tree-pruned probing
//!
//! With [`QueryCache::with_tree`], a cache miss no longer probes every
//! peer's filter: a [`BloomTree`] (Bloofi) over the view is walked
//! first, and only the surviving candidate columns are probed. Peers
//! whose filters share the tree's parameters become bit-copy leaves, so
//! probing the leaf *is* probing the peer's filter and the candidate
//! set restricted to them equals the flat scan's answer exactly; peers
//! with other parameters stay on the tree's fallback list and are
//! probed unconditionally. Either way the presence row — and therefore
//! the plan — is bit-identical to the flat path's. The tree follows the
//! same invalidation rules as the rows: membership change rebuilds it,
//! a version bump updates exactly that peer's leaf.

use std::collections::{HashMap, VecDeque};

use planetp_bloom::{probe_row, BloomFilter, HashedKey};
use planetp_bloomtree::{BloomTree, PeerEntry, TreeConfig, TreeMetrics};
use planetp_obs::{names, Counter, Registry};

use crate::ipf::{ipf, IpfTable};
use crate::peer_rank::RankedPeer;

/// Default cap on distinct cached terms before FIFO eviction.
pub const DEFAULT_MAX_TERMS: usize = 4096;

/// Two-part version of one peer's published summary. The live runtime
/// passes `(status_version, bloom_version)` straight from the gossip
/// directory; the cache only ever compares versions for equality, so
/// no information is folded away.
pub type PeerVersion = (u64, u32);

/// A borrowed view of one peer's gossiped summary, as the cache sees it
/// for one query.
#[derive(Debug, Clone, Copy)]
pub struct PeerFilterRef<'a> {
    /// Stable peer identity (the live runtime passes the gossip peer
    /// id). Identity changes are membership changes.
    pub id: u64,
    /// Version of this peer's published summary; any change means the
    /// filter may differ from what the cache probed.
    pub version: PeerVersion,
    /// The peer's (decompressed) Bloom filter, borrowed for the query.
    pub filter: &'a BloomFilter,
}

/// The cached plan for one query: term weights plus ranked candidates,
/// with peer numbers indexing the view slice the plan was built from.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// IPF weight per unique query term.
    pub ipf: IpfTable,
    /// Candidate peers sorted best-first (zero-scoring peers omitted).
    pub ranked: Vec<RankedPeer>,
}

/// Counter handles for the cache; attach to a node's [`Registry`] so
/// snapshots expose hit rates, or leave detached for standalone use.
#[derive(Debug, Clone)]
pub struct QueryCacheMetrics {
    hits: Counter,
    misses: Counter,
    peer_refreshes: Counter,
    rebuilds: Counter,
}

impl QueryCacheMetrics {
    /// Handles registered under the shared `search.cache.*` names.
    pub fn in_registry(registry: &Registry) -> Self {
        Self {
            hits: registry.counter(names::SEARCH_CACHE_HITS),
            misses: registry.counter(names::SEARCH_CACHE_MISSES),
            peer_refreshes: registry.counter(names::SEARCH_CACHE_PEER_REFRESHES),
            rebuilds: registry.counter(names::SEARCH_CACHE_REBUILDS),
        }
    }

    /// Handles not visible in any snapshot.
    pub fn detached() -> Self {
        Self {
            hits: Counter::detached(),
            misses: Counter::detached(),
            peer_refreshes: Counter::detached(),
            rebuilds: Counter::detached(),
        }
    }
}

/// Point-in-time counter values, for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Term lookups served from the cache.
    pub hits: u64,
    /// Term lookups that probed the filters.
    pub misses: u64,
    /// Peer columns re-probed after a version bump.
    pub peer_refreshes: u64,
    /// Full rebuilds after a membership change.
    pub rebuilds: u64,
}

/// One cached term: its hash (so refreshes never re-hash), the presence
/// bitset over the current peer slots, and the popcount (`N_t`).
#[derive(Debug, Clone)]
struct TermEntry {
    key: HashedKey,
    presence: Vec<u64>,
    count: usize,
}

/// The Bloofi front end: the tree plus the rank → view-slot map that
/// translates its ascending-id candidate bits back into the view's
/// positional presence layout.
#[derive(Debug)]
struct TreeIndex {
    tree: BloomTree,
    /// `view_pos[rank]` = index into the synced view of the peer at
    /// that rank of [`BloomTree::members`].
    view_pos: Vec<u32>,
    /// True when the view's ids were not unique, so ranks cannot map
    /// one-to-one onto view slots. The cache then bypasses the tree
    /// (flat probes) until a membership change restores uniqueness.
    degraded: bool,
}

impl TreeIndex {
    /// Rebuild the tree and the rank map from a freshly-synced view.
    fn rebuild(&mut self, view: &[PeerFilterRef<'_>]) {
        let entries: Vec<PeerEntry<'_>> = view
            .iter()
            .map(|p| PeerEntry {
                id: p.id,
                version: p.version,
                filter: p.filter,
            })
            .collect();
        self.tree.rebuild(&entries);
        self.degraded = self.tree.len() != view.len();
        self.view_pos = vec![0; self.tree.len()];
        if !self.degraded {
            for (i, p) in view.iter().enumerate() {
                let rank = self.tree.rank_of(p.id).expect("view peer is tracked");
                self.view_pos[rank] = i as u32;
            }
        }
    }

    /// Tree-pruned equivalent of [`probe_row`] over the view's filters:
    /// same bits, same count, fewer filters touched.
    fn probe(&self, key: &HashedKey, filters: &[&BloomFilter]) -> (Vec<u64>, usize) {
        let candidates = self.tree.candidates(key);
        let mut presence = vec![0u64; filters.len().div_ceil(64)];
        let mut count = 0usize;
        for rank in candidates.iter_ones() {
            let i = self.view_pos[rank] as usize;
            if filters[i].contains_hashed(key) {
                presence[i / 64] |= 1u64 << (i % 64);
                count += 1;
            }
        }
        (presence, count)
    }
}

/// See the [module docs](self) for the invalidation rules.
#[derive(Debug)]
pub struct QueryCache {
    /// `(id, version)` per slot, in the order of the last synced view.
    peers: Vec<(u64, PeerVersion)>,
    terms: HashMap<String, TermEntry>,
    /// Insertion order of `terms`, for FIFO eviction.
    order: VecDeque<String>,
    max_terms: usize,
    metrics: QueryCacheMetrics,
    /// Optional Bloofi front end pruning the miss path's probes.
    tree: Option<TreeIndex>,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryCache {
    /// Empty cache with detached metrics and the default term cap.
    pub fn new() -> Self {
        Self {
            peers: Vec::new(),
            terms: HashMap::new(),
            order: VecDeque::new(),
            max_terms: DEFAULT_MAX_TERMS,
            metrics: QueryCacheMetrics::detached(),
            tree: None,
        }
    }

    /// Record cache activity through `metrics`.
    pub fn with_metrics(mut self, metrics: QueryCacheMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Prune cache-miss probes through a [`BloomTree`] built over each
    /// synced view. Peers gossiping filters with exactly
    /// `config.params` become bit-copy leaves; others are probed flat
    /// via the tree's fallback list — plans stay bit-identical either
    /// way (see the [module docs](self)). Any previously cached state
    /// is dropped, so configure at construction time.
    pub fn with_tree(mut self, config: TreeConfig, metrics: TreeMetrics) -> Self {
        self.peers.clear();
        self.terms.clear();
        self.order.clear();
        self.tree = Some(TreeIndex {
            tree: BloomTree::new(config).with_metrics(metrics),
            view_pos: Vec::new(),
            degraded: false,
        });
        self
    }

    /// True when a usable tree front end is pruning miss-path probes.
    pub fn tree_enabled(&self) -> bool {
        self.tree.as_ref().is_some_and(|idx| !idx.degraded)
    }

    /// Cap the number of distinct cached terms (FIFO eviction beyond).
    ///
    /// # Panics
    /// Panics if `max_terms` is 0.
    pub fn with_max_terms(mut self, max_terms: usize) -> Self {
        assert!(max_terms > 0, "term cap must be positive");
        self.max_terms = max_terms;
        self
    }

    /// Current counter values.
    pub fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            peer_refreshes: self.metrics.peer_refreshes.get(),
            rebuilds: self.metrics.rebuilds.get(),
        }
    }

    /// Number of distinct terms currently cached.
    pub fn cached_terms(&self) -> usize {
        self.terms.len()
    }

    /// Plan a query against the current directory view: sync the cache
    /// with `view`, then produce the IPF table and ranked candidate
    /// list, probing filters only for terms not already cached.
    ///
    /// `view` must present peers in a stable order between calls —
    /// presence rows are positional. The live runtime sorts by peer id.
    pub fn plan(&mut self, query_terms: &[String], view: &[PeerFilterRef<'_>]) -> QueryPlan {
        self.sync(view);
        let n = view.len();
        let filters: Vec<&BloomFilter> = view.iter().map(|p| p.filter).collect();

        // IPF per unique term (duplicates computed once, as in
        // `IpfTable::compute`).
        let mut values: HashMap<String, f64> = HashMap::with_capacity(query_terms.len());
        for t in query_terms {
            if values.contains_key(t) {
                continue;
            }
            let count = self.ensure_term(t, &filters);
            values.insert(t.clone(), ipf(n, count));
        }
        let table = IpfTable::from_pairs(values.into_iter().collect(), n);

        // Rank from the presence rows, replicating `rank_peers`: sum
        // per term *occurrence* in query order, omit zero scores, sort
        // best-first with peer-number tie-break.
        let mut scores = vec![0.0f64; n];
        for t in query_terms {
            let entry = self.terms.get(t).expect("ensured above");
            let weight = table.get(t);
            for (w, &word) in entry.presence.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    scores[w * 64 + b] += weight;
                    bits &= bits - 1;
                }
            }
        }
        let mut ranked: Vec<RankedPeer> = scores
            .iter()
            .enumerate()
            .filter_map(|(peer, &score)| (score > 0.0).then_some(RankedPeer { peer, score }))
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are never NaN")
                .then_with(|| a.peer.cmp(&b.peer))
        });
        // Evict only now that the plan no longer needs its rows: a
        // query with more unique terms than the cap may overfill the
        // cache for the duration of this call, but never loses a row
        // it is still scoring against.
        self.enforce_cap();
        QueryPlan { ipf: table, ranked }
    }

    /// Bring the cache in line with `view`. Membership change (ids,
    /// count, or order) ⇒ full rebuild. Version bump ⇒ re-probe only
    /// that peer's column in every cached row.
    fn sync(&mut self, view: &[PeerFilterRef<'_>]) {
        let same_membership = self.peers.len() == view.len()
            && self.peers.iter().zip(view).all(|(&(id, _), p)| id == p.id);
        if !same_membership {
            self.metrics.rebuilds.inc();
            self.terms.clear();
            self.order.clear();
            self.peers = view.iter().map(|p| (p.id, p.version)).collect();
            if let Some(idx) = &mut self.tree {
                idx.rebuild(view);
            }
            return;
        }
        for (i, p) in view.iter().enumerate() {
            if self.peers[i].1 == p.version {
                continue;
            }
            self.metrics.peer_refreshes.inc();
            // Keep the tree's leaf in step: a stale leaf could prune a
            // peer whose republished filter now matches.
            if let Some(idx) = &mut self.tree {
                if !idx.degraded {
                    idx.tree.update_peer(p.id, p.version, p.filter);
                }
            }
            let (w, mask) = (i / 64, 1u64 << (i % 64));
            for entry in self.terms.values_mut() {
                let was = entry.presence[w] & mask != 0;
                let now = p.filter.contains_hashed(&entry.key);
                if was == now {
                    continue;
                }
                if now {
                    entry.presence[w] |= mask;
                    entry.count += 1;
                } else {
                    entry.presence[w] &= !mask;
                    entry.count -= 1;
                }
            }
            self.peers[i].1 = p.version;
        }
    }

    /// Presence count for `t`, probing the filters only on a miss.
    ///
    /// Never evicts: FIFO eviction here could drop a row probed
    /// earlier in the same in-flight query (any query with more
    /// unique terms than `max_terms`, e.g. from a remote proxy-search
    /// peer), which the plan's scoring loop still needs. [`Self::plan`]
    /// calls [`Self::enforce_cap`] once the plan is complete.
    fn ensure_term(&mut self, t: &str, filters: &[&BloomFilter]) -> usize {
        if let Some(e) = self.terms.get(t) {
            self.metrics.hits.inc();
            return e.count;
        }
        self.metrics.misses.inc();
        let key = HashedKey::new(t);
        let (presence, count) = match &self.tree {
            Some(idx) if !idx.degraded => idx.probe(&key, filters),
            _ => probe_row(&key, filters),
        };
        self.terms.insert(
            t.to_string(),
            TermEntry {
                key,
                presence,
                count,
            },
        );
        self.order.push_back(t.to_string());
        count
    }

    /// FIFO-evict down to the term cap.
    fn enforce_cap(&mut self) {
        while self.terms.len() > self.max_terms {
            match self.order.pop_front() {
                Some(old) => {
                    self.terms.remove(&old);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer_rank::rank_peers;
    use planetp_bloom::BloomParams;

    fn filter_with(terms: &[&str]) -> BloomFilter {
        let mut f = BloomFilter::new(BloomParams::for_capacity(1000, 1e-6));
        for t in terms {
            f.insert(t);
        }
        f
    }

    fn query(terms: &[&str]) -> Vec<String> {
        terms.iter().map(|s| s.to_string()).collect()
    }

    fn view<'a>(peers: &'a [(u64, PeerVersion, BloomFilter)]) -> Vec<PeerFilterRef<'a>> {
        peers
            .iter()
            .map(|(id, version, filter)| PeerFilterRef {
                id: *id,
                version: *version,
                filter,
            })
            .collect()
    }

    /// Oracle: the uncached plan over the same view.
    fn oracle(q: &[String], v: &[PeerFilterRef<'_>]) -> QueryPlan {
        let filters: Vec<&BloomFilter> = v.iter().map(|p| p.filter).collect();
        let ipf = IpfTable::compute(q, &filters);
        let ranked = rank_peers(q, &filters, &ipf);
        QueryPlan { ipf, ranked }
    }

    fn assert_plan_eq(a: &QueryPlan, b: &QueryPlan) {
        assert_eq!(a.ipf.to_pairs(), b.ipf.to_pairs());
        assert_eq!(a.ipf.num_peers(), b.ipf.num_peers());
        assert_eq!(a.ranked, b.ranked);
    }

    #[test]
    fn warm_query_matches_oracle_and_hits_cache() {
        let peers = vec![
            (1, (0, 0), filter_with(&["gossip", "bloom"])),
            (2, (0, 0), filter_with(&["gossip"])),
            (3, (0, 0), filter_with(&["chord"])),
        ];
        let v = view(&peers);
        let q = query(&["gossip", "bloom", "gossip"]);
        let mut cache = QueryCache::new();
        let cold = cache.plan(&q, &v);
        assert_plan_eq(&cold, &oracle(&q, &v));
        let s1 = cache.stats();
        assert_eq!(s1.misses, 2, "two unique terms probed");
        let warm = cache.plan(&q, &v);
        assert_plan_eq(&warm, &cold);
        let s2 = cache.stats();
        assert_eq!(s2.misses, s1.misses, "warm query probes nothing");
        assert_eq!(s2.hits, s1.hits + 2);
    }

    #[test]
    fn version_bump_refreshes_exactly_that_peer() {
        let mut peers = vec![
            (1, (0, 0), filter_with(&["alpha"])),
            (2, (0, 0), filter_with(&["beta"])),
        ];
        let q = query(&["alpha", "beta"]);
        let mut cache = QueryCache::new();
        let before = cache.plan(&q, &view(&peers));
        assert_plan_eq(&before, &oracle(&q, &view(&peers)));

        // Peer 2 republishes: now also holds "alpha".
        peers[1].1 = (0, 1);
        peers[1].2 = filter_with(&["beta", "alpha"]);
        let after = cache.plan(&q, &view(&peers));
        assert_plan_eq(&after, &oracle(&q, &view(&peers)));
        let s = cache.stats();
        assert_eq!(s.peer_refreshes, 1, "only the bumped peer re-probed");
        assert_eq!(s.rebuilds, 1, "only the initial population rebuild");
        assert_eq!(s.misses, 2, "terms stayed cached across the bump");
        // The new presence really landed: alpha is on both peers now.
        assert!(after.ipf.get("alpha") < before.ipf.get("alpha"));
    }

    #[test]
    fn membership_change_rebuilds() {
        let peers = vec![
            (1, (0, 0), filter_with(&["x"])),
            (2, (0, 0), filter_with(&["y"])),
        ];
        let q = query(&["x", "y"]);
        let mut cache = QueryCache::new();
        cache.plan(&q, &view(&peers));
        let joined = vec![
            (1, (0, 0), filter_with(&["x"])),
            (2, (0, 0), filter_with(&["y"])),
            (3, (0, 0), filter_with(&["x", "y"])),
        ];
        let v = view(&joined);
        let plan = cache.plan(&q, &v);
        assert_plan_eq(&plan, &oracle(&q, &v));
        let s = cache.stats();
        assert_eq!(s.rebuilds, 2, "initial population + join");
        assert_eq!(s.misses, 4, "terms re-probed after the rebuild");
    }

    #[test]
    fn eviction_honors_term_cap() {
        let peers = vec![(1, (0, 0), filter_with(&["a", "b", "c"]))];
        let v = view(&peers);
        let mut cache = QueryCache::new().with_max_terms(2);
        cache.plan(&query(&["a"]), &v);
        cache.plan(&query(&["b"]), &v);
        cache.plan(&query(&["c"]), &v);
        assert_eq!(cache.cached_terms(), 2);
        // "a" (oldest) was evicted; re-querying it probes again.
        let misses_before = cache.stats().misses;
        let plan = cache.plan(&query(&["a"]), &v);
        assert_plan_eq(&plan, &oracle(&query(&["a"]), &v));
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn query_with_more_unique_terms_than_cap_plans_without_panic() {
        // Regression: mid-plan FIFO eviction used to drop a term probed
        // earlier in the same query, and the scoring loop then panicked
        // on the missing row. A remote proxy-search peer controls the
        // query, so this must degrade (overfill then trim), not panic.
        let all: Vec<String> = (0..8).map(|i| format!("term-{i}")).collect();
        let strs: Vec<&str> = all.iter().map(String::as_str).collect();
        let peers = vec![
            (1, (0, 0), filter_with(&strs)),
            (2, (0, 0), filter_with(&strs[..3])),
        ];
        let v = view(&peers);
        let mut cache = QueryCache::new().with_max_terms(3);
        let plan = cache.plan(&all, &v);
        assert_plan_eq(&plan, &oracle(&all, &v));
        assert_eq!(
            cache.cached_terms(),
            3,
            "cache trimmed back to the cap after the plan"
        );
        // The survivors are the FIFO tail; the evicted head re-probes.
        let misses_before = cache.stats().misses;
        cache.plan(&query(&["term-7"]), &v);
        assert_eq!(cache.stats().misses, misses_before, "tail term cached");
        cache.plan(&query(&["term-0"]), &v);
        assert_eq!(cache.stats().misses, misses_before + 1, "head term evicted");
    }

    #[test]
    fn status_version_high_bits_invalidate() {
        // Versions differing only above bit 32 of status_version must
        // still read as a change (the old single-u64 folding truncated
        // them away and served a stale filter).
        let mut peers = vec![(1, (0, 0), filter_with(&["old"]))];
        let q = query(&["old", "new"]);
        let mut cache = QueryCache::new();
        cache.plan(&q, &view(&peers));
        peers[0].1 = (1u64 << 32, 0);
        peers[0].2 = filter_with(&["new"]);
        let plan = cache.plan(&q, &view(&peers));
        assert_plan_eq(&plan, &oracle(&q, &view(&peers)));
        assert_eq!(cache.stats().peer_refreshes, 1);
    }

    #[test]
    fn empty_view_and_empty_query() {
        let mut cache = QueryCache::new();
        let plan = cache.plan(&[], &[]);
        assert!(plan.ranked.is_empty());
        assert_eq!(plan.ipf.num_peers(), 0);
        let peers = vec![(7, (0, 0), filter_with(&["t"]))];
        let v = view(&peers);
        let plan = cache.plan(&[], &v);
        assert!(plan.ranked.is_empty());
    }

    /// Cache whose tree bit space matches `filter_with`, so every test
    /// peer becomes a bit-copy leaf.
    fn tree_cache() -> QueryCache {
        QueryCache::new().with_tree(
            TreeConfig::new(4, BloomParams::for_capacity(1000, 1e-6)),
            TreeMetrics::detached(),
        )
    }

    #[test]
    fn tree_front_end_is_bit_identical_across_lifecycle() {
        // Twin caches over the same schedule: the tree must never
        // change a plan or a counter.
        let mut flat = QueryCache::new();
        let mut tree = tree_cache();
        let q = query(&["gossip", "bloom", "chord"]);

        let mut peers = vec![
            (1, (0, 0), filter_with(&["gossip", "bloom"])),
            (2, (0, 0), filter_with(&["gossip"])),
            (5, (0, 0), filter_with(&["chord"])),
        ];
        for _ in 0..2 {
            let v = view(&peers);
            assert_plan_eq(&tree.plan(&q, &v), &flat.plan(&q, &v));
        }
        // Version bump.
        peers[1].1 = (0, 1);
        peers[1].2 = filter_with(&["gossip", "chord"]);
        let v = view(&peers);
        assert_plan_eq(&tree.plan(&q, &v), &flat.plan(&q, &v));
        // Join (out of id order in the middle of the range).
        peers.push((3, (0, 0), filter_with(&["bloom"])));
        peers.sort_by_key(|p| p.0);
        let v = view(&peers);
        assert_plan_eq(&tree.plan(&q, &v), &flat.plan(&q, &v));
        // Leave.
        peers.remove(0);
        let v = view(&peers);
        // One plan per cache per step: a second `tree.plan` for the
        // oracle would add three hits the flat cache never saw.
        let planned = tree.plan(&q, &v);
        assert_plan_eq(&planned, &flat.plan(&q, &v));
        assert_plan_eq(&planned, &oracle(&q, &v));
        assert_eq!(
            tree.stats(),
            flat.stats(),
            "identical hit/miss/refresh path"
        );
        assert!(tree.tree_enabled());
    }

    #[test]
    fn tree_front_end_handles_mismatched_params_via_fallback() {
        let foreign = {
            let mut f = BloomFilter::new(BloomParams::for_capacity(50, 1e-3));
            f.insert("gossip");
            f
        };
        let peers = vec![
            (1, (0, 0), filter_with(&["gossip"])),
            (2, (0, 0), foreign),
            (3, (0, 0), filter_with(&["bloom"])),
        ];
        let v = view(&peers);
        let q = query(&["gossip", "bloom", "absent"]);
        let mut cache = tree_cache();
        assert_plan_eq(&cache.plan(&q, &v), &oracle(&q, &v));
        assert!(
            cache.tree_enabled(),
            "fallback peers don't disable the tree"
        );
    }

    #[test]
    fn duplicate_view_ids_degrade_to_flat_probing() {
        // The tree dedups ids; the positional cache does not. Ranks
        // then can't map onto view slots, so the cache must bypass the
        // tree rather than drop a column.
        let peers = vec![
            (1, (0, 0), filter_with(&["x"])),
            (1, (0, 0), filter_with(&["y"])),
        ];
        let v = view(&peers);
        let q = query(&["x", "y"]);
        let mut cache = tree_cache();
        assert_plan_eq(&cache.plan(&q, &v), &oracle(&q, &v));
        assert!(!cache.tree_enabled());
        // A later unique view re-enables pruning.
        let unique = vec![
            (1, (0, 0), filter_with(&["x"])),
            (2, (0, 0), filter_with(&["y"])),
        ];
        let v = view(&unique);
        assert_plan_eq(&cache.plan(&q, &v), &oracle(&q, &v));
        assert!(cache.tree_enabled());
    }
}
