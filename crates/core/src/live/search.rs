//! The query side: the versioned filter mirror and the query cache
//! over it, the grouped fan-out, the replica-aware merge, §5.2's
//! adaptive stopping, and the proxy-search client.
//!
//! The mirror's lock is the outer half of the runtime's one nested
//! acquisition: a sync holds it while `Inner::sync_work` takes the
//! engine lock to snapshot the directory. It is released before any
//! peer is contacted.

use parking_lot::{Mutex, MutexGuard};
use planetp_bloom::{BloomFilter, HashedKey};
use planetp_bloomtree::TreeMetrics;
use planetp_gossip::PeerId;
use planetp_search::{adaptive_p, PeerFilterRef, PeerVersion, QueryCache, QueryCacheMetrics};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::OnceLock;
use std::time::Instant;

use super::gossip_loop::SyncWork;
use super::local::LocalQuery;
use super::rpc::CallShape;
use super::stats::NodeStats;
use super::{Inner, LiveConfig, LiveHit, LiveMsg, LiveSearchResult, SearchCoverage, SearchDoc};
use crate::error::PlanetPError;
use crate::pool::{ScopedJob, WorkerPool};
use crate::query::parse_query;

/// One peer's decompressed filter plus the directory version —
/// `(status_version, bloom_version)`, compared as a pair so no bits
/// are folded away — it was decompressed at.
struct VersionedFilter {
    version: PeerVersion,
    filter: BloomFilter,
}

/// Query-side mirror of the directory: decompressed filters (the
/// gossip directory only holds compressed ones) and the ranking cache
/// built over them. Both are versioned by the directory, so a query
/// pays decompression and IPF work only for peers whose gossiped state
/// actually changed since the last query.
struct QueryState {
    filters: HashMap<PeerId, VersionedFilter>,
    cache: QueryCache,
}

pub(super) struct QuerySide {
    mirror: Mutex<QueryState>,
    /// Shared search worker pool, spun up on the first query.
    pool: OnceLock<WorkerPool>,
}

impl QuerySide {
    /// An empty mirror under a query cache — fronted by the Bloofi
    /// tree unless `config.bloom_tree` is `None`. This is the one place
    /// the tree is mounted.
    pub(super) fn new(config: &LiveConfig, stats: &NodeStats) -> Self {
        let mut cache =
            QueryCache::new().with_metrics(QueryCacheMetrics::in_registry(&stats.registry));
        if let Some(tree_config) = config.bloom_tree {
            cache = cache.with_tree(tree_config, TreeMetrics::in_registry(&stats.registry));
        }
        Self {
            mirror: Mutex::new(QueryState {
                filters: HashMap::new(),
                cache,
            }),
            pool: OnceLock::new(),
        }
    }
}

/// Where one fan-out slot's documents come from during the merge.
enum GroupSlot {
    /// This node's own store (answered inline, never dispatched).
    Local,
    /// Known-offline peer inside its probe backoff; never dispatched.
    Skipped,
    /// Peer inside its busy-throttle window (it recently shed us with
    /// `Busy`); probabilistically skipped for this round so a recovering
    /// server is not immediately re-saturated.
    Shed,
    /// Index into the dispatched jobs / replies of this group.
    Remote(usize),
}

/// The replica-aware result set both searches merge replies into: at
/// most `k` hits, one per content hash.
struct Merge {
    k: usize,
    hits: Vec<LiveHit>,
    /// Content hash → slot in `hits`. An entry goes stale when its hit
    /// is evicted from a full list, so readers check the slot's hash.
    by_hash: HashMap<u64, usize>,
    /// Content hashes seen in a *home* (non-replica) copy: a kept
    /// replica hit whose hash never shows up here was genuinely
    /// recovered — no reachable peer held the original.
    home_seen: HashSet<u64>,
    dup_collapsed: u64,
}

impl Merge {
    fn new(k: usize) -> Self {
        Self {
            k,
            hits: Vec::new(),
            by_hash: HashMap::new(),
            home_seen: HashSet::new(),
            dup_collapsed: 0,
        }
    }

    /// Offer one copy of a document; returns whether it *contributed*
    /// (entered the list or raised a held document's score) — what
    /// eq. 4's stopping walk counts.
    ///
    /// The same content can arrive from its home and from any replica
    /// holder. The duplicate rule: the higher score wins; on a tie a
    /// home copy beats a replica; otherwise the first seen stays. A tie
    /// replacement only renames the answering peer, so it is not a
    /// contribution.
    fn offer(&mut self, hit: LiveHit) -> bool {
        if hit.replica_of.is_none() {
            self.home_seen.insert(hit.hash);
        }
        let slot = self.by_hash.get(&hit.hash).copied();
        if let Some(i) = slot.filter(|&i| self.hits[i].hash == hit.hash) {
            self.dup_collapsed += 1;
            let held = &self.hits[i];
            let better = hit.score > held.score;
            let home_on_tie =
                hit.score == held.score && held.replica_of.is_some() && hit.replica_of.is_none();
            if better || home_on_tie {
                self.hits[i] = hit;
            }
            return better;
        }
        let hash = hit.hash;
        match offer_hit(&mut self.hits, hit, self.k) {
            Some(i) => {
                self.by_hash.insert(hash, i);
                true
            }
            None => false,
        }
    }

    /// The hits best-first (score, then `(peer, doc)` — all-zero
    /// conjunction scores leave plain `(peer, doc)` order), how many of
    /// them were only reachable through a replica, and how many
    /// duplicates were collapsed on the way.
    fn finish(mut self) -> (Vec<LiveHit>, usize, u64) {
        self.hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| (a.peer, a.doc).cmp(&(b.peer, b.doc)))
        });
        let recovered = self
            .hits
            .iter()
            .filter(|h| h.replica_of.is_some() && !self.home_seen.contains(&h.hash))
            .count();
        (self.hits, recovered, self.dup_collapsed)
    }
}

/// Bounded top-k insertion; returns the slot the hit landed in, or
/// `None` if it did not make the cut. Non-finite scores are rejected
/// outright, and a non-finite score already in `top` (callers filter
/// them, but this path must degrade sanely anyway) is treated as
/// minimal — evicted first rather than pinned at rank 1 by
/// `total_cmp`'s NaN-is-greatest ordering.
fn offer_hit(top: &mut Vec<LiveHit>, hit: LiveHit, k: usize) -> Option<usize> {
    if !hit.score.is_finite() {
        return None;
    }
    if top.len() < k {
        top.push(hit);
        return Some(top.len() - 1);
    }
    let key = |s: f64| if s.is_finite() { s } else { f64::NEG_INFINITY };
    let (worst_i, worst) = top
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| key(a.score).total_cmp(&key(b.score)))?;
    if !worst.score.is_finite() || hit.score > worst.score {
        top[worst_i] = hit;
        Some(worst_i)
    } else {
        None
    }
}

impl Inner {
    /// Lock the query-side mirror, bring it up to date with the gossip
    /// directory, and return the guard plus the candidate list in
    /// stable ascending-peer-id order as `(peer, addr, version)`.
    ///
    /// A peer's filter is decompressed only when its directory version
    /// — the `(status_version, bloom_version)` pair — advanced since
    /// the last query; everyone else's 50 KB stays untouched. When the
    /// version advanced *and* the gossip engine still holds the delta
    /// chain that carried the update, the diff steps are toggled into
    /// the already-decompressed mirror in place instead of paying a
    /// full decompression — the delta wire form applied end to end.
    /// Departed peers are evicted so the mirror cannot grow stale
    /// entries, and the version list is exactly what the query cache
    /// keys its invalidation on.
    fn synced_query_state(
        &self,
    ) -> (
        MutexGuard<'_, QueryState>,
        Vec<(PeerId, String, PeerVersion)>,
    ) {
        let mut qs = self.query.mirror.lock();
        // Snapshot the directory under a short engine lock; the
        // decompression / delta-apply work happens after it is released.
        let mut snapshot = self.sync_work(|pid| qs.filters.get(&pid).map(|v| v.version));
        snapshot.sort_by_key(|(pid, _, _, _)| *pid);
        for (pid, _, version, work) in &snapshot {
            // A corrupt diff step or payload drops the peer from the
            // query view (never rank on half-applied or stale data);
            // the next sync re-decompresses the full payload.
            let synced = match work {
                SyncWork::Current => true,
                SyncWork::Delta(steps) => qs.filters.get_mut(pid).is_some_and(|v| {
                    let applied = steps.iter().all(|d| d.diff.apply_in_place(&mut v.filter));
                    v.version = *version;
                    applied
                }),
                SyncWork::Full(b) => b.decompress().is_some_and(|filter| {
                    let version = *version;
                    qs.filters.insert(*pid, VersionedFilter { version, filter });
                    true
                }),
            };
            if !synced {
                qs.filters.remove(pid);
            }
        }
        qs.filters.retain(|pid, _| {
            snapshot
                .binary_search_by_key(pid, |(p, _, _, _)| *p)
                .is_ok()
        });
        let owners: Vec<(PeerId, String, PeerVersion)> = snapshot
            .into_iter()
            .filter(|(pid, _, _, _)| qs.filters.contains_key(pid))
            .map(|(pid, addr, version, _)| (pid, addr, version))
            .collect();
        (qs, owners)
    }

    /// Dispatch one group of search contacts: every remote member goes
    /// to the worker pool concurrently under the fan-out deadline,
    /// while local / backed-off members are classified for the caller
    /// to merge. Returns per-member slots plus the replies indexed by
    /// [`GroupSlot::Remote`].
    fn dispatch_group(
        &self,
        members: &[(PeerId, &str)],
        request: &LiveMsg,
    ) -> (Vec<GroupSlot>, Vec<Option<io::Result<LiveMsg>>>) {
        // The schedule is the configured retry policy, but it must
        // conclude — retries included — within the fan-out deadline, so
        // one straggler cannot hold its whole group hostage.
        let fanout = &self.config.fanout;
        let shape = CallShape {
            deadline: Some(
                fanout
                    .contact_deadline
                    .unwrap_or_else(|| self.contact_budget()),
            ),
            ..self.retrying(request, self.config.io_timeout)
        };
        let mut slots = Vec::with_capacity(members.len());
        let mut jobs: Vec<ScopedJob<'_, io::Result<LiveMsg>>> = Vec::new();
        for &(pid, addr) in members {
            if pid == self.id {
                slots.push(GroupSlot::Local);
            } else if self.in_backoff(pid) {
                slots.push(GroupSlot::Skipped);
            } else if self.busy_throttled(pid) {
                // The peer shed us with `Busy` recently: mostly leave
                // it alone this round instead of re-saturating it.
                slots.push(GroupSlot::Shed);
                self.stats.busy_throttled_peers.inc();
            } else {
                slots.push(GroupSlot::Remote(jobs.len()));
                jobs.push(Box::new(move || self.rpc(pid, addr, request, shape)));
            }
        }
        if jobs.is_empty() {
            // Nothing was dispatched (all local or skipped): a ~0 ms
            // sample here would skew the fan-out histogram and the
            // group counter the bench figures read.
            return (slots, Vec::new());
        }
        // The shared worker pool is spun up on first use, so nodes that
        // never search never pay for the threads.
        let pool = self
            .query
            .pool
            .get_or_init(|| WorkerPool::in_registry(fanout.pool_threads, &self.stats.registry));
        let started = Instant::now();
        let replies = pool.run_all(jobs);
        self.stats.search_groups.inc();
        self.stats
            .search_fanout_ms
            .observe(started.elapsed().as_millis() as u64);
        (slots, replies)
    }

    /// Account one fan-out slot in `coverage` and hand back its
    /// documents if the peer answered: the local store's for this
    /// node's own slot, the reply's if it is the response `query`
    /// expects. A `Busy` reply is shed, not failed — the peer is alive
    /// but overloaded, and health was already fed by the RPC layer.
    fn classify(
        &self,
        peer: PeerId,
        slot: GroupSlot,
        replies: &mut [Option<io::Result<LiveMsg>>],
        query: LocalQuery<'_>,
        coverage: &mut SearchCoverage,
    ) -> Option<Vec<SearchDoc>> {
        let reply = match slot {
            GroupSlot::Local => {
                coverage.peers_contacted += 1;
                return Some(self.local_docs(query));
            }
            GroupSlot::Skipped => {
                coverage.peers_skipped += 1;
                self.stats.contacts_skipped.inc();
                return None;
            }
            GroupSlot::Shed => {
                coverage.peers_shed += 1;
                return None;
            }
            GroupSlot::Remote(i) => replies[i].take(),
        };
        let docs = match (reply, query) {
            (Some(Ok(LiveMsg::SearchResponse { docs })), LocalQuery::Ranked(..)) => docs,
            (Some(Ok(LiveMsg::ExhaustiveResponse { mut docs })), LocalQuery::Conjunction(_)) => {
                // Conjunction hits are unranked: whatever score a
                // remote peer shipped must not order them.
                docs.iter_mut().for_each(|d| d.score = 0.0);
                docs
            }
            (Some(Ok(LiveMsg::Busy { .. })), _) => {
                coverage.peers_shed += 1;
                return None;
            }
            (other, _) => {
                if let Some(Ok(msg)) = other {
                    self.stats.unexpected_replies.inc();
                    debug_log!(
                        "planetp[{}]: unexpected search reply from peer {peer}: {msg:?}",
                        self.id
                    );
                }
                coverage.peers_failed += 1;
                return None;
            }
        };
        coverage.peers_contacted += 1;
        Some(docs)
    }

    /// Walk `order` in groups of `group_size`: each group is contacted
    /// simultaneously on the worker pool (§5.2's "groups of m peers"),
    /// replies are merged back in order, and with `stop = Some((k,
    /// patience))` §5.2's adaptive stopping is evaluated per answering
    /// peer exactly as in the sequential walk (`group_size = 1`
    /// reproduces it contact for contact). Stopping mid-group abandons
    /// only the not-yet-merged replies of that group — coverage counts
    /// attempts, and every attempt was already in flight. Returns the
    /// merged result and whether the walk stopped early.
    ///
    /// Degrades gracefully: dead peers are skipped or cut off at the
    /// deadline, the order keeps draining, and the coverage summary
    /// accounts for every peer the search attempted.
    fn fan_out(
        &self,
        order: &[(PeerId, &str)],
        considered: usize,
        group_size: usize,
        request: &LiveMsg,
        query: LocalQuery<'_>,
        stop: Option<(usize, usize)>,
    ) -> (LiveSearchResult, bool) {
        let (k, patience) = stop.unwrap_or((usize::MAX, usize::MAX));
        let mut coverage = SearchCoverage {
            peers_considered: considered,
            recovering: self.is_recovering(),
            ..SearchCoverage::default()
        };
        let mut merge = Merge::new(k);
        let mut dry = 0usize;
        let mut stopped_early = false;
        'groups: for group in order.chunks(group_size.max(1)) {
            let (slots, mut replies) = self.dispatch_group(group, request);
            for (&(peer, _), slot) in group.iter().zip(slots) {
                let Some(docs) = self.classify(peer, slot, &mut replies, query, &mut coverage)
                else {
                    continue;
                };
                let mut contributed = false;
                for sd in docs {
                    // A corrupt or hostile peer could ship NaN/infinite
                    // scores; drop them instead of letting them poison
                    // the ranking.
                    if !sd.score.is_finite() {
                        debug_log!(
                            "planetp[{}]: dropped non-finite score from peer {peer}",
                            self.id
                        );
                        continue;
                    }
                    contributed |= merge.offer(LiveHit {
                        peer,
                        doc: sd.doc,
                        score: sd.score,
                        hash: sd.hash,
                        replica_of: sd.replica_of,
                        xml: sd.xml,
                    });
                }
                dry = if contributed { 0 } else { dry + 1 };
                if merge.hits.len() >= k && dry >= patience {
                    stopped_early = true;
                    break 'groups;
                }
            }
        }
        let (hits, recovered, dup_collapsed) = merge.finish();
        coverage.recovered_via_replicas = recovered;
        self.stats.replica_dup_collapsed.add(dup_collapsed);
        self.stats.replica_recovered_hits.add(recovered as u64);
        if !coverage.is_complete() {
            self.stats.searches_degraded.inc();
        }
        (LiveSearchResult { hits, coverage }, stopped_early)
    }

    /// Ranked TFxIPF search across the community in groups of
    /// `group_size` (shared by the node API and the proxy-search
    /// handler).
    pub(super) fn ranked_search(
        &self,
        raw_query: &str,
        k: usize,
        group_size: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        let q = parse_query(raw_query, &self.analyzer());
        if q.is_empty() {
            return Ok(LiveSearchResult {
                hits: Vec::new(),
                coverage: SearchCoverage::default(),
            });
        }
        self.stats.search_queries.inc();
        // Plan against the versioned mirror: decompression and IPF /
        // ranking work is paid only for peers whose gossiped state
        // changed since the last query, and every filter is borrowed —
        // nothing on this path clones a Bloom filter.
        let (plan, owners) = {
            let (mut qs, owners) = self.synced_query_state();
            let QueryState { filters, cache } = &mut *qs;
            let view: Vec<PeerFilterRef<'_>> = owners
                .iter()
                .map(|(pid, _, version)| PeerFilterRef {
                    id: u64::from(*pid),
                    version: *version,
                    filter: &filters[pid].filter,
                })
                .collect();
            (cache.plan(&q.terms, &view), owners)
        };
        let n = owners.len();
        let request = LiveMsg::SearchRequest {
            terms: q.terms.clone(),
            ipf: plan.ipf.to_pairs(),
            num_peers: n,
        };
        let order: Vec<(PeerId, &str)> = plan
            .ranked
            .iter()
            .map(|rp| (owners[rp.peer].0, owners[rp.peer].1.as_str()))
            .collect();
        let (result, stopped_early) = self.fan_out(
            &order,
            n,
            group_size,
            &request,
            LocalQuery::Ranked(&q.terms, &plan.ipf),
            Some((k, adaptive_p(n, k))),
        );
        // The paper's Fig 6 metric: how many peers the adaptive
        // stopping heuristic actually contacted, and whether it cut
        // the rank order short or drained it.
        self.stats
            .search_peers_contacted
            .add(result.coverage.peers_contacted as u64);
        if stopped_early {
            self.stats.search_stopped_early.inc();
        } else {
            self.stats.search_exhausted.inc();
        }
        Ok(result)
    }

    /// Exhaustive conjunction search (§5.1). Candidates come from the
    /// same versioned filter mirror as ranked search (hashing each
    /// query term once and probing every filter by precomputed hash),
    /// and all remote candidates are contacted in one parallel batch
    /// on the worker pool under the fan-out deadline.
    pub(super) fn exhaustive_search(
        &self,
        raw_query: &str,
    ) -> Result<LiveSearchResult, PlanetPError> {
        let q = parse_query(raw_query, &self.analyzer());
        if q.is_empty() {
            return Ok(LiveSearchResult {
                hits: Vec::new(),
                coverage: SearchCoverage::default(),
            });
        }
        let keys: Vec<HashedKey> = q.terms.iter().map(|t| HashedKey::new(t)).collect();
        let candidates: Vec<(PeerId, String)> = {
            let (qs, owners) = self.synced_query_state();
            owners
                .into_iter()
                .filter(|(pid, _, _)| qs.filters[pid].filter.count_hits_hashed(&keys) == keys.len())
                .map(|(pid, addr, _)| (pid, addr))
                .collect()
        };
        let request = LiveMsg::ExhaustiveRequest {
            terms: q.terms.clone(),
        };
        let order: Vec<(PeerId, &str)> = candidates
            .iter()
            .map(|(pid, addr)| (*pid, addr.as_str()))
            .collect();
        let (result, _) = self.fan_out(
            &order,
            order.len(),
            order.len(),
            &request,
            LocalQuery::Conjunction(&q.terms),
            None,
        );
        Ok(result)
    }

    /// Ask `proxy` to run the ranked search on our behalf — the §7.2
    /// "proxy search" extension for bandwidth-limited peers.
    pub(super) fn search_via_proxy(
        &self,
        proxy: PeerId,
        raw_query: &str,
        k: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        let request = LiveMsg::ProxySearchRequest {
            query: raw_query.to_string(),
            k,
        };
        // The proxy's fan-out is grouped but still bounded by a full
        // contact budget per candidate peer in the worst case
        // (parallelism only shrinks it); a flat `io_timeout` would
        // expire exactly when the proxy's fault tolerance is absorbing
        // dead peers. Our directory size is the best local estimate of
        // the proxy's candidate count.
        let peers = self.directory_len().max(1) as u32;
        let read_timeout = self.contact_budget() * peers + self.config.io_timeout;
        let LiveMsg::ProxySearchResponse { hits, coverage } =
            self.call(proxy, &request, read_timeout)?
        else {
            self.stats.unexpected_replies.inc();
            return Err(PlanetPError::Protocol("unexpected proxy reply".into()));
        };
        // The proxy is as untrusted as any remote peer: drop
        // non-finite scores (mirroring the fan-out's guard) and reject
        // coverage bookkeeping that cannot balance.
        if coverage.peers_attempted() > coverage.peers_considered {
            self.stats.unexpected_replies.inc();
            return Err(PlanetPError::Protocol(
                "proxy coverage bookkeeping does not balance".into(),
            ));
        }
        let hits: Vec<LiveHit> = hits
            .into_iter()
            .filter(|(_, _, score, _, _)| {
                if !score.is_finite() {
                    debug_log!(
                        "planetp[{}]: dropped non-finite score from proxy {proxy}",
                        self.id
                    );
                }
                score.is_finite()
            })
            .map(|(peer, doc, score, hash, xml)| LiveHit {
                peer,
                doc,
                score,
                hash,
                // The proxy already collapsed replica duplicates;
                // provenance is not re-derived through the narrow
                // proxy reply.
                replica_of: None,
                xml,
            })
            .collect();
        Ok(LiveSearchResult { hits, coverage })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(score: f64) -> LiveHit {
        LiveHit {
            peer: 1,
            doc: 0,
            score,
            hash: 0,
            replica_of: None,
            xml: String::new(),
        }
    }

    #[test]
    fn offer_hit_survives_nan_scores() {
        // A hostile peer ships NaN: insertion and eviction must not
        // panic (this used to hit `partial_cmp(...).expect(...)`).
        let mut top = vec![hit(1.0), hit(2.0)];
        assert!(offer_hit(&mut top, hit(f64::NAN), 2).is_none());
        let mut top = vec![hit(f64::NAN), hit(2.0)];
        assert!(offer_hit(&mut top, hit(3.0), 2).is_some());
        assert!(top.iter().any(|h| h.score == 3.0));
        // NaN never enters even a non-full list...
        let mut top = vec![hit(1.0)];
        assert!(offer_hit(&mut top, hit(f64::NAN), 2).is_none());
        assert_eq!(top.len(), 1);
        // ...and a NaN already present counts as minimal: any real
        // score evicts it, so it cannot pin itself at rank 1.
        let mut top = vec![hit(f64::NAN), hit(2.0)];
        assert!(offer_hit(&mut top, hit(1.0), 2).is_some());
        assert!(top.iter().all(|h| h.score.is_finite()));
    }

    #[test]
    fn nan_scores_sort_without_panicking() {
        let mut merge = Merge::new(4);
        merge.hits = [f64::NAN, 1.0, f64::NAN, 0.5].map(hit).into();
        assert_eq!(merge.finish().0.len(), 4);
    }

    /// The one duplicate rule. Same content, equal score, the replica
    /// holder answers before the home (equal rank, lower peer id): the
    /// hit must name the home, nothing was "recovered", and renaming
    /// the answering peer is not a contribution.
    #[test]
    fn duplicate_on_a_score_tie_prefers_the_home_copy() {
        let copy = |peer, replica_of, score| LiveHit {
            replica_of,
            hash: 42,
            ..LiveHit { peer, ..hit(score) }
        };
        for score in [0.0, 1.5] {
            let mut merge = Merge::new(10);
            assert!(merge.offer(copy(0, Some((1, 1)), score)));
            assert!(
                !merge.offer(copy(1, None, score)),
                "a tie contributes nothing"
            );
            // A second replica on the same tie does not displace the home.
            assert!(!merge.offer(copy(2, Some((1, 1)), score)));
            let (hits, recovered, dup_collapsed) = merge.finish();
            assert_eq!((hits.len(), hits[0].peer, hits[0].replica_of), (1, 1, None));
            assert_eq!((recovered, dup_collapsed), (0, 2));
        }
        // A strictly better-scored copy still wins, replica or not, and
        // a hit evicted from a full list is no longer a duplicate.
        let mut merge = Merge::new(1);
        assert!(merge.offer(copy(1, None, 1.0)));
        assert!(merge.offer(copy(0, Some((1, 1)), 2.0)));
        assert!(merge.offer(hit(3.0)));
        assert!(
            !merge.offer(copy(1, None, 2.5)),
            "below the cut, not a duplicate"
        );
        let (hits, recovered, dup_collapsed) = merge.finish();
        assert_eq!((hits.len(), hits[0].hash), (1, 0));
        assert_eq!((recovered, dup_collapsed), (0, 1));
    }
}
