//! What crosses the wire between live peers, how a node is configured,
//! and what a search hands back.

use planetp_bloom::{BloomDiff, CompressedBloom};
use planetp_bloomtree::TreeConfig;
use planetp_gossip::{GossipConfig, Message, Payload, PeerId};
use planetp_obs::MetricsSnapshot;
use planetp_replica::{ReplicaAd, ReplicaConfig, AD_WIRE_BYTES};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

use crate::admission::AdmissionConfig;
use crate::conn::ConnConfig;
use crate::durable::DurableConfig;
use crate::faults::FaultInjector;
use crate::health::{HealthConfig, RetryPolicy};
use crate::wire::Priority;

/// What a live peer gossips about itself: its address, its compressed
/// Bloom filter, and (when replication is on) its replication ad.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LivePayload {
    /// Socket address ("127.0.0.1:port").
    pub addr: String,
    /// Golomb-compressed filter summarizing the peer's vocabulary.
    pub bloom: CompressedBloom,
    /// Replication ad: spare capacity, claimed availability, hosted
    /// count. `None` when the peer does not replicate (and on payloads
    /// persisted before replication existed — serde default).
    #[serde(default)]
    pub replica: Option<ReplicaAd>,
}

/// The delta form of [`LivePayload`]: a [`BloomDiff`] between
/// consecutive filter versions plus the sender's current replication
/// ad. The address rides only in the full form — a receiver applying a
/// delta already knows it from its stored entry. The ad is tiny and
/// changes with nearly every accepted replica, so shipping it whole in
/// every delta is cheaper than diffing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveDelta {
    /// Filter change between the chained versions.
    pub diff: BloomDiff,
    /// The sender's replication ad as of this version.
    #[serde(default)]
    pub replica: Option<ReplicaAd>,
}

impl Payload for LivePayload {
    type Delta = LiveDelta;

    fn wire_bytes(&self) -> usize {
        6 + self.addr.len()
            + self.bloom.wire_bytes()
            + self.replica.map_or(1, |_| 1 + AD_WIRE_BYTES)
    }

    fn delta_wire_bytes(delta: &LiveDelta) -> usize {
        delta.diff.wire_bytes() + delta.replica.map_or(1, |_| 1 + AD_WIRE_BYTES)
    }

    fn apply_delta(&self, delta: &LiveDelta) -> Option<Self> {
        let bloom = self.bloom.apply_diff(&delta.diff)?;
        Some(LivePayload {
            addr: self.addr.clone(),
            bloom,
            // The delta's ad is authoritative: it is newer than ours.
            replica: delta.replica,
        })
    }
}

/// Everything that crosses the wire between live peers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LiveMsg {
    /// A gossip protocol message.
    Gossip {
        /// Sending peer.
        from: PeerId,
        /// The protocol message.
        msg: Message<LivePayload>,
    },
    /// Ranked-search RPC: score the local store with the given IPF view.
    SearchRequest {
        /// Analyzed query terms.
        terms: Vec<String>,
        /// The initiator's `(term, IPF)` view.
        ipf: Vec<(String, f64)>,
        /// Community size the IPF was computed over.
        num_peers: usize,
    },
    /// Reply: matching documents, scored under the initiator's IPF.
    SearchResponse {
        /// Matching documents.
        docs: Vec<SearchDoc>,
    },
    /// Exhaustive-search RPC: conjunction of analyzed terms.
    ExhaustiveRequest {
        /// Analyzed query terms.
        terms: Vec<String>,
    },
    /// Reply: documents containing every term (scores are zero).
    ExhaustiveResponse {
        /// Matching documents.
        docs: Vec<SearchDoc>,
    },
    /// Proxy search (§7.2 future work): a bandwidth-limited peer asks a
    /// well-connected one to run the whole ranked query on its behalf —
    /// the proxy fans out to the community and returns the final top-k.
    ProxySearchRequest {
        /// Raw query text (the proxy analyzes it with its own pipeline).
        query: String,
        /// Result-list size.
        k: usize,
    },
    /// Reply to `ProxySearchRequest`: `(peer, doc id, score, content
    /// hash, xml)` plus the proxy's view of how much of the community
    /// answered.
    ProxySearchResponse {
        /// Final ranked hits.
        hits: Vec<(PeerId, u64, f64, u64, String)>,
        /// Coverage of the proxy's fan-out.
        coverage: SearchCoverage,
    },
    /// Replication RPC: the sender asks the receiver to host a copy of
    /// one of its documents (availability repair, DESIGN.md §15).
    ReplicaPush {
        /// The document's home peer (the sender).
        home: PeerId,
        /// Its document id at the home peer.
        home_doc: u64,
        /// Content hash of `xml`; the receiver verifies it before
        /// paying any storage.
        hash: u64,
        /// The sender's hotness estimate, seeding the receiver's sketch
        /// so the fresh copy competes fairly in eviction.
        hotness: u64,
        /// The raw XML.
        xml: String,
    },
    /// Reply to `ReplicaPush`.
    ReplicaAccept {
        /// Echo of the pushed `home_doc`, correlating plan to outcome.
        home_doc: u64,
        /// Whether the receiver now hosts (or already hosted) the copy.
        accepted: bool,
    },
    /// `GetStats` RPC: ask a node for its unified metrics snapshot.
    /// Any client that speaks the framing can scrape any node (see
    /// [`scrape_stats`](super::scrape_stats) and the `planetp stats` subcommand).
    StatsRequest,
    /// Reply to `StatsRequest`.
    StatsResponse {
        /// Point-in-time copy of the node's metrics registry.
        snapshot: MetricsSnapshot,
    },
    /// Overload shed: the receiver refused to serve the request because
    /// its admission queue was full (DESIGN.md §16). Explicitly not a
    /// failure — the peer is alive and saying so — and never charged to
    /// the suspect/offline health machine.
    Busy {
        /// How long the sender should back off before retrying.
        retry_after_ms: u64,
        /// The priority class the request was classified (and shed)
        /// under.
        class: Priority,
    },
}

/// The admission class of a request message when its sender attached
/// no explicit [`FrameMeta`] (one-shot clients sending bare frames): searches
/// serve a waiting human, gossip and stats keep the community coherent,
/// replica pushes are deferrable background repair. Reply types never
/// pass admission on their own and default to Control.
pub(super) fn priority_of(msg: &LiveMsg) -> Priority {
    match msg {
        LiveMsg::SearchRequest { .. }
        | LiveMsg::ExhaustiveRequest { .. }
        | LiveMsg::ProxySearchRequest { .. } => Priority::Interactive,
        LiveMsg::ReplicaPush { .. } => Priority::Background,
        _ => Priority::Control,
    }
}

/// Clip a wall-clock budget to the wire header's u32 ms field. The
/// all-ones value is the "no deadline" sentinel, so the cap stays one
/// below it.
pub(super) fn budget_ms(d: Duration) -> u32 {
    d.as_millis().min(u128::from(u32::MAX - 1)) as u32
}

/// One document in a search reply, annotated for replica-aware
/// merging at the initiator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchDoc {
    /// Document id at the answering peer.
    pub doc: u64,
    /// TFxIPF score under the initiator's IPF view (0 for exhaustive).
    pub score: f64,
    /// Stable content hash; identical across every copy of the
    /// document, so initiators can collapse replica duplicates.
    pub hash: u64,
    /// `Some((home, home_doc))` when the answering peer holds this
    /// document as a replica for another peer.
    pub replica_of: Option<(PeerId, u64)>,
    /// The raw XML.
    pub xml: String,
}

/// Parallel fan-out settings for the search path — the paper's §5.2
/// rule of contacting the ranked candidates "in groups of m peers
/// simultaneously".
#[derive(Debug, Clone, Copy)]
pub struct FanoutConfig {
    /// Peers contacted concurrently per group (the paper's `m`). 1
    /// reproduces the strictly sequential rank-order walk.
    pub group_size: usize,
    /// Hard wall-clock budget for one peer contact, retries included,
    /// so one straggler cannot hold its whole group hostage. `None`
    /// derives the budget from the retry schedule (a worst-case connect
    /// and read per attempt, plus the backoff sleeps), which never gives
    /// up on a peer earlier than the sequential path would have.
    pub contact_deadline: Option<Duration>,
    /// Worker threads in the node's shared search pool. 0 runs every
    /// group on the calling thread (sequential but deterministic).
    pub pool_threads: usize,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        Self {
            group_size: 4,
            contact_deadline: None,
            pool_threads: 4,
        }
    }
}

/// Configuration of a live node.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Gossip protocol settings. Tests shrink `base_interval_ms` so
    /// convergence takes milliseconds instead of minutes.
    pub gossip: GossipConfig,
    /// Connect/read timeout for peer contacts.
    pub io_timeout: Duration,
    /// RNG seed for the gossip engine.
    pub seed: u64,
    /// Retry schedule for gossip sends and search RPCs.
    pub retry: RetryPolicy,
    /// Suspect/offline thresholds and probe backoff.
    pub health: HealthConfig,
    /// Parallel group fan-out for search contacts.
    pub fanout: FanoutConfig,
    /// Bloofi front end for the query cache: on a term-cache miss only
    /// tree-surviving candidate filters are probed instead of every
    /// peer's. `None` restores the flat scan. The default tree lives in
    /// the paper's filter bit space, which every live peer publishes
    /// in, so all peers become bit-copy leaves and plans are unchanged
    /// bit for bit.
    pub bloom_tree: Option<TreeConfig>,
    /// Optional fault injector wrapping all socket I/O (tests; chaos
    /// runs). `None` costs one pointer check per operation.
    pub faults: Option<Arc<FaultInjector>>,
    /// Durable snapshot + WAL store for crash-restart recovery. `None`
    /// keeps the node fully in-memory (a crash loses everything, as
    /// before). With a data directory set, identity, documents, the
    /// node's own version pair, and the learned directory survive a
    /// kill, and startup runs recovery + an anti-entropy catch-up.
    pub durable: Option<DurableConfig>,
    /// Persistent connection pool (one multiplexed stream per peer
    /// for gossip and RPCs alike, `TCP_NODELAY`, the server's idle
    /// horizon). `conn.enabled = false` restores connect-per-contact.
    pub conn: ConnConfig,
    /// Availability-aware autonomous replication (DESIGN.md §15). Off
    /// by default: the node neither advertises capacity nor pushes or
    /// accepts replicas, preserving the paper's one-copy behavior.
    pub replica: ReplicaConfig,
    /// Overload protection (DESIGN.md §16): a bounded, class-aware
    /// admission gate in front of frame service. Under saturation
    /// the lowest class queued is shed first — with an explicit `Busy`
    /// reply, never a silent timeout — and frames whose propagated
    /// deadline already passed are dropped unserved.
    pub admission: AdmissionConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            gossip: GossipConfig::default(),
            io_timeout: Duration::from_secs(5),
            seed: 1,
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
            fanout: FanoutConfig::default(),
            bloom_tree: Some(TreeConfig::default()),
            faults: None,
            durable: None,
            conn: ConnConfig::default(),
            replica: ReplicaConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// How much of the community a search actually reached.
///
/// `peers_considered` is every directory entry whose filter made it a
/// candidate; of those, the adaptive stopping heuristic decides how
/// many to *attempt*. Every attempt lands in exactly one of
/// `peers_contacted` (answered), `peers_failed` (transport or protocol
/// error after retries), `peers_skipped` (known-offline, inside its
/// probe backoff — not even tried), or `peers_shed` (overloaded: the
/// peer answered `Busy`, or the client-side busy throttle skipped it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchCoverage {
    /// Candidate peers for the query (including this node).
    pub peers_considered: usize,
    /// Peers that answered (including this node's local store).
    pub peers_contacted: usize,
    /// Peers that failed after exhausting the retry budget.
    pub peers_failed: usize,
    /// Peers skipped because they were offline and inside backoff.
    pub peers_skipped: usize,
    /// Peers that shed the contact under overload: they replied `Busy`,
    /// or the client-side busy throttle skipped them for this round.
    /// Unlike `peers_failed`, these are alive — their absence is load
    /// shedding, not death — and they are never charged to peer health.
    #[serde(default)]
    pub peers_shed: usize,
    /// Was this node still catching up after a crash-restart when it
    /// answered? A recovering node plans against its *persisted*
    /// directory, which may trail the community until the first
    /// anti-entropy exchange completes.
    #[serde(default)]
    pub recovering: bool,
    /// Result-list entries only reachable through a replica: their
    /// content hash never appeared in any non-replica reply (typically
    /// because the home peer is offline). Nonzero means replication
    /// actively widened this search's coverage.
    #[serde(default)]
    pub recovered_via_replicas: usize,
}

impl SearchCoverage {
    /// Peers the search tried (or deliberately skipped as dead or
    /// overloaded).
    pub fn peers_attempted(&self) -> usize {
        self.peers_contacted + self.peers_failed + self.peers_skipped + self.peers_shed
    }

    /// Fraction of attempted peers that answered, in `[0, 1]`. A
    /// search that attempted nobody (empty community, empty query)
    /// counts as fully covered.
    pub fn coverage_fraction(&self) -> f64 {
        let attempted = self.peers_attempted();
        if attempted == 0 {
            1.0
        } else {
            self.peers_contacted as f64 / attempted as f64
        }
    }

    /// Did every attempted peer answer?
    pub fn is_complete(&self) -> bool {
        self.peers_failed == 0 && self.peers_skipped == 0 && self.peers_shed == 0
    }
}

/// A search result plus the coverage it was computed over.
#[derive(Debug, Clone)]
pub struct LiveSearchResult {
    /// Ranked hits (score-descending for ranked search).
    pub hits: Vec<LiveHit>,
    /// How much of the community answered.
    pub coverage: SearchCoverage,
}

/// One ranked hit from a live search.
#[derive(Debug, Clone)]
pub struct LiveHit {
    /// Peer that answered with this copy (the home peer, or a replica
    /// holder — see [`LiveHit::replica_of`]).
    pub peer: PeerId,
    /// Document id on that peer.
    pub doc: u64,
    /// TFxIPF score.
    pub score: f64,
    /// Stable content hash (replica duplicates were collapsed on it).
    pub hash: u64,
    /// `Some((home, home_doc))` when the answering peer holds this
    /// document as a replica for an (often offline) home peer.
    pub replica_of: Option<(PeerId, u64)>,
    /// Document XML.
    pub xml: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_fraction_accounts_every_attempt() {
        let c = SearchCoverage {
            peers_considered: 10,
            peers_contacted: 6,
            peers_failed: 2,
            peers_skipped: 1,
            peers_shed: 1,
            recovering: false,
            recovered_via_replicas: 0,
        };
        assert_eq!(c.peers_attempted(), 10);
        assert!((c.coverage_fraction() - 0.6).abs() < 1e-9);
        assert!(!c.is_complete());
        // A shed peer alone keeps coverage honest: the search did not
        // hear from everyone it wanted to.
        let shed_only = SearchCoverage {
            peers_considered: 2,
            peers_contacted: 1,
            peers_shed: 1,
            ..SearchCoverage::default()
        };
        assert!(!shed_only.is_complete());
        let empty = SearchCoverage::default();
        assert_eq!(empty.coverage_fraction(), 1.0);
        assert!(empty.is_complete());
    }
}
