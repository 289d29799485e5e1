//! The live TCP runtime.
//!
//! Each [`LiveNode`] is one real peer: a TCP listener, a gossip loop
//! thread running a [`GossipEngine`] over compressed Bloom filters, a
//! local data store, and RPC handlers for ranked and exhaustive search.
//! This is the analog of the paper's Java prototype, used to validate
//! that the protocol converges over real sockets (the paper validated
//! its simulator against a 200-peer cluster deployment the same way).
//!
//! Peer addresses ride inside the gossip payload: a peer's
//! [`LivePayload`] carries its socket address next to its compressed
//! filter, so learning of a peer via gossip also teaches how to reach
//! it.
//!
//! ## Failure model
//!
//! The runtime assumes peers fail: connections are refused, frames
//! arrive truncated or corrupt, replies never come. Three layers deal
//! with this (see `DESIGN.md` §8):
//!
//! - every logical contact (a gossip exchange, a search RPC) retries
//!   with capped exponential backoff ([`RetryPolicy`]);
//! - a per-peer [`PeerHealth`] table turns *consecutive* exhausted
//!   contacts into `Healthy → Suspect → Offline` transitions; only the
//!   offline transition feeds the gossip directory's offline marking
//!   (the paper's §3 rule), and offline peers are skipped until their
//!   backoff expires;
//! - searches degrade gracefully: dead peers are skipped after bounded
//!   retries, the rank order keeps draining, and every result carries
//!   a [`SearchCoverage`] saying how much of the community actually
//!   answered.
//!
//! A [`FaultInjector`] can be plugged into [`LiveConfig`] to exercise
//! all of it deterministically (`crates/core/tests/live_faults.rs`).

use parking_lot::{Mutex, MutexGuard};
use planetp_bloom::{BloomDiff, BloomFilter, CompressedBloom, HashedKey};
use planetp_bloomtree::{TreeConfig, TreeMetrics};
use planetp_gossip::{
    DirEntry, Directory, EngineStats, GossipConfig, GossipEngine, Message, Payload, PeerId,
    PeerStatus, SpeedClass,
};
use planetp_obs::{
    names, Counter, Gauge, Histogram, MetricsSnapshot, Registry, LATENCY_MS_BUCKETS,
    SIZE_BYTES_BUCKETS,
};
use planetp_search::{
    adaptive_p, IpfTable, PeerFilterRef, PeerVersion, QueryCache, QueryCacheMetrics,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use planetp_replica::{
    AdmitDecision, HostedReplica, OwnDoc, PeerView, ReplicaAd, ReplicaConfig, ReplicaEngine,
    ReplicaMetrics, AD_WIRE_BYTES,
};

use crate::admission::{Admission, AdmissionConfig, AdmissionGate};
use crate::conn::{is_connection_level, ConnConfig, ConnMetrics, ConnPool, RpcConnInfo};
use crate::datastore::{content_hash, LocalDataStore};
use crate::durable::{DurableConfig, DurableStore, StoreMetrics, WalRecord};
use crate::error::PlanetPError;
use crate::faults::{Direction, FaultInjector};
use crate::health::{splitmix64, HealthConfig, PeerHealth, PeerHealthEntry, RetryPolicy};
use crate::pool::{ScopedJob, WorkerPool};
use crate::query::parse_query;
use crate::wire::{Frame, FrameMeta, Priority};

/// Is `PLANETP_DEBUG` set? Gates the runtime's debug-level logging of
/// swallowed protocol errors (stderr; no logging dependency).
fn debug_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("PLANETP_DEBUG").is_some())
}

macro_rules! debug_log {
    ($($arg:tt)*) => {
        if debug_enabled() {
            eprintln!($($arg)*);
        }
    };
}

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
    /// [`scrape_stats`] and the `planetp stats` subcommand).
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
/// no explicit [`FrameMeta`] (one-shot clients, gossip streams): searches
/// serve a waiting human, gossip and stats keep the community coherent,
/// replica pushes are deferrable background repair. Reply types never
/// pass admission on their own and default to Control.
fn priority_of(msg: &LiveMsg) -> Priority {
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
fn budget_ms(d: Duration) -> u32 {
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
    /// derives the budget from the retry schedule (worst-case connect
    /// + read per attempt plus backoff sleeps), which never gives up
    /// on a peer earlier than the sequential path would have.
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
    /// Persistent connection pool (keep-alive gossip streams, one
    /// multiplexed RPC stream per peer, `TCP_NODELAY`, bounded server
    /// workers). `conn.enabled = false` restores connect-per-contact.
    pub conn: ConnConfig,
    /// Availability-aware autonomous replication (DESIGN.md §15). Off
    /// by default: the node neither advertises capacity nor pushes or
    /// accepts replicas, preserving the paper's one-copy behavior.
    pub replica: ReplicaConfig,
    /// Overload protection (DESIGN.md §16): a bounded, class-aware
    /// admission gate in front of the server workers. Under saturation
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

/// Node-level counters and histograms. Every field is a handle into the
/// node's unified [`Registry`] — the same registry the gossip engine
/// records into once attached — so one [`MetricsSnapshot`] covers the
/// whole node. [`NodeStatsSnapshot`] remains as a thin compatibility
/// view over the failure counters.
#[derive(Debug)]
struct NodeStats {
    registry: Registry,
    malformed_frames: Counter,
    reply_failures: Counter,
    rpc_retries: Counter,
    rpc_failures: Counter,
    gossip_retries: Counter,
    gossip_failures: Counter,
    contacts_skipped: Counter,
    unexpected_replies: Counter,
    peers_marked_offline: Counter,
    peers_recovered: Counter,
    searches_degraded: Counter,
    health_suspects: Counter,
    bytes_out: Counter,
    bytes_in: Counter,
    frames_out: Counter,
    frames_in: Counter,
    rpc_latency_ms: Histogram,
    gossip_exchange_ms: Histogram,
    search_queries: Counter,
    search_peers_contacted: Counter,
    search_stopped_early: Counter,
    search_exhausted: Counter,
    search_groups: Counter,
    search_fanout_ms: Histogram,
    bloom_wire_bytes: Histogram,
    directory_size: Gauge,
    recovery_restarts: Counter,
    recovery_docs_restored: Counter,
    recovery_peers_restored: Counter,
    recovery_catchup_ms: Histogram,
    /// Initiator-side replica accounting. Registered on every node —
    /// even a node that hosts nothing collapses duplicates and counts
    /// recovered hits when *other* peers replicate.
    replica_dup_collapsed: Counter,
    replica_recovered_hits: Counter,
    /// Server-side admission gate accounting (DESIGN.md §16).
    admission_admitted: Counter,
    admission_shed: Counter,
    admission_expired: Counter,
    admission_queue_wait_ms: Histogram,
    /// `Busy` traffic: replies this node sent (as an overloaded
    /// server), received (as a client), and contacts the client-side
    /// busy throttle skipped.
    busy_sent: Counter,
    busy_received: Counter,
    busy_throttled_peers: Counter,
}

impl Default for NodeStats {
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

impl NodeStats {
    fn in_registry(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            malformed_frames: registry.counter("net.malformed_frames"),
            reply_failures: registry.counter("net.reply_failures"),
            rpc_retries: registry.counter(names::RPC_RETRIES),
            rpc_failures: registry.counter(names::RPC_FAILURES),
            gossip_retries: registry.counter("gossip.retries"),
            gossip_failures: registry.counter("gossip.failures"),
            contacts_skipped: registry.counter("health.contacts_skipped"),
            unexpected_replies: registry.counter("rpc.unexpected_replies"),
            peers_marked_offline: registry.counter(names::HEALTH_OFFLINE),
            peers_recovered: registry.counter(names::HEALTH_RECOVERIES),
            searches_degraded: registry.counter("search.degraded"),
            health_suspects: registry.counter(names::HEALTH_SUSPECTS),
            bytes_out: registry.counter(names::NET_BYTES_OUT),
            bytes_in: registry.counter(names::NET_BYTES_IN),
            frames_out: registry.counter(names::NET_FRAMES_OUT),
            frames_in: registry.counter(names::NET_FRAMES_IN),
            rpc_latency_ms: registry.histogram(names::RPC_LATENCY_MS, LATENCY_MS_BUCKETS),
            gossip_exchange_ms: registry.histogram(names::GOSSIP_EXCHANGE_MS, LATENCY_MS_BUCKETS),
            search_queries: registry.counter(names::SEARCH_QUERIES),
            search_peers_contacted: registry.counter(names::SEARCH_PEERS_CONTACTED),
            search_stopped_early: registry.counter(names::SEARCH_STOPPED_EARLY),
            search_exhausted: registry.counter(names::SEARCH_EXHAUSTED),
            search_groups: registry.counter(names::SEARCH_GROUPS),
            search_fanout_ms: registry.histogram(names::SEARCH_FANOUT_MS, LATENCY_MS_BUCKETS),
            bloom_wire_bytes: registry.histogram(names::BLOOM_WIRE_BYTES, SIZE_BYTES_BUCKETS),
            directory_size: registry.gauge("gossip.directory_size"),
            recovery_restarts: registry.counter(names::RECOVERY_RESTARTS),
            recovery_docs_restored: registry.counter(names::RECOVERY_DOCS_RESTORED),
            recovery_peers_restored: registry.counter(names::RECOVERY_PEERS_RESTORED),
            recovery_catchup_ms: registry.histogram(names::RECOVERY_CATCHUP_MS, LATENCY_MS_BUCKETS),
            replica_dup_collapsed: registry.counter(names::REPLICA_DUP_COLLAPSED),
            replica_recovered_hits: registry.counter(names::REPLICA_RECOVERED_HITS),
            admission_admitted: registry.counter(names::ADMISSION_ADMITTED),
            admission_shed: registry.counter(names::ADMISSION_SHED),
            admission_expired: registry.counter(names::ADMISSION_EXPIRED),
            admission_queue_wait_ms: registry
                .histogram(names::ADMISSION_QUEUE_WAIT_MS, LATENCY_MS_BUCKETS),
            busy_sent: registry.counter(names::BUSY_SENT),
            busy_received: registry.counter(names::BUSY_RECEIVED),
            busy_throttled_peers: registry.counter(names::BUSY_THROTTLED_PEERS),
        }
    }
}

/// Point-in-time copy of a node's failure counters — the live-runtime
/// complement of the gossip engine's
/// [`EngineStats`](planetp_gossip::EngineStats) protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Inbound frames that failed to parse or arrived truncated.
    pub malformed_frames: u64,
    /// Failed attempts to write a reply on an accepted connection.
    pub reply_failures: u64,
    /// Search RPC attempts retried after a transport error.
    pub rpc_retries: u64,
    /// Search RPCs that exhausted their retry budget.
    pub rpc_failures: u64,
    /// Gossip exchanges retried after a transport error.
    pub gossip_retries: u64,
    /// Gossip exchanges that exhausted their retry budget.
    pub gossip_failures: u64,
    /// Contacts skipped because the peer was offline and in backoff.
    pub contacts_skipped: u64,
    /// RPC replies whose type did not match the request.
    pub unexpected_replies: u64,
    /// Health transitions into Offline (fed back to the directory).
    pub peers_marked_offline: u64,
    /// Suspect/offline peers that answered again.
    pub peers_recovered: u64,
    /// Searches that returned with incomplete coverage.
    pub searches_degraded: u64,
    /// Is the node still catching up after a crash-restart (recovered
    /// state loaded, first anti-entropy exchange not yet completed)?
    pub recovering: bool,
}

impl NodeStats {
    fn snapshot(&self, recovering: bool) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            recovering,
            malformed_frames: self.malformed_frames.get(),
            reply_failures: self.reply_failures.get(),
            rpc_retries: self.rpc_retries.get(),
            rpc_failures: self.rpc_failures.get(),
            gossip_retries: self.gossip_retries.get(),
            gossip_failures: self.gossip_failures.get(),
            contacts_skipped: self.contacts_skipped.get(),
            unexpected_replies: self.unexpected_replies.get(),
            peers_marked_offline: self.peers_marked_offline.get(),
            peers_recovered: self.peers_recovered.get(),
            searches_degraded: self.searches_degraded.get(),
        }
    }
}

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

/// How one peer's mirrored filter gets brought up to date during a
/// [`Inner::synced_query_state`] sync.
enum SyncWork {
    /// Mirror already matches the directory version.
    Current,
    /// Toggle these diff steps into the mirrored filter in place —
    /// the delta-gossip fast path that skips re-decompressing the
    /// full 50 KB payload on every version bump.
    Delta(Vec<LiveDelta>),
    /// Decompress the full payload from scratch.
    Full(CompressedBloom),
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

/// One accepted connection as it cycles through the bounded server
/// worker pool (see [`Inner::serve_step`]).
struct ServerConn {
    stream: TcpStream,
    /// When to give up on an idle connection instead of requeueing it.
    idle_deadline: Instant,
    /// Inbound fault admission ran (it runs once, on first service).
    admitted: bool,
}

struct Inner {
    id: PeerId,
    addr: String,
    config: LiveConfig,
    engine: Mutex<GossipEngine<LivePayload>>,
    store: Mutex<LocalDataStore>,
    health: Mutex<PeerHealth>,
    stats: NodeStats,
    /// Fallback address book (bootstrap contact before its payload
    /// arrives).
    addr_book: Mutex<HashMap<PeerId, String>>,
    /// Decompressed-filter mirror + query cache (see [`QueryState`]).
    query_state: Mutex<QueryState>,
    /// The uncompressed local filter as of the last *gossiped*
    /// `bloom_version` — the diff base for delta publishes (§7.2).
    prev_bloom: Mutex<BloomFilter>,
    /// Shared search worker pool, spun up on the first query.
    pool: OnceLock<WorkerPool>,
    /// Persistent outbound connections (keep-alive gossip streams plus
    /// one multiplexed RPC stream per peer). `None` when pooling is
    /// disabled — every contact then connects and hangs up, as before.
    conns: Option<ConnPool<Vec<LiveMsg>>>,
    /// Bounded workers serving accepted connections (replaces the old
    /// thread-per-connection accept loop). Detached metrics: its queue
    /// gauge must not fight the search pool's `pool.queue_depth`.
    server_pool: WorkerPool,
    /// Class-aware admission gate the server workers pass before
    /// serving a frame (DESIGN.md §16).
    admission: AdmissionGate,
    /// Replication decision engine, when `config.replica.enabled`.
    /// Lock order: never held across the store lock — callers snapshot
    /// what they need (`origins()`, a plan) and drop it first.
    replica: Option<Mutex<ReplicaEngine>>,
    /// Snapshot + WAL store (crash-restart durability), when enabled.
    durable: Option<Mutex<DurableStore>>,
    /// Recovered from disk and not yet through the first successful
    /// anti-entropy exchange with the community.
    recovering: AtomicBool,
    /// When recovery finished loading state (feeds the catch-up
    /// histogram once the first exchange completes).
    recovered_at: Mutex<Option<Instant>>,
    epoch: Instant,
    shutdown: AtomicBool,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn resolve(&self, peer: PeerId) -> Option<String> {
        if let Some(e) = self.engine.lock().directory().get(peer) {
            if let Some(p) = &e.payload {
                return Some(p.addr.clone());
            }
        }
        self.addr_book.lock().get(&peer).cloned()
    }

    /// Announce a new version of the local filter to the community:
    /// the directory entry gets the full compressed payload (what
    /// anti-entropy and chain-break fallbacks ship), while the rumor
    /// path gets the diff from the previously gossiped version so the
    /// update travels as a delta chain ("PlanetP sends diffs of the
    /// Bloom filters to save bandwidth", §7.2).
    fn gossip_own_update(&self) {
        let new_filter = self.store.lock().bloom().clone();
        let replica = self.current_replica_ad();
        let payload = LivePayload {
            addr: self.addr.clone(),
            bloom: CompressedBloom::compress_observed(&new_filter, &self.stats.bloom_wire_bytes),
            replica,
        };
        let mut prev = self.prev_bloom.lock();
        let mut engine = self.engine.lock();
        if prev.params() == new_filter.params() {
            let diff =
                BloomDiff::between_observed(&prev, &new_filter, &self.stats.bloom_wire_bytes);
            engine.local_update_delta(payload, LiveDelta { diff, replica });
        } else {
            // A filter rebuild changed the parameters: no meaningful
            // diff exists, gossip the full payload.
            engine.local_update(payload);
        }
        *prev = new_filter;
    }

    /// The replication ad this node currently gossips; `None` when
    /// replication is off.
    fn current_replica_ad(&self) -> Option<ReplicaAd> {
        self.replica.as_ref().map(|r| r.lock().local_ad())
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::Relaxed)
    }

    /// Append one record to the durable store, if enabled. The error is
    /// surfaced so the publish path can report an (injected or real)
    /// crash; the store poisons itself on failure, so later appends are
    /// refused like writes from a dead process.
    fn durable_append(&self, rec: WalRecord) -> io::Result<()> {
        match &self.durable {
            Some(d) => d.lock().append(rec),
            None => Ok(()),
        }
    }

    /// Persist the node's own `(status_version, bloom_version)` pair as
    /// currently announced by the gossip engine.
    fn persist_own_versions(&self) -> io::Result<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        let (sv, bv) = {
            let engine = self.engine.lock();
            let e = engine.directory().get(self.id).expect("self entry");
            (e.status_version, e.bloom_version)
        };
        self.durable_append(WalRecord::OwnVersions {
            status_version: sv,
            bloom_version: bv,
        })
    }

    /// Persist directory deltas: peers whose gossiped versions advanced
    /// past the stored copy, and peers that departed. Runs on the
    /// gossip loop after each tick; errors poison the store and are
    /// logged, not propagated (the loop must keep gossiping).
    fn persist_directory(&self) {
        let Some(d) = &self.durable else { return };
        let snapshot: Vec<(PeerId, u64, u32, Option<LivePayload>)> = {
            let engine = self.engine.lock();
            engine
                .directory()
                .iter()
                .map(|(pid, e)| (pid, e.status_version, e.bloom_version, e.payload.clone()))
                .collect()
        };
        let mut store = d.lock();
        if store.poisoned() {
            return;
        }
        if let Err(e) = store.sync_directory(&snapshot) {
            debug_log!(
                "planetp[{}]: failed to persist directory delta: {e}",
                self.id
            );
        }
    }

    /// The first successful gossip exchange after a recovered startup
    /// completes the anti-entropy catch-up: leave the recovering state
    /// and record how long the node served with a possibly-trailing
    /// directory.
    fn note_catchup_complete(&self) {
        if self.recovering.swap(false, Ordering::Relaxed) {
            if let Some(at) = self.recovered_at.lock().take() {
                self.stats
                    .recovery_catchup_ms
                    .observe(at.elapsed().as_millis() as u64);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault-aware socket plumbing
    // ------------------------------------------------------------------

    /// Open an outbound connection with timeouts set (and outbound
    /// faults applied). Used by the connect-per-contact path when
    /// pooling is disabled; the pooled path connects via [`ConnPool`].
    fn connect(&self, addr: &str) -> io::Result<TcpStream> {
        if let Some(f) = &self.config.faults {
            f.admit(Direction::Outbound)?;
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        if self.config.conn.nodelay {
            let _ = stream.set_nodelay(true);
        }
        Ok(stream)
    }

    /// The injector and the direction it should judge, for the frame
    /// writer.
    fn faults(&self, dir: Direction) -> Option<(&FaultInjector, Direction)> {
        self.config.faults.as_deref().map(|f| (f, dir))
    }

    fn send(&self, dir: Direction, stream: &mut TcpStream, batch: &[LiveMsg]) -> io::Result<()> {
        let wire_bytes = crate::wire::send_frame(stream, None, None, batch, self.faults(dir))?;
        self.stats.bytes_out.add(wire_bytes as u64);
        self.stats.frames_out.inc();
        Ok(())
    }

    fn recv(&self, dir: Direction, stream: &mut TcpStream) -> io::Result<Option<Vec<LiveMsg>>> {
        if let Some(f) = &self.config.faults {
            f.delay(dir);
        }
        let got = crate::wire::read_any_frame_meta_sized::<Vec<LiveMsg>>(stream)?;
        Ok(got.map(|(frame, _, wire_bytes)| {
            self.stats.bytes_in.add(wire_bytes as u64);
            self.stats.frames_in.inc();
            frame.into_value()
        }))
    }

    // ------------------------------------------------------------------
    // Health bookkeeping
    // ------------------------------------------------------------------

    /// A logical contact with `peer` succeeded after `latency`.
    fn note_contact_ok(&self, peer: PeerId, latency: Duration) {
        let t = {
            let mut h = self.health.lock();
            h.record_success(peer, self.now_ms(), latency.as_secs_f64() * 1_000.0)
        };
        if t.recovered() {
            self.stats.peers_recovered.inc();
            self.engine.lock().on_contact_recovered(peer);
        }
    }

    /// A logical contact with `peer` failed after exhausting retries.
    /// The suspect phase only counts; crossing the offline threshold
    /// feeds back into the gossip directory's offline marking so the
    /// peer stops being gossiped to as reachable (§3).
    fn note_contact_failed(&self, peer: PeerId, err: &io::Error) {
        let now = self.now_ms();
        let t = {
            let mut h = self.health.lock();
            h.record_failure(peer, now)
        };
        let mut engine = self.engine.lock();
        if t.became_offline() {
            self.stats.peers_marked_offline.inc();
            engine.on_contact_failed(peer, now);
        } else {
            if t.from != t.to {
                // A fresh Healthy -> Suspect transition (repeat
                // failures while already Suspect don't re-count).
                self.stats.health_suspects.inc();
            }
            engine.note_contact_suspect(peer);
        }
        debug_log!(
            "planetp[{}]: contact with peer {peer} failed ({err}); state {:?} -> {:?}",
            self.id,
            t.from,
            t.to
        );
    }

    /// Is `peer` offline and still inside its probe backoff?
    fn in_backoff(&self, peer: PeerId) -> bool {
        self.health.lock().should_skip(peer, self.now_ms())
    }

    /// `peer` answered `Busy`: feed the client-side throttle. Exactly
    /// like PR 7's stale reconnects, this is *not* a failure — the peer
    /// proved it is alive — so the suspect/offline machine and the
    /// retry budget are never charged.
    fn note_peer_busy(&self, peer: PeerId, retry_after_ms: u64) {
        self.stats.busy_received.inc();
        self.health
            .lock()
            .record_busy(peer, self.now_ms(), retry_after_ms);
    }

    /// Should this round probabilistically skip `peer` because it
    /// recently shed us with `Busy`? The salt folds in the current
    /// clock so each round re-rolls — a throttled peer is *mostly*
    /// skipped, not blacklisted.
    fn busy_throttled(&self, peer: PeerId) -> bool {
        let now = self.now_ms();
        let salt = splitmix64((u64::from(self.id) << 40) ^ now);
        self.health.lock().busy_throttled(peer, now, salt)
    }

    // ------------------------------------------------------------------
    // Gossip transport
    // ------------------------------------------------------------------

    /// Run one half of a gossip conversation over an open stream:
    /// handle `msg`, write back our responses, and keep alternating
    /// until either side has nothing more to say.
    fn converse(
        &self,
        stream: &mut TcpStream,
        from: PeerId,
        msg: Message<LivePayload>,
    ) -> io::Result<()> {
        let mut responses = self.engine.lock().handle_message(from, msg, self.now_ms());
        loop {
            let batch: Vec<LiveMsg> = responses
                .drain(..)
                .map(|(_, m)| LiveMsg::Gossip {
                    from: self.id,
                    msg: m,
                })
                .collect();
            let done = batch.is_empty();
            self.send(Direction::Inbound, stream, &batch)?;
            if done {
                return Ok(());
            }
            let Some(reply) = self.recv(Direction::Inbound, stream)? else {
                return Ok(());
            };
            if reply.is_empty() {
                return Ok(());
            }
            for m in reply {
                if let LiveMsg::Gossip { from, msg } = m {
                    responses.extend(self.engine.lock().handle_message(from, msg, self.now_ms()));
                }
            }
        }
    }

    /// The initiator's half of a gossip conversation over an open
    /// stream. A conversation ends at a clean frame boundary (one side
    /// sends an empty batch and the other reads it), which is what
    /// makes the stream reusable for the next round.
    ///
    /// `reused` marks a keep-alive stream from the pool: end-of-stream
    /// before the first reply then means the peer silently dropped its
    /// end while the stream idled, and is reported as a
    /// connection-level error so the caller can reconnect
    /// transparently. On a fresh stream it keeps its historical
    /// peer-hung-up-is-not-our-problem semantics.
    fn gossip_conversation(
        &self,
        stream: &mut TcpStream,
        msg: &Message<LivePayload>,
        reused: bool,
    ) -> io::Result<()> {
        self.send(
            Direction::Outbound,
            stream,
            &[LiveMsg::Gossip {
                from: self.id,
                msg: msg.clone(),
            }],
        )?;
        let mut first_reply = true;
        // Alternate until both sides go quiet.
        loop {
            let Some(batch) = self.recv(Direction::Outbound, stream)? else {
                if reused && first_reply {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "pooled stream closed before the first reply",
                    ));
                }
                return Ok(());
            };
            first_reply = false;
            if batch.is_empty() {
                return Ok(());
            }
            let mut responses = Vec::new();
            for m in batch {
                if let LiveMsg::Gossip { from, msg } = m {
                    responses.extend(self.engine.lock().handle_message(from, msg, self.now_ms()));
                }
            }
            let out: Vec<LiveMsg> = responses
                .into_iter()
                .map(|(_, m)| LiveMsg::Gossip {
                    from: self.id,
                    msg: m,
                })
                .collect();
            let done = out.is_empty();
            self.send(Direction::Outbound, stream, &out)?;
            if done {
                return Ok(());
            }
        }
    }

    /// One attempt at a full gossip exchange with `addr`. With pooling
    /// on, the stream comes from the keep-alive pool and goes back
    /// after a clean exchange; a connection-level failure on a reused
    /// stream is absorbed by one transparent fresh reconnect (counted
    /// as `conn.stale_reconnects`, never charged as a gossip retry).
    fn gossip_attempt(&self, addr: &str, msg: &Message<LivePayload>) -> io::Result<()> {
        let Some(pool) = &self.conns else {
            let mut stream = self.connect(addr)?;
            return self.gossip_conversation(&mut stream, msg, false);
        };
        let (mut stream, reused) = pool.checkout(addr)?;
        match self.gossip_conversation(&mut stream, msg, reused) {
            Ok(()) => {
                pool.check_in(addr, stream);
                Ok(())
            }
            Err(e) if reused && is_connection_level(&e) => {
                drop(stream);
                pool.note_stale_reconnect();
                let mut fresh = pool.checkout_fresh(addr)?;
                let res = self.gossip_conversation(&mut fresh, msg, false);
                if res.is_ok() {
                    pool.check_in(addr, fresh);
                }
                res
            }
            Err(e) => Err(e),
        }
    }

    /// Initiate a gossip exchange with `target`, retrying transient
    /// failures with capped exponential backoff before giving up and
    /// recording the failure.
    fn gossip_to(&self, target: PeerId, msg: Message<LivePayload>) {
        let Some(addr) = self.resolve(target) else {
            return;
        };
        if self.in_backoff(target) {
            self.stats.contacts_skipped.inc();
            return;
        }
        let salt = splitmix64((u64::from(self.id) << 32) | u64::from(target));
        let started = Instant::now();
        let mut result = self.gossip_attempt(&addr, &msg);
        let mut retry = 0u32;
        while result.is_err()
            && retry + 1 < self.config.retry.max_attempts.max(1)
            && !self.shutdown.load(Ordering::Relaxed)
        {
            retry += 1;
            self.stats.gossip_retries.inc();
            std::thread::sleep(self.config.retry.delay(retry, salt));
            result = self.gossip_attempt(&addr, &msg);
        }
        match result {
            Ok(()) => {
                self.stats
                    .gossip_exchange_ms
                    .observe(started.elapsed().as_millis() as u64);
                self.note_contact_ok(target, started.elapsed());
                self.note_catchup_complete();
            }
            Err(e) => {
                self.stats.gossip_failures.inc();
                self.note_contact_failed(target, &e);
            }
        }
    }

    // ------------------------------------------------------------------
    // Search RPCs
    // ------------------------------------------------------------------

    /// Worst-case wall clock for one logical peer contact under the
    /// retry schedule: each attempt can burn a connect plus a read
    /// timeout, with a capped backoff sleep before every retry.
    fn contact_budget(&self) -> Duration {
        let r = &self.config.retry;
        let attempts = u64::from(r.max_attempts.max(1));
        let per_attempt = 2 * self.config.io_timeout.as_millis() as u64;
        Duration::from_millis(attempts * per_attempt + (attempts - 1) * r.max_delay_ms)
    }

    /// Read deadline for a proxied search. The proxy's fan-out is
    /// grouped but still bounded by a full contact budget per
    /// candidate peer in the worst case (parallelism only shrinks it);
    /// a flat `io_timeout` would expire exactly when the proxy's fault
    /// tolerance is absorbing dead peers. Our directory size is the
    /// best local estimate of the proxy's candidate count.
    fn proxy_read_timeout(&self) -> Duration {
        let peers = self.engine.lock().directory().len().max(1) as u32;
        self.contact_budget() * peers + self.config.io_timeout
    }

    /// One synchronous RPC attempt (no retries). `read_timeout` sets
    /// the reply deadline — point RPCs use `io_timeout`, proxied
    /// searches a fan-out-sized budget.
    ///
    /// With pooling on, the request rides the peer's shared
    /// multiplexed stream under a correlation id; a stale pooled
    /// stream is replaced transparently inside the pool and reported
    /// via [`RpcConnInfo::stale_reconnect`] — the attempt still counts
    /// as a single success. Without pooling this is the original
    /// connect-send-read-hangup exchange (bare frames, which carry no
    /// metadata — the server then classifies by message type).
    ///
    /// `meta` attaches the request's deadline budget and priority class
    /// for the receiver's admission gate.
    fn rpc_once(
        &self,
        addr: &str,
        request: &LiveMsg,
        read_timeout: Duration,
        meta: Option<FrameMeta>,
    ) -> io::Result<(LiveMsg, RpcConnInfo)> {
        if let Some(pool) = &self.conns {
            let batch = vec![request.clone()];
            let (reply, info) = pool.rpc_with_meta(addr, &batch, read_timeout, meta)?;
            self.stats.bytes_out.add(info.bytes_out);
            self.stats.frames_out.inc();
            self.stats.bytes_in.add(info.bytes_in);
            self.stats.frames_in.inc();
            let msg = reply
                .into_iter()
                .next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty reply"))?;
            return Ok((msg, info));
        }
        let mut stream = self.connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        self.send(Direction::Outbound, &mut stream, &[request.clone()])?;
        let batch = self
            .recv(Direction::Outbound, &mut stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))?;
        batch
            .into_iter()
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty reply"))
            .map(|m| (m, RpcConnInfo::default()))
    }

    /// A search RPC to `peer` with the configured retry schedule;
    /// records health on the final outcome. Each attempt propagates its
    /// read timeout as the frame's deadline budget, so an overloaded
    /// receiver can drop the request once we have stopped listening. A
    /// `Busy` reply ends the schedule immediately — retrying into a
    /// queue that just shed us only deepens the overload — and is
    /// returned as a *successful* reply for the caller to classify.
    fn rpc_with_retry(
        &self,
        peer: PeerId,
        addr: &str,
        request: &LiveMsg,
        read_timeout: Duration,
    ) -> io::Result<LiveMsg> {
        let salt = splitmix64((u64::from(self.id) << 33) ^ u64::from(peer));
        let started = Instant::now();
        let meta = FrameMeta::with_deadline(priority_of(request), budget_ms(read_timeout));
        let mut last_err = None;
        for retry in 0..self.config.retry.max_attempts.max(1) {
            if retry > 0 {
                self.stats.rpc_retries.inc();
                std::thread::sleep(self.config.retry.delay(retry, salt));
            }
            let attempt_started = Instant::now();
            match self.rpc_once(addr, request, read_timeout, Some(meta)) {
                Ok((
                    LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    },
                    _,
                )) => {
                    self.note_peer_busy(peer, retry_after_ms);
                    return Ok(LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    });
                }
                Ok((reply, info)) => {
                    // Latency of the attempt that succeeded, not of
                    // the whole retry schedule (backoff sleeps would
                    // swamp the histogram).
                    self.stats
                        .rpc_latency_ms
                        .observe(attempt_started.elapsed().as_millis() as u64);
                    if info.stale_reconnect {
                        // The pool replaced a stale keep-alive stream
                        // under us: diagnostic only, never a failure.
                        self.health.lock().record_stale_reconnect(peer);
                    }
                    self.note_contact_ok(peer, started.elapsed());
                    return Ok(reply);
                }
                Err(e) => last_err = Some(e),
            }
        }
        let err = last_err.unwrap_or_else(|| io::Error::other("no attempts"));
        self.stats.rpc_failures.inc();
        self.note_contact_failed(peer, &err);
        Err(err)
    }

    /// A search RPC to `peer` that must conclude — retries included —
    /// within `deadline`. The schedule is the configured retry policy,
    /// but a retry runs only if its backoff sleep still fits inside
    /// the deadline, and each attempt's read timeout is clipped to the
    /// time remaining. Health and stats are recorded on the final
    /// outcome exactly as in [`Self::rpc_with_retry`].
    fn rpc_with_deadline(
        &self,
        peer: PeerId,
        addr: &str,
        request: &LiveMsg,
        deadline: Duration,
    ) -> io::Result<LiveMsg> {
        let salt = splitmix64((u64::from(self.id) << 33) ^ u64::from(peer));
        let started = Instant::now();
        let mut last_err = None;
        for retry in 0..self.config.retry.max_attempts.max(1) {
            if retry > 0 {
                let delay = self.config.retry.delay(retry, salt);
                if started.elapsed() + delay >= deadline {
                    break;
                }
                self.stats.rpc_retries.inc();
                std::thread::sleep(delay);
            }
            let remaining = deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                break;
            }
            let attempt_timeout = remaining.min(self.config.io_timeout);
            // The remaining budget rides the frame header: a receiver
            // that cannot serve before it passes drops the request
            // instead of burning a worker on an abandoned reply.
            let meta = FrameMeta::with_deadline(priority_of(request), budget_ms(attempt_timeout));
            let attempt_started = Instant::now();
            match self.rpc_once(addr, request, attempt_timeout, Some(meta)) {
                Ok((
                    LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    },
                    _,
                )) => {
                    self.note_peer_busy(peer, retry_after_ms);
                    return Ok(LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    });
                }
                Ok((reply, info)) => {
                    self.stats
                        .rpc_latency_ms
                        .observe(attempt_started.elapsed().as_millis() as u64);
                    if info.stale_reconnect {
                        self.health.lock().record_stale_reconnect(peer);
                    }
                    self.note_contact_ok(peer, started.elapsed());
                    return Ok(reply);
                }
                Err(e) => last_err = Some(e),
            }
        }
        let err = last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "contact deadline exhausted")
        });
        self.stats.rpc_failures.inc();
        self.note_contact_failed(peer, &err);
        Err(err)
    }

    /// A single-attempt RPC classified [`Priority::Background`], for
    /// replica pushes: no retries (the next replication round re-plans
    /// from scratch anyway, so a second attempt into an overloaded or
    /// flaky peer is pure added load), deadline budget propagated, and
    /// a `Busy` reply surfaced for the caller to skip quietly. Health
    /// is still recorded on transport outcomes.
    fn rpc_background(
        &self,
        peer: PeerId,
        addr: &str,
        request: &LiveMsg,
        read_timeout: Duration,
    ) -> io::Result<LiveMsg> {
        let started = Instant::now();
        let meta = FrameMeta::with_deadline(Priority::Background, budget_ms(read_timeout));
        match self.rpc_once(addr, request, read_timeout, Some(meta)) {
            Ok((
                LiveMsg::Busy {
                    retry_after_ms,
                    class,
                },
                _,
            )) => {
                self.note_peer_busy(peer, retry_after_ms);
                Ok(LiveMsg::Busy {
                    retry_after_ms,
                    class,
                })
            }
            Ok((reply, info)) => {
                self.stats
                    .rpc_latency_ms
                    .observe(started.elapsed().as_millis() as u64);
                if info.stale_reconnect {
                    self.health.lock().record_stale_reconnect(peer);
                }
                self.note_contact_ok(peer, started.elapsed());
                Ok(reply)
            }
            Err(e) => {
                self.stats.rpc_failures.inc();
                self.note_contact_failed(peer, &e);
                Err(e)
            }
        }
    }

    /// The shared search worker pool, spun up on first use so nodes
    /// that never search never pay for the threads.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| {
            WorkerPool::in_registry(self.config.fanout.pool_threads, &self.stats.registry)
        })
    }

    /// Per-contact wall-clock budget for fan-out dispatches.
    fn fanout_deadline(&self) -> Duration {
        self.config
            .fanout
            .contact_deadline
            .unwrap_or_else(|| self.contact_budget())
    }

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
        let mut qs = self.query_state.lock();
        // Snapshot the directory under a short engine lock; the
        // decompression / delta-apply work happens after it is released.
        let mut snapshot: Vec<(PeerId, String, PeerVersion, SyncWork)> = {
            let engine = self.engine.lock();
            let mut snap = Vec::new();
            for (pid, e) in engine.directory().iter() {
                if let Some(p) = &e.payload {
                    let version = (e.status_version, e.bloom_version);
                    let work = match qs.filters.get(&pid) {
                        Some(v) if v.version == version => SyncWork::Current,
                        // Same incarnation, strictly behind: the stored
                        // chain may cover exactly our gap.
                        Some(v)
                            if v.version.0 == e.status_version && v.version.1 < e.bloom_version =>
                        {
                            match engine.delta_steps(
                                pid,
                                e.status_version,
                                v.version.1,
                                e.bloom_version,
                            ) {
                                Some(steps) => SyncWork::Delta(steps),
                                None => SyncWork::Full(p.bloom.clone()),
                            }
                        }
                        _ => SyncWork::Full(p.bloom.clone()),
                    };
                    snap.push((pid, p.addr.clone(), version, work));
                }
            }
            snap
        };
        snapshot.sort_by_key(|(pid, _, _, _)| *pid);
        for (pid, _, version, work) in &snapshot {
            match work {
                SyncWork::Current => {}
                SyncWork::Delta(steps) => {
                    // Toggle the changed bits into the mirrored filter.
                    // A corrupt step drops the peer from the query view
                    // (never rank on half-applied data); the next sync
                    // re-decompresses the full payload from scratch.
                    let applied = match qs.filters.get_mut(pid) {
                        Some(v) => {
                            let ok = steps.iter().all(|d| d.diff.apply_in_place(&mut v.filter));
                            if ok {
                                v.version = *version;
                            }
                            ok
                        }
                        None => false,
                    };
                    if !applied {
                        qs.filters.remove(pid);
                    }
                }
                SyncWork::Full(b) => match b.decompress() {
                    Some(filter) => {
                        qs.filters.insert(
                            *pid,
                            VersionedFilter {
                                version: *version,
                                filter,
                            },
                        );
                    }
                    // Corrupt filter: drop the peer from the query view
                    // rather than ranking it on stale data.
                    None => {
                        qs.filters.remove(pid);
                    }
                },
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
        deadline: Duration,
    ) -> (Vec<GroupSlot>, Vec<Option<io::Result<LiveMsg>>>) {
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
                let addr = addr.to_string();
                slots.push(GroupSlot::Remote(jobs.len()));
                jobs.push(Box::new(move || {
                    self.rpc_with_deadline(pid, &addr, request, deadline)
                }));
            }
        }
        if jobs.is_empty() {
            // Nothing was dispatched (all local or skipped): a ~0 ms
            // sample here would skew the fan-out histogram and the
            // group counter the bench figures read.
            return (slots, Vec::new());
        }
        let started = Instant::now();
        let replies = self.pool().run_all(jobs);
        self.stats.search_groups.inc();
        self.stats
            .search_fanout_ms
            .observe(started.elapsed().as_millis() as u64);
        (slots, replies)
    }

    /// Ranked TFxIPF search across the community (shared by the node
    /// API and the proxy-search handler) with the configured group
    /// size. Degrades gracefully: dead peers are skipped or cut off at
    /// the deadline, the rank order keeps draining, and the coverage
    /// summary accounts for every peer the search attempted.
    fn ranked_search(&self, raw_query: &str, k: usize) -> Result<LiveSearchResult, PlanetPError> {
        self.ranked_search_with(raw_query, k, self.config.fanout.group_size)
    }

    /// [`Self::ranked_search`] with an explicit group size `m`: each
    /// group of the ranked candidate order is contacted simultaneously
    /// on the worker pool, replies are merged back in rank order, and
    /// §5.2's adaptive stopping is evaluated per peer exactly as in
    /// the sequential walk (`m = 1` reproduces it contact for
    /// contact). Stopping mid-group abandons only the not-yet-merged
    /// replies of that group — coverage counts attempts, and every
    /// attempt was already in flight.
    fn ranked_search_with(
        &self,
        raw_query: &str,
        k: usize,
        group_size: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        let analyzer = self.store.lock().analyzer().clone();
        let q = parse_query(raw_query, &analyzer);
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
        let patience = adaptive_p(n, k);
        let mut coverage = SearchCoverage {
            peers_considered: n,
            recovering: self.is_recovering(),
            ..SearchCoverage::default()
        };
        let request = LiveMsg::SearchRequest {
            terms: q.terms.clone(),
            ipf: plan.ipf.to_pairs(),
            num_peers: n,
        };
        let deadline = self.fanout_deadline();
        let mut top: Vec<LiveHit> = Vec::new();
        // Content hashes seen in a *home* (non-replica) copy: a kept
        // replica hit whose hash never shows up here was genuinely
        // recovered — no reachable peer held the original.
        let mut home_seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut dup_collapsed = 0u64;
        let mut dry = 0usize;
        let mut stopped_early = false;
        'groups: for group in plan.ranked.chunks(group_size.max(1)) {
            let members: Vec<(PeerId, &str)> = group
                .iter()
                .map(|rp| {
                    let (pid, addr, _) = &owners[rp.peer];
                    (*pid, addr.as_str())
                })
                .collect();
            let (slots, mut replies) = self.dispatch_group(&members, &request, deadline);
            // Merge in rank order, with the same bookkeeping the
            // sequential walk kept per contact.
            for (rp, slot) in group.iter().zip(slots) {
                let (pid, _, _) = &owners[rp.peer];
                let docs: Vec<SearchDoc> = match slot {
                    GroupSlot::Local => {
                        coverage.peers_contacted += 1;
                        let origins = self.replica_origins();
                        let store = self.store.lock();
                        planetp_search::score_index(store.index(), &q.terms, &plan.ipf)
                            .into_iter()
                            .filter_map(|(d, s)| {
                                store.get(d).map(|r| SearchDoc {
                                    doc: d,
                                    score: s,
                                    hash: r.hash,
                                    replica_of: origins.get(&d).copied(),
                                    xml: r.xml.clone(),
                                })
                            })
                            .collect()
                    }
                    GroupSlot::Skipped => {
                        coverage.peers_skipped += 1;
                        self.stats.contacts_skipped.inc();
                        continue;
                    }
                    GroupSlot::Shed => {
                        coverage.peers_shed += 1;
                        continue;
                    }
                    GroupSlot::Remote(i) => match replies[i].take() {
                        Some(Ok(LiveMsg::SearchResponse { docs })) => {
                            coverage.peers_contacted += 1;
                            docs
                        }
                        Some(Ok(LiveMsg::Busy { .. })) => {
                            // The peer is alive but overloaded: shed,
                            // not failed — health was already fed by
                            // the RPC layer.
                            coverage.peers_shed += 1;
                            continue;
                        }
                        Some(Ok(other)) => {
                            self.stats.unexpected_replies.inc();
                            debug_log!(
                                "planetp[{}]: unexpected search reply from peer {pid}: {other:?}",
                                self.id
                            );
                            coverage.peers_failed += 1;
                            continue;
                        }
                        Some(Err(_)) | None => {
                            coverage.peers_failed += 1;
                            continue;
                        }
                    },
                };
                let mut contributed = false;
                for sd in docs {
                    // A corrupt or hostile peer could ship NaN/infinite
                    // scores; drop them instead of letting them poison
                    // the ranking.
                    if !sd.score.is_finite() {
                        debug_log!(
                            "planetp[{}]: dropped non-finite score from peer {pid}",
                            self.id
                        );
                        continue;
                    }
                    if sd.replica_of.is_none() {
                        home_seen.insert(sd.hash);
                    }
                    let hit = LiveHit {
                        peer: *pid,
                        doc: sd.doc,
                        score: sd.score,
                        hash: sd.hash,
                        replica_of: sd.replica_of,
                        xml: sd.xml,
                    };
                    // Collapse replica duplicates: the same content can
                    // arrive from its home and from any holder. Keep
                    // the best-scored copy (ties keep the first seen).
                    if let Some(i) = top.iter().position(|h| h.hash == hit.hash) {
                        dup_collapsed += 1;
                        if hit.score > top[i].score {
                            top[i] = hit;
                            contributed = true;
                        }
                        continue;
                    }
                    if offer_hit(&mut top, hit, k) {
                        contributed = true;
                    }
                }
                if contributed {
                    dry = 0;
                } else {
                    dry += 1;
                }
                if top.len() >= k && dry >= patience {
                    stopped_early = true;
                    break 'groups;
                }
            }
        }
        top.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| (a.peer, a.doc).cmp(&(b.peer, b.doc)))
        });
        coverage.recovered_via_replicas = top
            .iter()
            .filter(|h| h.replica_of.is_some() && !home_seen.contains(&h.hash))
            .count();
        if dup_collapsed > 0 {
            self.stats.replica_dup_collapsed.add(dup_collapsed);
        }
        if coverage.recovered_via_replicas > 0 {
            self.stats
                .replica_recovered_hits
                .add(coverage.recovered_via_replicas as u64);
        }
        // The paper's Fig 6 metric: how many peers the adaptive
        // stopping heuristic actually contacted, and whether it cut
        // the rank order short or drained it.
        self.stats
            .search_peers_contacted
            .add(coverage.peers_contacted as u64);
        if stopped_early {
            self.stats.search_stopped_early.inc();
        } else {
            self.stats.search_exhausted.inc();
        }
        if !coverage.is_complete() {
            self.stats.searches_degraded.inc();
        }
        Ok(LiveSearchResult {
            hits: top,
            coverage,
        })
    }

    /// Exhaustive conjunction search (§5.1). Candidates come from the
    /// same versioned filter mirror as ranked search (hashing each
    /// query term once and probing every filter by precomputed hash),
    /// and all remote candidates are contacted in one parallel batch
    /// on the worker pool under the fan-out deadline.
    fn exhaustive_search(&self, raw_query: &str) -> Result<LiveSearchResult, PlanetPError> {
        let analyzer = self.store.lock().analyzer().clone();
        let q = parse_query(raw_query, &analyzer);
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
        let mut coverage = SearchCoverage {
            peers_considered: candidates.len(),
            recovering: self.is_recovering(),
            ..SearchCoverage::default()
        };
        let request = LiveMsg::ExhaustiveRequest {
            terms: q.terms.clone(),
        };
        let members: Vec<(PeerId, &str)> = candidates
            .iter()
            .map(|(pid, addr)| (*pid, addr.as_str()))
            .collect();
        let (slots, mut replies) = self.dispatch_group(&members, &request, self.fanout_deadline());
        // Replica dedup state: content hash → index into `hits`. Home
        // copies are preferred over replicas, first-seen otherwise.
        struct ExhaustiveMerge {
            hits: Vec<LiveHit>,
            by_hash: HashMap<u64, usize>,
            home_seen: std::collections::HashSet<u64>,
            dup_collapsed: u64,
        }
        impl ExhaustiveMerge {
            fn offer(&mut self, hit: LiveHit) {
                if hit.replica_of.is_none() {
                    self.home_seen.insert(hit.hash);
                }
                match self.by_hash.entry(hit.hash) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        self.dup_collapsed += 1;
                        let i = *e.get();
                        if self.hits[i].replica_of.is_some() && hit.replica_of.is_none() {
                            self.hits[i] = hit;
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(self.hits.len());
                        self.hits.push(hit);
                    }
                }
            }
        }
        let mut merge = ExhaustiveMerge {
            hits: Vec::new(),
            by_hash: HashMap::new(),
            home_seen: std::collections::HashSet::new(),
            dup_collapsed: 0,
        };
        for ((pid, _), slot) in candidates.iter().zip(slots) {
            match slot {
                GroupSlot::Local => {
                    coverage.peers_contacted += 1;
                    let origins = self.replica_origins();
                    let store = self.store.lock();
                    for d in store.search_conjunction(&q.terms) {
                        let r = store.get(d).expect("doc exists");
                        merge.offer(LiveHit {
                            peer: *pid,
                            doc: d,
                            score: 0.0,
                            hash: r.hash,
                            replica_of: origins.get(&d).copied(),
                            xml: r.xml.clone(),
                        });
                    }
                }
                GroupSlot::Skipped => {
                    coverage.peers_skipped += 1;
                    self.stats.contacts_skipped.inc();
                }
                GroupSlot::Shed => {
                    coverage.peers_shed += 1;
                }
                GroupSlot::Remote(i) => match replies[i].take() {
                    Some(Ok(LiveMsg::ExhaustiveResponse { docs })) => {
                        coverage.peers_contacted += 1;
                        for sd in docs {
                            merge.offer(LiveHit {
                                peer: *pid,
                                doc: sd.doc,
                                score: 0.0,
                                hash: sd.hash,
                                replica_of: sd.replica_of,
                                xml: sd.xml,
                            });
                        }
                    }
                    Some(Ok(LiveMsg::Busy { .. })) => {
                        coverage.peers_shed += 1;
                    }
                    Some(Ok(other)) => {
                        self.stats.unexpected_replies.inc();
                        debug_log!(
                            "planetp[{}]: unexpected exhaustive reply from {pid}: {other:?}",
                            self.id
                        );
                        coverage.peers_failed += 1;
                    }
                    Some(Err(_)) | None => {
                        coverage.peers_failed += 1;
                    }
                },
            }
        }
        let ExhaustiveMerge {
            mut hits,
            home_seen,
            dup_collapsed,
            ..
        } = merge;
        hits.sort_by_key(|a| (a.peer, a.doc));
        coverage.recovered_via_replicas = hits
            .iter()
            .filter(|h| h.replica_of.is_some() && !home_seen.contains(&h.hash))
            .count();
        if dup_collapsed > 0 {
            self.stats.replica_dup_collapsed.add(dup_collapsed);
        }
        if coverage.recovered_via_replicas > 0 {
            self.stats
                .replica_recovered_hits
                .add(coverage.recovered_via_replicas as u64);
        }
        if !coverage.is_complete() {
            self.stats.searches_degraded.inc();
        }
        Ok(LiveSearchResult { hits, coverage })
    }

    /// How long the server keeps an idle accepted connection alive. A
    /// little longer than the clients' idle reaping horizon, so the
    /// server is never the one to hang up on a stream a client still
    /// considers poolable.
    fn server_keepalive(&self) -> Duration {
        self.config.conn.idle_timeout * 2
    }

    /// Park `conn` on the bounded server worker pool for its next
    /// serve step. Jobs hold only a `Weak` back-reference: a connection
    /// must not keep the node alive, and the job chain dies with it.
    fn enqueue_conn(self: &Arc<Self>, conn: ServerConn) {
        let weak = Arc::downgrade(self);
        self.server_pool
            .execute(move || Inner::serve_step(&weak, conn));
    }

    /// One cooperative scheduling turn for an accepted connection:
    /// admit it (once, on a worker — not on the listener thread), poll
    /// briefly for data, serve exactly one frame if one arrived, and
    /// requeue. Returning without requeueing drops the connection.
    /// Bounded workers multiplex all accepted connections this way —
    /// an idle keep-alive stream costs a poll per turn, not a parked
    /// thread.
    fn serve_step(weak: &Weak<Inner>, mut conn: ServerConn) {
        const SERVER_POLL: Duration = Duration::from_millis(5);
        let Some(inner) = weak.upgrade() else { return };
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if !conn.admitted {
            if let Some(f) = &inner.config.faults {
                // Inbound refusal: hang up before reading anything.
                if f.admit(Direction::Inbound).is_err() {
                    return;
                }
            }
            conn.admitted = true;
        }
        let mut probe = [0u8; 1];
        if conn.stream.set_read_timeout(Some(SERVER_POLL)).is_err() {
            return;
        }
        match conn.stream.peek(&mut probe) {
            Ok(0) => return, // peer closed
            Ok(_) => {
                let _ = conn.stream.set_read_timeout(Some(inner.config.io_timeout));
                if !inner.serve_one_frame(&mut conn.stream) {
                    return;
                }
                conn.idle_deadline = Instant::now() + inner.server_keepalive();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= conn.idle_deadline {
                    return; // idled out
                }
            }
            Err(_) => return,
        }
        inner.enqueue_conn(conn);
    }

    /// Read one inbound frame — bare, correlated, or metadata-bearing
    /// — classify it, pass the admission gate, and dispatch it.
    /// Returns whether the connection is still healthy enough to keep.
    ///
    /// Admission happens *here*, on a server worker, after the frame is
    /// parsed: the class comes from the sender's [`FrameMeta`] when
    /// present (the gate trusts the wire header) and from the message
    /// types otherwise, and a propagated deadline budget starts
    /// counting from receipt. A shed request is answered with
    /// [`LiveMsg::Busy`] — never a silent hangup — and an expired one
    /// is dropped without service, since its caller already gave up.
    fn serve_one_frame(&self, stream: &mut TcpStream) -> bool {
        if let Some(f) = &self.config.faults {
            f.delay(Direction::Inbound);
        }
        let got = crate::wire::read_any_frame_meta_sized::<Vec<LiveMsg>>(stream);
        let receipt = Instant::now();
        let (frame, meta, wire_bytes) = match got {
            Ok(Some(x)) => x,
            Ok(None) => return false,
            Err(e) => {
                self.stats.malformed_frames.inc();
                debug_log!("planetp[{}]: malformed inbound frame: {e}", self.id);
                return false;
            }
        };
        self.stats.bytes_in.add(wire_bytes as u64);
        self.stats.frames_in.inc();
        let (corr, batch) = match frame {
            Frame::Correlated(id, batch) => (Some(id), batch),
            Frame::Bare(batch) => (None, batch),
        };
        // Classification: the sender's explicit class wins; a bare
        // frame takes the most urgent class of its batch (`min` —
        // `Priority` orders Interactive first).
        let class = match &meta {
            Some(m) => m.priority,
            None => batch
                .iter()
                .map(priority_of)
                .min()
                .unwrap_or(Priority::Control),
        };
        let deadline = meta
            .and_then(|m| m.deadline_ms)
            .map(|ms| receipt + Duration::from_millis(u64::from(ms)));
        if let Some(f) = &self.config.faults {
            if f.force_busy(Direction::Inbound) {
                // Injected overload (chaos tests): shed unconditionally.
                self.stats.admission_shed.inc();
                self.stats.busy_sent.inc();
                let retry_after_ms = self.admission.retry_after_ms();
                self.reply_framed(
                    stream,
                    corr,
                    LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    },
                );
                return true;
            }
        }
        match self.admission.admit(class, deadline) {
            Admission::Admitted { queue_wait } => {
                self.stats.admission_admitted.inc();
                self.stats
                    .admission_queue_wait_ms
                    .observe(queue_wait.as_millis() as u64);
            }
            Admission::Shed { retry_after_ms } => {
                self.stats.admission_shed.inc();
                self.stats.busy_sent.inc();
                self.reply_framed(
                    stream,
                    corr,
                    LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    },
                );
                return true;
            }
            Admission::Expired => {
                // The sender stopped listening before we could start:
                // any reply (even `Busy`) would be wasted bytes.
                self.stats.admission_expired.inc();
                return true;
            }
        }
        let keep = self.dispatch_batch(stream, corr, batch);
        self.admission.complete();
        keep
    }

    /// Serve every message of one admitted frame. Split from
    /// [`Self::serve_one_frame`] so its early returns cannot leak the
    /// admission slot.
    fn dispatch_batch(
        &self,
        stream: &mut TcpStream,
        corr: Option<u64>,
        batch: Vec<LiveMsg>,
    ) -> bool {
        for m in batch {
            match m {
                LiveMsg::Gossip { from, msg } => {
                    // Gossip alternates bare frames inline on this
                    // stream; the conversation ends at a clean frame
                    // boundary, so the stream stays reusable.
                    if let Err(e) = self.converse(stream, from, msg) {
                        self.stats.reply_failures.inc();
                        debug_log!(
                            "planetp[{}]: gossip conversation with {from} broke: {e}",
                            self.id
                        );
                        return false;
                    }
                }
                LiveMsg::SearchRequest {
                    terms,
                    ipf,
                    num_peers,
                } => {
                    let table = IpfTable::from_pairs(ipf, num_peers);
                    let origins = self.replica_origins();
                    let store = self.store.lock();
                    let docs: Vec<SearchDoc> =
                        planetp_search::score_index(store.index(), &terms, &table)
                            .into_iter()
                            .filter_map(|(doc, score)| {
                                store.get(doc).map(|r| SearchDoc {
                                    doc,
                                    score,
                                    hash: r.hash,
                                    replica_of: origins.get(&doc).copied(),
                                    xml: r.xml.clone(),
                                })
                            })
                            .collect();
                    drop(store);
                    self.note_docs_served(docs.iter().map(|d| d.hash));
                    self.reply_framed(stream, corr, LiveMsg::SearchResponse { docs });
                }
                LiveMsg::ExhaustiveRequest { terms } => {
                    let origins = self.replica_origins();
                    let store = self.store.lock();
                    let docs: Vec<SearchDoc> = store
                        .search_conjunction(&terms)
                        .into_iter()
                        .filter_map(|d| {
                            store.get(d).map(|r| SearchDoc {
                                doc: d,
                                score: 0.0,
                                hash: r.hash,
                                replica_of: origins.get(&d).copied(),
                                xml: r.xml.clone(),
                            })
                        })
                        .collect();
                    drop(store);
                    self.note_docs_served(docs.iter().map(|d| d.hash));
                    self.reply_framed(stream, corr, LiveMsg::ExhaustiveResponse { docs });
                }
                LiveMsg::ProxySearchRequest { query, k } => {
                    let (hits, coverage) = match self.ranked_search(&query, k) {
                        Ok(r) => (
                            r.hits
                                .into_iter()
                                .map(|h| (h.peer, h.doc, h.score, h.hash, h.xml))
                                .collect(),
                            r.coverage,
                        ),
                        Err(_) => (Vec::new(), SearchCoverage::default()),
                    };
                    self.reply_framed(
                        stream,
                        corr,
                        LiveMsg::ProxySearchResponse { hits, coverage },
                    );
                }
                LiveMsg::ReplicaPush {
                    home,
                    home_doc,
                    hash,
                    hotness,
                    xml,
                } => {
                    let reply = self.handle_replica_push(home, home_doc, hash, hotness, &xml);
                    self.reply_framed(stream, corr, reply);
                }
                LiveMsg::StatsRequest => {
                    let snapshot = self.metrics_snapshot();
                    self.reply_framed(stream, corr, LiveMsg::StatsResponse { snapshot });
                }
                LiveMsg::SearchResponse { .. }
                | LiveMsg::ExhaustiveResponse { .. }
                | LiveMsg::ProxySearchResponse { .. }
                | LiveMsg::ReplicaAccept { .. }
                | LiveMsg::StatsResponse { .. }
                | LiveMsg::Busy { .. } => {}
            }
        }
        true
    }

    /// Write one RPC reply, counting (not swallowing) failures. A
    /// `corr` id echoes the request's correlation id so the client's
    /// multiplexer can route the reply; `None` writes a bare frame
    /// for one-shot clients.
    fn reply_framed(&self, stream: &mut TcpStream, corr: Option<u64>, msg: LiveMsg) {
        let batch = vec![msg];
        let faults = self.faults(Direction::Inbound);
        let res = crate::wire::send_frame(stream, corr, None, &batch, faults);
        match res {
            Ok(n) => {
                // An injected dropped reply reports 0 bytes written —
                // nothing actually left this node.
                if n > 0 {
                    self.stats.bytes_out.add(n as u64);
                    self.stats.frames_out.inc();
                }
            }
            Err(e) => {
                self.stats.reply_failures.inc();
                debug_log!("planetp[{}]: failed to write reply: {e}", self.id);
            }
        }
    }

    /// Point-in-time snapshot of the node's unified metrics registry
    /// (gossip engine, transport, search, and health counters), with
    /// gauges refreshed first.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.stats
            .directory_size
            .set(self.engine.lock().directory().len() as i64);
        self.stats.registry.snapshot()
    }

    // ------------------------------------------------------------------
    // Autonomous replication (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Snapshot of local doc id → (home, home_doc) for hosted replicas.
    /// Taken *before* locking the store (see the lock-order note on
    /// [`Inner::replica`]); empty when replication is off.
    fn replica_origins(&self) -> std::collections::BTreeMap<u64, (PeerId, u64)> {
        self.replica
            .as_ref()
            .map(|r| r.lock().origins())
            .unwrap_or_default()
    }

    /// Feed served document hashes into the hotness sketch.
    fn note_docs_served(&self, hashes: impl IntoIterator<Item = u64>) {
        if let Some(r) = &self.replica {
            let mut r = r.lock();
            for h in hashes {
                r.observe_served(h);
            }
        }
    }

    /// One replication planning round, run from the gossip loop: sample
    /// the directory into the availability tracker, plan pushes for
    /// under-replicated local documents, execute them over the normal
    /// RPC path (retries, fault injection, health bookkeeping), and
    /// re-gossip the ad if it changed.
    fn replica_tick(&self) {
        let Some(replica) = &self.replica else { return };
        // 1. Directory sample: status → availability, payloads → ads.
        let mut views: Vec<PeerView> = Vec::new();
        let mut addrs: HashMap<PeerId, String> = HashMap::new();
        {
            let engine = self.engine.lock();
            for (pid, e) in engine.directory().iter() {
                if pid == self.id {
                    continue;
                }
                let online = matches!(e.status, PeerStatus::Online);
                let ad = e.payload.as_ref().and_then(|p| p.replica);
                if let Some(p) = &e.payload {
                    addrs.insert(pid, p.addr.clone());
                }
                views.push(PeerView {
                    peer: pid,
                    ad,
                    online,
                });
            }
        }
        {
            let mut r = replica.lock();
            for v in &views {
                r.observe_peer(v.peer, v.online);
            }
            r.retain_peers(|p| views.iter().any(|v| v.peer == p));
        }
        // 2. Home-owned documents (hosted replicas are their home's
        // responsibility). Replica lock dropped before the store lock.
        let own_docs: Vec<OwnDoc> = {
            let origins = self.replica_origins();
            let store = self.store.lock();
            store
                .documents()
                .filter(|rec| !origins.contains_key(&rec.id))
                .map(|rec| OwnDoc {
                    doc: rec.id,
                    hash: rec.hash,
                    bytes: rec.xml.len() as u64,
                })
                .collect()
        };
        // 3. Plan under the replica lock, push outside every lock.
        let plans = replica.lock().plan_pushes(&own_docs, &views);
        for plan in plans {
            let Some((xml, hotness)) = ({
                let store = self.store.lock();
                store.get(plan.doc).map(|r| r.xml.clone())
            })
            .map(|xml| (xml, replica.lock().hotness(plan.hash))) else {
                continue; // unpublished since planning
            };
            let request = LiveMsg::ReplicaPush {
                home: self.id,
                home_doc: plan.doc,
                hash: plan.hash,
                hotness,
                xml,
            };
            for target in plan.targets {
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let Some(addr) = addrs.get(&target) else {
                    continue;
                };
                if self.in_backoff(target) {
                    continue;
                }
                replica.lock().metrics().pushes.inc();
                // Background class, single attempt: repair traffic must
                // never compete with interactive work for an overloaded
                // receiver's queue, and the next round re-plans anyway.
                match self.rpc_background(target, addr, &request, self.config.io_timeout) {
                    Ok(LiveMsg::ReplicaAccept { home_doc, accepted }) if home_doc == plan.doc => {
                        let mut r = replica.lock();
                        if accepted {
                            r.note_accept(plan.doc, target);
                        } else {
                            r.note_declined(plan.doc, target);
                        }
                    }
                    Ok(LiveMsg::Busy { .. }) => {
                        // Overloaded receiver shed the push: skip
                        // quietly, the plan stays pending.
                        debug_log!("planetp[{}]: replica push to {target} shed (busy)", self.id);
                    }
                    Ok(_) => {
                        self.stats.unexpected_replies.inc();
                    }
                    Err(e) => {
                        debug_log!("planetp[{}]: replica push to {target} failed: {e}", self.id);
                    }
                }
            }
        }
        // 4. Re-advertise when the gossiped ad no longer matches
        // reality (capacity moved, hosted count changed).
        self.refresh_replica_ad();
    }

    /// Bump the gossiped payload iff the current ad differs from the
    /// one in the directory, so ad changes ride the existing delta
    /// chain without gossiping a new version every tick.
    fn refresh_replica_ad(&self) {
        let Some(ad) = self.current_replica_ad() else {
            return;
        };
        let gossiped = {
            let engine = self.engine.lock();
            engine
                .directory()
                .get(self.id)
                .and_then(|e| e.payload.as_ref())
                .and_then(|p| p.replica)
        };
        if gossiped != Some(ad) {
            self.gossip_own_update();
            if let Err(e) = self.persist_own_versions() {
                debug_log!(
                    "planetp[{}]: failed to persist versions after ad refresh: {e}",
                    self.id
                );
            }
        }
    }

    /// Handle an incoming `ReplicaPush`: verify the hash, admit (maybe
    /// evicting colder replicas), ingest into the normal store + index
    /// + filter so the copy is discoverable through the unmodified
    /// search path, and persist the hosting to the WAL.
    fn handle_replica_push(
        &self,
        home: PeerId,
        home_doc: u64,
        hash: u64,
        hotness: u64,
        xml: &str,
    ) -> LiveMsg {
        let Some(replica) = &self.replica else {
            return LiveMsg::ReplicaAccept {
                home_doc,
                accepted: false,
            };
        };
        if content_hash(xml) != hash {
            // Corrupt or lying sender: refuse before paying storage.
            replica.lock().metrics().rejects.inc();
            return LiveMsg::ReplicaAccept {
                home_doc,
                accepted: false,
            };
        }
        let decision = {
            let mut r = replica.lock();
            r.seed_hotness(hash, hotness);
            // The home is talking to us right now: count it online.
            r.observe_peer(home, true);
            r.admit(home, hash, xml.len() as u64)
        };
        match decision {
            AdmitDecision::AlreadyHosted { .. } => LiveMsg::ReplicaAccept {
                home_doc,
                accepted: true,
            },
            AdmitDecision::Reject => {
                replica.lock().metrics().rejects.inc();
                LiveMsg::ReplicaAccept {
                    home_doc,
                    accepted: false,
                }
            }
            AdmitDecision::Accept { evict } => {
                for victim in evict {
                    self.evict_replica(victim);
                }
                let doc = match self.store.lock().publish(xml) {
                    Ok(d) => d,
                    Err(e) => {
                        debug_log!("planetp[{}]: replica ingest failed: {e}", self.id);
                        replica.lock().metrics().rejects.inc();
                        return LiveMsg::ReplicaAccept {
                            home_doc,
                            accepted: false,
                        };
                    }
                };
                let hosted = HostedReplica {
                    home,
                    home_doc,
                    hash,
                    bytes: xml.len() as u64,
                };
                if !replica.lock().record_hosted(doc, hosted) {
                    // Lost a race with a concurrent push of the same
                    // content: drop the redundant copy, still accepted.
                    let _ = self.store.lock().unpublish(doc);
                    return LiveMsg::ReplicaAccept {
                        home_doc,
                        accepted: true,
                    };
                }
                if let Err(e) = self.durable_append(WalRecord::ReplicaStored {
                    doc,
                    home,
                    home_doc,
                    hash,
                    xml: xml.to_string(),
                }) {
                    debug_log!("planetp[{}]: failed to persist replica {doc}: {e}", self.id);
                }
                // The ingested copy changed the filter (and the ad):
                // announce the new version.
                self.gossip_own_update();
                if let Err(e) = self.persist_own_versions() {
                    debug_log!(
                        "planetp[{}]: failed to persist versions after replica: {e}",
                        self.id
                    );
                }
                LiveMsg::ReplicaAccept {
                    home_doc,
                    accepted: true,
                }
            }
        }
    }

    /// Evict one hosted replica: unpublish (rebuilding the filter),
    /// log the drop, and release its capacity. The caller is expected
    /// to gossip the new filter version afterwards.
    fn evict_replica(&self, doc: u64) {
        let Some(replica) = &self.replica else { return };
        if replica.lock().drop_hosted(doc).is_none() {
            return;
        }
        if let Err(e) = self.store.lock().unpublish(doc) {
            debug_log!(
                "planetp[{}]: evicted replica {doc} was not stored: {e}",
                self.id
            );
        }
        if let Err(e) = self.durable_append(WalRecord::ReplicaDropped { doc }) {
            debug_log!(
                "planetp[{}]: failed to persist replica drop {doc}: {e}",
                self.id
            );
        }
    }
}

/// Bounded top-k insertion; returns whether the hit made the cut.
/// Non-finite scores are rejected outright, and a non-finite score
/// already in `top` (callers filter them, but this path must degrade
/// sanely anyway) is treated as minimal — evicted first rather than
/// pinned at rank 1 by `total_cmp`'s NaN-is-greatest ordering.
fn offer_hit(top: &mut Vec<LiveHit>, hit: LiveHit, k: usize) -> bool {
    if !hit.score.is_finite() {
        return false;
    }
    if top.len() < k {
        top.push(hit);
        return true;
    }
    let key = |s: f64| if s.is_finite() { s } else { f64::NEG_INFINITY };
    let (worst_i, worst) = top
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| key(a.score).total_cmp(&key(b.score)))
        .expect("top non-empty");
    if !worst.score.is_finite() || hit.score > worst.score {
        top[worst_i] = hit;
        true
    } else {
        false
    }
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

/// A live PlanetP peer: listener + gossip loop + data store.
pub struct LiveNode {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl LiveNode {
    /// Start a node. `bootstrap` is `(peer id, address)` of one
    /// existing member; `None` founds a new community.
    pub fn start(
        id: PeerId,
        config: LiveConfig,
        bootstrap: Option<(PeerId, String)>,
    ) -> Result<Self, PlanetPError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        // One registry per node: the engine's protocol counters and the
        // runtime's transport/search/health counters land side by side,
        // so one snapshot (local call or GetStats RPC) covers it all.
        let stats = NodeStats::default();
        let mut store = LocalDataStore::new();

        // Durability: open the snapshot + WAL store (running recovery)
        // before the gossip engine exists, because what recovery finds
        // decides how the engine starts.
        let mut durable = match &config.durable {
            Some(dc) => Some(DurableStore::open(
                dc.clone(),
                StoreMetrics::in_registry(&stats.registry),
                config.faults.clone(),
            )?),
            None => None,
        };
        let mut recovering = false;
        if let Some(d) = &mut durable {
            if let Some(owner) = d.state().id {
                if owner != id {
                    return Err(PlanetPError::Protocol(format!(
                        "data dir belongs to peer {owner}, not peer {id}"
                    )));
                }
            }
            // Rehydrate the local data store under the original doc ids
            // (remote peers hold `(peer, doc)` references from earlier
            // searches). WAL frames are checksummed, so the XML parses;
            // a failure here is a bug, not bad input.
            for (doc, xml) in d.state().docs.clone() {
                store.restore_document(doc, &xml)?;
                stats.recovery_docs_restored.inc();
            }
        }
        // Replication: build the engine (metrics in the node registry)
        // and resume hosting whatever the WAL says we held. If the
        // operator disabled replication on a store that has hosted
        // replicas, the docs stay searchable but are no longer
        // advertised, re-pushed, or evicted.
        let mut replica_engine = if config.replica.enabled {
            Some(ReplicaEngine::with_metrics(
                config.replica.clone(),
                ReplicaMetrics::in_registry(&stats.registry),
            ))
        } else {
            None
        };
        if let (Some(re), Some(d)) = (replica_engine.as_mut(), durable.as_ref()) {
            for (doc, pr) in d.state().replicas.clone() {
                let bytes = d.state().docs.get(&doc).map_or(0, |x| x.len() as u64);
                re.restore_hosted(
                    doc,
                    HostedReplica {
                        home: pr.home,
                        home_doc: pr.home_doc,
                        hash: pr.hash,
                        bytes,
                    },
                );
            }
        }
        let payload = LivePayload {
            addr: addr.clone(),
            bloom: CompressedBloom::compress(store.bloom()),
            replica: replica_engine.as_ref().map(|r| r.local_ad()),
        };

        let mut engine = match durable
            .as_ref()
            .filter(|d| d.recovery().recovered)
            .map(|d| d.state().clone())
        {
            Some(state) => {
                // Crash-restart: rebuild the engine around the persisted
                // directory and re-announce with a version pair strictly
                // above the persisted high-water mark — even if a torn
                // tail lost recent bloom bumps, `(sv+1, _)` supersedes
                // anything the community gossiped for the old
                // incarnation (the status version only changes here, and
                // it is persisted synchronously below before serving).
                let mut dir: Directory<LivePayload> = Directory::new();
                dir.insert(
                    id,
                    DirEntry {
                        status_version: state.status_version.max(1),
                        bloom_version: state.bloom_version,
                        payload: Some(payload.clone()),
                        status: PeerStatus::Online,
                        speed: SpeedClass::Fast,
                    },
                );
                for (pid, p) in &state.peers {
                    dir.insert(
                        *pid,
                        DirEntry {
                            status_version: p.status_version,
                            bloom_version: p.bloom_version,
                            payload: p.payload.clone(),
                            status: PeerStatus::Online,
                            speed: SpeedClass::Fast,
                        },
                    );
                    stats.recovery_peers_restored.inc();
                }
                if let Some((b, _)) = &bootstrap {
                    if dir.get(*b).is_none() {
                        dir.insert(
                            *b,
                            DirEntry {
                                status_version: 0,
                                bloom_version: 0,
                                payload: None,
                                status: PeerStatus::Online,
                                speed: SpeedClass::Fast,
                            },
                        );
                    }
                }
                let mut engine = GossipEngine::with_directory(
                    id,
                    SpeedClass::Fast,
                    config.gossip,
                    config.seed ^ u64::from(id),
                    dir,
                );
                engine.local_recover(payload.clone(), (state.status_version, state.bloom_version));
                stats.recovery_restarts.inc();
                // Catch-up phase: there is someone to catch up with.
                recovering = !state.peers.is_empty() || bootstrap.is_some();
                engine
            }
            None => GossipEngine::new(
                id,
                SpeedClass::Fast,
                config.gossip,
                config.seed ^ u64::from(id),
                Some(payload),
                bootstrap.as_ref().map(|(b, _)| (*b, SpeedClass::Fast)),
            ),
        };
        engine.attach_metrics(&stats.registry);
        if let Some(d) = &mut durable {
            // Persist identity and the (possibly bumped) announced
            // version pair *synchronously before serving anything* —
            // the high-water-mark rule above depends on it.
            if d.state().id != Some(id) {
                d.append(WalRecord::Identity { id })?;
            }
            let e = engine.directory().get(id).expect("self entry");
            d.append(WalRecord::OwnVersions {
                status_version: e.status_version,
                bloom_version: e.bloom_version,
            })?;
            d.write_snapshot()?;
        }
        let mut addr_book = HashMap::new();
        if let Some((b, a)) = bootstrap {
            addr_book.insert(b, a);
        }
        let health = PeerHealth::new(config.health);
        let mut cache =
            QueryCache::new().with_metrics(QueryCacheMetrics::in_registry(&stats.registry));
        if let Some(tree_config) = config.bloom_tree {
            cache = cache.with_tree(tree_config, TreeMetrics::in_registry(&stats.registry));
        }
        let query_state = QueryState {
            filters: HashMap::new(),
            cache,
        };
        let conns = config.conn.enabled.then(|| {
            ConnPool::new(
                config.conn,
                config.io_timeout,
                config.faults.clone(),
                ConnMetrics::in_registry(&stats.registry),
            )
        });
        let server_pool = WorkerPool::new(config.conn.server_threads.max(1));
        let admission = AdmissionGate::new(config.admission);
        // The announced payload above was compressed from this exact
        // filter, so it is the correct base for the first publish diff.
        let prev_bloom = store.bloom().clone();
        let inner = Arc::new(Inner {
            id,
            addr,
            config,
            engine: Mutex::new(engine),
            store: Mutex::new(store),
            health: Mutex::new(health),
            stats,
            addr_book: Mutex::new(addr_book),
            query_state: Mutex::new(query_state),
            prev_bloom: Mutex::new(prev_bloom),
            pool: OnceLock::new(),
            conns,
            server_pool,
            admission,
            replica: replica_engine.map(Mutex::new),
            durable: durable.map(Mutex::new),
            recovering: AtomicBool::new(recovering),
            recovered_at: Mutex::new(recovering.then(Instant::now)),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        // Listener thread: accepted connections go to the bounded
        // server worker pool (no thread-per-connection), which also
        // lets clients keep streams alive between requests.
        {
            let inner = Arc::clone(&inner);
            listener.set_nonblocking(true)?;
            threads.push(std::thread::spawn(move || {
                while !inner.shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_write_timeout(Some(inner.config.io_timeout));
                            if inner.config.conn.nodelay {
                                let _ = stream.set_nodelay(true);
                            }
                            inner.enqueue_conn(ServerConn {
                                stream,
                                idle_deadline: Instant::now() + inner.server_keepalive(),
                                admitted: false,
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            }));
        }
        // Gossip loop (also drives the replication tick: replication
        // needs no thread of its own, and piggybacking keeps its
        // directory samples in lockstep with gossip rounds).
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                let mut next_tick = Duration::from_millis(0);
                let replica_interval = Duration::from_millis(inner.config.replica.interval_ms);
                let decay_interval = Duration::from_millis(inner.config.replica.decay_interval_ms);
                let mut next_replica = Duration::from_millis(0);
                let mut next_decay = decay_interval;
                let started = Instant::now();
                while !inner.shutdown.load(Ordering::Relaxed) {
                    if started.elapsed() < next_tick.min(next_replica) {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    if started.elapsed() >= next_tick {
                        let outcome = {
                            let mut engine = inner.engine.lock();
                            let o = engine.tick(inner.now_ms());
                            next_tick = started.elapsed()
                                + Duration::from_millis(engine.current_interval());
                            o
                        };
                        if let Some(out) = outcome {
                            inner.gossip_to(out.target, out.message);
                        }
                        // Fold whatever this tick (and any inbound
                        // gossip since the last one) taught us into the
                        // WAL.
                        inner.persist_directory();
                        // Retire idle pooled streams past their timeout.
                        if let Some(p) = &inner.conns {
                            p.reap();
                        }
                    }
                    if inner.replica.is_some() && started.elapsed() >= next_replica {
                        next_replica = started.elapsed() + replica_interval;
                        if started.elapsed() >= next_decay {
                            next_decay = started.elapsed() + decay_interval;
                            if let Some(r) = &inner.replica {
                                r.lock().decay();
                            }
                        }
                        inner.replica_tick();
                    } else if inner.replica.is_none() {
                        // Without replication the loop only waits on
                        // gossip ticks.
                        next_replica = next_tick;
                    }
                }
            }));
        }
        Ok(Self { inner, threads })
    }

    /// This node's peer id.
    pub fn id(&self) -> PeerId {
        self.inner.id
    }

    /// The node's listen address.
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// Number of peers in the local directory copy.
    pub fn directory_size(&self) -> usize {
        self.inner.engine.lock().directory().len()
    }

    /// Directory digest (for convergence checks in tests).
    pub fn directory_digest(&self) -> u64 {
        self.inner.engine.lock().directory().digest()
    }

    /// Node-level failure counters.
    pub fn stats(&self) -> NodeStatsSnapshot {
        self.inner.stats.snapshot(self.inner.is_recovering())
    }

    /// Is the node still in its post-restart catch-up phase (recovered
    /// state loaded from disk, first anti-entropy exchange with the
    /// community not yet completed)? Searches still run during it —
    /// their [`SearchCoverage::recovering`] flag is set — but they plan
    /// against the persisted directory, which may trail the community.
    pub fn is_recovering(&self) -> bool {
        self.inner.is_recovering()
    }

    /// Block until the catch-up phase ends (or `timeout` elapses);
    /// returns whether the node is ready. A node that never recovered
    /// is ready immediately.
    pub fn await_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.inner.is_recovering() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// The `(status_version, bloom_version)` pair this node currently
    /// announces for itself. After a crash-restart both components are
    /// strictly above everything the previous incarnation announced.
    pub fn announced_versions(&self) -> (u64, u32) {
        let engine = self.inner.engine.lock();
        let e = engine.directory().get(self.inner.id).expect("self entry");
        (e.status_version, e.bloom_version)
    }

    /// What recovery found on disk at startup, if durability is on.
    pub fn recovery_info(&self) -> Option<crate::durable::RecoveryInfo> {
        self.inner.durable.as_ref().map(|d| d.lock().recovery())
    }

    /// Validate the durable store's materialized state (`Ok(())` when
    /// durability is off).
    pub fn validate_durable(&self) -> Result<(), String> {
        match &self.inner.durable {
            Some(d) => d.lock().validate(),
            None => Ok(()),
        }
    }

    /// Did an (injected or real) crash poison the durable store? A
    /// poisoned node keeps serving from memory but persists nothing
    /// more — the harness treats it as dead and restarts it.
    pub fn store_poisoned(&self) -> bool {
        self.inner
            .durable
            .as_ref()
            .is_some_and(|d| d.lock().poisoned())
    }

    /// The gossip engine's protocol counters.
    pub fn gossip_stats(&self) -> EngineStats {
        self.inner.engine.lock().stats()
    }

    /// How many replicas this node currently hosts for other peers and
    /// the bytes they occupy, or `None` when replication is disabled.
    pub fn replica_hosted(&self) -> Option<(usize, u64)> {
        let replica = self.inner.replica.as_ref()?;
        let r = replica.lock();
        Some((r.hosted_count(), r.used_bytes()))
    }

    /// The replication advertisement this node currently gossips, or
    /// `None` when replication is disabled.
    pub fn replica_ad(&self) -> Option<ReplicaAd> {
        self.inner.current_replica_ad()
    }

    /// Unified metrics snapshot of this node: gossip, transport,
    /// search, and health metrics from one registry. Serializable; see
    /// [`planetp_obs::MetricsSnapshot`] for diffing and rendering.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics_snapshot()
    }

    /// Fetch `peer`'s metrics over the wire (the `GetStats` RPC), with
    /// the node's usual retry schedule and health bookkeeping.
    pub fn fetch_stats(&self, peer: PeerId) -> Result<MetricsSnapshot, PlanetPError> {
        let addr = self
            .inner
            .resolve(peer)
            .ok_or_else(|| PlanetPError::UnknownPeer(format!("peer {peer}")))?;
        match self.inner.rpc_with_retry(
            peer,
            &addr,
            &LiveMsg::StatsRequest,
            self.inner.config.io_timeout,
        ) {
            Ok(LiveMsg::StatsResponse { snapshot }) => Ok(snapshot),
            Ok(LiveMsg::Busy { retry_after_ms, .. }) => Err(PlanetPError::Protocol(format!(
                "peer {peer} is overloaded (retry in {retry_after_ms} ms)"
            ))),
            Ok(_) => {
                self.inner.stats.unexpected_replies.inc();
                Err(PlanetPError::Protocol("unexpected stats reply".into()))
            }
            Err(e) => Err(PlanetPError::Network(e)),
        }
    }

    /// Health history for one peer, if it has been contacted.
    pub fn peer_health(&self, peer: PeerId) -> Option<PeerHealthEntry> {
        self.inner.health.lock().get(peer)
    }

    /// Test hook: break every pooled stream to `peer` at the socket
    /// level without telling the pool, simulating a peer that silently
    /// dropped its keep-alives (restart, NAT timeout). The next pooled
    /// contact sees a stale stream and must recover transparently.
    /// Returns how many streams were broken (0 when pooling is off or
    /// no stream to that peer exists).
    pub fn debug_break_pooled_conns(&self, peer: PeerId) -> usize {
        let Some(addr) = self.inner.resolve(peer) else {
            return 0;
        };
        self.inner
            .conns
            .as_ref()
            .map_or(0, |p| p.debug_break(&addr))
    }

    /// Publish an XML document: index locally, gossip the new filter,
    /// and (with durability on) WAL the document and the bumped bloom
    /// version. A persistence failure — which includes an injected
    /// crash — is surfaced as an error: the document is indexed in this
    /// process's memory but will not survive a restart, exactly like a
    /// publish that raced a real crash.
    pub fn publish(&self, xml: &str) -> Result<u64, PlanetPError> {
        let doc = self.inner.store.lock().publish(xml)?;
        self.inner.gossip_own_update();
        self.inner.durable_append(WalRecord::Publish {
            doc,
            xml: xml.to_string(),
        })?;
        self.inner.persist_own_versions()?;
        Ok(doc)
    }

    /// Ranked TFxIPF search across the community. The result's
    /// [`SearchCoverage`] says how much of the community answered.
    pub fn search_ranked(
        &self,
        raw_query: &str,
        k: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        self.inner.ranked_search(raw_query, k)
    }

    /// Ranked search with an explicit fan-out group size, overriding
    /// `config.fanout.group_size` for this one query. `1` reproduces
    /// the strictly sequential rank-order walk — benches and tests use
    /// this to compare group sizes on the same node.
    pub fn search_ranked_grouped(
        &self,
        raw_query: &str,
        k: usize,
        group_size: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        self.inner.ranked_search_with(raw_query, k, group_size)
    }

    /// Ask `proxy` to run the ranked search on our behalf — the §7.2
    /// "proxy search" extension for bandwidth-limited peers. The proxy
    /// does the fan-out; we pay for one request and one reply. The
    /// returned coverage is the proxy's view of its fan-out.
    pub fn search_via_proxy(
        &self,
        proxy: PeerId,
        raw_query: &str,
        k: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        let addr = self
            .inner
            .resolve(proxy)
            .ok_or_else(|| PlanetPError::UnknownPeer(format!("peer {proxy}")))?;
        match self.inner.rpc_with_retry(
            proxy,
            &addr,
            &LiveMsg::ProxySearchRequest {
                query: raw_query.to_string(),
                k,
            },
            self.inner.proxy_read_timeout(),
        ) {
            Ok(LiveMsg::ProxySearchResponse { hits, coverage }) => {
                // The proxy is as untrusted as any remote peer: drop
                // non-finite scores (mirroring ranked_search's guard)
                // and reject coverage bookkeeping that cannot balance.
                let hits: Vec<LiveHit> = hits
                    .into_iter()
                    .filter(|(_, _, score, _, _)| {
                        let ok = score.is_finite();
                        if !ok {
                            debug_log!(
                                "planetp[{}]: dropped non-finite score from proxy {proxy}",
                                self.inner.id
                            );
                        }
                        ok
                    })
                    .map(|(peer, doc, score, hash, xml)| LiveHit {
                        peer,
                        doc,
                        score,
                        hash,
                        // The proxy already collapsed replica
                        // duplicates; provenance is not re-derived
                        // through the narrow proxy reply.
                        replica_of: None,
                        xml,
                    })
                    .collect();
                if coverage.peers_attempted() > coverage.peers_considered {
                    self.inner.stats.unexpected_replies.inc();
                    return Err(PlanetPError::Protocol(
                        "proxy coverage bookkeeping does not balance".into(),
                    ));
                }
                Ok(LiveSearchResult { hits, coverage })
            }
            Ok(LiveMsg::Busy { retry_after_ms, .. }) => Err(PlanetPError::Protocol(format!(
                "proxy {proxy} is overloaded (retry in {retry_after_ms} ms)"
            ))),
            Ok(_) => {
                self.inner.stats.unexpected_replies.inc();
                Err(PlanetPError::Protocol("unexpected proxy reply".into()))
            }
            Err(e) => Err(PlanetPError::Network(e)),
        }
    }

    /// Exhaustive conjunction search across the community. Candidates
    /// are contacted in one parallel batch; dead peers are skipped or
    /// cut off at the fan-out deadline, and the coverage summary
    /// accounts for every candidate that did not answer.
    pub fn search_exhaustive(&self, raw_query: &str) -> Result<LiveSearchResult, PlanetPError> {
        self.inner.exhaustive_search(raw_query)
    }

    /// Stop the node's threads. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LiveNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Scrape a node's metrics without being a community member: connect
/// to `addr`, send a [`LiveMsg::StatsRequest`], and return the
/// snapshot. This is what `planetp stats <addr>` uses — any process
/// that speaks the framing can interrogate any live node.
pub fn scrape_stats(addr: &str, timeout: Duration) -> io::Result<MetricsSnapshot> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    crate::wire::write_frame(&mut stream, &[LiveMsg::StatsRequest])?;
    let (frame, _, _) = crate::wire::read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))?;
    match frame.into_value().into_iter().next() {
        Some(LiveMsg::StatsResponse { snapshot }) => Ok(snapshot),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected stats reply",
        )),
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
        assert!(!offer_hit(&mut top, hit(f64::NAN), 2));
        let mut top = vec![hit(f64::NAN), hit(2.0)];
        assert!(offer_hit(&mut top, hit(3.0), 2));
        assert!(top.iter().any(|h| h.score == 3.0));
        // NaN never enters even a non-full list...
        let mut top = vec![hit(1.0)];
        assert!(!offer_hit(&mut top, hit(f64::NAN), 2));
        assert_eq!(top.len(), 1);
        // ...and a NaN already present counts as minimal: any real
        // score evicts it, so it cannot pin itself at rank 1.
        let mut top = vec![hit(f64::NAN), hit(2.0)];
        assert!(offer_hit(&mut top, hit(1.0), 2));
        assert!(top.iter().all(|h| h.score.is_finite()));
    }

    #[test]
    fn nan_scores_sort_without_panicking() {
        let mut hits = vec![hit(f64::NAN), hit(1.0), hit(f64::NAN), hit(0.5)];
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| (a.peer, a.doc).cmp(&(b.peer, b.doc)))
        });
        assert_eq!(hits.len(), 4);
    }

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
