//! Shared metric names.
//!
//! The simulator and the live TCP runtime record under the *same*
//! names so a snapshot from either answers the same questions (the
//! simulator's byte counts come from the paper's Table 2 wire model,
//! the live runtime's from real serialized frames). Per-message-class
//! families append the `Message::kind_name()` label, e.g.
//! `gossip.msgs_out.rumor`.

/// Gossip rounds executed (one per `tick` that acted).
pub const GOSSIP_ROUNDS: &str = "gossip.rounds";
/// Rumors this node originated.
pub const GOSSIP_RUMORS_ORIGINATED: &str = "gossip.rumors.originated";
/// Rumors learned from a push.
pub const GOSSIP_LEARNED_PUSH: &str = "gossip.rumors.learned.push";
/// Rumors learned via partial anti-entropy ids.
pub const GOSSIP_LEARNED_PARTIAL_AE: &str = "gossip.rumors.learned.partial_ae";
/// Rumors learned via full anti-entropy.
pub const GOSSIP_LEARNED_AE: &str = "gossip.rumors.learned.ae";
/// Rumors retired by the death counter.
pub const GOSSIP_RUMORS_RETIRED: &str = "gossip.rumors.retired";
/// Adaptive interval slow-downs.
pub const GOSSIP_SLOWDOWNS: &str = "gossip.interval.slowdowns";
/// Adaptive interval resets to the base interval.
pub const GOSSIP_INTERVAL_RESETS: &str = "gossip.interval.resets";
/// Failed gossip contacts.
pub const GOSSIP_CONTACT_FAILURES: &str = "gossip.contact.failures";
/// Contacts that crossed the suspect threshold.
pub const GOSSIP_CONTACT_SUSPECTS: &str = "gossip.contact.suspects";
/// Contacts that recovered a previously failing peer.
pub const GOSSIP_CONTACT_RECOVERIES: &str = "gossip.contact.recoveries";
/// Family prefix: gossip messages sent, by message class.
pub const GOSSIP_MSGS_OUT: &str = "gossip.msgs_out";
/// Family prefix: gossip messages received, by message class.
pub const GOSSIP_MSGS_IN: &str = "gossip.msgs_in";
/// Family prefix: gossip bytes sent (Table 2 wire model), by class.
pub const GOSSIP_BYTES_OUT: &str = "gossip.bytes_out";
/// Family prefix: gossip bytes received (Table 2 wire model), by class.
pub const GOSSIP_BYTES_IN: &str = "gossip.bytes_in";

/// Bloom updates — rumors and pull / anti-entropy reply entries —
/// sent as delta chains instead of full filters.
pub const GOSSIP_DELTA_SENT: &str = "gossip.delta.sent";
/// Delta chains successfully applied to the receiver's directory entry.
pub const GOSSIP_DELTA_APPLIED: &str = "gossip.delta.applied";
/// Delta chains, from a rumor or a reply, that could not be applied
/// (missed base, parameter mismatch, corrupt payload) — each triggers
/// a full-filter pull.
pub const GOSSIP_DELTA_CHAIN_BREAKS: &str = "gossip.delta.chain_breaks";
/// Bloom updates and reply entries sent with the full filter because
/// no stored chain covered the receiver's version (or the chain
/// outgrew the full filter). Join rumors are not counted.
pub const GOSSIP_DELTA_FULL_FALLBACKS: &str = "gossip.delta.full_fallbacks";
/// Wire bytes saved by sending delta chains instead of full filters
/// (full entry size minus delta entry size, summed at send time).
pub const GOSSIP_DELTA_BYTES_SAVED: &str = "gossip.delta.bytes_saved";

/// Bytes written to the transport (live: serialized frames including
/// the length prefix; sim: Table 2 model).
pub const NET_BYTES_OUT: &str = "net.bytes_out";
/// Bytes read from the transport.
pub const NET_BYTES_IN: &str = "net.bytes_in";
/// Frames written to the transport.
pub const NET_FRAMES_OUT: &str = "net.frames_out";
/// Frames read from the transport.
pub const NET_FRAMES_IN: &str = "net.frames_in";
/// Inbound frames that failed to parse or arrived truncated.
pub const NET_MALFORMED_FRAMES: &str = "net.malformed_frames";
/// Failed attempts to write a reply on an accepted connection.
pub const NET_REPLY_FAILURES: &str = "net.reply_failures";

/// Histogram: wall-clock latency of one RPC attempt (ms).
pub const RPC_LATENCY_MS: &str = "rpc.latency_ms";
/// RPC attempts that were retried.
pub const RPC_RETRIES: &str = "rpc.retries";
/// RPCs that exhausted their retry budget.
pub const RPC_FAILURES: &str = "rpc.failures";
/// RPC replies whose type did not match the request.
pub const RPC_UNEXPECTED_REPLIES: &str = "rpc.unexpected_replies";
/// Histogram: wall-clock duration of one full gossip exchange (ms).
pub const GOSSIP_EXCHANGE_MS: &str = "gossip.exchange_ms";
/// Gossip exchanges retried after a transport error.
pub const GOSSIP_RETRIES: &str = "gossip.retries";
/// Gossip exchanges that exhausted their retry budget.
pub const GOSSIP_FAILURES: &str = "gossip.failures";
/// Gauge: peers in the local directory copy (refreshed per snapshot).
pub const GOSSIP_DIRECTORY_SIZE: &str = "gossip.directory_size";

/// Peers newly marked Suspect.
pub const HEALTH_SUSPECTS: &str = "health.suspects";
/// Peers newly marked Offline.
pub const HEALTH_OFFLINE: &str = "health.offline";
/// Peers that recovered to Healthy.
pub const HEALTH_RECOVERIES: &str = "health.recoveries";
/// Contacts skipped because the peer was offline and in backoff.
pub const HEALTH_CONTACTS_SKIPPED: &str = "health.contacts_skipped";

/// Ranked/exhaustive searches issued.
pub const SEARCH_QUERIES: &str = "search.queries";
/// Peers actually contacted while searching.
pub const SEARCH_PEERS_CONTACTED: &str = "search.peers_contacted";
/// Candidate groups dispatched.
pub const SEARCH_GROUPS: &str = "search.groups";
/// Searches cut short by the adaptive stopping heuristic.
pub const SEARCH_STOPPED_EARLY: &str = "search.stopped_early";
/// Searches that ran the full candidate list.
pub const SEARCH_EXHAUSTED: &str = "search.exhausted";
/// Searches that returned with incomplete coverage.
pub const SEARCH_DEGRADED: &str = "search.degraded";
/// Histogram: per-group dispatch duration (ms).
pub const SEARCH_GROUP_MS: &str = "search.group_ms";
/// Histogram: wall-clock of one parallel group fan-out (ms).
pub const SEARCH_FANOUT_MS: &str = "search.fanout_ms";
/// Query-cache term lookups served from the cache.
pub const SEARCH_CACHE_HITS: &str = "search.cache.hits";
/// Query-cache term lookups that had to probe the directory filters.
pub const SEARCH_CACHE_MISSES: &str = "search.cache.misses";
/// Cached peer columns re-probed because that peer's version advanced.
pub const SEARCH_CACHE_PEER_REFRESHES: &str = "search.cache.peer_refreshes";
/// Query-cache rebuilds from scratch (directory membership changed).
pub const SEARCH_CACHE_REBUILDS: &str = "search.cache.rebuilds";

/// Bloom-tree: per-peer filter probes avoided by candidate pruning
/// (tracked peers minus surviving candidates, per cold-term lookup).
pub const BLOOMTREE_PROBES_SAVED: &str = "bloomtree.probes_saved";
/// Bloom-tree: tree nodes (interior + leaf) whose union filter was
/// probed during candidate lookups.
pub const BLOOMTREE_NODES_VISITED: &str = "bloomtree.nodes_visited";
/// Bloom-tree: full bulk rebuilds (directory membership changed).
pub const BLOOMTREE_REBUILDS: &str = "bloomtree.rebuilds";
/// Gauge: current bloom-tree height in levels, leaves included
/// (0 = empty tree).
pub const BLOOMTREE_HEIGHT: &str = "bloomtree.height";
/// Bloom-tree: candidate lookups (one per cold-term tree walk).
pub const BLOOMTREE_LOOKUPS: &str = "bloomtree.lookups";
/// Bloom-tree: candidate peers that survived pruning (their real
/// filters are still probed).
pub const BLOOMTREE_CANDIDATES: &str = "bloomtree.candidates";

/// Outbound connections newly opened (real TCP connects) by the
/// persistent connection pool.
pub const CONN_OPENED: &str = "conn.opened";
/// Contacts served by reusing an already-established pooled stream
/// (keep-alive hit — no TCP connect paid).
pub const CONN_REUSED: &str = "conn.reused";
/// Stale keep-alive streams detected in use and transparently replaced
/// by one fresh connect — never charged as a retry or health failure.
pub const CONN_STALE_RECONNECTS: &str = "conn.stale_reconnects";
/// Gauge: correlated RPCs currently in flight on pooled streams.
pub const CONN_INFLIGHT: &str = "conn.inflight";
/// Correlated replies whose id matched no waiting request (late after a
/// timeout, duplicated, or deliberately injected as stale).
pub const CONN_UNKNOWN_CORR: &str = "conn.unknown_corr";

/// Gauge: jobs waiting in the shared search worker pool.
pub const POOL_QUEUE_DEPTH: &str = "pool.queue_depth";
/// Jobs executed by the shared search worker pool.
pub const POOL_JOBS: &str = "pool.jobs_executed";

/// Histogram: serialized Bloom filter size on the wire (bytes).
pub const BLOOM_WIRE_BYTES: &str = "bloom.wire_bytes";

/// Durable store: WAL records appended (and fsynced) this lifetime.
pub const STORE_WAL_RECORDS: &str = "store.wal_records";
/// Durable store: WAL records replayed during recovery.
pub const STORE_WAL_REPLAYS: &str = "store.wal_replays";
/// Durable store: corrupt/torn WAL tails truncated during recovery.
pub const STORE_TRUNCATED_TAILS: &str = "store.truncated_tails";
/// Durable store: snapshots written (startup persist + compactions).
pub const STORE_SNAPSHOTS: &str = "store.snapshots";
/// Durable store: WAL compactions (snapshot + log truncate).
pub const STORE_COMPACTIONS: &str = "store.compactions";
/// Durable store: bytes appended to the WAL.
pub const STORE_WAL_BYTES: &str = "store.wal_bytes";
/// Durable store: writes refused because the store was poisoned by an
/// earlier (possibly injected) crash.
pub const STORE_POISONED_WRITES: &str = "store.poisoned_writes";

/// Recoveries performed (state found on disk at startup).
pub const RECOVERY_RESTARTS: &str = "recovery.restarts";
/// Documents rehydrated into the local store during recovery.
pub const RECOVERY_DOCS_RESTORED: &str = "recovery.docs_restored";
/// Directory entries rehydrated from the persisted directory.
pub const RECOVERY_PEERS_RESTORED: &str = "recovery.peers_restored";
/// Histogram: wall-clock from recovered startup to the first completed
/// anti-entropy catch-up exchange (ms).
pub const RECOVERY_CATCHUP_MS: &str = "recovery.catchup_ms";

/// Tracked-rumor mark events (simulator: a peer learned a tracked id).
pub const SIM_TRACKED_KNOWN: &str = "sim.tracked.known_peers";
/// Tracked rumors that reached every peer.
pub const SIM_RUMORS_CONVERGED: &str = "sim.rumors.converged";
/// Histogram: birth-to-everywhere latency of tracked rumors (ms).
pub const SIM_CONVERGENCE_MS: &str = "sim.convergence_ms";

/// Replica pushes sent (one per target RPC attempt).
pub const REPLICA_PUSHES: &str = "replica.pushes";
/// Incoming replicas admitted and ingested into the local store.
pub const REPLICA_ACCEPTS: &str = "replica.accepts";
/// Incoming replicas refused (capacity, or eviction not worth it).
pub const REPLICA_REJECTS: &str = "replica.rejects";
/// Hosted replicas evicted under capacity pressure.
pub const REPLICA_EVICTIONS: &str = "replica.evictions";
/// Replica payload bytes accepted into the local store.
pub const REPLICA_BYTES: &str = "replica.bytes";
/// Duplicate search hits collapsed by content hash at the initiator.
pub const REPLICA_DUP_COLLAPSED: &str = "replica.dup_hits_collapsed";
/// Search hits only reachable through a replica (no home copy seen).
pub const REPLICA_RECOVERED_HITS: &str = "replica.recovered_hits";
/// Gauge: replicas currently hosted on behalf of other peers.
pub const REPLICA_HOSTED: &str = "replica.hosted";

/// Admission control: requests granted a service slot.
pub const ADMISSION_ADMITTED: &str = "admission.admitted";
/// Admission control: requests shed with a `Busy` reply (overflow
/// eviction, full queue, or the forced-Busy fault rule).
pub const ADMISSION_SHED: &str = "admission.shed";
/// Admission control: requests dropped because their propagated
/// deadline passed before service (the caller had already timed out).
pub const ADMISSION_EXPIRED: &str = "admission.expired";
/// Histogram: time a request spent in the admission queue before its
/// grant (ms).
pub const ADMISSION_QUEUE_WAIT_MS: &str = "admission.queue_wait_ms";

/// `Busy` replies this node sent while shedding load.
pub const BUSY_SENT: &str = "busy.sent";
/// `Busy` replies this node received from overloaded peers. Never
/// charged to peer health — the peer answered, it is merely shedding.
pub const BUSY_RECEIVED: &str = "busy.received";
/// Group-dispatch contacts skipped by the client-side busy throttle
/// (repeated `Busy` from a peer inside its advertised backoff window).
pub const BUSY_THROTTLED_PEERS: &str = "busy.throttled_peers";
