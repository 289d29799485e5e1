//! The node's metrics: one [`Registry`] shared with the gossip engine,
//! the handles every module records into, and the `GetStats` client.
//! Handles are atomics — this module owns no lock.

use planetp_obs::{
    names, Counter, Gauge, Histogram, MetricsSnapshot, Registry, LATENCY_MS_BUCKETS,
    SIZE_BYTES_BUCKETS,
};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

use super::{Inner, LiveMsg};

/// Declares [`NodeStats`]: every metric handle stated once — field,
/// kind, and the name (and buckets) it is registered under.
macro_rules! node_stats {
    ($($(#[$doc:meta])* $field:ident: $kind:ident($($arg:expr),+),)*) => {
        /// Node-level counters and histograms. Every field is a handle
        /// into the node's unified [`Registry`] — the same registry the
        /// gossip engine records into once attached — so one
        /// [`MetricsSnapshot`] covers the whole node.
        /// [`NodeStatsSnapshot`] remains as a thin compatibility view
        /// over the failure counters.
        #[derive(Debug)]
        pub(super) struct NodeStats {
            pub(super) registry: Registry,
            $($(#[$doc])* pub(super) $field: node_stats!(@handle $kind),)*
        }

        impl NodeStats {
            /// Fresh handles in a registry of their own.
            pub(super) fn new() -> Self {
                let registry = Registry::new();
                Self {
                    $($field: registry.$kind($($arg),+),)*
                    registry,
                }
            }
        }
    };
    (@handle counter) => { Counter };
    (@handle gauge) => { Gauge };
    (@handle histogram) => { Histogram };
}

node_stats! {
    malformed_frames: counter(names::NET_MALFORMED_FRAMES),
    reply_failures: counter(names::NET_REPLY_FAILURES),
    rpc_retries: counter(names::RPC_RETRIES),
    rpc_failures: counter(names::RPC_FAILURES),
    gossip_retries: counter(names::GOSSIP_RETRIES),
    gossip_failures: counter(names::GOSSIP_FAILURES),
    contacts_skipped: counter(names::HEALTH_CONTACTS_SKIPPED),
    unexpected_replies: counter(names::RPC_UNEXPECTED_REPLIES),
    peers_marked_offline: counter(names::HEALTH_OFFLINE),
    peers_recovered: counter(names::HEALTH_RECOVERIES),
    searches_degraded: counter(names::SEARCH_DEGRADED),
    health_suspects: counter(names::HEALTH_SUSPECTS),
    bytes_out: counter(names::NET_BYTES_OUT),
    bytes_in: counter(names::NET_BYTES_IN),
    frames_out: counter(names::NET_FRAMES_OUT),
    frames_in: counter(names::NET_FRAMES_IN),
    rpc_latency_ms: histogram(names::RPC_LATENCY_MS, LATENCY_MS_BUCKETS),
    gossip_contact_ms: histogram(names::GOSSIP_EXCHANGE_MS, LATENCY_MS_BUCKETS),
    search_queries: counter(names::SEARCH_QUERIES),
    search_peers_contacted: counter(names::SEARCH_PEERS_CONTACTED),
    search_stopped_early: counter(names::SEARCH_STOPPED_EARLY),
    search_exhausted: counter(names::SEARCH_EXHAUSTED),
    search_groups: counter(names::SEARCH_GROUPS),
    search_fanout_ms: histogram(names::SEARCH_FANOUT_MS, LATENCY_MS_BUCKETS),
    bloom_wire_bytes: histogram(names::BLOOM_WIRE_BYTES, SIZE_BYTES_BUCKETS),
    directory_size: gauge(names::GOSSIP_DIRECTORY_SIZE),
    recovery_restarts: counter(names::RECOVERY_RESTARTS),
    recovery_docs_restored: counter(names::RECOVERY_DOCS_RESTORED),
    recovery_peers_restored: counter(names::RECOVERY_PEERS_RESTORED),
    recovery_catchup_ms: histogram(names::RECOVERY_CATCHUP_MS, LATENCY_MS_BUCKETS),
    /// Initiator-side replica accounting. Registered on every node —
    /// even a node that hosts nothing collapses duplicates and counts
    /// recovered hits when *other* peers replicate.
    replica_dup_collapsed: counter(names::REPLICA_DUP_COLLAPSED),
    replica_recovered_hits: counter(names::REPLICA_RECOVERED_HITS),
    /// Server-side admission gate accounting (DESIGN.md §16).
    admission_admitted: counter(names::ADMISSION_ADMITTED),
    admission_shed: counter(names::ADMISSION_SHED),
    admission_expired: counter(names::ADMISSION_EXPIRED),
    admission_queue_wait_ms: histogram(names::ADMISSION_QUEUE_WAIT_MS, LATENCY_MS_BUCKETS),
    /// `Busy` traffic: replies this node sent (as an overloaded
    /// server), received (as a client), and contacts the client-side
    /// busy throttle skipped.
    busy_sent: counter(names::BUSY_SENT),
    busy_received: counter(names::BUSY_RECEIVED),
    busy_throttled_peers: counter(names::BUSY_THROTTLED_PEERS),
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
    pub(super) fn snapshot(&self, recovering: bool) -> NodeStatsSnapshot {
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

impl Inner {
    /// Point-in-time snapshot of the node's unified metrics registry
    /// (gossip engine, transport, search, and health counters), with
    /// gauges refreshed first.
    pub(super) fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.stats.directory_size.set(self.directory_len() as i64);
        self.stats.registry.snapshot()
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
