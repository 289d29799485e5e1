//! [`LiveNode`]: the public handle — start, publish, search, inspect,
//! shut down. Everything here delegates to the module that owns the
//! state involved.

use planetp_bloom::CompressedBloom;
use planetp_gossip::{EngineStats, PeerId};
use planetp_obs::MetricsSnapshot;
use planetp_replica::ReplicaAd;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::gossip_loop::{self, Membership};
use super::local::LocalDocs;
use super::replica::Replication;
use super::rpc::Transport;
use super::search::QuerySide;
use super::server::{self, Server};
use super::stats::{NodeStats, NodeStatsSnapshot};
use super::{Inner, LiveConfig, LiveMsg, LivePayload, LiveSearchResult};
use crate::durable::{RecoveryInfo, WalRecord};
use crate::error::PlanetPError;
use crate::health::PeerHealthEntry;

/// A live PlanetP peer: listener + gossip loop + data store.
pub struct LiveNode {
    pub(super) inner: Arc<Inner>,
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        // One registry per node: the engine's protocol counters and the
        // runtime's transport/search/health counters land side by side,
        // so one snapshot (local call or GetStats RPC) covers it all.
        let stats = NodeStats::new();
        let durable = gossip_loop::open_durable(id, &config, &stats)?;
        let persisted = durable.as_ref().map(|d| d.state());
        let local = LocalDocs::restore(persisted, &stats)?;
        let replica = Replication::start(&config, &stats, persisted);
        let local_bloom = local.bloom();
        let payload = LivePayload {
            addr: addr.clone(),
            bloom: CompressedBloom::compress(&local_bloom),
            replica: replica.local_ad(),
        };
        let membership = Membership::start(
            id,
            &config,
            &stats,
            payload,
            local_bloom,
            bootstrap,
            durable,
        )?;
        let inner = Arc::new(Inner {
            id,
            addr,
            transport: Transport::new(&config, &stats),
            query: QuerySide::new(&config, &stats),
            server: Server::new(&config),
            membership,
            local,
            replica,
            config,
            stats,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        });
        let listen = Arc::clone(&inner);
        let gossip = Arc::clone(&inner);
        let threads = vec![
            std::thread::spawn(move || server::accept_loop(&listen, &listener)),
            std::thread::spawn(move || gossip_loop::run(&gossip)),
        ];
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
        self.inner.directory_len()
    }

    /// Directory digest (for convergence checks in tests).
    pub fn directory_digest(&self) -> u64 {
        self.inner.directory_digest()
    }

    /// Node-level failure counters.
    pub fn stats(&self) -> NodeStatsSnapshot {
        self.inner.stats.snapshot(self.inner.is_recovering())
    }

    /// Is the node still in its post-restart catch-up phase (recovered
    /// state loaded from disk, first anti-entropy exchange with the
    /// community not yet completed)? Searches still run during it —
    /// their [`SearchCoverage::recovering`](super::SearchCoverage::recovering)
    /// flag is set — but they plan against the persisted directory,
    /// which may trail the community.
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
        self.inner.announced_versions()
    }

    /// What recovery found on disk at startup, if durability is on.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.inner.recovery_info()
    }

    /// Validate the durable store's materialized state (`Ok(())` when
    /// durability is off).
    pub fn validate_durable(&self) -> Result<(), String> {
        self.inner.validate_durable()
    }

    /// Did an (injected or real) crash poison the durable store? A
    /// poisoned node keeps serving from memory but persists nothing
    /// more — the harness treats it as dead and restarts it.
    pub fn store_poisoned(&self) -> bool {
        self.inner.store_poisoned()
    }

    /// The gossip engine's protocol counters.
    pub fn gossip_stats(&self) -> EngineStats {
        self.inner.gossip_stats()
    }

    /// How many replicas this node currently hosts for other peers and
    /// the bytes they occupy, or `None` when replication is disabled.
    pub fn replica_hosted(&self) -> Option<(usize, u64)> {
        self.inner.replica_hosted()
    }

    /// The replication advertisement this node currently gossips, or
    /// `None` when replication is disabled.
    pub fn replica_ad(&self) -> Option<ReplicaAd> {
        self.inner.replica.local_ad()
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
        let timeout = self.inner.config.io_timeout;
        match self.inner.call(peer, &LiveMsg::StatsRequest, timeout)? {
            LiveMsg::StatsResponse { snapshot } => Ok(snapshot),
            _ => {
                self.inner.stats.unexpected_replies.inc();
                Err(PlanetPError::Protocol("unexpected stats reply".into()))
            }
        }
    }

    /// Health history for one peer, if it has been contacted.
    pub fn peer_health(&self, peer: PeerId) -> Option<PeerHealthEntry> {
        self.inner.peer_health(peer)
    }

    /// Test hook: break the pooled stream to `peer` at the socket
    /// level without telling the pool, simulating a peer that silently
    /// dropped its keep-alives (restart, NAT timeout). The next pooled
    /// contact sees a stale stream and must recover transparently.
    /// Returns how many streams were broken (0 when pooling is off or
    /// no stream to that peer exists).
    pub fn debug_break_pooled_conns(&self, peer: PeerId) -> usize {
        self.inner.debug_break_pooled_conns(peer)
    }

    /// Publish an XML document: index locally, WAL the document (with
    /// durability on), gossip the new filter, and WAL the bumped bloom
    /// version. A persistence failure — which includes an injected
    /// crash — is surfaced as an error: the document is indexed in this
    /// process's memory but will not survive a restart, exactly like a
    /// publish that raced a real crash.
    pub fn publish(&self, xml: &str) -> Result<u64, PlanetPError> {
        let doc = self.inner.store_publish(xml)?;
        self.inner.durable_append(WalRecord::Publish {
            doc,
            xml: xml.to_string(),
        })?;
        self.inner.announce_and_persist()?;
        Ok(doc)
    }

    /// Ranked TFxIPF search across the community. The result's
    /// [`SearchCoverage`](super::SearchCoverage) says how much of the
    /// community answered.
    pub fn search_ranked(
        &self,
        raw_query: &str,
        k: usize,
    ) -> Result<LiveSearchResult, PlanetPError> {
        self.inner
            .ranked_search(raw_query, k, self.inner.config.fanout.group_size)
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
        self.inner.ranked_search(raw_query, k, group_size)
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
        self.inner.search_via_proxy(proxy, raw_query, k)
    }

    /// Exhaustive conjunction search across the community. Candidates
    /// are contacted in one parallel batch; dead peers are skipped or
    /// cut off at the fan-out deadline, and the coverage summary
    /// accounts for every candidate that did not answer.
    pub fn search_exhaustive(&self, raw_query: &str) -> Result<LiveSearchResult, PlanetPError> {
        self.inner.exhaustive_search(raw_query)
    }

    /// Stop the node: no new connection is accepted, the gossip loop
    /// ends, and every accepted connection is hung up and its reader
    /// joined — once this returns the node serves nothing more. Called
    /// automatically on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.inner.hang_up_readers();
    }
}

impl Drop for LiveNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}
