//! Membership: the gossip engine and its loop thread, announcing this
//! node's own updates, and what makes both survive a restart (WAL
//! persistence, the start-time directory rebuild, the catch-up phase).
//!
//! [`Membership::gossip`] is the one lock other modules' work funnels
//! into — always through the methods below, which return owned values.
//! The durable store's lock is a leaf and is never held together with
//! it: persistence snapshots under the engine lock, then writes.

use parking_lot::{Mutex, MutexGuard};
use planetp_bloom::{BloomDiff, BloomFilter, CompressedBloom};
use planetp_gossip::{
    DirEntry, Directory, EngineStats, GossipEngine, Message, PeerId, PeerStatus, SpeedClass,
};
use planetp_replica::{PeerView, ReplicaAd};
use planetp_search::PeerVersion;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use super::stats::NodeStats;
use super::{Inner, LiveConfig, LiveDelta, LiveMsg, LivePayload};
use crate::durable::{DurableStore, RecoveryInfo, StoreMetrics, WalRecord};
use crate::error::PlanetPError;

/// The engine plus the one piece of state only ever touched with it.
struct Gossip {
    engine: GossipEngine<LivePayload>,
    /// The uncompressed local filter as of the last *gossiped*
    /// `bloom_version` — the diff base for delta publishes (§7.2).
    prev_bloom: BloomFilter,
}

pub(super) struct Membership {
    gossip: Mutex<Gossip>,
    /// Fallback address book (bootstrap contact before its payload
    /// arrives). Written only at start.
    addr_book: HashMap<PeerId, String>,
    /// Snapshot + WAL store (crash-restart durability), when enabled.
    durable: Option<Mutex<DurableStore>>,
    /// Recovered from disk and not yet through the first successful
    /// anti-entropy exchange with the community.
    recovering: AtomicBool,
    /// When recovery finished loading state (feeds the catch-up
    /// histogram once the first exchange completes).
    recovered_at: Option<Instant>,
}

/// How one peer's mirrored filter gets brought up to date during a
/// query-side sync (see `search.rs`).
pub(super) enum SyncWork {
    /// Mirror already matches the directory version.
    Current,
    /// Toggle these diff steps into the mirrored filter in place —
    /// the delta-gossip fast path that skips re-decompressing the
    /// full 50 KB payload on every version bump.
    Delta(Vec<LiveDelta>),
    /// Decompress the full payload from scratch.
    Full(CompressedBloom),
}

/// Open the snapshot + WAL store (running recovery), if configured.
/// This happens before the gossip engine exists, because what recovery
/// finds decides how the engine starts.
pub(super) fn open_durable(
    id: PeerId,
    config: &LiveConfig,
    stats: &NodeStats,
) -> Result<Option<DurableStore>, PlanetPError> {
    let Some(dc) = &config.durable else {
        return Ok(None);
    };
    let store = DurableStore::open(
        dc.clone(),
        StoreMetrics::in_registry(&stats.registry),
        config.faults.clone(),
    )?;
    match store.state().id {
        Some(owner) if owner != id => Err(PlanetPError::Protocol(format!(
            "data dir belongs to peer {owner}, not peer {id}"
        ))),
        _ => Ok(Some(store)),
    }
}

impl Membership {
    /// Build the engine — fresh, or rebuilt around what recovery found
    /// — announce `payload`, and persist identity and the announced
    /// version pair before anything is served. `local_bloom` is the
    /// filter `payload` was compressed from, so it is the correct base
    /// for the first publish diff.
    pub(super) fn start(
        id: PeerId,
        config: &LiveConfig,
        stats: &NodeStats,
        payload: LivePayload,
        local_bloom: BloomFilter,
        bootstrap: Option<(PeerId, String)>,
        mut durable: Option<DurableStore>,
    ) -> Result<Self, PlanetPError> {
        let seed = config.seed ^ u64::from(id);
        let recovered = durable
            .as_ref()
            .filter(|d| d.recovery().recovered)
            .map(|d| d.state().clone());
        let mut recovering = false;
        let mut engine = match recovered {
            Some(state) => {
                // Crash-restart: rebuild the engine around the persisted
                // directory and re-announce with a version pair strictly
                // above the persisted high-water mark — even if a torn
                // tail lost recent bloom bumps, `(sv+1, _)` supersedes
                // anything the community gossiped for the old
                // incarnation (the status version only changes here, and
                // it is persisted synchronously below before serving).
                let entry = |status_version, bloom_version, payload| DirEntry {
                    status_version,
                    bloom_version,
                    payload,
                    status: PeerStatus::Online,
                    speed: SpeedClass::Fast,
                };
                let mut dir: Directory<LivePayload> = Directory::new();
                dir.insert(
                    id,
                    entry(
                        state.status_version.max(1),
                        state.bloom_version,
                        Some(payload.clone()),
                    ),
                );
                for (pid, p) in &state.peers {
                    dir.insert(
                        *pid,
                        entry(p.status_version, p.bloom_version, p.payload.clone()),
                    );
                    stats.recovery_peers_restored.inc();
                }
                if let Some((b, _)) = &bootstrap {
                    if dir.get(*b).is_none() {
                        dir.insert(*b, entry(0, 0, None));
                    }
                }
                let mut engine =
                    GossipEngine::with_directory(id, SpeedClass::Fast, config.gossip, seed, dir);
                engine.local_recover(payload, (state.status_version, state.bloom_version));
                stats.recovery_restarts.inc();
                // Catch-up phase: there is someone to catch up with.
                recovering = !state.peers.is_empty() || bootstrap.is_some();
                engine
            }
            None => GossipEngine::new(
                id,
                SpeedClass::Fast,
                config.gossip,
                seed,
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
        Ok(Self {
            gossip: Mutex::new(Gossip {
                engine,
                prev_bloom: local_bloom,
            }),
            addr_book: bootstrap.into_iter().collect(),
            durable: durable.map(Mutex::new),
            recovering: AtomicBool::new(recovering),
            recovered_at: recovering.then(Instant::now),
        })
    }
}

/// The gossip loop (also drives the replication tick: replication
/// needs no thread of its own, and piggybacking keeps its directory
/// samples in lockstep with gossip rounds).
pub(super) fn run(inner: &Inner) {
    let replicates = inner.replicates();
    let replica_interval = Duration::from_millis(inner.config.replica.interval_ms);
    let decay_interval = Duration::from_millis(inner.config.replica.decay_interval_ms);
    let mut next_tick = Duration::ZERO;
    let mut next_replica = Duration::ZERO;
    let mut next_decay = decay_interval;
    let started = Instant::now();
    while !inner.shutdown.load(Ordering::Relaxed) {
        if started.elapsed() < next_tick.min(next_replica) {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        if started.elapsed() >= next_tick {
            let (outcome, interval_ms) = {
                let mut g = inner.gossip();
                let outcome = g.engine.tick(inner.now_ms());
                (outcome, g.engine.current_interval())
            };
            next_tick = started.elapsed() + Duration::from_millis(interval_ms);
            if let Some(out) = outcome {
                inner.gossip_to(out.target, out.message);
            }
            // Fold whatever this tick (and any inbound gossip since
            // the last one) taught us into the WAL.
            inner.persist_directory();
            // Forget pooled streams that broke since the last tick.
            inner.reap_broken_conns();
        }
        if !replicates {
            // Without replication the loop only waits on gossip ticks.
            next_replica = next_tick;
        } else if started.elapsed() >= next_replica {
            next_replica = started.elapsed() + replica_interval;
            let decay = started.elapsed() >= next_decay;
            if decay {
                next_decay = started.elapsed() + decay_interval;
            }
            inner.replica_tick(decay);
        }
    }
}

impl Inner {
    /// The engine lock. Private: the guard never leaves this module.
    fn gossip(&self) -> MutexGuard<'_, Gossip> {
        self.membership.gossip.lock()
    }

    // ------------------------------------------------------------------
    // The directory, as owned values
    // ------------------------------------------------------------------

    pub(super) fn resolve(&self, peer: PeerId) -> Option<String> {
        let g = self.gossip();
        let gossiped = g.engine.directory().get(peer)?.payload.as_ref();
        gossiped
            .map(|p| p.addr.clone())
            .or_else(|| self.membership.addr_book.get(&peer).cloned())
    }

    pub(super) fn directory_len(&self) -> usize {
        self.gossip().engine.directory().len()
    }

    pub(super) fn directory_digest(&self) -> u64 {
        self.gossip().engine.directory().digest()
    }

    pub(super) fn gossip_stats(&self) -> EngineStats {
        self.gossip().engine.stats()
    }

    /// The `(status_version, bloom_version)` pair this node announces.
    pub(super) fn announced_versions(&self) -> (u64, u32) {
        let g = self.gossip();
        let e = g.engine.directory().get(self.id).expect("self entry");
        (e.status_version, e.bloom_version)
    }

    /// The replication ad in this node's own directory entry.
    pub(super) fn gossiped_replica_ad(&self) -> Option<ReplicaAd> {
        let g = self.gossip();
        let own = g.engine.directory().get(self.id)?;
        own.payload.as_ref()?.replica
    }

    /// Every other peer as the replication planner sees it, plus the
    /// addresses of those that gossiped one.
    pub(super) fn replica_views(&self) -> (Vec<PeerView>, HashMap<PeerId, String>) {
        let g = self.gossip();
        let mut views = Vec::new();
        let mut addrs = HashMap::new();
        for (peer, e) in g.engine.directory().iter() {
            if peer == self.id {
                continue;
            }
            if let Some(p) = &e.payload {
                addrs.insert(peer, p.addr.clone());
            }
            views.push(PeerView {
                peer,
                ad: e.payload.as_ref().and_then(|p| p.replica),
                online: matches!(e.status, PeerStatus::Online),
            });
        }
        (views, addrs)
    }

    /// One entry per peer with a gossiped payload — `(peer, addr,
    /// directory version, how to bring a mirror at version
    /// `held(peer)` up to date)` — taken under one short engine lock.
    /// `held` must not lock anything: this is the inner half of the
    /// runtime's one nested acquisition (query mirror → engine).
    pub(super) fn sync_work(
        &self,
        held: impl Fn(PeerId) -> Option<PeerVersion>,
    ) -> Vec<(PeerId, String, PeerVersion, SyncWork)> {
        let g = self.gossip();
        let mut work = Vec::new();
        for (pid, e) in g.engine.directory().iter() {
            let Some(p) = &e.payload else { continue };
            let version = (e.status_version, e.bloom_version);
            let step = match held(pid) {
                Some(v) if v == version => SyncWork::Current,
                // Same incarnation, strictly behind: the stored chain
                // may cover exactly our gap.
                Some(v) if v.0 == e.status_version && v.1 < e.bloom_version => g
                    .engine
                    .delta_steps(pid, e.status_version, v.1, e.bloom_version)
                    .map_or_else(|| SyncWork::Full(p.bloom.clone()), SyncWork::Delta),
                _ => SyncWork::Full(p.bloom.clone()),
            };
            work.push((pid, p.addr.clone(), version, step));
        }
        work
    }

    // ------------------------------------------------------------------
    // Feeding the engine
    // ------------------------------------------------------------------

    /// Hand one inbound protocol message to the engine; returns what it
    /// wants said back to the sender, framed as this node's messages.
    pub(super) fn handle_gossip(&self, from: PeerId, msg: Message<LivePayload>) -> Vec<LiveMsg> {
        let now = self.now_ms();
        let answers = self.gossip().engine.handle_message(from, msg, now);
        answers
            .into_iter()
            .map(|(_, msg)| LiveMsg::Gossip { from: self.id, msg })
            .collect()
    }

    /// A suspect/offline peer answered again.
    pub(super) fn contact_recovered(&self, peer: PeerId) {
        self.gossip().engine.on_contact_recovered(peer);
    }

    /// A logical contact failed. Only crossing the offline threshold
    /// feeds the directory's offline marking (§3); the suspect phase
    /// only counts.
    pub(super) fn contact_failed(&self, peer: PeerId, now_ms: u64, became_offline: bool) {
        let mut g = self.gossip();
        if became_offline {
            g.engine.on_contact_failed(peer, now_ms);
        } else {
            g.engine.note_contact_suspect(peer);
        }
    }

    /// Announce a new version of the local filter to the community.
    /// The directory entry gets the full compressed payload — what a
    /// requester with no usable base (a joiner, a broken chain) is
    /// sent — and the engine gets the diff from the previously gossiped
    /// version, so rumors, pulls and anti-entropy alike ship the update
    /// as a delta chain ("PlanetP sends diffs of the Bloom filters to
    /// save bandwidth", §7.2).
    fn gossip_own_update(&self) {
        let new_filter = self.local.bloom();
        let replica = self.replica.local_ad();
        let payload = LivePayload {
            addr: self.addr.clone(),
            bloom: CompressedBloom::compress_observed(&new_filter, &self.stats.bloom_wire_bytes),
            replica,
        };
        let mut g = self.gossip();
        if g.prev_bloom.params() == new_filter.params() {
            let diff = BloomDiff::between_observed(
                &g.prev_bloom,
                &new_filter,
                &self.stats.bloom_wire_bytes,
            );
            g.engine
                .local_update_delta(payload, LiveDelta { diff, replica });
        } else {
            // A filter rebuild changed the parameters: no meaningful
            // diff exists, gossip the full payload.
            g.engine.local_update(payload);
        }
        g.prev_bloom = new_filter;
    }

    /// Announce the local store's current filter (and replication ad)
    /// as a new version, then persist the announced version pair. The
    /// error is a failed WAL append — an (injected or real) crash.
    pub(super) fn announce_and_persist(&self) -> io::Result<()> {
        self.gossip_own_update();
        if self.membership.durable.is_none() {
            return Ok(());
        }
        let (status_version, bloom_version) = self.announced_versions();
        self.durable_append(WalRecord::OwnVersions {
            status_version,
            bloom_version,
        })
    }

    // ------------------------------------------------------------------
    // Durability and catch-up
    // ------------------------------------------------------------------

    /// Append one record to the durable store, if enabled. The error is
    /// surfaced so the publish path can report an (injected or real)
    /// crash; the store poisons itself on failure, so later appends are
    /// refused like writes from a dead process.
    pub(super) fn durable_append(&self, rec: WalRecord) -> io::Result<()> {
        match &self.membership.durable {
            Some(d) => d.lock().append(rec),
            None => Ok(()),
        }
    }

    /// Persist directory deltas: peers whose gossiped versions advanced
    /// past the stored copy, and peers that departed. Runs on the
    /// gossip loop after each tick; errors poison the store and are
    /// logged, not propagated (the loop must keep gossiping).
    fn persist_directory(&self) {
        let Some(d) = &self.membership.durable else {
            return;
        };
        let snapshot: Vec<(PeerId, u64, u32, Option<LivePayload>)> = {
            let g = self.gossip();
            g.engine
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

    /// What recovery found on disk at startup, if durability is on.
    pub(super) fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.membership
            .durable
            .as_ref()
            .map(|d| d.lock().recovery())
    }

    pub(super) fn validate_durable(&self) -> Result<(), String> {
        match &self.membership.durable {
            Some(d) => d.lock().validate(),
            None => Ok(()),
        }
    }

    pub(super) fn store_poisoned(&self) -> bool {
        self.membership
            .durable
            .as_ref()
            .is_some_and(|d| d.lock().poisoned())
    }

    pub(super) fn is_recovering(&self) -> bool {
        self.membership.recovering.load(Ordering::Relaxed)
    }

    /// The first successful gossip exchange after a recovered startup
    /// completes the anti-entropy catch-up: leave the recovering state
    /// and record how long the node served with a possibly-trailing
    /// directory.
    pub(super) fn note_catchup_complete(&self) {
        if self.membership.recovering.swap(false, Ordering::Relaxed) {
            if let Some(at) = self.membership.recovered_at {
                self.stats
                    .recovery_catchup_ms
                    .observe(at.elapsed().as_millis() as u64);
            }
        }
    }
}
