//! Autonomous replication (DESIGN.md §15): the decision engine behind
//! its lock, the planning round the gossip loop drives, and the
//! receiving side of a `ReplicaPush`.
//!
//! The replica lock is a leaf and is never held across another lock or
//! an RPC: callers snapshot what they need (`origins()`, a plan) and
//! drop it first.

use parking_lot::Mutex;
use planetp_gossip::PeerId;
use planetp_replica::{AdmitDecision, HostedReplica, ReplicaAd, ReplicaEngine, ReplicaMetrics};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use super::rpc::CallShape;
use super::stats::NodeStats;
use super::{Inner, LiveConfig, LiveMsg};
use crate::datastore::content_hash;
use crate::durable::{NodeState, WalRecord};
use crate::wire::Priority;

pub(super) struct Replication {
    /// `None` unless `config.replica.enabled`.
    engine: Option<Mutex<ReplicaEngine>>,
}

impl Replication {
    /// Build the engine (metrics in the node registry) and resume
    /// hosting whatever the WAL says we held. If the operator disabled
    /// replication on a store that has hosted replicas, the docs stay
    /// searchable but are no longer advertised, re-pushed, or evicted.
    pub(super) fn start(
        config: &LiveConfig,
        stats: &NodeStats,
        persisted: Option<&NodeState>,
    ) -> Self {
        if !config.replica.enabled {
            return Self { engine: None };
        }
        let mut engine = ReplicaEngine::with_metrics(
            config.replica.clone(),
            ReplicaMetrics::in_registry(&stats.registry),
        );
        for (doc, pr) in persisted.into_iter().flat_map(|s| &s.replicas) {
            let hosted = HostedReplica {
                home: pr.home,
                home_doc: pr.home_doc,
                hash: pr.hash,
                bytes: persisted
                    .and_then(|s| s.docs.get(doc))
                    .map_or(0, |x| x.len() as u64),
            };
            engine.restore_hosted(*doc, hosted);
        }
        Self {
            engine: Some(Mutex::new(engine)),
        }
    }

    /// The replication ad this node currently gossips; `None` when
    /// replication is off.
    pub(super) fn local_ad(&self) -> Option<ReplicaAd> {
        self.engine.as_ref().map(|r| r.lock().local_ad())
    }
}

/// The reply to a `ReplicaPush` for `home_doc`.
fn replica_reply(home_doc: u64, accepted: bool) -> LiveMsg {
    LiveMsg::ReplicaAccept { home_doc, accepted }
}

impl Inner {
    pub(super) fn replicates(&self) -> bool {
        self.replica.engine.is_some()
    }

    /// How many replicas this node hosts and the bytes they occupy.
    pub(super) fn replica_hosted(&self) -> Option<(usize, u64)> {
        let r = self.replica.engine.as_ref()?.lock();
        Some((r.hosted_count(), r.used_bytes()))
    }

    /// Snapshot of local doc id → (home, home_doc) for hosted replicas;
    /// empty when replication is off.
    pub(super) fn replica_origins(&self) -> BTreeMap<u64, (PeerId, u64)> {
        self.replica
            .engine
            .as_ref()
            .map(|r| r.lock().origins())
            .unwrap_or_default()
    }

    /// Feed served document hashes into the hotness sketch.
    pub(super) fn note_docs_served(&self, hashes: impl IntoIterator<Item = u64>) {
        if let Some(r) = &self.replica.engine {
            let mut r = r.lock();
            for h in hashes {
                r.observe_served(h);
            }
        }
    }

    /// One replication planning round, run from the gossip loop: sample
    /// the directory into the availability tracker, plan pushes for
    /// under-replicated local documents, execute them over the normal
    /// RPC path (fault injection, health bookkeeping), and re-gossip
    /// the ad if it changed. `decay` first ages the hotness sketch.
    pub(super) fn replica_tick(&self, decay: bool) {
        let Some(replica) = &self.replica.engine else {
            return;
        };
        // 1. Directory sample: status → availability, payloads → ads.
        let (views, addrs) = self.replica_views();
        {
            let mut r = replica.lock();
            if decay {
                r.decay();
            }
            for v in &views {
                r.observe_peer(v.peer, v.online);
            }
            r.retain_peers(|p| views.iter().any(|v| v.peer == p));
        }
        // 2. Home-owned documents, then 3. plan under the replica lock
        // and push outside every lock.
        let origins = self.replica_origins();
        let own_docs = self.own_docs(|doc| origins.contains_key(&doc));
        let plans = replica.lock().plan_pushes(&own_docs, &views);
        // Background class, single attempt: repair traffic must never
        // compete with interactive work for an overloaded receiver's
        // queue, and the next round re-plans from scratch anyway, so a
        // second attempt into an overloaded or flaky peer is pure
        // added load.
        let shape = CallShape {
            attempts: 1,
            read_timeout: self.config.io_timeout,
            deadline: None,
            class: Priority::Background,
        };
        for plan in plans {
            let Some(xml) = self.doc_xml(plan.doc) else {
                continue; // unpublished since planning
            };
            let request = LiveMsg::ReplicaPush {
                home: self.id,
                home_doc: plan.doc,
                hash: plan.hash,
                hotness: replica.lock().hotness(plan.hash),
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
                match self.rpc(target, addr, &request, shape) {
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
        // reality (capacity moved, hosted count changed), so ad changes
        // ride the existing delta chain without gossiping a new version
        // every tick.
        if self.replica.local_ad() != self.gossiped_replica_ad() {
            self.reannounce("ad refresh");
        }
    }

    /// The store's filter or the ad changed on the replication path:
    /// announce the new version. A failed WAL append is logged, not
    /// propagated — there is no caller to report it to.
    fn reannounce(&self, why: &str) {
        if let Err(e) = self.announce_and_persist() {
            debug_log!(
                "planetp[{}]: failed to persist versions after {why}: {e}",
                self.id
            );
        }
    }

    /// Handle an incoming `ReplicaPush`: verify the hash, admit (maybe
    /// evicting colder replicas), ingest into the normal store, index
    /// and filter so the copy is discoverable through the unmodified
    /// search path, and persist the hosting to the WAL.
    pub(super) fn handle_replica_push(
        &self,
        home: PeerId,
        home_doc: u64,
        hash: u64,
        hotness: u64,
        xml: &str,
    ) -> LiveMsg {
        let Some(replica) = &self.replica.engine else {
            return replica_reply(home_doc, false);
        };
        let reject = || {
            replica.lock().metrics().rejects.inc();
            replica_reply(home_doc, false)
        };
        if content_hash(xml) != hash {
            // Corrupt or lying sender: refuse before paying storage.
            return reject();
        }
        let decision = {
            let mut r = replica.lock();
            r.seed_hotness(hash, hotness);
            // The home is talking to us right now: count it online.
            r.observe_peer(home, true);
            r.admit(home, hash, xml.len() as u64)
        };
        let evict = match decision {
            AdmitDecision::AlreadyHosted { .. } => return replica_reply(home_doc, true),
            AdmitDecision::Reject => return reject(),
            AdmitDecision::Accept { evict } => evict,
        };
        for victim in evict {
            self.evict_replica(replica, victim);
        }
        let doc = match self.store_publish(xml) {
            Ok(d) => d,
            Err(e) => {
                debug_log!("planetp[{}]: replica ingest failed: {e}", self.id);
                return reject();
            }
        };
        let hosted = HostedReplica {
            home,
            home_doc,
            hash,
            bytes: xml.len() as u64,
        };
        if !replica.lock().record_hosted(doc, hosted) {
            // Lost a race with a concurrent push of the same content:
            // drop the redundant copy, still accepted.
            let _ = self.store_unpublish(doc);
            return replica_reply(home_doc, true);
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
        // The ingested copy changed the filter (and the ad).
        self.reannounce("replica");
        replica_reply(home_doc, true)
    }

    /// Evict one hosted replica: release its capacity, unpublish
    /// (rebuilding the filter), and log the drop. The caller gossips
    /// the new filter version afterwards.
    fn evict_replica(&self, replica: &Mutex<ReplicaEngine>, doc: u64) {
        if replica.lock().drop_hosted(doc).is_none() {
            return;
        }
        if let Err(e) = self.store_unpublish(doc) {
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
