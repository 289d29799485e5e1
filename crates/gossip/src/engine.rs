//! The gossip state machine.
//!
//! [`GossipEngine`] is transport-agnostic and fully deterministic given
//! its seed: a driver (the discrete-event simulator, or the live TCP
//! runtime) calls [`GossipEngine::tick`] on the engine's schedule and
//! [`GossipEngine::handle_message`] on delivery, and routes the
//! `(target, message)` pairs both return.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

use crate::config::{Algorithm, GossipConfig};
use crate::dethash::DetHashMap;
use crate::directory::{DirEntry, Directory, PeerStatus, SpeedClass};
use crate::messages::{Message, PeerState, PeerSummary, PEER_SUMMARY_BYTES, RUMOR_ID_BYTES};
use crate::rumor::{DeltaChain, Payload, Rumor, RumorId, RumorKind, RumorPayload};
use crate::selector::{pick_target, SelectionPurpose};
use crate::stats::{EngineCounters, EngineStats};
use crate::{PeerId, TimeMs};
use planetp_obs::Registry;

/// A rumor this peer is actively spreading.
#[derive(Debug, Clone)]
struct ActiveRumor {
    id: RumorId,
    kind: RumorKind,
    /// Consecutive contacts that already knew this rumor; retire at
    /// `config.rumor_death_n`.
    consecutive_known: u32,
}

/// A stored run of consecutive single-step deltas for one subject,
/// covering `base_bloom_version .. base_bloom_version + steps.len()`
/// within `status_version`. Kept alongside the directory (which always
/// stores the *full* payload) so outgoing bloom updates — rumors and
/// pull / anti-entropy replies alike — can carry the compact chain;
/// receivers that applied a chain keep it too, which lets them forward
/// deltas instead of re-expanding to full filters.
#[derive(Debug, Clone)]
struct StoredChain<P: Payload> {
    status_version: u64,
    /// `bloom_version` the first step applies to.
    base_bloom_version: u32,
    /// One delta per version bump, oldest first.
    steps: VecDeque<P::Delta>,
}

impl<P: Payload> StoredChain<P> {
    /// The `bloom_version` the chain's last step produces.
    fn end_version(&self) -> u32 {
        self.base_bloom_version + self.steps.len() as u32
    }
}

/// A received delta chain could not be applied; the directory is
/// untouched and the subject must be pulled in full.
struct ChainBreak;

/// What a tick produced: one message to send to one target.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome<P: Payload> {
    /// Chosen gossip partner.
    pub target: PeerId,
    /// Message to deliver.
    pub message: Message<P>,
}

/// The per-peer gossip protocol instance.
#[derive(Debug, Clone)]
pub struct GossipEngine<P: Payload> {
    id: PeerId,
    speed: SpeedClass,
    config: GossipConfig,
    dir: Directory<P>,
    /// Active rumors keyed by subject (at most one per subject — fresher
    /// news supersedes).
    active: DetHashMap<PeerId, ActiveRumor>,
    /// Delta chains keyed by subject, each ending exactly at that
    /// subject's current directory versions (see [`StoredChain`]).
    chains: DetHashMap<PeerId, StoredChain<P>>,
    /// Recently retired rumor ids, newest last (partial anti-entropy).
    recent: VecDeque<RumorId>,
    /// Rumor ids last pushed to each target, awaiting a `RumorAck`.
    pending_acks: DetHashMap<PeerId, Vec<RumorId>>,
    round: u64,
    interval_ms: TimeMs,
    /// Gossip-less counter p.
    gossipless: u32,
    /// Force an anti-entropy exchange on the next tick (set at
    /// join/rejoin so the peer downloads the directory immediately).
    force_ae: bool,
    rng: SmallRng,
    stats: EngineCounters,
}

impl<P: Payload> GossipEngine<P> {
    /// Create an engine for a peer joining a community.
    ///
    /// `bootstrap` is the one existing member a new peer knows (with its
    /// speed class); pass `None` for the community's founding member.
    /// `payload` is the peer's initial Bloom filter, gossiped to
    /// everyone as its Join rumor.
    pub fn new(
        id: PeerId,
        speed: SpeedClass,
        config: GossipConfig,
        seed: u64,
        payload: Option<P>,
        bootstrap: Option<(PeerId, SpeedClass)>,
    ) -> Self {
        let mut dir = Directory::new();
        dir.insert(
            id,
            DirEntry {
                status_version: 1,
                bloom_version: if payload.is_some() { 1 } else { 0 },
                payload,
                status: PeerStatus::Online,
                speed,
            },
        );
        let mut engine = Self {
            id,
            speed,
            config,
            dir,
            active: DetHashMap::default(),
            chains: DetHashMap::default(),
            recent: VecDeque::new(),
            pending_acks: DetHashMap::default(),
            round: 0,
            interval_ms: config.base_interval_ms,
            gossipless: 0,
            force_ae: false,
            rng: SmallRng::seed_from_u64(seed),
            stats: EngineCounters::default(),
        };
        if let Some((contact, contact_speed)) = bootstrap {
            engine.dir.insert(
                contact,
                DirEntry {
                    status_version: 0,
                    bloom_version: 0,
                    payload: None,
                    status: PeerStatus::Online,
                    speed: contact_speed,
                },
            );
            engine.force_ae = true;
            engine.activate_self_rumor(RumorKind::Join);
        }
        engine
    }

    /// Create an engine with a pre-populated directory (used to set up
    /// stable communities in simulations without simulating their
    /// formation).
    pub fn with_directory(
        id: PeerId,
        speed: SpeedClass,
        config: GossipConfig,
        seed: u64,
        dir: Directory<P>,
    ) -> Self {
        assert!(
            dir.get(id).is_some(),
            "directory must contain the peer itself"
        );
        Self {
            id,
            speed,
            config,
            dir,
            active: DetHashMap::default(),
            chains: DetHashMap::default(),
            recent: VecDeque::new(),
            pending_acks: DetHashMap::default(),
            round: 0,
            interval_ms: config.base_interval_ms,
            gossipless: 0,
            force_ae: false,
            rng: SmallRng::seed_from_u64(seed),
            stats: EngineCounters::default(),
        }
    }

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// This peer's speed class.
    pub fn speed(&self) -> SpeedClass {
        self.speed
    }

    /// Read access to the local directory copy.
    pub fn directory(&self) -> &Directory<P> {
        &self.dir
    }

    /// Mutable access to the local directory (drivers use this to seed
    /// state; the protocol itself goes through messages).
    pub fn directory_mut(&mut self) -> &mut Directory<P> {
        &mut self.dir
    }

    /// Protocol counters, frozen at this instant.
    pub fn stats(&self) -> EngineStats {
        self.stats.view()
    }

    /// The metrics registry this engine records into. Private to the
    /// engine unless a driver re-homed it via
    /// [`Self::attach_metrics`].
    pub fn metrics(&self) -> &Registry {
        self.stats.registry()
    }

    /// Record this engine's metrics in `registry` (carrying over
    /// anything already counted), so one registry can cover gossip,
    /// transport, and search at once.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.stats.attach(registry);
    }

    /// Milliseconds until the next tick should run (the adaptive
    /// interval).
    pub fn current_interval(&self) -> TimeMs {
        self.interval_ms
    }

    /// Number of rumors currently being spread.
    pub fn active_rumors(&self) -> usize {
        self.active.len()
    }

    /// Does this peer's directory cover the given news?
    pub fn knows(&self, id: RumorId) -> bool {
        !self
            .dir
            .is_news(id.subject, id.status_version, id.bloom_version)
    }

    /// The delta steps taking `subject` from `(status_version, from_bv)`
    /// to `to_bv`, if this peer's stored chain covers that exact range.
    /// The live runtime's query mirror uses this to advance an
    /// already-decompressed filter in place instead of re-decompressing
    /// the full payload on every version bump.
    pub fn delta_steps(
        &self,
        subject: PeerId,
        status_version: u64,
        from_bv: u32,
        to_bv: u32,
    ) -> Option<Vec<P::Delta>> {
        let c = self.chains.get(&subject)?;
        if c.status_version != status_version
            || from_bv < c.base_bloom_version
            || to_bv > c.end_version()
            || from_bv >= to_bv
        {
            return None;
        }
        let skip = (from_bv - c.base_bloom_version) as usize;
        let take = (to_bv - from_bv) as usize;
        Some(c.steps.iter().skip(skip).take(take).cloned().collect())
    }

    // ------------------------------------------------------------------
    // Local events
    // ------------------------------------------------------------------

    /// The local peer's Bloom filter changed (new terms published),
    /// with no delta available: subsequent rumors carry the full
    /// payload. Prefer [`Self::local_update_delta`] when the caller can
    /// compute the diff from the previous version.
    pub fn local_update(&mut self, payload: P) {
        self.chains.remove(&self.id);
        let e = self
            .dir
            .get_mut(self.id)
            .expect("self entry always present");
        e.bloom_version += 1;
        e.payload = Some(payload);
        self.activate_self_rumor(RumorKind::BloomUpdate);
        self.learned_news();
    }

    /// The local peer's Bloom filter changed, and `delta` is the
    /// single-step diff from the previous version to `payload`. The
    /// directory stores the full payload (what joiners and peers the
    /// chain no longer covers are sent); the delta extends this peer's
    /// own chain so rumors and pull replies carry diffs — the §7.2
    /// bandwidth optimization.
    pub fn local_update_delta(&mut self, payload: P, delta: P::Delta) {
        let (status_version, old_bv) = {
            let e = self.dir.get(self.id).expect("self entry always present");
            (e.status_version, e.bloom_version)
        };
        self.push_chain_step(self.id, status_version, old_bv, delta);
        let e = self
            .dir
            .get_mut(self.id)
            .expect("self entry always present");
        e.bloom_version += 1;
        e.payload = Some(payload);
        self.activate_self_rumor(RumorKind::BloomUpdate);
        self.learned_news();
    }

    /// The local peer came back online after an absence. `new_payload`
    /// carries a changed Bloom filter, if any (the paper's "Join" event
    /// in Fig 4; `None` is the "Rejoin" event).
    pub fn local_rejoin(&mut self, new_payload: Option<P>) {
        // A new incarnation invalidates any chain built in the old one.
        self.chains.remove(&self.id);
        let e = self
            .dir
            .get_mut(self.id)
            .expect("self entry always present");
        e.status_version += 1;
        e.status = PeerStatus::Online;
        let kind = if let Some(p) = new_payload {
            e.bloom_version += 1;
            e.payload = Some(p);
            RumorKind::BloomUpdate
        } else {
            RumorKind::Rejoin
        };
        self.activate_self_rumor(kind);
        self.force_ae = true;
        self.learned_news();
    }

    /// The local peer restarted from persisted state. `floor` is the
    /// persisted `(status_version, bloom_version)` high-water mark;
    /// both versions are bumped *past* it so whatever the community
    /// already gossiped about this peer — including versions a torn
    /// write may have lost from the local log — is strictly superseded
    /// and the versioned-record invariant holds. Emits the rejoin
    /// rumor (a `BloomUpdate` carrying the fresh payload, §3's Fig 4
    /// "Join" event) and forces an anti-entropy catch-up on the next
    /// tick. Returns the new version pair.
    pub fn local_recover(&mut self, payload: P, floor: (u64, u32)) -> (u64, u32) {
        self.chains.remove(&self.id);
        let e = self
            .dir
            .get_mut(self.id)
            .expect("self entry always present");
        e.status_version = e.status_version.max(floor.0) + 1;
        e.bloom_version = e.bloom_version.max(floor.1) + 1;
        e.payload = Some(payload);
        e.status = PeerStatus::Online;
        let versions = (e.status_version, e.bloom_version);
        self.activate_self_rumor(RumorKind::BloomUpdate);
        self.force_ae = true;
        self.learned_news();
        versions
    }

    /// A communication attempt to `peer` failed: mark it offline
    /// locally. Never gossiped (§3).
    pub fn on_contact_failed(&mut self, peer: PeerId, now: TimeMs) {
        self.dir.mark_offline(peer, now);
        self.pending_acks.remove(&peer);
        self.stats.contact_failures.inc();
    }

    /// A contact attempt to `peer` failed, but the caller's failure
    /// budget for it is not yet exhausted: count the suspicion without
    /// touching the directory. The live runtime's health layer calls
    /// this during the suspect phase so one transient transport error
    /// does not remove a peer from gossip target selection;
    /// [`Self::on_contact_failed`] remains the offline transition.
    pub fn note_contact_suspect(&mut self, _peer: PeerId) {
        self.stats.contact_suspects.inc();
    }

    /// A peer that had been failing answered again: clear any local
    /// offline mark (liveness is local-only, §3, so recovery is too).
    pub fn on_contact_recovered(&mut self, peer: PeerId) {
        self.dir.mark_online(peer);
        self.stats.contact_recoveries.inc();
    }

    // ------------------------------------------------------------------
    // The gossip round
    // ------------------------------------------------------------------

    /// Run one gossip round at time `now`. Returns the message to send,
    /// or `None` if no reachable peer is known.
    pub fn tick(&mut self, now: TimeMs) -> Option<TickOutcome<P>> {
        self.round += 1;
        let dropped = self.dir.expire_dead(now, self.config.t_dead_ms);
        for d in dropped {
            self.active.remove(&d);
            self.chains.remove(&d);
        }

        if self.config.algorithm == Algorithm::AntiEntropyOnly {
            return self.push_ae_tick();
        }

        // Full anti-entropy (whole-directory summary) runs every Kth
        // round. On other rounds, a peer with rumors pushes them; an
        // idle peer sends a cheap digest ping and pulls only recent
        // changes. Sending the full summary on every idle round would
        // make volume proportional to community size and contradict the
        // paper's Fig 2(b) ("message sizes are mostly proportional to
        // the number of changes being propagated, not the community
        // size"); going silent instead would stretch the residual tail
        // far past the paper's Fig 2(a) times. The cheap ping is the
        // paper's partial-anti-entropy idea applied to the idle path.
        let do_full_ae = self.force_ae
            || self
                .round
                .is_multiple_of(u64::from(self.config.anti_entropy_every));
        if do_full_ae {
            self.force_ae = false;
            let target = pick_target(
                &self.dir,
                self.id,
                self.speed,
                SelectionPurpose::AntiEntropy,
                self.config.bandwidth_aware,
                self.config.fast_to_slow_prob,
                &mut self.rng,
            )?;
            self.stats.rounds.inc();
            self.stats.ae_msgs_sent.inc();
            let message = Message::AeRequest {
                digest: self.dir.digest(),
            };
            self.stats.on_message_out(&message);
            return Some(TickOutcome { target, message });
        }
        if self.active.is_empty() {
            let target = pick_target(
                &self.dir,
                self.id,
                self.speed,
                SelectionPurpose::AntiEntropy,
                self.config.bandwidth_aware,
                self.config.fast_to_slow_prob,
                &mut self.rng,
            )?;
            self.stats.rounds.inc();
            self.stats.ae_msgs_sent.inc();
            let message = Message::AePing {
                digest: self.dir.digest(),
            };
            self.stats.on_message_out(&message);
            return Some(TickOutcome { target, message });
        }

        // Rumor round: push all active rumors.
        let purpose = if self.active.contains_key(&self.id) {
            SelectionPurpose::RumorSource
        } else {
            SelectionPurpose::RumorForward
        };
        let target = pick_target(
            &self.dir,
            self.id,
            self.speed,
            purpose,
            self.config.bandwidth_aware,
            self.config.fast_to_slow_prob,
            &mut self.rng,
        )?;
        let rumors: Vec<Rumor<P>> = self.active.values().map(|a| self.build_rumor(a)).collect();
        self.pending_acks
            .insert(target, rumors.iter().map(|r| r.id).collect());
        self.stats.rounds.inc();
        // `on_message_out` counts the rumor class, which IS
        // `rumor_msgs_sent` — no separate increment.
        let message = Message::Rumor { rumors };
        self.stats.on_message_out(&message);
        Some(TickOutcome { target, message })
    }

    fn push_ae_tick(&mut self) -> Option<TickOutcome<P>> {
        let target = pick_target(
            &self.dir,
            self.id,
            self.speed,
            SelectionPurpose::AntiEntropy,
            self.config.bandwidth_aware,
            self.config.fast_to_slow_prob,
            &mut self.rng,
        )?;
        self.stats.rounds.inc();
        self.stats.ae_msgs_sent.inc();
        let message = Message::AePush {
            entries: self.summaries(),
            digest: self.dir.digest(),
        };
        self.stats.on_message_out(&message);
        Some(TickOutcome { target, message })
    }

    /// Handle a message from `from`; returns responses to send.
    pub fn handle_message(
        &mut self,
        from: PeerId,
        msg: Message<P>,
        now: TimeMs,
    ) -> Vec<(PeerId, Message<P>)> {
        // `now` is only needed for T_Dead expiry, which tick() drives;
        // the parameter keeps drivers passing a consistent clock.
        let _ = now;
        self.stats.on_message_in(&msg);
        // Hearing from a peer proves it is online.
        self.dir.mark_online(from);
        let responses = match msg {
            Message::Rumor { rumors } => self.on_rumor(from, rumors),
            Message::RumorAck {
                already_knew,
                recent_ids,
            } => self.on_rumor_ack(from, &already_knew, &recent_ids),
            Message::Pull { ids } => {
                let entries = self.states_for(&ids);
                vec![(from, Message::PullReply { entries })]
            }
            Message::PullReply { entries } => {
                let (learned, broken) = self.absorb(&entries, true);
                self.stats.rumors_learned_partial_ae.add(learned);
                ask(from, broken, |ids| Message::Pull { ids })
            }
            Message::AePing { digest } => {
                if digest == self.dir.digest() {
                    vec![(from, Message::AeEqual)]
                } else {
                    vec![(
                        from,
                        Message::AeRecent {
                            ids: self.recent_and_active_ids(),
                        },
                    )]
                }
            }
            Message::AeRecent { ids } => self.pull_missing(from, &ids),
            Message::AeRequest { digest } => {
                if digest == self.dir.digest() {
                    vec![(from, Message::AeEqual)]
                } else {
                    vec![(
                        from,
                        Message::AeSummary {
                            entries: self.summaries(),
                        },
                    )]
                }
            }
            Message::AeEqual => {
                self.note_gossipless();
                Vec::new()
            }
            // Nothing to pull means only we are ahead; the rumor/push
            // machinery will reach them.
            Message::AeSummary { entries } => {
                ask(from, self.stale_subjects(&entries), |subjects| {
                    Message::AePull { subjects }
                })
            }
            Message::AePull { subjects } => {
                let entries = self.states_for(&subjects);
                vec![(from, Message::AeReply { entries })]
            }
            Message::AeReply { entries } => {
                let (learned, broken) = self.absorb(&entries, false);
                self.stats.rumors_learned_ae.add(learned);
                ask(from, broken, |subjects| Message::AePull { subjects })
            }
            Message::AePush { entries, digest } => {
                if digest == self.dir.digest() {
                    vec![(from, Message::AeEqual)]
                } else {
                    ask(from, self.stale_subjects(&entries), |subjects| {
                        Message::AePull { subjects }
                    })
                }
            }
        };
        for (_, m) in &responses {
            self.stats.on_message_out(m);
        }
        responses
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn on_rumor(&mut self, from: PeerId, rumors: Vec<Rumor<P>>) -> Vec<(PeerId, Message<P>)> {
        // "Whenever x receives a rumor message ... it immediately resets
        // its gossiping interval to the default" (§3).
        self.reset_interval();
        let mut already_knew = Vec::with_capacity(rumors.len());
        // Delta rumors whose chain we could not apply: pull the full
        // state from the sender (it has it — it just rumored the news).
        let mut broken: Vec<RumorId> = Vec::new();
        for r in rumors {
            let knew = self.knows(r.id);
            already_knew.push(knew);
            if knew {
                continue;
            }
            match self.apply_news(&r) {
                Ok(()) => self.stats.rumors_learned_push.inc(),
                Err(ChainBreak) => broken.push(holds_nothing(r.id.subject)),
            }
        }
        let recent_ids = if self.config.algorithm.partial_ae() {
            let m = self.config.partial_ae_ids;
            self.recent.iter().rev().take(m).copied().collect()
        } else {
            Vec::new()
        };
        // The ack and the fallback pull travel back in one batched
        // exchange (the live transport writes them as one frame).
        let mut out = vec![(
            from,
            Message::RumorAck {
                already_knew,
                recent_ids,
            },
        )];
        out.extend(ask(from, broken, |ids| Message::Pull { ids }));
        out
    }

    fn on_rumor_ack(
        &mut self,
        from: PeerId,
        already_knew: &[bool],
        recent_ids: &[RumorId],
    ) -> Vec<(PeerId, Message<P>)> {
        if let Some(sent) = self.pending_acks.remove(&from) {
            for (id, &knew) in sent.iter().zip(already_knew) {
                let Some(a) = self.active.get_mut(&id.subject) else {
                    continue;
                };
                if a.id != *id {
                    continue; // superseded since we sent it
                }
                if knew {
                    a.consecutive_known += 1;
                    if a.consecutive_known >= self.config.rumor_death_n {
                        self.retire(id.subject);
                    }
                } else {
                    a.consecutive_known = 0;
                }
            }
        }
        // Partial anti-entropy: pull anything the responder retired that
        // we have not heard.
        self.pull_missing(from, recent_ids)
    }

    /// The `Pull` for whichever of the `advertised` news we have not
    /// heard, naming what we hold of each subject so the reply can be
    /// the delta from there.
    fn pull_missing(&self, from: PeerId, advertised: &[RumorId]) -> Vec<(PeerId, Message<P>)> {
        let mut ids: Vec<RumorId> = Vec::new();
        for id in advertised {
            if id.subject != self.id && !self.knows(*id) {
                let held = self.held(id.subject);
                // Two advertised versions of one subject are one pull.
                if !ids.contains(&held) {
                    ids.push(held);
                }
            }
        }
        ask(from, ids, |ids| Message::Pull { ids })
    }

    /// Apply news carried by a rumor and start spreading it ourselves.
    ///
    /// Fails — leaving the directory untouched — when the rumor
    /// carried a delta chain this peer cannot apply: the caller pulls
    /// the full state instead. Every other form always applies.
    fn apply_news(&mut self, r: &Rumor<P>) -> Result<(), ChainBreak> {
        let payload = self.full_payload(r.id, r.payload.as_ref())?;
        self.update_entry(
            r.id.subject,
            r.id.status_version,
            r.id.bloom_version,
            payload,
        );
        if r.id.subject != self.id {
            self.activate(r.id, r.kind);
        }
        self.learned_news();
        Ok(())
    }

    /// The full payload that news `id`, carried as `payload` by a rumor
    /// or a reply entry, gives this peer (`None` = it carries none). A
    /// delta goes through [`Self::apply_chain`]; one that cannot be
    /// applied (missing base version, status mismatch, corrupt step) is
    /// counted and changes nothing.
    fn full_payload(
        &mut self,
        id: RumorId,
        payload: Option<&RumorPayload<P>>,
    ) -> Result<Option<P>, ChainBreak> {
        match payload {
            None => Ok(None),
            Some(RumorPayload::Full(p)) => Ok(Some(p.clone())),
            Some(RumorPayload::Delta(chain)) => match self.apply_chain(id, chain) {
                Some(p) => Ok(Some(p)),
                None => {
                    self.stats.delta_chain_breaks.inc();
                    Err(ChainBreak)
                }
            },
        }
    }

    /// Apply the suffix of `chain` that takes our directory entry for
    /// the subject from its current `bloom_version` to `id.bloom_version`.
    /// On success the applied steps extend our stored chain for the
    /// subject (so we can forward deltas too, to peers as far behind as
    /// either chain reached). `None` = cannot apply.
    fn apply_chain(&mut self, id: RumorId, chain: &DeltaChain<P>) -> Option<P> {
        // A chain is only meaningful within one incarnation and must
        // land exactly on the version the rumor announces.
        if chain.steps.is_empty()
            || chain.base_bloom_version + chain.steps.len() as u32 != id.bloom_version
        {
            return None;
        }
        let e = self.dir.get(id.subject)?;
        if e.status_version != id.status_version
            || e.bloom_version < chain.base_bloom_version
            || e.bloom_version >= id.bloom_version
        {
            return None;
        }
        let skip = (e.bloom_version - chain.base_bloom_version) as usize;
        let mut current = e.payload.clone()?;
        for step in &chain.steps[skip..] {
            current = current.apply_delta(step)?;
        }
        // Remember the steps for forwarding; update_entry validates the
        // chain against the entry's new versions and keeps it. A stored
        // chain ends at the version we held, so the steps just applied
        // continue it — unless the received one reaches further back.
        let held_bv = e.bloom_version;
        match self.chains.get_mut(&id.subject) {
            Some(c)
                if c.status_version == id.status_version
                    && c.end_version() == held_bv
                    && c.base_bloom_version <= chain.base_bloom_version =>
            {
                c.steps.extend(chain.steps[skip..].iter().cloned());
            }
            _ => {
                self.chains.insert(
                    id.subject,
                    StoredChain {
                        status_version: id.status_version,
                        base_bloom_version: chain.base_bloom_version,
                        steps: chain.steps.iter().cloned().collect(),
                    },
                );
            }
        }
        self.trim_chain(id.subject);
        self.stats.delta_applied.inc();
        Some(current)
    }

    /// Absorb peer states from a pull or anti-entropy reply, deltas
    /// through the same checked apply as rumors. Returns how many
    /// taught us something, and a held-nothing id for each subject
    /// whose chain broke (directory untouched; the caller pulls those
    /// again, which forces the full form). `respread`: whether to
    /// start rumoring what we learned (partial-AE pulls respread —
    /// they are recent, hot news; full AE does not — it is the cold
    /// path catching residue — beyond re-stamping a rumor that is
    /// already active).
    fn absorb(&mut self, entries: &[PeerState<P>], respread: bool) -> (u64, Vec<RumorId>) {
        let mut learned = 0;
        let mut broken = Vec::new();
        for s in entries {
            if !self
                .dir
                .is_news(s.subject, s.status_version, s.bloom_version)
            {
                continue;
            }
            let id = RumorId {
                subject: s.subject,
                status_version: s.status_version,
                bloom_version: s.bloom_version,
            };
            let Ok(payload) = self.full_payload(id, s.payload.as_ref()) else {
                broken.push(holds_nothing(s.subject));
                continue;
            };
            self.update_entry(s.subject, s.status_version, s.bloom_version, payload);
            // A rumor's id must name the payload it carries
            // (`build_rumor` reads the entry): one already spreading
            // older news about this subject carries on with what we now
            // hold. A receiver would otherwise file this payload under
            // the old version and XOR later delta steps onto it.
            if (respread && s.subject != self.id) || self.active.contains_key(&s.subject) {
                self.activate(id, RumorKind::BloomUpdate);
            }
            learned += 1;
        }
        if learned > 0 {
            // "...or finds a new piece of information through
            // anti-entropy, it immediately resets its gossiping
            // interval" (§3).
            self.learned_news();
        }
        (learned, broken)
    }

    /// Upgrade a directory entry to (sv, bv), keeping the old payload
    /// when the update carries none (e.g. a Rejoin rumor).
    fn update_entry(
        &mut self,
        subject: PeerId,
        status_version: u64,
        bloom_version: u32,
        payload: Option<P>,
    ) {
        match self.dir.get_mut(subject) {
            Some(e) => {
                e.status_version = status_version;
                e.bloom_version = bloom_version;
                if let Some(p) = payload {
                    e.payload = Some(p);
                }
                // Fresh news about a peer implies it is (or recently
                // was) online; clear any local offline mark.
                e.status = PeerStatus::Online;
            }
            None => {
                self.dir.insert(
                    subject,
                    DirEntry {
                        status_version,
                        bloom_version,
                        payload,
                        status: PeerStatus::Online,
                        // Speed is learned out of band; default Fast
                        // until the driver overrides.
                        speed: SpeedClass::Fast,
                    },
                );
            }
        }
        // A stored delta chain stays only if it still lands exactly on
        // the entry's new versions (the delta-apply path extends it
        // with the received steps just before calling here; every other
        // path — full payloads, rejoins — invalidates it).
        let stale = self.chains.get(&subject).is_some_and(|c| {
            c.status_version != status_version || c.end_version() != bloom_version
        });
        if stale {
            self.chains.remove(&subject);
        }
    }

    /// Start (or refresh) spreading news about a subject.
    fn activate(&mut self, id: RumorId, kind: RumorKind) {
        self.active.insert(
            id.subject,
            ActiveRumor {
                id,
                kind,
                consecutive_known: 0,
            },
        );
    }

    fn activate_self_rumor(&mut self, kind: RumorKind) {
        let e = self.dir.get(self.id).expect("self entry always present");
        self.activate(version_of(self.id, e), kind);
        self.stats.rumors_originated.inc();
    }

    /// Retire an active rumor (death counter reached n); remember its id
    /// for partial anti-entropy.
    fn retire(&mut self, subject: PeerId) {
        if let Some(a) = self.active.remove(&subject) {
            self.recent.push_back(a.id);
            let cap = self.config.partial_ae_ids.max(32);
            while self.recent.len() > cap {
                self.recent.pop_front();
            }
            self.stats.rumors_retired.inc();
        }
    }

    /// Build the rumor message entry for an active rumor from the
    /// directory entry its id names (every path that moves an entry
    /// re-stamps the subject's active rumor, so the two agree). Bloom
    /// updates go out in whichever form [`Self::payload_for`] picks for
    /// the oldest version the stored chain still covers — a push cannot
    /// know its receiver's version, and any receiver inside the chain
    /// applies the suffix it lacks. Joins always go full (the receiver
    /// has no base).
    fn build_rumor(&self, a: &ActiveRumor) -> Rumor<P> {
        let full = self.dir.get(a.id.subject).and_then(|e| e.payload.as_ref());
        let payload = match a.kind {
            RumorKind::Rejoin => None,
            RumorKind::Join => full.cloned().map(RumorPayload::Full),
            RumorKind::BloomUpdate => full.map(|full| {
                let oldest = self
                    .chains
                    .get(&a.id.subject)
                    .map_or(a.id.bloom_version, |c| c.base_bloom_version);
                self.payload_for(a.id, full, (a.id.status_version, oldest))
            }),
        };
        Rumor {
            id: a.id,
            kind: a.kind,
            payload,
        }
    }

    /// The wire form of news `id` (whose full payload is `full`) for a
    /// receiver holding `held = (status_version, bloom_version)` of the
    /// subject: the stored-chain suffix from the held version when a
    /// chain covers it within the same incarnation and is actually
    /// smaller than the full payload on the Table 2 model, else the
    /// full payload. The one delta-or-full decision, shared by rumors
    /// and pull / anti-entropy replies, and the one place the
    /// `gossip.delta.{sent,bytes_saved,full_fallbacks}` counters move.
    fn payload_for(&self, id: RumorId, full: &P, held: (u64, u32)) -> RumorPayload<P> {
        let (held_sv, held_bv) = held;
        if self.config.delta_updates && held_sv == id.status_version {
            if let Some(steps) =
                self.delta_steps(id.subject, id.status_version, held_bv, id.bloom_version)
            {
                let chain = DeltaChain {
                    base_bloom_version: held_bv,
                    steps,
                };
                let full_bytes = PEER_SUMMARY_BYTES + full.wire_bytes();
                let delta_bytes = RUMOR_ID_BYTES + chain.wire_bytes();
                if delta_bytes < full_bytes {
                    self.stats.delta_sent.inc();
                    self.stats
                        .delta_bytes_saved
                        .add((full_bytes - delta_bytes) as u64);
                    return RumorPayload::Delta(chain);
                }
            }
        }
        if self.config.delta_updates {
            self.stats.delta_full_fallbacks.inc();
        }
        RumorPayload::Full(full.clone())
    }

    /// Append one delta step taking `(status_version, old_bv)` to
    /// `old_bv + 1` onto the subject's chain, starting a fresh chain if
    /// the stored one does not end at `old_bv`. Oldest steps fall off
    /// past `config.max_delta_chain`.
    fn push_chain_step(
        &mut self,
        subject: PeerId,
        status_version: u64,
        old_bv: u32,
        delta: P::Delta,
    ) {
        if !self.config.delta_updates {
            return;
        }
        let max = self.config.max_delta_chain.max(1);
        let c = self.chains.entry(subject).or_insert_with(|| StoredChain {
            status_version,
            base_bloom_version: old_bv,
            steps: VecDeque::new(),
        });
        if c.status_version != status_version || c.end_version() != old_bv {
            *c = StoredChain {
                status_version,
                base_bloom_version: old_bv,
                steps: VecDeque::new(),
            };
        }
        c.steps.push_back(delta);
        while c.steps.len() > max {
            c.steps.pop_front();
            c.base_bloom_version += 1;
        }
    }

    /// Drop oldest steps until the subject's chain fits
    /// `config.max_delta_chain`.
    fn trim_chain(&mut self, subject: PeerId) {
        let max = self.config.max_delta_chain.max(1);
        if let Some(c) = self.chains.get_mut(&subject) {
            while c.steps.len() > max {
                c.steps.pop_front();
                c.base_bloom_version += 1;
            }
        }
    }

    /// Ids this peer would advertise in a cheap anti-entropy exchange:
    /// its active rumors plus the last m retired ones.
    fn recent_and_active_ids(&self) -> Vec<RumorId> {
        let m = self.config.partial_ae_ids;
        let mut ids: Vec<RumorId> = self.active.values().map(|a| a.id).collect();
        ids.extend(self.recent.iter().rev().take(m));
        ids.truncate(m.max(ids.len().min(2 * m)));
        ids
    }

    fn summaries(&self) -> Vec<PeerSummary> {
        self.dir
            .iter()
            .map(|(id, e)| PeerSummary {
                subject: id,
                status_version: e.status_version,
                bloom_version: e.bloom_version,
            })
            .collect()
    }

    /// Subjects in `entries` that are newer than our directory, each as
    /// the version we hold of it (what an `AePull` names).
    fn stale_subjects(&self, entries: &[PeerSummary]) -> Vec<RumorId> {
        entries
            .iter()
            .filter(|s| {
                self.dir
                    .is_news(s.subject, s.status_version, s.bloom_version)
            })
            .map(|s| self.held(s.subject))
            .collect()
    }

    /// What this peer holds of `subject`, as a pull names it: the
    /// entry's versions when there is a payload a delta could apply to,
    /// else 0/0.
    fn held(&self, subject: PeerId) -> RumorId {
        match self.dir.get(subject) {
            Some(e) if e.payload.is_some() => version_of(subject, e),
            _ => holds_nothing(subject),
        }
    }

    /// Our current state of each pulled subject, its payload in the
    /// form [`Self::payload_for`] picks for the version the requester
    /// holds.
    fn states_for(&self, held: &[RumorId]) -> Vec<PeerState<P>> {
        held.iter()
            .filter_map(|h| {
                let e = self.dir.get(h.subject)?;
                let id = version_of(h.subject, e);
                Some(PeerState {
                    subject: id.subject,
                    status_version: id.status_version,
                    bloom_version: id.bloom_version,
                    payload: e.payload.as_ref().map(|full| {
                        self.payload_for(id, full, (h.status_version, h.bloom_version))
                    }),
                })
            })
            .collect()
    }

    /// Count a gossip-less contact; slow the interval after the
    /// threshold.
    fn note_gossipless(&mut self) {
        if !self.active.is_empty() {
            return;
        }
        self.gossipless += 1;
        if self.gossipless >= self.config.gossipless_threshold {
            self.interval_ms =
                (self.interval_ms + self.config.slowdown_ms).min(self.config.max_interval_ms);
            self.gossipless = 0;
            self.stats.slowdowns.inc();
        }
    }

    /// New information arrived: snap the interval back to base.
    fn learned_news(&mut self) {
        self.reset_interval();
        self.gossipless = 0;
    }

    fn reset_interval(&mut self) {
        if self.interval_ms != self.config.base_interval_ms {
            self.stats.interval_resets.inc();
        }
        self.interval_ms = self.config.base_interval_ms;
    }
}

/// A request to `to` about `ids` — or nothing to send when there are
/// none.
fn ask<P: Payload>(
    to: PeerId,
    ids: Vec<RumorId>,
    request: impl FnOnce(Vec<RumorId>) -> Message<P>,
) -> Vec<(PeerId, Message<P>)> {
    if ids.is_empty() {
        Vec::new()
    } else {
        vec![(to, request(ids))]
    }
}

/// The version a directory entry for `subject` is at, as a rumor id.
fn version_of<P: Payload>(subject: PeerId, e: &DirEntry<P>) -> RumorId {
    RumorId {
        subject,
        status_version: e.status_version,
        bloom_version: e.bloom_version,
    }
}

/// The id a pull sends for a subject it holds nothing usable of, which
/// makes the reply carry the full payload.
fn holds_nothing(subject: PeerId) -> RumorId {
    RumorId {
        subject,
        status_version: 0,
        bloom_version: 0,
    }
}
