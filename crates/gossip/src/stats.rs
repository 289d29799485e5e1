//! Per-engine protocol counters.
//!
//! [`EngineCounters`] holds the live `planetp-obs` handles the engine
//! records into; [`EngineStats`] is the frozen, serde-friendly view that
//! existing callers (tests, the simulator's reports, the live node's
//! stats RPC) consume. Every engine starts with a private
//! [`planetp_obs::Registry`]; a driver that wants one registry across
//! subsystems (the live node, the simulator) re-homes the counters with
//! [`EngineCounters::attach`].

use planetp_obs::{names, Counter, CounterFamily, Registry};
use serde::{Deserialize, Serialize};

use crate::messages::Message;
use crate::rumor::Payload;

/// Counters a gossip engine maintains about its own behaviour. Network
/// byte accounting lives in the simulator (which owns the link model);
/// these track protocol-level decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Gossip rounds executed (ticks that produced an action).
    pub rounds: u64,
    /// Rumor messages sent.
    pub rumor_msgs_sent: u64,
    /// Anti-entropy requests sent (pull AE) or pushes (baseline).
    pub ae_msgs_sent: u64,
    /// Rumors this peer originated (its own join/rejoin/update events).
    pub rumors_originated: u64,
    /// Rumors learned from other peers (via rumor push).
    pub rumors_learned_push: u64,
    /// Updates learned via partial anti-entropy pulls.
    pub rumors_learned_partial_ae: u64,
    /// Updates learned via full anti-entropy.
    pub rumors_learned_ae: u64,
    /// Rumors retired by the death counter.
    pub rumors_retired: u64,
    /// Times the interval was slowed down.
    pub slowdowns: u64,
    /// Times the interval snapped back to base.
    pub interval_resets: u64,
    /// Contact failures observed (target marked offline).
    pub contact_failures: u64,
    /// Contact failures that did not yet exhaust the caller's failure
    /// budget for the peer (suspect phase: counted, directory
    /// untouched).
    pub contact_suspects: u64,
    /// Suspect or offline peers that answered again and were marked
    /// back online.
    pub contact_recoveries: u64,
    /// Bloom updates (rumors and pull / anti-entropy reply entries)
    /// sent as delta chains.
    pub deltas_sent: u64,
    /// Delta chains applied to this peer's directory.
    pub deltas_applied: u64,
    /// Delta chains that could not be applied (full filter pulled).
    pub delta_chain_breaks: u64,
    /// Bloom updates and reply entries sent full because no usable
    /// chain existed.
    pub delta_full_fallbacks: u64,
    /// Wire bytes saved by delta payloads versus their full form.
    pub delta_bytes_saved: u64,
}

/// Live metric handles the engine records into. Cloning shares the
/// underlying atomics (a cloned engine keeps contributing to the same
/// registry).
#[derive(Debug, Clone)]
pub struct EngineCounters {
    registry: Registry,
    pub(crate) rounds: Counter,
    pub(crate) rumor_msgs_sent: Counter,
    pub(crate) ae_msgs_sent: Counter,
    pub(crate) rumors_originated: Counter,
    pub(crate) rumors_learned_push: Counter,
    pub(crate) rumors_learned_partial_ae: Counter,
    pub(crate) rumors_learned_ae: Counter,
    pub(crate) rumors_retired: Counter,
    pub(crate) slowdowns: Counter,
    pub(crate) interval_resets: Counter,
    pub(crate) contact_failures: Counter,
    pub(crate) contact_suspects: Counter,
    pub(crate) contact_recoveries: Counter,
    pub(crate) delta_sent: Counter,
    pub(crate) delta_applied: Counter,
    pub(crate) delta_chain_breaks: Counter,
    pub(crate) delta_full_fallbacks: Counter,
    pub(crate) delta_bytes_saved: Counter,
    msgs_out: CounterFamily,
    msgs_in: CounterFamily,
    bytes_out: CounterFamily,
    bytes_in: CounterFamily,
}

impl Default for EngineCounters {
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

impl EngineCounters {
    /// Build all handles inside `registry`.
    pub fn in_registry(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            rounds: registry.counter(names::GOSSIP_ROUNDS),
            rumor_msgs_sent: registry.counter("gossip.msgs_out.rumor"),
            ae_msgs_sent: registry.counter("gossip.ae_msgs_sent"),
            rumors_originated: registry.counter(names::GOSSIP_RUMORS_ORIGINATED),
            rumors_learned_push: registry.counter(names::GOSSIP_LEARNED_PUSH),
            rumors_learned_partial_ae: registry.counter(names::GOSSIP_LEARNED_PARTIAL_AE),
            rumors_learned_ae: registry.counter(names::GOSSIP_LEARNED_AE),
            rumors_retired: registry.counter(names::GOSSIP_RUMORS_RETIRED),
            slowdowns: registry.counter(names::GOSSIP_SLOWDOWNS),
            interval_resets: registry.counter(names::GOSSIP_INTERVAL_RESETS),
            contact_failures: registry.counter(names::GOSSIP_CONTACT_FAILURES),
            contact_suspects: registry.counter(names::GOSSIP_CONTACT_SUSPECTS),
            contact_recoveries: registry.counter(names::GOSSIP_CONTACT_RECOVERIES),
            delta_sent: registry.counter(names::GOSSIP_DELTA_SENT),
            delta_applied: registry.counter(names::GOSSIP_DELTA_APPLIED),
            delta_chain_breaks: registry.counter(names::GOSSIP_DELTA_CHAIN_BREAKS),
            delta_full_fallbacks: registry.counter(names::GOSSIP_DELTA_FULL_FALLBACKS),
            delta_bytes_saved: registry.counter(names::GOSSIP_DELTA_BYTES_SAVED),
            msgs_out: registry.counter_family(names::GOSSIP_MSGS_OUT),
            msgs_in: registry.counter_family(names::GOSSIP_MSGS_IN),
            bytes_out: registry.counter_family(names::GOSSIP_BYTES_OUT),
            bytes_in: registry.counter_family(names::GOSSIP_BYTES_IN),
        }
    }

    /// Re-home these counters into `registry`, carrying accumulated
    /// counts over (an engine bumps `rumors_originated` during
    /// construction, before any driver can attach a shared registry).
    pub fn attach(&mut self, registry: &Registry) {
        let fresh = Self::in_registry(registry);
        fresh.rounds.add(self.rounds.get());
        fresh.rumor_msgs_sent.add(self.rumor_msgs_sent.get());
        fresh.ae_msgs_sent.add(self.ae_msgs_sent.get());
        fresh.rumors_originated.add(self.rumors_originated.get());
        fresh
            .rumors_learned_push
            .add(self.rumors_learned_push.get());
        fresh
            .rumors_learned_partial_ae
            .add(self.rumors_learned_partial_ae.get());
        fresh.rumors_learned_ae.add(self.rumors_learned_ae.get());
        fresh.rumors_retired.add(self.rumors_retired.get());
        fresh.slowdowns.add(self.slowdowns.get());
        fresh.interval_resets.add(self.interval_resets.get());
        fresh.contact_failures.add(self.contact_failures.get());
        fresh.contact_suspects.add(self.contact_suspects.get());
        fresh.contact_recoveries.add(self.contact_recoveries.get());
        fresh.delta_sent.add(self.delta_sent.get());
        fresh.delta_applied.add(self.delta_applied.get());
        fresh.delta_chain_breaks.add(self.delta_chain_breaks.get());
        fresh
            .delta_full_fallbacks
            .add(self.delta_full_fallbacks.get());
        fresh.delta_bytes_saved.add(self.delta_bytes_saved.get());
        *self = fresh;
    }

    /// The registry these counters live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Frozen view, field-compatible with the pre-obs `EngineStats`.
    pub fn view(&self) -> EngineStats {
        EngineStats {
            rounds: self.rounds.get(),
            rumor_msgs_sent: self.rumor_msgs_sent.get(),
            ae_msgs_sent: self.ae_msgs_sent.get(),
            rumors_originated: self.rumors_originated.get(),
            rumors_learned_push: self.rumors_learned_push.get(),
            rumors_learned_partial_ae: self.rumors_learned_partial_ae.get(),
            rumors_learned_ae: self.rumors_learned_ae.get(),
            rumors_retired: self.rumors_retired.get(),
            slowdowns: self.slowdowns.get(),
            interval_resets: self.interval_resets.get(),
            contact_failures: self.contact_failures.get(),
            contact_suspects: self.contact_suspects.get(),
            contact_recoveries: self.contact_recoveries.get(),
            deltas_sent: self.delta_sent.get(),
            deltas_applied: self.delta_applied.get(),
            delta_chain_breaks: self.delta_chain_breaks.get(),
            delta_full_fallbacks: self.delta_full_fallbacks.get(),
            delta_bytes_saved: self.delta_bytes_saved.get(),
        }
    }

    /// Record an outbound message: per-class count and Table 2 bytes.
    /// The `rumor` class counter doubles as `rumor_msgs_sent`, so rumor
    /// pushes are counted exactly once.
    pub fn on_message_out<P: Payload>(&self, msg: &Message<P>) {
        let kind = msg.kind_name();
        self.msgs_out.inc(kind);
        self.bytes_out.add(kind, msg.wire_bytes() as u64);
    }

    /// Record an inbound message: per-class count and Table 2 bytes.
    pub fn on_message_in<P: Payload>(&self, msg: &Message<P>) {
        let kind = msg.kind_name();
        self.msgs_in.inc(kind);
        self.bytes_in.add(kind, msg.wire_bytes() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::SizedPayload;

    #[test]
    fn view_mirrors_handles() {
        let c = EngineCounters::default();
        c.rounds.add(3);
        c.rumors_retired.inc();
        let v = c.view();
        assert_eq!(v.rounds, 3);
        assert_eq!(v.rumors_retired, 1);
        assert_eq!(v.rumor_msgs_sent, 0);
    }

    #[test]
    fn attach_carries_counts_into_shared_registry() {
        let mut c = EngineCounters::default();
        c.rumors_originated.inc();
        let shared = Registry::new();
        c.attach(&shared);
        c.rumors_originated.inc();
        assert_eq!(
            shared.snapshot().counter(names::GOSSIP_RUMORS_ORIGINATED),
            2
        );
        assert_eq!(c.view().rumors_originated, 2);
    }

    #[test]
    fn message_recording_counts_class_and_bytes() {
        let c = EngineCounters::default();
        let m: Message<SizedPayload> = Message::AeEqual;
        c.on_message_out(&m);
        c.on_message_out(&m);
        c.on_message_in(&m);
        let snap = c.registry().snapshot();
        assert_eq!(snap.counter("gossip.msgs_out.ae_equal"), 2);
        assert_eq!(snap.counter("gossip.bytes_out.ae_equal"), 6); // 2 × header
        assert_eq!(snap.counter("gossip.msgs_in.ae_equal"), 1);
    }

    #[test]
    fn rumor_class_counter_is_rumor_msgs_sent() {
        let c = EngineCounters::default();
        let m: Message<SizedPayload> = Message::Rumor { rumors: Vec::new() };
        c.on_message_out(&m);
        assert_eq!(c.view().rumor_msgs_sent, 1);
    }
}
