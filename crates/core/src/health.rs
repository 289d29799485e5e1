//! Per-peer failure memory for the live runtime.
//!
//! The paper's failure model is binary and immediate: "Each peer
//! discovers that another peer is offline when an attempt to
//! communicate with it fails" (§3). Over real sockets that is too
//! trigger-happy — a single dropped SYN or a slow disk on the remote
//! end would eject a healthy peer from gossip target selection. The
//! [`PeerHealth`] table interposes a *suspect* phase: peers accumulate
//! consecutive failures, transition `Healthy → Suspect → Offline`, and
//! only the offline transition feeds back into the gossip directory's
//! offline marking (which then drives the paper's T_Dead expiry).
//! Successful contacts reset the count and clear the mark, mirroring
//! §3's "hearing from a peer proves it is online".
//!
//! The table also remembers an EWMA of contact latency (diagnostic,
//! exposed through snapshots) and computes the capped exponential
//! backoff that gates how soon an offline peer is probed again.

use planetp_gossip::PeerId;
use std::collections::HashMap;
use std::time::Duration;

/// Liveness belief derived from contact outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No unanswered failures.
    Healthy,
    /// At least one recent failure; still contacted normally.
    Suspect,
    /// Failure budget exhausted; contacts are gated by backoff and the
    /// gossip directory is told to mark the peer offline.
    Offline,
}

/// Tuning knobs for [`PeerHealth`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Consecutive failed contacts (each already retry-exhausted) after
    /// which a peer becomes [`HealthState::Suspect`].
    pub suspect_after: u32,
    /// Consecutive failed contacts after which a peer becomes
    /// [`HealthState::Offline`].
    pub offline_after: u32,
    /// First probe-again delay once a peer is offline.
    pub base_backoff_ms: u64,
    /// Cap on the probe-again delay.
    pub max_backoff_ms: u64,
    /// Smoothing factor for the contact-latency EWMA (0 < α ≤ 1).
    pub ewma_alpha: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            suspect_after: 1,
            offline_after: 2,
            base_backoff_ms: 500,
            max_backoff_ms: 30_000,
            ewma_alpha: 0.3,
        }
    }
}

/// Retry schedule for one logical peer contact (a gossip exchange or a
/// search RPC): up to `max_attempts` tries with capped exponential
/// backoff and deterministic jitter between them.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each retry after that.
    pub base_delay_ms: u64,
    /// Cap on the per-retry delay.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_ms: 50,
            max_delay_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `retry` (1-based). Jitter is
    /// deterministic in `salt` so test runs are reproducible: the
    /// second half of the capped exponential window is chosen by a
    /// hash, giving delays in `[cap/2, cap]`.
    pub fn delay(&self, retry: u32, salt: u64) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << retry.saturating_sub(1).min(16));
        let cap = exp.min(self.max_delay_ms).max(1);
        let half = cap / 2;
        let jitter = splitmix64(salt.wrapping_add(u64::from(retry))) % (half + 1);
        Duration::from_millis(half + jitter)
    }
}

/// Everything remembered about one peer's contact history.
#[derive(Debug, Clone, Copy)]
pub struct PeerHealthEntry {
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Local clock (ms) of the last successful contact.
    pub last_success_ms: Option<u64>,
    /// Local clock (ms) of the last failed contact.
    pub last_failure_ms: Option<u64>,
    /// Exponentially weighted moving average of contact latency (ms).
    pub ewma_latency_ms: Option<f64>,
    /// Current liveness belief.
    pub state: HealthState,
    /// While offline: do not probe again before this local time (ms).
    pub retry_at_ms: u64,
    /// Keep-alive connections to this peer that went stale and were
    /// transparently replaced. Diagnostic only: a stream that died idle
    /// says nothing about the peer's liveness, so these never feed the
    /// consecutive-failure state machine.
    pub stale_reconnects: u32,
    /// Consecutive `Busy` replies since the last successful contact.
    /// Like stale reconnects, Busy is *not* a failure — the peer is
    /// alive, merely overloaded — so these never feed the
    /// suspect→offline machine. They drive the busy throttle instead.
    pub busy_strikes: u32,
    /// While busy-throttled: the advertised retry-after horizon (local
    /// clock, ms). Inside this window, repeated strikes make group
    /// dispatch probabilistically skip the peer for a round.
    pub busy_until_ms: u64,
}

impl PeerHealthEntry {
    fn fresh() -> Self {
        Self {
            consecutive_failures: 0,
            last_success_ms: None,
            last_failure_ms: None,
            ewma_latency_ms: None,
            state: HealthState::Healthy,
            retry_at_ms: 0,
            stale_reconnects: 0,
            busy_strikes: 0,
            busy_until_ms: 0,
        }
    }
}

/// Outcome of recording a contact result: the state edge it caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// State before the contact was recorded.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
}

impl HealthTransition {
    /// Did this contact push the peer over the offline threshold?
    pub fn became_offline(&self) -> bool {
        self.from != HealthState::Offline && self.to == HealthState::Offline
    }

    /// Did a suspect/offline peer answer again?
    pub fn recovered(&self) -> bool {
        self.from != HealthState::Healthy && self.to == HealthState::Healthy
    }
}

/// The per-node health table: one [`PeerHealthEntry`] per contacted
/// peer. Not thread-safe on its own — the live runtime wraps it in a
/// mutex next to the gossip engine.
#[derive(Debug)]
pub struct PeerHealth {
    config: HealthConfig,
    entries: HashMap<PeerId, PeerHealthEntry>,
}

impl PeerHealth {
    /// Empty table.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
        }
    }

    /// Record a successful contact with observed `latency_ms`.
    pub fn record_success(
        &mut self,
        peer: PeerId,
        now_ms: u64,
        latency_ms: f64,
    ) -> HealthTransition {
        let alpha = self.config.ewma_alpha;
        let e = self
            .entries
            .entry(peer)
            .or_insert_with(PeerHealthEntry::fresh);
        let from = e.state;
        e.consecutive_failures = 0;
        e.last_success_ms = Some(now_ms);
        e.state = HealthState::Healthy;
        e.retry_at_ms = 0;
        // A served request proves the overload passed: drop the throttle.
        e.busy_strikes = 0;
        e.busy_until_ms = 0;
        e.ewma_latency_ms = Some(match e.ewma_latency_ms {
            Some(prev) => prev + alpha * (latency_ms - prev),
            None => latency_ms,
        });
        HealthTransition {
            from,
            to: HealthState::Healthy,
        }
    }

    /// Record a failed contact (after the caller's retries were
    /// exhausted). Advances the suspect→offline state machine and, on
    /// entering or staying offline, schedules the next probe with
    /// capped exponential backoff.
    pub fn record_failure(&mut self, peer: PeerId, now_ms: u64) -> HealthTransition {
        let cfg = self.config;
        let e = self
            .entries
            .entry(peer)
            .or_insert_with(PeerHealthEntry::fresh);
        let from = e.state;
        e.consecutive_failures = e.consecutive_failures.saturating_add(1);
        e.last_failure_ms = Some(now_ms);
        e.state = if e.consecutive_failures >= cfg.offline_after {
            HealthState::Offline
        } else if e.consecutive_failures >= cfg.suspect_after {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
        if e.state == HealthState::Offline {
            let beyond = e.consecutive_failures - cfg.offline_after;
            let exp = cfg.base_backoff_ms.saturating_mul(1u64 << beyond.min(16));
            let cap = exp.min(cfg.max_backoff_ms).max(1);
            // Deterministic jitter in [cap/2, cap], like RetryPolicy.
            let half = cap / 2;
            let jitter = splitmix64((u64::from(peer) << 32) ^ u64::from(e.consecutive_failures))
                % (half + 1);
            e.retry_at_ms = now_ms + half + jitter;
        }
        HealthTransition { from, to: e.state }
    }

    /// Record that a pooled connection to `peer` was found stale and
    /// transparently replaced. Deliberately *not* a failure: the peer
    /// was never proven unreachable (its end of an idle stream merely
    /// went away), so state, failure count, and backoff are untouched.
    pub fn record_stale_reconnect(&mut self, peer: PeerId) {
        let e = self
            .entries
            .entry(peer)
            .or_insert_with(PeerHealthEntry::fresh);
        e.stale_reconnects = e.stale_reconnects.saturating_add(1);
    }

    /// Record a `Busy` reply from `peer` advertising `retry_after_ms`
    /// of backoff. Deliberately *not* a failure (the peer answered — it
    /// is alive, just shedding load), so the suspect→offline machine is
    /// untouched. Consecutive strikes accumulate and extend the busy
    /// window; [`Self::busy_throttled`] turns repeats into skips.
    pub fn record_busy(&mut self, peer: PeerId, now_ms: u64, retry_after_ms: u64) {
        let e = self
            .entries
            .entry(peer)
            .or_insert_with(PeerHealthEntry::fresh);
        e.busy_strikes = e.busy_strikes.saturating_add(1);
        e.busy_until_ms = e.busy_until_ms.max(now_ms + retry_after_ms.max(1));
    }

    /// Should a group dispatch skip this peer for one round because it
    /// keeps shedding us? A single Busy never throttles (the very next
    /// request may land); *repeated* Busy inside the advertised window
    /// skips probabilistically — probability grows with the strike
    /// count, capped below 1 so a throttled peer is still probed
    /// occasionally. Deterministic in `salt` for reproducible tests.
    pub fn busy_throttled(&self, peer: PeerId, now_ms: u64, salt: u64) -> bool {
        let Some(e) = self.entries.get(&peer) else {
            return false;
        };
        if e.busy_strikes < 2 || now_ms >= e.busy_until_ms {
            return false;
        }
        // 50% at two strikes, +15% per further strike, capped at 90%.
        let pct = 50u64
            .saturating_add(15 * u64::from(e.busy_strikes - 2))
            .min(90);
        let roll = splitmix64(salt ^ (u64::from(peer) << 17) ^ u64::from(e.busy_strikes)) % 100;
        roll < pct
    }

    /// Peers currently inside a busy-throttle window.
    pub fn busy_throttled_count(&self, now_ms: u64) -> usize {
        self.entries
            .values()
            .filter(|e| e.busy_strikes >= 2 && now_ms < e.busy_until_ms)
            .count()
    }

    /// Current belief about a peer (Healthy when never contacted).
    pub fn state(&self, peer: PeerId) -> HealthState {
        self.entries
            .get(&peer)
            .map_or(HealthState::Healthy, |e| e.state)
    }

    /// Should a contact to `peer` be skipped right now? True only for
    /// offline peers still inside their backoff window — suspects keep
    /// being contacted so they can clear themselves.
    pub fn should_skip(&self, peer: PeerId, now_ms: u64) -> bool {
        self.entries
            .get(&peer)
            .is_some_and(|e| e.state == HealthState::Offline && now_ms < e.retry_at_ms)
    }

    /// Snapshot of one peer's history.
    pub fn get(&self, peer: PeerId) -> Option<PeerHealthEntry> {
        self.entries.get(&peer).copied()
    }

    /// Iterate over all tracked peers.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &PeerHealthEntry)> {
        self.entries.iter().map(|(&id, e)| (id, e))
    }

    /// Number of peers currently believed offline.
    pub fn offline_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == HealthState::Offline)
            .count()
    }
}

/// SplitMix64 — the deterministic jitter source (no RNG state to keep).
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PeerHealth {
        PeerHealth::new(HealthConfig::default())
    }

    #[test]
    fn failures_walk_healthy_suspect_offline() {
        let mut h = table();
        assert_eq!(h.state(7), HealthState::Healthy);
        let t = h.record_failure(7, 100);
        assert_eq!((t.from, t.to), (HealthState::Healthy, HealthState::Suspect));
        let t = h.record_failure(7, 200);
        assert!(t.became_offline());
        assert_eq!(h.state(7), HealthState::Offline);
    }

    #[test]
    fn success_resets_and_reports_recovery() {
        let mut h = table();
        h.record_failure(3, 0);
        h.record_failure(3, 10);
        let t = h.record_success(3, 20, 5.0);
        assert!(t.recovered());
        assert_eq!(h.state(3), HealthState::Healthy);
        assert_eq!(h.get(3).unwrap().consecutive_failures, 0);
    }

    #[test]
    fn offline_peers_skip_within_backoff_then_probe() {
        let mut h = table();
        h.record_failure(9, 0);
        h.record_failure(9, 0); // now offline; backoff from 500ms base
        assert!(h.should_skip(9, 1));
        let retry_at = h.get(9).unwrap().retry_at_ms;
        assert!((250..=500).contains(&retry_at), "retry_at={retry_at}");
        assert!(!h.should_skip(9, retry_at), "probe allowed after backoff");
        // Suspects are never skipped.
        let mut h = table();
        h.record_failure(4, 0);
        assert_eq!(h.state(4), HealthState::Suspect);
        assert!(!h.should_skip(4, 1));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = HealthConfig {
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            ..HealthConfig::default()
        };
        let mut h = PeerHealth::new(cfg);
        let mut prev = 0;
        for i in 0..10 {
            h.record_failure(1, 0);
            let at = h.get(1).unwrap().retry_at_ms;
            if i >= 2 {
                assert!(at >= prev / 2, "backoff should not collapse");
            }
            assert!(at <= 1_000, "backoff must cap at max: {at}");
            prev = at;
        }
    }

    #[test]
    fn ewma_tracks_latency() {
        let mut h = table();
        h.record_success(2, 0, 100.0);
        assert_eq!(h.get(2).unwrap().ewma_latency_ms, Some(100.0));
        h.record_success(2, 1, 200.0);
        let e = h.get(2).unwrap().ewma_latency_ms.unwrap();
        assert!(e > 100.0 && e < 200.0, "ewma moved toward new sample: {e}");
    }

    #[test]
    fn stale_reconnects_count_without_touching_liveness() {
        let mut h = table();
        h.record_success(5, 0, 10.0);
        h.record_stale_reconnect(5);
        h.record_stale_reconnect(5);
        let e = h.get(5).unwrap();
        assert_eq!(e.stale_reconnects, 2);
        assert_eq!(e.consecutive_failures, 0, "staleness is not a failure");
        assert_eq!(e.state, HealthState::Healthy);
        assert!(!h.should_skip(5, 1));
    }

    #[test]
    fn busy_replies_never_touch_the_liveness_machine() {
        let mut h = table();
        h.record_busy(6, 0, 200);
        h.record_busy(6, 10, 200);
        h.record_busy(6, 20, 200);
        let e = h.get(6).unwrap();
        assert_eq!(e.busy_strikes, 3);
        assert_eq!(e.consecutive_failures, 0, "busy is not a failure");
        assert_eq!(e.state, HealthState::Healthy);
        assert!(!h.should_skip(6, 21), "health never gates a busy peer");
    }

    #[test]
    fn single_busy_never_throttles_repeats_do_inside_the_window() {
        let mut h = table();
        h.record_busy(8, 0, 1_000);
        for salt in 0..64 {
            assert!(!h.busy_throttled(8, 10, salt), "one strike is free");
        }
        h.record_busy(8, 10, 1_000);
        h.record_busy(8, 20, 1_000);
        let hits = (0..64)
            .filter(|&salt| h.busy_throttled(8, 30, salt))
            .count();
        assert!(hits > 0, "repeated busy must sometimes skip");
        assert!(hits < 64, "probability stays below 1 — peer is re-probed");
        // Outside the advertised window the throttle lapses.
        assert!(!h.busy_throttled(8, 5_000, 1));
        // Deterministic in salt.
        assert_eq!(h.busy_throttled(8, 30, 7), h.busy_throttled(8, 30, 7));
        assert_eq!(h.busy_throttled_count(30), 1);
        assert_eq!(h.busy_throttled_count(5_000), 0);
    }

    #[test]
    fn success_clears_the_busy_throttle() {
        let mut h = table();
        h.record_busy(2, 0, 10_000);
        h.record_busy(2, 1, 10_000);
        h.record_success(2, 5, 3.0);
        let e = h.get(2).unwrap();
        assert_eq!(e.busy_strikes, 0);
        assert_eq!(e.busy_until_ms, 0);
        assert!(!h.busy_throttled(2, 6, 1));
    }

    #[test]
    fn retry_policy_delay_is_capped_and_jittered_deterministically() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 100,
            max_delay_ms: 400,
        };
        let d1 = p.delay(1, 42);
        assert_eq!(d1, p.delay(1, 42), "same salt, same delay");
        assert!(d1.as_millis() >= 50 && d1.as_millis() <= 100, "{d1:?}");
        let d4 = p.delay(4, 42);
        assert!(d4.as_millis() <= 400, "cap applies: {d4:?}");
    }
}
