//! Outbound contacts: the one request/reply primitive (`exchange`),
//! the per-peer health table every contact is charged to, the gossip
//! conversation built from it, and the one RPC attempt loop.
//!
//! The health lock is a leaf: a health transition is computed under
//! it, released, and only then fed to the gossip directory.

use parking_lot::Mutex;
use planetp_gossip::{Message, PeerId};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use super::stats::NodeStats;
use super::types::{budget_ms, priority_of};
use super::{Inner, LiveConfig, LiveMsg, LivePayload};
use crate::conn::{ConnMetrics, ConnPool, RpcConnInfo};
use crate::error::PlanetPError;
use crate::faults::{Direction, FaultInjector};
use crate::health::{splitmix64, PeerHealth, PeerHealthEntry};
use crate::wire::{FrameMeta, Priority};

pub(super) struct Transport {
    health: Mutex<PeerHealth>,
    /// Persistent outbound connections (one multiplexed stream per
    /// peer). `None` when pooling is disabled — every request then
    /// connects and hangs up.
    conns: Option<ConnPool<Vec<LiveMsg>>>,
}

impl Transport {
    pub(super) fn new(config: &LiveConfig, stats: &NodeStats) -> Self {
        Self {
            health: Mutex::new(PeerHealth::new(config.health)),
            conns: config.conn.enabled.then(|| {
                ConnPool::new(
                    config.conn,
                    config.io_timeout,
                    config.faults.clone(),
                    ConnMetrics::in_registry(&stats.registry),
                )
            }),
        }
    }
}

/// How one logical RPC may spend its attempts — the three things its
/// callers vary.
#[derive(Debug, Clone, Copy)]
pub(super) struct CallShape {
    /// Attempts before the contact is charged as failed.
    pub(super) attempts: u32,
    /// Reply timeout of one attempt (also its propagated deadline
    /// budget).
    pub(super) read_timeout: Duration,
    /// Wall-clock bound on the whole schedule: a retry runs only if its
    /// backoff sleep still fits, and each attempt's timeout is clipped
    /// to the time remaining.
    pub(super) deadline: Option<Duration>,
    /// Admission class the receiver's gate is told.
    pub(super) class: Priority,
}

impl Inner {
    // ------------------------------------------------------------------
    // The transport seam
    // ------------------------------------------------------------------

    /// The injector and the direction it should judge, for the frame
    /// writer.
    pub(super) fn faults(&self, dir: Direction) -> Option<(&FaultInjector, Direction)> {
        self.config.faults.as_deref().map(|f| (f, dir))
    }

    /// Say `batch` to the node at `addr` and hear its reply: the one
    /// place a request frame is written and its reply read, and the one
    /// place outbound contacts move `net.bytes_*` / `net.frames_*`.
    ///
    /// With pooling on, the request rides the peer's shared multiplexed
    /// stream under a correlation id, `meta` telling the receiver's
    /// admission gate its class and deadline budget; a stale pooled
    /// stream is replaced transparently inside the pool and reported
    /// via [`RpcConnInfo::stale_reconnect`]. Without pooling this is
    /// the original connect-send-read-hangup exchange (bare frames,
    /// which carry no metadata — the server then classifies by message
    /// type).
    fn exchange(
        &self,
        addr: &str,
        batch: &[LiveMsg],
        read_timeout: Duration,
        meta: FrameMeta,
    ) -> io::Result<(Vec<LiveMsg>, RpcConnInfo)> {
        let (reply, info) = if let Some(pool) = &self.transport.conns {
            pool.rpc_with_meta(addr, batch, read_timeout, Some(meta))?
        } else {
            let out = Direction::Outbound;
            if let Some(f) = &self.config.faults {
                f.admit(out)?;
            }
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(read_timeout))?;
            stream.set_write_timeout(Some(self.config.io_timeout))?;
            if self.config.conn.nodelay {
                let _ = stream.set_nodelay(true);
            }
            let bytes_out =
                crate::wire::send_frame(&mut stream, None, None, batch, self.faults(out))?;
            if let Some(f) = &self.config.faults {
                f.delay(out);
            }
            let (frame, _, bytes_in) =
                crate::wire::read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut stream)?
                    .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))?;
            let info = RpcConnInfo {
                bytes_out: bytes_out as u64,
                bytes_in: bytes_in as u64,
                ..RpcConnInfo::default()
            };
            (frame.into_value(), info)
        };
        self.stats.bytes_out.add(info.bytes_out);
        self.stats.frames_out.inc();
        self.stats.bytes_in.add(info.bytes_in);
        self.stats.frames_in.inc();
        Ok((reply, info))
    }

    /// Forget pooled streams that broke.
    pub(super) fn reap_broken_conns(&self) {
        if let Some(p) = &self.transport.conns {
            p.reap();
        }
    }

    /// Break the pooled stream to `peer` at the socket level without
    /// telling the pool; returns how many were broken.
    pub(super) fn debug_break_pooled_conns(&self, peer: PeerId) -> usize {
        match (self.resolve(peer), &self.transport.conns) {
            (Some(addr), Some(pool)) => pool.debug_break(&addr),
            _ => 0,
        }
    }

    // ------------------------------------------------------------------
    // Health bookkeeping
    // ------------------------------------------------------------------

    /// A logical contact with `peer` succeeded after `latency`.
    fn note_contact_ok(&self, peer: PeerId, latency: Duration) {
        let t = self.transport.health.lock().record_success(
            peer,
            self.now_ms(),
            latency.as_secs_f64() * 1_000.0,
        );
        if t.recovered() {
            self.stats.peers_recovered.inc();
            self.contact_recovered(peer);
        }
    }

    /// A logical contact with `peer` failed after exhausting retries.
    /// The suspect phase only counts; crossing the offline threshold
    /// feeds back into the gossip directory's offline marking so the
    /// peer stops being gossiped to as reachable (§3).
    fn note_contact_failed(&self, peer: PeerId, err: &io::Error) {
        let now = self.now_ms();
        let t = self.transport.health.lock().record_failure(peer, now);
        if t.became_offline() {
            self.stats.peers_marked_offline.inc();
        } else if t.from != t.to {
            // A fresh Healthy -> Suspect transition (repeat failures
            // while already Suspect don't re-count).
            self.stats.health_suspects.inc();
        }
        self.contact_failed(peer, now, t.became_offline());
        debug_log!(
            "planetp[{}]: contact with peer {peer} failed ({err}); state {:?} -> {:?}",
            self.id,
            t.from,
            t.to
        );
    }

    /// The pool replaced a stale keep-alive stream to `peer` under a
    /// contact: diagnostic only, never a failure.
    fn note_stream_replaced(&self, peer: PeerId, info: &RpcConnInfo) {
        if info.stale_reconnect {
            self.transport.health.lock().record_stale_reconnect(peer);
        }
    }

    /// Is `peer` offline and still inside its probe backoff?
    pub(super) fn in_backoff(&self, peer: PeerId) -> bool {
        self.transport
            .health
            .lock()
            .should_skip(peer, self.now_ms())
    }

    /// Should this round probabilistically skip `peer` because it
    /// recently shed us with `Busy`? The salt folds in the current
    /// clock so each round re-rolls — a throttled peer is *mostly*
    /// skipped, not blacklisted.
    pub(super) fn busy_throttled(&self, peer: PeerId) -> bool {
        let now = self.now_ms();
        let salt = splitmix64((u64::from(self.id) << 40) ^ now);
        self.transport.health.lock().busy_throttled(peer, now, salt)
    }

    /// Health history for one peer, if it has been contacted.
    pub(super) fn peer_health(&self, peer: PeerId) -> Option<PeerHealthEntry> {
        self.transport.health.lock().get(peer)
    }

    // ------------------------------------------------------------------
    // Gossip transport
    // ------------------------------------------------------------------

    /// One attempt at a whole gossip conversation with `target` (§3's
    /// push → ack with piggybacked ids → pull → reply): say `msg`, hand
    /// what comes back to the engine, say what the engine answers, until
    /// it has nothing left to say. Every step is one [`Self::exchange`]
    /// — a request and its reply on the peer's one stream — so a stale
    /// stream is replaced inside the pool (uncharged, noted on the
    /// peer's health entry) and a `Busy` reply, carrying nothing for the
    /// engine, ends the conversation without a failure.
    fn gossip_attempt(
        &self,
        target: PeerId,
        addr: &str,
        msg: &Message<LivePayload>,
    ) -> io::Result<()> {
        let mut say = vec![LiveMsg::Gossip {
            from: self.id,
            msg: msg.clone(),
        }];
        while !say.is_empty() {
            let meta = FrameMeta::new(priority_of(&say[0]));
            let (reply, info) = self.exchange(addr, &say, self.config.io_timeout, meta)?;
            self.note_stream_replaced(target, &info);
            say.clear();
            for m in reply {
                if let LiveMsg::Gossip { from, msg } = m {
                    say.extend(self.handle_gossip(from, msg));
                }
            }
        }
        Ok(())
    }

    /// Initiate a gossip exchange with `target`, retrying transient
    /// failures with capped exponential backoff before giving up and
    /// recording the failure.
    pub(super) fn gossip_to(&self, target: PeerId, msg: Message<LivePayload>) {
        let Some(addr) = self.resolve(target) else {
            return;
        };
        if self.in_backoff(target) {
            self.stats.contacts_skipped.inc();
            return;
        }
        let salt = splitmix64((u64::from(self.id) << 32) | u64::from(target));
        let started = Instant::now();
        let mut result = self.gossip_attempt(target, &addr, &msg);
        let mut retry = 0u32;
        while result.is_err()
            && retry + 1 < self.config.retry.max_attempts.max(1)
            && !self.shutdown.load(std::sync::atomic::Ordering::Relaxed)
        {
            retry += 1;
            self.stats.gossip_retries.inc();
            std::thread::sleep(self.config.retry.delay(retry, salt));
            result = self.gossip_attempt(target, &addr, &msg);
        }
        match result {
            Ok(()) => {
                self.stats
                    .gossip_contact_ms
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
    // RPCs
    // ------------------------------------------------------------------

    /// Worst-case wall clock for one logical peer contact under the
    /// retry schedule: each attempt can burn a connect plus a read
    /// timeout, with a capped backoff sleep before every retry.
    pub(super) fn contact_budget(&self) -> Duration {
        let r = &self.config.retry;
        let attempts = u64::from(r.max_attempts.max(1));
        let per_attempt = 2 * self.config.io_timeout.as_millis() as u64;
        Duration::from_millis(attempts * per_attempt + (attempts - 1) * r.max_delay_ms)
    }

    /// One synchronous RPC attempt (no retries): one request, the one
    /// message of its reply. `read_timeout` sets the reply deadline —
    /// point RPCs use `io_timeout`, proxied searches a fan-out-sized
    /// budget — and `meta` carries it, with the priority class, to the
    /// receiver's admission gate.
    fn rpc_once(
        &self,
        addr: &str,
        request: &LiveMsg,
        read_timeout: Duration,
        meta: FrameMeta,
    ) -> io::Result<(LiveMsg, RpcConnInfo)> {
        let (reply, info) =
            self.exchange(addr, std::slice::from_ref(request), read_timeout, meta)?;
        let msg = reply
            .into_iter()
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty reply"))?;
        Ok((msg, info))
    }

    /// The configured retry schedule, each attempt waiting
    /// `read_timeout` for its reply.
    pub(super) fn retrying(&self, request: &LiveMsg, read_timeout: Duration) -> CallShape {
        CallShape {
            attempts: self.config.retry.max_attempts,
            read_timeout,
            deadline: None,
            class: priority_of(request),
        }
    }

    /// An RPC to `peer`: up to `shape.attempts` attempts with capped
    /// exponential backoff between them, health recorded on the final
    /// outcome. Each attempt propagates its read timeout as the frame's
    /// deadline budget, so an overloaded receiver can drop the request
    /// once we have stopped listening instead of spending a service
    /// slot on an abandoned reply.
    ///
    /// A `Busy` reply ends the schedule immediately — retrying into a
    /// queue that just shed us only deepens the overload — and is
    /// returned as a *successful* reply for the caller to classify. It
    /// is *not* a failure (the peer proved it is alive): it feeds the
    /// client-side throttle, and neither the suspect/offline machine
    /// nor the retry budget is charged.
    pub(super) fn rpc(
        &self,
        peer: PeerId,
        addr: &str,
        request: &LiveMsg,
        shape: CallShape,
    ) -> io::Result<LiveMsg> {
        let salt = splitmix64((u64::from(self.id) << 33) ^ u64::from(peer));
        let started = Instant::now();
        let mut last_err = None;
        for retry in 0..shape.attempts.max(1) {
            if retry > 0 {
                let delay = self.config.retry.delay(retry, salt);
                if shape
                    .deadline
                    .is_some_and(|d| started.elapsed() + delay >= d)
                {
                    break;
                }
                self.stats.rpc_retries.inc();
                std::thread::sleep(delay);
            }
            let timeout = match shape.deadline {
                Some(d) => d.saturating_sub(started.elapsed()).min(shape.read_timeout),
                None => shape.read_timeout,
            };
            if timeout.is_zero() {
                break;
            }
            let meta = FrameMeta::with_deadline(shape.class, budget_ms(timeout));
            let attempt_started = Instant::now();
            match self.rpc_once(addr, request, timeout, meta) {
                Ok((
                    LiveMsg::Busy {
                        retry_after_ms,
                        class,
                    },
                    _,
                )) => {
                    self.stats.busy_received.inc();
                    self.transport
                        .health
                        .lock()
                        .record_busy(peer, self.now_ms(), retry_after_ms);
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
                    self.note_stream_replaced(peer, &info);
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

    /// A point RPC for the node API: resolve `peer`, run the retry
    /// schedule, and turn transport failure and `Busy` into errors.
    pub(super) fn call(
        &self,
        peer: PeerId,
        request: &LiveMsg,
        read_timeout: Duration,
    ) -> Result<LiveMsg, PlanetPError> {
        let addr = self
            .resolve(peer)
            .ok_or_else(|| PlanetPError::UnknownPeer(format!("peer {peer}")))?;
        match self.rpc(peer, &addr, request, self.retrying(request, read_timeout)) {
            Ok(LiveMsg::Busy { retry_after_ms, .. }) => Err(PlanetPError::Protocol(format!(
                "peer {peer} is overloaded (retry in {retry_after_ms} ms)"
            ))),
            Ok(reply) => Ok(reply),
            Err(e) => Err(PlanetPError::Network(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::RetryPolicy;
    use crate::live::LiveNode;
    use crate::wire;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// What the scripted peer does with every request frame it reads.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Script {
        Answer,
        Busy,
        HangUp,
        Silent,
    }

    /// Serve one accepted connection by `script`, recording each
    /// request frame's metadata, until the client closes it.
    fn follow(script: Script, mut stream: TcpStream, seen: &Mutex<Vec<FrameMeta>>) {
        while let Ok(Some((frame, meta, _))) =
            wire::read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut stream)
        {
            seen.lock().push(meta.expect("RPC requests carry metadata"));
            let reply = match script {
                Script::Answer => LiveMsg::StatsResponse {
                    snapshot: Default::default(),
                },
                Script::Busy => LiveMsg::Busy {
                    retry_after_ms: 5,
                    class: Priority::Control,
                },
                Script::HangUp => return,
                Script::Silent => continue,
            };
            let corr = frame.corr_id().expect("pooled RPCs are correlated");
            wire::write_correlated_frame(&mut stream, corr, &vec![reply]).expect("reply");
        }
    }

    /// The one RPC loop, against a scripted loopback peer: every peer
    /// behaviour × every call shape — how many attempts go out, what is
    /// counted as a retry or a failure, whether health is charged, that
    /// `Busy` is never retried nor charged, and that a deadline clips
    /// the last attempt's timeout.
    #[test]
    fn rpc_loop_attempts_retries_and_charges_by_shape() {
        const IO: Duration = Duration::from_millis(300);
        const TIGHT: Duration = Duration::from_millis(500);
        let config = LiveConfig {
            io_timeout: IO,
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 5,
                max_delay_ms: 10,
            },
            ..LiveConfig::default()
        };
        let (stop, seen) = (AtomicBool::new(false), Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            let node = LiveNode::start(0, config, None).expect("node");
            let (inner, request) = (&node.inner, LiveMsg::StatsRequest);
            let retry = inner.retrying(&request, IO);
            let bounded = CallShape {
                deadline: Some(TIGHT),
                ..retry
            };
            let background = CallShape {
                attempts: 1,
                class: Priority::Background,
                ..retry
            };
            // (peer behaviour, call shape) → (attempts made, failed?)
            let table = [
                (Script::Answer, retry, 1, false),
                (Script::Answer, bounded, 1, false),
                (Script::Answer, background, 1, false),
                (Script::Busy, retry, 1, false),
                (Script::Busy, bounded, 1, false),
                (Script::Busy, background, 1, false),
                (Script::HangUp, retry, 3, true),
                (Script::HangUp, bounded, 3, true),
                (Script::HangUp, background, 1, true),
                (Script::Silent, retry, 3, true),
                // Attempt 1 burns IO of the 500 ms; attempt 2 is clipped
                // to what is left; a third backoff no longer fits.
                (Script::Silent, bounded, 2, true),
                (Script::Silent, background, 1, true),
            ];
            for (row, &(script, shape, attempts, fails)) in table.iter().enumerate() {
                let case = format!("{script:?} x {shape:?}");
                // A fresh peer per row: its own address and health entry.
                let peer = 100 + row as PeerId;
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                listener.set_nonblocking(true).expect("nonblocking");
                let addr = listener.local_addr().expect("addr").to_string();
                let (seen, stop) = (&seen, &stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                stream.set_nonblocking(false).expect("blocking");
                                scope.spawn(move || follow(script, stream, seen));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        }
                    }
                });
                let counters = || {
                    let s = &inner.stats;
                    let h = inner.peer_health(peer);
                    [
                        s.rpc_retries.get(),
                        s.rpc_failures.get(),
                        s.busy_received.get(),
                        h.map_or(0, |h| u64::from(h.consecutive_failures)),
                        h.map_or(0, |h| u64::from(h.busy_strikes)),
                    ]
                };
                let before = counters();
                let started = Instant::now();
                let reply = inner.rpc(peer, &addr, &request, shape);
                let took = started.elapsed();
                match (script, &reply) {
                    (Script::Answer, Ok(LiveMsg::StatsResponse { .. }))
                    | (Script::Busy, Ok(LiveMsg::Busy { .. }))
                    | (Script::HangUp | Script::Silent, Err(_)) => {}
                    _ => panic!("{case}: unexpected outcome {reply:?}"),
                }
                let frames = std::mem::take(&mut *seen.lock());
                assert_eq!(frames.len(), attempts, "{case}: attempts made");
                // Every attempt after the first is one retry; an exhausted
                // contact is one failure and one health charge; `Busy`
                // feeds the throttle and nothing else.
                let busy = u64::from(script == Script::Busy);
                let moved: Vec<u64> = (counters().iter().zip(before).map(|(a, b)| a - b)).collect();
                let (retries, failed) = (attempts as u64 - 1, u64::from(fails));
                assert_eq!(
                    moved,
                    [retries, failed, busy, failed, busy],
                    "{case}: [retries, failures, busy received, health failures, busy strikes]"
                );
                // Every frame tells the receiver its class and how long
                // the sender will keep listening.
                assert!(frames.iter().all(|m| m.priority == shape.class), "{case}");
                let budgets: Vec<u32> = frames.iter().filter_map(|m| m.deadline_ms).collect();
                assert_eq!(budgets.len(), frames.len(), "{case}: budget propagated");
                let clipped = script == Script::Silent && shape.deadline.is_some();
                assert_eq!(budgets[0], budget_ms(IO), "{case}: first attempt unclipped");
                assert_eq!(
                    budgets.last().is_some_and(|&b| b < budget_ms(IO)),
                    clipped,
                    "{case}: only a deadline clips an attempt's timeout: {budgets:?}"
                );
                assert!(!clipped || took < TIGHT + IO, "{case}: overran: {took:?}");
            }
            // Closing the node's pooled streams ends the peers' reads.
            drop(node);
            stop.store(true, Ordering::SeqCst);
        });
    }
}
