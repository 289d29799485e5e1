//! The serving side: the accept loop, the bounded workers every
//! accepted connection cycles through, the admission gate a frame
//! passes before it is served, request dispatch, and replies.
//!
//! This module owns no lock of its own beyond what [`WorkerPool`] and
//! [`AdmissionGate`] keep inside themselves.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use planetp_search::IpfTable;

use super::local::LocalQuery;
use super::types::priority_of;
use super::{Inner, LiveConfig, LiveMsg, SearchCoverage};
use crate::admission::{Admission, AdmissionGate};
use crate::faults::Direction;
use crate::pool::WorkerPool;
use crate::wire::{Frame, Priority};

pub(super) struct Server {
    /// Bounded workers serving accepted connections (no
    /// thread-per-connection). Detached metrics: its queue gauge must
    /// not fight the search pool's `pool.queue_depth`.
    pool: WorkerPool,
    /// Class-aware admission gate the workers pass before serving a
    /// frame (DESIGN.md §16).
    admission: AdmissionGate,
    /// Accepted connections not yet closed; shutdown waits for zero.
    open_conns: Arc<AtomicUsize>,
}

impl Server {
    pub(super) fn new(config: &LiveConfig) -> Self {
        Self {
            pool: WorkerPool::new(config.conn.server_threads.max(1)),
            admission: AdmissionGate::new(config.admission),
            open_conns: Arc::new(AtomicUsize::new(0)),
        }
    }
}

/// One accepted connection as it cycles through the bounded server
/// worker pool (see [`Inner::serve_step`]).
struct ServerConn {
    stream: TcpStream,
    /// When to give up on an idle connection instead of requeueing it.
    idle_deadline: Instant,
    /// Inbound fault admission ran (it runs once, on first service).
    admitted: bool,
    /// The node's [`Server::open_conns`]; counted down when this
    /// connection closes (a queued job holds no reference to the node).
    open_conns: Arc<AtomicUsize>,
}

impl Drop for ServerConn {
    fn drop(&mut self) {
        self.open_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The listener thread: accepted connections go to the bounded server
/// worker pool, which also lets clients keep streams alive between
/// requests.
pub(super) fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(Some(inner.config.io_timeout));
                if inner.config.conn.nodelay {
                    let _ = stream.set_nodelay(true);
                }
                inner.server.open_conns.fetch_add(1, Ordering::SeqCst);
                inner.enqueue_conn(ServerConn {
                    stream,
                    idle_deadline: Instant::now() + inner.server_keepalive(),
                    admitted: false,
                    open_conns: Arc::clone(&inner.server.open_conns),
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

impl Inner {
    /// How long the server keeps polling an accepted connection that
    /// says nothing. The server may be the one to hang up: a mux stream
    /// it idles out is stale at its client's next request, and the
    /// client's pool replaces it with one uncharged transparent
    /// reconnect.
    fn server_keepalive(&self) -> Duration {
        self.config.conn.idle_timeout * 2
    }

    /// Park `conn` on the bounded server worker pool for its next
    /// serve step. Jobs hold only a `Weak` back-reference: a connection
    /// must not keep the node alive, and the job chain dies with it.
    fn enqueue_conn(self: &Arc<Self>, conn: ServerConn) {
        let weak = Arc::downgrade(self);
        self.server
            .pool
            .execute(move || Inner::serve_step(&weak, conn));
    }

    /// After the shutdown flag is set and the listener thread has
    /// exited: block until every accepted connection has closed. A
    /// serve step sees the flag at its next turn (at most one
    /// `SERVER_POLL` away) and drops its connection; one that is
    /// mid-frame finishes that frame first. Once this returns, no
    /// worker can serve another frame.
    pub(super) fn drain_server(&self) {
        while self.server.open_conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One cooperative scheduling turn for an accepted connection:
    /// admit it (once, on a worker — not on the listener thread), poll
    /// briefly for data, serve the frame that arrived, and requeue.
    /// Returning without requeueing drops the connection. Bounded
    /// workers multiplex all accepted connections this way — an idle
    /// keep-alive stream costs a poll per turn, not a parked thread.
    ///
    /// A connection that just spoke is looked at once more, briefly,
    /// before it goes to the back of the queue: a request the peer
    /// wrote behind the one just served is already there, and the next
    /// step of a gossip conversation follows within a round trip —
    /// neither should wait out a rotation of idle polls. A turn serves
    /// at most `TURN_FRAMES` frames, so a peer cannot keep a worker by
    /// talking, and a peer that has stopped costs it `TURN_LINGER`.
    fn serve_step(weak: &Weak<Inner>, mut conn: ServerConn) {
        const SERVER_POLL: Duration = Duration::from_millis(5);
        const TURN_LINGER: Duration = Duration::from_millis(1);
        const TURN_FRAMES: usize = 4;
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
        for served in 0..TURN_FRAMES {
            let wait = if served == 0 {
                SERVER_POLL
            } else {
                TURN_LINGER
            };
            if conn.stream.set_read_timeout(Some(wait)).is_err() {
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
                    break;
                }
                Err(_) => return,
            }
        }
        inner.enqueue_conn(conn);
    }

    /// Read one inbound frame — bare, correlated, or metadata-bearing
    /// — classify it, pass the admission gate, and dispatch it.
    /// Returns whether the connection is still healthy enough to keep.
    ///
    /// Admission happens *here*, on a server worker, after the frame is
    /// parsed: the class comes from the sender's `FrameMeta` when
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
        // Injected overload (chaos tests) sheds unconditionally.
        let forced = self
            .config
            .faults
            .as_ref()
            .is_some_and(|f| f.force_busy(Direction::Inbound));
        let verdict = if forced {
            Admission::Shed {
                retry_after_ms: self.server.admission.retry_after_ms(),
            }
        } else {
            self.server.admission.admit(class, deadline)
        };
        match verdict {
            Admission::Admitted { queue_wait } => {
                self.stats.admission_admitted.inc();
                self.stats
                    .admission_queue_wait_ms
                    .observe(queue_wait.as_millis() as u64);
            }
            Admission::Shed { retry_after_ms } => {
                self.stats.admission_shed.inc();
                self.stats.busy_sent.inc();
                let busy = LiveMsg::Busy {
                    retry_after_ms,
                    class,
                };
                self.reply_framed(stream, corr, &[busy]);
                return true;
            }
            Admission::Expired => {
                // The sender stopped listening before we could start:
                // any reply (even `Busy`) would be wasted bytes.
                self.stats.admission_expired.inc();
                return true;
            }
        }
        self.dispatch_batch(stream, corr, batch);
        self.server.admission.complete();
        true
    }

    /// Serve every message of one admitted frame: each request is
    /// answered with its own reply frame, and the gossip messages of
    /// the frame with one — whatever the engine wants said back, an
    /// empty batch when that is nothing, so the sender's exchange always
    /// completes. The stream is only ever written here, never read: a
    /// gossip conversation is as many request frames as its initiator
    /// cares to send, and a worker owes a silent peer nothing.
    fn dispatch_batch(&self, stream: &mut TcpStream, corr: Option<u64>, batch: Vec<LiveMsg>) {
        let mut gossip_answers: Option<Vec<LiveMsg>> = None;
        for m in batch {
            let reply = match m {
                LiveMsg::Gossip { from, msg } => {
                    gossip_answers
                        .get_or_insert_with(Vec::new)
                        .extend(self.handle_gossip(from, msg));
                    continue;
                }
                LiveMsg::SearchRequest {
                    terms,
                    ipf,
                    num_peers,
                } => {
                    let table = IpfTable::from_pairs(ipf, num_peers);
                    let docs = self.local_docs(LocalQuery::Ranked(&terms, &table));
                    self.note_docs_served(docs.iter().map(|d| d.hash));
                    LiveMsg::SearchResponse { docs }
                }
                LiveMsg::ExhaustiveRequest { terms } => {
                    let docs = self.local_docs(LocalQuery::Conjunction(&terms));
                    self.note_docs_served(docs.iter().map(|d| d.hash));
                    LiveMsg::ExhaustiveResponse { docs }
                }
                LiveMsg::ProxySearchRequest { query, k } => {
                    let group_size = self.config.fanout.group_size;
                    let (hits, coverage) = match self.ranked_search(&query, k, group_size) {
                        Ok(r) => (
                            r.hits
                                .into_iter()
                                .map(|h| (h.peer, h.doc, h.score, h.hash, h.xml))
                                .collect(),
                            r.coverage,
                        ),
                        Err(_) => (Vec::new(), SearchCoverage::default()),
                    };
                    LiveMsg::ProxySearchResponse { hits, coverage }
                }
                LiveMsg::ReplicaPush {
                    home,
                    home_doc,
                    hash,
                    hotness,
                    xml,
                } => self.handle_replica_push(home, home_doc, hash, hotness, &xml),
                LiveMsg::StatsRequest => LiveMsg::StatsResponse {
                    snapshot: self.metrics_snapshot(),
                },
                LiveMsg::SearchResponse { .. }
                | LiveMsg::ExhaustiveResponse { .. }
                | LiveMsg::ProxySearchResponse { .. }
                | LiveMsg::ReplicaAccept { .. }
                | LiveMsg::StatsResponse { .. }
                | LiveMsg::Busy { .. } => continue,
            };
            self.reply_framed(stream, corr, &[reply]);
        }
        if let Some(answers) = gossip_answers {
            self.reply_framed(stream, corr, &answers);
        }
    }

    /// Write one reply frame, counting (not swallowing) failures. A
    /// `corr` id echoes the request's correlation id so the client's
    /// multiplexer can route the reply; `None` writes a bare frame
    /// for one-shot clients.
    fn reply_framed(&self, stream: &mut TcpStream, corr: Option<u64>, batch: &[LiveMsg]) {
        let faults = self.faults(Direction::Inbound);
        let res = crate::wire::send_frame(stream, corr, None, batch, faults);
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
}
