//! Persistent, health-aware connections for the live runtime.
//!
//! Every gossip round and every search-group contact used to pay a
//! fresh `TcpStream::connect`; at the community sizes the paper's §6
//! evaluation targets (and the million-user north star beyond it) the
//! wire setup cost dominates the per-query budget once Bloofi pruning
//! has cut the probe cost. This module keeps connections alive instead:
//! **one multiplexed stream per peer** ([`ConnPool::rpc`]) carries
//! everything a node says to that peer — search RPCs and every step of
//! a gossip conversation alike, each a request frame and its reply.
//! Requests carry correlation ids
//! ([`crate::wire::write_correlated_frame`]) so the concurrent fan-out
//! RPCs of a grouped search share a single stream and replies may
//! arrive in any order. There is no dedicated reader thread: whichever
//! waiter gets there first takes a short *reader lease*, polls the
//! socket, and delivers whatever frame arrives — to itself or to
//! whichever other waiter it belongs to.
//!
//! **Staleness.** A keep-alive stream can die while idle (the peer
//! restarted, idled its end out, or a middlebox dropped the mapping).
//! That says nothing about the peer's liveness, so a connection-level
//! failure ([`is_connection_level`]) on a stream that worked before is
//! absorbed *inside* the pool: one transparent reconnect, counted in
//! `conn.stale_reconnects`, never charged against the caller's retry
//! budget or the peer's health state. Failures on fresh connections and
//! genuine timeouts propagate unchanged.

use parking_lot::{Condvar, Mutex};
use planetp_obs::{names, Counter, Gauge, Registry};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::{Direction, FaultInjector};
use crate::wire::{self, Frame, FrameMeta};

/// How long a reader lease polls the socket before handing the lease
/// back (and how long non-readers wait between checks of their slot).
const MUX_POLL: Duration = Duration::from_millis(10);

/// Knobs for the persistent connection layer.
#[derive(Debug, Clone, Copy)]
pub struct ConnConfig {
    /// Pool connections at all. `false` restores the original
    /// connect-per-contact behaviour (every request opens its own
    /// stream and hangs up after the reply) — the bench baseline.
    pub enabled: bool,
    /// The server side's idle horizon: an accepted connection that
    /// stays silent for twice this long is closed.
    pub idle_timeout: Duration,
    /// Concurrent correlated RPCs allowed on one multiplexed stream;
    /// callers beyond the cap fail fast (`WouldBlock`) instead of
    /// queueing unboundedly behind a slow peer.
    pub max_inflight_per_conn: usize,
    /// Set `TCP_NODELAY` on pooled streams (small frames must not eat
    /// Nagle delay).
    pub nodelay: bool,
}

impl Default for ConnConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            idle_timeout: Duration::from_secs(30),
            max_inflight_per_conn: 64,
            nodelay: true,
        }
    }
}

/// Handles for the `conn.*` metrics family. Cloning shares the
/// underlying storage (same counters), like all registry handles.
#[derive(Debug, Clone)]
pub struct ConnMetrics {
    /// Real TCP connects performed.
    pub opened: Counter,
    /// Contacts served off an established stream.
    pub reused: Counter,
    /// Stale streams transparently replaced.
    pub stale_reconnects: Counter,
    /// Correlated replies with no waiting request.
    pub unknown_corr: Counter,
    /// Gauge: correlated RPCs currently in flight.
    pub inflight: Gauge,
}

impl ConnMetrics {
    /// Handles recording into `registry` under the shared `conn.*`
    /// names.
    pub fn in_registry(registry: &Registry) -> Self {
        Self {
            opened: registry.counter(names::CONN_OPENED),
            reused: registry.counter(names::CONN_REUSED),
            stale_reconnects: registry.counter(names::CONN_STALE_RECONNECTS),
            unknown_corr: registry.counter(names::CONN_UNKNOWN_CORR),
            inflight: registry.gauge(names::CONN_INFLIGHT),
        }
    }

    /// Detached handles (counted but invisible) for standalone pools.
    pub fn detached() -> Self {
        Self {
            opened: Counter::detached(),
            reused: Counter::detached(),
            stale_reconnects: Counter::detached(),
            unknown_corr: Counter::detached(),
            inflight: Gauge::detached(),
        }
    }
}

/// How a pooled RPC travelled, for the caller's accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RpcConnInfo {
    /// The request went out on an already-established stream.
    pub reused: bool,
    /// A stale pooled stream was detected and transparently replaced;
    /// the caller must not charge this against retries or health.
    pub stale_reconnect: bool,
    /// Wire bytes written for the request frame.
    pub bytes_out: u64,
    /// Wire bytes read for the reply frame.
    pub bytes_in: u64,
}

/// Is this error the *connection* failing (as an idle keep-alive stream
/// does when the far end quietly went away), as opposed to the peer
/// refusing, timing out, or talking garbage?
pub fn is_connection_level(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// State shared by every waiter on one multiplexed stream.
struct MuxState<T> {
    /// Waiting (`None`) or delivered-but-not-collected (`Some`) RPC
    /// slots, keyed by correlation id. A delivered slot holds the reply
    /// value plus its wire size.
    pending: HashMap<u64, Option<io::Result<(T, usize)>>>,
    /// Someone currently holds the reader lease.
    reader_active: bool,
}

/// One multiplexed stream shared by concurrent correlated RPCs.
struct MuxConn<T> {
    /// Socket for reads (`Read` is implemented for `&TcpStream`) and
    /// lifecycle control.
    stream: TcpStream,
    /// `try_clone` of the same socket for writes, under its own lock so
    /// a blocked reader never delays a sender.
    writer: Mutex<TcpStream>,
    state: Mutex<MuxState<T>>,
    reply_ready: Condvar,
    /// Once set, the stream is unusable; the pool replaces it.
    broken: AtomicBool,
    /// Did any RPC ever complete on this stream? A failure can only be
    /// blamed on *staleness* if the stream demonstrably worked before.
    used: AtomicBool,
    next_corr: AtomicU64,
    io_timeout: Duration,
    faults: Option<Arc<FaultInjector>>,
    metrics: ConnMetrics,
}

impl<T: DeserializeOwned> MuxConn<T> {
    fn new(
        stream: TcpStream,
        writer: TcpStream,
        io_timeout: Duration,
        faults: Option<Arc<FaultInjector>>,
        metrics: ConnMetrics,
    ) -> Self {
        Self {
            stream,
            writer: Mutex::new(writer),
            state: Mutex::new(MuxState {
                pending: HashMap::new(),
                reader_active: false,
            }),
            reply_ready: Condvar::new(),
            broken: AtomicBool::new(false),
            used: AtomicBool::new(false),
            next_corr: AtomicU64::new(1),
            io_timeout,
            faults,
            metrics,
        }
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }

    fn was_used(&self) -> bool {
        self.used.load(Ordering::SeqCst)
    }

    /// Mark the stream dead: fail every undelivered slot, unblock any
    /// reader stuck in the socket, wake all waiters. Idempotent.
    fn poison(&self, kind: io::ErrorKind, msg: &str) {
        self.broken.store(true, Ordering::SeqCst);
        {
            let mut st = self.state.lock();
            for slot in st.pending.values_mut() {
                if slot.is_none() {
                    *slot = Some(Err(io::Error::new(kind, msg.to_string())));
                }
            }
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.reply_ready.notify_all();
    }

    /// One correlated RPC: send the request, then wait for the matching
    /// reply — reading the stream ourselves whenever no other waiter
    /// holds the reader lease. `meta`, when present, rides the request
    /// frame's metadata header (deadline budget + priority class) for
    /// the server's admission gate. Returns the reply with its
    /// request/reply wire sizes.
    fn rpc<Q: Serialize + ?Sized>(
        &self,
        request: &Q,
        read_timeout: Duration,
        max_inflight: usize,
        meta: Option<FrameMeta>,
    ) -> io::Result<(T, usize, usize)> {
        if self.is_broken() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "pooled stream already failed",
            ));
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.state.lock();
            if st.pending.len() >= max_inflight {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "multiplexed stream at its in-flight cap",
                ));
            }
            st.pending.insert(corr, None);
        }
        self.metrics.inflight.add(1);
        let res = self.rpc_inner(corr, request, read_timeout, meta);
        self.metrics.inflight.add(-1);
        // Clear our slot on every exit path (timeout, error); a reply
        // that arrives after this is counted as unknown and dropped.
        self.state.lock().pending.remove(&corr);
        if res.is_ok() {
            self.used.store(true, Ordering::SeqCst);
        }
        res
    }

    fn rpc_inner<Q: Serialize + ?Sized>(
        &self,
        corr: u64,
        request: &Q,
        read_timeout: Duration,
        meta: Option<FrameMeta>,
    ) -> io::Result<(T, usize, usize)> {
        let bytes_out = {
            let mut w = self.writer.lock();
            let faults = self.faults.as_deref().map(|f| (f, Direction::Outbound));
            match wire::send_frame(&mut *w, Some(corr), meta, request, faults) {
                Ok(n) => n,
                Err(e) => {
                    let kind = e.kind();
                    drop(w);
                    self.poison(kind, "multiplexed write failed");
                    return Err(e);
                }
            }
        };
        let deadline = Instant::now() + read_timeout;
        loop {
            let take_lease = {
                let mut st = self.state.lock();
                if let Some(slot) = st.pending.get_mut(&corr) {
                    if slot.is_some() {
                        let got = slot.take().expect("just checked");
                        st.pending.remove(&corr);
                        return got.map(|(v, bytes_in)| (v, bytes_out, bytes_in));
                    }
                } else {
                    return Err(io::Error::other("rpc slot vanished"));
                }
                if self.is_broken() {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "pooled stream failed",
                    ));
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply within the read timeout",
                    ));
                }
                if st.reader_active {
                    // Someone else is draining the stream; nap until a
                    // delivery (or the poll interval) and re-check.
                    let wait = MUX_POLL.min(deadline.saturating_duration_since(Instant::now()));
                    let _ = self.reply_ready.wait_for(&mut st, wait);
                    false
                } else {
                    st.reader_active = true;
                    true
                }
            };
            if take_lease {
                let read = self.read_one();
                self.state.lock().reader_active = false;
                if let Err(e) = read {
                    // Fills our own slot too; the next iteration
                    // collects it.
                    self.poison(e.kind(), "multiplexed read failed");
                }
                self.reply_ready.notify_all();
            }
        }
    }

    /// One reader pass: poll for data with a short timeout (`peek` does
    /// not consume, so releasing the lease never strands half-read
    /// bytes), then read exactly one frame and deliver it to whichever
    /// waiter it belongs to. `Ok(())` covers both "nothing arrived" and
    /// "one frame delivered"; `Err` means the stream is unusable.
    fn read_one(&self) -> io::Result<()> {
        self.stream.set_read_timeout(Some(MUX_POLL))?;
        let mut probe = [0u8; 1];
        match self.stream.peek(&mut probe) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed pooled stream",
                ));
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        // A frame is arriving: switch to the full IO timeout so a
        // trickling sender is bounded but not starved mid-frame.
        self.stream.set_read_timeout(Some(self.io_timeout))?;
        if let Some(f) = &self.faults {
            f.delay(Direction::Outbound);
        }
        let Some((frame, _, wire_bytes)) = wire::read_any_frame_meta_sized::<T>(&mut &self.stream)?
        else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed pooled stream",
            ));
        };
        match frame {
            Frame::Correlated(id, value) => {
                let mut st = self.state.lock();
                match st.pending.get_mut(&id) {
                    Some(slot) if slot.is_none() => {
                        *slot = Some(Ok((value, wire_bytes)));
                    }
                    // Unknown id (late after a timeout, injected-stale)
                    // or a duplicate of a delivered reply: count it and
                    // keep draining — the framing itself is intact.
                    _ => self.metrics.unknown_corr.inc(),
                }
            }
            Frame::Bare(_) => {
                // An uncorrelated frame on a mux stream cannot be
                // routed to any waiter; drop it, same accounting.
                self.metrics.unknown_corr.inc();
            }
        }
        Ok(())
    }
}

/// The per-peer connection pool. See the [module docs](self).
pub struct ConnPool<T> {
    config: ConnConfig,
    io_timeout: Duration,
    faults: Option<Arc<FaultInjector>>,
    metrics: ConnMetrics,
    /// The one multiplexed stream per peer address, once established.
    peers: Mutex<HashMap<String, Arc<MuxConn<T>>>>,
}

impl<T: DeserializeOwned> ConnPool<T> {
    /// A pool connecting with `io_timeout` read/write deadlines,
    /// running outbound connects through `faults` when present.
    pub fn new(
        config: ConnConfig,
        io_timeout: Duration,
        faults: Option<Arc<FaultInjector>>,
        metrics: ConnMetrics,
    ) -> Self {
        Self {
            config,
            io_timeout,
            faults,
            metrics,
            peers: Mutex::new(HashMap::new()),
        }
    }

    /// The pool's metric handles (shared storage with any registry
    /// handles they were created from).
    pub fn metrics(&self) -> &ConnMetrics {
        &self.metrics
    }

    fn connect_raw(&self, addr: &str) -> io::Result<TcpStream> {
        if let Some(f) = &self.faults {
            f.admit(Direction::Outbound)?;
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        if self.config.nodelay {
            let _ = stream.set_nodelay(true);
        }
        self.metrics.opened.inc();
        Ok(stream)
    }

    /// The shared multiplexed stream for `addr`, creating or replacing
    /// a broken one. Second return: whether the stream pre-existed
    /// this call.
    fn mux(&self, addr: &str) -> io::Result<(Arc<MuxConn<T>>, bool)> {
        {
            let mut peers = self.peers.lock();
            if let Some(m) = peers.get(addr) {
                if !m.is_broken() {
                    return Ok((Arc::clone(m), true));
                }
                peers.remove(addr);
            }
        }
        // Slow path: connect without holding the map lock (an injected
        // admit delay must not stall contacts to other peers). If two
        // first-RPCs race, the one that lands in the map first wins and
        // the loser's socket is simply dropped.
        let stream = self.connect_raw(addr)?;
        let writer = stream.try_clone()?;
        let conn = Arc::new(MuxConn::new(
            stream,
            writer,
            self.io_timeout,
            self.faults.clone(),
            self.metrics.clone(),
        ));
        let mut peers = self.peers.lock();
        match peers.get(addr) {
            Some(existing) if !existing.is_broken() => Ok((Arc::clone(existing), true)),
            _ => {
                peers.insert(addr.to_string(), Arc::clone(&conn));
                Ok((conn, false))
            }
        }
    }

    /// One correlated RPC over the shared per-peer stream, with stale
    /// detection: a connection-level failure on a stream that worked
    /// before is absorbed by one transparent reconnect — the retry the
    /// pool takes here is it paying for its own keep-alive gamble, not
    /// a peer failure, so it is never charged to the caller's retry or
    /// health budgets.
    pub fn rpc<Q: Serialize + ?Sized>(
        &self,
        addr: &str,
        request: &Q,
        read_timeout: Duration,
    ) -> io::Result<(T, RpcConnInfo)> {
        self.rpc_with_meta(addr, request, read_timeout, None)
    }

    /// [`Self::rpc`] with request metadata: the frame carries `meta`'s
    /// deadline budget and priority class for the server's admission
    /// gate. `None` falls back to a plain correlated frame, readable by
    /// servers predating the metadata header.
    pub fn rpc_with_meta<Q: Serialize + ?Sized>(
        &self,
        addr: &str,
        request: &Q,
        read_timeout: Duration,
        meta: Option<FrameMeta>,
    ) -> io::Result<(T, RpcConnInfo)> {
        let (conn, pre_existing) = self.mux(addr)?;
        let stale_eligible = pre_existing && conn.was_used();
        match conn.rpc(
            request,
            read_timeout,
            self.config.max_inflight_per_conn,
            meta,
        ) {
            Ok((reply, bytes_out, bytes_in)) => {
                if pre_existing {
                    self.metrics.reused.inc();
                }
                Ok((
                    reply,
                    RpcConnInfo {
                        reused: pre_existing,
                        stale_reconnect: false,
                        bytes_out: bytes_out as u64,
                        bytes_in: bytes_in as u64,
                    },
                ))
            }
            Err(e) if stale_eligible && is_connection_level(&e) => {
                self.metrics.stale_reconnects.inc();
                self.drop_mux(addr, &conn);
                let (fresh, _) = self.mux(addr)?;
                let (reply, bytes_out, bytes_in) = fresh.rpc(
                    request,
                    read_timeout,
                    self.config.max_inflight_per_conn,
                    meta,
                )?;
                Ok((
                    reply,
                    RpcConnInfo {
                        reused: false,
                        stale_reconnect: true,
                        bytes_out: bytes_out as u64,
                        bytes_in: bytes_in as u64,
                    },
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// Remove `conn` from the pool if it is still the mapped mux for
    /// `addr` (another thread may already have replaced it).
    fn drop_mux(&self, addr: &str, conn: &Arc<MuxConn<T>>) {
        let mut peers = self.peers.lock();
        if peers.get(addr).is_some_and(|m| Arc::ptr_eq(m, conn)) {
            peers.remove(addr);
        }
    }

    /// Forget broken streams. Cheap; the gossip loop calls it every
    /// tick.
    pub fn reap(&self) {
        self.peers.lock().retain(|_, m| !m.is_broken());
    }

    /// Test hook: break the pooled stream to `addr` at the socket
    /// level *without removing it from the pool*, simulating a peer
    /// that silently dropped its keep-alives — the next use sees a
    /// stale stream. Returns how many streams were broken.
    pub fn debug_break(&self, addr: &str) -> usize {
        match self.peers.lock().get(addr) {
            Some(m) => {
                let _ = m.stream.shutdown(std::net::Shutdown::Both);
                1
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A single-threaded echo server: accepts one connection at a time,
    /// echoes every correlated frame under its own id, and goes back to
    /// accepting when the connection dies.
    fn echo_server(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                while let Ok(Some((Frame::Correlated(id, v), _, _))) =
                    wire::read_any_frame_meta_sized::<Vec<u32>>(&mut s)
                {
                    if wire::write_correlated_frame(&mut s, id, &v).is_err() {
                        break;
                    }
                }
            }
        })
    }

    fn pool(config: ConnConfig) -> (ConnPool<Vec<u32>>, ConnMetrics) {
        let metrics = ConnMetrics::detached();
        let p = ConnPool::new(config, Duration::from_secs(2), None, metrics.clone());
        (p, metrics)
    }

    #[test]
    fn mux_rpc_roundtrips_and_reuses_one_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = echo_server(listener);
        let (p, m) = pool(ConnConfig::default());
        let (reply, info) = p
            .rpc(&addr, &vec![1, 2, 3], Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply, vec![1, 2, 3]);
        assert!(!info.reused, "first RPC opens the stream");
        let (reply, info) = p.rpc(&addr, &vec![9], Duration::from_secs(2)).unwrap();
        assert_eq!(reply, vec![9]);
        assert!(info.reused, "second RPC shares the stream");
        assert_eq!(m.opened.get(), 1, "exactly one connect for both RPCs");
        assert_eq!(m.reused.get(), 1, "and one contact served off it");
        drop(p); // closes the stream; the server loop exits its accept
        drop(server);
    }

    #[test]
    fn mux_rpc_with_meta_reaches_a_meta_aware_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A meta-aware echo server: echoes the request under its id and
        // encodes the received metadata into the reply payload.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            while let Ok(Some((frame, meta, _))) =
                wire::read_any_frame_meta_sized::<Vec<u32>>(&mut s)
            {
                let Frame::Correlated(id, mut v) = frame else {
                    break;
                };
                if let Some(m) = meta {
                    v.push(m.deadline_ms.unwrap_or(0));
                    v.push(u32::from(m.priority.to_wire()));
                }
                if wire::write_correlated_frame(&mut s, id, &v).is_err() {
                    break;
                }
            }
        });
        let (p, _) = pool(ConnConfig::default());
        let meta = FrameMeta::with_deadline(wire::Priority::Interactive, 1_234);
        let (reply, _) = p
            .rpc_with_meta(&addr, &vec![7], Duration::from_secs(2), Some(meta))
            .unwrap();
        assert_eq!(reply, vec![7, 1_234, 0], "metadata arrived intact");
        // A meta-less RPC on the same stream stays a plain correlated
        // frame (no metadata echoed back).
        let (reply, _) = p.rpc(&addr, &vec![8], Duration::from_secs(2)).unwrap();
        assert_eq!(reply, vec![8]);
        drop(p);
        drop(server);
    }

    #[test]
    fn stale_mux_stream_reconnects_transparently_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = echo_server(listener);
        let (p, m) = pool(ConnConfig::default());
        let (reply, _) = p.rpc(&addr, &vec![5], Duration::from_secs(2)).unwrap();
        assert_eq!(reply, vec![5]);
        assert_eq!(p.debug_break(&addr), 1, "one mux stream to break");
        let (reply, info) = p.rpc(&addr, &vec![6], Duration::from_secs(2)).unwrap();
        assert_eq!(reply, vec![6], "RPC must survive the stale stream");
        assert!(
            info.stale_reconnect,
            "the pool must own up to the reconnect"
        );
        assert_eq!(m.stale_reconnects.get(), 1);
        assert_eq!(m.opened.get(), 2, "exactly one extra connect");
        drop(p);
        drop(server);
    }

    #[test]
    fn inflight_cap_fails_fast() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A server that reads but never replies: the first RPC parks in
        // flight until its timeout.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = wire::read_any_frame_meta_sized::<Vec<u32>>(&mut s);
            std::thread::sleep(Duration::from_millis(600));
        });
        let (p, _) = pool(ConnConfig {
            max_inflight_per_conn: 1,
            ..ConnConfig::default()
        });
        let p = Arc::new(p);
        let p2 = Arc::clone(&p);
        let addr2 = addr.clone();
        let first =
            std::thread::spawn(move || p2.rpc(&addr2, &vec![1], Duration::from_millis(400)));
        std::thread::sleep(Duration::from_millis(100));
        let err = p.rpc(&addr, &vec![2], Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "cap must fail fast");
        let err = first.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        server.join().unwrap();
    }
}
