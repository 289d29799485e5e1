//! Adversarial tests of the live wire framing through its one reader:
//! hostile length prefixes (with the allocation they may force
//! *measured*), connections dying mid-frame, pathological readers, the
//! multiplexed correlated framing under out-of-order and misrouted
//! replies — and the `GetStats` messages riding that framing intact.
//! The shape × malformation table lives beside the codec
//! (`wire::tests::every_shape_through_the_one_reader`).

use planetp::wire::{
    read_any_frame_meta_sized, write_correlated_frame, write_frame, write_meta_frame, Frame,
    FrameMeta, Priority, MAX_FRAME_BYTES,
};
use planetp::{ConnConfig, ConnMetrics, ConnPool, LiveMsg, MetricsSnapshot, Registry};
use planetp_obs::names;
use serde::de::DeserializeOwned;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Largest single allocation this thread has asked for.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request per thread — so
/// "never pre-allocates the claimed length" is an assertion, not a
/// comment.
struct NotingAlloc;

impl NotingAlloc {
    fn note(size: usize) {
        let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; noting the size touches only a
// const-initialised, destructor-free thread-local `Cell` and allocates
// nothing.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

/// The next frame's payload; `None` on clean EOF.
fn read_value<T: DeserializeOwned>(r: &mut impl Read) -> Option<T> {
    let got = read_any_frame_meta_sized(r).unwrap();
    got.map(|(frame, _, _)| frame.into_value())
}

/// One small frame of each header shape, in header-length order.
fn one_of_each() -> [Vec<u8>; 3] {
    let mut frames = [Vec::new(), Vec::new(), Vec::new()];
    write_frame(&mut frames[0], &vec![1u32]).unwrap();
    write_correlated_frame(&mut frames[1], 9, &vec![2u32]).unwrap();
    let meta = FrameMeta::with_deadline(Priority::Control, 777);
    write_meta_frame(&mut frames[2], 10, meta, &vec![3u32]).unwrap();
    frames
}

/// A reader that doles out at most one byte per call and reports
/// `Interrupted` before every other byte — the worst legal behaviour a
/// socket can exhibit short of failing.
struct TricklingReader<'a> {
    data: &'a [u8],
    pos: usize,
    interrupt_next: bool,
}

impl<'a> TricklingReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            interrupt_next: true,
        }
    }
}

impl Read for TricklingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.interrupt_next && self.pos < self.data.len() {
            self.interrupt_next = false;
            return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
        }
        self.interrupt_next = true;
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

#[test]
fn prefix_beyond_max_is_invalid_data() {
    // Whatever the flag bits say, the masked length is what is bounded.
    for flags in [0u32, 1 << 31, 3 << 30] {
        for claimed in [MAX_FRAME_BYTES as u32 + 1, (1 << 30) - 1] {
            let mut buf = (flags | claimed).to_be_bytes().to_vec();
            // Follow the lying prefix with some bytes so the failure
            // cannot be blamed on EOF.
            buf.extend_from_slice(&[0u8; 32]);
            let err = read_any_frame_meta_sized::<Vec<u32>>(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "claimed {claimed}");
        }
    }
}

#[test]
fn huge_prefix_with_tiny_body_fails_at_eof_not_at_alloc() {
    // Each shape's header claiming 63 MiB (inside the limit, so the
    // size check passes), then three bytes, then a hangup. The reader
    // must buffer only what arrived and report the truncation.
    for frame in one_of_each() {
        let header = frame.len() - 3; // the bodies are "[1]", "[2]", "[3]"
        let flags = u32::from(frame[0] & 0xC0) << 24;
        let mut buf = frame[..header].to_vec();
        buf[..4].copy_from_slice(&(flags | (63 << 20)).to_be_bytes());
        buf.extend_from_slice(b"[1,");
        LARGEST_ALLOC.with(|c| c.set(0));
        let err = read_any_frame_meta_sized::<Vec<u32>>(&mut buf.as_slice()).unwrap_err();
        let largest = LARGEST_ALLOC.with(Cell::get);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            largest <= 1 << 20,
            "allocated {largest} B for a 3-byte body"
        );
    }
}

#[test]
fn zero_length_frame_is_rejected_not_eof() {
    // A 0-length frame is a complete frame whose body fails to parse:
    // InvalidData, not a clean EOF and not a truncation.
    let buf = 0u32.to_be_bytes();
    let err = read_any_frame_meta_sized::<Vec<u32>>(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn death_inside_the_length_prefix_is_an_error() {
    // Clean EOF at a frame boundary is None...
    assert!(read_any_frame_meta_sized::<Vec<u32>>(&mut io::empty())
        .unwrap()
        .is_none());
    // ...but dying after 1-3 prefix bytes is a truncation.
    for cut in 1..4usize {
        let buf = 8u32.to_be_bytes();
        let err = read_any_frame_meta_sized::<Vec<u32>>(&mut &buf[..cut]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

#[test]
fn trickling_interrupted_reads_deliver_every_shape_on_one_stream() {
    // All three shapes back to back, arriving one byte at a time with
    // an Interrupted before every byte: headers of 4, 12 and 17 bytes
    // must reassemble exactly, and reader and writer agree on sizes.
    let frames = one_of_each();
    let wire = frames.concat();
    let mut r = TricklingReader::new(&wire);
    let expected = [
        (Frame::Bare(vec![1u32]), None),
        (Frame::Correlated(9, vec![2]), None),
        (
            Frame::Correlated(10, vec![3]),
            Some(FrameMeta::with_deadline(Priority::Control, 777)),
        ),
    ];
    for ((frame, meta), written) in expected.into_iter().zip(&frames) {
        let got = read_any_frame_meta_sized::<Vec<u32>>(&mut r)
            .unwrap()
            .expect("one frame");
        assert_eq!(got, (frame, meta, written.len()));
    }
    assert!(
        read_any_frame_meta_sized::<Vec<u32>>(&mut r)
            .unwrap()
            .is_none(),
        "clean EOF"
    );
}

#[test]
fn get_stats_messages_round_trip() {
    // Build a snapshot with one of each metric kind, exactly as a node
    // would serve it over the GetStats RPC.
    let registry = Registry::new();
    registry.counter(names::GOSSIP_ROUNDS).add(42);
    registry.gauge("gossip.directory_size").set(6);
    let h = registry.histogram(names::RPC_LATENCY_MS, planetp_obs::LATENCY_MS_BUCKETS);
    h.observe(3);
    h.observe(480);
    let snapshot = registry.snapshot();

    // The runtime frames message *batches*; a stats exchange is a
    // request batch one way and a response batch back.
    let mut wire = Vec::new();
    write_frame(&mut wire, &[LiveMsg::StatsRequest]).unwrap();
    write_frame(
        &mut wire,
        &[LiveMsg::StatsResponse {
            snapshot: snapshot.clone(),
        }],
    )
    .unwrap();

    let mut r = wire.as_slice();
    let request: Vec<LiveMsg> = read_value(&mut r).expect("request batch");
    assert!(
        matches!(request.as_slice(), [LiveMsg::StatsRequest]),
        "request decoded as {request:?}"
    );
    let response: Vec<LiveMsg> = read_value(&mut r).expect("response batch");
    match response.as_slice() {
        [LiveMsg::StatsResponse { snapshot: got }] => {
            assert_eq!(got, &snapshot, "snapshot changed on the wire");
            assert_eq!(got.counter(names::GOSSIP_ROUNDS), 42);
            assert_eq!(got.gauge("gossip.directory_size"), 6);
            let h = got
                .histogram(names::RPC_LATENCY_MS)
                .expect("histogram kept");
            assert_eq!(h.count, 2);
            assert_eq!(h.sum, 483);
        }
        other => panic!("response decoded as {other:?}"),
    }
    assert!(read_value::<Vec<LiveMsg>>(&mut r).is_none());

    // And the snapshot itself survives its own JSON pretty-print cycle
    // (what `planetp stats --json` emits).
    let reparsed = MetricsSnapshot::from_json(&snapshot.to_json()).unwrap();
    assert_eq!(reparsed, snapshot);
}

/// A pool over a scripted server for the multiplexing tests; returns
/// the pool, shared metric handles, and the target address.
fn mux_pool(listener: &TcpListener) -> (Arc<ConnPool<Vec<u32>>>, ConnMetrics, String) {
    let addr = listener.local_addr().unwrap().to_string();
    let metrics = ConnMetrics::detached();
    let pool = Arc::new(ConnPool::new(
        ConnConfig::default(),
        Duration::from_secs(2),
        None,
        metrics.clone(),
    ));
    (pool, metrics, addr)
}

#[test]
fn mux_delivers_out_of_order_replies_to_the_right_callers() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (pool, metrics, addr) = mux_pool(&listener);
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Priming RPC: echo it, so the clients' shared stream exists
        // before the concurrent callers start.
        let Some((Frame::Correlated(id, v), _, _)) =
            read_any_frame_meta_sized::<Vec<u32>>(&mut s).unwrap()
        else {
            panic!("expected the priming request")
        };
        write_correlated_frame(&mut s, id, &v).unwrap();
        // Read both concurrent requests, then answer them in REVERSE
        // arrival order: the second caller's reply lands first.
        let mut reqs = Vec::new();
        for _ in 0..2 {
            let Some((Frame::Correlated(id, v), _, _)) =
                read_any_frame_meta_sized::<Vec<u32>>(&mut s).unwrap()
            else {
                panic!("expected a correlated request")
            };
            reqs.push((id, v));
        }
        for (id, v) in reqs.into_iter().rev() {
            write_correlated_frame(&mut s, id, &v).unwrap();
        }
        // Hold the connection open until the clients are done.
        std::thread::sleep(Duration::from_millis(300));
    });
    let (reply, _) = pool.rpc(&addr, &vec![0], Duration::from_secs(2)).unwrap();
    assert_eq!(reply, vec![0], "priming echo");
    let mut callers = Vec::new();
    for payload in [1u32, 2] {
        let pool = Arc::clone(&pool);
        let addr = addr.clone();
        callers.push(std::thread::spawn(move || {
            let (reply, info) = pool
                .rpc(&addr, &vec![payload], Duration::from_secs(2))
                .unwrap();
            (payload, reply, info.reused)
        }));
    }
    for c in callers {
        let (payload, reply, reused) = c.join().unwrap();
        assert_eq!(
            reply,
            vec![payload],
            "caller {payload} must get its own reply despite reversal"
        );
        assert!(reused, "both callers share the primed stream");
    }
    assert_eq!(metrics.opened.get(), 1, "three RPCs, one TCP connect");
    assert_eq!(
        metrics.unknown_corr.get(),
        0,
        "every reply found its waiter"
    );
    drop(pool);
    server.join().unwrap();
}

#[test]
fn mux_skips_unknown_duplicate_and_bare_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (pool, metrics, addr) = mux_pool(&listener);
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let Some((Frame::Correlated(id, v), _, _)) =
            read_any_frame_meta_sized::<Vec<u32>>(&mut s).unwrap()
        else {
            panic!("expected first request")
        };
        // A reply under a bogus id, a bare (uncorrelated) frame, the
        // real reply, then a duplicate of it.
        write_correlated_frame(&mut s, id ^ 0xdead_beef, &v).unwrap();
        write_frame(&mut s, &vec![99u32]).unwrap();
        write_correlated_frame(&mut s, id, &v).unwrap();
        write_correlated_frame(&mut s, id, &v).unwrap();
        // Second RPC served straight so the client drains the garbage.
        let Some((Frame::Correlated(id, v), _, _)) =
            read_any_frame_meta_sized::<Vec<u32>>(&mut s).unwrap()
        else {
            panic!("expected second request")
        };
        write_correlated_frame(&mut s, id, &v).unwrap();
        std::thread::sleep(Duration::from_millis(300));
    });
    let (reply, _) = pool.rpc(&addr, &vec![5], Duration::from_secs(2)).unwrap();
    assert_eq!(reply, vec![5], "real reply survives the garbage around it");
    let (reply, info) = pool.rpc(&addr, &vec![6], Duration::from_secs(2)).unwrap();
    assert_eq!(reply, vec![6]);
    assert!(info.reused, "misrouted frames must not burn the stream");
    // Bogus id + bare frame (during rpc 1) + duplicate (drained
    // during rpc 2, whose slot was already gone): all counted, none
    // fatal.
    assert_eq!(metrics.unknown_corr.get(), 3);
    assert_eq!(metrics.opened.get(), 1);
    drop(pool);
    server.join().unwrap();
}
