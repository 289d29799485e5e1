//! Connection-pool behaviour under real sockets: the zero-connect
//! warm path, one stream per peer for gossip and search alike, a server
//! that never waits on a gossiping client, readers that idle streams
//! cannot delay and shutdown does not leave behind, the uncharged
//! stale-reconnect contract, the connect-per-request mode, and a soak
//! that mixes gossip and search load with ~20% connection faults while
//! watching process-level resource bounds.
//!
//! The thread and descriptor counts are the whole process's: those
//! assertions assume the tests run one at a time (`--test-threads=1`,
//! as CI runs this file).
//!
//! The acceptance claim for the pooled live wire lives here: a warm
//! repeated ranked search performs **zero** new TCP connects, proven
//! on the `conn.opened` counter — not inferred from latency.

use planetp::faults::{FaultInjector, FaultPlan, FaultRules};
use planetp::health::{HealthState, RetryPolicy};
use planetp::live::{FanoutConfig, LiveConfig, LiveNode};
use planetp::wire::{read_any_frame_meta_sized, write_frame};
use planetp::{ConnConfig, LiveMsg};
use planetp_gossip::{GossipConfig, Message};
use planetp_obs::names;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base_config(seed: u64, faults: Option<Arc<FaultInjector>>, conn: ConnConfig) -> LiveConfig {
    LiveConfig {
        gossip: GossipConfig {
            base_interval_ms: 40,
            max_interval_ms: 120,
            slowdown_ms: 20,
            ..GossipConfig::default()
        },
        io_timeout: Duration::from_secs(2),
        seed,
        retry: RetryPolicy {
            max_attempts: 2,
            base_delay_ms: 20,
            max_delay_ms: 100,
        },
        fanout: FanoutConfig {
            group_size: 3,
            contact_deadline: None,
            pool_threads: 4,
        },
        faults,
        conn,
        ..LiveConfig::default()
    }
}

fn wait_for(mut cond: impl FnMut() -> bool, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    cond()
}

/// Start `n` nodes, converge the directory, publish one corpus doc per
/// node, and converge again. Panics with diagnostics on failure.
fn community(n: u32, config: impl Fn(u32) -> LiveConfig) -> Vec<LiveNode> {
    let founder = LiveNode::start(0, config(0), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..n {
        nodes.push(LiveNode::start(id, config(id), Some(bootstrap.clone())).expect("node"));
    }
    assert!(
        wait_for(
            || nodes.iter().all(|nd| nd.directory_size() == n as usize),
            Duration::from_secs(60),
        ),
        "directories never reached size {n}: {:?}",
        nodes
            .iter()
            .map(|nd| nd.directory_size())
            .collect::<Vec<_>>()
    );
    for (i, nd) in nodes.iter().enumerate() {
        nd.publish(&format!("<doc><body>soak corpus entry {i}</body></doc>"))
            .unwrap();
    }
    assert!(
        wait_for(
            || {
                let d = nodes[0].directory_digest();
                nodes.iter().all(|nd| nd.directory_digest() == d)
            },
            Duration::from_secs(60),
        ),
        "directories never converged after publishes"
    );
    nodes
}

/// Live threads in this process, from `/proc/self/status` (Linux only;
/// `None` elsewhere, which skips the resource assertions).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Open file descriptors in this process, from `/proc/self/fd`.
fn fd_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// The acceptance criterion: once the pool reaches steady state, a
/// repeated ranked search opens **zero** new TCP connections — every
/// contact rides an existing multiplexed stream — while returning the
/// complete, correct result set every time.
#[test]
fn warm_ranked_search_opens_zero_connections() {
    const N: u32 = 8;
    // Idle timeout far beyond the test so the reaper cannot retire a
    // stream mid-measurement and force a reconnect we did not cause.
    let conn = ConnConfig {
        idle_timeout: Duration::from_secs(120),
        ..ConnConfig::default()
    };
    let nodes = community(N, |id| base_config(700 + u64::from(id), None, conn));
    let searcher = &nodes[0];
    let opened = |n: &LiveNode| n.metrics_snapshot().counter(names::CONN_OPENED);

    // Stabilize: background gossip and the first few searches are
    // allowed to populate the pool. Steady state = the opened counter
    // flat across three consecutive full searches.
    let mut last = opened(searcher);
    let mut flat = 0;
    let start = Instant::now();
    while flat < 3 && start.elapsed() < Duration::from_secs(30) {
        searcher.search_ranked("soak corpus", 50).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let now = opened(searcher);
        if now == last {
            flat += 1;
        } else {
            flat = 0;
            last = now;
        }
    }
    assert!(flat >= 3, "connection pool never reached steady state");

    // Measure: five warm searches, zero connects, full correct results.
    let before = searcher.metrics_snapshot();
    let (base_opened, base_reused) = (
        before.counter(names::CONN_OPENED),
        before.counter(names::CONN_REUSED),
    );
    for round in 0..5 {
        let r = searcher.search_ranked("soak corpus", 50).unwrap();
        assert_eq!(
            r.hits.len(),
            N as usize,
            "round {round}: expected one doc per peer: {:?}",
            r.coverage
        );
        assert!(r.coverage.is_complete(), "round {round}: {:?}", r.coverage);
        for h in &r.hits {
            assert!(
                h.xml.contains(&format!("soak corpus entry {}", h.peer)),
                "round {round}: hit from peer {} carries wrong doc: {}",
                h.peer,
                h.xml
            );
        }
    }
    let after = searcher.metrics_snapshot();
    assert_eq!(
        after.counter(names::CONN_OPENED),
        base_opened,
        "warm repeated ranked search opened new TCP connections"
    );
    assert!(
        after.counter(names::CONN_REUSED) > base_reused,
        "warm searches must ride reused pooled streams"
    );
}

/// Gossip and search share the peer's one stream: after a 4-node
/// community has converged and every node has run a ranked search that
/// reaches every other, no node has opened more than one connection per
/// peer.
#[test]
fn gossip_and_search_share_one_stream_per_peer() {
    const N: u32 = 4;
    let nodes = community(N, |id| {
        base_config(740 + u64::from(id), None, ConnConfig::default())
    });
    for n in &nodes {
        let r = n.search_ranked("soak corpus", 50).unwrap();
        assert_eq!(r.hits.len(), N as usize, "{:?}", r.coverage);
    }
    for n in &nodes {
        let opened = n.metrics_snapshot().counter(names::CONN_OPENED);
        assert!(
            opened <= u64::from(N - 1),
            "node {} opened {opened} connections to {} peers",
            n.id(),
            N - 1
        );
    }
}

/// One bare `StatsRequest` round trip on a raw client stream.
fn stats_round_trip(client: &mut TcpStream) -> Duration {
    let started = Instant::now();
    write_frame(client, &[LiveMsg::StatsRequest]).expect("request frame");
    let (reply, _, _) = read_any_frame_meta_sized::<Vec<LiveMsg>>(client)
        .expect("reply frame")
        .expect("the server answers a stats request");
    let took = started.elapsed();
    assert!(
        matches!(
            reply.into_value().as_slice(),
            [LiveMsg::StatsResponse { .. }]
        ),
        "a stats request is answered with the snapshot"
    );
    took
}

/// Every accepted stream has its own reader, so connections that say
/// nothing cost a busy one nothing: with 16 silent clients connected,
/// a 17th's requests are answered in the time the work takes. The
/// requests are spaced out so each one finds the server idle — the
/// case a scheduler that polls idle streams in turn answers slowest.
#[test]
fn idle_connections_do_not_delay_a_busy_one() {
    let node =
        LiveNode::start(0, base_config(770, None, ConnConfig::default()), None).expect("node");
    let idle: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(node.addr()).expect("idle client"))
        .collect();
    let mut busy = TcpStream::connect(node.addr()).expect("busy client");
    busy.set_nodelay(true).unwrap();
    busy.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

    let mut trips: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            stats_round_trip(&mut busy)
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median round trip {median:?} beside {} idle connections: {trips:?}",
        idle.len()
    );
}

/// Shutdown wakes readers parked in a read: with 8 clients connected
/// and silent it returns promptly, every client then sees the hang-up,
/// and no reader thread or accepted socket outlives it.
#[test]
fn shutdown_hangs_up_parked_readers() {
    let (base_threads, base_fds) = (thread_count(), fd_count());
    let mut node =
        LiveNode::start(0, base_config(780, None, ConnConfig::default()), None).expect("node");
    // One answered request each proves the stream was accepted and is
    // being read; from here on the clients say nothing.
    let mut clients: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut c = TcpStream::connect(node.addr()).expect("client");
            c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            stats_round_trip(&mut c);
            c
        })
        .collect();

    let started = Instant::now();
    node.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} on parked readers"
    );
    for (i, c) in clients.iter_mut().enumerate() {
        let mut byte = [0u8; 1];
        assert!(
            matches!(c.read(&mut byte), Ok(0)),
            "client {i} was not hung up by shutdown"
        );
    }
    drop(clients);
    drop(node);
    if let (Some(threads), Some(fds)) = (base_threads, base_fds) {
        assert!(
            wait_for(
                || thread_count().is_some_and(|t| t <= threads)
                    && fd_count().is_some_and(|f| f <= fds),
                Duration::from_secs(5),
            ),
            "shutdown left threads or descriptors behind: {:?} threads ({threads} at \
             start), {:?} descriptors ({fds} at start)",
            thread_count(),
            fd_count()
        );
    }
}

/// A gossip frame is a request with one reply, and the server owes its
/// sender nothing after it: a client that pushes a rumor, reads the
/// ack and then says nothing more holds nothing a real peer needs, so
/// a search RPC from one is answered right away — not after the silent
/// client's `io_timeout` runs out.
#[test]
fn silent_gossip_client_does_not_hold_the_server_worker() {
    const IO_TIMEOUT: Duration = Duration::from_secs(4);
    let config = |id: u32| LiveConfig {
        io_timeout: IO_TIMEOUT,
        ..base_config(750 + u64::from(id), None, ConnConfig::default())
    };
    let nodes = community(2, config);
    let (served, searcher) = (&nodes[0], &nodes[1]);

    let mut silent = TcpStream::connect(served.addr()).expect("connect");
    silent.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    let rumor = LiveMsg::Gossip {
        from: 99,
        msg: Message::Rumor { rumors: Vec::new() },
    };
    write_frame(&mut silent, &[rumor]).expect("rumor frame");
    let (ack, _, _) = read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut silent)
        .expect("ack frame")
        .expect("the server answers a rumor");
    assert!(
        matches!(
            ack.into_value().as_slice(),
            [LiveMsg::Gossip {
                msg: Message::RumorAck { .. },
                ..
            }]
        ),
        "a rumor is answered with its ack"
    );

    // The client now owes the conversation nothing and sends nothing.
    let started = Instant::now();
    let r = searcher.search_ranked("soak corpus", 10).unwrap();
    let took = started.elapsed();
    assert!(r.coverage.is_complete(), "{:?}", r.coverage);
    assert_eq!(r.hits.len(), 2, "one doc per node");
    assert!(
        took < IO_TIMEOUT / 4,
        "search waited {took:?} behind a silent gossip client"
    );
    drop(silent);
}

/// The connect-per-request mode (`conn.enabled = false`): every gossip
/// step and every RPC opens a stream, sends one bare frame, reads one
/// bare reply and hangs up — and a community run that way still
/// converges and answers a ranked search completely.
#[test]
fn unpooled_community_converges_and_searches() {
    const N: u32 = 3;
    let conn = ConnConfig {
        enabled: false,
        ..ConnConfig::default()
    };
    let nodes = community(N, |id| base_config(760 + u64::from(id), None, conn));
    let r = nodes[1].search_ranked("soak corpus", 50).unwrap();
    assert!(r.coverage.is_complete(), "{:?}", r.coverage);
    assert_eq!(r.hits.len(), N as usize, "one doc per node");
    let snap = nodes[1].metrics_snapshot();
    assert_eq!(
        snap.counter(names::CONN_OPENED),
        0,
        "no pool, no pooled connects"
    );
    assert!(
        snap.counter(names::NET_FRAMES_OUT) > 0,
        "contacts are still counted"
    );
}

/// Satellite (b), uncharged path: a pooled stream that went stale
/// behind the pool's back (peer-side socket teardown) is replaced by
/// one transparent reconnect. No retry is charged, no health failure
/// is recorded — the peer stays Healthy — but the stale reconnect is
/// visible in both the conn metrics and the peer's health entry.
#[test]
fn rpc_stale_pooled_connection_reconnects_uncharged() {
    let a =
        LiveNode::start(0, base_config(710, None, ConnConfig::default()), None).expect("founder");
    let bootstrap = (0u32, a.addr().to_string());
    let b = LiveNode::start(
        1,
        base_config(711, None, ConnConfig::default()),
        Some(bootstrap),
    )
    .expect("joiner");
    assert!(wait_for(
        || a.directory_size() == 2 && b.directory_size() == 2,
        Duration::from_secs(30),
    ));

    // Establish a pooled multiplexed stream to b, then note the charged
    // counters at that point.
    a.fetch_stats(1).expect("first stats fetch");
    let charged_before = a.stats();

    // Break every pooled stream to b at the socket level — the pool
    // still believes they are good.
    let broken = a.debug_break_pooled_conns(1);
    assert!(broken > 0, "expected at least one pooled stream to break");

    // The next RPC must succeed anyway: one transparent reconnect.
    a.fetch_stats(1)
        .expect("stats fetch over a stale pooled stream");

    let snap = a.metrics_snapshot();
    assert!(
        snap.counter(names::CONN_STALE_RECONNECTS) >= 1,
        "transparent reconnect must be visible in conn.stale_reconnects"
    );
    let charged = a.stats();
    assert_eq!(
        charged.rpc_retries, charged_before.rpc_retries,
        "stale pooled stream must not charge an RPC retry"
    );
    assert_eq!(
        charged.rpc_failures, charged_before.rpc_failures,
        "stale pooled stream must not charge an RPC failure"
    );
    let health = a.peer_health(1).expect("peer 1 has health history");
    assert_eq!(
        health.state,
        HealthState::Healthy,
        "stale pooled stream must not make the peer Suspect"
    );
    assert_eq!(
        health.consecutive_failures, 0,
        "stale pooled stream must not count as a contact failure"
    );
    assert!(
        health.stale_reconnects >= 1,
        "the reconnect should be recorded diagnostically on the peer"
    );
}

/// Satellite (b), charged path: a peer that is actually gone still
/// costs retries and walks health toward Suspect/Offline — the stale
/// grace applies to the *stream*, never to the peer.
#[test]
fn rpc_dead_peer_charges_retries_and_health() {
    let retry = RetryPolicy {
        max_attempts: 2,
        base_delay_ms: 10,
        max_delay_ms: 40,
    };
    let mk = |seed| LiveConfig {
        retry,
        ..base_config(seed, None, ConnConfig::default())
    };
    let a = LiveNode::start(0, mk(720), None).expect("founder");
    let bootstrap = (0u32, a.addr().to_string());
    let mut b = LiveNode::start(1, mk(721), Some(bootstrap)).expect("joiner");
    assert!(wait_for(
        || a.directory_size() == 2 && b.directory_size() == 2,
        Duration::from_secs(30),
    ));
    a.fetch_stats(1).expect("first stats fetch");
    let before = a.stats();

    // Kill b for real: its listener closes and its pooled streams die.
    b.shutdown();
    drop(b);

    a.fetch_stats(1).expect_err("dead peer cannot answer");
    let after = a.stats();
    assert!(
        after.rpc_retries > before.rpc_retries,
        "a dead peer must charge retries: {after:?}"
    );
    assert!(
        after.rpc_failures > before.rpc_failures,
        "a dead peer must charge an RPC failure: {after:?}"
    );
    let health = a.peer_health(1).expect("peer 1 has health history");
    assert_ne!(
        health.state,
        HealthState::Healthy,
        "a dead peer must not stay Healthy"
    );
    assert!(health.consecutive_failures >= 1, "failures must be counted");
}

/// Satellite (d): an 8-peer community under mixed gossip + search +
/// publish load with ~20% connection-level faults on every peer's
/// inbound path. For the soak window (default ~6 s locally,
/// `PLANETP_SOAK_SECS=30` in CI's release chaos job) the process must
/// keep threads and file descriptors bounded, keep opening connections
/// only in response to faults (reuse dominates), return corpus-correct
/// results, and release its descriptors at shutdown.
#[test]
fn soak_under_connection_faults_stays_bounded() {
    const N: u32 = 8;
    const POOL_THREADS: usize = 4;
    let soak_secs: u64 = std::env::var("PLANETP_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    let base_threads = thread_count();
    let base_fds = fd_count();

    let faulty = |seed: u64| {
        Some(Arc::new(FaultInjector::new(
            seed,
            FaultPlan {
                inbound: FaultRules {
                    refuse_connection: 0.15,
                    drop_mid_frame: 0.05,
                    drop_reply: 0.05,
                    stale_corr_id: 0.05,
                    ..FaultRules::default()
                },
                outbound: FaultRules::default(),
            },
        )))
    };
    let mut nodes = community(N, |id| {
        let mut c = base_config(
            730 + u64::from(id),
            faulty(930 + u64::from(id)),
            ConnConfig::default(),
        );
        c.io_timeout = Duration::from_secs(1);
        c.fanout.contact_deadline = Some(Duration::from_millis(700));
        c.fanout.pool_threads = POOL_THREADS;
        c
    });

    // Pre-soak pool counters: the soak asserts on deltas, so the cold
    // connects of bootstrap and convergence don't dilute the reuse
    // fraction we are actually claiming.
    let sum = |name: &str, nodes: &[LiveNode]| -> u64 {
        nodes
            .iter()
            .map(|n| n.metrics_snapshot().counter(name))
            .sum()
    };
    let opened_before = sum(names::CONN_OPENED, &nodes);
    let reused_before = sum(names::CONN_REUSED, &nodes);

    // Every live thread this harness is entitled to: listener + gossip
    // loop, one reader per peer, and the search fan-out pool per node,
    // plus slack for threads mid-spawn/mid-exit (a reader whose stream
    // a fault killed overlaps briefly with its replacement).
    let thread_bound =
        base_threads.map(|b| b + N as usize * (2 + (N as usize - 1) + POOL_THREADS) + 8);
    // Descriptor ceiling: listener + a bounded pool per peer pair, both
    // directions, with generous slack — the point is that a leak grows
    // past any constant, not the exact constant.
    let fd_bound = base_fds.map(|b| b + N as usize * 64);

    let deadline = Instant::now() + Duration::from_secs(soak_secs);
    let mut successes = 0usize;
    let mut iter = 0usize;
    let mut max_threads = 0usize;
    let mut max_fds = 0usize;
    while Instant::now() < deadline {
        let n = &nodes[iter % nodes.len()];
        if iter % 7 == 3 {
            // Publishes keep gossip busy with real filter updates; a
            // fault may sink one, which is fine.
            let _ = n.publish(&format!(
                "<doc><body>soak corpus extra {} {}</body></doc>",
                n.id(),
                iter
            ));
        }
        if let Ok(r) = n.search_ranked("soak corpus", 64) {
            if !r.hits.is_empty() {
                successes += 1;
            }
            for h in &r.hits {
                assert!(
                    (h.peer as usize) < nodes.len(),
                    "hit from unknown peer {}",
                    h.peer
                );
                assert!(
                    h.xml.contains("soak corpus"),
                    "corrupt hit survived framing faults: {}",
                    h.xml
                );
            }
        }
        if let Some(t) = thread_count() {
            max_threads = max_threads.max(t);
        }
        if let Some(f) = fd_count() {
            max_fds = max_fds.max(f);
        }
        iter += 1;
    }

    assert!(
        successes >= (soak_secs as usize / 2).max(3),
        "only {successes} searches returned hits over {soak_secs}s of soak"
    );
    if let Some(bound) = thread_bound {
        assert!(
            max_threads <= bound,
            "thread count leaked under faults: peak {max_threads}, bound {bound}"
        );
    }
    if let Some(bound) = fd_bound {
        assert!(
            max_fds <= bound,
            "file descriptors leaked under faults: peak {max_fds}, bound {bound}"
        );
    }

    // Reuse must dominate: connects during the soak happen only when a
    // fault killed a stream, while every healthy contact rides the
    // pool.
    let opened_delta = sum(names::CONN_OPENED, &nodes) - opened_before;
    let reused_delta = sum(names::CONN_REUSED, &nodes) - reused_before;
    assert!(reused_delta > 0, "soak never reused a pooled stream");
    let frac = reused_delta as f64 / (opened_delta + reused_delta) as f64;
    assert!(
        frac >= 0.5,
        "connection churn under faults: {opened_delta} opened vs {reused_delta} \
         reused ({frac:.2} reuse fraction)"
    );

    // Shutdown releases everything: descriptors return to (near) the
    // pre-community baseline — the ultimate no-leak check.
    for n in nodes.iter_mut() {
        n.shutdown();
    }
    drop(nodes);
    if let (Some(base), Some(_)) = (base_fds, fd_count()) {
        assert!(
            wait_for(
                || fd_count().is_some_and(|f| f <= base + 16),
                Duration::from_secs(10),
            ),
            "file descriptors not released after shutdown: {} now, {} at start",
            fd_count().unwrap_or(0),
            base
        );
    }
}
