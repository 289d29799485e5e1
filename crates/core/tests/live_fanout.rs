//! Parallel group fan-out under faults, and the directory-versioned
//! query cache, observed end to end through real sockets.
//!
//! The timing test injects *fault-clock* delays (deterministic sleeps in
//! the target's read path) rather than relying on scheduler luck: the
//! sequential walk has a hard injected-latency floor, the parallel walk
//! a hard deadline-derived ceiling, and the assertions compare those two
//! — wall-clock noise can only widen the gap, not flip it.

use planetp::faults::{FaultInjector, FaultPlan, FaultRules};
use planetp::health::RetryPolicy;
use planetp::live::{FanoutConfig, LiveConfig, LiveNode};
use planetp_gossip::GossipConfig;
use planetp_obs::names;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The straggler's injected delay per inbound operation.
const STRAGGLER_DELAY_MS: u64 = 500;
/// Every other peer's injected delay per inbound operation. One search
/// RPC crosses three delayed operations on the target (admit, request
/// read, reply write), so a contact costs ~3× this.
const PEER_DELAY_MS: u64 = 40;
/// Per-contact wall-clock budget for the fan-out.
const CONTACT_DEADLINE_MS: u64 = 200;

fn fanout_config(seed: u64, faults: Option<Arc<FaultInjector>>) -> LiveConfig {
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
            contact_deadline: Some(Duration::from_millis(CONTACT_DEADLINE_MS)),
            pool_threads: 4,
        },
        faults,
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

/// A delay-only injector: every inbound operation sleeps `ms`.
fn delayed(seed: u64, ms: u64) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::new(
        seed,
        FaultPlan {
            inbound: FaultRules {
                delay: 1.0,
                delay_ms: ms,
                ..FaultRules::default()
            },
            outbound: FaultRules::default(),
        },
    )))
}

/// Ten peers, every remote contact delayed, one delayed far past the
/// group deadline. The grouped walk must (a) beat the sequential walk,
/// whose injected floor is the *sum* of the slow contacts, (b) finish
/// under 2× the straggler's delay — i.e. the straggler cost its own
/// slot, not the whole query — and (c) return exactly the sequential
/// walk's results with the straggler accounted as failed, not silently
/// dropped.
#[test]
fn straggler_delays_its_slot_not_the_query() {
    const N: u32 = 10;
    const STRAGGLER: u32 = 5;
    let founder = LiveNode::start(0, fanout_config(90, None), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..N {
        let ms = if id == STRAGGLER {
            STRAGGLER_DELAY_MS
        } else {
            PEER_DELAY_MS
        };
        nodes.push(
            LiveNode::start(
                id,
                fanout_config(90 + u64::from(id), delayed(90 + u64::from(id), ms)),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }
    assert!(
        wait_for(
            || nodes.iter().all(|n| n.directory_size() == N as usize),
            Duration::from_secs(60),
        ),
        "directories never reached size {N}: {:?}",
        nodes.iter().map(|n| n.directory_size()).collect::<Vec<_>>()
    );
    for (i, n) in nodes.iter().enumerate() {
        n.publish(&format!("<doc><body>shared corpus entry {i}</body></doc>"))
            .unwrap();
    }
    assert!(
        wait_for(
            || {
                let d = nodes[0].directory_digest();
                nodes.iter().all(|n| n.directory_digest() == d)
            },
            Duration::from_secs(60),
        ),
        "directories never converged after publishes"
    );

    // Sequential baseline: group size 1 reproduces the old rank-order
    // walk, one contact at a time. Injected floor: 8 normal remotes at
    // ~3×PEER_DELAY_MS each, plus the straggler burning its full
    // deadline.
    let seq_started = Instant::now();
    let seq = nodes[0]
        .search_ranked_grouped("shared corpus", 50, 1)
        .unwrap();
    let seq_elapsed = seq_started.elapsed();

    // Grouped walk on the same node, same query (and now-warm cache).
    let par_started = Instant::now();
    let par = nodes[0]
        .search_ranked_grouped("shared corpus", 50, 3)
        .unwrap();
    let par_elapsed = par_started.elapsed();

    // (a) Parallelism must show: the sequential floor is
    // 8×3×PEER_DELAY_MS + CONTACT_DEADLINE ≈ 1160 ms of *injected*
    // latency, while the grouped walk's hard ceiling is
    // ceil(10/3) groups × CONTACT_DEADLINE = 800 ms.
    assert!(
        par_elapsed < seq_elapsed,
        "grouped fan-out ({par_elapsed:?}) did not beat sequential ({seq_elapsed:?})"
    );
    // (b) The straggler cost at most one group's deadline, not 500 ms
    // per group: 2×STRAGGLER_DELAY_MS = 1 s sits above the 800 ms
    // ceiling with margin for dispatch overhead.
    assert!(
        par_elapsed < Duration::from_millis(2 * STRAGGLER_DELAY_MS),
        "grouped query took {par_elapsed:?}, straggler serialized the groups"
    );

    // (c) Same results: every reachable peer's document, none from the
    // straggler, identical hits and scores in both walks.
    let ids =
        |r: &planetp::LiveSearchResult| r.hits.iter().map(|h| (h.peer, h.doc)).collect::<Vec<_>>();
    assert_eq!(ids(&seq), ids(&par), "grouped walk changed the result set");
    for (a, b) in seq.hits.iter().zip(&par.hits) {
        assert_eq!(a.score, b.score, "grouped walk changed a score");
    }
    assert_eq!(
        ids(&par).len(),
        (N - 1) as usize,
        "expected every peer's doc except the straggler's"
    );
    assert!(
        !par.hits.iter().any(|h| h.peer == STRAGGLER),
        "straggler cannot have answered within the deadline"
    );

    // Coverage owns up to the straggler in both walks: attempted but
    // failed (or, once its health walks to Offline, deliberately
    // skipped) — never silently missing.
    for (label, r) in [("sequential", &seq), ("parallel", &par)] {
        assert_eq!(
            r.coverage.peers_considered, N as usize,
            "{label}: all {N} filters are candidates"
        );
        assert_eq!(
            r.coverage.peers_contacted,
            (N - 1) as usize,
            "{label}: everyone but the straggler answers: {:?}",
            r.coverage
        );
        assert_eq!(
            r.coverage.peers_failed + r.coverage.peers_skipped,
            1,
            "{label}: the straggler must be accounted: {:?}",
            r.coverage
        );
    }

    // The fan-out showed up in the unified metrics: groups dispatched,
    // jobs through the shared pool, per-group latency recorded.
    let snap = nodes[0].metrics_snapshot();
    // Only groups that actually dispatched a remote contact count (a
    // group of purely local / skipped members records no sample). Of
    // the 10 sequential + 4 parallel groups, the local singleton never
    // counts and the straggler's singleton may be skipped once it is
    // backed off, as may the last parallel chunk: ≥ 8 + 3.
    assert!(
        snap.counter(names::SEARCH_GROUPS) >= 11,
        "at least 8 sequential + 3 parallel dispatched groups expected, saw {}",
        snap.counter(names::SEARCH_GROUPS)
    );
    assert!(
        snap.counter(names::POOL_JOBS) >= 16,
        "at least 8 remote contacts per walk go through the pool, saw {}",
        snap.counter(names::POOL_JOBS)
    );
    let fanout = snap
        .histogram(names::SEARCH_FANOUT_MS)
        .expect("fan-out histogram registered");
    assert!(
        fanout.count >= 4,
        "per-group timings recorded: {}",
        fanout.count
    );
}

/// Warm pooled searches must be Nagle-free: every live-runtime stream
/// sets `TCP_NODELAY`, so a small request frame goes out immediately
/// instead of waiting ~40 ms for a delayed-ACK/Nagle handshake on each
/// contact. With four fault-free peers a warm ranked search is a
/// handful of localhost round trips on already-open multiplexed
/// streams — single-digit milliseconds. The 150 ms median bound leaves
/// two orders of magnitude of scheduler slack while still failing hard
/// if Nagle's ~40 ms per contact ever sneaks back into the pooled
/// path.
#[test]
fn pooled_warm_search_latency_is_nagle_free() {
    let founder = LiveNode::start(0, fanout_config(160, None), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..4u32 {
        nodes.push(
            LiveNode::start(
                id,
                fanout_config(160 + u64::from(id), None),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }
    assert!(wait_for(
        || nodes.iter().all(|n| n.directory_size() == 4),
        Duration::from_secs(30),
    ));
    for (i, n) in nodes.iter().enumerate() {
        n.publish(&format!(
            "<doc><body>nodelay probe subject {i}</body></doc>"
        ))
        .unwrap();
    }
    assert!(wait_for(
        || {
            let d = nodes[0].directory_digest();
            nodes.iter().all(|n| n.directory_digest() == d)
        },
        Duration::from_secs(30),
    ));

    // Warm the pool and the query cache; these rounds may connect.
    for _ in 0..3 {
        let r = nodes[0].search_ranked("nodelay probe", 10).unwrap();
        assert_eq!(
            r.hits.len(),
            4,
            "warm-up search incomplete: {:?}",
            r.coverage
        );
    }

    // Measure: ten warm searches over pooled streams.
    let mut samples: Vec<Duration> = (0..10)
        .map(|_| {
            let started = Instant::now();
            let r = nodes[0].search_ranked("nodelay probe", 10).unwrap();
            assert!(
                r.coverage.is_complete(),
                "warm search lost a peer: {:?}",
                r.coverage
            );
            started.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(150),
        "warm pooled search median {median:?} — Nagle-scale latency is back \
         (samples: {samples:?})"
    );
}

/// The query cache across real gossip: a repeated query must not
/// re-probe any filter (misses flat, hits up — the IPF table comes out
/// of the cache), and a republish must invalidate exactly the bumped
/// peer's column (refreshes up, misses still flat) while the new
/// document becomes searchable.
#[test]
fn warm_cache_skips_probes_until_a_republish() {
    let founder = LiveNode::start(0, fanout_config(130, None), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..4u32 {
        nodes.push(
            LiveNode::start(
                id,
                fanout_config(130 + u64::from(id), None),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }
    assert!(wait_for(
        || nodes.iter().all(|n| n.directory_size() == 4),
        Duration::from_secs(30),
    ));
    for (i, n) in nodes.iter().enumerate() {
        n.publish(&format!("<doc><body>cached subject {i}</body></doc>"))
            .unwrap();
    }
    assert!(wait_for(
        || {
            let d = nodes[0].directory_digest();
            nodes.iter().all(|n| n.directory_digest() == d)
        },
        Duration::from_secs(30),
    ));

    // Cold query: terms are probed against every filter once.
    let cold = nodes[0].search_ranked("cached subject", 10).unwrap();
    assert_eq!(cold.hits.len(), 4, "one doc per peer");
    let s1 = nodes[0].metrics_snapshot();
    let cold_misses = s1.counter(names::SEARCH_CACHE_MISSES);
    assert!(cold_misses >= 1, "cold query must probe");
    assert!(
        s1.counter(names::SEARCH_CACHE_REBUILDS) >= 1,
        "initial population"
    );

    // Warm query: the whole plan (IPF + ranking) comes from the cache —
    // zero new probes, only hits move.
    let warm = nodes[0].search_ranked("cached subject", 10).unwrap();
    let s2 = nodes[0].metrics_snapshot();
    assert_eq!(
        s2.counter(names::SEARCH_CACHE_MISSES),
        cold_misses,
        "warm query re-probed filters (IPF was recomputed)"
    );
    assert!(
        s2.counter(names::SEARCH_CACHE_HITS) > s1.counter(names::SEARCH_CACHE_HITS),
        "warm query did not hit the cache"
    );
    assert_eq!(
        cold.hits
            .iter()
            .map(|h| (h.peer, h.doc))
            .collect::<Vec<_>>(),
        warm.hits
            .iter()
            .map(|h| (h.peer, h.doc))
            .collect::<Vec<_>>(),
        "cached plan changed the results"
    );

    // Peer 2 republishes: its gossiped version advances, so the next
    // query that sees the new directory state re-probes exactly that
    // peer's column — terms stay cached, misses stay flat.
    let stale_digest = nodes[0].directory_digest();
    let fresh_doc = nodes[2]
        .publish("<doc><body>cached subject freshly republished</body></doc>")
        .unwrap();
    // Peer 2 was already a candidate for these terms, so the new
    // document is searchable at once — before gossip has delivered the
    // version bump this test is about. Wait for the bump itself.
    assert!(
        wait_for(
            || nodes[0].directory_digest() != stale_digest,
            Duration::from_secs(30),
        ),
        "the republish never reached the searcher's directory"
    );
    assert!(
        wait_for(
            || {
                let r = nodes[0].search_ranked("cached subject", 10).unwrap();
                r.hits.iter().any(|h| h.peer == 2 && h.doc == fresh_doc)
            },
            Duration::from_secs(30),
        ),
        "republished document never became searchable"
    );
    let s3 = nodes[0].metrics_snapshot();
    assert_eq!(
        s3.counter(names::SEARCH_CACHE_MISSES),
        cold_misses,
        "republish must not evict cached terms"
    );
    assert!(
        s3.counter(names::SEARCH_CACHE_PEER_REFRESHES) >= 1,
        "version bump must re-probe the republishing peer's column"
    );
    assert_eq!(
        s3.counter(names::SEARCH_CACHE_REBUILDS),
        s1.counter(names::SEARCH_CACHE_REBUILDS),
        "stable membership must never rebuild"
    );
}
