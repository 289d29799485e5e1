//! The live runtime under injected faults: connections refused, frames
//! dropped mid-write — the socket-level analog of the paper's churn
//! experiments (§6.3). The community must still converge, searches must
//! still return the surviving peers' hits, and coverage summaries must
//! account for every peer that did not answer.
//!
//! Determinism: every fault decision comes from each node's seeded
//! injector, and all retry/backoff jitter is hash-derived, so this test
//! is required to pass 20 runs in a row before a change ships (run
//! `cargo test --test live_faults` in a loop; CI runs it once per push).

use planetp::faults::{FaultInjector, FaultPlan, FaultRules};
use planetp::health::{HealthConfig, RetryPolicy};
use planetp::live::{LiveConfig, LiveNode};
use planetp_gossip::GossipConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn faulty_config(seed: u64, faults: Option<Arc<FaultInjector>>) -> LiveConfig {
    LiveConfig {
        gossip: GossipConfig {
            base_interval_ms: 40,
            max_interval_ms: 120,
            slowdown_ms: 20,
            ..GossipConfig::default()
        },
        io_timeout: Duration::from_millis(500),
        seed,
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 30,
            max_delay_ms: 200,
        },
        health: HealthConfig {
            base_backoff_ms: 200,
            max_backoff_ms: 2_000,
            ..HealthConfig::default()
        },
        fanout: planetp::FanoutConfig::default(),
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

/// ~30% of contacts are disrupted (refusals on both sides plus
/// mid-frame drops), yet the directory converges, ranked search still
/// surfaces every surviving peer's documents, and the coverage summary
/// owns up to whatever was missed.
#[test]
fn community_converges_and_searches_under_faults() {
    let plan = FaultPlan {
        outbound: FaultRules {
            refuse_connection: 0.2,
            drop_mid_frame: 0.1,
            ..FaultRules::default()
        },
        inbound: FaultRules {
            refuse_connection: 0.1,
            ..FaultRules::default()
        },
    };
    let injectors: Vec<Arc<FaultInjector>> = (0..5)
        .map(|id| Arc::new(FaultInjector::new(7 + id, plan)))
        .collect();

    let founder = LiveNode::start(0, faulty_config(7, Some(Arc::clone(&injectors[0]))), None)
        .expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..5u32 {
        nodes.push(
            LiveNode::start(
                id,
                faulty_config(7 + u64::from(id), Some(Arc::clone(&injectors[id as usize]))),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }

    // Membership must converge despite the fault rate: retries absorb
    // transient refusals, and gossip's redundancy covers the rest.
    assert!(
        wait_for(
            || nodes.iter().all(|n| n.directory_size() == 5),
            Duration::from_secs(60),
        ),
        "directories never reached size 5 under faults: {:?}",
        nodes.iter().map(|n| n.directory_size()).collect::<Vec<_>>()
    );

    nodes[1]
        .publish("<doc><title>Resilient gossip</title><body>faulty links tolerated</body></doc>")
        .unwrap();
    nodes[3]
        .publish("<doc><title>Backoff</title><body>faulty peers retried with backoff</body></doc>")
        .unwrap();

    assert!(
        wait_for(
            || {
                let d = nodes[0].directory_digest();
                nodes.iter().all(|n| n.directory_digest() == d)
            },
            Duration::from_secs(60),
        ),
        "directories never converged after publishes under faults"
    );

    // Ranked search keeps draining the rank order past failed contacts,
    // so both publishers' documents must eventually surface. Individual
    // attempts can lose peers to injected refusals that outlast the
    // retry budget, so poll: some attempt within the window finds both.
    let found_both = wait_for(
        || {
            let r = nodes[0].search_ranked("faulty", 10).unwrap();
            let owners: Vec<u32> = r.hits.iter().map(|h| h.peer).collect();
            owners.contains(&1) && owners.contains(&3)
        },
        Duration::from_secs(60),
    );
    assert!(
        found_both,
        "ranked search never surfaced both surviving peers' hits"
    );

    // Coverage bookkeeping must balance exactly, whatever happened.
    let r = nodes[0].search_ranked("faulty", 10).unwrap();
    let c = r.coverage;
    assert_eq!(c.peers_considered, 5, "all five filters are candidates");
    assert!(
        c.peers_attempted() <= c.peers_considered,
        "cannot attempt more peers than exist: {c:?}"
    );
    assert!(
        c.peers_contacted >= 1,
        "at least the local store answers: {c:?}"
    );
    let f = c.coverage_fraction();
    assert!(f > 0.0 && f <= 1.0, "coverage fraction out of range: {f}");

    // The injectors actually did something, or this test proves nothing.
    let injected: u64 = injectors.iter().map(|i| i.stats().total()).sum();
    assert!(injected > 0, "no faults were injected");

    // Failure handling showed up in the node-level counters: with a
    // 20-30% disruption rate something must have been retried.
    let retried: u64 = nodes
        .iter()
        .map(|n| {
            let s = n.stats();
            s.gossip_retries + s.rpc_retries + s.gossip_failures + s.rpc_failures
        })
        .sum();
    assert!(retried > 0, "fault handling never engaged");
}

/// With no fault injector but a genuinely dead peer, searches return
/// the survivors' hits and the coverage summary reports the dead peer
/// instead of pretending the result set is complete.
#[test]
fn coverage_reports_dead_peers() {
    let founder = LiveNode::start(0, faulty_config(40, None), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..4u32 {
        nodes.push(
            LiveNode::start(
                id,
                faulty_config(40 + u64::from(id), None),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }
    assert!(wait_for(
        || nodes.iter().all(|n| n.directory_size() == 4),
        Duration::from_secs(30),
    ));
    // One text per peer: byte-identical documents share a content hash
    // and a ranked search dedupes them to one hit.
    for (i, n) in nodes.iter().enumerate().skip(1) {
        n.publish(&format!("<d>shared subject matter volume{i}</d>"))
            .unwrap();
    }
    assert!(wait_for(
        || {
            let d = nodes[0].directory_digest();
            nodes.iter().all(|n| n.directory_digest() == d)
        },
        Duration::from_secs(30),
    ));

    // Kill node 3; its filter still matches, so search must attempt it,
    // fail after bounded retries, and say so.
    let dead = nodes.pop().expect("node 3");
    drop(dead);

    let r = nodes[0].search_ranked("shared subject", 10).unwrap();
    let owners: Vec<u32> = r.hits.iter().map(|h| h.peer).collect();
    assert!(
        owners.contains(&1) && owners.contains(&2),
        "survivors missing: {owners:?}"
    );
    assert!(!owners.contains(&3), "dead peer's docs returned");
    assert!(
        r.coverage.peers_failed + r.coverage.peers_skipped >= 1,
        "dead peer must show up in coverage: {:?}",
        r.coverage
    );
    assert!(r.coverage.coverage_fraction() < 1.0);

    // Repeated failures walk the peer to Offline and into the gossip
    // directory's offline marking. The exhausted contact may come from
    // a search RPC or from the background gossip loop, whichever got to
    // the dead peer first.
    let _ = nodes[0].search_ranked("shared subject", 10).unwrap();
    let _ = nodes[0].search_ranked("shared subject", 10).unwrap();
    let s = nodes[0].stats();
    assert!(
        s.rpc_failures + s.gossip_failures + s.contacts_skipped >= 1,
        "retry-exhausted contact not counted: {s:?}"
    );
    assert!(
        nodes[0]
            .peer_health(3)
            .is_some_and(|e| e.consecutive_failures >= 1),
        "health table never recorded the dead peer"
    );
}
