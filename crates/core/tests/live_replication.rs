//! Autonomous replication end-to-end (DESIGN.md §15): a live
//! community with replication enabled pushes copies of published
//! documents to well-available peers, and when a document's home peer
//! crashes, ranked and exhaustive search keep answering from the
//! replicas — deduplicated by content hash, with the recovery visible
//! in `SearchCoverage::recovered_via_replicas`.

use planetp::live::{LiveConfig, LiveHit, LiveNode};
use planetp::{content_hash, Community, DurableConfig, PublishOptions, ReplicaConfig};
use planetp_gossip::GossipConfig;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn replica_config(seed: u64) -> LiveConfig {
    LiveConfig {
        gossip: GossipConfig {
            base_interval_ms: 40,
            max_interval_ms: 120,
            slowdown_ms: 20,
            ..GossipConfig::default()
        },
        io_timeout: Duration::from_millis(500),
        seed,
        replica: ReplicaConfig {
            interval_ms: 60,
            decay_interval_ms: 2_000,
            ..ReplicaConfig::enabled()
        },
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

fn hosted_replicas(nodes: &[LiveNode]) -> usize {
    nodes
        .iter()
        .filter_map(|n| n.replica_hosted())
        .map(|(c, _)| c)
        .sum()
}

fn assert_unique_hashes(hits: &[LiveHit]) {
    let mut seen = HashSet::new();
    for h in hits {
        assert!(
            seen.insert(h.hash),
            "duplicate content hash {:#x} in results: {hits:?}",
            h.hash
        );
    }
}

/// Fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "planetp-replication-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The acceptance scenario: a 6-peer community replicates a crashing
/// member's documents, and both search modes keep finding them —
/// once each — after the home is gone.
#[test]
fn six_peer_community_recovers_offline_content_via_replicas() {
    let founder = LiveNode::start(0, replica_config(900), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..6 {
        nodes.push(
            LiveNode::start(
                id,
                replica_config(900 + u64::from(id)),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }
    assert!(wait_for(
        || nodes.iter().all(|n| n.directory_size() == 6),
        Duration::from_secs(30),
    ));

    let doomed_xml = "<d>epidemic dissemination survives the home crash</d>";
    let doomed_hash = content_hash(doomed_xml);
    nodes[5].publish(doomed_xml).unwrap();
    nodes[5]
        .publish("<d>directory gossip carries replica ads</d>")
        .unwrap();
    nodes[1]
        .publish("<d>stable content on a surviving peer</d>")
        .unwrap();

    // Replication runs off the gossip loop: node 5's two documents
    // must land on at least one surviving host each.
    assert!(
        wait_for(
            || hosted_replicas(&nodes[..5]) >= 2,
            Duration::from_secs(30),
        ),
        "documents were never replicated off their home"
    );

    // With the home still alive, home copy and replica both answer:
    // dedup must collapse them to one hit per content hash.
    assert!(wait_for(
        || {
            let r = nodes[0]
                .search_ranked("epidemic dissemination", 10)
                .unwrap();
            assert_unique_hashes(&r.hits);
            r.hits.iter().any(|h| h.hash == doomed_hash)
        },
        Duration::from_secs(30),
    ));

    // Crash the home (drop closes its listener and stops its threads).
    let dead = nodes.pop().expect("node 5");
    drop(dead);

    // Ranked search still answers from a replica, says so in coverage,
    // and never returns the same content twice.
    assert!(
        wait_for(
            || {
                let r = nodes[0]
                    .search_ranked("epidemic dissemination", 10)
                    .unwrap();
                assert_unique_hashes(&r.hits);
                let recovered = r
                    .hits
                    .iter()
                    .any(|h| h.hash == doomed_hash && matches!(h.replica_of, Some((5, _))));
                recovered && r.coverage.recovered_via_replicas >= 1
            },
            Duration::from_secs(30),
        ),
        "ranked search lost the crashed peer's document"
    );

    // Exhaustive search recovers it too.
    assert!(
        wait_for(
            || {
                let r = nodes[2].search_exhaustive("dissemination").unwrap();
                assert_unique_hashes(&r.hits);
                r.hits.iter().any(|h| h.hash == doomed_hash)
                    && r.coverage.recovered_via_replicas >= 1
            },
            Duration::from_secs(30),
        ),
        "exhaustive search lost the crashed peer's document"
    );

    // Untouched content is unaffected: node 1 is alive, so its document
    // is reported from its home even where a replica holder out-ranks
    // it. (Node 3's first search may still run before node 1's filter
    // has reached it — hence the wait.)
    assert!(
        wait_for(
            || {
                let r = nodes[3].search_ranked("stable content", 5).unwrap();
                r.hits.iter().any(|h| h.peer == 1)
            },
            Duration::from_secs(30),
        ),
        "a live home's document was not reported from its home"
    );
}

/// Broker abrupt-leave interplay: a brokered snippet dies with its
/// brokers (documented §6 behavior — snippets are soft state, never
/// re-replicated after an abrupt leave), while the replication path
/// keeps the *document* findable after the same kind of exit.
#[test]
fn broker_snippet_lost_but_replica_recovers_document() {
    let xml = "<d>hotspot hotspot hotspot weather report</d>";

    // In-process community: publish with hot-term brokerage, then take
    // every broker down abruptly. The snippet is gone and the home's
    // copy is only a "possibly on offline peer" hint.
    let mut c = Community::new();
    let alice = c.add_peer("alice");
    let bob = c.add_peer("bob");
    c.publish(
        alice,
        xml,
        PublishOptions {
            broker_hot_terms: Some(0.5),
        },
    )
    .unwrap();
    let before = c.search_exhaustive(bob, "hotspot").unwrap();
    assert!(
        !before.snippets.is_empty() || !before.results.is_empty(),
        "document must be findable while brokers are up"
    );
    c.set_offline(alice);
    c.set_offline(bob);
    let after = c.search_exhaustive(bob, "hotspot").unwrap();
    assert!(
        after.snippets.is_empty(),
        "snippets must die with their brokers"
    );
    assert!(after.results.is_empty());
    assert_eq!(after.possibly_on_offline_peers, vec!["alice".to_string()]);

    // Live community with replication: the same document survives its
    // home's abrupt exit as a real, searchable copy.
    let founder = LiveNode::start(0, replica_config(910), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..3 {
        nodes.push(
            LiveNode::start(
                id,
                replica_config(910 + u64::from(id)),
                Some(bootstrap.clone()),
            )
            .expect("node"),
        );
    }
    assert!(wait_for(
        || nodes.iter().all(|n| n.directory_size() == 3),
        Duration::from_secs(30),
    ));
    nodes[2].publish(xml).unwrap();
    assert!(
        wait_for(
            || hosted_replicas(&nodes[..2]) >= 1,
            Duration::from_secs(30)
        ),
        "document was never replicated"
    );
    let dead = nodes.pop().expect("node 2");
    drop(dead);
    assert!(
        wait_for(
            || {
                let r = nodes[0].search_exhaustive("hotspot weather").unwrap();
                r.hits
                    .iter()
                    .any(|h| h.hash == content_hash(xml) && matches!(h.replica_of, Some((2, _))))
                    && r.coverage.recovered_via_replicas >= 1
            },
            Duration::from_secs(30),
        ),
        "replica did not recover the document the snippet path lost"
    );
}

/// Hosted replicas are durable state: a host that crashes and restarts
/// from its data directory still serves the copies it accepted, so a
/// later home crash is survivable across host restarts.
#[test]
fn hosted_replicas_survive_host_restart() {
    let dirs: Vec<PathBuf> = (0..3).map(|i| scratch(&format!("host{i}"))).collect();
    let config = |id: u32| LiveConfig {
        durable: Some(DurableConfig::at(dirs[id as usize].to_str().unwrap())),
        ..replica_config(920 + u64::from(id))
    };
    let founder = LiveNode::start(0, config(0), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..3u32 {
        nodes.push(LiveNode::start(id, config(id), Some(bootstrap.clone())).expect("node"));
    }
    assert!(wait_for(
        || nodes.iter().all(|n| n.directory_size() == 3),
        Duration::from_secs(30),
    ));

    let xml = "<d>replicas outlive their host process</d>";
    nodes[1].publish(xml).unwrap();
    assert!(
        wait_for(
            || nodes[0].replica_hosted().is_some_and(|(c, _)| c >= 1)
                || nodes[2].replica_hosted().is_some_and(|(c, _)| c >= 1),
            Duration::from_secs(30),
        ),
        "document was never replicated"
    );
    let host_id = if nodes[0].replica_hosted().is_some_and(|(c, _)| c >= 1) {
        0usize
    } else {
        2
    };

    // Crash the host and bring it back from its data directory.
    let (before_count, before_bytes) = nodes[host_id].replica_hosted().expect("replication on");
    let old = nodes.remove(host_id);
    drop(old);
    let survivor = &nodes[0];
    let bootstrap = (survivor.id(), survivor.addr().to_string());
    let restarted =
        LiveNode::start(host_id as u32, config(host_id as u32), Some(bootstrap)).expect("restart");
    assert!(restarted.await_ready(Duration::from_secs(30)));
    assert_eq!(
        restarted.replica_hosted(),
        Some((before_count, before_bytes)),
        "hosted replicas must be restored from the WAL"
    );

    // The restored copy is live: kill the home, search from the third
    // node, find the document on the restarted host.
    let home_idx = nodes
        .iter()
        .position(|n| n.id() == 1)
        .expect("home still running");
    let home = nodes.remove(home_idx);
    drop(home);
    let searcher = &nodes[0];
    assert!(
        wait_for(
            || {
                let r = searcher.search_ranked("outlive host process", 5).unwrap();
                r.hits
                    .iter()
                    .any(|h| h.hash == content_hash(xml) && matches!(h.replica_of, Some((1, _))))
            },
            Duration::from_secs(30),
        ),
        "restored replica never answered for its dead home"
    );
    drop(restarted);
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
