//! Delta-gossip equivalence: a community whose Bloom updates travel as
//! delta chains must end up *bit-identical* to one gossiping full
//! filters — same directory digests, same query plans, same ranked
//! results — while actually exercising the delta path (counters > 0).
//!
//! This is the live-runtime acceptance test for the delta wire format:
//! if a diff ever mis-applies, the mirrored filters diverge and either
//! the digests or the search results differ between the twins.
//!
//! A second test holds the bandwidth side: once a community has
//! converged, a small publish travels as a diff on *every* path — pushed
//! rumors, forwarded rumors, pull and anti-entropy replies.

use planetp::live::{LiveConfig, LiveNode};
use planetp::LocalDataStore;
use planetp_bloom::CompressedBloom;
use planetp_gossip::GossipConfig;
use std::time::{Duration, Instant};

fn fast_config(seed: u64, delta_updates: bool) -> LiveConfig {
    LiveConfig {
        gossip: GossipConfig {
            base_interval_ms: 40,
            max_interval_ms: 120,
            slowdown_ms: 20,
            delta_updates,
            ..GossipConfig::default()
        },
        io_timeout: Duration::from_secs(2),
        seed,
        ..LiveConfig::default()
    }
}

/// Spin until `cond` holds or the deadline passes.
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

fn start_community(n: u32, seed: u64, delta_updates: bool) -> Vec<LiveNode> {
    let founder = LiveNode::start(0, fast_config(seed, delta_updates), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes = vec![founder];
    for id in 1..n {
        nodes.push(
            LiveNode::start(
                id,
                fast_config(seed + u64::from(id), delta_updates),
                Some(bootstrap.clone()),
            )
            .expect("node starts"),
        );
    }
    nodes
}

fn converged(nodes: &[LiveNode]) -> bool {
    let d0 = nodes[0].directory_digest();
    nodes.iter().all(|n| n.directory_digest() == d0)
}

/// Run the same publish schedule against one community and return it
/// converged. Sequential publishes on the same peer build multi-step
/// delta chains; the interleaved convergence waits keep the schedule
/// deterministic across the twins.
fn run_schedule(nodes: &[LiveNode]) {
    assert!(
        wait_for(
            || nodes.iter().all(|n| n.directory_size() == nodes.len()),
            Duration::from_secs(30),
        ),
        "community never formed: {:?}",
        nodes.iter().map(|n| n.directory_size()).collect::<Vec<_>>()
    );
    let docs: [(usize, &str); 4] = [
        (
            1,
            "<doc><title>Epidemic algorithms</title><body>gossip spreads updates</body></doc>",
        ),
        (
            1,
            "<doc><title>Bloom filters</title><body>compact summaries for gossip</body></doc>",
        ),
        (
            2,
            "<doc><title>Content addressing</title><body>ranked search over summaries</body></doc>",
        ),
        (
            3,
            "<doc><title>Cooking</title><body>entirely unrelated content</body></doc>",
        ),
    ];
    for (who, xml) in docs {
        nodes[who].publish(xml).unwrap();
        assert!(
            wait_for(|| converged(nodes), Duration::from_secs(30)),
            "publish by node {who} never converged"
        );
    }
}

/// A ranked result reduced to comparable form (scores via exact bits:
/// "bit-identical" means the ranking math saw identical filters).
fn fingerprint(nodes: &[LiveNode], query: &str) -> Vec<(u32, u64, u64, String)> {
    let result = nodes[0].search_ranked(query, 10).unwrap();
    assert!(
        result.coverage.is_complete(),
        "healthy community must yield full coverage: {:?}",
        result.coverage
    );
    result
        .hits
        .into_iter()
        .map(|h| (h.peer, h.doc, h.score.to_bits(), h.xml))
        .collect()
}

#[test]
fn delta_gossip_matches_full_filter_gossip_bit_for_bit() {
    let delta = start_community(4, 4100, true);
    let full = start_community(4, 4100, false);
    run_schedule(&delta);
    run_schedule(&full);

    // Identical schedule → identical ranked results, hit for hit,
    // score bit for score bit.
    for query in [
        "gossip",
        "summaries",
        "ranked search",
        "nonexistent-term-xyz",
    ] {
        assert_eq!(
            fingerprint(&delta, query),
            fingerprint(&full, query),
            "twin communities disagree on {query:?}"
        );
    }

    // The delta run really took the delta path...
    let d_sent: u64 = delta.iter().map(|n| n.gossip_stats().deltas_sent).sum();
    let d_applied: u64 = delta.iter().map(|n| n.gossip_stats().deltas_applied).sum();
    let d_saved: u64 = delta
        .iter()
        .map(|n| n.gossip_stats().delta_bytes_saved)
        .sum();
    assert!(d_sent > 0, "delta community never sent a delta rumor");
    assert!(d_applied > 0, "delta community never applied a delta chain");
    assert!(d_saved > 0, "delta rumors saved no wire bytes");

    // ...and the full run never did.
    for n in &full {
        let s = n.gossip_stats();
        assert_eq!(
            s.deltas_sent,
            0,
            "node {} sent deltas with deltas off",
            n.id()
        );
        assert_eq!(
            s.deltas_applied,
            0,
            "node {} applied a delta with deltas off",
            n.id()
        );
    }
}

#[test]
fn converged_community_moves_small_publishes_as_diffs_on_every_path() {
    const N: u32 = 6;
    const K: u64 = 10;
    let nodes = start_community(N, 4200, true);
    assert!(
        wait_for(
            || nodes.iter().all(|n| n.directory_size() == nodes.len()),
            Duration::from_secs(30),
        ),
        "community never formed"
    );
    // Give every filter some weight first, so that a diff is far
    // smaller than the filter it patches; then age that one large step
    // out of every stored chain (a push carries the whole chain, and a
    // chain holding the step that filled the filter is no smaller than
    // the filter).
    let seed_doc = |i: usize, round: usize| {
        let words = if round == 0 { 300 } else { 1 };
        let body: String = (0..words)
            .map(|w| format!("seed{i}round{round}word{w} "))
            .collect();
        format!("<doc><title>Seed {i}</title><body>{body}</body></doc>")
    };
    for round in 0..=GossipConfig::default().max_delta_chain {
        for (i, n) in nodes.iter().enumerate() {
            n.publish(&seed_doc(i, round)).unwrap();
        }
        assert!(
            wait_for(|| converged(&nodes), Duration::from_secs(30)),
            "seed round {round} never converged"
        );
    }

    let full_fallbacks = |nodes: &[LiveNode]| -> u64 {
        nodes
            .iter()
            .map(|n| n.gossip_stats().delta_full_fallbacks)
            .sum()
    };
    let pull_reply_bytes = |nodes: &[LiveNode]| -> u64 {
        nodes
            .iter()
            .map(|n| n.metrics_snapshot().counter("gossip.bytes_out.pull_reply"))
            .sum()
    };
    let (fallbacks_before, reply_bytes_before) = (full_fallbacks(&nodes), pull_reply_bytes(&nodes));

    for k in 0..K {
        let who = (k % u64::from(N)) as usize;
        nodes[who]
            .publish(&format!(
                "<doc><title>Update {k}</title><body>fresh token{k}</body></doc>"
            ))
            .unwrap();
        assert!(
            wait_for(|| converged(&nodes), Duration::from_secs(30)),
            "publish {k} by node {who} never converged"
        );
    }

    assert_eq!(
        full_fallbacks(&nodes) - fallbacks_before,
        0,
        "a peer sent a whole filter for a one-document update"
    );
    // Every pull was answered, and all of them together cost less than
    // K filters as light as any here has been since its first seed
    // document — before, each single reply carried a whole filter.
    let mut lightest = LocalDataStore::new();
    lightest.publish(&seed_doc(0, 0)).unwrap();
    let one_full_filter = CompressedBloom::compress(lightest.bloom()).wire_bytes();
    let reply_bytes = pull_reply_bytes(&nodes) - reply_bytes_before;
    assert!(
        reply_bytes < K * one_full_filter as u64,
        "{reply_bytes} pull-reply bytes for {K} publishes; one full filter is {one_full_filter}"
    );
    let breaks: u64 = nodes
        .iter()
        .map(|n| n.gossip_stats().delta_chain_breaks)
        .sum();
    assert_eq!(breaks, 0, "a delta reply failed to apply");
}
