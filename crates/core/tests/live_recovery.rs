//! Crash-restart recovery under fire: a live community whose members
//! keep dying at injected crash points — torn WAL records, half-written
//! snapshots, bit rot in the log tail — and keep coming back from their
//! data directories. Every recovered incarnation must validate clean,
//! re-announce a strictly higher `(status_version, bloom_version)` pair
//! than anything its predecessor gossiped, and re-converge with the
//! community.
//!
//! Determinism: victim selection, crash points, and tail mangling all
//! come from a fixed-seed splitmix64 stream; the crash points themselves
//! cycle so every point in [`CrashPoint::ALL`] is exercised at least
//! twice across the run.

use planetp::faults::{flip_tail_bit, truncate_tail, CrashPoint, FaultInjector, FaultPlan};
use planetp::health::{HealthConfig, RetryPolicy};
use planetp::live::{LiveConfig, LiveNode};
use planetp::DurableConfig;
use planetp_gossip::GossipConfig;
use planetp_obs::{names, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const COMMUNITY: usize = 6;
const CYCLES: usize = 20;

/// Fresh per-test scratch directory under the system temp dir (the
/// container has no tempfile crate; pid + sequence keeps runs apart).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "planetp-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A fast, rejoin-heavy config with durability pointed at `dir`. The
/// tiny compaction threshold forces the snapshot path constantly, so
/// every snapshot-side crash point is reachable from a couple of
/// publishes.
fn durable_config(seed: u64, dir: &Path, faults: Option<Arc<FaultInjector>>) -> LiveConfig {
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
        durable: Some(DurableConfig {
            dir: dir.to_path_buf(),
            compact_after_records: 3,
        }),
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

/// splitmix64: deterministic pseudo-randomness without a crate.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn save_artifact(name: &str, snap: &MetricsSnapshot) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/metrics");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), snap.to_json());
    }
}

fn all_converged(nodes: &[Option<LiveNode>]) -> bool {
    let mut digest = None;
    for n in nodes.iter().flatten() {
        if n.directory_size() != COMMUNITY {
            return false;
        }
        let d = n.directory_digest();
        if *digest.get_or_insert(d) != d {
            return false;
        }
    }
    true
}

/// The tentpole acceptance test: a 6-peer community survives 20 random
/// crash/restart cycles covering every [`CrashPoint`], with the WAL
/// tail additionally mangled between some lifetimes. Every restart
/// recovers a validate()-clean store, announces strictly increasing
/// versions, and the directory re-converges.
#[test]
fn community_survives_crash_restart_cycles() {
    let root = scratch("chaos");
    let mut rng = 0x5EED_CAFE_u64;

    // Found the community: node 0 first, the rest bootstrap off it.
    let mut injectors: Vec<Arc<FaultInjector>> = (0..COMMUNITY)
        .map(|id| Arc::new(FaultInjector::new(100 + id as u64, FaultPlan::default())))
        .collect();
    let data_dir = |id: usize| root.join(format!("node{id}"));
    let founder = LiveNode::start(
        0,
        durable_config(900, &data_dir(0), Some(Arc::clone(&injectors[0]))),
        None,
    )
    .expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let mut nodes: Vec<Option<LiveNode>> = vec![Some(founder)];
    for (id, injector) in injectors.iter().enumerate().skip(1) {
        nodes.push(Some(
            LiveNode::start(
                id as u32,
                durable_config(900 + id as u64, &data_dir(id), Some(Arc::clone(injector))),
                Some(bootstrap.clone()),
            )
            .expect("member"),
        ));
    }
    assert!(
        wait_for(|| all_converged(&nodes), Duration::from_secs(30)),
        "community never formed"
    );
    for (id, n) in nodes.iter().enumerate() {
        n.as_ref()
            .unwrap()
            .publish(&format!("<d>chaos corpus seeded by node{id}</d>"))
            .expect("seed publish");
    }
    assert!(
        wait_for(|| all_converged(&nodes), Duration::from_secs(30)),
        "seed publishes never converged"
    );

    let mut last_versions: Vec<(u64, u32)> = nodes
        .iter()
        .map(|n| n.as_ref().unwrap().announced_versions())
        .collect();
    let mut mangles_applied = 0u32;
    let mut torn_tails_seen = 0u32;

    for cycle in 0..CYCLES {
        let victim = (next_rand(&mut rng) % COMMUNITY as u64) as usize;
        let point = CrashPoint::ALL[cycle % CrashPoint::ALL.len()];
        let node = nodes[victim].take().expect("victim alive");

        // Arm the crash, then publish until the store dies at the armed
        // point (each publish appends twice and usually compacts, so
        // every point is reachable within a few tries).
        injectors[victim].arm_crash(point);
        for filler in 0..12 {
            if node
                .publish(&format!(
                    "<d>cycle {cycle} filler {filler} node{victim}</d>"
                ))
                .is_err()
            {
                break;
            }
        }
        assert!(
            node.store_poisoned(),
            "cycle {cycle}: armed {point:?} never fired on node {victim}"
        );
        drop(node); // the "kill -9"

        // Sometimes the tail of the log rots between lifetimes too.
        let wal = data_dir(victim).join("wal.log");
        let wal_len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        match next_rand(&mut rng) % 3 {
            0 if wal_len > 3 => {
                let n = 1 + next_rand(&mut rng) % 3;
                truncate_tail(&wal, n).expect("truncate tail");
                mangles_applied += 1;
            }
            1 if wal_len > 4 => {
                let off = next_rand(&mut rng) % 4;
                flip_tail_bit(&wal, off).expect("flip tail bit");
                mangles_applied += 1;
            }
            _ => {}
        }

        // Restart from the same data dir, bootstrapping off any member
        // that is still up (the old incarnation's port is gone).
        let live = (0..COMMUNITY)
            .find(|&i| nodes[i].is_some())
            .expect("someone survives");
        let boot = (
            live as u32,
            nodes[live].as_ref().unwrap().addr().to_string(),
        );
        injectors[victim] = Arc::new(FaultInjector::new(
            10_000 + cycle as u64,
            FaultPlan::default(),
        ));
        let reborn = LiveNode::start(
            victim as u32,
            durable_config(
                2_000 + cycle as u64,
                &data_dir(victim),
                Some(Arc::clone(&injectors[victim])),
            ),
            Some(boot),
        )
        .unwrap_or_else(|e| panic!("cycle {cycle}: node {victim} failed to restart: {e}"));

        let info = reborn.recovery_info().expect("durability is on");
        assert!(info.recovered, "cycle {cycle}: nothing recovered from disk");
        if info.truncated_tail {
            torn_tails_seen += 1;
        }
        reborn
            .validate_durable()
            .unwrap_or_else(|e| panic!("cycle {cycle}: invalid recovered state: {e}"));

        // The pair must strictly supersede everything the previous
        // incarnation announced, under the directory's lexicographic
        // order. status_version alone guarantees it: it is bumped at
        // every recovery and lives in the (never-mangled) snapshot, so
        // even a torn tail that loses the last bloom_version record
        // cannot produce a stale-looking announcement.
        let (sv, bv) = reborn.announced_versions();
        let (psv, pbv) = last_versions[victim];
        assert!(
            sv > psv && (sv, bv) > (psv, pbv),
            "cycle {cycle}: node {victim} re-announced ({sv}, {bv}), \
             not strictly above its previous ({psv}, {pbv})"
        );
        last_versions[victim] = (sv, bv);

        assert!(
            reborn.await_ready(Duration::from_secs(20)),
            "cycle {cycle}: node {victim} never finished catch-up"
        );
        nodes[victim] = Some(reborn);
        assert!(
            wait_for(|| all_converged(&nodes), Duration::from_secs(30)),
            "cycle {cycle}: directory never re-converged after node {victim} rejoined"
        );
    }

    // Every mangled tail must have been detected and truncated on the
    // recovery that followed it (crashes alone can add more).
    assert!(
        torn_tails_seen >= mangles_applied.min(1),
        "mangled {mangles_applied} WAL tails but recovery never reported one"
    );

    // The community still answers content searches, including for the
    // corpus published before any crash.
    let asker = nodes[0].as_ref().unwrap();
    let found = wait_for(
        || {
            asker
                .search_ranked("chaos corpus", COMMUNITY * 2)
                .is_ok_and(|r| {
                    let mut owners: Vec<u32> = r.hits.iter().map(|h| h.peer).collect();
                    owners.sort_unstable();
                    owners.dedup();
                    owners.len() == COMMUNITY
                })
        },
        Duration::from_secs(60),
    );
    assert!(found, "seed corpus lost after {CYCLES} crash cycles");

    // The store and recovery metrics the issue promises are visible.
    let snap = asker.metrics_snapshot();
    let json = snap.to_json();
    for name in [
        names::STORE_WAL_RECORDS,
        names::STORE_WAL_REPLAYS,
        names::STORE_TRUNCATED_TAILS,
        names::RECOVERY_CATCHUP_MS,
    ] {
        assert!(json.contains(name), "{name} missing from metrics snapshot");
    }
    assert!(
        snap.counter(names::STORE_WAL_RECORDS) > 0,
        "node 0 never logged"
    );
    save_artifact("live_recovery_node0.json", &snap);

    let _ = std::fs::remove_dir_all(&root);
}

/// Restart mechanics in isolation: a node gets back its identity,
/// documents (under their original ids), and versions-above-history
/// guarantee — and a data dir cannot be claimed by the wrong peer.
#[test]
fn restart_restores_identity_docs_and_versions() {
    let root = scratch("solo");
    let dir = root.join("node7");

    let first = LiveNode::start(7, durable_config(41, &dir, None), None).expect("start");
    let d1 = first
        .publish("<d>durable gossip survives restarts</d>")
        .expect("publish");
    let d2 = first
        .publish("<d>second document same peer</d>")
        .expect("publish");
    let versions = first.announced_versions();
    assert!(first.recovery_info().is_some_and(|i| !i.recovered));
    assert!(
        !first.is_recovering(),
        "fresh founder has nothing to catch up on"
    );
    drop(first);

    // The dir belongs to peer 7; peer 8 must be turned away.
    let wrong = LiveNode::start(8, durable_config(42, &dir, None), None);
    assert!(wrong.is_err(), "foreign data dir accepted");

    let second = LiveNode::start(7, durable_config(43, &dir, None), None).expect("restart");
    let info = second.recovery_info().expect("durability on");
    assert!(info.recovered);
    second.validate_durable().expect("clean state");
    let (sv, bv) = second.announced_versions();
    assert!(
        sv > versions.0 && bv > versions.1,
        "restart versions {:?} not above {versions:?}",
        (sv, bv)
    );
    // A lone founder with no recovered peers is immediately ready.
    assert!(second.await_ready(Duration::from_secs(5)));

    // Both documents answer local search under their original ids.
    let r = second.search_ranked("durable gossip", 10).expect("search");
    let ids: Vec<u64> = r.hits.iter().map(|h| h.doc).collect();
    assert!(ids.contains(&d1), "doc {d1} lost: {ids:?}");
    let r = second.search_ranked("second document", 10).expect("search");
    assert!(r.hits.iter().any(|h| h.doc == d2), "doc {d2} lost");

    // New publishes never reuse a recovered id.
    let d3 = second
        .publish("<d>published after restart</d>")
        .expect("publish");
    assert!(d3 > d2, "doc id {d3} collided with recovered history");

    let snap = second.metrics_snapshot();
    assert!(snap.counter(names::RECOVERY_RESTARTS) == 1);
    assert!(snap.counter(names::RECOVERY_DOCS_RESTORED) == 2);
    let _ = std::fs::remove_dir_all(&root);
}
