//! Overload protection end to end: a saturated (here: forcibly
//! overloaded) node sheds work with an explicit [`LiveMsg::Busy`]
//! instead of timing out, Background work is sacrificed before
//! Interactive work, shed peers show up in the search coverage
//! summary, and — the part that keeps overload from cascading into
//! false churn — a `Busy` reply is never charged to the suspect →
//! offline health machine.

use planetp::admission::{Admission, AdmissionConfig, AdmissionGate};
use planetp::faults::{FaultInjector, FaultPlan, FaultRules};
use planetp::live::{LiveConfig, LiveNode};
use planetp::wire::Priority;
use planetp_gossip::GossipConfig;
use planetp_obs::names;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_config(seed: u64, faults: Option<Arc<FaultInjector>>) -> LiveConfig {
    LiveConfig {
        gossip: GossipConfig {
            base_interval_ms: 40,
            max_interval_ms: 120,
            slowdown_ms: 20,
            ..GossipConfig::default()
        },
        // Deliberately long: if Busy handling regressed into the
        // timeout path, the latency assertion below would blow past it.
        io_timeout: Duration::from_secs(10),
        seed,
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

/// Priority ordering at the gate under real saturation, with real
/// blocked waiters: one slot, one queue entry. A queued Background
/// request is evicted the moment an Interactive request arrives, a
/// Background arrival never evicts Background, and the Interactive
/// request is served as soon as the slot frees.
#[test]
fn background_is_shed_before_interactive_under_saturation() {
    let gate = Arc::new(AdmissionGate::new(AdmissionConfig {
        max_active: 1,
        queue_capacity: 1,
        max_wait_ms: 10_000,
        ..AdmissionConfig::default()
    }));

    // Occupy the only service slot.
    assert!(matches!(
        gate.admit(Priority::Interactive, None),
        Admission::Admitted { .. }
    ));

    // A Background request takes the only queue slot and blocks.
    let bg_gate = Arc::clone(&gate);
    let bg = std::thread::spawn(move || bg_gate.admit(Priority::Background, None));
    assert!(
        wait_for(|| gate.queued() == 1, Duration::from_secs(5)),
        "background request never queued"
    );

    // Another Background arrival finds the queue full of its own class:
    // it is shed itself, immediately — never evicts an equal.
    let started = Instant::now();
    assert!(matches!(
        gate.admit(Priority::Background, None),
        Admission::Shed { .. }
    ));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "same-class shed must not wait out the queue"
    );
    assert_eq!(gate.queued(), 1, "the original background request remains");

    // An Interactive arrival evicts the queued Background request...
    let int_gate = Arc::clone(&gate);
    let int = std::thread::spawn(move || int_gate.admit(Priority::Interactive, None));
    let bg_fate = bg.join().expect("background waiter");
    assert!(
        matches!(bg_fate, Admission::Shed { retry_after_ms } if retry_after_ms > 0),
        "evicted background request must be shed with a retry hint: {bg_fate:?}"
    );

    // ...and is served as soon as the slot frees.
    gate.complete();
    let int_fate = int.join().expect("interactive waiter");
    assert!(
        matches!(int_fate, Admission::Admitted { .. }),
        "interactive request must be granted after eviction: {int_fate:?}"
    );
    gate.complete();
}

/// An overloaded peer (its injector forces `Busy` on every inbound
/// request) is visible but useless to searches: ranked search counts it
/// in `peers_shed`, keeps the result from claiming completeness, still
/// returns everyone else's hits — and the searcher's health table never
/// charges the peer, because shedding is load, not death.
#[test]
fn overloaded_peer_is_shed_in_coverage_but_never_charged_to_health() {
    const VICTIM: u32 = 2;
    let victim_faults = Arc::new(FaultInjector::new(
        99,
        FaultPlan {
            inbound: FaultRules {
                force_busy: 1.0,
                ..FaultRules::default()
            },
            ..FaultPlan::default()
        },
    ));

    // The victim joins and converges through the gossip rounds it
    // initiates itself (outbound is clean); everything it *serves* is
    // answered `Busy`.
    let founder = LiveNode::start(0, fast_config(90, None), None).expect("founder");
    let bootstrap = (0u32, founder.addr().to_string());
    let nodes = [
        founder,
        LiveNode::start(1, fast_config(91, None), Some(bootstrap.clone())).expect("node 1"),
        LiveNode::start(
            VICTIM,
            fast_config(92, Some(Arc::clone(&victim_faults))),
            Some(bootstrap),
        )
        .expect("victim"),
    ];
    assert!(
        wait_for(
            || nodes.iter().all(|n| n.directory_size() == 3),
            Duration::from_secs(60),
        ),
        "directories never reached size 3: {:?}",
        nodes.iter().map(|n| n.directory_size()).collect::<Vec<_>>()
    );

    nodes[1]
        .publish("<doc><title>Healthy peer</title><body>overload shared corpus</body></doc>")
        .unwrap();
    nodes[VICTIM as usize]
        .publish("<doc><title>Busy peer</title><body>overload shared corpus</body></doc>")
        .unwrap();
    assert!(
        wait_for(
            || {
                let d = nodes[0].directory_digest();
                nodes.iter().all(|n| n.directory_digest() == d)
            },
            Duration::from_secs(60),
        ),
        "directories never converged after publishing"
    );

    // The victim's filter matches, so search must try it — and take the
    // Busy reply in stride, in milliseconds, not after a 10 s timeout.
    let started = Instant::now();
    let r = nodes[0].search_ranked("overload corpus", 10).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "Busy must answer fast, not via the timeout path: took {elapsed:?}"
    );

    let owners: Vec<u32> = r.hits.iter().map(|h| h.peer).collect();
    assert!(
        owners.contains(&1),
        "healthy peer's hit missing: {owners:?}"
    );
    assert!(
        r.coverage.peers_shed >= 1,
        "the overloaded peer must be counted as shed: {:?}",
        r.coverage
    );
    assert_eq!(
        r.coverage.peers_failed, 0,
        "Busy is not a failure: {:?}",
        r.coverage
    );
    assert!(
        !r.coverage.is_complete(),
        "a shed peer must spoil completeness: {:?}",
        r.coverage
    );

    // Hammer a few more searches: the shed accounting must hold every
    // time (whether the contact was answered Busy or throttled away).
    for _ in 0..4 {
        let r = nodes[0].search_ranked("overload corpus", 10).unwrap();
        assert!(
            r.coverage.peers_shed >= 1,
            "shed peer lost: {:?}",
            r.coverage
        );
    }

    // Never charged to health: no consecutive failures, no offline
    // marking, no rpc failure counted anywhere on the searcher.
    let health = nodes[0].peer_health(VICTIM);
    assert_eq!(
        health.map_or(0, |e| e.consecutive_failures),
        0,
        "Busy replies were charged to the health machine: {health:?}"
    );
    let s = nodes[0].stats();
    assert_eq!(
        s.rpc_failures, 0,
        "Busy was counted as an RPC failure: {s:?}"
    );
    assert_eq!(
        s.peers_marked_offline, 0,
        "an overloaded peer was declared dead: {s:?}"
    );

    // The metrics tell the same story on both ends of the wire.
    let searcher = nodes[0].metrics_snapshot();
    assert!(
        searcher.counter(names::BUSY_RECEIVED) >= 1,
        "searcher never recorded a Busy reply"
    );
    let victim = nodes[VICTIM as usize].metrics_snapshot();
    assert!(
        victim.counter(names::BUSY_SENT) >= 1,
        "victim never recorded sending Busy"
    );
    assert!(
        victim.counter(names::ADMISSION_SHED) >= 1,
        "victim never recorded shedding"
    );
    assert!(
        victim_faults.stats().forced_busy >= 1,
        "the forced-overload rule never fired"
    );
}
