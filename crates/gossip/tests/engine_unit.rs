//! Focused unit tests of `GossipEngine` message handling — exercising
//! the state machine one message at a time, without a driver loop.

use planetp_gossip::messages::PeerState;
use planetp_gossip::{
    Algorithm, DeltaChain, DirEntry, Directory, GossipConfig, GossipEngine, Message, Payload,
    PeerStatus, RumorId, RumorKind, RumorPayload, SizedDelta, SizedPayload, SpeedClass,
};

type Engine = GossipEngine<SizedPayload>;
type Msg = Message<SizedPayload>;

fn entry(sv: u64, bv: u32, bytes: u32) -> DirEntry<SizedPayload> {
    DirEntry {
        status_version: sv,
        bloom_version: bv,
        payload: Some(SizedPayload { bytes }),
        status: PeerStatus::Online,
        speed: SpeedClass::Fast,
    }
}

fn engine_of(n: u32, me: u32) -> Engine {
    engine_with(n, me, GossipConfig::default())
}

fn engine_with(n: u32, me: u32, cfg: GossipConfig) -> Engine {
    let mut dir = Directory::new();
    for id in 0..n {
        dir.insert(id, entry(1, 1, 3000));
    }
    Engine::with_directory(me, SpeedClass::Fast, cfg, 7, dir)
}

fn rumor(subject: u32, sv: u64, bv: u32, bytes: u32) -> planetp_gossip::Rumor<SizedPayload> {
    planetp_gossip::Rumor {
        id: RumorId {
            subject,
            status_version: sv,
            bloom_version: bv,
        },
        kind: RumorKind::BloomUpdate,
        payload: Some(RumorPayload::Full(SizedPayload { bytes })),
    }
}

fn delta_rumor(
    subject: u32,
    sv: u64,
    base: u32,
    steps: Vec<SizedDelta>,
) -> planetp_gossip::Rumor<SizedPayload> {
    let end = base + steps.len() as u32;
    planetp_gossip::Rumor {
        id: RumorId {
            subject,
            status_version: sv,
            bloom_version: end,
        },
        kind: RumorKind::BloomUpdate,
        payload: Some(RumorPayload::Delta(DeltaChain {
            base_bloom_version: base,
            steps,
        })),
    }
}

fn rid(subject: u32, status_version: u64, bloom_version: u32) -> RumorId {
    RumorId {
        subject,
        status_version,
        bloom_version,
    }
}

fn tick_until_rumor<P: Payload>(e: &mut GossipEngine<P>) -> Message<P> {
    for round in 1..100 {
        if let Some(out) = e.tick(round * 30_000) {
            if matches!(out.message, Message::Rumor { .. }) {
                return out.message;
            }
        }
    }
    panic!("no rumor round within 100 ticks");
}

#[test]
fn fresh_rumor_is_applied_acked_and_respread() {
    let mut e = engine_of(5, 0);
    let responses = e.handle_message(
        1,
        Msg::Rumor {
            rumors: vec![rumor(2, 1, 2, 3100)],
        },
        0,
    );
    // Ack says "did not know".
    assert_eq!(responses.len(), 1);
    let (to, msg) = &responses[0];
    assert_eq!(*to, 1);
    match msg {
        Msg::RumorAck { already_knew, .. } => assert_eq!(already_knew, &[false]),
        other => panic!("expected ack, got {other:?}"),
    }
    // Directory updated and the rumor is now active here too.
    let entry = e.directory().get(2).expect("entry exists");
    assert_eq!(entry.bloom_version, 2);
    assert_eq!(entry.payload, Some(SizedPayload { bytes: 3100 }));
    assert_eq!(e.active_rumors(), 1);
}

#[test]
fn stale_rumor_acked_as_known_and_ignored() {
    let mut e = engine_of(5, 0);
    let responses = e.handle_message(
        1,
        Msg::Rumor {
            rumors: vec![rumor(2, 1, 1, 3000)],
        },
        0,
    );
    match &responses[0].1 {
        Msg::RumorAck { already_knew, .. } => assert_eq!(already_knew, &[true]),
        other => panic!("expected ack, got {other:?}"),
    }
    assert_eq!(e.active_rumors(), 0);
}

#[test]
fn rumor_about_unknown_peer_creates_entry() {
    let mut e = engine_of(3, 0);
    e.handle_message(
        1,
        Msg::Rumor {
            rumors: vec![rumor(99, 1, 1, 4000)],
        },
        0,
    );
    assert!(e.directory().get(99).is_some());
    assert_eq!(e.directory().len(), 4);
}

#[test]
fn ack_known_twice_retires_rumor() {
    let mut e = engine_of(6, 0);
    e.local_update(SizedPayload { bytes: 3000 });
    assert_eq!(e.active_rumors(), 1);
    let mut acked = 0;
    // Tick until two rumor pushes have been acked "already known".
    for round in 1..100 {
        let now = round * 30_000;
        let Some(out) = e.tick(now) else { continue };
        if let Msg::Rumor { rumors } = &out.message {
            let n = rumors.len();
            let _ = e.handle_message(
                out.target,
                Msg::RumorAck {
                    already_knew: vec![true; n],
                    recent_ids: vec![],
                },
                now,
            );
            acked += 1;
            if acked == 2 {
                break;
            }
        }
    }
    assert_eq!(
        e.active_rumors(),
        0,
        "rumor must die after {} consecutive known-acks",
        GossipConfig::default().rumor_death_n
    );
}

#[test]
fn fresh_ack_resets_death_counter() {
    let mut e = engine_of(6, 0);
    e.local_update(SizedPayload { bytes: 3000 });
    let mut pushes = 0;
    for round in 1..200 {
        let now = round * 30_000;
        let Some(out) = e.tick(now) else { continue };
        if let Msg::Rumor { rumors } = &out.message {
            let n = rumors.len();
            // Alternate known / not-known: counter must never reach 2.
            let knew = pushes % 2 == 0;
            let _ = e.handle_message(
                out.target,
                Msg::RumorAck {
                    already_knew: vec![knew; n],
                    recent_ids: vec![],
                },
                now,
            );
            pushes += 1;
            if pushes >= 10 {
                break;
            }
        }
    }
    assert_eq!(
        e.active_rumors(),
        1,
        "alternating acks must keep the rumor hot"
    );
}

#[test]
fn partial_ae_pull_fetches_missing_news() {
    let mut e = engine_of(5, 0);
    // Peer 1 tells us (via an ack's piggyback) that peer 3 reached v2.
    let missing = RumorId {
        subject: 3,
        status_version: 1,
        bloom_version: 2,
    };
    // First push something so the engine has a pending exchange; the
    // ack path accepts piggybacks regardless of pending state.
    let responses = e.handle_message(
        1,
        Msg::RumorAck {
            already_knew: vec![],
            recent_ids: vec![missing],
        },
        0,
    );
    assert_eq!(responses.len(), 1);
    // The pull names what we hold of peer 3, not what was advertised.
    match &responses[0].1 {
        Msg::Pull { ids } => assert_eq!(ids, &[rid(3, 1, 1)]),
        other => panic!("expected pull, got {other:?}"),
    }
    // The pull reply teaches us the new state.
    let state = PeerState {
        subject: 3,
        status_version: 1,
        bloom_version: 2,
        payload: Some(RumorPayload::Full(SizedPayload { bytes: 3333 })),
    };
    let out = e.handle_message(
        1,
        Msg::PullReply {
            entries: vec![state],
        },
        0,
    );
    assert!(out.is_empty());
    assert!(e.knows(missing));
}

#[test]
fn ae_request_equal_digest_answers_ae_equal() {
    let mut a = engine_of(4, 0);
    let digest = a.directory().digest();
    let responses = a.handle_message(1, Msg::AeRequest { digest }, 0);
    assert_eq!(responses[0].1, Msg::AeEqual);
}

#[test]
fn ae_request_different_digest_sends_summary() {
    let mut a = engine_of(4, 0);
    let responses = a.handle_message(1, Msg::AeRequest { digest: 0xdead }, 0);
    match &responses[0].1 {
        Msg::AeSummary { entries } => assert_eq!(entries.len(), 4),
        other => panic!("expected summary, got {other:?}"),
    }
}

#[test]
fn ae_summary_triggers_pull_of_stale_subjects_only() {
    let mut a = engine_of(4, 0);
    use planetp_gossip::messages::PeerSummary;
    let entries = vec![
        PeerSummary {
            subject: 1,
            status_version: 1,
            bloom_version: 1,
        }, // same
        PeerSummary {
            subject: 2,
            status_version: 1,
            bloom_version: 5,
        }, // newer
        PeerSummary {
            subject: 3,
            status_version: 1,
            bloom_version: 0,
        }, // older
    ];
    let responses = a.handle_message(1, Msg::AeSummary { entries }, 0);
    match &responses[0].1 {
        Msg::AePull { subjects } => assert_eq!(subjects, &[rid(2, 1, 1)]),
        other => panic!("expected pull, got {other:?}"),
    }
}

#[test]
fn ae_pull_returns_full_state() {
    let mut a = engine_of(4, 0);
    let responses = a.handle_message(
        2,
        Msg::AePull {
            subjects: vec![rid(1, 0, 0), rid(3, 0, 0)],
        },
        0,
    );
    match &responses[0].1 {
        Msg::AeReply { entries } => {
            assert_eq!(entries.len(), 2);
            assert!(entries
                .iter()
                .all(|e| matches!(e.payload, Some(RumorPayload::Full(_)))));
        }
        other => panic!("expected reply, got {other:?}"),
    }
}

#[test]
fn suspect_counts_without_touching_directory_and_recovery_clears_offline() {
    let mut a = engine_of(4, 0);
    a.note_contact_suspect(2);
    assert_eq!(a.stats().contact_suspects, 1);
    assert_eq!(
        a.directory().get(2).map(|e| e.status),
        Some(PeerStatus::Online),
        "a suspect contact must not mark the peer offline"
    );
    a.on_contact_failed(2, 100);
    assert!(matches!(
        a.directory().get(2).map(|e| e.status),
        Some(PeerStatus::Offline { .. })
    ));
    a.on_contact_recovered(2);
    assert_eq!(
        a.directory().get(2).map(|e| e.status),
        Some(PeerStatus::Online)
    );
    assert_eq!(a.stats().contact_recoveries, 1);
}

#[test]
fn hearing_from_a_peer_marks_it_online() {
    let mut a = engine_of(4, 0);
    a.on_contact_failed(2, 100);
    assert!(matches!(
        a.directory().get(2).map(|e| e.status),
        Some(PeerStatus::Offline { .. })
    ));
    a.handle_message(2, Msg::AeEqual, 200);
    assert_eq!(
        a.directory().get(2).map(|e| e.status),
        Some(PeerStatus::Online)
    );
}

#[test]
fn interval_slows_after_threshold_equal_contacts() {
    let cfg = GossipConfig::default();
    let mut a = engine_of(4, 0);
    assert_eq!(a.current_interval(), cfg.base_interval_ms);
    for _ in 0..cfg.gossipless_threshold {
        a.handle_message(1, Msg::AeEqual, 0);
    }
    assert_eq!(a.current_interval(), cfg.base_interval_ms + cfg.slowdown_ms);
    // A rumor snaps it back.
    a.handle_message(
        1,
        Msg::Rumor {
            rumors: vec![rumor(2, 1, 9, 100)],
        },
        0,
    );
    assert_eq!(a.current_interval(), cfg.base_interval_ms);
}

#[test]
fn interval_never_exceeds_max() {
    let cfg = GossipConfig::default();
    let mut a = engine_of(4, 0);
    for _ in 0..1000 {
        a.handle_message(1, Msg::AeEqual, 0);
    }
    assert_eq!(a.current_interval(), cfg.max_interval_ms);
}

#[test]
fn anti_entropy_only_mode_pushes_summaries() {
    let cfg = GossipConfig {
        algorithm: Algorithm::AntiEntropyOnly,
        ..GossipConfig::default()
    };
    let mut dir = Directory::new();
    for id in 0..3 {
        dir.insert(id, entry(1, 1, 3000));
    }
    let mut a = Engine::with_directory(0, SpeedClass::Fast, cfg, 5, dir);
    let out = a.tick(30_000).expect("has peers");
    assert!(matches!(out.message, Msg::AePush { .. }));
}

#[test]
fn ping_equal_and_recent_paths() {
    let mut a = engine_of(4, 0);
    let digest = a.directory().digest();
    let r = a.handle_message(1, Msg::AePing { digest }, 0);
    assert_eq!(r[0].1, Msg::AeEqual);
    // Unequal digest: reply carries recent ids (possibly empty here,
    // since nothing was ever retired — engine replies AeRecent anyway).
    let r = a.handle_message(1, Msg::AePing { digest: digest ^ 1 }, 0);
    assert!(matches!(r[0].1, Msg::AeRecent { .. }));
}

#[test]
fn ae_recent_pulls_only_unknown_ids() {
    let mut a = engine_of(4, 0);
    let known = RumorId {
        subject: 1,
        status_version: 1,
        bloom_version: 1,
    };
    let unknown = RumorId {
        subject: 2,
        status_version: 1,
        bloom_version: 7,
    };
    let r = a.handle_message(
        1,
        Msg::AeRecent {
            ids: vec![known, unknown],
        },
        0,
    );
    match &r[0].1 {
        Msg::Pull { ids } => assert_eq!(ids, &[rid(2, 1, 1)]),
        other => panic!("expected pull, got {other:?}"),
    }
    // Nothing unknown -> no response at all.
    let r = a.handle_message(1, Msg::AeRecent { ids: vec![known] }, 0);
    assert!(r.is_empty());
}

#[test]
fn tick_with_no_known_peers_does_nothing() {
    let mut solo = Engine::new(
        0,
        SpeedClass::Fast,
        GossipConfig::default(),
        1,
        Some(SizedPayload { bytes: 100 }),
        None,
    );
    assert!(solo.tick(30_000).is_none());
}

#[test]
fn delta_rumor_applies_against_stored_base() {
    let mut e = engine_of(5, 0); // everyone at (sv 1, bv 1, 3000 bytes)
    let r = delta_rumor(
        2,
        1,
        1,
        vec![SizedDelta {
            bytes: 120,
            full_bytes: 3100,
        }],
    );
    let responses = e.handle_message(1, Msg::Rumor { rumors: vec![r] }, 0);
    assert_eq!(
        responses.len(),
        1,
        "no fallback pull for an applicable chain"
    );
    match &responses[0].1 {
        Msg::RumorAck { already_knew, .. } => assert_eq!(already_knew, &[false]),
        other => panic!("expected ack, got {other:?}"),
    }
    let entry = e.directory().get(2).expect("entry exists");
    assert_eq!(entry.bloom_version, 2);
    assert_eq!(entry.payload, Some(SizedPayload { bytes: 3100 }));
    assert_eq!(e.stats().deltas_applied, 1);
    // The applied chain is kept (for forwarding and for the live
    // runtime's in-place query-mirror updates).
    assert_eq!(
        e.delta_steps(2, 1, 1, 2),
        Some(vec![SizedDelta {
            bytes: 120,
            full_bytes: 3100
        }])
    );
}

#[test]
fn receiver_applies_matching_suffix_of_longer_chain() {
    let mut e = engine_of(5, 0); // entry at bv 1
                                 // Chain covers 0 -> 3; we sit at 1, so only steps 1->2 and 2->3 apply.
    let steps = vec![
        SizedDelta {
            bytes: 100,
            full_bytes: 3050,
        },
        SizedDelta {
            bytes: 110,
            full_bytes: 3150,
        },
        SizedDelta {
            bytes: 130,
            full_bytes: 3250,
        },
    ];
    e.handle_message(
        1,
        Msg::Rumor {
            rumors: vec![delta_rumor(2, 1, 0, steps)],
        },
        0,
    );
    let entry = e.directory().get(2).expect("entry exists");
    assert_eq!(entry.bloom_version, 3);
    assert_eq!(entry.payload, Some(SizedPayload { bytes: 3250 }));
}

#[test]
fn broken_delta_chain_pulls_full_state_and_leaves_directory_untouched() {
    let mut e = engine_of(5, 0); // entry at bv 1
                                 // Chain base 3 needs a bv-3 entry we do not have.
    let r = delta_rumor(
        2,
        1,
        3,
        vec![SizedDelta {
            bytes: 90,
            full_bytes: 3400,
        }],
    );
    let id = r.id;
    let responses = e.handle_message(1, Msg::Rumor { rumors: vec![r] }, 0);
    // Directory untouched...
    let entry = e.directory().get(2).expect("entry exists");
    assert_eq!(entry.bloom_version, 1);
    assert_eq!(entry.payload, Some(SizedPayload { bytes: 3000 }));
    assert_eq!(e.stats().delta_chain_breaks, 1);
    // ...ack says "did not know", and the same batched exchange pulls
    // the full state from the sender.
    assert_eq!(responses.len(), 2);
    match &responses[0].1 {
        Msg::RumorAck { already_knew, .. } => assert_eq!(already_knew, &[false]),
        other => panic!("expected ack, got {other:?}"),
    }
    // Held 0/0, whatever we do hold: the reply must be the full filter.
    match &responses[1].1 {
        Msg::Pull { ids } => assert_eq!(ids, &[rid(2, 0, 0)]),
        other => panic!("expected fallback pull, got {other:?}"),
    }
    // The sender's PullReply completes the recovery.
    let state = PeerState {
        subject: 2,
        status_version: 1,
        bloom_version: 4,
        payload: Some(RumorPayload::Full(SizedPayload { bytes: 3400 })),
    };
    e.handle_message(
        1,
        Msg::PullReply {
            entries: vec![state],
        },
        0,
    );
    assert!(e.knows(id));
    assert_eq!(
        e.directory().get(2).expect("entry exists").payload,
        Some(SizedPayload { bytes: 3400 })
    );
}

#[test]
fn local_update_delta_rumors_the_diff_not_the_filter() {
    let mut e = engine_of(6, 0);
    e.local_update_delta(
        SizedPayload { bytes: 3100 },
        SizedDelta {
            bytes: 150,
            full_bytes: 3100,
        },
    );
    let Msg::Rumor { rumors } = tick_until_rumor(&mut e) else {
        unreachable!()
    };
    assert_eq!(rumors.len(), 1);
    match &rumors[0].payload {
        Some(RumorPayload::Delta(chain)) => {
            assert_eq!(chain.base_bloom_version, 1);
            assert_eq!(
                chain.steps,
                vec![SizedDelta {
                    bytes: 150,
                    full_bytes: 3100
                }]
            );
        }
        other => panic!("expected delta payload, got {other:?}"),
    }
    // rumor id + chain header + step, far below the 48 + 3100 full form.
    assert_eq!(rumors[0].wire_bytes(), 16 + 8 + 150);
    let s = e.stats();
    assert_eq!(s.deltas_sent, 1);
    assert_eq!(s.delta_full_fallbacks, 0);
    assert_eq!(s.delta_bytes_saved, (48 + 3100 - (16 + 8 + 150)) as u64);
}

#[test]
fn plain_local_update_falls_back_to_full_payload() {
    let mut e = engine_of(6, 0);
    e.local_update(SizedPayload { bytes: 3100 });
    let Msg::Rumor { rumors } = tick_until_rumor(&mut e) else {
        unreachable!()
    };
    assert!(matches!(
        rumors[0].payload,
        Some(RumorPayload::Full(SizedPayload { bytes: 3100 }))
    ));
    let s = e.stats();
    assert_eq!(s.deltas_sent, 0);
    assert_eq!(s.delta_full_fallbacks, 1);
}

#[test]
fn oversized_delta_chain_falls_back_to_full_form() {
    let mut e = engine_of(6, 0);
    // A "diff" bigger than the full filter: sending it would waste bytes.
    e.local_update_delta(
        SizedPayload { bytes: 3100 },
        SizedDelta {
            bytes: 50_000,
            full_bytes: 3100,
        },
    );
    let Msg::Rumor { rumors } = tick_until_rumor(&mut e) else {
        unreachable!()
    };
    assert!(matches!(rumors[0].payload, Some(RumorPayload::Full(_))));
    assert_eq!(e.stats().deltas_sent, 0);
    assert_eq!(e.stats().delta_full_fallbacks, 1);
}

#[test]
fn delta_updates_off_always_sends_full() {
    let cfg = GossipConfig {
        delta_updates: false,
        ..GossipConfig::default()
    };
    let mut dir = Directory::new();
    for id in 0..6 {
        dir.insert(id, entry(1, 1, 3000));
    }
    let mut e = Engine::with_directory(0, SpeedClass::Fast, cfg, 7, dir);
    e.local_update_delta(
        SizedPayload { bytes: 3100 },
        SizedDelta {
            bytes: 150,
            full_bytes: 3100,
        },
    );
    let Msg::Rumor { rumors } = tick_until_rumor(&mut e) else {
        unreachable!()
    };
    assert!(matches!(rumors[0].payload, Some(RumorPayload::Full(_))));
    let s = e.stats();
    assert_eq!(s.deltas_sent, 0);
    assert_eq!(
        s.delta_full_fallbacks, 0,
        "fallbacks are only counted when delta mode is on"
    );
}

#[test]
fn applied_chain_is_forwarded_as_a_delta() {
    let mut e = engine_of(6, 0);
    let r = delta_rumor(
        2,
        1,
        1,
        vec![SizedDelta {
            bytes: 120,
            full_bytes: 3100,
        }],
    );
    e.handle_message(1, Msg::Rumor { rumors: vec![r] }, 0);
    let Msg::Rumor { rumors } = tick_until_rumor(&mut e) else {
        unreachable!()
    };
    assert_eq!(rumors.len(), 1);
    assert!(
        matches!(
            &rumors[0].payload,
            Some(RumorPayload::Delta(c)) if c.base_bloom_version == 1
        ),
        "a receiver that applied a chain forwards the chain, not the full filter"
    );
}

#[test]
fn consecutive_local_deltas_chain_up_and_cover_stragglers() {
    let mut e = engine_of(5, 0);
    for i in 0..3u32 {
        e.local_update_delta(
            SizedPayload {
                bytes: 3000 + 100 * (i + 1),
            },
            SizedDelta {
                bytes: 100,
                full_bytes: 3000 + 100 * (i + 1),
            },
        );
    }
    // Chain now covers 1 -> 4; stragglers at any covered version are served.
    assert_eq!(e.delta_steps(0, 1, 1, 4).map(|s| s.len()), Some(3));
    assert_eq!(e.delta_steps(0, 1, 3, 4).map(|s| s.len()), Some(1));
    assert_eq!(e.delta_steps(0, 1, 0, 4), None, "below the chain base");
    let Msg::Rumor { rumors } = tick_until_rumor(&mut e) else {
        unreachable!()
    };
    match &rumors[0].payload {
        Some(RumorPayload::Delta(c)) => {
            assert_eq!(c.base_bloom_version, 1);
            assert_eq!(c.steps.len(), 3);
        }
        other => panic!("expected 3-step chain, got {other:?}"),
    }
}

#[test]
fn full_payload_news_invalidates_stored_chain() {
    let mut e = engine_of(5, 0);
    let r = delta_rumor(
        2,
        1,
        1,
        vec![SizedDelta {
            bytes: 120,
            full_bytes: 3100,
        }],
    );
    e.handle_message(1, Msg::Rumor { rumors: vec![r] }, 0);
    assert!(e.delta_steps(2, 1, 1, 2).is_some());
    // A full-payload rumor jumps the subject to bv 5: the chain no
    // longer ends at the entry's version and must be dropped.
    e.handle_message(
        1,
        Msg::Rumor {
            rumors: vec![rumor(2, 1, 5, 3500)],
        },
        0,
    );
    assert_eq!(e.delta_steps(2, 1, 1, 2), None);
}

#[test]
fn chain_length_is_capped_and_base_advances() {
    let cfg = GossipConfig {
        max_delta_chain: 2,
        ..GossipConfig::default()
    };
    let mut dir = Directory::new();
    for id in 0..4 {
        dir.insert(id, entry(1, 1, 3000));
    }
    let mut e = Engine::with_directory(0, SpeedClass::Fast, cfg, 7, dir);
    for _ in 0..5 {
        e.local_update_delta(
            SizedPayload { bytes: 3100 },
            SizedDelta {
                bytes: 100,
                full_bytes: 3100,
            },
        );
    }
    // bv is now 6; only the last two steps (4->5, 5->6) are kept.
    assert_eq!(e.delta_steps(0, 1, 4, 6).map(|s| s.len()), Some(2));
    assert_eq!(e.delta_steps(0, 1, 3, 6), None);
}

/// One-step delta number `i`, sized so a reply's steps name themselves.
fn step(i: u32) -> SizedDelta {
    SizedDelta {
        bytes: 100 + i,
        full_bytes: 3000 + i,
    }
}

/// Engine 0 of 5 after `k` one-step publishes: bloom_version 1 -> 1 + k,
/// the step leaving version `v` being `step(v)`.
fn publisher(cfg: GossipConfig, k: u32) -> Engine {
    let mut e = engine_with(5, 0, cfg);
    for v in 1..=k {
        e.local_update_delta(SizedPayload { bytes: 3000 + v }, step(v));
    }
    e
}

fn reply_entries(responses: Vec<(u32, Msg)>) -> Vec<PeerState<SizedPayload>> {
    match responses.into_iter().next() {
        Some((_, Msg::PullReply { entries })) | Some((_, Msg::AeReply { entries })) => entries,
        other => panic!("expected a reply, got {other:?}"),
    }
}

#[test]
fn pull_from_inside_the_chain_gets_exactly_the_missing_steps() {
    let mut s = publisher(GossipConfig::default(), 3); // chain 1 -> 4
    let missing = Some(RumorPayload::Delta(DeltaChain {
        base_bloom_version: 2,
        steps: vec![step(2), step(3)],
    }));
    let pulled = reply_entries(s.handle_message(
        1,
        Msg::Pull {
            ids: vec![rid(0, 1, 2)],
        },
        0,
    ));
    assert_eq!(pulled.len(), 1);
    assert_eq!((pulled[0].status_version, pulled[0].bloom_version), (1, 4));
    assert_eq!(pulled[0].payload, missing);
    // Anti-entropy asks the same question and gets the same answer.
    let pulled = reply_entries(s.handle_message(
        1,
        Msg::AePull {
            subjects: vec![rid(0, 1, 2)],
        },
        0,
    ));
    assert_eq!(pulled[0].payload, missing);
    // Replies are accounted like rumors.
    let stats = s.stats();
    assert_eq!(stats.deltas_sent, 2);
    assert_eq!(stats.delta_full_fallbacks, 0);
    assert_eq!(
        stats.delta_bytes_saved,
        2 * (48 + 3003 - (16 + 8 + 102 + 103)) as u64
    );
}

#[test]
fn pull_the_chain_cannot_serve_gets_the_full_filter() {
    let cfg = GossipConfig {
        max_delta_chain: 2,
        ..GossipConfig::default()
    };
    let mut s = publisher(cfg, 4); // bv 5, chain trimmed to 3 -> 5
    let held = vec![
        rid(0, 0, 0), // holds nothing (a joiner, or a broken chain)
        rid(0, 2, 4), // another incarnation
        rid(0, 1, 2), // older than the chain base
        rid(0, 1, 5), // nothing newer to send as steps
    ];
    let n = held.len() as u64;
    let pulled = reply_entries(s.handle_message(1, Msg::Pull { ids: held }, 0));
    for e in &pulled {
        assert_eq!(
            e.payload,
            Some(RumorPayload::Full(SizedPayload { bytes: 3004 }))
        );
    }
    assert_eq!(s.stats().deltas_sent, 0);
    assert_eq!(s.stats().delta_full_fallbacks, n);
    // The chain base itself is still served as steps.
    let pulled = reply_entries(s.handle_message(
        1,
        Msg::Pull {
            ids: vec![rid(0, 1, 3)],
        },
        0,
    ));
    assert!(matches!(
        &pulled[0].payload,
        Some(RumorPayload::Delta(c)) if c.base_bloom_version == 3 && c.steps.len() == 2
    ));
}

#[test]
fn pull_learner_keeps_the_chain_and_forwards_a_delta() {
    let mut s = publisher(GossipConfig::default(), 1);
    let mut b = engine_of(5, 1);
    // B hears the rumor first (chain 1 -> 2), then learns 2 -> 4 by pull.
    b.handle_message(0, tick_until_rumor(&mut s), 0);
    s.local_update_delta(SizedPayload { bytes: 3002 }, step(2));
    s.local_update_delta(SizedPayload { bytes: 3003 }, step(3));
    let pull = b.handle_message(
        0,
        Msg::AeRecent {
            ids: vec![rid(0, 1, 4)],
        },
        0,
    );
    assert_eq!(
        pull[0].1,
        Msg::Pull {
            ids: vec![rid(0, 1, 2)]
        }
    );
    let reply = s.handle_message(1, pull[0].1.clone(), 0);
    assert!(b.handle_message(0, reply[0].1.clone(), 0).is_empty());
    assert_eq!(
        b.directory().get(0).unwrap().payload,
        Some(SizedPayload { bytes: 3003 })
    );
    assert_eq!(b.stats().rumors_learned_partial_ae, 1);
    // The pulled steps extended the chain the rumor left, so B serves a
    // live query mirror (or a straggler) from version 1 on...
    assert_eq!(
        b.delta_steps(0, 1, 1, 4),
        Some(vec![step(1), step(2), step(3)])
    );
    // ...and what it forwards is the chain, not the filter.
    let Msg::Rumor { rumors } = tick_until_rumor(&mut b) else {
        unreachable!()
    };
    assert_eq!(rumors[0].id, rid(0, 1, 4));
    assert!(matches!(
        &rumors[0].payload,
        Some(RumorPayload::Delta(c)) if c.base_bloom_version == 1 && c.steps.len() == 3
    ));
    assert_eq!(b.stats().delta_full_fallbacks, 0);
}

#[test]
fn joiner_first_action_is_anti_entropy_to_bootstrap() {
    let mut j = Engine::new(
        5,
        SpeedClass::Fast,
        GossipConfig::default(),
        1,
        Some(SizedPayload { bytes: 16_000 }),
        Some((0, SpeedClass::Fast)),
    );
    let out = j.tick(30_000).expect("bootstrap known");
    assert_eq!(out.target, 0);
    assert!(
        matches!(out.message, Msg::AeRequest { .. }),
        "joiner must immediately download the directory"
    );
    // Next tick spreads the Join rumor.
    let out = j.tick(60_000).expect("still has the bootstrap");
    assert!(matches!(out.message, Msg::Rumor { .. }));
}

/// A toy filter whose deltas are XOR masks, like `BloomDiff`: applying
/// a step onto the wrong base silently yields wrong bits. A zero mask
/// (no real diff is one) stands for a corrupt step.
#[derive(Debug, Clone, Copy, PartialEq)]
struct XorBits(u64);

impl Payload for XorBits {
    type Delta = u64;
    fn wire_bytes(&self) -> usize {
        4_000
    }
    fn delta_wire_bytes(_: &u64) -> usize {
        100
    }
    fn apply_delta(&self, delta: &u64) -> Option<Self> {
        (*delta != 0).then_some(XorBits(self.0 ^ delta))
    }
}

/// Peer `me` of a stable `n`-peer community, every filter empty at
/// version (1, 1).
fn xor_engine(me: u32, n: u32, cfg: GossipConfig, seed: u64) -> GossipEngine<XorBits> {
    let mut dir = Directory::new();
    for id in 0..n {
        dir.insert(
            id,
            DirEntry {
                status_version: 1,
                bloom_version: 1,
                payload: Some(XorBits(0)),
                status: PeerStatus::Online,
                speed: SpeedClass::Fast,
            },
        );
    }
    GossipEngine::with_directory(me, SpeedClass::Fast, cfg, seed, dir)
}

#[test]
fn a_rumor_id_names_the_payload_it_carries_after_anti_entropy() {
    const S: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    let engine = |me: u32| xor_engine(me, 3, GossipConfig::default(), 7);
    let (mut s, mut b, mut c) = (engine(S), engine(B), engine(C));
    // Each publish sets one more bit: v2 = 0b001, v3 = 0b011, v4 = 0b111.
    let mut bits = 0;
    let mut publish = |s: &mut GossipEngine<XorBits>, bit: u64| {
        bits |= bit;
        s.local_update_delta(XorBits(bits), bit);
    };

    // 1. S publishes v2; its rumor, a delta, reaches B, which now
    //    spreads rumor (S, v2).
    publish(&mut s, 0b001);
    b.handle_message(S, tick_until_rumor(&mut s), 0);
    assert_eq!(b.directory().get(S).unwrap().bloom_version, 2);
    // 2. S publishes v3 and v4.
    publish(&mut s, 0b010);
    publish(&mut s, 0b100);
    // 3. B catches up to v4 by full anti-entropy with S — which, B
    //    holding v2, is a pull of the two steps it lacks.
    let mut to_b = s.handle_message(B, Message::AeRequest { digest: 0 }, 0);
    let mut to_s = b.handle_message(S, to_b.pop().unwrap().1, 0);
    to_b = s.handle_message(B, to_s.pop().unwrap().1, 0);
    let reply = to_b.pop().unwrap().1;
    match &reply {
        Message::AeReply { entries } => assert_eq!(
            entries[0].payload,
            Some(RumorPayload::Delta(DeltaChain {
                base_bloom_version: 2,
                steps: vec![0b010, 0b100],
            }))
        ),
        other => panic!("expected AeReply, got {other:?}"),
    }
    b.handle_message(S, reply, 0);
    assert_eq!(b.directory().get(S).unwrap().payload, Some(XorBits(0b111)));
    // 4. B's next rumor round reaches C, still at v1. Whatever id it
    //    carries must be the version of the payload beside it.
    let from_b = tick_until_rumor(&mut b);
    if let Message::Rumor { rumors } = &from_b {
        let about_s = rumors.iter().find(|r| r.id.subject == S).unwrap();
        assert_eq!(about_s.id.bloom_version, 4, "B holds v4 and must say so");
    }
    c.handle_message(B, from_b, 0);
    // 5. S's own rumor (S, v4), a chain v1 -> v4, reaches C.
    c.handle_message(S, tick_until_rumor(&mut s), 0);
    let at_c = c.directory().get(S).unwrap();
    assert_eq!(at_c.bloom_version, 4);
    assert_eq!(
        at_c.payload,
        Some(XorBits(0b111)),
        "C agrees on the version, so it must hold that version's bits"
    );
}

#[test]
fn corrupt_pulled_step_breaks_the_chain_and_the_full_re_pull_completes() {
    const S: u32 = 0;
    let mut s = xor_engine(S, 3, GossipConfig::default(), 7);
    let mut b = xor_engine(1, 3, GossipConfig::default(), 8);
    s.local_update_delta(XorBits(0b01), 0b01);
    s.local_update_delta(XorBits(0b11), 0b10);
    // A reply whose second step is corrupt reaches B.
    let bad = Message::PullReply {
        entries: vec![PeerState {
            subject: S,
            status_version: 1,
            bloom_version: 3,
            payload: Some(RumorPayload::Delta(DeltaChain {
                base_bloom_version: 1,
                steps: vec![0b01, 0],
            })),
        }],
    };
    let again = b.handle_message(S, bad, 0);
    // Nothing moved — not even by the step that did apply...
    let at_b = b.directory().get(S).unwrap();
    assert_eq!((at_b.bloom_version, at_b.payload), (1, Some(XorBits(0))));
    assert_eq!(b.delta_steps(S, 1, 1, 2), None);
    assert_eq!(b.stats().delta_chain_breaks, 1);
    assert_eq!(b.stats().rumors_learned_partial_ae, 0);
    // ...and B asks again as a peer that holds nothing,
    assert_eq!(again.len(), 1);
    assert_eq!(
        again[0].1,
        Message::Pull {
            ids: vec![rid(S, 0, 0)]
        }
    );
    // which S can only answer with the filter itself.
    let full = s.handle_message(1, again[0].1.clone(), 0);
    match &full[0].1 {
        Message::PullReply { entries } => {
            assert_eq!(entries[0].payload, Some(RumorPayload::Full(XorBits(0b11))))
        }
        other => panic!("expected PullReply, got {other:?}"),
    }
    assert!(b.handle_message(S, full[0].1.clone(), 0).is_empty());
    let at_b = b.directory().get(S).unwrap();
    assert_eq!((at_b.bloom_version, at_b.payload), (3, Some(XorBits(0b11))));
    assert_eq!(b.stats().rumors_learned_partial_ae, 1);
    // The same holds on the anti-entropy path.
    let mut c = xor_engine(2, 3, GossipConfig::default(), 9);
    let bad = Message::AeReply {
        entries: vec![PeerState {
            subject: S,
            status_version: 1,
            bloom_version: 2,
            payload: Some(RumorPayload::Delta(DeltaChain {
                base_bloom_version: 1,
                steps: vec![0],
            })),
        }],
    };
    let again = c.handle_message(S, bad, 0);
    assert_eq!(
        again[0].1,
        Message::AePull {
            subjects: vec![rid(S, 0, 0)]
        }
    );
    assert_eq!(c.directory().get(S).unwrap().bloom_version, 1);
}

/// splitmix64 — a seeded stream that does not depend on which `rand`
/// the build resolved.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Delta payloads a message carries, as (in rumors, in replies).
fn deltas_in(msg: &Message<XorBits>) -> (usize, usize) {
    let is_delta = |p: &Option<RumorPayload<XorBits>>| matches!(p, Some(RumorPayload::Delta(_)));
    match msg {
        Message::Rumor { rumors } => (rumors.iter().filter(|r| is_delta(&r.payload)).count(), 0),
        Message::PullReply { entries } | Message::AeReply { entries } => {
            (0, entries.iter().filter(|e| is_delta(&e.payload)).count())
        }
        _ => (0, 0),
    }
}

/// Five engines under a seeded schedule of publishes, rejoins, ticks,
/// out-of-order deliveries and drops, then left to settle. Throughout,
/// an engine that holds version `(sv, bv)` of a subject must hold the
/// bits the subject published as that version — so two engines at one
/// version agree, and equal digests mean equal filters. Returns the
/// delta payloads seen on the wire, as (in rumors, in replies).
fn random_schedule(seed: u64, delta_updates: bool) -> (usize, usize) {
    use std::collections::HashMap;
    const N: u32 = 5;
    let cfg = GossipConfig {
        delta_updates,
        max_delta_chain: 3,
        ..GossipConfig::default()
    };
    let mut engines: Vec<GossipEngine<XorBits>> = (0..N)
        .map(|me| xor_engine(me, N, cfg, seed ^ u64::from(me)))
        .collect();
    let mut published: HashMap<(u32, u64, u32), u64> = (0..N).map(|id| ((id, 1, 1), 0)).collect();
    let mut wire: Vec<(u32, u32, Message<XorBits>)> = Vec::new();
    let mut seen = (0, 0);
    let mut rng = Mix(seed);
    let mut now = 0;

    let check = |engines: &[GossipEngine<XorBits>], published: &HashMap<(u32, u64, u32), u64>| {
        for e in engines {
            for (subject, entry) in e.directory().iter() {
                let version = (subject, entry.status_version, entry.bloom_version);
                assert_eq!(
                    entry.payload.map(|p| p.0),
                    published.get(&version).copied(),
                    "seed {seed}: engine {} holds other bits than {version:?} was published with",
                    e.id()
                );
            }
        }
    };
    let mut send = |wire: &mut Vec<_>, from: u32, to: u32, msg: Message<XorBits>| {
        let (rumors, replies) = deltas_in(&msg);
        seen = (seen.0 + rumors, seen.1 + replies);
        wire.push((from, to, msg));
    };

    for _ in 0..4000 {
        let who = rng.below(N as usize);
        match rng.below(12) {
            0 | 1 => {
                let own = engines[who].directory().get(who as u32).unwrap();
                let (sv, bv, bits) = (
                    own.status_version,
                    own.bloom_version,
                    own.payload.unwrap().0,
                );
                let mask = 1u64 << rng.below(64);
                if rng.below(10) == 0 {
                    engines[who].local_rejoin(Some(XorBits(bits ^ mask)));
                    published.insert((who as u32, sv + 1, bv + 1), bits ^ mask);
                } else {
                    engines[who].local_update_delta(XorBits(bits ^ mask), mask);
                    published.insert((who as u32, sv, bv + 1), bits ^ mask);
                }
            }
            2..=5 => {
                now += 30_000;
                if let Some(out) = engines[who].tick(now) {
                    send(&mut wire, who as u32, out.target, out.message);
                }
            }
            6..=10 if !wire.is_empty() => {
                let (from, to, msg) = wire.swap_remove(rng.below(wire.len()));
                for (next, m) in engines[to as usize].handle_message(from, msg, now) {
                    send(&mut wire, to, next, m);
                }
            }
            _ if !wire.is_empty() => {
                wire.swap_remove(rng.below(wire.len()));
            }
            _ => {}
        }
        check(&engines, &published);
    }

    // Settle: no more publishes or losses; everything sent is delivered.
    let agree = |engines: &[GossipEngine<XorBits>]| {
        let d = engines[0].directory().digest();
        engines.iter().all(|e| e.directory().digest() == d)
    };
    for _ in 0..500 {
        if wire.is_empty() && agree(&engines) {
            break;
        }
        now += 30_000;
        for who in 0..N {
            if let Some(out) = engines[who as usize].tick(now) {
                send(&mut wire, who, out.target, out.message);
            }
        }
        while let Some((from, to, msg)) = wire.pop() {
            for (next, m) in engines[to as usize].handle_message(from, msg, now) {
                send(&mut wire, to, next, m);
            }
            check(&engines, &published);
        }
    }
    assert!(agree(&engines), "seed {seed}: digests never agreed");
    for e in &engines {
        for id in 0..N {
            let own = engines[id as usize].directory().get(id).unwrap().payload;
            assert_eq!(e.directory().get(id).unwrap().payload, own, "seed {seed}");
        }
    }
    seen
}

#[test]
fn one_version_means_one_filter_under_a_random_schedule() {
    let (mut in_rumors, mut in_replies) = (0, 0);
    for seed in 1..=12 {
        let seen = random_schedule(seed, true);
        in_rumors += seen.0;
        in_replies += seen.1;
    }
    assert!(
        in_rumors > 0 && in_replies > 0,
        "the schedules never took the delta paths ({in_rumors}, {in_replies})"
    );
}

#[test]
fn delta_updates_off_puts_no_delta_in_any_message() {
    for seed in 1..=3 {
        assert_eq!(random_schedule(seed, false), (0, 0), "seed {seed}");
    }
}
