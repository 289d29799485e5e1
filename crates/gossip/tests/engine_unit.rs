//! Focused unit tests of `GossipEngine` message handling — exercising
//! the state machine one message at a time, without a driver loop.

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
    let mut dir = Directory::new();
    for id in 0..n {
        dir.insert(id, entry(1, 1, 3000));
    }
    Engine::with_directory(me, SpeedClass::Fast, GossipConfig::default(), 7, dir)
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
    match &responses[0].1 {
        Msg::Pull { ids } => assert_eq!(ids, &[missing]),
        other => panic!("expected pull, got {other:?}"),
    }
    // The pull reply teaches us the new state.
    let state = planetp_gossip::messages::PeerState {
        subject: 3,
        status_version: 1,
        bloom_version: 2,
        payload: Some(SizedPayload { bytes: 3333 }),
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
        Msg::AePull { subjects } => assert_eq!(subjects, &[2]),
        other => panic!("expected pull, got {other:?}"),
    }
}

#[test]
fn ae_pull_returns_full_state() {
    let mut a = engine_of(4, 0);
    let responses = a.handle_message(
        2,
        Msg::AePull {
            subjects: vec![1, 3],
        },
        0,
    );
    match &responses[0].1 {
        Msg::AeReply { entries } => {
            assert_eq!(entries.len(), 2);
            assert!(entries.iter().all(|e| e.payload.is_some()));
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
        Msg::Pull { ids } => assert_eq!(ids, &[unknown]),
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
    match &responses[1].1 {
        Msg::Pull { ids } => assert_eq!(ids, &[id]),
        other => panic!("expected fallback pull, got {other:?}"),
    }
    // The sender's PullReply completes the recovery.
    let state = planetp_gossip::messages::PeerState {
        subject: 2,
        status_version: 1,
        bloom_version: 4,
        payload: Some(SizedPayload { bytes: 3400 }),
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
/// a step onto the wrong base silently yields wrong bits.
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
        Some(XorBits(self.0 ^ delta))
    }
}

#[test]
fn a_rumor_id_names_the_payload_it_carries_after_anti_entropy() {
    const S: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    let engine = |me: u32| {
        let mut dir = Directory::new();
        for id in [S, B, C] {
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
        GossipEngine::with_directory(me, SpeedClass::Fast, GossipConfig::default(), 7, dir)
    };
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
    // 3. B catches up to v4 by full anti-entropy with S.
    let mut to_b = s.handle_message(B, Message::AeRequest { digest: 0 }, 0);
    let mut to_s = b.handle_message(S, to_b.pop().unwrap().1, 0);
    to_b = s.handle_message(B, to_s.pop().unwrap().1, 0);
    let reply = to_b.pop().unwrap().1;
    assert!(matches!(reply, Message::AeReply { .. }));
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
