//! Gossip protocol messages and their wire-size model.
//!
//! Sizes follow Table 2 of the paper: 3-byte message header, 48-byte
//! peer summary, 6-byte Bloom filter summary, and payload sizes carried
//! by the rumors themselves. The discrete-event simulator charges these
//! sizes against link bandwidth; the live runtime serializes the real
//! thing.

use crate::rumor::{Payload, Rumor, RumorId, RumorPayload};
use crate::PeerId;
use serde::{Deserialize, Serialize};

/// Per-message fixed header (Table 2: "Message header size 3 bytes").
pub const HEADER_BYTES: usize = 3;
/// Per-peer summary in anti-entropy summaries (Table 2: 48 bytes).
pub const PEER_SUMMARY_BYTES: usize = 48;
/// Per-peer Bloom filter summary in anti-entropy summaries (Table 2: 6 bytes).
pub const BF_SUMMARY_BYTES: usize = 6;
/// One rumor id in a partial anti-entropy piggyback (subject + versions).
pub const RUMOR_ID_BYTES: usize = 16;

/// Compact per-peer line of an anti-entropy summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerSummary {
    /// Which peer the line describes.
    pub subject: PeerId,
    /// Membership incarnation known to the sender.
    pub status_version: u64,
    /// Bloom filter version known to the sender.
    pub bloom_version: u32,
}

/// Per-peer state sent when a pull or anti-entropy finds the requester
/// stale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerState<P: Payload> {
    /// Which peer the state describes.
    pub subject: PeerId,
    /// Membership incarnation.
    pub status_version: u64,
    /// Bloom filter version.
    pub bloom_version: u32,
    /// The Bloom filter at that version: the delta chain from the
    /// version the requester said it holds when the responder has one,
    /// else the full filter (absent if the subject never shared one).
    pub payload: Option<RumorPayload<P>>,
}

impl<P: Payload> PeerState<P> {
    fn wire_bytes(&self) -> usize {
        RumorPayload::entry_wire_bytes(self.payload.as_ref())
    }
}

/// A gossip protocol message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message<P: Payload> {
    /// Push rumoring: the sender's active rumors.
    Rumor {
        /// Rumors being spread.
        rumors: Vec<Rumor<P>>,
    },
    /// Reply to `Rumor`: which rumors the receiver already knew (for the
    /// sender's death counters), plus the receiver's recently-retired
    /// rumor ids (partial anti-entropy; empty when disabled).
    RumorAck {
        /// `already_knew[i]` corresponds to `rumors[i]` of the request.
        already_knew: Vec<bool>,
        /// Ids of the last `m` rumors the responder retired.
        recent_ids: Vec<RumorId>,
    },
    /// Partial anti-entropy pull: request the current state of these
    /// subjects.
    Pull {
        /// Per subject, the `(status_version, bloom_version)` the sender
        /// *holds* (0/0 = nothing), so the reply can be the delta from
        /// there.
        ids: Vec<RumorId>,
    },
    /// Reply to `Pull`.
    PullReply {
        /// Current state of the pulled subjects.
        entries: Vec<PeerState<P>>,
    },
    /// Cheap idle-round exchange: the sender's directory digest. An
    /// identical target answers `AeEqual`; a differing one answers
    /// `AeRecent` with its recent rumor ids so the sender can pull just
    /// the latest changes (the partial-anti-entropy mechanism applied to
    /// the idle path).
    AePing {
        /// Digest of the sender's directory content.
        digest: u64,
    },
    /// Reply to `AePing` when directories differ: recently active /
    /// retired rumor ids, tens of bytes.
    AeRecent {
        /// Recent rumor ids known to the responder.
        ids: Vec<RumorId>,
    },
    /// Pull anti-entropy request; carries the sender's directory digest
    /// so an identical target can answer with a tiny `AeEqual`.
    AeRequest {
        /// Digest of the sender's directory content.
        digest: u64,
    },
    /// Anti-entropy short-circuit: directories already match.
    AeEqual,
    /// Anti-entropy summary of the responder's entire directory — the
    /// expensive message whose size grows with community size.
    AeSummary {
        /// One line per known peer.
        entries: Vec<PeerSummary>,
    },
    /// Request the current state of subjects the requester found stale.
    AePull {
        /// Subjects to fetch, each with the version the requester holds
        /// (as in `Pull`).
        subjects: Vec<RumorId>,
    },
    /// Reply with the requested state.
    AeReply {
        /// Current entries for the pulled subjects.
        entries: Vec<PeerState<P>>,
    },
    /// Push anti-entropy (the `AntiEntropyOnly` baseline): the sender's
    /// whole directory summary, unsolicited.
    AePush {
        /// One line per peer the sender knows.
        entries: Vec<PeerSummary>,
        /// Digest so the receiver can skip the pull when identical.
        digest: u64,
    },
}

impl<P: Payload> Message<P> {
    /// Bytes this message occupies on the wire under the Table 2 model.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES
            + match self {
                Message::Rumor { rumors } => rumors.iter().map(Rumor::wire_bytes).sum(),
                Message::RumorAck {
                    already_knew,
                    recent_ids,
                } => {
                    // Known flags pack to a bit each, rounded up.
                    already_knew.len().div_ceil(8) + recent_ids.len() * RUMOR_ID_BYTES
                }
                Message::Pull { ids } => ids.len() * RUMOR_ID_BYTES,
                Message::PullReply { entries } => entries.iter().map(PeerState::wire_bytes).sum(),
                Message::AePing { .. } => 8,
                Message::AeRecent { ids } => ids.len() * RUMOR_ID_BYTES,
                Message::AeRequest { .. } => 8,
                Message::AeEqual => 0,
                Message::AeSummary { entries } | Message::AePush { entries, .. } => {
                    entries.len() * (PEER_SUMMARY_BYTES + BF_SUMMARY_BYTES)
                }
                Message::AePull { subjects } => subjects.len() * RUMOR_ID_BYTES,
                Message::AeReply { entries } => entries.iter().map(PeerState::wire_bytes).sum(),
            }
    }

    /// Short tag for stats/tracing.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Rumor { .. } => "rumor",
            Message::RumorAck { .. } => "rumor_ack",
            Message::Pull { .. } => "pull",
            Message::PullReply { .. } => "pull_reply",
            Message::AePing { .. } => "ae_ping",
            Message::AeRecent { .. } => "ae_recent",
            Message::AeRequest { .. } => "ae_request",
            Message::AeEqual => "ae_equal",
            Message::AeSummary { .. } => "ae_summary",
            Message::AePull { .. } => "ae_pull",
            Message::AeReply { .. } => "ae_reply",
            Message::AePush { .. } => "ae_push",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::{DeltaChain, RumorKind, SizedDelta, SizedPayload};

    fn rumor(bytes: usize) -> Rumor<SizedPayload> {
        Rumor {
            id: RumorId {
                subject: 1,
                status_version: 1,
                bloom_version: 1,
            },
            kind: RumorKind::BloomUpdate,
            payload: Some(RumorPayload::Full(SizedPayload {
                bytes: bytes as u32,
            })),
        }
    }

    #[test]
    fn rumor_message_size() {
        let m: Message<SizedPayload> = Message::Rumor {
            rumors: vec![rumor(3000)],
        };
        // header + peer summary + payload
        assert_eq!(m.wire_bytes(), 3 + 48 + 3000);
    }

    #[test]
    fn ae_summary_scales_with_community_size() {
        let entries: Vec<PeerSummary> = (0..1000)
            .map(|i| PeerSummary {
                subject: i,
                status_version: 1,
                bloom_version: 1,
            })
            .collect();
        let m: Message<SizedPayload> = Message::AeSummary { entries };
        assert_eq!(m.wire_bytes(), 3 + 1000 * 54);
    }

    #[test]
    fn partial_ae_piggyback_is_tens_of_bytes() {
        let m: Message<SizedPayload> = Message::RumorAck {
            already_knew: vec![true, false],
            recent_ids: (0..4)
                .map(|i| RumorId {
                    subject: i,
                    status_version: 1,
                    bloom_version: 0,
                })
                .collect(),
        };
        let b = m.wire_bytes();
        assert!(b < 100, "{b} bytes");
    }

    fn held(subject: PeerId) -> RumorId {
        RumorId {
            subject,
            status_version: 1,
            bloom_version: 3,
        }
    }

    #[test]
    fn pulls_name_the_held_version_at_a_rumor_id_each() {
        let pull: Message<SizedPayload> = Message::Pull {
            ids: vec![held(1), held(2)],
        };
        let ae_pull: Message<SizedPayload> = Message::AePull {
            subjects: vec![held(1), held(2)],
        };
        assert_eq!(pull.wire_bytes(), 3 + 2 * 16);
        assert_eq!(ae_pull.wire_bytes(), 3 + 2 * 16);
    }

    #[test]
    fn reply_entries_are_priced_by_the_form_they_travel_in() {
        let state = |payload| PeerState::<SizedPayload> {
            subject: 1,
            status_version: 1,
            bloom_version: 5,
            payload,
        };
        let delta = state(Some(RumorPayload::Delta(DeltaChain {
            base_bloom_version: 3,
            steps: vec![
                SizedDelta {
                    bytes: 150,
                    full_bytes: 3000,
                },
                SizedDelta {
                    bytes: 200,
                    full_bytes: 3100,
                },
            ],
        })));
        let full = state(Some(RumorPayload::Full(SizedPayload { bytes: 3100 })));
        let bare = state(None);
        // rumor id + chain header + steps, exactly what a delta rumor costs.
        let m = Message::PullReply {
            entries: vec![delta.clone()],
        };
        assert_eq!(m.wire_bytes(), 3 + 16 + 8 + 150 + 200);
        let m = Message::AeReply {
            entries: vec![delta, full, bare],
        };
        assert_eq!(m.wire_bytes(), 3 + (16 + 8 + 150 + 200) + (48 + 3100) + 48);
    }

    #[test]
    fn ae_equal_is_tiny() {
        let m: Message<SizedPayload> = Message::AeEqual;
        assert_eq!(m.wire_bytes(), 3);
    }
}
