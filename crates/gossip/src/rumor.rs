//! Rumors: the unit of news spread by gossiping.
//!
//! Directory-changing events — "the joining of a new member, the rejoin
//! of a previously off-line member, and a change in a Bloom filter" (§3)
//! — each become a rumor. A rumor is news that some *subject* peer has
//! reached a given `(status_version, bloom_version)` pair; a peer
//! "already knows" a rumor if its directory entry for the subject is at
//! least that new, which makes rumor identity insensitive to the path
//! the news took.
//!
//! # Delta payloads
//!
//! A bloom-update rumor can carry either the subject's **full** payload
//! or a **delta chain**: consecutive single-step diffs taking
//! `base_bloom_version` to the rumor's `bloom_version`, valid only
//! within one `status_version` ("PlanetP sends diffs of the Bloom
//! filters to save bandwidth", §7.2). A receiver whose directory entry
//! sits anywhere inside the chain's range applies the matching suffix;
//! a receiver whose base is missing (or whose apply fails) pulls the
//! full payload via the existing `Pull`/`PullReply` machinery instead —
//! a broken chain can delay news, never corrupt it.
//!
//! Pull and anti-entropy replies carry the same two forms: a pull names
//! the version the requester holds, and the responder answers with the
//! chain suffix from that version when it has one (see
//! [`crate::messages::PeerState`]).

use crate::messages::{PEER_SUMMARY_BYTES, RUMOR_ID_BYTES};
use crate::PeerId;
use serde::{de::DeserializeOwned, Deserialize, Serialize};

/// Fixed wire overhead of a delta chain: the base version plus the step
/// count (the rumor id itself is counted separately).
pub const DELTA_CHAIN_HEADER_BYTES: usize = 8;

/// What a peer's shared state ("Bloom filter") looks like to the gossip
/// layer. The simulator uses [`SizedPayload`] stubs carrying only wire
/// sizes (the paper's own Table 2 methodology); the live runtime uses
/// real Golomb-compressed Bloom filters whose bloom updates travel as
/// `BloomDiff` deltas, with the full compressed filter as the fallback
/// form.
pub trait Payload: Clone + std::fmt::Debug + PartialEq {
    /// Compact wire form of the change between two *consecutive*
    /// `bloom_version`s of this payload.
    type Delta: Clone + std::fmt::Debug + PartialEq + Serialize + DeserializeOwned;

    /// Serialized size in bytes when carried in full in a rumor or a
    /// pull / anti-entropy reply.
    fn wire_bytes(&self) -> usize;

    /// Serialized size of one delta step.
    fn delta_wire_bytes(delta: &Self::Delta) -> usize;

    /// Apply a single delta step, producing the next version. `None`
    /// means the step cannot be applied (parameter mismatch, corrupt
    /// payload); the caller must fall back to pulling the full payload.
    fn apply_delta(&self, delta: &Self::Delta) -> Option<Self>;
}

/// A payload stub that models only its wire size — what the paper's own
/// simulator does via the Table 2 constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizedPayload {
    /// Bytes this payload occupies on the wire (u32 keeps directory
    /// entries small — simulations hold N² of these).
    pub bytes: u32,
}

/// Wire-size stub for one delta step between consecutive versions of a
/// [`SizedPayload`] (Table 2: a 1000-key diff ≈ 3000 bytes while the
/// full 20k-key filter ≈ 16000 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizedDelta {
    /// Bytes the delta occupies on the wire.
    pub bytes: u32,
    /// Bytes of the *resulting* full payload (what applying the delta
    /// yields), so the directory's stored size stays faithful.
    pub full_bytes: u32,
}

impl Payload for SizedPayload {
    type Delta = SizedDelta;

    fn wire_bytes(&self) -> usize {
        self.bytes as usize
    }

    fn delta_wire_bytes(delta: &SizedDelta) -> usize {
        delta.bytes as usize
    }

    fn apply_delta(&self, delta: &SizedDelta) -> Option<Self> {
        Some(SizedPayload {
            bytes: delta.full_bytes,
        })
    }
}

/// Globally unique rumor identity: the subject peer plus the version
/// pair the news announces. 16 bytes on the wire ("in order of tens of
/// bytes" for the m piggybacked ids, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RumorId {
    /// The peer the news is about.
    pub subject: PeerId,
    /// Subject's membership incarnation (bumped on join/rejoin).
    pub status_version: u64,
    /// Subject's Bloom filter version (bumped on index change). For a
    /// delta-carrying rumor this is the version the chain's last step
    /// produces.
    pub bloom_version: u32,
}

/// Why the rumor exists. Only affects wire size accounting and
/// diagnostics; staleness is decided by the version pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RumorKind {
    /// A brand-new member joined.
    Join,
    /// A previously known member came back online (no new content).
    Rejoin,
    /// A member's Bloom filter changed.
    BloomUpdate,
}

/// Consecutive single-step deltas: step `i` takes
/// `base_bloom_version + i` to `base_bloom_version + i + 1`, and the
/// whole chain lands on the carrying rumor's `bloom_version`. Only
/// meaningful within one `status_version` (the rumor id's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaChain<P: Payload> {
    /// `bloom_version` the first step applies to.
    pub base_bloom_version: u32,
    /// One delta per version bump, oldest first.
    pub steps: Vec<P::Delta>,
}

impl<P: Payload> DeltaChain<P> {
    /// Wire size: chain header plus every step.
    pub fn wire_bytes(&self) -> usize {
        DELTA_CHAIN_HEADER_BYTES
            + self
                .steps
                .iter()
                .map(|d| P::delta_wire_bytes(d))
                .sum::<usize>()
    }
}

/// The content a rumor or a pull / anti-entropy reply carries on the
/// wire: the subject's full payload, or a delta chain for receivers
/// that hold a version the chain covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RumorPayload<P: Payload> {
    /// Complete payload — joins, and the fallback when no stored chain
    /// covers the receiver's version (or the chain would be larger).
    Full(P),
    /// Delta chain ending at the carrying id's `bloom_version`.
    Delta(DeltaChain<P>),
}

impl<P: Payload> RumorPayload<P> {
    /// Bytes one directory entry occupies inside a message, in whichever
    /// form it travels. A full (or empty) entry costs the Table 2
    /// 48-byte peer summary plus its payload; a delta costs only the
    /// 16-byte rumor id, the chain header, and the steps — the delta
    /// wire form the paper's §7.2 bandwidth numbers assume.
    pub fn entry_wire_bytes(payload: Option<&Self>) -> usize {
        match payload {
            None => PEER_SUMMARY_BYTES,
            Some(RumorPayload::Full(p)) => PEER_SUMMARY_BYTES + p.wire_bytes(),
            Some(RumorPayload::Delta(chain)) => RUMOR_ID_BYTES + chain.wire_bytes(),
        }
    }
}

/// A rumor in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rumor<P: Payload> {
    /// Identity (subject + versions).
    pub id: RumorId,
    /// Event class.
    pub kind: RumorKind,
    /// The subject's current Bloom filter — full or as a delta chain —
    /// when the event carries content (Join and BloomUpdate do; Rejoin
    /// does not).
    pub payload: Option<RumorPayload<P>>,
}

impl<P: Payload> Rumor<P> {
    /// Bytes this rumor occupies inside a message (see
    /// [`RumorPayload::entry_wire_bytes`]).
    pub fn wire_bytes(&self) -> usize {
        RumorPayload::entry_wire_bytes(self.payload.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rumor(bytes: Option<usize>) -> Rumor<SizedPayload> {
        Rumor {
            id: RumorId {
                subject: 7,
                status_version: 1,
                bloom_version: 3,
            },
            kind: RumorKind::BloomUpdate,
            payload: bytes.map(|b| RumorPayload::Full(SizedPayload { bytes: b as u32 })),
        }
    }

    #[test]
    fn wire_bytes_includes_peer_summary() {
        assert_eq!(rumor(None).wire_bytes(), 48);
        assert_eq!(rumor(Some(3000)).wire_bytes(), 3048);
    }

    #[test]
    fn delta_rumor_charges_id_plus_chain() {
        let r: Rumor<SizedPayload> = Rumor {
            id: RumorId {
                subject: 7,
                status_version: 1,
                bloom_version: 5,
            },
            kind: RumorKind::BloomUpdate,
            payload: Some(RumorPayload::Delta(DeltaChain {
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
            })),
        };
        // rumor id + chain header + steps
        assert_eq!(r.wire_bytes(), 16 + 8 + 150 + 200);
    }

    #[test]
    fn sized_delta_applies_to_resulting_size() {
        let p = SizedPayload { bytes: 3000 };
        let next = p
            .apply_delta(&SizedDelta {
                bytes: 120,
                full_bytes: 3200,
            })
            .unwrap();
        assert_eq!(next, SizedPayload { bytes: 3200 });
    }

    #[test]
    fn rumor_ids_order_by_subject_then_versions() {
        let a = RumorId {
            subject: 1,
            status_version: 1,
            bloom_version: 0,
        };
        let b = RumorId {
            subject: 1,
            status_version: 2,
            bloom_version: 0,
        };
        let c = RumorId {
            subject: 2,
            status_version: 0,
            bloom_version: 0,
        };
        assert!(a < b && b < c);
    }
}
