//! Crash-safe persistence for the live node.
//!
//! The paper's model assumes peers cycle offline/online constantly
//! (§3: offline marking, T_Dead expiry, rejoin rumors), but the live
//! TCP runtime kept everything in memory — a process crash destroyed
//! the node's identity, documents, version pair, and learned
//! directory, forcing a cold re-join and (worse) letting a restarted
//! peer re-announce versions *below* what the community had already
//! gossiped, breaking the versioned-record invariant. This module is
//! the durability layer: an atomic, checksummed **snapshot +
//! append-only WAL** store under a data directory.
//!
//! ## On-disk layout
//!
//! - `snapshot.db` — one CRC frame ([`crate::wire::crc_frame_bytes`])
//!   holding the full [`NodeState`]. Written atomically: serialize →
//!   write to `snapshot.tmp` → fsync → rename → fsync the directory.
//! - `wal.log` — a sequence of CRC frames, one [`WalRecord`] each,
//!   fsynced per append. Replayed over the snapshot on recovery.
//!
//! ## Recovery
//!
//! Recovery is corruption-tolerant: the WAL is replayed until the
//! first frame that is torn, fails its checksum, or will not decode,
//! and the log is **truncated there** instead of erroring out — a torn
//! tail is exactly what a crash mid-append leaves, and everything
//! before it is intact by construction (each frame carries its own
//! CRC). A corrupt or half-written `snapshot.tmp` (crash before the
//! rename) is discarded; a corrupt `snapshot.db` falls back to WAL-only
//! recovery. Replay is idempotent, so a crash *after* the snapshot
//! rename but *before* the WAL truncate (records folded into the
//! snapshot still present in the log) reapplies harmlessly.
//!
//! ## Crash injection
//!
//! Every step of the write path passes a named
//! [`CrashPoint`](crate::faults::CrashPoint) check on the node's
//! [`FaultInjector`]. An injected crash aborts the operation exactly
//! there — leaving the same torn on-disk state a real kill would — and
//! **poisons** the store: further writes are refused, as they would be
//! from a dead process. The crash-loop harness
//! (`crates/core/tests/live_recovery.rs`) drives the full matrix.

use planetp_obs::{names, Counter, Registry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::faults::{CrashPoint, FaultInjector};
use crate::live::LivePayload;
use crate::wire::{crc_frame_bytes, read_crc_frame, CrcFrame};
use planetp_gossip::PeerId;

/// Configuration of the durable store.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Data directory (created if missing). One node per directory.
    pub dir: PathBuf,
    /// WAL records accumulated since the last snapshot before the log
    /// is compacted (snapshot written, WAL truncated).
    pub compact_after_records: u64,
}

impl DurableConfig {
    /// Store state under `dir` with the default compaction threshold.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            compact_after_records: 256,
        }
    }
}

/// Store counters, registered next to the node's other metrics so
/// `planetp stats` surfaces them.
#[derive(Debug)]
pub struct StoreMetrics {
    wal_records: Counter,
    wal_replays: Counter,
    truncated_tails: Counter,
    snapshots: Counter,
    compactions: Counter,
    wal_bytes: Counter,
    poisoned_writes: Counter,
}

impl StoreMetrics {
    /// Handles into `registry` under the `store.*` names.
    pub fn in_registry(registry: &Registry) -> Self {
        Self {
            wal_records: registry.counter(names::STORE_WAL_RECORDS),
            wal_replays: registry.counter(names::STORE_WAL_REPLAYS),
            truncated_tails: registry.counter(names::STORE_TRUNCATED_TAILS),
            snapshots: registry.counter(names::STORE_SNAPSHOTS),
            compactions: registry.counter(names::STORE_COMPACTIONS),
            wal_bytes: registry.counter(names::STORE_WAL_BYTES),
            poisoned_writes: registry.counter(names::STORE_POISONED_WRITES),
        }
    }

    /// Counters not attached to any registry (unit tests).
    pub fn detached() -> Self {
        Self::in_registry(&Registry::new())
    }
}

/// One peer's persisted directory entry: the versions we had learned
/// plus its payload (address + compressed filter), enough to rebuild
/// the query-side mirror and to know whom to contact for catch-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedPeer {
    /// Membership incarnation at persist time.
    pub status_version: u64,
    /// Filter version at persist time.
    pub bloom_version: u32,
    /// Address + compressed Bloom filter, if learned.
    pub payload: Option<LivePayload>,
}

/// Everything the store materializes: the snapshot content, kept
/// up to date by applying every WAL record as it is appended.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// The node's peer id; `None` until the identity record lands.
    pub id: Option<PeerId>,
    /// High-water mark of the node's own announced status version.
    pub status_version: u64,
    /// High-water mark of the node's own announced bloom version.
    pub bloom_version: u32,
    /// Next document id (ids are never reused across restarts).
    pub next_doc_id: u64,
    /// Published documents by id (raw XML; the index and filter are
    /// rebuilt from these on recovery).
    pub docs: BTreeMap<u64, String>,
    /// The learned global directory (never includes the node itself).
    pub peers: BTreeMap<PeerId, PersistedPeer>,
    /// Replicas hosted for other peers, keyed by *local* doc id. The
    /// XML itself lives in `docs` like any published document; this map
    /// carries the replication metadata so a restarted node resumes
    /// hosting (and advertising) exactly what it held before the crash.
    /// Absent in pre-replication stores (serde default keeps old
    /// snapshots readable).
    #[serde(default)]
    pub replicas: BTreeMap<u64, PersistedReplica>,
}

/// Replication metadata for one hosted replica ([`NodeState::replicas`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistedReplica {
    /// The document's home peer.
    pub home: PeerId,
    /// The document's id at the home peer.
    pub home_doc: u64,
    /// Content hash, identical across every copy.
    pub hash: u64,
}

impl NodeState {
    /// Apply one WAL record. Idempotent: replaying a record already
    /// folded into the state (snapshot-rename/WAL-truncate crash
    /// window) changes nothing.
    fn apply(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::Identity { id } => {
                self.id = Some(*id);
            }
            WalRecord::OwnVersions {
                status_version,
                bloom_version,
            } => {
                self.status_version = self.status_version.max(*status_version);
                self.bloom_version = self.bloom_version.max(*bloom_version);
            }
            WalRecord::Publish { doc, xml } => {
                self.docs.insert(*doc, xml.clone());
                self.next_doc_id = self.next_doc_id.max(doc + 1);
            }
            WalRecord::Unpublish { doc } => {
                self.docs.remove(doc);
                self.replicas.remove(doc);
            }
            WalRecord::ReplicaStored {
                doc,
                home,
                home_doc,
                hash,
                xml,
            } => {
                self.docs.insert(*doc, xml.clone());
                self.next_doc_id = self.next_doc_id.max(doc + 1);
                self.replicas.insert(
                    *doc,
                    PersistedReplica {
                        home: *home,
                        home_doc: *home_doc,
                        hash: *hash,
                    },
                );
            }
            WalRecord::ReplicaDropped { doc } => {
                self.docs.remove(doc);
                self.replicas.remove(doc);
            }
            WalRecord::PeerLearned {
                peer,
                status_version,
                bloom_version,
                payload,
            } => {
                if Some(*peer) == self.id {
                    return;
                }
                let newer = match self.peers.get(peer) {
                    Some(p) => {
                        (*status_version, *bloom_version) >= (p.status_version, p.bloom_version)
                    }
                    None => true,
                };
                if newer {
                    let entry = self.peers.entry(*peer).or_insert(PersistedPeer {
                        status_version: 0,
                        bloom_version: 0,
                        payload: None,
                    });
                    entry.status_version = *status_version;
                    entry.bloom_version = *bloom_version;
                    if payload.is_some() {
                        entry.payload = payload.clone();
                    }
                }
            }
            WalRecord::PeerDropped { peer } => {
                self.peers.remove(peer);
            }
        }
    }

    /// Internal-consistency check; the crash-loop harness requires
    /// every recovered state to pass it.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(&max_doc) = self.docs.keys().next_back() {
            if max_doc >= self.next_doc_id {
                return Err(format!(
                    "doc id {max_doc} >= next_doc_id {}",
                    self.next_doc_id
                ));
            }
        }
        if let Some(id) = self.id {
            if self.peers.contains_key(&id) {
                return Err(format!("directory contains the node itself ({id})"));
            }
        }
        for (peer, p) in &self.peers {
            if p.status_version == 0 && p.bloom_version == 0 && p.payload.is_none() {
                return Err(format!("peer {peer} entry carries no information"));
            }
        }
        for doc in self.replicas.keys() {
            if !self.docs.contains_key(doc) {
                return Err(format!("replica {doc} has no stored document"));
            }
        }
        Ok(())
    }
}

/// One append-only log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// The node's identity (first record of a fresh store).
    Identity {
        /// The node's peer id.
        id: PeerId,
    },
    /// The node's own announced version pair advanced.
    OwnVersions {
        /// Membership incarnation.
        status_version: u64,
        /// Filter version.
        bloom_version: u32,
    },
    /// A document was published locally.
    Publish {
        /// Store-assigned document id.
        doc: u64,
        /// The raw XML.
        xml: String,
    },
    /// A document was removed locally.
    Unpublish {
        /// The removed document id.
        doc: u64,
    },
    /// The gossip directory learned fresher state about a peer.
    PeerLearned {
        /// The subject peer.
        peer: PeerId,
        /// Its membership incarnation.
        status_version: u64,
        /// Its filter version.
        bloom_version: u32,
        /// Address + compressed filter, when known.
        payload: Option<LivePayload>,
    },
    /// A peer was dropped from the directory (T_Dead expiry).
    PeerDropped {
        /// The dropped peer.
        peer: PeerId,
    },
    /// A replica pushed by another peer was admitted and ingested.
    ReplicaStored {
        /// Local store-assigned document id.
        doc: u64,
        /// The document's home peer.
        home: PeerId,
        /// Its document id at the home peer.
        home_doc: u64,
        /// Content hash, identical across every copy.
        hash: u64,
        /// The raw XML.
        xml: String,
    },
    /// A hosted replica was evicted (capacity pressure).
    ReplicaDropped {
        /// The local document id of the evicted replica.
        doc: u64,
    },
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Was any prior state found (snapshot or WAL records)?
    pub recovered: bool,
    /// Did a valid snapshot load?
    pub snapshot_loaded: bool,
    /// WAL records replayed over the snapshot.
    pub wal_replays: u64,
    /// Was a corrupt/torn tail truncated off the WAL?
    pub truncated_tail: bool,
}

/// The snapshot + WAL store. Not thread-safe on its own; the live
/// runtime wraps it in a mutex.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    compact_after_records: u64,
    metrics: StoreMetrics,
    faults: Option<Arc<FaultInjector>>,
    /// WAL handle, open for append. `None` only mid-compaction.
    wal: Option<File>,
    state: NodeState,
    records_since_snapshot: u64,
    poisoned: bool,
    recovery: RecoveryInfo,
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.db")
}

fn snapshot_tmp_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.tmp")
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// fsync the directory so a rename/create survives a crash (no-op on
/// platforms where directories cannot be opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl DurableStore {
    /// Open (or create) the store under `config.dir`, running recovery:
    /// load the snapshot if valid, replay the WAL truncating at the
    /// first bad frame, and leave the log open for appends.
    pub fn open(
        config: DurableConfig,
        metrics: StoreMetrics,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let mut recovery = RecoveryInfo::default();
        let mut state = NodeState::default();

        // A leftover temp snapshot is a crash between write and rename:
        // the old snapshot (or WAL-only state) is authoritative.
        let tmp = snapshot_tmp_path(&config.dir);
        if tmp.exists() {
            let _ = std::fs::remove_file(&tmp);
        }

        let snap = snapshot_path(&config.dir);
        if snap.exists() {
            let mut r = BufReader::new(File::open(&snap)?);
            match read_crc_frame::<NodeState>(&mut r)? {
                CrcFrame::Ok(s, _) => {
                    state = s;
                    recovery.snapshot_loaded = true;
                    recovery.recovered = true;
                }
                CrcFrame::Eof => {}
                CrcFrame::Corrupt(_) => {
                    // Corrupt snapshot: fall back to WAL-only recovery
                    // rather than refusing to start.
                    metrics.truncated_tails.inc();
                    recovery.truncated_tail = true;
                }
            }
        }

        let wal = wal_path(&config.dir);
        if wal.exists() {
            let mut good_bytes: u64 = 0;
            let mut corrupt = false;
            {
                let mut r = BufReader::new(File::open(&wal)?);
                loop {
                    match read_crc_frame::<WalRecord>(&mut r)? {
                        CrcFrame::Ok(rec, size) => {
                            state.apply(&rec);
                            good_bytes += size as u64;
                            recovery.wal_replays += 1;
                            metrics.wal_replays.inc();
                            recovery.recovered = true;
                        }
                        CrcFrame::Eof => break,
                        CrcFrame::Corrupt(_) => {
                            corrupt = true;
                            break;
                        }
                    }
                }
            }
            if corrupt {
                // Truncate at the first bad frame: everything before it
                // carried a valid checksum, everything after it is the
                // debris of a torn write or bit rot.
                let f = OpenOptions::new().write(true).open(&wal)?;
                f.set_len(good_bytes)?;
                f.sync_all()?;
                metrics.truncated_tails.inc();
                recovery.truncated_tail = true;
            }
        }

        let wal_file = OpenOptions::new().create(true).append(true).open(&wal)?;
        sync_dir(&config.dir);
        Ok(Self {
            records_since_snapshot: recovery.wal_replays,
            dir: config.dir,
            compact_after_records: config.compact_after_records.max(1),
            metrics,
            faults,
            wal: Some(wal_file),
            state,
            poisoned: false,
            recovery,
        })
    }

    /// The materialized state (snapshot + applied WAL).
    pub fn state(&self) -> &NodeState {
        &self.state
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Has an (injected or real) crash poisoned this store? A poisoned
    /// store refuses writes, like the dead process it is simulating.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Validate the materialized state.
    pub fn validate(&self) -> Result<(), String> {
        self.state.validate()
    }

    fn crash_check(&mut self, point: CrashPoint) -> io::Result<()> {
        if let Some(f) = &self.faults {
            if let Err(e) = f.crash_check(point) {
                self.poisoned = true;
                return Err(e);
            }
        }
        Ok(())
    }

    fn poisoned_err(&self) -> io::Error {
        io::Error::other("durable store poisoned by an earlier crash")
    }

    /// Append one record: CRC-frame it, write, fsync, apply to the
    /// materialized state, and compact if the log passed the threshold.
    pub fn append(&mut self, rec: WalRecord) -> io::Result<()> {
        if self.poisoned {
            self.metrics.poisoned_writes.inc();
            return Err(self.poisoned_err());
        }
        self.crash_check(CrashPoint::WalBeforeWrite)?;
        let frame = crc_frame_bytes(&rec)?;
        let mid = self.crash_check(CrashPoint::WalMidWrite);
        let wal = self.wal.as_mut().expect("wal open outside compaction");
        if let Err(e) = mid {
            // Torn write: half the frame reaches the disk, then the
            // process dies. Recovery must truncate this tail.
            let _ = wal.write_all(&frame[..frame.len() / 2]);
            let _ = wal.sync_data();
            return Err(e);
        }
        wal.write_all(&frame)?;
        self.crash_check(CrashPoint::WalBeforeSync)?;
        self.wal.as_mut().unwrap().sync_data()?;
        self.state.apply(&rec);
        self.metrics.wal_records.inc();
        self.metrics.wal_bytes.add(frame.len() as u64);
        self.records_since_snapshot += 1;
        if self.records_since_snapshot >= self.compact_after_records {
            self.metrics.compactions.inc();
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Write the current state as an atomic snapshot and truncate the
    /// WAL. Called automatically past the compaction threshold and
    /// explicitly at recovered startup (to fold the replayed log and
    /// persist the bumped version pair immediately).
    pub fn write_snapshot(&mut self) -> io::Result<()> {
        if self.poisoned {
            self.metrics.poisoned_writes.inc();
            return Err(self.poisoned_err());
        }
        self.crash_check(CrashPoint::SnapshotBeforeWrite)?;
        let frame = crc_frame_bytes(&self.state)?;
        let tmp = snapshot_tmp_path(&self.dir);
        let mut f = File::create(&tmp)?;
        let mid = self.crash_check(CrashPoint::SnapshotMidWrite);
        if let Err(e) = mid {
            let _ = f.write_all(&frame[..frame.len() / 2]);
            let _ = f.sync_all();
            return Err(e);
        }
        f.write_all(&frame)?;
        self.crash_check(CrashPoint::SnapshotBeforeSync)?;
        f.sync_all()?;
        drop(f);
        self.crash_check(CrashPoint::SnapshotBeforeRename)?;
        std::fs::rename(&tmp, snapshot_path(&self.dir))?;
        sync_dir(&self.dir);
        self.crash_check(CrashPoint::WalBeforeTruncate)?;
        let wal = self.wal.as_mut().expect("wal open outside compaction");
        wal.set_len(0)?;
        wal.sync_all()?;
        self.records_since_snapshot = 0;
        self.metrics.snapshots.inc();
        Ok(())
    }

    /// Persist directory deltas: entries in `directory` whose versions
    /// advanced past the persisted copy are appended as
    /// [`WalRecord::PeerLearned`]; persisted peers missing from
    /// `directory` are appended as [`WalRecord::PeerDropped`]. The
    /// node's own entry is skipped (its versions travel via
    /// [`WalRecord::OwnVersions`]). Returns records appended.
    pub fn sync_directory(
        &mut self,
        directory: &[(PeerId, u64, u32, Option<LivePayload>)],
    ) -> io::Result<usize> {
        let own = self.state.id;
        let mut records: Vec<WalRecord> = Vec::new();
        for (peer, sv, bv, payload) in directory {
            if Some(*peer) == own {
                continue;
            }
            let stale = match self.state.peers.get(peer) {
                Some(p) => (*sv, *bv) > (p.status_version, p.bloom_version),
                None => true,
            };
            if stale {
                records.push(WalRecord::PeerLearned {
                    peer: *peer,
                    status_version: *sv,
                    bloom_version: *bv,
                    payload: payload.clone(),
                });
            }
        }
        for peer in self.state.peers.keys() {
            if !directory.iter().any(|(p, _, _, _)| p == peer) {
                records.push(WalRecord::PeerDropped { peer: *peer });
            }
        }
        let n = records.len();
        for rec in records {
            self.append(rec)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, StoreFaultRules};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "planetp-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(dir: &Path) -> DurableStore {
        DurableStore::open(DurableConfig::at(dir), StoreMetrics::detached(), None).expect("open")
    }

    fn seed_records(s: &mut DurableStore) {
        s.append(WalRecord::Identity { id: 3 }).unwrap();
        s.append(WalRecord::OwnVersions {
            status_version: 1,
            bloom_version: 1,
        })
        .unwrap();
        s.append(WalRecord::Publish {
            doc: 1,
            xml: "<a>alpha</a>".into(),
        })
        .unwrap();
        s.append(WalRecord::Publish {
            doc: 2,
            xml: "<b>beta</b>".into(),
        })
        .unwrap();
        s.append(WalRecord::PeerLearned {
            peer: 9,
            status_version: 2,
            bloom_version: 4,
            payload: None,
        })
        .unwrap();
    }

    #[test]
    fn fresh_store_roundtrips_through_restart() {
        let dir = tmpdir("roundtrip");
        let mut s = open(&dir);
        assert!(!s.recovery().recovered);
        seed_records(&mut s);
        let state = s.state().clone();
        drop(s);

        let s2 = open(&dir);
        assert!(s2.recovery().recovered);
        assert_eq!(s2.recovery().wal_replays, 5);
        assert!(!s2.recovery().truncated_tail);
        assert_eq!(*s2.state(), state);
        assert_eq!(s2.state().id, Some(3));
        assert_eq!(s2.state().next_doc_id, 3);
        s2.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_records_roundtrip_and_validate() {
        let dir = tmpdir("replica");
        let mut s = open(&dir);
        seed_records(&mut s);
        s.append(WalRecord::ReplicaStored {
            doc: 5,
            home: 9,
            home_doc: 2,
            hash: 0xFEED,
            xml: "<r>replicated</r>".into(),
        })
        .unwrap();
        s.append(WalRecord::ReplicaStored {
            doc: 6,
            home: 9,
            home_doc: 3,
            hash: 0xF00D,
            xml: "<r>evicted later</r>".into(),
        })
        .unwrap();
        s.append(WalRecord::ReplicaDropped { doc: 6 }).unwrap();
        let state = s.state().clone();
        drop(s);

        let s2 = open(&dir);
        assert_eq!(*s2.state(), state);
        // The surviving replica is both a stored doc and replica meta;
        // the dropped one is fully gone. next_doc_id cleared both ids.
        assert!(s2.state().docs.contains_key(&5));
        assert_eq!(
            s2.state().replicas.get(&5),
            Some(&PersistedReplica {
                home: 9,
                home_doc: 2,
                hash: 0xFEED
            })
        );
        assert!(!s2.state().docs.contains_key(&6));
        assert!(!s2.state().replicas.contains_key(&6));
        assert_eq!(s2.state().next_doc_id, 7);
        s2.validate().unwrap();

        // A replica without its document fails validation.
        let mut bad = s2.state().clone();
        bad.docs.remove(&5);
        assert!(bad.validate().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_wal_into_snapshot() {
        let dir = tmpdir("compact");
        let mut s = DurableStore::open(
            DurableConfig {
                dir: dir.clone(),
                compact_after_records: 4,
            },
            StoreMetrics::detached(),
            None,
        )
        .unwrap();
        seed_records(&mut s); // 5 records: compaction fires at 4
        assert!(snapshot_path(&dir).exists());
        let wal_len = std::fs::metadata(wal_path(&dir)).unwrap().len();
        // One record appended after the threshold compaction.
        assert!(
            wal_len > 0 && wal_len < 200,
            "wal holds one record: {wal_len}"
        );
        let state = s.state().clone();
        drop(s);

        let s2 = open(&dir);
        assert!(s2.recovery().snapshot_loaded);
        assert_eq!(s2.recovery().wal_replays, 1);
        assert_eq!(*s2.state(), state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        let mut s = open(&dir);
        seed_records(&mut s);
        drop(s);
        // Tear the last record: cut 5 bytes off the log tail.
        crate::faults::truncate_tail(&wal_path(&dir), 5).unwrap();

        let s2 = open(&dir);
        assert!(s2.recovery().truncated_tail);
        assert_eq!(s2.recovery().wal_replays, 4, "prefix replays");
        assert!(s2.state().peers.is_empty(), "torn record lost");
        assert_eq!(s2.state().docs.len(), 2, "intact records kept");
        s2.validate().unwrap();
        drop(s2);

        // The log was physically truncated: appending after recovery
        // yields a clean log again.
        let mut s3 = open(&dir);
        assert!(!s3.recovery().truncated_tail);
        s3.append(WalRecord::Unpublish { doc: 1 }).unwrap();
        drop(s3);
        let s4 = open(&dir);
        assert_eq!(s4.state().docs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_log_middle_keeps_only_prefix() {
        let dir = tmpdir("flip");
        let mut s = open(&dir);
        seed_records(&mut s);
        let len = std::fs::metadata(wal_path(&dir)).unwrap().len();
        drop(s);
        crate::faults::flip_tail_bit(&wal_path(&dir), len / 2).unwrap();

        let s2 = open(&dir);
        assert!(s2.recovery().truncated_tail);
        assert!(s2.recovery().wal_replays < 5);
        s2.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let dir = tmpdir("badsnap");
        let mut s = DurableStore::open(
            DurableConfig {
                dir: dir.clone(),
                compact_after_records: 4,
            },
            StoreMetrics::detached(),
            None,
        )
        .unwrap();
        seed_records(&mut s);
        drop(s);
        crate::faults::flip_tail_bit(&snapshot_path(&dir), 10).unwrap();

        let s2 = open(&dir);
        assert!(!s2.recovery().snapshot_loaded);
        assert!(s2.recovery().truncated_tail);
        // Only the post-compaction WAL record survives; the state is
        // partial but *valid* — the community re-teaches the rest.
        s2.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The full crash matrix: for every [`CrashPoint`], arm a one-shot
    /// crash, drive an operation into it, and assert (a) the operation
    /// errors and poisons the store, (b) reopening the directory
    /// recovers to a validated state that is either the pre-op or the
    /// post-op state — never something in between or corrupt.
    #[test]
    fn crash_matrix_every_point_recovers_validated() {
        for point in CrashPoint::ALL {
            let dir = tmpdir("matrix");
            let inj = Arc::new(FaultInjector::new(1, FaultPlan::default()));
            let mut s = DurableStore::open(
                // Threshold 3 so the 4th record triggers compaction and
                // walks the snapshot crash points too.
                DurableConfig {
                    dir: dir.clone(),
                    compact_after_records: 3,
                },
                StoreMetrics::detached(),
                Some(Arc::clone(&inj)),
            )
            .unwrap();
            s.append(WalRecord::Identity { id: 3 }).unwrap();
            s.append(WalRecord::Publish {
                doc: 1,
                xml: "<a>one</a>".into(),
            })
            .unwrap();
            let pre = s.state().clone();

            inj.arm_crash(point);
            // Two more records: the first completes or dies at a WAL
            // point; the second crosses the compaction threshold and
            // walks the snapshot path.
            let mut post = pre.clone();
            let r1 = s
                .append(WalRecord::Publish {
                    doc: 2,
                    xml: "<b>two</b>".into(),
                })
                .and_then(|()| {
                    post.apply(&WalRecord::Publish {
                        doc: 2,
                        xml: "<b>two</b>".into(),
                    });
                    s.append(WalRecord::OwnVersions {
                        status_version: 1,
                        bloom_version: 3,
                    })
                });
            if r1.is_ok() {
                post.apply(&WalRecord::OwnVersions {
                    status_version: 1,
                    bloom_version: 3,
                });
            }
            assert!(r1.is_err(), "{point:?}: armed crash must surface");
            assert!(s.poisoned(), "{point:?}: store must poison");
            assert!(
                s.append(WalRecord::Unpublish { doc: 1 }).is_err(),
                "{point:?}: poisoned store refuses writes"
            );
            drop(s);

            let s2 = open(&dir);
            s2.validate()
                .unwrap_or_else(|e| panic!("{point:?}: invalid recovery: {e}"));
            let got = s2.state();
            // All prefixes of [pre, pre+doc2, pre+doc2+versions] are
            // legal recovery targets depending on where the crash and
            // fsync landed; anything else is corruption.
            let mut mid = pre.clone();
            mid.apply(&WalRecord::Publish {
                doc: 2,
                xml: "<b>two</b>".into(),
            });
            assert!(
                *got == pre || *got == mid || *got == post,
                "{point:?}: recovered state matches no write boundary:\n{got:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Probabilistic chaos: hammer a store with random crash rolls;
    /// every reopen must validate and versions must never regress.
    #[test]
    fn random_crash_loop_never_regresses_versions() {
        let dir = tmpdir("chaos");
        let mut last_versions = (0u64, 0u32);
        let mut doc = 0u64;
        for round in 0..30u64 {
            let inj = Arc::new(
                FaultInjector::new(round, FaultPlan::default())
                    .with_store_rules(StoreFaultRules { crash: 0.08 }),
            );
            let mut s = DurableStore::open(
                DurableConfig {
                    dir: dir.clone(),
                    compact_after_records: 6,
                },
                StoreMetrics::detached(),
                Some(inj),
            )
            .unwrap();
            s.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            let st = s.state();
            assert!(
                (st.status_version, st.bloom_version) >= last_versions,
                "round {round}: versions regressed"
            );
            // The recovery contract: bump past the persisted high-water.
            let bumped = (st.status_version + 1, st.bloom_version + 1);
            let _ = s.append(WalRecord::Identity { id: 1 });
            if s.append(WalRecord::OwnVersions {
                status_version: bumped.0,
                bloom_version: bumped.1,
            })
            .is_ok()
            {
                // Only a *persisted* bump raises the floor the next
                // incarnation must clear (an append that died before
                // its fsync may or may not survive — either satisfies
                // the monotone check above).
                last_versions = bumped;
            }
            for _ in 0..5 {
                doc += 1;
                if s.append(WalRecord::Publish {
                    doc,
                    xml: format!("<d>doc {doc}</d>"),
                })
                .is_err()
                {
                    break;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_directory_appends_only_deltas() {
        let dir = tmpdir("dirsync");
        let mut s = open(&dir);
        s.append(WalRecord::Identity { id: 0 }).unwrap();
        let dir_v1 = vec![(1u32, 1u64, 1u32, None), (2, 1, 0, None), (0, 5, 5, None)];
        assert_eq!(s.sync_directory(&dir_v1).unwrap(), 2, "self skipped");
        assert_eq!(
            s.sync_directory(&dir_v1).unwrap(),
            0,
            "no change, no records"
        );
        // Peer 1 advances, peer 2 departs.
        let dir_v2 = vec![(1u32, 2u64, 3u32, None)];
        assert_eq!(s.sync_directory(&dir_v2).unwrap(), 2);
        assert_eq!(s.state().peers.len(), 1);
        assert_eq!(s.state().peers[&1].status_version, 2);
        drop(s);
        let s2 = open(&dir);
        assert_eq!(s2.state().peers.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
