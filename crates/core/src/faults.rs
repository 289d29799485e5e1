//! Deterministic fault injection for the live TCP runtime.
//!
//! The paper evaluates PlanetP under heavy churn (§6.3): peers leave
//! mid-gossip and offline contacts cost a detection timeout. The
//! simulator models this directly; the live runtime needs faults
//! injected at the socket layer. A [`FaultInjector`] holds the policy
//! and no framing code: [`crate::live::LiveNode`] asks it whether to
//! admit a connection and whether to stall before a read, and the
//! production frame writer ([`crate::wire::send_frame`]) hands it every
//! finished frame to judge ([`FaultInjector::frame_fate`]) — write it
//! all, drop the connection mid-frame, truncate it, corrupt its body,
//! or lose a reply — driven by a seeded RNG, per direction (outbound =
//! connections this node initiates, inbound = connections it accepts).
//!
//! The injector is compiled into the runtime (not just tests): a node
//! configured without one pays a single `Option` check per operation.
//! All probabilistic choices come from one seeded RNG so a given seed
//! yields a reproducible fault schedule (modulo thread interleaving,
//! which only reorders draws).
//!
//! Beyond the socket layer, the injector also covers the durable
//! store's write path ([`crate::durable`]): every snapshot/WAL
//! operation passes named [`CrashPoint`]s (between serialize, write,
//! fsync, and rename), and the injector can simulate a process death
//! at any of them — the operation stops exactly there, leaving the
//! torn on-disk state a real crash would, and the store refuses
//! further writes as a dead process would. Helpers to truncate or
//! bit-flip a file tail complete the torn-write matrix for recovery
//! tests that mangle logs *between* process lifetimes.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which side of a connection an operation is on, from the perspective
/// of the node holding the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Connections this node initiates (gossip sends, search RPCs).
    Outbound,
    /// Connections this node accepts on its listener.
    Inbound,
}

/// Per-direction fault probabilities. All probabilities are in
/// `[0, 1]` and are rolled independently per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultRules {
    /// Probability a connection attempt (outbound) or accepted
    /// connection (inbound) is refused outright.
    pub refuse_connection: f64,
    /// Probability an operation is delayed by `delay_ms` first.
    pub delay: f64,
    /// The injected delay.
    pub delay_ms: u64,
    /// Probability a frame write stops halfway and the connection
    /// errors out (the peer sees a truncated body).
    pub drop_mid_frame: f64,
    /// Probability a frame write silently omits its final bytes and
    /// reports success (a crashed sender: the peer sees a short body,
    /// this side never learns).
    pub truncate_frame: f64,
    /// Probability frame body bytes are flipped before sending (the
    /// peer sees well-framed garbage).
    pub corrupt_frame: f64,
    /// Probability a correlated reply is silently never written (the
    /// server did the work, the client waits out its timeout on an
    /// otherwise healthy stream — a half-open exchange).
    pub drop_reply: f64,
    /// Probability a correlated reply goes out under a perturbed
    /// correlation id (a stale or misrouted reply: the receiving mux
    /// discards it as unknown and the real waiter times out).
    pub stale_corr_id: f64,
    /// Probability the server's admission gate forcibly sheds an
    /// inbound request — the caller receives `LiveMsg::Busy` exactly as
    /// under real overload. Lets tests drive the overload paths
    /// (uncharged health, busy throttle, `peers_shed` coverage)
    /// deterministically without saturating a real queue.
    pub force_busy: f64,
}

/// A full fault plan: one rule set per direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Faults on connections this node initiates.
    pub outbound: FaultRules,
    /// Faults on connections this node accepts.
    pub inbound: FaultRules,
}

impl FaultPlan {
    /// The same rules in both directions.
    pub fn symmetric(rules: FaultRules) -> Self {
        Self {
            outbound: rules,
            inbound: rules,
        }
    }
}

/// A named point in the durable store's write path where a process can
/// die. The store calls [`FaultInjector::crash_check`] at each one; an
/// injected crash aborts the operation exactly there, leaving on-disk
/// state as a real kill would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before any byte of a WAL record reaches the file.
    WalBeforeWrite,
    /// After the first half of a WAL record's frame is written (a torn
    /// record: the tail of the log fails its checksum on recovery).
    WalMidWrite,
    /// After the full record is written but before `fsync` (the bytes
    /// may or may not survive; on a real kill the page cache decides).
    WalBeforeSync,
    /// Before any byte of a snapshot reaches its temp file.
    SnapshotBeforeWrite,
    /// After half the snapshot's temp file is written (an invalid temp
    /// file that recovery must ignore).
    SnapshotMidWrite,
    /// After the temp file is complete but before it is fsynced.
    SnapshotBeforeSync,
    /// After fsync but before the atomic rename (old snapshot + full
    /// WAL still authoritative).
    SnapshotBeforeRename,
    /// After the rename but before the WAL is truncated (recovery sees
    /// the new snapshot plus records already folded into it — replay
    /// must be idempotent).
    WalBeforeTruncate,
}

impl CrashPoint {
    /// Every crash point, in write-path order (the crash-loop harness
    /// iterates these to cover the whole matrix).
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::WalBeforeWrite,
        CrashPoint::WalMidWrite,
        CrashPoint::WalBeforeSync,
        CrashPoint::SnapshotBeforeWrite,
        CrashPoint::SnapshotMidWrite,
        CrashPoint::SnapshotBeforeSync,
        CrashPoint::SnapshotBeforeRename,
        CrashPoint::WalBeforeTruncate,
    ];
}

/// Store-path fault rules: a probability that any given crash point
/// fires, checked independently per store operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreFaultRules {
    /// Probability a [`CrashPoint`] check simulates a process death.
    pub crash: f64,
}

/// One-shot armed crash state (deterministic harness control).
#[derive(Debug, Default)]
struct ArmedCrash {
    at: Mutex<Option<CrashPoint>>,
}

/// Counters of faults actually injected (for test assertions).
#[derive(Debug, Default)]
struct Counters {
    refused: AtomicU64,
    delayed: AtomicU64,
    dropped_mid_frame: AtomicU64,
    truncated: AtomicU64,
    corrupted: AtomicU64,
    dropped_replies: AtomicU64,
    stale_corr_ids: AtomicU64,
    crashes: AtomicU64,
    forced_busy: AtomicU64,
}

/// Snapshot of [`FaultInjector`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Connections refused.
    pub refused: u64,
    /// Operations delayed.
    pub delayed: u64,
    /// Frames dropped mid-write.
    pub dropped_mid_frame: u64,
    /// Frames silently truncated.
    pub truncated: u64,
    /// Frames corrupted.
    pub corrupted: u64,
    /// Correlated replies silently never written.
    pub dropped_replies: u64,
    /// Correlated replies sent under a perturbed id.
    pub stale_corr_ids: u64,
    /// Store-path crashes simulated.
    pub crashes: u64,
    /// Inbound requests forcibly shed with a `Busy` reply.
    pub forced_busy: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.refused
            + self.delayed
            + self.dropped_mid_frame
            + self.truncated
            + self.corrupted
            + self.dropped_replies
            + self.stale_corr_ids
            + self.crashes
            + self.forced_busy
    }
}

/// What becomes of a finished frame ([`FaultInjector::frame_fate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    /// Write the first `n` bytes and report `n` written: the whole
    /// frame, a silently shortened one, or nothing at all.
    Deliver(usize),
    /// Write the first `n` bytes, then fail the write with `BrokenPipe`.
    Break(usize),
}

/// The injector. Gates stream setup and judges finished frames; see
/// module docs.
pub struct FaultInjector {
    plan: FaultPlan,
    store: StoreFaultRules,
    armed: ArmedCrash,
    rng: Mutex<SmallRng>,
    counters: Counters,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector {
    /// Build an injector with the given RNG seed and plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        Self {
            plan,
            store: StoreFaultRules::default(),
            armed: ArmedCrash::default(),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            counters: Counters::default(),
        }
    }

    /// Add store-path fault rules (probabilistic crash points).
    pub fn with_store_rules(mut self, rules: StoreFaultRules) -> Self {
        self.store = rules;
        self
    }

    /// Arm a one-shot crash: the next [`Self::crash_check`] for exactly
    /// this point fires, once. Deterministic control for crash-loop
    /// harnesses that want to hit a *chosen* point.
    pub fn arm_crash(&self, point: CrashPoint) {
        *self.armed.at.lock() = Some(point);
    }

    /// Is a one-shot crash still armed (i.e. not yet consumed)?
    pub fn crash_armed(&self) -> bool {
        self.armed.at.lock().is_some()
    }

    /// The durable store calls this at every [`CrashPoint`]. `Err`
    /// means "the process just died here": the store aborts the
    /// operation mid-flight and poisons itself.
    pub fn crash_check(&self, point: CrashPoint) -> io::Result<()> {
        let armed = {
            let mut a = self.armed.at.lock();
            if *a == Some(point) {
                *a = None;
                true
            } else {
                false
            }
        };
        if armed || self.roll(self.store.crash) {
            self.counters.crashes.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(format!("injected crash at {point:?}")));
        }
        Ok(())
    }

    fn rules(&self, dir: Direction) -> &FaultRules {
        match dir {
            Direction::Outbound => &self.plan.outbound,
            Direction::Inbound => &self.plan.inbound,
        }
    }

    fn roll(&self, p: f64) -> bool {
        p > 0.0 && self.rng.lock().random::<f64>() < p
    }

    /// Counters of injected faults so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            refused: self.counters.refused.load(Ordering::Relaxed),
            delayed: self.counters.delayed.load(Ordering::Relaxed),
            dropped_mid_frame: self.counters.dropped_mid_frame.load(Ordering::Relaxed),
            truncated: self.counters.truncated.load(Ordering::Relaxed),
            corrupted: self.counters.corrupted.load(Ordering::Relaxed),
            dropped_replies: self.counters.dropped_replies.load(Ordering::Relaxed),
            stale_corr_ids: self.counters.stale_corr_ids.load(Ordering::Relaxed),
            crashes: self.counters.crashes.load(Ordering::Relaxed),
            forced_busy: self.counters.forced_busy.load(Ordering::Relaxed),
        }
    }

    /// Should the server's admission gate forcibly shed this request?
    /// Rolled once per served frame; a `true` is counted and the caller
    /// replies `Busy` exactly as under real overload.
    pub fn force_busy(&self, dir: Direction) -> bool {
        if self.roll(self.rules(dir).force_busy) {
            self.counters.forced_busy.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Gate a connection: refuse with the configured probability (the
    /// caller treats the error exactly like a real refused connect) and
    /// otherwise optionally delay it.
    pub fn admit(&self, dir: Direction) -> io::Result<()> {
        if self.roll(self.rules(dir).refuse_connection) {
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected connection refusal",
            ));
        }
        self.delay(dir);
        Ok(())
    }

    /// Delay the calling thread with the configured probability. Rolled
    /// before a connection is admitted, before a frame is judged, and —
    /// the hook callers use directly — before a frame is read.
    /// (Read-side corruption is covered by write-side faults on the
    /// other end.)
    pub(crate) fn delay(&self, dir: Direction) {
        let rules = self.rules(dir);
        if rules.delay_ms > 0 && self.roll(rules.delay) {
            self.counters.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(rules.delay_ms));
        }
    }

    /// Decide what becomes of one finished frame about to be written:
    /// `frame` is the production encoder's output
    /// ([`crate::wire::send_frame`]), its first `header_len` bytes the
    /// header, and `reply` says it is a correlated reply. Rules roll in
    /// a fixed order — delay, then for replies `drop_reply` (nothing is
    /// written, the sender is told 0 bytes: it did its work, only the
    /// reply vanishes) and `stale_corr_id` (the id is perturbed in
    /// place so the receiving mux cannot route it), then
    /// `drop_mid_frame` (header and half the body, then the write
    /// fails), `truncate_frame` (the last 7 body bytes never leave and
    /// the sender never learns), `corrupt_frame` (body bytes flipped in
    /// place; the header stays intact).
    pub(crate) fn frame_fate(
        &self,
        dir: Direction,
        frame: &mut [u8],
        header_len: usize,
        reply: bool,
    ) -> FrameFate {
        let rules = *self.rules(dir);
        let body_len = frame.len() - header_len;
        self.delay(dir);
        if reply {
            if self.roll(rules.drop_reply) {
                self.counters
                    .dropped_replies
                    .fetch_add(1, Ordering::Relaxed);
                return FrameFate::Deliver(0);
            }
            if self.roll(rules.stale_corr_id) {
                self.counters.stale_corr_ids.fetch_add(1, Ordering::Relaxed);
                for b in &mut frame[crate::wire::CORR_ID_RANGE] {
                    *b ^= 0x5A;
                }
            }
        }
        if self.roll(rules.drop_mid_frame) {
            self.counters
                .dropped_mid_frame
                .fetch_add(1, Ordering::Relaxed);
            return FrameFate::Break(header_len + body_len / 2);
        }
        if self.roll(rules.truncate_frame) {
            self.counters.truncated.fetch_add(1, Ordering::Relaxed);
            return FrameFate::Deliver(frame.len() - body_len.min(7));
        }
        if self.roll(rules.corrupt_frame) {
            self.counters.corrupted.fetch_add(1, Ordering::Relaxed);
            // xor with 0xA5 guarantees the byte changes.
            let mut rng = self.rng.lock();
            for _ in 0..body_len.min(3) {
                frame[rng.random_range(header_len..frame.len())] ^= 0xA5;
            }
        }
        FrameFate::Deliver(frame.len())
    }
}

// ----------------------------------------------------------------------
// Torn-write helpers (mangling files *between* process lifetimes)
// ----------------------------------------------------------------------

/// Truncate the last `n` bytes of a file (a crashed kernel or disk that
/// never persisted the tail). No-op on an empty file; truncating more
/// than the file holds empties it.
pub fn truncate_tail(path: &std::path::Path, n: u64) -> io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(n))?;
    f.sync_all()
}

/// Flip one bit `offset_from_end` bytes before the end of a file (bit
/// rot in the tail — the most recently written, least re-read region).
/// No-op if the file is shorter than the offset.
pub fn flip_tail_bit(path: &std::path::Path, offset_from_end: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let len = std::fs::metadata(path)?.len();
    if len <= offset_from_end {
        return Ok(());
    }
    let pos = len - 1 - offset_from_end;
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    f.seek(SeekFrom::Start(pos))?;
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte)?;
    byte[0] ^= 0x40;
    f.seek(SeekFrom::Start(pos))?;
    f.write_all(&byte)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusal_is_a_connection_refused_error() {
        let inj = FaultInjector::new(
            1,
            FaultPlan::symmetric(FaultRules {
                refuse_connection: 1.0,
                ..FaultRules::default()
            }),
        );
        let err = inj.admit(Direction::Outbound).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(inj.stats().refused, 1);
    }

    /// Every rule through the seam production uses —
    /// [`crate::wire::send_frame`] with an injector — for every header
    /// shape: one rule per fault, whatever the shape.
    #[test]
    fn each_rule_leaves_the_same_bytes_on_every_shape() {
        use crate::wire::{self, Frame, FrameMeta, Priority};
        const CORR: u64 = 1234;
        let value = [9u32; 100];
        let body_len = 201; // "[9,9,...,9]": odd, so floor and ceil differ
        let meta = FrameMeta::with_deadline(Priority::Interactive, 250);
        let shapes = [
            ("bare", None, None),
            ("correlated", Some(CORR), None),
            ("meta", Some(CORR), Some(meta)),
        ];
        let rule = |set: fn(&mut FaultRules)| {
            let mut r = FaultRules::default();
            set(&mut r);
            r
        };
        for (name, corr, meta) in shapes {
            let reply = corr.is_some() && meta.is_none();
            let mut clean = Vec::new();
            wire::send_frame(&mut clean, corr, meta, &value, None).unwrap();
            let header = clean.len() - body_len;
            let send = |rules: FaultRules| {
                let inj = FaultInjector::new(7, FaultPlan::symmetric(rules));
                let mut out = Vec::new();
                let faults = Some((&inj, Direction::Outbound));
                let res = wire::send_frame(&mut out, corr, meta, &value, faults);
                (res.map_err(|e| e.kind()), out, inj.stats())
            };
            let only = |count: u64, of: u64, stats: FaultStats| {
                assert_eq!((count, stats.total()), (of, of), "{name}: {stats:?}");
            };

            let (res, out, stats) = send(FaultRules::default());
            assert_eq!((res, &out), (Ok(clean.len()), &clean), "{name}: no rule");
            only(0, 0, stats);

            let (res, out, stats) = send(rule(|r| (r.delay, r.delay_ms) = (1.0, 1)));
            assert_eq!((res, &out), (Ok(clean.len()), &clean), "{name}: delay");
            only(stats.delayed, 1, stats);

            // Header and floor(body/2), then the write fails.
            let (res, out, stats) = send(rule(|r| r.drop_mid_frame = 1.0));
            assert_eq!(res, Err(io::ErrorKind::BrokenPipe), "{name}: drop");
            assert_eq!(out, clean[..header + body_len / 2], "{name}: drop");
            only(stats.dropped_mid_frame, 1, stats);

            // The last 7 bytes never leave; the sender is told they did.
            let (res, out, stats) = send(rule(|r| r.truncate_frame = 1.0));
            assert_eq!(res, Ok(clean.len() - 7), "{name}: truncate");
            assert_eq!(out, clean[..clean.len() - 7], "{name}: truncate");
            only(stats.truncated, 1, stats);

            // Well-framed garbage: header intact, 1–3 body bytes flipped.
            let (res, out, stats) = send(rule(|r| r.corrupt_frame = 1.0));
            assert_eq!(res, Ok(clean.len()), "{name}: corrupt");
            assert_eq!(out[..header], clean[..header], "{name}: corrupt");
            let flipped = out.iter().zip(&clean).filter(|(a, b)| a != b).count();
            assert!((1..=3).contains(&flipped), "{name}: {flipped} flipped");
            only(stats.corrupted, 1, stats);

            // The reply-only rules touch replies and nothing else.
            let (res, out, stats) = send(rule(|r| r.drop_reply = 1.0));
            if reply {
                assert_eq!((res, out.len()), (Ok(0), 0), "{name}: drop_reply");
                only(stats.dropped_replies, 1, stats);
            } else {
                assert_eq!((res, &out), (Ok(clean.len()), &clean), "{name}");
                only(0, 0, stats);
            }
            let (res, out, stats) = send(rule(|r| r.stale_corr_id = 1.0));
            assert_eq!(res, Ok(clean.len()), "{name}: stale_corr_id");
            if reply {
                let (frame, _, _) = wire::read_any_frame_meta_sized::<Vec<u32>>(&mut &out[..])
                    .unwrap()
                    .expect("still a valid frame");
                let stale = CORR ^ 0x5A5A_5A5A_5A5A_5A5A;
                assert_eq!(frame, Frame::Correlated(stale, value.to_vec()));
                only(stats.stale_corr_ids, 1, stats);
            } else {
                assert_eq!(out, clean, "{name}: stale_corr_id");
                only(0, 0, stats);
            }
        }
    }

    #[test]
    fn a_body_shorter_than_the_truncation_keeps_its_header() {
        let inj = FaultInjector::new(
            13,
            FaultPlan::symmetric(FaultRules {
                truncate_frame: 1.0,
                ..FaultRules::default()
            }),
        );
        let mut frame = *b"HDR[1]";
        assert_eq!(
            inj.frame_fate(Direction::Inbound, &mut frame, 3, false),
            FrameFate::Deliver(3)
        );
        // Nothing to corrupt or halve in an empty body either.
        let inj = FaultInjector::new(
            14,
            FaultPlan::symmetric(FaultRules {
                corrupt_frame: 1.0,
                ..FaultRules::default()
            }),
        );
        let mut frame = *b"HDR";
        assert_eq!(
            inj.frame_fate(Direction::Inbound, &mut frame, 3, false),
            FrameFate::Deliver(3)
        );
        assert_eq!(&frame, b"HDR");
    }

    #[test]
    fn force_busy_is_seeded_and_counted() {
        let plan = FaultPlan::symmetric(FaultRules {
            force_busy: 0.5,
            ..FaultRules::default()
        });
        let a = FaultInjector::new(77, plan);
        let b = FaultInjector::new(77, plan);
        let seq_a: Vec<bool> = (0..64).map(|_| a.force_busy(Direction::Inbound)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.force_busy(Direction::Inbound)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|x| *x) && seq_a.iter().any(|x| !*x));
        let forced = seq_a.iter().filter(|x| **x).count() as u64;
        assert_eq!(a.stats().forced_busy, forced);
        // A zero-probability injector never forces.
        let clean = FaultInjector::new(1, FaultPlan::default());
        assert!((0..32).all(|_| !clean.force_busy(Direction::Inbound)));
    }

    #[test]
    fn armed_crash_fires_once_at_its_point_only() {
        let inj = FaultInjector::new(11, FaultPlan::default());
        inj.arm_crash(CrashPoint::SnapshotBeforeRename);
        // Other points pass untouched.
        assert!(inj.crash_check(CrashPoint::WalBeforeWrite).is_ok());
        assert!(inj.crash_armed());
        // The armed point fires exactly once.
        assert!(inj.crash_check(CrashPoint::SnapshotBeforeRename).is_err());
        assert!(!inj.crash_armed());
        assert!(inj.crash_check(CrashPoint::SnapshotBeforeRename).is_ok());
        assert_eq!(inj.stats().crashes, 1);
    }

    #[test]
    fn probabilistic_crashes_are_seeded() {
        let rules = StoreFaultRules { crash: 0.5 };
        let a = FaultInjector::new(42, FaultPlan::default()).with_store_rules(rules);
        let b = FaultInjector::new(42, FaultPlan::default()).with_store_rules(rules);
        let seq_a: Vec<bool> = (0..64)
            .map(|_| a.crash_check(CrashPoint::WalBeforeSync).is_ok())
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|_| b.crash_check(CrashPoint::WalBeforeSync).is_ok())
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|ok| *ok) && seq_a.iter().any(|ok| !*ok));
    }

    #[test]
    fn tail_manglers_truncate_and_flip() {
        let dir = std::env::temp_dir().join(format!(
            "planetp-faults-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();
        truncate_tail(&path, 6).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 10);
        flip_tail_bit(&path, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[9], 0x40, "last byte flipped");
        assert!(bytes[..9].iter().all(|&b| b == 0));
        // Over-truncation empties; flipping an empty file is a no-op.
        truncate_tail(&path, 1_000).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        flip_tail_bit(&path, 0).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let plan = FaultPlan::symmetric(FaultRules {
            refuse_connection: 0.5,
            ..FaultRules::default()
        });
        let a = FaultInjector::new(99, plan);
        let b = FaultInjector::new(99, plan);
        let seq_a: Vec<bool> = (0..64)
            .map(|_| a.admit(Direction::Outbound).is_ok())
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|_| b.admit(Direction::Outbound).is_ok())
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|ok| *ok) && seq_a.iter().any(|ok| !*ok));
    }
}
