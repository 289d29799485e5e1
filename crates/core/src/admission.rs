//! Prioritized admission control for the live server.
//!
//! A saturated PlanetP node used to admit every inbound frame: replica
//! pushes queued behind interactive searches, workers burned CPU on
//! replies whose callers had already timed out, and overload showed up
//! as client-side timeouts — indistinguishable from a dead peer. This
//! module puts a bounded, class-aware gate in front of frame service:
//!
//! - every request is classified ([`crate::wire::Priority`]) either by
//!   the metadata its sender attached or by its message type;
//! - requests wait in per-class FIFO queues under one shared bound;
//!   grants always go to the highest class first;
//! - when the bound is hit, the *lowest*-class queued work is shed
//!   first (Background, then Control) — and never silently: every shed
//!   request is answered with `LiveMsg::Busy` carrying a retry hint;
//! - a request whose propagated deadline passes while it waits is
//!   dropped without service (its caller has already given up).
//!
//! The decision logic lives in the clock-free [`AdmissionState`] so
//! property tests can drive arbitrary schedules; [`AdmissionGate`]
//! wraps it with real blocking for the server's connection readers.

use crate::wire::Priority;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Tuning for the admission gate.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Master switch. Off = every frame is served immediately, exactly
    /// the pre-admission behavior.
    pub enabled: bool,
    /// Requests concurrently in service (granted, not yet completed).
    pub max_active: usize,
    /// Total queued requests across all classes. Arrivals beyond this
    /// trigger shedding (or unbounded queueing when `shedding` is off).
    pub queue_capacity: usize,
    /// Shed on overflow and reply `Busy`. Off (`--no-shedding`) keeps
    /// the bounded-queue accounting but never refuses work — the
    /// pre-admission collapse mode, kept for comparison benchmarks.
    pub shedding: bool,
    /// Longest a request may wait queued before it is shed anyway.
    /// Bounds how long a connection reader can be parked on the gate.
    pub max_wait_ms: u64,
    /// Base retry hint advertised in `Busy` replies.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_active: 4,
            queue_capacity: 32,
            shedding: true,
            max_wait_ms: 500,
            retry_after_ms: 200,
        }
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// Queued under this ticket id.
    Queued(u64),
    /// Refused on arrival — reply `Busy`.
    Shed,
}

/// The clock-free decision core: per-class FIFOs under one shared
/// bound, strict-priority grants, lowest-class-first eviction. All
/// timestamps are caller-supplied ms so tests control time.
#[derive(Debug)]
pub struct AdmissionState {
    queues: [VecDeque<(u64, u64)>; 3], // (ticket, enqueued_at_ms), indexed by class wire byte
    active: usize,
    max_active: usize,
    queue_capacity: usize,
    shedding: bool,
    next_ticket: u64,
}

impl AdmissionState {
    /// Empty state with the given limits.
    pub fn new(max_active: usize, queue_capacity: usize, shedding: bool) -> Self {
        Self {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            active: 0,
            max_active: max_active.max(1),
            queue_capacity,
            shedding,
            next_ticket: 1,
        }
    }

    /// Requests currently queued across all classes.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Requests granted and not yet completed.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Add an arrival of `class`. Returns its fate plus, possibly, the
    /// ticket of a queued lower-class request evicted to make room —
    /// the caller must answer that ticket with `Busy` (nothing is shed
    /// silently).
    pub fn enqueue(&mut self, class: Priority, now_ms: u64) -> (Enqueued, Option<u64>) {
        let mut evicted = None;
        if self.queued() >= self.queue_capacity && self.shedding {
            // Walk shed order: Background first, then Control. Evict
            // only work of a class strictly below the arrival; if
            // nothing lower is queued, the arrival itself is shed.
            let victim_class = Priority::ALL
                .iter()
                .rev()
                .find(|c| **c > class && !self.queues[c.to_wire() as usize].is_empty())
                .copied();
            match victim_class {
                Some(victim) => {
                    // Newest first: the victim waited least, loses least.
                    let (ticket, _) = self.queues[victim.to_wire() as usize]
                        .pop_back()
                        .expect("victim queue checked non-empty");
                    evicted = Some(ticket);
                }
                None => return (Enqueued::Shed, None),
            }
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queues[class.to_wire() as usize].push_back((ticket, now_ms));
        (Enqueued::Queued(ticket), evicted)
    }

    /// Grant the next request if a service slot is free: the front of
    /// the highest-priority non-empty queue. Returns the ticket, its
    /// queue wait in ms, and its class.
    pub fn grant_next(&mut self, now_ms: u64) -> Option<(u64, u64, Priority)> {
        if self.active >= self.max_active {
            return None;
        }
        for class in Priority::ALL {
            if let Some((ticket, at)) = self.queues[class.to_wire() as usize].pop_front() {
                self.active += 1;
                return Some((ticket, now_ms.saturating_sub(at), class));
            }
        }
        None
    }

    /// One granted request finished service.
    pub fn complete(&mut self) {
        self.active = self.active.saturating_sub(1);
    }

    /// Remove a still-queued ticket (its waiter gave up: deadline or
    /// max wait). True if it was found.
    pub fn cancel(&mut self, ticket: u64) -> bool {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|(t, _)| *t == ticket) {
                q.remove(pos);
                return true;
            }
        }
        false
    }
}

/// Outcome of [`AdmissionGate::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve the request, then call [`AdmissionGate::complete`].
    Admitted {
        /// Time spent queued before the grant.
        queue_wait: Duration,
    },
    /// Refused — reply `Busy { retry_after_ms, .. }`.
    Shed {
        /// Backoff hint to advertise.
        retry_after_ms: u64,
    },
    /// The propagated deadline passed while queued — drop the frame,
    /// the caller has already timed out.
    Expired,
}

struct GateInner {
    core: AdmissionState,
    granted: HashMap<u64, u64>,
    evicted: HashSet<u64>,
}

/// Blocking wrapper around [`AdmissionState`] for the server's
/// connection readers.
pub struct AdmissionGate {
    inner: Mutex<GateInner>,
    cv: Condvar,
    config: AdmissionConfig,
    start: Instant,
}

impl std::fmt::Debug for AdmissionGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGate")
            .field("config", &self.config)
            .finish()
    }
}

impl AdmissionGate {
    /// Gate with the given tuning.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            inner: Mutex::new(GateInner {
                core: AdmissionState::new(
                    config.max_active,
                    config.queue_capacity,
                    config.shedding,
                ),
                granted: HashMap::new(),
                evicted: HashSet::new(),
            }),
            cv: Condvar::new(),
            config,
            start: Instant::now(),
        }
    }

    /// The gate's tuning.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Backoff hint for `Busy` replies: the configured base, doubled
    /// while the queue is saturated so backed-off clients spread out.
    pub fn retry_after_ms(&self) -> u64 {
        let base = self.config.retry_after_ms.max(1);
        let inner = self.inner.lock();
        if inner.core.queued() >= self.config.queue_capacity {
            base * 2
        } else {
            base
        }
    }

    /// Ask to serve one request of `class`. Blocks until a service slot
    /// is granted, the request is shed (overflow eviction or max wait),
    /// or `deadline` passes. On `Admitted`, the caller serves and then
    /// calls [`Self::complete`].
    pub fn admit(&self, class: Priority, deadline: Option<Instant>) -> Admission {
        if !self.config.enabled {
            return Admission::Admitted {
                queue_wait: Duration::ZERO,
            };
        }
        let shed = |gate: &Self| Admission::Shed {
            retry_after_ms: gate.config.retry_after_ms.max(1),
        };
        let mut inner = self.inner.lock();
        let (result, evicted) = inner.core.enqueue(class, self.now_ms());
        if let Some(ticket) = evicted {
            inner.evicted.insert(ticket);
            // Wake the evicted waiter now: it must turn around and
            // reply `Busy` immediately, not at its wait cap.
            self.cv.notify_all();
        }
        let ticket = match result {
            Enqueued::Shed => return shed(self),
            Enqueued::Queued(t) => t,
        };
        let wait_cap = Instant::now() + Duration::from_millis(self.config.max_wait_ms.max(1));
        let wake_at = match deadline {
            Some(d) => d.min(wait_cap),
            None => wait_cap,
        };
        loop {
            // Any waiter may hand out grants; waiters then claim theirs.
            let now = self.now_ms();
            let mut woke_someone = false;
            while let Some((id, wait, _)) = inner.core.grant_next(now) {
                inner.granted.insert(id, wait);
                woke_someone = true;
            }
            if woke_someone {
                self.cv.notify_all();
            }
            if let Some(wait) = inner.granted.remove(&ticket) {
                return Admission::Admitted {
                    queue_wait: Duration::from_millis(wait),
                };
            }
            if inner.evicted.remove(&ticket) {
                return shed(self);
            }
            let now_i = Instant::now();
            if now_i >= wake_at {
                inner.core.cancel(ticket);
                // A grant may have raced in while we timed out; honor it.
                if let Some(wait) = inner.granted.remove(&ticket) {
                    return Admission::Admitted {
                        queue_wait: Duration::from_millis(wait),
                    };
                }
                return if deadline.is_some_and(|d| now_i >= d) {
                    Admission::Expired
                } else {
                    shed(self)
                };
            }
            let _ = self.cv.wait_until(&mut inner, wake_at);
        }
    }

    /// One admitted request finished service: free its slot and hand
    /// out any grants that unblocks.
    pub fn complete(&self) {
        if !self.config.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        inner.core.complete();
        let now = self.now_ms();
        let mut woke = false;
        while let Some((id, wait, _)) = inner.core.grant_next(now) {
            inner.granted.insert(id, wait);
            woke = true;
        }
        drop(inner);
        if woke {
            self.cv.notify_all();
        }
    }

    /// Requests currently queued (diagnostic).
    pub fn queued(&self) -> usize {
        self.inner.lock().core.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn state(max_active: usize, cap: usize) -> AdmissionState {
        AdmissionState::new(max_active, cap, true)
    }

    #[test]
    fn grants_prefer_interactive_over_lower_classes() {
        let mut s = state(1, 8);
        let (bg, _) = s.enqueue(Priority::Background, 0);
        let (ctl, _) = s.enqueue(Priority::Control, 0);
        let (int, _) = s.enqueue(Priority::Interactive, 0);
        let (Enqueued::Queued(_bg), Enqueued::Queued(_ctl), Enqueued::Queued(int_t)) =
            (bg, ctl, int)
        else {
            panic!("all three should queue");
        };
        let (granted, _, class) = s.grant_next(5).expect("slot free");
        assert_eq!(granted, int_t, "interactive granted first");
        assert_eq!(class, Priority::Interactive);
        assert!(s.grant_next(5).is_none(), "max_active=1 blocks the rest");
        s.complete();
        let (_, _, class) = s.grant_next(5).expect("slot freed");
        assert_eq!(class, Priority::Control, "control before background");
    }

    #[test]
    fn overflow_evicts_background_before_control_never_interactive() {
        let mut s = state(1, 2);
        let (Enqueued::Queued(bg), None) = s.enqueue(Priority::Background, 0) else {
            panic!("queued")
        };
        let (Enqueued::Queued(_ctl), None) = s.enqueue(Priority::Control, 0) else {
            panic!("queued")
        };
        // Full. An interactive arrival evicts the background ticket.
        let (res, evicted) = s.enqueue(Priority::Interactive, 1);
        assert!(matches!(res, Enqueued::Queued(_)));
        assert_eq!(evicted, Some(bg), "background evicted first");
        // Full again with {control, interactive}. Another interactive
        // evicts the control ticket; never another interactive.
        let (res, evicted) = s.enqueue(Priority::Interactive, 2);
        assert!(matches!(res, Enqueued::Queued(_)));
        assert!(evicted.is_some());
        let (res, evicted) = s.enqueue(Priority::Interactive, 3);
        assert_eq!(res, Enqueued::Shed, "pure-interactive queue sheds arrivals");
        assert_eq!(evicted, None);
        assert_eq!(s.queued(), 2, "bound holds");
    }

    #[test]
    fn background_arrival_on_full_queue_is_shed_not_queued() {
        let mut s = state(1, 1);
        assert!(matches!(
            s.enqueue(Priority::Control, 0),
            (Enqueued::Queued(_), None)
        ));
        let (res, evicted) = s.enqueue(Priority::Background, 1);
        assert_eq!(res, Enqueued::Shed, "cannot evict higher-class work");
        assert_eq!(evicted, None);
    }

    #[test]
    fn shedding_off_queues_past_the_bound() {
        let mut s = AdmissionState::new(1, 1, false);
        for i in 0..10 {
            assert!(matches!(
                s.enqueue(Priority::Background, i),
                (Enqueued::Queued(_), None)
            ));
        }
        assert_eq!(s.queued(), 10);
    }

    #[test]
    fn queue_wait_is_measured_from_enqueue() {
        let mut s = state(1, 4);
        let (Enqueued::Queued(_), _) = s.enqueue(Priority::Interactive, 100) else {
            panic!()
        };
        let (_, wait, _) = s.grant_next(175).unwrap();
        assert_eq!(wait, 75);
    }

    #[test]
    fn cancel_removes_only_the_named_ticket() {
        let mut s = state(1, 4);
        let (Enqueued::Queued(a), _) = s.enqueue(Priority::Control, 0) else {
            panic!()
        };
        let (Enqueued::Queued(b), _) = s.enqueue(Priority::Control, 0) else {
            panic!()
        };
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "already gone");
        assert_eq!(s.queued(), 1);
        let (granted, _, _) = s.grant_next(1).unwrap();
        assert_eq!(granted, b);
    }

    #[test]
    fn disabled_gate_admits_instantly_and_complete_is_harmless() {
        let gate = AdmissionGate::new(AdmissionConfig {
            enabled: false,
            ..AdmissionConfig::default()
        });
        match gate.admit(Priority::Background, None) {
            Admission::Admitted { queue_wait } => assert_eq!(queue_wait, Duration::ZERO),
            other => panic!("expected instant admit, got {other:?}"),
        }
        gate.complete();
        gate.complete();
    }

    #[test]
    fn gate_admits_up_to_max_active_then_sheds_overflow() {
        let gate = Arc::new(AdmissionGate::new(AdmissionConfig {
            max_active: 1,
            queue_capacity: 1,
            max_wait_ms: 50,
            ..AdmissionConfig::default()
        }));
        // First admit takes the slot without blocking.
        match gate.admit(Priority::Interactive, None) {
            Admission::Admitted { .. } => {}
            other => panic!("expected admit, got {other:?}"),
        }
        // Second waits out max_wait_ms and is shed with a retry hint.
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g.admit(Priority::Interactive, None));
        // Third arrival finds the queue full of its own class: shed now.
        std::thread::sleep(Duration::from_millis(10));
        match gate.admit(Priority::Interactive, None) {
            Admission::Shed { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected shed, got {other:?}"),
        }
        match waiter.join().unwrap() {
            Admission::Shed { .. } => {}
            other => panic!("expected max-wait shed, got {other:?}"),
        }
        // Completing the first frees the slot for a fresh admit.
        gate.complete();
        match gate.admit(Priority::Background, None) {
            Admission::Admitted { .. } => {}
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn gate_unblocks_waiter_on_complete() {
        let gate = Arc::new(AdmissionGate::new(AdmissionConfig {
            max_active: 1,
            queue_capacity: 4,
            max_wait_ms: 5_000,
            ..AdmissionConfig::default()
        }));
        assert!(matches!(
            gate.admit(Priority::Interactive, None),
            Admission::Admitted { .. }
        ));
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g.admit(Priority::Interactive, None));
        std::thread::sleep(Duration::from_millis(20));
        gate.complete();
        match waiter.join().unwrap() {
            Admission::Admitted { queue_wait } => {
                assert!(
                    queue_wait >= Duration::from_millis(10),
                    "waited for the slot"
                )
            }
            other => panic!("expected admit after complete, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_drops_the_queued_request() {
        let gate = Arc::new(AdmissionGate::new(AdmissionConfig {
            max_active: 1,
            queue_capacity: 4,
            max_wait_ms: 5_000,
            ..AdmissionConfig::default()
        }));
        assert!(matches!(
            gate.admit(Priority::Interactive, None),
            Admission::Admitted { .. }
        ));
        let deadline = Instant::now() + Duration::from_millis(30);
        match gate.admit(Priority::Interactive, Some(deadline)) {
            Admission::Expired => {}
            other => panic!("expected expiry, got {other:?}"),
        }
        assert_eq!(gate.queued(), 0, "expired ticket left the queue");
    }
}
