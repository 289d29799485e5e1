//! The live TCP runtime.
//!
//! Each [`LiveNode`] is one real peer: a TCP listener, a gossip loop
//! thread running a [`GossipEngine`](planetp_gossip::GossipEngine) over
//! compressed Bloom filters, a local data store, and RPC handlers for
//! ranked and exhaustive search. This is the analog of the paper's Java
//! prototype, used to validate that the protocol converges over real
//! sockets (the paper validated its simulator against a 200-peer
//! cluster deployment the same way).
//!
//! Peer addresses ride inside the gossip payload: a peer's
//! [`LivePayload`] carries its socket address next to its compressed
//! filter, so learning of a peer via gossip also teaches how to reach
//! it.
//!
//! ## Failure model
//!
//! The runtime assumes peers fail: connections are refused, frames
//! arrive truncated or corrupt, replies never come. Three layers deal
//! with this (see `DESIGN.md` §8):
//!
//! - every logical contact (a gossip conversation, a search RPC — both
//!   built from the same request/reply `exchange`) retries with capped
//!   exponential backoff
//!   ([`RetryPolicy`](crate::health::RetryPolicy));
//! - a per-peer [`PeerHealth`](crate::health::PeerHealth) table turns
//!   *consecutive* exhausted contacts into `Healthy → Suspect →
//!   Offline` transitions; only the offline transition feeds the gossip
//!   directory's offline marking (the paper's §3 rule), and offline
//!   peers are skipped until their backoff expires;
//! - searches degrade gracefully: dead peers are skipped after bounded
//!   retries, the rank order keeps draining, and every result carries
//!   a [`SearchCoverage`] saying how much of the community actually
//!   answered.
//!
//! A [`FaultInjector`](crate::faults::FaultInjector) can be plugged
//! into [`LiveConfig`] to exercise all of it deterministically
//! (`crates/core/tests/live_faults.rs`).
//!
//! ## Modules, the state each owns, and the lock order
//!
//! The node's shared state is `Inner`: identity, config, metric
//! handles, and one private state struct per module below. A module's
//! struct has private fields, so **a lock is only ever taken inside the
//! module that declares it** — the compiler enforces it — and no guard
//! crosses a module boundary: cross-module calls are `Inner` methods
//! that return owned values.
//!
//! | module        | owns                                                        | locks |
//! |---------------|-------------------------------------------------------------|-------|
//! | `gossip_loop` | engine + diff base, address book, WAL store, catch-up flag  | **engine** (shared by everyone, through methods), durable (leaf) |
//! | `rpc`         | peer health table, connection pool (one stream per peer)    | health (leaf) |
//! | `search`      | filter mirror + query cache (Bloofi mounted here), worker pool | **mirror** |
//! | `server`      | one reader per accepted stream, admission gate, open-connection table | open connections (leaf) |
//! | `replica`     | replication decision engine                                 | replica (leaf) |
//! | `local`       | the local data store                                        | store (leaf) |
//! | `stats`, `types`, `node` | metric handles; wire/config/result types; the `LiveNode` API | — |
//!
//! **Lock order: mirror → engine.** That is the only nested
//! acquisition (a query-side sync snapshots the directory while it
//! holds the mirror); every other lock is a leaf, released before the
//! next is taken. The engine is therefore the one lock every thread
//! meets, and it is only ever held for a bounded, I/O-free section.

/// Is `PLANETP_DEBUG` set? Gates the runtime's debug-level logging of
/// swallowed protocol errors (stderr; no logging dependency).
fn debug_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("PLANETP_DEBUG").is_some())
}

macro_rules! debug_log {
    ($($arg:tt)*) => {
        if $crate::live::debug_enabled() {
            eprintln!($($arg)*);
        }
    };
}

mod gossip_loop;
mod local;
mod node;
mod replica;
mod rpc;
mod search;
mod server;
mod stats;
mod types;

pub use node::LiveNode;
pub use stats::{scrape_stats, NodeStatsSnapshot};
pub use types::{
    FanoutConfig, LiveConfig, LiveDelta, LiveHit, LiveMsg, LivePayload, LiveSearchResult,
    SearchCoverage, SearchDoc,
};

use planetp_gossip::PeerId;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Everything a node's threads share. Identity, config and metric
/// handles are plain; each module's state is reachable only through
/// that module's methods (see the module docs for the lock order).
struct Inner {
    id: PeerId,
    addr: String,
    config: LiveConfig,
    stats: stats::NodeStats,
    epoch: Instant,
    shutdown: AtomicBool,
    membership: gossip_loop::Membership,
    local: local::LocalDocs,
    transport: rpc::Transport,
    query: search::QuerySide,
    server: server::Server,
    replica: replica::Replication,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}
