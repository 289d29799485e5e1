//! A live community on loopback: start, join, load, converge, tear down.

use planetp::live::{LiveConfig, LiveNode};
use planetp::{DurableConfig, MetricsSnapshot, PlanetPError};
use planetp_gossip::{GossipConfig, PeerId};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Result-list size of every ranked search.
pub const K: usize = 10;

/// How long set-up may wait for the directories to agree.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// The fixed node configuration of every workload (recorded in the
/// output): fast gossip so convergence takes rounds of tens of
/// milliseconds, a 2 s I/O timeout, everything else at its default —
/// tree, pool, deltas and shedding on, replication off.
pub fn node_config(seed: u64, durable_dir: Option<PathBuf>) -> LiveConfig {
    LiveConfig {
        gossip: GossipConfig {
            base_interval_ms: 40,
            max_interval_ms: 150,
            slowdown_ms: 25,
            ..GossipConfig::default()
        },
        io_timeout: Duration::from_secs(2),
        seed,
        durable: durable_dir.map(DurableConfig::at),
        ..LiveConfig::default()
    }
}

/// The configuration above as text, for result files.
pub fn node_config_text() -> String {
    let config = node_config(0, None);
    format!(
        "{:?}, io_timeout {:?}, k {K}; everything else LiveConfig::default(): tree {}, \
         connection pool {}, admission {}, replication {}",
        config.gossip,
        config.io_timeout,
        if config.bloom_tree.is_some() {
            "on"
        } else {
            "off"
        },
        if config.conn.enabled { "on" } else { "off" },
        if config.admission.enabled {
            "on"
        } else {
            "off"
        },
        if config.replica.enabled { "on" } else { "off" },
    )
}

/// Peer id of community member `index` (ids start at 1).
pub fn peer_id(index: usize) -> PeerId {
    index as PeerId + 1
}

/// A set of live nodes that know each other. Dropping it stops them.
pub struct Community {
    pub nodes: Vec<LiveNode>,
    seed: u64,
    durable_root: Option<PathBuf>,
}

impl Community {
    /// Start `n` nodes; node 0 founds the community and the rest join
    /// through it. With `durable_root`, node `i` persists under
    /// `<root>/node<i>`.
    pub fn start(n: usize, seed: u64, durable_root: Option<&Path>) -> Result<Self, PlanetPError> {
        let mut community = Self {
            nodes: Vec::with_capacity(n),
            seed,
            durable_root: durable_root.map(Path::to_path_buf),
        };
        for i in 0..n {
            let node = community.start_node(i)?;
            community.nodes.push(node);
        }
        Ok(community)
    }

    /// Data directory of node `index`, when the community is durable.
    pub fn data_dir(&self, index: usize) -> Option<PathBuf> {
        self.durable_root
            .as_ref()
            .map(|root| root.join(format!("node{index}")))
    }

    /// Start node `index`, joining through the first running node (the
    /// very first node founds the community).
    fn start_node(&self, index: usize) -> Result<LiveNode, PlanetPError> {
        let bootstrap = self.nodes.first().map(|b| (b.id(), b.addr().to_string()));
        LiveNode::start(
            peer_id(index),
            node_config(self.seed, self.data_dir(index)),
            bootstrap,
        )
    }

    /// Stop node 0 and start it again on its populated data directory,
    /// rejoining through node 1. The old node is dropped first so the
    /// directory has one owner at a time.
    pub fn restart_node0(&mut self) -> Result<(), PlanetPError> {
        drop(self.nodes.remove(0));
        let node = self.start_node(0)?;
        self.nodes.insert(0, node);
        Ok(())
    }

    /// Do all nodes list everyone and hold the same directory digest?
    pub fn converged(&self) -> bool {
        let n = self.nodes.len();
        let first = self.nodes[0].directory_digest();
        self.nodes
            .iter()
            .all(|node| node.directory_size() == n && node.directory_digest() == first)
    }

    /// Poll (every `poll`) until [`Self::converged`]; the time it took,
    /// or `None` after the set-up timeout.
    pub fn await_converged(&self, poll: Duration) -> Option<Duration> {
        let started = Instant::now();
        while !self.converged() {
            if started.elapsed() > SETUP_TIMEOUT {
                return None;
            }
            std::thread::sleep(poll);
        }
        Some(started.elapsed())
    }

    /// Every node's metrics, merged into one community-wide snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.nodes
            .iter()
            .map(LiveNode::metrics_snapshot)
            .reduce(|a, b| a.merge(&b))
            .unwrap_or_default()
    }
}
