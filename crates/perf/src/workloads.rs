//! The four workloads. Each one: set the community up (several times,
//! so `setup_s` is a median), warm up, measure a fixed window, check
//! every result, tear down and make sure nothing leaked.
//!
//! All of them drive real `LiveNode`s over loopback TCP through the
//! node's public API only, from at most two client threads.

use crate::community::{peer_id, Community, K};
use crate::inputs::{Inputs, Op, CHURN_TOKENS};
use crate::measure::{
    cpu_ms, fd_count, hist_quantile, median, ms, quantile, ratio, rss_peak_mb, thread_count,
    Samples,
};
use crate::oracle::{check_known_item, Oracle, PeerStores};
use crate::report::Outcome;
use crate::shadow::Shadow;
use crate::spec::Benchmark;
use crate::trace::Recorder;
use planetp::live::{LiveNode, LiveSearchResult};
use planetp::{LocalDataStore, MetricsSnapshot};
use planetp_obs::names;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload names, in running order.
pub const WORKLOADS: [&str; 4] = [
    "search-warm",
    "search-churn",
    "publish-durable",
    "gossip-converge",
];

/// The workload `BENCHMARK.json` does not list, so the driver neither
/// runs nor gates it: a durable publish is processor-bound, and the
/// sandbox's processor speed moves by a quarter between minutes, more
/// than any bound the driver allows (README, "End-to-end metrics").
/// `run --workload all` and `compare` still cover it.
pub const UNGATED: [&str; 1] = ["publish-durable"];

/// Open-loop publish rate of `search-churn`, documents per second.
const CHURN_RATE: u32 = 4;
/// A churn document is searched for only this long after its publish
/// returned, so its filter has had time to gossip.
const CHURN_SETTLE: Duration = Duration::from_secs(2);
/// The open-loop generator may issue an operation this late before the
/// run is called invalid.
const MAX_LATE_MS: f64 = 50.0;
/// A `gossip-converge` update that has not converged by then failed.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(5);
/// Thread and descriptor counts must return this close to their
/// pre-workload values after teardown.
const LEAK_SLACK: u64 = 4;
/// Set-ups that may be discarded because node 0 answered a corpus
/// query wrongly before the run gives up without a result.
const MAX_REBUILDS: u32 = 5;

/// Sizes that differ between the full benchmark and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub search_peers: usize,
    pub durable_peers: usize,
    pub converge_peers: usize,
    /// Corpus documents loaded into the search communities.
    pub corpus_docs: usize,
    /// Corpus documents pre-loaded per `gossip-converge` peer.
    pub converge_docs_per_peer: usize,
    /// Discarded lead-in before the measured window.
    pub warmup: Duration,
    /// Operations replayed through the shadow pipeline.
    pub trace_ops: usize,
    /// Set-ups per run (the reported `setup_s` is their median). The
    /// 16-peer join and the three-node durable set-up are short and ride
    /// on gossip timers, so they repeat more often.
    pub setup_reps: usize,
    pub converge_setup_reps: usize,
    pub durable_setup_reps: usize,
    /// Timed restarts of node 0 after the `publish-durable` window.
    pub restarts: usize,
    /// `fetch_stats` calls that measure the RPC floor.
    pub stats_rpcs: usize,
}

impl Scale {
    /// The benchmark as `BENCHMARK.json` runs it.
    pub fn full() -> Self {
        Self {
            search_peers: 12,
            durable_peers: 3,
            converge_peers: 16,
            corpus_docs: 3204,
            converge_docs_per_peer: 50,
            warmup: Duration::from_secs(3),
            trace_ops: 500,
            setup_reps: 5,
            converge_setup_reps: 15,
            durable_setup_reps: 9,
            restarts: 5,
            stats_rpcs: 200,
        }
    }

    /// Three peers and a slice of the corpus, for `cargo test`.
    pub fn smoke() -> Self {
        Self {
            search_peers: 3,
            durable_peers: 3,
            converge_peers: 3,
            corpus_docs: 240,
            converge_docs_per_peer: 20,
            warmup: Duration::from_millis(2500),
            trace_ops: 50,
            setup_reps: 2,
            converge_setup_reps: 2,
            durable_setup_reps: 2,
            restarts: 2,
            stats_rpcs: 20,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Per-layer (traced) pass instead of the end-to-end one.
    pub trace: bool,
    pub scale: Scale,
    /// Directory for durable data (removed afterwards).
    pub out: PathBuf,
}

/// A finished run: its outcome and, for a traced pass, its spans.
pub struct RunResult {
    pub outcome: Outcome,
    pub spans: Option<Recorder>,
}

// ----------------------------------------------------------------------
// Window, client logs
// ----------------------------------------------------------------------

/// Instants of one run: clients start at `begin`, samples count from
/// `start` to `end`, and in a traced pass operations starting at or
/// after `mid` also record spans.
#[derive(Debug, Clone, Copy)]
struct Window {
    begin: Instant,
    start: Instant,
    mid: Instant,
    end: Instant,
}

impl Window {
    fn opening_now(opts: &RunOpts) -> Self {
        let begin = Instant::now();
        let start = begin + opts.scale.warmup;
        Self {
            begin,
            start,
            mid: start + opts.window / 2,
            end: start + opts.window,
        }
    }

    fn contains(&self, from: Instant, to: Instant) -> bool {
        from >= self.start && to <= self.end
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What one kind of operation did inside the window.
struct ClientLog {
    /// Latencies of correct operations, by half of the window.
    halves: [Samples; 2],
    attempted: u64,
    failed: u64,
    /// The first few failure reasons, for the report.
    errors: Vec<String>,
    /// Recall of each correct search against the oracle's top-K.
    recall: Vec<f64>,
    /// How late an open-loop client issued each operation (ms).
    lateness: Vec<f64>,
    rec: Recorder,
}

impl ClientLog {
    fn new(w: &Window) -> Self {
        Self {
            halves: [Samples::default(), Samples::default()],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            recall: Vec::new(),
            lateness: Vec::new(),
            rec: Recorder::new(w.begin),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(why);
        }
    }

    /// Count an operation timed from `from` to `to` if it lies inside
    /// the window. A failed operation is attempted but contributes no
    /// latency sample: it missed every latency figure.
    fn record(
        &mut self,
        w: &Window,
        from: Instant,
        to: Instant,
        verdict: Result<Option<f64>, String>,
    ) {
        if !w.contains(from, to) {
            return;
        }
        self.attempted += 1;
        match verdict {
            Ok(recall) => {
                self.halves[usize::from(from >= w.mid)].push(ms(to - from));
                self.recall.extend(recall);
            }
            Err(why) => self.fail(why),
        }
    }

    fn all(&self) -> Samples {
        let mut s = self.halves[0].clone();
        s.extend(&self.halves[1]);
        s
    }

    fn merge(mut self, other: ClientLog) -> Self {
        for (mine, theirs) in self.halves.iter_mut().zip(&other.halves) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.recall.extend(other.recall);
        self.lateness.extend(other.lateness);
        self.rec.absorb(other.rec);
        self
    }
}

/// Readings taken at the two edges of the measured window.
struct Edges {
    /// Every node's registry, diffed across the window and merged.
    obs: MetricsSnapshot,
    /// Node 0's own share of `obs`.
    obs_node0: MetricsSnapshot,
    cpu_ms: f64,
}

/// Run `clients` (scoped threads, at most two) across the window while
/// this thread takes the edge readings.
fn measure_window<'env, C, T>(
    community: &'env Community,
    w: &Window,
    clients: Vec<C>,
) -> (Edges, Vec<T>)
where
    C: FnOnce() -> T + Send + 'env,
    T: Send + 'env,
{
    assert!(
        clients.len() <= 2,
        "load comes from at most two client threads"
    );
    std::thread::scope(|s| {
        let handles: Vec<_> = clients.into_iter().map(|c| s.spawn(c)).collect();
        sleep_until(w.start);
        let before = community.snapshot();
        let before0 = community.nodes[0].metrics_snapshot();
        let cpu0 = cpu_ms();
        sleep_until(w.end);
        let cpu1 = cpu_ms();
        let after0 = community.nodes[0].metrics_snapshot();
        let after = community.snapshot();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (
            Edges {
                obs: after.diff(&before),
                obs_node0: after0.diff(&before0),
                cpu_ms: cpu1 - cpu0,
            },
            logs,
        )
    })
}

// ----------------------------------------------------------------------
// Set-up, teardown
// ----------------------------------------------------------------------

/// Publish corpus documents `0..docs` on the peers `assignment` gives
/// them, from two loader threads that split the peers by load; each
/// peer receives its documents in corpus order.
fn load_corpus(
    community: &Community,
    inputs: &Inputs,
    assignment: &[usize],
    docs: usize,
) -> Result<(), String> {
    let peers = community.nodes.len();
    let mut load = vec![0usize; peers];
    for &p in &assignment[..docs] {
        load[p] += 1;
    }
    let mut order: Vec<usize> = (0..peers).collect();
    order.sort_by_key(|&p| std::cmp::Reverse(load[p]));
    let mut side = vec![0usize; peers];
    let mut totals = [0usize; 2];
    for p in order {
        let lighter = usize::from(totals[1] < totals[0]);
        side[p] = lighter;
        totals[lighter] += load[p];
    }
    std::thread::scope(|s| {
        let loaders: Vec<_> = (0..2)
            .map(|me| {
                let side = &side;
                s.spawn(move || -> Result<(), String> {
                    for (doc, &p) in assignment.iter().enumerate().take(docs) {
                        if side[p] == me {
                            community.nodes[p]
                                .publish(&inputs.doc_xml(doc))
                                .map_err(|e| format!("set-up publish failed: {e}"))?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|h| h.join().expect("loader thread panicked"))
    })
}

/// A community ready to be measured, and what building it took.
struct Ready {
    community: Community,
    /// Median wall time of the builds (start → directories agree).
    setup_s: f64,
    /// Builds discarded because `verify` rejected them.
    rebuilds: u32,
    notes: Vec<String>,
}

/// Build the community `reps` times, timing each build, and keep the
/// last. `verify` then inspects that one. A community it rejects is
/// discarded and built again, and said to be so on standard error, in
/// the outcome (`setups_discarded`, both passes) and as the per-layer
/// `setup.rebuilds`: the operations the window measures need a
/// directory that is right, and bulk loading with delta gossip on can
/// leave a wrong one (README, "A product defect the oracle found") that
/// nothing in the public API avoids or repairs.
fn setups(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<Community, String>,
    verify: impl Fn(&Community) -> Result<(), String>,
) -> Result<Ready, String> {
    let mut times = Vec::new();
    let mut notes = Vec::new();
    let mut rebuilds = 0;
    let mut last: Option<Community> = None;
    loop {
        drop(last.take());
        let started = Instant::now();
        let community = build(times.len())?;
        community
            .await_converged(Duration::from_millis(2))
            .ok_or("set-up did not converge")?;
        times.push(started.elapsed().as_secs_f64());
        if times.len() < reps {
            last = Some(community);
            continue;
        }
        match verify(&community) {
            Ok(()) => {
                notes.push(format!(
                    "set-ups took {times:.3?} s; setup_s is their median"
                ));
                return Ok(Ready {
                    community,
                    setup_s: median(&times),
                    rebuilds,
                    notes,
                });
            }
            Err(why) if rebuilds < MAX_REBUILDS => {
                rebuilds += 1;
                eprintln!(
                    "planetp-perf: WARNING: set-up {} discarded: {why}",
                    times.len()
                );
                notes.push(format!("set-up discarded and rebuilt: {why}"));
                last = Some(community);
            }
            Err(why) => return Err(format!("set-up kept failing verification: {why}")),
        }
    }
}

fn start(peers: usize, opts: &RunOpts, durable_root: Option<&Path>) -> Result<Community, String> {
    Community::start(peers, opts.seed, durable_root).map_err(|e| format!("node start failed: {e}"))
}

/// Thread and descriptor counts before a workload, to compare with
/// after its teardown: four communities in one process must not bleed
/// into each other.
struct Baseline {
    threads: u64,
    fds: u64,
}

impl Baseline {
    fn take() -> Self {
        Self {
            threads: thread_count(),
            fds: fd_count(),
        }
    }

    /// Wait (briefly: server workers exit on their own) for the counts
    /// to come back; an error says what leaked.
    fn settled(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (threads, fds) = (thread_count(), fd_count());
            if threads <= self.threads + LEAK_SLACK && fds <= self.fds + LEAK_SLACK {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "leak after teardown: {threads} threads (was {}), {fds} descriptors (was {})",
                    self.threads, self.fds
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

// ----------------------------------------------------------------------
// Metric assembly
// ----------------------------------------------------------------------

/// Which family of the issue's `*_ms` / `*_qps` names an operation
/// belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Search,
    Publish,
    Converge,
}

/// Everything a workload measured, before it is cut down to the
/// declared metric set.
struct Measured {
    setup_s: f64,
    rebuilds: u32,
    window_s: f64,
    edges: Edges,
    /// The workload's primary operations.
    kind: Kind,
    primary: ClientLog,
    /// Publishes beside a non-publish primary (`search-churn`,
    /// `gossip-converge`).
    publishes: Option<ClientLog>,
    /// Numbers only this workload has, with their sample counts.
    extra: BTreeMap<String, (f64, Option<u64>)>,
    notes: Vec<String>,
}

fn counter(obs: &MetricsSnapshot, name: &str) -> f64 {
    obs.counter(name) as f64
}

fn hist_q(obs: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    obs.histogram(name).map_or(0.0, |h| hist_quantile(h, q))
}

impl Measured {
    /// Primary operations that completed correctly in the window.
    fn ops(&self) -> f64 {
        self.primary.all().len() as f64
    }

    /// The metrics a user of the system would see.
    fn end_to_end(&self) -> BTreeMap<String, f64> {
        let ops = self.ops();
        BTreeMap::from([
            ("setup_s".to_string(), self.setup_s),
            ("op_p50_ms".to_string(), self.primary.all().p50()),
            ("ops_per_s".to_string(), ops / self.window_s),
            (
                "net_bytes_per_op".to_string(),
                ratio(counter(&self.edges.obs, names::NET_BYTES_OUT), ops),
            ),
        ])
    }

    /// The per-layer numbers read off the live window — `obs` (registry
    /// snapshots diffed across it) and `bench` (what the clients timed)
    /// — with the sample counts behind the timings.
    fn per_layer(&self) -> (BTreeMap<String, f64>, BTreeMap<String, u64>) {
        let obs = &self.edges.obs;
        let node0 = &self.edges.obs_node0;
        let ops = self.ops();
        let lat = self.primary.all();
        let c = |name: &str| counter(obs, name);
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let mut n: BTreeMap<String, u64> = BTreeMap::new();
        let mut timing = |name: &str, samples: Option<&Samples>, pct: u32| {
            let value = samples.map_or(0.0, |s| if pct == 50 { s.p50() } else { s.tail(pct) });
            m.insert(name.to_string(), value);
            if let Some(s) = samples {
                n.insert(name.to_string(), s.len() as u64);
            }
        };

        // bench: the issue's end-to-end names, per operation family.
        let of = |kind: Kind| (self.kind == kind).then_some(&lat);
        let publish = match (&self.publishes, self.kind) {
            (Some(log), _) => Some(log.all()),
            (None, Kind::Publish) => Some(lat.clone()),
            (None, _) => None,
        };
        timing("op_p90_ms", Some(&lat), 90);
        timing("op_p99_ms", Some(&lat), 99);
        timing("search_p50_ms", of(Kind::Search), 50);
        timing("search_p99_ms", of(Kind::Search), 99);
        timing("publish_p50_ms", publish.as_ref(), 50);
        timing("publish_p99_ms", publish.as_ref(), 99);
        timing("converge_p50_ms", of(Kind::Converge), 50);
        timing("gossip.converge_p90_ms", of(Kind::Converge), 90);
        let rate = |s: Option<&Samples>| s.map_or(0.0, |s| s.len() as f64 / self.window_s);
        m.insert("search_qps".into(), rate(of(Kind::Search)));
        m.insert("publish_dps".into(), rate(of(Kind::Publish)));
        let side = self.publishes.as_ref();
        let attempted = self.primary.attempted + side.map_or(0, |p| p.attempted);
        let failed = self.primary.failed + side.map_or(0, |p| p.failed);
        m.insert("fail_share".into(), ratio(failed as f64, attempted as f64));
        let mut late = side.map_or(Vec::new(), |p| p.lateness.clone());
        late.sort_by(f64::total_cmp);
        m.insert("client_late_p99_ms".into(), quantile(&late, 0.99));
        let recall = &self.primary.recall;
        m.insert(
            "search.recall_at_10".into(),
            ratio(recall.iter().sum(), recall.len() as f64),
        );
        m.insert("setup.rebuilds".into(), f64::from(self.rebuilds));
        // Process-wide cost of the window. Both move with the host's
        // mood by more than any bound, so they are reported, not gated.
        m.insert("cpu_ms_per_op".into(), ratio(self.edges.cpu_ms, ops));
        m.insert("rss_peak_mb".into(), rss_peak_mb());

        // obs: search planning and fan-out, per query node 0 ran.
        let queries = c(names::SEARCH_QUERIES);
        let hits = c(names::SEARCH_CACHE_HITS);
        let saved = c(names::BLOOMTREE_PROBES_SAVED);
        m.insert("search.queries".into(), queries);
        m.insert(
            "search.cache_hit_share".into(),
            ratio(hits, hits + c(names::SEARCH_CACHE_MISSES)),
        );
        for (name, counted) in [
            (
                "search.peer_refreshes_per_query",
                names::SEARCH_CACHE_PEER_REFRESHES,
            ),
            (
                "search.peers_contacted_per_query",
                names::SEARCH_PEERS_CONTACTED,
            ),
            ("search.stopped_early_share", names::SEARCH_STOPPED_EARLY),
            ("search.groups_per_query", names::SEARCH_GROUPS),
            ("bloomtree.lookups_per_query", names::BLOOMTREE_LOOKUPS),
            ("pool.jobs_per_query", names::POOL_JOBS),
        ] {
            m.insert(name.into(), ratio(c(counted), queries));
        }
        m.insert(
            "bloomtree.probes_saved_share".into(),
            ratio(saved, saved + c(names::BLOOMTREE_CANDIDATES)),
        );
        m.insert("bloomtree.rebuilds".into(), c(names::BLOOMTREE_REBUILDS));

        // obs: transport and admission.
        let frames = c(names::NET_FRAMES_OUT);
        let (opened, reused) = (c(names::CONN_OPENED), c(names::CONN_REUSED));
        m.insert("wire.frames_per_op".into(), ratio(frames, ops));
        m.insert(
            "wire.bytes_per_frame".into(),
            ratio(c(names::NET_BYTES_OUT), frames),
        );
        m.insert("conn.opened".into(), opened);
        m.insert("conn.reused_share".into(), ratio(reused, opened + reused));
        m.insert(
            "conn.stale_reconnects".into(),
            c(names::CONN_STALE_RECONNECTS),
        );
        for (name, hist, q) in [
            ("live.rpc_p50_ms", names::RPC_LATENCY_MS, 0.5),
            ("live.rpc_p99_ms", names::RPC_LATENCY_MS, 0.99),
            ("live.group_p50_ms", names::SEARCH_FANOUT_MS, 0.5),
            (
                "admission.queue_wait_p99_ms",
                names::ADMISSION_QUEUE_WAIT_MS,
                0.99,
            ),
            ("gossip.exchange_p50_ms", names::GOSSIP_EXCHANGE_MS, 0.5),
        ] {
            m.insert(name.into(), hist_q(obs, hist, q));
        }
        m.insert("live.rpc_retries".into(), c(names::RPC_RETRIES));
        m.insert("live.rpc_failures".into(), c(names::RPC_FAILURES));
        m.insert("admission.shed".into(), c(names::ADMISSION_SHED));
        m.insert("admission.expired".into(), c(names::ADMISSION_EXPIRED));

        // obs: durability — node 0's own log (peers log what they learn).
        let published = publish.as_ref().map_or(0.0, |p| p.len() as f64);
        m.insert(
            "durable.wal_records_per_publish".into(),
            ratio(counter(node0, names::STORE_WAL_RECORDS), published),
        );
        m.insert(
            "durable.compactions".into(),
            counter(node0, names::STORE_COMPACTIONS),
        );

        // obs: gossip, per document published in the window.
        let (delta, full) = (
            c(names::GOSSIP_DELTA_SENT),
            c(names::GOSSIP_DELTA_FULL_FALLBACKS),
        );
        m.insert(
            "gossip.rounds_per_s".into(),
            c(names::GOSSIP_ROUNDS) / self.window_s,
        );
        m.insert(
            "gossip.rounds_per_update".into(),
            ratio(c(names::GOSSIP_ROUNDS), published),
        );
        m.insert(
            "gossip.msgs_per_update".into(),
            ratio(obs.sum_counters("gossip.msgs_out.") as f64, published),
        );
        m.insert(
            "gossip.model_bytes_per_update".into(),
            ratio(obs.sum_counters("gossip.bytes_out") as f64, published),
        );
        m.insert("gossip.delta_sent_share".into(), ratio(delta, delta + full));
        m.insert(
            "gossip.chain_breaks".into(),
            c(names::GOSSIP_DELTA_CHAIN_BREAKS),
        );

        // How much the client-side spans of the second half cost.
        let (plain, traced) = (self.primary.halves[0].p50(), self.primary.halves[1].p50());
        m.insert(
            "trace.overhead_share".into(),
            if plain > 0.0 && traced > 0.0 {
                traced / plain - 1.0
            } else {
                0.0
            },
        );

        // Numbers only some workloads have; 0 elsewhere.
        for name in [
            "live.stats_rpc_p50_ms",
            "recover_p50_ms",
            "disk_bytes_per_doc_byte",
            "durable.wal_bytes_per_doc_byte",
        ] {
            m.insert(name.into(), 0.0);
        }
        for (name, &(value, samples)) in &self.extra {
            m.insert(name.clone(), value);
            n.extend(samples.map(|s| (name.clone(), s)));
        }
        (m, n)
    }
}

/// Turn what was measured into the declared outcome, replaying the
/// workload's first operations through the shadow pipeline if traced.
fn conclude(
    workload: &str,
    opts: &RunOpts,
    spec: &Benchmark,
    measured: Measured,
    shadow: Option<(Vec<LocalDataStore>, Vec<Op>)>,
    baseline: &Baseline,
) -> Result<RunResult, String> {
    let mut outcome = Outcome::new(workload, opts.seed, opts.window.as_secs_f64(), opts.trace);
    outcome.notes.extend(measured.notes.iter().cloned());
    outcome.setups_discarded = measured.rebuilds;
    for log in std::iter::once(&measured.primary).chain(measured.publishes.as_ref()) {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        outcome
            .notes
            .extend(log.errors.iter().map(|e| format!("failed op: {e}")));
    }
    let late = measured.publishes.as_ref().map_or(&[][..], |p| &p.lateness);
    if late.iter().any(|&l| l > MAX_LATE_MS) {
        outcome.invalidate(format!(
            "the open-loop publisher ran more than {MAX_LATE_MS} ms late"
        ));
    }
    if let Err(leak) = baseline.settled() {
        outcome.invalidate(leak);
    }
    if !opts.trace {
        let ops = measured.ops() as u64;
        outcome.samples.insert("op_p50_ms".into(), ops);
        outcome.finish(measured.end_to_end(), spec);
        return Ok(RunResult {
            outcome,
            spans: None,
        });
    }

    let (mut values, samples) = measured.per_layer();
    outcome.samples = samples;
    let (stores, ops) = shadow.expect("a traced pass replays operations");
    let dir = opts.out.join("data").join(format!("{workload}-shadow"));
    let mut replay =
        Shadow::new(stores, opts.seed, &dir).map_err(|e| format!("shadow set-up: {e}"))?;
    for (i, op) in ops.iter().enumerate() {
        replay
            .replay(i as u32 + 1, op)
            .map_err(|e| format!("shadow replay: {e}"))?;
    }
    replay
        .fixed_costs()
        .map_err(|e| format!("shadow probes: {e}"))?;
    let (layer, mut spans) = replay.finish();
    values.extend(layer);
    // What the client saw beyond planning and its fan-out groups:
    // merge, stopping rule and lock waits inside the program.
    let plan_ns = values["search.plan_cold_ns"].max(values["search.plan_warm_ns"]);
    let residual = values["search_p50_ms"]
        - plan_ns / 1e6
        - values["search.groups_per_query"] * values["live.group_p50_ms"];
    values.insert(
        "live.search_residual_ms".into(),
        if values["search_p50_ms"] > 0.0 {
            residual
        } else {
            0.0
        },
    );
    spans.absorb(measured.primary.rec);
    if let Some(p) = measured.publishes {
        spans.absorb(p.rec);
    }
    outcome.finish(values, spec);
    Ok(RunResult {
        outcome,
        spans: Some(spans),
    })
}

// ----------------------------------------------------------------------
// The search workloads
// ----------------------------------------------------------------------

/// One closed-loop searcher on `node`: `next` supplies searches (or
/// `None` when none is ready yet), `check` judges each result.
fn search_client<'a>(
    node: &'a LiveNode,
    w: Window,
    trace: bool,
    mut next: impl FnMut() -> Option<Op> + Send + 'a,
    check: impl Fn(&Op, &LiveSearchResult) -> Result<Option<f64>, String> + Send + 'a,
) -> impl FnOnce() -> ClientLog + Send + 'a {
    move || {
        let mut log = ClientLog::new(&w);
        let mut op_id = 0u32;
        while Instant::now() < w.end {
            let Some(op) = next() else {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            let Op::Search { query, .. } = &op else {
                unreachable!("search clients are fed searches");
            };
            op_id += 1;
            let from = Instant::now();
            let traced = trace && from >= w.mid;
            if traced {
                log.rec.enter("client.search_ranked", op_id);
            }
            let result = node.search_ranked(query, K);
            let to = Instant::now();
            let verdict = match &result {
                Ok(r) if traced => log.rec.time("client.oracle_check", op_id, || check(&op, r)),
                Ok(r) => check(&op, r),
                Err(e) => Err(format!("search_ranked: {e}")),
            };
            if traced {
                log.rec.exit(None);
            }
            log.record(&w, from, to, verdict);
        }
        log
    }
}

/// The RPC floor: `fetch_stats` is one tiny request through connection
/// pool, server poll and admission with no index work behind it.
fn stats_rpc_floor(community: &Community, calls: usize) -> (f64, Option<u64>) {
    let mut samples = Samples::default();
    for _ in 0..calls {
        let t = Instant::now();
        if community.nodes[0].fetch_stats(peer_id(1)).is_ok() {
            samples.push(ms(t.elapsed()));
        }
    }
    (samples.p50(), Some(samples.len() as u64))
}

/// What both search workloads start from: the corpus, the oracle over
/// it, and a community whose node 0 answered every corpus query exactly
/// as the oracle says (which also leaves every corpus term in its
/// query cache).
struct SearchBed {
    inputs: Inputs,
    oracle: Oracle,
    /// The oracle's in-process stores, for the shadow replay.
    stores: Vec<LocalDataStore>,
    ready: Ready,
}

fn search_bed(opts: &RunOpts) -> Result<SearchBed, String> {
    let scale = opts.scale;
    let inputs = Inputs::generate(opts.seed);
    let assignment = inputs.partition(scale.search_peers);
    let peers = PeerStores::load(&inputs, &assignment, scale.search_peers, scale.corpus_docs);
    let oracle = Oracle::for_corpus(&inputs, &peers);
    let ready = setups(
        scale.setup_reps,
        |_| {
            let community = start(scale.search_peers, opts, None)?;
            load_corpus(&community, &inputs, &assignment, scale.corpus_docs)?;
            Ok(community)
        },
        |community| {
            for query in &inputs.queries {
                let result = community.nodes[0]
                    .search_ranked(query, K)
                    .map_err(|e| format!("priming search failed: {e}"))?;
                oracle
                    .check(query, &result)
                    .map_err(|e| format!("node 0 answers `{query}` wrongly ({e})"))?;
            }
            Ok(())
        },
    )?;
    Ok(SearchBed {
        inputs,
        oracle,
        stores: peers.stores,
        ready,
    })
}

fn search_warm(opts: &RunOpts, spec: &Benchmark) -> Result<RunResult, String> {
    let baseline = Baseline::take();
    let bed = search_bed(opts)?;
    let community = &bed.ready.community;
    let w = Window::opening_now(opts);
    let clients: Vec<_> = (0..2u64)
        .map(|client| {
            let mut ops = bed.inputs.warm_cycle(client).into_iter().cycle();
            search_client(
                &community.nodes[0],
                w,
                opts.trace,
                move || ops.next(),
                |op, result| {
                    let Op::Search { query, .. } = op else {
                        unreachable!()
                    };
                    bed.oracle.check(query, result).map(Some)
                },
            )
        })
        .collect();
    let (edges, logs) = measure_window(community, &w, clients);
    let primary = logs
        .into_iter()
        .reduce(ClientLog::merge)
        .expect("two clients");
    let mut extra = BTreeMap::new();
    if opts.trace {
        extra.insert(
            "live.stats_rpc_p50_ms".to_string(),
            stats_rpc_floor(community, opts.scale.stats_rpcs),
        );
    }
    let SearchBed {
        inputs,
        stores,
        ready,
        ..
    } = bed;
    drop(ready.community);
    let measured = Measured {
        setup_s: ready.setup_s,
        rebuilds: ready.rebuilds,
        window_s: opts.window.as_secs_f64(),
        edges,
        kind: Kind::Search,
        primary,
        publishes: None,
        extra,
        notes: ready.notes,
    };
    let shadow = opts.trace.then(|| {
        let ops = inputs
            .warm_cycle(0)
            .into_iter()
            .cycle()
            .take(opts.scale.trace_ops)
            .collect();
        (stores, ops)
    });
    conclude("search-warm", opts, spec, measured, shadow, &baseline)
}

/// Which churn documents exist and which of their tokens were used.
#[derive(Default)]
struct ChurnBoard {
    /// The acknowledged publishes in order: document `j`, and when its
    /// publish returned.
    published: Vec<(usize, Instant)>,
    /// Tokens already searched for, per entry of `published`.
    used: Vec<usize>,
    /// Searches that found every settled token used and took one again.
    reused: u64,
}

impl ChurnBoard {
    /// The next `(document, token)` to search for: the newest document
    /// published at least [`CHURN_SETTLE`] ago that still has a fresh
    /// token; failing that, token 0 of the newest settled one again.
    fn next(&mut self, now: Instant) -> Option<(usize, usize)> {
        let settled = self
            .published
            .iter()
            .take_while(|&&(_, at)| at + CHURN_SETTLE <= now)
            .count();
        self.used.resize(self.published.len(), 0);
        if let Some(i) = (0..settled).rev().find(|&i| self.used[i] < CHURN_TOKENS) {
            self.used[i] += 1;
            return Some((self.published[i].0, self.used[i] - 1));
        }
        let newest = settled.checked_sub(1)?;
        self.reused += 1;
        Some((self.published[newest].0, 0))
    }
}

fn search_churn(opts: &RunOpts, spec: &Benchmark) -> Result<RunResult, String> {
    let baseline = Baseline::take();
    let bed = search_bed(opts)?;
    let community = &bed.ready.community;
    let inputs = &bed.inputs;
    let peers = opts.scale.search_peers;
    let board = Mutex::new(ChurnBoard::default());

    let w = Window::opening_now(opts);
    let publisher = || {
        let mut log = ClientLog::new(&w);
        let gap = Duration::from_secs(1) / CHURN_RATE;
        for j in 0.. {
            let due = w.begin + gap * j;
            if due >= w.end {
                break;
            }
            sleep_until(due);
            let Op::Publish { peer, xml } = inputs.churn_publish(j as usize, peers) else {
                unreachable!();
            };
            let issued = Instant::now();
            let traced = opts.trace && issued >= w.mid;
            if traced {
                log.rec.enter("client.publish", j);
            }
            let result = community.nodes[peer].publish(&xml);
            let to = Instant::now();
            if traced {
                log.rec.exit(None);
            }
            // Only a document that exists is searched for.
            if result.is_ok() {
                let mut board = board.lock().expect("board lock");
                board.published.push((j as usize, to));
            }
            if w.contains(due, to) {
                log.lateness.push(ms(issued - due));
            }
            // Open loop: latency counts from when the publish was due.
            let verdict = result.map(|_| None).map_err(|e| format!("publish: {e}"));
            log.record(&w, due, to, verdict);
        }
        log
    };
    let searcher = search_client(
        &community.nodes[0],
        w,
        opts.trace,
        || {
            let (j, m) = board.lock().expect("board lock").next(Instant::now())?;
            Some(inputs.churn_search(j, m))
        },
        |op, result| {
            let Op::Search {
                known_item: Some(token),
                ..
            } = op
            else {
                unreachable!()
            };
            check_known_item(result, token).map(|()| Some(1.0))
        },
    );
    // Two differently-typed closures share a Vec boxed.
    let clients: Vec<Box<dyn FnOnce() -> ClientLog + Send + '_>> =
        vec![Box::new(searcher), Box::new(publisher)];
    let (edges, mut logs) = measure_window(community, &w, clients);
    let publishes = logs.pop().expect("publisher log");
    let primary = logs.pop().expect("searcher log");
    let mut extra = BTreeMap::new();
    if opts.trace {
        extra.insert(
            "live.stats_rpc_p50_ms".to_string(),
            stats_rpc_floor(community, opts.scale.stats_rpcs),
        );
    }
    let mut notes = Vec::new();
    let reused = board.into_inner().expect("board lock").reused;
    if reused > 0 {
        notes.push(format!(
            "{reused} searches re-used a token (the searcher outran {} fresh tokens/s)",
            CHURN_RATE as usize * CHURN_TOKENS
        ));
    }
    // The replay interleaves as the live clients do: a document, then
    // searches for some of its tokens.
    let searches_per_doc = 4;
    let replay_ops: Vec<Op> = (0..)
        .flat_map(|j| {
            std::iter::once(inputs.churn_publish(j, peers))
                .chain((0..searches_per_doc).map(move |m| inputs.churn_search(j, m)))
        })
        .take(opts.scale.trace_ops)
        .collect();
    let SearchBed { ready, stores, .. } = bed;
    drop(ready.community);
    let shadow = opts.trace.then_some((stores, replay_ops));
    notes.extend(ready.notes);
    let measured = Measured {
        setup_s: ready.setup_s,
        rebuilds: ready.rebuilds,
        window_s: opts.window.as_secs_f64(),
        edges,
        kind: Kind::Search,
        primary,
        publishes: Some(publishes),
        extra,
        notes,
    };
    conclude("search-churn", opts, spec, measured, shadow, &baseline)
}

// ----------------------------------------------------------------------
// publish-durable
// ----------------------------------------------------------------------

fn publish_durable(opts: &RunOpts, spec: &Benchmark) -> Result<RunResult, String> {
    let baseline = Baseline::take();
    let scale = opts.scale;
    let inputs = Inputs::generate(opts.seed);
    let data = opts.out.join("data").join("publish-durable");
    let _ = std::fs::remove_dir_all(&data);
    let ready = setups(
        scale.durable_setup_reps,
        |rep| {
            start(
                scale.durable_peers,
                opts,
                Some(&data.join(format!("rep{rep}"))),
            )
        },
        |_| Ok(()),
    )?;
    let mut community = ready.community;

    let w = Window::opening_now(opts);
    // Documents acknowledged so far (warm-up included: they are on disk
    // and must survive too), and their XML bytes.
    let mut published = 0usize;
    let mut published_bytes = 0u64;
    let mut window_bytes = 0u64;
    let client = || {
        let mut log = ClientLog::new(&w);
        while Instant::now() < w.end {
            let Op::Publish { xml, .. } = inputs.durable_publish(published) else {
                unreachable!();
            };
            let from = Instant::now();
            let traced = opts.trace && from >= w.mid;
            if traced {
                log.rec.enter("client.publish", published as u32);
            }
            let result = community.nodes[0].publish(&xml);
            let to = Instant::now();
            if traced {
                log.rec.exit(None);
            }
            // A refused document is offered again; only acknowledged
            // ones count as published and are looked for afterwards.
            if result.is_ok() {
                published += 1;
                published_bytes += xml.len() as u64;
                if w.contains(from, to) {
                    window_bytes += xml.len() as u64;
                }
            }
            let verdict = result.map(|_| None).map_err(|e| format!("publish: {e}"));
            log.record(&w, from, to, verdict);
        }
        log
    };
    let (edges, mut logs) = measure_window(&community, &w, vec![client]);
    let mut primary = logs.pop().expect("publisher log");
    let disk = dir_bytes(&community.data_dir(0).expect("durable community"));

    // Restart node 0 on its populated directory, several times.
    let mut recover = Vec::new();
    for _ in 0..scale.restarts {
        primary.attempted += 1;
        let from = Instant::now();
        community
            .restart_node0()
            .map_err(|e| format!("restart failed: {e}"))?;
        if community.nodes[0].await_ready(Duration::from_secs(30)) {
            recover.push(ms(from.elapsed()));
        } else {
            primary.fail("restart: node 0 not ready within 30 s".into());
        }
    }
    // Every acknowledged document must have survived the restarts: its
    // `<id>` text is a term only it has.
    for j in 0..published {
        primary.attempted += 1;
        let found = community.nodes[0]
            .search_exhaustive(&format!("d{j}"))
            .map(|r| r.hits.len())
            .map_err(|e| e.to_string());
        if found != Ok(1) {
            primary.fail(format!("document d{j} after recovery: {found:?}"));
        }
    }
    drop(community);
    let _ = std::fs::remove_dir_all(&data);

    let wal_bytes = counter(&edges.obs_node0, names::STORE_WAL_BYTES);
    let extra = BTreeMap::from([
        (
            "recover_p50_ms".to_string(),
            (median(&recover), Some(recover.len() as u64)),
        ),
        (
            "disk_bytes_per_doc_byte".to_string(),
            (ratio(disk as f64, published_bytes as f64), None),
        ),
        (
            "durable.wal_bytes_per_doc_byte".to_string(),
            (ratio(wal_bytes, window_bytes as f64), None),
        ),
    ]);
    let measured = Measured {
        setup_s: ready.setup_s,
        rebuilds: ready.rebuilds,
        window_s: opts.window.as_secs_f64(),
        edges,
        kind: Kind::Publish,
        primary,
        publishes: None,
        extra,
        notes: ready.notes,
    };
    let shadow = opts.trace.then(|| {
        let stores = (0..scale.durable_peers)
            .map(|_| LocalDataStore::new())
            .collect();
        let ops = (0..scale.trace_ops)
            .map(|j| inputs.durable_publish(j))
            .collect();
        (stores, ops)
    });
    conclude("publish-durable", opts, spec, measured, shadow, &baseline)
}

// ----------------------------------------------------------------------
// gossip-converge
// ----------------------------------------------------------------------

fn gossip_converge(opts: &RunOpts, spec: &Benchmark) -> Result<RunResult, String> {
    let baseline = Baseline::take();
    let scale = opts.scale;
    let inputs = Inputs::generate(opts.seed);
    let peers = scale.converge_peers;
    let docs = peers * scale.converge_docs_per_peer;
    let assignment: Vec<usize> = (0..docs)
        .map(|d| d / scale.converge_docs_per_peer)
        .collect();
    let ready = setups(
        scale.converge_setup_reps,
        |_| {
            let community = start(peers, opts, None)?;
            load_corpus(&community, &inputs, &assignment, docs)?;
            Ok(community)
        },
        |_| Ok(()),
    )?;
    let community = &ready.community;

    let w = Window::opening_now(opts);
    // One driver: publish an update, poll until every directory digest
    // agrees again, repeat. It keeps two logs — the convergences (the
    // primary operation) and the publishes that started them.
    let driver = || {
        let mut converge = ClientLog::new(&w);
        let mut publishes = ClientLog::new(&w);
        for j in 0.. {
            if Instant::now() >= w.end {
                break;
            }
            let Op::Publish { peer, xml } = inputs.converge_update(j, peers) else {
                unreachable!();
            };
            let from = Instant::now();
            let traced = opts.trace && from >= w.mid;
            if traced {
                converge.rec.enter("client.update", j as u32);
                converge.rec.enter("client.publish", j as u32);
            }
            let result = community.nodes[peer].publish(&xml);
            let returned = Instant::now();
            if traced {
                converge.rec.exit(None);
            }
            let deadline = returned + CONVERGE_TIMEOUT;
            let mut agreed = community.converged();
            while !agreed && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
                agreed = community.converged();
            }
            let to = Instant::now();
            if traced {
                converge.rec.exit(None);
            }
            let verdict = match (result, agreed) {
                (Err(e), _) => Err(format!("publish: {e}")),
                (Ok(_), false) => Err(format!(
                    "update {j} did not converge in {CONVERGE_TIMEOUT:?}"
                )),
                (Ok(_), true) => Ok(None),
            };
            // An update counts when publish and convergence both fit
            // the window; its failure is charged once, to the update.
            if w.contains(from, to) {
                if verdict.is_ok() {
                    publishes.halves[usize::from(from >= w.mid)].push(ms(returned - from));
                }
                converge.record(&w, returned, to, verdict);
            }
        }
        (converge, publishes)
    };
    let (edges, mut logs) = measure_window(community, &w, vec![driver]);
    let (primary, publishes) = logs.pop().expect("driver logs");
    drop(ready.community);
    let measured = Measured {
        setup_s: ready.setup_s,
        rebuilds: ready.rebuilds,
        window_s: opts.window.as_secs_f64(),
        edges,
        kind: Kind::Converge,
        primary,
        publishes: Some(publishes),
        extra: BTreeMap::new(),
        notes: ready.notes,
    };
    let shadow = opts.trace.then(|| {
        let stores = PeerStores::load(&inputs, &assignment, peers, docs).stores;
        let ops = (0..scale.trace_ops)
            .map(|j| inputs.converge_update(j, peers))
            .collect();
        (stores, ops)
    });
    conclude("gossip-converge", opts, spec, measured, shadow, &baseline)
}

/// Run one workload by name.
pub fn run(workload: &str, opts: &RunOpts, spec: &Benchmark) -> Result<RunResult, String> {
    match workload {
        "search-warm" => search_warm(opts, spec),
        "search-churn" => search_churn(opts, spec),
        "publish-durable" => publish_durable(opts, spec),
        "gossip-converge" => gossip_converge(opts, spec),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}
