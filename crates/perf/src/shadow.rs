//! The shadow pipeline: a workload's first operations replayed through
//! the *public functions* of each layer, one span per call, so every
//! layer gets a cost of its own without touching the program.
//!
//! Shadow publish = `Analyzer::analyze` → `InvertedIndex::add_document`
//! → `LocalDataStore::publish` → `BloomDiff::between` →
//! `CompressedBloom::compress` → `GossipEngine::local_update_delta` +
//! `tick` → `write_frame(LiveMsg::Gossip)` into memory →
//! `read_any_frame_meta_sized` → peer engine `handle_message` → mirror
//! `apply_in_place` / `decompress` / `BloomTree::update_peer` →
//! `crc_frame_bytes` + `DurableStore::append`.
//!
//! Shadow search = `parse_query` → `QueryCache::plan` (tree mounted) →
//! `probe_row` / `BloomTree::candidates` on the first term → per ranked
//! peer: `write_meta_frame(SearchRequest)` → decode → `score_index` →
//! `write_correlated_frame(SearchResponse)` → decode.
//!
//! The initiator's merge and stopping rule are private to the program
//! and show up only as `live.search_residual_ms`.

use crate::community::peer_id;
use crate::inputs::Op;
use crate::measure::{median, ratio};
use crate::trace::Recorder;
use planetp::admission::{AdmissionConfig, AdmissionGate};
use planetp::live::{LiveDelta, LiveMsg, LivePayload, SearchDoc};
use planetp::wire::{
    crc_frame_bytes, read_any_frame_meta_sized, write_correlated_frame, write_frame,
    write_meta_frame, FrameMeta, Priority,
};
use planetp::{
    parse_query, DurableConfig, DurableStore, LocalDataStore, ScopedJob, StoreMetrics, WalRecord,
    WorkerPool,
};
use planetp_bloom::{probe_row, BloomDiff, BloomFilter, CompressedBloom, HashedKey};
use planetp_bloomtree::{BloomTree, PeerEntry, TreeConfig, TreeMetrics};
use planetp_gossip::{
    GossipConfig, GossipEngine, Message, Rumor, RumorId, RumorKind, RumorPayload, SpeedClass,
};
use planetp_index::{InvertedIndex, XmlDocument};
use planetp_search::{score_index, IpfTable, PeerFilterRef, QueryCache};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Shadow operations between two `DurableStore::write_snapshot` calls.
const SNAPSHOT_EVERY: u32 = 64;
/// Repetitions of the fixed-cost probes (`run_all`, `admit`, `open`).
const POOL_REPS: usize = 200;
const ADMIT_REPS: usize = 1000;
const OPEN_REPS: usize = 3;

type Engine = GossipEngine<LivePayload>;

/// Layer state the replay runs against.
pub struct Shadow {
    rec: Recorder,
    /// One store per peer, loaded like the live community's.
    stores: Vec<LocalDataStore>,
    /// The searching node's decompressed mirror of every peer's filter
    /// and the directory version it is at.
    mirrors: Vec<BloomFilter>,
    versions: Vec<(u64, u32)>,
    cache: QueryCache,
    tree: BloomTree,
    /// Scratch index, so `add_document` is timed apart from `publish`.
    scratch_index: InvertedIndex,
    publisher: Engine,
    receiver: Engine,
    durable: DurableStore,
    durable_dir: PathBuf,
    clock_ms: u64,
    /// Non-timing observations, by metric name.
    gauges: BTreeMap<&'static str, Vec<f64>>,
    publishes: u32,
}

fn payload(bloom: CompressedBloom) -> LivePayload {
    LivePayload {
        addr: "127.0.0.1:0".to_string(),
        bloom,
        replica: None,
    }
}

/// Deliver `msg` and ping-pong the replies until both sides go quiet.
fn converse(from: &mut Engine, to: &mut Engine, msg: Message<LivePayload>, now: u64) {
    let (from_id, to_id) = (from.id(), to.id());
    let mut inbound = vec![msg];
    let mut at_receiver = true;
    while !inbound.is_empty() {
        let (engine, sender) = if at_receiver {
            (&mut *to, from_id)
        } else {
            (&mut *from, to_id)
        };
        inbound = inbound
            .drain(..)
            .flat_map(|m| engine.handle_message(sender, m, now))
            .map(|(_, m)| m)
            .collect();
        at_receiver = !at_receiver;
    }
}

impl Shadow {
    /// Shadow state over `stores` (consumed), persisting under `dir`.
    pub fn new(stores: Vec<LocalDataStore>, seed: u64, dir: &Path) -> std::io::Result<Self> {
        let mirrors: Vec<BloomFilter> = stores.iter().map(|s| s.bloom().clone()).collect();
        let versions = vec![(1u64, 1u32); stores.len()];
        let entries: Vec<PeerEntry<'_>> = mirrors
            .iter()
            .enumerate()
            .map(|(i, filter)| PeerEntry {
                id: u64::from(peer_id(i)),
                version: versions[i],
                filter,
            })
            .collect();
        let tree = BloomTree::bulk_build(TreeConfig::default(), &entries);
        let cache = QueryCache::new().with_tree(TreeConfig::default(), TreeMetrics::detached());
        let config = GossipConfig::default();
        let mut publisher = Engine::new(
            1,
            SpeedClass::Fast,
            config,
            seed,
            Some(payload(CompressedBloom::compress(&mirrors[0]))),
            None,
        );
        let mut receiver = Engine::new(
            2,
            SpeedClass::Fast,
            config,
            seed ^ 2,
            Some(payload(CompressedBloom::compress(&mirrors[0]))),
            Some((1, SpeedClass::Fast)),
        );
        // Join: the receiver's first rounds download the directory.
        for round in 0..4 {
            if let Some(out) = receiver.tick(round) {
                converse(&mut receiver, &mut publisher, out.message, round);
            }
        }
        let _ = std::fs::remove_dir_all(dir);
        let durable = DurableStore::open(DurableConfig::at(dir), StoreMetrics::detached(), None)?;
        Ok(Self {
            rec: Recorder::new(std::time::Instant::now()),
            stores,
            mirrors,
            versions,
            cache,
            tree,
            scratch_index: InvertedIndex::new(),
            publisher,
            receiver,
            durable,
            durable_dir: dir.to_path_buf(),
            clock_ms: 10,
            gauges: BTreeMap::new(),
            publishes: 0,
        })
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.entry(name).or_default().push(value);
    }

    /// Replay one generated operation.
    pub fn replay(&mut self, op_id: u32, op: &Op) -> std::io::Result<()> {
        match op {
            Op::Publish { peer, xml } => self.publish(op_id, *peer, xml),
            Op::Search { query, .. } => self.search(op_id, query),
        }
    }

    fn publish(&mut self, op: u32, peer: usize, xml: &str) -> std::io::Result<()> {
        self.rec.enter("shadow.publish", op);
        let analyzer = self.stores[peer].analyzer().clone();
        let text = XmlDocument::parse(xml)
            .expect("generated documents are well-formed")
            .indexable_text();
        let terms = self
            .rec
            .time("index.analyze", op, || analyzer.analyze(&text));
        let scratch_id = u64::from(op) + 1;
        let scratch = &mut self.scratch_index;
        self.rec.time("index.add_document", op, || {
            scratch.add_document(scratch_id, &terms)
        });

        let prev = self.stores[peer].bloom().clone();
        let store = &mut self.stores[peer];
        let doc = self
            .rec
            .time("datastore.publish", op, || store.publish(xml))
            .expect("generated documents publish");
        let new_filter = self.stores[peer].bloom();
        let diff = self.rec.time("bloom.diff_between", op, || {
            BloomDiff::between(&prev, new_filter)
        });
        let compressed = self.rec.time("bloom.compress", op, || {
            CompressedBloom::compress(new_filter)
        });
        let (diff_bytes, compressed_bytes) = (diff.wire_bytes(), compressed.wire_bytes());
        let payload = payload(compressed);
        let delta = LiveDelta {
            diff: diff.clone(),
            replica: None,
        };

        // Gossip: announce, run a round, carry its message over the
        // wire format into the receiving engine.
        self.clock_ms += 40;
        let now = self.clock_ms;
        let publisher = &mut self.publisher;
        self.rec.time("gossip.local_update", op, || {
            publisher.local_update_delta(payload.clone(), delta.clone())
        });
        let out = self.rec.time("gossip.tick", op, || publisher.tick(now));
        if let Some(out) = out {
            let model = out.message.wire_bytes();
            let is_delta = matches!(
                &out.message,
                Message::Rumor { rumors } if rumors.iter().any(|r| {
                    matches!(r.payload, Some(RumorPayload::Delta(_)))
                })
            );
            let batch = [LiveMsg::Gossip {
                from: 1,
                msg: out.message,
            }];
            let mut frame = Vec::new();
            let encode = if is_delta {
                "wire.gossip_delta_encode"
            } else {
                "wire.gossip_other_encode"
            };
            self.rec
                .time(encode, op, || write_frame(&mut frame, &batch[..]))?;
            let decode = if is_delta {
                "wire.gossip_delta_decode"
            } else {
                "wire.gossip_other_decode"
            };
            let decoded = self.rec.time(decode, op, || {
                read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut &frame[..])
            })?;
            if is_delta {
                self.gauge("wire.gossip_delta_frame_bytes", frame.len() as f64);
                self.gauge("wire.delta_model_bytes", model as f64);
            }
            let (inbound, _, _) = decoded.expect("a frame was written");
            for m in inbound.into_value() {
                if let LiveMsg::Gossip { from, msg } = m {
                    let receiver = &mut self.receiver;
                    let replies = self.rec.time("gossip.handle_message", op, || {
                        receiver.handle_message(from, msg, now)
                    });
                    for (_, reply) in replies {
                        converse(&mut self.receiver, &mut self.publisher, reply, now);
                    }
                }
            }
        }

        // The same update as a full-filter rumor: what a joiner or a
        // peer whose delta chain broke is sent.
        let (status_version, bloom_version) = self.versions[peer];
        let full = [LiveMsg::Gossip {
            from: 1,
            msg: Message::Rumor {
                rumors: vec![Rumor {
                    id: RumorId {
                        subject: peer_id(peer),
                        status_version,
                        bloom_version: bloom_version + 1,
                    },
                    kind: RumorKind::BloomUpdate,
                    payload: Some(RumorPayload::Full(payload.clone())),
                }],
            },
        }];
        let mut frame = Vec::new();
        self.rec.time("wire.gossip_full_encode", op, || {
            write_frame(&mut frame, &full[..])
        })?;
        self.rec.time("wire.gossip_full_decode", op, || {
            read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut &frame[..])
        })?;
        self.gauge("wire.gossip_full_frame_bytes", frame.len() as f64);
        self.gauge("bloom.compressed_bytes", compressed_bytes as f64);
        self.gauge("bloom.diff_bytes", diff_bytes as f64);

        // The searching node's mirror of this peer: patch, or rebuild.
        let mirror = &mut self.mirrors[peer];
        let applied = self
            .rec
            .time("bloom.diff_apply", op, || diff.apply_in_place(mirror));
        assert!(applied, "a diff between consecutive filters applies");
        let decompressed = self
            .rec
            .time("bloom.decompress", op, || payload.bloom.decompress());
        assert!(decompressed.is_some(), "a compressed filter decompresses");
        self.versions[peer].1 += 1;
        let (tree, mirror, version) = (&mut self.tree, &self.mirrors[peer], self.versions[peer]);
        self.rec.time("bloomtree.update_peer", op, || {
            tree.update_peer(u64::from(peer_id(peer)), version, mirror)
        });

        // Durability: the two records a live publish appends.
        let record = WalRecord::Publish {
            doc,
            xml: xml.to_string(),
        };
        self.rec
            .time("wire.crc_frame", op, || crc_frame_bytes(&record))?;
        let durable = &mut self.durable;
        self.rec
            .time("durable.append", op, || durable.append(record))?;
        self.rec.time("durable.append", op, || {
            durable.append(WalRecord::OwnVersions {
                status_version,
                bloom_version: bloom_version + 1,
            })
        })?;
        self.publishes += 1;
        if self.publishes.is_multiple_of(SNAPSHOT_EVERY) {
            self.rec
                .time("durable.snapshot", op, || durable.write_snapshot())?;
        }
        self.rec.exit(None);
        Ok(())
    }

    fn search(&mut self, op: u32, raw: &str) -> std::io::Result<()> {
        self.rec.enter("shadow.search", op);
        let analyzer = self.stores[0].analyzer().clone();
        let terms = self
            .rec
            .time("search.parse_query", op, || parse_query(raw, &analyzer))
            .terms;
        let view: Vec<PeerFilterRef<'_>> = self
            .mirrors
            .iter()
            .enumerate()
            .map(|(i, filter)| PeerFilterRef {
                id: u64::from(peer_id(i)),
                version: self.versions[i],
                filter,
            })
            .collect();
        let misses = self.cache.stats().misses;
        self.rec.enter("search.plan_warm", op);
        let plan = self.cache.plan(&terms, &view);
        let cold = self.cache.stats().misses > misses;
        self.rec.exit(cold.then_some("search.plan_cold"));

        if let Some(term) = terms.last() {
            let key = HashedKey::new(term);
            let mirrors = &self.mirrors;
            self.rec
                .time("bloom.probe_row", op, || probe_row(&key, mirrors));
            let tree = &self.tree;
            self.rec
                .time("bloomtree.candidates", op, || tree.candidates(&key));
        }

        let request = vec![LiveMsg::SearchRequest {
            terms: terms.clone(),
            ipf: plan.ipf.to_pairs(),
            num_peers: view.len(),
        }];
        let meta = FrameMeta::with_deadline(Priority::Interactive, 2_000);
        let mut docs_scored = 0usize;
        for (corr, rp) in plan.ranked.iter().enumerate() {
            let corr = corr as u64;
            let mut frame = Vec::new();
            self.rec.time("wire.search_req_encode", op, || {
                write_meta_frame(&mut frame, corr, meta, &request)
            })?;
            let decoded = self.rec.time("wire.search_req_decode", op, || {
                read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut &frame[..])
            })?;
            let (inbound, _, _) = decoded.expect("a frame was written");
            let Some(LiveMsg::SearchRequest {
                terms: rx_terms,
                ipf,
                num_peers,
            }) = inbound.into_value().into_iter().next()
            else {
                unreachable!("the request round-trips");
            };
            let store = &self.stores[rp.peer];
            let scored = self.rec.time("index.score", op, || {
                let table = IpfTable::from_pairs(ipf, num_peers);
                score_index(store.index(), &rx_terms, &table)
            });
            docs_scored += scored.len();
            let docs: Vec<SearchDoc> = self.rec.time("live.build_docs", op, || {
                scored
                    .into_iter()
                    .filter_map(|(doc, score)| {
                        store.get(doc).map(|r| SearchDoc {
                            doc,
                            score,
                            hash: r.hash,
                            replica_of: None,
                            xml: r.xml.clone(),
                        })
                    })
                    .collect()
            });
            let reply = vec![LiveMsg::SearchResponse { docs }];
            let mut frame = Vec::new();
            self.rec.time("wire.search_resp_encode", op, || {
                write_correlated_frame(&mut frame, corr, &reply)
            })?;
            self.rec.time("wire.search_resp_decode", op, || {
                read_any_frame_meta_sized::<Vec<LiveMsg>>(&mut &frame[..])
            })?;
            self.gauge("wire.search_resp_frame_bytes", frame.len() as f64);
        }
        self.gauge("index.docs_scored_per_query", docs_scored as f64);
        self.rec.exit(None);
        Ok(())
    }

    /// The fixed-cost probes that need no operation: an uncontended
    /// admission pass, a `run_all` of four no-op jobs, and recovery of
    /// the directory the shadow publishes filled.
    pub fn fixed_costs(&mut self) -> std::io::Result<()> {
        let gate = AdmissionGate::new(AdmissionConfig::default());
        for _ in 0..ADMIT_REPS {
            self.rec.time("admission.admit_complete", 0, || {
                let _ = gate.admit(Priority::Interactive, None);
                gate.complete();
            });
        }
        let pool = WorkerPool::new(4);
        for _ in 0..POOL_REPS {
            self.rec.time("pool.run_all_overhead", 0, || {
                let jobs: Vec<ScopedJob<'_, ()>> = (0..4).map(|_| Box::new(|| ()) as _).collect();
                pool.run_all(jobs)
            });
        }
        if self.publishes > 0 {
            for _ in 0..OPEN_REPS {
                let config = DurableConfig::at(&self.durable_dir);
                let opened = self.rec.time("durable.open", 0, || {
                    DurableStore::open(config, StoreMetrics::detached(), None)
                })?;
                // The reopened store replaces the old handle, so only
                // one writer ever has the directory open.
                self.durable = opened;
            }
        }
        Ok(())
    }

    /// Per-layer numbers of the replay, by `BENCHMARK.json` name, plus
    /// the recorder (for `trace.json`). Removes the shadow data dir.
    pub fn finish(self) -> (BTreeMap<String, f64>, Recorder) {
        let Shadow {
            rec,
            gauges,
            durable,
            durable_dir,
            ..
        } = self;
        drop(durable);
        let _ = std::fs::remove_dir_all(&durable_dir);
        let mut out = BTreeMap::new();
        let medians = rec.median_self_ns();
        for (metric, span) in [
            ("index.analyze_ns", "index.analyze"),
            ("index.add_document_ns", "index.add_document"),
            ("index.score_ns", "index.score"),
            ("datastore.publish_ns", "datastore.publish"),
            ("bloom.compress_ns", "bloom.compress"),
            ("bloom.diff_between_ns", "bloom.diff_between"),
            ("bloom.decompress_ns", "bloom.decompress"),
            ("bloom.diff_apply_ns", "bloom.diff_apply"),
            ("bloom.probe_row_ns", "bloom.probe_row"),
            ("bloomtree.candidates_ns", "bloomtree.candidates"),
            ("bloomtree.update_peer_ns", "bloomtree.update_peer"),
            ("search.plan_cold_ns", "search.plan_cold"),
            ("search.plan_warm_ns", "search.plan_warm"),
            ("wire.search_req_encode_ns", "wire.search_req_encode"),
            ("wire.search_req_decode_ns", "wire.search_req_decode"),
            ("wire.search_resp_encode_ns", "wire.search_resp_encode"),
            ("wire.search_resp_decode_ns", "wire.search_resp_decode"),
            ("wire.gossip_full_encode_ns", "wire.gossip_full_encode"),
            ("wire.gossip_full_decode_ns", "wire.gossip_full_decode"),
            ("wire.gossip_delta_encode_ns", "wire.gossip_delta_encode"),
            ("wire.gossip_delta_decode_ns", "wire.gossip_delta_decode"),
            ("wire.crc_frame_ns", "wire.crc_frame"),
            ("pool.run_all_overhead_ns", "pool.run_all_overhead"),
            ("admission.admit_complete_ns", "admission.admit_complete"),
            ("durable.append_ns", "durable.append"),
            ("durable.snapshot_ns", "durable.snapshot"),
            ("durable.open_ns", "durable.open"),
            ("gossip.tick_ns", "gossip.tick"),
            ("gossip.handle_message_ns", "gossip.handle_message"),
        ] {
            // A span that never ran (no such operation replayed) is 0.
            out.insert(
                metric.to_string(),
                medians.get(span).copied().unwrap_or(0.0),
            );
        }
        let gauge = |name: &str| gauges.get(name).map_or(0.0, |v| median(v));
        for name in [
            "index.docs_scored_per_query",
            "bloom.compressed_bytes",
            "bloom.diff_bytes",
            "wire.search_resp_frame_bytes",
            "wire.gossip_full_frame_bytes",
            "wire.gossip_delta_frame_bytes",
        ] {
            out.insert(name.to_string(), gauge(name));
        }
        let sum = |name: &str| gauges.get(name).map_or(0.0, |v| v.iter().sum());
        out.insert(
            "wire.real_over_model_bytes".to_string(),
            ratio(
                sum("wire.gossip_delta_frame_bytes"),
                sum("wire.delta_model_bytes"),
            ),
        );
        (out, rec)
    }
}
