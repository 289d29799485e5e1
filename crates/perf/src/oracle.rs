//! The correctness oracle: what a search must return, computed
//! in-process from the same partition the live community was loaded
//! with. It drives `fail_share`: a search whose result the oracle
//! rejects is a failed operation however fast it was.

use crate::community::K;
use crate::inputs::Inputs;
use planetp::live::LiveSearchResult;
use planetp::{content_hash, parse_query, LocalDataStore};
use planetp_bloom::BloomFilter;
use planetp_search::{score_index, IpfTable};
use std::collections::{HashMap, HashSet};

/// Scores may differ by this much, relatively: IPF values and scores
/// cross the wire as JSON text.
const SCORE_TOLERANCE: f64 = 1e-9;

/// An in-process copy of every peer's data store, loaded in the same
/// order as the live nodes so document ids and filters match.
pub struct PeerStores {
    pub stores: Vec<LocalDataStore>,
}

impl PeerStores {
    /// Load corpus documents `0..docs` into `peers` stores by
    /// `assignment[doc] = peer`.
    pub fn load(inputs: &Inputs, assignment: &[usize], peers: usize, docs: usize) -> Self {
        let mut stores: Vec<LocalDataStore> = (0..peers).map(|_| LocalDataStore::new()).collect();
        for (doc, &peer) in assignment.iter().enumerate().take(docs) {
            stores[peer]
                .publish(&inputs.doc_xml(doc))
                .expect("corpus documents are well-formed");
        }
        Self { stores }
    }

    /// Every peer's uncompressed filter, in peer order.
    pub fn filters(&self) -> Vec<&BloomFilter> {
        self.stores.iter().map(LocalDataStore::bloom).collect()
    }
}

/// What the community as a whole holds for one query.
struct Expected {
    /// `content hash -> TFxIPF score` of every matching document.
    scores: HashMap<u64, f64>,
    /// Score of the last document of the unstopped top-K.
    kth_score: f64,
    /// Size of the unstopped top-K (`min(K, matches)`).
    top_len: usize,
}

/// Expected results for every corpus query.
pub struct Oracle {
    by_query: HashMap<String, Expected>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_TOLERANCE * a.abs().max(b.abs())
}

impl Oracle {
    /// Score every corpus query against every peer's store under the
    /// IPF table the stores' filters give — what an initiator that
    /// contacted *all* peers would merge.
    pub fn for_corpus(inputs: &Inputs, peers: &PeerStores) -> Self {
        let filters = peers.filters();
        let analyzer = peers.stores[0].analyzer().clone();
        let by_query = inputs
            .queries
            .iter()
            .map(|raw| {
                let terms = parse_query(raw, &analyzer).terms;
                let ipf = IpfTable::compute(&terms, &filters);
                let mut scores = HashMap::new();
                for store in &peers.stores {
                    for (doc, score) in score_index(store.index(), &terms, &ipf) {
                        let hash = store.get(doc).expect("scored document exists").hash;
                        scores.insert(hash, score);
                    }
                }
                let mut ranked: Vec<f64> = scores.values().copied().collect();
                ranked.sort_by(|a, b| b.total_cmp(a));
                let top_len = ranked.len().min(K);
                let kth_score = if top_len == 0 {
                    0.0
                } else {
                    ranked[top_len - 1]
                };
                (
                    raw.clone(),
                    Expected {
                        scores,
                        kth_score,
                        top_len,
                    },
                )
            })
            .collect();
        Self { by_query }
    }

    /// Check a ranked result for corpus query `raw` on a quiescent
    /// community. `Ok(recall)` is the share of the unstopped top-K the
    /// (adaptively stopped) search returned; `Err` says what is wrong.
    pub fn check(&self, raw: &str, result: &LiveSearchResult) -> Result<f64, String> {
        let expected = self
            .by_query
            .get(raw)
            .ok_or_else(|| format!("`{raw}` is not a corpus query"))?;
        check_shape(result)?;
        for hit in &result.hits {
            match expected.scores.get(&hit.hash) {
                Some(&score) if close(score, hit.score) => {}
                Some(&score) => {
                    return Err(format!(
                        "hit {:x} scored {} but the oracle says {score}",
                        hit.hash, hit.score
                    ))
                }
                None => return Err(format!("hit {:x} matches no document", hit.hash)),
            }
        }
        if expected.top_len == 0 {
            return Ok(1.0);
        }
        // Ties at the K-th score are interchangeable.
        let floor = expected.kth_score * (1.0 - SCORE_TOLERANCE);
        let in_top = result.hits.iter().filter(|h| h.score >= floor).count();
        Ok(in_top.min(expected.top_len) as f64 / expected.top_len as f64)
    }
}

/// The checks every ranked result must pass, whatever the corpus state:
/// complete coverage, at most K hits, score-descending, no document
/// twice, and each hit's hash is the hash of the XML it carries.
pub fn check_shape(result: &LiveSearchResult) -> Result<(), String> {
    if !result.coverage.is_complete() {
        return Err(format!("incomplete coverage: {:?}", result.coverage));
    }
    if result.hits.len() > K {
        return Err(format!("{} hits for k = {K}", result.hits.len()));
    }
    if result.hits.windows(2).any(|w| w[0].score < w[1].score) {
        return Err("hits are not score-descending".into());
    }
    let mut seen = HashSet::new();
    for hit in &result.hits {
        if !seen.insert(hit.hash) {
            return Err(format!("document {:x} returned twice", hit.hash));
        }
        if content_hash(&hit.xml) != hit.hash {
            return Err(format!("hit {:x} carries XML of another hash", hit.hash));
        }
    }
    Ok(())
}

/// Known-item rule of `search-churn`: the result is well-shaped and one
/// hit is the document carrying the analyzed unique `token`.
pub fn check_known_item(result: &LiveSearchResult, token: &str) -> Result<(), String> {
    check_shape(result)?;
    let needle = format!("{token} ");
    if result.hits.iter().any(|h| h.xml.contains(&needle)) {
        Ok(())
    } else {
        Err(format!(
            "the document carrying `{token}` is not among the hits"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planetp::live::{LiveHit, SearchCoverage};

    /// The unstopped merge of every peer's answer: the result a correct
    /// node returns when it contacts everyone.
    fn ideal(inputs: &Inputs, peers: &PeerStores, raw: &str) -> LiveSearchResult {
        let filters = peers.filters();
        let terms = parse_query(raw, peers.stores[0].analyzer()).terms;
        let ipf = IpfTable::compute(&terms, &filters);
        let mut hits = Vec::new();
        for (p, store) in peers.stores.iter().enumerate() {
            for (doc, score) in score_index(store.index(), &terms, &ipf) {
                let rec = store.get(doc).unwrap();
                hits.push(LiveHit {
                    peer: p as u32 + 1,
                    doc,
                    score,
                    hash: rec.hash,
                    replica_of: None,
                    xml: rec.xml.clone(),
                });
            }
        }
        hits.sort_by(|a, b| b.score.total_cmp(&a.score));
        hits.truncate(K);
        let _ = inputs;
        LiveSearchResult {
            hits,
            coverage: SearchCoverage {
                peers_considered: peers.stores.len(),
                peers_contacted: peers.stores.len(),
                ..SearchCoverage::default()
            },
        }
    }

    #[test]
    fn accepts_the_ideal_result_and_rejects_corruptions() {
        let inputs = Inputs::generate(3);
        let peers = PeerStores::load(&inputs, &inputs.partition(3), 3, 300);
        let oracle = Oracle::for_corpus(&inputs, &peers);
        let raw = inputs
            .queries
            .iter()
            .find(|q| ideal(&inputs, &peers, q).hits.len() >= 3)
            .expect("some query matches three documents");
        let good = ideal(&inputs, &peers, raw);
        assert_eq!(oracle.check(raw, &good), Ok(1.0));

        let mut fewer = ideal(&inputs, &peers, raw);
        fewer.hits.truncate(1);
        let recall = oracle
            .check(raw, &fewer)
            .expect("a short list is still correct");
        assert!(recall < 1.0);

        let mut rescored = ideal(&inputs, &peers, raw);
        rescored.hits[0].score *= 1.0 + 1e-6;
        assert!(oracle.check(raw, &rescored).is_err());

        let mut swapped = ideal(&inputs, &peers, raw);
        swapped.hits.swap(0, 2);
        let distinct = swapped.hits[0].score != swapped.hits[2].score;
        assert!(!distinct || oracle.check(raw, &swapped).is_err());

        let mut doubled = ideal(&inputs, &peers, raw);
        doubled.hits[1] = doubled.hits[0].clone();
        assert!(oracle.check(raw, &doubled).is_err());

        let mut foreign = ideal(&inputs, &peers, raw);
        foreign.hits[0].xml.push(' ');
        assert!(oracle.check(raw, &foreign).is_err());

        let mut partial = ideal(&inputs, &peers, raw);
        partial.coverage.peers_failed = 1;
        assert!(oracle.check(raw, &partial).is_err());
    }

    #[test]
    fn known_item_must_be_present() {
        let xml = crate::inputs::render_doc("c1", "tok1x0 alpha beta");
        let hit = LiveHit {
            peer: 2,
            doc: 1,
            score: 1.0,
            hash: content_hash(&xml),
            replica_of: None,
            xml,
        };
        let result = LiveSearchResult {
            hits: vec![hit],
            coverage: SearchCoverage::default(),
        };
        assert!(check_known_item(&result, "tok1x0").is_ok());
        assert!(check_known_item(&result, "tok1x1").is_err());
    }
}
