//! Generated inputs: the corpus, its partition over peers, and each
//! workload's seeded operation schedule.
//!
//! The corpus and its partition are the same on every run — what a
//! search returns, and so every byte and millisecond per operation,
//! depends on them, and runs with different seeds must stay comparable.
//! `--seed` draws the *schedule*: which query comes when, which peer
//! publishes next, which document a publish starts from; it also seeds
//! each node's gossip engine (`LiveConfig::seed`). The program under
//! test sees generated documents and queries, never the seed or a
//! workload name.

use planetp_corpus::{cacm_like, partition_docs, Collection, Partition};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of the Weibull partition (the corpus keeps `cacm_like`'s own).
const PARTITION_SEED: u64 = 0x5EED_CAC0;

/// Length of one cycle of the `search-warm` query schedule: the 52
/// corpus queries apportioned Zipf(1.0) by rank over this many slots.
pub const WARM_CYCLE: usize = 128;

/// Unique tokens each `search-churn` document carries: one per search
/// that may target it, so every search plans a never-seen term. At 4
/// documents/s this supplies 64 fresh tokens/s.
pub const CHURN_TOKENS: usize = 16;

/// One generated operation, as a client issues it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `search_ranked(query, K)` on node 0.
    Search {
        /// Raw query text.
        query: String,
        /// For a known-item search: the unique token whose document
        /// must be among the hits.
        known_item: Option<String>,
    },
    /// `publish(xml)` on `peer` (index into the community).
    Publish {
        /// Publishing peer.
        peer: usize,
        /// The document.
        xml: String,
    },
}

/// The corpus and the schedule generator for one seed.
#[derive(Debug)]
pub struct Inputs {
    /// Seed of the operation schedules.
    pub seed: u64,
    /// CACM-like collection (3204 documents, 52 judged queries).
    pub collection: Collection,
    /// The corpus queries as raw text, in corpus (= popularity) order.
    pub queries: Vec<String>,
    /// [`WARM_CYCLE`] query indexes holding every corpus query in
    /// Zipf(1.0) proportion by rank, most popular first.
    zipf_slots: Vec<usize>,
}

/// Token `m` of churn document `j`.
pub fn churn_token(j: usize, m: usize) -> String {
    format!("tok{j}x{m}")
}

/// Render a document with the given id text and body. The `<id>` keeps
/// content hashes unique even when two bodies coincide, and its text is
/// a term only this document has.
pub fn render_doc(id: &str, body: &str) -> String {
    format!("<doc><id>{id}</id><body>{body}</body></doc>")
}

/// `slots` split over `n` ranks in proportion to `1/rank`, every rank
/// getting at least one (largest-remainder apportionment).
fn zipf_quota(n: usize, slots: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let spare = (slots - n) as f64;
    let exact: Vec<f64> = (1..=n).map(|r| spare / (r as f64 * harmonic)).collect();
    let mut quota: Vec<usize> = exact.iter().map(|&e| 1 + e as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| (exact[b].fract()).total_cmp(&exact[a].fract()));
    let short = slots - quota.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(short) {
        quota[rank] += 1;
    }
    quota
}

impl Inputs {
    /// The corpus, with schedules drawn from `seed`.
    pub fn generate(seed: u64) -> Self {
        let collection = Collection::generate(cacm_like());
        let queries: Vec<String> = collection
            .queries
            .iter()
            .map(|q| q.terms.join(" "))
            .collect();
        let zipf_slots = zipf_quota(queries.len(), WARM_CYCLE)
            .into_iter()
            .enumerate()
            .flat_map(|(query, copies)| std::iter::repeat_n(query, copies))
            .collect();
        Self {
            seed,
            collection,
            queries,
            zipf_slots,
        }
    }

    /// Corpus document `doc` as XML.
    pub fn doc_xml(&self, doc: usize) -> String {
        render_doc(&format!("d{doc}"), &self.collection.docs[doc].text())
    }

    /// Weibull partition of the corpus over `peers`, as §7.3:
    /// `assignment[doc] = peer`.
    pub fn partition(&self, peers: usize) -> Vec<usize> {
        partition_docs(
            self.collection.docs.len(),
            peers,
            Partition::paper(),
            PARTITION_SEED,
        )
    }

    /// A generator for one schedule, distinct per `stream`.
    fn rng(&self, stream: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// `search-warm`: one cycle of client `client`'s searches — the
    /// corpus queries in Zipf(1.0) proportion ([`WARM_CYCLE`] slots),
    /// in seeded order. The client repeats the cycle.
    pub fn warm_cycle(&self, client: u64) -> Vec<Op> {
        let mut slots = self.zipf_slots.clone();
        slots.shuffle(&mut self.rng(0x5EA0 + client));
        slots
            .into_iter()
            .map(|q| Op::Search {
                query: self.queries[q].clone(),
                known_item: None,
            })
            .collect()
    }

    /// The corpus query paired with churn document `j`: popular queries
    /// more often, by the same Zipf proportion.
    fn churn_query(&self, j: usize) -> &str {
        let slot = self
            .rng(0xC4A2_0000 + j as u64)
            .random_range(0..self.zipf_slots.len());
        &self.queries[self.zipf_slots[slot]]
    }

    /// `search-churn`: publish number `j` — a short corpus-like document
    /// carrying [`CHURN_TOKENS`] unique tokens `tok<j>x<m>` next to the
    /// terms of the corpus query it will be searched with (three times
    /// over, so it outranks every corpus document for that query).
    pub fn churn_publish(&self, j: usize, peers: usize) -> Op {
        let mut rng = self.rng(0xC4A2_8000 + j as u64);
        let filler = &self.collection.docs[rng.random_range(0..self.collection.docs.len())];
        let tokens: Vec<String> = (0..CHURN_TOKENS).map(|m| churn_token(j, m)).collect();
        let tail: Vec<&str> = filler.terms.iter().take(8).map(String::as_str).collect();
        let query = self.churn_query(j);
        let body = format!(
            "{} {query} {query} {query} {}",
            tokens.join(" "),
            tail.join(" ")
        );
        Op::Publish {
            // Round-robin over every peer but the searching node 0.
            peer: 1 + j % (peers - 1),
            xml: render_doc(&format!("c{j}"), &body),
        }
    }

    /// `search-churn`: the known-item search for token `m` of churn
    /// document `j`. Each `(j, m)` is a term the community has never
    /// been asked about, so planning it misses the term cache.
    pub fn churn_search(&self, j: usize, m: usize) -> Op {
        let token = churn_token(j, m);
        Op::Search {
            query: format!("{} {token}", self.churn_query(j)),
            known_item: Some(token),
        }
    }

    /// `publish-durable`: publish number `j` into node 0 — the corpus in
    /// order from a seeded starting document, cycling; the id stays
    /// unique past one cycle.
    pub fn durable_publish(&self, j: usize) -> Op {
        let docs = self.collection.docs.len();
        let first = self.rng(0xD07A).random_range(0..docs);
        Op::Publish {
            peer: 0,
            xml: render_doc(
                &format!("d{j}"),
                &self.collection.docs[(first + j) % docs].text(),
            ),
        }
    }

    /// `gossip-converge`: update number `j` — a small document with a
    /// fresh token, published on a seeded peer.
    pub fn converge_update(&self, j: usize, peers: usize) -> Op {
        let mut rng = self.rng(0x6055_0000 + j as u64);
        Op::Publish {
            peer: rng.random_range(0..peers),
            xml: render_doc(&format!("u{j}"), &format!("upd{j} fresh note")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let (a, b) = (Inputs::generate(7), Inputs::generate(7));
        assert_eq!(a.warm_cycle(0), b.warm_cycle(0));
        assert_eq!(a.churn_publish(3, 12), b.churn_publish(3, 12));
        assert_eq!(a.churn_search(3, 5), b.churn_search(3, 5));
        assert_eq!(a.durable_publish(9), b.durable_publish(9));
        assert_eq!(a.converge_update(4, 16), b.converge_update(4, 16));
        let c = Inputs::generate(8);
        assert_ne!(a.warm_cycle(0), c.warm_cycle(0));
        assert_ne!(a.warm_cycle(0), a.warm_cycle(1));
    }

    #[test]
    fn corpus_has_the_stated_shape() {
        let inputs = Inputs::generate(1);
        assert_eq!(inputs.collection.docs.len(), 3204);
        assert_eq!(inputs.queries.len(), 52);
    }

    #[test]
    fn warm_cycle_is_zipf_over_every_query() {
        let quota = zipf_quota(52, WARM_CYCLE);
        assert_eq!(quota.iter().sum::<usize>(), WARM_CYCLE);
        assert!(quota.iter().all(|&q| q >= 1));
        assert!(
            quota.windows(2).all(|w| w[0] >= w[1]),
            "popularity falls with rank"
        );
        assert!(quota[0] >= 10 * quota[51]);
        // Every seed runs the same multiset, in another order.
        let sorted = |seed| {
            let mut ops: Vec<String> = Inputs::generate(seed)
                .warm_cycle(0)
                .into_iter()
                .map(|op| format!("{op:?}"))
                .collect();
            ops.sort();
            ops
        };
        assert_eq!(sorted(1), sorted(2));
    }
}
