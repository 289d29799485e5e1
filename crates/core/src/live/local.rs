//! This node's own documents: the [`LocalDataStore`] behind its lock,
//! and the one place local documents become [`SearchDoc`]s.
//!
//! The store lock is a leaf: nothing else is locked while it is held
//! (the replica origins are snapshotted *before* it is taken).

use parking_lot::Mutex;
use planetp_bloom::BloomFilter;
use planetp_index::Analyzer;
use planetp_replica::OwnDoc;
use planetp_search::IpfTable;

use super::stats::NodeStats;
use super::{Inner, SearchDoc};
use crate::datastore::LocalDataStore;
use crate::durable::NodeState;
use crate::error::PlanetPError;

/// The local data store behind its (leaf) lock.
pub(super) struct LocalDocs {
    store: Mutex<LocalDataStore>,
}

impl LocalDocs {
    /// A store holding whatever recovery found on disk, under the
    /// original doc ids (remote peers hold `(peer, doc)` references
    /// from earlier searches). WAL frames are checksummed, so the XML
    /// parses; a failure here is a bug, not bad input.
    pub(super) fn restore(
        persisted: Option<&NodeState>,
        stats: &NodeStats,
    ) -> Result<Self, PlanetPError> {
        let mut store = LocalDataStore::new();
        for (doc, xml) in persisted.into_iter().flat_map(|s| &s.docs) {
            store.restore_document(*doc, xml)?;
            stats.recovery_docs_restored.inc();
        }
        Ok(Self {
            store: Mutex::new(store),
        })
    }

    /// The uncompressed filter over everything currently stored.
    pub(super) fn bloom(&self) -> BloomFilter {
        self.store.lock().bloom().clone()
    }
}

/// What a search asks of one peer's store: a TFxIPF scoring under the
/// initiator's IPF view (§5.2), or a conjunction (§5.1, scores zero).
#[derive(Clone, Copy)]
pub(super) enum LocalQuery<'a> {
    Ranked(&'a [String], &'a IpfTable),
    Conjunction(&'a [String]),
}

impl Inner {
    /// The local documents matching `query`, annotated for
    /// replica-aware merging at the initiator. Used by both searches'
    /// own slot and by both request handlers.
    pub(super) fn local_docs(&self, query: LocalQuery<'_>) -> Vec<SearchDoc> {
        let origins = self.replica_origins();
        let store = self.local.store.lock();
        let scored: Vec<(u64, f64)> = match query {
            LocalQuery::Ranked(terms, ipf) => {
                planetp_search::score_index(store.index(), terms, ipf)
            }
            LocalQuery::Conjunction(terms) => store
                .search_conjunction(terms)
                .into_iter()
                .map(|d| (d, 0.0))
                .collect(),
        };
        scored
            .into_iter()
            .filter_map(|(doc, score)| {
                store.get(doc).map(|r| SearchDoc {
                    doc,
                    score,
                    hash: r.hash,
                    replica_of: origins.get(&doc).copied(),
                    xml: r.xml.clone(),
                })
            })
            .collect()
    }

    pub(super) fn analyzer(&self) -> Analyzer {
        self.local.store.lock().analyzer().clone()
    }

    pub(super) fn store_publish(&self, xml: &str) -> Result<u64, PlanetPError> {
        self.local.store.lock().publish(xml)
    }

    pub(super) fn store_unpublish(&self, doc: u64) -> Result<(), PlanetPError> {
        self.local.store.lock().unpublish(doc)
    }

    pub(super) fn doc_xml(&self, doc: u64) -> Option<String> {
        self.local.store.lock().get(doc).map(|r| r.xml.clone())
    }

    /// Home-owned documents — everything stored that is not in
    /// `hosted` (hosted replicas are their home's responsibility).
    pub(super) fn own_docs(&self, hosted: impl Fn(u64) -> bool) -> Vec<OwnDoc> {
        let store = self.local.store.lock();
        store
            .documents()
            .filter(|rec| !hosted(rec.id))
            .map(|rec| OwnDoc {
                doc: rec.id,
                hash: rec.hash,
                bytes: rec.xml.len() as u64,
            })
            .collect()
    }
}
