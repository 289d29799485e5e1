//! Inverse peer frequency (IPF).
//!
//! "For a term t, IPF_t is computed as log(1 + N/N_t), where N is the
//! number of peers in the community and N_t is the number of peers that
//! have one or more documents with term t in it. ... IPF can
//! conveniently be computed using the Bloom filters collected at each
//! peer: N is the number of Bloom filters, N_t is the number of hits for
//! term t against these Bloom filters." (§5.2)
//!
//! Bloom false positives inflate `N_t` slightly, deflating IPF — part of
//! the accuracy PlanetP trades for its compact summaries.

use planetp_bloom::{BloomFilter, HashedKey};
use std::borrow::Borrow;
use std::collections::HashMap;

/// IPF values for a query's terms, computed against a set of peer Bloom
/// filters.
#[derive(Debug, Clone, Default)]
pub struct IpfTable {
    values: HashMap<String, f64>,
    num_peers: usize,
}

impl IpfTable {
    /// Compute IPF for each query term against the community's filters.
    ///
    /// Filters are borrowed (`&[BloomFilter]` and `&[&BloomFilter]` both
    /// work) — callers holding a directory of filters should pass
    /// references rather than cloning. Each term is hashed once, not
    /// once per filter.
    pub fn compute<F: Borrow<BloomFilter>>(query_terms: &[String], filters: &[F]) -> Self {
        let n = filters.len();
        let mut values = HashMap::with_capacity(query_terms.len());
        for t in query_terms {
            if values.contains_key(t) {
                continue;
            }
            let key = HashedKey::new(t);
            let n_t = filters
                .iter()
                .filter(|f| Borrow::<BloomFilter>::borrow(*f).contains_hashed(&key))
                .count();
            values.insert(t.clone(), ipf(n, n_t));
        }
        Self {
            values,
            num_peers: n,
        }
    }

    /// Rebuild a table from `(term, ipf)` pairs (e.g. received over the
    /// wire so every contacted peer scores with the initiator's view).
    pub fn from_pairs(pairs: Vec<(String, f64)>, num_peers: usize) -> Self {
        Self {
            values: pairs.into_iter().collect(),
            num_peers,
        }
    }

    /// Export as `(term, ipf)` pairs (wire form).
    pub fn to_pairs(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self.values.iter().map(|(t, &x)| (t.clone(), x)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// IPF of a term; 0 for terms not in the query set.
    pub fn get(&self, term: &str) -> f64 {
        self.values.get(term).copied().unwrap_or(0.0)
    }

    /// Community size the table was computed for.
    pub fn num_peers(&self) -> usize {
        self.num_peers
    }

    /// Iterate `(term, ipf)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(t, &v)| (t.as_str(), v))
    }
}

/// `IPF_t = ln(1 + N / N_t)`. A term on no peer gets the maximum
/// possible weight for the community size (it cannot contribute hits
/// anyway, but the value stays finite).
pub fn ipf(num_peers: usize, peers_with_term: usize) -> f64 {
    let n = num_peers as f64;
    if peers_with_term == 0 {
        return (1.0 + n / 1.0).ln().max(0.0);
    }
    (1.0 + n / peers_with_term as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use planetp_bloom::BloomParams;

    fn filter_with(terms: &[&str]) -> BloomFilter {
        let mut f = BloomFilter::new(BloomParams::for_capacity(1000, 0.001));
        for t in terms {
            f.insert(t);
        }
        f
    }

    #[test]
    fn rare_terms_weigh_more() {
        let filters = vec![
            filter_with(&["common", "rare"]),
            filter_with(&["common"]),
            filter_with(&["common"]),
            filter_with(&["common"]),
        ];
        let t = IpfTable::compute(&["common".into(), "rare".into()], &filters);
        assert!(t.get("rare") > t.get("common"));
        // Ubiquitous term: ln(1 + 4/4) = ln 2.
        assert!((t.get("common") - 2.0f64.ln()).abs() < 1e-9);
        // Rare term: ln(1 + 4/1) = ln 5.
        assert!((t.get("rare") - 5.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn absent_term_gets_max_weight() {
        let filters = vec![filter_with(&["x"]); 3];
        let t = IpfTable::compute(&["zebra-unseen".into()], &filters);
        assert!((t.get("zebra-unseen") - 4.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn unknown_term_reads_zero() {
        let filters: Vec<BloomFilter> = Vec::new();
        let t = IpfTable::compute(&[], &filters);
        assert_eq!(t.get("anything"), 0.0);
    }

    #[test]
    fn borrowed_filters_compute_identically() {
        let filters = vec![
            filter_with(&["a", "b"]),
            filter_with(&["b"]),
            filter_with(&["c"]),
        ];
        let refs: Vec<&BloomFilter> = filters.iter().collect();
        let q: Vec<String> = vec!["a".into(), "b".into(), "missing".into()];
        let owned = IpfTable::compute(&q, &filters);
        let borrowed = IpfTable::compute(&q, &refs);
        assert_eq!(owned.to_pairs(), borrowed.to_pairs());
    }

    #[test]
    fn ipf_monotone_in_rarity() {
        let mut prev = f64::INFINITY;
        for n_t in 1..=10 {
            let v = ipf(10, n_t);
            assert!(v < prev, "ipf not strictly decreasing at {n_t}");
            prev = v;
        }
    }

    #[test]
    fn duplicate_query_terms_computed_once() {
        let filters = vec![filter_with(&["a"])];
        let t = IpfTable::compute(&["a".into(), "a".into()], &filters);
        assert_eq!(t.iter().count(), 1);
    }
}
