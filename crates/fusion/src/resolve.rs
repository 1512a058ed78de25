//! Entity resolution: clustering mentions from heterogeneous sources.
//!
//! Different sources name the same entity differently ("Dune", "DUNE
//! (Herbert)", "dune herbert"). The resolver normalizes mentions, blocks
//! candidates on cheap keys (first normalized token), scores pairs with
//! trigram Jaccard similarity, and unions matches — the standard
//! blocking/matching/clustering pipeline, kept deterministic.

use mv_common::hash::FastMap;

/// A cluster of co-referent mentions.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-pub): exposed by `EntityResolver::resolve`, which other crates use
pub struct ResolvedEntity {
    /// Canonical mention (the longest member, ties lexicographic).
    pub canonical: String,
    /// All member mentions, sorted.
    pub mentions: Vec<String>,
}

/// Normalize a mention: lowercase, keep alphanumerics, collapse spaces.
pub(crate) fn normalize(mention: &str) -> String {
    let mut out = String::with_capacity(mention.len());
    let mut last_space = true;
    for c in mention.chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Character-trigram overlap coefficient over normalized strings
/// (`|A∩B| / min(|A|,|B|)`): containment-friendly, so "dune" matches
/// "dune herbert" at 1.0 where plain Jaccard would score it 0.2.
pub(crate) fn trigram_jaccard(a: &str, b: &str) -> f64 {
    let grams = |s: &str| -> std::collections::BTreeSet<[char; 3]> {
        let cs: Vec<char> = s.chars().collect();
        if cs.len() < 3 {
            // Short strings: use their chars padded, so "ab" vs "ab" = 1.
            let mut padded = cs.clone();
            while padded.len() < 3 {
                padded.push('\0');
            }
            return std::iter::once([padded[0], padded[1], padded[2]]).collect();
        }
        cs.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
    };
    let (ga, gb) = (grams(a), grams(b));
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let inter = ga.intersection(&gb).count() as f64;
    let denom = ga.len().min(gb.len()) as f64;
    if denom == 0.0 {
        return 0.0;
    }
    inter / denom
}

/// Union-find over mention indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n).collect() }
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// The resolver: collects mentions, then clusters them.
#[derive(Debug, Default)]
pub struct EntityResolver {
    /// Similarity threshold above which two mentions match.
    threshold: f64,
    mentions: Vec<String>,
    seen: FastMap<String, usize>,
}

impl EntityResolver {
    /// A resolver with the default threshold (0.4 — tuned on the library
    /// scenario; see E2).
    pub fn new() -> Self {
        EntityResolver { threshold: 0.4, mentions: Vec::new(), seen: FastMap::default() }
    }

    /// Add one mention; returns its internal index (duplicates share one).
    pub fn add_mention(&mut self, mention: &str) -> usize {
        if let Some(&i) = self.seen.get(mention) {
            return i;
        }
        let i = self.mentions.len();
        self.mentions.push(mention.to_string());
        self.seen.insert(mention.to_string(), i);
        i
    }

    /// Cluster all mentions. Returns entities sorted by canonical name,
    /// plus a map from mention index → entity index.
    pub fn resolve(&self) -> (Vec<ResolvedEntity>, Vec<usize>) {
        let n = self.mentions.len();
        let normalized: Vec<String> = self.mentions.iter().map(|m| normalize(m)).collect();
        // Blocking: first normalized token → candidate indices. Also block
        // on the full normalized string to catch reordered tokens cheaply.
        let mut blocks: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
        for (i, norm) in normalized.iter().enumerate() {
            let first = norm.split(' ').next().unwrap_or("");
            blocks.entry(first).or_default().push(i);
        }
        let mut dsu = Dsu::new(n);
        for ids in blocks.values() {
            for (ai, &a) in ids.iter().enumerate() {
                for &b in ids.iter().skip(ai + 1) {
                    if normalized[a] == normalized[b]
                        || trigram_jaccard(&normalized[a], &normalized[b]) >= self.threshold
                    {
                        dsu.union(a, b);
                    }
                }
            }
        }
        let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..n {
            let r = dsu.find(i);
            clusters.entry(r).or_default().push(i);
        }
        let mut entities: Vec<ResolvedEntity> = clusters
            .values()
            .map(|members| {
                let mut mentions: Vec<String> =
                    members.iter().map(|&i| self.mentions[i].clone()).collect();
                mentions.sort();
                let canonical = mentions
                    .iter()
                    .max_by_key(|m| (m.len(), std::cmp::Reverse(m.as_str().to_string())))
                    .expect("nonempty cluster")
                    .clone();
                ResolvedEntity { canonical, mentions }
            })
            .collect();
        entities.sort_by(|a, b| a.canonical.cmp(&b.canonical));
        // Rebuild mention index → entity index.
        let mut lookup: FastMap<&str, usize> = FastMap::default();
        for (ei, ent) in entities.iter().enumerate() {
            for m in &ent.mentions {
                lookup.insert(m.as_str(), ei);
            }
        }
        let assignment: Vec<usize> =
            self.mentions.iter().map(|m| lookup[m.as_str()]).collect();
        (entities, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalize_strips_punctuation_and_case() {
        assert_eq!(normalize("DUNE (Herbert)"), "dune herbert");
        assert_eq!(normalize("  a--b  "), "a b");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn trigram_similarity_behaviour() {
        assert_eq!(trigram_jaccard("dune", "dune"), 1.0);
        assert_eq!(trigram_jaccard("dune herbert", "dune"), 1.0); // containment
        assert!(trigram_jaccard("dune", "neuromancer") < 0.1);
        assert_eq!(trigram_jaccard("ab", "ab"), 1.0);
    }

    #[test]
    fn clusters_variant_spellings() {
        let mut r = EntityResolver::new();
        r.add_mention("Dune");
        r.add_mention("DUNE (Herbert)");
        r.add_mention("dune herbert");
        r.add_mention("Neuromancer");
        r.add_mention("neuromancer gibson");
        let (entities, assignment) = r.resolve();
        assert_eq!(entities.len(), 2, "{entities:?}");
        // All dune mentions share an entity; all neuromancer mentions too.
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_ne!(assignment[0], assignment[3]);
    }

    #[test]
    fn duplicates_share_an_index() {
        let mut r = EntityResolver::new();
        let a = r.add_mention("X");
        let b = r.add_mention("X");
        assert_eq!(a, b);
        assert_eq!(r.mentions.len(), 1);
    }

    #[test]
    fn canonical_is_longest_mention() {
        let mut r = EntityResolver::new();
        r.add_mention("dune");
        r.add_mention("dune herbert 1965");
        let (entities, _) = r.resolve();
        assert_eq!(entities.len(), 1);
        assert_eq!(entities[0].canonical, "dune herbert 1965");
    }

    proptest! {
        #[test]
        fn prop_resolution_is_total_and_consistent(
            mentions in proptest::collection::vec("[a-c]{1,6}( [a-c]{1,6})?", 1..20)
        ) {
            let mut r = EntityResolver::new();
            for m in &mentions {
                r.add_mention(m);
            }
            let (entities, assignment) = r.resolve();
            // Every distinct mention is assigned to exactly one entity.
            prop_assert_eq!(assignment.len(), r.mentions.len());
            for &e in &assignment {
                prop_assert!(e < entities.len());
            }
            // Entities partition the mention set.
            let total: usize = entities.iter().map(|e| e.mentions.len()).sum();
            prop_assert_eq!(total, r.mentions.len());
        }

        #[test]
        fn prop_jaccard_symmetric_and_bounded(a in "[a-z ]{0,12}", b in "[a-z ]{0,12}") {
            let s1 = trigram_jaccard(&a, &b);
            let s2 = trigram_jaccard(&b, &a);
            prop_assert!((s1 - s2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&s1));
        }
    }
}
