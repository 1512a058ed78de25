//! Matching engines: linear baseline vs. indexed.
//!
//! The indexed matcher files each subscription under its most selective
//! constraint: its first required term (inverted index), else a spatial
//! region (coarse grid cells), else the catch-all list. Matching an
//! event walks the candidates filed under its distinct terms, its
//! location cell and the catch-all list, and fully evaluates each — a
//! standard two-phase content-based matcher. Filing puts a subscription
//! in exactly one of those three places, and in a cell list at most once,
//! so the walk meets each candidate once and needs no dedup set.
//! Property tests pin it to the linear matcher.

use crate::publication::Publication;
use crate::subscription::Subscription;
use mv_common::geom::Point;
use mv_common::hash::FastMap;

/// A matcher answers which subscription indices match a publication, and
/// the top-k by term score (the geo-textual top-k of reference \[21\]).
pub trait Matcher {
    /// Register a subscription; returns its index.
    fn add(&mut self, sub: Subscription) -> usize;

    /// Indices of all matching subscriptions, ascending.
    fn match_pub(&self, p: &Publication) -> Vec<usize>;

    /// The top-k matching subscriptions by term score (desc, ties by
    /// index asc). Only subscriptions that fully match are eligible.
    fn top_k(&self, p: &Publication, k: usize) -> Vec<usize> {
        let mut hits: Vec<(f64, usize)> = self
            .match_pub(p)
            .into_iter()
            .map(|i| (self.get(i).term_score(p), i))
            .collect();
        hits.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        hits.truncate(k);
        hits.into_iter().map(|(_, i)| i).collect()
    }

    /// Access a registered subscription.
    fn get(&self, idx: usize) -> &Subscription;

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// True when no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// O(n)-per-event baseline.
#[derive(Debug, Default)]
pub struct LinearMatcher {
    subs: Vec<Subscription>,
}

impl LinearMatcher {
    /// Empty matcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Matcher for LinearMatcher {
    fn add(&mut self, sub: Subscription) -> usize {
        self.subs.push(sub);
        self.subs.len() - 1
    }

    fn match_pub(&self, p: &Publication) -> Vec<usize> {
        self.subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.matches(p))
            .map(|(i, _)| i)
            .collect()
    }

    fn get(&self, idx: usize) -> &Subscription {
        &self.subs[idx]
    }

    fn len(&self) -> usize {
        self.subs.len()
    }
}

/// Cell side for the spatial index (metres). Coarse on purpose: regions
/// only need to prune, full evaluation follows anyway.
const CELL: f64 = 50.0;

/// Two-phase indexed matcher.
#[derive(Debug, Default)]
pub struct IndexedMatcher {
    subs: Vec<Subscription>,
    /// term → subscription indices filed under that term.
    by_term: FastMap<String, Vec<usize>>,
    /// grid cell → subscription indices filed spatially.
    by_cell: FastMap<(i64, i64), Vec<usize>>,
    /// Subscriptions with neither terms nor region.
    catch_all: Vec<usize>,
    /// Candidate evaluations performed (experiment metric).
    pub evaluations: std::cell::Cell<u64>,
}

impl IndexedMatcher {
    /// Empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell_of(p: Point) -> (i64, i64) {
        ((p.x / CELL).floor() as i64, (p.y / CELL).floor() as i64)
    }

    /// The candidate walk: every subscription filed under one of `p`'s
    /// distinct terms, under its location cell or in the catch-all list,
    /// each met once (see the module docs), fully evaluated and counted
    /// in `evaluations`; `hit` gets each that matches, in walk order.
    fn for_each_match(&self, p: &Publication, mut hit: impl FnMut(usize)) {
        let distinct = p.terms.iter().enumerate().filter(|(i, t)| !p.terms[..*i].contains(t));
        let by_term = distinct.filter_map(|(_, t)| self.by_term.get(t));
        let by_cell = p.location.and_then(|loc| self.by_cell.get(&Self::cell_of(loc)));
        for &i in by_term.chain(by_cell).flatten().chain(&self.catch_all) {
            self.evaluations.set(self.evaluations.get() + 1);
            if self.subs[i].matches(p) {
                hit(i);
            }
        }
    }

    /// How many subscriptions match `p`: `match_pub(p).len()`, from the
    /// same walk, allocating nothing.
    pub(crate) fn count_matches(&self, p: &Publication) -> usize {
        let mut count = 0;
        self.for_each_match(p, |_| count += 1);
        count
    }
}

impl Matcher for IndexedMatcher {
    fn add(&mut self, sub: Subscription) -> usize {
        let idx = self.subs.len();
        if let Some(term) = sub.terms.first() {
            // File under the first required term (any would do; the full
            // evaluation re-checks everything).
            self.by_term.entry(term.clone()).or_default().push(idx);
        } else if let Some(region) = &sub.region {
            let lo = Self::cell_of(region.lo);
            let hi = Self::cell_of(region.hi);
            // Clamp pathological regions to avoid unbounded cell fans;
            // oversize regions fall back to the catch-all list.
            let cells = ((hi.0 - lo.0 + 1) as i128) * ((hi.1 - lo.1 + 1) as i128);
            if cells > 4096 {
                self.catch_all.push(idx);
            } else {
                for cx in lo.0..=hi.0 {
                    for cy in lo.1..=hi.1 {
                        self.by_cell.entry((cx, cy)).or_default().push(idx);
                    }
                }
            }
        } else {
            self.catch_all.push(idx);
        }
        self.subs.push(sub);
        idx
    }

    fn match_pub(&self, p: &Publication) -> Vec<usize> {
        let mut hits = Vec::new();
        self.for_each_match(p, |i| hits.push(i));
        hits.sort_unstable();
        hits
    }

    fn get(&self, idx: usize) -> &Subscription {
        &self.subs[idx]
    }

    fn len(&self) -> usize {
        self.subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::CmpOp;
    use mv_common::geom::Aabb;
    use mv_common::id::ClientId;
    use mv_common::seeded_rng;
    use mv_common::time::SimTime;
    use proptest::prelude::*;
    use rand::Rng;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }

    const TERMS: [&str; 8] = ["sale", "pastry", "game", "concert", "troop", "vr", "nft", "museum"];

    fn random_sub<R: Rng>(rng: &mut R, i: u64) -> Subscription {
        let mut sub = Subscription::new(c(i));
        if rng.gen_bool(0.5) {
            sub = sub.with_term(TERMS[rng.gen_range(0..TERMS.len())]);
        }
        if rng.gen_bool(0.4) {
            let center = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
            sub = sub.in_region(Aabb::centered(center, rng.gen_range(5.0..40.0)));
        }
        if rng.gen_bool(0.5) {
            sub = sub.where_attr("price", CmpOp::Le, rng.gen_range(1.0..100.0));
        }
        sub
    }

    fn random_pub<R: Rng>(rng: &mut R) -> Publication {
        let mut p = Publication::new(SimTime::ZERO)
            .attr("price", rng.gen_range(1.0..100.0))
            .at(Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)));
        for _ in 0..rng.gen_range(1..4) {
            p = p.term(TERMS[rng.gen_range(0..TERMS.len())]);
        }
        p
    }

    #[test]
    fn indexed_equals_linear_randomized() {
        let mut rng = seeded_rng(23);
        let mut lin = LinearMatcher::new();
        let mut idx = IndexedMatcher::new();
        for i in 0..500 {
            let s = random_sub(&mut rng, i);
            lin.add(s.clone());
            idx.add(s);
        }
        for _ in 0..100 {
            let p = random_pub(&mut rng);
            assert_eq!(lin.match_pub(&p), idx.match_pub(&p));
            assert_eq!(lin.top_k(&p, 5), idx.top_k(&p, 5));
        }
    }

    #[test]
    fn indexed_evaluates_fraction_of_subscriptions() {
        let mut rng = seeded_rng(29);
        let mut idx = IndexedMatcher::new();
        for i in 0..2000 {
            // Every sub has a term so the inverted index prunes hard.
            let term = TERMS[rng.gen_range(0..TERMS.len())];
            idx.add(Subscription::new(c(i)).with_term(term));
        }
        let p = Publication::new(SimTime::ZERO).term(TERMS[0]);
        let hits = idx.match_pub(&p);
        assert!(!hits.is_empty());
        let evals = idx.evaluations.get();
        assert!(evals < 600, "evaluated {evals} of 2000 subscriptions");
    }

    #[test]
    fn top_k_orders_by_score() {
        let mut m = LinearMatcher::new();
        m.add(Subscription::new(c(0)).with_term("sale")); // score 1.0
        m.add(Subscription::new(c(1)).with_term("sale").with_term("pastry")); // 1.0 (both present)
        m.add(Subscription::new(c(2))); // unconstrained, score 0
        let p = Publication::new(SimTime::ZERO).term("sale").term("pastry");
        let top = m.top_k(&p, 2);
        assert_eq!(top.len(), 2);
        assert!(top.contains(&0) || top.contains(&1));
        assert!(!top.contains(&2), "zero-score sub must rank last: {top:?}");
    }

    #[test]
    fn huge_region_falls_back_to_catch_all() {
        let mut idx = IndexedMatcher::new();
        idx.add(
            Subscription::new(c(0)).in_region(Aabb::centered(Point::ORIGIN, 1_000_000.0)),
        );
        let p = Publication::new(SimTime::ZERO).at(Point::new(5000.0, 5000.0));
        assert_eq!(idx.match_pub(&p), vec![0]);
    }

    /// The evaluations the matcher made before its candidate walk: one per
    /// distinct candidate gathered into a set from the publication's
    /// terms, its location cell and the catch-all list.
    fn candidate_set_evaluations(idx: &IndexedMatcher, p: &Publication) -> u64 {
        let mut candidates: mv_common::hash::FastSet<usize> = Default::default();
        for t in &p.terms {
            candidates.extend(idx.by_term.get(t).into_iter().flatten());
        }
        if let Some(loc) = p.location {
            candidates.extend(idx.by_cell.get(&IndexedMatcher::cell_of(loc)).into_iter().flatten());
        }
        candidates.extend(&idx.catch_all);
        candidates.len() as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Publications sometimes repeat a term, and some subscriptions are
        // term-less with regions too large to file by cell (so they land
        // in the catch-all list).
        #[test]
        fn prop_indexed_equals_linear(seed in 0u64..5000) {
            let mut rng = seeded_rng(seed);
            let mut lin = LinearMatcher::new();
            let mut idx = IndexedMatcher::new();
            for i in 0..60 {
                let s = if rng.gen_bool(0.1) {
                    let center = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
                    Subscription::new(c(i)).in_region(Aabb::centered(center, rng.gen_range(2_000.0..5_000.0)))
                } else {
                    random_sub(&mut rng, i)
                };
                lin.add(s.clone());
                idx.add(s);
            }
            for _ in 0..10 {
                let mut p = random_pub(&mut rng);
                if rng.gen_bool(0.3) {
                    let again = p.terms[rng.gen_range(0..p.terms.len())].clone();
                    p = p.term(again);
                }
                let before = idx.evaluations.get();
                let hits = idx.match_pub(&p);
                let walked = idx.evaluations.get() - before;
                prop_assert_eq!(walked, candidate_set_evaluations(&idx, &p));
                prop_assert_eq!(idx.count_matches(&p), hits.len());
                prop_assert_eq!(idx.evaluations.get() - before, 2 * walked);
                prop_assert_eq!(lin.match_pub(&p), hits);
            }
        }
    }
}
