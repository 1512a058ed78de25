//! Subscriptions: attribute predicates, spatial regions, term sets.

use crate::publication::Publication;
use mv_common::geom::Aabb;
use mv_common::id::ClientId;
use serde::{Deserialize, Serialize};

/// Comparison operator for attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// lint:allow(dead-pub): exposed by `AttrPredicate::op`, which other crates use
pub enum CmpOp {
    /// `attr < v`
    Lt,
    /// `attr <= v`
    Le,
    /// `attr > v`
    Gt,
    /// `attr >= v`
    Ge,
    /// `|attr − v| < 1e-9`
    Eq,
}

/// One predicate over a named numeric attribute. The attribute must be
/// present for the predicate (and hence the subscription) to match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint:allow(dead-pub): exposed by `Subscription::predicates`, which other crates use
pub struct AttrPredicate {
    /// Attribute name.
    pub attr: String,
    /// Operator.
    pub op: CmpOp,
    /// Comparison constant.
    pub value: f64,
}

impl AttrPredicate {
    /// Build a predicate.
    pub fn new(attr: impl Into<String>, op: CmpOp, value: f64) -> Self {
        AttrPredicate { attr: attr.into(), op, value }
    }

    /// Evaluate against a publication.
    pub(crate) fn eval(&self, p: &Publication) -> bool {
        match p.attrs.get(&self.attr) {
            None => false,
            Some(&v) => match self.op {
                CmpOp::Lt => v < self.value,
                CmpOp::Le => v <= self.value,
                CmpOp::Gt => v > self.value,
                CmpOp::Ge => v >= self.value,
                CmpOp::Eq => (v - self.value).abs() < 1e-9,
            },
        }
    }
}

/// A subscription: all constraints are conjunctive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subscription {
    /// Owning client.
    pub client: ClientId,
    /// Attribute predicates (all must hold).
    pub predicates: Vec<AttrPredicate>,
    /// Required terms (every one must appear in the publication).
    pub terms: Vec<String>,
    /// Spatial region the publication's location must fall in.
    pub region: Option<Aabb>,
}

impl Subscription {
    /// An unconstrained subscription (matches everything) for `client`.
    pub fn new(client: ClientId) -> Self {
        Subscription { client, predicates: Vec::new(), terms: Vec::new(), region: None }
    }

    /// Builder: add an attribute predicate.
    #[cfg(test)]
    pub(crate) fn where_attr(mut self, attr: impl Into<String>, op: CmpOp, v: f64) -> Self {
        self.predicates.push(AttrPredicate::new(attr, op, v));
        self
    }

    /// Builder: require a term (lower-cased).
    pub fn with_term(mut self, t: impl AsRef<str>) -> Self {
        self.terms.push(t.as_ref().to_lowercase());
        self
    }

    /// Builder: restrict to a region.
    pub fn in_region(mut self, r: Aabb) -> Self {
        self.region = Some(r);
        self
    }

    /// Full match evaluation.
    pub fn matches(&self, p: &Publication) -> bool {
        if let Some(r) = &self.region {
            match p.location {
                Some(loc) if r.contains(loc) => {}
                _ => return false,
            }
        }
        if !self.terms.iter().all(|t| p.has_term(t)) {
            return false;
        }
        self.predicates.iter().all(|pr| pr.eval(p))
    }

    /// Text relevance in \[0,1\] for top-k term matching (fraction of the
    /// publication's terms this subscription's terms cover; 0 when the
    /// subscription has no terms).
    pub(crate) fn term_score(&self, p: &Publication) -> f64 {
        if self.terms.is_empty() || p.terms.is_empty() {
            return 0.0;
        }
        let hits = self.terms.iter().filter(|t| p.has_term(t)).count();
        hits as f64 / self.terms.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_common::geom::Point;
    use mv_common::time::SimTime;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }

    #[test]
    fn predicate_ops() {
        let p = Publication::new(SimTime::ZERO).attr("x", 5.0);
        assert!(AttrPredicate::new("x", CmpOp::Lt, 6.0).eval(&p));
        assert!(AttrPredicate::new("x", CmpOp::Le, 5.0).eval(&p));
        assert!(AttrPredicate::new("x", CmpOp::Gt, 4.0).eval(&p));
        assert!(AttrPredicate::new("x", CmpOp::Ge, 5.0).eval(&p));
        assert!(AttrPredicate::new("x", CmpOp::Eq, 5.0).eval(&p));
        assert!(!AttrPredicate::new("x", CmpOp::Lt, 5.0).eval(&p));
        // Missing attribute never matches.
        assert!(!AttrPredicate::new("y", CmpOp::Ge, 0.0).eval(&p));
    }

    #[test]
    fn conjunctive_matching() {
        let sub = Subscription::new(c(1))
            .where_attr("discount", CmpOp::Ge, 0.3)
            .with_term("sale")
            .in_region(Aabb::centered(Point::ORIGIN, 10.0));
        let hit = Publication::new(SimTime::ZERO)
            .attr("discount", 0.4)
            .term("sale")
            .at(Point::new(1.0, 1.0));
        assert!(sub.matches(&hit));
        // Any failed leg kills the match.
        assert!(!sub.matches(&hit.clone().attr("discount", 0.1)));
        let far = Publication::new(SimTime::ZERO)
            .attr("discount", 0.4)
            .term("sale")
            .at(Point::new(100.0, 0.0));
        assert!(!sub.matches(&far));
        let no_loc = Publication::new(SimTime::ZERO).attr("discount", 0.4).term("sale");
        assert!(no_loc.location.is_none());
        assert!(!sub.matches(&no_loc));
    }

    #[test]
    fn unconstrained_matches_everything() {
        let sub = Subscription::new(c(1));
        assert!(sub.matches(&Publication::new(SimTime::ZERO)));
    }

    #[test]
    fn term_score_fraction() {
        let sub = Subscription::new(c(1)).with_term("sale").with_term("pastry");
        let p = Publication::new(SimTime::ZERO).term("sale").term("bread");
        assert_eq!(sub.term_score(&p), 0.5);
        assert_eq!(Subscription::new(c(1)).term_score(&p), 0.0);
    }
}
