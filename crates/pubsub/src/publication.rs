//! Publications (events) flowing through the pub/sub layer.

use mv_common::geom::Point;
use mv_common::time::SimTime;
use mv_common::Space;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A published event: attributes, terms, optional location.
///
/// Examples from the paper's scenarios: a flash-sale announcement
/// (`terms = ["sale", "pastry"]`, `attrs = {discount: 0.4}`, located at
/// the physical shop), a troop sighting, a friend entering a zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Publication {
    /// Publication time.
    pub ts: SimTime,
    /// Numeric attributes.
    pub attrs: BTreeMap<String, f64>,
    /// Lower-cased text terms.
    pub terms: Vec<String>,
    /// Where the event happened, if anywhere.
    pub location: Option<Point>,
    /// Originating space.
    pub space: Space,
}

impl Publication {
    /// Start building a publication at `ts`.
    pub fn new(ts: SimTime) -> Self {
        Publication {
            ts,
            attrs: BTreeMap::new(),
            terms: Vec::new(),
            location: None,
            space: Space::Physical,
        }
    }

    /// Builder: add a numeric attribute.
    pub fn attr(mut self, name: impl Into<String>, v: f64) -> Self {
        self.attrs.insert(name.into(), v);
        self
    }

    /// Builder: add a term (lower-cased).
    pub fn term(mut self, t: impl AsRef<str>) -> Self {
        self.terms.push(t.as_ref().to_lowercase());
        self
    }

    /// Builder: set the location.
    pub fn at(mut self, p: Point) -> Self {
        self.location = Some(p);
        self
    }

    /// Builder: tag the space.
    pub fn in_space(mut self, s: Space) -> Self {
        self.space = s;
        self
    }

    /// Does the publication contain the term?
    pub(crate) fn has_term(&self, t: &str) -> bool {
        self.terms.iter().any(|x| x == t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_lowercases_terms() {
        let p = Publication::new(SimTime::ZERO)
            .term("Sale")
            .term("PASTRY")
            .attr("discount", 0.4)
            .at(Point::new(1.0, 2.0));
        assert!(p.has_term("sale"));
        assert!(p.has_term("pastry"));
        assert!(!p.has_term("Sale"));
        assert_eq!(p.attrs["discount"], 0.4);
        assert_eq!(p.location, Some(Point::new(1.0, 2.0)));
    }
}
