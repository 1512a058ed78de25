//! Typed field values and source ids.
//!
//! §III: metaverse data "may come in different formats (non-structured
//! like video and textual and structured like personal data) … from
//! multiple different data sources". A [`SourceId`] names one source and
//! a [`Value`] is one typed field it reports.

use mv_common::geom::Point;
use serde::{Deserialize, Serialize};

mv_common::define_id!(
    /// A registered data source (one RFID reader, one camera, one
    /// relational feed…).
    SourceId
);

/// A typed field value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text (mention strings, review bodies…).
    Text(String),
    /// Boolean flag.
    Bool(bool),
    /// A planar location.
    Location(Point),
}

impl Value {
    /// Float payload (Int widens).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_f64(), None);
    }
}
