#![forbid(unsafe_code)]
//! `mv-pubsub` — content-based and spatio-textual publish/subscribe.
//!
//! §IV-E: *"it seems that publish/subscribe architecture \[28\], \[34\],
//! \[96\], \[41\], \[21\] may be more effective. … we envision a
//! publish/subscribe system over peer-to-peer networks where each peer may
//! be a highly parallel cluster that can support a large number of mobile
//! clients."* References \[41\]/\[21\] are location-aware and top-k-term
//! geo-textual pub/sub.
//!
//! * [`publication`] — events with attributes, terms and an optional
//!   location;
//! * [`subscription`] — attribute predicates + optional spatial region +
//!   optional term set, plus top-k term subscriptions;
//! * [`matcher`] — a linear-scan baseline and an indexed matcher
//!   (inverted term index + spatial grid + attribute catch-all), shown
//!   equivalent by property tests and ~orders faster in E15;
//! * [`broker`] — a broker tree with subscription covering so events only
//!   travel toward interested subtrees (the P2P overlay sketch);
//! * [`reliable`] — a matcher-backed broker delivering through `mv-net`'s
//!   shared client outbox: every matched publication is retained by
//!   `pub_id` for disconnected subscribers and replayed in `pub_id`
//!   order, with client-side `pub_id` dedup ([`reliable::InboxDedup`]).

pub mod broker;
pub mod matcher;
pub mod publication;
pub mod reliable;
pub mod subscription;

pub use broker::BrokerTree;
pub use matcher::{IndexedMatcher, LinearMatcher, Matcher};
pub use reliable::{InboxDedup, PubMsg, ReliableBroker};
pub use publication::Publication;
pub use subscription::{AttrPredicate, CmpOp, Subscription};
