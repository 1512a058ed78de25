#![forbid(unsafe_code)]
//! `mv-collab` — data collaboration, privacy, and co-learning.
//!
//! §IV-B: *"Privacy-preserving data and knowledge sharing mechanisms with
//! fair contributions of useful data have to be designed. To promote data
//! collaboration and to discourage free-riders … effective and
//! computationally efficient incentive models have to be designed. In the
//! metaverse, the users are likely to be heterogeneous in data qualities
//! and quantities, possibly with non-independently and identically
//! distribution (Non-IID)…"* — plus §IV-H/I's Fig. 8 vision of
//! human-machine co-learning.
//!
//! * [`federated`] — a federated estimation simulation with Non-IID
//!   (Dirichlet) partitions and heterogeneous party quality;
//! * [`incentive`] — leave-one-out and Monte-Carlo-Shapley contribution
//!   scoring with free-rider detection (E12);
//! * [`privacy`] — local differential privacy (Laplace mechanism) with
//!   the ε-vs-utility curve and budget composition;
//! * [`colearn`] — the three Fig. 8 learning workflows (conventional,
//!   self-interactive, human-machine co-learning) on a concept-learning
//!   task (E12b).

pub mod colearn;
pub mod federated;
pub mod incentive;
pub mod privacy;

pub use colearn::{run_workflow, ColearnParams, Workflow};
pub use federated::{FederatedSim, FedParams};
pub use incentive::{loo_scores, shapley_scores, detect_free_riders};
pub use privacy::LdpAggregator;
