#![forbid(unsafe_code)]
//! `mv-cloud` — the cloud-computing layer of Fig. 7.
//!
//! Three §IV-E concerns, each a module:
//!
//! * [`serverless`] — §IV-E3's serverless model: elastic function
//!   instances with cold starts and keep-alive, fine-grained
//!   resource-second billing, and the comparison against fixed peak
//!   provisioning (experiment E8 runs this on the flash-sale burst);
//! * [`tee`] — the §IV-D/E3 trusted-execution cost model: full-enclave
//!   vs. partitioned execution with per-transition overheads ("the code
//!   base still need to be optimized for efficiency and reducing
//!   frequent reloading");
//! * [`offload`] — §IV-E2's device-side computation: *"these devices …
//!   enabl\[e\] part of the computation to be further separated from the
//!   cloud side to the device side"* — device-side window aggregation
//!   against ship-everything baselines (experiment E7).

pub mod offload;
pub mod serverless;
pub mod tee;

pub use offload::OffloadParams;
pub use serverless::{ServerlessPool, WorkloadSpec};
pub use tee::{TeeConfig, TeeCostModel};
