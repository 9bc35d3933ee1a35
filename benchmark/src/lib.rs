//! The Stellar reproduction's benchmark: four closed-loop workloads that
//! time what a user of the framework waits for, end to end and layer by
//! layer. See `README.md` for the workloads and metrics.

pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workload;
