//! The Stellar specification language and compiler.
//!
//! This crate is the Rust reproduction of the core contribution of
//! *"Stellar: An Automated Design Framework for Dense and Sparse Spatial
//! Accelerators"* (MICRO 2024): a specification language that separates five
//! accelerator design concerns, and a compiler that elaborates those
//! specifications into hardware designs.
//!
//! # The five concerns (§III of the paper)
//!
//! 1. **Functionality** ([`Functionality`]) — a Halide-like, mutation-free
//!    recurrence notation over a tensor iteration space (Listing 1).
//! 2. **Dataflow** ([`SpaceTimeTransform`]) — an invertible integer matrix
//!    mapping iteration coordinates to space and time (Equation 1, Figure 2).
//! 3. **Sparse data structures** ([`SkipSpec`]) — which iterators may be
//!    skipped and under what conditions (`Skip` / `OptimisticSkip`,
//!    Listing 2).
//! 4. **Load balancing** ([`ShiftSpec`]) — which idle iterations may take
//!    work from which others (Listings 3–4).
//! 5. **Private memory buffers** ([`MemorySpec`]) — fibertree data formats
//!    plus optionally hardcoded access parameters (Listing 6).
//!
//! # The compiler (§IV)
//!
//! [`compile`] elaborates an [`AcceleratorSpec`] into an [`IterationSpace`]
//! IR (Figure 9), prunes PE-to-PE connections according to the sparsity and
//! load-balancing specifications, applies the space-time transform to
//! produce a physical [`SpatialArray`], runs the register-file optimization
//! passes (Figure 14), and assembles an [`AcceleratorDesign`] consumed by
//! the RTL emitter (`stellar-rtl`), the area/energy model (`stellar-area`),
//! and the cycle-level simulator (`stellar-sim`).
//!
//! # Example: the paper's running matmul
//!
//! ```
//! use stellar_core::prelude::*;
//!
//! let func = Functionality::matmul(4, 4, 4);
//! let spec = AcceleratorSpec::new("os_matmul", func)
//!     .with_transform(SpaceTimeTransform::output_stationary());
//! let design = stellar_core::compile(&spec)?;
//! assert_eq!(design.spatial_arrays[0].num_pes(), 16); // 4x4 output-stationary
//! # Ok::<(), stellar_core::CompileError>(())
//! ```

pub mod analytic;
pub mod balance;
pub mod design;
pub mod error;
pub mod exec;
pub mod explore;
pub mod expr;
pub mod fold;
pub mod func;
pub mod index;
pub mod iterspace;
pub mod kernels;
pub mod listing;
pub mod memory;
pub mod prune;
pub mod regfile;
pub mod soc;
pub mod spacetime;
pub mod sparsity;
pub mod spec;
pub mod transform;

pub use analytic::{AnalyticScorer, AnalyticScratch};
pub use balance::{Granularity, Region, ShiftSpec};
pub use design::{
    AcceleratorDesign, ConnDesign, DmaDesign, IoPortDesign, LoadBalancerDesign, MemBufferDesign,
    PortDir, RegfileDesign, SpatialArrayDesign,
};
pub use error::CompileError;
pub use exec::{Executor, ProfiledRun, ScheduleProfile, ScheduledRun};
pub use explore::{
    explore_dataflows, explore_dataflows_profiled, explore_dataflows_reference,
    explore_dataflows_reference_profiled, ExploreOptions, ExploreRun, ExploredDataflow,
};
pub use expr::Expr;
pub use fold::{summarize_array, ExploreFunnel, FoldScorer, FoldScratch, StructureSummary};
pub use func::{Functionality, TensorId, TensorRole, VarId};
pub use index::{Bounds, IdxExpr, IndexId};
pub use iterspace::{Assignment, IOConn, IterationSpace, Point, Point2PointConn, PointId};
pub use memory::{HardcodedParams, MemorySpec};
pub use regfile::{choose_regfile, AccessOrder, RegfileKind};
pub use soc::compile_soc;
pub use spacetime::{PhysConn, PhysIoPort, SpatialArray};
pub use sparsity::SkipSpec;
pub use spec::{compile, AcceleratorSpec};
pub use transform::SpaceTimeTransform;

/// Convenient glob-import of the types used when specifying an accelerator.
pub mod prelude {
    pub use crate::balance::{Granularity, Region, ShiftSpec};
    pub use crate::design::AcceleratorDesign;
    pub use crate::error::CompileError;
    pub use crate::expr::Expr;
    pub use crate::func::Functionality;
    pub use crate::index::{Bounds, IdxExpr};
    pub use crate::memory::{HardcodedParams, MemorySpec};
    pub use crate::regfile::RegfileKind;
    pub use crate::sparsity::SkipSpec;
    pub use crate::spec::{compile, AcceleratorSpec};
    pub use crate::transform::SpaceTimeTransform;
    pub use stellar_tensor::AxisFormat;
}
