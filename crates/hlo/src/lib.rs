#![warn(missing_docs)]
//! The high-level optimizer (HLO).
//!
//! HLO is where the paper's cross-module optimization happens (§3):
//! the linker hands it multiple modules' worth of IL in a single
//! compilation, and it performs interprocedural analysis and
//! transformation across all of them — "inlining, cloning, dead code
//! elimination, constant propagation, memory disambiguation" — with
//! call profiles improving the inlining heuristics when PBO is on.
//!
//! Every routine body and module symbol table lives in a NAIM pool
//! behind the [`cmo_naim::Loader`]; HLO loads what it needs for the
//! current task and requests unloads when done (§4.2). What the
//! whole-program analyses need from a body — its call sites and the
//! globals it touches — is kept as a small resident summary per
//! routine, refreshed by whoever writes the body, so building the call
//! graph or the global facts loads nothing. Analysis results (the call
//! graph, the global facts) are *derived* data: recomputed from
//! scratch, never kept incrementally up to date, freely discarded and
//! released from the accounting when dropped (§4.1).
//!
//! The inline/clone pipeline is WHOPR-shaped: [`plan_clusters`]
//! condenses the call graph into independent clusters, [`run_clusters`]
//! runs them all through a caller's fan-out, each against a private
//! loader ([`run_cluster`]), and [`merge_outcomes`] folds results back
//! in deterministic cluster order. [`inline_pass`] / [`clone_pass`]
//! run the same steps on one thread.
//!
//! The inliner honours *operation limits* (§6.3): a cap on the number
//! of inline operations, numbered cluster by cluster and
//! binary-searchable by the automatic bug-isolation driver in the `cmo`
//! crate at any worker count.

mod callgraph;
mod clone;
pub mod cluster;
mod inline;
mod ipa;
mod session;

pub use callgraph::{CallEdge, CallGraph, Cluster, Partition, PartitionStats};
pub use clone::{clone_pass, CloneOptions, CloneStats};
pub use cluster::{
    merge_outcomes, plan_clusters, run_cluster, run_clusters, ClusterInput, ClusterOutcome,
    ClusterPlan,
};
pub use inline::{inline_pass, InlineOptions, InlineStats};
pub use ipa::{fold_globals, GlobalFacts};
pub use session::{HloSession, HloStats};
