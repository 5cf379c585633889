//! # guardspec-analysis
//!
//! Control-flow and dataflow analyses over [`guardspec_ir`] functions:
//!
//! * [`cfg`](mod@cfg) — explicit CFG with predecessor/successor edges and orderings,
//! * [`dom`] — dominator and post-dominator trees (Cooper–Harvey–Kennedy),
//! * [`loops`] — natural-loop detection (back edges, bodies, exits), the
//!   unit the paper's Figure-6 algorithm iterates over,
//! * [`liveness`] — per-block live-in/live-out register sets, needed by the
//!   speculation transform to decide when software renaming is required
//!   ("register r6 is renamed to r9 since it's live on the fall-thru path"),
//! * [`hammock`] — detection of the if-conversion-eligible single-branch
//!   regions (triangles and diamonds).

pub mod cfg;
pub mod dom;
pub mod hammock;
pub mod liveness;
pub mod loops;
pub mod regset;

pub use cfg::Cfg;
pub use dom::DomTree;
pub use hammock::{find_hammocks, Hammock, HammockKind};
pub use liveness::Liveness;
pub use loops::{LoopForest, NaturalLoop};
pub use regset::RegSet;
