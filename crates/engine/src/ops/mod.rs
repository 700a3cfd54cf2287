//! Physical operators: filtering scans, hash joins, and hash aggregation.

pub mod aggregate;
pub mod filter;
pub mod join;
pub mod reference;

pub use crate::column::ResolvedCol;
pub use aggregate::{
    group_by, group_by_masked, group_by_range, BoundCol, ExactAgg, ExactAggFactory, GroupTable,
    Inputs,
};
pub use filter::{PreparedScan, ScanEvent};
pub use join::{
    build_join_map, star_probe, JoinFilter, JoinMap, StarJoinOutput, StarProbe, MAX_JOINS,
};
