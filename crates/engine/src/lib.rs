//! # squid-engine
//!
//! Query representation and execution for the SPJAI query class of the SQuID
//! paper: select-project-join blocks with conjunctive predicates, semi-join
//! constraints with `HAVING count(*) >= k` semantics, and intersection of
//! blocks. Includes SQL rendering and the predicate-count metric used in the
//! TALOS comparison (Figures 14-15).

#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod sql;

pub use ast::{CmpOp, PathStep, Pred, Query, QueryBlock, SemiJoin};
pub use exec::{run_query, Executor, ResultSet};
pub use sql::to_sql;
