//! Random session scripts shared by the journal replay proptests.

use std::sync::Arc;

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb};
use squid_core::SessionOp;

pub const NAMES: &[&str] = &[
    "Jim Carrey",
    "Eddie Murphy",
    "Robin Williams",
    "Julia Roberts",
    "Emma Stone",
    "Sylvester Stallone",
    "Arnold Schwarzenegger",
];

pub const FILTERS: &[&str] = &["person:gender", "person:age_group", "movie:genre"];

/// A script step: which session (0 or 1) does what.
#[derive(Debug, Clone)]
pub struct Step {
    pub session: usize,
    pub op: SessionOp,
}

pub fn arb_op() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        (0usize..NAMES.len()).prop_map(|i| SessionOp::AddExample(NAMES[i].into())),
        (0usize..NAMES.len()).prop_map(|i| SessionOp::RemoveExample(NAMES[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::PinFilter(FILTERS[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::BanFilter(FILTERS[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::UnpinFilter(FILTERS[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::UnbanFilter(FILTERS[i].into())),
        Just(SessionOp::SetTarget {
            table: "person".into(),
            column: "name".into(),
        }),
        Just(SessionOp::SetTargetAuto),
    ]
}

pub fn arb_step() -> impl Strategy<Value = Step> {
    (0usize..2, arb_op()).prop_map(|(session, op)| Step { session, op })
}

pub fn adb() -> Arc<ADb> {
    Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

/// A per-process, per-thread, per-case journal path under `dir`.
pub fn temp(dir: &str, tag: &str, case: u32) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{:?}-{case}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}
