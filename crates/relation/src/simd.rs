//! The benchmark report's hook (`benchmark/src/sut.rs`); nothing else calls it.

/// The scan implementation every kernel runs: [`crate::kernel`]'s word loops.
pub fn active_tier() -> Scan {
    Scan
}

/// The one scan implementation, named for the benchmark report.
pub struct Scan;
impl Scan {
    /// Always `"scalar"`: there is no other implementation to name.
    pub fn name(&self) -> &'static str {
        "scalar"
    }
}
