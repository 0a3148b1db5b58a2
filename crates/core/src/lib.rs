//! # squid-core
//!
//! The SQuID system of Fariha & Meliou (VLDB 2019): semantic
//! similarity-aware query intent discovery by abductive reasoning.
//!
//! Given example values and an abduction-ready database
//! ([`squid_adb::ADb`]), SQuID resolves the examples to entities
//! (disambiguating multi-matches), discovers the semantic contexts they
//! share (basic attributes, fact-hop properties, and derived aggregate
//! associations), and abduces the filter set that maximizes the query
//! posterior — producing an executable SPJAI query plus its result tuples.
//!
//! The primary API is the stateful [`SquidSession`], mirroring the paper's
//! Figure 1 interaction: drop examples in one at a time and the abduced
//! query refines after each, with per-example resolutions and per-property
//! intersection state cached so each update is O(properties). Sessions also
//! accept feedback: [`SquidSession::pin_filter`] /
//! [`SquidSession::ban_filter`] override abduction decisions, and
//! [`SquidSession::choose_entity`] overrides disambiguation. Many
//! concurrent sessions share one immutable αDB through a
//! [`SessionManager`]. The classic one-shot [`Squid`] API is kept as a thin
//! wrapper over a throwaway session.
//!
//! ```
//! use squid_adb::{test_fixtures, ADb};
//! use squid_core::{SquidParams, SquidSession};
//!
//! let db = test_fixtures::mini_imdb();
//! let adb = ADb::build(&db).unwrap();
//! let mut params = SquidParams::default();
//! params.tau_a = 3;
//! let mut session = SquidSession::with_params(&adb, params);
//! session.add_example("Jim Carrey").unwrap();
//! let delta = session.add_example("Eddie Murphy").unwrap();
//! println!("{}", delta.discovery.unwrap().sql());
//! ```

#![warn(missing_docs)]

pub mod abduce;
pub mod context;
pub mod disambiguate;
pub mod error;
pub mod filter;
pub mod journal;
pub mod manager;
pub mod metrics;
pub mod params;
pub mod prior;
pub mod query_gen;
pub mod recommend;
pub mod session;
pub mod squid;

pub use abduce::{abduce as abduce_filters, log_posterior, ScoredFilter};
pub use context::{discover_contexts, ContextState};
pub use disambiguate::{disambiguate, similarity_score};
pub use error::SquidError;
pub use filter::{CandidateFilter, FilterValue};
pub use journal::{
    read_journal, scan_records, CompactStats, FsyncPolicy, Journal, JournalReplay, JournalTail,
    SessionOp, TailBatch, TailPoll,
};
pub use manager::{
    JournalStats, RecoverStats, ReplicatedStats, SeqOutcome, SessionId, SessionManager,
    DEFAULT_SHARED_CACHE_BYTES,
};
pub use metrics::Accuracy;
pub use params::SquidParams;
pub use query_gen::{
    adb_query, evaluate, evaluate_cached, evaluate_per_row, filter_fingerprint, filter_row_set,
    match_estimate, original_query,
};
pub use recommend::{recommend_examples, uncertainty, Recommendation, DEFAULT_MIN_UNCERTAINTY};
pub use session::{DiscoveryDelta, EvalCacheStats, SquidSession};
pub use squid::{Discovery, Squid};

// The evaluation-cache store lives in `squid-adb` (next to the session's
// `FilterSetCache` handle); re-export it so serving code that only depends
// on squid-core can size and inspect the fleet's cache.
pub use squid_adb::{SharedCacheStats, SharedFilterSetCache};
