//! The classic one-shot SQuID API (Figure 4's online "query intent
//! discovery" module): entity lookup & disambiguation → semantic context
//! discovery → query abduction → executable query + result tuples.
//!
//! Since the session redesign, [`Squid::discover`] and
//! [`Squid::discover_on`] are thin wrappers over a one-shot
//! [`SquidSession`](crate::SquidSession): they feed every example through
//! the same incremental pipeline the interactive loop uses, so the two
//! paths cannot drift. New code that adds examples over time (or wants
//! feedback operations like pinning filters) should hold a session instead
//! of re-calling `discover`.

use std::time::{Duration, Instant};

use squid_adb::ADb;
use squid_engine::Query;
use squid_relation::{RowId, RowSet};

use crate::abduce::ScoredFilter;
use crate::error::SquidError;
use crate::filter::CandidateFilter;
use crate::params::SquidParams;
use crate::query_gen;
use crate::session::SquidSession;

/// The outcome of one query intent discovery run.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Entity table the examples resolved to.
    pub entity_table: String,
    /// Projected column (the one containing the example values).
    pub projection_column: String,
    /// Resolved example entity rows (after disambiguation).
    pub example_rows: Vec<RowId>,
    /// Every candidate filter with its abduction decision and scores.
    pub scored: Vec<ScoredFilter>,
    /// The abduced SPJAI query over the original database.
    pub query: Query,
    /// Result rows (entity row ids) of the abduced query, evaluated
    /// directly against the αDB statistics (a dense bitmap).
    pub rows: RowSet,
    /// Online abduction time (entity lookup through query generation).
    pub elapsed: Duration,
}

impl Discovery {
    /// The filters Algorithm 1 chose to include.
    pub fn chosen_filters(&self) -> Vec<&CandidateFilter> {
        self.scored
            .iter()
            .filter(|s| s.included)
            .map(|s| &s.filter)
            .collect()
    }

    /// SQL rendering of the abduced query.
    pub fn sql(&self) -> String {
        squid_engine::to_sql(&self.query)
    }

    /// The equivalent SPJ query over the αDB's derived relations, when
    /// expressible ([`query_gen::adb_query`]). Built on demand from the
    /// chosen filters: no turn pays for it. Execute it on
    /// [`ADb::query_database`], which builds those relations on its first
    /// call. `adb` must be the αDB this discovery ran on.
    pub fn adb_query(&self, adb: &ADb) -> Option<Query> {
        let entity = adb.entity(&self.entity_table)?;
        let chosen: Vec<CandidateFilter> = self.chosen_filters().into_iter().cloned().collect();
        query_gen::adb_query(entity, &chosen, &self.projection_column)
    }

    /// The projected value of one entity row, rendered the way the CLI
    /// and the serving replies print it.
    pub fn projection_value(&self, adb: &ADb, row: usize) -> Option<String> {
        let table = adb.database.table(&self.entity_table).ok()?;
        let ci = table.schema().column_index(&self.projection_column)?;
        table.cell(row, ci).map(|v| v.to_string())
    }
}

/// Semantic similarity-aware query intent discovery (one-shot form).
///
/// Soft-deprecated in favor of [`SquidSession`](crate::SquidSession),
/// which this type now wraps: prefer a session for anything interactive.
pub struct Squid<'a> {
    adb: &'a ADb,
    params: SquidParams,
}

impl<'a> Squid<'a> {
    /// New instance with default parameters.
    pub fn new(adb: &'a ADb) -> Self {
        Squid {
            adb,
            params: SquidParams::default(),
        }
    }

    /// New instance with explicit parameters.
    pub fn with_params(adb: &'a ADb, params: SquidParams) -> Self {
        Squid { adb, params }
    }

    /// Current parameters.
    pub fn params(&self) -> &SquidParams {
        &self.params
    }

    /// Discover the most likely query intent behind `examples`
    /// (single-column string values, e.g. person names).
    ///
    /// The projection target is inferred via the inverted column index: the
    /// candidate `(entity table, text column)` pairs containing *all*
    /// examples, ranked by the semantic similarity of their disambiguated
    /// entities (a rare coherent match beats a scattered one; score ties
    /// break deterministically by `(table, column)` name).
    pub fn discover(&self, examples: &[&str]) -> Result<Discovery, SquidError> {
        self.run(None, examples)
    }

    /// Discover with an explicit projection target `table.column`
    /// (skips target inference).
    pub fn discover_on(
        &self,
        table: &str,
        column: &str,
        examples: &[&str],
    ) -> Result<Discovery, SquidError> {
        self.run(Some((table, column)), examples)
    }

    /// One-shot session drive shared by both entry points. The session
    /// bypasses the evaluation cache: it would only publish bitmaps a
    /// discarded session never reuses.
    fn run(
        &self,
        target: Option<(&str, &str)>,
        examples: &[&str],
    ) -> Result<Discovery, SquidError> {
        if examples.is_empty() {
            return Err(SquidError::EmptyExamples);
        }
        let started = Instant::now();
        let mut session = SquidSession::one_shot(self.adb, self.params.clone());
        if let Some((table, column)) = target {
            session.set_target(table, column)?;
        }
        session.add_examples(examples)?;
        let mut d = session
            .into_discovery()
            .expect("non-empty session has a discovery");
        d.elapsed = started.elapsed();
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squid_adb::test_fixtures::{figure6_db, mini_imdb};

    #[test]
    fn discovers_comedy_actor_intent() {
        // Example 1.3 in miniature: funny actors share an unusually high
        // comedy count; Male/USA are common and must be dropped.
        let db = mini_imdb();
        let adb = ADb::build(&db).unwrap();
        let params = SquidParams {
            tau_a: 3, // the mini dataset's counts are small
            ..SquidParams::default()
        };
        let squid = Squid::with_params(&adb, params);
        let d = squid
            .discover(&["Jim Carrey", "Eddie Murphy", "Robin Williams"])
            .unwrap();
        assert_eq!(d.entity_table, "person");
        assert_eq!(d.projection_column, "name");
        assert_eq!(d.example_rows.len(), 3);
        let chosen = d.chosen_filters();
        assert!(
            chosen.iter().any(|f| f.describe().contains("Comedy")),
            "comedy filter expected among {:?}",
            chosen.iter().map(|f| f.describe()).collect::<Vec<_>>()
        );
        // The generic contexts are dropped: gender=Male covers 6/8 persons.
        assert!(chosen.iter().all(|f| f.attr_name != "gender"));
        // The result contains exactly the three comedy actors.
        assert_eq!(d.rows.len(), 3);
        assert!(d.sql().contains("Comedy"));
    }

    #[test]
    fn figure6_examples_yield_ranges_but_drop_common_gender() {
        let db = figure6_db();
        let adb = ADb::build(&db).unwrap();
        let squid = Squid::new(&adb);
        let d = squid.discover(&["Tom Cruise", "Clint Eastwood"]).unwrap();
        // φ⟨gender,Male,⊥⟩ has ψ=1/2, φ⟨age,[50,90],⊥⟩ ψ=5/6: with two
        // examples neither is convincing under ρ=0.1 → near-generic query.
        for s in &d.scored {
            if s.filter.attr_name == "age" {
                assert!(!s.included);
            }
        }
        assert!(d.rows.len() >= 2);
    }

    #[test]
    fn unknown_example_errors() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let squid = Squid::new(&adb);
        let err = squid.discover(&["No Such Person"]).unwrap_err();
        assert!(matches!(err, SquidError::NoMatchingColumn { .. }));
    }

    #[test]
    fn empty_examples_error() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let squid = Squid::new(&adb);
        assert_eq!(squid.discover(&[]).unwrap_err(), SquidError::EmptyExamples);
    }

    #[test]
    fn discover_on_fixed_target() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let squid = Squid::new(&adb);
        let d = squid
            .discover_on("person", "name", &["Jim Carrey", "Eddie Murphy"])
            .unwrap();
        assert_eq!(d.entity_table, "person");
        let err = squid
            .discover_on("person", "nope", &["Jim Carrey"])
            .unwrap_err();
        assert!(matches!(err, SquidError::UnknownTarget { .. }));
        let err = squid
            .discover_on("person", "name", &["No Such Person"])
            .unwrap_err();
        assert!(matches!(err, SquidError::EntityNotFound { .. }));
    }

    #[test]
    fn duplicate_examples_deduplicate() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let squid = Squid::new(&adb);
        let d = squid
            .discover_on("person", "name", &["Jim Carrey", "Jim Carrey"])
            .unwrap();
        assert_eq!(d.example_rows.len(), 1);
    }

    #[test]
    fn examples_always_in_result() {
        // E ⊆ Q(D): Definition 2.1's hard constraint.
        let adb = ADb::build(&mini_imdb()).unwrap();
        let squid = Squid::new(&adb);
        for exs in [
            vec!["Jim Carrey", "Eddie Murphy"],
            vec!["Sylvester Stallone", "Arnold Schwarzenegger"],
            vec!["Julia Roberts", "Emma Stone"],
        ] {
            let d = squid.discover(&exs).unwrap();
            for r in &d.example_rows {
                assert!(d.rows.contains(*r), "examples must satisfy Qϕ");
            }
        }
    }

    #[test]
    fn elapsed_is_recorded() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let squid = Squid::new(&adb);
        let d = squid.discover(&["Jim Carrey", "Eddie Murphy"]).unwrap();
        assert!(d.elapsed.as_nanos() > 0);
    }
}
