//! Stateful, incremental query intent discovery — the paper's Figure 1
//! interaction loop as a first-class API.
//!
//! A [`SquidSession`] holds examples the user has dropped in so far and
//! refines the abduced query after every change: [`SquidSession::add_example`]
//! re-uses cached inverted-index resolutions and the per-property
//! [`ContextState`](crate::ContextState) intersection state, so folding in
//! example *k+1* costs O(properties) instead of the O(k · properties) a
//! fresh [`Squid::discover`](crate::Squid::discover) pays. Feedback
//! operations ([`pin_filter`](SquidSession::pin_filter),
//! [`ban_filter`](SquidSession::ban_filter),
//! [`choose_entity`](SquidSession::choose_entity)) steer abduction and
//! disambiguation without restarting the loop.
//!
//! Every mutating operation returns a [`DiscoveryDelta`]: the updated
//! [`Discovery`] plus what changed relative to the previous state (filters
//! that entered or left the abduced query, result rows gained and lost, and
//! whether the update took the incremental path).
//!
//! Each verb is two steps: a state transition (the examples, target, pins,
//! bans and choices change) and a refresh that recomputes the discovery
//! from that state. Journal replay — [`SessionManager::recover`] and a
//! standby's replication stream — runs only the transitions, and the
//! session refreshes once, when it is next read.
//!
//! [`SessionManager::recover`]: crate::SessionManager::recover
//!
//! ```
//! use squid_adb::{test_fixtures, ADb};
//! use squid_core::{SquidParams, SquidSession};
//!
//! let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
//! let mut params = SquidParams::default();
//! params.tau_a = 3;
//! let mut session = SquidSession::with_params(&adb, params);
//! session.add_example("Jim Carrey").unwrap();
//! session.add_example("Eddie Murphy").unwrap();
//! let delta = session.add_example("Robin Williams").unwrap();
//! let d = delta.discovery.expect("three examples resolve");
//! assert_eq!(d.entity_table, "person");
//! assert!(d.sql().contains("Comedy"));
//! ```

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use squid_adb::{ADb, FilterFingerprint, FilterSetCache, SharedFilterSetCache};
use squid_relation::RowId;

use crate::abduce::abduce;
use crate::context::ContextState;
use crate::disambiguate::{disambiguate, similarity_score};
use crate::error::SquidError;
use crate::filter::CandidateFilter;
use crate::journal::SessionOp;
use crate::params::SquidParams;
use crate::query_gen::{filter_fingerprint, intersect_sources, original_query, restrict_rows};
use crate::recommend::{recommend_examples, Recommendation, DEFAULT_MIN_UNCERTAINTY};
use crate::squid::Discovery;

/// Shared or borrowed handle to the αDB. Sessions created from a borrow
/// (`SquidSession::new`) live as long as the borrow; sessions created from
/// an [`Arc`] (`SquidSession::shared`) are `'static` and can be hosted by a
/// [`SessionManager`](crate::SessionManager) or moved across threads.
#[derive(Debug, Clone)]
enum AdbRef<'a> {
    Borrowed(&'a ADb),
    Shared(Arc<ADb>),
}

impl Deref for AdbRef<'_> {
    type Target = ADb;

    fn deref(&self) -> &ADb {
        match self {
            AdbRef::Borrowed(a) => a,
            AdbRef::Shared(a) => a,
        }
    }
}

/// Projection-target selection mode.
#[derive(Debug, Clone)]
pub(crate) enum TargetState {
    /// Infer the target from the examples (the `discover` behavior). The
    /// candidate `(table, column)` pairs containing every example so far
    /// are cached and only narrowed as examples arrive; `upto` counts the
    /// examples already folded into the cache.
    Auto {
        candidates: Option<Vec<(String, usize)>>,
        upto: usize,
    },
    /// Fixed `table` + column index (the `discover_on` behavior).
    Fixed { table: String, column: usize },
}

/// One example value with its cached inverted-index resolutions and any
/// disambiguation feedback.
#[derive(Debug, Clone)]
pub(crate) struct ExampleState {
    text: String,
    /// Entity primary key forced by [`SquidSession::choose_entity`].
    chosen_pk: Option<i64>,
    /// Cached `(table, column) → candidate rows` lookups (linear scan; a
    /// session touches only a handful of targets).
    lookups: Vec<((String, usize), Vec<RowId>)>,
}

/// How to undo a staged state change (see [`SquidSession::stage`]) when
/// the refresh after it fails.
#[derive(Debug)]
pub(crate) enum Undo {
    /// Truncate the examples back to `len` and restore the target.
    Added { len: usize, target: TargetState },
    /// Put the removed example back at `idx` and restore the target.
    Removed {
        idx: usize,
        example: ExampleState,
        target: TargetState,
    },
    /// Restore the previous target.
    Target(TargetState),
    /// Restore example `idx`'s previous disambiguation choice.
    Choice { idx: usize, prev: Option<i64> },
    /// Pin/ban feedback: rescored from the cached Φ state, never undone.
    Feedback,
}

/// What one session operation changed, plus the resulting discovery.
#[derive(Debug, Clone)]
pub struct DiscoveryDelta {
    /// The updated discovery, or `None` when the session has no examples.
    /// Shared with the session's own snapshot ([`SquidSession::discovery`])
    /// so returning a delta never copies the result set.
    pub discovery: Option<Arc<Discovery>>,
    /// Rendered filters ([`CandidateFilter::describe`]) newly chosen by
    /// abduction.
    pub added_filters: Vec<String>,
    /// Rendered filters no longer chosen.
    pub removed_filters: Vec<String>,
    /// Result rows gained relative to the previous discovery.
    pub rows_added: usize,
    /// Result rows lost relative to the previous discovery.
    pub rows_removed: usize,
    /// Whether the cached per-property context state was updated in place
    /// (`true`) or rebuilt from scratch (`false`: first example, target
    /// change, or a disambiguation reshuffle of earlier examples).
    pub incremental: bool,
    /// Evaluation-cache hits this operation: chosen filters whose row
    /// bitmaps were already resident in the cache's store, so their
    /// contribution to the result was a word-wise intersection instead of
    /// a postings walk. Only a filter the intersection reaches is looked
    /// up: evaluation stops once only the examples survive.
    pub cache_hits: u64,
    /// Evaluation-cache misses this operation (each computed and published
    /// one filter row set), counted, like the hits, over the filters the
    /// intersection reaches.
    pub cache_misses: u64,
}

/// Point-in-time counters of a session's cross-turn evaluation cache
/// (see [`SquidSession::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Lifetime lookups the cache's store answered.
    pub hits: u64,
    /// Lifetime filter row sets computed and published.
    pub misses: u64,
}

/// Interactive query intent discovery session (see the module docs).
///
/// Create one per user interaction; every mutation keeps the session
/// consistent (failed operations roll back and leave the previous state
/// untouched) and returns the [`DiscoveryDelta`] against the prior state.
#[derive(Debug, Clone)]
pub struct SquidSession<'a> {
    adb: AdbRef<'a>,
    params: SquidParams,
    examples: Vec<ExampleState>,
    target: TargetState,
    pinned: Vec<String>,
    banned: Vec<String>,
    /// Incremental Φ state for the current target entity.
    ctx: Option<ContextState>,
    ctx_table: Option<String>,
    last: Option<Arc<Discovery>>,
    /// Rendered chosen filters of `last` (cached for delta reporting).
    last_chosen: Vec<String>,
    /// Fingerprints of `last`'s chosen filters, parallel to `last_chosen`:
    /// the turn-over-turn diff that drives incremental result maintenance.
    last_fps: Vec<FilterFingerprint>,
    /// Handle on the cross-turn evaluation cache (memoized per-filter row
    /// bitmaps), or `None` when results bypass it: one-shot wrappers
    /// ([`Squid::discover`](crate::Squid::discover)) would only publish
    /// bitmaps a discarded session never reuses.
    cache: Option<FilterSetCache>,
    /// Scored filters memoized against `(ctx generation, example count)`:
    /// feedback turns (pin/ban) leave the Φ state untouched, so abduction's
    /// base decisions are replayed instead of recomputed. Cleared whenever
    /// `ctx` is replaced wholesale (generations of distinct states are not
    /// comparable).
    last_scored: Option<(u64, usize, Vec<crate::abduce::ScoredFilter>)>,
    /// Monotonic count of applied journaled operations — the replay-dedupe
    /// cursor maintained by [`SessionManager`](crate::SessionManager):
    /// journal records carry it so replay (and retried serving turns) can
    /// skip operations already folded into this state.
    op_seq: u64,
    /// The latest sequenced turn's number and delta, kept so a retry of
    /// that turn is answered as it was (see
    /// [`SessionManager::apply_op_at`](crate::SessionManager::apply_op_at)).
    /// Not journaled: a session rebuilt by recovery or a standby has none.
    answered: Option<(u64, DiscoveryDelta)>,
    /// Replayed ops have changed the state since `last` was computed (see
    /// [`replay`](Self::replay) and [`settle`](Self::settle)).
    stale: bool,
}

impl<'a> SquidSession<'a> {
    /// New session over a borrowed αDB with default parameters.
    pub fn new(adb: &'a ADb) -> SquidSession<'a> {
        Self::with_params(adb, SquidParams::default())
    }

    /// New session over a borrowed αDB with explicit parameters.
    pub fn with_params(adb: &'a ADb, params: SquidParams) -> SquidSession<'a> {
        let cache = FilterSetCache::new(adb.generation);
        Self::from_ref(AdbRef::Borrowed(adb), params, Some(cache))
    }

    /// A session over a borrowed αDB whose results bypass the evaluation
    /// cache (the one-shot [`Squid`](crate::Squid) drive).
    pub(crate) fn one_shot(adb: &'a ADb, params: SquidParams) -> SquidSession<'a> {
        Self::from_ref(AdbRef::Borrowed(adb), params, None)
    }

    fn from_ref(
        adb: AdbRef<'a>,
        params: SquidParams,
        cache: Option<FilterSetCache>,
    ) -> SquidSession<'a> {
        SquidSession {
            adb,
            params,
            examples: Vec::new(),
            target: TargetState::Auto {
                candidates: None,
                upto: 0,
            },
            pinned: Vec::new(),
            banned: Vec::new(),
            ctx: None,
            ctx_table: None,
            last: None,
            last_chosen: Vec::new(),
            last_fps: Vec::new(),
            cache,
            last_scored: None,
            op_seq: 0,
            answered: None,
            stale: false,
        }
    }

    /// Current parameters.
    pub fn params(&self) -> &SquidParams {
        &self.params
    }

    /// The example values currently in the session, in insertion order.
    pub fn examples(&self) -> Vec<&str> {
        self.examples.iter().map(|e| e.text.as_str()).collect()
    }

    /// Filter keys currently pinned (forced into the query).
    pub fn pinned(&self) -> &[String] {
        &self.pinned
    }

    /// Filter keys currently banned (forced out of the query).
    pub fn banned(&self) -> &[String] {
        &self.banned
    }

    /// The most recent discovery, if the session has examples.
    pub fn discovery(&self) -> Option<&Discovery> {
        self.last.as_deref()
    }

    /// The session's operation sequence number: how many journaled
    /// mutations this state is the product of (the replay-dedupe cursor).
    pub fn op_seq(&self) -> u64 {
        self.op_seq
    }

    /// Move the operation cursor forward (replay installs the journaled
    /// seq; live mutation paths use `seq = op_seq() + 1`). Backward moves
    /// are ignored — the cursor is monotonic by construction.
    pub(crate) fn advance_op_seq(&mut self, seq: u64) {
        self.op_seq = self.op_seq.max(seq);
    }

    /// Keep sequenced turn `seq`'s delta as the answer to its retries,
    /// replacing the previous turn's.
    pub(crate) fn remember_answer(&mut self, seq: u64, delta: Option<&DiscoveryDelta>) {
        self.answered = delta.map(|d| (seq, d.clone()));
    }

    /// The delta sequenced turn `seq` was answered with, if it is the
    /// latest one remembered.
    pub(crate) fn answer_of(&self, seq: u64) -> Option<DiscoveryDelta> {
        self.answered
            .as_ref()
            .filter(|(s, _)| *s == seq)
            .map(|(_, d)| d.clone())
    }

    /// The minimal operation sequence that rebuilds this session's logical
    /// state from scratch: the journal-compaction snapshot form. Replaying
    /// the returned ops against a fresh session on the same αDB lands on
    /// the same discovery (mutators are deterministic), in far fewer steps
    /// than the add/remove/pin churn that produced it.
    ///
    /// Order matters: a fixed target is restored first (so example adds
    /// resolve against it exactly as live adds did), then examples in
    /// insertion order with their disambiguation choices, then pins and
    /// bans (whose vectors already reflect net pin/ban/unpin history).
    pub fn state_ops(&self) -> Vec<SessionOp> {
        let mut ops =
            Vec::with_capacity(1 + 2 * self.examples.len() + self.pinned.len() + self.banned.len());
        if let TargetState::Fixed { table, column } = &self.target {
            // The journal op carries the column *name*; map the index back.
            if let Some(name) = self
                .adb
                .database
                .table(table)
                .ok()
                .and_then(|t| t.schema().columns.get(*column).map(|c| c.name.clone()))
            {
                ops.push(SessionOp::SetTarget {
                    table: table.clone(),
                    column: name,
                });
            }
        }
        for ex in &self.examples {
            ops.push(SessionOp::AddExample(ex.text.clone()));
            if let Some(pk) = ex.chosen_pk {
                ops.push(SessionOp::ChooseEntity {
                    example: ex.text.clone(),
                    pk,
                });
            }
        }
        for key in &self.pinned {
            ops.push(SessionOp::PinFilter(key.clone()));
        }
        for key in &self.banned {
            ops.push(SessionOp::BanFilter(key.clone()));
        }
        ops
    }

    /// Lifetime hit/miss counters of the session's evaluation-cache
    /// handle (the store's own counters and residency are
    /// [`SharedFilterSetCache::stats`]).
    pub fn cache_stats(&self) -> EvalCacheStats {
        self.cache
            .as_ref()
            .map_or_else(EvalCacheStats::default, |c| EvalCacheStats {
                hits: c.hits(),
                misses: c.misses(),
            })
    }

    /// Read and publish evaluation-cache bitmaps through `shared` instead
    /// of the session's private store, so standalone sessions share
    /// bitmaps the way [`SessionManager`](crate::SessionManager)-hosted
    /// ones (which use the manager's store) do.
    pub fn attach_shared_cache(&mut self, shared: Arc<SharedFilterSetCache>) {
        if let Some(cache) = &mut self.cache {
            cache.attach_shared(shared);
        }
    }

    /// Uncertainty-driven next-example hints (the paper's Figure-1 loop
    /// closed end to end): the `k` result tuples whose confirmation or
    /// rejection would resolve the most contested abduction decisions.
    /// Empty when the session has no discovery or no filter is contested.
    pub fn suggest(&self, k: usize) -> Vec<Recommendation> {
        let Some(d) = self.last.as_deref() else {
            return Vec::new();
        };
        let Some(entity) = self.adb.entity(&d.entity_table) else {
            return Vec::new();
        };
        recommend_examples(entity, d, k, DEFAULT_MIN_UNCERTAINTY)
    }

    /// Consume the session, yielding the final discovery.
    pub fn into_discovery(self) -> Option<Discovery> {
        self.last
            .map(|d| Arc::try_unwrap(d).unwrap_or_else(|d| (*d).clone()))
    }

    /// Add one example value and refine the discovery incrementally.
    ///
    /// On failure (the example matches nothing, or no target contains all
    /// examples) the session is left exactly as it was.
    pub fn add_example(&mut self, example: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_add(&[example]);
        self.commit(undo)
    }

    /// Add a batch of examples with a single discovery recomputation at the
    /// end (what [`Squid::discover`](crate::Squid::discover) uses): per-add
    /// deltas are skipped, so this costs one pipeline pass instead of one
    /// per example. On failure the session is left exactly as it was.
    pub fn add_examples(&mut self, examples: &[&str]) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_add(examples);
        self.commit(undo)
    }

    /// Remove one previously added example (first match by value) and
    /// refine the discovery; property states the removed entity constrained
    /// are rebuilt, the rest adjust in place.
    pub fn remove_example(&mut self, example: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_remove(example)?;
        self.commit(undo)
    }

    /// Fix the projection target to `table.column` (disables target
    /// inference until [`set_target_auto`](Self::set_target_auto)).
    pub fn set_target(&mut self, table: &str, column: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_target(table, column)?;
        self.commit(undo)
    }

    /// Return to automatic target inference.
    pub fn set_target_auto(&mut self) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_target_auto();
        self.commit(undo)
    }

    /// Force every filter whose property id *or* attribute name equals
    /// `key` into the abduced query, overriding Algorithm 1's decision
    /// (and clearing any ban on the same key).
    pub fn pin_filter(&mut self, key: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_pin(key);
        self.commit(undo)
    }

    /// Force every filter whose property id *or* attribute name equals
    /// `key` out of the abduced query (and clear any pin on the same key).
    pub fn ban_filter(&mut self, key: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_ban(key);
        self.commit(undo)
    }

    /// Drop a pin set by [`pin_filter`](Self::pin_filter).
    pub fn unpin_filter(&mut self, key: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_unpin(key);
        self.commit(undo)
    }

    /// Drop a ban set by [`ban_filter`](Self::ban_filter).
    pub fn unban_filter(&mut self, key: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_unban(key);
        self.commit(undo)
    }

    /// Disambiguation feedback: force `example` to resolve to the entity
    /// with primary key `pk` (which must be among its candidate matches).
    /// In auto-target mode the choice also narrows target inference to the
    /// tables where `pk` is a real match for the example.
    pub fn choose_entity(&mut self, example: &str, pk: i64) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_choice(example, Some(pk))?;
        self.commit(undo)
    }

    /// Clear disambiguation feedback for `example`, returning to
    /// similarity-based disambiguation.
    pub fn clear_choice(&mut self, example: &str) -> Result<DiscoveryDelta, SquidError> {
        let undo = self.stage_choice(example, None)?;
        self.commit(undo)
    }

    // ------------------------------------------------------------------
    // State transitions and refresh
    // ------------------------------------------------------------------

    /// Stage `op`'s state change without running discovery: the
    /// transition every verb above makes before it refreshes. Fails only
    /// on an op that cannot name its target (an unknown example, table or
    /// column), leaving the session untouched. `None` for the lifecycle
    /// markers (`Create`/`End`), which change no session state.
    pub(crate) fn stage(&mut self, op: &SessionOp) -> Result<Option<Undo>, SquidError> {
        let undo = match op {
            SessionOp::Create | SessionOp::End => return Ok(None),
            SessionOp::AddExample(v) => self.stage_add(&[v.as_str()]),
            SessionOp::RemoveExample(v) => self.stage_remove(v)?,
            SessionOp::SetTarget { table, column } => self.stage_target(table, column)?,
            SessionOp::SetTargetAuto => self.stage_target_auto(),
            SessionOp::PinFilter(k) => self.stage_pin(k),
            SessionOp::BanFilter(k) => self.stage_ban(k),
            SessionOp::UnpinFilter(k) => self.stage_unpin(k),
            SessionOp::UnbanFilter(k) => self.stage_unban(k),
            SessionOp::ChooseEntity { example, pk } => self.stage_choice(example, Some(*pk))?,
            SessionOp::ClearChoice(example) => self.stage_choice(example, None)?,
        };
        Ok(Some(undo))
    }

    /// Replay one journaled op: stage its state change and leave the
    /// discovery stale. The next [`settle`](Self::settle) runs one refresh
    /// for however many ops were replayed, instead of one per op.
    pub(crate) fn replay(&mut self, op: &SessionOp) -> Result<(), SquidError> {
        if self.stage(op)?.is_some() {
            self.stale = true;
        }
        Ok(())
    }

    /// Bring a replayed (stale) session's discovery up to date; a no-op
    /// otherwise. If the refresh fails — the αDB no longer matches the
    /// journal that built this state — the session is rebuilt from its
    /// [`state_ops`](Self::state_ops) through the live apply path, and the
    /// ops that fail there are skipped. Returns how many were skipped.
    pub(crate) fn settle(&mut self) -> u64 {
        if !std::mem::take(&mut self.stale) || self.refresh(Instant::now()).is_ok() {
            return 0;
        }
        let mut fresh = Self::from_ref(self.adb.clone(), self.params.clone(), self.cache.take());
        fresh.op_seq = self.op_seq;
        let failed = self
            .state_ops()
            .iter()
            .filter(|op| op.apply(&mut fresh).is_err())
            .count();
        *self = fresh;
        failed as u64
    }

    /// Refresh after a staged change, undoing the change if discovery
    /// fails. Feedback-only changes take the [`rescore`](Self::rescore)
    /// path and are not undone.
    pub(crate) fn commit(&mut self, undo: Undo) -> Result<DiscoveryDelta, SquidError> {
        let started = Instant::now();
        if let Undo::Feedback = undo {
            return self.rescore(started);
        }
        let result = self.refresh(started);
        if result.is_err() {
            match undo {
                Undo::Feedback => {}
                Undo::Added { len, target } => {
                    self.examples.truncate(len);
                    self.target = target;
                }
                Undo::Removed {
                    idx,
                    example,
                    target,
                } => {
                    self.examples.insert(idx, example);
                    self.target = target;
                }
                Undo::Target(target) => self.target = target,
                Undo::Choice { idx, prev } => self.examples[idx].chosen_pk = prev,
            }
        }
        result
    }

    fn stage_add(&mut self, examples: &[&str]) -> Undo {
        let undo = Undo::Added {
            len: self.examples.len(),
            target: self.target.clone(),
        };
        self.examples
            .extend(examples.iter().map(|example| ExampleState {
                text: example.to_string(),
                chosen_pk: None,
                lookups: Vec::new(),
            }));
        undo
    }

    fn stage_remove(&mut self, example: &str) -> Result<Undo, SquidError> {
        let idx = self.example_index(example)?;
        let target = self.target.clone();
        // The cached auto candidates were narrowed by the removed example:
        // drop them, or a later add would narrow from a stale prefix.
        if let TargetState::Auto { candidates, upto } = &mut self.target {
            *candidates = None;
            *upto = 0;
        }
        Ok(Undo::Removed {
            idx,
            example: self.examples.remove(idx),
            target,
        })
    }

    fn stage_target(&mut self, table: &str, column: &str) -> Result<Undo, SquidError> {
        let unknown = || SquidError::UnknownTarget {
            table: table.to_string(),
            column: column.to_string(),
        };
        if self.adb.entity(table).is_none() {
            return Err(unknown());
        }
        let ci = self
            .adb
            .database
            .table(table)
            .map_err(|_| unknown())?
            .schema()
            .column_index(column)
            .ok_or_else(unknown)?;
        Ok(Undo::Target(std::mem::replace(
            &mut self.target,
            TargetState::Fixed {
                table: table.to_string(),
                column: ci,
            },
        )))
    }

    fn stage_target_auto(&mut self) -> Undo {
        Undo::Target(std::mem::replace(
            &mut self.target,
            TargetState::Auto {
                candidates: None,
                upto: 0,
            },
        ))
    }

    fn stage_pin(&mut self, key: &str) -> Undo {
        self.banned.retain(|k| k != key);
        if !self.pinned.iter().any(|k| k == key) {
            self.pinned.push(key.to_string());
        }
        Undo::Feedback
    }

    fn stage_ban(&mut self, key: &str) -> Undo {
        self.pinned.retain(|k| k != key);
        if !self.banned.iter().any(|k| k == key) {
            self.banned.push(key.to_string());
        }
        Undo::Feedback
    }

    fn stage_unpin(&mut self, key: &str) -> Undo {
        self.pinned.retain(|k| k != key);
        Undo::Feedback
    }

    fn stage_unban(&mut self, key: &str) -> Undo {
        self.banned.retain(|k| k != key);
        Undo::Feedback
    }

    fn stage_choice(&mut self, example: &str, pk: Option<i64>) -> Result<Undo, SquidError> {
        let idx = self.example_index(example)?;
        let prev = std::mem::replace(&mut self.examples[idx].chosen_pk, pk);
        Ok(Undo::Choice { idx, prev })
    }

    fn example_index(&self, example: &str) -> Result<usize, SquidError> {
        self.examples
            .iter()
            .position(|e| e.text == example)
            .ok_or_else(|| SquidError::UnknownExample {
                example: example.to_string(),
            })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn example_texts(&self) -> Vec<String> {
        self.examples.iter().map(|e| e.text.clone()).collect()
    }

    /// Cached inverted-index lookup for example `i` in `table.column`.
    fn cached_lookup(&mut self, i: usize, table: &str, column: usize) -> Vec<RowId> {
        let adb = &self.adb;
        let ex = &mut self.examples[i];
        if let Some((_, rows)) = ex
            .lookups
            .iter()
            .find(|((t, c), _)| t == table && *c == column)
        {
            return rows.clone();
        }
        let rows = adb.inverted.lookup_in(&ex.text, table, column);
        ex.lookups.push(((table.to_string(), column), rows.clone()));
        rows
    }

    /// Candidate `(table, column)` targets containing every example,
    /// narrowed incrementally as examples are added and recomputed from
    /// scratch after removals. Sorted by `(table, column name)` so that
    /// score ties in [`pick_target`](Self::pick_target) break
    /// deterministically.
    fn auto_candidates(&mut self) -> Result<Vec<(String, usize)>, SquidError> {
        let (mut cands, upto) = match &self.target {
            TargetState::Auto {
                candidates: Some(c),
                upto,
            } if *upto <= self.examples.len() => (c.clone(), *upto),
            TargetState::Auto { .. } => {
                let texts: Vec<&str> = self.examples.iter().map(|e| e.text.as_str()).collect();
                let mut cands: Vec<(String, usize)> = self
                    .adb
                    .inverted
                    .columns_containing_all(&texts)
                    .into_iter()
                    .filter(|(t, _)| self.adb.entity(t).is_some())
                    .collect();
                cands.sort_by_cached_key(|(t, c)| {
                    let name = self
                        .adb
                        .database
                        .table(t)
                        .ok()
                        .map(|tab| tab.schema().columns[*c].name.clone())
                        .unwrap_or_default();
                    (t.clone(), name)
                });
                (cands, self.examples.len())
            }
            TargetState::Fixed { .. } => unreachable!("auto_candidates in fixed mode"),
        };
        for i in upto..self.examples.len() {
            cands.retain(|(t, c)| {
                let adb = &self.adb;
                let ex = &mut self.examples[i];
                if let Some((_, rows)) = ex.lookups.iter().find(|((lt, lc), _)| lt == t && lc == c)
                {
                    return !rows.is_empty();
                }
                let rows = adb.inverted.lookup_in(&ex.text, t, *c);
                let hit = !rows.is_empty();
                ex.lookups.push(((t.clone(), *c), rows));
                hit
            });
        }
        self.target = TargetState::Auto {
            candidates: Some(cands.clone()),
            upto: self.examples.len(),
        };
        Ok(cands)
    }

    /// Resolve every example to one entity row in `table.column`, applying
    /// disambiguation feedback and similarity-based disambiguation.
    fn resolve_target_rows(
        &mut self,
        table: &str,
        column: usize,
    ) -> Result<Vec<RowId>, SquidError> {
        let mut lists: Vec<Vec<RowId>> = Vec::with_capacity(self.examples.len());
        for i in 0..self.examples.len() {
            let rows = self.cached_lookup(i, table, column);
            if rows.is_empty() {
                return Err(SquidError::EntityNotFound {
                    example: self.examples[i].text.clone(),
                    table: table.to_string(),
                });
            }
            let rows = match self.examples[i].chosen_pk {
                None => rows,
                Some(pk) => {
                    let row = self
                        .adb
                        .entity(table)
                        .and_then(|e| e.row_of(pk))
                        .filter(|r| rows.contains(r));
                    match row {
                        Some(r) => vec![r],
                        None => {
                            return Err(SquidError::InvalidChoice {
                                example: self.examples[i].text.clone(),
                                pk,
                            })
                        }
                    }
                }
            };
            lists.push(rows);
        }
        let entity = self
            .adb
            .entity(table)
            .ok_or_else(|| SquidError::UnknownTarget {
                table: table.to_string(),
                column: format!("#{column}"),
            })?;
        if !self.params.disambiguate {
            return Ok(lists.iter().map(|c| c[0]).collect());
        }
        Ok(disambiguate(entity, &lists, &self.params))
    }

    /// The current projection target: the fixed one, or the best-scoring
    /// auto candidate (resolved-entity similarity, ties broken by the
    /// candidates' `(table, column)` name order). When target ranking
    /// already resolved the winner's example rows, they are returned too
    /// so [`refresh`](Self::refresh) does not disambiguate twice.
    #[allow(clippy::type_complexity)]
    fn pick_target(&mut self) -> Result<(String, usize, Option<Vec<RowId>>), SquidError> {
        if let TargetState::Fixed { table, column } = &self.target {
            return Ok((table.clone(), *column, None));
        }
        let cands = self.auto_candidates()?;
        if cands.is_empty() {
            return Err(SquidError::NoMatchingColumn {
                examples: self.example_texts(),
            });
        }
        if cands.len() == 1 {
            let (t, c) = cands.into_iter().next().expect("one candidate");
            return Ok((t, c, None));
        }
        let mut best: Option<(f64, String, usize, Vec<RowId>)> = None;
        // A candidate where a `choose_entity` pk does not resolve is
        // skipped (the choice narrows target inference to tables where it
        // is a real match) — but remember the error so an all-candidates
        // failure reports the actual problem, not a bogus NoMatchingColumn.
        let mut invalid_choice: Option<SquidError> = None;
        for (t, c) in cands {
            let rows = match self.resolve_target_rows(&t, c) {
                Ok(rows) => rows,
                Err(e @ SquidError::InvalidChoice { .. }) => {
                    invalid_choice.get_or_insert(e);
                    continue;
                }
                Err(_) => continue,
            };
            let entity = self.adb.entity(&t).expect("candidate is an entity");
            let score = similarity_score(entity, &rows);
            // Candidates are name-sorted and strict `>` keeps the first
            // best, so ties break by (table, column) name.
            if best.as_ref().is_none_or(|(b, _, _, _)| score > *b) {
                best = Some((score, t, c, rows));
            }
        }
        match best {
            Some((_, t, c, rows)) => Ok((t, c, Some(rows))),
            None => Err(invalid_choice.unwrap_or(SquidError::NoMatchingColumn {
                examples: self.example_texts(),
            })),
        }
    }

    /// Recompute the discovery after a state change. All fallible steps
    /// (target selection, resolution) run before any cached state is
    /// mutated, so callers can roll back their input change on error.
    fn refresh(&mut self, started: Instant) -> Result<DiscoveryDelta, SquidError> {
        if self.examples.is_empty() {
            let delta = DiscoveryDelta {
                discovery: None,
                added_filters: Vec::new(),
                removed_filters: std::mem::take(&mut self.last_chosen),
                rows_added: 0,
                rows_removed: self.last.as_ref().map(|d| d.rows.len()).unwrap_or(0),
                incremental: true,
                cache_hits: 0,
                cache_misses: 0,
            };
            self.ctx = None;
            self.ctx_table = None;
            self.last = None;
            self.last_fps.clear();
            self.last_scored = None;
            if let TargetState::Auto { candidates, upto } = &mut self.target {
                *candidates = None;
                *upto = 0;
            }
            return Ok(delta);
        }
        let (table, column, resolved) = self.pick_target()?;
        let projection_column = self.adb.database.table(&table)?.schema().columns[column]
            .name
            .clone();
        let mut distinct = match resolved {
            Some(rows) => rows,
            None => self.resolve_target_rows(&table, column)?,
        };
        // Duplicate example strings may resolve to the same entity.
        distinct.sort_unstable();
        distinct.dedup();

        // Infallible from here: update the cached Φ state.
        if self.ctx_table.as_deref() != Some(table.as_str()) {
            self.ctx = None;
            self.last_scored = None;
        }
        let entity = self.adb.entity(&table).expect("target is an entity");
        let mut incremental = true;
        match &mut self.ctx {
            Some(ctx) => {
                let old = ctx.rows();
                let added: Vec<RowId> = distinct
                    .iter()
                    .copied()
                    .filter(|r| old.binary_search(r).is_err())
                    .collect();
                let removed: Vec<RowId> = old
                    .iter()
                    .copied()
                    .filter(|r| distinct.binary_search(r).is_err())
                    .collect();
                if !added.is_empty() && !removed.is_empty() {
                    // Disambiguation reshuffled earlier examples: rebuild.
                    // (A fresh state restarts its generation counter, so
                    // the scored memo must not survive it.)
                    incremental = false;
                    let mut st = ContextState::new(entity);
                    for &r in &distinct {
                        st.add_row(entity, r);
                    }
                    *ctx = st;
                    self.last_scored = None;
                } else {
                    for &r in &added {
                        ctx.add_row(entity, r);
                    }
                    for &r in &removed {
                        ctx.remove_row(entity, r);
                    }
                }
            }
            None => {
                incremental = false;
                let mut st = ContextState::new(entity);
                for &r in &distinct {
                    st.add_row(entity, r);
                }
                self.ctx = Some(st);
                self.ctx_table = Some(table.clone());
            }
        }

        self.snapshot(started, table, projection_column, distinct, incremental)
    }

    /// Recompute the discovery for feedback-only changes (pin/ban): the
    /// example set, target, and resolutions are unchanged, so skip target
    /// inference and re-disambiguation and rescore from the cached Φ state.
    fn rescore(&mut self, started: Instant) -> Result<DiscoveryDelta, SquidError> {
        let (Some(last), Some(_)) = (&self.last, &self.ctx) else {
            return self.refresh(started);
        };
        let table = last.entity_table.clone();
        let projection_column = last.projection_column.clone();
        let distinct = last.example_rows.clone();
        self.snapshot(started, table, projection_column, distinct, true)
    }

    /// The abduce-onward pipeline tail shared by [`refresh`](Self::refresh)
    /// and [`rescore`](Self::rescore): snapshot Φ, score, apply pins/bans,
    /// generate queries, evaluate, and report the delta.
    ///
    /// Result evaluation is **incremental bitmap algebra** through the
    /// session's [`FilterSetCache`]: the chosen filters are diffed against
    /// the previous turn by fingerprint, and
    ///
    /// * an unchanged filter set reuses the previous result bitmap;
    /// * a turn that only *adds* filters intersects the previous bitmap
    ///   with the added filters' cached sets (one word-wise AND each);
    /// * any removal re-intersects the cached per-filter sets — with a warm
    ///   cache that is still pure bitmap work, no postings walks.
    ///
    /// The last two stop once only the examples survive (see
    /// [`query_gen`](crate::query_gen)), as the uncached one-shot
    /// evaluation does.
    fn snapshot(
        &mut self,
        started: Instant,
        table: String,
        projection_column: String,
        distinct: Vec<RowId>,
        incremental: bool,
    ) -> Result<DiscoveryDelta, SquidError> {
        let entity = self.adb.entity(&table).expect("target is an entity");
        let ctx = self.ctx.as_mut().expect("context state ensured");
        // Abduction is a pure function of (Φ snapshot, |examples|): replay
        // the memoized decisions when neither moved — the feedback-turn
        // (pin/ban) fast path; pins and bans are applied after.
        let scored_key = (ctx.generation(), distinct.len());
        let mut scored = match &self.last_scored {
            Some((generation, count, scored))
                if (*generation, *count) == scored_key
                    && self.ctx_table.as_deref() == Some(table.as_str()) =>
            {
                scored.clone()
            }
            _ => {
                let candidates = ctx.candidates(entity, &self.params);
                let scored = abduce(candidates, distinct.len(), &self.params);
                self.last_scored = Some((scored_key.0, scored_key.1, scored.clone()));
                scored
            }
        };
        for s in &mut scored {
            if key_matches(&self.banned, &s.filter) {
                s.included = false;
            } else if key_matches(&self.pinned, &s.filter) {
                s.included = true;
            }
        }
        let chosen: Vec<CandidateFilter> = scored
            .iter()
            .filter(|s| s.included)
            .map(|s| s.filter.clone())
            .collect();

        let before = self.cache_stats();
        let fps: Vec<FilterFingerprint> = chosen.iter().map(filter_fingerprint).collect();
        let unchanged = fps == self.last_fps;
        let prev_same_target = self
            .last
            .as_ref()
            .filter(|p| p.entity_table == table)
            .cloned();

        // The query depends only on (entity, chosen, projection): an
        // unchanged turn reuses the previous turn's instead of re-deriving it.
        let query = match &prev_same_target {
            Some(prev) if unchanged && prev.projection_column == projection_column => {
                prev.query.clone()
            }
            _ => original_query(entity, &chosen, &projection_column).0,
        };

        let removed_any = self.last_fps.iter().any(|fp| !fps.contains(fp));
        // Every branch stops once only the examples survive: every chosen
        // filter holds them all, so none can remove a row after that.
        let rows = match (&mut self.cache, &prev_same_target) {
            (None, _) => intersect_sources(entity, &chosen, &distinct, None),
            (_, Some(prev)) if unchanged => prev.rows.clone(),
            (Some(cache), Some(prev)) if !removed_any => {
                // Add-only turn: restrict the previous result by each newly
                // chosen filter (a bitmap AND — cached, or a dense value's
                // own — or the cheaper side of a slice not worth keeping).
                let mut rows = prev.rows.clone();
                for (f, fp) in chosen.iter().zip(&fps) {
                    if rows.len() == distinct.len() {
                        break;
                    }
                    if !self.last_fps.contains(fp) {
                        restrict_rows(&mut rows, entity, f, fp, cache);
                    }
                }
                rows
            }
            (Some(cache), _) => intersect_sources(entity, &chosen, &distinct, Some((&fps, cache))),
        };
        let after = self.cache_stats();
        let (cache_hits, cache_misses) = (after.hits - before.hits, after.misses - before.misses);

        let discovery = Arc::new(Discovery {
            entity_table: table,
            projection_column,
            example_rows: distinct,
            scored,
            query,
            rows,
            elapsed: started.elapsed(),
        });
        // Equal fingerprints mean equal rendered filters: the string diff
        // (and its re-rendering) only runs when the chosen set changed.
        let (added_filters, removed_filters) = if unchanged {
            (Vec::new(), Vec::new())
        } else {
            // Renders carry over from the previous turn for filters whose
            // fingerprint did not change; only genuinely new ones format.
            let next_chosen: Vec<String> = chosen
                .iter()
                .zip(&fps)
                .map(|(f, fp)| match self.last_fps.iter().position(|p| p == fp) {
                    Some(i) => self.last_chosen[i].clone(),
                    None => f.describe(),
                })
                .collect();
            let added: Vec<String> = next_chosen
                .iter()
                .filter(|f| !self.last_chosen.contains(f))
                .cloned()
                .collect();
            let removed: Vec<String> = self
                .last_chosen
                .iter()
                .filter(|f| !next_chosen.contains(f))
                .cloned()
                .collect();
            self.last_chosen = next_chosen;
            (added, removed)
        };
        let (rows_added, rows_removed) = match &self.last {
            // Row ids are table-local: across a target change the bitmaps
            // are incomparable, so the whole result set turned over.
            Some(prev) if prev.entity_table != discovery.entity_table => {
                (discovery.rows.len(), prev.rows.len())
            }
            Some(prev) => (
                discovery.rows.difference_size(&prev.rows),
                prev.rows.difference_size(&discovery.rows),
            ),
            None => (discovery.rows.len(), 0),
        };
        let delta = DiscoveryDelta {
            discovery: Some(Arc::clone(&discovery)),
            added_filters,
            removed_filters,
            rows_added,
            rows_removed,
            incremental,
            cache_hits,
            cache_misses,
        };
        self.last = Some(discovery);
        self.last_fps = fps;
        Ok(delta)
    }
}

impl SquidSession<'static> {
    /// New `'static` session over a shared αDB (default parameters).
    pub fn shared(adb: Arc<ADb>) -> SquidSession<'static> {
        Self::shared_with_params(adb, SquidParams::default())
    }

    /// New `'static` session over a shared αDB with explicit parameters.
    pub fn shared_with_params(adb: Arc<ADb>, params: SquidParams) -> SquidSession<'static> {
        let cache = FilterSetCache::new(adb.generation);
        Self::from_ref(AdbRef::Shared(adb), params, Some(cache))
    }

    /// A `'static` session that reads and publishes evaluation-cache
    /// bitmaps through `store` (a [`SessionManager`](crate::SessionManager)
    /// hands every hosted session its fleet's store).
    pub(crate) fn hosted(
        adb: Arc<ADb>,
        params: SquidParams,
        store: Arc<SharedFilterSetCache>,
    ) -> SquidSession<'static> {
        let cache = FilterSetCache::attached(store, adb.generation);
        Self::from_ref(AdbRef::Shared(adb), params, Some(cache))
    }
}

fn key_matches(keys: &[String], filter: &CandidateFilter) -> bool {
    keys.iter()
        .any(|k| filter.prop_id == k.as_str() || filter.attr_name == k.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squid::Squid;
    use squid_adb::test_fixtures::{figure6_db, mini_imdb};
    use squid_relation::{Database, Value};

    fn assert_same_discovery(a: &Discovery, b: &Discovery) {
        assert_eq!(a.entity_table, b.entity_table);
        assert_eq!(a.projection_column, b.projection_column);
        assert_eq!(a.example_rows, b.example_rows);
        let render = |d: &Discovery| -> Vec<String> {
            d.scored
                .iter()
                .map(|s| {
                    format!(
                        "{} ψ={:.9} prior={:.9} inc={}",
                        s.filter.describe(),
                        s.filter.selectivity,
                        s.prior,
                        s.included
                    )
                })
                .collect()
        };
        assert_eq!(render(a), render(b));
        assert_eq!(a.sql(), b.sql());
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn incremental_adds_match_one_shot_discover() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let params = SquidParams {
            tau_a: 3,
            ..SquidParams::default()
        };
        let examples = ["Jim Carrey", "Eddie Murphy", "Robin Williams"];
        let mut session = SquidSession::with_params(&adb, params.clone());
        for e in &examples {
            session.add_example(e).unwrap();
        }
        let squid = Squid::with_params(&adb, params);
        let one_shot = squid.discover(&examples).unwrap();
        assert_same_discovery(session.discovery().unwrap(), &one_shot);
    }

    #[test]
    fn second_add_takes_the_incremental_path() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut session = SquidSession::new(&adb);
        let d1 = session.add_example("Jim Carrey").unwrap();
        assert!(!d1.incremental, "first example builds the state");
        let d2 = session.add_example("Eddie Murphy").unwrap();
        assert!(d2.incremental, "second example folds in incrementally");
    }

    #[test]
    fn remove_and_re_add_round_trips() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let params = SquidParams {
            tau_a: 3,
            ..SquidParams::default()
        };
        let mut session = SquidSession::with_params(&adb, params.clone());
        for e in ["Jim Carrey", "Eddie Murphy", "Robin Williams"] {
            session.add_example(e).unwrap();
        }
        let before = session.discovery().unwrap().clone();
        session.remove_example("Eddie Murphy").unwrap();
        assert_eq!(session.discovery().unwrap().example_rows.len(), 2);
        session.add_example("Eddie Murphy").unwrap();
        assert_same_discovery(session.discovery().unwrap(), &before);
    }

    #[test]
    fn removing_last_example_clears_the_discovery() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut session = SquidSession::new(&adb);
        session.add_example("Jim Carrey").unwrap();
        let delta = session.remove_example("Jim Carrey").unwrap();
        assert!(delta.discovery.is_none());
        assert!(delta.rows_removed > 0);
        assert!(session.discovery().is_none());
        assert!(session.examples().is_empty());
    }

    #[test]
    fn failed_add_rolls_back() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut session = SquidSession::new(&adb);
        session.add_example("Jim Carrey").unwrap();
        let before = session.discovery().unwrap().clone();
        let err = session.add_example("No Such Person").unwrap_err();
        assert!(matches!(err, SquidError::NoMatchingColumn { .. }));
        assert_eq!(session.examples(), vec!["Jim Carrey"]);
        assert_same_discovery(session.discovery().unwrap(), &before);
        // The session still works after the failure.
        session.add_example("Eddie Murphy").unwrap();
        assert_eq!(session.discovery().unwrap().example_rows.len(), 2);
    }

    #[test]
    fn unknown_removal_errors() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut session = SquidSession::new(&adb);
        session.add_example("Jim Carrey").unwrap();
        let err = session.remove_example("Eddie Murphy").unwrap_err();
        assert!(matches!(err, SquidError::UnknownExample { .. }));
    }

    #[test]
    fn fixed_target_matches_discover_on() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut session = SquidSession::new(&adb);
        session.set_target("person", "name").unwrap();
        session.add_example("Jim Carrey").unwrap();
        session.add_example("Eddie Murphy").unwrap();
        let squid = Squid::new(&adb);
        let one_shot = squid
            .discover_on("person", "name", &["Jim Carrey", "Eddie Murphy"])
            .unwrap();
        assert_same_discovery(session.discovery().unwrap(), &one_shot);
        let err = session.set_target("person", "nope").unwrap_err();
        assert!(matches!(err, SquidError::UnknownTarget { .. }));
        // The failed retarget left the fixed target intact.
        assert_eq!(session.discovery().unwrap().entity_table, "person");
    }

    #[test]
    fn pin_and_ban_steer_abduction() {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut session = SquidSession::new(&adb);
        session.add_example("Jim Carrey").unwrap();
        session.add_example("Eddie Murphy").unwrap();
        // gender=Male is generic (ψ=0.75) and normally dropped.
        let base = session.discovery().unwrap();
        assert!(base
            .chosen_filters()
            .iter()
            .all(|f| f.attr_name != "gender"));
        let rows_before = base.rows.len();

        let delta = session.pin_filter("gender").unwrap();
        assert!(delta.added_filters.iter().any(|f| f.contains("gender")));
        let pinned = session.discovery().unwrap();
        assert!(pinned
            .chosen_filters()
            .iter()
            .any(|f| f.attr_name == "gender"));
        assert!(pinned.rows.len() <= rows_before);

        let delta = session.ban_filter("gender").unwrap();
        assert!(delta.removed_filters.iter().any(|f| f.contains("gender")));
        assert!(session
            .discovery()
            .unwrap()
            .chosen_filters()
            .iter()
            .all(|f| f.attr_name != "gender"));

        session.unban_filter("gender").unwrap();
        let restored = session.discovery().unwrap();
        assert!(restored
            .chosen_filters()
            .iter()
            .all(|f| f.attr_name != "gender"));
        assert_eq!(restored.rows.len(), rows_before);
    }

    /// Two people named "Jamie Lee": similarity picks the comedy actor
    /// when the other examples are comedians, and `choose_entity` can
    /// override that.
    fn ambiguous_db() -> Database {
        let mut db = mini_imdb();
        // Add a second "Jim Carrey" (id 100) who shares nothing with the
        // comedy cluster (non-USA, female, no movies).
        db.insert(
            "person",
            vec![
                Value::Int(100),
                Value::text("Jim Carrey"),
                Value::text("Female"),
                Value::text("France"),
                Value::Int(1980),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn choose_entity_overrides_disambiguation() {
        let db = ambiguous_db();
        let adb = ADb::build(&db).unwrap();
        let mut session = SquidSession::new(&adb);
        session.add_example("Jim Carrey").unwrap();
        session.add_example("Eddie Murphy").unwrap();
        // Similarity resolves "Jim Carrey" to the comedy actor (pk 1).
        let e = adb.entity("person").unwrap();
        let comedian = e.row_of(1).unwrap();
        let impostor = e.row_of(100).unwrap();
        assert!(session
            .discovery()
            .unwrap()
            .example_rows
            .contains(&comedian));
        // Feedback: the user meant the other one.
        let delta = session.choose_entity("Jim Carrey", 100).unwrap();
        assert!(session
            .discovery()
            .unwrap()
            .example_rows
            .contains(&impostor));
        assert!(!session
            .discovery()
            .unwrap()
            .example_rows
            .contains(&comedian));
        // Swapping one resolved row for another rebuilds the state.
        assert!(!delta.incremental);
        // Invalid pk is rejected and rolls back.
        let err = session.choose_entity("Jim Carrey", 999).unwrap_err();
        assert!(matches!(err, SquidError::InvalidChoice { .. }));
        assert!(session
            .discovery()
            .unwrap()
            .example_rows
            .contains(&impostor));
        // Clearing the choice returns to similarity-based resolution.
        session.clear_choice("Jim Carrey").unwrap();
        assert!(session
            .discovery()
            .unwrap()
            .example_rows
            .contains(&comedian));
    }

    #[test]
    fn delta_reports_filter_and_row_changes() {
        let adb = ADb::build(&figure6_db()).unwrap();
        let mut session = SquidSession::new(&adb);
        let d1 = session.add_example("Tom Cruise").unwrap();
        assert!(d1.rows_added > 0);
        assert_eq!(d1.rows_removed, 0);
        let d2 = session.add_example("Clint Eastwood").unwrap();
        // Refining with a second example can only shrink or keep rows here.
        assert_eq!(d2.rows_added, 0);
    }

    #[test]
    fn shared_sessions_are_static_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let mut session: SquidSession<'static> = SquidSession::shared(Arc::clone(&adb));
        assert_send(&session);
        session.add_example("Jim Carrey").unwrap();
        assert_eq!(session.discovery().unwrap().entity_table, "person");
    }
}
