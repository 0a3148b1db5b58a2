//! Concurrent session hosting: many interactive [`SquidSession`]s over one
//! shared, immutable αDB.
//!
//! The [`SessionManager`] is the serving seam for RPC/HTTP frontends: the
//! αDB lives in a single [`Arc`] that every session reads without any
//! synchronization (it is immutable after build), the session registry is
//! sharded 16 ways so unrelated sessions never contend on the same lock,
//! and idle sessions are evicted after a configurable TTL. Within a shard,
//! operating on a session holds only a brief read lock to clone the entry
//! handle — long-running discovery work happens outside the registry locks,
//! under the session's own mutex.
//!
//! ```
//! use std::sync::Arc;
//! use squid_adb::{test_fixtures, ADb};
//! use squid_core::SessionManager;
//!
//! let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
//! let manager = SessionManager::new(adb);
//! let id = manager.create_session();
//! let rows = manager
//!     .with_session(id, |s| {
//!         s.add_example("Jim Carrey")?;
//!         s.add_example("Eddie Murphy")?;
//!         Ok(s.discovery().unwrap().rows.len())
//!     })
//!     .unwrap();
//! assert!(rows >= 2);
//! manager.end_session(id);
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

pub use squid_adb::DEFAULT_SHARED_CACHE_BYTES;
use squid_adb::{ADb, SharedCacheStats, SharedFilterSetCache};
use squid_relation::FxHashMap;

use crate::error::SquidError;
use crate::journal::{self, CompactStats, FsyncPolicy, Journal, SessionOp};
use crate::params::SquidParams;
use crate::session::{DiscoveryDelta, SquidSession};

/// Opaque session identifier handed out by [`SessionManager::create_session`].
pub type SessionId = u64;

const SHARDS: usize = 16;

struct Entry {
    session: Mutex<SquidSession<'static>>,
    /// Milliseconds since the manager's epoch at last use (atomic so
    /// touching a session never takes a write lock).
    last_used_ms: AtomicU64,
}

/// What a journal recovery actually did (see [`SessionManager::recover`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverStats {
    /// Sessions created during replay (`Create` records).
    pub sessions_replayed: usize,
    /// Records applied successfully.
    pub records_applied: u64,
    /// Ops that could not be replayed; skipped. A record fails on its own
    /// when its op names nothing the session holds (an unknown session,
    /// example, table or column). Discovery failures — the αDB changed
    /// under the journal — surface at the final refresh instead: that
    /// session is rebuilt from its state ops, and each op that fails there
    /// counts here.
    pub records_failed: u64,
    /// Records skipped because their sequence number was already covered
    /// by the session's cursor (duplicates from the compaction/append
    /// race; replay is idempotent, so these are expected, not damage).
    pub records_skipped: u64,
    /// Torn/corrupt tail bytes truncated from the journal.
    pub bytes_truncated: u64,
    /// Sessions live after replay (created and never ended).
    pub live_sessions: usize,
}

/// The one-line recovery summary every front end prints.
impl std::fmt::Display for RecoverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed {} session(s), {} record(s) applied, {} failed, {} skipped, \
             {} damaged byte(s) truncated, {} live",
            self.sessions_replayed,
            self.records_applied,
            self.records_failed,
            self.records_skipped,
            self.bytes_truncated,
            self.live_sessions
        )
    }
}

/// What one [`SessionManager::apply_replicated`] batch did — the standby
/// side's ledger of a replication stream segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicatedStats {
    /// Records applied (and locally re-journaled).
    pub records_applied: u64,
    /// Records already covered by a session cursor or a skipped snapshot
    /// section — the idempotent-overlap case, expected, not damage.
    pub records_skipped: u64,
    /// Records whose op names nothing the session holds (an unknown
    /// session, example, table or column); skipped, mirroring recovery.
    /// Records are applied to session state only, so a discovery failure
    /// surfaces on the session's first read instead, where the session is
    /// rebuilt from its state ops without the ones that fail.
    pub records_failed: u64,
    /// Sessions newly installed from `Create` records.
    pub sessions_installed: u64,
    /// Stale sessions rebuilt from a re-snapshot's section (this replica
    /// lagged across a primary compaction).
    pub sessions_reinstalled: u64,
    /// Sessions removed by `End` records.
    pub sessions_ended: u64,
}

/// The attached journal plus its replay-debt bookkeeping (one mutex: the
/// appender and the counters must move together).
struct JournalState {
    journal: Journal,
    /// Records the current file began with (recovery replay prefix or the
    /// last compaction snapshot) — an estimate of live-state size.
    base_records: u64,
    /// Records appended since open/recover/compaction: the replay tail
    /// that full recovery would have to re-apply.
    tail_records: u64,
    /// Compactions performed over this journal's lifetime.
    compactions: u64,
    /// What the most recent compaction did.
    last_compaction: Option<CompactStats>,
    /// File-generation counter: bumped every time compaction swaps a
    /// rewritten file under the journal path. A reader streaming the file
    /// by byte offset ([`crate::journal::JournalTail`]) samples this
    /// around each read — if it moved, the bytes may belong to the new
    /// generation and the stream must re-snapshot from offset 0.
    epoch: u64,
}

/// Point-in-time journal health for the `stats` surfaces (REPL and the
/// serving `stats`/`health` verbs): how much replay debt has accumulated
/// and what the last compaction bought.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalStats {
    /// The journal file's path.
    pub path: String,
    /// Journal file size in bytes.
    pub bytes: u64,
    /// Records the file began with (snapshot/replay prefix).
    pub base_records: u64,
    /// Records appended since (the replay tail).
    pub tail_records: u64,
    /// Compactions performed so far.
    pub compactions: u64,
    /// What the most recent compaction did, if any.
    pub last_compaction: Option<CompactStats>,
    /// File-generation counter (bumps on every compaction swap); byte
    /// offsets into the journal are only comparable within one epoch.
    pub epoch: u64,
}

/// Outcome of a sequenced mutation ([`SessionManager::apply_op_at`]).
#[derive(Debug)]
pub enum SeqOutcome {
    /// The operation was applied and journaled; carries the delta.
    Applied(Option<DiscoveryDelta>),
    /// The sequence number was at or below the session's cursor: the
    /// operation was already applied (a retried turn) and was not re-run.
    Duplicate,
}

/// Hosts many concurrent [`SquidSession`]s over one shared αDB (see the
/// module docs for the locking story).
pub struct SessionManager {
    adb: Arc<ADb>,
    params: SquidParams,
    ttl: Option<Duration>,
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<RwLock<FxHashMap<SessionId, Arc<Entry>>>>,
    /// The evaluation cache: every hosted session reads and publishes
    /// filter bitmaps through this one byte-bounded store.
    shared_cache: Arc<SharedFilterSetCache>,
    /// Append-only durability journal plus its replay-debt counters
    /// (`None` until attached/recovered).
    journal: Mutex<Option<JournalState>>,
    /// Auto-compaction floor: compact once the appended tail reaches
    /// `max(this, base_records)` records (`None` = manual only).
    auto_compact: Option<u64>,
    /// Serializes [`SessionManager::compact_journal`] runs: two racing
    /// compactions could otherwise rewrite the file from the staler of
    /// two session snapshots, dropping the fresher one's records.
    compact_lock: Mutex<()>,
    /// What the last [`SessionManager::recover`] call did.
    recover_stats: Mutex<Option<RecoverStats>>,
    /// Journal appends that failed: best-effort create/end records, plus
    /// turn appends that fail-stopped their session (see
    /// [`SessionManager::apply_op`]).
    journal_write_errors: AtomicU64,
}

/// Recover a lock guard from a poisoned registry lock: no user code ever
/// runs while a *registry* lock is held (shards map ids to `Arc<Entry>`
/// handles; session turns run under the entry's own mutex), so poisoning
/// here only means some unrelated thread panicked — the map itself is
/// structurally intact and siblings must keep working.
fn recover_guard<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl SessionManager {
    /// New manager with default parameters and no TTL eviction. The
    /// fleet's evaluation cache is bounded by
    /// [`DEFAULT_SHARED_CACHE_BYTES`].
    pub fn new(adb: Arc<ADb>) -> SessionManager {
        Self::with_params(adb, SquidParams::default())
    }

    /// New manager whose sessions start from `params`.
    pub fn with_params(adb: Arc<ADb>, params: SquidParams) -> SessionManager {
        let shared_cache = Arc::new(SharedFilterSetCache::new(
            adb.generation,
            DEFAULT_SHARED_CACHE_BYTES,
        ));
        SessionManager {
            adb,
            params,
            ttl: None,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            shared_cache,
            journal: Mutex::new(None),
            auto_compact: None,
            compact_lock: Mutex::new(()),
            recover_stats: Mutex::new(None),
            journal_write_errors: AtomicU64::new(0),
        }
    }

    /// Evict sessions idle longer than `ttl` (checked lazily on access and
    /// by [`evict_expired`](Self::evict_expired)).
    pub fn with_ttl(mut self, ttl: Duration) -> SessionManager {
        self.ttl = Some(ttl);
        self
    }

    /// Auto-compact the journal once the appended tail reaches
    /// `max(min_tail, base_records)` records — i.e. when replaying the
    /// tail would cost at least as much as replaying the last snapshot,
    /// and at least `min_tail` either way. Doubling-style trigger, so
    /// compaction work is amortized O(1) per append.
    pub fn with_auto_compact(mut self, min_tail: u64) -> SessionManager {
        self.auto_compact = Some(min_tail.max(1));
        self
    }

    /// Replace the fleet's evaluation cache with one bounded by
    /// `max_resident_bytes` (applies to sessions created afterwards).
    pub fn with_shared_cache_bytes(mut self, max_resident_bytes: usize) -> SessionManager {
        self.shared_cache = Arc::new(SharedFilterSetCache::new(
            self.adb.generation,
            max_resident_bytes,
        ));
        self
    }

    /// The shared αDB.
    pub fn adb(&self) -> &Arc<ADb> {
        &self.adb
    }

    /// Parameters new sessions start from.
    pub fn params(&self) -> &SquidParams {
        &self.params
    }

    /// Aggregate counters of the fleet's evaluation cache: hits/misses,
    /// evictions, and total plus per-shard resident bytes. Always `Some`
    /// (every manager owns a cache).
    pub fn shared_cache_stats(&self) -> Option<SharedCacheStats> {
        Some(self.shared_cache.stats())
    }

    fn shard(&self, id: SessionId) -> &RwLock<FxHashMap<SessionId, Arc<Entry>>> {
        &self.shards[(id as usize) % SHARDS]
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Open a new session with the manager's default parameters.
    pub fn create_session(&self) -> SessionId {
        self.create_session_with_params(self.params.clone())
    }

    /// Open a new session with explicit parameters.
    pub fn create_session_with_params(&self, params: SquidParams) -> SessionId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.install_session(id, params);
        // Best-effort journaling on the infallible create path; failures
        // are counted (surfaced via `journal_write_errors`) and the next
        // fallible `apply_op` on this journal will report the condition.
        if self.journal_append(id, 0, &SessionOp::Create).is_err() {
            self.journal_write_errors.fetch_add(1, Ordering::Relaxed);
        }
        id
    }

    /// Install a session under a fixed id (the create path minus id
    /// allocation and journaling — also the journal-replay path).
    fn install_session(&self, id: SessionId, params: SquidParams) {
        let session = SquidSession::hosted(
            Arc::clone(&self.adb),
            params,
            Arc::clone(&self.shared_cache),
        );
        let entry = Arc::new(Entry {
            session: Mutex::new(session),
            last_used_ms: AtomicU64::new(self.now_ms()),
        });
        recover_guard(self.shard(id).write()).insert(id, entry);
    }

    /// Run `f` against session `id`. The registry lock is held only long
    /// enough to clone the entry handle; `f` runs under the session's own
    /// mutex. Expired sessions are evicted and reported as unknown.
    ///
    /// A session that replay left stale (recovery before its final
    /// refresh, or a standby applying a replication stream) is refreshed
    /// first, so `f` sees the discovery an uninterrupted run would have.
    pub fn with_session<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut SquidSession<'static>) -> Result<T, SquidError>,
    ) -> Result<T, SquidError> {
        self.with_session_state(id, |s| {
            s.settle();
            f(s)
        })
    }

    /// [`with_session`](Self::with_session) without the refresh, for the
    /// paths that read or stage session *state* only: replay, its cursor
    /// checks, and compaction's snapshot.
    fn with_session_state<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut SquidSession<'static>) -> Result<T, SquidError>,
    ) -> Result<T, SquidError> {
        let entry = {
            let shard = recover_guard(self.shard(id).read());
            shard.get(&id).cloned()
        };
        let Some(entry) = entry else {
            return Err(SquidError::UnknownSession { id });
        };
        let now = self.now_ms();
        if let Some(ttl) = self.ttl {
            let cutoff = ttl.as_millis() as u64;
            if now.saturating_sub(entry.last_used_ms.load(Ordering::Relaxed)) > cutoff {
                // Re-check under the write lock: a concurrent caller may
                // have renewed the session between our read and now, and
                // evicting a just-renewed session would drop live state.
                let mut shard = recover_guard(self.shard(id).write());
                let still_stale = shard.get(&id).is_some_and(|e| {
                    now.saturating_sub(e.last_used_ms.load(Ordering::Relaxed)) > cutoff
                });
                if still_stale {
                    shard.remove(&id);
                }
                if still_stale || !shard.contains_key(&id) {
                    return Err(SquidError::UnknownSession { id });
                }
            }
        }
        entry.last_used_ms.store(now, Ordering::Relaxed);
        let result = {
            let mut session = match entry.session.lock() {
                Ok(guard) => guard,
                // This session's own mutex is poisoned: a previous turn
                // panicked mid-mutation, so its state may be half-applied
                // (unlike the registry shards, real work runs under this
                // lock). Evict it — siblings are untouched, and the caller
                // sees the same error as for an expired session.
                Err(_) => {
                    recover_guard(self.shard(id).write()).remove(&id);
                    return Err(SquidError::UnknownSession { id });
                }
            };
            f(&mut session)
        };
        // Stamp again after `f`: a long-running operation must not leave
        // the session looking idle for its whole duration (a sweep could
        // otherwise evict a session that is actively in use).
        entry.last_used_ms.store(self.now_ms(), Ordering::Relaxed);
        result
    }

    /// Close a session. Returns whether it existed. Journal write failures
    /// are swallowed into [`SessionManager::journal_write_errors`]; callers
    /// that must surface them (the serving frontend) use
    /// [`SessionManager::close_session`] instead.
    pub fn end_session(&self, id: SessionId) -> bool {
        match self.close_session(id) {
            Ok(()) => true,
            Err(SquidError::UnknownSession { .. }) => false,
            // The session is already gone; only the journal record failed.
            Err(_) => {
                self.journal_write_errors.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Close a session and journal the close, surfacing failures: an
    /// unknown id is [`SquidError::UnknownSession`], and a failed journal
    /// append (the session itself is still removed) propagates so the
    /// caller can report that durability was not achieved.
    pub fn close_session(&self, id: SessionId) -> Result<(), SquidError> {
        let existed = recover_guard(self.shard(id).write()).remove(&id).is_some();
        if !existed {
            return Err(SquidError::UnknownSession { id });
        }
        self.journal_append(id, 0, &SessionOp::End).map(|_| ())
    }

    /// Sweep every shard, removing sessions idle past the TTL. Returns the
    /// number evicted. No-op without a TTL.
    ///
    /// When sessions were evicted, the shared evaluation cache is aged one
    /// round ([`SharedFilterSetCache::decay`]): shared-cache LRU priority
    /// is touch-on-use only, so bitmaps a dead session published but
    /// nobody ever looked up lose their residency protection instead of
    /// staying pinned fleet-wide.
    pub fn evict_expired(&self) -> usize {
        let Some(ttl) = self.ttl else {
            return 0;
        };
        let cutoff_ms = ttl.as_millis() as u64;
        let now = self.now_ms();
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = recover_guard(shard.write());
            let before = shard.len();
            shard.retain(|_, e| {
                now.saturating_sub(e.last_used_ms.load(Ordering::Relaxed)) <= cutoff_ms
            });
            evicted += before - shard.len();
        }
        if evicted > 0 {
            self.shared_cache.decay();
        }
        evicted
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| recover_guard(s.read()).len())
            .sum()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is currently hosted (registry membership only; does
    /// not touch the idle clock or run TTL checks). Frontends use this to
    /// validate an id before allocating per-session serving state.
    pub fn contains_session(&self, id: SessionId) -> bool {
        recover_guard(self.shard(id).read()).contains_key(&id)
    }

    /// Ids of every live session, ascending. Operator tooling uses this
    /// after [`SessionManager::recover`] to resume the newest session.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|s| recover_guard(s.read()).keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    // -- durability ---------------------------------------------------------

    /// Attach an append-only journal: from now on `create_session`,
    /// `end_session`, and every [`SessionManager::apply_op`] mutation is
    /// recorded so a crashed fleet can be resurrected with
    /// [`SessionManager::recover`].
    pub fn attach_journal(&self, journal: Journal) {
        self.attach_journal_with_base(journal, 0);
    }

    /// Attach with a known base-record count (the recovery replay prefix
    /// or a compaction snapshot) so the auto-compaction trigger sees how
    /// much live state the file already encodes.
    fn attach_journal_with_base(&self, journal: Journal, base_records: u64) {
        *recover_guard(self.journal.lock()) = Some(JournalState {
            journal,
            base_records,
            tail_records: 0,
            compactions: 0,
            last_compaction: None,
            epoch: 0,
        });
    }

    /// Whether a journal is attached.
    pub fn has_journal(&self) -> bool {
        recover_guard(self.journal.lock()).is_some()
    }

    /// Flush (and under [`FsyncPolicy::Always`], sync) the journal.
    pub fn journal_sync(&self) -> Result<(), SquidError> {
        match recover_guard(self.journal.lock()).as_mut() {
            Some(state) => state.journal.sync(),
            None => Ok(()),
        }
    }

    /// Journal appends that failed: the infallible create/end paths plus
    /// turn appends that fail-stopped their session.
    pub fn journal_write_errors(&self) -> u64 {
        self.journal_write_errors.load(Ordering::Relaxed)
    }

    /// Journal health for the `stats`/`health` surfaces: file size, base
    /// vs tail record counts (replay debt), and compaction history.
    /// `None` when no journal is attached.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        recover_guard(self.journal.lock())
            .as_ref()
            .map(|state| JournalStats {
                path: state.journal.path().display().to_string(),
                bytes: state.journal.bytes(),
                base_records: state.base_records,
                tail_records: state.tail_records,
                compactions: state.compactions,
                last_compaction: state.last_compaction,
                epoch: state.epoch,
            })
    }

    /// Append one record; returns whether the auto-compaction threshold
    /// was crossed by this append.
    fn journal_append(&self, id: SessionId, seq: u64, op: &SessionOp) -> Result<bool, SquidError> {
        match recover_guard(self.journal.lock()).as_mut() {
            Some(state) => {
                state.journal.append(id, seq, op)?;
                state.tail_records += 1;
                Ok(self
                    .auto_compact
                    .is_some_and(|min| state.tail_records >= min.max(state.base_records)))
            }
            None => Ok(false),
        }
    }

    /// Run the auto-compaction a threshold-crossing append asked for. The
    /// triggering turn already succeeded and is durable, so a compaction
    /// failure must not fail it — the old journal is intact (compaction is
    /// temp+rename), and the error is counted like other best-effort
    /// journal maintenance failures.
    fn autocompact(&self) {
        if self.compact_journal().is_err() {
            self.journal_write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Apply one session-mutating operation *and* journal it. The
    /// operation, the journal append, and the sequence-cursor advance all
    /// happen under the session's mutex, so journal append order always
    /// matches sequence order even when several connections drive the
    /// same session (sessions are not connection-bound) — the invariant
    /// that makes [`SessionManager::recover`]'s cursor-based dedupe safe.
    /// The record is appended only after the operation succeeds (mutators
    /// are rollback-on-error), so the journal always holds exactly the
    /// successful history — replaying it is deterministic.
    ///
    /// If the operation succeeds but the append fails, the turn is *not*
    /// acknowledged: the cursor stays put, the error propagates, and the
    /// session is fail-stopped (evicted) — its in-memory state now holds
    /// a mutation the journal does not, and serving it would let live
    /// state silently diverge from what recovery can rebuild. Later turns
    /// see [`SquidError::UnknownSession`]. An op too large for one journal
    /// record is refused before it applies
    /// ([`SquidError::RecordTooLarge`]): the session, its cursor and the
    /// journal are untouched, and the session keeps serving.
    ///
    /// Lifecycle ops are not applicable here: use
    /// [`SessionManager::create_session`] / [`SessionManager::end_session`],
    /// which journal themselves.
    pub fn apply_op(
        &self,
        id: SessionId,
        op: &SessionOp,
    ) -> Result<Option<DiscoveryDelta>, SquidError> {
        match self.sequenced_apply(id, None, op)? {
            SeqOutcome::Applied(delta) => Ok(delta),
            SeqOutcome::Duplicate => unreachable!("unsequenced ops are never duplicates"),
        }
    }

    /// Apply a client-sequenced mutation exactly once. `seq` is the
    /// client's per-session turn number (1-based, contiguous): at or below
    /// the session's cursor the turn was already applied — a retry of an
    /// acknowledged request — and is reported as
    /// [`SeqOutcome::Duplicate`] without re-running anything; exactly
    /// `cursor + 1` applies and journals like
    /// [`SessionManager::apply_op`] (same atomicity and append-failure
    /// semantics); anything further ahead is a
    /// [`SquidError::SequenceGap`] (the client claims turns the server
    /// never saw).
    pub fn apply_op_at(
        &self,
        id: SessionId,
        seq: u64,
        op: &SessionOp,
    ) -> Result<SeqOutcome, SquidError> {
        self.sequenced_apply(id, Some(seq), op)
    }

    /// The shared apply path: run the op, journal it, and advance the
    /// cursor atomically under the session mutex (see
    /// [`SessionManager::apply_op`]). Lock order is session → journal,
    /// everywhere — [`SessionManager::compact_journal`] is built around
    /// the same rule.
    fn sequenced_apply(
        &self,
        id: SessionId,
        seq: Option<u64>,
        op: &SessionOp,
    ) -> Result<SeqOutcome, SquidError> {
        enum Step {
            Applied(Option<DiscoveryDelta>, bool),
            Duplicate,
        }
        let mut durability_lost = false;
        let step = self.with_session(id, |s| {
            let cur = s.op_seq();
            let next = match seq {
                None => cur + 1,
                Some(seq) if seq <= cur => return Ok(Step::Duplicate),
                Some(seq) if seq != cur + 1 => {
                    return Err(SquidError::SequenceGap {
                        id,
                        expected: cur + 1,
                        got: seq,
                    })
                }
                Some(seq) => seq,
            };
            // Refused before it applies: a record recovery cannot read
            // back would be acknowledged and then lost.
            op.check_record_size()?;
            let delta = op.apply(s)?;
            match self.journal_append(id, next, op) {
                Ok(compact) => {
                    // Advance only once the record is durable: a failed
                    // append must leave the cursor where the journal is,
                    // or a client reusing this turn number would be
                    // absorbed as a duplicate of a turn that never
                    // happened.
                    s.advance_op_seq(next);
                    Ok(Step::Applied(delta, compact))
                }
                Err(e) => {
                    durability_lost = true;
                    Err(e)
                }
            }
        });
        if durability_lost {
            // The op mutated in-memory state the journal never saw;
            // fail-stop the session rather than serve state recovery
            // cannot rebuild.
            recover_guard(self.shard(id).write()).remove(&id);
            self.journal_write_errors.fetch_add(1, Ordering::Relaxed);
        }
        match step? {
            Step::Duplicate => Ok(SeqOutcome::Duplicate),
            Step::Applied(delta, compact) => {
                if compact {
                    self.autocompact();
                }
                Ok(SeqOutcome::Applied(delta))
            }
        }
    }

    /// Rewrite the journal as a snapshot of the live sessions, discarding
    /// replayed-over history (removed examples, ended sessions, superseded
    /// targets) so recovery time is bounded by live state, not by session
    /// age. Crash-safe: the snapshot is written to a temp file, fsynced,
    /// and renamed over the old journal — a crash mid-compaction recovers
    /// from whichever complete file the rename left behind.
    ///
    /// Concurrency: lock order everywhere is session → journal (appends
    /// run under the session mutex), so the snapshot is collected *before*
    /// taking the journal lock — taking session locks under it would
    /// deadlock against in-flight turns. Anything a session journals
    /// after its snapshot but before the rewrite sits only in the old
    /// file; the rewrite rescans that file and carries forward every
    /// record the snapshot does not cover (sequence numbers above the
    /// snapshotted cursor, plus lifecycle records of sessions born or
    /// ended since), so a racing mutation is never dropped. Replay's
    /// cursor dedupe makes any overlap harmless — see the journal module
    /// docs.
    ///
    /// Returns `None` when no journal is attached.
    pub fn compact_journal(&self) -> Result<Option<CompactStats>, SquidError> {
        // One compaction at a time: two racing compactors could otherwise
        // rewrite the file from the staler of two snapshots, and the
        // carry-forward scan below would judge records against cursors
        // that undercount the other snapshot's state.
        let _compacting = recover_guard(self.compact_lock.lock());
        if !self.has_journal() {
            return Ok(None);
        }
        // Phase 1 — snapshot live sessions, journal lock not held.
        let mut live: Vec<(SessionId, u64, Vec<SessionOp>)> = Vec::new();
        for id in self.session_ids() {
            // A session closed/evicted between the listing and the lock is
            // simply not live anymore; skip it.
            if let Ok(snap) = self.with_session_state(id, |s| Ok((s.op_seq(), s.state_ops()))) {
                live.push((id, snap.0, snap.1));
            }
        }
        // Phase 2 — rewrite under the journal lock (appends block until
        // the swap completes, then land in the new file).
        let mut guard = recover_guard(self.journal.lock());
        let Some(state) = guard.as_mut() else {
            return Ok(None);
        };
        // Buffered records must be visible to the carry-forward scan.
        state.journal.sync()?;
        let path = state.journal.path().to_path_buf();
        let policy = state.journal.policy();
        let cursors: FxHashMap<SessionId, u64> =
            live.iter().map(|(id, cur, _)| (*id, *cur)).collect();
        let mut tail: Vec<(SessionId, u64, SessionOp)> = Vec::new();
        for (sid, seq, op) in journal::read_journal(&path)?.records {
            let keep = match cursors.get(&sid) {
                // Snapshotted session: its Create and everything at or
                // below the snapshot cursor is subsumed by the snapshot
                // (seq-0 records are a previous compaction's state ops);
                // an End means it died after its snapshot was taken and
                // must still die on replay.
                Some(&cursor) => match op {
                    SessionOp::Create => false,
                    SessionOp::End => true,
                    _ => seq != 0 && seq > cursor,
                },
                // Not snapshotted: either created after phase 1 (still
                // hosted — keep its whole history) or dead (drop its
                // history entirely; that is what compaction is for).
                None => recover_guard(self.shard(sid).read()).contains_key(&sid),
            };
            if keep {
                tail.push((sid, seq, op));
            }
        }
        let (journal, stats) = Journal::compact(&path, &live, &tail, policy)?;
        state.journal = journal;
        state.base_records = stats.records_written;
        state.tail_records = 0;
        state.compactions += 1;
        state.last_compaction = Some(stats);
        // The rename above and this bump happen under the same journal
        // lock, so a reader that samples the epoch (under the lock, via
        // `journal_stats`) before and after an offset-based file read can
        // tell whether the file could have been swapped mid-read.
        state.epoch += 1;
        Ok(Some(stats))
    }

    /// Rebuild session state by replaying the journal at `path`, then
    /// truncate any torn/corrupt tail and attach the journal for further
    /// appends. Call on a freshly-constructed manager. A replayed id that
    /// is already hosted is not blindly overwritten: it follows
    /// [`SessionManager::apply_replicated`]'s cursor rules, which skip what
    /// the hosted cursor covers and reinstall the session only from a
    /// snapshot section that is ahead of it.
    ///
    /// Replay is [`SessionManager::apply_replicated`] over the file's
    /// valid records — one replay rule for recovery and replication. No
    /// journal is attached yet, so nothing replayed is re-journaled.
    /// `Create`/`End` records drive session lifecycle under their original
    /// ids; every other record applies its op to the session's *state*
    /// only (examples, target, pins, bans, choices), with no discovery.
    /// Recovery then refreshes each live session once, which reproduces
    /// the exact pre-crash discovery because mutators are deterministic and
    /// only successful operations were journaled. Sessions ended later in
    /// the journal never run discovery at all.
    ///
    /// Recovery salvages everything salvageable instead of failing
    /// outright. A record whose op names nothing the session holds is
    /// skipped. A session whose final refresh fails (the αDB changed under
    /// the journal) is rebuilt from its [`SquidSession::state_ops`]
    /// through the live apply path, skipping the ops that fail there. Both
    /// kinds are counted in [`RecoverStats::records_failed`].
    pub fn recover(
        &self,
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<RecoverStats, SquidError> {
        let path = path.as_ref();
        let replay = journal::read_journal(path)?;
        let applied = self.apply_replicated(&replay.records);
        // Replay staged state only: run discovery once per live session.
        let salvage_failed: u64 = self
            .session_ids()
            .into_iter()
            .map(|id| self.with_session_state(id, |s| Ok(s.settle())).unwrap_or(0))
            .sum();
        // Drop the damaged tail on disk before appending after it, so the
        // journal never contains valid records behind a corrupt region.
        journal::truncate_to_valid(path, replay.bytes_valid)?;
        self.attach_journal_with_base(Journal::open(path, policy)?, replay.records.len() as u64);
        let stats = RecoverStats {
            sessions_replayed: (applied.sessions_installed + applied.sessions_reinstalled) as usize,
            records_applied: applied.records_applied,
            records_failed: applied.records_failed + salvage_failed,
            records_skipped: applied.records_skipped,
            bytes_truncated: replay.bytes_truncated,
            live_sessions: self.len(),
        };
        *recover_guard(self.recover_stats.lock()) = Some(stats);
        Ok(stats)
    }

    /// What the last [`SessionManager::recover`] call on this manager did,
    /// if any — surfaced by operator tooling (the REPL `stats` command).
    pub fn recover_stats(&self) -> Option<RecoverStats> {
        *recover_guard(self.recover_stats.lock())
    }

    /// Replay records shipped off another node's journal onto this *live*
    /// manager — the replication standby's apply path, and (over a
    /// journal file) [`SessionManager::recover`]'s. Each record applies
    /// its op to the session's state only and marks the session stale;
    /// discovery runs once, when the session is next read through
    /// [`SessionManager::with_session`] (or, for recovery, at its end).
    /// A standby therefore pays for abduction only on the sessions it
    /// serves, and a promoted standby's first turn sees the discovery the
    /// primary held.
    ///
    /// A record whose sequence number a session's cursor already covers
    /// is skipped (replay is idempotent), and so is a duplicate `Create`
    /// for a session whose cursor is at least the record's. Mid-stream
    /// re-snapshots get one more rule: when the primary compacts,
    /// the stream restarts with the full compacted journal, whose
    /// snapshot sections (a `Create` carrying the session cursor followed
    /// by seq-0 state ops) describe sessions this manager may already
    /// host. A snapshot section for a session whose cursor we have
    /// already reached is skipped wholesale (re-applying its seq-0 state
    /// ops would double state); a section *ahead* of us (we lagged across
    /// the compaction, so the ops between our cursor and the snapshot's
    /// were compacted away) replaces our stale copy by reinstalling the
    /// session from the snapshot.
    ///
    /// Applied records are appended to this manager's own journal (when
    /// one is attached) under the usual cursor discipline, so a promoted
    /// standby is durably journaled from its first turn as primary.
    pub fn apply_replicated(&self, records: &[(SessionId, u64, SessionOp)]) -> ReplicatedStats {
        let mut stats = ReplicatedStats::default();
        let mut snapshot_skip: std::collections::HashSet<SessionId> =
            std::collections::HashSet::new();
        let mut max_id = 0;
        let mut compact = false;
        let mut journal_applied = |mgr: &SessionManager, sid, seq, op: &SessionOp| match mgr
            .journal_append(sid, seq, op)
        {
            Ok(hit) => compact |= hit,
            Err(_) => {
                mgr.journal_write_errors.fetch_add(1, Ordering::Relaxed);
            }
        };
        for (sid, seq, op) in records {
            max_id = max_id.max(*sid);
            match op {
                SessionOp::Create => {
                    let have = self.with_session_state(*sid, |s| Ok(s.op_seq())).ok();
                    match have {
                        // Our replica already covers this snapshot (or it
                        // is a duplicate live create): keep our state and
                        // ignore the section's seq-0 state ops.
                        Some(cursor) if cursor >= *seq => {
                            snapshot_skip.insert(*sid);
                            stats.records_skipped += 1;
                        }
                        // We fell behind across a compaction: the ops
                        // between our cursor and the snapshot's are gone
                        // from the stream, so rebuild from the snapshot.
                        Some(_) => {
                            recover_guard(self.shard(*sid).write()).remove(sid);
                            self.install_session(*sid, self.params.clone());
                            let _ = self.with_session_state(*sid, |s| {
                                s.advance_op_seq(*seq);
                                Ok(())
                            });
                            snapshot_skip.remove(sid);
                            journal_applied(self, *sid, *seq, op);
                            stats.sessions_reinstalled += 1;
                            stats.records_applied += 1;
                        }
                        None => {
                            self.install_session(*sid, self.params.clone());
                            let _ = self.with_session_state(*sid, |s| {
                                s.advance_op_seq(*seq);
                                Ok(())
                            });
                            snapshot_skip.remove(sid);
                            journal_applied(self, *sid, *seq, op);
                            stats.sessions_installed += 1;
                            stats.records_applied += 1;
                        }
                    }
                }
                SessionOp::End => {
                    recover_guard(self.shard(*sid).write()).remove(sid);
                    journal_applied(self, *sid, 0, op);
                    stats.sessions_ended += 1;
                    stats.records_applied += 1;
                }
                _ if *seq == 0 && snapshot_skip.contains(sid) => {
                    stats.records_skipped += 1;
                }
                _ => match self.with_session_state(*sid, |s| {
                    if *seq != 0 && *seq <= s.op_seq() {
                        return Ok(false);
                    }
                    s.replay(op)?;
                    s.advance_op_seq(*seq);
                    Ok(true)
                }) {
                    Ok(true) => {
                        journal_applied(self, *sid, *seq, op);
                        stats.records_applied += 1;
                    }
                    Ok(false) => stats.records_skipped += 1,
                    Err(_) => stats.records_failed += 1,
                },
            }
        }
        // A promoted standby must hand out ids the old primary never used.
        self.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
        if compact {
            self.autocompact();
        }
        stats
    }

    /// Drop every hosted session whose id is not in `keep` — the standby's
    /// zombie sweep when a re-snapshot arrives: a session absent from the
    /// primary's full journal no longer exists there (its `End` raced a
    /// compaction that erased its history), so a replica holding it would
    /// serve stale reads forever. Returns how many sessions were dropped.
    pub fn retain_sessions(&self, keep: &std::collections::HashSet<SessionId>) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = recover_guard(shard.write());
            let before = shard.len();
            shard.retain(|id, _| keep.contains(id));
            dropped += before - shard.len();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squid::Squid;
    use squid_adb::test_fixtures::mini_imdb;

    fn manager() -> SessionManager {
        SessionManager::new(Arc::new(ADb::build(&mini_imdb()).unwrap()))
    }

    #[test]
    fn sessions_are_isolated() {
        let m = manager();
        let a = m.create_session();
        let b = m.create_session();
        m.with_session(a, |s| s.add_example("Jim Carrey")).unwrap();
        m.with_session(b, |s| s.add_example("Julia Roberts"))
            .unwrap();
        let ea = m.with_session(a, |s| Ok(s.examples().join(","))).unwrap();
        let eb = m.with_session(b, |s| Ok(s.examples().join(","))).unwrap();
        assert_eq!(ea, "Jim Carrey");
        assert_eq!(eb, "Julia Roberts");
        assert_eq!(m.len(), 2);
        assert!(m.end_session(a));
        assert!(!m.end_session(a));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unknown_session_errors() {
        let m = manager();
        let err = m.with_session(42, |_| Ok(())).unwrap_err();
        assert!(matches!(err, SquidError::UnknownSession { id: 42 }));
    }

    #[test]
    fn session_count_and_active_ids_track_the_fleet() {
        // What `stats` reports as `sessions` and `active_ids`.
        let m = manager();
        assert_eq!(m.len(), 0);
        assert!(m.session_ids().is_empty());
        let a = m.create_session();
        let b = m.create_session();
        let c = m.create_session();
        assert_eq!(m.len(), 3);
        assert_eq!(m.session_ids(), vec![a, b, c]);
        m.close_session(b).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.session_ids(), vec![a, c]);
    }

    #[test]
    fn close_session_journals_the_close() {
        let dir = std::env::temp_dir().join(format!(
            "squid-close-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.journal");
        let _ = std::fs::remove_file(&path);

        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let m = SessionManager::new(Arc::clone(&adb));
        m.attach_journal(Journal::open(&path, FsyncPolicy::Always).unwrap());
        let a = m.create_session();
        let b = m.create_session();
        m.apply_op(a, &SessionOp::AddExample("Jim Carrey".into()))
            .unwrap();
        m.close_session(a).unwrap();
        let err = m.close_session(a).unwrap_err();
        assert!(matches!(err, SquidError::UnknownSession { .. }));
        m.journal_sync().unwrap();

        // A recovered fleet must see the close: only `b` comes back.
        let m2 = SessionManager::new(adb);
        let st = m2.recover(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(st.live_sessions, 1);
        assert_eq!(m2.session_ids(), vec![b]);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn ttl_evicts_idle_sessions() {
        let m = manager().with_ttl(Duration::from_millis(0));
        let id = m.create_session();
        assert_eq!(m.len(), 1);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.evict_expired(), 1);
        assert!(m.is_empty());
        let id2 = m.create_session();
        std::thread::sleep(Duration::from_millis(5));
        // Lazy eviction on access reports the session as unknown.
        let err = m.with_session(id2, |_| Ok(())).unwrap_err();
        assert!(matches!(err, SquidError::UnknownSession { .. }));
        assert!(m.is_empty());
        let _ = id;
    }

    #[test]
    fn shared_cache_warms_across_sessions() {
        let m = manager();
        let slate = ["Jim Carrey", "Eddie Murphy"];
        let a = m.create_session();
        m.with_session(a, |s| {
            for e in slate {
                s.add_example(e)?;
            }
            Ok(())
        })
        .unwrap();
        m.end_session(a);
        let published = m.shared_cache_stats().expect("shared cache on");
        assert!(published.entries > 0, "session A published bitmaps");

        // A brand-new session replaying the same turns is served from the
        // fleet's cache: it computes nothing the fleet already knows.
        let b = m.create_session();
        let stats = m
            .with_session(b, |s| {
                for e in slate {
                    s.add_example(e)?;
                }
                Ok(s.cache_stats())
            })
            .unwrap();
        assert!(
            stats.hits > 0 && stats.misses == 0,
            "cross-session turns must hit the shared cache: {stats:?}"
        );
        let shared = m.shared_cache_stats().unwrap();
        assert!(shared.hits >= stats.hits);
        assert!(shared.resident_bytes <= shared.max_resident_bytes);
    }

    #[test]
    fn ttl_sweep_decays_but_keeps_shared_entries() {
        let m = manager().with_ttl(Duration::from_millis(0));
        let id = m.create_session();
        m.with_session(id, |s| {
            s.add_example("Jim Carrey")?;
            s.add_example("Eddie Murphy")?;
            Ok(())
        })
        .unwrap();
        let before = m.shared_cache_stats().unwrap();
        assert!(before.entries > 0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.evict_expired(), 1);
        // Decay drops LRU priority, not residency: entries stay resident
        // (they evict first only once the byte budget tightens).
        let after = m.shared_cache_stats().unwrap();
        assert_eq!(after.entries, before.entries);
    }

    #[test]
    fn panicked_session_is_evicted_and_siblings_survive() {
        let m = manager();
        let doomed = m.create_session();
        let sibling = m.create_session();
        m.with_session(sibling, |s| s.add_example("Jim Carrey"))
            .unwrap();
        // A turn that panics mid-operation poisons only its own session.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), _> = m.with_session(doomed, |s| {
                s.add_example("Eddie Murphy")?;
                panic!("injected turn panic");
            });
        }));
        assert!(panicked.is_err());
        // The sibling keeps working, through the same shard registry.
        let examples = m
            .with_session(sibling, |s| Ok(s.examples().join(",")))
            .unwrap();
        assert_eq!(examples, "Jim Carrey");
        // The poisoned session is evicted on next touch, like an expired one.
        let err = m.with_session(doomed, |_| Ok(())).unwrap_err();
        assert!(matches!(err, SquidError::UnknownSession { .. }));
        // And new sessions can still be created afterwards.
        let fresh = m.create_session();
        m.with_session(fresh, |s| s.add_example("Julia Roberts"))
            .unwrap();
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("squid_manager_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn recover_replays_journaled_sessions_bit_identical() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("recover.journal");
        std::fs::remove_file(&path).ok();

        // Fleet A: journaling on, two sessions, one ended.
        let a = SessionManager::new(Arc::clone(&adb));
        a.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s1 = a.create_session();
        let s2 = a.create_session();
        a.apply_op(s1, &SessionOp::AddExample("Jim Carrey".into()))
            .unwrap();
        a.apply_op(s1, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap();
        a.apply_op(s1, &SessionOp::PinFilter("person:gender".into()))
            .ok();
        a.apply_op(s2, &SessionOp::AddExample("Julia Roberts".into()))
            .unwrap();
        a.end_session(s2);
        let sql_before = a
            .with_session(s1, |s| Ok(s.discovery().unwrap().sql()))
            .unwrap();
        let examples_before = a.with_session(s1, |s| Ok(s.examples().join("|"))).unwrap();
        drop(a); // "crash": the manager is gone, only the journal survives

        // Fleet B: fresh manager over the same αDB, recovered from disk.
        let b = SessionManager::new(Arc::clone(&adb));
        let stats = b.recover(&path, FsyncPolicy::Flush).unwrap();
        assert_eq!(stats.sessions_replayed, 2);
        assert_eq!(stats.live_sessions, 1, "s2 was ended before the crash");
        assert_eq!(stats.bytes_truncated, 0);
        assert_eq!(b.recover_stats(), Some(stats));
        // The summary every front end prints (CI greps its first word).
        let summary = stats.to_string();
        assert!(summary.starts_with("replayed 2 session(s), "), "{summary}");
        assert!(summary.ends_with(" 1 live"), "{summary}");
        let sql_after = b
            .with_session(s1, |s| Ok(s.discovery().unwrap().sql()))
            .unwrap();
        let examples_after = b.with_session(s1, |s| Ok(s.examples().join("|"))).unwrap();
        assert_eq!(
            sql_before, sql_after,
            "recovered discovery is bit-identical"
        );
        assert_eq!(examples_before, examples_after);
        assert!(matches!(
            b.with_session(s2, |_| Ok(())),
            Err(SquidError::UnknownSession { .. })
        ));
        // New ids never collide with replayed ones.
        let s3 = b.create_session();
        assert!(s3 > s2.max(s1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_truncates_torn_tail_and_continues() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("torn_recover.journal");
        std::fs::remove_file(&path).ok();
        let a = SessionManager::new(Arc::clone(&adb));
        a.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s1 = a.create_session();
        a.apply_op(s1, &SessionOp::AddExample("Jim Carrey".into()))
            .unwrap();
        a.apply_op(s1, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap();
        drop(a);
        // Tear the file mid-record: drop the last 5 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let b = SessionManager::new(Arc::clone(&adb));
        let stats = b.recover(&path, FsyncPolicy::Flush).unwrap();
        assert!(stats.bytes_truncated > 0);
        // The prefix state: session exists with the first example only.
        let examples = b.with_session(s1, |s| Ok(s.examples().join("|"))).unwrap();
        assert_eq!(examples, "Jim Carrey");
        // The tail is gone on disk, and appends continue cleanly.
        b.apply_op(s1, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap();
        drop(b);
        let replay = crate::journal::read_journal(&path).unwrap();
        assert_eq!(replay.bytes_truncated, 0, "tail truncated before reopen");
        std::fs::remove_file(&path).ok();
    }

    /// A turn whose journal record would exceed the record limit is
    /// refused, not acknowledged: recovery stops reading at such a record,
    /// so journaling it would lose it and every turn after it. The session
    /// keeps serving, and recovery rebuilds exactly the live state.
    #[test]
    fn oversized_turn_is_refused_and_later_turns_survive_recovery() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("oversized.journal");
        std::fs::remove_file(&path).ok();
        let a = SessionManager::new(Arc::clone(&adb));
        a.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s1 = a.create_session();
        for e in ["Jim Carrey", "Eddie Murphy"] {
            a.apply_op(s1, &SessionOp::AddExample(e.into())).unwrap();
        }
        let huge = SessionOp::PinFilter("x".repeat((1 << 20) + 1));
        let err = a.apply_op(s1, &huge).unwrap_err();
        assert!(matches!(err, SquidError::RecordTooLarge { .. }), "{err:?}");
        a.apply_op(s1, &SessionOp::PinFilter("gender".into()))
            .unwrap();
        let live = a
            .with_session(s1, |s| Ok((s.op_seq(), s.discovery().unwrap().sql())))
            .unwrap();
        assert_eq!(live.0, 3, "the refused turn did not advance the cursor");
        a.journal_sync().unwrap();

        let b = SessionManager::new(Arc::clone(&adb));
        let stats = b.recover(&path, FsyncPolicy::Flush).unwrap();
        assert_eq!(stats.bytes_truncated, 0);
        let recovered = b
            .with_session(s1, |s| Ok((s.op_seq(), s.discovery().unwrap().sql())))
            .unwrap();
        assert_eq!(recovered, live);
        std::fs::remove_file(&path).ok();
    }

    /// `mini_imdb` with one person renamed: an αDB built from it no longer
    /// resolves journaled examples of that person.
    fn mini_imdb_renamed(from: &str, to: &str) -> squid_relation::Database {
        use squid_relation::{Table, Value};
        let db = mini_imdb();
        let mut renamed = squid_relation::Database::new();
        renamed.meta = db.meta.clone();
        for table in db.tables() {
            let mut copy = Table::new(table.schema().clone());
            for (_, row) in table.iter() {
                let row = row
                    .iter()
                    .map(|v| {
                        if *v == Value::text(from) {
                            Value::text(to)
                        } else {
                            *v
                        }
                    })
                    .collect();
                copy.insert(row).unwrap();
            }
            renamed.add_table(copy).unwrap();
        }
        renamed
    }

    /// Recovery against an αDB that changed under the journal salvages
    /// what still resolves: the final refresh of the damaged session fails,
    /// so it is rebuilt from its state ops with the failing one skipped and
    /// counted, while the untouched session recovers bit-identical.
    #[test]
    fn recover_salvages_sessions_the_changed_adb_breaks() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("salvage.journal");
        std::fs::remove_file(&path).ok();
        let a = SessionManager::new(Arc::clone(&adb));
        a.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let damaged = a.create_session();
        let intact = a.create_session();
        for e in ["Jim Carrey", "Eddie Murphy", "Robin Williams"] {
            a.apply_op(damaged, &SessionOp::AddExample(e.into()))
                .unwrap();
        }
        a.apply_op(damaged, &SessionOp::PinFilter("person:gender".into()))
            .unwrap();
        for e in ["Sylvester Stallone", "Arnold Schwarzenegger"] {
            a.apply_op(intact, &SessionOp::AddExample(e.into()))
                .unwrap();
        }
        let state = |m: &SessionManager, id| {
            m.with_session(id, |s| {
                let d = s.discovery().unwrap();
                Ok((
                    s.op_seq(),
                    s.examples().join("|"),
                    s.pinned().to_vec(),
                    d.sql(),
                    d.rows.iter().collect::<Vec<_>>(),
                ))
            })
            .unwrap()
        };
        let live_intact = state(&a, intact);
        let live_damaged = state(&a, damaged);
        a.journal_sync().unwrap();
        drop(a);

        let changed =
            Arc::new(ADb::build(&mini_imdb_renamed("Eddie Murphy", "Edward Murphy")).unwrap());
        let b = SessionManager::new(changed);
        let stats = b.recover(&path, FsyncPolicy::Flush).unwrap();
        assert!(stats.records_failed >= 1, "{stats:?}");
        assert_eq!(stats.live_sessions, 2);
        assert_eq!(state(&b, intact), live_intact);
        let (seq, examples, pinned, _, _) = state(&b, damaged);
        assert_eq!(examples, "Jim Carrey|Robin Williams");
        assert_eq!(pinned, live_damaged.2);
        assert_eq!(seq, live_damaged.0, "the salvaged session keeps its cursor");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_journal() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("compact.journal");
        std::fs::remove_file(&path).ok();

        let a = SessionManager::new(Arc::clone(&adb));
        a.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s1 = a.create_session();
        // Churn: adds and removes whose history dwarfs the live state.
        for _ in 0..10 {
            a.apply_op(s1, &SessionOp::AddExample("Julia Roberts".into()))
                .unwrap();
            a.apply_op(s1, &SessionOp::RemoveExample("Julia Roberts".into()))
                .unwrap();
        }
        a.apply_op(s1, &SessionOp::AddExample("Jim Carrey".into()))
            .unwrap();
        a.apply_op(s1, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap();
        let dead = a.create_session();
        a.end_session(dead);
        let sql_before = a
            .with_session(s1, |s| Ok(s.discovery().unwrap().sql()))
            .unwrap();
        let cursor_before = a.with_session(s1, |s| Ok(s.op_seq())).unwrap();

        let stats = a.compact_journal().unwrap().expect("journal attached");
        assert_eq!(stats.sessions, 1, "only the live session is snapshotted");
        assert!(
            stats.bytes_after < stats.bytes_before,
            "churn history must be discarded: {stats:?}"
        );
        let jstats = a.journal_stats().unwrap();
        assert_eq!(jstats.compactions, 1);
        assert_eq!(jstats.tail_records, 0);
        assert_eq!(jstats.last_compaction, Some(stats));

        // The cursor survives compaction, so client retries of
        // pre-compaction turns still dedupe.
        assert_eq!(
            a.with_session(s1, |s| Ok(s.op_seq())).unwrap(),
            cursor_before
        );

        // Appends continue into the compacted journal...
        let pinned = a
            .apply_op(s1, &SessionOp::PinFilter("person:gender".into()))
            .is_ok();
        let sql_live = a
            .with_session(s1, |s| Ok(s.discovery().unwrap().sql()))
            .unwrap();
        a.journal_sync().unwrap();
        drop(a);

        // ...and recovery from the compacted journal is diff-identical.
        let b = SessionManager::new(Arc::clone(&adb));
        let rstats = b.recover(&path, FsyncPolicy::Flush).unwrap();
        assert_eq!(rstats.live_sessions, 1);
        assert_eq!(rstats.records_failed, 0);
        let sql_after = b
            .with_session(s1, |s| Ok(s.discovery().unwrap().sql()))
            .unwrap();
        assert_eq!(sql_after, sql_live);
        assert_eq!(
            b.with_session(s1, |s| Ok(s.op_seq())).unwrap(),
            cursor_before + u64::from(pinned)
        );
        let _ = sql_before;
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequenced_ops_dedupe_retries_and_reject_gaps() {
        let m = manager();
        let id = m.create_session();
        let op = SessionOp::AddExample("Jim Carrey".into());
        assert!(matches!(
            m.apply_op_at(id, 1, &op).unwrap(),
            SeqOutcome::Applied(_)
        ));
        // A retry of an acknowledged turn is absorbed, not re-applied.
        assert!(matches!(
            m.apply_op_at(id, 1, &op).unwrap(),
            SeqOutcome::Duplicate
        ));
        let examples = m.with_session(id, |s| Ok(s.examples().len())).unwrap();
        assert_eq!(examples, 1, "duplicate must not add the example twice");
        // Skipping ahead claims turns the server never saw.
        let err = m
            .apply_op_at(id, 5, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap_err();
        assert!(matches!(
            err,
            SquidError::SequenceGap {
                expected: 2,
                got: 5,
                ..
            }
        ));
        // Unsequenced and sequenced ops share one cursor.
        m.apply_op(id, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap();
        assert!(matches!(
            m.apply_op_at(id, 3, &SessionOp::AddExample("Robin Williams".into()))
                .unwrap(),
            SeqOutcome::Applied(_)
        ));
        assert_eq!(m.with_session(id, |s| Ok(s.op_seq())).unwrap(), 3);
    }

    #[test]
    fn concurrent_turns_on_one_session_journal_in_seq_order() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("seq_order.journal");
        std::fs::remove_file(&path).ok();
        let m = SessionManager::new(adb);
        m.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let id = m.create_session();
        // Four connections drive the same session (sessions are not
        // connection-bound); each thread churns its own example so every
        // op succeeds regardless of interleaving.
        let names = [
            "Jim Carrey",
            "Eddie Murphy",
            "Julia Roberts",
            "Robin Williams",
        ];
        std::thread::scope(|scope| {
            for name in names {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..10 {
                        m.apply_op(id, &SessionOp::AddExample(name.into())).unwrap();
                        m.apply_op(id, &SessionOp::RemoveExample(name.into()))
                            .unwrap();
                    }
                });
            }
        });
        m.journal_sync().unwrap();
        // The journal must hold the session's turns in exactly cursor
        // order: recovery replays in append order and skips any seq at or
        // below the cursor, so an out-of-order append would silently drop
        // an acknowledged, fsynced turn.
        let seqs: Vec<u64> = crate::journal::read_journal(&path)
            .unwrap()
            .records
            .into_iter()
            .filter(|(sid, seq, _)| *sid == id && *seq != 0)
            .map(|(_, seq, _)| seq)
            .collect();
        let expected: Vec<u64> = (1..=seqs.len() as u64).collect();
        assert_eq!(seqs, expected, "journal order must match seq order");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_racing_appends_loses_nothing() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("compact_race.journal");
        std::fs::remove_file(&path).ok();
        let m = SessionManager::new(Arc::clone(&adb));
        m.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let names = ["Jim Carrey", "Eddie Murphy", "Julia Roberts"];
        let ids: Vec<SessionId> = names.iter().map(|_| m.create_session()).collect();
        std::thread::scope(|scope| {
            for (idx, name) in names.iter().enumerate() {
                let m = &m;
                let id = ids[idx];
                scope.spawn(move || {
                    for k in 0..30 {
                        let op = if k % 2 == 0 {
                            SessionOp::AddExample((*name).into())
                        } else {
                            SessionOp::RemoveExample((*name).into())
                        };
                        m.apply_op(id, &op).unwrap();
                    }
                });
            }
            // Compact repeatedly while the turns are in flight: records
            // appended between a session's snapshot and the rewrite must
            // be carried forward, never dropped.
            let m = &m;
            scope.spawn(move || {
                for _ in 0..10 {
                    m.compact_journal().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        m.journal_sync().unwrap();
        let live: Vec<(u64, String, Option<String>)> = ids
            .iter()
            .map(|&id| {
                m.with_session(id, |s| {
                    Ok((
                        s.op_seq(),
                        s.examples().join("|"),
                        s.discovery().map(|d| d.sql()),
                    ))
                })
                .unwrap()
            })
            .collect();
        drop(m);
        let recovered = SessionManager::new(adb);
        recovered.recover(&path, FsyncPolicy::Flush).unwrap();
        let after: Vec<(u64, String, Option<String>)> = ids
            .iter()
            .map(|&id| {
                recovered
                    .with_session(id, |s| {
                        Ok((
                            s.op_seq(),
                            s.examples().join("|"),
                            s.discovery().map(|d| d.sql()),
                        ))
                    })
                    .unwrap()
            })
            .collect();
        assert_eq!(live, after, "recovery diverged from the live fleet");
        std::fs::remove_file(&path).ok();
    }

    /// `/dev/full` makes every flush fail with ENOSPC: the turn must be
    /// refused (not acknowledged) and the session fail-stopped, so its
    /// unjournaled in-memory mutation can never be served.
    #[cfg(target_os = "linux")]
    #[test]
    fn journal_append_failure_fail_stops_the_session() {
        let m = manager();
        let id = m.create_session();
        m.attach_journal(Journal::open("/dev/full", FsyncPolicy::Flush).unwrap());
        let err = m
            .apply_op(id, &SessionOp::AddExample("Jim Carrey".into()))
            .unwrap_err();
        assert!(matches!(err, SquidError::Io(_)), "unexpected: {err}");
        assert!(m.journal_write_errors() >= 1);
        assert!(
            matches!(
                m.with_session(id, |_| Ok(())),
                Err(SquidError::UnknownSession { .. })
            ),
            "a session whose durability failed must be evicted"
        );
    }

    #[test]
    fn auto_compaction_triggers_when_the_tail_dwarfs_live_state() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("autocompact.journal");
        std::fs::remove_file(&path).ok();
        let m = SessionManager::new(adb).with_auto_compact(8);
        m.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let id = m.create_session();
        for _ in 0..6 {
            m.apply_op(id, &SessionOp::AddExample("Jim Carrey".into()))
                .unwrap();
            m.apply_op(id, &SessionOp::RemoveExample("Jim Carrey".into()))
                .unwrap();
        }
        let stats = m.journal_stats().unwrap();
        assert!(
            stats.compactions >= 1,
            "12 churn appends past a floor of 8 must have compacted: {stats:?}"
        );
        assert_eq!(m.journal_write_errors(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_sessions_match_one_shot() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let m = SessionManager::new(Arc::clone(&adb));
        let slates: Vec<Vec<&str>> = vec![
            vec!["Jim Carrey", "Eddie Murphy"],
            vec!["Sylvester Stallone", "Arnold Schwarzenegger"],
            vec!["Julia Roberts", "Emma Stone"],
        ];
        let results: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = slates
                .iter()
                .map(|slate| {
                    let m = &m;
                    scope.spawn(move || {
                        let id = m.create_session();
                        let sql = m
                            .with_session(id, |s| {
                                for e in slate {
                                    s.add_example(e)?;
                                }
                                Ok(s.discovery().unwrap().sql())
                            })
                            .unwrap();
                        m.end_session(id);
                        sql
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let squid = Squid::new(&adb);
        for (slate, sql) in slates.iter().zip(&results) {
            assert_eq!(&squid.discover(slate).unwrap().sql(), sql);
        }
        assert!(m.is_empty());
    }

    /// Stream every record of `path` onto `standby` the way the
    /// replication link does: full-journal read + apply.
    fn ship_full(standby: &SessionManager, path: &std::path::Path) -> ReplicatedStats {
        let replay = crate::journal::read_journal(path).unwrap();
        standby.apply_replicated(&replay.records)
    }

    #[test]
    fn apply_replicated_mirrors_a_stream_and_survives_resnapshots() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let path = journal_path("replicate_primary.journal");
        std::fs::remove_file(&path).ok();

        let primary = SessionManager::new(Arc::clone(&adb));
        primary.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let standby = SessionManager::new(Arc::clone(&adb));

        let s1 = primary.create_session();
        primary
            .apply_op(s1, &SessionOp::AddExample("Jim Carrey".into()))
            .unwrap();
        primary
            .apply_op(s1, &SessionOp::AddExample("Eddie Murphy".into()))
            .unwrap();
        let stats = ship_full(&standby, &path);
        assert_eq!(stats.sessions_installed, 1);
        assert_eq!(stats.records_failed, 0);
        let sql_at = |m: &SessionManager, id| {
            m.with_session(id, |s| Ok(s.discovery().unwrap().sql()))
                .unwrap()
        };
        assert_eq!(sql_at(&primary, s1), sql_at(&standby, s1));

        // The primary compacts: the stream re-snapshots from the rewritten
        // file. A standby already at the snapshot cursor must absorb the
        // whole section as skips — no doubled examples, identical SQL.
        let before = primary.journal_stats().unwrap().epoch;
        primary.compact_journal().unwrap().unwrap();
        assert_eq!(primary.journal_stats().unwrap().epoch, before + 1);
        let stats = ship_full(&standby, &path);
        assert_eq!(stats.records_applied, 0, "resnapshot overlap is all skips");
        assert_eq!(
            standby
                .with_session(s1, |s| Ok(s.examples().join("|")))
                .unwrap(),
            "Jim Carrey|Eddie Murphy"
        );
        assert_eq!(sql_at(&primary, s1), sql_at(&standby, s1));

        // Lag across a compaction: ops the standby never saw get compacted
        // into the snapshot section, so the re-snapshot must *reinstall*
        // the stale replica at the snapshot state.
        primary
            .apply_op(s1, &SessionOp::PinFilter("person:gender".into()))
            .ok();
        primary
            .apply_op(s1, &SessionOp::AddExample("Robin Williams".into()))
            .unwrap();
        primary.compact_journal().unwrap().unwrap();
        let stats = ship_full(&standby, &path);
        assert_eq!(stats.sessions_reinstalled, 1);
        assert_eq!(sql_at(&primary, s1), sql_at(&standby, s1));
        let cursor = |m: &SessionManager, id| m.with_session(id, |s| Ok(s.op_seq())).unwrap();
        assert_eq!(cursor(&primary, s1), cursor(&standby, s1));

        // End flows through; the zombie sweep drops sessions the stream no
        // longer mentions at all.
        let zombie = standby.create_session();
        primary.end_session(s1);
        ship_full(&standby, &path);
        assert!(!standby.contains_session(s1));
        let replay = crate::journal::read_journal(&path).unwrap();
        let keep: std::collections::HashSet<SessionId> =
            replay.records.iter().map(|(sid, _, _)| *sid).collect();
        assert_eq!(standby.retain_sessions(&keep), 1);
        assert!(!standby.contains_session(zombie));

        // A promoted standby hands out ids the old primary never used.
        let fresh = standby.create_session();
        assert!(fresh > s1);
        std::fs::remove_file(&path).ok();
    }

    /// A standby that lagged across a compaction re-journals the reinstall
    /// (a `Create` carrying the snapshot cursor, then seq-0 state ops) into
    /// its own journal. Recovering that journal must land where the
    /// standby stood: the replay rule is the one the standby applied live.
    #[test]
    fn recovering_a_standby_journal_reproduces_its_reinstall() {
        let adb = Arc::new(ADb::build(&mini_imdb()).unwrap());
        let primary_path = journal_path("reinstall_primary.journal");
        let standby_path = journal_path("reinstall_standby.journal");
        std::fs::remove_file(&primary_path).ok();
        std::fs::remove_file(&standby_path).ok();

        let primary = SessionManager::new(Arc::clone(&adb));
        primary.attach_journal(Journal::open(&primary_path, FsyncPolicy::Flush).unwrap());
        let standby = SessionManager::new(Arc::clone(&adb));
        standby.attach_journal(Journal::open(&standby_path, FsyncPolicy::Flush).unwrap());

        let s1 = primary.create_session();
        for name in ["Jim Carrey", "Eddie Murphy"] {
            primary
                .apply_op(s1, &SessionOp::AddExample(name.into()))
                .unwrap();
        }
        ship_full(&standby, &primary_path);
        primary
            .apply_op(s1, &SessionOp::AddExample("Robin Williams".into()))
            .unwrap();
        primary.compact_journal().unwrap().unwrap();
        assert_eq!(ship_full(&standby, &primary_path).sessions_reinstalled, 1);
        standby.journal_sync().unwrap();

        let recovered = SessionManager::new(Arc::clone(&adb));
        let stats = recovered
            .recover(&standby_path, FsyncPolicy::Flush)
            .unwrap();
        assert_eq!(stats.records_failed, 0);
        let state = |m: &SessionManager| {
            m.with_session(s1, |s| {
                Ok((
                    s.op_seq(),
                    s.examples().join("|"),
                    s.discovery().map(|d| d.sql()),
                ))
            })
            .unwrap()
        };
        assert_eq!(state(&recovered), state(&standby));
        assert_eq!(state(&recovered), state(&primary));
        std::fs::remove_file(&primary_path).ok();
        std::fs::remove_file(&standby_path).ok();
    }
}
