//! Append-only session journal: the durable source of truth for live
//! [`SquidSession`] state.
//!
//! The αDB snapshot (`squid_adb::snapshot`) is a rebuildable cache; what a
//! crash actually destroys is the *interactive* state — which examples a
//! user added, what they pinned, banned, and chose. This module journals
//! every session-mutating operation as one CRC-32 protected record of the
//! workspace's framing (`squid_relation::frame`) appended through a
//! buffered writer, and replays the journal on restart ([`read_journal`] +
//! `SessionManager::recover`).
//!
//! ## Record format
//!
//! One `squid_relation::frame` record per op, payload capped at 1 MiB:
//!
//! ```text
//! +---------+-----------+---------------------------------------------+
//! | len u32 | crc32 u32 | payload: session u64, seq u64, op tag, args |
//! +---------+-----------+---------------------------------------------+
//! ```
//!
//! `seq` is the session's operation sequence number: every applied
//! mutation bumps it by one. Replay skips any non-zero `seq` at or below
//! the session's current cursor, which makes replay idempotent — the
//! property that lets a compacted snapshot coexist with a live tail (see
//! [`Journal::compact`]) and lets the serving frontend deduplicate
//! retried client turns. Seq 0 is special: live-append lifecycle records
//! (`Create`/`End`) carry it, and compaction writes its snapshot state
//! ops at 0 so they apply unconditionally; a compacted `Create` instead
//! carries the session's cursor, which replay restores.
//!
//! ## Write-ahead semantics, inverted
//!
//! Session mutators are deterministic functions of the (immutable) αDB and
//! are rollback-on-error, so the journal records operations *after* they
//! succeed: a replayed journal applies exactly the successful prefix of
//! history and lands bit-identical to the never-crashed fleet. Replay
//! applies each record to session *state* only and runs discovery once
//! per live session at the end (`SessionManager::apply_replicated`), so
//! a record costs a decode and a state change, not an abduction. A torn or
//! bit-flipped tail record — the signature of dying mid-append — is
//! detected by length/CRC and **truncated**, not treated as fatal:
//! everything before the damage is recovered.
//!
//! ## Compaction
//!
//! Recovery time is proportional to journal length, which grows with
//! *history*; the state worth recovering grows only with *live sessions*.
//! [`Journal::compact`] closes that gap: it rewrites the file as one
//! snapshot section — `Create` plus the minimal op sequence that rebuilds
//! each live session ([`SquidSession::state_ops`]) — written to a temp
//! file and atomically renamed over the old journal. A crash anywhere
//! during compaction leaves the old journal untouched (the rename either
//! happened completely or not at all), so torn compaction falls back to
//! full replay, never to data loss.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use squid_relation::frame::{next_record, put_record, ByteReader, ByteWriter, FrameError};

use crate::error::SquidError;
use crate::manager::SessionId;
use crate::session::{DiscoveryDelta, SquidSession};

/// Largest accepted journal record payload (1 MiB): a declared length
/// beyond this is treated as tail corruption, not an allocation request,
/// so an op whose record would be longer is refused before it applies
/// ([`SessionOp::check_record_size`]).
const MAX_RECORD: u32 = 1 << 20;

/// `Ok` when a payload of `len` bytes fits in one journal record.
fn record_fits(len: usize) -> Result<(), SquidError> {
    if len > MAX_RECORD as usize {
        return Err(SquidError::RecordTooLarge {
            bytes: len,
            max: MAX_RECORD as usize,
        });
    }
    Ok(())
}

/// When appended records are pushed toward the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: survives OS crash and power loss at the
    /// cost of one disk round-trip per operation.
    Always,
    /// Flush to the OS after every record (default): survives process
    /// crashes — the common failure — but a simultaneous OS crash may lose
    /// the last few records.
    Flush,
    /// Leave records in the user-space buffer until it fills or the
    /// journal is dropped: fastest, loses the buffer on a process crash.
    Never,
}

/// The spellings the `--fsync` flag of both binaries accepts.
impl std::str::FromStr for FsyncPolicy {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<FsyncPolicy, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "flush" => Ok(FsyncPolicy::Flush),
            "never" => Ok(FsyncPolicy::Never),
            _ => Err("expected one of: always | flush | never"),
        }
    }
}

/// One journaled session-mutating operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// Session was created.
    Create,
    /// `add_example(value)`.
    AddExample(String),
    /// `remove_example(value)`.
    RemoveExample(String),
    /// `set_target(table, column)`.
    SetTarget {
        /// Target entity table.
        table: String,
        /// Target column.
        column: String,
    },
    /// `set_target_auto()`.
    SetTargetAuto,
    /// `pin_filter(key)`.
    PinFilter(String),
    /// `ban_filter(key)`.
    BanFilter(String),
    /// `unpin_filter(key)`.
    UnpinFilter(String),
    /// `unban_filter(key)`.
    UnbanFilter(String),
    /// `choose_entity(example, pk)`.
    ChooseEntity {
        /// The ambiguous example value.
        example: String,
        /// The chosen entity's primary key.
        pk: i64,
    },
    /// `clear_choice(example)`.
    ClearChoice(String),
    /// Session was ended.
    End,
}

impl SessionOp {
    /// Apply this operation to a live session: stage its state change,
    /// then refresh the discovery (undoing the change if that fails).
    /// `Create`/`End` are session lifecycle markers handled by the manager
    /// and are no-ops here.
    pub fn apply(&self, s: &mut SquidSession<'_>) -> Result<Option<DiscoveryDelta>, SquidError> {
        match s.stage(self)? {
            Some(undo) => s.commit(undo).map(Some),
            None => Ok(None),
        }
    }

    /// Refuse an op whose journal record would exceed [`MAX_RECORD`]:
    /// recovery and replication stop reading at such a record, so
    /// journaling it would lose it and every record after it. The manager
    /// checks before it applies the op, so a refused turn leaves its
    /// session untouched.
    pub(crate) fn check_record_size(&self) -> Result<(), SquidError> {
        // Session id and seq are fixed-width: any values give the length.
        record_fits(self.encode(0, 0).len())
    }

    fn encode(&self, session: SessionId, seq: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(session);
        w.put_u64(seq);
        match self {
            SessionOp::Create => w.put_u8(0),
            SessionOp::AddExample(v) => {
                w.put_u8(1);
                w.put_str(v);
            }
            SessionOp::RemoveExample(v) => {
                w.put_u8(2);
                w.put_str(v);
            }
            SessionOp::SetTarget { table, column } => {
                w.put_u8(3);
                w.put_str(table);
                w.put_str(column);
            }
            SessionOp::SetTargetAuto => w.put_u8(4),
            SessionOp::PinFilter(k) => {
                w.put_u8(5);
                w.put_str(k);
            }
            SessionOp::BanFilter(k) => {
                w.put_u8(6);
                w.put_str(k);
            }
            SessionOp::UnpinFilter(k) => {
                w.put_u8(7);
                w.put_str(k);
            }
            SessionOp::UnbanFilter(k) => {
                w.put_u8(8);
                w.put_str(k);
            }
            SessionOp::ChooseEntity { example, pk } => {
                w.put_u8(9);
                w.put_str(example);
                w.put_i64(*pk);
            }
            SessionOp::ClearChoice(example) => {
                w.put_u8(10);
                w.put_str(example);
            }
            SessionOp::End => w.put_u8(11),
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<(SessionId, u64, SessionOp), FrameError> {
        let mut r = ByteReader::new(payload, "journal record");
        let session = r.get_u64()?;
        let seq = r.get_u64()?;
        let op = match r.get_u8()? {
            0 => SessionOp::Create,
            1 => SessionOp::AddExample(r.get_str()?),
            2 => SessionOp::RemoveExample(r.get_str()?),
            3 => SessionOp::SetTarget {
                table: r.get_str()?,
                column: r.get_str()?,
            },
            4 => SessionOp::SetTargetAuto,
            5 => SessionOp::PinFilter(r.get_str()?),
            6 => SessionOp::BanFilter(r.get_str()?),
            7 => SessionOp::UnpinFilter(r.get_str()?),
            8 => SessionOp::UnbanFilter(r.get_str()?),
            9 => SessionOp::ChooseEntity {
                example: r.get_str()?,
                pk: r.get_i64()?,
            },
            10 => SessionOp::ClearChoice(r.get_str()?),
            11 => SessionOp::End,
            t => {
                return Err(FrameError::corrupt(
                    "journal record",
                    format!("invalid op tag {t}"),
                ))
            }
        };
        r.expect_end()?;
        Ok((session, seq, op))
    }
}

/// Appender half of the journal: opened once per process, shared by the
/// `SessionManager`.
#[derive(Debug)]
pub struct Journal {
    w: BufWriter<File>,
    policy: FsyncPolicy,
    path: PathBuf,
    /// File length in bytes as of the last append (replay-debt metric).
    bytes: u64,
}

impl Journal {
    /// Open `path` for appending (creating it if absent).
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Journal, SquidError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(Journal {
            w: BufWriter::new(file),
            policy,
            path,
            bytes,
        })
    }

    /// Open `path` truncated to empty (the compaction temp-file path; the
    /// appending open above never destroys records).
    fn create(path: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Journal, SquidError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Journal {
            w: BufWriter::new(file),
            policy,
            path,
            bytes: 0,
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The journal's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Bytes written to the journal file so far (valid records only; a
    /// freshly-opened journal starts from the existing file length).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one record and push it toward the disk per the fsync policy.
    /// `seq` is the session's operation sequence number after applying
    /// `op` (0 for lifecycle records); replay skips records at or below a
    /// session's current cursor. A record longer than the 1 MiB limit is
    /// refused ([`SquidError::RecordTooLarge`]) and nothing is written.
    pub fn append(
        &mut self,
        session: SessionId,
        seq: u64,
        op: &SessionOp,
    ) -> Result<(), SquidError> {
        let payload = op.encode(session, seq);
        record_fits(payload.len())?;
        self.bytes += put_record(&mut self.w, &payload, MAX_RECORD)? as u64;
        match self.policy {
            FsyncPolicy::Always => {
                self.w.flush()?;
                self.w.get_ref().sync_data()?;
            }
            FsyncPolicy::Flush => self.w.flush()?,
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Flush buffered records to the OS (and to disk under
    /// [`FsyncPolicy::Always`]).
    pub fn sync(&mut self) -> Result<(), SquidError> {
        self.w.flush()?;
        if self.policy == FsyncPolicy::Always {
            self.w.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Rewrite the journal at `path` as a snapshot of the given live
    /// sessions plus a carried tail, returning a fresh appender over the
    /// compacted file. Each `live` entry is `(session id, op-sequence
    /// cursor, state ops)` — the minimal op sequence that rebuilds the
    /// session plus the cursor its replay must land on (see
    /// [`SquidSession::state_ops`] and `SessionManager::compact_journal`).
    /// `tail` holds old-journal records the snapshot does not cover
    /// (appended while the snapshot was being collected, or lifecycle
    /// records of sessions born since); they are re-appended after the
    /// snapshot section with their original sequence numbers, so replay
    /// ordering and dedupe behave exactly as they would have against the
    /// old file.
    ///
    /// Crash-safe: the snapshot is written to a temp file, fsynced, and
    /// atomically renamed over `path`. Dying at any point before the
    /// rename leaves the old journal byte-identical (torn compaction
    /// falls back to full replay); dying after it leaves the complete
    /// compacted journal.
    pub fn compact(
        path: impl AsRef<Path>,
        live: &[(SessionId, u64, Vec<SessionOp>)],
        tail: &[(SessionId, u64, SessionOp)],
        policy: FsyncPolicy,
    ) -> Result<(Journal, CompactStats), SquidError> {
        let path = path.as_ref();
        let bytes_before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let tmp = path.with_extension("compacting");
        let mut snapshot = Journal::create(&tmp, policy)?;
        let mut records_written = 0u64;
        for (sid, cursor, ops) in live {
            // The `Create` record carries the session's cursor, so replay
            // restores it even when the state ops undercount history (an
            // add that was later removed contributed two cursor bumps but
            // zero state ops). State ops are written at seq 0 — the
            // always-apply sequence — because the restored cursor would
            // otherwise shadow them; a tail record appended after the
            // snapshot was taken (seq > cursor) still replays, while a
            // pre-snapshot append that raced compaction (seq <= cursor)
            // is skipped.
            snapshot.append(*sid, *cursor, &SessionOp::Create)?;
            records_written += 1;
            for op in ops {
                snapshot.append(*sid, 0, op)?;
                records_written += 1;
            }
        }
        for (sid, seq, op) in tail {
            snapshot.append(*sid, *seq, op)?;
            records_written += 1;
        }
        // The rename must never promote a half-written snapshot: force the
        // temp file to disk first, regardless of the append-path policy.
        snapshot.w.flush()?;
        snapshot.w.get_ref().sync_data()?;
        let bytes_after = snapshot.bytes;
        drop(snapshot);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself (the directory entry) where possible.
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        let journal = Journal::open(path, policy)?;
        let stats = CompactStats {
            sessions: live.len(),
            records_written,
            bytes_before,
            bytes_after,
        };
        Ok((journal, stats))
    }
}

/// What one [`Journal::compact`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Live sessions snapshotted.
    pub sessions: usize,
    /// Records in the compacted journal (the snapshot section plus the
    /// carried tail; new appends grow from here).
    pub records_written: u64,
    /// Journal bytes before compaction.
    pub bytes_before: u64,
    /// Journal bytes after compaction.
    pub bytes_after: u64,
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

/// Result of scanning a journal file: the decoded valid prefix plus how
/// much tail (if any) had to be abandoned as torn or corrupt.
#[derive(Debug)]
pub struct JournalReplay {
    /// Decoded `(session, seq, op)` records in append order.
    pub records: Vec<(SessionId, u64, SessionOp)>,
    /// Byte length of the valid prefix.
    pub bytes_valid: u64,
    /// Bytes after the valid prefix (torn/corrupt tail, or zero).
    pub bytes_truncated: u64,
}

/// Read and validate a journal file, stopping at the first torn or
/// corrupt record (crash-mid-append is expected, not an error). A missing
/// file is an empty journal.
pub fn read_journal(path: impl AsRef<Path>) -> Result<JournalReplay, SquidError> {
    let bytes = match std::fs::read(path.as_ref()) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (records, bytes_valid) = scan_records(&bytes);
    Ok(JournalReplay {
        records,
        bytes_valid,
        bytes_truncated: bytes.len() as u64 - bytes_valid,
    })
}

/// Decode the valid record prefix of raw journal bytes, stopping at the
/// first torn or corrupt record. Returns the decoded records and the
/// byte length of the valid prefix — the shared scanner behind
/// [`read_journal`] and [`JournalTail`], and what a replication standby
/// runs over bytes shipped off another node's journal.
pub fn scan_records(bytes: &[u8]) -> (Vec<(SessionId, u64, SessionOp)>, u64) {
    let mut valid = 0;
    let records = Records::new(bytes)
        .map(|(end, record)| {
            valid = end;
            record
        })
        .collect();
    (records, valid)
}

/// The framing rule, once: walks raw journal bytes from the start and
/// yields each valid record with the byte offset just past it, ending at
/// the first torn or corrupt record.
struct Records<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Records<'a> {
    fn new(bytes: &'a [u8]) -> Records<'a> {
        Records { bytes, pos: 0 }
    }
}

impl Iterator for Records<'_> {
    type Item = (u64, (SessionId, u64, SessionOp));

    fn next(&mut self) -> Option<Self::Item> {
        // A torn record ends the scan, and so does a damaged one (length
        // over the cap, CRC mismatch, or a CRC-valid payload that does not
        // decode): everything from there on is tail damage.
        let (payload, consumed) = next_record(&self.bytes[self.pos..], MAX_RECORD).ok()??;
        let record = SessionOp::decode(payload).ok()?;
        self.pos += consumed;
        Some((self.pos as u64, record))
    }
}

/// Truncate `path` to its valid prefix so the damaged tail can never be
/// re-read (and appends continue from a clean boundary).
pub fn truncate_to_valid(path: impl AsRef<Path>, bytes_valid: u64) -> Result<(), SquidError> {
    match OpenOptions::new().write(true).open(path.as_ref()) {
        Ok(f) => {
            f.set_len(bytes_valid)?;
            f.sync_data()?;
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// A streaming reader over a live journal file: the replication sender's
/// view of "what has been appended since I last looked".
///
/// Each [`JournalTail::poll`] re-opens the file, reads from the current
/// byte offset, and decodes the complete records found there; a torn
/// record mid-append simply stays unconsumed until a later poll sees the
/// rest of its bytes. The reader holds no file handle between polls, so
/// it never pins a compacted-away inode.
///
/// Compaction swaps a (usually smaller) rewritten file under the same
/// path. A poll that finds the file shorter than its offset reports
/// [`TailPoll::Truncated`] and rewinds to offset 0 — the caller must
/// treat everything it streamed so far as superseded and re-snapshot
/// from the new file. Compaction that leaves the file *longer* than the
/// offset cannot be detected here; callers that race compaction guard
/// with the owning manager's journal epoch (`JournalStats::epoch`),
/// re-reading it around each poll and discarding the batch when it
/// moved.
#[derive(Debug)]
pub struct JournalTail {
    path: PathBuf,
    offset: u64,
}

/// One [`JournalTail::poll`] outcome.
#[derive(Debug)]
pub enum TailPoll {
    /// Complete records appended since the previous poll (possibly none).
    Records(TailBatch),
    /// The file shrank below the reader's offset — a compacted journal
    /// was swapped in. The reader has rewound to offset 0; re-snapshot.
    Truncated,
}

/// A batch of decoded records plus their exact on-disk bytes, so a
/// replication sender can ship the raw framing verbatim and the standby
/// can re-verify CRCs on its side.
#[derive(Debug)]
pub struct TailBatch {
    /// Decoded `(session, seq, op)` records in append order.
    pub records: Vec<(SessionId, u64, SessionOp)>,
    /// The raw journal bytes of exactly those records.
    pub raw: Vec<u8>,
    /// Byte offset the batch starts at.
    pub start_offset: u64,
    /// Byte offset after the batch (the reader's new position).
    pub end_offset: u64,
}

impl JournalTail {
    /// Start tailing `path` from the beginning of the file.
    pub fn new(path: impl AsRef<Path>) -> JournalTail {
        JournalTail {
            path: path.as_ref().to_path_buf(),
            offset: 0,
        }
    }

    /// Resume tailing from a byte offset (e.g. a standby's acknowledged
    /// position). The offset is *validated* against the current file: the
    /// reader rescans from the start and snaps down to the largest record
    /// boundary at or below `offset`, so resuming from a torn, stale, or
    /// mid-record offset can never misframe the stream. Returns the
    /// reader plus the number of complete records that precede its
    /// (snapped) position — the caller's replay prefix.
    pub fn resume(path: impl AsRef<Path>, offset: u64) -> Result<(JournalTail, u64), SquidError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (mut pos, mut records_before) = (0, 0);
        // A record the requested offset splits is not consumed: snap down.
        for (end, _) in Records::new(&bytes).take_while(|(end, _)| *end <= offset) {
            pos = end;
            records_before += 1;
        }
        Ok((JournalTail { path, offset: pos }, records_before))
    }

    /// The byte offset of the next unread record.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Read everything appended since the last poll. A missing file is an
    /// empty batch (the journal may not exist yet); a file shorter than
    /// the reader's offset is [`TailPoll::Truncated`].
    pub fn poll(&mut self) -> Result<TailPoll, SquidError> {
        let mut f = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(TailPoll::Records(TailBatch {
                    records: Vec::new(),
                    raw: Vec::new(),
                    start_offset: self.offset,
                    end_offset: self.offset,
                }))
            }
            Err(e) => return Err(e.into()),
        };
        let len = f.metadata()?.len();
        if len < self.offset {
            self.offset = 0;
            return Ok(TailPoll::Truncated);
        }
        use std::io::Seek;
        f.seek(std::io::SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::with_capacity((len - self.offset) as usize);
        f.read_to_end(&mut bytes)?;
        let (records, valid) = scan_records(&bytes);
        bytes.truncate(valid as usize);
        let start = self.offset;
        self.offset += valid;
        Ok(TailPoll::Records(TailBatch {
            records,
            raw: bytes,
            start_offset: start,
            end_offset: self.offset,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("squid_journal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_ops() -> Vec<(SessionId, u64, SessionOp)> {
        vec![
            (1, 0, SessionOp::Create),
            (1, 1, SessionOp::AddExample("Jim Carrey".into())),
            (
                1,
                2,
                SessionOp::SetTarget {
                    table: "person".into(),
                    column: "name".into(),
                },
            ),
            (2, 0, SessionOp::Create),
            (1, 3, SessionOp::PinFilter("gender = Male".into())),
            (
                2,
                1,
                SessionOp::ChooseEntity {
                    example: "Titanic".into(),
                    pk: 7,
                },
            ),
            (1, 4, SessionOp::ClearChoice("Titanic".into())),
            (2, 0, SessionOp::End),
        ]
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("round_trip.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        for (sid, seq, op) in sample_ops() {
            j.append(sid, seq, &op).unwrap();
        }
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records, sample_ops());
        assert_eq!(replay.bytes_truncated, 0);
        assert_eq!(replay.bytes_valid, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_valid_prefix_at_every_cut() {
        let path = tmp("torn.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        for (sid, seq, op) in sample_ops() {
            j.append(sid, seq, &op).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let complete = read_journal(&path).unwrap();
        for cut in 0..full.len() {
            let cut_path = tmp("torn_cut.journal");
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let replay = read_journal(&cut_path).unwrap();
            // The recovered prefix is exactly the complete records that
            // fit in `cut` bytes; never an error, never a panic.
            assert!(replay.records.len() <= complete.records.len());
            assert_eq!(replay.records[..], complete.records[..replay.records.len()]);
            assert_eq!(replay.bytes_valid + replay.bytes_truncated, cut as u64);
            std::fs::remove_file(&cut_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_truncate_at_the_damaged_record() {
        let path = tmp("flip.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        for (sid, seq, op) in sample_ops() {
            j.append(sid, seq, &op).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        for i in 0..40 {
            let bit = (i * 6067) % (full.len() * 8);
            let mut damaged = full.clone();
            squid_relation::frame::failpoint::flip_bit(&mut damaged, bit);
            let flip_path = tmp("flip_case.journal");
            std::fs::write(&flip_path, &damaged).unwrap();
            let replay = read_journal(&flip_path).unwrap();
            // Valid prefix only: every recovered record matches history.
            let complete = sample_ops();
            assert_eq!(replay.records[..], complete[..replay.records.len()]);
            std::fs::remove_file(&flip_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_to_valid_drops_the_tail() {
        let path = tmp("truncate.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        for (sid, seq, op) in sample_ops() {
            j.append(sid, seq, &op).unwrap();
        }
        drop(j);
        // Simulate a torn append.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55, 0x2, 0x3]).unwrap();
        drop(f);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.bytes_truncated, 3);
        truncate_to_valid(&path, replay.bytes_valid).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), replay.bytes_valid);
        let again = read_journal(&path).unwrap();
        assert_eq!(again.bytes_truncated, 0);
        assert_eq!(again.records, sample_ops());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let replay = read_journal(tmp("never_written.journal")).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.bytes_valid, 0);
        assert_eq!(replay.bytes_truncated, 0);
    }

    #[test]
    fn tail_streams_appends_incrementally() {
        let path = tmp("tail_incremental.journal");
        std::fs::remove_file(&path).ok();
        let mut tail = JournalTail::new(&path);
        // Missing file: empty batch, not an error.
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!("missing file must not look truncated");
        };
        assert!(b.records.is_empty());

        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        let ops = sample_ops();
        let (head, rest) = ops.split_at(2);
        for (sid, seq, op) in head {
            j.append(*sid, *seq, op).unwrap();
        }
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!("appends are records, not truncation");
        };
        assert_eq!(b.records, head);
        assert_eq!(b.start_offset, 0);
        assert_eq!(b.end_offset, tail.offset());
        // Nothing new: empty batch at the same offset.
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!("idle poll must not look truncated");
        };
        assert!(b.records.is_empty());
        for (sid, seq, op) in rest {
            j.append(*sid, *seq, op).unwrap();
        }
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!("appends are records, not truncation");
        };
        assert_eq!(b.records, rest);
        // The raw bytes re-scan to the same records (what a standby does).
        let (rescanned, valid) = scan_records(&b.raw);
        assert_eq!(rescanned, rest);
        assert_eq!(valid, b.raw.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_leaves_a_torn_record_unconsumed_until_complete() {
        let path = tmp("tail_torn.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        let ops = sample_ops();
        j.append(ops[0].0, ops[0].1, &ops[0].2).unwrap();
        j.sync().unwrap();
        drop(j);
        // Hand-write the first half of a record, as a flush mid-append would.
        let (sid, seq, op) = &ops[1];
        let mut frame = Vec::new();
        put_record(&mut frame, &op.encode(*sid, *seq), MAX_RECORD).unwrap();
        let split = frame.len() / 2;
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..split]).unwrap();
        f.sync_data().unwrap();
        let mut tail = JournalTail::new(&path);
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!("torn tail is not truncation");
        };
        assert_eq!(b.records, ops[..1]);
        let boundary = tail.offset();
        // The torn half stays unconsumed...
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!()
        };
        assert!(b.records.is_empty());
        assert_eq!(tail.offset(), boundary);
        // ...until the rest of its bytes arrive.
        f.write_all(&frame[split..]).unwrap();
        f.sync_data().unwrap();
        drop(f);
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!()
        };
        assert_eq!(b.records, ops[1..2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_detects_a_shrunken_file_and_rewinds() {
        let path = tmp("tail_shrink.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        for (sid, seq, op) in sample_ops() {
            j.append(sid, seq, &op).unwrap();
        }
        drop(j);
        let mut tail = JournalTail::new(&path);
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!()
        };
        assert_eq!(b.records.len(), sample_ops().len());
        // Compaction swaps in a shorter file under the same path.
        let mut j = Journal::create(&path, FsyncPolicy::Flush).unwrap();
        j.append(9, 0, &SessionOp::Create).unwrap();
        drop(j);
        assert!(matches!(tail.poll().unwrap(), TailPoll::Truncated));
        assert_eq!(tail.offset(), 0);
        let TailPoll::Records(b) = tail.poll().unwrap() else {
            panic!()
        };
        assert_eq!(b.records, vec![(9, 0, SessionOp::Create)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_snaps_mid_record_offsets_to_a_boundary() {
        let path = tmp("tail_resume.journal");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path, FsyncPolicy::Flush).unwrap();
        let ops = sample_ops();
        let mut boundaries = vec![0u64];
        for (sid, seq, op) in &ops {
            j.append(*sid, *seq, op).unwrap();
            boundaries.push(j.bytes());
        }
        drop(j);
        let file_len = *boundaries.last().unwrap();
        for offset in 0..=file_len + 7 {
            let (mut tail, before) = JournalTail::resume(&path, offset).unwrap();
            let snapped = tail.offset();
            assert!(snapped <= offset.min(file_len));
            assert!(
                boundaries.contains(&snapped),
                "offset {offset} snapped to non-boundary {snapped}"
            );
            let TailPoll::Records(b) = tail.poll().unwrap() else {
                panic!()
            };
            // Prefix count + tail records always reassemble the full log.
            assert_eq!(before as usize + b.records.len(), ops.len());
            assert_eq!(b.records, ops[before as usize..]);
        }
        std::fs::remove_file(&path).ok();
    }
}
