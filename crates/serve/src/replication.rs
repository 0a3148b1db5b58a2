//! Warm-standby replication: journal streaming between two squid-serve
//! nodes over a second listener.
//!
//! ## Topology
//!
//! One primary, one standby, no quorum. The primary owns the journal
//! (the total order of session ops that PR 6 made the durable source of
//! truth); the standby mirrors it by replaying the same records through
//! [`SessionManager::apply_replicated`], so its in-memory fleet is the
//! deterministic function of the same history the primary's is.
//!
//! ```text
//!   clients ──> primary ──(serve addr)        standby serves reads,
//!                  │                          refuses writes with
//!                  │ journal bytes            not_primary + hint
//!                  ▼
//!            [repl listener] ──TCP──> [standby link] ──> apply_replicated
//!                  ▲    snapshot ▸ stream ▸ acks              │
//!                  └── lag (records+bytes) <── ACK ───────────┘
//! ```
//!
//! ## Wire protocol
//!
//! Each message is one record of the workspace's framing
//! (`squid_relation::frame`: `len u32 | crc32 u32 | payload`, capped at
//! 1 GiB), so a frame damaged in flight is refused, not applied. The
//! payload opens with a one-byte message tag; integers are little-endian
//! `u64`, strings carry a `u32` length:
//!
//! - `HELLO` (standby → primary): the magic `SQRP2` + whether the standby
//!   wants an αDB snapshot bootstrap before the journal stream. A peer
//!   speaking another version fails the handshake and is dropped.
//! - `ADB` (primary → standby): the single-file αDB snapshot
//!   ([`squid_adb::ADb::save_snapshot_to`]) — a standby can boot with no
//!   local dataset generation at all (it builds the αDB over the shipped
//!   tables).
//! - `SNAP` (primary → standby): the journal epoch, the primary's client
//!   address (the `not_primary` hint), and the *entire current journal*.
//!   Sent on connect and again whenever compaction bumps the journal
//!   epoch ([`squid_core::JournalStats::epoch`]) — byte offsets are only
//!   meaningful within one epoch, so an epoch change re-snapshots the
//!   stream.
//! - `RECS` (primary → standby): the epoch, the start offset, and the raw
//!   journal records appended since the last frame, shipped verbatim (the
//!   standby re-runs the same record scan recovery uses). Acknowledged by
//!   `ACK` frames carrying the epoch and the standby's applied byte offset
//!   and record count, from which the primary computes replication lag.
//!
//! The stream is lock-step (one outstanding frame), which makes lag
//! accounting exact and keeps the protocol trivially correct; journal
//! append rates are bounded by discovery work, not by this link.
//!
//! ## Split-brain stance
//!
//! Promotion is manual (the `promote` verb, nothing else) — there is no
//! quorum, no lease, and no automatic failover decision. The operator
//! (or the chaos harness) is the arbiter: kill the primary *then*
//! promote, and never run two primaries against one client population.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use squid_adb::ADb;
use squid_core::{scan_records, JournalStats, JournalTail, SessionManager, TailPoll};
use squid_relation::frame::{next_record, put_record, ByteReader, ByteWriter, FrameResult};
use squid_relation::FrameError;

const MAGIC: &[u8; 5] = b"SQRP2";
const TAG_HELLO: u8 = 1;
const TAG_ADB: u8 = 2;
const TAG_SNAP: u8 = 3;
const TAG_RECS: u8 = 4;
const TAG_ACK: u8 = 5;
/// Frames above this are a protocol violation (the αDB snapshot is the
/// largest legitimate payload).
const MAX_FRAME: u32 = 1 << 30;
/// How often the sender looks for newly appended journal bytes.
const SEND_POLL: Duration = Duration::from_millis(20);
/// Socket-level read timeout: the granularity at which blocked reads
/// re-check stop/promote flags.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long the primary waits for a standby's ACK before declaring the
/// link dead.
const ACK_DEADLINE: Duration = Duration::from_secs(10);
/// Standby reconnect pacing after a link failure.
const RECONNECT_DELAY: Duration = Duration::from_millis(100);

/// A node's place in the replication pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations, streams its journal to the standby.
    Primary,
    /// Serves reads, applies the stream, refuses mutations.
    Standby,
}

/// Shared replication state: the node's role, the promotion latch, and
/// the lag bookkeeping both the sender thread and the `health` verb read.
pub struct ReplState {
    role: AtomicU8,
    promote: AtomicBool,
    stop: AtomicBool,
    /// The current primary's *client* address — what `not_primary`
    /// refusals hint. On a standby this arrives in every SNAP frame; on a
    /// primary it is its own serve address.
    primary_addr: Mutex<Option<String>>,
    /// Primary side: whether a standby link is currently attached.
    standby_connected: AtomicBool,
    acked_epoch: AtomicU64,
    acked_offset: AtomicU64,
    acked_records: AtomicU64,
    /// Standby side: whether the link to the primary is up.
    link_up: AtomicBool,
    applied_records: AtomicU64,
    link_epoch: AtomicU64,
    /// Snapshot bootstraps absorbed (connect + every epoch change).
    snapshots: AtomicU64,
}

impl ReplState {
    /// Fresh state for a node starting in `role`.
    pub fn new(role: Role) -> ReplState {
        ReplState {
            role: AtomicU8::new(role as u8),
            promote: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            primary_addr: Mutex::new(None),
            standby_connected: AtomicBool::new(false),
            acked_epoch: AtomicU64::new(0),
            acked_offset: AtomicU64::new(0),
            acked_records: AtomicU64::new(0),
            link_up: AtomicBool::new(false),
            applied_records: AtomicU64::new(0),
            link_epoch: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
        }
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        if self.role.load(Ordering::Acquire) == Role::Primary as u8 {
            Role::Primary
        } else {
            Role::Standby
        }
    }

    /// Latch a promotion request (the `promote` verb's path). The
    /// standby link thread drains the stream and flips the role; callers
    /// poll [`ReplState::role`] for completion.
    pub fn request_promotion(&self) {
        self.promote.store(true, Ordering::Release);
    }

    /// Whether promotion has been requested.
    pub fn promotion_requested(&self) -> bool {
        self.promote.load(Ordering::Acquire)
    }

    /// Ask every replication thread to wind down.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The current primary's client address, when known.
    pub fn primary_addr(&self) -> Option<String> {
        self.primary_addr.lock().ok().and_then(|g| g.clone())
    }

    /// Record the primary's client address (own address on a primary,
    /// learned from SNAP frames on a standby).
    pub fn set_primary_addr(&self, addr: &str) {
        if let Ok(mut g) = self.primary_addr.lock() {
            *g = Some(addr.to_string());
        }
    }

    /// Primary side: whether a standby is attached right now.
    pub fn standby_connected(&self) -> bool {
        self.standby_connected.load(Ordering::Acquire)
    }

    /// Standby side: whether the link to the primary is up.
    pub fn link_up(&self) -> bool {
        self.link_up.load(Ordering::Acquire)
    }

    /// Standby side: records applied off the stream in the current epoch.
    pub fn applied_records(&self) -> u64 {
        self.applied_records.load(Ordering::Relaxed)
    }

    /// Snapshot bootstraps absorbed (connect + every epoch change).
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Replication lag as seen by the primary: `(records, bytes)` of
    /// journal the standby has not acknowledged. An ack from a previous
    /// epoch counts for nothing — the whole current file is unshipped.
    pub fn lag(&self, journal: &JournalStats) -> (u64, u64) {
        let total_records = journal.base_records + journal.tail_records;
        if self.acked_epoch.load(Ordering::Acquire) != journal.epoch {
            return (total_records, journal.bytes);
        }
        (
            total_records.saturating_sub(self.acked_records.load(Ordering::Acquire)),
            journal
                .bytes
                .saturating_sub(self.acked_offset.load(Ordering::Acquire)),
        )
    }

    fn record_ack(&self, epoch: u64, offset: u64, records: u64) {
        self.acked_epoch.store(epoch, Ordering::Release);
        self.acked_offset.store(offset, Ordering::Release);
        self.acked_records.store(records, Ordering::Release);
    }

    /// Flip to primary — the link thread's final act when a promotion
    /// drain completes (also used by pure-primary startup).
    fn become_primary(&self) {
        self.role.store(Role::Primary as u8, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One replication message (see "Wire protocol" above); the byte fields
/// borrow the frame they were decoded from.
#[derive(Debug, PartialEq)]
enum Msg<'a> {
    /// Standby → primary, first on every link: whether the standby wants
    /// an `Adb` before the stream.
    Hello(bool),
    /// Primary → standby: a whole αDB snapshot file.
    Adb(&'a [u8]),
    /// Primary → standby: epoch, the primary's client address, and the
    /// whole valid journal of that epoch.
    Snap(u64, &'a str, &'a [u8]),
    /// Primary → standby: epoch, the byte offset the records start at, and
    /// the journal records appended since the last frame.
    Recs(u64, u64, &'a [u8]),
    /// Standby → primary: epoch, applied byte offset, applied records.
    Ack(u64, u64, u64),
}

impl<'a> Msg<'a> {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match *self {
            Msg::Hello(need_adb) => {
                w.put_u8(TAG_HELLO);
                w.put_bytes(MAGIC);
                w.put_bool(need_adb);
            }
            Msg::Adb(snapshot) => {
                w.put_u8(TAG_ADB);
                w.put_bytes(snapshot);
            }
            Msg::Snap(epoch, primary, journal) => {
                w.put_u8(TAG_SNAP);
                w.put_u64(epoch);
                w.put_str(primary);
                w.put_bytes(journal);
            }
            Msg::Recs(epoch, start, records) => {
                w.put_u8(TAG_RECS);
                w.put_u64(epoch);
                w.put_u64(start);
                w.put_bytes(records);
            }
            Msg::Ack(epoch, offset, records) => {
                w.put_u8(TAG_ACK);
                w.put_u64(epoch);
                w.put_u64(offset);
                w.put_u64(records);
            }
        }
        w.into_bytes()
    }

    fn decode(payload: &'a [u8]) -> FrameResult<Msg<'a>> {
        const S: &str = "replication frame";
        let mut r = ByteReader::new(payload, S);
        let msg = match r.get_u8()? {
            TAG_HELLO => {
                if r.get_bytes(MAGIC.len())? != MAGIC {
                    return Err(FrameError::corrupt(S, "foreign HELLO magic"));
                }
                Msg::Hello(r.get_bool()?)
            }
            TAG_ADB => Msg::Adb(r.get_bytes(r.remaining())?),
            TAG_SNAP => Msg::Snap(r.get_u64()?, r.get_str_ref()?, r.get_bytes(r.remaining())?),
            TAG_RECS => Msg::Recs(r.get_u64()?, r.get_u64()?, r.get_bytes(r.remaining())?),
            TAG_ACK => Msg::Ack(r.get_u64()?, r.get_u64()?, r.get_u64()?),
            tag => return Err(FrameError::corrupt(S, format!("unknown message tag {tag}"))),
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// Frame and write this message.
    fn send<W: Write>(&self, w: &mut W) -> io::Result<()> {
        put_record(w, &self.encode(), MAX_FRAME).map(|_| ())
    }
}

fn invalid(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Incremental message reader: bytes buffer until a whole record is in,
/// so a frame split across reads (the socket's READ_POLL timeout firing
/// mid-frame) is resumed, never desynced.
struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Length of the record at the front of `buf` that the last message
    /// borrowed; dropped on the next call.
    consumed: usize,
}

impl<R: Read> FrameReader<R> {
    fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            consumed: 0,
        }
    }

    /// The next whole message, `Ok(None)` when a read timed out first (the
    /// caller re-checks its stop/promote flags and calls again). A damaged
    /// frame, an undecodable message and end of stream are errors.
    fn next_msg(&mut self) -> io::Result<Option<Msg<'_>>> {
        self.buf.drain(..std::mem::take(&mut self.consumed));
        let len = loop {
            if let Some((payload, consumed)) = next_record(&self.buf, MAX_FRAME).map_err(invalid)? {
                self.consumed = consumed;
                break payload.len();
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "replication peer closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        };
        Msg::decode(&self.buf[self.consumed - len..self.consumed])
            .map(Some)
            .map_err(invalid)
    }
}

/// Split a replication connection into a writer and a message reader whose
/// reads time out every READ_POLL.
fn open_link(stream: TcpStream) -> io::Result<(TcpStream, FrameReader<TcpStream>)> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    Ok((stream.try_clone()?, FrameReader::new(stream)))
}

// ---------------------------------------------------------------------------
// Primary side: the replication listener + per-standby sender
// ---------------------------------------------------------------------------

/// Handle to the primary's replication listener thread.
pub struct ReplListener {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl ReplListener {
    /// The listener's bound address (for `--replicate-to 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the thread (the state's stop flag must be
    /// raised first; a self-connect unblocks the accept loop).
    pub fn shutdown(mut self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Bind the replication listener and spawn its accept thread. Standbys
/// connect here; each connection gets the snapshot-then-stream treatment
/// for as long as this node is primary (a standby node can run a
/// listener too — it serves nothing until promotion).
pub fn start_repl_listener(
    manager: Arc<SessionManager>,
    bind: impl ToSocketAddrs,
    state: Arc<ReplState>,
) -> io::Result<ReplListener> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let handle = thread::Builder::new()
        .name("squid-repl-listener".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if state.stopping() {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Chaining standbys is out of scope: a node only feeds
                // the stream while it is primary. A standby that gets
                // dialed drops the connection; the dialer retries and
                // succeeds after promotion.
                if state.role() != Role::Primary {
                    continue;
                }
                // One standby at a time (single-standby stance): serve
                // this link to completion, then accept the next.
                state.standby_connected.store(true, Ordering::Release);
                let _ = serve_standby(&manager, stream, &state);
                state.standby_connected.store(false, Ordering::Release);
            }
        })?;
    Ok(ReplListener {
        addr,
        handle: Some(handle),
    })
}

/// Read the epoch + full valid journal bytes, atomically with respect to
/// compaction: the epoch is sampled (under the journal lock, via
/// `journal_stats`) before and after the file read, and the read retries
/// until both samples agree — at which point the bytes are provably from
/// that epoch's file.
fn stable_journal_read(manager: &SessionManager) -> io::Result<(u64, Vec<u8>, u64)> {
    loop {
        // Make buffered appends visible to the file read.
        manager
            .journal_sync()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let Some(before) = manager.journal_stats() else {
            // No journal attached: an empty stream at epoch 0.
            return Ok((0, Vec::new(), 0));
        };
        let bytes = match std::fs::read(&before.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let after = manager.journal_stats();
        if after.map(|s| s.epoch) == Some(before.epoch) {
            let (records, valid) = scan_records(&bytes);
            let mut bytes = bytes;
            bytes.truncate(valid as usize);
            return Ok((before.epoch, bytes, records.len() as u64));
        }
    }
}

/// Serve one standby connection: handshake, optional αDB bootstrap, then
/// snapshot + stream with lock-step acks until the link dies, the node
/// stops, or compaction forces a re-snapshot.
fn serve_standby(manager: &SessionManager, stream: TcpStream, state: &ReplState) -> io::Result<()> {
    let (mut writer, mut reader) = open_link(stream)?;
    // Handshake.
    let hello_deadline = Instant::now() + ACK_DEADLINE;
    let need_adb = loop {
        match reader.next_msg()? {
            Some(Msg::Hello(need_adb)) => break need_adb,
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected HELLO first",
                ))
            }
            None if Instant::now() < hello_deadline && !state.stopping() => continue,
            None => return Ok(()),
        }
    };
    if need_adb {
        // αDB bootstrap: the single-file snapshot in one frame.
        let mut snapshot = Vec::new();
        manager
            .adb()
            .save_snapshot_to(&mut snapshot)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Msg::Adb(&snapshot).send(&mut writer)?;
    }

    let wait_ack = |reader: &mut FrameReader<TcpStream>, state: &ReplState| -> io::Result<bool> {
        let deadline = Instant::now() + ACK_DEADLINE;
        loop {
            match reader.next_msg()? {
                Some(Msg::Ack(epoch, offset, records)) => {
                    state.record_ack(epoch, offset, records);
                    return Ok(true);
                }
                Some(_) => continue,
                None if state.stopping() => return Ok(false),
                None if Instant::now() >= deadline => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "standby ack overdue",
                    ))
                }
                None => continue,
            }
        }
    };

    let mut epoch: Option<u64> = None;
    let mut tail: Option<JournalTail> = None;
    // `tail` stays `None` on a journal-less primary (nothing to stream,
    // the SNAP carried everything) — that must NOT mean "snapshot again",
    // so re-snapshotting is its own flag.
    let mut need_snap = true;
    while !state.stopping() && state.role() == Role::Primary {
        let current_epoch = manager.journal_stats().map_or(0, |s| s.epoch);
        if epoch != Some(current_epoch) || need_snap {
            // Connect or compaction: (re-)snapshot the stream.
            let (snap_epoch, bytes, _records) = stable_journal_read(manager)?;
            let primary = state.primary_addr().unwrap_or_default();
            Msg::Snap(snap_epoch, &primary, &bytes).send(&mut writer)?;
            if !wait_ack(&mut reader, state)? {
                return Ok(());
            }
            let path = manager.journal_stats().map(|s| s.path);
            tail = match path {
                Some(p) => Some(
                    JournalTail::resume(p, bytes.len() as u64)
                        .map_err(|e| io::Error::other(e.to_string()))?
                        .0,
                ),
                None => None,
            };
            epoch = Some(snap_epoch);
            need_snap = false;
            continue;
        }
        // Steady state: ship whatever got appended since the last look.
        manager
            .journal_sync()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let Some(t) = tail.as_mut() else {
            thread::sleep(SEND_POLL);
            continue;
        };
        let before = manager.journal_stats().map_or(0, |s| s.epoch);
        let batch = match t.poll() {
            Ok(TailPoll::Records(b)) => b,
            Ok(TailPoll::Truncated) => {
                // Compacted under us: re-snapshot.
                tail = None;
                need_snap = true;
                continue;
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        let after = manager.journal_stats().map_or(0, |s| s.epoch);
        if before != current_epoch || after != before {
            // The file may have been swapped mid-read; the bytes cannot
            // be trusted. Drop them and re-snapshot.
            tail = None;
            need_snap = true;
            continue;
        }
        if batch.raw.is_empty() {
            thread::sleep(SEND_POLL);
            continue;
        }
        Msg::Recs(current_epoch, batch.start_offset, &batch.raw).send(&mut writer)?;
        if !wait_ack(&mut reader, state)? {
            return Ok(());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Standby side: bootstrap + apply loop
// ---------------------------------------------------------------------------

/// Handle to a standby's link thread.
pub struct StandbyLink {
    handle: Option<JoinHandle<()>>,
}

impl StandbyLink {
    /// Join the link thread (raise the state's stop flag or request
    /// promotion first).
    pub fn shutdown(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Fetch the primary's αDB snapshot over its replication listener — the
/// "prebuilt αDB snapshot to the fleet" bootstrap: a standby starts with
/// no local dataset generation. Returns the loaded αDB.
pub fn fetch_adb(primary: &str, timeout: Duration) -> io::Result<ADb> {
    let addr = resolve(primary)?;
    let (mut writer, mut reader) = open_link(TcpStream::connect_timeout(&addr, timeout)?)?;
    Msg::Hello(true).send(&mut writer)?;
    let deadline = Instant::now() + timeout.max(Duration::from_secs(5));
    loop {
        match reader.next_msg()? {
            Some(Msg::Adb(snapshot)) => return ADb::load_snapshot_bytes(snapshot).map_err(invalid),
            Some(_) => continue,
            None if Instant::now() >= deadline => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for the primary's ADB frame",
                ))
            }
            None => continue,
        }
    }
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("{addr:?} resolved to no address"),
        )
    })
}

/// Spawn the standby's link thread: connect to the primary's replication
/// listener, absorb snapshot + stream, reconnect on failure, and flip to
/// primary when promotion is requested (after draining whatever the link
/// still holds).
pub fn start_standby_link(
    manager: Arc<SessionManager>,
    primary: String,
    state: Arc<ReplState>,
) -> io::Result<StandbyLink> {
    let handle = thread::Builder::new()
        .name("squid-repl-standby".into())
        .spawn(move || {
            while !state.stopping() && !state.promotion_requested() {
                match run_link(&manager, &primary, &state) {
                    Ok(()) => {}
                    Err(_) if state.stopping() || state.promotion_requested() => {}
                    Err(_) => thread::sleep(RECONNECT_DELAY),
                }
                state.link_up.store(false, Ordering::Release);
            }
            if state.promotion_requested() && !state.stopping() {
                // Drained (run_link only returns with nothing buffered):
                // this node is now the primary.
                state.become_primary();
            }
        })?;
    Ok(StandbyLink {
        handle: Some(handle),
    })
}

/// One link lifetime: handshake, then apply frames until the connection
/// dies or the node is told to stop/promote. Returns `Ok` only via those
/// flags — with the reader's buffer empty, so a promotion that interrupts
/// it has provably applied everything received.
fn run_link(manager: &SessionManager, primary: &str, state: &ReplState) -> io::Result<()> {
    let addr = resolve(primary)?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    let (mut writer, mut reader) = open_link(stream)?;
    Msg::Hello(false).send(&mut writer)?;
    state.link_up.store(true, Ordering::Release);
    let mut offset: u64 = 0;
    loop {
        // An error here is a dying primary mid-frame: whatever complete
        // frames arrived were already applied; the torn remainder is
        // unacked and therefore still the primary's to resend.
        match reader.next_msg()? {
            Some(Msg::Snap(epoch, primary, journal)) => {
                if !primary.is_empty() {
                    state.set_primary_addr(primary);
                }
                let (records, valid) = scan_records(journal);
                let keep: std::collections::HashSet<_> =
                    records.iter().map(|(sid, _, _)| *sid).collect();
                manager.apply_replicated(&records);
                manager.retain_sessions(&keep);
                // Resync the local journal to exactly the snapshot state:
                // stale local records + a re-applied snapshot section
                // would double state on a later local recovery.
                let _ = manager.compact_journal();
                offset = valid;
                state.link_epoch.store(epoch, Ordering::Release);
                state
                    .applied_records
                    .store(records.len() as u64, Ordering::Release);
                state.snapshots.fetch_add(1, Ordering::Relaxed);
                Msg::Ack(epoch, offset, records.len() as u64).send(&mut writer)?;
            }
            Some(Msg::Recs(epoch, start, raw)) => {
                if epoch != state.link_epoch.load(Ordering::Acquire) || start != offset {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "replication stream desync (epoch/offset mismatch)",
                    ));
                }
                let (records, valid) = scan_records(raw);
                if valid != raw.len() as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "corrupt record bytes in RECS frame",
                    ));
                }
                manager.apply_replicated(&records);
                offset += valid;
                let applied = state
                    .applied_records
                    .fetch_add(records.len() as u64, Ordering::Release)
                    + records.len() as u64;
                Msg::Ack(epoch, offset, applied).send(&mut writer)?;
            }
            Some(Msg::Adb(_) | Msg::Hello(_) | Msg::Ack(..)) => {}
            None => {
                if state.stopping() || state.promotion_requested() {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squid_relation::frame::failpoint::mutate;

    fn framed(msgs: &[Msg<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        for msg in msgs {
            msg.send(&mut out).unwrap();
        }
        out
    }

    #[test]
    fn frame_reader_survives_partial_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A frame dribbled in three writes with pauses: the reader's
            // READ_POLL fires mid-frame and must resume, not desync.
            let frame = framed(&[Msg::Adb(b"abcdef")]);
            for chunk in frame.chunks(6) {
                s.write_all(chunk).unwrap();
                s.flush().unwrap();
                thread::sleep(Duration::from_millis(150));
            }
        });
        let (conn, _) = listener.accept().unwrap();
        let (_, mut reader) = open_link(conn).unwrap();
        loop {
            if let Some(msg) = reader.next_msg().unwrap() {
                assert_eq!(msg, Msg::Adb(b"abcdef"));
                break;
            }
        }
        writer.join().unwrap();
    }

    fn sample_msgs() -> Vec<Msg<'static>> {
        vec![
            Msg::Hello(true),
            Msg::Hello(false),
            Msg::Adb(b"SQUIDADB snapshot bytes"),
            Msg::Snap(3, "10.0.0.1:7500", b"journal bytes"),
            Msg::Snap(0, "", b""),
            Msg::Recs(3, 4096, b"records"),
            Msg::Ack(3, u64::MAX, 17),
        ]
    }

    #[test]
    fn msgs_round_trip_through_the_reader() {
        let msgs = sample_msgs();
        for msg in &msgs {
            assert_eq!(Msg::decode(&msg.encode()).unwrap(), *msg);
        }
        let stream = framed(&msgs);
        let mut reader = FrameReader::new(stream.as_slice());
        for msg in &msgs {
            assert_eq!(reader.next_msg().unwrap().as_ref(), Some(msg));
        }
        let end = reader.next_msg().unwrap_err();
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A HELLO from another protocol version (the `SQRP1` magic) fails to
    /// decode.
    #[test]
    fn a_foreign_hello_magic_is_refused() {
        let mut payload = Msg::Hello(false).encode();
        payload[1..6].copy_from_slice(b"SQRP1");
        assert!(Msg::decode(&payload).is_err());
    }

    /// A header declaring a length over the cap is refused once its 8 bytes
    /// are in, before the reader buffers toward the declared length.
    #[test]
    fn an_over_cap_length_is_refused_after_its_header() {
        let mut header = (MAX_FRAME + 1).to_le_bytes().to_vec();
        header.extend_from_slice(&[0; 4]);
        let mut reader = FrameReader::new(header.as_slice().chain(io::repeat(0)));
        let err = reader.next_msg().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(reader.buf.len(), 8, "nothing past the header was read");
        assert!(reader.buf.capacity() < 1 << 20);
    }

    /// An in-memory stream handed out `sizes[i % n]` bytes per read.
    struct Chunked<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = want.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn mutated_frame_streams_yield_whole_messages_or_an_error(
            picks in proptest::collection::vec(0usize..7, 1..8),
            sizes in proptest::collection::vec(1usize..40, 1..5),
            edits in proptest::collection::vec((0u8..4, proptest::any::<usize>(), proptest::any::<u8>()), 1..4),
        ) {
            let pool = sample_msgs();
            let msgs: Vec<&Msg<'_>> = picks.iter().map(|&i| &pool[i]).collect();
            let mut stream = Vec::new();
            for msg in &msgs {
                msg.send(&mut stream).unwrap();
            }
            let bytes = mutate(stream, &edits);
            let mut reader = FrameReader::new(Chunked { bytes: &bytes, sizes: &sizes, reads: 0 });
            // Every message the reader yields is the next one sent; the
            // damage, at the latest the end of the bytes, is an error.
            let mut yielded = 0;
            loop {
                match reader.next_msg() {
                    Ok(Some(msg)) => {
                        proptest::prop_assert!(yielded < msgs.len());
                        proptest::prop_assert_eq!(&msg, msgs[yielded]);
                        yielded += 1;
                    }
                    Ok(None) => proptest::prop_assert!(false, "an in-memory read never times out"),
                    Err(_) => break,
                }
            }
        }

        #[test]
        fn decoding_arbitrary_payloads_never_panics(
            pick in 0usize..7,
            noise in proptest::collection::vec(proptest::any::<u8>(), 0..48),
            edits in proptest::collection::vec((0u8..4, proptest::any::<usize>(), proptest::any::<u8>()), 1..4),
        ) {
            // Raw noise, and a valid payload with bytes mutated: whatever
            // decodes re-encodes to exactly the bytes it came from.
            let mutated = mutate(sample_msgs()[pick].encode(), &edits);
            for payload in [&noise, &mutated] {
                if let Ok(msg) = Msg::decode(payload) {
                    proptest::prop_assert_eq!(&msg.encode(), payload);
                }
            }
        }
    }

    #[test]
    fn lag_counts_an_epoch_mismatch_as_fully_behind() {
        let state = ReplState::new(Role::Primary);
        let journal = JournalStats {
            bytes: 1000,
            base_records: 10,
            tail_records: 5,
            epoch: 2,
            ..JournalStats::default()
        };
        // Ack from epoch 1: everything in epoch 2's file is unshipped.
        state.record_ack(1, 900, 14);
        assert_eq!(state.lag(&journal), (15, 1000));
        // Ack within the epoch: exact remainder.
        state.record_ack(2, 900, 14);
        assert_eq!(state.lag(&journal), (1, 100));
        state.record_ack(2, 1000, 15);
        assert_eq!(state.lag(&journal), (0, 0));
    }
}
