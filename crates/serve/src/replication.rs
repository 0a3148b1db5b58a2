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
//! Length-prefixed binary frames (`tag u8 | len u32 LE | payload`), four
//! of which matter:
//!
//! - `HELLO` (standby → primary): magic + whether the standby wants an
//!   αDB snapshot bootstrap before the journal stream.
//! - `ADB` (primary → standby): the PR 6 single-file αDB snapshot,
//!   streamed straight off [`squid_adb::ADb::save_snapshot_to`] — a
//!   standby can boot with no local dataset generation at all (it builds
//!   the αDB over the shipped tables).
//! - `SNAP` (primary → standby): the journal epoch, the primary's client
//!   address (the `not_primary` hint), and the *entire current journal*.
//!   Sent on connect and again whenever compaction bumps the journal
//!   epoch ([`squid_core::JournalStats::epoch`]) — byte offsets are only
//!   meaningful within one epoch, so an epoch change re-snapshots the
//!   stream.
//! - `RECS` (primary → standby): raw journal record bytes appended since
//!   the last frame, shipped verbatim (the standby re-runs the same
//!   length/CRC scan recovery uses). Acknowledged by `ACK` frames
//!   carrying the standby's applied byte offset and record count, from
//!   which the primary computes replication lag.
//!
//! The stream is lock-step (one outstanding frame), which makes lag
//! accounting exact and keeps the protocol trivially correct; journal
//! append rates are bounded by discovery work, not by this link.
//!
//! ## Split-brain stance
//!
//! Promotion is manual (the `promote` verb or SIGUSR1) — there is no
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

const MAGIC: &[u8; 5] = b"SQRP1";
const TAG_HELLO: u8 = 1;
const TAG_ADB: u8 = 2;
const TAG_SNAP: u8 = 3;
const TAG_RECS: u8 = 4;
const TAG_ACK: u8 = 5;
/// Frames above this are a protocol violation (the αDB snapshot is the
/// largest legitimate payload).
const MAX_FRAME: usize = 1 << 30;
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

    /// Latch a promotion request (the `promote` verb / SIGUSR1 path). The
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
// Frame IO
// ---------------------------------------------------------------------------

fn write_frame(w: &mut TcpStream, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 5];
    header[0] = tag;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Incremental frame reader: partial reads (the socket's READ_POLL
/// timeout firing mid-frame) keep their bytes buffered, so a slow frame
/// is resumed, never desynced.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> io::Result<FrameReader> {
        stream.set_read_timeout(Some(READ_POLL))?;
        Ok(FrameReader {
            stream,
            buf: Vec::new(),
        })
    }

    /// One complete frame, `Ok(None)` when the read timed out first (the
    /// caller re-checks its stop/promote flags and calls again).
    fn next_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        loop {
            if self.buf.len() >= 5 {
                let len = u32::from_le_bytes(self.buf[1..5].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("replication frame of {len} bytes exceeds the cap"),
                    ));
                }
                if self.buf.len() >= 5 + len {
                    let tag = self.buf[0];
                    let payload = self.buf[5..5 + len].to_vec();
                    self.buf.drain(..5 + len);
                    return Ok(Some((tag, payload)));
                }
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "replication peer closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], at: usize) -> io::Result<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short replication frame"))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], at: usize) -> io::Result<(String, usize)> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "short replication frame");
    let len = bytes
        .get(at..at + 2)
        .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")) as usize)
        .ok_or_else(bad)?;
    let raw = bytes.get(at + 2..at + 2 + len).ok_or_else(bad)?;
    let s = std::str::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 address in frame"))?;
    Ok((s.to_string(), at + 2 + len))
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
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = FrameReader::new(stream)?;
    // Handshake.
    let hello_deadline = Instant::now() + ACK_DEADLINE;
    let flags = loop {
        match reader.next_frame()? {
            Some((TAG_HELLO, p)) if p.len() >= 6 && &p[..5] == MAGIC => break p[5],
            Some((tag, _)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected HELLO, got frame tag {tag}"),
                ))
            }
            None if Instant::now() < hello_deadline && !state.stopping() => continue,
            None => return Ok(()),
        }
    };
    if flags & 1 != 0 {
        // αDB bootstrap: the single-file snapshot, straight onto the wire.
        let mut payload = Vec::new();
        manager
            .adb()
            .save_snapshot_to(&mut payload)
            .map_err(|e| io::Error::other(e.to_string()))?;
        write_frame(&mut writer, TAG_ADB, &payload)?;
    }

    let wait_ack = |reader: &mut FrameReader, state: &ReplState| -> io::Result<bool> {
        let deadline = Instant::now() + ACK_DEADLINE;
        loop {
            match reader.next_frame()? {
                Some((TAG_ACK, p)) => {
                    state.record_ack(get_u64(&p, 0)?, get_u64(&p, 8)?, get_u64(&p, 16)?);
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
            let mut payload = Vec::new();
            put_u64(&mut payload, snap_epoch);
            put_str(&mut payload, &state.primary_addr().unwrap_or_default());
            payload.extend_from_slice(&bytes);
            write_frame(&mut writer, TAG_SNAP, &payload)?;
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
        let mut payload = Vec::new();
        put_u64(&mut payload, current_epoch);
        put_u64(&mut payload, batch.start_offset);
        payload.extend_from_slice(&batch.raw);
        write_frame(&mut writer, TAG_RECS, &payload)?;
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
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut hello = MAGIC.to_vec();
    hello.push(1); // need_adb
    write_frame(&mut writer, TAG_HELLO, &hello)?;
    let mut reader = FrameReader::new(stream)?;
    let deadline = Instant::now() + timeout.max(Duration::from_secs(5));
    loop {
        match reader.next_frame()? {
            Some((TAG_ADB, payload)) => {
                return ADb::load_snapshot_from(&mut payload.as_slice())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
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
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut hello = MAGIC.to_vec();
    hello.push(0);
    write_frame(&mut writer, TAG_HELLO, &hello)?;
    let mut reader = FrameReader::new(stream)?;
    state.link_up.store(true, Ordering::Release);
    let mut offset: u64 = 0;
    loop {
        let frame = match reader.next_frame() {
            Ok(f) => f,
            Err(e) => {
                // A dying primary mid-frame: whatever complete frames
                // arrived were already applied; the torn remainder is
                // unacked and therefore still the primary's to resend.
                return Err(e);
            }
        };
        match frame {
            Some((TAG_SNAP, payload)) => {
                let epoch = get_u64(&payload, 0)?;
                let (primary_client_addr, at) = get_str(&payload, 8)?;
                if !primary_client_addr.is_empty() {
                    state.set_primary_addr(&primary_client_addr);
                }
                let (records, valid) = scan_records(&payload[at..]);
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
                ack(&mut writer, epoch, offset, records.len() as u64)?;
            }
            Some((TAG_RECS, payload)) => {
                let epoch = get_u64(&payload, 0)?;
                let start = get_u64(&payload, 8)?;
                if epoch != state.link_epoch.load(Ordering::Acquire) || start != offset {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "replication stream desync (epoch/offset mismatch)",
                    ));
                }
                let (records, valid) = scan_records(&payload[16..]);
                if valid as usize != payload.len() - 16 {
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
                ack(&mut writer, epoch, offset, applied)?;
            }
            Some((TAG_ADB, _)) | Some((TAG_HELLO, _)) | Some((TAG_ACK, _)) | Some(_) => {}
            None => {
                if state.stopping() || state.promotion_requested() {
                    return Ok(());
                }
            }
        }
    }
}

fn ack(writer: &mut TcpStream, epoch: u64, offset: u64, records: u64) -> io::Result<()> {
    let mut payload = Vec::new();
    put_u64(&mut payload, epoch);
    put_u64(&mut payload, offset);
    put_u64(&mut payload, records);
    write_frame(writer, TAG_ACK, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_reader_survives_partial_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A frame dribbled in three writes with pauses: the reader's
            // READ_POLL fires mid-frame and must resume, not desync.
            let mut frame = vec![TAG_RECS];
            frame.extend_from_slice(&6u32.to_le_bytes());
            frame.extend_from_slice(b"abcdef");
            for chunk in frame.chunks(4) {
                s.write_all(chunk).unwrap();
                s.flush().unwrap();
                thread::sleep(Duration::from_millis(150));
            }
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(conn).unwrap();
        let got = loop {
            if let Some(f) = reader.next_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(got, (TAG_RECS, b"abcdef".to_vec()));
        writer.join().unwrap();
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

    #[test]
    fn string_and_u64_codecs_round_trip() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        put_str(&mut out, "10.0.0.1:7500");
        assert_eq!(get_u64(&out, 0).unwrap(), 42);
        let (s, at) = get_str(&out, 8).unwrap();
        assert_eq!(s, "10.0.0.1:7500");
        assert_eq!(at, out.len());
        assert!(get_u64(&out, out.len()).is_err());
        assert!(get_str(&out, out.len()).is_err());
    }
}
