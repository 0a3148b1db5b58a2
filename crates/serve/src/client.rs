//! Blocking protocol client: one connection, request/response lines in
//! lock step. The load generator, the integration tests, and the
//! `squid-serve --client` scripted mode all drive the server through
//! this, so the client-side encode path is exercised by the same suite
//! that exercises the server-side parse path.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, Json};
use crate::protocol::{self, SessionOp, Verb};

/// What a request can fail with, client-side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, write, read, or peer closed).
    Io(io::Error),
    /// The server's response line was not valid JSON (should never
    /// happen; a server bug if it does).
    BadResponse(String),
    /// The server answered `{"ok":false,...}`; carries `error.code` and
    /// `error.detail`.
    Server {
        /// Machine-stable error code.
        code: String,
        /// Human-readable description.
        detail: String,
        /// The server's back-pressure hint, when the error carried one
        /// (`overloaded`, `session_limit`, `rate_limited`).
        retry_after_ms: Option<u64>,
        /// The primary's client address, when a standby refused a
        /// mutation with `not_primary` — the failover hint a retrying
        /// client follows.
        primary: Option<String>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::BadResponse(d) => write!(f, "malformed server response: {d}"),
            ClientError::Server { code, detail, .. } => {
                write!(f, "server error [{code}]: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, when this is a server error.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running `squid-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wrap an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Set a read timeout for responses (None = block forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }

    /// Send one already-encoded request line and read one response line.
    /// The raw response is returned even when `ok` is false — use
    /// [`Client::request`] for error-mapped calls.
    pub fn round_trip(&mut self, body: &Json) -> Result<Json, ClientError> {
        let mut line = body.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.read_response()
    }

    /// Read one response line without sending anything (for servers that
    /// push a final error line, e.g. idle reaping).
    pub fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        // A line without its newline is a connection torn mid-response —
        // a transport event (retryable), not a malformed server reply.
        if !resp.ends_with('\n') {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection lost mid-response",
            )));
        }
        json::parse(resp.trim()).map_err(|e| ClientError::BadResponse(e.to_string()))
    }

    /// Round trip + error mapping: `ok:false` responses become
    /// [`ClientError::Server`].
    pub fn request(&mut self, body: &Json) -> Result<Json, ClientError> {
        let resp = self.round_trip(body)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(resp);
        }
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let detail = resp
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let retry_after_ms = resp
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64);
        let primary = resp
            .get("error")
            .and_then(|e| e.get("primary"))
            .and_then(Json::as_str)
            .map(str::to_string);
        Err(ClientError::Server {
            code,
            detail,
            retry_after_ms,
            primary,
        })
    }

    /// Send `verb` through the protocol's one request encoder
    /// ([`protocol::encode_request`]); errors map like [`Client::request`].
    pub fn send(&mut self, verb: &Verb) -> Result<Json, ClientError> {
        self.request(&protocol::encode_request(verb, None))
    }

    /// One unsequenced session-mutating turn; returns the full delta
    /// response.
    pub fn apply(&mut self, session: u64, op: SessionOp) -> Result<Json, ClientError> {
        self.send(&Verb::Apply {
            session,
            seq: None,
            op,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Verb::Ping).map(|_| ())
    }

    /// Open a session, returning its id.
    pub fn create(&mut self) -> Result<u64, ClientError> {
        let resp = self.send(&Verb::Create)?;
        resp.get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::BadResponse("create response without session id".into()))
    }

    /// `add_example` over the wire.
    pub fn add(&mut self, session: u64, value: &str) -> Result<Json, ClientError> {
        self.apply(session, SessionOp::AddExample(value.to_string()))
    }

    /// `remove_example` over the wire.
    pub fn remove(&mut self, session: u64, value: &str) -> Result<Json, ClientError> {
        self.apply(session, SessionOp::RemoveExample(value.to_string()))
    }

    /// `pin_filter` over the wire.
    pub fn pin(&mut self, session: u64, key: &str) -> Result<Json, ClientError> {
        self.apply(session, SessionOp::PinFilter(key.to_string()))
    }

    /// The session's current abduced SQL (None while empty).
    pub fn sql(&mut self, session: u64) -> Result<Option<String>, ClientError> {
        let resp = self.send(&Verb::Sql { session })?;
        Ok(resp.get("sql").and_then(Json::as_str).map(str::to_string))
    }

    /// `suggest(k)` over the wire; returns the suggestion objects.
    pub fn suggest(&mut self, session: u64, k: usize) -> Result<Vec<Json>, ClientError> {
        let resp = self.send(&Verb::Suggest { session, k })?;
        Ok(resp
            .get("suggestions")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec())
    }

    /// Load/session/journal health probe.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.send(&Verb::Health)
    }

    /// Fleet statistics (optionally including one session's counters).
    pub fn stats(&mut self, session: Option<u64>) -> Result<Json, ClientError> {
        self.send(&Verb::Stats { session })
    }

    /// Close a session.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.send(&Verb::Close { session }).map(|_| ())
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Verb::Shutdown).map(|_| ())
    }

    /// Identify this connection for per-client admission accounting.
    pub fn identify(&mut self, id: &str) -> Result<(), ClientError> {
        self.send(&Verb::Client { id: id.to_string() }).map(|_| ())
    }

    /// Ask a standby to become primary. Returns the node's role after the
    /// call (`"primary"` once promotion completed).
    pub fn promote(&mut self) -> Result<String, ClientError> {
        let resp = self.send(&Verb::Promote)?;
        Ok(resp
            .get("role")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string())
    }
}
