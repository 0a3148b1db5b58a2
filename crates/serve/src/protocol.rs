//! The newline-delimited JSON serving protocol.
//!
//! One request per line, one response per line, always in order. Every
//! verb maps 1:1 onto the [`squid_core`] session API — the server never
//! invents work a [`squid_core::SquidSession`] would not do, which is what
//! keeps a network turn priced like a [`squid_core::DiscoveryDelta`], not
//! a full rediscovery.
//!
//! ## Grammar
//!
//! ```text
//! request  := { "op": <verb>, ...args, "id"?: int }
//! response := { "ok": true, "op": <verb>, "id"?: int, ...result }
//!           | { "ok": false, "id"?: int,
//!               "error": { "code": <code>, "detail": string } }
//! ```
//!
//! Verbs and their arguments (`session` is the id from `create`):
//!
//! | verb       | arguments                          | session API          |
//! |------------|------------------------------------|----------------------|
//! | `ping`     |                                    | —                    |
//! | `create`   |                                    | `create_session`     |
//! | `add`      | `session`, `value`                 | `add_example`        |
//! | `remove`   | `session`, `value`                 | `remove_example`     |
//! | `target`   | `session`, `table`, `column`       | `set_target`         |
//! | `auto`     | `session`                          | `set_target_auto`    |
//! | `pin`      | `session`, `key`                   | `pin_filter`         |
//! | `ban`      | `session`, `key`                   | `ban_filter`         |
//! | `unpin`    | `session`, `key`                   | `unpin_filter`       |
//! | `unban`    | `session`, `key`                   | `unban_filter`       |
//! | `choose`   | `session`, `example`, `pk`         | `choose_entity`      |
//! | `unchoose` | `session`, `example`               | `clear_choice`       |
//! | `suggest`  | `session`, `k`?                    | `suggest`            |
//! | `sql`      | `session`                          | `discovery().sql()`  |
//! | `rows`     | `session`, `limit`?                | `discovery().rows`   |
//! | `examples` | `session`                          | `examples`           |
//! | `stats`    | `session`?                         | fleet + cache stats  |
//! | `health`   |                                    | load/journal health  |
//! | `close`    | `session`                          | `close_session`      |
//! | `shutdown` |                                    | graceful stop        |
//! | `client`   | `client`                           | admission identity   |
//! | `promote`  |                                    | standby → primary    |
//!
//! Each row is one row of [`COMMANDS`]: the decoder ([`parse_request`]),
//! the encoder ([`encode_request`]), the text grammar ([`parse_line`]) and
//! the server's admission checks all read that table, so they cannot
//! disagree on a verb. Members are typed by it: one that is missing, or
//! present but ill-typed — optional ones included (`"seq":"7"`, `7.0`,
//! `-1`, `null`) — is a `bad_request` naming it.
//!
//! ## Replies
//!
//! A mutating verb (`add`, `remove`, `target`, `auto`, `pin`, `unpin`,
//! `ban`, `unban`, `choose`, `unchoose`) answers with the turn's delta,
//! not the query: `rows` and `filters` (the result's size and the number
//! of chosen filters; while the session has no examples, `rows` is 0 and
//! `"empty":true` stands in for `filters`), `added_filters` and
//! `removed_filters` (the rendered filters that entered and left the
//! query), `rows_added`, `rows_removed`, and the evaluation evidence
//! `incremental`, `cache_hits` and `cache_misses`.
//! Folding the two filter lists over a session's replies yields its
//! current filters. `sql` renders the query when it is asked for, and is
//! the only verb whose reply carries it.
//!
//! The text form of a verb (the one line loop of [`crate::repl`] that
//! `squid --repl` and `squid-serve --client` share) is its name, then its
//! arguments as words, the one that may contain spaces last:
//! `add <value…>`, `target <table> <column…>`, `choose <pk> <example…>`,
//! `suggest [k]`. `session` and `seq` are never on the line: the caller's
//! current session and the retrying client's turn counter supply them.
//! The loop's `help` is these usage lines.
//!
//! `client` binds an admission identity to the connection: subsequent
//! requests are rate-limited and counted per client in addition to per
//! session (`stats`/`health` surface the per-client counters). `promote`
//! flips a replication standby into a primary; on a node that is already
//! primary it is an acknowledged no-op. A standby refuses every mutating
//! verb with `not_primary`, whose `error` object carries the primary's
//! client address under `"primary"` — the failover hint retrying clients
//! follow.
//!
//! Mutating verbs additionally accept an optional `seq` member: the
//! client's per-session turn number (1-based, contiguous). A replayed
//! `seq` the server has already applied is acknowledged without re-running
//! (the response carries `"deduped":true`), which upgrades at-least-once
//! retries to exactly-once application; a `seq` beyond the next expected
//! turn is a `bad_request` (the client claims turns the server never saw).
//! The answer to a replay of the session's latest sequenced turn is that
//! turn's reply again, rendered from the delta the session keeps beside
//! its cursor ([`squid_core::SeqOutcome::Duplicate`]); any other replay,
//! and any replay after a restart or a promotion, is a minimal ack.
//!
//! Error codes are machine-stable strings ([`ErrorCode`]); a protocol
//! error is a *response*, never a dropped connection — except the two
//! framing errors (`line_too_long`, `invalid_utf8`) after which the byte
//! stream can no longer be trusted, so the server replies and closes.
//! Back-pressure codes (`overloaded`, `session_limit`, `rate_limited`)
//! carry a `retry_after_ms` hint next to `detail` — the server's estimate
//! of when retrying will succeed.

use crate::json::{self, Json};

/// Mutating verbs translate to this (journaled) operation type.
pub use squid_core::SessionOp;

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: Option<i64>,
    /// The decoded verb and arguments.
    pub verb: Verb,
}

/// Every protocol verb (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Liveness probe.
    Ping,
    /// Open a session.
    Create,
    /// A session-mutating verb, mapped straight onto a journaled
    /// [`SessionOp`] (`add`/`remove`/`target`/`auto`/`pin`/`ban`/
    /// `unpin`/`unban`/`choose`/`unchoose`).
    Apply {
        /// Target session.
        session: u64,
        /// The operation.
        op: SessionOp,
        /// The client's per-session turn number, when it opted into
        /// exactly-once dedupe (see the module docs).
        seq: Option<u64>,
    },
    /// `k` most informative next examples.
    Suggest {
        /// Target session.
        session: u64,
        /// How many suggestions (default 3).
        k: usize,
    },
    /// The abduced SQL of the current discovery.
    Sql {
        /// Target session.
        session: u64,
    },
    /// Result tuples of the current discovery.
    Rows {
        /// Target session.
        session: u64,
        /// Maximum tuples returned (default 10).
        limit: usize,
    },
    /// The session's example list.
    Examples {
        /// Target session.
        session: u64,
    },
    /// Fleet and cache statistics (plus per-session counters when a
    /// session id is given).
    Stats {
        /// Optional session whose evaluation-cache hit/miss counters to
        /// include.
        session: Option<u64>,
    },
    /// Cheap load/session/journal health probe for orchestrators and
    /// load balancers (never sheds, never touches a session).
    Health,
    /// Close a session (journaled).
    Close {
        /// Target session.
        session: u64,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Bind an admission identity to this connection.
    Client {
        /// The caller-chosen client id.
        id: String,
    },
    /// Flip a replication standby into a primary (no-op when already
    /// primary).
    Promote,
}

/// The JSON type of an argument (and what a text token parses to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Str,
    /// A non-negative integer.
    Uint,
    Int,
}

impl Ty {
    fn describe(self) -> &'static str {
        match self {
            Ty::Str => "string",
            Ty::Uint => "non-negative integer",
            Ty::Int => "integer",
        }
    }

    /// The wire value of one text token, if it parses as this type.
    fn parse(self, token: &str) -> Option<Json> {
        match self {
            Ty::Str => Some(Json::str(token)),
            Ty::Uint => token.parse().ok().filter(|n| *n >= 0).map(Json::Int),
            Ty::Int => token.parse().ok().map(Json::Int),
        }
    }
}

/// Whether an argument may be left out: never, freely (the verb's field is
/// then `None`), or with this value filled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Need {
    Required,
    Optional,
    Default(i64),
}

/// One argument of a verb: a member of its request object and, unless the
/// caller supplies it, a word of its text line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arg {
    pub(crate) name: &'static str,
    pub(crate) ty: Ty,
    pub(crate) need: Need,
    /// On a text line this argument comes last and takes everything left,
    /// spaces included (`add <value…>`).
    pub(crate) rest: bool,
}

const fn arg(ty: Ty) -> Arg {
    Arg {
        name: "",
        ty,
        need: Need::Required,
        rest: false,
    }
}
const WORD: Arg = arg(Ty::Str);
const REST: Arg = Arg { rest: true, ..WORD };
const INT: Arg = arg(Ty::Int);
const UINT: Arg = arg(Ty::Uint);

impl Arg {
    const fn optional(self) -> Arg {
        Arg {
            need: Need::Optional,
            ..self
        }
    }

    const fn or(self, default: i64) -> Arg {
        Arg {
            need: Need::Default(default),
            ..self
        }
    }

    /// `session` and `seq` come from whoever holds the conversation (its
    /// current session, the retrying client's turn counter), never from a
    /// text line.
    fn supplied_by_caller(&self) -> bool {
        self.name == "session" || self.name == "seq"
    }

    /// Type-check a decoded member (or its absence) into the value the
    /// verb is built from; `Json::Null` stands for "absent".
    fn check(&self, found: Option<Json>) -> Result<Json, String> {
        let fits = |v: &Json| match (self.ty, v) {
            (Ty::Str, Json::Str(_)) | (Ty::Int, Json::Int(_)) => true,
            (Ty::Uint, Json::Int(n)) => *n >= 0,
            _ => false,
        };
        let (name, ty) = (self.name, self.ty.describe());
        match (found, self.need) {
            (Some(v), _) if fits(&v) => Ok(v),
            (None, Need::Optional) => Ok(Json::Null),
            (None, Need::Default(d)) => Ok(Json::Int(d)),
            (_, Need::Required) => Err(format!("missing {ty} member {name:?}")),
            (Some(_), _) => Err(format!("ill-typed member {name:?}: expected {ty}")),
        }
    }
}

/// The most arguments any verb takes (`session`, `seq` and two of its own).
const MAX_ARGS: usize = 4;

/// An argument slot before (or without) its value.
const ABSENT: Json = Json::Null;

/// One verb of the protocol: its wire name, its arguments in wire order,
/// and the three facts the server checks before running it.
/// [`COMMANDS`] is the complete, closed list — a description of the
/// protocol, not a registry to extend at run time.
pub struct Command {
    /// Wire name (the `op` member, and the first word of a text line).
    pub name: &'static str,
    pub(crate) args: &'static [Arg],
    /// A standby refuses it with `not_primary`.
    pub(crate) primary_only: bool,
    /// Cheap to retry: refused with `overloaded` while the backlog is
    /// saturated.
    pub(crate) sheddable: bool,
    /// Draws on the session's (and the identified client's) token bucket.
    pub(crate) rate_limited: bool,
    /// The verb from its checked argument values, in `args` order.
    build: fn([Json; MAX_ARGS]) -> Verb,
    /// The inverse: the argument values, if `verb` is this command's.
    parts: fn(&Verb) -> Option<Vec<Json>>,
}

/// A verb field as a wire value. `from_wire` only ever sees values
/// [`Arg::check`] or [`Ty::parse`] let through, so the fallbacks are
/// unreachable rather than lossy.
trait Wire: Sized {
    fn from_wire(v: Json) -> Self;
    fn to_wire(&self) -> Json;
}

impl Wire for String {
    fn from_wire(v: Json) -> String {
        match v {
            Json::Str(s) => s,
            _ => String::new(),
        }
    }
    fn to_wire(&self) -> Json {
        Json::str(self.as_str())
    }
}

macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn from_wire(v: Json) -> $int {
                v.as_i64().unwrap_or_default() as $int
            }
            fn to_wire(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
wire_int!(i64, u64, usize);

impl Wire for Option<u64> {
    fn from_wire(v: Json) -> Option<u64> {
        v.as_u64()
    }
    fn to_wire(&self) -> Json {
        self.map_or(Json::Null, |n| n.to_wire())
    }
}

/// One row of [`COMMANDS`]. The argument names double as the wire member
/// names, and the verb shape at the end is written once but used twice —
/// as the expression that builds the verb from its arguments and as the
/// pattern that takes it apart again — so the decoder and the encoder
/// cannot disagree on a field.
macro_rules! command {
    // A sequenced turn: `session` and the optional `seq` lead, and the
    // journaled operation carries the verb's own arguments.
    (turn $name:literal, ($($arg:ident: $kind:expr),*), $($op:tt)+) => {
        command!(
            $name, [primary_only, rate_limited],
            (session: UINT, seq: UINT.optional() $(, $arg: $kind)*),
            Verb::Apply { session, seq, op: $($op)+ }
        )
    };
    ($name:literal, [$($fact:ident),*], ($($arg:ident: $kind:expr),*), $($verb:tt)+) => {
        Command {
            name: $name,
            args: &[$(Arg { name: stringify!($arg), ..$kind }),*],
            $($fact: true,)*
            build: |vals| {
                let mut vals = vals.into_iter();
                $(let $arg = Wire::from_wire(vals.next().unwrap_or(Json::Null));)*
                $($verb)+
            },
            parts: |verb| match verb {
                $($verb)+ => Some(vec![$($arg.to_wire()),*]),
                _ => None,
            },
            ..NO_FACTS
        }
    };
}

const NO_FACTS: Command = Command {
    name: "",
    args: &[],
    primary_only: false,
    sheddable: false,
    rate_limited: false,
    build: |_| Verb::Ping,
    parts: |_| None,
};

/// Every verb of the protocol, in the order of the module docs' table.
// Rows without arguments leave the macro's `vals` iterator untouched.
#[allow(unused_mut, unused_variables)]
pub static COMMANDS: [Command; 22] = [
    command!("ping", [], (), Verb::Ping),
    command!("create", [primary_only], (), Verb::Create),
    command!(turn "add", (value: REST), SessionOp::AddExample(value)),
    command!(turn "remove", (value: REST), SessionOp::RemoveExample(value)),
    command!(turn "target", (table: WORD, column: REST), SessionOp::SetTarget { table, column }),
    command!(turn "auto", (), SessionOp::SetTargetAuto),
    command!(turn "pin", (key: REST), SessionOp::PinFilter(key)),
    command!(turn "ban", (key: REST), SessionOp::BanFilter(key)),
    command!(turn "unpin", (key: REST), SessionOp::UnpinFilter(key)),
    command!(turn "unban", (key: REST), SessionOp::UnbanFilter(key)),
    command!(turn "choose", (example: REST, pk: INT), SessionOp::ChooseEntity { example, pk }),
    command!(turn "unchoose", (example: REST), SessionOp::ClearChoice(example)),
    command!("suggest", [sheddable], (session: UINT, k: UINT.or(3)), Verb::Suggest { session, k }),
    command!("sql", [], (session: UINT), Verb::Sql { session }),
    command!("rows", [], (session: UINT, limit: UINT.or(10)), Verb::Rows { session, limit }),
    command!("examples", [], (session: UINT), Verb::Examples { session }),
    // Only the fleet-wide form is shed (see `server::admit`).
    command!("stats", [sheddable], (session: UINT.optional()), Verb::Stats { session }),
    command!("health", [], (), Verb::Health),
    command!("close", [primary_only], (session: UINT), Verb::Close { session }),
    command!("shutdown", [], (), Verb::Shutdown),
    command!("client", [], (client: REST), Verb::Client { id: client }),
    command!("promote", [], (), Verb::Promote),
];

impl Command {
    fn named(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }

    /// Arguments in text-line order: words first, the argument that takes
    /// the rest of the line last (`choose <pk> <example…>`); `session` and
    /// `seq` are not on the line at all.
    fn line_args(&self) -> impl Iterator<Item = (usize, &'static Arg)> {
        let on_line = |rest| {
            let args = self.args.iter().enumerate();
            args.filter(move |(_, a)| !a.supplied_by_caller() && a.rest == rest)
        };
        on_line(false).chain(on_line(true))
    }

    /// `choose <pk> <example…>`, `suggest [k]`.
    pub(crate) fn usage(&self) -> String {
        let mut usage = self.name.to_string();
        for (_, arg) in self.line_args() {
            let dots = if arg.rest { "…" } else { "" };
            usage += &match arg.need {
                Need::Required => format!(" <{}{dots}>", arg.name),
                _ => format!(" [{}{dots}]", arg.name),
            };
        }
        usage
    }
}

impl Verb {
    /// This verb's table row and argument values. `None` for the two
    /// journal-only operations (`SessionOp::Create`/`End`), which no
    /// request can carry.
    fn parts(&self) -> Option<(&'static Command, Vec<Json>)> {
        COMMANDS
            .iter()
            .find_map(|c| (c.parts)(self).map(|vals| (c, vals)))
    }

    /// The wire name of this verb (the `op` member of its response).
    pub fn name(&self) -> &'static str {
        self.parts().map_or("apply", |(c, _)| c.name)
    }

    /// The session this verb addresses, if it takes one.
    pub(crate) fn session(&self) -> Option<u64> {
        let (cmd, vals) = self.parts()?;
        let at = cmd.args.iter().position(|a| a.name == "session")?;
        vals[at].as_u64()
    }
}

/// Machine-stable error codes carried in `error.code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The JSON was well-formed but not a valid request (missing or
    /// ill-typed fields).
    BadRequest,
    /// The `op` member named no known verb.
    UnknownVerb,
    /// Request line exceeded the configured maximum (connection closes).
    LineTooLong,
    /// Request bytes were not UTF-8 (connection closes).
    InvalidUtf8,
    /// The session id is unknown, closed, or expired.
    UnknownSession,
    /// Admission control refused the work (connection backlog full, or a
    /// cheap verb shed under load); retry later or against another
    /// replica.
    Overloaded,
    /// The fleet-wide session cap is reached; `create` will succeed once
    /// a session closes or expires.
    SessionLimit,
    /// The session exceeded its per-session token-bucket rate limit;
    /// retry after the hinted delay.
    RateLimited,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The connection sat idle past the reaping deadline (closes).
    IdleTimeout,
    /// This node is a replication standby: reads are served, mutations
    /// must go to the primary named in the error's `primary` member.
    NotPrimary,
    /// The operation itself failed (discovery-level error, e.g. an
    /// example matching nothing); the session rolled back and is intact.
    Discovery,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::InvalidUtf8 => "invalid_utf8",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::SessionLimit => "session_limit",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::NotPrimary => "not_primary",
            ErrorCode::Discovery => "discovery",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A request that could not be decoded (the response still goes out).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The stable error code.
    pub code: ErrorCode,
    /// Human-readable description.
    pub detail: String,
    /// The request id, when one could be salvaged from the line.
    pub id: Option<i64>,
}

impl ProtocolError {
    fn new(code: ErrorCode, detail: impl Into<String>, id: Option<i64>) -> ProtocolError {
        ProtocolError {
            code,
            detail: detail.into(),
            id,
        }
    }
}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    decode(line).map(|(req, _)| req)
}

/// [`parse_request`], plus the table row it matched (the server's
/// admission facts ride on it).
pub(crate) fn decode(line: &str) -> Result<(Request, &'static Command), ProtocolError> {
    let mut v = json::parse(line)
        .map_err(|e| ProtocolError::new(ErrorCode::BadJson, e.to_string(), None))?;
    let id = v.get("id").and_then(Json::as_i64);
    let bad = |detail: String| ProtocolError::new(ErrorCode::BadRequest, detail, id);
    let Json::Obj(members) = &mut v else {
        return Err(bad("request must be a JSON object".into()));
    };
    let op = members.iter().find(|(k, _)| k == "op");
    let op = op
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| bad("missing string member \"op\"".into()))?;
    let cmd = Command::named(op).ok_or_else(|| {
        ProtocolError::new(ErrorCode::UnknownVerb, format!("unknown verb {op:?}"), id)
    })?;
    // One pass per argument over the parsed members; values move out of
    // the tree, so nothing is copied.
    let mut vals = [ABSENT; MAX_ARGS];
    for (slot, arg) in vals.iter_mut().zip(cmd.args) {
        let found = members.iter_mut().find(|(k, _)| k == arg.name);
        *slot = arg
            .check(found.map(|(_, v)| std::mem::replace(v, Json::Null)))
            .map_err(bad)?;
    }
    let verb = (cmd.build)(vals);
    Ok((Request { id, verb }, cmd))
}

/// Encode a request: `{"op":...,...args,"id"?}`, arguments in table order,
/// absent optional ones left out — the one encoder every in-tree client
/// sends through, and the inverse of [`parse_request`].
///
/// # Panics
///
/// On `Verb::Apply` carrying `SessionOp::Create` or `SessionOp::End`:
/// those are journal records, not requests (`create` and `close` are the
/// verbs).
pub fn encode_request(verb: &Verb, id: Option<i64>) -> Json {
    let (cmd, vals) = verb
        .parts()
        .expect("journal-only operations have no wire verb");
    let mut members = vec![("op", Json::str(cmd.name))];
    let args = cmd.args.iter().zip(vals);
    members.extend(
        args.filter(|(_, v)| *v != Json::Null)
            .map(|(a, v)| (a.name, v)),
    );
    if let Some(id) = id {
        members.push(("id", Json::Int(id)));
    }
    Json::obj(members)
}

/// Parse one line of the text grammar (module docs) into the verb it
/// names. `session` is the conversation's current session, if it has one:
/// it fills the `session` argument of every verb that takes one.
pub fn parse_line(line: &str, session: Option<u64>) -> Result<Verb, String> {
    fn split_word(text: &str) -> (&str, &str) {
        let (word, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
        (word, rest.trim_start())
    }
    let (name, mut left) = split_word(line.trim());
    let cmd = Command::named(name).ok_or_else(|| format!("unknown command {name:?}"))?;
    let usage = || format!("usage: {}", cmd.usage());
    let mut vals = [ABSENT; MAX_ARGS];
    if let Some(i) = cmd.args.iter().position(|a| a.name == "session") {
        vals[i] = cmd.args[i]
            .check(session.map(|s| s.to_wire()))
            .map_err(|_| "no session yet — `create` first".to_string())?;
    }
    for (i, arg) in cmd.line_args() {
        let token = if arg.rest {
            std::mem::take(&mut left)
        } else {
            let (token, rest) = split_word(left);
            left = rest;
            token
        };
        let parsed = match token {
            "" => None,
            token => Some(arg.ty.parse(token).ok_or_else(usage)?),
        };
        vals[i] = arg.check(parsed).map_err(|_| usage())?;
    }
    if !left.is_empty() {
        return Err(usage());
    }
    Ok((cmd.build)(vals))
}

/// Build a success response: `{"ok":true,"op":...,"id"?,...fields}`.
pub fn ok_response(op: &str, id: Option<i64>, fields: Vec<(String, Json)>) -> Json {
    let mut members = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str(op)),
    ];
    if let Some(id) = id {
        members.push(("id".to_string(), Json::Int(id)));
    }
    members.extend(fields);
    Json::Obj(members)
}

/// Build an error response: `{"ok":false,"id"?,"error":{...}}`. The two
/// optional extras ride inside `error`: `retry_after_ms`, the server's
/// estimate of when retrying will succeed (`overloaded`, `session_limit`,
/// `rate_limited`), and `primary`, the primary's client address on a
/// standby's `not_primary` refusal, so a failover-aware client can
/// redirect without re-resolving the topology out of band.
pub fn error_response(
    code: ErrorCode,
    detail: &str,
    id: Option<i64>,
    retry_after_ms: Option<u64>,
    primary: Option<&str>,
) -> Json {
    let mut members = vec![("ok".to_string(), Json::Bool(false))];
    if let Some(id) = id {
        members.push(("id".to_string(), Json::Int(id)));
    }
    let mut error = vec![
        ("code", Json::str(code.as_str())),
        ("detail", Json::str(detail)),
    ];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms", Json::Int(ms as i64)));
    }
    if let Some(primary) = primary {
        error.push(("primary", Json::str(primary)));
    }
    members.push(("error".to_string(), Json::obj(error)));
    Json::Obj(members)
}

impl From<&ProtocolError> for Json {
    fn from(e: &ProtocolError) -> Json {
        error_response(e.code, &e.detail, e.id, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-written request lines and the verbs they decode to.
    fn written_cases() -> Vec<(&'static str, Verb)> {
        vec![
            (r#"{"op":"ping"}"#, Verb::Ping),
            (r#"{"op":"create"}"#, Verb::Create),
            (
                r#"{"op":"add","session":3,"value":"Jim Carrey"}"#,
                Verb::Apply {
                    session: 3,
                    seq: None,
                    op: SessionOp::AddExample("Jim Carrey".into()),
                },
            ),
            (
                r#"{"op":"target","session":1,"table":"person","column":"name"}"#,
                Verb::Apply {
                    session: 1,
                    seq: None,
                    op: SessionOp::SetTarget {
                        table: "person".into(),
                        column: "name".into(),
                    },
                },
            ),
            (
                r#"{"op":"choose","session":1,"example":"Titanic","pk":-7}"#,
                Verb::Apply {
                    session: 1,
                    seq: None,
                    op: SessionOp::ChooseEntity {
                        example: "Titanic".into(),
                        pk: -7,
                    },
                },
            ),
            (
                r#"{"op":"suggest","session":2}"#,
                Verb::Suggest { session: 2, k: 3 },
            ),
            (
                r#"{"op":"rows","session":2,"limit":5}"#,
                Verb::Rows {
                    session: 2,
                    limit: 5,
                },
            ),
            (r#"{"op":"health"}"#, Verb::Health),
            (
                r#"{"op":"add","session":3,"value":"Jim Carrey","seq":7}"#,
                Verb::Apply {
                    session: 3,
                    seq: Some(7),
                    op: SessionOp::AddExample("Jim Carrey".into()),
                },
            ),
            (r#"{"op":"stats"}"#, Verb::Stats { session: None }),
            (
                r#"{"op":"stats","session":9}"#,
                Verb::Stats { session: Some(9) },
            ),
            (r#"{"op":"close","session":4}"#, Verb::Close { session: 4 }),
            (r#"{"op":"shutdown"}"#, Verb::Shutdown),
            (
                r#"{"op":"client","client":"loader-3"}"#,
                Verb::Client {
                    id: "loader-3".into(),
                },
            ),
            (r#"{"op":"promote"}"#, Verb::Promote),
        ]
    }

    #[test]
    fn parses_every_verb() {
        for (line, want) in written_cases() {
            let req = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(req.verb, want, "{line}");
        }
    }

    /// The text line of a verb (the inverse of [`parse_line`]; `seq` has no
    /// text form).
    fn render_line(verb: &Verb) -> String {
        let (cmd, vals) = verb.parts().expect("a wire verb");
        let mut line = cmd.name.to_string();
        for (i, _) in cmd.line_args() {
            match &vals[i] {
                Json::Str(s) => line += &format!(" {s}"),
                Json::Int(n) => line += &format!(" {n}"),
                _ => {}
            }
        }
        line
    }

    /// `verb` as the text grammar can say it: without its `seq`.
    fn unsequenced(verb: &Verb) -> Verb {
        match verb.clone() {
            Verb::Apply { session, op, .. } => Verb::Apply {
                session,
                op,
                seq: None,
            },
            other => other,
        }
    }

    /// Strings a JSON member can carry, tame to hostile. The first
    /// `LINE_SAFE` are also sayable as the last argument of a text line
    /// (trimmed, non-empty, one line) and the first `WORD_SAFE` as a word
    /// in the middle of one (no whitespace).
    const STRINGS: [&str; 10] = [
        "person",
        "tåble\\\"q\"",
        "東京",
        "Jim Carrey",
        "Robin \"Mork\" Williams \\ two\\\\",
        "Zoë  Saldaña — 東京 7",
        "",
        "  padded  ",
        "line\nbreak\ttab\u{1}",
        "\\",
    ];
    const WORD_SAFE: usize = 3;
    const LINE_SAFE: usize = 6;

    /// Every verb the table can build from the `n`-th choice of argument
    /// values: strings from the first `strings` of [`STRINGS`], integers
    /// from the edges of their ranges, optional arguments present on odd
    /// `n`.
    fn generated(n: usize, strings: usize, words: usize) -> Vec<(&'static Command, Verb)> {
        const UINTS: [i64; 4] = [0, 1, 77, i64::MAX];
        const INTS: [i64; 4] = [-7, 0, i64::MIN, i64::MAX];
        COMMANDS
            .iter()
            .map(|cmd| {
                let mut vals = [ABSENT; MAX_ARGS];
                for (i, arg) in cmd.args.iter().enumerate() {
                    let pick = n + i;
                    vals[i] = match (arg.ty, arg.need) {
                        (_, Need::Optional) if n.is_multiple_of(2) => ABSENT,
                        (Ty::Str, _) if arg.rest => Json::str(STRINGS[pick % strings]),
                        (Ty::Str, _) => Json::str(STRINGS[pick % words]),
                        (Ty::Uint, _) => Json::Int(UINTS[pick % UINTS.len()]),
                        (Ty::Int, _) => Json::Int(INTS[pick % INTS.len()]),
                    };
                }
                (cmd, (cmd.build)(vals))
            })
            .collect()
    }

    #[test]
    fn every_verb_round_trips_through_the_wire_and_the_text_grammar() {
        let mut verbs: Vec<Verb> = written_cases().into_iter().map(|(_, v)| v).collect();
        for n in 0..40 {
            for (cmd, verb) in generated(n, STRINGS.len(), STRINGS.len()) {
                assert_eq!(verb.name(), cmd.name);
                // Wire: encode, parse back, with and without an id.
                for id in [None, Some(0), Some(-3), Some(i64::MAX)] {
                    let line = encode_request(&verb, id).encode();
                    let back = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
                    assert_eq!(
                        back,
                        Request {
                            id,
                            verb: verb.clone()
                        },
                        "{line}"
                    );
                }
            }
            verbs.extend(
                generated(n, LINE_SAFE, WORD_SAFE)
                    .into_iter()
                    .map(|(_, v)| v),
            );
        }
        assert!(verbs.len() > 22 * 40);
        for verb in verbs {
            let line = encode_request(&verb, None).encode();
            assert_eq!(
                parse_request(&line).map(|r| r.verb),
                Ok(verb.clone()),
                "{line}"
            );
            // Text: render, parse back in the verb's own session.
            let text = render_line(&verb);
            assert_eq!(
                parse_line(&text, verb.session()),
                Ok(unsequenced(&verb)),
                "{text:?}"
            );
        }
    }

    #[test]
    fn the_encoder_writes_what_the_clients_always_sent() {
        // `op`, `session`, `seq`, the verb's own arguments, `id`; absent
        // optional members are left out.
        let turn = Verb::Apply {
            session: 4,
            seq: Some(2),
            op: SessionOp::ChooseEntity {
                example: "Jim \"C\"".into(),
                pk: -1,
            },
        };
        assert_eq!(
            encode_request(&turn, Some(9)).encode(),
            r#"{"op":"choose","session":4,"seq":2,"example":"Jim \"C\"","pk":-1,"id":9}"#
        );
        assert_eq!(
            encode_request(&unsequenced(&turn), None).encode(),
            r#"{"op":"choose","session":4,"example":"Jim \"C\"","pk":-1}"#
        );
        assert_eq!(
            encode_request(&Verb::Stats { session: None }, None).encode(),
            r#"{"op":"stats"}"#
        );
        assert_eq!(
            encode_request(&Verb::Suggest { session: 1, k: 3 }, None).encode(),
            r#"{"op":"suggest","session":1,"k":3}"#
        );
    }

    #[test]
    fn optional_members_are_typed_not_defaulted() {
        // Present but ill-typed: a bad_request naming the member, never a
        // silent fallback to "absent" (which turned an exactly-once turn
        // into an unsequenced one).
        for (line, member) in [
            (r#"{"op":"add","session":1,"value":"x","seq":"7"}"#, "seq"),
            (r#"{"op":"add","session":1,"value":"x","seq":7.0}"#, "seq"),
            (r#"{"op":"add","session":1,"value":"x","seq":-1}"#, "seq"),
            (r#"{"op":"add","session":1,"value":"x","seq":null}"#, "seq"),
            (r#"{"op":"auto","session":1,"seq":[7]}"#, "seq"),
            (r#"{"op":"suggest","session":1,"k":"two"}"#, "k"),
            (r#"{"op":"suggest","session":1,"k":-2}"#, "k"),
            (r#"{"op":"rows","session":1,"limit":2.5}"#, "limit"),
            (r#"{"op":"stats","session":"nine"}"#, "session"),
            (r#"{"op":"stats","session":-9,"id":4}"#, "session"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(
                err.detail.contains(&format!("{member:?}")),
                "{line}: {}",
                err.detail
            );
        }
        // Absent still means the default.
        let req = parse_request(r#"{"op":"rows","session":1}"#).unwrap();
        assert_eq!(
            req.verb,
            Verb::Rows {
                session: 1,
                limit: 10
            }
        );
    }

    #[test]
    fn the_text_grammar_reports_usage_instead_of_guessing() {
        let s = Some(1);
        for (line, usage) in [
            ("suggest abc", "usage: suggest [k]"),
            ("suggest -1", "usage: suggest [k]"),
            ("rows x", "usage: rows [limit]"),
            ("rows 1 2", "usage: rows [limit]"),
            ("add", "usage: add <value…>"),
            ("target person", "usage: target <table> <column…>"),
            ("choose Jim Carrey", "usage: choose <pk> <example…>"),
            ("choose 1", "usage: choose <pk> <example…>"),
            ("auto now", "usage: auto"),
            ("client", "usage: client <client…>"),
        ] {
            assert_eq!(parse_line(line, s), Err(usage.to_string()), "{line:?}");
        }
        assert_eq!(
            parse_line("frobnicate 1", s),
            Err("unknown command \"frobnicate\"".to_string())
        );
        // Session-scoped verbs need a session to address; fleet verbs don't.
        assert!(parse_line("sql", None)
            .unwrap_err()
            .contains("no session yet"));
        assert!(parse_line("add Jim Carrey", None).is_err());
        assert_eq!(parse_line("stats", None), Ok(Verb::Stats { session: None }));
        assert_eq!(parse_line("stats", s), Ok(Verb::Stats { session: s }));
        assert_eq!(parse_line("create", None), Ok(Verb::Create));
        // Words, then the rest of the line with its inner spaces intact.
        assert_eq!(
            parse_line("  choose   -3   Jim  Carrey ", s),
            Ok(Verb::Apply {
                session: 1,
                seq: None,
                op: SessionOp::ChooseEntity {
                    example: "Jim  Carrey".into(),
                    pk: -3,
                },
            })
        );
        assert_eq!(
            parse_line("suggest", s),
            Ok(Verb::Suggest { session: 1, k: 3 })
        );
    }

    #[test]
    fn the_prose_lists_every_verb() {
        // README's Serving section and this module's grammar table are
        // written by hand; hold them to the table.
        let readme = include_str!("../../../README.md");
        let listed = readme
            .split("\nVerbs: ")
            .nth(1)
            .and_then(|rest| rest.split('.').next())
            .expect("README's Serving section lists the verbs");
        let source = include_str!("protocol.rs");
        for cmd in &COMMANDS {
            assert!(
                listed.contains(&format!("`{}`", cmd.name)),
                "README's verb list lacks `{}`",
                cmd.name
            );
            let row = source
                .lines()
                .find(|l| l.starts_with(&format!("//! | `{}` ", cmd.name)))
                .unwrap_or_else(|| panic!("the module docs' table lacks `{}`", cmd.name));
            for arg in cmd.args.iter().filter(|a| a.name != "seq") {
                assert!(
                    row.contains(&format!("`{}`", arg.name)),
                    "the module docs' row for `{}` lacks `{}`",
                    cmd.name,
                    arg.name
                );
            }
        }
        assert_eq!(
            source.lines().filter(|l| l.starts_with("//! | `")).count(),
            COMMANDS.len(),
            "the module docs' table has a row the command table lacks"
        );
    }

    #[test]
    fn request_id_is_salvaged_into_errors() {
        let req = parse_request(r#"{"op":"sql","session":1,"id":77}"#).unwrap();
        assert_eq!(req.id, Some(77));
        let err = parse_request(r#"{"op":"sql","id":78}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.id, Some(78));
        let err = parse_request(r#"{"op":"frobnicate","id":79}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownVerb);
        assert_eq!(err.id, Some(79));
    }

    #[test]
    fn malformed_requests_error_with_stable_codes() {
        assert_eq!(
            parse_request("not json").unwrap_err().code,
            ErrorCode::BadJson
        );
        assert_eq!(
            parse_request("[1,2]").unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"noop":true}"#).unwrap_err().code,
            ErrorCode::BadRequest
        );
        // Ill-typed session (string instead of int).
        assert_eq!(
            parse_request(r#"{"op":"sql","session":"three"}"#)
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        // Negative session ids are ill-typed, not a lookup miss.
        assert_eq!(
            parse_request(r#"{"op":"sql","session":-4}"#)
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn responses_render_deterministically() {
        let ok = ok_response("add", Some(5), vec![("rows".into(), Json::Int(12))]);
        assert_eq!(ok.encode(), r#"{"ok":true,"op":"add","id":5,"rows":12}"#);
        let err = error_response(
            ErrorCode::UnknownSession,
            "unknown or expired session 9",
            None,
            None,
            None,
        );
        assert_eq!(
            err.encode(),
            r#"{"ok":false,"error":{"code":"unknown_session","detail":"unknown or expired session 9"}}"#
        );
    }

    #[test]
    fn backpressure_errors_carry_a_retry_hint() {
        let err = error_response(
            ErrorCode::RateLimited,
            "session 4 over budget",
            None,
            Some(250),
            None,
        );
        assert_eq!(
            err.encode(),
            r#"{"ok":false,"error":{"code":"rate_limited","detail":"session 4 over budget","retry_after_ms":250}}"#
        );
        assert_eq!(ErrorCode::SessionLimit.as_str(), "session_limit");
        assert_eq!(ErrorCode::RateLimited.as_str(), "rate_limited");
    }

    #[test]
    fn not_primary_carries_the_failover_hint() {
        let err = error_response(
            ErrorCode::NotPrimary,
            "standby refuses mutations",
            Some(3),
            None,
            Some("10.0.0.1:7500"),
        );
        assert_eq!(
            err.encode(),
            r#"{"ok":false,"id":3,"error":{"code":"not_primary","detail":"standby refuses mutations","primary":"10.0.0.1:7500"}}"#
        );
        // A standby that has not yet learned its primary's client address
        // still refuses with the stable code, just without the hint.
        let bare = error_response(
            ErrorCode::NotPrimary,
            "standby refuses mutations",
            None,
            None,
            None,
        );
        assert!(bare.encode().contains(r#""code":"not_primary""#));
        assert!(!bare.encode().contains("primary\":"));
    }
}
