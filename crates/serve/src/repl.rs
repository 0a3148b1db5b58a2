//! The one line loop of the text front ends: `squid --repl` drives it over
//! a local [`SessionManager`], `squid-serve --client` over a
//! [`RetryClient`], and both print every reply as the JSON line the wire
//! carries.
//!
//! A line is a verb in the protocol's text grammar
//! ([`crate::protocol::parse_line`]), a word the front end answers itself
//! ([`Transport::local`]), `help` (the usage lines of [`COMMANDS`] and of
//! the local words), or `quit`. Blank lines and `#` comments are skipped.
//! The current session is the one the last `create` reply named. In batch
//! mode the first failed line ends the run with its line number; otherwise
//! the loop prompts on stderr and reports failures there.

use std::io::{BufRead, Write};

use squid_core::SessionManager;

use crate::client::ClientError;
use crate::json::Json;
use crate::protocol::{self, Verb, COMMANDS};
use crate::retry::RetryClient;
use crate::server;

/// Where a front end's verbs are answered.
pub trait Transport {
    /// Answer one verb: the reply the wire carries, or why there is none.
    fn send(&mut self, verb: Verb) -> Result<Json, ClientError>;

    /// Usage lines of the words this front end answers itself.
    fn local_usage(&self) -> &[&str] {
        &[]
    }

    /// Answer `word` (with the rest of its line) if it is one of this
    /// front end's own; `None` hands the line to the protocol grammar.
    fn local(
        &mut self,
        _word: &str,
        _rest: &str,
        _session: &mut Option<u64>,
    ) -> Option<Result<(), String>> {
        None
    }
}

/// The in-process transport: the verbs a session manager answers on its
/// own, through the server's dispatcher, with the server's reply bytes.
impl Transport for SessionManager {
    fn send(&mut self, verb: Verb) -> Result<Json, ClientError> {
        match server::answer(self, &verb) {
            Ok(fields) => Ok(protocol::ok_response(verb.name(), None, fields)),
            Err(r) => Err(ClientError::Server {
                code: r.code.as_str().to_string(),
                detail: r.detail,
                retry_after_ms: r.retry_after_ms,
                primary: r.primary,
            }),
        }
    }
}

/// Over the wire: turns are sequenced, so a retried one applies once.
impl Transport for RetryClient {
    fn send(&mut self, verb: Verb) -> Result<Json, ClientError> {
        RetryClient::send(self, verb)
    }
}

/// Run the loop over `input` until it ends or says `quit`, starting in
/// `session`. Replies go to `out`; prompts and (outside batch mode)
/// failures go to `err`. In batch mode the first failed line is the
/// `Err`, naming its line number.
pub fn run(
    t: &mut dyn Transport,
    mut session: Option<u64>,
    input: impl BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
    batch: bool,
) -> Result<(), String> {
    if !batch {
        let _ = writeln!(err, "type `help` for commands, `quit` to exit");
    }
    let prompt = |err: &mut dyn Write| {
        if !batch {
            let _ = write!(err, "squid> ");
            let _ = err.flush();
        }
    };
    prompt(err);
    for (n, line) in input.lines().enumerate() {
        let Ok(line) = line else { break };
        let line = line.trim();
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let outcome = match word {
            "" => Ok(()),
            _ if word.starts_with('#') => Ok(()),
            "quit" | "exit" => break,
            "help" => {
                let verbs = COMMANDS.iter().map(|c| c.usage());
                let local = t.local_usage().iter().map(|u| u.to_string());
                for usage in verbs.chain(local).chain(["help".into(), "quit".into()]) {
                    let _ = writeln!(out, "  {usage}");
                }
                Ok(())
            }
            _ => match t.local(word, rest.trim(), &mut session) {
                Some(done) => done,
                None => protocol::parse_line(line, session)
                    .map_err(|msg| format!("{msg} — try `help`"))
                    .and_then(|verb| t.send(verb).map_err(|e| e.to_string()))
                    .map(|reply| {
                        let _ = writeln!(out, "{}", reply.encode());
                        if let Some(sid) = reply.get("session").and_then(Json::as_u64) {
                            session = Some(sid);
                        }
                    }),
            },
        };
        if let Err(msg) = outcome {
            if batch {
                return Err(format!("line {}: command {line:?} failed: {msg}", n + 1));
            }
            let _ = writeln!(err, "error: {msg}");
        }
        prompt(err);
    }
    Ok(())
}
