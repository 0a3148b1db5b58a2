//! # squid-serve
//!
//! The TCP serving frontend of the SQuID fleet engine: a hand-rolled
//! [`std::net::TcpListener`] server (no crates.io dependencies) speaking
//! a newline-delimited JSON protocol that maps 1:1 onto the
//! [`squid_core::SquidSession`] API, plus the clients that drive it and
//! the chaos harness that holds it to its durability promises.
//!
//! The design premise (Polynesia's lesson, via the Cambridge Report): the
//! interactive frontend is co-designed with the analytical core, so a
//! network turn costs what a [`squid_core::DiscoveryDelta`] costs — the
//! incremental session path, the fleet's evaluation cache, and the
//! journal all sit directly behind the socket, and the protocol exposes
//! their evidence (`incremental`, cache counters, recovery stats) so
//! clients and CI can hold the server to it.
//!
//! - [`json`]: minimal std-only JSON encode/parse (the wire format).
//! - [`protocol`]: the command table — every verb, its arguments and its
//!   admission facts, once — with the request decoder, the request
//!   encoder and the text grammar that walk it, and stable error codes.
//! - [`server`]: listener + fixed worker pool, admission control,
//!   rate limiting and load shedding, timeouts/reaping, graceful drain.
//! - [`client`]: blocking lock-step client.
//! - [`repl`]: the one line loop of `squid --repl` and
//!   `squid-serve --client`, over an in-process transport (a
//!   [`squid_core::SessionManager`] answered through the server's
//!   dispatcher) or a [`RetryClient`]; every reply is printed as the JSON
//!   line the wire carries.
//! - [`dataset`]: the bundled datasets by name and the snapshot-or-build
//!   αDB start-up both binaries share.
//! - [`retry`]: resilient client wrapper — backoff + jitter, reconnect
//!   with session re-adoption, sequence-numbered exactly-once turns.
//! - [`proxy`]: std-only fault-injecting TCP proxy (delay, drop,
//!   truncate, sever) for chaos tests.
//! - [`chaos`]: the `--chaos` harness — one SIGKILL loop under retrying
//!   clients asserting zero acknowledged-turn loss, over one node
//!   relaunched on its journal or (`--standby`) a replicated pair whose
//!   standby is promoted at every kill.
//! - [`replication`]: warm-standby journal streaming — snapshot
//!   bootstrap, record shipping with acks and lag accounting, and the
//!   promotion latch behind the `promote` verb / SIGUSR1.
//!
//! ```no_run
//! use std::sync::Arc;
//! use squid_adb::{test_fixtures, ADb};
//! use squid_core::SessionManager;
//! use squid_serve::{Client, ServeConfig, Server};
//!
//! let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
//! let server = Server::start(
//!     Arc::new(SessionManager::new(adb)),
//!     ServeConfig::default(),
//! ).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let sid = client.create().unwrap();
//! client.add(sid, "Jim Carrey").unwrap();
//! client.add(sid, "Eddie Murphy").unwrap();
//! println!("{}", client.sql(sid).unwrap().unwrap());
//! client.close(sid).unwrap();
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod dataset;
pub mod json;
pub mod protocol;
pub mod proxy;
pub mod repl;
pub mod replication;
pub mod retry;
pub mod server;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use client::{Client, ClientError};
pub use dataset::acquire_adb;
pub use json::Json;
pub use protocol::{encode_request, parse_line, parse_request, ErrorCode, Request, Verb};
pub use proxy::{FaultProxy, FaultRule};
pub use repl::Transport;
pub use replication::{fetch_adb, ReplState, Role};
pub use retry::{RetryClient, RetryCounters, RetryPolicy};
pub use server::{RateLimit, ServeConfig, Server, ServerMetrics, ShutdownReport};
