//! `squid` — command-line query intent discovery over the bundled
//! synthetic datasets.
//!
//! One-shot mode (classic):
//!
//! ```text
//! squid imdb "Person 000121" "Person 000620"
//! squid --normalized imdb "Person 000019" "Person 000026"
//! squid --alternatives 3 --recommend 5 dblp "Author 00012" "Author 00044"
//! ```
//!
//! Interactive session mode (`--repl`): drop examples in one at a time and
//! watch the abduced query refine after each, Figure 1 style. `--batch`
//! reads the same commands from stdin without prompts (for scripting and
//! CI) and exits non-zero on the first failed command.
//!
//! ```text
//! squid --repl imdb
//! squid> add Person 000121
//! squid> add Person 000620
//! squid> show
//! printf 'add Person 000121\nadd Person 000620\nsql\n' | squid --repl --batch imdb
//! ```
//!
//! Durability: `--snapshot <path>` loads the αDB from a snapshot file when
//! present (falling back to a generator rebuild on any corruption) and
//! saves one after building; `--journal <path>` records every session
//! mutation so a killed REPL relaunched with the same flags resumes
//! exactly where the journal ends.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;

use squid_adb::ADb;
use squid_core::{
    recommend_examples, top_k_queries, Discovery, DiscoveryDelta, FsyncPolicy, SessionId,
    SessionManager, SessionOp, Squid, SquidParams, SquidSession,
};
use squid_serve::{acquire_adb, parse_line, Verb};

const USAGE: &str = "\
usage: squid [flags] <dataset> <example>...
       squid --repl [--batch] [flags] <dataset> [example]...
datasets: imdb | dblp | adult
flags:
  --normalized        use normalized association strength (case-study mode)
  --optimistic        QRE preset (closed-world reverse engineering)
  --alternatives <k>  also print the k best alternative queries
  --recommend <k>     suggest k informative next examples
  --rho <x>           override the base filter prior
  --repl              interactive session mode (incremental discovery)
  --batch             with --repl: read commands from stdin, no prompts,
                      exit non-zero on the first failed command
  --snapshot <path>   load the αDB from this snapshot if present (corrupt
                      or missing -> rebuild from generators and save)
  --journal <path>    journal session mutations; on start, recover the
                      sessions the journal holds (REPL mode)
  --fsync <mode>      journal durability: always | flush (default) | never";

const REPL_HELP: &str = "\
session commands:
  add <example>        add one example value (query refines incrementally)
  remove <example>     remove a previously added example
  target <tbl> <col>   fix the projection target (disables inference)
  auto                 return to automatic target inference
  pin <prop|attr>      force matching filters INTO the query
  ban <prop|attr>      force matching filters OUT of the query
  unpin <prop|attr>    drop a pin
  unban <prop|attr>    drop a ban
  choose <pk> <ex>     resolve example <ex> to the entity with key <pk>
  unchoose <ex>        clear disambiguation feedback for <ex>
  show                 print the current abduction decisions and query
  sql                  print the abduced SQL only
  rows [n]             print up to n result tuples (default 10)
  suggest [k]          k most informative next examples (default 3)
  examples             list the session's examples
  stats                evaluation-cache counters (this session's and the
                       fleet's), resident bytes, evictions, the αDB's heap
                       bytes, recovery and journal statistics
  save [path]          write an αDB snapshot (default: the --snapshot path)
  recover              rewind to the journal's durable state (--journal)
  compact              rewrite the journal to live-session snapshots
                       (bounds recovery time; --journal)
  help                 this text
  quit                 exit";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = SquidParams::default();
    let mut alternatives = 0usize;
    let mut recommend = 0usize;
    let mut repl = false;
    let mut batch = false;
    let mut snapshot: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Flush;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--normalized" => params = SquidParams::normalized(),
            "--optimistic" => params = SquidParams::optimistic(),
            "--repl" => repl = true,
            "--batch" => batch = true,
            "--snapshot" => {
                snapshot = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--snapshot needs a path")),
                ))
            }
            "--journal" => {
                journal = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--journal needs a path")),
                ))
            }
            "--fsync" => {
                fsync = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--fsync needs one of: always | flush | never"))
            }
            "--alternatives" => {
                alternatives = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--alternatives needs a number"))
            }
            "--recommend" => {
                recommend = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--recommend needs a number"))
            }
            "--rho" => {
                params.rho = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--rho needs a number"))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => positional.push(other.to_string()),
        }
    }
    let min_positional = if repl { 1 } else { 2 };
    if positional.len() < min_positional {
        die::<()>(USAGE);
        return;
    }
    let dataset = positional.remove(0);
    let examples: Vec<&str> = positional.iter().map(String::as_str).collect();

    if !["imdb", "dblp", "adult"].contains(&dataset.as_str()) {
        die::<()>(&format!("unknown dataset {dataset:?}\n{USAGE}"));
        return;
    }
    let adb = acquire_adb(&dataset, snapshot.as_deref()).unwrap_or_else(|e| die(&e));

    if repl {
        run_repl(
            Arc::new(adb),
            params,
            &examples,
            batch,
            snapshot,
            journal,
            fsync,
        );
        return;
    }

    let squid = Squid::with_params(&adb, params);
    let d = match squid.discover(&examples) {
        Ok(d) => d,
        Err(e) => {
            die::<()>(&format!("discovery failed: {e}"));
            return;
        }
    };
    println!(
        "resolved {} example(s) in {}.{} ({:?})",
        d.example_rows.len(),
        d.entity_table,
        d.projection_column,
        d.elapsed
    );
    print_decisions(&d);
    println!("\nabduced query:\n{}", d.sql());
    println!("\nresult: {} tuples", d.rows.len());
    print_rows(&adb, &d, 10);

    if alternatives > 0 {
        println!("\ntop-{alternatives} alternative queries (log-posterior):");
        for (i, alt) in top_k_queries(&d.scored, alternatives + 1)
            .iter()
            .enumerate()
            .skip(1)
        {
            let filters: Vec<String> = alt
                .included_indices()
                .iter()
                .map(|&j| d.scored[j].filter.describe())
                .collect();
            println!(
                "  {i}. {:.3}: {{{}}}",
                alt.log_posterior,
                filters.join(", ")
            );
        }
    }

    if recommend > 0 {
        let entity = adb.entity(&d.entity_table).expect("entity");
        println!();
        print_recommendations(
            &adb,
            &d,
            &recommend_examples(entity, &d, recommend, squid_core::DEFAULT_MIN_UNCERTAINTY),
        );
    }
}

/// Journal-and-apply one mutating REPL command through the manager.
fn apply(
    m: &SessionManager,
    id: SessionId,
    op: SessionOp,
) -> Result<Option<DiscoveryDelta>, String> {
    m.apply_op(id, &op).map_err(|e| e.to_string())
}

/// Run a read-only closure against the active session.
fn inspect<T>(
    m: &SessionManager,
    id: SessionId,
    f: impl FnOnce(&mut SquidSession<'static>) -> T,
) -> Result<T, String> {
    m.with_session(id, |s| Ok(f(s))).map_err(|e| e.to_string())
}

/// Resume the newest journaled session, or open a fresh one.
fn pick_session(m: &SessionManager, batch: bool) -> SessionId {
    match m.session_ids().last() {
        Some(&id) => {
            if !batch {
                eprintln!("resuming recovered session {id}");
            }
            id
        }
        None => m.create_session(),
    }
}

/// Drive a managed [`SquidSession`] fleet from stdin commands. Every
/// mutating command goes through [`SessionManager::apply_op`], so with
/// `--journal` the whole interaction is durable: a killed REPL relaunched
/// with the same flags replays the journal and resumes the newest session.
/// In batch mode any failed command aborts with a non-zero exit and the
/// failing input line number, so scripted runs (CI) catch rot.
fn run_repl(
    adb: Arc<ADb>,
    params: SquidParams,
    initial: &[&str],
    batch: bool,
    snapshot: Option<PathBuf>,
    journal: Option<PathBuf>,
    fsync: FsyncPolicy,
) {
    // The manager is the production concurrency layer; a REPL drives a
    // fleet of one but stays on the same evaluation cache and journaling
    // path a serving deployment uses.
    let mut manager = SessionManager::with_params(Arc::clone(&adb), params.clone());
    if let Some(jp) = &journal {
        match manager.recover(jp, fsync) {
            Ok(st) => {
                if st.records_applied > 0 || st.bytes_truncated > 0 {
                    eprintln!(
                        "journal {}: replayed {} session(s), {} record(s) applied, \
                         {} failed, {} damaged byte(s) truncated, {} live",
                        jp.display(),
                        st.sessions_replayed,
                        st.records_applied,
                        st.records_failed,
                        st.bytes_truncated,
                        st.live_sessions
                    );
                }
            }
            Err(e) => {
                die::<()>(&format!("journal {} unusable: {e}", jp.display()));
                return;
            }
        }
    }
    let mut active = pick_session(&manager, batch);
    for e in initial {
        match apply(&manager, active, SessionOp::AddExample((*e).to_string())) {
            Ok(Some(delta)) => print_delta(e, &delta),
            Ok(None) => {}
            Err(err) => {
                die::<()>(&format!("initial example {e:?} failed: {err}"));
                return;
            }
        }
    }
    if !batch {
        eprintln!("interactive session — type `help` for commands, `quit` to exit");
    }
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut line_no = 0usize;
    loop {
        if !batch {
            eprint!("squid> ");
        }
        let Some(Ok(line)) = lines.next() else {
            break;
        };
        line_no += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let mut added = false;
        let result: Result<Option<DiscoveryDelta>, String> = match cmd {
            "quit" | "exit" => break,
            "help" => {
                println!("{REPL_HELP}");
                Ok(None)
            }
            "show" => inspect(&manager, active, |s| match s.discovery() {
                Some(d) => {
                    println!(
                        "target {}.{} — {} example(s), {} result tuples",
                        d.entity_table,
                        d.projection_column,
                        d.example_rows.len(),
                        d.rows.len()
                    );
                    print_decisions(d);
                    println!("\nabduced query:\n{}", d.sql());
                }
                None => println!("(no examples yet)"),
            })
            .map(|()| None),
            "save" => {
                let path = if rest.is_empty() {
                    snapshot.clone()
                } else {
                    Some(PathBuf::from(rest))
                };
                match path {
                    Some(p) => match adb.save_snapshot(&p) {
                        Ok(bytes) => {
                            println!("snapshot saved to {} ({bytes} bytes)", p.display());
                            Ok(None)
                        }
                        Err(e) => Err(format!("snapshot save to {} failed: {e}", p.display())),
                    },
                    None => Err("usage: save <path> (or pass --snapshot)".into()),
                }
            }
            "recover" => match &journal {
                Some(jp) => {
                    // Flush our own tail to the OS first so the re-read
                    // sees everything this process has appended, then
                    // rebuild a fresh fleet from the durable bytes. This
                    // is the in-process equivalent of kill + relaunch.
                    let _ = manager.journal_sync();
                    let fresh = SessionManager::with_params(Arc::clone(&adb), params.clone());
                    match fresh.recover(jp, fsync) {
                        Ok(st) => {
                            println!(
                                "recovered {} session(s) from {} ({} record(s) applied, \
                                 {} failed, {} damaged byte(s) truncated)",
                                st.live_sessions,
                                jp.display(),
                                st.records_applied,
                                st.records_failed,
                                st.bytes_truncated
                            );
                            manager = fresh;
                            active = pick_session(&manager, batch);
                            Ok(None)
                        }
                        Err(e) => Err(format!("recover from {} failed: {e}", jp.display())),
                    }
                }
                None => Err("no journal attached (pass --journal <path>)".into()),
            },
            "compact" => match manager.compact_journal() {
                Ok(Some(cs)) => {
                    println!(
                        "journal compacted: {} session(s) snapshotted into {} record(s), \
                         {} -> {} bytes",
                        cs.sessions, cs.records_written, cs.bytes_before, cs.bytes_after
                    );
                    Ok(None)
                }
                Ok(None) => Err("no journal attached (pass --journal <path>)".into()),
                Err(e) => Err(format!("journal compaction failed: {e}")),
            },
            // Everything else is a verb of the serving protocol, in its
            // one text grammar; the session-scoped ones run locally.
            _ => match parse_line(line, Some(active)) {
                Ok(Verb::Apply { op, .. }) => {
                    added = matches!(op, SessionOp::AddExample(_));
                    apply(&manager, active, op)
                }
                Ok(Verb::Stats { .. }) => inspect(&manager, active, |s| s.cache_stats()).map(|s| {
                    print_stats(&adb, &manager, &s);
                    None
                }),
                Ok(verb) => inspect(&manager, active, |s| print_read(&adb, s, &verb))
                    .and_then(|answered| answered.map(|()| None)),
                Err(msg) => Err(format!("{msg} — try `help`")),
            },
        };
        match result {
            Ok(Some(delta)) => {
                print_delta(cmd, &delta);
                // Figure-1 loop closed end to end: after each add, hint at
                // the example whose confirmation would sharpen abduction
                // the most (full list via the `suggest` command).
                if added && delta.discovery.is_some() {
                    let _ = inspect(&manager, active, |s| print_hint(&adb, s));
                }
            }
            Ok(None) => {}
            Err(msg) => {
                if batch {
                    die::<()>(&format!("line {line_no}: command {line:?} failed: {msg}"));
                    return;
                }
                eprintln!("error: {msg}");
            }
        }
    }
    // Push any buffered journal tail to the OS before exiting cleanly.
    let _ = manager.journal_sync();
}

/// Answer one read-only verb from the local session; `Err` for the verbs
/// only a server can answer.
fn print_read(adb: &ADb, s: &SquidSession, verb: &Verb) -> Result<(), String> {
    match (verb, s.discovery()) {
        (Verb::Examples { .. }, _) => println!("examples: {:?}", s.examples()),
        (Verb::Suggest { .. } | Verb::Sql { .. } | Verb::Rows { .. }, None) => {
            println!("(no examples yet)")
        }
        (Verb::Suggest { k, .. }, Some(_)) => print_suggestions(adb, s, *k),
        (Verb::Sql { .. }, Some(d)) => println!("{}", d.sql()),
        (Verb::Rows { limit, .. }, Some(d)) => {
            println!("result: {} tuples", d.rows.len());
            print_rows(adb, d, *limit);
        }
        (other, _) => {
            let name = other.name();
            return Err(format!("`{name}` only means something to squid-serve"));
        }
    }
    Ok(())
}

/// The REPL's `stats` report: the session's and the fleet's
/// evaluation-cache counters, the αDB's heap bytes by part, recovery and
/// journal statistics.
fn print_stats(adb: &ADb, manager: &SessionManager, s: &squid_core::EvalCacheStats) {
    let total = s.hits + s.misses;
    let rate = if total > 0 {
        100.0 * s.hits as f64 / total as f64
    } else {
        0.0
    };
    println!(
        "evaluation cache (this session): {} hits / {} misses ({rate:.0}% hit rate)",
        s.hits, s.misses
    );
    if let Some(sh) = manager.shared_cache_stats() {
        let occupied = sh
            .per_shard_resident_bytes
            .iter()
            .filter(|&&b| b > 0)
            .count();
        println!(
            "shared cache: {} hits / {} misses ({:.0}% hit rate), {} entries, \
             {} / {} bytes across {} of {} shards, {} evicted",
            sh.hits,
            sh.misses,
            100.0 * sh.hit_rate(),
            sh.entries,
            sh.resident_bytes,
            sh.max_resident_bytes,
            occupied,
            sh.per_shard_resident_bytes.len(),
            sh.evictions
        );
        let nshards = sh.per_shard_hits.len();
        let warm = (0..nshards)
            .filter(|&i| sh.per_shard_hits[i] + sh.per_shard_misses[i] > 0)
            .count();
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for i in 0..nshards {
            if sh.per_shard_hits[i] + sh.per_shard_misses[i] > 0 {
                let r = sh.shard_hit_rate(i);
                lo = lo.min(r);
                hi = hi.max(r);
            }
        }
        let peak_of_peaks = sh.per_shard_peak_resident_bytes.iter().max().copied();
        println!(
            "shared warm-start: {warm} of {nshards} shards touched \
             (hit rate {}–{}%), peak {} bytes resident \
             (hottest shard {} bytes)",
            if warm > 0 {
                format!("{:.0}", 100.0 * lo)
            } else {
                "0".into()
            },
            if warm > 0 {
                format!("{:.0}", 100.0 * hi)
            } else {
                "0".into()
            },
            sh.peak_resident_bytes,
            peak_of_peaks.unwrap_or(0),
        );
    }
    let heap = adb.heap_bytes();
    println!(
        "αDB heap (estimated bytes): tables {}, inverted index {}, statistics {}, \
         derived relations {}",
        heap.tables, heap.inverted, heap.stats, heap.derived
    );
    if let Some(rs) = manager.recover_stats() {
        println!(
            "recovery: {} session(s) replayed, {} record(s) applied, \
             {} failed, {} damaged byte(s) truncated, {} journal write error(s)",
            rs.sessions_replayed,
            rs.records_applied,
            rs.records_failed,
            rs.bytes_truncated,
            manager.journal_write_errors()
        );
    }
    if let Some(js) = manager.journal_stats() {
        println!(
            "journal: {} bytes at {} ({} base + {} tail record(s), \
             {} compaction(s))",
            js.bytes, js.path, js.base_records, js.tail_records, js.compactions
        );
        if let Some(lc) = js.last_compaction {
            println!(
                "last compaction: {} session(s) snapshotted into {} record(s), \
                 {} -> {} bytes",
                lc.sessions, lc.records_written, lc.bytes_before, lc.bytes_after
            );
        }
    }
}

/// Print ranked next-example recommendations for a discovery (shared by
/// the one-shot `--recommend` flag and the REPL `suggest` command).
fn print_recommendations(adb: &ADb, d: &Discovery, recs: &[squid_core::Recommendation]) {
    if recs.is_empty() {
        println!("no contested filters — no examples to recommend.");
        return;
    }
    println!("informative next examples (confirming one refutes the listed filters):");
    for r in recs {
        println!(
            "  {} (score {:.3}) — tests {}",
            d.projection_value(adb, r.row).unwrap_or_default(),
            r.score,
            r.discriminates.join(", ")
        );
    }
}

/// Print the `k` most informative next examples of a session.
fn print_suggestions(adb: &ADb, session: &SquidSession, k: usize) {
    if let Some(d) = session.discovery() {
        print_recommendations(adb, d, &session.suggest(k));
    }
}

/// One-line next-example hint after an add (top suggestion only).
fn print_hint(adb: &ADb, session: &SquidSession) {
    let Some(d) = session.discovery() else {
        return;
    };
    let Some(top) = session.suggest(1).into_iter().next() else {
        return;
    };
    if let Some(v) = d.projection_value(adb, top.row) {
        println!(
            "hint: adding {v:?} would test {} — `suggest` for more",
            top.discriminates.join(", ")
        );
    }
}

/// One-line summary of what a session operation changed.
fn print_delta(op: &str, delta: &DiscoveryDelta) {
    let Some(d) = &delta.discovery else {
        println!("[{op}] session empty (-{} rows)", delta.rows_removed);
        return;
    };
    let mut parts = vec![format!(
        "{} filter(s), {} tuples (+{} -{})",
        d.chosen_filters().len(),
        d.rows.len(),
        delta.rows_added,
        delta.rows_removed
    )];
    for f in &delta.added_filters {
        parts.push(format!("+{f}"));
    }
    for f in &delta.removed_filters {
        parts.push(format!("-{f}"));
    }
    parts.push(format!(
        "{} in {:?}",
        if delta.incremental {
            "incremental"
        } else {
            "rebuilt"
        },
        d.elapsed
    ));
    println!("[{op}] {}", parts.join("  "));
}

fn print_decisions(d: &Discovery) {
    println!("\nabduction decisions:");
    for s in &d.scored {
        println!(
            "  [{}] {}  ψ={:.4} prior={:.4}",
            if s.included { "x" } else { " " },
            s.filter.describe(),
            s.filter.selectivity,
            s.prior
        );
    }
}

fn print_rows(adb: &ADb, d: &Discovery, limit: usize) {
    let table = adb.database.table(&d.entity_table).expect("entity table");
    let ci = table
        .schema()
        .column_index(&d.projection_column)
        .expect("projection column");
    for (i, row) in d.rows.iter().take(limit).enumerate() {
        if let Some(v) = table.cell(row, ci) {
            println!("  {}. {v}", i + 1);
        }
    }
    if d.rows.len() > limit {
        println!("  ... ({} more)", d.rows.len() - limit);
    }
}

fn die<T>(msg: &str) -> T {
    eprintln!("{msg}");
    std::process::exit(2)
}
