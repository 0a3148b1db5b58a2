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
//! watch the abduced query refine after each, Figure 1 style. It is
//! `squid-serve --client`'s line loop over a local fleet: every verb of the
//! serving protocol, each reply printed as the JSON line the wire carries,
//! plus `show`, `save`, `recover` and `compact`. `--batch` reads the same
//! commands from stdin without prompts (for scripting and CI) and exits 2
//! on the first failed command.
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

use std::path::PathBuf;
use std::sync::Arc;

use squid_adb::ADb;
use squid_core::{
    recommend_examples, top_k_queries, Discovery, FsyncPolicy, SessionId, SessionManager,
    SessionOp, Squid, SquidParams,
};
use squid_serve::{acquire_adb, repl, ClientError, Json, Transport, Verb};

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
            "--snapshot" => snapshot = Some(value(&mut it, &a, "a path")),
            "--journal" => journal = Some(value(&mut it, &a, "a path")),
            "--fsync" => fsync = value(&mut it, &a, "one of: always | flush | never"),
            "--alternatives" => alternatives = value(&mut it, &a, "a number"),
            "--recommend" => recommend = value(&mut it, &a, "a number"),
            "--rho" => params.rho = value(&mut it, &a, "a number"),
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
        let local = Local {
            manager: SessionManager::with_params(Arc::new(adb), params.clone()),
            params,
            snapshot,
            journal,
            fsync,
        };
        run_repl(local, &examples, batch);
        return;
    }

    let squid = Squid::with_params(&adb, params);
    let d = squid
        .discover(&examples)
        .unwrap_or_else(|e| die(&format!("discovery failed: {e}")));
    println!("discovered in {:?}", d.elapsed);
    print_discovery(&adb, &d);

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

/// `squid --repl`: the protocol answered by a local [`SessionManager`]
/// (the fleet a serving deployment runs, on the same evaluation cache and
/// journaling path), plus the words only a local process can answer.
struct Local {
    manager: SessionManager,
    params: SquidParams,
    snapshot: Option<PathBuf>,
    journal: Option<PathBuf>,
    fsync: FsyncPolicy,
}

impl Local {
    /// The newest journaled session, or a fresh one.
    fn pick_session(&self) -> SessionId {
        match self.manager.session_ids().last() {
            Some(&id) => id,
            None => self.manager.create_session(),
        }
    }

    /// A fleet recovered from `--journal`'s durable bytes (the in-process
    /// equivalent of kill + relaunch); the summary goes to stderr.
    fn recovered(&self) -> Result<SessionManager, String> {
        let Some(jp) = &self.journal else {
            return Err("no journal attached (pass --journal <path>)".into());
        };
        let adb = Arc::clone(self.manager.adb());
        let fresh = SessionManager::with_params(adb, self.params.clone());
        let st = fresh
            .recover(jp, self.fsync)
            .map_err(|e| format!("journal {} unusable: {e}", jp.display()))?;
        eprintln!("journal {}: {st}", jp.display());
        Ok(fresh)
    }
}

impl Transport for Local {
    fn send(&mut self, verb: Verb) -> Result<Json, ClientError> {
        self.manager.send(verb)
    }

    fn local_usage(&self) -> &[&str] {
        &["show", "save [path]", "recover", "compact"]
    }

    fn local(
        &mut self,
        word: &str,
        rest: &str,
        session: &mut Option<u64>,
    ) -> Option<Result<(), String>> {
        Some(match word {
            "show" => {
                let Some(id) = *session else {
                    return Some(Err("no session yet — `create` first".into()));
                };
                let adb = self.manager.adb();
                let shown = self.manager.with_session(id, |s| {
                    match s.discovery() {
                        Some(d) => print_discovery(adb, d),
                        None => println!("(no examples yet)"),
                    }
                    Ok(())
                });
                shown.map_err(|e| e.to_string())
            }
            "save" => {
                let path = match rest {
                    "" => self.snapshot.clone(),
                    path => Some(PathBuf::from(path)),
                };
                let Some(p) = path else {
                    return Some(Err("usage: save <path> (or pass --snapshot)".into()));
                };
                let saved = self.manager.adb().save_snapshot(&p);
                saved
                    .map(|bytes| println!("snapshot saved to {} ({bytes} bytes)", p.display()))
                    .map_err(|e| format!("snapshot save to {} failed: {e}", p.display()))
            }
            "recover" => {
                // Push our own tail to the OS first so the re-read sees
                // everything this process has appended.
                let _ = self.manager.journal_sync();
                self.recovered().map(|fresh| {
                    self.manager = fresh;
                    *session = Some(self.pick_session());
                })
            }
            "compact" => match self.manager.compact_journal() {
                Ok(Some(cs)) => {
                    println!(
                        "journal compacted: {} session(s) snapshotted into {} record(s), \
                         {} -> {} bytes",
                        cs.sessions, cs.records_written, cs.bytes_before, cs.bytes_after
                    );
                    Ok(())
                }
                Ok(None) => Err("no journal attached (pass --journal <path>)".into()),
                Err(e) => Err(format!("journal compaction failed: {e}")),
            },
            _ => return None,
        })
    }
}

/// Drive a local fleet from stdin through the line loop `squid-serve
/// --client` shares ([`repl::run`]). With `--journal` every turn is durable:
/// a killed REPL relaunched with the same flags replays the journal and
/// resumes the newest session. Initial examples are added to that session
/// first.
fn run_repl(mut local: Local, initial: &[&str], batch: bool) {
    if local.journal.is_some() {
        local.manager = local.recovered().unwrap_or_else(|e| die(&e));
    }
    let session = local.pick_session();
    for e in initial {
        let add = Verb::Apply {
            session,
            op: SessionOp::AddExample(e.to_string()),
            seq: None,
        };
        match local.send(add) {
            Ok(reply) => println!("{}", reply.encode()),
            Err(err) => die(&format!("initial example {e:?} failed: {err}")),
        }
    }
    let stdin = std::io::stdin();
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    let ran = repl::run(
        &mut local,
        Some(session),
        stdin.lock(),
        &mut out,
        &mut err,
        batch,
    );
    // Push any buffered journal tail to the OS before exiting.
    let _ = local.manager.journal_sync();
    ran.unwrap_or_else(|e| die(&e));
}

/// Print ranked next-example recommendations for a discovery (the
/// one-shot `--recommend` flag).
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

/// The target, the abduction decisions, the query and the first ten
/// result tuples of a discovery (the one-shot mode and `show`).
fn print_discovery(adb: &ADb, d: &Discovery) {
    println!(
        "target {}.{} — {} example(s), {} result tuples",
        d.entity_table,
        d.projection_column,
        d.example_rows.len(),
        d.rows.len()
    );
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
    println!("\nabduced query:\n{}\n", d.sql());
    for (i, v) in d
        .rows
        .iter()
        .filter_map(|row| d.projection_value(adb, row))
        .take(10)
        .enumerate()
    {
        println!("  {}. {v}", i + 1);
    }
    if d.rows.len() > 10 {
        println!("  ... ({} more)", d.rows.len() - 10);
    }
}

/// The argument after `flag`, parsed; exits 2 saying what `flag` needs.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    needs: &str,
) -> T {
    let parsed = it.next().and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| die(&format!("{flag} needs {needs}")))
}

fn die<T>(msg: &str) -> T {
    eprintln!("{msg}");
    std::process::exit(2)
}
