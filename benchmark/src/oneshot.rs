//! `oneshot_discover`: the paper's Fig. 9/10 query-by-example path. In
//! process, one thread, no server, no journal, no session cache:
//! `Squid::discover` over every IMDb/DBLP/Adult benchmark query ×
//! k ∈ {5, 10, 20} seeded example samples; each call is a "turn". The
//! *other* use of `core`/`adb`: a change that speeds incremental turns by
//! taxing from-scratch discovery (or the reverse) shows here, and a
//! `serve`/`journal` optimisation must predict no change. Adult
//! (numeric-heavy, single table) and DBLP keep a win from being
//! IMDb-shaped.

use std::time::{Duration, Instant};

use crate::load::{cut_windows, record_turn_metrics, Sample};
use crate::report::{peak_rss_mb, Ctx, Outcome};
use crate::served::{record_peak_rss, record_setups, timed};
use crate::sut::{self, Adb, Dataset, Intent, Json, Kind};
use crate::traffic::{oneshot_examples, ONESHOT_KS};

/// Set-up + window repetitions per run (three datasets are generated and
/// built each time, so fewer than the served workloads afford).
const REPS: usize = 3;

/// One dataset, built.
pub struct Slate {
    /// The generated database (kept for the traced run's probes).
    pub ds: Dataset,
    /// Its αDB.
    pub adb: Adb,
}

/// The benchmark suites of the three datasets, in slate order. Derived
/// once per run: the datasets regenerate identically.
pub type Suites = Vec<Vec<Intent>>;

/// One scheduled discovery call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Index into the slates.
    pub slate: usize,
    /// Index into that slate's intents.
    pub intent: usize,
    /// Globally unique intent number (keys the sampling stream).
    pub intent_no: u64,
    /// Examples requested (capped by the intent's output size).
    pub k: usize,
}

/// Generate and build the three datasets; returns them with the seconds
/// spent generating and building.
pub fn set_up(ctx: &Ctx) -> (Vec<Slate>, f64, f64) {
    let (mut generate_s, mut build_s) = (0.0, 0.0);
    let slates = [Kind::Imdb, Kind::Dblp, Kind::Adult]
        .into_iter()
        .map(|kind| {
            let (ds, s) = timed(|| sut::generate(kind, ctx.scale));
            generate_s += s;
            let (adb, s) = timed(|| sut::build_adb(&ds));
            build_s += s;
            Slate { ds, adb }
        })
        .collect();
    (slates, generate_s, build_s)
}

/// The suites of freshly set-up slates.
pub fn suites(slates: &[Slate]) -> Suites {
    slates.iter().map(|s| s.ds.intents()).collect()
}

/// Every (query, k) pair, interleaved across datasets so every window
/// sees the same mix.
pub fn schedule(suites: &Suites) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut intent_no = 0;
    for (si, suite) in suites.iter().enumerate() {
        for ii in 0..suite.len() {
            for k in ONESHOT_KS {
                calls.push(Call {
                    slate: si,
                    intent: ii,
                    intent_no,
                    k,
                });
            }
            intent_no += 1;
        }
    }
    calls
}

/// The example values of `call` in `round`.
pub fn examples<'a>(suites: &'a Suites, call: &Call, seed: u64, round: u64) -> Vec<&'a str> {
    let pool = &suites[call.slate][call.intent].values;
    oneshot_examples(pool.len(), seed, call.intent_no, call.k, round)
        .into_iter()
        .map(|i| pool[i].as_str())
        .collect()
}

/// Rounds of the untimed verification pass (rounds `0..VERIFY_ROUNDS`;
/// the timed rounds start after them). Several, so that `intent_fscore`
/// averages over ~500 sampled example sets instead of 123.
pub const VERIFY_ROUNDS: u64 = 4;

/// The verification pass, untimed: every call, with the oracles
/// (discovery succeeds, every example is in the abduced result) and the
/// f-score against the intended query's output — all outside the timed
/// region.
pub fn verify_rounds(
    slates: &[Slate],
    suites: &Suites,
    calls: &[Call],
    seed: u64,
    out: &mut Outcome,
) {
    let (mut fsum, mut n) = (0.0, 0u64);
    for round in 0..VERIFY_ROUNDS {
        for call in calls {
            let intent = &suites[call.slate][call.intent];
            match sut::discover(
                &slates[call.slate].adb,
                &examples(suites, call, seed, round),
            ) {
                Ok(found) => {
                    out.check(true, String::new);
                    out.check(found.examples_in_result(), || {
                        format!(
                            "{} k={}: an example is missing from the result",
                            intent.id, call.k
                        )
                    });
                    fsum += found.fscore(intent);
                    n += 1;
                }
                Err(e) => out.check(false, || format!("{} k={}: {e}", intent.id, call.k)),
            }
        }
    }
    out.set("intent_fscore", if n == 0 { 0.0 } else { fsum / n as f64 });
}

/// Cycle through the schedule for `len`, resampling the examples every
/// round (rounds continue from `*round`). Returns the completed calls.
fn measure(
    slates: &[Slate],
    suites: &Suites,
    calls: &[Call],
    seed: u64,
    len: Duration,
    round: &mut u64,
    out: &mut Outcome,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);
    let t0 = Instant::now();
    'measurement: loop {
        for call in calls {
            let refs = examples(suites, call, seed, *round);
            let start = Instant::now();
            if start - t0 >= len {
                break 'measurement;
            }
            let result = std::hint::black_box(sut::discover(&slates[call.slate].adb, &refs));
            let done = Instant::now();
            attempted += 1;
            if let Err(e) = result {
                failed += 1;
                first_error.get_or_insert(e);
            }
            samples.push((
                (done - t0).as_nanos() as u64,
                (done - start).as_nanos() as u64,
            ));
        }
        *round += 1;
    }
    *round += 1;
    out.tally(attempted, failed, first_error);
    samples
}

/// The end-to-end run: [`REPS`] times { set up, measure }.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setups, mut builds, mut generates) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows = Vec::new();
    let mut inputs: Option<(Suites, Vec<Call>)> = None;
    let mut round = VERIFY_ROUNDS;
    let len = Duration::from_secs_f64(ctx.seconds / REPS as f64);
    for rep in 0..REPS {
        let (slates, generate_s, build_s) = set_up(ctx);
        setups.push(generate_s + build_s);
        builds.push(build_s);
        generates.push(generate_s);
        if inputs.is_none() {
            let suites = suites(&slates);
            let calls = schedule(&suites);
            out.note("calls_per_round", Json::Int(calls.len() as i64));
            verify_rounds(&slates, &suites, &calls, ctx.seed, &mut out);
            inputs = Some((suites, calls));
        }
        let (suites, calls) = inputs.as_ref().expect("just derived");
        let samples = measure(&slates, suites, calls, ctx.seed, len, &mut round, &mut out);
        windows.extend(cut_windows(samples, len));
        if rep == 0 {
            record_peak_rss(&mut out);
        }
    }
    record_setups(&mut out, &setups, &builds, &generates);
    record_turn_metrics(&mut out, windows);
    out.note("peak_rss_mb_whole_run", Json::Float(peak_rss_mb()));
    Ok(out)
}
