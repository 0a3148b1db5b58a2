//! Seeded traffic: which intents, which example samples, in what order.
//!
//! Everything here is a pure function of `(seed, client, ordinal)` over
//! the value pools drawn from the generated datasets, so equal seeds give
//! equal inputs no matter how fast the system under test runs, and the
//! correctness oracles can regenerate any session's plan after the fact.
//! The program under test sees only the generated values.

/// SplitMix64: small, fast, and good enough to pick examples.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the run seed and up to three stream coordinates
    /// (client, ordinal, …), so streams never overlap by construction.
    pub fn keyed(seed: u64, a: u64, b: u64, c: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        for k in [a, b, c] {
            r.0 = r.next_u64() ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices in `0..n` (all of them when `n <= k`), in draw
    /// order. Rejection sampling: `k` is tiny next to every pool.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        if n <= k {
            return (0..n).collect();
        }
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let i = self.below(n);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

/// One request of the Figure-1 loop, independent of wire or in-process
/// form (`sut` renders it as a JSON verb or a session operation).
#[derive(Debug, Clone, PartialEq)]
pub enum Turn {
    /// Open a session.
    Create,
    /// Add an example value.
    Add(String),
    /// Remove an example value.
    Remove(String),
    /// Pin every filter on this attribute.
    Pin(String),
    /// Drop the pin.
    Unpin(String),
    /// Read the abduced SQL.
    Sql,
    /// Ask for the `k` most informative next examples.
    Suggest(usize),
    /// Read the first `limit` result tuples.
    Rows(usize),
    /// Close the session.
    Close,
}

impl Turn {
    /// The verb name used in metric names (`serve.server.turn_rt_us.<verb>`).
    pub fn verb(&self) -> &'static str {
        match self {
            Turn::Create => "create",
            Turn::Add(_) => "add",
            Turn::Remove(_) => "remove",
            Turn::Pin(_) => "pin",
            Turn::Unpin(_) => "unpin",
            Turn::Sql => "sql",
            Turn::Suggest(_) => "suggest",
            Turn::Rows(_) => "rows",
            Turn::Close => "close",
        }
    }

    /// Whether the server journals this turn (create and close are
    /// lifecycle records, the rest session mutations).
    pub fn is_journaled(&self) -> bool {
        !matches!(self, Turn::Sql | Turn::Suggest(_) | Turn::Rows(_))
    }
}

/// Examples per interactive session (the issue's "8 `add`").
pub const EXAMPLES_PER_SESSION: usize = 8;
/// One session in this many draws random entities instead of an intent.
const SCATTERED_ONE_IN: usize = 4;
/// One session in this many is abandoned instead of closed, so the fleet
/// (and the journal) always holds live sessions for the recovery oracles.
const ABANDONED_ONE_IN: usize = 32;

/// The value pools sessions draw from.
#[derive(Debug, Clone, Default)]
pub struct Pools {
    /// Per intended query: the distinct values of its output.
    pub intents: Vec<Vec<String>>,
    /// Values of the entity column scattered sessions sample.
    pub scatter: Vec<String>,
}

/// What one interactive session will do, fixed before it starts (only
/// the pinned attribute is chosen at run time, from the server's own
/// replies — see [`pick_pin`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Index into [`Pools::intents`], or `None` for a scattered session.
    pub intent: Option<usize>,
    /// The examples, in the order they are added (the first is removed).
    pub examples: Vec<String>,
    /// Random draw that selects which current filter gets pinned.
    pub pin_draw: u64,
    /// Abandon the session instead of closing it.
    pub keep_open: bool,
}

/// The plan of session `ordinal` of client `client` under `seed`.
pub fn plan_session(pools: &Pools, seed: u64, client: u64, ordinal: u64) -> SessionPlan {
    let mut rng = Rng::keyed(seed, 1, client, ordinal);
    let scattered = pools.intents.is_empty() || rng.below(SCATTERED_ONE_IN) == 0;
    let (intent, pool) = if scattered {
        (None, &pools.scatter)
    } else {
        let i = rng.below(pools.intents.len());
        (Some(i), &pools.intents[i])
    };
    let examples = rng
        .distinct(pool.len(), EXAMPLES_PER_SESSION)
        .into_iter()
        .map(|i| pool[i].clone())
        .collect();
    SessionPlan {
        intent,
        examples,
        pin_draw: rng.next_u64(),
        keep_open: rng.below(ABANDONED_ONE_IN) == 0,
    }
}

/// The attribute a filter description such as `⟨genre.name, Comedy, 40⟩`
/// or `⟨year ≥ 2010, 3⟩` constrains — the key `pin` takes.
pub fn filter_attr(description: &str) -> Option<&str> {
    let body = description.strip_prefix('⟨')?;
    let head = body.split(',').next()?;
    let attr = head.split(" ≥ ").next()?.trim();
    (!attr.is_empty()).then_some(attr)
}

/// Choose the attribute to pin from the filters currently in the abduced
/// query (tracked from the replies' `added_filters`/`removed_filters`).
/// `None` when the query has no filters — the pin/unpin turns are skipped.
pub fn pick_pin(current_filters: &[String], pin_draw: u64) -> Option<String> {
    let mut attrs: Vec<&str> = current_filters
        .iter()
        .filter_map(|f| filter_attr(f))
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    if attrs.is_empty() {
        return None;
    }
    Some(attrs[(pin_draw % attrs.len() as u64) as usize].to_string())
}

/// The turns of a session after `create`, given the pin choice made once
/// the adds and the remove have been answered.
pub fn session_turns(plan: &SessionPlan, pin: Option<&str>) -> Vec<Turn> {
    let mut turns: Vec<Turn> = plan.examples.iter().cloned().map(Turn::Add).collect();
    if let Some(first) = plan.examples.first() {
        turns.push(Turn::Remove(first.clone()));
    }
    if let Some(key) = pin {
        turns.push(Turn::Pin(key.to_string()));
        turns.push(Turn::Unpin(key.to_string()));
    }
    turns.extend([Turn::Sql, Turn::Suggest(3), Turn::Rows(5)]);
    if !plan.keep_open {
        turns.push(Turn::Close);
    }
    turns
}

/// Example-set sizes of the one-shot discovery workload (Fig. 9/10).
pub const ONESHOT_KS: [usize; 3] = [5, 10, 20];

/// The examples of one one-shot call, as indices into the intent's value
/// pool: `k` distinct values of its output, resampled every `round`.
pub fn oneshot_examples(
    pool_len: usize,
    seed: u64,
    intent: u64,
    k: usize,
    round: u64,
) -> Vec<usize> {
    Rng::keyed(seed, 2, intent * 64 + k as u64, round).distinct(pool_len, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Pools {
        Pools {
            intents: (0..4)
                .map(|q| (0..40).map(|i| format!("q{q}-v{i}")).collect())
                .collect(),
            scatter: (0..500).map(|i| format!("person {i}")).collect(),
        }
    }

    #[test]
    fn equal_seeds_give_equal_traffic() {
        let p = pools();
        for client in 0..2 {
            for ordinal in 0..200 {
                assert_eq!(
                    plan_session(&p, 7, client, ordinal),
                    plan_session(&p, 7, client, ordinal)
                );
            }
        }
        assert_eq!(
            oneshot_examples(p.scatter.len(), 7, 3, 10, 2),
            oneshot_examples(p.scatter.len(), 7, 3, 10, 2)
        );
    }

    #[test]
    fn different_seeds_clients_and_ordinals_differ() {
        let p = pools();
        let base: Vec<_> = (0..50).map(|o| plan_session(&p, 7, 0, o)).collect();
        let other_seed: Vec<_> = (0..50).map(|o| plan_session(&p, 8, 0, o)).collect();
        let other_client: Vec<_> = (0..50).map(|o| plan_session(&p, 7, 1, o)).collect();
        assert_ne!(base, other_seed);
        assert_ne!(base, other_client);
        assert_ne!(base[0], base[1]);
        assert_ne!(
            oneshot_examples(p.scatter.len(), 7, 3, 10, 2),
            oneshot_examples(p.scatter.len(), 8, 3, 10, 2)
        );
    }

    #[test]
    fn plans_have_the_stated_shape() {
        let p = pools();
        let plans: Vec<_> = (0..2000).map(|o| plan_session(&p, 1, 0, o)).collect();
        let scattered = plans.iter().filter(|s| s.intent.is_none()).count();
        assert!((400..600).contains(&scattered), "{scattered} scattered");
        let open = plans.iter().filter(|s| s.keep_open).count();
        assert!((30..100).contains(&open), "{open} abandoned");
        for s in &plans {
            assert_eq!(s.examples.len(), EXAMPLES_PER_SESSION);
            let mut d = s.examples.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), EXAMPLES_PER_SESSION, "examples are distinct");
        }
        // A pool smaller than the session takes all of it.
        let tiny = Pools {
            intents: vec![vec!["a".into(), "b".into()]],
            scatter: vec!["a".into(), "b".into(), "c".into()],
        };
        assert!(plan_session(&tiny, 1, 0, 0).examples.len() <= 3);
    }

    #[test]
    fn script_follows_the_figure_one_loop() {
        let plan = SessionPlan {
            intent: Some(0),
            examples: vec!["a".into(), "b".into()],
            pin_draw: 5,
            keep_open: false,
        };
        let verbs: Vec<_> = session_turns(&plan, Some("gender"))
            .iter()
            .map(Turn::verb)
            .collect();
        assert_eq!(
            verbs,
            ["add", "add", "remove", "pin", "unpin", "sql", "suggest", "rows", "close"]
        );
        let open = SessionPlan {
            keep_open: true,
            ..plan
        };
        let verbs: Vec<_> = session_turns(&open, None).iter().map(Turn::verb).collect();
        assert_eq!(verbs, ["add", "add", "remove", "sql", "suggest", "rows"]);
    }

    #[test]
    fn pin_key_comes_from_filter_descriptions() {
        assert_eq!(filter_attr("⟨genre.name, Comedy, 40⟩"), Some("genre.name"));
        assert_eq!(filter_attr("⟨age, [50, 90], ⊥⟩"), Some("age"));
        assert_eq!(filter_attr("⟨year ≥ 2010, 3⟩"), Some("year"));
        assert_eq!(filter_attr("garbage"), None);
        let filters = vec![
            "⟨gender, Female, ⊥⟩".to_string(),
            "⟨country, Canada, ⊥⟩".to_string(),
        ];
        assert_eq!(pick_pin(&filters, 0).as_deref(), Some("country"));
        assert_eq!(pick_pin(&filters, 1).as_deref(), Some("gender"));
        assert_eq!(pick_pin(&[], 1), None);
    }
}
