//! Benchmark query suites: IQ1–IQ16 (IMDb, Figure 19), DQ1–DQ5 (DBLP,
//! Figure 20), and the 20 randomized Adult queries (Figure 22).
//!
//! The paper's queries reference constants of the real datasets ("Pulp
//! Fiction", "Clint Eastwood"); here each suite inspects the generated
//! database and picks the structurally equivalent constants (the movie with
//! the largest cast, the most prolific director, the strongest co-star
//! pair), keeping the join/selection shape and result-cardinality profile
//! of the originals.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use squid_engine::{Executor, PathStep, Pred, Query, QueryBlock, SemiJoin};
use squid_relation::{DataType, Database};

/// One benchmark query: the hidden "intended" query of an experiment.
#[derive(Debug, Clone)]
pub struct BenchmarkQuery {
    /// Identifier ("IQ4", "DQ2", "AQ07").
    pub id: String,
    /// Human-readable intent.
    pub description: String,
    /// The ground-truth query.
    pub query: Query,
}

impl BenchmarkQuery {
    fn new(id: &str, description: &str, query: Query) -> Self {
        BenchmarkQuery {
            id: id.into(),
            description: description.into(),
            query,
        }
    }

    /// Result cardinality on a database.
    pub fn cardinality(&self, db: &Database) -> usize {
        Executor::new(db)
            .execute(&self.query)
            .map(|r| r.len())
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------- IMDb --

struct ImdbFacts {
    biggest_cast_movie: String,
    saga_titles: Vec<String>,
    costar_pair: (String, String),
    top_director: String,
    top_actor: String,
    scifi_actor: String,
}

/// Scan the generated database for the constants the IMDb suite needs.
fn imdb_facts(db: &Database) -> ImdbFacts {
    let person = db.table("person").unwrap();
    let movie = db.table("movie").unwrap();
    let cast = db.table("castinfo").unwrap();
    let m2g = db.table("movietogenre").unwrap();
    let genre = db.table("genre").unwrap();

    let title_of: HashMap<i64, String> = movie
        .iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].to_string()))
        .collect();
    let name_of: HashMap<i64, String> = person
        .iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].to_string()))
        .collect();
    let genre_name: HashMap<i64, String> = genre
        .iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].to_string()))
        .collect();
    let scifi_id: i64 = genre_name
        .iter()
        .find(|(_, n)| n.as_str() == "SciFi")
        .map(|(id, _)| *id)
        .unwrap();

    // Cast lists per movie; acting/directing counts per person.
    let mut cast_by_movie: HashMap<i64, Vec<i64>> = HashMap::new();
    let mut act_count: HashMap<i64, usize> = HashMap::new();
    let mut dir_count: HashMap<i64, usize> = HashMap::new();
    for (_, r) in cast.iter() {
        let (p, m) = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
        let role = r[2].as_text().unwrap_or("");
        cast_by_movie.entry(m).or_default().push(p);
        match role {
            "actor" | "actress" => *act_count.entry(p).or_insert(0) += 1,
            "director" => *dir_count.entry(p).or_insert(0) += 1,
            _ => {}
        }
    }
    // Exclude persons with duplicate names from constant roles: benchmark
    // constants must be unambiguous.
    let mut name_freq: HashMap<&str, usize> = HashMap::new();
    for (_, r) in person.iter() {
        *name_freq.entry(r[1].as_text().unwrap()).or_insert(0) += 1;
    }
    let unambiguous = |p: &i64| name_freq.get(name_of[p].as_str()).copied() == Some(1);

    let biggest_cast = cast_by_movie
        .iter()
        .max_by_key(|(m, c)| (c.len(), -**m))
        .map(|(m, _)| *m)
        .unwrap();

    let best_pair = strongest_pair(cast_by_movie.values(), 60, unambiguous);

    let top_director = dir_count
        .iter()
        .filter(|(p, _)| unambiguous(p))
        .max_by_key(|(p, c)| (**c, -**p))
        .map(|(p, _)| *p)
        .unwrap();
    let top_actor = act_count
        .iter()
        .filter(|(p, _)| unambiguous(p))
        .max_by_key(|(p, c)| (**c, -**p))
        .map(|(p, _)| *p)
        .unwrap();

    // Person with the most SciFi appearances.
    let scifi_movies: std::collections::HashSet<i64> = m2g
        .iter()
        .filter(|(_, r)| r[1].as_int() == Some(scifi_id))
        .map(|(_, r)| r[0].as_int().unwrap())
        .collect();
    let mut scifi_count: HashMap<i64, usize> = HashMap::new();
    for (m, members) in &cast_by_movie {
        if scifi_movies.contains(m) {
            for p in members {
                *scifi_count.entry(*p).or_insert(0) += 1;
            }
        }
    }
    let scifi_actor = scifi_count
        .iter()
        .filter(|(p, _)| unambiguous(p))
        .max_by_key(|(p, c)| (**c, -**p))
        .map(|(p, _)| *p)
        .unwrap();

    let mut saga_titles: Vec<String> = title_of
        .values()
        .filter(|t| t.starts_with("Saga Part"))
        .cloned()
        .collect();
    saga_titles.sort();

    ImdbFacts {
        biggest_cast_movie: title_of[&biggest_cast].clone(),
        saga_titles,
        costar_pair: (name_of[&best_pair.0].clone(), name_of[&best_pair.1].clone()),
        top_director: name_of[&top_director].clone(),
        top_actor: name_of[&top_actor].clone(),
        scifi_actor: name_of[&scifi_actor].clone(),
    }
}

/// The pair of distinct ids that share the most groups (movies' casts,
/// publications' authors), counting only groups of at most `cap` members
/// and pairs whose ids both pass `keep`. Ties go to the smaller id sum,
/// then the smaller first id: a total order, so the pick never depends
/// on hash iteration order.
fn strongest_pair<'g>(
    groups: impl Iterator<Item = &'g Vec<i64>>,
    cap: usize,
    keep: impl Fn(&i64) -> bool,
) -> (i64, i64) {
    let mut pair_counts: HashMap<(i64, i64), usize> = HashMap::new();
    for members in groups.filter(|g| g.len() <= cap) {
        let mut ms = members.clone();
        ms.sort_unstable();
        ms.dedup();
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                *pair_counts.entry((ms[i], ms[j])).or_insert(0) += 1;
            }
        }
    }
    pair_counts
        .into_iter()
        .filter(|((a, b), _)| keep(a) && keep(b))
        .max_by_key(|&((a, b), c)| (c, -(a + b), -a))
        .map(|(p, _)| p)
        .expect("some group of at most `cap` members has a kept pair")
}

fn movie_has_genre(g: &str) -> SemiJoin {
    SemiJoin::exists(vec![
        PathStep::new("movietogenre", "id", "movie_id"),
        PathStep::new("genre", "genre_id", "id").filter(Pred::eq("name", g)),
    ])
}

fn movie_has_company(c: &str) -> SemiJoin {
    SemiJoin::exists(vec![
        PathStep::new("movietocompany", "id", "movie_id"),
        PathStep::new("company", "company_id", "id").filter(Pred::eq("name", c)),
    ])
}

fn movie_has_person(name: &str) -> SemiJoin {
    SemiJoin::exists(vec![
        PathStep::new("castinfo", "id", "movie_id"),
        PathStep::new("person", "person_id", "id").filter(Pred::eq("name", name)),
    ])
}

fn person_in_movie(title: &str) -> SemiJoin {
    SemiJoin::exists(vec![
        PathStep::new("castinfo", "id", "person_id"),
        PathStep::new("movie", "movie_id", "id").filter(Pred::eq("title", title)),
    ])
}

/// Pick the largest `k` from `candidates` whose query cardinality is at
/// least `lo`; falls back to the smallest candidate.
fn tune_k(db: &Database, make: impl Fn(u64) -> Query, candidates: &[u64], lo: usize) -> u64 {
    for &k in candidates {
        let q = make(k);
        if Executor::new(db).execute(&q).map(|r| r.len()).unwrap_or(0) >= lo {
            return k;
        }
    }
    *candidates.last().unwrap()
}

/// The 16 IMDb benchmark queries (Figure 19, adapted to the generated
/// data's constants).
pub fn imdb_queries(db: &Database) -> Vec<BenchmarkQuery> {
    let f = imdb_facts(db);
    let mut out = Vec::with_capacity(16);

    out.push(BenchmarkQuery::new(
        "IQ1",
        &format!("Entire cast of {}", f.biggest_cast_movie),
        Query::single(
            QueryBlock::new("person").semi_join(person_in_movie(&f.biggest_cast_movie)),
            "name",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ2",
        "Actors who appeared in all of the Saga trilogy",
        Query::intersect(
            f.saga_titles
                .iter()
                .map(|t| QueryBlock::new("person").semi_join(person_in_movie(t)))
                .collect(),
            "name",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ3",
        "Canadian actresses born after 1970",
        Query::single(
            QueryBlock::new("person")
                .filter(Pred::eq("country", "Canada"))
                .filter(Pred::ge("birth_year", 1970))
                .semi_join(SemiJoin::exists(vec![PathStep::new(
                    "castinfo",
                    "id",
                    "person_id",
                )
                .filter(Pred::eq("role", "actress"))])),
            "name",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ4",
        "SciFi movies released in USA, 2010-2016",
        Query::single(
            QueryBlock::new("movie")
                .filter(Pred::eq("country", "USA"))
                .filter(Pred::between("year", 2010, 2016))
                .semi_join(movie_has_genre("SciFi")),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ5",
        &format!(
            "Movies where {} and {} acted together",
            f.costar_pair.0, f.costar_pair.1
        ),
        Query::single(
            QueryBlock::new("movie")
                .semi_join(movie_has_person(&f.costar_pair.0))
                .semi_join(movie_has_person(&f.costar_pair.1)),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ6",
        &format!("Movies directed by {}", f.top_director),
        Query::single(
            QueryBlock::new("movie").semi_join(SemiJoin::exists(vec![
                PathStep::new("castinfo", "id", "movie_id").filter(Pred::eq("role", "director")),
                PathStep::new("person", "person_id", "id")
                    .filter(Pred::eq("name", f.top_director.as_str())),
            ])),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ7",
        "All movies (pure projection, no selection)",
        Query::single(QueryBlock::new("movie"), "title"),
    ));
    out.push(BenchmarkQuery::new(
        "IQ8",
        &format!("Movies featuring {}", f.top_actor),
        Query::single(
            QueryBlock::new("movie").semi_join(movie_has_person(&f.top_actor)),
            "title",
        ),
    ));
    let iq9_k = tune_k(
        db,
        |k| {
            Query::single(
                QueryBlock::new("person")
                    .filter(Pred::eq("country", "India"))
                    .semi_join(SemiJoin::at_least(
                        k,
                        vec![
                            PathStep::new("castinfo", "id", "person_id"),
                            PathStep::new("movie", "movie_id", "id")
                                .filter(Pred::eq("country", "USA")),
                        ],
                    )),
                "name",
            )
        },
        &[15, 10, 8, 5, 3],
        8,
    );
    out.push(BenchmarkQuery::new(
        "IQ9",
        &format!("Indian actors in at least {iq9_k} USA movies"),
        Query::single(
            QueryBlock::new("person")
                .filter(Pred::eq("country", "India"))
                .semi_join(SemiJoin::at_least(
                    iq9_k,
                    vec![
                        PathStep::new("castinfo", "id", "person_id"),
                        PathStep::new("movie", "movie_id", "id").filter(Pred::eq("country", "USA")),
                    ],
                )),
            "name",
        ),
    ));
    let iq10_k = tune_k(
        db,
        |k| {
            Query::single(
                QueryBlock::new("person").semi_join(SemiJoin::at_least(
                    k,
                    vec![
                        PathStep::new("castinfo", "id", "person_id"),
                        PathStep::new("movie", "movie_id", "id")
                            .filter(Pred::eq("country", "Russia"))
                            .filter(Pred::ge("year", 2011)),
                    ],
                )),
                "name",
            )
        },
        &[10, 8, 5, 3],
        8,
    );
    out.push(BenchmarkQuery::new(
        "IQ10",
        &format!("Actors in more than {iq10_k} Russian movies released after 2010 (compound: outside SQuID's space)"),
        Query::single(
            QueryBlock::new("person").semi_join(SemiJoin::at_least(
                iq10_k,
                vec![
                    PathStep::new("castinfo", "id", "person_id"),
                    PathStep::new("movie", "movie_id", "id")
                        .filter(Pred::eq("country", "Russia"))
                        .filter(Pred::ge("year", 2011)),
                ],
            )),
            "name",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ11",
        "USA Horror-Drama movies, 2005-2008",
        Query::single(
            QueryBlock::new("movie")
                .filter(Pred::eq("country", "USA"))
                .filter(Pred::between("year", 2005, 2008))
                .semi_join(movie_has_genre("Horror"))
                .semi_join(movie_has_genre("Drama")),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ12",
        "Movies produced by Magic Kingdom Pictures",
        Query::single(
            QueryBlock::new("movie").semi_join(movie_has_company("Magic Kingdom Pictures")),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ13",
        "Animation movies produced by Luxo Animation",
        Query::single(
            QueryBlock::new("movie")
                .semi_join(movie_has_genre("Animation"))
                .semi_join(movie_has_company("Luxo Animation")),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ14",
        &format!("SciFi movies featuring {}", f.scifi_actor),
        Query::single(
            QueryBlock::new("movie")
                .semi_join(movie_has_genre("SciFi"))
                .semi_join(movie_has_person(&f.scifi_actor)),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "IQ15",
        "Japanese Animation movies",
        Query::single(
            QueryBlock::new("movie")
                .filter(Pred::eq("country", "Japan"))
                .semi_join(movie_has_genre("Animation")),
            "title",
        ),
    ));
    let iq16_k = tune_k(
        db,
        |k| {
            Query::single(
                QueryBlock::new("movie")
                    .semi_join(movie_has_company("Magic Kingdom Pictures"))
                    .semi_join(SemiJoin::at_least(
                        k,
                        vec![
                            PathStep::new("castinfo", "id", "movie_id"),
                            PathStep::new("person", "person_id", "id")
                                .filter(Pred::eq("country", "USA")),
                        ],
                    )),
                "title",
            )
        },
        &[15, 10, 8, 5, 3],
        8,
    );
    out.push(BenchmarkQuery::new(
        "IQ16",
        &format!("Magic Kingdom movies with at least {iq16_k} American cast members"),
        Query::single(
            QueryBlock::new("movie")
                .semi_join(movie_has_company("Magic Kingdom Pictures"))
                .semi_join(SemiJoin::at_least(
                    iq16_k,
                    vec![
                        PathStep::new("castinfo", "id", "movie_id"),
                        PathStep::new("person", "person_id", "id")
                            .filter(Pred::eq("country", "USA")),
                    ],
                )),
            "title",
        ),
    ));
    out
}

// ---------------------------------------------------------------- DBLP --

fn author_in_venue(v: &str) -> Vec<PathStep> {
    vec![
        PathStep::new("writes", "id", "author_id"),
        PathStep::new("pubtovenue", "pub_id", "pub_id"),
        PathStep::new("venue", "venue_id", "id").filter(Pred::eq("name", v)),
    ]
}

/// The 5 DBLP benchmark queries (Figure 20, adapted).
pub fn dblp_queries(db: &Database) -> Vec<BenchmarkQuery> {
    let mut out = Vec::with_capacity(5);
    out.push(BenchmarkQuery::new(
        "DQ1",
        "Authors who published in both SIGMOD and VLDB",
        Query::intersect(
            vec![
                QueryBlock::new("author").semi_join(SemiJoin::exists(author_in_venue("SIGMOD"))),
                QueryBlock::new("author").semi_join(SemiJoin::exists(author_in_venue("VLDB"))),
            ],
            "name",
        ),
    ));
    let dq2_k = tune_k(
        db,
        |k| {
            Query::intersect(
                vec![
                    QueryBlock::new("author")
                        .semi_join(SemiJoin::at_least(k, author_in_venue("SIGMOD"))),
                    QueryBlock::new("author")
                        .semi_join(SemiJoin::at_least(k, author_in_venue("VLDB"))),
                ],
                "name",
            )
        },
        &[10, 8, 5, 3],
        8,
    );
    out.push(BenchmarkQuery::new(
        "DQ2",
        &format!("Authors with at least {dq2_k} SIGMOD and {dq2_k} VLDB publications"),
        Query::intersect(
            vec![
                QueryBlock::new("author")
                    .semi_join(SemiJoin::at_least(dq2_k, author_in_venue("SIGMOD"))),
                QueryBlock::new("author")
                    .semi_join(SemiJoin::at_least(dq2_k, author_in_venue("VLDB"))),
            ],
            "name",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "DQ3",
        "SIGMOD publications, 2010-2012",
        Query::single(
            QueryBlock::new("publication")
                .filter(Pred::between("year", 2010, 2012))
                .semi_join(SemiJoin::exists(vec![
                    PathStep::new("pubtovenue", "id", "pub_id"),
                    PathStep::new("venue", "venue_id", "id").filter(Pred::eq("name", "SIGMOD")),
                ])),
            "title",
        ),
    ));
    // DQ4: publications coauthored by the strongest coauthor pair.
    let writes = db.table("writes").unwrap();
    let mut by_pub: HashMap<i64, Vec<i64>> = HashMap::new();
    for (_, r) in writes.iter() {
        by_pub
            .entry(r[1].as_int().unwrap())
            .or_default()
            .push(r[0].as_int().unwrap());
    }
    let (pa, pb) = strongest_pair(by_pub.values(), 40, |_| true);
    let author_table = db.table("author").unwrap();
    let name_of = |id: i64| -> String {
        author_table
            .iter()
            .find(|(_, r)| r[0].as_int() == Some(id))
            .map(|(_, r)| r[1].to_string())
            .unwrap()
    };
    let (na, nb) = (name_of(pa), name_of(pb));
    let pub_has_author = |n: &str| {
        SemiJoin::exists(vec![
            PathStep::new("writes", "id", "pub_id"),
            PathStep::new("author", "author_id", "id").filter(Pred::eq("name", n)),
        ])
    };
    out.push(BenchmarkQuery::new(
        "DQ4",
        &format!("Publications coauthored by {na} and {nb}"),
        Query::single(
            QueryBlock::new("publication")
                .semi_join(pub_has_author(&na))
                .semi_join(pub_has_author(&nb)),
            "title",
        ),
    ));
    out.push(BenchmarkQuery::new(
        "DQ5",
        "Publications with authors from both USA and Canada",
        Query::single(
            QueryBlock::new("publication")
                .semi_join(SemiJoin::exists(vec![
                    PathStep::new("writes", "id", "pub_id"),
                    PathStep::new("author", "author_id", "id").filter(Pred::eq("country", "USA")),
                ]))
                .semi_join(SemiJoin::exists(vec![
                    PathStep::new("writes", "id", "pub_id"),
                    PathStep::new("author", "author_id", "id")
                        .filter(Pred::eq("country", "Canada")),
                ])),
            "title",
        ),
    ));
    out
}

// --------------------------------------------------------------- Adult --

/// Generate `count` randomized Adult benchmark queries in the style of
/// Figure 22: 2–7 selection predicates over random attributes, accepted
/// when the result cardinality lands in `[8, 1500]`.
pub fn adult_queries(db: &Database, seed: u64, count: usize) -> Vec<BenchmarkQuery> {
    let table = db.table("adult").unwrap();
    let schema = table.schema().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = table.len();
    let mut out = Vec::with_capacity(count);
    let attrs: Vec<(usize, &str, DataType)> = schema
        .columns
        .iter()
        .enumerate()
        .filter(|(i, c)| c.name != "id" && c.name != "name" && schema.primary_key != Some(*i))
        .map(|(i, c)| (i, c.name.as_str(), c.dtype))
        .collect();

    let mut attempts = 0;
    while out.len() < count && attempts < count * 200 {
        attempts += 1;
        let k = rng.random_range(2..=7usize);
        // Choose k distinct attributes.
        let mut chosen: Vec<usize> = (0..attrs.len()).collect();
        for i in 0..k.min(chosen.len()) {
            let j = rng.random_range(i..chosen.len());
            chosen.swap(i, j);
        }
        chosen.truncate(k);

        // Seed the predicates from a random row so the query is satisfiable.
        let row = table.row(rng.random_range(0..n)).unwrap();
        let mut block = QueryBlock::new("adult");
        let mut desc: Vec<String> = Vec::new();
        for &ai in &chosen {
            let (ci, name, dtype) = attrs[ai];
            match dtype {
                DataType::Text | DataType::Bool => {
                    let v = row[ci];
                    desc.push(format!("{name} = {v}"));
                    block = block.filter(Pred::eq(name, v));
                }
                DataType::Int | DataType::Float => {
                    let v = row[ci].as_int().unwrap_or(0);
                    let spread = match name {
                        "age" => rng.random_range(1..=8),
                        "hoursperweek" => rng.random_range(1..=6),
                        _ => rng.random_range(100..=4000), // capital columns
                    };
                    let (lo, hi) = (v - spread / 2, v + spread);
                    desc.push(format!("{name} in [{lo}, {hi}]"));
                    block = block.filter(Pred::between(name, lo, hi));
                }
            }
        }
        let q = Query::single(block, "name");
        let card = Executor::new(db).execute(&q).map(|r| r.len()).unwrap_or(0);
        if (8..=1500).contains(&card) {
            out.push(BenchmarkQuery::new(
                &format!("AQ{:02}", out.len() + 1),
                &desc.join(" AND "),
                q,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adult::{generate_adult, AdultConfig};
    use crate::dblp::{generate_dblp, DblpConfig};
    use crate::imdb::{generate_imdb, ImdbConfig};

    #[test]
    fn strongest_pair_breaks_ties_by_sum_then_first_id() {
        // (1, 6), (2, 5) and (3, 4) each share two groups and sum to 7;
        // (0, 9) shares three groups but is filtered out, and the 4-member
        // group is over the cap.
        let groups = vec![
            vec![3, 4],
            vec![4, 3],
            vec![2, 5],
            vec![5, 2, 2],
            vec![6, 1],
            vec![1, 6],
            vec![0, 9],
            vec![0, 9],
            vec![9, 0],
            vec![1, 6, 2, 5],
        ];
        let keep = |p: &i64| *p != 0;
        for _ in 0..8 {
            // Every fresh `HashMap` iterates in a new random order.
            assert_eq!(strongest_pair(groups.iter(), 3, keep), (1, 6));
        }
        assert_eq!(strongest_pair(groups.iter(), 3, |_| true), (0, 9));
        assert_eq!(strongest_pair(groups.iter(), 4, keep), (1, 6));
        assert_eq!(strongest_pair(groups[..4].iter(), 3, keep), (2, 5));
    }

    #[test]
    fn imdb_suite_has_16_nonempty_queries() {
        let db = generate_imdb(&ImdbConfig::tiny());
        let qs = imdb_queries(&db);
        assert_eq!(qs.len(), 16);
        for q in &qs {
            let card = q.cardinality(&db);
            assert!(card > 0, "{} ({}) returned no rows", q.id, q.description);
        }
    }

    #[test]
    fn iq2_is_an_intersection_with_shared_cast() {
        let db = generate_imdb(&ImdbConfig::tiny());
        let qs = imdb_queries(&db);
        let iq2 = qs.iter().find(|q| q.id == "IQ2").unwrap();
        assert_eq!(iq2.query.blocks.len(), 3);
        assert!(iq2.cardinality(&db) >= 20, "saga core cast");
    }

    #[test]
    fn iq7_returns_every_movie() {
        let cfg = ImdbConfig::tiny();
        let db = generate_imdb(&cfg);
        let qs = imdb_queries(&db);
        let iq7 = qs.iter().find(|q| q.id == "IQ7").unwrap();
        assert_eq!(iq7.cardinality(&db), cfg.movies);
    }

    #[test]
    fn dblp_suite_has_5_nonempty_queries() {
        let db = generate_dblp(&DblpConfig::tiny());
        let qs = dblp_queries(&db);
        assert_eq!(qs.len(), 5);
        for q in &qs {
            assert!(q.cardinality(&db) > 0, "{} empty", q.id);
        }
    }

    #[test]
    fn adult_suite_generates_in_cardinality_band() {
        let db = generate_adult(&AdultConfig::tiny());
        let qs = adult_queries(&db, 42, 10);
        assert!(qs.len() >= 8, "generated only {}", qs.len());
        for q in &qs {
            let card = q.cardinality(&db);
            assert!((8..=1500).contains(&card), "{}: {card}", q.id);
        }
    }

    #[test]
    fn adult_queries_are_deterministic() {
        let db = generate_adult(&AdultConfig::tiny());
        let a = adult_queries(&db, 7, 5);
        let b = adult_queries(&db, 7, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.description, y.description);
        }
    }

    #[test]
    fn predicate_counts_match_shapes() {
        let db = generate_imdb(&ImdbConfig::tiny());
        let qs = imdb_queries(&db);
        let by_id = |id: &str| qs.iter().find(|q| q.id == id).unwrap();
        assert_eq!(by_id("IQ7").query.total_predicate_count(), 0);
        assert!(by_id("IQ2").query.total_predicate_count() >= 6);
        assert!(by_id("IQ16").query.total_predicate_count() >= 5);
    }
}
