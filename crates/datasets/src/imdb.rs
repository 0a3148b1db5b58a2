//! Seeded synthetic IMDb-like dataset (substitute for the 633 MB IMDb dump
//! the paper uses; see DESIGN.md for the substitution argument).
//!
//! Schema (shape of the paper's Figure 2):
//!
//! * `person(id, name, gender, country, birth_year)` — entity
//! * `movie(id, title, year, country, language)` — entity
//! * `genre(id, name)` — property
//! * `company(id, name)` — property
//! * `castinfo(person_id, movie_id, role)` — fact
//! * `movietogenre(movie_id, genre_id)` — fact
//! * `movietocompany(movie_id, company_id)` — fact
//!
//! The generator plants the statistical structure the benchmark intents
//! need: heavy-tailed careers, genre-loyal specialists (comedy actors,
//! sci-fi actors), dedicated directors, genre-focused studios (an
//! "animation studio"), a shared-cast trilogy, a Japanese-animation
//! cluster, and a post-2010 Russian cluster (for IQ10's compound intent).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use squid_relation::{
    Column, ColumnBuilder, DataType, Database, Sym, Table, TableRole, TableSchema,
};

use crate::builders_for;
use crate::rng_util::{power_law, weighted_index};

/// Genre names with popularity weights.
pub const GENRES: &[(&str, f64)] = &[
    ("Drama", 0.20),
    ("Comedy", 0.17),
    ("Action", 0.12),
    ("Thriller", 0.09),
    ("Romance", 0.08),
    ("Crime", 0.06),
    ("SciFi", 0.05),
    ("Horror", 0.05),
    ("Adventure", 0.04),
    ("Fantasy", 0.03),
    ("Animation", 0.03),
    ("Documentary", 0.02),
    ("Mystery", 0.02),
    ("Family", 0.02),
    ("War", 0.01),
    ("Western", 0.01),
];

/// Country names with weights (used for both persons and movies).
pub const COUNTRIES: &[(&str, f64)] = &[
    ("USA", 0.45),
    ("UK", 0.12),
    ("France", 0.07),
    ("India", 0.07),
    ("Canada", 0.06),
    ("Germany", 0.05),
    ("Italy", 0.04),
    ("Japan", 0.04),
    ("Russia", 0.04),
    ("Spain", 0.03),
    ("Australia", 0.03),
];

/// Studio names; index 0 is the big generalist, index 1 the animation
/// house (the "Pixar" of this universe), index 2 the family blockbuster
/// studio (the "Walt Disney Pictures").
pub const COMPANIES: &[&str] = &[
    "Summit Entertainment",
    "Luxo Animation",
    "Magic Kingdom Pictures",
    "Northern Lights Films",
    "Silver Screen Studios",
    "Riverbend Productions",
    "Crescent Moon Media",
    "Golden Gate Films",
    "Evergreen Pictures",
    "Bluebird Studios",
    "Ironclad Productions",
    "Starfall Entertainment",
    "Harbor Light Films",
    "Redwood Media",
    "Falcon Crest Pictures",
];

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct ImdbConfig {
    /// Number of persons.
    pub persons: usize,
    /// Number of movies.
    pub movies: usize,
    /// RNG seed (same seed ⇒ identical database).
    pub seed: u64,
    /// Fraction of persons that reuse an earlier person's name (drives the
    /// disambiguation experiment, Figure 12).
    pub duplicate_name_rate: f64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig {
            persons: 6_000,
            movies: 3_000,
            seed: 0xD1CE,
            duplicate_name_rate: 0.02,
        }
    }
}

impl ImdbConfig {
    /// Small preset for unit tests.
    pub fn tiny() -> Self {
        ImdbConfig {
            persons: 400,
            movies: 250,
            ..Default::default()
        }
    }
}

fn language_of(country: &str, rng: &mut StdRng) -> &'static str {
    let main = match country {
        "USA" | "UK" | "Canada" | "Australia" => "English",
        "France" => "French",
        "India" => "Hindi",
        "Germany" => "German",
        "Italy" => "Italian",
        "Japan" => "Japanese",
        "Russia" => "Russian",
        "Spain" => "Spanish",
        _ => "English",
    };
    // Small chance of an English-language production elsewhere.
    if main != "English" && rng.random_bool(0.15) {
        "English"
    } else {
        main
    }
}

/// The seven table schemas, in a fixed order (see [`TABLES`]).
fn table_schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::new(
            "person",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("gender", DataType::Text),
                Column::new("country", DataType::Text),
                Column::new("birth_year", DataType::Int),
            ],
        )
        .with_primary_key("id"),
        TableSchema::new(
            "movie",
            vec![
                Column::new("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("year", DataType::Int),
                Column::new("country", DataType::Text),
                Column::new("language", DataType::Text),
            ],
        )
        .with_primary_key("id"),
        TableSchema::new(
            "genre",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        )
        .with_primary_key("id")
        .with_role(TableRole::Property),
        TableSchema::new(
            "company",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        )
        .with_primary_key("id")
        .with_role(TableRole::Property),
        TableSchema::new(
            "castinfo",
            vec![
                Column::new("person_id", DataType::Int),
                Column::new("movie_id", DataType::Int),
                Column::new("role", DataType::Text),
            ],
        )
        .with_role(TableRole::Fact)
        .with_foreign_key("person_id", "person", 0)
        .with_foreign_key("movie_id", "movie", 0),
        TableSchema::new(
            "movietogenre",
            vec![
                Column::new("movie_id", DataType::Int),
                Column::new("genre_id", DataType::Int),
            ],
        )
        .with_role(TableRole::Fact)
        .with_foreign_key("movie_id", "movie", 0)
        .with_foreign_key("genre_id", "genre", 0),
        TableSchema::new(
            "movietocompany",
            vec![
                Column::new("movie_id", DataType::Int),
                Column::new("company_id", DataType::Int),
            ],
        )
        .with_role(TableRole::Fact)
        .with_foreign_key("movie_id", "movie", 0)
        .with_foreign_key("company_id", "company", 0),
    ]
}

/// Typed column builders for all seven tables, bulk-assembled into a
/// [`Database`] at the end of generation — no per-row arity/type checks on
/// the load path. Pushes happen in exactly the order the former per-row
/// `insert` calls did, so the RNG stream and the resulting row orders are
/// byte-identical to the row-insert generator (pinned by the
/// `generated_slates_are_byte_identical` test).
#[derive(Default)]
struct ImdbBuilders {
    person: Vec<ColumnBuilder>,
    movie: Vec<ColumnBuilder>,
    genre: Vec<ColumnBuilder>,
    company: Vec<ColumnBuilder>,
    castinfo: Vec<ColumnBuilder>,
    movietogenre: Vec<ColumnBuilder>,
    movietocompany: Vec<ColumnBuilder>,
}

impl ImdbBuilders {
    fn new(config: &ImdbConfig) -> ImdbBuilders {
        let schemas = table_schemas();
        ImdbBuilders {
            person: builders_for(&schemas[0], config.persons),
            movie: builders_for(&schemas[1], config.movies),
            genre: builders_for(&schemas[2], GENRES.len()),
            company: builders_for(&schemas[3], COMPANIES.len()),
            castinfo: builders_for(&schemas[4], config.persons * 4),
            movietogenre: builders_for(&schemas[5], config.movies * 2),
            movietocompany: builders_for(&schemas[6], config.movies),
        }
    }

    fn person(&mut self, id: i64, name: &str, gender: &str, country: &str, birth_year: i64) {
        self.person[0].push_int(id);
        self.person[1].push_sym(Sym::intern(name));
        self.person[2].push_sym(Sym::intern(gender));
        self.person[3].push_sym(Sym::intern(country));
        self.person[4].push_int(birth_year);
    }

    fn movie(&mut self, id: i64, title: &str, year: i64, country: &str, language: &str) {
        self.movie[0].push_int(id);
        self.movie[1].push_sym(Sym::intern(title));
        self.movie[2].push_int(year);
        self.movie[3].push_sym(Sym::intern(country));
        self.movie[4].push_sym(Sym::intern(language));
    }

    fn castinfo(&mut self, person_id: i64, movie_id: i64, role: &str) {
        self.castinfo[0].push_int(person_id);
        self.castinfo[1].push_int(movie_id);
        self.castinfo[2].push_sym(Sym::intern(role));
    }

    fn pair(cols: &mut [ColumnBuilder], a: i64, b: i64) {
        cols[0].push_int(a);
        cols[1].push_int(b);
    }

    fn finish(self) -> Database {
        let mut db = Database::new();
        let mut schemas = table_schemas().into_iter();
        for cols in [
            self.person,
            self.movie,
            self.genre,
            self.company,
            self.castinfo,
            self.movietogenre,
            self.movietocompany,
        ] {
            let schema = schemas.next().expect("one schema per table");
            db.add_table(Table::from_columns(schema, cols).expect("generated columns are typed"))
                .expect("distinct table names");
        }
        db.meta.exclude("person", "name");
        db.meta.exclude("movie", "title");
        db
    }
}

/// Generate the synthetic IMDb database.
pub fn generate_imdb(config: &ImdbConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = ImdbBuilders::new(config);

    for (i, (g, _)) in GENRES.iter().enumerate() {
        b.genre[0].push_int(i as i64);
        b.genre[1].push_sym(Sym::intern(g));
    }
    for (i, c) in COMPANIES.iter().enumerate() {
        b.company[0].push_int(i as i64);
        b.company[1].push_sym(Sym::intern(c));
    }

    let genre_weights: Vec<f64> = GENRES.iter().map(|(_, w)| *w).collect();
    let country_weights: Vec<f64> = COUNTRIES.iter().map(|(_, w)| *w).collect();

    // ---- Movies ------------------------------------------------------
    // movie_genres[m] = genre indices; movies_by_genre[g] = movie ids.
    let mut movie_rows: Vec<(i64, String, i64, &str, &str)> = Vec::with_capacity(config.movies);
    let mut movie_genres: Vec<Vec<usize>> = Vec::with_capacity(config.movies);
    let mut movies_by_genre: Vec<Vec<i64>> = vec![Vec::new(); GENRES.len()];
    let russian_cluster = (config.movies / 50).max(10); // post-2010 Russian movies (IQ10)
    let anime_idx = GENRES.iter().position(|(g, _)| *g == "Animation").unwrap();
    let horror_idx = GENRES.iter().position(|(g, _)| *g == "Horror").unwrap();
    let drama_idx = GENRES.iter().position(|(g, _)| *g == "Drama").unwrap();
    // Planted anchor slate (in the same spirit as the Russian cluster and
    // the saga trilogy): a few USA Horror-Drama movies from 2005-2008 keep
    // the rare IQ11 genre pair non-empty at every dataset scale and seed.
    let festival_slate = russian_cluster..russian_cluster + (config.movies / 60).max(4);

    for m in 0..config.movies as i64 {
        let is_russian_cluster = (m as usize) < russian_cluster;
        let country = if is_russian_cluster {
            "Russia"
        } else {
            COUNTRIES[weighted_index(&mut rng, &country_weights)].0
        };
        let year = if is_russian_cluster {
            rng.random_range(2011..=2020)
        } else {
            // Skew toward recent decades.
            let base: i64 = rng.random_range(1960..=2020);
            let recent: i64 = rng.random_range(1990..=2020);
            if rng.random_bool(0.6) {
                recent
            } else {
                base
            }
        };
        // Japanese movies skew toward Animation (the anime cluster, IQ15).
        let primary = if country == "Japan" && rng.random_bool(0.5) {
            anime_idx
        } else {
            weighted_index(&mut rng, &genre_weights)
        };
        let mut genres = vec![primary];
        let extra = rng.random_range(0..=2);
        for _ in 0..extra {
            let g = weighted_index(&mut rng, &genre_weights);
            if !genres.contains(&g) {
                genres.push(g);
            }
        }
        let language = language_of(country, &mut rng);
        let (country, year, genres, language) = if festival_slate.contains(&(m as usize)) {
            (
                "USA",
                2005 + m.rem_euclid(4),
                vec![horror_idx, drama_idx],
                "English",
            )
        } else {
            (country, year, genres, language)
        };
        let title = format!("The {} Story {m:05}", GENRES[genres[0]].0);
        movie_rows.push((m, title, year, country, language));
        for &g in &genres {
            movies_by_genre[g].push(m);
        }
        movie_genres.push(genres);
    }

    // Trilogy for IQ2: the last three movies become "Saga Part 1..3".
    let saga_ids: Vec<i64> = (0..3).map(|k| config.movies as i64 - 3 + k).collect();
    for (k, &mid) in saga_ids.iter().enumerate() {
        movie_rows[mid as usize].1 = format!("Saga Part {}", k + 1);
    }

    for (m, title, year, country, language) in &movie_rows {
        b.movie(*m, title, *year, country, language);
    }
    // Genre and company facts.
    for (m, genres) in movie_genres.iter().enumerate() {
        for &g in genres {
            ImdbBuilders::pair(&mut b.movietogenre, m as i64, g as i64);
        }
        // Studio: the animation house makes animation; the family studio
        // favors Family/Adventure; otherwise zipf-weighted generalists.
        let primary = genres[0];
        let company: usize = if GENRES[primary].0 == "Animation" && rng.random_bool(0.6) {
            1
        } else if matches!(GENRES[primary].0, "Family" | "Adventure") && rng.random_bool(0.5) {
            2
        } else {
            let w: Vec<f64> = (0..COMPANIES.len())
                .map(|i| 1.0 / (i as f64 + 1.0))
                .collect();
            weighted_index(&mut rng, &w)
        };
        ImdbBuilders::pair(&mut b.movietocompany, m as i64, company as i64);
    }

    // ---- Persons -----------------------------------------------------
    let mut names: Vec<String> = Vec::with_capacity(config.persons);
    let russian_actor_cluster = (config.persons / 100).max(20);
    for p in 0..config.persons as i64 {
        let dup = p > 10 && rng.random_bool(config.duplicate_name_rate);
        let name = if dup {
            names[rng.random_range(0..names.len())].clone()
        } else {
            format!("Person {p:06}")
        };
        names.push(name.clone());

        let gender = if rng.random_bool(0.65) {
            "Male"
        } else {
            "Female"
        };
        let in_russian_cluster = (p as usize) < russian_actor_cluster;
        let country = if in_russian_cluster {
            "Russia"
        } else {
            COUNTRIES[weighted_index(&mut rng, &country_weights)].0
        };
        let birth_year = rng.random_range(1930..=2000);
        b.person(p, &name, gender, country, birth_year);

        // Career: archetype with genre loyalty + heavy-tailed size.
        let is_director = rng.random_bool(0.01);
        let career = if is_director {
            rng.random_range(8..=30)
        } else {
            power_law(&mut rng, 0.9, 100)
        };
        let primary_genre = weighted_index(&mut rng, &genre_weights);
        let loyalty = match rng.random_range(0..10) {
            0..=2 => 0.85, // specialist
            3..=6 => 0.5,
            _ => 0.15,
        };
        let mut seen: HashSet<i64> = HashSet::new();
        for _ in 0..career {
            let movie = if in_russian_cluster && rng.random_bool(0.8) {
                rng.random_range(0..russian_cluster as i64)
            } else if rng.random_bool(loyalty) && !movies_by_genre[primary_genre].is_empty() {
                *crate::rng_util::choose(&mut rng, &movies_by_genre[primary_genre])
            } else {
                rng.random_range(0..config.movies as i64)
            };
            if !seen.insert(movie) {
                continue;
            }
            let role = if is_director {
                "director"
            } else if rng.random_bool(0.9) {
                if gender == "Female" {
                    "actress"
                } else {
                    "actor"
                }
            } else if rng.random_bool(0.5) {
                "director"
            } else {
                "producer"
            };
            b.castinfo(p, movie, role);
        }
        // Saga core cast: the first 20 non-cluster persons appear in all
        // three saga movies.
        if (russian_actor_cluster..russian_actor_cluster + 20).contains(&(p as usize)) {
            for &mid in &saga_ids {
                if seen.insert(mid) {
                    let role = if gender == "Female" {
                        "actress"
                    } else {
                        "actor"
                    };
                    b.castinfo(p, mid, role);
                }
            }
        }
    }

    let db = b.finish();
    db.validate().expect("generated schema is valid");
    db
}

/// The four dataset-size variants of Figure 9(b) / Appendix D.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImdbVariant {
    /// ~10% of the base size.
    Small,
    /// The base dataset.
    Base,
    /// Doubled entities, duplicated associations only between duplicates
    /// (sparse): `(P2, M2)` added for each `(P1, M1)`.
    BigSparse,
    /// Doubled entities with dense cross associations: `(P1, M2)`,
    /// `(P2, M2)`, `(P2, M1)` added.
    BigDense,
}

/// Generate a variant per Appendix D.1's duplication rules.
pub fn generate_imdb_variant(config: &ImdbConfig, variant: ImdbVariant) -> Database {
    match variant {
        ImdbVariant::Small => {
            let small = ImdbConfig {
                persons: (config.persons / 10).max(50),
                movies: (config.movies / 10).max(30),
                ..config.clone()
            };
            generate_imdb(&small)
        }
        ImdbVariant::Base => generate_imdb(config),
        ImdbVariant::BigSparse | ImdbVariant::BigDense => {
            let base = generate_imdb(config);
            duplicate_entities(&base, variant == ImdbVariant::BigDense, config)
        }
    }
}

fn duplicate_entities(base: &Database, dense: bool, config: &ImdbConfig) -> Database {
    let mut b = ImdbBuilders::new(config);
    let np = config.persons as i64;
    let nm = config.movies as i64;

    for (g, name) in base
        .table("genre")
        .unwrap()
        .iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1]))
    {
        b.genre[0].push_int(g);
        b.genre[1].push_value(&name).unwrap();
    }
    for (c, name) in base
        .table("company")
        .unwrap()
        .iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1]))
    {
        b.company[0].push_int(c);
        b.company[1].push_value(&name).unwrap();
    }
    for (_, r) in base.table("person").unwrap().iter() {
        for (col, v) in b.person.iter_mut().zip(&r) {
            col.push_value(v).unwrap();
        }
    }
    for (_, r) in base.table("person").unwrap().iter() {
        b.person[0].push_int(r[0].as_int().unwrap() + np);
        b.person[1].push_sym(Sym::intern(&format!("Dup {}", r[1])));
        for (col, v) in b.person[2..].iter_mut().zip(&r[2..]) {
            col.push_value(v).unwrap();
        }
    }
    for (_, r) in base.table("movie").unwrap().iter() {
        for (col, v) in b.movie.iter_mut().zip(&r) {
            col.push_value(v).unwrap();
        }
    }
    for (_, r) in base.table("movie").unwrap().iter() {
        b.movie[0].push_int(r[0].as_int().unwrap() + nm);
        b.movie[1].push_sym(Sym::intern(&format!("Dup {}", r[1])));
        for (col, v) in b.movie[2..].iter_mut().zip(&r[2..]) {
            col.push_value(v).unwrap();
        }
    }
    for (_, r) in base.table("movietogenre").unwrap().iter() {
        let (m, g) = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
        ImdbBuilders::pair(&mut b.movietogenre, m, g);
        ImdbBuilders::pair(&mut b.movietogenre, m + nm, g);
    }
    for (_, r) in base.table("movietocompany").unwrap().iter() {
        let (m, c) = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
        ImdbBuilders::pair(&mut b.movietocompany, m, c);
        ImdbBuilders::pair(&mut b.movietocompany, m + nm, c);
    }
    for (_, r) in base.table("castinfo").unwrap().iter() {
        let (p, m) = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
        let role = r[2].as_sym().expect("role is text");
        b.castinfo[0].push_int(p);
        b.castinfo[1].push_int(m);
        b.castinfo[2].push_sym(role);
        // Appendix D.1: bs adds (P2, M2); bd additionally adds (P1, M2)
        // and (P2, M1).
        b.castinfo[0].push_int(p + np);
        b.castinfo[1].push_int(m + nm);
        b.castinfo[2].push_sym(role);
        if dense {
            b.castinfo[0].push_int(p);
            b.castinfo[1].push_int(m + nm);
            b.castinfo[2].push_sym(role);
            b.castinfo[0].push_int(p + np);
            b.castinfo[1].push_int(m);
            b.castinfo[2].push_sym(role);
        }
    }
    let db = b.finish();
    db.validate().expect("variant schema is valid");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ImdbConfig::tiny();
        let a = generate_imdb(&cfg);
        let b = generate_imdb(&cfg);
        assert_eq!(
            a.table("castinfo").unwrap().len(),
            b.table("castinfo").unwrap().len()
        );
        assert_eq!(
            a.table("person").unwrap().cell(17, 1),
            b.table("person").unwrap().cell(17, 1)
        );
    }

    #[test]
    fn cardinalities_match_config() {
        let cfg = ImdbConfig::tiny();
        let db = generate_imdb(&cfg);
        assert_eq!(db.table("person").unwrap().len(), cfg.persons);
        assert_eq!(db.table("movie").unwrap().len(), cfg.movies);
        assert_eq!(db.table("genre").unwrap().len(), GENRES.len());
        assert!(db.table("castinfo").unwrap().len() > cfg.persons);
    }

    #[test]
    fn saga_trilogy_exists_with_shared_cast() {
        let db = generate_imdb(&ImdbConfig::tiny());
        let movie = db.table("movie").unwrap();
        let titles: Vec<String> = movie
            .iter()
            .filter_map(|(_, r)| r[1].as_text().map(str::to_string))
            .filter(|t| t.starts_with("Saga Part"))
            .collect();
        assert_eq!(titles.len(), 3);
    }

    #[test]
    fn russian_cluster_planted() {
        let cfg = ImdbConfig::tiny();
        let db = generate_imdb(&cfg);
        let movie = db.table("movie").unwrap();
        let russian_recent = movie
            .iter()
            .filter(|(_, r)| r[3].as_text() == Some("Russia") && r[2].as_int().unwrap_or(0) > 2010)
            .count();
        assert!(russian_recent >= 5, "{russian_recent}");
    }

    #[test]
    fn duplicate_names_exist() {
        let db = generate_imdb(&ImdbConfig::default());
        let person = db.table("person").unwrap();
        let mut names: Vec<&str> = person.iter().filter_map(|(_, r)| r[1].as_text()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() < total, "some names must repeat");
    }

    #[test]
    fn variants_scale_as_specified() {
        let cfg = ImdbConfig {
            persons: 200,
            movies: 120,
            ..ImdbConfig::tiny()
        };
        let base = generate_imdb(&cfg);
        let sm = generate_imdb_variant(&cfg, ImdbVariant::Small);
        let bs = generate_imdb_variant(&cfg, ImdbVariant::BigSparse);
        let bd = generate_imdb_variant(&cfg, ImdbVariant::BigDense);
        assert!(sm.table("person").unwrap().len() < cfg.persons / 2);
        assert_eq!(bs.table("person").unwrap().len(), 2 * cfg.persons);
        assert_eq!(bd.table("person").unwrap().len(), 2 * cfg.persons);
        let base_ci = base.table("castinfo").unwrap().len();
        assert_eq!(bs.table("castinfo").unwrap().len(), 2 * base_ci);
        assert_eq!(bd.table("castinfo").unwrap().len(), 4 * base_ci);
    }

    #[test]
    fn variants_validate() {
        let cfg = ImdbConfig {
            persons: 100,
            movies: 60,
            ..ImdbConfig::tiny()
        };
        for v in [
            ImdbVariant::Small,
            ImdbVariant::Base,
            ImdbVariant::BigSparse,
            ImdbVariant::BigDense,
        ] {
            generate_imdb_variant(&cfg, v).validate().unwrap();
        }
    }
}
