//! Small hand-built databases used by tests across the workspace (a
//! miniature IMDb in the shape of the paper's Figure 2, and the Figure 6
//! sample table). Public so downstream crates' tests and examples can reuse
//! them; not part of the stable API.

use squid_relation::{Column, DataType, Database, TableRole, TableSchema, Value};

/// Miniature IMDb-shaped database:
///
/// * `person(id, name, gender, country, birth_year)` — entity
/// * `movie(id, title, year, country)` — entity
/// * `genre(id, name)` — property
/// * `castinfo(person_id, movie_id, role)` — fact
/// * `movietogenre(movie_id, genre_id)` — fact
///
/// Persons 1–3 are prolific Comedy actors; 4–5 are Action actors; 6 appears
/// in everything a little. Movies 0–5 are Comedy, 6–8 Action, 9 Drama.
pub fn mini_imdb() -> Database {
    let mut db = Database::new();
    db.create_table(
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
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "movie",
            vec![
                Column::new("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("year", DataType::Int),
                Column::new("country", DataType::Text),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "genre",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        )
        .with_primary_key("id")
        .with_role(TableRole::Property),
    )
    .unwrap();
    db.create_table(
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
    )
    .unwrap();
    db.create_table(
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
    )
    .unwrap();
    db.meta.exclude("person", "name");
    db.meta.exclude("movie", "title");

    let persons: &[(i64, &str, &str, &str, i64)] = &[
        (1, "Jim Carrey", "Male", "USA", 1962),
        (2, "Eddie Murphy", "Male", "USA", 1961),
        (3, "Robin Williams", "Male", "USA", 1951),
        (4, "Sylvester Stallone", "Male", "USA", 1946),
        (5, "Arnold Schwarzenegger", "Male", "Austria", 1947),
        (6, "Ewan McGregor", "Male", "UK", 1971),
        (7, "Julia Roberts", "Female", "USA", 1967),
        (8, "Emma Stone", "Female", "USA", 1988),
    ];
    for &(id, name, g, c, y) in persons {
        db.insert(
            "person",
            vec![
                Value::Int(id),
                Value::text(name),
                Value::text(g),
                Value::text(c),
                Value::Int(y),
            ],
        )
        .unwrap();
    }

    let movies: &[(i64, &str, i64, &str)] = &[
        (0, "Funny One", 1994, "USA"),
        (1, "Funny Two", 1996, "USA"),
        (2, "Funny Three", 1998, "USA"),
        (3, "Funny Four", 2000, "USA"),
        (4, "Funny Five", 2002, "USA"),
        (5, "Funny Six", 2004, "UK"),
        (6, "Boom One", 1988, "USA"),
        (7, "Boom Two", 1991, "USA"),
        (8, "Boom Three", 1993, "USA"),
        (9, "Sad One", 2005, "USA"),
    ];
    for &(id, t, y, c) in movies {
        db.insert(
            "movie",
            vec![
                Value::Int(id),
                Value::text(t),
                Value::Int(y),
                Value::text(c),
            ],
        )
        .unwrap();
    }

    for (id, name) in [(0, "Comedy"), (1, "Action"), (2, "Drama"), (3, "Fantasy")] {
        db.insert("genre", vec![Value::Int(id), Value::text(name)])
            .unwrap();
    }
    // Movie genres: 0-5 Comedy, 6-8 Action, 9 Drama; movie 5 also Fantasy.
    let m2g: &[(i64, i64)] = &[
        (0, 0),
        (1, 0),
        (2, 0),
        (3, 0),
        (4, 0),
        (5, 0),
        (5, 3),
        (6, 1),
        (7, 1),
        (8, 1),
        (9, 2),
    ];
    for &(m, g) in m2g {
        db.insert("movietogenre", vec![Value::Int(m), Value::Int(g)])
            .unwrap();
    }

    // Cast: comedy actors 1-3 appear in 4-5 comedies each; action actors 4-5
    // in the three action movies; 6 dabbles; 7-8 in the drama.
    let cast: &[(i64, i64, &str)] = &[
        (1, 0, "actor"),
        (1, 1, "actor"),
        (1, 2, "actor"),
        (1, 3, "actor"),
        (1, 4, "actor"),
        (2, 0, "actor"),
        (2, 1, "actor"),
        (2, 2, "actor"),
        (2, 4, "actor"),
        (3, 1, "actor"),
        (3, 2, "actor"),
        (3, 3, "actor"),
        (3, 5, "actor"),
        (4, 6, "actor"),
        (4, 7, "actor"),
        (4, 8, "actor"),
        (5, 6, "actor"),
        (5, 7, "actor"),
        (5, 8, "director"),
        (6, 5, "actor"),
        (6, 9, "actor"),
        (7, 9, "actress"),
        (8, 9, "actress"),
        (8, 4, "actress"),
    ];
    for &(p, m, r) in cast {
        db.insert(
            "castinfo",
            vec![Value::Int(p), Value::Int(m), Value::text(r)],
        )
        .unwrap();
    }
    db.validate().unwrap();
    db
}

/// The Figure 6 sample database: one `person` table with gender and age,
/// used for the basic-filter examples in the paper.
pub fn figure6_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "person",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("gender", DataType::Text),
                Column::new("age", DataType::Int),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    db.meta.exclude("person", "name");
    let rows: &[(i64, &str, &str, i64)] = &[
        (1, "Tom Cruise", "Male", 50),
        (2, "Clint Eastwood", "Male", 90),
        (3, "Tom Hanks", "Male", 60),
        (4, "Julia Roberts", "Female", 50),
        (5, "Emma Stone", "Female", 29),
        (6, "Julianne Moore", "Female", 60),
    ];
    for &(id, n, g, a) in rows {
        db.insert(
            "person",
            vec![
                Value::Int(id),
                Value::text(n),
                Value::text(g),
                Value::Int(a),
            ],
        )
        .unwrap();
    }
    db
}

/// A small database of the cases the αDB build must get right beyond the
/// well-formed generated slates, in the shape of [`mini_imdb`] plus a
/// single-key fact table:
///
/// * `person(id, name, gender)` and `movie(id, title, year, country)` —
///   entities whose keys span far more than their rows (a sparse key map);
/// * `genre(id, name)` — property, with a NULL name and a genre no movie
///   has;
/// * `castinfo(person_id, movie_id, role)` — fact, with a person key and a
///   movie key that match no row, NULL keys and NULL roles, and one person
///   reaching the same movie through two rows;
/// * `movietogenre(movie_id, genre_id)` — fact, with rows for the missing
///   movie key (a two-hop path still counts them), a NULL genre key and a
///   genre key that matches no row;
/// * `research(person_id, interest)` — single-key fact (inline values),
///   with a repeated interest, a NULL interest and a missing person key.
///
/// `movie.year` is a float holding NaN, `-0.0`, `0.0` and NULL; movie 12
/// and genre 4 are reached by no person, so their values must stay out of
/// the person properties' domains. Person 2 000 000 has no fact rows.
pub fn edge_cases() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "person",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("gender", DataType::Text),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "movie",
            vec![
                Column::new("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("year", DataType::Float),
                Column::new("country", DataType::Text),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "genre",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        )
        .with_primary_key("id")
        .with_role(TableRole::Property),
    )
    .unwrap();
    db.create_table(
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
    )
    .unwrap();
    db.create_table(
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
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "research",
            vec![
                Column::new("person_id", DataType::Int),
                Column::new("interest", DataType::Text),
            ],
        )
        .with_role(TableRole::Fact)
        .with_foreign_key("person_id", "person", 0),
    )
    .unwrap();
    db.meta.exclude("person", "name");
    db.meta.exclude("movie", "title");

    let text = |s: Option<&str>| s.map_or(Value::Null, Value::text);
    let int = |k: Option<i64>| k.map_or(Value::Null, Value::Int);
    for (id, name, gender) in [
        (10, "Ann", Some("F")),
        (100_000, "Bob", Some("M")),
        (7, "Cy", None),
        (2_000_000, "Dee", Some("F")),
        (-5, "Eve", Some("F")),
    ] {
        db.insert(
            "person",
            vec![Value::Int(id), Value::text(name), text(gender)],
        )
        .unwrap();
    }
    for (id, title, year, country) in [
        (1, "One", Some(f64::NAN), Some("US")),
        (50_000, "Two", Some(-0.0), Some("UK")),
        (3, "Three", Some(0.0), None),
        (900_000, "Four", None, Some("US")),
        (12, "Five", Some(2077.0), Some("Atlantis")),
        (8, "Six", Some(1990.5), Some("FR")),
    ] {
        db.insert(
            "movie",
            vec![
                Value::Int(id),
                Value::text(title),
                year.map_or(Value::Null, Value::Float),
                text(country),
            ],
        )
        .unwrap();
    }
    for (id, name) in [
        (0, Some("Comedy")),
        (1, Some("Drama")),
        (2, None),
        (3, Some("Noir")),
        (4, Some("Western")),
    ] {
        db.insert("genre", vec![Value::Int(id), text(name)])
            .unwrap();
    }
    for (person, movie, role) in [
        (Some(10), Some(1), Some("actor")),
        (Some(10), Some(50_000), Some("actor")),
        (Some(10), Some(1), Some("actor")),
        (Some(10), Some(8), Some("writer")),
        (Some(100_000), Some(3), None),
        (Some(100_000), Some(777), Some("extra")),
        (Some(100_000), Some(8), Some("actor")),
        (Some(999), Some(1), Some("actor")),
        (None, Some(3), Some("actor")),
        (Some(7), None, Some("director")),
        (Some(7), Some(900_000), Some("director")),
        (Some(-5), Some(50_000), None),
        (Some(-5), Some(3), Some("actor")),
    ] {
        db.insert("castinfo", vec![int(person), int(movie), text(role)])
            .unwrap();
    }
    for (movie, genre) in [
        (Some(1), Some(0)),
        (Some(1), Some(1)),
        (Some(50_000), Some(0)),
        (Some(3), None),
        (Some(3), Some(2)),
        (Some(777), Some(1)),
        (Some(777), Some(0)),
        (Some(777), Some(1)),
        (Some(900_000), Some(4242)),
        (Some(8), Some(3)),
        (Some(12), Some(1)),
        (None, Some(0)),
    ] {
        db.insert("movietogenre", vec![int(movie), int(genre)])
            .unwrap();
    }
    for (person, interest) in [
        (Some(10), Some("db")),
        (Some(10), Some("db")),
        (Some(10), None),
        (Some(999), Some("ml")),
        (Some(7), Some("ml")),
        (Some(-5), Some("ir")),
        (None, Some("ir")),
    ] {
        db.insert("research", vec![int(person), text(interest)])
            .unwrap();
    }
    db.validate().unwrap();
    db
}
