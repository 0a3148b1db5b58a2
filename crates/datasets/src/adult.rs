//! Seeded synthetic Adult-like census dataset (substitute for the UCI Adult
//! dataset, 32,561 rows, single relation).
//!
//! Attribute marginals approximate the real dataset's published statistics;
//! a synthetic unique `name` column serves as the projection attribute (the
//! paper's benchmark queries on Adult project `name`, Figure 22).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use squid_relation::{Column, DataType, Database, TableSchema, Value};

use crate::rng_util::weighted_index;

/// Categorical attribute domains with approximate real-data weights.
pub mod domains {
    /// (value, weight) pairs for `workclass`.
    pub const WORKCLASS: &[(&str, f64)] = &[
        ("Private", 0.70),
        ("Self-emp-not-inc", 0.08),
        ("Local-gov", 0.06),
        ("State-gov", 0.04),
        ("Self-emp-inc", 0.03),
        ("Federal-gov", 0.03),
        ("Without-pay", 0.01),
        ("Never-worked", 0.05),
    ];
    /// (value, weight) pairs for `education`.
    pub const EDUCATION: &[(&str, f64)] = &[
        ("HS-grad", 0.32),
        ("Some-college", 0.22),
        ("Bachelors", 0.16),
        ("Masters", 0.05),
        ("Assoc-voc", 0.04),
        ("11th", 0.04),
        ("Assoc-acdm", 0.03),
        ("10th", 0.03),
        ("7th-8th", 0.02),
        ("Prof-school", 0.02),
        ("9th", 0.02),
        ("12th", 0.01),
        ("Doctorate", 0.01),
        ("5th-6th", 0.01),
        ("1st-4th", 0.01),
        ("Preschool", 0.01),
    ];
    /// (value, weight) pairs for `maritalstatus`.
    pub const MARITAL: &[(&str, f64)] = &[
        ("Married-civ-spouse", 0.46),
        ("Never-married", 0.33),
        ("Divorced", 0.14),
        ("Separated", 0.03),
        ("Widowed", 0.03),
        ("Married-spouse-absent", 0.01),
    ];
    /// (value, weight) pairs for `occupation`.
    pub const OCCUPATION: &[(&str, f64)] = &[
        ("Prof-specialty", 0.13),
        ("Craft-repair", 0.13),
        ("Exec-managerial", 0.12),
        ("Adm-clerical", 0.12),
        ("Sales", 0.11),
        ("Other-service", 0.10),
        ("Machine-op-inspct", 0.06),
        ("Transport-moving", 0.05),
        ("Handlers-cleaners", 0.04),
        ("Farming-fishing", 0.03),
        ("Tech-support", 0.03),
        ("Protective-serv", 0.02),
        ("Priv-house-serv", 0.01),
        ("Armed-Forces", 0.05),
    ];
    /// (value, weight) pairs for `relationship`.
    pub const RELATIONSHIP: &[(&str, f64)] = &[
        ("Husband", 0.40),
        ("Not-in-family", 0.26),
        ("Own-child", 0.16),
        ("Unmarried", 0.11),
        ("Wife", 0.05),
        ("Other-relative", 0.02),
    ];
    /// (value, weight) pairs for `race`.
    pub const RACE: &[(&str, f64)] = &[
        ("White", 0.85),
        ("Black", 0.10),
        ("Asian-Pac-Islander", 0.03),
        ("Amer-Indian-Eskimo", 0.01),
        ("Other", 0.01),
    ];
    /// (value, weight) pairs for `nativecountry`.
    pub const COUNTRY: &[(&str, f64)] = &[
        ("United-States", 0.90),
        ("Mexico", 0.02),
        ("Philippines", 0.01),
        ("Germany", 0.01),
        ("Canada", 0.01),
        ("Puerto-Rico", 0.01),
        ("India", 0.01),
        ("Cuba", 0.01),
        ("England", 0.01),
        ("China", 0.01),
    ];
}

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct AdultConfig {
    /// Number of rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdultConfig {
    fn default() -> Self {
        AdultConfig {
            rows: 8_000,
            seed: 0xAD01,
        }
    }
}

impl AdultConfig {
    /// Small preset for unit tests.
    pub fn tiny() -> Self {
        AdultConfig {
            rows: 800,
            ..Default::default()
        }
    }
}

/// Generate the synthetic Adult census table.
pub fn generate_adult(config: &AdultConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "adult",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("age", DataType::Int),
                Column::new("workclass", DataType::Text),
                Column::new("education", DataType::Text),
                Column::new("maritalstatus", DataType::Text),
                Column::new("occupation", DataType::Text),
                Column::new("relationship", DataType::Text),
                Column::new("race", DataType::Text),
                Column::new("sex", DataType::Text),
                Column::new("capitalgain", DataType::Int),
                Column::new("capitalloss", DataType::Int),
                Column::new("hoursperweek", DataType::Int),
                Column::new("nativecountry", DataType::Text),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    db.meta.exclude("adult", "name");

    fn pick(rng: &mut StdRng, domain: &[(&'static str, f64)]) -> &'static str {
        let w: Vec<f64> = domain.iter().map(|(_, x)| *x).collect();
        domain[weighted_index(rng, &w)].0
    }

    for i in 0..config.rows as i64 {
        let sex = if rng.random_bool(0.67) {
            "Male"
        } else {
            "Female"
        };
        let marital = pick(&mut rng, domains::MARITAL);
        // Relationship correlates with sex and marital status, loosely.
        let relationship = if marital == "Married-civ-spouse" {
            if sex == "Male" {
                "Husband"
            } else {
                "Wife"
            }
        } else {
            pick(&mut rng, domains::RELATIONSHIP)
        };
        let age: i64 = (17.0 + rng.random_range(0.0f64..1.0).powf(1.5) * 73.0) as i64;
        let capitalgain: i64 = if rng.random_bool(0.08) {
            rng.random_range(100..=99_999)
        } else {
            0
        };
        let capitalloss: i64 = if capitalgain == 0 && rng.random_bool(0.05) {
            rng.random_range(100..=4_356)
        } else {
            0
        };
        let hours: i64 = if rng.random_bool(0.55) {
            40
        } else {
            rng.random_range(1..=99)
        };
        db.insert(
            "adult",
            vec![
                Value::Int(i),
                Value::text(format!("Citizen {i:06}")),
                Value::Int(age),
                Value::text(pick(&mut rng, domains::WORKCLASS)),
                Value::text(pick(&mut rng, domains::EDUCATION)),
                Value::text(marital),
                Value::text(pick(&mut rng, domains::OCCUPATION)),
                Value::text(relationship),
                Value::text(pick(&mut rng, domains::RACE)),
                Value::text(sex),
                Value::Int(capitalgain),
                Value::Int(capitalloss),
                Value::Int(hours),
                Value::text(pick(&mut rng, domains::COUNTRY)),
            ],
        )
        .unwrap();
    }
    db.validate().expect("generated schema is valid");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let cfg = AdultConfig::tiny();
        let a = generate_adult(&cfg);
        let b = generate_adult(&cfg);
        assert_eq!(a.table("adult").unwrap().len(), cfg.rows);
        assert_eq!(
            a.table("adult").unwrap().cell(5, 4),
            b.table("adult").unwrap().cell(5, 4)
        );
    }

    #[test]
    fn marginals_are_roughly_census_like() {
        let db = generate_adult(&AdultConfig::default());
        let t = db.table("adult").unwrap();
        let white = t
            .iter()
            .filter(|(_, r)| r[8].as_text() == Some("White"))
            .count() as f64
            / t.len() as f64;
        assert!((0.78..0.92).contains(&white), "white fraction {white}");
        let forty =
            t.iter().filter(|(_, r)| r[12].as_int() == Some(40)).count() as f64 / t.len() as f64;
        assert!(forty > 0.4, "40-hour weeks {forty}");
    }

    #[test]
    fn ages_in_plausible_range() {
        let db = generate_adult(&AdultConfig::tiny());
        for (_, r) in db.table("adult").unwrap().iter() {
            let a = r[2].as_int().unwrap();
            assert!((17..=90).contains(&a), "age {a}");
        }
    }

    #[test]
    fn names_are_unique() {
        let db = generate_adult(&AdultConfig::tiny());
        let t = db.table("adult").unwrap();
        let mut names: Vec<&str> = t.iter().filter_map(|(_, r)| r[1].as_text()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
