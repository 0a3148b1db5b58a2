//! Semantic property definitions and their automatic discovery from the
//! schema graph (paper Section 5, "Semantic property discovery").
//!
//! SQuID looks for semantic properties in three places:
//!
//! 1. **within entity relations** — direct attributes (`person.gender`);
//! 2. **in other relations reachable through one fact table** — categorical
//!    values of property tables (`genre.name` for a movie via
//!    `movietogenre`), and attributes of the fact table itself
//!    (`castinfo.role`);
//! 3. **in other entities** — aggregates of an associated entity's basic
//!    properties, reached through two fact hops (`persontogenre`: how many
//!    Comedy movies a person appeared in) or one fact hop plus a direct
//!    attribute of the associated entity (how many USA movies).
//!
//! Discovery is restricted to a depth of two fact tables, as in the paper.

use squid_engine::{PathStep, Pred, SemiJoin};
use squid_relation::{DataType, Database, Sym, TableRole, Value};

/// How a semantic property is reached from its entity table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropKind {
    /// Categorical attribute of the entity table itself (`person.gender`).
    DirectCategorical {
        /// Attribute column name.
        column: String,
    },
    /// Numeric attribute of the entity table itself (`person.age`).
    DirectNumeric {
        /// Attribute column name.
        column: String,
    },
    /// Categorical value of a property table one fact hop away
    /// (`movie -> movietogenre -> genre.name`). Multi-valued; basic (θ=⊥).
    FactCategorical {
        /// Fact table realizing the association.
        fact: String,
        /// Fact column referencing the entity's primary key.
        fact_entity_col: String,
        /// Fact column referencing the property table's primary key.
        fact_prop_col: String,
        /// Property table.
        prop_table: String,
        /// Property table's value column.
        prop_column: String,
    },
    /// Categorical attribute stored inline in a *single-FK* fact table —
    /// the fact is then a multi-valued attribute of the entity, like
    /// Figure 1's `research(aid, interest)`. Basic (θ = ⊥).
    InlineCategorical {
        /// Fact table.
        fact: String,
        /// Fact column referencing the entity's primary key.
        fact_entity_col: String,
        /// Attribute column of the fact table.
        column: String,
    },
    /// Count of fact rows per (entity, value of a fact-table attribute),
    /// e.g. how many `castinfo` rows with `role = 'actress'` a person has.
    /// Derived (carries θ).
    FactAttrCount {
        /// Fact table.
        fact: String,
        /// Fact column referencing the entity's primary key.
        fact_entity_col: String,
        /// Attribute column of the fact table.
        column: String,
    },
    /// Count of associated mid-entities per attribute value, via one fact
    /// hop (`person -> castinfo -> movie.country`: number of USA movies).
    /// Derived (carries θ). Numeric mid attributes additionally support
    /// suffix-range filters (`year >= c`).
    MidAttrCount {
        /// Fact table from entity to mid entity.
        fact: String,
        /// Fact column referencing the entity.
        fact_entity_col: String,
        /// Fact column referencing the mid entity.
        fact_mid_col: String,
        /// Mid entity table.
        mid_table: String,
        /// Attribute column of the mid table.
        column: String,
        /// Whether the attribute is numeric (enables range filters).
        numeric: bool,
    },
    /// Count of associations to a property value reached through two fact
    /// hops (`person -> castinfo -> movie -> movietogenre -> genre.name`),
    /// the paper's flagship `persontogenre` derived relation.
    TwoHopCount {
        /// First fact table (entity to mid).
        fact1: String,
        /// Column of `fact1` referencing the entity.
        f1_entity_col: String,
        /// Column of `fact1` referencing the mid entity.
        f1_mid_col: String,
        /// Mid entity table.
        mid_table: String,
        /// Second fact table (mid to property).
        fact2: String,
        /// Column of `fact2` referencing the mid entity.
        f2_mid_col: String,
        /// Column of `fact2` referencing the property table.
        f2_prop_col: String,
        /// Property table.
        prop_table: String,
        /// Property table's value column.
        prop_column: String,
    },
}

impl PropKind {
    /// Is this a derived property (carries an association strength θ)?
    pub fn is_derived(&self) -> bool {
        matches!(
            self,
            PropKind::FactAttrCount { .. }
                | PropKind::MidAttrCount { .. }
                | PropKind::TwoHopCount { .. }
        )
    }
}

/// A discovered semantic property of one entity table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyDef {
    /// Stable, human-readable identifier (unique within the αDB).
    pub id: String,
    /// Entity table the property belongs to.
    pub entity: String,
    /// Display name of the attribute (`gender`, `genre`, `country`...).
    pub attr_name: String,
    /// Structure of the property.
    pub kind: PropKind,
}

impl PropertyDef {
    /// Build the [`SemiJoin`] that expresses "entity has this property with
    /// value `v` (and count ≥ `theta` for derived properties)" against the
    /// ORIGINAL database. Direct attributes return `None` (they are plain
    /// root predicates on [`QueryFragments::root_col`]).
    pub fn semi_join(&self, pk_column: &str, v: &Value, theta: u64) -> Option<SemiJoin> {
        match &self.kind {
            PropKind::DirectCategorical { .. } | PropKind::DirectNumeric { .. } => None,
            PropKind::FactCategorical {
                fact,
                fact_entity_col,
                fact_prop_col,
                prop_table,
                prop_column,
            } => Some(SemiJoin::exists(vec![
                PathStep::new(fact, pk_column, fact_entity_col),
                PathStep::new(prop_table, fact_prop_col, "id").filter(Pred::eq(prop_column, *v)),
            ])),
            PropKind::InlineCategorical {
                fact,
                fact_entity_col,
                column,
            } => Some(SemiJoin::exists(vec![PathStep::new(
                fact,
                pk_column,
                fact_entity_col,
            )
            .filter(Pred::eq(column, *v))])),
            PropKind::FactAttrCount {
                fact,
                fact_entity_col,
                column,
            } => Some(SemiJoin::at_least(
                theta,
                vec![PathStep::new(fact, pk_column, fact_entity_col).filter(Pred::eq(column, *v))],
            )),
            PropKind::MidAttrCount {
                fact,
                fact_entity_col,
                fact_mid_col,
                mid_table,
                column,
                ..
            } => Some(SemiJoin::at_least(
                theta,
                vec![
                    PathStep::new(fact, pk_column, fact_entity_col),
                    PathStep::new(mid_table, fact_mid_col, "id").filter(Pred::eq(column, *v)),
                ],
            )),
            PropKind::TwoHopCount {
                fact1,
                f1_entity_col,
                f1_mid_col,
                fact2,
                f2_mid_col,
                f2_prop_col,
                prop_table,
                prop_column,
                ..
            } => Some(SemiJoin::at_least(
                theta,
                vec![
                    PathStep::new(fact1, pk_column, f1_entity_col),
                    PathStep::new(fact2, f1_mid_col, f2_mid_col),
                    PathStep::new(prop_table, f2_prop_col, "id").filter(Pred::eq(prop_column, *v)),
                ],
            )),
        }
    }

    /// Same as [`PropertyDef::semi_join`] but for a numeric mid-attribute
    /// *range* filter (`attr >= cut`, count ≥ θ), e.g. "≥10 movies released
    /// after 2010".
    pub fn semi_join_ge(&self, pk_column: &str, cut: &Value, theta: u64) -> Option<SemiJoin> {
        match &self.kind {
            PropKind::MidAttrCount {
                fact,
                fact_entity_col,
                fact_mid_col,
                mid_table,
                column,
                numeric: true,
            } => Some(SemiJoin::at_least(
                theta,
                vec![
                    PathStep::new(fact, pk_column, fact_entity_col),
                    PathStep::new(mid_table, fact_mid_col, "id").filter(Pred::ge(column, *cut)),
                ],
            )),
            _ => None,
        }
    }
}

/// Value-patchable query fragments prebuilt per property at αDB build
/// time. Abduced queries are regenerated on every interactive session
/// turn; with the fragments, generation clones a small interned template
/// and patches in the filter's value and θ instead of re-interning every
/// table and column name of every join path.
#[derive(Debug, Clone, Default)]
pub struct QueryFragments {
    /// Template for [`PropertyDef::semi_join`]; `None` for direct kinds.
    sj: Option<SjTemplate>,
    /// Template for [`PropertyDef::semi_join_ge`] (numeric mid attributes).
    sj_ge: Option<SjTemplate>,
    /// Semi-join over the derived relation (the αDB query form), for
    /// properties that have one.
    adb_sj: Option<SemiJoin>,
    /// Interned attribute column for direct-kind root predicates.
    root_col: Option<Sym>,
}

/// A [`SemiJoin`] with the position of its value-carrying predicate.
#[derive(Debug, Clone)]
struct SjTemplate {
    sj: SemiJoin,
    /// `(path step, predicate)` holding the placeholder value.
    at: (usize, usize),
    /// Whether θ flows into `min_count` (derived kinds).
    theta_min_count: bool,
}

impl SjTemplate {
    /// Wrap a template emitted with `Value::Null` as the placeholder.
    fn of(sj: SemiJoin, theta_min_count: bool) -> Option<SjTemplate> {
        let at = sj.path.iter().enumerate().find_map(|(si, step)| {
            step.predicates
                .iter()
                .position(|p| p.value.is_null())
                .map(|pi| (si, pi))
        })?;
        Some(SjTemplate {
            sj,
            at,
            theta_min_count,
        })
    }

    fn instantiate(&self, v: &Value, theta: u64) -> SemiJoin {
        let mut sj = self.sj.clone();
        if self.theta_min_count {
            sj.min_count = theta;
        }
        sj.path[self.at.0].predicates[self.at.1].value = *v;
        sj
    }
}

impl QueryFragments {
    /// Prebuild the fragments for one property of an entity with primary
    /// key column `pk_column` (and, for derived properties, the derived
    /// relation `derived_table`).
    pub fn build(def: &PropertyDef, pk_column: &str, derived_table: Option<&str>) -> Self {
        let derived = def.kind.is_derived();
        let sj = def
            .semi_join(pk_column, &Value::Null, 1)
            .and_then(|sj| SjTemplate::of(sj, derived));
        let sj_ge = def
            .semi_join_ge(pk_column, &Value::Null, 1)
            .and_then(|sj| SjTemplate::of(sj, true));
        let adb_sj = derived_table.map(|table| {
            SemiJoin::exists(vec![PathStep::new(table, pk_column, "entity_id")
                .filter(Pred::eq("value", Value::Null))
                .filter(Pred::ge("count", Value::Null))])
        });
        let root_col = match &def.kind {
            PropKind::DirectCategorical { column } | PropKind::DirectNumeric { column } => {
                Some(Sym::intern(column))
            }
            _ => None,
        };
        QueryFragments {
            sj,
            sj_ge,
            adb_sj,
            root_col,
        }
    }

    /// [`PropertyDef::semi_join`] from the prebuilt template.
    pub fn semi_join(&self, v: &Value, theta: u64) -> Option<SemiJoin> {
        Some(self.sj.as_ref()?.instantiate(v, theta))
    }

    /// [`PropertyDef::semi_join_ge`] from the prebuilt template.
    pub fn semi_join_ge(&self, cut: &Value, theta: u64) -> Option<SemiJoin> {
        Some(self.sj_ge.as_ref()?.instantiate(cut, theta))
    }

    /// Semi-join over the derived relation expressing "associated with
    /// `value` at least `theta` times" (Example 2.2's SPJ form on the αDB;
    /// it runs on [`crate::ADb::query_database`]). `None` for properties
    /// without a derived relation.
    pub fn adb_semi_join(&self, value: &Value, theta: u64) -> Option<SemiJoin> {
        let mut sj = self.adb_sj.clone()?;
        sj.path[0].predicates[0].value = *value;
        sj.path[0].predicates[1].value = Value::Int(theta as i64);
        Some(sj)
    }

    /// Interned attribute column for direct-kind root predicates.
    pub fn root_col(&self) -> Option<Sym> {
        self.root_col
    }
}

/// Discover all semantic properties of every entity table in `db`,
/// respecting the administrator's non-semantic exclusions.
pub fn discover_properties(db: &Database) -> Vec<PropertyDef> {
    let mut out = Vec::new();
    for entity in db.tables_with_role(TableRole::Entity) {
        discover_for_entity(db, entity, &mut out);
    }
    out
}

fn value_columns<'a>(
    db: &'a Database,
    table: &str,
) -> impl Iterator<Item = (usize, &'a squid_relation::Column)> + 'a {
    let t = db.table(table).expect("table exists");
    let schema = t.schema();
    let table_name = table.to_string();
    schema.columns.iter().enumerate().filter(move |(i, _)| {
        schema.primary_key != Some(*i)
            && schema.foreign_key_on(*i).is_none()
            && !db
                .meta
                .is_non_semantic(&table_name, &schema.columns[*i].name)
    })
}

fn discover_for_entity(db: &Database, entity: &str, out: &mut Vec<PropertyDef>) {
    // 1. Direct attributes.
    for (_, col) in value_columns(db, entity) {
        let kind = match col.dtype {
            DataType::Int | DataType::Float => PropKind::DirectNumeric {
                column: col.name.clone(),
            },
            DataType::Text | DataType::Bool => PropKind::DirectCategorical {
                column: col.name.clone(),
            },
        };
        out.push(PropertyDef {
            id: format!("{entity}.{}", col.name),
            entity: entity.to_string(),
            attr_name: col.name.clone(),
            kind,
        });
    }

    // 2a. Fact-table attributes (castinfo.role, research.interest). This
    // covers single-FK fact tables too — a fact with only an entity key
    // plus inline values is how Figure 1 stores research interests — and
    // deduplicates facts reachable through several associations.
    let mut seen_facts: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for fact_table in db.tables_with_role(TableRole::Fact) {
        let fact_schema = db.table(fact_table).expect("fact exists").schema();
        let Some(fk) = fact_schema
            .foreign_keys
            .iter()
            .find(|fk| fk.ref_table == entity)
        else {
            continue;
        };
        if !seen_facts.insert(fact_table) {
            continue;
        }
        let fact_entity_col = fact_schema.columns[fk.column].name.clone();
        let single_fk = fact_schema.foreign_keys.len() == 1;
        for (_, col) in value_columns(db, fact_table) {
            // In a single-FK fact the attribute IS a multi-valued basic
            // property of the entity (research.interest); in an
            // entity-to-entity fact it qualifies the association and is
            // counted (castinfo.role, which τa gates — the IQ3 story).
            let kind = if single_fk && matches!(col.dtype, DataType::Text | DataType::Bool) {
                PropKind::InlineCategorical {
                    fact: fact_table.to_string(),
                    fact_entity_col: fact_entity_col.clone(),
                    column: col.name.clone(),
                }
            } else {
                PropKind::FactAttrCount {
                    fact: fact_table.to_string(),
                    fact_entity_col: fact_entity_col.clone(),
                    column: col.name.clone(),
                }
            };
            out.push(PropertyDef {
                id: format!("{entity}~{fact_table}.{}", col.name),
                entity: entity.to_string(),
                attr_name: col.name.clone(),
                kind,
            });
        }
    }

    // 2b/3. One fact hop to another table (property or mid entity).
    for assoc in db.associations_of(entity) {
        let fact = assoc.fact_table;
        let fact_schema = db.table(fact).expect("fact exists").schema().clone();
        let fact_entity_col = fact_schema.columns[assoc.from_column].name.clone();
        let fact_target_col = fact_schema.columns[assoc.to_column].name.clone();
        let target = assoc.to_table;
        let target_role = db.table(target).expect("target exists").schema().role;

        match target_role {
            // 2b. Property table: basic categorical property.
            TableRole::Property => {
                for (_, col) in value_columns(db, target) {
                    out.push(PropertyDef {
                        id: format!("{entity}~{fact}~{target}.{}", col.name),
                        entity: entity.to_string(),
                        attr_name: format!("{target}.{}", col.name),
                        kind: PropKind::FactCategorical {
                            fact: fact.to_string(),
                            fact_entity_col: fact_entity_col.clone(),
                            fact_prop_col: fact_target_col.clone(),
                            prop_table: target.to_string(),
                            prop_column: col.name.clone(),
                        },
                    });
                }
            }
            // 3. Mid entity: identity + derived properties.
            TableRole::Entity => {
                if target == entity {
                    continue; // no self-associations (keeps the space sane)
                }
                // 3a'. Mid-entity *identity* properties: "associated with
                // the mid entity whose display value is X" (cast of Pulp
                // Fiction, movies featuring Tom Cruise). These are basic
                // (θ = ⊥): the display columns excluded from direct-attr
                // discovery serve as the identity value.
                let mid_schema = db.table(target).expect("mid exists").schema();
                for (ci, c) in mid_schema.columns.iter().enumerate() {
                    let is_display = mid_schema.primary_key != Some(ci)
                        && mid_schema.foreign_key_on(ci).is_none()
                        && c.dtype == DataType::Text
                        && db.meta.is_non_semantic(target, &c.name);
                    if !is_display {
                        continue;
                    }
                    out.push(PropertyDef {
                        id: format!("{entity}~{fact}~{target}!{}", c.name),
                        entity: entity.to_string(),
                        attr_name: format!("{target}.{}", c.name),
                        kind: PropKind::FactCategorical {
                            fact: fact.to_string(),
                            fact_entity_col: fact_entity_col.clone(),
                            fact_prop_col: fact_target_col.clone(),
                            prop_table: target.to_string(),
                            prop_column: c.name.clone(),
                        },
                    });
                }
                // 3a. Mid-entity attributes.
                for (_, col) in value_columns(db, target) {
                    let numeric = matches!(col.dtype, DataType::Int | DataType::Float);
                    out.push(PropertyDef {
                        id: format!("{entity}~{fact}~{target}.{}", col.name),
                        entity: entity.to_string(),
                        attr_name: format!("{target}.{}", col.name),
                        kind: PropKind::MidAttrCount {
                            fact: fact.to_string(),
                            fact_entity_col: fact_entity_col.clone(),
                            fact_mid_col: fact_target_col.clone(),
                            mid_table: target.to_string(),
                            column: col.name.clone(),
                            numeric,
                        },
                    });
                }
                // 3b. Mid entity's property tables (two fact hops).
                for assoc2 in db.associations_of(target) {
                    if db.table(assoc2.to_table).expect("exists").schema().role
                        != TableRole::Property
                    {
                        continue;
                    }
                    let f2_schema = db
                        .table(assoc2.fact_table)
                        .expect("fact2 exists")
                        .schema()
                        .clone();
                    let f2_mid_col = f2_schema.columns[assoc2.from_column].name.clone();
                    let f2_prop_col = f2_schema.columns[assoc2.to_column].name.clone();
                    for (_, col) in value_columns(db, assoc2.to_table) {
                        out.push(PropertyDef {
                            id: format!(
                                "{entity}~{fact}~{target}~{}~{}.{}",
                                assoc2.fact_table, assoc2.to_table, col.name
                            ),
                            entity: entity.to_string(),
                            attr_name: format!("{}.{}", assoc2.to_table, col.name),
                            kind: PropKind::TwoHopCount {
                                fact1: fact.to_string(),
                                f1_entity_col: fact_entity_col.clone(),
                                f1_mid_col: fact_target_col.clone(),
                                mid_table: target.to_string(),
                                fact2: assoc2.fact_table.to_string(),
                                f2_mid_col: f2_mid_col.clone(),
                                f2_prop_col: f2_prop_col.clone(),
                                prop_table: assoc2.to_table.to_string(),
                                prop_column: col.name.clone(),
                            },
                        });
                    }
                }
            }
            TableRole::Fact => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::mini_imdb;

    #[test]
    fn discovers_direct_attributes() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        assert!(props.iter().any(|p| p.id == "person.gender"));
        assert!(props.iter().any(
            |p| p.id == "person.birth_year" && matches!(p.kind, PropKind::DirectNumeric { .. })
        ));
        // Primary keys and names are excluded.
        assert!(!props.iter().any(|p| p.id == "person.id"));
        assert!(!props.iter().any(|p| p.id == "person.name"));
    }

    #[test]
    fn discovers_fact_categorical_for_movie_genre() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let p = props
            .iter()
            .find(|p| p.entity == "movie" && p.attr_name == "genre.name")
            .expect("movie genre property");
        assert!(matches!(p.kind, PropKind::FactCategorical { .. }));
        assert!(!p.kind.is_derived());
    }

    #[test]
    fn discovers_two_hop_person_to_genre() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let p = props
            .iter()
            .find(|p| p.entity == "person" && matches!(&p.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre"))
            .expect("persontogenre derived property");
        assert!(p.kind.is_derived());
        assert_eq!(p.attr_name, "genre.name");
    }

    #[test]
    fn discovers_mid_attr_counts_both_directions() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        // person -> movie.country (number of USA movies an actor appears in)
        assert!(props.iter().any(|p| p.entity == "person"
            && p.attr_name == "movie.country"
            && matches!(p.kind, PropKind::MidAttrCount { numeric: false, .. })));
        // movie -> person.country (number of American cast members)
        assert!(props
            .iter()
            .any(|p| p.entity == "movie" && p.attr_name == "person.country"));
        // numeric mid attribute
        assert!(props.iter().any(|p| p.entity == "person"
            && p.attr_name == "movie.year"
            && matches!(p.kind, PropKind::MidAttrCount { numeric: true, .. })));
    }

    #[test]
    fn discovers_fact_attr_role() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        assert!(props.iter().any(|p| p.entity == "person"
            && p.attr_name == "role"
            && matches!(p.kind, PropKind::FactAttrCount { .. })));
    }

    #[test]
    fn property_ids_are_unique() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let mut ids: Vec<_> = props.iter().map(|p| p.id.clone()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn semi_join_emission_for_two_hop() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let p = props
            .iter()
            .find(|p| p.entity == "person" && matches!(&p.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre"))
            .unwrap();
        let sj = p
            .semi_join("id", &Value::text("Comedy"), 40)
            .expect("derived semi-join");
        assert_eq!(sj.min_count, 40);
        assert_eq!(sj.path.len(), 3);
        assert_eq!(sj.path[0].table, "castinfo");
        assert_eq!(sj.path[2].table, "genre");
    }

    #[test]
    fn direct_props_emit_root_preds_not_semi_joins() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let p = props.iter().find(|p| p.id == "person.gender").unwrap();
        assert!(p.semi_join("id", &Value::text("Male"), 1).is_none());
        let fragments = QueryFragments::build(p, "id", None);
        assert_eq!(fragments.root_col(), Some(Sym::intern("gender")));
    }

    #[test]
    fn range_semi_join_only_for_numeric_mid_attrs() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let year = props
            .iter()
            .find(|p| p.entity == "person" && p.attr_name == "movie.year")
            .unwrap();
        assert!(year.semi_join_ge("id", &Value::Int(2010), 10).is_some());
        let country = props
            .iter()
            .find(|p| p.entity == "person" && p.attr_name == "movie.country")
            .unwrap();
        assert!(country.semi_join_ge("id", &Value::Int(0), 1).is_none());
    }
}

#[cfg(test)]
mod identity_tests {
    use super::*;
    use crate::test_fixtures::mini_imdb;

    #[test]
    fn identity_properties_for_mid_entities() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        // person ~ castinfo ~ movie!title: "appeared in the movie titled X".
        let p = props
            .iter()
            .find(|p| p.id == "person~castinfo~movie!title")
            .expect("movie identity property for person");
        assert!(matches!(p.kind, PropKind::FactCategorical { .. }));
        assert!(!p.kind.is_derived());
        // movie ~ castinfo ~ person!name: "features the person named X".
        assert!(props.iter().any(|p| p.id == "movie~castinfo~person!name"));
    }

    #[test]
    fn identity_semi_join_is_a_plain_exists() {
        let db = mini_imdb();
        let props = discover_properties(&db);
        let p = props
            .iter()
            .find(|p| p.id == "movie~castinfo~person!name")
            .unwrap();
        let sj = p.semi_join("id", &Value::text("Jim Carrey"), 1).unwrap();
        assert_eq!(sj.min_count, 1);
        assert_eq!(sj.path.len(), 2);
        assert_eq!(sj.path[1].table, "person");
    }
}
