//! The database catalog: a named collection of tables plus the schema graph
//! helpers the αDB builder walks (entity → fact → property paths).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{RelationError, Result};
use crate::schema::{SchemaMeta, TableRole, TableSchema};
use crate::table::{RowId, Table};
use crate::value::Value;

/// A complete in-memory database. Tables are shared between clones: a
/// clone copies no table, and a write through [`Database::table_mut`]
/// copies the table first if another clone still holds it.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    /// Administrator-provided metadata (non-semantic attributes etc.).
    pub meta: SchemaMeta,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new table. Fails on duplicate names.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(RelationError::InvalidSchema(format!(
                "duplicate table {name}"
            )));
        }
        self.tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Create and register an empty table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        self.add_table(Table::new(schema))
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|t| &**t)
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))
    }

    /// Mutably borrow a table, copying it first if a clone shares it.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| RelationError::UnknownTable(name.to_string()))
    }

    /// Insert a row into a named table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<RowId> {
        self.table_mut(table)?.insert(row)
    }

    /// Iterate all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(|t| &**t)
    }

    /// Estimated heap bytes of every table's storage.
    pub fn heap_bytes(&self) -> usize {
        self.tables().map(Table::heap_bytes).sum()
    }

    /// Names of all tables with a given role.
    pub fn tables_with_role(&self, role: TableRole) -> Vec<&str> {
        self.tables
            .values()
            .filter(|t| t.schema().role == role)
            .map(|t| t.name())
            .collect()
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Validate referential structure: every foreign key must reference an
    /// existing table whose referenced column exists, and every fact table
    /// must have at least two foreign keys.
    pub fn validate(&self) -> Result<()> {
        for t in self.tables.values() {
            for fk in &t.schema().foreign_keys {
                let target = self.tables.get(&fk.ref_table).ok_or_else(|| {
                    RelationError::InvalidSchema(format!(
                        "{}: fk references missing table {}",
                        t.name(),
                        fk.ref_table
                    ))
                })?;
                if fk.ref_column >= target.schema().arity() {
                    return Err(RelationError::InvalidSchema(format!(
                        "{}: fk references {}.col#{} which does not exist",
                        t.name(),
                        fk.ref_table,
                        fk.ref_column
                    )));
                }
            }
            // A fact table needs at least one foreign key; a single-FK
            // fact table associates an entity with inline attribute values
            // (Figure 1's research(aid, interest)).
            if t.schema().role == TableRole::Fact && t.schema().foreign_keys.is_empty() {
                return Err(RelationError::InvalidSchema(format!(
                    "fact table {} needs at least one foreign key",
                    t.name()
                )));
            }
        }
        Ok(())
    }

    /// Fact tables that link `from` (entity) to some other table, returned as
    /// `(fact_table, fk_to_from, fk_to_other, other_table)`. This is the
    /// schema-graph step of derived-property discovery (paper Section 5).
    pub fn associations_of(&self, from: &str) -> Vec<Association<'_>> {
        let mut out = Vec::new();
        for t in self.tables.values() {
            if t.schema().role != TableRole::Fact {
                continue;
            }
            let fks = &t.schema().foreign_keys;
            for (i, fk_from) in fks.iter().enumerate() {
                if fk_from.ref_table != from {
                    continue;
                }
                for (j, fk_to) in fks.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    out.push(Association {
                        fact_table: t.name(),
                        from_column: fk_from.column,
                        to_column: fk_to.column,
                        to_table: &fk_to.ref_table,
                    });
                }
            }
        }
        out
    }
}

/// One edge in the schema graph: a fact table connecting `from` to
/// `to_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Association<'a> {
    /// Name of the fact table realizing the association.
    pub fact_table: &'a str,
    /// Column in the fact table referencing the source entity.
    pub from_column: usize,
    /// Column in the fact table referencing the target.
    pub to_column: usize,
    /// The referenced target table (entity or property).
    pub to_table: &'a str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn imdb_skeleton() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Text),
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
        db
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = imdb_skeleton();
        let err = db
            .create_table(TableSchema::new(
                "person",
                vec![Column::new("id", DataType::Int)],
            ))
            .unwrap_err();
        assert!(matches!(err, RelationError::InvalidSchema(_)));
    }

    #[test]
    fn validate_accepts_well_formed_schema() {
        imdb_skeleton().validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_fk() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "f",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                ],
            )
            .with_role(TableRole::Fact)
            .with_foreign_key("a", "missing", 0)
            .with_foreign_key("b", "missing", 0),
        )
        .unwrap();
        assert!(db.validate().is_err());
    }

    #[test]
    fn validate_rejects_keyless_fact_table() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("f", vec![Column::new("a", DataType::Int)]).with_role(TableRole::Fact),
        )
        .unwrap();
        assert!(db.validate().is_err());
    }

    #[test]
    fn validate_accepts_single_fk_fact_table() {
        // Figure 1's research(aid, interest): one FK plus an inline value.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("e", vec![Column::new("id", DataType::Int)]).with_primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "f",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("v", DataType::Text),
                ],
            )
            .with_role(TableRole::Fact)
            .with_foreign_key("a", "e", 0),
        )
        .unwrap();
        db.validate().unwrap();
    }

    #[test]
    fn associations_walk_fact_tables() {
        let db = imdb_skeleton();
        let from_person = db.associations_of("person");
        assert_eq!(from_person.len(), 1);
        assert_eq!(from_person[0].fact_table, "castinfo");
        assert_eq!(from_person[0].to_table, "movie");

        let from_movie = db.associations_of("movie");
        let targets: Vec<_> = from_movie.iter().map(|a| a.to_table).collect();
        assert!(targets.contains(&"person"));
        assert!(targets.contains(&"genre"));
    }

    #[test]
    fn role_filtering() {
        let db = imdb_skeleton();
        let mut entities = db.tables_with_role(TableRole::Entity);
        entities.sort_unstable();
        assert_eq!(entities, vec!["movie", "person"]);
        assert_eq!(db.tables_with_role(TableRole::Property), vec!["genre"]);
    }

    #[test]
    fn insert_through_catalog() {
        let mut db = imdb_skeleton();
        db.insert("person", vec![Value::Int(1), Value::text("Jim Carrey")])
            .unwrap();
        assert_eq!(db.table("person").unwrap().len(), 1);
        assert!(db.insert("nope", vec![]).is_err());
    }
}
