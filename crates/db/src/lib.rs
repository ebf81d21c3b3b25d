//! # rai-db — the metadata database (paper §IV "MongoDB Database")
//!
//! RAI stores "meta-information about submissions, including execution
//! times, run-times, and logs … useful for grading or any other
//! coursework auditing process", plus the competition ranking, in
//! MongoDB. This crate is a from-scratch document database covering the
//! query surface RAI needs:
//!
//! * dynamic [`Value`]/[`Document`] model with dotted-path access,
//!   whose [`FieldName`]s borrow their text when it is a literal;
//! * Mongo-style query operators (`$eq`, `$ne`, `$gt(e)`, `$lt(e)`,
//!   `$in`, `$nin`, `$exists`, `$contains`, `$and`, `$or`, `$not`);
//! * update operators (`$set`, `$unset`, `$inc`, `$min`, `$max`,
//!   `$push`, `$pull`, `$rename`) with upsert;
//! * sort / skip / limit cursors;
//! * aggregation pipelines (`$match → $group → $sort → $limit`) for the
//!   auditing/reporting queries;
//! * secondary indexes consulted automatically for equality and range
//!   predicates (measured in the index-ablation bench);
//! * a thread-safe [`Database`] of named [`Collection`]s.
//!
//! ```
//! use rai_db::{doc, Database, Value};
//!
//! let db = Database::new();
//! db.collection("rankings").write().insert_one(doc! {
//!     "team" => "gpu-gophers", "runtime_s" => 0.47, "final" => true,
//! });
//! let top = db.collection("rankings").read()
//!     .find(&doc! { "runtime_s" => doc!{ "$lt" => 1.0 } });
//! assert_eq!(top.len(), 1);
//! assert_eq!(top[0].get_path("team"), Some(&Value::from("gpu-gophers")));
//! ```

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod collection;
pub mod database;
pub mod index;
pub mod journal;
pub mod query;
pub mod update;
pub mod value;

pub use aggregate::{aggregate, Accumulator, Stage};
pub use collection::{Collection, CollectionStats, DocId, FindOptions, SortOrder};
pub use database::{Database, DbError, DbRecovery};
pub use journal::DbRecord;
pub use query::matches;
pub use update::apply_update;
pub use value::{Document, FieldName, Value};
