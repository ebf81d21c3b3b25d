//! # rai-db — the metadata database (paper §IV "MongoDB Database")
//!
//! RAI stores "meta-information about submissions, including execution
//! times, run-times, and logs … useful for grading or any other
//! coursework auditing process", plus the competition ranking, in
//! MongoDB. This crate is a from-scratch document database the size of
//! the traffic RAI sends it — insert, upsert by key, find by key, scan,
//! index-ordered listing, count, group:
//!
//! * dynamic [`Value`]/[`Document`] model with dotted-path access,
//!   whose [`FieldName`]s borrow their text when it is a literal;
//! * filters that are documents of literals (`{"job_id": 7}`): every
//!   field must equal the document's, no operators;
//! * one update, `{"$set": {…}}`, with upsert;
//! * sort / limit cursors;
//! * aggregation pipelines (`$group`, then `$sort`) for the
//!   auditing/reporting queries;
//! * secondary indexes consulted automatically for a literal's point
//!   lookup and for a sort they cover;
//! * a thread-safe [`Database`] of named [`Collection`]s, journaled to a
//!   WAL when one is attached.
//!
//! ```
//! use rai_db::{doc, Database, FindOptions, Value};
//!
//! let db = Database::new();
//! let rankings = db.collection("rankings");
//! rankings.write().create_index("runtime_s");
//! for (team, runtime_s) in [("gpu-gophers", 0.47), ("warp-nine", 0.61), ("cache-money", 0.52)] {
//!     rankings.write().update_one(
//!         &doc! { "team" => team },
//!         &doc! { "$set" => doc!{ "runtime_s" => runtime_s, "final" => true } },
//!         true,
//!     );
//! }
//! let top = rankings.read().find_with(&doc! { "final" => true }, &FindOptions::sort_asc("runtime_s").limit(2));
//! assert_eq!(top.len(), 2);
//! assert_eq!(top[0].get_path("team"), Some(&Value::from("gpu-gophers")));
//! assert_eq!(rankings.read().find(&doc! { "team" => "warp-nine" }).len(), 1);
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
