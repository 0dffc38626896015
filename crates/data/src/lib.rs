//! Shared data layer for the high-order-models workspace.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Schema`] — attribute and class definitions for a stream. Attributes
//!   are either numeric or categorical; categorical values are stored as
//!   small integer codes inside the same `f64` cell as numeric values, which
//!   keeps a [`Dataset`] a single flat, cache-friendly buffer.
//! * [`Dataset`] — an owned, row-major table of labeled records.
//! * [`Instances`] — the read-only access trait that learners and the
//!   clustering algorithm consume. Both [`Dataset`] and the zero-copy
//!   [`IndexView`] implement it, so clustering can carve a historical
//!   dataset into thousands of overlapping-free clusters without copying a
//!   single row.
//! * [`StreamSource`] / [`StreamRecord`] — pull-based labeled stream
//!   abstraction used by the generators and the online experiments. Every
//!   record carries the generator's ground-truth concept id so the
//!   evaluation harness can align error curves on concept changes
//!   (paper Figs. 5–6).
//! * [`metrics`] — error rates, confusion matrices and the mean squared
//!   error used by the WCE baseline.
//! * [`rng`] — deterministic seeding helpers so every experiment is
//!   reproducible from a single `u64` seed.
//! * [`codec`] — the checked little-endian [`codec::Writer`] /
//!   [`codec::Reader`] pair binary formats are built on.

pub mod codec;
pub mod dataset;
pub mod io;
pub mod metrics;
pub mod rng;
pub mod schema;
pub mod stream;
pub mod view;

pub use dataset::Dataset;
pub use io::{read_csv, write_csv, CsvOptions};
pub use schema::{AttrKind, Attribute, ClassId, Schema};
pub use stream::{StreamRecord, StreamSource};
pub use view::{FullView, IndexView, Instances};
