//! Offline stand-in for `serde`: re-exports the no-op derives so
//! `use serde::{Deserialize, Serialize}` and `#[derive(..)]` compile.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
