//! Offline stand-in for `serde`.
//!
//! JSON is the only format the planetp crates serialize to, so this
//! stand-in skips serde's format-agnostic data model: [`Serialize`]
//! streams JSON text into a [`ser::Writer`] and [`Deserialize`] parses
//! it from a [`de::Reader`]. The encodings are serde_json's (externally
//! tagged enums, `null` options, maps as objects, integer map keys as
//! strings), so frames and WAL records have the sizes the published
//! crates would give them.

pub mod de;
pub mod ser;

pub use de::Deserialize;
pub use ser::Serialize;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
