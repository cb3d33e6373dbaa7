#![warn(missing_docs)]

//! `blossom-storage` — the persistent storage engine: **BLM2** snapshots
//! and a generation-based on-disk document store.
//!
//! BLM2 is the one snapshot format: an aligned, versioned, little-endian
//! image of the struct-of-arrays arena itself. Every column — parent /
//! first-child / next-sibling / last-descendant / level / packed
//! kind|symbol, the text blob, and the `TagIndex` posting arrays with
//! their block max-end summaries — is a single contiguous, checksummed
//! extent. Opening a snapshot `mmap`s the file and cuts typed
//! [`blossom_xml::Col`] windows straight into it: no per-node decoding,
//! no per-node allocation, and the kernel pages column bytes in on
//! demand, so corpora larger than RAM serve under a bounded resident
//! set. See `DESIGN.md` §15 for the layout diagram and lifecycle.
//!
//! Modules:
//!
//! * [`format`] — the on-disk grammar: header, section directory,
//!   FNV-1a 64 checksums, alignment rules, and the little varint codec
//!   shared by the variable-length sections;
//! * [`snapshot`] — encode a `(Document, TagIndex, DocStats)` triple to
//!   BLM2 bytes and open them back, mapped (zero-copy) or heap-backed,
//!   with full validation at open so corrupt or truncated files produce
//!   errors, never panics or out-of-bounds access;
//! * [`stats`] — the `Stats` section codec, so an opened snapshot
//!   carries its planner statistics;
//! * [`store`] — a crash-safe spill directory: per-document generation
//!   files published via temp-file + rename, recovery that serves only
//!   complete generations;
//! * [`load`] — format sniffing (XML vs. BLM2) behind one loader the
//!   CLI and the server catalog share.

pub mod format;
pub mod load;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use load::{is_blm2, Loaded};
pub use snapshot::{EncodeOptions, OpenMode, Snapshot, StorageError};
pub use store::StoreDir;
