//! `perfbench` — the end-to-end and per-layer benchmark of `blossomd`.
//!
//! It builds the repository's `blossom` binary, starts `blossom serve`,
//! drives it from this one process with seeded inputs, checks every
//! answer byte for byte, and prints one JSON result line. See
//! `README.md` in this directory for the workloads and metrics.

pub mod closed;
pub mod inputs;
pub mod layers;
pub mod open;
pub mod run;
pub mod server;
pub mod stats;
