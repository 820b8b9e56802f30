//! # bluedbm-workloads
//!
//! Dataset generators and experiment drivers for the BlueDBM
//! reproduction. Every table and figure of the paper's evaluation
//! (Tables 1–3, Figures 11–13, 16–21) has a driver module under
//! [`experiments`] that returns typed rows; the `exhibit` binary
//! prints them, and integration tests assert their *shape* (who wins, by
//! roughly what factor, where crossovers fall).
//!
//! The paper evaluates on real datasets the authors did not publish
//! (image corpora for LSH, graphs, text). The [`datagen`], [`lshgen`]
//! and [`graphgen`] modules produce seeded synthetic equivalents that
//! reproduce the access patterns the experiments actually measure:
//! random bucket scatter, dependent pointer chasing, and sequential
//! scans with planted needles. [`kvgen`] generates multi-tenant
//! key-value streams (zipfian/uniform draws, read/write/delete mixes)
//! for the million-key workload engine.

pub mod datagen;
pub mod experiments;
pub mod graphgen;
pub mod kvgen;
pub mod lshgen;
mod report;
