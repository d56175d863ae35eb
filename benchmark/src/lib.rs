//! # ccdb-benchmark — the repository benchmark
//!
//! Four pinned workloads — two discrete-event simulations and two live
//! page-server loads — measured end to end from outside, with a traced
//! run that splits each workload's time into named layers. The layers
//! are timed by calls into the repository's public functions
//! (`ccdb_core::run_simulation*`, `ccdb_proto::ClientCore`,
//! `ccdb_server::{codec, ShardedEngine, serve, replay}`,
//! `ccdb_storage::{page_image, verify_page_image}`); the benchmark
//! changes no program code. See `README.md` for the workloads, metrics,
//! and how to run and compare.

#![warn(missing_docs)]

pub mod compare;
pub mod des;
pub mod live;
pub mod load;
pub mod rep;
pub mod replay;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sys;
