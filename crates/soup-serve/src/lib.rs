//! # soup-serve — request serving over a souped model
//!
//! Online node-classification over the Phase-2 soup: a multi-threaded TCP
//! server answering `PREDICT` queries through the same fused inference
//! paths the offline pipeline uses (`predict_cached` for f32,
//! `predict_quant` for int8/bf16), with the serving concerns layered on
//! top:
//!
//! - **Micro-batching** ([`batcher`]) — queued requests coalesce into one
//!   full-graph forward under a max-batch / max-delay policy; answers are
//!   bit-identical to one-at-a-time evaluation because the forward is the
//!   same full-graph pass either way.
//! - **Admission control** ([`server`]) — a bounded queue; overflow gets
//!   an explicit `OVERLOADED` response instead of unbounded queueing.
//! - **Hot model swap** — `SWAP` (promote a checkpoint file) and `RESOUP`
//!   (re-soup a pool through the [`soup_core::SoupStrategy`] registry and
//!   promote the winner) replace the live `Arc<ServeModel>` under a write
//!   lock without pausing traffic; requests sent after the promote ack are
//!   guaranteed the new model.
//! - **Observability** — `serve.*` counters, latency/batch-size
//!   histograms, and a queue-depth gauge in the soup-obs registry,
//!   surfaced by the `STATS` opcode.
//!
//! The wire format ([`proto`]) is deliberately tiny: opcode-tagged
//! [`soup_error::wire`] frames over TCP, the same codec the shard control
//! channel and halo exchange use, no external protocol dependencies. [`client`]
//! is the matching blocking client and [`load`] a deterministic
//! Zipf-skewed closed-loop generator used by `bench_serve` and CI.

pub mod batcher;
pub mod client;
pub mod load;
pub mod proto;
pub mod server;

pub use batcher::PredictReply;
pub use client::{Client, PredictResult};
pub use load::{run_closed_loop, LoadConfig, LoadReport, ZipfSampler};
pub use proto::{Opcode, Request, Response, Status, MAX_FRAME, MAX_PREDICT_IDS};
pub use server::{ServeConfig, ServeModel, Server};
