//! # cqa-serve — the serving layer
//!
//! Answers certain-query-answering traffic over a **live, mutating**
//! database: a concurrent TCP server ([`Server`]), and the same connection
//! handler over one byte stream ([`serve_stream`], which `certainty serve`
//! runs on stdin/stdout without `--listen`).
//!
//! One listener speaks two dialects, told apart by the first bytes of each
//! connection:
//!
//! * the **line protocol** — newline-delimited requests, one response line
//!   per request (grammar in [`protocol`]);
//! * minimal **HTTP/1.1** — `GET /metrics` renders the process-wide
//!   [`cqa_obs`] registry in the Prometheus text format, `GET /view/<name>`
//!   returns a materialized view's current reading, `POST /query` runs
//!   one line-protocol request and returns its response line. Connections
//!   are persistent by default (RFC 9112 keep-alive), closing on
//!   `Connection: close` or broken framing.
//!
//! ## Architecture
//!
//! ```text
//!            TcpListener (acceptor thread)
//!                 │ one OS thread per connection
//!                 ▼
//!   connection handler ──► admission control (bounded in-flight, reject
//!       │                  loudly when saturated)
//!       │ query job        │
//!       ▼                  ▼
//!   ParPool (vendored workpool) ──► EpochManager::current() ─┐
//!       │  chunked evaluation with CancelToken checks        │
//!       ▼                                                    ▼
//!   response line ◄── deadline? ◄── BatchEngine @ epoch N (frozen Snapshot,
//!                                   shared per-query engine memo)
//! ```
//!
//! **Epochs (MVCC-lite).** Readers never block writers and writers never
//! block readers: every query grabs an `Arc` onto the *current*
//! [`cqa_par::BatchEngine`] — a frozen [`cqa_data::Snapshot`] plus the
//! shared per-query engine memo — and answers entirely on that epoch. A write
//! (`\insert` / `\remove` / `\remove-block`) mutates a copy-on-write copy
//! of the master database under a writer lock (the mutation maintains
//! every index of [`cqa_data::DatabaseIndex`] itself), forks the next
//! engine with [`cqa_par::BatchEngine::with_snapshot`] (sharing the
//! engine memo), and publishes it with one atomic pointer swap.
//! A query therefore observes **exactly one** epoch — never a torn mix —
//! which `tests/serve.rs` checks under concurrent read/write interleavings.
//!
//! **Materialized views (`cqa-stream`).** `\subscribe <name> <query>`
//! registers a [`cqa_stream::MaterializedView`]; every effective write
//! repairs the registered views incrementally from the recorded
//! [`cqa_data::ChangeSet`] (block-level provenance, damage-thresholded
//! fallback) and publishes the repaired readings **atomically with** the
//! engine pointer swap, so `\view <name>` and `GET /view/<name>` can never
//! observe a reading from a different epoch than a concurrent query. Old
//! epochs still pinned by slow readers are counted by the
//! `serve.epochs.pinned` gauge.
//!
//! **Admission control.** In-flight queries (queued + running) are bounded
//! by [`ServerConfig::max_inflight`]; a request past the bound is rejected
//! immediately with a loud `error: overloaded` response instead of queueing
//! without bound.
//!
//! **Deadlines.** [`ServerConfig::deadline`] arms a per-query
//! [`CancelToken`]; evaluation checks it between candidate-answer chunks
//! ([`ServerConfig::query_chunk`]) and aborts gracefully, and the waiting
//! connection handler responds `error: deadline exceeded` as soon as the
//! deadline passes even if the worker is mid-chunk.
//!
//! **Pipelining.** A piped stdin script ([`serve_stream`]) has its query
//! lines answered in parallel: while the next line is already buffered,
//! the handler submits it before it waits, up to
//! [`ServerConfig::max_inflight`] queries — the stream is the server's only
//! client. Responses still come back in request order, and any request
//! other than a query first waits for the earlier answers. A TCP
//! connection keeps one query in flight, so no connection holds more than
//! one admission slot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod epoch;
pub mod protocol;
pub mod server;
mod stats;

pub use admission::{Admission, CancelToken, Permit};
pub use epoch::{EpochManager, ViewReading, WriteOutcome};
pub use protocol::{render_result, Request, WriteOp};
pub use server::{serve_stream, QueryStartHook, Server, ServerConfig, ServerHandle};
