//! # rock-serve
//!
//! A dependency-free online labeling server for fitted ROCK models.
//!
//! The offline pipeline (`rock-cluster --save-model`) persists a
//! [`ModelSnapshot`](rock_core::snapshot::ModelSnapshot) — θ, `f(θ)`, the
//! interned vocabulary and the per-cluster representative sets `L_i`
//! drawn by the paper's §4.2 labeling phase. That snapshot is the entire
//! servable state: labeling a new point needs only the representatives
//! and the similarity threshold, never the training data. This crate
//! serves *many* such snapshots at once from a named, versioned
//! [`registry`] with atomic hot reload, and answers labeling queries
//! over HTTP/1.1.
//!
//! Everything is hand-rolled over `std`: the HTTP layer ([`http`]) is a
//! small request parser and response writer over
//! [`std::net::TcpStream`]; the server ([`server`]) shards accepting
//! across listener threads into a bounded connection queue drained by a
//! fixed worker pool, sheds load with `503 Retry-After` when the queue
//! is full, bounds each request with a
//! [`RunBudget`](rock_core::guard::RunBudget) wall deadline, labels
//! each request's points with one kernel call on the worker that parsed
//! it, and drains in-flight work before flushing metrics on shutdown.
//! Models live in the [`registry`]: validated
//! `rock-model/v1` snapshots behind a hand-rolled epoch-based Arc swap,
//! so an admin upload activates atomically while in-flight requests
//! finish on the model they pinned at dispatch.
//!
//! Endpoints:
//!
//! * `POST /label` — one JSON object, or an NDJSON batch (one object
//!   per line), labeled by the `default` model. Each object is
//!   `{"items":[…]}` (raw interned ids), `{"record":[…]}` (textual
//!   cells mapped through the snapshot vocabulary) or `{"basket":[…]}`
//!   (market-basket item names). Each input line yields one NDJSON
//!   response line `{"cluster":<id>}`, with `null` for outliers. The
//!   response carries `X-Rock-Model: <name>@v<version>` and
//!   `X-Rock-Model-Fingerprint` headers naming the exact model version
//!   that labeled it.
//! * `POST /models/{name}/label` — the same contract against a named
//!   registry model.
//! * `POST /admin/models/{name}` — upload a `rock-model/v1` snapshot
//!   body: validate, then atomically activate. A corrupt, truncated or
//!   version-mismatched body is rejected with the prior model still
//!   serving.
//! * `DELETE /admin/models/{name}` — unmount a model.
//! * `GET /admin/models` — registry listing with per-model state.
//! * `GET /healthz` — readiness probe reporting per-model
//!   ready/degraded state (`503` + `Retry-After` when nothing is
//!   mounted).
//! * `GET /metrics` — a `rock-serve-metrics/v1` JSON document embedding
//!   the core `rock-metrics/v1` schema plus server counters, registry
//!   gauges and per-model blocks.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod http;
pub mod registry;
pub mod server;

pub use http::{HttpError, Request, Response};
pub use registry::{ModelEntry, ModelSlot, ModelState, Registry};
pub use server::{ServeConfig, Server, ServerHandle};
