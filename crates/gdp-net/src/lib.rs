//! Std-only HTTP/1.1 serving frontend over the answering service.
//!
//! The consumer path ends at a network boundary: untrusted readers ask
//! for released statistics over HTTP, and the disclosure pipeline's
//! guarantees only matter in production if that boundary stays up under
//! real traffic. Answering is budget-free post-processing, so the
//! frontend's job is purely an availability problem; this crate is the
//! robustness machinery, built on `std` alone (a thread-per-request
//! accept loop over [`std::net::TcpListener`], no async runtime):
//!
//! * **Bounded request queue with explicit backpressure.** Accepted
//!   connections enter a fixed-capacity queue; overflow is refused on
//!   the spot with `503` + `Retry-After`, never buffered without limit
//!   ([`queue`]).
//! * **Per-request deadlines and socket timeouts.** Queue wait counts
//!   against the deadline (`504` on expiry); socket read/write
//!   timeouts make the workers slow-loris and stalled-writer safe
//!   ([`server`]).
//! * **A supervised worker pool.** A worker panic is counted, the
//!   connection dies, and the supervisor respawns the worker — the
//!   service keeps answering ([`server`]).
//! * **Graceful shutdown.** `POST /shutdown` (or a Unix signal via
//!   [`signal::install`]) stops the acceptor, drains queued and
//!   in-flight requests within a deadline, and reports whether the
//!   drain was clean ([`server::DrainReport`]).
//! * **Live store reload.** A supervised watcher thread (and
//!   `POST /v1/admin/reload`) re-scans the artifact directory the
//!   store was opened from: freshly published epochs go live, damage
//!   is quarantined, GC-reclaimed releases are retired. Reload
//!   failures degrade to typed errors and counters — the releases
//!   already being served are never disturbed ([`reload`]).
//! * **Observability.** `GET /health` and `GET /stats` expose uptime,
//!   in-flight and queue gauges, per-variant counts, memo-cache hit
//!   rate, panic/restart counters and the store-lifecycle section
//!   (epochs held, quarantined files, last-reload outcome) ([`stats`]).
//! * **Deterministic fault injection.** A [`FaultPlan`] threaded into
//!   the request path forces delays, holds, worker panics and
//!   artifact-load failures, so every degradation mode above is pinned
//!   by tests instead of exercised by luck ([`fault`]).
//!
//! Responses are bit-identical to direct
//! [`AnswerService::answer_typed`](gdp_serve::AnswerService::answer_typed)
//! calls: the JSON layer prints every finite `f64` with shortest
//! round-trip precision, and the conformance tests pin the equivalence
//! through a real socket.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod fault;
pub mod http;
pub mod queue;
pub mod reload;
pub mod server;
pub mod signal;
pub mod stats;

pub use api::{
    error_body, error_status, AnswerRequest, AnswerResponse, BatchAnswerRequest,
    BatchAnswerResponse, ErrorBody, ReleaseInfo, ReleasesResponse, ReloadResponse, WireAnswer,
};
pub use fault::{FaultAction, FaultPlan, Gate};
pub use http::{HttpError, Request, Response};
pub use reload::{ReloadConfig, StoreSnapshot};
pub use server::{DrainReport, Server, ServerConfig, ServerHandle};
pub use stats::{ledger_section, CacheSnapshot, LedgerInfo, StatsSnapshot, VariantCounts};
