//! **vbp-service** — a long-running VariantDBSCAN daemon.
//!
//! The paper's core result (§IV-B) is that a variant `(ε, minpts)` is
//! answered faster by *reusing* a dominated variant's completed clusters
//! than by clustering from scratch — but a batch engine forgets
//! everything between runs. This crate keeps the investment alive:
//!
//! - [`registry`] — named datasets with their
//!   [`PreparedIndex`](variantdbscan::PreparedIndex)es built once at
//!   startup (`T_low`/`T_high` and the tuned `r` of §IV-A);
//! - [`cache`] — completed [`ClusterResult`](vbp_dbscan::ClusterResult)s
//!   kept across runs, searched by parameter dominance, bounded by an
//!   LRU byte budget;
//! - [`server`] — a `std::net`-only TCP daemon with a bounded admission
//!   queue (typed `Overloaded` backpressure), a dispatcher that batches
//!   same-dataset requests into single engine runs seeded from the
//!   cache, and graceful drain on shutdown;
//! - [`protocol`] / [`client`] — the line protocol and a blocking
//!   client;
//! - [`http`] — an HTTP/1.1 gateway over the same [`Transport`] seam,
//!   queue, and dispatcher (bounded framing with typed `400`/`431`
//!   responses, JSON submit/append, Prometheus `/metrics` under the
//!   stats lock), plus a blocking keep-alive [`HttpClient`];
//! - [`transport`] / [`fault`] — the connection I/O seam (bounded line
//!   framing over a [`Transport`] trait) and its deterministic
//!   fault-injecting test implementations (seeded torn writes, scripted
//!   byte schedules, mid-stream cuts);
//! - [`store`] — persistent warm state: checksummed on-disk snapshots
//!   of every prepared index and the surviving cache entries, written
//!   on graceful drain and restored on boot without rebuilding
//!   anything;
//! - [`workload`] — the cold-vs-warm throughput probe used by
//!   `vbp bench-service` and the `service_throughput` bench;
//! - [`api`] — the transport-agnostic [`DatasetService`] trait both
//!   clients implement, so everything above the wire is written once;
//! - [`config`] — validated builders for [`ServiceConfig`] and
//!   [`RouterConfig`] with typed [`ConfigError`]s;
//! - [`ring`] / [`pool`] / [`router`] — many-daemon scale-out: a
//!   consistent-hash ring over backend daemons, bounded per-backend
//!   connection pools with a connect-failure breaker, and the
//!   `vbp route` HTTP front door that proxies dataset-scoped traffic
//!   to the owning backend and merges fan-out reads.
//!
//! Everything is plain `std` — the build environment is offline, so no
//! async runtime, serialization crate, or protocol framework is used.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod config;
pub mod fault;
pub mod http;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod ring;
pub mod router;
pub mod server;
pub mod store;
pub mod transport;
pub mod workload;

pub use api::{parse_retry_after, DatasetService, Health};
pub use cache::{result_bytes, CacheHit, CacheStats, DominanceCache, RepairStats};
pub use client::{AppendReply, Client, ClientError, Delta, SubmitReply, WatchReply};
pub use config::{ConfigError, RouterConfigBuilder, ServiceConfigBuilder};
pub use fault::{FaultPlan, FaultTransport, MemTransport, Step};
pub use http::{parse_json, HttpClient, HttpResponse, JsonValue};
pub use pool::{BackendCounters, BackendPool, PoolError};
pub use protocol::{parse_request, ErrorCode, Request};
pub use registry::{DatasetEntry, Registry};
pub use ring::HashRing;
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerHandle, ServiceConfig, SubmitError};
pub use store::{
    boot_from_store, dataset_path, persist_all, persist_dataset, restore_dataset, verify_dir,
    RestoredDataset, StoreBoot, STORE_EXT,
};
pub use transport::{LineEvent, LineIo, TcpTransport, Transport};
pub use workload::{run_cold_warm_on, ColdWarmReport};
