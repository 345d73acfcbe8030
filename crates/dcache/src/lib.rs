//! # slider-dcache — fault-tolerant distributed memoization layer
//!
//! Reproduces the memoization subsystem of Slider's architecture (paper §6,
//! Figure 6): a master-indexed, in-memory distributed cache for memoized
//! sub-computation outputs, backed by a fault-tolerant persistent tier that
//! keeps two replicas of every object. A *shim I/O layer* serves reads from
//! memory when possible and transparently falls back to the persistent
//! copies — the mechanism behind the paper's Table 2 (48–68% read-time
//! savings from in-memory caching).
//!
//! The crate simulates placement, latency, eviction, node failure and
//! garbage collection; object payloads are represented by their sizes (the
//! host engine keeps the actual values in process memory).
//!
//! ```
//! use slider_dcache::{CacheConfig, DistributedCache, NodeId, ObjectId};
//!
//! let mut cache = DistributedCache::new(CacheConfig::paper_defaults(4));
//! cache.put(ObjectId(1), 4096, NodeId(0), 0);
//! let read = cache.read(ObjectId(1), NodeId(0)).unwrap();
//! assert!(read.read_ns > 0);
//! # assert_eq!(read.source, slider_dcache::ReadSource::Memory);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Placement and latency math mixes u64 byte counts with usize indexing;
// every narrowing must be explicit and checked, never a silent `as`.
#![deny(clippy::cast_possible_truncation)]

mod gc;
mod master;
mod repair;
mod shared;
mod stats;
mod store;

pub use gc::GcPolicy;
pub use master::{
    CacheConfig, CacheError, DistributedCache, LatencyModel, NodeId, ObjectId, ReadOutcome,
    ReadSource,
};
pub use repair::RepairStats;
pub use shared::SharedCache;
pub use stats::{CacheStats, NamespaceStats};
pub use store::InMemoryStore;
