//! The master-coordinated distributed cache with the shim I/O layer.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

use slider_trace::{seconds_to_ticks, SpanKind, TraceSink};

use crate::gc::GcPolicy;
use crate::repair::RepairStats;
use crate::stats::{CacheStats, NamespaceStats};
use crate::store::InMemoryStore;

/// Trace track every cache span lands on.
const TRACE_TRACK: &str = "dcache";

/// Identifies a slave node of the memoization layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifies a memoized object (a contraction-tree node or task output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Builds a tenant-scoped id by packing a 32-bit namespace above a
    /// 32-bit local id. Namespace `0` is the legacy/standalone space:
    /// `ObjectId::namespaced(0, n) == ObjectId(n)`, so single-job callers
    /// that construct raw `ObjectId`s stay bit-compatible.
    ///
    /// # Panics
    ///
    /// Panics if `local` does not fit in 32 bits.
    #[must_use]
    pub fn namespaced(namespace: u32, local: u64) -> ObjectId {
        assert!(local < (1 << 32), "local object id {local} exceeds 32 bits");
        ObjectId((u64::from(namespace) << 32) | local)
    }

    /// The namespace this id belongs to (`0` for raw/legacy ids).
    #[must_use]
    pub fn namespace(self) -> u32 {
        u32::try_from(self.0 >> 32).expect("u64 >> 32 fits in u32")
    }

    /// The id within its namespace.
    #[must_use]
    pub fn local(self) -> u64 {
        self.0 & 0xffff_ffff
    }
}

/// Latency model of the storage tiers: a per-operation overhead in seconds
/// and bandwidths in bytes per second. Each operation's latency is rounded
/// once to whole nanoseconds where it is charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed overhead per operation (index lookup, RPC to the master).
    pub per_op_seconds: f64,
    /// Memory-tier read bandwidth, bytes/second.
    pub memory_bytes_per_second: f64,
    /// Persistent-tier (disk) read bandwidth, bytes/second.
    pub disk_bytes_per_second: f64,
    /// Network bandwidth for non-local reads, bytes/second.
    pub network_bytes_per_second: f64,
}

impl LatencyModel {
    /// Defaults loosely calibrated to 2014-era hardware (DDR vs. SATA disk
    /// vs. GbE); only ratios matter for the reproduced shapes.
    pub fn paper_defaults() -> Self {
        LatencyModel {
            per_op_seconds: 0.000_5,
            memory_bytes_per_second: 4.0e9,
            disk_bytes_per_second: 120.0e6,
            network_bytes_per_second: 110.0e6,
        }
    }

    /// Checks the model is usable: the per-operation overhead finite and
    /// non-negative, every bandwidth finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let per_op = self.per_op_seconds;
        if !(per_op.is_finite() && per_op >= 0.0) {
            return Err(format!(
                "per_op_seconds must be finite and >= 0, got {per_op}"
            ));
        }
        for (name, rate) in [
            ("memory_bytes_per_second", self.memory_bytes_per_second),
            ("disk_bytes_per_second", self.disk_bytes_per_second),
            ("network_bytes_per_second", self.network_bytes_per_second),
        ] {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("{name} must be finite and > 0, got {rate}"));
            }
        }
        Ok(())
    }
}

/// Configuration of the distributed memoization layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Number of slave nodes.
    pub nodes: usize,
    /// Per-node memory-tier capacity, bytes.
    pub memory_capacity_bytes: u64,
    /// Whether the in-memory tier is enabled (Table 2 disables it to
    /// quantify the savings).
    pub memory_enabled: bool,
    /// Number of persistent replicas per object (the paper uses 2).
    /// Clamped to the node count at cache creation — more replicas than
    /// nodes cannot be placed distinctly.
    pub replicas: usize,
    /// Latency model.
    pub latency: LatencyModel,
    /// Garbage-collection policy.
    pub gc: GcPolicy,
    /// Enables self-healing: under-replicated objects are enqueued for
    /// background re-replication and drained by
    /// [`DistributedCache::drain_repairs`]. Off by default so fault-free
    /// benchmarks are bit-identical with and without this feature built.
    pub repair: bool,
    /// Scrub cadence hint for the host run loop, in epochs; `0` disables
    /// scrubbing. The cache itself never scrubs spontaneously — the host
    /// calls [`DistributedCache::scrub`] so the work lands at deterministic
    /// points.
    pub scrub_interval: u64,
}

impl CacheConfig {
    /// Paper-like defaults for an `nodes`-worker cluster: 2 persistent
    /// replicas, 1 GiB of memoization memory per node, window-based GC,
    /// self-healing off.
    pub fn paper_defaults(nodes: usize) -> Self {
        CacheConfig {
            nodes,
            memory_capacity_bytes: 1 << 30,
            memory_enabled: true,
            replicas: 2,
            latency: LatencyModel::paper_defaults(),
            gc: GcPolicy::WindowBased { horizon: 1 },
            repair: false,
            scrub_interval: 0,
        }
    }

    /// Enables background re-replication (see [`CacheConfig::repair`]).
    pub fn with_repair(mut self) -> Self {
        self.repair = true;
        self
    }

    /// Sets the scrub cadence in epochs (see
    /// [`CacheConfig::scrub_interval`]); `0` disables scrubbing.
    pub fn with_scrub_interval(mut self, interval: u64) -> Self {
        self.scrub_interval = interval;
        self
    }

    /// Checks the configuration is usable: at least one node, at least one
    /// persistent replica, and a latency model [`LatencyModel::validate`]
    /// accepts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cache needs at least one node".into());
        }
        if self.replicas == 0 {
            return Err("cache needs at least one persistent replica".into());
        }
        self.latency
            .validate()
            .map_err(|m| format!("cache latency model: {m}"))
    }
}

/// Where a read was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// In-memory tier on the reading node.
    Memory,
    /// In-memory tier on a remote node (network + memory).
    RemoteMemory,
    /// Persistent tier on the reading node.
    LocalDisk,
    /// Persistent tier on a remote node (network + disk).
    RemoteDisk,
}

/// Result of a successful read through the shim I/O layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Simulated nanoseconds the read took.
    pub read_ns: u64,
    /// Tier and locality that served it.
    pub source: ReadSource,
    /// Object size in bytes.
    pub bytes: u64,
}

/// Errors surfaced by cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// The object is not in the index (never stored, or collected).
    NotFound(ObjectId),
    /// The object is indexed but every replica is on failed nodes.
    Unavailable(ObjectId),
    /// A node id outside the configured cluster was used.
    UnknownNode(NodeId),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::NotFound(id) => write!(f, "object {} not found", id.0),
            CacheError::Unavailable(id) => {
                write!(
                    f,
                    "object {} unavailable: all replicas on failed nodes",
                    id.0
                )
            }
            CacheError::UnknownNode(n) => write!(f, "unknown node n{}", n.0),
        }
    }
}

impl Error for CacheError {}

/// Checksum of an object's content, modeled as FNV-1a over the identity
/// the simulation tracks (id, size, producing epoch) — payloads are
/// size-only here, so this is the strongest integrity tag available.
fn content_checksum(id: u64, bytes: u64, epoch: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for word in [id, bytes, epoch] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A persistent copy as stored on a node's disk. Carries its own
/// checksum so the read path, scrub, and master rebuild can tell clean
/// copies from corrupt or stale ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DiskCopy {
    bytes: u64,
    epoch: u64,
    checksum: u64,
}

#[derive(Debug, Clone)]
struct ObjectMeta {
    bytes: u64,
    /// Node whose memory tier holds the object (its "home").
    home: NodeId,
    /// Nodes holding persistent replicas.
    replicas: Vec<NodeId>,
    /// Epoch tag for window-based GC (the run that produced the object).
    epoch: u64,
    /// Expected content checksum of every replica.
    checksum: u64,
}

#[derive(Debug, Clone)]
struct Node {
    memory: InMemoryStore,
    /// Persistent objects on this node. Unbounded.
    disk: HashMap<ObjectId, DiskCopy>,
    alive: bool,
}

/// The distributed, fault-tolerant memoization cache (paper §6, Figure 6).
///
/// The master (this struct) keeps the object index; slaves hold an
/// in-memory tier plus persistent replicas. See the crate docs for an
/// example.
// `Clone` is the checkpoint primitive: a clone captures the whole cache —
// index, per-node memory/disk tiers, repair queue, stats — so a restored
// engine replays byte-identical hit/miss/latency sequences. The clone
// shares the `TraceSink` handle; `SharedCache::snapshot_cache` detaches it
// and restore paths attach their own sink.
#[derive(Debug, Clone)]
pub struct DistributedCache {
    config: CacheConfig,
    nodes: Vec<Node>,
    index: HashMap<ObjectId, ObjectMeta>,
    stats: CacheStats,
    /// Per-namespace counters (puts, evictions, collections). Live
    /// object/byte censuses are computed from the index on demand so
    /// index-rebuilding fault paths cannot leave these inconsistent.
    namespaces: BTreeMap<u32, NamespaceStats>,
    repair: RepairStats,
    /// Objects awaiting background re-replication, drained in id order so
    /// repair work is deterministic.
    repair_queue: BTreeSet<ObjectId>,
    /// Observability sink for spans only, disabled by default; see
    /// [`DistributedCache::attach_trace`] for where the counters come from.
    trace: TraceSink,
}

impl DistributedCache {
    /// Creates the cache with `config`. A replica count above the node
    /// count is clamped — distinct placement is impossible beyond one copy
    /// per node.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the configuration.
    pub fn new(mut config: CacheConfig) -> Self {
        if let Err(m) = config.validate() {
            panic!("{m}");
        }
        config.replicas = config.replicas.min(config.nodes);
        let nodes = (0..config.nodes)
            .map(|_| Node {
                memory: InMemoryStore::new(config.memory_capacity_bytes),
                disk: HashMap::new(),
                alive: true,
            })
            .collect();
        DistributedCache {
            config,
            nodes,
            index: HashMap::new(),
            stats: CacheStats::default(),
            namespaces: BTreeMap::new(),
            repair: RepairStats::default(),
            repair_queue: BTreeSet::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Attaches an observability sink. Pass the job's sink so cache spans
    /// land in the same trace as the engine's; the default disabled sink
    /// records nothing at one branch per call site. The cache records
    /// spans only: the `dcache.*` counters are the sums of
    /// [`CacheStats::trace_counters`] and [`RepairStats::trace_counters`]
    /// over the engine's completed runs, so activity outside a run (a
    /// standalone traced cache, a node failed between runs) is not counted.
    pub fn attach_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Replication target given the current cluster state.
    fn want_replicas(&self) -> usize {
        self.config.replicas.min(self.alive_count().max(1))
    }

    /// Enqueues `object` for background re-replication (no-op with repair
    /// disabled).
    fn enqueue_repair(&mut self, object: ObjectId) {
        if self.config.repair && self.repair_queue.insert(object) {
            self.repair.enqueued += 1;
        }
    }

    /// Puts `object` into `home`'s memory tier. LRU pressure may push other
    /// objects out; each victim is billed to its namespace, so noisy
    /// neighbours show in per-tenant accounting and the namespaces'
    /// evictions sum to [`CacheStats::evictions`].
    fn put_in_memory(&mut self, home: NodeId, object: ObjectId, bytes: u64) {
        for victim in self.nodes[home.0].memory.put(object.0, bytes) {
            self.namespaces
                .entry(ObjectId(victim).namespace())
                .or_default()
                .evictions += 1;
        }
    }

    /// Stores `object` of `bytes` with its memory copy on `home` and up to
    /// `replicas` persistent copies on distinct nodes walking the ring from
    /// `home + 1`, tagged with the GC `epoch` of the producing run. With
    /// repair enabled the walk skips failed nodes (and enqueues the object
    /// if it still lands under-replicated); with it disabled dead nodes
    /// stay in the replica set but receive no copy, preserving the
    /// fail-then-recover semantics of the plain replicated layer.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the cluster.
    pub fn put(&mut self, object: ObjectId, bytes: u64, home: NodeId, epoch: u64) {
        assert!(home.0 < self.nodes.len(), "unknown home node {home:?}");
        let n = self.nodes.len();
        let want = self.config.replicas;
        let mut replicas: Vec<NodeId> = Vec::with_capacity(want);
        for i in 0..n {
            if replicas.len() >= want {
                break;
            }
            let candidate = NodeId((home.0 + 1 + i) % n);
            if self.config.repair && !self.nodes[candidate.0].alive {
                continue;
            }
            replicas.push(candidate);
        }
        debug_assert!(
            replicas.iter().collect::<BTreeSet<_>>().len() == replicas.len(),
            "replica placement must be distinct: {replicas:?}"
        );
        debug_assert!(
            self.config.repair || replicas.len() == want,
            "without dead-node skipping the ring must fill the target"
        );
        let checksum = content_checksum(object.0, bytes, epoch);

        // Tear down copies from a previous placement of the same id so a
        // re-put cannot leave orphans on live nodes (dead nodes are
        // reconciled by `recover_node`).
        if let Some(old) = self.index.get(&object).cloned() {
            if old.home != home && self.nodes[old.home.0].alive {
                self.nodes[old.home.0].memory.remove(object.0);
            }
            for r in &old.replicas {
                if self.nodes[r.0].alive && !replicas.contains(r) {
                    self.nodes[r.0].disk.remove(&object);
                }
            }
        }

        if self.config.memory_enabled && self.nodes[home.0].alive {
            self.put_in_memory(home, object, bytes);
        }
        let mut live_copies = 0usize;
        for &replica in &replicas {
            if self.nodes[replica.0].alive {
                self.nodes[replica.0].disk.insert(
                    object,
                    DiskCopy {
                        bytes,
                        epoch,
                        checksum,
                    },
                );
                live_copies += 1;
            }
        }
        self.index.insert(
            object,
            ObjectMeta {
                bytes,
                home,
                replicas,
                epoch,
                checksum,
            },
        );
        let ns = self.namespaces.entry(object.namespace()).or_default();
        ns.puts += 1;
        ns.put_bytes += bytes;
        self.trace.with(|t| {
            let tr = t.track(TRACE_TRACK);
            let s = t.leaf_ns(tr, SpanKind::CacheWrite, format!("put {}", object.0), 0);
            t.arg(s, "bytes", bytes);
            t.arg(s, "live_copies", live_copies as u64);
        });
        if live_copies < self.want_replicas() {
            self.enqueue_repair(object);
        }
    }

    /// Reads `object` from the perspective of `reader` through the shim
    /// layer: memory first, then persistent replicas (local preferred).
    /// Replica copies are checksum-verified; a corrupt or stale copy is
    /// never served — it is discarded (and enqueued for repair) and the
    /// read fails over to the next clean replica.
    ///
    /// # Errors
    ///
    /// [`CacheError::NotFound`] if the object was never stored or was
    /// collected; [`CacheError::Unavailable`] if every clean replica is on
    /// failed nodes; [`CacheError::UnknownNode`] for an out-of-range
    /// reader.
    pub fn read(&mut self, object: ObjectId, reader: NodeId) -> Result<ReadOutcome, CacheError> {
        if reader.0 >= self.nodes.len() {
            return Err(CacheError::UnknownNode(reader));
        }
        let meta = match self.index.get(&object) {
            Some(m) => m.clone(),
            None => {
                self.stats.not_found_reads += 1;
                self.trace.with(|t| {
                    let tr = t.track(TRACE_TRACK);
                    t.leaf_ns(tr, SpanKind::CacheRead, format!("miss {}", object.0), 0);
                });
                return Err(CacheError::NotFound(object));
            }
        };
        let lat = self.config.latency;

        // 1. Memory tier on the home node.
        if self.config.memory_enabled && self.nodes[meta.home.0].alive {
            let hit = self.nodes[meta.home.0].memory.get(object.0).is_some();
            if hit {
                let (source, bandwidth) = if meta.home == reader {
                    (ReadSource::Memory, lat.memory_bytes_per_second)
                } else {
                    (ReadSource::RemoteMemory, lat.network_bytes_per_second)
                };
                let read_ns = seconds_to_ticks(lat.per_op_seconds + meta.bytes as f64 / bandwidth);
                self.stats.memory_hits += 1;
                self.stats.read_ns += read_ns;
                self.stats.bytes_read += meta.bytes;
                self.trace.with(|t| {
                    let tr = t.track(TRACE_TRACK);
                    let s = t.leaf_ns(
                        tr,
                        SpanKind::CacheRead,
                        format!("read {}", object.0),
                        read_ns,
                    );
                    t.arg(s, "bytes", meta.bytes);
                });
                return Ok(ReadOutcome {
                    read_ns,
                    source,
                    bytes: meta.bytes,
                });
            }
        }

        // 2. Persistent tier: prefer a replica on the reading node, then
        // lowest node id, verifying each candidate before serving it.
        let mut candidates: Vec<NodeId> = meta
            .replicas
            .iter()
            .copied()
            .filter(|r| self.nodes[r.0].alive && self.nodes[r.0].disk.contains_key(&object))
            .collect();
        candidates.sort_unstable_by_key(|r| (usize::from(*r != reader), r.0));
        let mut replica = None;
        for candidate in candidates {
            let copy = self.nodes[candidate.0].disk[&object];
            if copy.checksum == meta.checksum {
                replica = Some(candidate);
                break;
            }
            // Corrupt (or stale, after an unclean recovery) copy: drop it
            // before anyone can read it and schedule re-replication.
            self.nodes[candidate.0].disk.remove(&object);
            self.repair.corruptions_detected += 1;
            self.enqueue_repair(object);
        }
        let Some(replica) = replica else {
            self.stats.unavailable_reads += 1;
            self.trace.with(|t| {
                let tr = t.track(TRACE_TRACK);
                t.leaf_ns(
                    tr,
                    SpanKind::CacheRead,
                    format!("unavailable {}", object.0),
                    0,
                );
            });
            self.enqueue_repair(object);
            return Err(CacheError::Unavailable(object));
        };
        let (source, seconds) = if replica == reader {
            (
                ReadSource::LocalDisk,
                lat.per_op_seconds + meta.bytes as f64 / lat.disk_bytes_per_second,
            )
        } else {
            (
                ReadSource::RemoteDisk,
                lat.per_op_seconds
                    + meta.bytes as f64 / lat.disk_bytes_per_second
                    + meta.bytes as f64 / lat.network_bytes_per_second,
            )
        };
        let read_ns = seconds_to_ticks(seconds);
        // Promote back into memory on the home node (re-warm after failure
        // or eviction).
        if self.config.memory_enabled && self.nodes[meta.home.0].alive {
            self.put_in_memory(meta.home, object, meta.bytes);
        }
        self.stats.disk_reads += 1;
        self.stats.read_ns += read_ns;
        self.stats.bytes_read += meta.bytes;
        self.trace.with(|t| {
            let tr = t.track(TRACE_TRACK);
            let s = t.leaf_ns(
                tr,
                SpanKind::CacheRead,
                format!("read {}", object.0),
                read_ns,
            );
            t.arg(s, "bytes", meta.bytes);
        });
        Ok(ReadOutcome {
            read_ns,
            source,
            bytes: meta.bytes,
        })
    }

    /// Deletes `object` everywhere reachable. Copies on failed nodes
    /// cannot be deleted remotely — they are purged when the node rejoins
    /// (see [`DistributedCache::recover_node`]). No-op if absent.
    pub fn delete(&mut self, object: ObjectId) {
        self.repair_queue.remove(&object);
        if let Some(meta) = self.index.remove(&object) {
            self.nodes[meta.home.0].memory.remove(object.0);
            for replica in meta.replicas {
                if self.nodes[replica.0].alive {
                    self.nodes[replica.0].disk.remove(&object);
                }
            }
        }
    }

    /// Forcibly loses `object` — index entry, memory copy, and every
    /// persistent replica — as a fault injection. A later read fails with
    /// [`CacheError::NotFound`] and the caller must recompute (Slider's
    /// recovery path: lost memoized state degrades to extra foreground
    /// work, never a wrong answer). Returns whether the object existed.
    pub fn lose_object(&mut self, object: ObjectId) -> bool {
        let existed = self.index.contains_key(&object);
        if let Some(meta) = self.index.get(&object).cloned() {
            // Total loss reaches even dead nodes' disks — nothing survives
            // to resurrect or repair from.
            for replica in meta.replicas {
                self.nodes[replica.0].disk.remove(&object);
            }
        }
        self.delete(object);
        existed
    }

    /// Drops a single persistent copy of `object` from `node` (a disk
    /// sector loss rather than a whole-node crash). The object stays
    /// readable from its other replicas; with repair enabled it is
    /// enqueued for re-replication. Returns whether a copy existed there.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the cluster.
    pub fn lose_replica(&mut self, object: ObjectId, node: NodeId) -> bool {
        assert!(node.0 < self.nodes.len(), "unknown node {node:?}");
        let existed = self.nodes[node.0].disk.remove(&object).is_some();
        if existed && self.index.contains_key(&object) {
            self.enqueue_repair(object);
        }
        existed
    }

    /// Flips the stored checksum of `object`'s persistent copy on `node`,
    /// modeling silent on-disk corruption. The copy is detected and
    /// discarded by the next read, scrub, or master rebuild that touches
    /// it — it is never served. Returns whether a copy existed there.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the cluster.
    pub fn corrupt_object(&mut self, object: ObjectId, node: NodeId) -> bool {
        assert!(node.0 < self.nodes.len(), "unknown node {node:?}");
        match self.nodes[node.0].disk.get_mut(&object) {
            Some(copy) => {
                copy.checksum ^= 0x5bd1_e995_7b93_a283;
                true
            }
            None => false,
        }
    }

    /// Runs the configured garbage-collection policy for `current_epoch`,
    /// freeing memoized objects that fell out of the window (§6). Returns
    /// the number of collected objects.
    pub fn collect_garbage(&mut self, current_epoch: u64) -> u64 {
        self.sweep(None, current_epoch)
    }

    /// Runs garbage collection for a single namespace: like
    /// [`DistributedCache::collect_garbage`], but only `namespace`'s
    /// objects are candidates, and an [`GcPolicy::Aggressive`] byte budget
    /// is applied to that namespace's footprint alone. Tenants sharing one
    /// cache advance through epochs independently, so each must sweep only
    /// its own window — a global sweep at one tenant's epoch would reap
    /// another tenant's still-live objects.
    pub fn collect_garbage_scoped(&mut self, namespace: u32, current_epoch: u64) -> u64 {
        self.sweep(Some(namespace), current_epoch)
    }

    /// One GC sweep over `namespace`'s objects, or over every object when
    /// `None`.
    fn sweep(&mut self, namespace: Option<u32>, current_epoch: u64) -> u64 {
        let candidate = |id: &ObjectId| namespace.is_none_or(|ns| id.namespace() == ns);
        let victims: Vec<ObjectId> = match self.config.gc {
            GcPolicy::Disabled => Vec::new(),
            GcPolicy::WindowBased { horizon } => {
                let mut victims: Vec<ObjectId> = self
                    .index
                    .iter()
                    .filter(|(id, m)| candidate(id) && m.epoch + horizon < current_epoch)
                    .map(|(id, _)| *id)
                    .collect();
                // Sorted so the deletion sequence (not just the final
                // survivor set) is reproducible.
                victims.sort_unstable();
                victims
            }
            GcPolicy::Aggressive { max_total_bytes } => {
                // Evict oldest epochs first until under budget, with the
                // explicit (epoch, id) order of `aggressive_victims` — the
                // index map's iteration order must not pick the survivors.
                let entries: Vec<(u64, ObjectId, u64)> = self
                    .index
                    .iter()
                    .filter(|(id, _)| candidate(id))
                    .map(|(id, m)| (m.epoch, *id, m.bytes))
                    .collect();
                let total: u64 = entries.iter().map(|(_, _, b)| b).sum();
                crate::gc::aggressive_victims(entries, total, max_total_bytes)
            }
        };
        let n = victims.len() as u64;
        for victim in victims {
            self.namespaces
                .entry(victim.namespace())
                .or_default()
                .collected += 1;
            self.delete(victim);
        }
        self.stats.collected += n;
        self.trace.with(|t| {
            let tr = t.track(TRACE_TRACK);
            let name = match namespace {
                None => format!("gc epoch {current_epoch}"),
                Some(ns) => format!("gc ns {ns} epoch {current_epoch}"),
            };
            let s = t.leaf_ns(tr, SpanKind::Gc, name, 0);
            t.arg(s, "collected", n);
        });
        n
    }

    /// Crashes `node`: its memory tier is wiped and its disk becomes
    /// unavailable until [`DistributedCache::recover_node`]. With repair
    /// enabled, every object that kept a replica there is enqueued for
    /// background re-replication onto the surviving nodes.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownNode`] if `node` is outside the cluster; the
    /// cache is left unchanged.
    pub fn fail_node(&mut self, node: NodeId) -> Result<(), CacheError> {
        let n = self
            .nodes
            .get_mut(node.0)
            .ok_or(CacheError::UnknownNode(node))?;
        n.alive = false;
        n.memory.clear();
        if self.config.repair {
            let mut affected: Vec<ObjectId> = self
                .index
                .iter()
                .filter(|(_, m)| m.replicas.contains(&node))
                .map(|(id, _)| *id)
                .collect();
            affected.sort_unstable();
            for object in affected {
                self.enqueue_repair(object);
            }
        }
        self.repair.node_failures += 1;
        Ok(())
    }

    /// Brings `node` back: its persistent objects become readable again
    /// (the memory tier re-warms lazily via read promotion). Stale copies
    /// — objects deleted, collected, re-homed, or re-written while the
    /// node was down — are purged so they cannot resurrect, metered as
    /// [`RepairStats::stale_copies_purged`].
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownNode`] if `node` is outside the cluster; the
    /// cache is left unchanged.
    pub fn recover_node(&mut self, node: NodeId) -> Result<(), CacheError> {
        self.nodes
            .get_mut(node.0)
            .ok_or(CacheError::UnknownNode(node))?
            .alive = true;
        let mut held: Vec<ObjectId> = self.nodes[node.0].disk.keys().copied().collect();
        held.sort_unstable();
        for object in held {
            let stale = match self.index.get(&object) {
                None => true,
                Some(meta) => {
                    !meta.replicas.contains(&node)
                        || self.nodes[node.0].disk[&object].checksum != meta.checksum
                }
            };
            if stale {
                self.nodes[node.0].disk.remove(&object);
                self.repair.stale_copies_purged += 1;
            }
        }
        self.repair.node_recoveries += 1;
        Ok(())
    }

    /// Drains the repair queue, re-replicating every enqueued object onto
    /// live nodes from a clean surviving copy. Background work: bytes and
    /// time land in [`RepairStats`], never in [`CacheStats`]. Objects
    /// with no clean live source stay queued (blocked until a node
    /// recovers); partially repaired objects are re-queued. Returns how
    /// many objects had their replication improved. No-op with repair
    /// disabled.
    pub fn drain_repairs(&mut self) -> u64 {
        if !self.config.repair {
            return 0;
        }
        let pending: Vec<ObjectId> = std::mem::take(&mut self.repair_queue).into_iter().collect();
        let drain_span = self.trace.with(|t| {
            let tr = t.track(TRACE_TRACK);
            let s = t.begin(tr, SpanKind::Repair, "repair drain");
            t.arg(s, "pending", pending.len() as u64);
            s
        });
        let mut repaired = 0;
        for object in pending {
            if self.repair_one(object) {
                repaired += 1;
            }
        }
        if let Some(s) = drain_span {
            self.trace.with(|t| t.end(s));
        }
        repaired
    }

    fn repair_one(&mut self, object: ObjectId) -> bool {
        let Some(meta) = self.index.get(&object).cloned() else {
            return false; // collected or lost since it was enqueued
        };
        let want = self.want_replicas();
        let lat = self.config.latency;
        let n = self.nodes.len();

        // Survey the replica set for clean live copies, discarding corrupt
        // ones found along the way.
        let mut members = meta.replicas.clone();
        members.sort_unstable();
        members.dedup();
        let mut clean: Vec<NodeId> = Vec::new();
        for node in members {
            if !self.nodes[node.0].alive {
                continue;
            }
            match self.nodes[node.0].disk.get(&object) {
                Some(copy) if copy.checksum == meta.checksum => clean.push(node),
                Some(_) => {
                    self.nodes[node.0].disk.remove(&object);
                    self.repair.corruptions_detected += 1;
                }
                None => {}
            }
        }
        if clean.is_empty() {
            // Blocked: no clean live source. Stay queued until a replica's
            // node recovers (the object reads as Unavailable meanwhile).
            self.repair_queue.insert(object);
            return false;
        }

        // Restore missing copies walking the ring from home + 1, the same
        // order `put` uses, so repaired placement matches fresh placement.
        let mut new_replicas = clean;
        let mut restored = 0u64;
        for i in 0..n {
            if new_replicas.len() >= want {
                break;
            }
            let candidate = NodeId((meta.home.0 + 1 + i) % n);
            if !self.nodes[candidate.0].alive || new_replicas.contains(&candidate) {
                continue;
            }
            self.nodes[candidate.0].disk.insert(
                object,
                DiskCopy {
                    bytes: meta.bytes,
                    epoch: meta.epoch,
                    checksum: meta.checksum,
                },
            );
            new_replicas.push(candidate);
            restored += 1;
            self.repair.copies_restored += 1;
            self.repair.repair_bytes += meta.bytes;
            // Source disk read + network transfer + target disk write.
            let cost = seconds_to_ticks(
                lat.per_op_seconds
                    + 2.0 * meta.bytes as f64 / lat.disk_bytes_per_second
                    + meta.bytes as f64 / lat.network_bytes_per_second,
            );
            self.repair.repair_ns += cost;
            self.trace.with(|t| {
                let tr = t.track(TRACE_TRACK);
                let s = t.leaf_ns(
                    tr,
                    SpanKind::Repair,
                    format!("re-replicate {} -> n{}", object.0, candidate.0),
                    cost,
                );
                t.arg(s, "bytes", meta.bytes);
            });
        }
        new_replicas.sort_unstable();
        let under_target = new_replicas.len() < want;
        let meta_mut = self.index.get_mut(&object).expect("indexed above");
        meta_mut.replicas = new_replicas.clone();
        if !self.nodes[meta_mut.home.0].alive {
            // Re-home onto a surviving replica holder so future reads can
            // use the memory tier again.
            meta_mut.home = new_replicas[0];
        }
        if under_target {
            self.repair_queue.insert(object);
        }
        if restored > 0 {
            self.repair.repaired_objects += 1;
            true
        } else {
            false
        }
    }

    /// Verifies every reachable persistent copy against its expected
    /// checksum, discarding corrupt ones (and, with repair enabled,
    /// enqueueing the affected objects — including any found
    /// under-replicated). Background work metered in [`RepairStats`].
    /// Returns the number of corrupt copies found this pass.
    pub fn scrub(&mut self) -> u64 {
        self.repair.scrub_passes += 1;
        let pass = self.repair.scrub_passes;
        let scrub_span = self.trace.with(|t| {
            let tr = t.track(TRACE_TRACK);
            t.begin(tr, SpanKind::Scrub, format!("scrub pass {pass}"))
        });
        let lat = self.config.latency;
        let want = self.want_replicas();
        let mut ids: Vec<ObjectId> = self.index.keys().copied().collect();
        ids.sort_unstable();
        let mut found = 0u64;
        for object in ids {
            let meta = self.index[&object].clone();
            let mut members = meta.replicas.clone();
            members.sort_unstable();
            members.dedup();
            let mut live_clean = 0usize;
            let mut obj_copies = 0u64;
            let mut obj_ns = 0u64;
            for node in members {
                if !self.nodes[node.0].alive {
                    continue;
                }
                let Some(copy) = self.nodes[node.0].disk.get(&object).copied() else {
                    continue;
                };
                self.repair.scrubbed_copies += 1;
                self.repair.scrub_bytes += meta.bytes;
                let cost = seconds_to_ticks(
                    lat.per_op_seconds + meta.bytes as f64 / lat.disk_bytes_per_second,
                );
                self.repair.scrub_ns += cost;
                obj_copies += 1;
                obj_ns += cost;
                if copy.checksum == meta.checksum {
                    live_clean += 1;
                } else {
                    self.nodes[node.0].disk.remove(&object);
                    self.repair.corruptions_detected += 1;
                    found += 1;
                }
            }
            if obj_copies > 0 {
                self.trace.with(|t| {
                    let tr = t.track(TRACE_TRACK);
                    let s = t.leaf_ns(tr, SpanKind::Scrub, format!("scrub {}", object.0), obj_ns);
                    t.arg(s, "copies", obj_copies);
                });
            }
            if live_clean < want {
                self.enqueue_repair(object);
            }
        }
        self.trace.with(|t| {
            if let Some(s) = scrub_span {
                t.arg(s, "corrupt_found", found);
                t.end(s);
            }
        });
        found
    }

    /// Drops the master index and the repair queue, modeling a master
    /// crash with no persisted checkpoint. Node disks are untouched;
    /// [`DistributedCache::rebuild_master`] reconstructs the index from
    /// them. Returns how many entries were lost.
    pub fn lose_master(&mut self) -> usize {
        let n = self.index.len();
        self.index.clear();
        self.repair_queue.clear();
        n
    }

    /// Rebuilds the master index from the surviving nodes' disk
    /// inventories, deterministically: objects are reconstructed in id
    /// order, each copy set majority-votes its `(bytes, epoch, checksum)`
    /// (ties break to the smallest tuple), and dissenting copies are
    /// discarded as corrupt. The home becomes the lowest live node whose
    /// memory tier still holds the object, else the lowest replica
    /// holder. Objects whose every copy sat on failed nodes are not
    /// reindexed — reads fail `NotFound` and the engine recomputes them
    /// (the paper's last-resort recovery). Returns how many objects were
    /// reindexed.
    pub fn rebuild_master(&mut self) -> u64 {
        self.repair.master_rebuilds += 1;
        let rebuild_span = self.trace.with(|t| {
            let tr = t.track(TRACE_TRACK);
            t.begin(tr, SpanKind::Repair, "rebuild master")
        });
        let lat = self.config.latency;
        let mut inventory: BTreeMap<ObjectId, Vec<(NodeId, DiskCopy)>> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.alive {
                continue;
            }
            for (object, copy) in &node.disk {
                inventory
                    .entry(*object)
                    .or_default()
                    .push((NodeId(i), *copy));
            }
        }
        let mut reindexed = 0u64;
        for (object, mut copies) in inventory {
            copies.sort_unstable_by_key(|(node, _)| *node);
            // Index-rebuild RPC cost: one inventory round per copy.
            let cost = seconds_to_ticks(lat.per_op_seconds * copies.len() as f64);
            self.repair.repair_ns += cost;
            self.trace.with(|t| {
                let tr = t.track(TRACE_TRACK);
                let s = t.leaf_ns(tr, SpanKind::Repair, format!("reindex {}", object.0), cost);
                t.arg(s, "copies", copies.len() as u64);
            });
            // Checksums are content-derived, so each copy self-verifies:
            // a corrupt copy cannot even cast a vote.
            let mut verified: Vec<(NodeId, DiskCopy)> = Vec::new();
            for (node, copy) in copies {
                if content_checksum(object.0, copy.bytes, copy.epoch) == copy.checksum {
                    verified.push((node, copy));
                } else {
                    self.nodes[node.0].disk.remove(&object);
                    self.repair.corruptions_detected += 1;
                }
            }
            if verified.is_empty() {
                continue; // every surviving copy was corrupt
            }
            // The self-consistent copies can still disagree (a stale epoch
            // from an unclean recovery): majority-vote the content, ties
            // breaking to the newest epoch then smallest tuple.
            let mut votes: BTreeMap<(u64, u64, u64), Vec<NodeId>> = BTreeMap::new();
            for (node, copy) in &verified {
                votes
                    .entry((copy.epoch, copy.bytes, copy.checksum))
                    .or_default()
                    .push(*node);
            }
            let mut winner: Option<((u64, u64, u64), Vec<NodeId>)> = None;
            for (key, holders) in &votes {
                // `>=` over ascending (epoch, ...) keys: ties keep the
                // highest epoch, deterministically.
                if winner
                    .as_ref()
                    .is_none_or(|(_, w)| holders.len() >= w.len())
                {
                    winner = Some((*key, holders.clone()));
                }
            }
            let ((epoch, bytes, checksum), replicas) = winner.expect("verified copies exist");
            for (node, copy) in &verified {
                if (copy.epoch, copy.bytes, copy.checksum) != (epoch, bytes, checksum) {
                    self.nodes[node.0].disk.remove(&object);
                    self.repair.stale_copies_purged += 1;
                }
            }
            let home = (0..self.nodes.len())
                .map(NodeId)
                .find(|node| {
                    self.nodes[node.0].alive && self.nodes[node.0].memory.contains(object.0)
                })
                .unwrap_or(replicas[0]);
            self.index.insert(
                object,
                ObjectMeta {
                    bytes,
                    home,
                    replicas: replicas.clone(),
                    epoch,
                    checksum,
                },
            );
            reindexed += 1;
            self.repair.objects_reindexed += 1;
            if replicas.len() < self.want_replicas() {
                self.enqueue_repair(object);
            }
        }
        self.trace.with(|t| {
            if let Some(s) = rebuild_span {
                t.arg(s, "reindexed", reindexed);
                t.end(s);
            }
        });
        reindexed
    }

    /// Objects currently queued for background re-replication.
    pub fn pending_repairs(&self) -> usize {
        self.repair_queue.len()
    }

    /// Indexed objects with fewer clean live copies than the current
    /// replication target (`replicas`, clamped to the live node count).
    pub fn under_replicated(&self) -> usize {
        let want = self.want_replicas();
        self.index
            .iter()
            .filter(|(id, m)| {
                let live_clean = m
                    .replicas
                    .iter()
                    .filter(|r| {
                        self.nodes[r.0].alive
                            && self.nodes[r.0]
                                .disk
                                .get(id)
                                .is_some_and(|c| c.checksum == m.checksum)
                    })
                    .count();
                live_clean < want
            })
            .count()
    }

    /// The persistent replica holders of `object`, if indexed (placement
    /// introspection for schedulers and tests).
    pub fn replicas_of(&self, object: ObjectId) -> Option<&[NodeId]> {
        self.index.get(&object).map(|m| m.replicas.as_slice())
    }

    /// The home (memory-tier) node of `object`, if indexed. Schedulers use
    /// this for memoization-aware placement.
    pub fn home_of(&self, object: ObjectId) -> Option<NodeId> {
        self.index.get(&object).map(|m| m.home)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total indexed bytes (logical, not counting replication).
    pub fn indexed_bytes(&self) -> u64 {
        self.index.values().map(|m| m.bytes).sum()
    }

    /// Foreground statistics so far.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats;
        // The per-node stores are the authoritative eviction counters, the
        // per-namespace counts the authoritative put counters.
        stats.evictions = self.nodes.iter().map(|n| n.memory.evictions()).sum();
        for ns in self.namespaces.values() {
            stats.puts += ns.puts;
            stats.put_bytes += ns.put_bytes;
        }
        stats
    }

    /// Per-namespace accounting for `namespace`: accumulated counters plus
    /// a live census of the index. Namespaces the cache has never seen
    /// return all zeros.
    pub fn namespace_stats(&self, namespace: u32) -> NamespaceStats {
        let mut stats = self.namespaces.get(&namespace).copied().unwrap_or_default();
        for (id, meta) in &self.index {
            if id.namespace() == namespace {
                stats.live_objects += 1;
                stats.live_bytes += meta.bytes;
            }
        }
        stats
    }

    /// Background self-healing statistics so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// The configuration in use (after replica clamping).
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(nodes: usize) -> DistributedCache {
        DistributedCache::new(CacheConfig::paper_defaults(nodes))
    }

    #[test]
    fn unknown_nodes_are_a_typed_error_and_change_nothing() {
        let mut c = cache(3);
        c.put(ObjectId(1), 100, NodeId(0), 0);
        let before = c.stats();
        assert_eq!(
            c.fail_node(NodeId(3)),
            Err(CacheError::UnknownNode(NodeId(3)))
        );
        assert_eq!(
            c.recover_node(NodeId(usize::MAX)),
            Err(CacheError::UnknownNode(NodeId(usize::MAX)))
        );
        assert_eq!(c.stats(), before);
        assert!(c.read(ObjectId(1), NodeId(0)).is_ok());
    }

    #[test]
    fn local_memory_read_is_fastest() {
        let mut c = cache(4);
        c.put(ObjectId(1), 1 << 20, NodeId(0), 0);
        let mem = c.read(ObjectId(1), NodeId(0)).unwrap();
        assert_eq!(mem.source, ReadSource::Memory);

        // Same object read from another node goes over the network.
        let remote = c.read(ObjectId(1), NodeId(2)).unwrap();
        assert_eq!(remote.source, ReadSource::RemoteMemory);
        assert!(remote.read_ns > mem.read_ns);
    }

    #[test]
    fn disabled_memory_tier_reads_disk() {
        let mut config = CacheConfig::paper_defaults(4);
        config.memory_enabled = false;
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 1 << 20, NodeId(0), 0);
        // Replicas land on nodes 1 and 2; reading from node 1 is local disk.
        let out = c.read(ObjectId(1), NodeId(1)).unwrap();
        assert_eq!(out.source, ReadSource::LocalDisk);
        let out = c.read(ObjectId(1), NodeId(3)).unwrap();
        assert_eq!(out.source, ReadSource::RemoteDisk);
    }

    #[test]
    fn memory_tier_is_faster_than_disk() {
        let bytes = 64 << 20;
        let mut with_mem = cache(4);
        with_mem.put(ObjectId(1), bytes, NodeId(0), 0);
        let fast = with_mem.read(ObjectId(1), NodeId(0)).unwrap().read_ns;

        let mut config = CacheConfig::paper_defaults(4);
        config.memory_enabled = false;
        let mut no_mem = DistributedCache::new(config);
        no_mem.put(ObjectId(1), bytes, NodeId(0), 0);
        let slow = no_mem.read(ObjectId(1), NodeId(0)).unwrap().read_ns;
        assert!(
            slow > 2 * fast,
            "disk ({slow}) should be much slower than memory ({fast})"
        );
    }

    #[test]
    fn node_failure_falls_back_to_replicas() {
        let mut c = cache(4);
        c.put(ObjectId(1), 1024, NodeId(0), 0);
        c.fail_node(NodeId(0)).unwrap();
        // Memory copy is gone; replicas on nodes 1 and 2 still serve.
        let out = c.read(ObjectId(1), NodeId(1)).unwrap();
        assert_eq!(out.source, ReadSource::LocalDisk);

        // All replicas down -> unavailable.
        c.fail_node(NodeId(1)).unwrap();
        c.fail_node(NodeId(2)).unwrap();
        assert_eq!(
            c.read(ObjectId(1), NodeId(3)).unwrap_err(),
            CacheError::Unavailable(ObjectId(1))
        );
        assert_eq!(c.stats().unavailable_reads, 1);
        assert_eq!(c.stats().not_found_reads, 0);
        assert_eq!(c.stats().failed_reads(), 1);

        // Recovery restores service.
        c.recover_node(NodeId(1)).unwrap();
        assert!(c.read(ObjectId(1), NodeId(3)).is_ok());
    }

    #[test]
    fn read_promotes_back_into_memory() {
        let mut c = cache(4);
        c.put(ObjectId(1), 1024, NodeId(0), 0);
        c.fail_node(NodeId(0)).unwrap();
        c.recover_node(NodeId(0)).unwrap(); // memory wiped, disk replicas intact
        let first = c.read(ObjectId(1), NodeId(0)).unwrap();
        assert!(matches!(
            first.source,
            ReadSource::LocalDisk | ReadSource::RemoteDisk
        ));
        let second = c.read(ObjectId(1), NodeId(0)).unwrap();
        assert_eq!(
            second.source,
            ReadSource::Memory,
            "promotion re-warms memory"
        );
    }

    #[test]
    fn window_gc_collects_expired_epochs() {
        let mut c = cache(2);
        c.put(ObjectId(1), 10, NodeId(0), 0);
        c.put(ObjectId(2), 10, NodeId(0), 5);
        let collected = c.collect_garbage(6);
        assert_eq!(collected, 1, "epoch 0 expired, epoch 5 within horizon");
        assert!(c.read(ObjectId(1), NodeId(0)).is_err());
        assert!(c.read(ObjectId(2), NodeId(0)).is_ok());
        assert_eq!(c.stats().collected, 1);
    }

    #[test]
    fn aggressive_gc_respects_byte_budget() {
        let mut config = CacheConfig::paper_defaults(2);
        config.gc = GcPolicy::Aggressive {
            max_total_bytes: 25,
        };
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 10, NodeId(0), 0);
        c.put(ObjectId(2), 10, NodeId(0), 1);
        c.put(ObjectId(3), 10, NodeId(0), 2);
        let collected = c.collect_garbage(3);
        assert_eq!(collected, 1, "oldest epoch evicted to fit 25 bytes");
        assert!(c.read(ObjectId(1), NodeId(0)).is_err());
        assert_eq!(c.indexed_bytes(), 20);
    }

    #[test]
    fn aggressive_gc_boundary_and_tie_break() {
        // Three equal-epoch objects totalling exactly the budget: nothing
        // may be evicted at `total == max_total_bytes`.
        let mut config = CacheConfig::paper_defaults(2);
        config.gc = GcPolicy::Aggressive {
            max_total_bytes: 30,
        };
        let mut c = DistributedCache::new(config.clone());
        for id in [3u64, 1, 2] {
            c.put(ObjectId(id), 10, NodeId(0), 7);
        }
        assert_eq!(c.collect_garbage(8), 0, "exact budget evicts nothing");
        assert_eq!(c.indexed_bytes(), 30);

        // One byte over budget: the equal-epoch tie must break on the
        // lowest object id, regardless of insertion (and map) order.
        config.gc = GcPolicy::Aggressive {
            max_total_bytes: 29,
        };
        let mut c = DistributedCache::new(config);
        for id in [3u64, 1, 2] {
            c.put(ObjectId(id), 10, NodeId(0), 7);
        }
        assert_eq!(c.collect_garbage(8), 1);
        assert!(c.read(ObjectId(1), NodeId(0)).is_err(), "lowest id evicts");
        assert!(c.read(ObjectId(2), NodeId(0)).is_ok());
        assert!(c.read(ObjectId(3), NodeId(0)).is_ok());
    }

    #[test]
    fn lost_objects_fail_reads_until_recomputed() {
        let mut c = cache(3);
        c.put(ObjectId(1), 10, NodeId(0), 0);
        assert!(c.lose_object(ObjectId(1)));
        assert!(!c.lose_object(ObjectId(1)), "already gone");
        assert_eq!(
            c.read(ObjectId(1), NodeId(0)).unwrap_err(),
            CacheError::NotFound(ObjectId(1))
        );
        // Recompute-and-re-put restores service.
        c.put(ObjectId(1), 10, NodeId(0), 2);
        assert!(c.read(ObjectId(1), NodeId(0)).is_ok());
    }

    #[test]
    fn missing_object_is_not_found() {
        let mut c = cache(2);
        assert_eq!(
            c.read(ObjectId(9), NodeId(0)).unwrap_err(),
            CacheError::NotFound(ObjectId(9))
        );
        assert_eq!(c.stats().not_found_reads, 1);
        assert_eq!(c.stats().unavailable_reads, 0);
        assert_eq!(c.stats().failed_reads(), 1);
    }

    #[test]
    fn unknown_reader_is_rejected() {
        let mut c = cache(2);
        c.put(ObjectId(1), 10, NodeId(0), 0);
        assert_eq!(
            c.read(ObjectId(1), NodeId(7)).unwrap_err(),
            CacheError::UnknownNode(NodeId(7))
        );
    }

    #[test]
    fn home_lookup_supports_scheduling() {
        let mut c = cache(3);
        c.put(ObjectId(1), 10, NodeId(2), 0);
        assert_eq!(c.home_of(ObjectId(1)), Some(NodeId(2)));
        assert_eq!(c.home_of(ObjectId(2)), None);
    }

    #[test]
    fn eviction_spills_to_disk_replicas() {
        let mut config = CacheConfig::paper_defaults(3);
        config.memory_capacity_bytes = 100;
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 80, NodeId(0), 0);
        c.put(ObjectId(2), 80, NodeId(0), 0); // evicts 1 from memory
        let out = c.read(ObjectId(1), NodeId(0)).unwrap();
        assert!(
            matches!(out.source, ReadSource::LocalDisk | ReadSource::RemoteDisk),
            "evicted object must still be readable from disk, got {:?}",
            out.source
        );
    }

    #[test]
    fn an_oversized_re_put_is_read_from_disk() {
        let mut config = CacheConfig::paper_defaults(3);
        config.memory_capacity_bytes = 100;
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 40, NodeId(0), 0);
        c.put(ObjectId(1), 400, NodeId(0), 0); // too large for memory
        let out = c.read(ObjectId(1), NodeId(0)).unwrap();
        assert_eq!(out.bytes, 400);
        assert!(
            matches!(out.source, ReadSource::LocalDisk | ReadSource::RemoteDisk),
            "the stale 40-byte memory copy must not be served, got {:?}",
            out.source
        );
    }

    #[test]
    fn namespace_evictions_sum_to_the_global_count() {
        let mut config = CacheConfig::paper_defaults(3);
        config.memory_capacity_bytes = 100;
        let mut c = DistributedCache::new(config);
        let (a, b) = (ObjectId::namespaced(1, 1), ObjectId::namespaced(2, 1));
        c.put(a, 60, NodeId(0), 0);
        c.put(b, 60, NodeId(0), 0); // evicts a
        c.read(a, NodeId(0)).unwrap(); // disk read promotes a, evicting b
        c.read(b, NodeId(0)).unwrap(); // and back again, evicting a
        c.put(ObjectId::namespaced(1, 2), 500, NodeId(1), 0); // not admitted
        let global = c.stats().evictions;
        assert_eq!(global, 4);
        let per_tenant = c.namespace_stats(1).evictions + c.namespace_stats(2).evictions;
        assert_eq!(per_tenant, global);
    }

    #[test]
    fn oversubscribed_replication_is_clamped_and_distinct() {
        // Regression: replicas >= nodes used to wrap the ring back onto
        // the home node and place duplicate copies.
        for replicas in [3, 5] {
            let mut config = CacheConfig::paper_defaults(3);
            config.replicas = replicas;
            let c = DistributedCache::new(config);
            assert_eq!(c.config().replicas, 3, "clamped to the node count");
            let mut c = c;
            c.put(ObjectId(1), 10, NodeId(1), 0);
            let placed = c.replicas_of(ObjectId(1)).unwrap();
            assert_eq!(placed.len(), 3);
            let distinct: BTreeSet<NodeId> = placed.iter().copied().collect();
            assert_eq!(distinct.len(), 3, "no duplicates: {placed:?}");
        }
    }

    #[test]
    fn fault_free_runs_have_zero_repair_cost() {
        let mut c = DistributedCache::new(CacheConfig::paper_defaults(4).with_repair());
        for id in 0..8u64 {
            c.put(
                ObjectId(id),
                1024,
                NodeId(usize::try_from(id % 4).unwrap()),
                0,
            );
            c.read(ObjectId(id), NodeId(0)).unwrap();
        }
        assert_eq!(c.drain_repairs(), 0);
        assert_eq!(c.pending_repairs(), 0);
        assert!(c.repair_stats().is_zero(), "{:?}", c.repair_stats());
    }

    #[test]
    fn failed_node_triggers_re_replication() {
        let mut c = DistributedCache::new(CacheConfig::paper_defaults(4).with_repair());
        c.put(ObjectId(1), 1024, NodeId(0), 0); // replicas on 1, 2
        c.fail_node(NodeId(1)).unwrap();
        assert_eq!(c.under_replicated(), 1);
        assert_eq!(c.pending_repairs(), 1);
        let repaired = c.drain_repairs();
        assert_eq!(repaired, 1);
        assert_eq!(c.under_replicated(), 0);
        assert_eq!(c.pending_repairs(), 0);
        let stats = c.repair_stats();
        assert_eq!(stats.copies_restored, 1);
        assert_eq!(stats.repair_bytes, 1024);
        assert!(stats.repair_ns > 0);
        // Foreground stats untouched by background repair.
        assert_eq!(c.stats().bytes_read, 0);

        // The failed node's copy is now surplus; a second failure of the
        // other original replica must not lose the object.
        c.fail_node(NodeId(2)).unwrap();
        c.drain_repairs();
        assert!(c.read(ObjectId(1), NodeId(3)).is_ok());
    }

    #[test]
    fn corrupt_copies_are_never_served() {
        let mut config = CacheConfig::paper_defaults(4).with_repair();
        config.memory_enabled = false; // force every read through disk
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 1024, NodeId(0), 0); // replicas on 1, 2
        assert!(c.corrupt_object(ObjectId(1), NodeId(1)));
        // The read skips the corrupt copy on node 1 and serves node 2.
        let out = c.read(ObjectId(1), NodeId(1)).unwrap();
        assert_eq!(out.source, ReadSource::RemoteDisk);
        assert_eq!(c.repair_stats().corruptions_detected, 1);
        // Repair restores a clean copy in the corrupt one's place.
        assert_eq!(c.drain_repairs(), 1);
        assert_eq!(c.under_replicated(), 0);
        let local = c.read(ObjectId(1), NodeId(1)).unwrap();
        assert_eq!(local.source, ReadSource::LocalDisk, "copy re-replicated");
    }

    #[test]
    fn corrupting_every_copy_makes_the_object_unavailable() {
        let mut config = CacheConfig::paper_defaults(4);
        config.memory_enabled = false;
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 1024, NodeId(0), 0);
        assert!(c.corrupt_object(ObjectId(1), NodeId(1)));
        assert!(c.corrupt_object(ObjectId(1), NodeId(2)));
        assert_eq!(
            c.read(ObjectId(1), NodeId(0)).unwrap_err(),
            CacheError::Unavailable(ObjectId(1)),
            "a corrupt copy must never be served"
        );
        assert_eq!(c.repair_stats().corruptions_detected, 2);
    }

    #[test]
    fn scrub_detects_and_schedules_repair() {
        let mut c = DistributedCache::new(CacheConfig::paper_defaults(4).with_repair());
        c.put(ObjectId(1), 1024, NodeId(0), 0);
        c.put(ObjectId(2), 2048, NodeId(1), 0);
        assert!(c.corrupt_object(ObjectId(2), NodeId(2)));
        let found = c.scrub();
        assert_eq!(found, 1);
        let stats = c.repair_stats();
        assert_eq!(stats.scrub_passes, 1);
        assert_eq!(stats.scrubbed_copies, 4, "2 objects x 2 copies");
        assert!(stats.scrub_ns > 0);
        assert_eq!(c.pending_repairs(), 1);
        assert_eq!(c.drain_repairs(), 1);
        assert_eq!(c.under_replicated(), 0);
        assert_eq!(c.scrub(), 0, "second pass finds a healthy cluster");
    }

    #[test]
    fn lose_replica_heals_back() {
        let mut c = DistributedCache::new(CacheConfig::paper_defaults(4).with_repair());
        c.put(ObjectId(1), 512, NodeId(0), 0);
        assert!(c.lose_replica(ObjectId(1), NodeId(1)));
        assert!(!c.lose_replica(ObjectId(1), NodeId(3)), "no copy there");
        assert_eq!(c.under_replicated(), 1);
        assert_eq!(c.drain_repairs(), 1);
        assert_eq!(c.under_replicated(), 0);
    }

    #[test]
    fn stale_copies_do_not_resurrect_on_recovery() {
        let mut c = cache(4);
        c.put(ObjectId(1), 1024, NodeId(0), 0); // replicas on 1, 2
        c.fail_node(NodeId(1)).unwrap();
        // Deleted while node 1 is down: its copy cannot be reached.
        c.delete(ObjectId(1));
        c.recover_node(NodeId(1)).unwrap();
        assert_eq!(c.repair_stats().stale_copies_purged, 1);
        assert_eq!(
            c.read(ObjectId(1), NodeId(1)).unwrap_err(),
            CacheError::NotFound(ObjectId(1)),
            "the stale copy must not resurrect the object"
        );
        // Even a master rebuild cannot see the purged copy.
        c.lose_master();
        assert_eq!(c.rebuild_master(), 0);
    }

    #[test]
    fn rewritten_objects_purge_old_epochs_on_recovery() {
        let mut c = cache(4);
        c.put(ObjectId(1), 1024, NodeId(0), 0);
        c.fail_node(NodeId(1)).unwrap();
        // Rewritten at a later epoch while node 1 is down: node 1 still
        // holds the epoch-0 copy.
        c.put(ObjectId(1), 1024, NodeId(0), 3);
        c.recover_node(NodeId(1)).unwrap();
        assert_eq!(c.repair_stats().stale_copies_purged, 1);
        // Node 2's fresh copy serves; the object stays consistent.
        assert!(c.read(ObjectId(1), NodeId(3)).is_ok());
    }

    #[test]
    fn master_rebuild_recovers_the_index_from_disks() {
        let mut c = cache(4);
        for id in 0..6u64 {
            c.put(
                ObjectId(id),
                100 + id,
                NodeId(usize::try_from(id % 4).unwrap()),
                1,
            );
        }
        let lost = c.lose_master();
        assert_eq!(lost, 6);
        assert!(c.is_empty());
        assert_eq!(
            c.read(ObjectId(0), NodeId(0)).unwrap_err(),
            CacheError::NotFound(ObjectId(0))
        );
        let rebuilt = c.rebuild_master();
        assert_eq!(rebuilt, 6);
        let stats = c.repair_stats();
        assert_eq!(stats.master_rebuilds, 1);
        assert_eq!(stats.objects_reindexed, 6);
        for id in 0..6u64 {
            let out = c.read(ObjectId(id), NodeId(0)).unwrap();
            assert_eq!(out.bytes, 100 + id, "sizes survive the rebuild");
        }
        // The home follows the surviving memory copy, so post-rebuild
        // reads still hit the memory tier.
        assert_eq!(c.home_of(ObjectId(2)), Some(NodeId(2)));
    }

    #[test]
    fn master_rebuild_votes_out_corrupt_copies() {
        let mut config = CacheConfig::paper_defaults(4);
        config.memory_enabled = false;
        let mut c = DistributedCache::new(config);
        c.put(ObjectId(1), 1024, NodeId(0), 0); // replicas on 1, 2
        assert!(c.corrupt_object(ObjectId(1), NodeId(1)));
        c.lose_master();
        assert_eq!(c.rebuild_master(), 1);
        assert_eq!(c.repair_stats().corruptions_detected, 1);
        let out = c.read(ObjectId(1), NodeId(2)).unwrap();
        assert_eq!(out.source, ReadSource::LocalDisk, "clean copy won the vote");
        assert_eq!(c.replicas_of(ObjectId(1)).unwrap(), &[NodeId(2)]);
    }

    #[test]
    fn objects_lost_with_all_replicas_stay_lost_after_rebuild() {
        let mut c = cache(4);
        c.put(ObjectId(1), 1024, NodeId(0), 0); // replicas on 1, 2
        c.fail_node(NodeId(1)).unwrap();
        c.fail_node(NodeId(2)).unwrap();
        c.lose_master();
        assert_eq!(c.rebuild_master(), 0, "no surviving copy to index");
        assert_eq!(
            c.read(ObjectId(1), NodeId(0)).unwrap_err(),
            CacheError::NotFound(ObjectId(1)),
            "recomputation is the last resort"
        );
    }
}
