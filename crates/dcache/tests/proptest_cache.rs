//! Property tests for the distributed memoization cache: durability under
//! bounded failures, and shim-layer consistency.

use proptest::prelude::*;
use slider_dcache::{CacheConfig, DistributedCache, GcPolicy, NodeId, ObjectId};

#[derive(Debug, Clone)]
enum Op {
    Put {
        object: u64,
        bytes: u64,
        home: usize,
    },
    Read {
        object: u64,
        reader: usize,
    },
    Fail {
        node: usize,
    },
    Recover {
        node: usize,
    },
}

fn op_strategy(nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12, 1u64..10_000, 0..nodes).prop_map(|(object, bytes, home)| Op::Put {
            object,
            bytes,
            home
        }),
        (0u64..12, 0..nodes).prop_map(|(object, reader)| Op::Read { object, reader }),
        (0..nodes).prop_map(|node| Op::Fail { node }),
        (0..nodes).prop_map(|node| Op::Recover { node }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With 2 persistent replicas, an object stored while its replica nodes
    /// were alive must remain readable as long as at most one node is down.
    #[test]
    fn puts_survive_single_node_failures(
        ops in proptest::collection::vec(op_strategy(5), 1..60),
    ) {
        let nodes = 5;
        let mut config = CacheConfig::paper_defaults(nodes);
        config.gc = GcPolicy::Disabled;
        let mut cache = DistributedCache::new(config);
        let mut down: std::collections::HashSet<usize> = std::collections::HashSet::new();
        // Objects stored while the whole cluster was healthy.
        let mut stored: std::collections::HashSet<u64> = std::collections::HashSet::new();

        for op in ops {
            match op {
                Op::Put { object, bytes, home } => {
                    cache.put(ObjectId(object), bytes, NodeId(home), 0);
                    if down.is_empty() {
                        stored.insert(object);
                    } else {
                        // Replicas may have landed on dead nodes; no durability
                        // claim for this object.
                        stored.remove(&object);
                    }
                }
                Op::Read { object, reader } => {
                    let result = cache.read(ObjectId(object), NodeId(reader));
                    if stored.contains(&object) && down.len() <= 1 {
                        prop_assert!(
                            result.is_ok(),
                            "object {object} unreadable with only {:?} down",
                            down
                        );
                    }
                }
                Op::Fail { node } => {
                    // Keep at most one node down so the durability claim holds.
                    if down.is_empty() {
                        cache.fail_node(NodeId(node)).unwrap();
                        down.insert(node);
                    }
                }
                Op::Recover { node } => {
                    if down.remove(&node) {
                        cache.recover_node(NodeId(node)).unwrap();
                    }
                }
            }
        }
    }

    /// Read times are positive, and a *local* memory read never loses to
    /// the disk-only configuration. (A remote memory read may legitimately
    /// lose to a local disk replica: the network is slower than disk in
    /// the latency model, exactly why the shim prefers local replicas.)
    #[test]
    fn local_memory_reads_are_never_slower_than_disk(
        bytes in 1u64..100_000_000,
        home in 0usize..4,
    ) {
        let mut with_mem = DistributedCache::new(CacheConfig::paper_defaults(4));
        with_mem.put(ObjectId(1), bytes, NodeId(home), 0);
        let fast = with_mem.read(ObjectId(1), NodeId(home)).unwrap();
        prop_assert_eq!(fast.source, slider_dcache::ReadSource::Memory);

        let mut config = CacheConfig::paper_defaults(4);
        config.memory_enabled = false;
        let mut no_mem = DistributedCache::new(config);
        no_mem.put(ObjectId(1), bytes, NodeId(home), 0);
        let slow = no_mem.read(ObjectId(1), NodeId(home)).unwrap();

        prop_assert!(fast.read_ns > 0);
        prop_assert!(fast.read_ns <= slow.read_ns,
            "memory {:?} slower than disk {:?}", fast, slow);
    }

    /// Self-healing convergence: with repair enabled and at most one node
    /// down at a time, any interleaving of puts, failures, recoveries, and
    /// repair drains leaves every indexed object readable — and once every
    /// node is live again, a single drain restores full replication and
    /// empties the queue (repair converges, nothing stays degraded).
    #[test]
    fn repair_converges_under_failure_interleavings(
        ops in proptest::collection::vec(op_strategy(5), 1..80),
        drain_mask in proptest::collection::vec(proptest::bool::ANY, 80),
    ) {
        let nodes = 5;
        let mut config = CacheConfig::paper_defaults(nodes).with_repair();
        config.gc = GcPolicy::Disabled;
        let mut cache = DistributedCache::new(config);
        let mut down: Option<usize> = None;

        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Put { object, bytes, home } => {
                    // With repair on, placement skips the dead node, so
                    // every put lands fully replicated on live nodes.
                    cache.put(ObjectId(object), bytes, NodeId(home), 0);
                }
                Op::Read { object, reader } => {
                    // Reads may hit never-stored ids (NotFound is fine) but
                    // must never see an Unavailable indexed object: at most
                    // one node is down and every put was fully replicated.
                    let result = cache.read(ObjectId(object), NodeId(reader));
                    if let Err(e) = &result {
                        prop_assert!(
                            matches!(e, slider_dcache::CacheError::NotFound(_)),
                            "indexed object {object} degraded: {e:?} (down: {down:?})"
                        );
                    }
                }
                Op::Fail { node } => {
                    if down.is_none() {
                        cache.fail_node(NodeId(node)).unwrap();
                        down = Some(node);
                    }
                }
                Op::Recover { node } => {
                    if down == Some(node) {
                        cache.recover_node(NodeId(node)).unwrap();
                        down = None;
                    }
                }
            }
            if drain_mask.get(i).copied().unwrap_or(false) {
                cache.drain_repairs();
            }
        }

        // Heal the cluster: every object must converge back to full
        // replication with nothing left pending, and stay readable.
        if let Some(node) = down {
            cache.recover_node(NodeId(node)).unwrap();
        }
        cache.drain_repairs();
        prop_assert_eq!(cache.under_replicated(), 0, "repair did not converge");
        prop_assert_eq!(cache.pending_repairs(), 0, "queue did not empty");
        prop_assert_eq!(cache.scrub(), 0, "no corrupt copies may survive");
        let indexed = cache.len() as u64;
        for object in 0..12u64 {
            if cache.home_of(ObjectId(object)).is_some() {
                prop_assert!(cache.read(ObjectId(object), NodeId(0)).is_ok());
            }
        }
        prop_assert_eq!(cache.len() as u64, indexed, "reads must not drop objects");
    }

    /// Window-based GC never collects objects within the horizon.
    #[test]
    fn gc_respects_the_horizon(
        horizon in 0u64..4,
        epochs in proptest::collection::vec(0u64..10, 1..20),
    ) {
        let mut config = CacheConfig::paper_defaults(3);
        config.gc = GcPolicy::WindowBased { horizon };
        let mut cache = DistributedCache::new(config);
        for (i, &epoch) in epochs.iter().enumerate() {
            cache.put(ObjectId(i as u64), 10, NodeId(0), epoch);
        }
        let current = *epochs.iter().max().unwrap();
        cache.collect_garbage(current);
        for (i, &epoch) in epochs.iter().enumerate() {
            let alive = cache.read(ObjectId(i as u64), NodeId(0)).is_ok();
            let should_live = epoch + horizon >= current;
            prop_assert_eq!(alive, should_live,
                "object {} from epoch {} (current {}, horizon {})", i, epoch, current, horizon);
        }
    }
}
