// Randomized failure-injection sweeps: crash schedules, network faults
// (pre-GST loss/duplication/jitter) and combined chaos, asserting the two
// invariants that must never break while failures stay within the fault
// budget:
//   durability — every acknowledged write remains readable;
//   convergence — replica state machines agree after quiescence.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster_harness.h"
#include "protocols/abd/abd.h"
#include "protocols/cr/cr.h"
#include "protocols/craq/craq.h"
#include "protocols/hermes/hermes.h"
#include "protocols/raft/raft.h"
#include "cluster/hash_ring.h"

namespace recipe {
namespace {

using testing::Cluster;

class FaultSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSweep, AbdDurabilityUnderLossyNetwork) {
  Cluster<protocols::AbdNode> cluster;
  cluster.build();
  net::NetworkFaults faults;
  faults.drop_rate = 0.05;
  faults.duplicate_rate = 0.05;
  faults.jitter_max = 50 * sim::kMicrosecond;
  faults.gst = 30 * sim::kSecond;  // faulty for the whole test
  cluster.network().set_faults(faults);

  auto& client = cluster.add_client();
  Rng rng(GetParam());
  std::map<std::string, std::string> acked;
  std::map<std::string, std::set<std::string>> unacked;

  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(rng.below(8));
    const std::string value = "v" + std::to_string(i);
    const NodeId coord{rng.below(3) + 1};
    const ClientReply reply = cluster.put(client, coord, key, value);
    if (reply.ok) {
      acked[key] = value;
      // A newly acked write supersedes... nothing we can prune: an earlier
      // UNACKED write may carry a higher timestamp (tie broken by node id)
      // and legally linearize after this one. Keep the set.
    } else {
      unacked[key].insert(value);
    }
  }

  // Durability: a quorum read returns the latest acked value, or the value
  // of an incomplete write (which linearizability allows to take effect) —
  // never anything else, and never "missing".
  for (const auto& [key, value] : acked) {
    const ClientReply get = cluster.get(client, NodeId{rng.below(3) + 1}, key);
    ASSERT_TRUE(get.ok);
    EXPECT_TRUE(get.found) << key;
    const std::string observed = to_string(as_view(get.value));
    const bool valid = observed == value || unacked[key].contains(observed);
    EXPECT_TRUE(valid) << key << " -> " << observed << " (acked: " << value
                       << ")";
  }
}

TEST_P(FaultSweep, RaftChaosWithCrashAndRecovery) {
  Cluster<protocols::RaftNode> cluster;
  protocols::RaftOptions raft;
  raft.initial_leader = NodeId{1};
  cluster.build(raft);
  auto& client = cluster.add_client();
  Rng rng(GetParam() ^ 0xFEED);

  std::map<std::string, std::string> acked;
  std::size_t crashed_follower = 1 + rng.below(2);  // node 2 or 3
  bool crashed = false;

  for (int i = 0; i < 30; ++i) {
    if (i == 10) {
      cluster.crash(crashed_follower);  // one follower dies mid-run
      crashed = true;
    }
    // Find the current leader (might change under chaos).
    NodeId leader = kNoNode;
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      if (cluster.node(n).running() &&
          cluster.node(n).role() == protocols::RaftNode::Role::kLeader) {
        leader = cluster.node(n).self();
      }
    }
    if (leader == kNoNode) {
      cluster.run_for(sim::kSecond);
      continue;
    }
    const std::string key = "k" + std::to_string(rng.below(6));
    const std::string value = "v" + std::to_string(i);
    const ClientReply reply = cluster.put(client, leader, key, value);
    if (reply.ok) acked[key] = value;
  }
  ASSERT_TRUE(crashed);
  ASSERT_GT(acked.size(), 0u);
  cluster.run_for(2 * sim::kSecond);

  // Durability at the leader.
  NodeId leader = kNoNode;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    if (cluster.node(n).running() &&
        cluster.node(n).role() == protocols::RaftNode::Role::kLeader) {
      leader = cluster.node(n).self();
    }
  }
  ASSERT_NE(leader, kNoNode);
  for (const auto& [key, value] : acked) {
    const ClientReply get = cluster.get(client, leader, key);
    EXPECT_TRUE(get.found) << key;
    EXPECT_EQ(to_string(as_view(get.value)), value) << key;
  }

  // Convergence of the two survivors.
  std::vector<protocols::RaftNode*> survivors;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    if (cluster.node(n).running()) survivors.push_back(&cluster.node(n));
  }
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors[0]->commit_index(), survivors[1]->commit_index());
  for (const auto& [key, value] : acked) {
    auto v0 = survivors[0]->kv().get(key);
    auto v1 = survivors[1]->kv().get(key);
    ASSERT_TRUE(v0.is_ok() && v1.is_ok()) << key;
    EXPECT_EQ(v0.value().value, v1.value().value) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- Randomized kill / restart / rejoin sweep (paper §3.7) ------------------
//
// For every protocol, batching on and off: write through the live cluster,
// kill a random eligible replica mid-workload, keep writing while the
// protocol repairs around the hole, run the FULL attested rejoin (enclave
// restart -> CAS re-attestation -> shadow join -> chunked catch-up ->
// promotion) with writes racing the catch-up stream, keep writing, and then
// assert durability: every acknowledged write is still readable through the
// protocol with an acceptable value (the acked one, or a concurrent
// maybe-applied one). Seeds honor RECIPE_TEST_SEED for replay.

template <typename Node, typename... Extra>
void run_kill_restart_rejoin(std::uint64_t base_seed, bool batching,
                             std::function<std::size_t(Rng&)> pick_victim,
                             Extra&&... extra) {
  const std::uint64_t seed = testing::resolved_seed(base_seed);
  SCOPED_TRACE(testing::seed_trace_message(seed));
  Rng rng(seed);

  typename testing::Cluster<Node>::Config config;
  config.seed = seed;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  if (batching) {
    config.batch.enabled = true;
    config.batch.max_count = std::size_t{1} << rng.range(1, 4);  // 2..16
    config.batch.max_delay = rng.below(21) * sim::kMicrosecond;
    config.batch.adaptive = rng.chance(0.5);
  }
  testing::Cluster<Node> cluster(config);
  cluster.build(std::forward<Extra>(extra)...);
  auto& client = cluster.add_client();

  std::map<std::string, std::string> acked;
  std::map<std::string, std::set<std::string>> maybe;
  int counter = 0;

  const auto write_coordinator = [&]() -> NodeId {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.node(i).active() && cluster.node(i).coordinates_writes()) {
        return cluster.node(i).self();
      }
    }
    return NodeId{1};
  };
  const auto read_coordinator = [&]() -> NodeId {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.node(i).active() && cluster.node(i).coordinates_reads()) {
        return cluster.node(i).self();
      }
    }
    return NodeId{1};
  };
  const auto do_writes = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::string key = "k" + std::to_string(rng.below(12));
      const std::string value = "v" + std::to_string(counter++);
      const ClientReply reply =
          cluster.put(client, write_coordinator(), key, value);
      if (reply.ok) {
        acked[key] = value;
      } else {
        maybe[key].insert(value);  // timed out: may still apply later
      }
    }
  };

  do_writes(8);
  const std::size_t victim = pick_victim(rng);
  cluster.crash(victim);
  cluster.run_for(400 * sim::kMillisecond);  // suspicion + repair
  do_writes(8);

  // Writes racing the rejoin: launched un-driven, they execute while the
  // driver streams state (their callbacks record the outcome).
  for (int i = 0; i < 4; ++i) {
    const std::string key = "k" + std::to_string(rng.below(12));
    const std::string value = "v" + std::to_string(counter++);
    client.put(write_coordinator(), key, to_bytes(value),
               [&acked, &maybe, key, value](const ClientReply& r) {
                 if (r.ok) {
                   acked[key] = value;
                 } else {
                   maybe[key].insert(value);
                 }
               });
  }

  // Donor: the last active non-victim in membership order (for the chain
  // protocols this is the tail, whose state is committed by construction).
  NodeId donor = NodeId{1};
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i != victim && cluster.node(i).active()) {
      donor = cluster.node(i).self();
    }
  }
  auto report = cluster.rejoin(victim, donor);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  ASSERT_TRUE(report.value().promoted);
  cluster.run_for(sim::kSecond);
  ASSERT_TRUE(cluster.node(victim).active());

  do_writes(8);
  cluster.run_for(2 * sim::kSecond);

  // Durability through the protocol: every acked key readable with an
  // acceptable value.
  for (const auto& [key, value] : acked) {
    const ClientReply get = cluster.get(client, read_coordinator(), key);
    ASSERT_TRUE(get.ok) << key;
    ASSERT_TRUE(get.found) << key;
    const std::string observed = to_string(as_view(get.value));
    const bool valid = observed == value || maybe[key].contains(observed);
    EXPECT_TRUE(valid) << key << " -> " << observed << " (acked: " << value
                       << ")";
  }
}

class RejoinSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RejoinSweep, ChainReplication) {
  const auto [seed, batching] = GetParam();
  run_kill_restart_rejoin<protocols::ChainNode>(
      seed * 2654435761u + 11, batching, [](Rng& r) { return r.below(3); });
}

TEST_P(RejoinSweep, Craq) {
  const auto [seed, batching] = GetParam();
  run_kill_restart_rejoin<protocols::CraqNode>(
      seed * 2654435761u + 13, batching, [](Rng& r) { return r.below(3); });
}

TEST_P(RejoinSweep, Raft) {
  const auto [seed, batching] = GetParam();
  protocols::RaftOptions raft;
  raft.initial_leader = NodeId{1};
  // Followers only: killing the fixed leader is covered by the view-change
  // tests; here the subject is the rejoin machinery.
  run_kill_restart_rejoin<protocols::RaftNode>(
      seed * 2654435761u + 17, batching,
      [](Rng& r) { return std::size_t{1} + r.below(2); }, raft);
}

TEST_P(RejoinSweep, Abd) {
  const auto [seed, batching] = GetParam();
  run_kill_restart_rejoin<protocols::AbdNode>(
      seed * 2654435761u + 19, batching, [](Rng& r) { return r.below(3); });
}

TEST_P(RejoinSweep, Hermes) {
  const auto [seed, batching] = GetParam();
  run_kill_restart_rejoin<protocols::HermesNode>(
      seed * 2654435761u + 23, batching, [](Rng& r) { return r.below(3); });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RejoinSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, bool>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_batched" : "_unbatched");
    });

// --- Crash mid-WAL-write (torn tail) -----------------------------------------

// The host tears the last WAL write (power cut mid group-commit / Byzantine
// truncation): the clean marker is present but the log's tail record MAC no
// longer verifies. The warm path must REFUSE the log and the rejoin must
// degrade to the full attested sequence — durability then comes from the
// live cluster, not the damaged log.
TEST(FailureInjection, TornWalTailDegradesToColdRejoin) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.durable_wal = true;
  config.wal.segment_bytes = 512;  // rotate often: several sealed segments
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.put(client, NodeId{1}, key, value).ok) << key;
    acked[key] = value;
  }
  ASSERT_TRUE(cluster.shutdown_clean(1).is_ok());
  cluster.run_for(100 * sim::kMillisecond);

  // Tear the newest segment mid-record, exactly like a crash between the
  // host's partial flush and the fsync.
  auto* storage = cluster.wal_storage(1);
  ASSERT_NE(storage, nullptr);
  const auto segments = storage->list_segments();
  ASSERT_FALSE(segments.empty());
  Bytes* tail = storage->mutable_segment(segments.back());
  ASSERT_NE(tail, nullptr);
  ASSERT_GT(tail->size(), 8u);
  tail->resize(tail->size() - 5);

  const std::uint64_t attestations = cluster.cas().attestations_served();
  auto report = cluster.rejoin(1, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().warm_restart)
      << "a torn log must never warm-restart";
  EXPECT_TRUE(report.value().promoted);
  EXPECT_GT(report.value().streamed_entries, 0u);
  EXPECT_EQ(cluster.cas().attestations_served(), attestations + 1);

  cluster.run_for(sim::kSecond);
  for (const auto& [key, value] : acked) {
    auto got = cluster.node(1).kv().get(key);
    ASSERT_TRUE(got.is_ok()) << key;
    EXPECT_EQ(to_string(as_view(got.value().value)), value) << key;
  }
}

// The subtler rollback: the host deletes the NEWEST segment outright (or,
// equivalently, truncates at an exact record boundary). Every surviving
// record MAC verifies and per-segment indices stay contiguous, so only the
// clean marker's authenticated segment manifest can refuse the log. The
// rejoin must degrade to the full attested sequence and recover the rolled-
// back writes from the live cluster.
TEST(FailureInjection, DeletedWalSegmentDegradesToColdRejoin) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.durable_wal = true;
  config.wal.segment_bytes = 512;  // rotate often: several sealed segments
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.put(client, NodeId{1}, key, value).ok) << key;
    acked[key] = value;
  }
  ASSERT_TRUE(cluster.shutdown_clean(1).is_ok());
  cluster.run_for(100 * sim::kMillisecond);

  auto* storage = cluster.wal_storage(1);
  ASSERT_NE(storage, nullptr);
  const auto segments = storage->list_segments();
  ASSERT_GT(segments.size(), 1u) << "need a trailing segment to roll back";
  ASSERT_TRUE(storage->remove_segment(segments.back()).is_ok());

  const std::uint64_t attestations = cluster.cas().attestations_served();
  auto report = cluster.rejoin(1, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().warm_restart)
      << "a boundary-rolled-back log must never warm-restart";
  EXPECT_TRUE(report.value().promoted);
  EXPECT_GT(report.value().streamed_entries, 0u);
  EXPECT_EQ(cluster.cas().attestations_served(), attestations + 1);

  cluster.run_for(sim::kSecond);
  for (const auto& [key, value] : acked) {
    auto got = cluster.node(1).kv().get(key);
    ASSERT_TRUE(got.is_ok()) << key;
    EXPECT_EQ(to_string(as_view(got.value().value)), value) << key;
  }
}

// A host that forges the clean marker's segment count must cost the warm
// path, not the process. The count used to size an allocation before the
// marker's MAC was checked, so the restart threw std::bad_alloc (aborting a
// TcpCluster replica's loop thread) on every later restart. The MAC is now
// checked first and the rejoin degrades to the attested cold path.
TEST(FailureInjection, ForgedMarkerSegmentCountDegradesToColdRejoin) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.durable_wal = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.put(client, NodeId{1}, key, value).ok) << key;
    acked[key] = value;
  }
  ASSERT_TRUE(cluster.shutdown_clean(1).is_ok());
  cluster.run_for(100 * sim::kMillisecond);

  auto* storage = cluster.wal_storage(1);
  ASSERT_NE(storage, nullptr);
  Bytes* marker = storage->mutable_blob("wal-marker");
  ASSERT_NE(marker, nullptr);
  ASSERT_GE(marker->size(), 24u);
  for (std::size_t i = 20; i < 24; ++i) (*marker)[i] = 0xFF;

  auto report = cluster.rejoin(1, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().warm_restart)
      << "a forged marker must never warm-restart";
  EXPECT_TRUE(report.value().promoted);

  cluster.run_for(sim::kSecond);
  for (const auto& [key, value] : acked) {
    auto got = cluster.node(1).kv().get(key);
    ASSERT_TRUE(got.is_ok()) << key;
    EXPECT_EQ(to_string(as_view(got.value().value)), value) << key;
  }
}

// --- Consistent-hash routing (Fig. 2 distributed data-store layer)
// ---------------

TEST(ConsistentHashRing, DistributesKeys) {
  cluster::ConsistentHashRing ring;
  for (cluster::ShardId s = 0; s < 4; ++s) ring.add_shard(s);
  EXPECT_EQ(ring.shard_count(), 4u);

  std::map<cluster::ShardId, int> counts;
  for (int i = 0; i < 4000; ++i) {
    counts[ring.lookup("user" + std::to_string(i))]++;
  }
  // Every shard owns a reasonable fraction (no starvation).
  for (cluster::ShardId s = 0; s < 4; ++s) {
    EXPECT_GT(counts[s], 400) << "shard " << s;
  }
}

TEST(ConsistentHashRing, LookupIsStable) {
  cluster::ConsistentHashRing ring;
  for (cluster::ShardId s = 0; s < 3; ++s) ring.add_shard(s);
  const auto owner = ring.lookup("some-key");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ring.lookup("some-key"), owner);
}

TEST(ConsistentHashRing, RemovalMovesOnlyAffectedKeys) {
  cluster::ConsistentHashRing ring;
  for (cluster::ShardId s = 0; s < 4; ++s) ring.add_shard(s);
  std::map<std::string, cluster::ShardId> before;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "user" + std::to_string(i);
    before[key] = ring.lookup(key);
  }
  ring.remove_shard(2);
  int moved = 0;
  for (const auto& [key, shard] : before) {
    const auto now = ring.lookup(key);
    if (shard != 2) {
      EXPECT_EQ(now, shard) << "key not owned by the removed shard moved";
    } else {
      EXPECT_NE(now, 2u);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(ConsistentHashRing, AddingShardMovesBoundedFraction) {
  // Adding one shard to an N-shard ring must move only ~1/(N+1) of the
  // keyspace — and every moved key must move TO the new shard (consistent
  // hashing never shuffles keys between existing shards).
  constexpr int kShards = 5;
  constexpr int kKeys = 10000;
  cluster::ConsistentHashRing ring;
  for (cluster::ShardId s = 0; s < kShards; ++s) ring.add_shard(s);

  std::map<std::string, cluster::ShardId> before;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "user" + std::to_string(i);
    before[key] = ring.lookup(key);
  }

  ring.add_shard(kShards);
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const auto now = ring.lookup(key);
    if (now != owner) {
      EXPECT_EQ(now, static_cast<cluster::ShardId>(kShards))
          << "key moved between pre-existing shards";
      ++moved;
    }
  }
  const double fraction = static_cast<double>(moved) / kKeys;
  const double expected = 1.0 / (kShards + 1);
  EXPECT_GT(fraction, expected / 3) << "new shard starved";
  EXPECT_LT(fraction, expected * 2.5) << "far more than its share moved";
}

TEST(ConsistentHashRing, RemovingShardMovesBoundedFraction) {
  constexpr int kShards = 5;
  constexpr int kKeys = 10000;
  cluster::ConsistentHashRing ring;
  for (cluster::ShardId s = 0; s < kShards; ++s) ring.add_shard(s);

  int owned = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (ring.lookup("user" + std::to_string(i)) == 0) ++owned;
  }
  // RemovalMovesOnlyAffectedKeys covers WHICH keys move; this bounds HOW MANY.
  const double fraction = static_cast<double>(owned) / kKeys;
  EXPECT_GT(fraction, 1.0 / kShards / 3);
  EXPECT_LT(fraction, 2.5 / kShards);
}

TEST(ConsistentHashRing, RemoveDownToEmptyRing) {
  cluster::ConsistentHashRing ring;
  for (cluster::ShardId s = 0; s < 3; ++s) ring.add_shard(s);
  EXPECT_FALSE(ring.empty());

  ring.remove_shard(0);
  ring.remove_shard(2);
  EXPECT_EQ(ring.shard_count(), 1u);
  // All keys land on the sole survivor.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.lookup("user" + std::to_string(i)), 1u);
  }

  ring.remove_shard(1);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.shard_count(), 0u);
  // Lookup on an empty ring is well-defined (no owner), not UB.
  EXPECT_EQ(ring.lookup("user1"), cluster::ConsistentHashRing::kNoShard);
  // Removing from an empty ring is a no-op.
  ring.remove_shard(1);
  EXPECT_TRUE(ring.empty());
}

TEST(ConsistentHashRing, ShardedAbdDeployment) {
  // Two independent ABD replication groups; the routing layer steers each
  // key to its owning shard (Fig. 2 end-to-end).
  cluster::ConsistentHashRing ring;
  ring.add_shard(0);
  ring.add_shard(1);

  Cluster<protocols::AbdNode> shard0;
  shard0.build();
  Cluster<protocols::AbdNode> shard1;
  shard1.build();
  auto& client0 = shard0.add_client(2001);
  auto& client1 = shard1.add_client(2002);

  for (int i = 0; i < 20; ++i) {
    const std::string key = "user" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    if (ring.lookup(key) == 0) {
      ASSERT_TRUE(shard0.put(client0, NodeId{1}, key, value).ok);
    } else {
      ASSERT_TRUE(shard1.put(client1, NodeId{1}, key, value).ok);
    }
  }
  // Reads route identically and find every key.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "user" + std::to_string(i);
    const ClientReply get = ring.lookup(key) == 0
                                ? shard0.get(client0, NodeId{2}, key)
                                : shard1.get(client1, NodeId{2}, key);
    EXPECT_TRUE(get.found) << key;
  }
}

}  // namespace
}  // namespace recipe
