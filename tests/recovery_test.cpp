// End-to-end crash recovery and attested rejoin (paper §3.7).
//
// Covers the whole subsystem: sealed/versioned snapshots with rollback
// protection (hardware-counter pinned), the RejoinDriver sequence (enclave
// restart -> CAS re-attestation -> shadow join -> chunked catch-up ->
// promotion) for every protocol, shadow-replica semantics (no chain
// position, no quorum weight, no client service), and the cluster layer's
// shard-replica replacement built on the same machinery.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <unordered_set>

#include "cluster_harness.h"
#include "cluster/cluster.h"
#include "cluster/registry.h"
#include "cluster/routed_client.h"
#include "kvstore/snapshot.h"
#include "protocols/abd/abd.h"
#include "protocols/cr/cr.h"
#include "protocols/craq/craq.h"
#include "protocols/hermes/hermes.h"
#include "protocols/raft/raft.h"
#include "recipe/recovery.h"

namespace recipe {
namespace {

using testing::Cluster;

// --- Sealed snapshot codec ---------------------------------------------------

class SealedSnapshot : public ::testing::Test {
 protected:
  tee::TeePlatform platform_{7};
  tee::Enclave enclave_{platform_, "recipe-replica", 42};
};

TEST_F(SealedSnapshot, RoundTripRestoresEveryEntry) {
  kv::KvStore store;
  store.write("a", as_view("va"), kv::Timestamp{1, 0});
  store.write("b", as_view("vb"), kv::Timestamp{2, 5});
  store.write("c", as_view("vc"), kv::Timestamp{});

  const auto key = enclave_.sealing_key();
  ASSERT_TRUE(key.is_ok());
  const auto version = enclave_.advance_snapshot_version();
  ASSERT_TRUE(version.is_ok());
  const Bytes blob = kv::seal_snapshot(store, key.value(), version.value());

  // The manifest is readable (for logging), the body is not plaintext.
  const auto manifest = kv::peek_snapshot_manifest(as_view(blob));
  ASSERT_TRUE(manifest.is_ok());
  EXPECT_EQ(manifest.value().version, version.value());
  EXPECT_EQ(manifest.value().entries, 3u);
  const std::string raw(blob.begin(), blob.end());
  EXPECT_EQ(raw.find("va"), std::string::npos) << "value leaked in cleartext";

  kv::KvStore restored;
  auto r = kv::unseal_snapshot(as_view(blob), key.value(), version.value(),
                               restored);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().installed, 3u);
  EXPECT_EQ(to_string(as_view(restored.get("a").value().value)), "va");
  EXPECT_EQ(to_string(as_view(restored.get("b").value().value)), "vb");
  EXPECT_EQ(restored.get("b").value().timestamp, (kv::Timestamp{2, 5}));
  EXPECT_EQ(to_string(as_view(restored.get("c").value().value)), "vc");
}

TEST_F(SealedSnapshot, OtherEnclaveCannotUnseal) {
  // The sealing key binds the enclave identity (per-machine fuses): another
  // replica of the SAME binary must not open this node's snapshot — the
  // host could otherwise substitute replica A's state into replica B (and
  // two sealers at the same version would reuse the ChaCha20 nonce).
  kv::KvStore store;
  store.write("k", as_view("v"), kv::Timestamp{1, 0});
  const auto key_a = enclave_.sealing_key().value();
  const auto version = enclave_.advance_snapshot_version().value();
  const Bytes blob = kv::seal_snapshot(store, key_a, version);

  tee::Enclave other(platform_, "recipe-replica", 43);  // same measurement
  const auto key_b = other.sealing_key().value();
  EXPECT_NE(key_a.material, key_b.material);
  kv::KvStore target;
  auto r = kv::unseal_snapshot(as_view(blob), key_b, version, target);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kAuthFailed);
}

TEST_F(SealedSnapshot, TamperedBlobIsRejected) {
  kv::KvStore store;
  store.write("a", as_view("va"), kv::Timestamp{1, 0});
  const auto key = enclave_.sealing_key().value();
  const auto version = enclave_.advance_snapshot_version().value();
  Bytes blob = kv::seal_snapshot(store, key, version);

  for (const std::size_t offset :
       {std::size_t{0}, blob.size() / 2, blob.size() - 1}) {
    Bytes corrupt = blob;
    corrupt[offset] ^= 0x01;
    kv::KvStore target;
    auto r = kv::unseal_snapshot(as_view(corrupt), key, version, target);
    ASSERT_FALSE(r.is_ok()) << "offset " << offset;
    EXPECT_EQ(r.status().code(), ErrorCode::kAuthFailed) << "offset " << offset;
    EXPECT_EQ(target.size(), 0u);
  }
  // Truncation too.
  Bytes truncated(blob.begin(), blob.end() - 1);
  kv::KvStore target;
  auto r = kv::unseal_snapshot(as_view(truncated), key, version, target);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kAuthFailed);
}

TEST_F(SealedSnapshot, RollbackToOlderVersionIsRejected) {
  kv::KvStore store;
  store.write("k", as_view("old"), kv::Timestamp{1, 0});
  const auto key = enclave_.sealing_key().value();
  const auto v1 = enclave_.advance_snapshot_version().value();
  const Bytes blob_v1 = kv::seal_snapshot(store, key, v1);

  store.write("k", as_view("new"), kv::Timestamp{2, 0});
  const auto v2 = enclave_.advance_snapshot_version().value();
  const Bytes blob_v2 = kv::seal_snapshot(store, key, v2);
  ASSERT_GT(v2, v1);

  // The hardware counter is at v2: the old (validly sealed!) blob must be
  // refused — this is the rollback attack.
  kv::KvStore target;
  auto rollback = kv::unseal_snapshot(as_view(blob_v1), key,
                                      enclave_.snapshot_version().value(),
                                      target);
  ASSERT_FALSE(rollback.is_ok());
  EXPECT_EQ(rollback.status().code(), ErrorCode::kRollback);
  EXPECT_EQ(target.size(), 0u);

  // The current blob restores fine.
  auto ok = kv::unseal_snapshot(as_view(blob_v2), key,
                                enclave_.snapshot_version().value(), target);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(to_string(as_view(target.get("k").value().value)), "new");
}

TEST_F(SealedSnapshot, SealingKeySurvivesEnclaveRestart) {
  kv::KvStore store;
  store.write("k", as_view("v"), kv::Timestamp{1, 0});
  const auto key_before = enclave_.sealing_key().value();
  const auto version = enclave_.advance_snapshot_version().value();
  const Bytes blob = kv::seal_snapshot(store, key_before, version);

  enclave_.crash();
  EXPECT_FALSE(enclave_.sealing_key().is_ok()) << "crashed enclave must refuse";
  enclave_.restart();

  // Same binary, same platform: the restarted enclave derives the SAME
  // sealing key (it has no other way to recover its snapshot) and the
  // hardware counter still pins the version.
  const auto key_after = enclave_.sealing_key().value();
  EXPECT_EQ(key_before.material, key_after.material);
  kv::KvStore restored;
  auto r = kv::unseal_snapshot(as_view(blob), key_after,
                               enclave_.snapshot_version().value(), restored);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().installed, 1u);
}

// --- Node-level snapshot API (pinned rollback stat) --------------------------

TEST(NodeSnapshot, RollbackAttemptPinsStat) {
  Cluster<protocols::AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v1").ok);

  auto& node = cluster.node(0);
  auto old_blob = node.durability().seal_snapshot();
  ASSERT_TRUE(old_blob.is_ok());
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v2").ok);
  auto new_blob = node.durability().seal_snapshot();
  ASSERT_TRUE(new_blob.is_ok());

  // Re-feeding the older sealed snapshot is rejected and counted.
  auto rollback =
      node.durability().restore_snapshot(as_view(old_blob.value()));
  ASSERT_FALSE(rollback.is_ok());
  EXPECT_EQ(rollback.status().code(), ErrorCode::kRollback);
  EXPECT_EQ(node.durability().snapshot_rollback_rejected(), 1u);

  // The current snapshot restores (0 strictly-newer entries: state matches).
  auto current =
      node.durability().restore_snapshot(as_view(new_blob.value()));
  ASSERT_TRUE(current.is_ok());
  EXPECT_EQ(node.durability().snapshot_rollback_rejected(), 1u);
}

// --- Full rejoin per protocol ------------------------------------------------

// Shared scenario: writes -> crash -> writes (chain/quorum repairs) ->
// rejoin (with writes racing the catch-up stream) -> writes -> verify the
// rejoined replica holds EVERY acked value and serves where its protocol
// allows.
template <typename Node>
struct RejoinScenario {
  Cluster<Node>& cluster;
  KvClient& client;
  std::function<NodeId()> write_coordinator;
  std::map<std::string, std::string> acked{};
  int counter = 0;

  void write_n(int n) {
    for (int i = 0; i < n; ++i) {
      const std::string key = "key" + std::to_string(counter);
      const std::string value = "v" + std::to_string(counter);
      ++counter;
      const ClientReply reply =
          cluster.put(client, write_coordinator(), key, value);
      ASSERT_TRUE(reply.ok) << key;
      acked[key] = value;
    }
  }

  // Launches n writes WITHOUT driving the simulator: they execute while the
  // next synchronous phase (the rejoin) runs, racing the catch-up stream.
  void write_n_async(int n) {
    for (int i = 0; i < n; ++i) {
      const std::string key = "key" + std::to_string(counter);
      const std::string value = "v" + std::to_string(counter);
      ++counter;
      acked[key] = value;  // verified below; chain/Raft writes are reliable
      client.put(write_coordinator(), key, to_bytes(value),
                 [](const ClientReply&) {});
    }
  }

  void verify_on(ReplicaNode& node) {
    for (const auto& [key, value] : acked) {
      auto got = node.kv().get(key);
      ASSERT_TRUE(got.is_ok()) << key << " missing on node "
                               << node.self().value;
      EXPECT_EQ(to_string(as_view(got.value().value)), value) << key;
    }
  }
};

TEST(Rejoin, ChainReplicationTailRejoinsAndServesReads) {
  typename Cluster<protocols::ChainNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::ChainNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  RejoinScenario<protocols::ChainNode> s{cluster, client,
                                         [] { return NodeId{1}; }};

  s.write_n(8);
  cluster.crash(2);  // the tail dies
  cluster.run_for(400 * sim::kMillisecond);  // suspicion; chain repairs to [1,2]
  s.write_n(8);

  s.write_n_async(4);  // these race the catch-up stream
  auto report = cluster.rejoin(2, NodeId{2});  // donor: the acting tail
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().promoted);
  EXPECT_GT(report.value().streamed_entries, 0u);

  cluster.run_for(sim::kSecond);
  EXPECT_TRUE(cluster.node(2).active());
  EXPECT_TRUE(cluster.node(2).is_tail()) << "promoted tail resumes its position";
  s.write_n(4);
  cluster.run_for(sim::kSecond);

  s.verify_on(cluster.node(2));
  // Linearizable local reads at the restored tail.
  for (const auto& [key, value] : s.acked) {
    const ClientReply get = cluster.get(client, NodeId{3}, key);
    ASSERT_TRUE(get.ok && get.found) << key;
    EXPECT_EQ(to_string(as_view(get.value)), value) << key;
  }
}

TEST(Rejoin, CraqMiddleNodeRejoins) {
  typename Cluster<protocols::CraqNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::CraqNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  RejoinScenario<protocols::CraqNode> s{cluster, client,
                                        [] { return NodeId{1}; }};

  s.write_n(8);
  cluster.crash(1);  // middle of the chain
  cluster.run_for(400 * sim::kMillisecond);
  s.write_n(8);

  s.write_n_async(4);
  // Donor: the tail — its state is committed by construction.
  auto report = cluster.rejoin(1, NodeId{3});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().promoted);

  cluster.run_for(sim::kSecond);
  s.write_n(4);
  cluster.run_for(sim::kSecond);
  s.verify_on(cluster.node(1));

  // CRAQ serves reads anywhere, including at the rejoined node.
  for (const auto& [key, value] : s.acked) {
    const ClientReply get = cluster.get(client, NodeId{2}, key);
    ASSERT_TRUE(get.ok && get.found) << key;
    EXPECT_EQ(to_string(as_view(get.value)), value) << key;
  }
}

TEST(Rejoin, RaftFollowerRejoinsViaLogBackfill) {
  typename Cluster<protocols::RaftNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::RaftNode> cluster(config);
  protocols::RaftOptions raft;
  raft.initial_leader = NodeId{1};
  cluster.build(raft);
  auto& client = cluster.add_client();
  RejoinScenario<protocols::RaftNode> s{cluster, client,
                                        [] { return NodeId{1}; }};

  s.write_n(8);
  cluster.crash(2);  // a follower dies
  cluster.run_for(200 * sim::kMillisecond);
  s.write_n(8);

  s.write_n_async(4);
  auto report = cluster.rejoin(2, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().promoted);

  cluster.run_for(sim::kSecond);
  s.write_n(4);
  cluster.run_for(sim::kSecond);

  EXPECT_EQ(cluster.node(2).role(), protocols::RaftNode::Role::kFollower);
  EXPECT_EQ(cluster.node(2).commit_index(), cluster.node(0).commit_index());
  s.verify_on(cluster.node(2));
}

TEST(Rejoin, AbdReplicaRejoins) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  RejoinScenario<protocols::AbdNode> s{cluster, client,
                                       [] { return NodeId{1}; }};

  s.write_n(8);
  cluster.crash(1);
  cluster.run_for(200 * sim::kMillisecond);
  s.write_n(8);  // quorum {1,3} keeps the register available

  auto report = cluster.rejoin(1, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().promoted);
  cluster.run_for(sim::kSecond);

  s.write_n(4);
  s.verify_on(cluster.node(1));
  // The rejoined node coordinates quorum reads again.
  for (const auto& [key, value] : s.acked) {
    const ClientReply get = cluster.get(client, NodeId{2}, key);
    ASSERT_TRUE(get.ok && get.found) << key;
    EXPECT_EQ(to_string(as_view(get.value)), value) << key;
  }
}

TEST(Rejoin, HermesReplicaRejoinsAndServesLocalReads) {
  typename Cluster<protocols::HermesNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::HermesNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  RejoinScenario<protocols::HermesNode> s{cluster, client,
                                          [] { return NodeId{1}; }};

  s.write_n(8);
  cluster.crash(2);
  cluster.run_for(400 * sim::kMillisecond);  // writes need the live set settled
  s.write_n(8);

  auto report = cluster.rejoin(2, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().promoted);
  cluster.run_for(sim::kSecond);

  s.write_n(4);
  cluster.run_for(sim::kSecond);
  s.verify_on(cluster.node(2));
  // Local linearizable reads at the rejoined replica.
  for (const auto& [key, value] : s.acked) {
    const ClientReply get = cluster.get(client, NodeId{3}, key);
    ASSERT_TRUE(get.ok && get.found) << key;
    EXPECT_EQ(to_string(as_view(get.value)), value) << key;
  }
}

// --- Shadow semantics --------------------------------------------------------

TEST(Rejoin, ShadowHoldsNoChainPositionAndServesNoClients) {
  typename Cluster<protocols::ChainNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::ChainNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v").ok);

  cluster.crash(2);
  cluster.run_for(400 * sim::kMillisecond);

  RejoinOptions options;
  options.auto_promote = false;  // stop after catch-up, stay shadow
  auto report = cluster.rejoin(2, NodeId{2}, options);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().promoted);
  cluster.run_for(100 * sim::kMillisecond);

  // The shadow holds the data but no position, weight, or client service.
  EXPECT_TRUE(cluster.node(2).is_shadow());
  EXPECT_FALSE(cluster.node(2).active());
  EXPECT_TRUE(cluster.node(2).kv().contains("k"));
  EXPECT_EQ(cluster.node(0).chain(), (std::vector<NodeId>{NodeId{1}, NodeId{2}}))
      << "peers must exclude the shadow from the chain";
  EXPECT_FALSE(cluster.node(2).is_tail());
  const ClientReply refused = cluster.get(client, NodeId{3}, "k");
  EXPECT_FALSE(refused.ok) << "a shadow must refuse client reads";

  // Manual promotion flips everything atomically.
  cluster.node(2).promote();
  cluster.run_for(100 * sim::kMillisecond);
  EXPECT_TRUE(cluster.node(2).active());
  EXPECT_EQ(cluster.node(0).chain(),
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
  const ClientReply served = cluster.get(client, NodeId{3}, "k");
  EXPECT_TRUE(served.ok && served.found);
}

// Rejoin with a STALE sealed snapshot: the rollback is detected and pinned,
// and the recovery falls back to the live stream — acked data survives.
TEST(Rejoin, StaleSnapshotIsRejectedButRejoinCompletes) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v1").ok);

  // Seal v1, then seal a newer version (advancing the hardware counter):
  // the adversary keeps the OLD blob to feed the restarted node.
  auto stale = cluster.node(1).durability().seal_snapshot();
  ASSERT_TRUE(stale.is_ok());
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v2").ok);
  ASSERT_TRUE(cluster.node(1).durability().seal_snapshot().is_ok());

  cluster.crash(1);
  cluster.run_for(200 * sim::kMillisecond);
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v3").ok);

  RejoinOptions options;
  options.sealed_snapshot = std::move(stale).take();
  auto report = cluster.rejoin(1, NodeId{1}, options);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().snapshot_rolled_back);
  EXPECT_EQ(report.value().snapshot_entries, 0u);
  EXPECT_EQ(cluster.node(1).durability().snapshot_rollback_rejected(), 1u);
  EXPECT_TRUE(report.value().promoted);

  auto got = cluster.node(1).kv().get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(as_view(got.value().value)), "v3")
      << "live stream must win over any snapshot path";
}

// Warm start: a CURRENT sealed snapshot restores and the stream only tops
// up the delta written after the crash.
TEST(Rejoin, CurrentSnapshotWarmStart) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.put(client, NodeId{1}, "key" + std::to_string(i),
                            "v" + std::to_string(i))
                    .ok);
  }
  auto blob = cluster.node(1).durability().seal_snapshot();
  ASSERT_TRUE(blob.is_ok());

  cluster.crash(1);
  cluster.run_for(200 * sim::kMillisecond);
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "post-crash", "pv").ok);

  RejoinOptions options;
  options.sealed_snapshot = std::move(blob).take();
  auto report = cluster.rejoin(1, NodeId{1}, options);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().snapshot_rolled_back);
  EXPECT_EQ(report.value().snapshot_entries, 10u);
  EXPECT_TRUE(cluster.node(1).kv().contains("post-crash"));
}

// Corrupt sealed snapshot (bad MAC): NOT fatal. The restore failure pins the
// snapshot_corrupt stat and the rejoin degrades to a cold catch-up — a host
// that damages the blob costs bandwidth, never availability.
TEST(Rejoin, CorruptSnapshotDegradesToColdRejoin) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v1").ok);

  auto blob = cluster.node(1).durability().seal_snapshot();
  ASSERT_TRUE(blob.is_ok());
  Bytes corrupt = std::move(blob).take();
  corrupt[corrupt.size() / 2] ^= 0x01;  // host bit-rot in the sealed body

  cluster.crash(1);
  cluster.run_for(200 * sim::kMillisecond);
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v3").ok);

  RejoinOptions options;
  options.sealed_snapshot = std::move(corrupt);
  auto report = cluster.rejoin(1, NodeId{1}, options);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().snapshot_corrupt);
  EXPECT_FALSE(report.value().snapshot_rolled_back);
  EXPECT_EQ(report.value().snapshot_entries, 0u);
  EXPECT_TRUE(report.value().promoted);
  EXPECT_EQ(cluster.node(1).durability().snapshot_corrupt(), 1u);

  auto got = cluster.node(1).kv().get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(as_view(got.value().value)), "v3")
      << "the live stream must rebuild past the damaged snapshot";
}

// --- Sealed group-commit WAL: cheap restart ----------------------------------

// The acceptance bar for the cheap-restart path: a CLEAN shutdown followed by
// a warm restart replays the sealed WAL locally and resumes ACTIVE with ZERO
// CAS round trips and ZERO peer state-stream entries.
TEST(Rejoin, CleanShutdownWarmRestartSkipsCasAndPeerStream) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.durable_wal = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.put(client, NodeId{1}, "key" + std::to_string(i),
                            "v" + std::to_string(i))
                    .ok);
  }

  ASSERT_TRUE(cluster.shutdown_clean(1).is_ok());
  cluster.run_for(100 * sim::kMillisecond);

  const std::uint64_t attestations = cluster.cas().attestations_served();
  auto report = cluster.rejoin(1, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report.value().warm_restart);
  EXPECT_TRUE(report.value().promoted);
  EXPECT_EQ(report.value().streamed_entries, 0u)
      << "a warm restart must not stream from peers";
  EXPECT_GE(report.value().wal_entries, 10u);
  EXPECT_EQ(cluster.cas().attestations_served(), attestations)
      << "a warm restart must not take a CAS round trip";

  cluster.run_for(100 * sim::kMillisecond);
  EXPECT_TRUE(cluster.node(1).active());
  for (int i = 0; i < 10; ++i) {
    auto got = cluster.node(1).kv().get("key" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << "key" << i;
    EXPECT_EQ(to_string(as_view(got.value().value)), "v" + std::to_string(i));
  }
  // The revived replica participates in fresh traffic without any peer
  // channel reset: its restored send counters were fast-forwarded past the
  // persisted stride (B.1), so every peer's replay window accepts them.
  ASSERT_TRUE(cluster.put(client, NodeId{2}, "post-restart", "pv").ok);
  cluster.run_for(sim::kSecond);
  EXPECT_TRUE(cluster.node(1).kv().contains("post-restart"));
}

// An UNSECURED node handed WAL storage must never grow a WAL on any restart
// path: the warm path is a secured-mode feature (sealed markers, channel
// counters), and a WAL there would open the rejoin driver's fast path.
// start_as_shadow() used to reopen the WAL without checking the mode.
TEST(Rejoin, UnsecuredNodeWithWalStorageNeverWarmRestarts) {
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(7));
  tee::TeePlatform platform(1);
  tee::Enclave enclave(platform, "recipe-replica", 1);
  kv::MemWalStorage wal_storage;

  ReplicaOptions options;
  options.self = NodeId{1};
  options.membership = {NodeId{1}, NodeId{2}, NodeId{3}};
  options.secured = false;
  options.enclave = &enclave;
  options.wal_storage = &wal_storage;
  options.stack = net::NetStackParams::direct_io_native();
  protocols::AbdNode node(simulator, network, std::move(options));
  EXPECT_FALSE(node.durability().has_wal());

  node.start();
  node.stop();
  node.start_as_shadow();
  EXPECT_FALSE(node.durability().has_wal());
  auto warm = node.warm_restart();
  ASSERT_FALSE(warm.is_ok());
  EXPECT_EQ(warm.status().code(), ErrorCode::kUnavailable);
}

// A hard crash leaves no clean marker: the SAME node with the SAME WAL must
// take the full attested rejoin (CAS round trip + peer stream).
TEST(Rejoin, CrashWithWalStillTakesFullAttestedRejoin) {
  typename Cluster<protocols::AbdNode>::Config config;
  config.with_cas = true;
  config.durable_wal = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.put(client, NodeId{1}, "key" + std::to_string(i),
                            "v" + std::to_string(i))
                    .ok);
  }

  cluster.crash(1);  // machine failure: no marker sealed
  cluster.run_for(200 * sim::kMillisecond);
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "post-crash", "pv").ok);

  const std::uint64_t attestations = cluster.cas().attestations_served();
  auto report = cluster.rejoin(1, NodeId{1});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().warm_restart);
  EXPECT_TRUE(report.value().promoted);
  EXPECT_GT(report.value().streamed_entries, 0u);
  EXPECT_EQ(cluster.cas().attestations_served(), attestations + 1)
      << "a crash must re-attest";
  EXPECT_TRUE(cluster.node(1).kv().contains("post-crash"));
}

// Values of 4 KiB take the eight-block ChaCha20 core through every layer a
// confidential cold rejoin touches: channel frames, KvStore seal and get,
// WAL records and the state stream. Values under 512 B never reach it.
TEST(Rejoin, ConfidentialLargeValuesColdRejoin) {
  typename Cluster<protocols::ChainNode>::Config config;
  config.with_cas = true;
  config.durable_wal = true;
  config.confidentiality = true;
  config.heartbeat_period = 10 * sim::kMillisecond;
  Cluster<protocols::ChainNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();

  Rng rng(19);
  std::map<std::string, Bytes> values;
  for (int i = 0; i < 64; ++i) {
    Bytes value(4096);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.next());
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(cluster.put(client, NodeId{1}, key, to_string(as_view(value)))
                    .ok)
        << key;
    values.emplace(key, std::move(value));
  }

  cluster.crash(1);  // the middle replica
  cluster.run_for(400 * sim::kMillisecond);  // chain repairs to [1,3]
  auto report = cluster.rejoin(1, NodeId{1});  // donor: the head
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_FALSE(report.value().warm_restart);
  EXPECT_TRUE(report.value().promoted);
  EXPECT_GE(report.value().streamed_entries, values.size());
  cluster.run_for(sim::kSecond);

  // Every value reads back byte-exact, and the store equals the tail's.
  const auto entries_of = [](const kv::KvStore& store) {
    std::map<std::string, Bytes> entries;
    store.scan([&](std::string_view key, const kv::Timestamp&) {
      auto got = store.get(key);
      EXPECT_TRUE(got.is_ok()) << key;
      if (got.is_ok()) entries.emplace(key, got.value().value);
      return true;
    });
    return entries;
  };
  kv::KvStore& rejoined = cluster.node(1).kv();
  const std::map<std::string, Bytes> rejoined_entries = entries_of(rejoined);
  EXPECT_EQ(rejoined_entries, values);
  EXPECT_EQ(rejoined_entries, entries_of(cluster.node(2).kv()));

  // The host side holds ciphertext only: no 64-byte window of any plaintext
  // value appears in the arena, nor in the sealed WAL the rejoin wrote.
  std::unordered_set<std::string_view> windows;
  const auto view_of = [](const Bytes& bytes) {
    return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size());
  };
  for (const auto& [key, value] : values) {
    for (std::size_t i = 0; i + 64 <= value.size(); ++i) {
      windows.insert(view_of(value).substr(i, 64));
    }
  }
  const auto expect_no_plaintext = [&](const Bytes& host,
                                       const std::string& where) {
    for (std::size_t i = 0; i + 64 <= host.size(); ++i) {
      ASSERT_FALSE(windows.contains(view_of(host).substr(i, 64)))
          << where << " offset " << i;
    }
  };
  EXPECT_EQ(rejoined.host_arena().allocations(), values.size());
  for (const auto& [key, value] : values) {
    const auto ptr = rejoined.host_ptr(key);
    ASSERT_TRUE(ptr) << key;
    expect_no_plaintext(rejoined.host_arena().load(*ptr).value(),
                        "arena value of " + key);
  }
  std::size_t wal_bytes = 0;
  for (const std::uint64_t id : cluster.wal_storage(1)->list_segments()) {
    const Bytes segment = cluster.wal_storage(1)->read_segment(id).value();
    wal_bytes += segment.size();
    expect_no_plaintext(segment, "WAL segment " + std::to_string(id));
  }
  EXPECT_GE(wal_bytes, values.size() * 4096) << "the rejoin logs every value";
}

// --- Cluster layer: shard-replica replacement --------------------------------

TEST(ClusterRecovery, ShardReplicaReplacement) {
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(4242));
  tee::TeePlatform platform(1);
  cluster::ClusterOptions options;
  options.default_protocol = "cr";
  cluster::ShardedCluster sharded(simulator, network, platform, options);
  ASSERT_TRUE(sharded.add_shard().is_ok());
  ASSERT_TRUE(sharded.add_shard("abd").is_ok());

  auto& group = sharded.shard(0);
  for (int i = 0; i < 12; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (std::size_t r = 0; r < group.size(); ++r) {
      group.replica(r).kv().write(key, as_view("v" + std::to_string(i)),
                                  kv::Timestamp{std::uint64_t(i + 1), 0});
    }
  }
  // The empty-string key must stream too (the chunk cursor cannot alias it).
  for (std::size_t r = 0; r < group.size(); ++r) {
    group.replica(r).kv().write("", as_view("empty-key"),
                                kv::Timestamp{13, 0});
  }

  // Kill replica 1 of shard 0, then replace it via the shared machinery.
  group.stop_replica(1);
  simulator.run_for(100 * sim::kMillisecond);
  EXPECT_FALSE(group.replica(1).running());

  ASSERT_TRUE(sharded.recover_replica(0, 1).is_ok());
  EXPECT_TRUE(group.replica(1).active());
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(group.replica(1).kv().contains("k" + std::to_string(i)))
        << "k" << i;
  }
  EXPECT_TRUE(group.replica(1).kv().contains(""))
      << "the empty-string key must survive chunked streaming";
  EXPECT_TRUE(group.holds_key("k0"));

  // Recovering a running replica is refused; bad indices too.
  EXPECT_FALSE(sharded.recover_replica(0, 1).is_ok());
  EXPECT_FALSE(sharded.recover_replica(0, 99).is_ok());
  EXPECT_FALSE(sharded.recover_replica(77, 0).is_ok());
}

TEST(ClusterRecovery, RoutedClientSurvivesReplicaReplacement) {
  // A client that exchanged traffic with a replica BEFORE its replacement
  // holds a populated replay window for it; the fresh-node listener must
  // reset that window or every post-recovery reply (restarted counters)
  // would be rejected as a duplicate.
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(77));
  tee::TeePlatform platform(1);
  cluster::ClusterOptions options;
  options.default_protocol = "cr";
  cluster::ShardedCluster sharded(simulator, network, platform, options);
  ASSERT_TRUE(sharded.add_shard().is_ok());
  cluster::RoutedClient client(sharded);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.put_sync("key" + std::to_string(i),
                                "v" + std::to_string(i)));
  }
  // Reads at the CR tail populate the client's window for that replica.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(client.get_sync("key" + std::to_string(i)),
              "v" + std::to_string(i));
  }

  auto& group = sharded.shard(0);
  group.stop_replica(2);  // the tail — the sole CR read server
  simulator.run_for(100 * sim::kMillisecond);
  ASSERT_TRUE(sharded.recover_replica(0, 2).is_ok());
  ASSERT_TRUE(group.replica(2).active());

  // Replies now come from the recovered tail with counters from 1.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.get_sync("key" + std::to_string(i)),
              "v" + std::to_string(i))
        << "key" << i;
  }
}

// Regression (ASan): a replica recovery the cluster layer gave up on
// (handoff_timeout far below the catch-up time) must not fire into freed
// nodes after the cluster is destroyed — the promotion poll or a late
// catch-up completion included. The simulator twin of
// TcpClusterTest.TeardownDuringAbandonedRejoinIsSafe.
TEST(ClusterRecovery, TeardownDuringAbandonedRecoveryIsSafe) {
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(4242));
  tee::TeePlatform platform(1);
  cluster::ClusterOptions options;
  options.default_protocol = "raft";
  options.heartbeat_period = 5 * sim::kMillisecond;
  options.handoff_timeout = 20 * sim::kMillisecond;
  {
    cluster::ShardedCluster sharded(simulator, network, platform, options);
    ASSERT_TRUE(sharded.add_shard().is_ok());
    auto& group = sharded.shard(0);
    for (int i = 0; i < 3000; ++i) {
      const std::string key = "k" + std::to_string(i);
      for (std::size_t r = 0; r < group.size(); ++r) {
        group.replica(r).kv().write(key, as_view("v"),
                                    kv::Timestamp{std::uint64_t(i + 1), 0});
      }
    }
    group.stop_replica(2);
    EXPECT_FALSE(sharded.recover_replica(0, 2).is_ok());
  }
  // Anything the abandoned recovery left armed fires now, into freed nodes.
  simulator.run_for(3 * sim::kSecond);
}

}  // namespace
}  // namespace recipe
