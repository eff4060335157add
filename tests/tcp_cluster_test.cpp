// End-to-end cluster runs over REAL TCP loopback sockets: the acceptance
// smoke for the transport tentpole. A 3-replica group (CR and Raft) with
// shielding + batching enabled serves client ops across four OS threads,
// survives a crash + §3.7 attested-style rejoin, and the sequential history
// stays linearizable: every read returns the latest completed write.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "cluster/tcp_cluster.h"

namespace recipe::cluster {
namespace {

BatchConfig small_batches() {
  BatchConfig batch;
  batch.enabled = true;
  batch.max_count = 8;
  batch.max_bytes = 16 * 1024;
  batch.max_delay = 200 * sim::kMicrosecond;  // real microseconds here
  return batch;
}

// Sequential closed-loop client: with one outstanding op at a time,
// linearizability degenerates to "every ok-GET returns the latest ok-PUT".
// A GET after a failed PUT may see either value (the write may or may not
// have taken effect) — the checker tracks both admissible values.
class SequentialChecker {
 public:
  void completed_put(const std::string& key, const std::string& value,
                     bool ok) {
    auto& entry = admissible_[key];
    if (ok) {
      entry.clear();
      entry.insert(value);
    } else {
      entry.insert(value);  // maybe-applied: both old and new are legal
    }
  }

  void check_get(const std::string& key, const ClientReply& reply) {
    ASSERT_TRUE(reply.ok) << "read of " << key << " failed outright";
    const auto it = admissible_.find(key);
    ASSERT_NE(it, admissible_.end());
    EXPECT_TRUE(it->second.contains(to_string(as_view(reply.value))))
        << "non-linearizable read of " << key << ": got '"
        << to_string(as_view(reply.value)) << "'";
  }

 private:
  std::map<std::string, std::set<std::string>> admissible_;
};

void run_crash_rejoin_smoke(const std::string& protocol,
                            std::size_t crash_index) {
  TcpClusterOptions options;
  options.protocol = protocol;
  options.replicas = 3;
  options.secured = true;
  options.batch = small_batches();
  options.heartbeat_period = 20 * sim::kMillisecond;
  options.suspect_timeout = 100 * sim::kMillisecond;
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2000);
  SequentialChecker checker;

  // Phase 1: writes + reads with all replicas up.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    const std::string value = "v1-" + std::to_string(i);
    const ClientReply reply = cluster.put(client, key, value);
    checker.completed_put(key, value, reply.ok);
    EXPECT_TRUE(reply.ok) << protocol << " put " << i << " failed";
  }
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i);
    checker.check_get(key, cluster.get(client, key));
  }

  // Phase 2: crash one replica; keep writing. Ops may fail while the
  // failure detector converges — the checker tolerates maybe-applied
  // writes, linearizability must still hold for whatever succeeds.
  cluster.crash(crash_index);
  int succeeded = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    const std::string value = "v2-" + std::to_string(i);
    const ClientReply reply = cluster.put(client, key, value);
    checker.completed_put(key, value, reply.ok);
    if (reply.ok) ++succeeded;
  }
  EXPECT_GT(succeeded, 0) << protocol
                          << ": cluster never regained write availability "
                             "after a single crash";

  // Phase 3: full rejoin over TCP (enclave restart, channel resets, shadow
  // join, state streaming from a live donor, promotion).
  NodeId donor{};
  for (std::size_t j = 0; j < cluster.size(); ++j) {
    if (j == crash_index) continue;
    donor = cluster.membership()[j];
    if (protocol == "cr") donor = cluster.membership().back();  // the tail
    break;
  }
  if (protocol == "cr" && crash_index == 2) {
    donor = cluster.membership()[1];
  }
  const Status rejoined = cluster.rejoin(crash_index, donor);
  ASSERT_TRUE(rejoined.is_ok()) << protocol
                                << " rejoin: " << rejoined.message();
  bool active = false;
  cluster.run_on(crash_index, [&] {
    active = cluster.node(crash_index).active();
  });
  EXPECT_TRUE(active);

  // Phase 4: writes and reads with the restored membership.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    const std::string value = "v3-" + std::to_string(i);
    const ClientReply reply = cluster.put(client, key, value);
    checker.completed_put(key, value, reply.ok);
    EXPECT_TRUE(reply.ok) << protocol << " post-rejoin put " << i;
  }
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i);
    checker.check_get(key, cluster.get(client, key));
  }

  EXPECT_GT(cluster.committed_ops(), 0u);
}

// The headline acceptance runs: CR and Raft, shielded + batched, spanning
// one crash/rejoin each.
TEST(TcpClusterTest, ChainReplicationCrashRejoinLinearizableOverTcp) {
  run_crash_rejoin_smoke("cr", /*crash_index=*/2);  // the tail
}

TEST(TcpClusterTest, RaftFollowerCrashRejoinLinearizableOverTcp) {
  run_crash_rejoin_smoke("raft", /*crash_index=*/1);  // a follower
}

TEST(TcpClusterTest, BasicOpsUnsecuredUnbatched) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = false;
  options.batch = BatchConfig{};  // off
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2100);

  for (int i = 0; i < 10; ++i) {
    const ClientReply put = cluster.put(client, "key" + std::to_string(i),
                                        "value" + std::to_string(i));
    EXPECT_TRUE(put.ok);
  }
  for (int i = 0; i < 10; ++i) {
    const ClientReply get = cluster.get(client, "key" + std::to_string(i));
    ASSERT_TRUE(get.ok);
    EXPECT_TRUE(get.found);
    EXPECT_EQ(to_string(as_view(get.value)), "value" + std::to_string(i));
  }
}

// Two clients co-hosted on ONE client transport: the replicas see them both
// arrive over a single connection per transport pair, so reply routing must
// be learned from EVERY frame, not just a connection's first (regression:
// the second client's replies were unroutable and every op timed out).
TEST(TcpClusterTest, TwoCoHostedClientsBothComplete) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = true;
  TcpCluster cluster(options);
  KvClient& first = cluster.add_client(2300);
  KvClient& second = cluster.add_client(2301);

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(
        cluster.put(first, "a" + std::to_string(i), "from-first").ok);
    EXPECT_TRUE(
        cluster.put(second, "b" + std::to_string(i), "from-second").ok);
  }
  const ClientReply a = cluster.get(second, "a0");
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(to_string(as_view(a.value)), "from-first");
  const ClientReply b = cluster.get(first, "b0");
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(to_string(as_view(b.value)), "from-second");
}

// The whole secured + batched stack over multi-shard transports: every
// replica and the client transport run 2 event-loop shards, the two
// clients land on DIFFERENT client shards (round-robin homing), and a
// crash + rejoin exercises the per-client channel resets on each client's
// own home loop. transport_shards=1 covers the legacy path everywhere
// else; this is the sharded deployment's end-to-end smoke.
TEST(TcpClusterTest, ShardedTransportsConvergeAndRejoin) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = true;
  options.batch = small_batches();
  options.transport_shards = 2;
  options.heartbeat_period = 20 * sim::kMillisecond;
  options.suspect_timeout = 100 * sim::kMillisecond;
  TcpCluster cluster(options);
  KvClient& first = cluster.add_client(2400);
  KvClient& second = cluster.add_client(2401);

  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        cluster.put(first, "a" + std::to_string(i), "va" + std::to_string(i))
            .ok);
    EXPECT_TRUE(
        cluster.put(second, "b" + std::to_string(i), "vb" + std::to_string(i))
            .ok);
  }

  cluster.crash(1);
  EXPECT_TRUE(cluster.put(first, "during", "crash").ok);
  ASSERT_TRUE(cluster.rejoin(1, cluster.membership()[0]).is_ok());

  for (int i = 0; i < 10; ++i) {
    const ClientReply a = cluster.get(second, "a" + std::to_string(i));
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(to_string(as_view(a.value)), "va" + std::to_string(i));
    const ClientReply b = cluster.get(first, "b" + std::to_string(i));
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(to_string(as_view(b.value)), "vb" + std::to_string(i));
  }
  EXPECT_TRUE(cluster.get(second, "during").ok);
}

TEST(TcpClusterTest, ConfidentialityModeRoundTrips) {
  TcpClusterOptions options;
  options.protocol = "craq";
  options.secured = true;
  options.confidentiality = true;
  options.batch = small_batches();
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2200);

  const ClientReply put = cluster.put(client, "secret", "ciphertext value");
  EXPECT_TRUE(put.ok);
  const ClientReply get = cluster.get(client, "secret");
  ASSERT_TRUE(get.ok);
  EXPECT_EQ(to_string(as_view(get.value)), "ciphertext value");
}

// Fatal error classification in the synchronous helpers: a crashed CLIENT
// enclave makes shield() fail locally — no re-route or retransmit can fix
// that, so retry_op must return kAuthFailed immediately instead of burning
// its whole attempt/backoff budget.
TEST(TcpClusterTest, CrashedClientEnclaveFailsFatallyWithoutRetries) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = true;
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2500);
  ASSERT_TRUE(cluster.put(client, "pre", "works").ok);

  cluster.client_transport().run_sync(
      [&] { cluster.client_enclave(0).crash(); });

  const auto started = std::chrono::steady_clock::now();
  const ClientReply reply = cluster.put(client, "post", "cannot shield");
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, ErrorCode::kAuthFailed);
  // Fatal short-circuit: well under even ONE attempt timeout (500ms), let
  // alone the re-route loop's full backoff schedule.
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

// A replica that is crashed FOREVER must produce a bounded, classified
// failure: the op exhausts its (timeout-growing) retransmits and re-routes
// and comes back kTimeout in roughly the budgeted time — not hang, not spin.
TEST(TcpClusterTest, PermanentlyCrashedClusterFailsBounded) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = true;
  options.client_retry.initial_timeout = 100 * sim::kMillisecond;
  options.client_retry.max_attempts = 2;
  options.op_retry.max_attempts = 2;
  options.op_retry.base_backoff = 10 * sim::kMillisecond;
  options.op_retry.max_backoff = 50 * sim::kMillisecond;
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2600);
  ASSERT_TRUE(cluster.put(client, "pre", "works").ok);

  for (std::size_t i = 0; i < cluster.size(); ++i) cluster.crash(i);

  const auto started = std::chrono::steady_clock::now();
  const ClientReply reply = cluster.put(client, "dead", "never lands");
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, ErrorCode::kTimeout);
  // Budget: 2 re-routes x (2 retransmits x ~100-200ms growing timeouts +
  // backoffs) plus coordinator re-resolution — generously under 5s.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// Sealed WAL on real files: a clean shutdown followed by rejoin() takes the
// cheap-restart path — no re-provisioning, no peer channel resets, no state
// stream — and every committed entry survives on disk. No failure detector
// (heartbeat_period = 0): the peers never even notice the absence, exactly
// the planned-maintenance restart the WAL is for.
TEST(TcpClusterTest, FileBackedWarmRestartOverTcp) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = true;
  options.batch = small_batches();
  options.durable_wal = true;
  options.wal_dir = "wal_dumps/warm_tcp";
  std::filesystem::remove_all(options.wal_dir);  // hermetic across runs
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2800);

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.put(client, "key" + std::to_string(i),
                            "v" + std::to_string(i))
                    .ok);
  }
  ASSERT_TRUE(cluster.shutdown_clean(2).is_ok());  // the CR tail

  bool warm = false;
  const Status rejoined = cluster.rejoin(2, cluster.membership()[1],
                                         30 * sim::kSecond, &warm);
  ASSERT_TRUE(rejoined.is_ok()) << rejoined.message();
  EXPECT_TRUE(warm) << "clean shutdown + intact WAL must warm-restart";

  bool active = false;
  std::size_t restored = 0;
  cluster.run_on(2, [&] {
    active = cluster.node(2).active();
    restored = cluster.node(2).kv().size();
  });
  EXPECT_TRUE(active);
  EXPECT_GE(restored, 12u);

  // The revived tail serves fresh traffic without any channel resets: its
  // restored send counters were fast-forwarded past the persisted stride.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.put(client, "post" + std::to_string(i), "pv").ok);
  }
  const ClientReply get = cluster.get(client, "key0");
  ASSERT_TRUE(get.ok && get.found);
  EXPECT_EQ(to_string(as_view(get.value)), "v0");
}

// Crash (no clean marker): the same file-backed node must refuse the warm
// path and take the full shadow rejoin.
TEST(TcpClusterTest, FileBackedCrashStillTakesColdRejoin) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.secured = true;
  options.batch = small_batches();
  options.heartbeat_period = 20 * sim::kMillisecond;
  options.suspect_timeout = 100 * sim::kMillisecond;
  options.durable_wal = true;
  options.wal_dir = "wal_dumps/cold_tcp";
  std::filesystem::remove_all(options.wal_dir);
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2850);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.put(client, "key" + std::to_string(i), "v").ok);
  }
  cluster.crash(2);
  int succeeded = 0;
  for (int i = 0; i < 10; ++i) {
    if (cluster.put(client, "post" + std::to_string(i), "v").ok) ++succeeded;
  }
  EXPECT_GT(succeeded, 0);

  bool warm = true;
  const Status rejoined = cluster.rejoin(2, cluster.membership()[1],
                                         30 * sim::kSecond, &warm);
  ASSERT_TRUE(rejoined.is_ok()) << rejoined.message();
  EXPECT_FALSE(warm) << "a crash leaves no marker: cold rejoin required";
}

// Regression (TSan/ASan): abandoning a rejoin mid-flight (max_wait far below
// the catch-up time) and immediately destroying the cluster must not let any
// node-capturing callback — the promotion poll, or a late catch-up
// completion re-arming it — fire into freed memory.
TEST(TcpClusterTest, TeardownDuringAbandonedRejoinIsSafe) {
  TcpClusterOptions options;
  options.protocol = "raft";
  options.secured = true;
  options.batch = small_batches();
  options.heartbeat_period = 20 * sim::kMillisecond;
  options.suspect_timeout = 100 * sim::kMillisecond;
  TcpCluster cluster(options);
  KvClient& client = cluster.add_client(2900);

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.put(client, "k" + std::to_string(i), "v").ok);
  }
  cluster.crash(1);  // a follower
  for (int i = 0; i < 6; ++i) {
    cluster.put(client, "post" + std::to_string(i), "v");  // best effort
  }

  const Status rejoined = cluster.rejoin(1, cluster.membership()[0],
                                         /*max_wait=*/2 * sim::kMillisecond);
  EXPECT_FALSE(rejoined.is_ok());
  // Scope exit tears the whole cluster down RIGHT NOW: any timer the
  // abandoned rejoin left armed would fire into destroyed nodes.
}

// The constructor fails loudly in every build type (tier-1 and the
// benchmark build with NDEBUG): an unknown protocol aborts with a message
// naming the cause instead of dereferencing a null factory.
TEST(TcpClusterTest, UnknownProtocolAbortsWithMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TcpClusterOptions options;
  options.protocol = "no-such-protocol";
  EXPECT_DEATH({ TcpCluster cluster(options); }, "unknown protocol");
}

}  // namespace
}  // namespace recipe::cluster
