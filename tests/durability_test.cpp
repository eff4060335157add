// recipe::Durability on its own: the sealed WAL, counter vault, clean
// shutdown and warm restart driven over MemWalStorage and one enclave, with
// no network and no protocol — the seam a crash-point search drives.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "kvstore/kvstore.h"
#include "kvstore/wal.h"
#include "obs/metrics.h"
#include "recipe/durability.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace recipe {
namespace {

// MemWalStorage that can fail segment appends, counts snapshot writes, and
// records the (segment id, record index) header of every appended record.
class TestStorage final : public kv::WalStorage {
 public:
  std::vector<std::uint64_t> list_segments() const override {
    return inner_.list_segments();
  }
  Status append_segment(std::uint64_t id, BytesView record) override {
    if (fail_appends) {
      return Status::error(ErrorCode::kInternal, "segment append failed");
    }
    Reader r(record);
    (void)r.u32();  // magic
    const auto segment = r.u64();
    const auto index = r.u32();
    EXPECT_EQ(segment.value_or(0), id) << "record header names its segment";
    if (!sealed.insert({id, index.value_or(0)}).second) ++repeated;
    return inner_.append_segment(id, record);
  }
  Result<Bytes> read_segment(std::uint64_t id) const override {
    return inner_.read_segment(id);
  }
  Status remove_segment(std::uint64_t id) override {
    return inner_.remove_segment(id);
  }
  Status put_blob(const std::string& name, BytesView data) override {
    if (name == "wal-snapshot") ++snapshots;
    return inner_.put_blob(name, data);
  }
  Result<Bytes> read_blob(const std::string& name) const override {
    return inner_.read_blob(name);
  }
  Status remove_blob(const std::string& name) override {
    return inner_.remove_blob(name);
  }

  bool fail_appends = false;
  std::size_t snapshots = 0;
  std::set<std::pair<std::uint64_t, std::uint32_t>> sealed;
  std::size_t repeated = 0;

 private:
  kv::MemWalStorage inner_;
};

using Contents = std::map<std::string, std::pair<std::string, std::uint64_t>>;

// One replica's durable state: enclave, host store and storage, wired the
// way ReplicaNode wires them.
struct Replica {
  explicit Replica(kv::WalOptions options = {})
      : durability(NodeId{1}, &enclave, /*secured=*/true, &storage, options,
                   kv, &metrics) {}

  // Applies and logs one write, like ReplicaNode::kv_write.
  void write(const std::string& key, const std::string& value) {
    const kv::Timestamp ts{++clock, 1};
    ASSERT_TRUE(kv.write(key, as_view(value), ts));
    durability.log(key, as_view(value), ts);
    written[key] = {value, ts.counter};
  }

  // Machine reboot: the enclave comes back empty, the host store is gone.
  void reboot() {
    enclave.restart();
    kv.clear();
  }

  Contents contents() const {
    Contents out;
    kv.scan([&](std::string_view key, const kv::Timestamp& ts) {
      auto value = kv.get(key);
      EXPECT_TRUE(value.is_ok()) << key;
      if (value.is_ok()) {
        out[std::string(key)] = {to_string(as_view(value.value().value)),
                                 ts.counter};
      }
      return true;
    });
    return out;
  }

  std::uint64_t metric(const std::string& name) const {
    return metrics.counter_value(name);
  }

  tee::TeePlatform platform{1};
  tee::Enclave enclave{platform, "recipe-replica", 1};
  kv::KvStore kv;
  TestStorage storage;
  obs::MetricsRegistry metrics;
  Durability durability;
  Contents written;  // last value and timestamp per key
  std::uint64_t clock = 0;
};

TEST(Durability, WarmRestartInstallsExactlyTheCommittedWrites) {
  Replica r;
  ASSERT_TRUE(r.durability.has_wal());
  ASSERT_TRUE(r.enclave
                  .install_secret("channel",
                                  crypto::SymmetricKey{Bytes(32, 0x11)})
                  .is_ok());
  const ChannelId cq{5};
  Counter last = 0;
  for (int i = 0; i < 40; ++i) {
    r.write("key" + std::to_string(i % 12), "v" + std::to_string(i));
    last = r.enclave.increment_counter(cq).value();
    r.durability.counter_vault()->note(cq, last);
    if (i % 3 == 2) r.durability.group_commit();
  }
  // The tail (one uncommitted entry) is committed by the shutdown itself.
  ASSERT_TRUE(r.durability.shutdown_clean().is_ok());

  r.reboot();
  ASSERT_TRUE(r.contents().empty());
  auto replayed = r.durability.warm_restart();
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().message();
  EXPECT_EQ(replayed.value().log_entries, 40u);
  EXPECT_EQ(r.contents(), r.written);
  // Enclave state came back from the marker, counters floored at the vault
  // horizon: the restarted channel continues past every used nonce.
  EXPECT_TRUE(r.enclave.has_secret("channel"));
  const Counter horizon = r.durability.counter_vault()->load().at(cq);
  EXPECT_GT(horizon, last);
  EXPECT_GE(r.enclave.peek_counter(cq), horizon);

  // The restart burned the marker: it never vouches for a second one.
  r.reboot();
  EXPECT_FALSE(r.durability.warm_restart().is_ok());
}

TEST(Durability, CrashLeavesNoMarkerAndWarmRestartInstallsNothing) {
  Replica r;
  ASSERT_TRUE(r.enclave
                  .install_secret("channel",
                                  crypto::SymmetricKey{Bytes(32, 0x22)})
                  .is_ok());
  for (int i = 0; i < 10; ++i) {
    r.write("key" + std::to_string(i), "v");
    r.durability.group_commit();
  }
  r.enclave.crash();  // machine failure: no clean shutdown
  r.reboot();

  auto warm = r.durability.warm_restart();
  ASSERT_FALSE(warm.is_ok());
  EXPECT_EQ(warm.status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(r.contents().empty());
  EXPECT_FALSE(r.enclave.has_secret("channel"));
}

TEST(Durability, FailedCommitDirtiesBaselineAndShutdownCompactsFirst) {
  Replica r;
  r.write("a", "1");
  r.durability.group_commit();
  EXPECT_FALSE(r.durability.baseline_dirty());

  r.storage.fail_appends = true;
  r.write("b", "2");  // applied, but its record never reaches storage
  r.durability.group_commit();
  EXPECT_TRUE(r.durability.baseline_dirty());
  EXPECT_EQ(r.metric("recipe_wal_commit_failures_total"), 1u);
  r.storage.fail_appends = false;

  EXPECT_EQ(r.storage.snapshots, 0u);
  ASSERT_TRUE(r.durability.shutdown_clean().is_ok());
  EXPECT_EQ(r.storage.snapshots, 1u)
      << "a marker must never vouch for a log with a hole in it";
  EXPECT_FALSE(r.durability.baseline_dirty());
  EXPECT_EQ(r.metric("recipe_wal_compactions_total"), 1u);

  r.reboot();
  auto warm = r.durability.warm_restart();
  ASSERT_TRUE(warm.is_ok()) << warm.status().message();
  EXPECT_EQ(warm.value().snapshot_entries, 2u);
  EXPECT_EQ(r.contents(), r.written);
}

// Each record's nonce is derived from its (segment id, record index), so no
// pair may repeat across boot epochs and compactions.
TEST(Durability, RecordNoncesNeverRepeatAcrossReopensAndCompactions) {
  kv::WalOptions options;
  options.segment_bytes = 256;
  options.compact_segments = 1;
  Replica r(options);
  int n = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 30; ++i, ++n) {
      r.write("key" + std::to_string(n % 8), "value-" + std::to_string(n));
      r.durability.group_commit();
    }
    if (cycle % 2 == 0) {
      // Crash, then the cold path's reopen under a fresh boot epoch.
      r.enclave.crash();
      r.reboot();
      r.durability.reopen();
      ASSERT_TRUE(r.durability.has_wal());
    } else {
      ASSERT_TRUE(r.durability.shutdown_clean().is_ok());
      r.reboot();
      auto warm = r.durability.warm_restart();
      ASSERT_TRUE(warm.is_ok()) << cycle << ": " << warm.status().message();
    }
  }
  EXPECT_GE(r.storage.snapshots, 3u);
  EXPECT_EQ(r.storage.sealed.size(), 120u);
  EXPECT_EQ(r.storage.repeated, 0u);
}

}  // namespace
}  // namespace recipe
