// Hostile-host fuzzing of the sealed WAL's untrusted inputs: the clean
// marker, the counter vault, segment bytes and the compacted snapshot blob
// all come back from storage the host controls. Byte flips, truncations and
// forged length/count fields must never crash, throw or over-read, and a
// replay that succeeds may install only values that were actually written.
// Replay a failing run with RECIPE_TEST_SEED=<printed seed>.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster_harness.h"
#include "common/rng.h"
#include "kvstore/kvstore.h"
#include "kvstore/wal.h"

namespace recipe::kv {
namespace {

using recipe::testing::resolved_seed;
using recipe::testing::seed_trace_message;

const crypto::SymmetricKey kSealKey{Bytes(32, 0xAB)};
constexpr std::uint64_t kMarkerVersion = 40;
const char* const kBlobs[] = {"wal-marker", "wal-vault", "wal-snapshot"};

// Every value ever written per key: a replay may install nothing else.
using Written = std::map<std::string, std::set<std::string>>;

// A pristine log: several rotated segments, a compacted snapshot, a vault
// and a clean marker, all under kSealKey.
void build_log(MemWalStorage& storage, Written& written) {
  WalOptions options;
  options.segment_bytes = 300;
  options.compact_segments = 2;
  Wal wal(storage, kSealKey, /*boot_epoch=*/3, options);
  CounterVault vault(storage, kSealKey, /*stride=*/16);
  KvStore kv;
  std::uint64_t version = 10;
  for (std::uint64_t i = 1; i <= 80; ++i) {
    const std::string key = "key" + std::to_string(i % 9);
    const std::string value = "value-" + std::to_string(i);
    ASSERT_TRUE(kv.write(key, as_view(value), Timestamp{i, 1}));
    wal.append(key, as_view(value), Timestamp{i, 1});
    written[key].insert(value);
    vault.note(ChannelId{i % 3}, i);
    if (i % 2 == 0) {
      ASSERT_TRUE(wal.commit().is_ok());
      // Compact early only, so sealed segments follow the snapshot.
      if (i <= 40 && wal.should_compact()) {
        ASSERT_TRUE(wal.compact(kv, ++version).is_ok());
      }
    }
  }
  ASSERT_GE(wal.compactions(), 1u);
  ASSERT_TRUE(wal.write_clean_marker(kMarkerVersion, to_bytes("enclave-state"))
                  .is_ok());
}

void copy_storage(MemWalStorage& from, MemWalStorage& to) {
  for (const auto id : from.list_segments()) {
    const Bytes& bytes = *from.mutable_segment(id);
    ASSERT_TRUE(to.append_segment(id, as_view(bytes)).is_ok());
  }
  for (const char* name : kBlobs) {
    if (const Bytes* blob = from.mutable_blob(name)) {
      ASSERT_TRUE(to.put_blob(name, as_view(*blob)).is_ok());
    }
  }
}

void put_u32(Bytes& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4 && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Damages `bytes` one of three ways; `fields` are offsets of u32 length or
// count fields the parser trusts structurally.
std::string mutate(Bytes& bytes, const std::vector<std::size_t>& fields,
                   Rng& rng) {
  if (bytes.empty()) return "empty";
  switch (rng.below(3)) {
    case 0: {
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      return "flip";
    }
    case 1:
      bytes.resize(rng.below(bytes.size()));
      return "truncate";
    default: {
      const std::uint32_t forged[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x10000u,
                                      static_cast<std::uint32_t>(rng.next())};
      const std::size_t at = fields.empty() ? rng.below(bytes.size())
                                            : fields[rng.below(fields.size())];
      put_u32(bytes, at, forged[rng.below(4)]);
      return "forge@" + std::to_string(at);
    }
  }
}

// Every entry in `kv` must be a value some write produced for its key.
void expect_only_written(const KvStore& kv, const Written& written) {
  kv.scan([&](std::string_view key, const Timestamp&) {
    auto value = kv.get(key);
    const auto it = written.find(std::string(key));
    EXPECT_TRUE(value.is_ok() && it != written.end() &&
                it->second.contains(to_string(as_view(value.value().value))))
        << "replay installed an unwritten value under " << key;
    return true;
  });
}

// What the undamaged log holds.
struct Pristine {
  Written written;
  CleanMarker marker;
  std::unordered_map<ChannelId, Counter> horizons;
};

// Runs every reader of untrusted WAL bytes over `storage`; returns whether
// replay under the pristine marker's expectations succeeded.
bool read_everything(MemWalStorage& storage, const Pristine& pristine) {
  Wal wal(storage, kSealKey, /*boot_epoch=*/91);
  (void)wal.compacted_version();
  auto marker = wal.read_clean_marker(kMarkerVersion);
  if (marker.is_ok()) {
    // Only a no-op mutation can leave the MAC intact.
    EXPECT_EQ(marker.value().segments, pristine.marker.segments);
    EXPECT_EQ(marker.value().enclave_state, pristine.marker.enclave_state);
    KvStore kv;
    if (wal.replay(kv, marker.value().snapshot_version,
                   &marker.value().segments)
            .is_ok()) {
      expect_only_written(kv, pristine.written);
    }
  }
  // Segments alone, no manifest: a valid prefix may replay.
  KvStore unbound;
  if (wal.replay(unbound, 0).is_ok()) {
    expect_only_written(unbound, pristine.written);
  }
  const auto loaded = CounterVault(storage, kSealKey).load();
  EXPECT_TRUE(loaded.empty() || loaded == pristine.horizons)
      << "a damaged vault may only load empty";

  KvStore bound;
  const bool replayed = wal.replay(bound, pristine.marker.snapshot_version,
                                   &pristine.marker.segments)
                            .is_ok();
  if (replayed) expect_only_written(bound, pristine.written);
  return replayed;
}

TEST(WalFuzz, DamagedStorageNeverThrowsOrInstallsUnwrittenValues) {
  const std::uint64_t seed = resolved_seed(0x3A1F0);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);

  MemWalStorage storage0;
  Pristine pristine;
  ASSERT_NO_FATAL_FAILURE(build_log(storage0, pristine.written));
  auto marker = Wal(storage0, kSealKey, 90).read_clean_marker(kMarkerVersion);
  ASSERT_TRUE(marker.is_ok()) << marker.status().message();
  pristine.marker = std::move(marker).take();
  ASSERT_NE(pristine.marker.snapshot_version, 0u);
  pristine.horizons = CounterVault(storage0, kSealKey).load();
  ASSERT_FALSE(pristine.horizons.empty());
  const std::size_t segments = storage0.list_segments().size();
  ASSERT_GE(segments, 2u);

  std::map<bool, int> replayed;
  for (int iter = 0; iter < 400; ++iter) {
    MemWalStorage storage;
    ASSERT_NO_FATAL_FAILURE(copy_storage(storage0, storage));
    // Targets: the three blobs, then segments. Field offsets: marker
    // segment count; vault count; snapshot entry count and body length;
    // a record's entry count and body length.
    const std::size_t target = rng.below(3 + segments);
    std::string what;
    if (target < 3) {
      static const std::vector<std::size_t> kFields[] = {{20}, {4}, {12, 16}};
      what = std::string(kBlobs[target]) + " " +
             mutate(*storage.mutable_blob(kBlobs[target]), kFields[target],
                    rng);
    } else {
      const auto id = storage.list_segments()[target - 3];
      what = "segment " + std::to_string(id) + " " +
             mutate(*storage.mutable_segment(id), {16, 20}, rng);
    }
    SCOPED_TRACE("iteration " + std::to_string(iter) + ": " + what);
    bool ok = false;
    EXPECT_NO_THROW(ok = read_everything(storage, pristine));
    ++replayed[ok];
  }
  // Both outcomes occur, or the mutations never reached the parsers.
  EXPECT_GT(replayed[false], 0);
  EXPECT_GT(replayed[true], 0);
}

}  // namespace
}  // namespace recipe::kv
