// Sealed group-commit WAL: record codec, group commit, rotation, compaction,
// replay idempotence, Byzantine-host tampering, the rollback-pinned clean
// marker and the B.1 counter vault.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "crypto/chacha20.h"
#include "kvstore/kvstore.h"
#include "kvstore/snapshot.h"
#include "kvstore/wal.h"

namespace recipe::kv {
namespace {

const crypto::SymmetricKey kSealKey{Bytes(32, 0xAB)};
const crypto::SymmetricKey kOtherKey{Bytes(32, 0xCD)};

Timestamp ts(std::uint64_t counter, std::uint64_t node = 1) {
  return Timestamp{counter, node};
}

// MemWalStorage that counts the log and snapshot bytes written through it,
// and can fail every snapshot write (a full disk, say).
class CountingStorage final : public WalStorage {
 public:
  std::vector<std::uint64_t> list_segments() const override {
    return inner_.list_segments();
  }
  Status append_segment(std::uint64_t id, BytesView record) override {
    logged_bytes += record.size();
    return inner_.append_segment(id, record);
  }
  Result<Bytes> read_segment(std::uint64_t id) const override {
    return inner_.read_segment(id);
  }
  Status remove_segment(std::uint64_t id) override {
    return inner_.remove_segment(id);
  }
  Status put_blob(const std::string& name, BytesView data) override {
    if (name == "wal-snapshot") {
      if (fail_snapshot_writes) {
        return Status::error(ErrorCode::kInternal, "snapshot write failed");
      }
      resealed_bytes += data.size();
    }
    return inner_.put_blob(name, data);
  }
  Result<Bytes> read_blob(const std::string& name) const override {
    return inner_.read_blob(name);
  }
  Status remove_blob(const std::string& name) override {
    return inner_.remove_blob(name);
  }

  std::size_t logged_bytes = 0;
  std::size_t resealed_bytes = 0;
  bool fail_snapshot_writes = false;

 private:
  MemWalStorage inner_;
};

TEST(Wal, CommitSealsOneRecordPerGroup) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, /*boot_epoch=*/1);

  EXPECT_EQ(wal.pending_entries(), 0u);
  wal.append("a", as_view("1"), ts(1));
  wal.append("b", as_view("2"), ts(2));
  EXPECT_EQ(wal.pending_entries(), 2u);

  auto committed = wal.commit();
  ASSERT_TRUE(committed.is_ok());
  EXPECT_EQ(committed.value(), 2u);
  EXPECT_EQ(wal.pending_entries(), 0u);
  EXPECT_EQ(wal.records_committed(), 1u);
  EXPECT_EQ(wal.entries_committed(), 2u);

  // An empty commit is a no-op: no record, no storage write.
  auto empty = wal.commit();
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value(), 0u);
  EXPECT_EQ(wal.records_committed(), 1u);
}

TEST(Wal, ReplayRestoresEntriesWithTimestamps) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  wal.append("a", as_view("1"), ts(1));
  wal.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(wal.commit().is_ok());
  wal.append("a", as_view("3"), ts(3));  // second group overwrites
  ASSERT_TRUE(wal.commit().is_ok());

  KvStore kv;
  auto replay = wal.replay(kv, /*snapshot_version=*/0);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().records, 2u);
  EXPECT_EQ(replay.value().log_entries, 3u);
  EXPECT_EQ(replay.value().snapshot_entries, 0u);
  EXPECT_EQ(to_string(as_view(kv.get("a").value().value)), "3");
  EXPECT_EQ(to_string(as_view(kv.get("b").value().value)), "2");
  EXPECT_EQ(kv.timestamp("a").value(), ts(3));
}

// Satellite: replay idempotence. Entries admit through would_advance, so a
// second replay over already-restored state installs exactly ZERO entries.
TEST(Wal, ReplayIsIdempotent) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  for (int i = 0; i < 50; ++i) {
    wal.append("key" + std::to_string(i % 10), as_view("v"),
               ts(static_cast<std::uint64_t>(i + 1)));
    if (i % 7 == 0) {
      ASSERT_TRUE(wal.commit().is_ok());
    }
  }
  ASSERT_TRUE(wal.commit().is_ok());

  KvStore kv;
  auto first = wal.replay(kv, 0);
  ASSERT_TRUE(first.is_ok());
  EXPECT_GT(first.value().log_entries, 0u);
  const std::size_t size_after_first = kv.size();

  auto second = wal.replay(kv, 0);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().log_entries, 0u) << "second replay must install "
                                               "nothing: every entry is "
                                               "already present at its ts";
  EXPECT_EQ(kv.size(), size_after_first);
  // The raw record stream is re-verified in full both times.
  EXPECT_EQ(second.value().records, first.value().records);
}

TEST(Wal, SegmentsRotateAtSizeThreshold) {
  MemWalStorage storage;
  WalOptions options;
  options.segment_bytes = 256;  // tiny: a few records per segment
  Wal wal(storage, kSealKey, 1, options);

  for (int i = 0; i < 20; ++i) {
    wal.append("key" + std::to_string(i), as_view("some-payload-bytes"),
               ts(static_cast<std::uint64_t>(i + 1)));
    ASSERT_TRUE(wal.commit().is_ok());
  }
  EXPECT_GT(wal.segments_rotated(), 0u);
  EXPECT_GT(storage.list_segments().size(), 1u);

  KvStore kv;
  auto replay = wal.replay(kv, 0);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(kv.size(), 20u);
  EXPECT_EQ(replay.value().segments, storage.list_segments().size());
}

TEST(Wal, CompactionFoldsSealedSegmentsIntoSnapshot) {
  MemWalStorage storage;
  WalOptions options;
  options.segment_bytes = 128;
  options.compact_segments = 3;
  Wal wal(storage, kSealKey, 1, options);

  KvStore kv;  // the live store the log mirrors
  std::uint64_t c = 0;
  while (!wal.should_compact()) {
    const std::string key = "key" + std::to_string(c % 16);
    ASSERT_TRUE(kv.write(key, as_view("payload-payload"), ts(++c)));
    wal.append(key, as_view("payload-payload"), ts(c));
    ASSERT_TRUE(wal.commit().is_ok());
    ASSERT_LT(c, 10000u) << "compaction threshold never reached";
  }
  ASSERT_TRUE(wal.compact(kv, /*version=*/7).is_ok());
  EXPECT_EQ(wal.compacted_version(), 7u);
  EXPECT_EQ(wal.compactions(), 1u);
  // Every sealed segment was deleted; only the open one may remain.
  for (std::uint64_t id : storage.list_segments()) {
    EXPECT_EQ(id, wal.open_segment());
  }

  // Post-compaction writes land in the log; replay = snapshot + tail.
  ASSERT_TRUE(kv.write("after", as_view("x"), ts(++c)));
  wal.append("after", as_view("x"), ts(c));
  ASSERT_TRUE(wal.commit().is_ok());

  KvStore restored;
  auto replay = wal.replay(restored, /*snapshot_version=*/7);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_GT(replay.value().snapshot_entries, 0u);
  EXPECT_EQ(replay.value().log_entries, 1u);
  EXPECT_EQ(restored.size(), kv.size());
  EXPECT_EQ(to_string(as_view(restored.get("after").value().value)), "x");
}

// Write amplification is bounded whatever the store size. The sealed store
// here is 16x the compaction floor; compacting whenever should_compact() says
// so, as ReplicaNode does, must reseal no more than ~1 byte per logged byte.
// A trigger that fires every compact_segments segments would reseal the
// whole store per 4 KiB of log instead (~14x).
TEST(Wal, CompactionResealsAboutOneBytePerLoggedByte) {
  CountingStorage storage;
  WalOptions options;
  options.segment_bytes = 1024;  // floor: compact_segments (4) x 1 KiB
  Wal wal(storage, kSealKey, 1, options);
  constexpr std::size_t kKeys = 64;
  const Bytes value(1024, 0x5A);

  KvStore kv;
  std::uint64_t c = 0;
  std::uint64_t version = 0;
  auto put = [&](std::size_t k) {
    const std::string key = "key" + std::to_string(k);
    ++c;
    if (!kv.write(key, as_view(value), ts(c))) return false;
    wal.append(key, as_view(value), ts(c));
    if (!wal.commit().is_ok()) return false;
    return !wal.should_compact() || wal.compact(kv, ++version).is_ok();
  };
  for (std::size_t k = 0; k < kKeys; ++k) ASSERT_TRUE(put(k));
  const std::size_t store_bytes = seal_snapshot(kv, kSealKey, 1).size();
  ASSERT_GE(store_bytes, 8 * options.compact_segments * options.segment_bytes);

  for (std::size_t i = 0; storage.logged_bytes < 8 * store_bytes; ++i) {
    ASSERT_TRUE(put(i % kKeys));
  }
  EXPECT_GE(wal.compactions(), 8u);
  EXPECT_LE(storage.resealed_bytes * 2, storage.logged_bytes * 3)
      << "resealed " << storage.resealed_bytes << " B for "
      << storage.logged_bytes << " B logged";
}

// A snapshot write that keeps failing must not turn every group commit into
// a full reseal plus a hardware-counter advance: after a failed compact()
// the trigger stays off until the next rotation, and commits keep working.
TEST(Wal, FailedCompactionWaitsForTheNextRotation) {
  CountingStorage storage;
  WalOptions options;
  options.segment_bytes = 128;
  options.compact_segments = 1;
  Wal wal(storage, kSealKey, 1, options);

  KvStore kv;
  std::uint64_t c = 0;
  auto put = [&] {
    const std::string key = "key" + std::to_string(c % 4);
    ++c;
    if (!kv.write(key, as_view("payload-payload"), ts(c))) return false;
    wal.append(key, as_view("payload-payload"), ts(c));
    return wal.commit().is_ok();
  };
  while (!wal.should_compact()) ASSERT_TRUE(put());

  storage.fail_snapshot_writes = true;
  ASSERT_FALSE(wal.compact(kv, /*version=*/1).is_ok());
  EXPECT_EQ(wal.compactions(), 0u);
  const std::uint64_t rotations = wal.segments_rotated();
  while (wal.segments_rotated() == rotations) {
    EXPECT_FALSE(wal.should_compact()) << "retried before the next rotation";
    ASSERT_TRUE(put());
  }
  EXPECT_TRUE(wal.should_compact());

  storage.fail_snapshot_writes = false;
  ASSERT_TRUE(wal.compact(kv, /*version=*/2).is_ok());
  EXPECT_FALSE(wal.should_compact());
  KvStore restored;
  ASSERT_TRUE(wal.replay(restored, /*snapshot_version=*/2).is_ok());
  EXPECT_EQ(restored.size(), kv.size());
}

TEST(Wal, TamperedRecordFailsReplay) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  wal.append("a", as_view("secret-value"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());

  Bytes* segment = storage.mutable_segment(wal.open_segment());
  ASSERT_NE(segment, nullptr);
  (*segment)[segment->size() / 2] ^= 0x01;  // single bit flip

  KvStore kv;
  auto replay = wal.replay(kv, 0);
  ASSERT_FALSE(replay.is_ok());
  EXPECT_EQ(replay.status().code(), ErrorCode::kAuthFailed);
  EXPECT_EQ(kv.size(), 0u);
}

TEST(Wal, TornTailWriteFailsReplay) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  wal.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());
  wal.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(wal.commit().is_ok());

  // Crash mid-append: the tail record is cut short.
  Bytes* segment = storage.mutable_segment(wal.open_segment());
  ASSERT_NE(segment, nullptr);
  segment->resize(segment->size() - 5);

  KvStore kv;
  auto replay = wal.replay(kv, 0);
  ASSERT_FALSE(replay.is_ok());
  EXPECT_EQ(replay.status().code(), ErrorCode::kAuthFailed);
}

TEST(Wal, RecordMovedToAnotherSegmentFailsReplay) {
  // A record's MAC binds (segment id, record index): a host shuffling
  // authentic records between segments (or duplicating one) must fail
  // replay, not silently reorder history.
  MemWalStorage storage;
  WalOptions options;
  options.segment_bytes = 1;  // every commit rotates: one record per segment
  Wal wal(storage, kSealKey, 1, options);
  wal.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());
  wal.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(wal.commit().is_ok());

  auto segments = storage.list_segments();
  ASSERT_GE(segments.size(), 2u);
  Bytes first = *storage.mutable_segment(segments[0]);
  *storage.mutable_segment(segments[1]) = first;  // replay segment 0's record

  KvStore kv;
  auto replay = wal.replay(kv, 0);
  ASSERT_FALSE(replay.is_ok());
  EXPECT_EQ(replay.status().code(), ErrorCode::kAuthFailed);
}

TEST(Wal, RecordKeyIsBoundToSealingKey) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  wal.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());

  Wal other(storage, kOtherKey, 1);
  KvStore kv;
  auto replay = other.replay(kv, 0);
  ASSERT_FALSE(replay.is_ok());
  EXPECT_EQ(replay.status().code(), ErrorCode::kAuthFailed);
}

TEST(Wal, BootEpochKeepsSegmentIdsDisjointAcrossRestarts) {
  // The host rolled the directory back? Doesn't matter: each open reserves
  // a FRESH boot epoch from the hardware counter, so the new instance never
  // appends under a (segment id, record index) any previous life used —
  // record nonces cannot repeat.
  MemWalStorage storage;
  Wal first(storage, kSealKey, /*boot_epoch=*/3);
  const std::uint64_t first_open = first.open_segment();
  Wal second(storage, kSealKey, /*boot_epoch=*/4);
  EXPECT_GT(second.open_segment(), first_open);

  first.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(first.commit().is_ok());
  second.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(second.commit().is_ok());

  // Both lives' segments coexist and replay in order.
  KvStore kv;
  auto replay = second.replay(kv, 0);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(kv.size(), 2u);
}

TEST(Wal, CleanMarkerRoundtripAndRollbackPin) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  const Bytes state = to_bytes("opaque-sealed-enclave-state");
  ASSERT_TRUE(wal.write_clean_marker(/*marker_version=*/9, state).is_ok());

  auto marker = wal.read_clean_marker(/*expected_version=*/9);
  ASSERT_TRUE(marker.is_ok());
  EXPECT_EQ(marker.value().marker_version, 9u);
  EXPECT_EQ(marker.value().snapshot_version, 0u);
  EXPECT_EQ(marker.value().enclave_state, state);

  // The hardware counter moved on (a later incarnation advanced it): the
  // same marker is now a rollback artifact and must be rejected.
  auto stale = wal.read_clean_marker(10);
  ASSERT_FALSE(stale.is_ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kRollback);

  // Tampering with any marker field breaks the meta-key MAC.
  Bytes* blob = storage.mutable_blob("wal-marker");
  ASSERT_NE(blob, nullptr);
  (*blob)[4] ^= 0x01;  // flip a bit of marker_version
  auto forged = wal.read_clean_marker(9);
  ASSERT_FALSE(forged.is_ok());
  EXPECT_EQ(forged.status().code(), ErrorCode::kAuthFailed);

  wal.clear_clean_marker();
  EXPECT_EQ(storage.mutable_blob("wal-marker"), nullptr);
}

// The marker binds the log's exact shape. A host that truncates the last
// segment at a RECORD boundary leaves a perfectly valid prefix — every
// surviving MAC checks out, per-segment indices stay contiguous from 0 — so
// only the manifest comparison can catch the rollback.
TEST(Wal, RecordBoundaryTruncationFailsMarkerBoundReplay) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  wal.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());
  const std::size_t boundary = storage.mutable_segment(wal.open_segment())
                                   ->size();  // exact end of record 0
  wal.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(wal.commit().is_ok());
  ASSERT_TRUE(wal.write_clean_marker(/*marker_version=*/5, Bytes{}).is_ok());
  auto marker = wal.read_clean_marker(5);
  ASSERT_TRUE(marker.is_ok());
  ASSERT_FALSE(marker.value().segments.empty());

  storage.mutable_segment(wal.open_segment())->resize(boundary);

  // Without the manifest the truncated log replays "cleanly" — which is
  // exactly the attack: committed write "b" silently rolled back.
  KvStore fooled;
  ASSERT_TRUE(wal.replay(fooled, 0).is_ok());
  EXPECT_FALSE(fooled.contains("b"));

  KvStore kv;
  auto bound = wal.replay(kv, marker.value().snapshot_version,
                          &marker.value().segments);
  ASSERT_FALSE(bound.is_ok());
  EXPECT_EQ(bound.status().code(), ErrorCode::kRollback);
}

TEST(Wal, DeletedTrailingSegmentFailsMarkerBoundReplay) {
  MemWalStorage storage;
  WalOptions options;
  options.segment_bytes = 1;  // every commit rotates: one record per segment
  Wal wal(storage, kSealKey, 1, options);
  wal.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());
  wal.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(wal.commit().is_ok());
  ASSERT_TRUE(wal.write_clean_marker(/*marker_version=*/5, Bytes{}).is_ok());
  auto marker = wal.read_clean_marker(5);
  ASSERT_TRUE(marker.is_ok());
  EXPECT_EQ(marker.value().segments.size(), 2u);

  // Intact storage replays fine under the manifest.
  KvStore intact;
  ASSERT_TRUE(
      wal.replay(intact, 0, &marker.value().segments).is_ok());

  // Dropping the newest segment entirely is undetectable per-record (the
  // remaining segments are untouched); the manifest must refuse it.
  const auto segments = storage.list_segments();
  ASSERT_TRUE(storage.remove_segment(segments.back()).is_ok());
  KvStore kv;
  auto bound = wal.replay(kv, 0, &marker.value().segments);
  ASSERT_FALSE(bound.is_ok());
  EXPECT_EQ(bound.status().code(), ErrorCode::kRollback);
}

// A reopened Wal (fresh boot epoch, same storage) must bind PRIOR lives'
// segments into its next marker too — the constructor scan, not just the
// records this instance committed.
TEST(Wal, ReopenedWalManifestCoversPriorIncarnations) {
  MemWalStorage storage;
  {
    Wal first(storage, kSealKey, /*boot_epoch=*/3);
    first.append("a", as_view("1"), ts(1));
    ASSERT_TRUE(first.commit().is_ok());
  }
  Wal second(storage, kSealKey, /*boot_epoch=*/4);
  second.append("b", as_view("2"), ts(2));
  ASSERT_TRUE(second.commit().is_ok());
  ASSERT_TRUE(second.write_clean_marker(9, Bytes{}).is_ok());
  auto marker = second.read_clean_marker(9);
  ASSERT_TRUE(marker.is_ok());
  EXPECT_EQ(marker.value().segments.size(), 2u);

  KvStore intact;
  ASSERT_TRUE(second.replay(intact, 0, &marker.value().segments).is_ok());
  EXPECT_EQ(intact.size(), 2u);

  // Deleting the FIRST life's segment is just as much a rollback.
  ASSERT_TRUE(storage.remove_segment(storage.list_segments().front()).is_ok());
  KvStore kv;
  auto bound = second.replay(kv, 0, &marker.value().segments);
  ASSERT_FALSE(bound.is_ok());
  EXPECT_EQ(bound.status().code(), ErrorCode::kRollback);
}

// Exhausting the 20-bit per-epoch sequence must fail commit() hard, never
// wrap into the epoch bits (that would collide segment ids across epochs and
// reuse a ChaCha20 (key, nonce) pair under the record key).
TEST(Wal, SequenceExhaustionFailsCommitHard) {
  MemWalStorage storage;
  WalOptions options;
  options.segment_bytes = 1;   // every commit rotates
  options.max_segment_seq = 2; // test-sized sequence space
  Wal wal(storage, kSealKey, /*boot_epoch=*/7, options);

  for (int i = 0; i < 3; ++i) {  // seq 0, 1, 2 — the last rotation exhausts
    wal.append("k" + std::to_string(i), as_view("v"),
               ts(static_cast<std::uint64_t>(i + 1)));
    ASSERT_TRUE(wal.commit().is_ok()) << i;
  }
  EXPECT_TRUE(wal.seq_exhausted());

  wal.append("overflow", as_view("v"), ts(10));
  auto failed = wal.commit();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(wal.pending_entries(), 1u) << "failed commit keeps the buffer";

  // Everything that reached storage stays inside epoch 7's id space.
  for (const std::uint64_t id : storage.list_segments()) {
    EXPECT_EQ(id >> 20, 7u) << "segment id bled into the epoch field";
  }
}

// The marker's MAC is checked before any field is parsed. A forged segment
// count (bytes 20-23) used to size a reserve() from untrusted bytes, so
// every later restart threw std::bad_alloc instead of rejoining cold.
TEST(Wal, ForgedMarkerSegmentCountFailsAuthWithoutThrowing) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  wal.append("a", as_view("1"), ts(1));
  ASSERT_TRUE(wal.commit().is_ok());
  ASSERT_TRUE(wal.write_clean_marker(9, to_bytes("state")).is_ok());
  Bytes* blob = storage.mutable_blob("wal-marker");
  ASSERT_NE(blob, nullptr);
  ASSERT_GE(blob->size(), 24u);
  for (std::size_t i = 20; i < 24; ++i) (*blob)[i] = 0xFF;

  std::optional<Result<CleanMarker>> forged;
  EXPECT_NO_THROW(forged.emplace(wal.read_clean_marker(9)));
  ASSERT_TRUE(forged.has_value());
  ASSERT_FALSE(forged->is_ok());
  EXPECT_EQ(forged->status().code(), ErrorCode::kAuthFailed);
}

TEST(Wal, MissingMarkerIsACrash) {
  MemWalStorage storage;
  Wal wal(storage, kSealKey, 1);
  auto marker = wal.read_clean_marker(1);
  ASSERT_FALSE(marker.is_ok());
  EXPECT_EQ(marker.status().code(), ErrorCode::kNotFound);
}

TEST(CounterVault, PersistsOncePerStride) {
  MemWalStorage storage;
  CounterVault vault(storage, kSealKey, /*stride=*/100);
  const ChannelId cq{42};

  // First allocation crosses the (empty) horizon: one write, horizon 101.
  vault.note(cq, 1);
  EXPECT_EQ(vault.writes(), 1u);
  for (Counter c = 2; c <= 100; ++c) vault.note(cq, c);
  EXPECT_EQ(vault.writes(), 1u) << "within the stride: no I/O";
  vault.note(cq, 101);  // horizon crossed: persist 201
  EXPECT_EQ(vault.writes(), 2u);

  auto horizons = vault.load();
  ASSERT_TRUE(horizons.contains(cq));
  EXPECT_EQ(horizons[cq], 201u);
  // The persisted horizon always clears every allocated value: flooring a
  // restarted counter at it can never reuse a nonce.
  EXPECT_GT(horizons[cq], 101u);
}

TEST(CounterVault, HorizonsSurviveReconstruction) {
  MemWalStorage storage;
  {
    CounterVault vault(storage, kSealKey, 100);
    vault.note(ChannelId{1}, 1);
    vault.note(ChannelId{2}, 250);
  }
  CounterVault reopened(storage, kSealKey, 100);
  auto horizons = reopened.load();
  EXPECT_EQ(horizons[ChannelId{1}], 101u);
  EXPECT_EQ(horizons[ChannelId{2}], 350u);
  // Reopened vault continues from the persisted horizons: values under them
  // cause no writes.
  reopened.note(ChannelId{1}, 50);
  EXPECT_EQ(reopened.writes(), 0u);
}

TEST(CounterVault, TamperedVaultLoadsEmpty) {
  MemWalStorage storage;
  CounterVault vault(storage, kSealKey, 100);
  vault.note(ChannelId{1}, 1);
  Bytes* blob = storage.mutable_blob("wal-vault");
  ASSERT_NE(blob, nullptr);
  (*blob)[blob->size() / 2] ^= 0x01;
  // Losing the vault only loses the FAST-FORWARD floor (the marker's exact
  // counters still apply); it must never fabricate horizons.
  EXPECT_TRUE(vault.load().empty());
}

}  // namespace
}  // namespace recipe::kv
