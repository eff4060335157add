// Sealed group-commit write-ahead log (durable log-structured storage with
// cheap restart).
//
// The WAL makes a CLEAN restart local: the apply path buffers every KV write
// and seals one record per batch-flush boundary (group commit) into an
// append-only segment on UNTRUSTED storage. Segments rotate at a size
// threshold. Once the sealed (rotated-out) segments hold as many bytes as the
// last compacted snapshot, the owner compacts inline: the full store is
// resealed into the existing sealed snapshot format (snapshot.{h,cpp}), whose
// version pins to the hardware rollback counter, and the sealed segments are
// dropped. A clean shutdown writes a rollback-pinned marker; the
// rejoin fast path validates the marker, replays snapshot + segments locally
// and skips the CAS attestation round-trip and the peer state stream
// entirely. A crash leaves no marker and still takes the full §3.7 rejoin.
//
// Sealing: all keys are derived from the enclave SEALING key, so only a
// re-launched instance of the same measured binary on the same platform can
// read the log.
//  * records    — ChaCha20 + HMAC under an HKDF-derived record subkey; the
//    nonce binds (segment id, record index), and segment ids embed a
//    hardware-rollback-counter boot epoch, so no (key, nonce) pair can ever
//    repeat across rotations, compactions or restarts — even if the host
//    rolls the directory back;
//  * compacted snapshot — the unchanged seal_snapshot() format (sealing key,
//    version-bound nonce, version = hardware counter);
//  * marker / counter vault — authenticated-plaintext (HMAC under a meta
//    subkey): versions and channel counters are not confidential (counters
//    travel cleartext in every shielded header), but forgery must be
//    impossible and the marker must be rollback-pinned.
//
// The storage backend is a seam: MemWalStorage keeps the deterministic
// simulator byte-for-byte reproducible, FileWalStorage backs TcpCluster with
// real files. Both are thread-safe (the counter vault writes from the
// caller-thread shield path).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/serde.h"
#include "crypto/hmac.h"
#include "kvstore/kvstore.h"

namespace recipe::kv {

// Untrusted durable storage: numbered append-only segments plus named
// metadata blobs (compacted snapshot, clean-shutdown marker, counter vault).
//
// Contract:
//  * Thread safety — every method is callable from any thread (the counter
//    vault persists horizons from the caller-thread shield path while the
//    loop thread commits records). Implementations serialize internally;
//    callers never lock around a WalStorage.
//  * Ownership — BytesView arguments are borrowed only for the duration of
//    the call (implementations copy or write through before returning);
//    returned Bytes are owned by the caller.
//  * Errors — Status/Result, never exceptions. append_segment is all-or-
//    nothing per call from the caller's view, but the medium is UNTRUSTED:
//    replay must treat any byte of what comes back as adversarial, so
//    reads report only I/O-level failure (missing segment/blob) and leave
//    authentication to the sealed-record layer above. FileWalStorage
//    fsyncs every append and blob write (and the directory on
//    create/rename) before returning OK.
class WalStorage {
 public:
  virtual ~WalStorage() = default;

  virtual std::vector<std::uint64_t> list_segments() const = 0;
  virtual Status append_segment(std::uint64_t id, BytesView record) = 0;
  virtual Result<Bytes> read_segment(std::uint64_t id) const = 0;
  virtual Status remove_segment(std::uint64_t id) = 0;

  virtual Status put_blob(const std::string& name, BytesView data) = 0;
  virtual Result<Bytes> read_blob(const std::string& name) const = 0;
  virtual Status remove_blob(const std::string& name) = 0;
};

// Deterministic in-memory backend (simulator tests). The mutable accessors
// let tests model a Byzantine host: bit-flips, truncated (torn) tail writes,
// deleted blobs.
class MemWalStorage final : public WalStorage {
 public:
  std::vector<std::uint64_t> list_segments() const override;
  Status append_segment(std::uint64_t id, BytesView record) override;
  Result<Bytes> read_segment(std::uint64_t id) const override;
  Status remove_segment(std::uint64_t id) override;
  Status put_blob(const std::string& name, BytesView data) override;
  Result<Bytes> read_blob(const std::string& name) const override;
  Status remove_blob(const std::string& name) override;

  // Test access to the untrusted bytes (null when absent).
  Bytes* mutable_segment(std::uint64_t id);
  Bytes* mutable_blob(const std::string& name);

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, Bytes> segments_;
  std::map<std::string, Bytes> blobs_;
};

// Real-file backend (TcpCluster deployments): `dir` is created on demand;
// segments are `seg-<16-hex id>.wal`, blobs are `<name>.blob`.
class FileWalStorage final : public WalStorage {
 public:
  explicit FileWalStorage(std::string dir);

  std::vector<std::uint64_t> list_segments() const override;
  Status append_segment(std::uint64_t id, BytesView record) override;
  Result<Bytes> read_segment(std::uint64_t id) const override;
  Status remove_segment(std::uint64_t id) override;
  Status put_blob(const std::string& name, BytesView data) override;
  Result<Bytes> read_blob(const std::string& name) const override;
  Status remove_blob(const std::string& name) override;

  const std::string& dir() const { return dir_; }

 private:
  std::string segment_path(std::uint64_t id) const;
  std::string blob_path(const std::string& name) const;

  mutable std::mutex mu_;
  std::string dir_;
};

struct WalOptions {
  // Segment rotation threshold (bytes of sealed records per segment).
  std::size_t segment_bytes = 256 * 1024;
  // Floor of the compaction budget, in segments: compaction waits for at
  // least compact_segments * segment_bytes of sealed log, however small the
  // last snapshot was (see Wal::should_compact).
  std::size_t compact_segments = 4;
  // Per-boot-epoch segment sequence ceiling (tests lower it); always clamped
  // to the 20-bit field the segment-id layout reserves. Hitting it makes
  // commit() fail hard instead of wrapping into the epoch bits (which would
  // reuse a ChaCha20 (key, nonce) pair).
  std::uint32_t max_segment_seq = (1u << 20) - 1;
};

struct WalReplay {
  std::size_t snapshot_entries{0};  // installed from the compacted snapshot
  std::size_t log_entries{0};       // installed from segment records
  std::size_t records{0};
  std::size_t segments{0};
};

// Exact shape of the log: (segment id, record count) for every live segment.
// Bound into the clean marker so replay can prove the host neither truncated
// a segment at a record boundary nor deleted whole segments — a MAC check
// alone cannot see absence.
using SegmentManifest = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

// The clean-shutdown marker: proof that the previous incarnation shut down
// gracefully. `marker_version` must equal the hardware rollback counter at
// restart (anything else is a crash leftover or a re-fed stale marker);
// `segments` pins the exact log tail the shutdown left behind;
// `enclave_state` is the enclave's own sealed volatile state (secrets +
// exact channel counters), opaque to this layer.
struct CleanMarker {
  std::uint64_t marker_version{0};
  std::uint64_t snapshot_version{0};  // 0 = no compacted snapshot
  SegmentManifest segments;
  Bytes enclave_state;
};

class Wal {
 public:
  // `boot_epoch` must be freshly reserved from the hardware rollback counter
  // (Enclave::advance_snapshot_version) for every open: it is folded into
  // segment ids so record nonces stay unique across restarts even when the
  // host rolls the directory back to an earlier state.
  Wal(WalStorage& storage, const crypto::SymmetricKey& sealing_key,
      std::uint64_t boot_epoch, WalOptions options = {});

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Buffers one applied entry; durable only after the next commit().
  void append(std::string_view key, BytesView value, Timestamp ts);

  // Group commit: seals every buffered entry into ONE record appended to the
  // open segment (rotating it past the size threshold) and returns the
  // number of entries committed. No-op on an empty buffer.
  Result<std::size_t> commit();

  // O(1) compaction trigger, asked after every commit: true once the sealed
  // log holds at least max(stored snapshot bytes, compact_segments *
  // segment_bytes). Each compaction then reseals about one byte per byte
  // logged since the last one, whatever the store size (Raft's snapshot
  // rule, Ongaro 2014 §5.1.3). After a failed compact() it stays false until
  // the next rotation, so a failing snapshot write costs one reseal (and one
  // hardware-counter advance) per segment, not one per commit.
  bool should_compact() const;

  // Compaction: seals the FULL store state as snapshot `version` (reserved
  // from the hardware counter by the caller) and deletes every sealed
  // segment — their entries are all covered by the snapshot. Runs on the
  // caller's thread (recipe::Durability calls it inline on the replica's
  // loop).
  Status compact(const KvStore& kv, std::uint64_t version);

  // Version of the stored compacted snapshot: what this instance last wrote,
  // else the (unauthenticated — validated at replay) manifest of the blob on
  // storage, else 0.
  std::uint64_t compacted_version() const;

  // Replays compacted snapshot (when `snapshot_version` != 0, which must
  // come from an authenticated clean marker) and all segments in order into
  // `kv`. Entries are admitted through the strict would_advance rule, so
  // replay is idempotent. Fails on any tampered/truncated/reordered record.
  // With `expected` (the authenticated manifest out of a clean marker) the
  // storage must hold EXACTLY those segments with exactly those record
  // counts: a last segment truncated at a record boundary, a deleted
  // trailing segment, or a re-fed extra segment all fail with kRollback and
  // the caller degrades to the cold attested rejoin.
  Result<WalReplay> replay(KvStore& kv, std::uint64_t snapshot_version,
                           const SegmentManifest* expected = nullptr) const;

  // Clean-shutdown marker (HMAC'd, rollback-pinned via marker_version).
  Status write_clean_marker(std::uint64_t marker_version, Bytes enclave_state);
  Result<CleanMarker> read_clean_marker(std::uint64_t expected_version) const;
  void clear_clean_marker();

  std::uint64_t open_segment() const { return segment_id_; }
  std::size_t pending_entries() const { return pending_entries_; }
  std::uint64_t records_committed() const { return records_committed_; }
  std::uint64_t entries_committed() const { return entries_committed_; }
  std::uint64_t segments_rotated() const { return segments_rotated_; }
  std::uint64_t compactions() const { return compactions_; }
  // True once the per-epoch segment sequence space is exhausted: commit()
  // fails hard (never bleeding into the epoch bits, which would reuse a
  // (key, nonce) pair) until the owner reopens with a fresh boot epoch.
  bool seq_exhausted() const { return seq_exhausted_; }
  // What this instance would bind into a clean marker right now.
  SegmentManifest manifest() const;

 private:
  std::uint64_t make_segment_id(std::uint32_t seq) const;
  void rotate();
  void scan_existing_segments();

  WalStorage& storage_;
  crypto::SymmetricKey sealing_key_;  // compacted snapshot (snapshot.cpp)
  crypto::SymmetricKey record_key_;   // segment records
  crypto::SymmetricKey meta_key_;     // marker + vault MACs
  WalOptions options_;
  std::uint64_t boot_epoch_;
  std::uint32_t segment_seq_{0};
  std::uint64_t segment_id_{0};
  std::uint32_t record_index_{0};
  std::size_t segment_bytes_{0};
  bool seq_exhausted_{false};
  // Record count per live segment (prior incarnations' segments included,
  // counted structurally at open): the marker binds this so replay can
  // detect record-boundary truncation and deleted segments.
  std::map<std::uint64_t, std::uint32_t> segment_records_;
  // Compaction budget: bytes in live segments other than the open one, and
  // the stored snapshot's size (read once at open, then set by compact()).
  std::size_t sealed_bytes_{0};
  std::size_t snapshot_bytes_{0};
  bool compact_failed_{false};  // cleared by the next rotation
  Writer pending_;
  std::size_t pending_entries_{0};
  std::uint64_t last_compacted_version_{0};
  std::uint64_t records_committed_{0};
  std::uint64_t entries_committed_{0};
  std::uint64_t segments_rotated_{0};
  std::uint64_t compactions_{0};
};

// liboscore Appendix B.1 counter persistence: the send counter of every
// channel is persisted as (cnt + stride) whenever `cnt` reaches the
// previously persisted horizon — one blob rewrite per `stride` allocations,
// not per message. On a warm restart every counter fast-forwards to at least
// its horizon, so no nonce can repeat without requiring peer channel resets.
// Thread-safe: note() is called from the caller-thread shield path.
class CounterVault {
 public:
  CounterVault(WalStorage& storage, const crypto::SymmetricKey& sealing_key,
               Counter stride = 1024);

  // Observes one allocated counter value for `cq`; persists when it crossed
  // the channel's horizon.
  void note(ChannelId cq, Counter cnt);

  // MAC-verified persisted horizons; empty when absent or tampered (the
  // vault only ever RAISES floors, so losing it degrades to the marker's
  // exact counters, never to reuse).
  std::unordered_map<ChannelId, Counter> load() const;

  Counter stride() const { return stride_; }
  std::uint64_t writes() const;

 private:
  void persist_locked();

  WalStorage& storage_;
  crypto::SymmetricKey meta_key_;
  Counter stride_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Counter> horizons_;  // cq.value -> persisted horizon
  std::uint64_t writes_{0};
};

}  // namespace recipe::kv
