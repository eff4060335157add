#include "kvstore/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "crypto/chacha20.h"
#include "kvstore/snapshot.h"

namespace recipe::kv {

namespace {

constexpr std::uint32_t kWalRecordMagic = 0x5257414C;  // "RWAL"
constexpr std::uint32_t kWalMarkerMagic = 0x524D524B;  // "RMRK"
constexpr std::uint32_t kWalVaultMagic = 0x52564C54;   // "RVLT"

constexpr char kSnapshotBlob[] = "wal-snapshot";
constexpr char kMarkerBlob[] = "wal-marker";
constexpr char kVaultBlob[] = "wal-vault";

// Segment ids: (boot epoch << 20) | per-boot sequence. The boot epoch comes
// from the hardware rollback counter, so ids are strictly increasing across
// process lifetimes no matter what the host does to the directory.
constexpr std::uint32_t kSegmentSeqBits = 20;

crypto::SymmetricKey derive_subkey(const crypto::SymmetricKey& sealing_key,
                                   std::string_view purpose) {
  const Bytes salt = to_bytes("recipe-wal-v1");
  return crypto::SymmetricKey{crypto::hkdf_sha256(
      sealing_key.view(), as_view(salt), as_view(purpose),
      crypto::kSymmetricKeySize)};
}

// Appends HMAC(key, everything written so far): the trailer of every sealed
// record, clean marker and vault blob.
void append_mac(Writer& w, const crypto::SymmetricKey& key) {
  const crypto::Mac mac = crypto::hmac_sha256(key.view(), as_view(w.buffer()));
  w.raw(BytesView(mac.data(), mac.size()));
}

// The payload of a blob sealed by append_mac(), authenticated BEFORE any
// field of it is parsed: the host writes every byte, so a forged length or
// count must never size an allocation or steer the parse.
Result<BytesView> authenticated(BytesView sealed,
                                const crypto::SymmetricKey& key) {
  if (sealed.size() < crypto::kMacSize) {
    return Status::error(ErrorCode::kAuthFailed, "truncated sealed blob");
  }
  const BytesView payload = sealed.first(sealed.size() - crypto::kMacSize);
  if (!crypto::hmac_verify(key.view(), payload,
                           sealed.last(crypto::kMacSize))) {
    return Status::error(ErrorCode::kAuthFailed, "sealed blob MAC mismatch");
  }
  return payload;
}

// One segment record as stored: [magic | segment id u64 | record index u32 |
// entry count u32 | ciphertext | HMAC over everything before it].
struct SealedRecord {
  std::uint64_t segment{0};
  std::uint32_t index{0};
  std::uint32_t count{0};
  Bytes body;
  BytesView macd;  // header + ciphertext: what the MAC covers
  Bytes mac;
};

// Structural parse of the record at `r`'s position in `data`; nullopt on a
// torn or malformed record. Authenticates nothing.
std::optional<SealedRecord> next_record(Reader& r, BytesView data) {
  const std::size_t start = data.size() - r.remaining();
  const auto magic = r.u32();
  const auto segment = r.u64();
  const auto index = r.u32();
  const auto count = r.u32();
  auto body = r.bytes();
  const std::size_t end = data.size() - r.remaining();
  auto mac = r.raw(crypto::kMacSize);
  if (!magic || *magic != kWalRecordMagic || !segment || !index || !count ||
      !body || !mac) {
    return std::nullopt;
  }
  return SealedRecord{*segment, *index, *count, std::move(*body),
                      data.subspan(start, end - start), std::move(*mac)};
}

}  // namespace

// --- MemWalStorage ---------------------------------------------------------

std::vector<std::uint64_t> MemWalStorage::list_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  out.reserve(segments_.size());
  for (const auto& [id, bytes] : segments_) out.push_back(id);
  return out;
}

Status MemWalStorage::append_segment(std::uint64_t id, BytesView record) {
  std::lock_guard<std::mutex> lock(mu_);
  append(segments_[id], record);
  return Status::ok();
}

Result<Bytes> MemWalStorage::read_segment(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  if (it == segments_.end()) {
    return Status::error(ErrorCode::kNotFound, "no such WAL segment");
  }
  return it->second;
}

Status MemWalStorage::remove_segment(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  segments_.erase(id);
  return Status::ok();
}

Status MemWalStorage::put_blob(const std::string& name, BytesView data) {
  std::lock_guard<std::mutex> lock(mu_);
  blobs_[name] = Bytes(data.begin(), data.end());
  return Status::ok();
}

Result<Bytes> MemWalStorage::read_blob(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) {
    return Status::error(ErrorCode::kNotFound, "no such WAL blob");
  }
  return it->second;
}

Status MemWalStorage::remove_blob(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  blobs_.erase(name);
  return Status::ok();
}

Bytes* MemWalStorage::mutable_segment(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  return it == segments_.end() ? nullptr : &it->second;
}

Bytes* MemWalStorage::mutable_blob(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = blobs_.find(name);
  return it == blobs_.end() ? nullptr : &it->second;
}

// --- FileWalStorage --------------------------------------------------------

FileWalStorage::FileWalStorage(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string FileWalStorage::segment_path(std::uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%016llx.wal",
                static_cast<unsigned long long>(id));
  return dir_ + "/" + name;
}

std::string FileWalStorage::blob_path(const std::string& name) const {
  return dir_ + "/" + name + ".blob";
}

std::vector<std::uint64_t> FileWalStorage::list_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long id = 0;
    if (std::sscanf(name.c_str(), "seg-%16llx.wal", &id) == 1) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

Status write_file(const std::string& path, BytesView data, const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) {
    return Status::error(ErrorCode::kInternal, "cannot open " + path);
  }
  const std::size_t n = std::fwrite(data.data(), 1, data.size(), f);
  // The WAL's whole contract is that acknowledged bytes survive power loss:
  // a buffered append that dies in the page cache would let an HONEST crash
  // produce the same silently-shortened log a malicious truncation does.
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (n != data.size() || !synced) {
    return Status::error(ErrorCode::kInternal, "short write to " + path);
  }
  return Status::ok();
}

// Durability of creates/renames needs the DIRECTORY entry synced too.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

Result<Bytes> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::error(ErrorCode::kNotFound, "cannot open " + path);
  }
  Bytes out;
  std::uint8_t buf[64 * 1024];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

}  // namespace

Status FileWalStorage::append_segment(std::uint64_t id, BytesView record) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = segment_path(id);
  std::error_code ec;
  const bool fresh = !std::filesystem::exists(path, ec);
  if (auto s = write_file(path, record, "ab"); !s.is_ok()) return s;
  if (fresh) fsync_dir(dir_);  // the first append also creates the file
  return Status::ok();
}

Result<Bytes> FileWalStorage::read_segment(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_file(segment_path(id));
}

Status FileWalStorage::remove_segment(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::remove(segment_path(id), ec);
  return Status::ok();
}

Status FileWalStorage::put_blob(const std::string& name, BytesView data) {
  std::lock_guard<std::mutex> lock(mu_);
  // Write-then-rename so a crash mid-write never tears an existing blob.
  const std::string path = blob_path(name);
  const std::string tmp = path + ".tmp";
  if (auto s = write_file(tmp, data, "wb"); !s.is_ok()) return s;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::error(ErrorCode::kInternal, "rename " + path);
  // Without this the rename itself can evaporate in a power loss, leaving a
  // clean marker that postdates the log (or vice versa).
  fsync_dir(dir_);
  return Status::ok();
}

Result<Bytes> FileWalStorage::read_blob(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_file(blob_path(name));
}

Status FileWalStorage::remove_blob(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::remove(blob_path(name), ec);
  return Status::ok();
}

// --- Wal -------------------------------------------------------------------

Wal::Wal(WalStorage& storage, const crypto::SymmetricKey& sealing_key,
         std::uint64_t boot_epoch, WalOptions options)
    : storage_(storage),
      sealing_key_(sealing_key),
      record_key_(derive_subkey(sealing_key, "wal-record")),
      meta_key_(derive_subkey(sealing_key, "wal-meta")),
      options_(options),
      boot_epoch_(boot_epoch),
      segment_id_(make_segment_id(0)) {
  options_.max_segment_seq = std::min<std::uint32_t>(
      options_.max_segment_seq, (1u << kSegmentSeqBits) - 1);
  scan_existing_segments();
  // The compaction budget's other side, learned here so should_compact()
  // never reads storage.
  if (auto blob = storage_.read_blob(kSnapshotBlob)) {
    snapshot_bytes_ = blob.value().size();
  }
}

std::uint64_t Wal::make_segment_id(std::uint32_t seq) const {
  return (boot_epoch_ << kSegmentSeqBits) | seq;
}

void Wal::scan_existing_segments() {
  // Prior incarnations' segments stay replayable until compaction folds
  // them away, so the NEXT clean marker must bind their record counts too.
  // Structural (length-prefix) parse only — MACs are checked at replay; a
  // tail this scan cannot parse fails replay structurally regardless of
  // what count gets bound here. Every segment found counts as sealed: this
  // instance's open segment lives under a fresh boot epoch.
  for (const auto seg_id : storage_.list_segments()) {
    auto data = storage_.read_segment(seg_id);
    if (!data || data.value().empty()) continue;
    sealed_bytes_ += data.value().size();
    std::uint32_t records = 0;
    Reader r(as_view(data.value()));
    while (!r.exhausted() && next_record(r, as_view(data.value()))) ++records;
    if (records > 0) segment_records_[seg_id] = records;
  }
}

SegmentManifest Wal::manifest() const {
  return SegmentManifest(segment_records_.begin(), segment_records_.end());
}

void Wal::append(std::string_view key, BytesView value, Timestamp ts) {
  pending_.str(key);
  pending_.bytes(value);
  pending_.u64(ts.counter);
  pending_.u64(ts.node);
  ++pending_entries_;
}

Result<std::size_t> Wal::commit() {
  if (pending_entries_ == 0) return std::size_t{0};
  if (seq_exhausted_) {
    // The buffered entries stay pending; the owner must reopen with a fresh
    // boot epoch (and treat the store as baseline-dirty until compacted).
    return Status::error(ErrorCode::kUnavailable,
                         "WAL segment sequence space exhausted; reopen with "
                         "a fresh boot epoch");
  }

  Bytes body = std::move(pending_).take();
  pending_ = Writer{};
  const std::size_t entries = pending_entries_;
  pending_entries_ = 0;

  // One sealed record per group commit: the nonce binds (segment id, record
  // index), both of which also travel in the MAC'd cleartext header so
  // replay can detect reordered or transplanted records.
  const auto nonce = crypto::make_channel_nonce(segment_id_, record_index_);
  crypto::chacha20_xor(record_key_.view(), nonce, 0, body);

  Writer record(body.size() + 64);
  record.u32(kWalRecordMagic);
  record.u64(segment_id_);
  record.u32(record_index_);
  record.u32(static_cast<std::uint32_t>(entries));
  record.bytes(as_view(body));
  append_mac(record, record_key_);

  const Bytes wire = std::move(record).take();
  if (auto s = storage_.append_segment(segment_id_, as_view(wire));
      !s.is_ok()) {
    return s;
  }
  ++record_index_;
  ++segment_records_[segment_id_];
  segment_bytes_ += wire.size();
  ++records_committed_;
  entries_committed_ += entries;
  if (segment_bytes_ >= options_.segment_bytes) rotate();
  return entries;
}

void Wal::rotate() {
  if (segment_seq_ >= options_.max_segment_seq) {
    // Never wrap into the epoch bits: a sequence that bled over would
    // collide with another epoch's segment id and reuse a ChaCha20
    // (key, nonce) pair under record_key_. Future commits fail hard.
    seq_exhausted_ = true;
    return;
  }
  ++segment_seq_;
  segment_id_ = make_segment_id(segment_seq_);
  record_index_ = 0;
  sealed_bytes_ += segment_bytes_;
  segment_bytes_ = 0;
  compact_failed_ = false;
  ++segments_rotated_;
}

bool Wal::should_compact() const {
  // Expansion factor 1: compact once the sealed log is as big as the
  // snapshot that would replace it.
  const std::size_t floor = options_.compact_segments * options_.segment_bytes;
  return !compact_failed_ &&
         sealed_bytes_ >= std::max(snapshot_bytes_, floor);
}

Status Wal::compact(const KvStore& kv, std::uint64_t version) {
  const Bytes snapshot = seal_snapshot(kv, sealing_key_, version);
  if (auto s = storage_.put_blob(kSnapshotBlob, as_view(snapshot));
      !s.is_ok()) {
    compact_failed_ = true;
    return s;
  }
  last_compacted_version_ = version;
  snapshot_bytes_ = snapshot.size();
  sealed_bytes_ = 0;
  ++compactions_;
  // Every sealed segment's entries are covered by the snapshot (it seals the
  // FULL current state). Records already in the open segment are covered
  // too, but the segment is still being written — replaying them after the
  // snapshot is harmless (would_advance admits nothing stale).
  for (const auto id : storage_.list_segments()) {
    if (id != segment_id_) {
      (void)storage_.remove_segment(id);
      segment_records_.erase(id);
    }
  }
  return Status::ok();
}

std::uint64_t Wal::compacted_version() const {
  if (last_compacted_version_ != 0) return last_compacted_version_;
  auto blob = storage_.read_blob(kSnapshotBlob);
  if (!blob) return 0;
  auto manifest = peek_snapshot_manifest(as_view(blob.value()));
  return manifest ? manifest.value().version : 0;
}

Result<WalReplay> Wal::replay(KvStore& kv, std::uint64_t snapshot_version,
                              const SegmentManifest* expected) const {
  WalReplay out;
  std::map<std::uint64_t, std::uint32_t> actual;
  if (snapshot_version != 0) {
    auto blob = storage_.read_blob(kSnapshotBlob);
    if (!blob) return blob.status();
    auto restored = unseal_snapshot(as_view(blob.value()), sealing_key_,
                                    snapshot_version, kv);
    if (!restored) return restored.status();
    out.snapshot_entries = restored.value().installed;
  }

  for (const auto seg_id : storage_.list_segments()) {
    auto data = storage_.read_segment(seg_id);
    if (!data) return data.status();
    if (data.value().empty()) continue;
    ++out.segments;
    Reader r(as_view(data.value()));
    std::uint32_t expected_index = 0;
    while (!r.exhausted()) {
      auto record = next_record(r, as_view(data.value()));
      if (!record) {
        return Status::error(ErrorCode::kAuthFailed,
                             "torn or malformed WAL record");
      }
      // Authenticate before trusting anything.
      if (!crypto::hmac_verify(record_key_.view(), record->macd,
                               as_view(record->mac))) {
        return Status::error(ErrorCode::kAuthFailed, "WAL record MAC mismatch");
      }
      // The authenticated header must match where the record actually sits:
      // a valid record copied into another segment or position is an attack.
      if (record->segment != seg_id || record->index != expected_index) {
        return Status::error(ErrorCode::kAuthFailed,
                             "WAL record out of place");
      }
      ++expected_index;

      const auto nonce =
          crypto::make_channel_nonce(record->segment, record->index);
      crypto::chacha20_xor(record_key_.view(), nonce, 0, record->body);

      Reader er(as_view(record->body));
      for (std::uint32_t i = 0; i < record->count; ++i) {
        auto key = er.str();
        auto value = er.bytes();
        auto ts_counter = er.u64();
        auto ts_node = er.u64();
        if (!key || !value || !ts_counter || !ts_node) {
          return Status::error(ErrorCode::kAuthFailed,
                               "truncated WAL record body");
        }
        const Timestamp ts{*ts_counter, *ts_node};
        if (!kv.would_advance(*key, ts)) continue;
        if (kv.write(*key, as_view(*value), ts)) ++out.log_entries;
      }
      ++out.records;
      ++actual[seg_id];
    }
  }
  // Tail binding: every record MAC checks out individually, but only the
  // marker's manifest proves the log's SHAPE — a last segment truncated at a
  // record boundary, a deleted trailing segment, or a re-fed stale segment
  // all leave a perfectly valid prefix. Anything but an exact match is a
  // host rollback; the caller degrades to the cold attested rejoin.
  if (expected != nullptr &&
      !std::equal(expected->begin(), expected->end(), actual.begin(),
                  actual.end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first && a.second == b.second;
                  })) {
    return Status::error(ErrorCode::kRollback,
                         "WAL does not match the clean marker's segment "
                         "manifest (truncated or deleted tail)");
  }
  return out;
}

Status Wal::write_clean_marker(std::uint64_t marker_version,
                               Bytes enclave_state) {
  Writer w(enclave_state.size() + 12 * segment_records_.size() + 64);
  w.u32(kWalMarkerMagic);
  w.u64(marker_version);
  w.u64(compacted_version());
  // Bind the exact log tail: without this the marker vouches for a clean
  // shutdown but not for WHICH log, and a host can truncate at a record
  // boundary (or drop trailing segments) with every remaining MAC intact.
  w.u32(static_cast<std::uint32_t>(segment_records_.size()));
  for (const auto& [seg_id, records] : segment_records_) {
    w.u64(seg_id);
    w.u32(records);
  }
  w.bytes(as_view(enclave_state));
  append_mac(w, meta_key_);
  return storage_.put_blob(kMarkerBlob, as_view(std::move(w).take()));
}

Result<CleanMarker> Wal::read_clean_marker(
    std::uint64_t expected_version) const {
  auto blob = storage_.read_blob(kMarkerBlob);
  if (!blob) return blob.status();
  auto payload = authenticated(as_view(blob.value()), meta_key_);
  if (!payload) return payload.status();
  Reader r(payload.value());
  const auto magic = r.u32();
  const auto marker_version = r.u64();
  const auto snapshot_version = r.u64();
  const auto segment_count = r.u32();
  if (!magic || *magic != kWalMarkerMagic || !marker_version ||
      !snapshot_version || !segment_count) {
    return Status::error(ErrorCode::kAuthFailed, "malformed clean marker");
  }
  CleanMarker out;
  for (std::uint32_t i = 0; i < *segment_count; ++i) {
    const auto seg_id = r.u64();
    const auto records = r.u32();
    if (!seg_id || !records) {
      return Status::error(ErrorCode::kAuthFailed, "malformed clean marker");
    }
    out.segments.emplace_back(*seg_id, *records);
  }
  auto enclave_state = r.bytes();
  if (!enclave_state || !r.exhausted()) {
    return Status::error(ErrorCode::kAuthFailed, "malformed clean marker");
  }
  // Rollback pin: only the marker written at the hardware counter's CURRENT
  // value vouches for a clean shutdown. The counter moves on the warm
  // restart itself (Wal reopen reserves a fresh boot epoch), so no marker
  // can ever validate twice.
  if (*marker_version != expected_version) {
    return Status::error(
        ErrorCode::kRollback,
        "clean marker version " + std::to_string(*marker_version) +
            " != hardware counter " + std::to_string(expected_version));
  }
  out.marker_version = *marker_version;
  out.snapshot_version = *snapshot_version;
  out.enclave_state = std::move(*enclave_state);
  return out;
}

void Wal::clear_clean_marker() { (void)storage_.remove_blob(kMarkerBlob); }

// --- CounterVault ----------------------------------------------------------

CounterVault::CounterVault(WalStorage& storage,
                           const crypto::SymmetricKey& sealing_key,
                           Counter stride)
    : storage_(storage),
      meta_key_(derive_subkey(sealing_key, "wal-vault")),
      stride_(std::max<Counter>(stride, 1)) {
  // Seed the in-memory horizons from storage so the stride discipline
  // continues across restarts instead of rewriting on the first message.
  for (const auto& [cq, horizon] : load()) {
    horizons_[cq.value] = horizon;
  }
}

void CounterVault::note(ChannelId cq, Counter cnt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& horizon = horizons_[cq.value];
  if (cnt < horizon) return;
  // B.1: one persistence I/O per `stride_` allocations — the persisted value
  // always stays AHEAD of anything ever used, so a reboot that fast-forwards
  // to it can never reuse a nonce.
  horizon = cnt + stride_;
  persist_locked();
}

void CounterVault::persist_locked() {
  Writer w(16 * horizons_.size() + 40);
  w.u32(kWalVaultMagic);
  w.u32(static_cast<std::uint32_t>(horizons_.size()));
  for (const auto& [cq, horizon] : horizons_) {
    w.u64(cq);
    w.u64(horizon);
  }
  append_mac(w, meta_key_);
  // A failed horizon write is survivable: the in-memory counters stay
  // correct, and a restart merely fast-forwards from an older horizon.
  (void)storage_.put_blob(kVaultBlob, as_view(std::move(w).take()));
  ++writes_;
}

std::unordered_map<ChannelId, Counter> CounterVault::load() const {
  std::unordered_map<ChannelId, Counter> out;
  auto blob = storage_.read_blob(kVaultBlob);
  if (!blob) return out;
  auto payload = authenticated(as_view(blob.value()), meta_key_);
  if (!payload) return out;
  Reader r(payload.value());
  const auto magic = r.u32();
  const auto count = r.u32();
  if (!magic || *magic != kWalVaultMagic || !count) return out;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto cq = r.u64();
    const auto horizon = r.u64();
    if (!cq || !horizon) return {};
    out[ChannelId{*cq}] = *horizon;
  }
  return out;
}

std::uint64_t CounterVault::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

}  // namespace recipe::kv
