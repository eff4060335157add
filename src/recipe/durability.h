// Durability: everything a replica keeps on UNTRUSTED storage to survive a
// restart (paper §3.7), behind one seam.
//
// One per ReplicaNode. It owns the sealed group-commit WAL (kv::Wal), the
// B.1 counter vault, sealed KV snapshots and the storage halves of a clean
// shutdown and a warm restart. The node calls it at four points: every
// applied write (log), every dispatch boundary (group_commit), every restart
// (reopen on the cold path, warm_restart on the warm one) and shutdown
// (shutdown_clean). The network and security steps around them stay in the
// node, so the component runs over a WalStorage and one enclave alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "kvstore/kvstore.h"
#include "kvstore/wal.h"
#include "obs/metrics.h"
#include "tee/enclave.h"

namespace recipe {

class Durability {
 public:
  // The WAL is on only with `storage`, `secured` and an enclave: a warm
  // restart restores shielded channel state, which a native node lacks.
  // Every pointer (null `metrics`: no series) and `kv` must outlive this.
  Durability(NodeId self, tee::Enclave* enclave, bool secured,
             kv::WalStorage* storage, kv::WalOptions options, kv::KvStore& kv,
             obs::MetricsRegistry* metrics);

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  bool has_wal() const { return wal_ != nullptr; }
  // Sees every allocated send counter (RecipeSecurityConfig); null without
  // a WAL. Its horizons are monotone across every WAL incarnation.
  kv::CounterVault* counter_vault() { return vault_.get(); }
  // True while the store holds state the log does not cover (a snapshot
  // restore or a failed commit) — until a compaction reseals the store.
  bool baseline_dirty() const { return baseline_dirty_; }

  // Buffers one applied write; durable after the next group_commit().
  void log(std::string_view key, BytesView value, kv::Timestamp ts) {
    if (wal_ == nullptr) return;
    wal_->append(key, value, ts);
    entries_.inc();
  }
  // Group commit at a dispatch boundary: one WAL record covers every entry
  // the just-dispatched message or batch applied. Then compacts inline when
  // the Wal says the sealed log has outgrown the last snapshot.
  void group_commit();
  // (Re)opens the WAL under a boot epoch freshly reserved from the hardware
  // rollback counter — at construction and on every restart — so segment
  // ids (and with them record nonces) strictly increase across
  // incarnations, and the advance burns any outstanding clean marker.
  void reopen();
  // Storage half of an orderly shutdown, while the enclave still lives:
  // commits the tail, compacts if the baseline is dirty, then seals the
  // enclave's volatile state (secrets + exact send counters) into the clean
  // marker at a fresh hardware-counter version. kUnavailable without a WAL.
  Status shutdown_clean();
  // Storage half of the cheap restart, after a clean shutdown and an
  // enclave restart: checks the marker against the hardware rollback
  // counter, restores the sealed enclave state, floors counters at their
  // vault horizons, replays the WAL into the store and burns the marker.
  // On failure the caller runs the cold rejoin (from a wiped store: a
  // failed replay may have installed a prefix).
  Result<kv::WalReplay> warm_restart();

  // Seals the full store under the enclave sealing key as the next
  // hardware-counter version. The blob lives on UNTRUSTED storage.
  Result<Bytes> seal_snapshot();
  // Verifies + installs a sealed snapshot. A blob older than the hardware
  // counter fails with kRollback, any other bad blob with kAuthFailed; each
  // is pinned in its counter below. The rejoin driver degrades both to a
  // cold rejoin.
  Result<std::size_t> restore_snapshot(BytesView sealed);
  std::uint64_t snapshot_rollback_rejected() const {
    return snapshot_rollback_rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_corrupt() const {
    return snapshot_corrupt_.load(std::memory_order_relaxed);
  }

 private:
  // Reseals the store as the WAL's snapshot; true when the store is then
  // covered by it.
  bool compact();

  NodeId self_;
  tee::Enclave* enclave_;
  kv::WalStorage* storage_;  // null: no WAL
  kv::WalOptions options_;
  kv::KvStore& kv_;
  std::unique_ptr<kv::CounterVault> vault_;
  std::unique_ptr<kv::Wal> wal_;
  bool baseline_dirty_{false};
  // Relaxed atomics: bumped on the loop thread, read by scrapes and tests.
  std::atomic<std::uint64_t> snapshot_rollback_rejected_{0};
  std::atomic<std::uint64_t> snapshot_corrupt_{0};
  // Owned here, not by wal_, so increments never race a reopen.
  obs::Counter entries_;
  obs::Counter group_commits_;
  obs::Counter commit_failures_;
  obs::Counter compactions_;
  obs::Histogram commit_us_;
  // Declared last: unregistered before what they read is torn down.
  std::vector<obs::CallbackHandle> metric_handles_;
};

}  // namespace recipe
