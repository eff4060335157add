#include "recipe/durability.h"

#include "kvstore/snapshot.h"
#include "obs/flight_recorder.h"

namespace recipe {

namespace {

// B.1 counter-vault stride: a sealed horizon rewrite once per this many
// send-counter allocations.
constexpr Counter kCounterStride = 1024;

}  // namespace

Durability::Durability(NodeId self, tee::Enclave* enclave, bool secured,
                       kv::WalStorage* storage, kv::WalOptions options,
                       kv::KvStore& kv, obs::MetricsRegistry* metrics)
    : self_(self),
      enclave_(enclave),
      storage_(secured && enclave != nullptr ? storage : nullptr),
      options_(options),
      kv_(kv) {
  if (metrics != nullptr) {
    entries_ = metrics->counter("recipe_wal_entries_total");
    group_commits_ = metrics->counter("recipe_wal_group_commits_total");
    commit_failures_ = metrics->counter("recipe_wal_commit_failures_total");
    compactions_ = metrics->counter("recipe_wal_compactions_total");
    commit_us_ = metrics->histogram("recipe_wal_commit_us");
    metric_handles_.push_back(metrics->on_counter(
        "recipe_node_snapshot_rollback_rejected_total", {},
        [this] { return snapshot_rollback_rejected(); }));
    metric_handles_.push_back(
        metrics->on_counter("recipe_node_snapshot_corrupt_total", {},
                            [this] { return snapshot_corrupt(); }));
  }
  if (storage_ == nullptr) return;
  if (auto key = enclave_->sealing_key()) {
    vault_ = std::make_unique<kv::CounterVault>(*storage_, key.value(),
                                                kCounterStride);
  }
  reopen();
}

void Durability::reopen() {
  wal_.reset();
  if (storage_ == nullptr) return;
  auto key = enclave_->sealing_key();
  auto epoch = enclave_->advance_snapshot_version();
  if (!key || !epoch) return;  // crashed enclave: no WAL this incarnation
  wal_ = std::make_unique<kv::Wal>(*storage_, key.value(), epoch.value(),
                                   options_);
}

void Durability::group_commit() {
  if (wal_ == nullptr || wal_->pending_entries() == 0) return;
  const std::size_t pending = wal_->pending_entries();
  const bool timed =
      bool(commit_us_) || obs::FlightRecorder::global().enabled();
  const std::uint64_t t0 = timed ? obs::FlightRecorder::now_ns() : 0;
  const bool committed = bool(wal_->commit());
  if (timed) {
    const std::uint64_t t1 = obs::FlightRecorder::now_ns();
    commit_us_.record((t1 - t0) / 1000);
    obs::FlightRecorder::global().record(obs::SpanKind::kWalGroupCommit,
                                         /*rpc_id=*/0, self_.value, t0, t1,
                                         /*detail=*/pending);
  }
  // Commit failure only costs warm-restart eligibility (the entries are
  // already applied and replicated); the node keeps serving. But the store
  // now holds state the log missed, so the baseline is dirty until a
  // compaction reseals the full store — otherwise a later clean marker
  // would vouch for a log with a silent hole in it.
  if (!committed) {
    commit_failures_.inc();
    baseline_dirty_ = true;
    // Per-epoch segment sequence space ran out: reopen under a freshly
    // reserved boot epoch rather than ever wrapping into nonce reuse.
    if (wal_->seq_exhausted()) reopen();
    return;
  }
  group_commits_.inc();
  // The Wal owns the trigger (sealed log bytes vs. the last snapshot's size,
  // an O(1) check) and its retry backoff.
  if (wal_->should_compact()) (void)compact();
}

bool Durability::compact() {
  auto version = enclave_->advance_snapshot_version();
  if (!version || !wal_->compact(kv_, version.value()).is_ok()) return false;
  compactions_.inc();
  baseline_dirty_ = false;  // the compacted snapshot covers the store
  return true;
}

Status Durability::shutdown_clean() {
  if (wal_ == nullptr) {
    return Status::error(ErrorCode::kUnavailable,
                         "no WAL: clean shutdown is a plain stop");
  }
  // Flush the group-commit tail so the log covers every applied write.
  if (auto committed = wal_->commit(); !committed) return committed.status();
  // State that bypassed the log (a sealed-snapshot restore during a cold
  // rejoin, a failed commit) is only covered once compacted.
  if (baseline_dirty_ && !compact()) {
    return Status::error(ErrorCode::kInternal,
                         "unlogged baseline could not be compacted");
  }
  // The marker version IS the hardware rollback counter after this advance:
  // the next incarnation accepts the marker only while the counter still
  // holds this exact value, so a re-presented older marker can never pass.
  auto version = enclave_->advance_snapshot_version();
  if (!version) return version.status();
  auto state = enclave_->seal_state(version.value());
  if (!state) return state.status();
  return wal_->write_clean_marker(version.value(), std::move(state).take());
}

Result<kv::WalReplay> Durability::warm_restart() {
  if (wal_ == nullptr) {
    return Status::error(ErrorCode::kUnavailable, "no WAL configured");
  }
  auto version = enclave_->snapshot_version();
  if (!version) return version.status();
  // 1. The clean-shutdown marker must pin to the CURRENT hardware counter —
  //    a crash (no marker) or a replayed older marker fails here.
  auto marker = wal_->read_clean_marker(version.value());
  if (!marker) return marker.status();
  // 2. Sealed enclave state: channel secrets + EXACT send counters. After
  //    this the enclave is provisioned without any CAS round trip.
  if (Status restored = enclave_->restore_state(
          as_view(marker.value().enclave_state), marker.value().marker_version);
      !restored.is_ok()) {
    return restored;
  }
  // 3. B.1 vault horizons on top (floors): every counter lands at or past
  //    its persisted stride, so no nonce from the previous life can repeat
  //    even for allocations the (group-committed) marker missed.
  if (vault_ != nullptr) {
    for (const auto& [cq, horizon] : vault_->load()) {
      (void)enclave_->restore_counter_floor(cq, horizon);
    }
  }
  // 4. Local replay: compacted snapshot baseline + committed segments. The
  //    marker's authenticated manifest pins the exact segment set and record
  //    counts, so a log truncated at a record boundary (every surviving MAC
  //    intact) or stripped of trailing segments fails here.
  auto replayed = wal_->replay(kv_, marker.value().snapshot_version,
                               &marker.value().segments);
  if (!replayed) return replayed.status();
  baseline_dirty_ = false;  // the log covers everything just installed
  // 5. Burn the marker: the reopen advances the hardware counter, so this
  //    marker can never validate a SECOND restart (whose sealed counters
  //    would be stale), then drop the blob outright.
  reopen();
  if (wal_ == nullptr) {
    return Status::error(ErrorCode::kInternal, "WAL reopen failed");
  }
  wal_->clear_clean_marker();
  return replayed;
}

Result<Bytes> Durability::seal_snapshot() {
  if (enclave_ == nullptr) {
    return Status::error(ErrorCode::kInternal, "sealing requires an enclave");
  }
  auto key = enclave_->sealing_key();
  if (!key) return key.status();
  auto version = enclave_->advance_snapshot_version();
  if (!version) return version.status();
  return kv::seal_snapshot(kv_, key.value(), version.value());
}

Result<std::size_t> Durability::restore_snapshot(BytesView sealed) {
  if (enclave_ == nullptr) {
    return Status::error(ErrorCode::kInternal, "sealing requires an enclave");
  }
  auto key = enclave_->sealing_key();
  if (!key) return key.status();
  auto version = enclave_->snapshot_version();
  if (!version) return version.status();
  auto restored =
      kv::unseal_snapshot(sealed, key.value(), version.value(), kv_);
  if (!restored) {
    if (restored.status().code() == ErrorCode::kRollback) {
      ++snapshot_rollback_rejected_;
    } else {
      ++snapshot_corrupt_;
    }
    return restored.status();
  }
  // Snapshot entries entered the store OUTSIDE the logged apply path: a
  // clean shutdown must compact before its marker covers this baseline.
  if (wal_ != nullptr && restored.value().installed > 0) {
    baseline_dirty_ = true;
  }
  return restored.value().installed;
}

}  // namespace recipe
