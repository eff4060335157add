#include "recipe/recovery.h"

namespace recipe {

RejoinDriver::RejoinDriver(sim::Clock& clock, ReplicaNode& node,
                           tee::Enclave& enclave,
                           attest::AttestationAuthority& cas)
    : clock_(clock), node_(node), enclave_(enclave), cas_(&cas) {}

RejoinDriver::RejoinDriver(sim::Clock& clock, ReplicaNode& node,
                           tee::Enclave& enclave, const GroupSettings& group,
                           std::vector<PeerReset> peers)
    : clock_(clock),
      node_(node),
      enclave_(enclave),
      group_(&group),
      peers_(std::move(peers)) {}

RejoinDriver::~RejoinDriver() {
  if (live_ != nullptr) *live_ = false;
}

void RejoinDriver::rejoin(RejoinOptions options, Done done) {
  options_ = std::move(options);
  report_ = RejoinReport{};
  done_ = std::move(done);
  if (live_ != nullptr) *live_ = false;
  live_ = std::make_shared<std::atomic<bool>>(true);

  // 1. Fresh enclave: identity preserved, all volatile state gone — and the
  // machine reboot also emptied the host process (KV store, dedup table).
  enclave_.restart();
  node_.wipe_state();

  // 1b. Cheap-restart fast path (sealed group-commit WAL): after a CLEAN
  // shutdown the marker validates against the hardware counter, the enclave
  // state (secrets + exact counters) restores from it, and the KV replays
  // locally — zero provisioning round trips, zero peer state-stream entries.
  // Durability::warm_restart decides; any failure (no WAL; crash: no
  // marker; tampered log; rolled-back marker) degrades to the full sequence
  // below.
  if (auto warm = node_.warm_restart()) {
    report_.warm_restart = true;
    report_.snapshot_entries = warm.value().snapshot_entries;
    report_.wal_entries = warm.value().log_entries;
    report_.promoted = true;  // resumed ACTIVE, never a shadow
    finish(report_);
    return;
  }
  // Partial replay may have installed entries before failing: the cold
  // path must start from the same empty store a reboot leaves behind.
  node_.wipe_state();
  if (cas_ == nullptr) {
    provision_pre_attested();
    return;
  }
  // The machine is back on the network (it must answer the CAS challenge),
  // but the node stays stopped until provisioning succeeds.
  node_.network().recover(node_.self());
  attestation_.emplace(node_.rpc(), enclave_, nullptr);

  // 2. Re-attest and re-provision through the CAS; on success the CAS has
  // already broadcast the fresh-node notice to the peers.
  cas_->attest_and_provision(
      node_.self(), node_.self(), /*full_member=*/true,
      [this, live = live_](Status status, sim::Time elapsed) {
        if (!*live) return;
        report_.attestation_elapsed = elapsed;
        if (!status.is_ok()) {
          finish(status);
          return;
        }
        on_provisioned();
      });
}

void RejoinDriver::provision_pre_attested() {
  // 2. Pre-attested: re-install the group's secrets, then the analog of the
  // CAS fresh-node notice — each peer resets the node's channel state on its
  // own loop and acks on the driver's. The node stays stopped until every
  // ack arrived, so its restarted counters never meet an old replay window.
  const Status installed = group_->provision(enclave_);
  if (!installed.is_ok()) {
    finish(installed);
    return;
  }
  resets_pending_ = peers_.size();
  if (resets_pending_ == 0) {
    on_provisioned();
    return;
  }
  auto ack = [this, live = live_] {
    if (!*live || --resets_pending_ > 0) return;
    on_provisioned();
  };
  sim::Clock* home = &clock_;
  const NodeId fresh = node_.self();
  for (const PeerReset& peer : peers_) {
    // Runs on the peer's loop, where the driver may die under it: it
    // touches only what it captured, never `this`.
    auto reset = [live = live_, home, ack, fresh, fn = peer.reset] {
      if (!*live) return;
      fn(fresh);
      home->schedule(0, ack);
    };
    peer.clock->schedule(0, std::move(reset));
  }
}

void RejoinDriver::on_provisioned() {
  // 3. Warm start from the sealed snapshot, when one survived on untrusted
  // storage. A rollback (stale blob) is NOT fatal: the stat is pinned and
  // the stream below rebuilds the state from the live cluster instead.
  if (!options_.sealed_snapshot.empty()) {
    auto restored = node_.durability().restore_snapshot(
        as_view(options_.sealed_snapshot));
    if (restored.is_ok()) {
      report_.snapshot_entries = restored.value();
    } else if (restored.status().code() == ErrorCode::kRollback) {
      report_.snapshot_rolled_back = true;
    } else {
      // A corrupt blob (bad MAC / truncated) is no more fatal than a stale
      // one: Durability pinned snapshot_corrupt() and the stream below
      // rebuilds the state from the live cluster — a host that damages the
      // snapshot only costs bandwidth, never availability.
      report_.snapshot_corrupt = true;
    }
  }

  // 4. Shadow join: peers tee live writes from here on.
  node_.start_as_shadow();

  // 5. Chunked catch-up from the donor to fixpoint.
  node_.catch_up_from(
      options_.donor,
      [this, live = live_](Result<std::size_t> streamed) {
        if (!*live) return;
        if (!streamed) {
          finish(streamed.status());
          return;
        }
        report_.streamed_entries = streamed.value();
        if (!options_.auto_promote) {
          finish(report_);
          return;
        }
        // 6. Promote once the protocol agrees it is caught up (base
        // protocols: immediately after the stream fixpoint; Raft: after
        // log backfill).
        await_promotion(options_.max_promote_polls);
      },
      options_.max_sync_passes);
}

void RejoinDriver::await_promotion(std::size_t polls_left) {
  if (node_.shadow_caught_up()) {
    node_.promote();
    report_.promoted = true;
    finish(report_);
    return;
  }
  if (polls_left == 0) {
    finish(
        Status::error(ErrorCode::kTimeout, "shadow never reported caught-up"));
    return;
  }
  clock_.schedule(options_.promote_poll, [this, live = live_, polls_left] {
    if (*live) await_promotion(polls_left - 1);
  });
}

void RejoinDriver::finish(Result<RejoinReport> result) {
  Done done = std::move(done_);  // the callback may start another rejoin
  done(std::move(result));
}

}  // namespace recipe
