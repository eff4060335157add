// End-to-end crash recovery and attested rejoin (paper §3.7).
//
// A crashed replica's machine reboots; its enclave restarts EMPTY (no
// secrets, no counters). RejoinDriver runs the full rejoin sequence against
// the live cluster:
//
//   1. tee::Enclave::restart()        — fresh enclave, same code identity;
//   2. re-provisioning                — secrets back into the enclave, and
//      every peer and client resets this node's channel counters and replay
//      window (SecurityPolicy::reset_peer): via the CAS (quote check, sealed
//      bundle, kFreshNode notice) or pre-attested (the caller holds the
//      group's secrets; each peer resets on its own loop);
//   3. optional sealed-snapshot restore — a rollback-protected warm start
//      from untrusted storage (older blobs are rejected, stat pinned);
//   4. ReplicaNode::start_as_shadow() — the node rejoins as a SHADOW
//      replica: it applies streamed state and teed live writes but holds no
//      quorum/chain position and serves no clients;
//   5. ReplicaNode::catch_up_from()   — chunked state streaming from a live
//      donor to fixpoint (the stream rides the batching path);
//   6. promotion                      — once the protocol also reports
//      shadow_caught_up() (Raft: log backfill complete), the node promotes
//      and peers atomically count it again.
//
// The driver is pure host-side orchestration: every security decision
// (attestation, counter resets, MAC checks, rollback detection) happens in
// the enclave/CAS layers it calls into. It is the ONLY rejoin sequence: the
// simulator harness, cluster::ShardGroup and cluster::TcpCluster all run it.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "attest/cas.h"
#include "recipe/group.h"
#include "recipe/node_base.h"

namespace recipe {

struct RejoinOptions {
  // Live peer to stream state from (CR/CRAQ: prefer the tail — its state is
  // always committed).
  NodeId donor{};
  // Sealed snapshot blob from untrusted storage; empty = cold start.
  Bytes sealed_snapshot;
  // Leave the node in shadow mode (tests exercise shadow semantics, then
  // call ReplicaNode::promote() themselves).
  bool auto_promote = true;
  // Poll interval / bound for the protocol's shadow_caught_up() signal.
  sim::Time promote_poll = 500 * sim::kMicrosecond;
  std::size_t max_promote_polls = 4000;
  std::size_t max_sync_passes = 6;
};

struct RejoinReport {
  std::size_t snapshot_entries{0};  // installed from the sealed snapshot
  bool snapshot_rolled_back{false};  // stale blob rejected (stat pinned)
  // Sealed snapshot was corrupt (bad MAC / truncated): degraded to a cold
  // rejoin, stat pinned in Durability::snapshot_corrupt().
  bool snapshot_corrupt{false};
  std::size_t streamed_entries{0};  // installed by chunked catch-up
  sim::Time attestation_elapsed{0};
  bool promoted{false};
  // Cheap restart (clean shutdown + valid WAL): the node replayed locally
  // and resumed ACTIVE with zero CAS round trips and zero streamed entries.
  bool warm_restart{false};
  std::size_t wal_entries{0};  // installed by local WAL replay (warm path)
};

class RejoinDriver {
 public:
  using Done = std::function<void(Result<RejoinReport>)>;

  // A peer replica or client that may hold channel state for the node:
  // `reset` runs on the loop `clock` drives and should skip a party that is
  // down.
  struct PeerReset {
    sim::Clock* clock;
    std::function<void(NodeId fresh)> reset;
  };

  // Step 2 through the CAS.
  RejoinDriver(sim::Clock& clock, ReplicaNode& node, tee::Enclave& enclave,
               attest::AttestationAuthority& cas);
  // Step 2 pre-attested: installs `group`'s secrets (`group` must outlive
  // the driver), runs every reset in `peers` on its own clock and
  // shadow-joins once all of them ran; no loop ever blocks on another.
  RejoinDriver(sim::Clock& clock, ReplicaNode& node, tee::Enclave& enclave,
               const GroupSettings& group, std::vector<PeerReset> peers);
  // Disarms the driver: nothing it armed (peer resets and their acks, the
  // catch-up completion, the promotion poll) runs afterwards. Destroy it on
  // the node's loop; abandoning a rejoin means destroying its driver.
  ~RejoinDriver();

  // Armed callbacks hold `this`.
  RejoinDriver(const RejoinDriver&) = delete;
  RejoinDriver& operator=(const RejoinDriver&) = delete;

  // Runs the sequence above; `done` fires with the report (or the first
  // error). One rejoin at a time per driver.
  //
  // Cheap-restart fast path: the driver first tries
  // ReplicaNode::warm_restart. When the previous incarnation shut down
  // cleanly over a WAL, that restores everything locally and the driver
  // SKIPS provisioning and the peer stream entirely. Otherwise (no WAL, a
  // crash: no valid marker) it takes the full sequence.
  void rejoin(RejoinOptions options, Done done);

 private:
  void provision_pre_attested();
  void on_provisioned();
  // Polls shadow_caught_up() every promote_poll and promotes the node as
  // soon as the protocol agrees; times out after `polls_left` more polls.
  void await_promotion(std::size_t polls_left);
  void finish(Result<RejoinReport> result);

  sim::Clock& clock_;
  ReplicaNode& node_;
  tee::Enclave& enclave_;
  // Exactly one of the two provisioning sources is set.
  attest::AttestationAuthority* cas_ = nullptr;
  const GroupSettings* group_ = nullptr;
  std::vector<PeerReset> peers_;
  // Answers the CAS challenge / installs the granted bundle on the node's
  // rpc object. Constructed per rejoin (handlers re-register idempotently).
  std::optional<attest::AttestationClient> attestation_;
  RejoinOptions options_;
  RejoinReport report_;
  Done done_;
  std::size_t resets_pending_{0};
  // Checked first by every callback the driver arms; cleared when the
  // driver dies or starts another rejoin. Atomic: peer loops read it.
  std::shared_ptr<std::atomic<bool>> live_;
};

}  // namespace recipe
