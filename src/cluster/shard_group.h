// ShardGroup: one attested N-replica replication group — a single "shard"
// of the distributed data store (paper Fig. 2).
//
// The group is protocol-agnostic: the node type is resolved through the
// ProtocolRegistry, so the same factory stands up an R-CR chain, a CRAQ
// chain, a Raft group, an ABD register or a Hermes group. It owns the
// replicas' enclaves (provisioned with the cluster root secret, the
// pre-attested fast path also used by the test harness) and exposes the
// routing facts the cluster layer needs: which replica currently accepts
// writes, which replicas can serve reads, and per-group stats.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "recipe/node_base.h"
#include "recipe/recovery.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace recipe::cluster {

struct ShardGroupOptions {
  std::string protocol = "cr";
  std::size_t num_replicas = 3;
  // Replica NodeIds are base_id .. base_id + num_replicas - 1; the cluster
  // layer carves the id space so groups never collide.
  std::uint64_t base_id = 1;
  bool secured = true;
  bool confidentiality = false;
  sim::Time heartbeat_period = 0;
  const tee::TeeCostModel* cost_model = nullptr;
};

class ShardGroup {
 public:
  // Builds and starts the group; fails when `protocol` is not registered.
  static Result<std::unique_ptr<ShardGroup>> create(sim::Simulator& simulator,
                                                    net::SimNetwork& network,
                                                    tee::TeePlatform& platform,
                                                    ShardGroupOptions options);

  // Crash-stops every replica (used on shard removal).
  void stop();

  // Crash-stops one replica (targeted failure injection).
  void stop_replica(std::size_t i);

  // Recovers replica `i` through the §3.7 RejoinDriver with pre-attested
  // provisioning (the group owns the cluster root, standing in for the CAS
  // as at bootstrap): restart and re-provision the enclave, reset the peers'
  // channel state for it, shadow-join, stream state from an active peer and
  // promote once the protocol reports caught-up. `done` receives the number
  // of state entries installed. A later call for the replica, or the
  // group's destruction, abandons a recovery still in flight.
  void recover_replica(std::size_t i,
                       std::function<void(Result<std::size_t>)> done);

  const std::string& protocol() const { return options_.protocol; }
  const std::vector<NodeId>& membership() const {
    return settings_.membership;
  }
  std::size_t size() const { return replicas_.size(); }
  ReplicaNode& replica(std::size_t i) { return *replicas_[i]; }
  const ReplicaNode& replica(std::size_t i) const { return *replicas_[i]; }

  // The replica currently accepting client PUTs (CR/CRAQ: the head; Raft:
  // the leader; leaderless protocols: any running node). Falls back to the
  // first member while no replica claims the role (e.g. mid-election).
  NodeId write_coordinator() const;

  // A replica able to serve GETs; `hint` round-robins across the eligible
  // set (CRAQ/Hermes: every node) to spread read load.
  NodeId read_replica(std::uint64_t hint = 0) const;

  // --- key handoff ---------------------------------------------------------
  // Pulls the donor group's full KV state into every replica of THIS group
  // via the recovery path (ReplicaNode::sync_state_from). Each replica
  // syncs from every donor replica: timestamped writes merge last-writer-
  // wins, so the union covers protocols whose writes only reach a majority
  // (ABD). Crashed replicas on either side are skipped. `done` receives
  // the total entries installed and the number of fetches that errored —
  // callers must treat errors > 0 as an incomplete handoff.
  void pull_state_from(ShardGroup& donor,
                       std::function<void(std::size_t installed,
                                          std::size_t errors)> done);

  // Erases every key matching `pred` from every replica (after a ring
  // rebalance moved its ownership elsewhere). Returns keys erased on the
  // first replica (the per-replica counts match once the group quiesced).
  std::size_t prune_keys(
      const std::function<bool(std::string_view)>& pred);

  // True when every running replica stores `key` — the cluster layer's
  // prune invariant: a donor copy may only be erased once the new owner
  // demonstrably holds the key.
  bool holds_key(std::string_view key);

  // --- stats ---------------------------------------------------------------
  std::size_t keys();                   // on the read-serving replica
  std::uint64_t committed_ops() const;  // summed over replicas

 private:
  ShardGroup(sim::Simulator& simulator, net::SimNetwork& network,
             ShardGroupOptions options)
      : simulator_(simulator),
        network_(network),
        options_(std::move(options)) {}

  sim::Simulator& simulator_;
  net::SimNetwork& network_;
  ShardGroupOptions options_;
  GroupSettings settings_;
  std::vector<std::unique_ptr<tee::Enclave>> enclaves_;
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  // Replica i's latest rejoin; destroyed before the nodes, which disarms it.
  std::vector<std::unique_ptr<RejoinDriver>> drivers_;
};

}  // namespace recipe::cluster
