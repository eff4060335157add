// ShardedCluster: the distributed data-store layer of paper Fig. 2 as a
// first-class subsystem — a consistent-hash ring over N independent
// replication groups (ShardGroups), each running any registered protocol.
//
// Beyond static deployment it supports ONLINE topology changes: adding a
// shard stands up a freshly attested group, migrates its key range in via
// the recovery path (ReplicaNode::sync_state_from) and only then flips the
// ring; removing a shard drains its keys to the survivors first. An
// incomplete handoff aborts the topology change, and a non-owner copy is
// only pruned once the owner demonstrably holds the key — acknowledged
// writes are never destroyed by a rebalance (a write racing the state
// snapshot stays on the donor until the next handoff). Stats aggregate
// across shards (Histogram::merge on the routed clients' per-shard
// latencies).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/shard_group.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "tee/platform.h"

namespace recipe::cluster {

struct ClusterOptions {
  std::string default_protocol = "cr";
  std::size_t replicas_per_shard = 3;
  bool secured = true;
  bool confidentiality = false;
  sim::Time heartbeat_period = 0;
  const tee::TeeCostModel* cost_model = nullptr;
  std::size_t virtual_nodes = 64;
  // NodeId space: shard k's replicas live at first_base_id + k * id_stride.
  std::uint64_t first_base_id = 1;
  std::uint64_t id_stride = 100;
  // Bound on driving the simulator to quiesce a key handoff.
  sim::Time handoff_timeout = 10 * sim::kSecond;
};

struct ShardStats {
  ShardId id{};
  std::string protocol;
  std::size_t keys{};
  std::uint64_t committed_ops{};
};

struct ClusterStats {
  std::size_t shards{};
  std::size_t total_keys{};
  std::uint64_t committed_ops{};
  std::vector<ShardStats> per_shard;
};

class ShardedCluster {
 public:
  ShardedCluster(sim::Simulator& simulator, net::SimNetwork& network,
                 tee::TeePlatform& platform, ClusterOptions options = {});

  // Stands up a new shard running `protocol` (empty: the default protocol),
  // pulls the current keyspace in from the existing shards, then joins the
  // ring and prunes every shard down to its owned range. Synchronous: the
  // handoff drives the simulator until it completes.
  Result<ShardId> add_shard(const std::string& protocol = {});

  // Drains the shard's keys to the remaining shards, removes it from the
  // ring and crash-stops its replicas. Fails for the last shard.
  Status remove_shard(ShardId id);

  // Replica replacement: crash-recover replica `index` of `shard` through
  // the §3.7 RejoinDriver (ShardGroup::recover_replica) and drive the
  // simulator until it promoted (or the handoff timeout passed; the
  // abandoned recovery is disarmed by the next one or by teardown).
  // Fresh-node listeners fire first, so client-side channel state resets
  // before the recovered replica's restarted counters reach them.
  Status recover_replica(ShardId shard, std::size_t index);

  // The pre-attested fast path's analog of the CAS fresh-node notice
  // audience: clients register to learn when a replica rejoins with fresh
  // counters (RoutedClient resets its replay windows through this).
  // Returns a token for remove_fresh_node_listener (listeners must
  // deregister before they are destroyed).
  using FreshNodeListener = std::function<void(NodeId fresh)>;
  std::uint64_t add_fresh_node_listener(FreshNodeListener listener);
  void remove_fresh_node_listener(std::uint64_t token);

  bool has_shard(ShardId id) const;
  // Aborts on an unknown id; pair with has_shard()/owner_of() first.
  ShardGroup& shard(ShardId id);
  std::vector<ShardId> shard_ids() const;
  std::size_t shard_count() const { return ring_.shard_count(); }

  // Routing: the shard owning `key` (kNoShard on an empty cluster). The
  // concrete replica for an op comes from the owning ShardGroup
  // (write_coordinator / read_replica), as RoutedClient does.
  ShardId owner_of(std::string_view key) const { return ring_.lookup(key); }

  const ConsistentHashRing& ring() const { return ring_; }
  const ClusterOptions& options() const { return options_; }
  sim::Simulator& sim() { return simulator_; }
  net::SimNetwork& network() { return network_; }
  tee::TeePlatform& platform() { return platform_; }

  ClusterStats stats();

  // Runs the simulator until `flag` flips, `max_wait` elapses, or the
  // simulation idles — the one quiesce loop shared by handoffs and the
  // synchronous client helpers.
  void drive(bool& flag, sim::Time max_wait);

 private:
  struct Entry {
    ShardId id;
    std::unique_ptr<ShardGroup> group;
  };

  Entry* find(ShardId id);
  // Drops keys a shard no longer owns (post-rebalance).
  void prune_to_ownership();

  sim::Simulator& simulator_;
  net::SimNetwork& network_;
  tee::TeePlatform& platform_;
  ClusterOptions options_;
  ConsistentHashRing ring_;
  std::vector<Entry> shards_;
  ShardId next_shard_id_{0};
  std::vector<std::pair<std::uint64_t, FreshNodeListener>> fresh_listeners_;
  std::uint64_t next_listener_token_{1};
};

}  // namespace recipe::cluster
