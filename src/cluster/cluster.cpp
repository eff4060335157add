#include "cluster/cluster.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace recipe::cluster {

ShardedCluster::ShardedCluster(sim::Simulator& simulator,
                               net::SimNetwork& network,
                               tee::TeePlatform& platform,
                               ClusterOptions options)
    : simulator_(simulator),
      network_(network),
      platform_(platform),
      options_(std::move(options)),
      ring_(options_.virtual_nodes) {}

// Handoff bookkeeping outlives the add/remove frame: when drive_until hits
// its deadline with fetches still outstanding, the straggler callbacks fire
// on a later simulator step — they must land in shared state, not in the
// dead stack frame of the function that started the handoff.
namespace {
struct HandoffProgress {
  std::size_t pending{0};
  std::size_t errors{0};
  bool complete{false};
};
}  // namespace

Result<ShardId> ShardedCluster::add_shard(const std::string& protocol) {
  const ShardId id = next_shard_id_;
  if (options_.replicas_per_shard > options_.id_stride) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "replicas_per_shard exceeds id_stride; shard NodeId "
                         "ranges would collide");
  }

  ShardGroupOptions group_options;
  group_options.protocol =
      protocol.empty() ? options_.default_protocol : protocol;
  group_options.num_replicas = options_.replicas_per_shard;
  group_options.base_id = options_.first_base_id + id * options_.id_stride;
  group_options.secured = options_.secured;
  group_options.confidentiality = options_.confidentiality;
  group_options.heartbeat_period = options_.heartbeat_period;
  group_options.cost_model = options_.cost_model;

  auto group = ShardGroup::create(simulator_, network_, platform_,
                                  std::move(group_options));
  if (!group) return group.status();
  ++next_shard_id_;

  // Migrate the keyspace in BEFORE the ring learns about the shard: the new
  // group holds a superset of its range when routing flips, so no
  // acknowledged write ever becomes unreadable mid-rebalance. An incomplete
  // handoff (fetch errors, timeout) aborts the whole addition — the ring
  // never flips and the half-provisioned group is torn down.
  auto progress = std::make_shared<HandoffProgress>();
  progress->pending = shards_.size();
  progress->complete = progress->pending == 0;
  for (Entry& donor : shards_) {
    group.value()->pull_state_from(*donor.group,
                                   [progress](std::size_t, std::size_t failed) {
                                     progress->errors += failed;
                                     if (--progress->pending == 0) {
                                       progress->complete = true;
                                     }
                                   });
  }
  drive(progress->complete, options_.handoff_timeout);
  if (!progress->complete || progress->errors > 0) {
    group.value()->stop();
    return Status::error(ErrorCode::kUnavailable,
                         "shard handoff incomplete; addition aborted");
  }

  ring_.add_shard(id);
  shards_.push_back(Entry{id, std::move(group.value())});
  prune_to_ownership();
  return id;
}

Status ShardedCluster::remove_shard(ShardId id) {
  Entry* departing = find(id);
  if (departing == nullptr) {
    return Status::error(ErrorCode::kNotFound, "no such shard");
  }
  if (shards_.size() == 1) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "cannot remove the last shard");
  }

  // Drain: every survivor pulls the departing shard's state, so whatever
  // range the rebalance assigns it is already present locally. A failed
  // drain keeps the shard in place — removing it anyway would destroy the
  // only copies of its range.
  auto progress = std::make_shared<HandoffProgress>();
  progress->pending = shards_.size() - 1;
  progress->complete = progress->pending == 0;
  for (Entry& survivor : shards_) {
    if (survivor.id == id) continue;
    survivor.group->pull_state_from(*departing->group,
                                    [progress](std::size_t,
                                               std::size_t failed) {
                                      progress->errors += failed;
                                      if (--progress->pending == 0) {
                                        progress->complete = true;
                                      }
                                    });
  }
  drive(progress->complete, options_.handoff_timeout);
  if (!progress->complete || progress->errors > 0) {
    return Status::error(ErrorCode::kUnavailable,
                         "shard drain incomplete; removal aborted");
  }

  ring_.remove_shard(id);
  departing->group->stop();
  std::erase_if(shards_, [id](const Entry& e) { return e.id == id; });
  prune_to_ownership();
  return Status::ok();
}

std::uint64_t ShardedCluster::add_fresh_node_listener(
    FreshNodeListener listener) {
  const std::uint64_t token = next_listener_token_++;
  fresh_listeners_.emplace_back(token, std::move(listener));
  return token;
}

void ShardedCluster::remove_fresh_node_listener(std::uint64_t token) {
  std::erase_if(fresh_listeners_,
                [token](const auto& entry) { return entry.first == token; });
}

Status ShardedCluster::recover_replica(ShardId shard, std::size_t index) {
  Entry* entry = find(shard);
  if (entry == nullptr) {
    return Status::error(ErrorCode::kNotFound, "no such shard");
  }
  if (index < entry->group->size()) {
    // Fresh-node notice to the registered clients: the rejoiner's counters
    // restart from 1, so a client keeping its old replay window would
    // reject every post-recovery reply as a duplicate.
    const NodeId fresh = entry->group->replica(index).self();
    for (const auto& [token, listener] : fresh_listeners_) listener(fresh);
  }
  auto progress = std::make_shared<HandoffProgress>();
  auto result = std::make_shared<Status>(Status::ok());
  entry->group->recover_replica(index,
                                [progress, result](Result<std::size_t> r) {
                                  if (!r) *result = r.status();
                                  progress->complete = true;
                                });
  drive(progress->complete, options_.handoff_timeout);
  if (!progress->complete) {
    return Status::error(ErrorCode::kTimeout, "replica recovery timed out");
  }
  return *result;
}

bool ShardedCluster::has_shard(ShardId id) const {
  return ring_.contains(id);
}

ShardGroup& ShardedCluster::shard(ShardId id) {
  Entry* entry = find(id);
  if (entry == nullptr) {
    // A deliberate abort beats the silent UB a compiled-out assert would
    // leave on this reachable path (NDEBUG is set in release builds).
    std::fprintf(stderr, "ShardedCluster::shard: unknown shard %u\n", id);
    std::abort();
  }
  return *entry->group;
}

std::vector<ShardId> ShardedCluster::shard_ids() const {
  std::vector<ShardId> out;
  out.reserve(shards_.size());
  for (const Entry& entry : shards_) out.push_back(entry.id);
  return out;
}

ClusterStats ShardedCluster::stats() {
  ClusterStats out;
  out.shards = shards_.size();
  for (Entry& entry : shards_) {
    ShardStats s;
    s.id = entry.id;
    s.protocol = entry.group->protocol();
    s.keys = entry.group->keys();
    s.committed_ops = entry.group->committed_ops();
    out.total_keys += s.keys;
    out.committed_ops += s.committed_ops;
    out.per_shard.push_back(std::move(s));
  }
  return out;
}

ShardedCluster::Entry* ShardedCluster::find(ShardId id) {
  auto it = std::find_if(shards_.begin(), shards_.end(),
                         [id](const Entry& e) { return e.id == id; });
  return it == shards_.end() ? nullptr : &*it;
}

void ShardedCluster::drive(bool& flag, sim::Time max_wait) {
  const sim::Time deadline = simulator_.now() + max_wait;
  while (!flag && simulator_.now() < deadline && !simulator_.idle()) {
    simulator_.step();
  }
}

void ShardedCluster::prune_to_ownership() {
  // Safety invariant: a key is only erased from a non-owner once the owner
  // demonstrably holds it — a write that slipped into a donor between its
  // state snapshot and the ring flip survives (unreadable until the next
  // rebalance hands it over, but never destroyed).
  for (Entry& entry : shards_) {
    const ShardId id = entry.id;
    entry.group->prune_keys([this, id](std::string_view key) {
      const ShardId owner = ring_.lookup(key);
      if (owner == id || owner == ConsistentHashRing::kNoShard) return false;
      Entry* owner_entry = find(owner);
      return owner_entry != nullptr && owner_entry->group->holds_key(key);
    });
  }
}

}  // namespace recipe::cluster
