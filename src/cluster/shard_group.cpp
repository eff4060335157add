#include "cluster/shard_group.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/registry.h"

namespace recipe::cluster {

Result<std::unique_ptr<ShardGroup>> ShardGroup::create(
    sim::Simulator& simulator, net::SimNetwork& network,
    tee::TeePlatform& platform, ShardGroupOptions options) {
  const ProtocolFactory* factory =
      ProtocolRegistry::instance().find(options.protocol);
  if (factory == nullptr) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "unknown protocol: " + options.protocol);
  }
  if (options.num_replicas == 0) {
    return Status::error(ErrorCode::kInvalidArgument, "empty shard group");
  }

  auto group = std::unique_ptr<ShardGroup>(
      new ShardGroup(simulator, network, std::move(options)));
  const ShardGroupOptions& opts = group->options_;
  GroupSettings& settings = group->settings_;
  settings.secured = opts.secured;
  settings.confidentiality = opts.confidentiality;
  settings.heartbeat_period = opts.heartbeat_period;

  for (std::size_t i = 0; i < opts.num_replicas; ++i) {
    settings.membership.push_back(NodeId{opts.base_id + i});
  }
  for (NodeId id : settings.membership) {
    // SimNetwork::attach silently replaces an existing endpoint, which
    // would hijack a live node's traffic — refuse the collision instead.
    if (network.attached(id)) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "NodeId " + std::to_string(id.value) +
                               " already attached; shard id ranges collide");
    }
    auto enclave =
        std::make_unique<tee::Enclave>(platform, "recipe-replica", id.value);
    const Status provisioned = settings.provision(*enclave);
    if (!provisioned.is_ok()) return provisioned;

    ReplicaOptions replica_options = settings.replica(id, enclave.get());
    replica_options.cost_model = opts.cost_model;
    group->replicas_.push_back(
        (*factory)(simulator, network, std::move(replica_options)));
    group->enclaves_.push_back(std::move(enclave));
  }
  group->drivers_.resize(opts.num_replicas);
  for (auto& replica : group->replicas_) replica->start();
  return group;
}

void ShardGroup::stop() {
  for (auto& replica : replicas_) {
    if (replica->running()) replica->stop();
  }
}

void ShardGroup::stop_replica(std::size_t i) {
  if (i < replicas_.size() && replicas_[i]->running()) replicas_[i]->stop();
}

void ShardGroup::recover_replica(
    std::size_t i, std::function<void(Result<std::size_t>)> done) {
  if (i >= replicas_.size()) {
    done(Status::error(ErrorCode::kInvalidArgument, "no such replica"));
    return;
  }
  ReplicaNode& node = *replicas_[i];
  if (node.running()) {
    done(Status::error(ErrorCode::kAlreadyExists, "replica is running"));
    return;
  }
  // Donor: any active peer (none when the rest of the group is down).
  const ReplicaNode* donor = nullptr;
  for (auto& peer : replicas_) {
    if (peer.get() != &node && peer->active()) {
      donor = peer.get();
      break;
    }
  }
  if (donor == nullptr) {
    done(Status::error(ErrorCode::kUnavailable, "no active donor replica"));
    return;
  }

  // The group stands in for the CAS (it holds the cluster root, exactly
  // like the bootstrap path); every running peer resets the rejoiner's
  // channel state.
  std::vector<RejoinDriver::PeerReset> peers;
  for (auto& peer : replicas_) {
    if (peer.get() == &node) continue;
    peers.push_back({&simulator_, [p = peer.get()](NodeId fresh) {
                       if (p->running()) p->security().reset_peer(fresh);
                     }});
  }
  drivers_[i] = std::make_unique<RejoinDriver>(simulator_, node, *enclaves_[i],
                                               settings_, std::move(peers));
  RejoinOptions options;
  options.donor = donor->self();
  drivers_[i]->rejoin(std::move(options),
                      [done = std::move(done)](Result<RejoinReport> report) {
                        if (!report) {
                          done(report.status());
                          return;
                        }
                        done(report.value().streamed_entries);
                      });
}

NodeId ShardGroup::write_coordinator() const {
  for (const auto& replica : replicas_) {
    if (replica->active() && replica->coordinates_writes()) {
      return replica->self();
    }
  }
  return settings_.membership.front();
}

NodeId ShardGroup::read_replica(std::uint64_t hint) const {
  std::vector<NodeId> eligible;
  for (const auto& replica : replicas_) {
    if (replica->active() && replica->coordinates_reads()) {
      eligible.push_back(replica->self());
    }
  }
  if (eligible.empty()) return settings_.membership.front();
  return eligible[hint % eligible.size()];
}

void ShardGroup::pull_state_from(
    ShardGroup& donor,
    std::function<void(std::size_t installed, std::size_t errors)> done) {
  // One fetch per (active receiver, active donor-replica) pair; completion
  // fires `done`. Crashed endpoints are skipped up front — a send to one
  // would silently never call back (the shield fails before anything hits
  // the wire) and the handoff would stall. Shadows are skipped on both
  // sides: as donors their state is incomplete (they also refuse
  // kStateFetch), and as receivers they get their state through their own
  // catch-up stream.
  std::vector<ReplicaNode*> receivers;
  for (auto& replica : replicas_) {
    if (replica->active()) receivers.push_back(replica.get());
  }
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < donor.size(); ++i) {
    if (donor.replica(i).active()) sources.push_back(donor.replica(i).self());
  }

  struct Progress {
    std::size_t outstanding{0};
    std::size_t installed{0};
    std::size_t errors{0};
    std::function<void(std::size_t, std::size_t)> done;
  };
  auto progress = std::make_shared<Progress>();
  progress->done = std::move(done);
  progress->outstanding = receivers.size() * sources.size();
  if (progress->outstanding == 0) {
    progress->done(0, 0);
    return;
  }
  for (ReplicaNode* replica : receivers) {
    for (NodeId source : sources) {
      replica->sync_state_from(source, [progress](Result<std::size_t> r) {
        if (r.is_ok()) {
          progress->installed += r.value();
        } else {
          ++progress->errors;
        }
        if (--progress->outstanding == 0) {
          progress->done(progress->installed, progress->errors);
        }
      });
    }
  }
}

std::size_t ShardGroup::prune_keys(
    const std::function<bool(std::string_view)>& pred) {
  // The predicate can be expensive (ring hash + cross-shard ownership
  // probe), so evaluate it once per distinct key across the group, then
  // erase everywhere.
  std::set<std::string, std::less<>> keys;
  for (auto& replica : replicas_) {
    replica->kv().scan([&](std::string_view key, const kv::Timestamp&) {
      keys.emplace(key);
      return true;
    });
  }
  std::vector<std::string> doomed;
  for (const std::string& key : keys) {
    if (pred(key)) doomed.push_back(key);
  }
  std::size_t erased_on_first = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    for (const std::string& key : doomed) {
      if (replicas_[i]->kv().erase(key) && i == 0) ++erased_on_first;
    }
  }
  return erased_on_first;
}

bool ShardGroup::holds_key(std::string_view key) {
  bool any_running = false;
  for (auto& replica : replicas_) {
    if (!replica->running()) continue;
    any_running = true;
    if (!replica->kv().contains(key)) return false;
  }
  return any_running;
}

std::size_t ShardGroup::keys() {
  const NodeId reader = read_replica();
  for (auto& replica : replicas_) {
    if (replica->self() == reader) return replica->kv().size();
  }
  return replicas_.front()->kv().size();
}

std::uint64_t ShardGroup::committed_ops() const {
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->committed_ops();
  return total;
}

}  // namespace recipe::cluster
