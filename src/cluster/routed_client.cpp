#include "cluster/routed_client.h"

#include <utility>

#include "recipe/group.h"

namespace recipe::cluster {

RoutedClient::RoutedClient(ShardedCluster& cluster, RoutedClientOptions options)
    : cluster_(cluster), options_(options) {
  // SimNetwork::attach silently replaces an existing endpoint, so a second
  // client on the default id would hijack the first's replies — bump to the
  // next free NodeId instead.
  while (cluster_.network().attached(NodeId{options_.id})) ++options_.id;
  const ClusterOptions& copts = cluster_.options();
  GroupSettings group;
  group.secured = copts.secured;
  group.confidentiality = copts.confidentiality;
  enclave_ = std::make_unique<tee::Enclave>(cluster_.platform(),
                                            "recipe-client", options_.id);
  (void)group.provision(*enclave_);
  ClientOptions client_options =
      group.client(ClientId{options_.id}, enclave_.get());
  client_options.retry = options_.retry;
  client_options.metrics = options_.metrics;
  client_ = std::make_unique<KvClient>(cluster_.sim(), cluster_.network(),
                                       client_options);
  // A replaced replica rejoins with restarted counters; without this reset
  // the client's old replay window would reject its post-recovery replies.
  fresh_listener_token_ = cluster_.add_fresh_node_listener(
      [this](NodeId fresh) { client_->security().reset_peer(fresh); });
}

RoutedClient::~RoutedClient() {
  cluster_.remove_fresh_node_listener(fresh_listener_token_);
}

void RoutedClient::put(const std::string& key, Bytes value,
                       KvClient::ReplyCallback done) {
  const ShardId shard = cluster_.owner_of(key);  // one hash per op
  if (shard == ConsistentHashRing::kNoShard) {
    done(ClientReply{});  // empty cluster: fail cleanly, not UB
    return;
  }
  const NodeId target = cluster_.shard(shard).write_coordinator();
  const sim::Time start = cluster_.sim().now();
  client_->put(target, key, std::move(value),
               [this, shard, start,
                done = std::move(done)](const ClientReply& r) {
                 record(shard, start);
                 done(r);
               });
}

void RoutedClient::get(const std::string& key, KvClient::ReplyCallback done) {
  const ShardId shard = cluster_.owner_of(key);  // one hash per op
  if (shard == ConsistentHashRing::kNoShard) {
    done(ClientReply{});
    return;
  }
  const NodeId target = cluster_.shard(shard).read_replica(read_hint_++);
  const sim::Time start = cluster_.sim().now();
  client_->get(target, key,
               [this, shard, start,
                done = std::move(done)](const ClientReply& r) {
                 record(shard, start);
                 done(r);
               });
}

bool RoutedClient::put_sync(const std::string& key, const std::string& value) {
  bool done = false;
  bool ok = false;
  put(key, to_bytes(value), [&](const ClientReply& r) {
    ok = r.ok;
    done = true;
  });
  cluster_.drive(done, options_.sync_wait);
  return done && ok;
}

std::optional<std::string> RoutedClient::get_sync(const std::string& key) {
  bool done = false;
  std::optional<std::string> out;
  get(key, [&](const ClientReply& r) {
    if (r.ok && r.found) out = to_string(as_view(r.value));
    done = true;
  });
  cluster_.drive(done, options_.sync_wait);
  return out;
}

obs::Histogram& RoutedClient::shard_histogram(ShardId shard) {
  auto it = shard_latency_us_.find(shard);
  if (it == shard_latency_us_.end()) {
    obs::Histogram handle =
        options_.metrics != nullptr && options_.metrics->enabled()
            ? options_.metrics->histogram(
                  "recipe_client_shard_latency_us",
                  "shard=\"" + std::to_string(shard) + "\"")
            : obs::Histogram::detached();
    it = shard_latency_us_.emplace(shard, std::move(handle)).first;
  }
  return it->second;
}

Histogram RoutedClient::shard_latency_us(ShardId shard) const {
  const auto it = shard_latency_us_.find(shard);
  return it == shard_latency_us_.end() ? Histogram{} : it->second.value();
}

Histogram RoutedClient::latency_us() const {
  Histogram merged;
  for (const auto& [shard, handle] : shard_latency_us_) {
    (void)shard;
    merged.merge(handle.value());
  }
  return merged;
}

void RoutedClient::record(ShardId shard, sim::Time start) {
  shard_histogram(shard).record(
      (cluster_.sim().now() - start) / sim::kMicrosecond);
}

}  // namespace recipe::cluster
