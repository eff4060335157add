// RoutedClient: a cluster-aware KV client. Applications call put/get by
// key; the client resolves the owning shard through the cluster's hash
// ring, picks the right replica for the op (write coordinator vs. a
// read-serving replica, hiding head-vs-tail and leader selection) and
// issues an attested request through an ordinary KvClient.
//
// Latency is recorded per SHARD and merged on demand (Histogram::merge),
// so a deployment mixing protocols can attribute tail latency to the
// group that caused it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "recipe/client.h"

namespace recipe::cluster {

struct RoutedClientOptions {
  // Bumped to the next free NodeId when already attached, so multiple
  // default-constructed clients coexist.
  std::uint64_t id = 5000;
  // Retransmit policy of the underlying KvClient (first-attempt timeout
  // and growth, decorrelated-jitter backoff, attempt/deadline budget).
  rpc::RetryPolicy retry = ClientOptions{}.retry;
  // Bound on the *_sync helpers' simulator drive.
  sim::Time sync_wait = 10 * sim::kSecond;
  // When set, the underlying KvClient's recipe_client_* series and this
  // router's per-shard latency histograms (recipe_client_shard_latency_us,
  // labeled shard="k") land in this registry, which must outlive the
  // client. Null keeps the stats private (detached cells).
  obs::MetricsRegistry* metrics = nullptr;
};

class RoutedClient {
 public:
  RoutedClient(ShardedCluster& cluster, RoutedClientOptions options = {});
  ~RoutedClient();

  // Asynchronous ops: routed to the owning shard; reads round-robin over
  // its read-serving replicas.
  void put(const std::string& key, Bytes value, KvClient::ReplyCallback done);
  void get(const std::string& key, KvClient::ReplyCallback done);

  // Synchronous helpers for tests/examples: drive the simulator until the
  // reply arrives (or the cluster quiesces without one).
  bool put_sync(const std::string& key, const std::string& value);
  std::optional<std::string> get_sync(const std::string& key);

  // --- stats ---------------------------------------------------------------
  std::uint64_t issued() const { return client_->issued(); }
  std::uint64_t completed() const { return client_->completed(); }
  std::uint64_t failed() const { return client_->failed(); }
  // Per-shard request latency snapshot (empty histogram for shards never
  // contacted). By value: the backing cells keep counting in the registry.
  Histogram shard_latency_us(ShardId shard) const;
  // All shards merged.
  Histogram latency_us() const;

 private:
  void record(ShardId shard, sim::Time start);
  obs::Histogram& shard_histogram(ShardId shard);

  ShardedCluster& cluster_;
  RoutedClientOptions options_;
  std::unique_ptr<tee::Enclave> enclave_;
  std::unique_ptr<KvClient> client_;
  std::uint64_t fresh_listener_token_{0};
  std::uint64_t read_hint_{0};
  // Registry-backed handles when options_.metrics is set, detached cells
  // otherwise; the old per-client Histogram copies lived here before the
  // unified registry.
  std::map<ShardId, obs::Histogram> shard_latency_us_;
};

}  // namespace recipe::cluster
