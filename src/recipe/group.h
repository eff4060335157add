// GroupSettings: what every replica and client of one replication group
// shares, and the one mapping from it to ReplicaOptions and ClientOptions.
// Every group builder (cluster::ShardGroup, cluster::TcpCluster,
// cluster::RoutedClient, workload::Testbed, the test harness) fills one from
// its own options and sets only its own extras on top (cost model, WAL,
// metrics, retry policy); the pre-attested RejoinDriver provisions from it.
#pragma once

#include <vector>

#include "common/result.h"
#include "crypto/hmac.h"
#include "recipe/client.h"
#include "recipe/node_base.h"
#include "tee/enclave.h"

namespace recipe {

struct GroupSettings {
  std::vector<NodeId> membership;
  bool secured = true;
  bool confidentiality = false;
  // Pre-attested secrets: the cluster root every pairwise channel key
  // derives from — shared by every group a builder stands up, so replicas of
  // different shards and a routed client authenticate each other — and the
  // value key (installed with confidentiality only).
  crypto::SymmetricKey root{Bytes(32, 0x77)};
  crypto::SymmetricKey value_key{Bytes(32, 0x44)};
  sim::Time heartbeat_period = 0;
  sim::Time suspect_timeout = ReplicaOptions{}.suspect_timeout;
  double phi_threshold = 0.0;
  BatchConfig batch{};

  // Installs the group's secrets into a member's enclave (no-op unsecured).
  Status provision(tee::Enclave& enclave) const;
  // Options for replica `self`; the network stack follows `secured`.
  ReplicaOptions replica(NodeId self, tee::Enclave* enclave) const;
  ClientOptions client(ClientId id, tee::Enclave* enclave) const;
};

}  // namespace recipe
