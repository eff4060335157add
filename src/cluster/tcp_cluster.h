// TcpCluster: a replication group deployed over REAL sockets, in process.
//
// The multi-threaded sibling of the simulator-driven harnesses: every
// replica gets its own transport::ShardedTcpTransport — its own event-loop
// shard set (1 shard = exactly the classic single-loop TcpTransport),
// real-time TimerQueues and loopback TCP listeners — and the group is wired
// up via the ProtocolRegistry exactly like a ShardGroup, so any registered
// protocol (cr/craq/raft/abd/hermes) runs unmodified with shielding and
// batching on. A separate client transport hosts KvClients; with
// transport_shards > 1 clients are homed round-robin across its shards.
//
// Replica enclaves are provisioned over the pre-attested fast path (the
// cluster holds the cluster root, standing in for the CAS exactly like
// ShardGroup does at bootstrap), and rejoin() runs the same §3.7
// RejoinDriver as every other builder, with pre-attested provisioning: it
// restarts the enclave, re-installs the secrets, resets every peer's and
// client's channel state for the fresh node (each on its own loop),
// shadow-joins, streams state from a live donor over TCP and promotes when
// the protocol agrees.
//
// Threading rules: each node's callbacks run only on its own loop thread.
// Public methods here marshal through TcpTransport::run_sync, so callers
// (tests, benches, main()) use the cluster from ONE external thread at a
// time; the synchronous put()/get() helpers block that thread on real-time
// completion instead of stepping a simulator.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "obs/admin.h"
#include "obs/metrics.h"
#include "recipe/client.h"
#include "recipe/node_base.h"
#include "recipe/recovery.h"
#include "rpc/retry.h"
#include "tee/platform.h"
#include "transport/chaos.h"
#include "transport/sharded_tcp_transport.h"
#include "transport/tcp_transport.h"

namespace recipe::cluster {

struct TcpClusterOptions {
  std::string protocol = "cr";
  std::size_t replicas = 3;
  bool secured = true;
  bool confidentiality = false;
  BatchConfig batch{};
  // Real-time failure detection; 0 disables heartbeats (no suspicion, no
  // chain repair — fine for fixed-membership runs).
  sim::Time heartbeat_period = 0;
  sim::Time suspect_timeout = 150 * sim::kMillisecond;
  // First replica id; replica i gets kFirstId + i.
  std::uint64_t first_id = 1;
  // 0: every listener picks an ephemeral loopback port (tests/benches can
  // never collide); nonzero: replica i listens on base_port + i.
  std::uint16_t base_port = 0;
  // Retransmit policy of every KvClient (real time): the KvClient default
  // with a 6-attempt budget. retry_op bounds a lost completion by
  // initial_timeout x (max_attempts + 1) + 2 s.
  rpc::RetryPolicy client_retry = [] {
    rpc::RetryPolicy policy = ClientOptions{}.retry;
    policy.max_attempts = 6;
    return policy;
  }();
  // Re-route policy for the synchronous put()/get() helpers: how many times
  // retry_op re-resolves the coordinator, with decorrelated-jitter sleeps
  // between attempts. Fatal reply classifications stop the loop early.
  rpc::RetryPolicy op_retry{
      .initial_timeout = 0,  // unused: per-attempt waits come from the client
      .timeout_growth = 1.0,
      .max_timeout = 0,
      .max_attempts = 3,
      .base_backoff = 20 * sim::kMillisecond,
      .max_backoff = 500 * sim::kMillisecond,
      .deadline = 0,
  };
  // Phi-accrual failure detection (recipe/failure_detector.h) on top of the
  // lease detector; 0 keeps lease-only suspicion.
  double phi_threshold = 0.0;
  // Socket/egress knobs applied to every transport in the cluster (replicas
  // and the client transport): NODELAY, SO_SNDBUF, frame bound. bind_host
  // stays loopback for in-process clusters.
  transport::TcpTransportOptions transport{};
  // Event-loop shards per transport. 1 (the default) is exactly the classic
  // single-loop deployment; 0 resolves to one shard per available core
  // (capped at net::kMaxTransportShards); N pins N. Replicas home on shard
  // 0 of their own transport; clients are homed round-robin across the
  // client transport's shards.
  unsigned transport_shards = 1;
  // Chaos: when true every replica transport AND the client transport is
  // wrapped in a transport::ChaosTransport carrying `chaos_options` (seed
  // is offset per transport so each loop gets an independent stream; the
  // reset hook defaults to RST-killing the victim link's connections).
  bool chaos = false;
  transport::ChaosOptions chaos_options{};
  // Sealed group-commit WAL on real files (secured mode only): every
  // replica logs applied writes under its sealing key and rejoin() takes
  // the cheap-restart fast path after a clean shutdown. Segments land under
  // `wal_dir`/p<listen_port> (one directory per replica; the default parent
  // is uploaded by CI as a failure artifact on recovery jobs).
  bool durable_wal = false;
  std::string wal_dir = "wal_dumps";
  kv::WalOptions wal{};
  // Observability. `metrics` (default on) gives every replica its own
  // MetricsRegistry (transport/node/WAL/batcher/chaos series) plus one for
  // the client transport's KvClients; false constructs DISABLED registries —
  // every handle is a branch-on-null no-op, the bench's "metrics off" mode.
  bool metrics = true;
  // Admin introspection endpoint (loopback HTTP: /metrics Prometheus text,
  // /trace flight-recorder JSON, /healthz). -1 (default) disables; 0 binds
  // an ephemeral port per replica (query with admin_port(i)); >0 binds
  // admin_port + i for replica i.
  int admin_port = -1;
};

class TcpCluster {
 public:
  // Stands up and starts the whole group. Aborts with a message naming the
  // cause, in every build type, on an unknown protocol or a failed listen,
  // route or enclave provisioning (like ShardedCluster's shard() contract).
  explicit TcpCluster(TcpClusterOptions options = {});
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  std::size_t size() const { return nodes_.size(); }
  const std::vector<NodeId>& membership() const { return group_.membership; }
  ReplicaNode& node(std::size_t i) { return *nodes_[i]; }
  // Replica i's transport (aggregate stats, chaos resets, wiring). Replica
  // endpoints live on its shard 0; run_on() marshals there.
  transport::ShardedTcpTransport& transport(std::size_t i) {
    return *transports_[i];
  }
  transport::ShardedTcpTransport& client_transport() {
    return *client_transport_;
  }
  // The event loop client idx's callbacks run on (its home shard): the
  // transport to run_sync against when touching that client's state, and
  // the one drive_closed_loop_puts() needs. In add_client order.
  transport::TcpTransport& client_home(std::size_t idx) {
    return client_transport_->shard(client_homes_[idx]);
  }
  // Chaos wrappers (null unless options.chaos): replica i's and the client
  // transport's fault injectors, for manual partitions and counters.
  transport::ChaosTransport* chaos(std::size_t i) {
    return i < chaos_.size() ? chaos_[i].get() : nullptr;
  }
  transport::ChaosTransport* client_chaos() { return client_chaos_.get(); }
  // Client idx's enclave, in add_client order (tests crash it to exercise
  // the fatal, non-retryable shield-failure path).
  tee::Enclave& client_enclave(std::size_t idx) {
    return *client_enclaves_[idx];
  }
  // Replica i's metrics registry (scraped by its admin endpoint; disabled —
  // but never null — when options.metrics is false).
  obs::MetricsRegistry& metrics(std::size_t i) { return *metrics_[i]; }
  // The registry shared by every KvClient added via add_client().
  obs::MetricsRegistry& client_metrics() { return *client_metrics_; }
  // The loopback port replica i's admin endpoint listens on; -1 when the
  // endpoint is disabled or failed to bind.
  int admin_port(std::size_t i) const {
    return i < admin_.size() && admin_[i] ? admin_[i]->port() : -1;
  }

  // Runs `fn` on replica i's loop thread (its home shard) and waits (the
  // only safe way to touch node state from outside).
  void run_on(std::size_t i, const std::function<void()>& fn) {
    transports_[i]->run_sync(fn);
  }

  KvClient& add_client(std::uint64_t client_id = 2000);

  // --- synchronous client ops (block the calling thread, real time) --------
  ClientReply put(KvClient& client, const std::string& key,
                  const std::string& value);
  ClientReply get(KvClient& client, const std::string& key);

  // Current write/read coordinator as the routing layer would pick it
  // (queried live across the loop threads).
  NodeId write_coordinator();
  NodeId read_replica();

  // --- failure injection / recovery (§3.7 over TCP) ------------------------
  void crash(std::size_t i);

  // Rejoin of crashed/stopped replica i. With durable_wal and a clean
  // shutdown behind it the node warm-restarts locally (no re-provisioning,
  // no peer resets, no state stream); otherwise the full pre-attested
  // shadow rejoin streams from `donor`. Returns once the node is active
  // (or the first error / `max_wait` — a timeout destroys the rejoin's
  // driver, so none of its node-capturing callbacks outlive the caller).
  // `warm_out` (optional) reports which path ran.
  Status rejoin(std::size_t i, NodeId donor,
                sim::Time max_wait = 30 * sim::kSecond,
                bool* warm_out = nullptr);

  // Orderly shutdown of replica i (durable_wal): group-commit tail flushed,
  // clean marker sealed, THEN stopped — the next rejoin() is warm.
  Status shutdown_clean(std::size_t i);

  std::uint64_t committed_ops();

 private:
  struct Replica;

  // Shared body of put()/get(): resolve the target, issue on the client's
  // home loop, wait with a real-time bound, re-route-and-retry on failure.
  ClientReply retry_op(KvClient& client, bool is_put, const std::string& key,
                       const std::string& value);
  // The home-shard loop of `client` (shard 0 for unknown pointers).
  transport::TcpTransport& home_loop(const KvClient& client);

  // The transport each replica's node and each client actually talks
  // through: the chaos wrapper when enabled, the raw TcpTransport otherwise.
  net::Transport& node_transport(std::size_t i);
  net::Transport& client_net();

  TcpClusterOptions options_;
  // What every replica and client is wired from; rejoins re-provision it.
  GroupSettings group_;
  // Declared before every component that registers series or holds handles
  // (transports, nodes, clients): registries must be destroyed LAST.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics_;
  std::unique_ptr<obs::MetricsRegistry> client_metrics_;
  std::vector<std::unique_ptr<transport::ShardedTcpTransport>> transports_;
  // Declared after transports_ (destroyed first): a chaos wrapper's pending
  // delay timers park on the inner transport's TimerQueue, so the inner
  // loop must outlive the wrapper's stop flag.
  std::vector<std::unique_ptr<transport::ChaosTransport>> chaos_;
  std::vector<std::unique_ptr<tee::TeePlatform>> platforms_;
  std::vector<std::unique_ptr<tee::Enclave>> enclaves_;
  // Declared before nodes_: a node's Wal holds a reference into its storage.
  std::vector<std::unique_ptr<kv::FileWalStorage>> wal_storage_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  // Replica i's latest rejoin, touched only on replica i's loop.
  std::vector<std::unique_ptr<RejoinDriver>> drivers_;

  std::unique_ptr<transport::ShardedTcpTransport> client_transport_;
  std::unique_ptr<transport::ChaosTransport> client_chaos_;
  tee::TeePlatform client_platform_{2};
  std::vector<std::unique_ptr<tee::Enclave>> client_enclaves_;
  std::vector<std::unique_ptr<KvClient>> clients_;
  // Client idx's home shard on the client transport, in add_client order
  // (client idx's state may only be touched from that shard's loop).
  std::vector<std::size_t> client_homes_;
  // Jitter stream for retry_op's between-attempt sleeps (single external
  // caller thread by class contract, so no lock).
  Rng op_rng_{0xB7E151628AED2A6AULL};
  // Admin endpoints scrape the registries from their own serve threads;
  // declared LAST so they stop before anything they read is destroyed.
  std::vector<std::unique_ptr<obs::AdminServer>> admin_;
};

// Closed-loop pipelined PUT load: keeps `pipeline` ops outstanding on the
// client's loop thread (each completion issues the next) until `total`
// completed, cycling keys over `key_space`. Returns elapsed wall-clock
// seconds, or a NEGATIVE value when the run did not complete within a
// generous bound (a lost completion must fail loudly, not hang a CI job).
// Shared by bench_transport and examples/real_cluster — the
// self-referential issue closure is subtle enough to exist exactly once.
double drive_closed_loop_puts(transport::TcpTransport& client_transport,
                              KvClient& client, NodeId target,
                              std::size_t total, std::size_t pipeline,
                              const Bytes& value,
                              std::size_t key_space = 128);

}  // namespace recipe::cluster
