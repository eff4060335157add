#include "cluster/tcp_cluster.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

#include "cluster/registry.h"
#include "obs/flight_recorder.h"
#include "recipe/recovery.h"

namespace recipe::cluster {

namespace {
constexpr const char* kLoopback = "127.0.0.1";

std::chrono::nanoseconds chrono_ns(sim::Time t) {
  return std::chrono::nanoseconds(t);
}

// Construction failures are unrecoverable: abort naming the cause in every
// build type (an assert compiles out under NDEBUG).
[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "TcpCluster: %s\n", what.c_str());
  std::abort();
}

void check(const Status& status, const std::string& what) {
  if (!status.is_ok()) die(what + ": " + status.message());
}
}  // namespace

TcpCluster::TcpCluster(TcpClusterOptions options)
    : options_(std::move(options)) {
  const auto* factory = ProtocolRegistry::instance().find(options_.protocol);
  if (factory == nullptr) die("unknown protocol: " + options_.protocol);

  group_.secured = options_.secured;
  group_.confidentiality = options_.confidentiality;
  group_.heartbeat_period = options_.heartbeat_period;
  group_.suspect_timeout = options_.suspect_timeout;
  group_.phi_threshold = options_.phi_threshold;
  group_.batch = options_.batch;
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    group_.membership.push_back(NodeId{options_.first_id + i});
  }

  // Registries first: every component below registers series into them (or
  // gets no-op handles from a disabled registry when options_.metrics is
  // off), so they must outlive everything else.
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    metrics_.push_back(
        std::make_unique<obs::MetricsRegistry>(options_.metrics));
  }
  client_metrics_ = std::make_unique<obs::MetricsRegistry>(options_.metrics);

  // One transport (shard set + listeners) per replica, plus the client's.
  // Each replica endpoint is pinned to shard 0 of its own transport — its
  // protocol code stays on one loop; extra shards carry accepted client
  // connections (SO_REUSEPORT) and the socket work for them.
  transport::ShardedTcpTransportOptions transport_options;
  transport_options.shards = options_.transport_shards;
  transport_options.transport = options_.transport;
  std::vector<std::uint16_t> ports(options_.replicas, 0);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    transport_options.transport.metrics = metrics_[i].get();
    transports_.push_back(
        std::make_unique<transport::ShardedTcpTransport>(transport_options));
    check(transports_.back()->pin_home(group_.membership[i], 0), "pin_home");
    const std::uint16_t want =
        options_.base_port == 0
            ? 0
            : static_cast<std::uint16_t>(options_.base_port + i);
    auto port = transports_.back()->listen(group_.membership[i], want);
    check(port.status(), "listen on port " + std::to_string(want));
    ports[i] = port.value();
  }
  transport_options.transport.metrics = client_metrics_.get();
  client_transport_ =
      std::make_unique<transport::ShardedTcpTransport>(transport_options);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    for (std::size_t j = 0; j < options_.replicas; ++j) {
      if (i == j) continue;
      const NodeId peer = group_.membership[j];
      check(transports_[i]->add_route(peer, kLoopback, ports[j]), "add_route");
    }
    const NodeId self = group_.membership[i];
    check(client_transport_->add_route(self, kLoopback, ports[i]), "add_route");
  }

  // Chaos: wrap every transport before any node or client attaches, so the
  // whole lifetime of the group runs through the injectors. Each wrapper
  // gets a distinct seed offset (independent fault streams per loop) and a
  // reset hook that RSTs its own transport's links to the chosen victim.
  if (options_.chaos) {
    chaos_.resize(options_.replicas);
    for (std::size_t i = 0; i < options_.replicas; ++i) {
      transport::ChaosOptions chaos_options = options_.chaos_options;
      chaos_options.seed += i;
      chaos_options.metrics = metrics_[i].get();
      if (!chaos_options.reset_hook) {
        chaos_options.reset_hook = [t = transports_[i].get()](NodeId peer) {
          t->reset_peer_connections(peer);
        };
      }
      chaos_[i] = std::make_unique<transport::ChaosTransport>(
          *transports_[i], std::move(chaos_options));
    }
    transport::ChaosOptions chaos_options = options_.chaos_options;
    chaos_options.seed += options_.replicas;
    chaos_options.metrics = client_metrics_.get();
    if (!chaos_options.reset_hook) {
      chaos_options.reset_hook = [t = client_transport_.get()](NodeId peer) {
        t->reset_peer_connections(peer);
      };
    }
    client_chaos_ = std::make_unique<transport::ChaosTransport>(
        *client_transport_, std::move(chaos_options));
  }

  // Build and start every replica ON ITS OWN LOOP THREAD so its endpoint
  // state is loop-affine from the first instruction (packets can arrive the
  // moment the rpc object attaches).
  drivers_.resize(options_.replicas);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    platforms_.push_back(std::make_unique<tee::TeePlatform>(1));
    enclaves_.push_back(nullptr);
    nodes_.push_back(nullptr);
    if (options_.durable_wal && options_.secured) {
      // One directory per replica, keyed by the (unique per instance)
      // listen port so concurrent clusters in one process never share logs.
      wal_storage_.push_back(std::make_unique<kv::FileWalStorage>(
          options_.wal_dir + "/p" + std::to_string(ports[i])));
    } else {
      wal_storage_.push_back(nullptr);
    }
    transports_[i]->run_sync([this, i, factory] {
      auto enclave = std::make_unique<tee::Enclave>(
          *platforms_[i], "recipe-replica", group_.membership[i].value);
      check(group_.provision(*enclave), "provisioning a replica enclave");

      ReplicaOptions replica_options =
          group_.replica(group_.membership[i], enclave.get());
      if (wal_storage_[i] != nullptr) {
        replica_options.wal_storage = wal_storage_[i].get();
        replica_options.wal = options_.wal;
      }
      replica_options.metrics = metrics_[i].get();

      enclaves_[i] = std::move(enclave);
      nodes_[i] = (*factory)(transports_[i]->clock(), node_transport(i),
                             std::move(replica_options));
      nodes_[i]->start();
    });
  }

  // Admin endpoints last: they scrape the registries from their own serve
  // threads, so everything they read must already be registered.
  if (options_.admin_port >= 0) {
    for (std::size_t i = 0; i < options_.replicas; ++i) {
      obs::AdminServer::Options admin_options;
      admin_options.port =
          options_.admin_port == 0 ? 0 : options_.admin_port +
                                             static_cast<int>(i);
      admin_options.metrics = metrics_[i].get();
      admin_options.recorder = &obs::FlightRecorder::global();
      admin_options.name =
          "replica-" + std::to_string(group_.membership[i].value);
      admin_.push_back(std::make_unique<obs::AdminServer>(admin_options));
    }
  }
}

net::Transport& TcpCluster::node_transport(std::size_t i) {
  if (i < chaos_.size() && chaos_[i]) return *chaos_[i];
  return *transports_[i];
}

net::Transport& TcpCluster::client_net() {
  if (client_chaos_) return *client_chaos_;
  return *client_transport_;
}

TcpCluster::~TcpCluster() {
  // Each client dies on its own home loop (clients may be homed on
  // different shards of the client transport).
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    client_home(c).run_sync([this, c] {
      clients_[c].reset();
      client_enclaves_[c].reset();
    });
  }
  clients_.clear();
  client_enclaves_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    transports_[i]->run_sync([this, i] {
      drivers_[i].reset();
      nodes_[i].reset();
      enclaves_[i].reset();
    });
  }
  // Transports (and their loop threads) die with the vector.
}

KvClient& TcpCluster::add_client(std::uint64_t client_id) {
  KvClient* out = nullptr;
  // Round-robin homing across the client transport's shards: the client is
  // CONSTRUCTED on its home loop (its timers live on that shard's clock),
  // and every later touch marshals through client_home().
  const std::size_t home =
      clients_.size() % client_transport_->shard_count();
  check(client_transport_->pin_home(NodeId{client_id}, home), "pin_home");
  client_homes_.push_back(home);
  client_transport_->shard(home).run_sync([this, client_id, home, &out] {
    auto enclave = std::make_unique<tee::Enclave>(client_platform_,
                                                  "recipe-client", client_id);
    check(group_.provision(*enclave), "provisioning a client enclave");
    ClientOptions client_options =
        group_.client(ClientId{client_id}, enclave.get());
    client_options.retry = options_.client_retry;
    client_options.metrics = client_metrics_.get();
    client_enclaves_.push_back(std::move(enclave));
    clients_.push_back(std::make_unique<KvClient>(
        client_transport_->shard(home).clock(), client_net(),
        client_options));
    out = clients_.back().get();
  });
  return *out;
}

transport::TcpTransport& TcpCluster::home_loop(const KvClient& client) {
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    if (clients_[c].get() == &client) return client_home(c);
  }
  return client_transport_->shard(0);
}

NodeId TcpCluster::write_coordinator() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    bool ok = false;
    transports_[i]->run_sync([this, i, &ok] {
      ok = nodes_[i] && nodes_[i]->active() && nodes_[i]->coordinates_writes();
    });
    if (ok) return group_.membership[i];
  }
  return group_.membership.front();
}

NodeId TcpCluster::read_replica() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    bool ok = false;
    transports_[i]->run_sync([this, i, &ok] {
      ok = nodes_[i] && nodes_[i]->active() && nodes_[i]->coordinates_reads();
    });
    if (ok) return group_.membership[i];
  }
  return group_.membership.front();
}

ClientReply TcpCluster::put(KvClient& client, const std::string& key,
                            const std::string& value) {
  return retry_op(client, /*is_put=*/true, key, value);
}

ClientReply TcpCluster::get(KvClient& client, const std::string& key) {
  return retry_op(client, /*is_put=*/false, key, std::string{});
}

ClientReply TcpCluster::retry_op(KvClient& client, bool is_put,
                                 const std::string& key,
                                 const std::string& value) {
  // Re-resolve the target and retry across transient windows (an election
  // in progress, a not-yet-suspected dead chain node): the client already
  // retransmits within one attempt; this loop re-routes. A fatal reply
  // classification — crashed local enclave, integrity violation — returns
  // immediately: no re-route can fix those, and burning the backoff budget
  // on them just hides the real error.
  const rpc::RetryPolicy& policy = options_.op_retry;
  const auto op_started = std::chrono::steady_clock::now();
  ClientReply reply;
  sim::Time backoff = 0;
  for (int attempt = 0;; ++attempt) {
    const NodeId target = is_put ? write_coordinator() : read_replica();
    auto promise = std::make_shared<std::promise<ClientReply>>();
    auto future = promise->get_future();
    home_loop(client).run_sync([&] {
      auto completion = [promise](const ClientReply& r) {
        promise->set_value(r);
      };
      if (is_put) {
        client.put(target, key, to_bytes(value), std::move(completion));
      } else {
        client.get(target, key, std::move(completion));
      }
    });
    const rpc::RetryPolicy& client_retry = options_.client_retry;
    const auto bound = chrono_ns(client_retry.initial_timeout) *
                           (client_retry.max_attempts + 1) +
                       std::chrono::seconds(2);
    if (future.wait_for(bound) != std::future_status::ready) {
      // Lost completion (a bug, not load): label it so callers don't see a
      // default reply whose error claims kOk.
      reply = ClientReply{};
      reply.error = ErrorCode::kTimeout;
      return reply;
    }
    reply = future.get();
    if (reply.ok || rpc::RetryPolicy::fatal(reply.error)) return reply;
    if (attempt + 1 >= policy.max_attempts) return reply;
    backoff = policy.next_backoff(backoff, op_rng_);
    if (policy.deadline > 0 &&
        (std::chrono::steady_clock::now() - op_started) + chrono_ns(backoff) >
            chrono_ns(policy.deadline)) {
      return reply;
    }
    std::this_thread::sleep_for(chrono_ns(backoff));
  }
}

void TcpCluster::crash(std::size_t i) {
  transports_[i]->run_sync([this, i] {
    if (nodes_[i]->running()) nodes_[i]->stop();
  });
}

Status TcpCluster::rejoin(std::size_t i, NodeId donor, sim::Time max_wait,
                          bool* warm_out) {
  if (warm_out != nullptr) *warm_out = false;
  bool running = false;
  transports_[i]->run_sync([&] { running = nodes_[i]->running(); });
  if (running) {
    return Status::error(ErrorCode::kAlreadyExists, "replica is running");
  }

  // The cluster stands in for the CAS: the driver re-installs the group's
  // secrets, then every live peer AND every client resets the rejoiner's
  // channel state on its own loop before the shadow join.
  std::vector<RejoinDriver::PeerReset> peers;
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    peers.push_back({&transports_[j]->clock(), [this, j](NodeId fresh) {
                       if (nodes_[j]->running()) {
                         nodes_[j]->security().reset_peer(fresh);
                       }
                     }});
  }
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    peers.push_back({&client_home(c).clock(), [this, c](NodeId fresh) {
                       clients_[c]->security().reset_peer(fresh);
                     }});
  }

  auto verdict = std::make_shared<std::promise<Result<RejoinReport>>>();
  auto future = verdict->get_future();
  transports_[i]->run_sync([&] {
    drivers_[i] = std::make_unique<RejoinDriver>(
        transports_[i]->clock(), *nodes_[i], *enclaves_[i], group_,
        std::move(peers));
    RejoinOptions options;
    options.donor = donor;
    drivers_[i]->rejoin(std::move(options),
                        [verdict](Result<RejoinReport> report) {
                          verdict->set_value(std::move(report));
                        });
  });
  if (future.wait_for(chrono_ns(max_wait)) != std::future_status::ready) {
    // Abandon on the node's loop BEFORE handing control back: destroying
    // the driver disarms everything it armed, and the caller may destroy
    // the node next.
    transports_[i]->run_sync([this, i] { drivers_[i].reset(); });
    return Status::error(ErrorCode::kTimeout, "rejoin did not complete");
  }
  auto report = future.get();
  if (!report) return report.status();
  if (warm_out != nullptr) *warm_out = report.value().warm_restart;
  return Status::ok();
}

Status TcpCluster::shutdown_clean(std::size_t i) {
  Status out = Status::ok();
  transports_[i]->run_sync([this, i, &out] {
    if (!nodes_[i]->running()) {
      out = Status::error(ErrorCode::kUnavailable, "replica not running");
      return;
    }
    out = nodes_[i]->shutdown_clean();
  });
  return out;
}

std::uint64_t TcpCluster::committed_ops() {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    transports_[i]->run_sync([this, i, &total] {
      total += nodes_[i]->committed_ops();
    });
  }
  return total;
}

double drive_closed_loop_puts(transport::TcpTransport& client_transport,
                              KvClient& client, NodeId target,
                              std::size_t total, std::size_t pipeline,
                              const Bytes& value, std::size_t key_space) {
  if (total == 0) return 0.0;
  if (pipeline == 0) pipeline = 1;
  if (key_space == 0) key_space = 1;

  auto done = std::make_shared<std::promise<void>>();
  auto issued = std::make_shared<std::size_t>(0);
  auto completed = std::make_shared<std::size_t>(0);
  // Self-referential closure: each completion issues the next op, all on
  // the client's loop thread. Explicitly broken after the run — the
  // shared_ptr self-capture would otherwise leak it.
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [&client, target, issued, completed, total, done, issue, &value,
            key_space] {
    if (*issued >= total) return;
    const std::size_t n = (*issued)++;
    client.put(target, "key" + std::to_string(n % key_space), value,
               [completed, total, done, issue](const ClientReply&) {
                 if (++*completed == total) {
                   done->set_value();
                 } else {
                   (*issue)();
                 }
               });
  };

  const auto started = std::chrono::steady_clock::now();
  client_transport.run_sync([&] {
    for (std::size_t i = 0; i < pipeline; ++i) (*issue)();
  });
  // Bounded wait: one silently lost completion must fail the run (negative
  // return), not hang the caller — and with it a gating CI bench job.
  const auto bound = std::chrono::seconds(60) +
                     std::chrono::milliseconds(5) * static_cast<long>(total);
  const bool finished =
      done->get_future().wait_for(bound) == std::future_status::ready;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  client_transport.run_sync([&] { *issue = nullptr; });
  return finished ? secs : -1.0;
}

}  // namespace recipe::cluster
