// Recipe KV client (paper §3.3): issues attested PUT/GET requests to a
// protocol coordinator and verifies the shielded replies.
//
// In secured mode the client holds channel keys provisioned by the CAS
// (clients attest like replicas but are not full members), so a replica can
// authenticate which client sent a request and the client can authenticate
// the reply — clients trust individual attested replicas instead of
// collecting f+1 matching replies as in classical BFT.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "recipe/node_base.h"
#include "recipe/security.h"
#include "recipe/types.h"
#include "rpc/retry.h"
#include "rpc/rpc.h"
#include "sim/clock.h"
#include "tee/enclave.h"

namespace recipe {

struct ClientOptions {
  ClientId id{};
  net::NetStackParams stack = net::NetStackParams::direct_io_native();
  bool secured = true;
  bool confidentiality = false;
  tee::Enclave* enclave = nullptr;  // required when secured
  // Retransmit policy: first attempt's response timeout and its growth,
  // attempt budget, backoff jitter between retransmits, whole-op deadline.
  // Defaults keep backoff tiny so existing timing-sensitive deployments see
  // retransmits at essentially the historical cadence (plus jitter that
  // de-synchronizes retry storms).
  rpc::RetryPolicy retry{
      .initial_timeout = 500 * sim::kMillisecond,
      .timeout_growth = 1.0,
      .max_timeout = 2 * sim::kSecond,
      .max_attempts = 3,
      .base_backoff = 2 * sim::kMillisecond,
      .max_backoff = 50 * sim::kMillisecond,
      .deadline = 0,
  };
  // Identity of the CAS, whose fresh-node notices reset channel state.
  NodeId cas_id{1000};
  // Observability: when set, the client's op counters and latency histogram
  // register as recipe_client_* series in this registry (which must outlive
  // the client). When null the client keeps private detached handles — the
  // accessors below still work, nothing is scraped.
  obs::MetricsRegistry* metrics = nullptr;
};

class KvClient {
 public:
  using ReplyCallback = std::function<void(const ClientReply&)>;

  KvClient(sim::Clock& clock, net::Transport& network,
           ClientOptions options);
  // Cancels any backoff timers still pending (must run wherever the clock's
  // timer discipline expects — the loop thread under TcpTransport, exactly
  // where this object is destroyed anyway).
  ~KvClient();

  NodeId node_id() const { return NodeId{options_.id.value}; }
  ClientId id() const { return options_.id; }
  // Exposed for fresh-node notifications outside the CAS path (the cluster
  // layer's pre-attested replica replacement resets channels directly).
  SecurityPolicy& security() { return *security_; }

  void put(NodeId coordinator, std::string key, Bytes value,
           ReplyCallback done);
  void get(NodeId coordinator, std::string key, ReplyCallback done);

  std::uint64_t issued() const { return ops_issued_.value(); }
  std::uint64_t completed() const { return ops_completed_.value(); }
  std::uint64_t failed() const { return ops_failed_.value(); }
  std::uint64_t retries() const { return retries_.value(); }
  // Snapshot of the op latency distribution (microseconds). By value: the
  // backing cells live in the metrics registry and keep counting.
  Histogram latency_us() const { return op_latency_us_.value(); }
  void reset_stats() {
    ops_issued_.reset();
    ops_completed_.reset();
    ops_failed_.reset();
    retries_.reset();
    op_latency_us_.reset();
  }

 private:
  // Per-op retry state, allocated once and shared by the reply handler, the
  // response continuation, and the timeout closure.
  struct RetryState {
    ClientRequest request;
    ReplyCallback done;
    sim::Time started{0};       // first attempt's clock, for the deadline
    sim::Time prev_backoff{0};  // decorrelated-jitter chain input
    // Flight-recorder bookkeeping: wall-clock of the FIRST attempt and the
    // most recent attempt's rpc id, so the whole-op kClientOp span can be
    // emitted from whichever closure finishes the op.
    std::uint64_t started_ns{0};
    std::uint64_t last_rpc_id{0};
  };

  void issue(NodeId coordinator, ClientRequest request, ReplyCallback done,
             int attempt);
  void issue(NodeId coordinator, std::shared_ptr<RetryState> state,
             int attempt);
  // Backoff-then-reissue for attempt `attempt`; fails the op with `why`
  // when the attempt budget or the deadline is exhausted.
  void schedule_retry(NodeId coordinator, std::shared_ptr<RetryState> state,
                      int attempt, ErrorCode why);
  void fail(const std::shared_ptr<RetryState>& state, ErrorCode why);
  void complete(std::uint64_t rpc_id, VerifiedEnvelope& env);

  sim::Clock& clock_;
  ClientOptions options_;
  rpc::RpcObject rpc_;
  std::unique_ptr<SecurityPolicy> security_;
  // Deterministic per-client stream for backoff jitter (sim runs replay).
  Rng backoff_rng_;
  // Outstanding backoff timers by token, cancelled on destruction so a
  // pending reissue can never touch a dead client.
  std::unordered_map<std::uint64_t, sim::TimerHandle> backoff_timers_;
  std::uint64_t next_backoff_token_{1};
  std::uint64_t next_rid_{1};
  // Post-verification reply logic by rpc id: replies complete from either
  // the unbatched wire path or a replica-batched kBatch sub-message.
  std::unordered_map<std::uint64_t, std::function<void(VerifiedEnvelope&)>>
      pending_replies_;

  // Registry-backed when options_.metrics is set, private detached cells
  // otherwise — either way the accessors above read live values.
  obs::Counter ops_issued_;
  obs::Counter ops_completed_;
  obs::Counter ops_failed_;
  obs::Counter retries_;
  obs::Histogram op_latency_us_;
};

}  // namespace recipe
