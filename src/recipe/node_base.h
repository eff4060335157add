// ReplicaNode: the runtime every protocol node (CFT, R-, and BFT baseline)
// builds on.
//
// It wires together the RPC object, the security policy (Null vs Recipe —
// the ONLY difference between a native protocol and its R- transform), the
// partitioned KV store and its Durability (sealed WAL, snapshots), the client
// table, the lease-based failure detector, and TEE cost accounting. Protocol subclasses express their logic purely in
// terms of on()/send_to()/broadcast()/respond() and the KV wrappers, exactly
// like Listing 1 in the paper.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.h"
#include "kvstore/kvstore.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "recipe/batcher.h"
#include "recipe/client_table.h"
#include "recipe/durability.h"
#include "recipe/failure_detector.h"
#include "recipe/quorum.h"
#include "recipe/security.h"
#include "recipe/types.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "tee/cost_model.h"
#include "tee/enclave.h"
#include "tee/lease.h"

namespace recipe {

namespace msg {
constexpr rpc::RequestType kClientRequest = 0xC0001;
constexpr rpc::RequestType kHeartbeat = 0xC0002;
constexpr rpc::RequestType kStateFetch = 0xC0003;
// Carrier for a shielded BatchFrame; sub-messages are dispatched to their
// own types after the single batch-level verify.
constexpr rpc::RequestType kBatch = 0xC0004;
// Recovery (paper §3.7): a re-attested node announces it is back as a
// SHADOW replica. Peers exclude it from quorums/chain position but tee live
// writes at it until it promotes.
constexpr rpc::RequestType kShadowJoin = 0xC0005;
// The caught-up shadow re-enters the active membership; each peer flips it
// back atomically on receipt of this (authenticated) notice.
constexpr rpc::RequestType kPromote = 0xC0006;
// RTT pacing probe: an empty tracked request answered with an empty
// response, both riding the normal batched path. Sent only when batching
// runs with rtt_fraction > 0, so fire-and-forward protocols (whose traffic
// never completes an RPC) still measure the per-peer round trip that the
// flush-delay autotuner paces against.
constexpr rpc::RequestType kPacingProbe = 0xC0007;
}  // namespace msg

struct ReplicaOptions {
  NodeId self{};
  std::vector<NodeId> membership;
  net::NetStackParams stack = net::NetStackParams::direct_io_tee();
  rpc::RpcConfig rpc_config{};
  kv::KvConfig kv_config{};

  // Security mode: secured=false -> NullSecurity (native CFT baseline);
  // secured=true -> RecipeSecurity over `enclave` (required).
  bool secured = true;
  bool confidentiality = false;
  tee::Enclave* enclave = nullptr;
  const tee::TeeCostModel* cost_model = nullptr;

  // EPC working-set model: resident runtime footprint (SCONE etc.) plus a
  // message-buffer estimate, added to the KV's enclave bytes.
  std::uint64_t enclave_runtime_bytes = 0;
  std::uint64_t msg_buffer_bytes = 0;

  // Failure detection (0 disables heartbeats).
  sim::Time heartbeat_period = 0;
  sim::Time suspect_timeout = 150 * sim::kMillisecond;
  // Phi-accrual layer on top of the lease floor (failure_detector.h):
  // with phi_threshold > 0 a peer is suspected only when its trusted lease
  // surely expired AND its accrued suspicion passed the threshold — the
  // adaptive layer suppresses the false positives a fixed timeout produces
  // under jittery links. 0 keeps lease-only suspicion.
  double phi_threshold = 0.0;
  PhiDetectorOptions phi{};

  // Adaptive batching of outgoing protocol traffic (requests AND responses,
  // including client replies). Disabled by default: every frame then keeps
  // the golden-pinned unbatched wire format. Receivers always understand
  // batch frames regardless of this setting.
  BatchConfig batch{};

  // Identity of the CAS, whose fresh-node notices reset channel state.
  NodeId cas_id{1000};

  // Chunked state streaming (recovery / shard handoff): entries per
  // kStateFetch round trip. Each chunk rides the normal send path, so with
  // batching enabled the stream coalesces with live protocol traffic.
  std::size_t state_chunk_entries = 64;

  // Sealed group-commit WAL (durability). Non-null enables the write-ahead
  // log: every applied KV write is appended under the enclave SEALING key
  // and committed once per dispatch boundary (one commit record per applied
  // batch). Requires secured mode + an enclave; the storage object must
  // outlive the node. Null (default) keeps the purely in-memory node.
  kv::WalStorage* wal_storage = nullptr;
  kv::WalOptions wal{};

  // Observability: when set, the node registers its protocol/security/
  // batcher/WAL/RPC series (recipe_node_*, recipe_security_*,
  // recipe_batch_*, recipe_wal_*, recipe_rpc_*) into this registry. Must
  // outlive the node. Null keeps the node scrape-free (existing accessors
  // still work).
  obs::MetricsRegistry* metrics = nullptr;
};

using ReplyFn = std::function<void(const ClientReply&)>;

class ReplicaNode {
 public:
  ReplicaNode(sim::Clock& clock, net::Transport& network,
              ReplicaOptions options);
  virtual ~ReplicaNode();

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  // Begins protocol operation (heartbeats etc.). Subclasses override and
  // must call the base.
  virtual void start();

  // Crash-stop: detaches from the network and crashes the enclave. Models a
  // machine failure.
  virtual void stop();
  bool running() const { return running_; }

  NodeId self() const { return options_.self; }
  const std::vector<NodeId>& membership() const { return options_.membership; }
  std::vector<NodeId> peers() const;
  std::size_t quorum() const { return majority(options_.membership.size()); }

  // True when this node may coordinate client requests right now.
  virtual bool is_coordinator() const = 0;
  // Op-aware refinements used by the routing layer (src/cluster/): some
  // protocols accept PUTs and GETs at different nodes (CR: writes at the
  // head, reads at the tail; CRAQ: writes at the head, reads anywhere).
  virtual bool coordinates_writes() const { return is_coordinator(); }
  virtual bool coordinates_reads() const { return is_coordinator(); }
  // Protocol-specific request execution; invoked on the coordinator.
  virtual void submit(const ClientRequest& request, ReplyFn reply) = 0;

  // True when this node can serve a linearizable read locally (no quorum).
  virtual bool serves_local_reads() const { return false; }

  std::uint64_t committed_ops() const {
    return committed_ops_.load(std::memory_order_relaxed);
  }
  SecurityPolicy& security() { return *security_; }
  MessageBatcher& batcher() { return batcher_; }
  kv::KvStore& kv() { return kv_; }
  rpc::RpcObject& rpc() { return rpc_; }
  sim::Clock& sim() { return clock_; }
  net::Transport& network() { return network_; }
  const ReplicaOptions& options() const { return options_; }
  // Sealed WAL, counter vault and sealed snapshots (durability.h).
  Durability& durability() { return durability_; }

  // --- Recovery (paper §3.7) ----------------------------------------------
  //
  // Lifecycle of a crashed replica: stop() -> enclave restart + CAS
  // re-attestation (RejoinDriver) -> start_as_shadow() -> catch_up_from()
  // -> promote(). While shadow, the node applies streamed state and teed
  // live writes but never acks, votes, serves clients, or donates state —
  // so it cannot count toward any quorum or chain position until caught up.

  // Machine reboot: wipes everything that lived in the dead process — the
  // KV store (enclave metadata + host values) and the client dedup table.
  // The recovery drivers call this between the enclave restart and the
  // shadow join; a warm start then comes ONLY from a sealed snapshot.
  void wipe_state();

  // Re-enters operation as a shadow replica: reopens the network endpoint,
  // wipes all receive-side channel state (the restarted enclave lost it),
  // starts the runtime and announces kShadowJoin to the peers (retried a few
  // times — the announcement races the CAS fresh-node notice that resets
  // this node's counters at the peers).
  void start_as_shadow();
  bool is_shadow() const { return shadow_; }
  // Running AND not shadow: eligible for coordination/quorums/reads.
  bool active() const { return running_ && !shadow_; }

  // Atomically flips this node (and, via kPromote, each peer's view of it)
  // back into the active membership.
  void promote();

  // Peers currently known to be in shadow mode (excluded from quorums).
  const std::set<NodeId>& shadow_peers() const { return shadow_peers_; }

  // One full chunked state pass from `peer` (used by shard handoff and as
  // the building block of catch_up_from). `done` receives the number of
  // entries that moved local state FORWARD (last-writer-wins by timestamp).
  void sync_state_from(NodeId peer,
                       std::function<void(Result<std::size_t>)> done);

  // Shadow catch-up: repeats sync passes until one installs nothing new
  // (fixpoint; live teed traffic covers everything committed after the
  // shadow join, so the loop closes the sync-vs-tee race window) or
  // `max_passes` is hit. `done` receives the total entries installed.
  void catch_up_from(NodeId peer, std::function<void(Result<std::size_t>)> done,
                     std::size_t max_passes = 6);

  // True when the protocol considers this shadow fully caught up (base:
  // state-stream fixpoint is enough; Raft waits for log backfill).
  virtual bool shadow_caught_up() const { return true; }

  // --- Cheap restart over the sealed WAL -----------------------------------
  //
  // With options_.wal_storage set, a clean shutdown leaves a rollback-pinned
  // marker that lets the NEXT incarnation warm_restart(): replay locally,
  // fast-forward send counters past their B.1 stride, and resume ACTIVE —
  // zero CAS round trips, zero peer state-stream entries. A crash leaves no
  // marker, so the next incarnation takes the full §3.7 attested rejoin.

  // Orderly shutdown: Durability::shutdown_clean() while the enclave still
  // lives, then stop(). Without a WAL this is stop() plus kUnavailable.
  Status shutdown_clean();
  // Durability::warm_restart(), then back on the network with fresh
  // receive windows, ACTIVE. Any failure leaves the caller to run the cold
  // path; a node without a WAL always fails with kUnavailable.
  Result<kv::WalReplay> warm_restart();

  // --- Failure detection ---------------------------------------------------
  // Hybrid verdict: trusted-lease floor, gated by the adaptive phi-accrual
  // layer when phi_threshold > 0.
  bool suspected(NodeId peer) const;
  // Accrued suspicion level for `peer` right now (phi-accrual layer;
  // +infinity for a peer never heard from). Exposed for tests/telemetry.
  double suspicion_phi(NodeId peer) const {
    return phi_detector_.phi(peer, trusted_clock_.now());
  }

 protected:
  using EnvelopeHandler =
      std::function<void(VerifiedEnvelope&, rpc::RequestContext&)>;
  using ResponseHandler = std::function<void(VerifiedEnvelope&)>;

  // Registers a protocol message handler; the payload the handler sees has
  // already been verified (and decrypted) by the security policy.
  void on(rpc::RequestType type, EnvelopeHandler handler);

  // Shields and sends; the continuation receives the VERIFIED response.
  void send_to(NodeId peer, rpc::RequestType type, BytesView payload,
               ResponseHandler continuation = nullptr,
               std::optional<sim::Time> timeout = std::nullopt,
               rpc::TimeoutHandler on_timeout = nullptr);

  // send_to() to every peer (membership minus self).
  void broadcast(rpc::RequestType type, BytesView payload,
                 ResponseHandler continuation = nullptr,
                 std::optional<sim::Time> timeout = std::nullopt,
                 rpc::TimeoutHandler on_timeout = nullptr);

  // Shields and responds to a received request.
  void respond(rpc::RequestContext& ctx, NodeId peer, BytesView payload);

  // Returns a callable that can respond to `ctx` after the handler returned
  // (asynchronous quorum phases).
  std::function<void(Bytes)> deferred_responder(const rpc::RequestContext& ctx);

  // KV operations with TEE cost accounting.
  bool kv_write(std::string_view key, BytesView value, kv::Timestamp ts = {});
  Result<kv::VersionedValue> kv_get(std::string_view key);

  void record_commit() {
    committed_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  // Work executed by a single dedicated thread — the paper's R-Raft "writer
  // thread that serialized all writes" and R-AllConcur's per-round message
  // tracking. Such work does not benefit from the node's parallelism, so it
  // consumes a full node-time unit per unit of work on the fluid-CPU model.
  void charge_serialized(sim::Time duration) {
    cpu().charge(duration * cpu().cores());
  }

  // View the security layer binds into shielded messages.
  virtual ViewId current_view() const { return ViewId{0}; }

  // Called once per newly suspected peer (heartbeats enabled only).
  virtual void on_suspected(NodeId /*peer*/) {}

  // --- Recovery hooks ------------------------------------------------------
  // Called once when a peer announces itself as a shadow replica: protocols
  // drop it from chains/quorums and start teeing live writes at it.
  virtual void on_peer_shadow(NodeId /*peer*/) {}
  // Called once when a shadow peer promotes back to active.
  virtual void on_peer_promoted(NodeId /*peer*/) {}
  // Called on THIS node right after promote() flipped it to active.
  virtual void on_promoted() {}
  // Largest ts.counter installed by state streaming with ts.node == 0 — the
  // sequence-style timestamps CR/CRAQ/Raft write with. Protocols use it to
  // resume their sequence tracking after a promotion.
  std::uint64_t synced_max_counter() const { return synced_max_counter_; }

  net::NodeCpu& cpu() { return network_.cpu(options_.self); }
  std::uint64_t enclave_working_set() const;
  const tee::TeeCostModel* cost_model() const { return options_.cost_model; }

 private:
  void handle_client_request(VerifiedEnvelope& env, rpc::RequestContext& ctx);
  void heartbeat_tick();
  // Fire-and-forget broadcast of a recovery notice, retried `attempts` times
  // (1ms apart): the first copies may race the CAS fresh-node notice that
  // resets this node's counters at the peers.
  void broadcast_notice(rpc::RequestType type, int attempts);
  // One chunk round trip of a state pass; recurses until the donor reports
  // done, accumulating into `installed`. No cursor = from the very first
  // key (distinct from a cursor of "" — an entry stored under the empty
  // key must still stream).
  void request_state_chunk(NodeId peer,
                           const std::optional<std::string>& cursor,
                           std::shared_ptr<std::size_t> installed,
                           std::function<void(Result<std::size_t>)> done);
  void run_catch_up_pass(NodeId peer, std::size_t passes_left,
                         std::size_t total,
                         std::function<void(Result<std::size_t>)> done);
  // Runs the registered handler for `type`; shared by the wire path and
  // the batch dispatcher.
  void dispatch_request(rpc::RequestType type, VerifiedEnvelope& env,
                        rpc::RequestContext& ctx);
  // Unpacks a verified batch frame: requests go to their handlers,
  // responses complete their tracked rpcs.
  void dispatch_batch(VerifiedEnvelope& env, rpc::RequestContext& ctx);
  // Ships one flushed batch body as a single shielded frame.
  void send_batch(NodeId peer, Bytes body);
  VerifiedEnvelope sub_envelope(const VerifiedEnvelope& batch_env,
                                BytesView payload) const;

  sim::Clock& clock_;
  net::Transport& network_;
  ReplicaOptions options_;
  rpc::RpcObject rpc_;
  std::unique_ptr<SecurityPolicy> security_;
  MessageBatcher batcher_;
  // Post-verification response continuations by rpc id. Responses complete
  // from EITHER path: the unbatched wire path (rpc continuation -> verify ->
  // handler) or a batched sub-message (already verified -> handler). The
  // send timestamp rides along so either completion path can feed the
  // measured round trip into the batcher's RTT pacing.
  struct PendingResponse {
    ResponseHandler handler;
    NodeId peer{};
    sim::Time sent_at{0};
  };
  std::unordered_map<std::uint64_t, PendingResponse> response_handlers_;
  // rpc_id of the request currently being dispatched on this node's loop —
  // lets deep apply paths (kv_write) key their flight-recorder spans to the
  // op without threading the id through every protocol. Saved/restored by
  // dispatch_request, so nested dispatches label correctly.
  std::uint64_t current_op_rpc_id_{0};
  // Feeds one completed round trip into the batcher's pacing EWMA.
  void feed_rtt(const PendingResponse& pending);
  // Keeps a paced link measured: with rtt_fraction > 0, enqueues a tracked
  // kPacingProbe toward `peer` at most every rtt_probe_period (one probe in
  // flight per peer). Called on each batch flush, so only peers this node
  // actually batches toward are probed.
  void maybe_probe_rtt(NodeId peer);
  std::unordered_map<rpc::RequestType, EnvelopeHandler> handlers_;
  kv::KvStore kv_;
  Durability durability_;
  ClientTable client_table_;
  tee::TrustedClock trusted_clock_;
  tee::LeaseFailureDetector failure_detector_;
  // Adaptive layer over the lease floor; fed from the same authenticated
  // sign-of-life sites, consulted by suspected() when phi_threshold > 0.
  PhiAccrualDetector phi_detector_;
  // Feeds both detectors (lease lease-renewal + phi arrival sample).
  void note_alive(NodeId peer);
  std::vector<NodeId> suspected_already_;
  // Pacing-probe throttle state: last probe send time per peer, plus the
  // set of peers with a probe currently in flight.
  std::unordered_map<NodeId, sim::Time> probe_last_;
  std::set<NodeId> probe_inflight_;
  sim::TimerHandle heartbeat_timer_;
  bool running_{false};
  bool shadow_{false};
  std::set<NodeId> shadow_peers_;
  sim::TimerHandle notice_timer_;
  std::uint64_t synced_max_counter_{0};
  // Relaxed atomics: bumped on the loop thread, read by metrics scrapes
  // (and tests) from any thread.
  std::atomic<std::uint64_t> committed_ops_{0};
  std::atomic<std::uint64_t> fd_suspicions_{0};

  // --- observability handles (null/no-op when options_.metrics is null) ----
  obs::Counter rpc_requests_;
  obs::Counter rpc_timeouts_;
  obs::Histogram apply_us_;
  // Declared last: read-callbacks (security/batcher/node counters)
  // unregister before anything they read is torn down.
  std::vector<obs::CallbackHandle> metric_handles_;
};

}  // namespace recipe
