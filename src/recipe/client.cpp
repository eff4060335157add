#include "recipe/client.h"

#include <cassert>

#include "obs/flight_recorder.h"

namespace recipe {

KvClient::KvClient(sim::Clock& clock, net::Transport& network,
                   ClientOptions options)
    : clock_(clock),
      options_(std::move(options)),
      rpc_(clock, network, NodeId{options_.id.value}, options_.stack),
      backoff_rng_(0x9E3779B97F4A7C15ULL ^ options_.id.value) {
  if (options_.metrics != nullptr && options_.metrics->enabled()) {
    obs::MetricsRegistry& m = *options_.metrics;
    ops_issued_ = m.counter("recipe_client_ops_issued_total");
    ops_completed_ = m.counter("recipe_client_ops_completed_total");
    ops_failed_ = m.counter("recipe_client_ops_failed_total");
    retries_ = m.counter("recipe_client_retries_total");
    op_latency_us_ = m.histogram("recipe_client_op_latency_us");
  } else {
    // No registry (or a disabled one): private detached cells so issued()/
    // latency_us() keep reporting — this is the pre-registry cost profile.
    ops_issued_ = obs::Counter::detached();
    ops_completed_ = obs::Counter::detached();
    ops_failed_ = obs::Counter::detached();
    retries_ = obs::Counter::detached();
    op_latency_us_ = obs::Histogram::detached();
  }
  if (options_.secured) {
    assert(options_.enclave != nullptr && "secured client requires an enclave");
    RecipeSecurityConfig config;
    config.confidentiality = options_.confidentiality;
    security_ = std::make_unique<RecipeSecurity>(
        *options_.enclave, node_id(), /*cost_model=*/nullptr, /*cpu=*/nullptr,
        config);
  } else {
    security_ = std::make_unique<NullSecurity>(node_id());
  }

  // Replicas may coalesce replies to this client into batch frames: one
  // verify covers all of them, then each sub-response completes its rpc.
  rpc_.register_handler(msg::kBatch, [this](rpc::RequestContext& ctx) {
    auto env = security_->verify(ctx.src, as_view(ctx.payload));
    if (!env || !env.value().batch) return;
    auto view = BatchView::parse(as_view(env.value().payload));
    if (!view) return;
    for (const BatchItem& item : view.value()) {
      // Clients serve nothing: only responses matter.
      if (item.kind != BatchItem::kKindResponse) continue;
      if (!rpc_.settle(item.rpc_id)) continue;  // timed out / already done
      VerifiedEnvelope sub;
      sub.sender = env.value().sender;
      sub.view = env.value().view;
      sub.cnt = env.value().cnt;
      sub.payload.assign(item.payload.begin(), item.payload.end());
      complete(item.rpc_id, sub);
    }
  });

  // CAS fresh-node notice (paper §3.7): a replica re-attested and restarts
  // its counters — drop our receive-side channel state for it, or its
  // post-rejoin replies would collide with the old replay window.
  rpc_.register_handler(attest::msg::kFreshNode,
                        [this](rpc::RequestContext& ctx) {
    auto env = security_->verify(ctx.src, as_view(ctx.payload));
    if (!env) return;
    if (env.value().sender.value != options_.cas_id.value) return;
    Reader r(as_view(env.value().payload));
    const auto fresh = r.id<NodeId>();
    if (fresh) security_->reset_peer(*fresh);
  });
}

KvClient::~KvClient() {
  for (auto& [token, timer] : backoff_timers_) timer.cancel();
}

void KvClient::fail(const std::shared_ptr<RetryState>& state, ErrorCode why) {
  ops_failed_.inc();
  if (state->started_ns != 0) {
    // Whole-op span closed by failure; detail carries the error code.
    obs::FlightRecorder::global().record(
        obs::SpanKind::kClientOp, state->last_rpc_id, options_.id.value,
        state->started_ns, obs::FlightRecorder::now_ns(),
        static_cast<std::uint64_t>(why));
    state->started_ns = 0;
  }
  if (state->done) {
    ClientReply reply;
    reply.error = why;
    state->done(reply);
  }
}

void KvClient::schedule_retry(NodeId coordinator,
                              std::shared_ptr<RetryState> state, int attempt,
                              ErrorCode why) {
  if (attempt >= options_.retry.max_attempts) {
    fail(state, why);
    return;
  }
  const sim::Time backoff =
      options_.retry.next_backoff(state->prev_backoff, backoff_rng_);
  state->prev_backoff = backoff;
  if (options_.retry.deadline > 0 &&
      clock_.now() + backoff > state->started + options_.retry.deadline) {
    fail(state, why);
    return;
  }
  retries_.inc();
  if (obs::FlightRecorder::global().enabled()) {
    // Backoff window as a span: [now, now + backoff] in wall-clock ns; the
    // sim::Time backoff is already nanoseconds.
    const std::uint64_t t0 = obs::FlightRecorder::now_ns();
    obs::FlightRecorder::global().record(
        obs::SpanKind::kRetryBackoff, state->last_rpc_id, options_.id.value,
        t0, t0 + static_cast<std::uint64_t>(backoff),
        static_cast<std::uint64_t>(attempt));
  }
  const std::uint64_t token = next_backoff_token_++;
  backoff_timers_[token] = clock_.schedule(
      backoff, [this, token, coordinator, state = std::move(state), attempt] {
        backoff_timers_.erase(token);
        issue(coordinator, state, attempt);
      });
}

void KvClient::complete(std::uint64_t rpc_id, VerifiedEnvelope& env) {
  const auto it = pending_replies_.find(rpc_id);
  if (it == pending_replies_.end()) return;
  auto handler = std::move(it->second);
  pending_replies_.erase(it);
  handler(env);
}

void KvClient::put(NodeId coordinator, std::string key, Bytes value,
                   ReplyCallback done) {
  ClientRequest request;
  request.client = options_.id;
  request.rid = RequestId{next_rid_++};
  request.op = OpType::kPut;
  request.key = std::move(key);
  request.value = std::move(value);
  ops_issued_.inc();
  issue(coordinator, std::move(request), std::move(done), 0);
}

void KvClient::get(NodeId coordinator, std::string key, ReplyCallback done) {
  ClientRequest request;
  request.client = options_.id;
  request.rid = RequestId{next_rid_++};
  request.op = OpType::kGet;
  request.key = std::move(key);
  ops_issued_.inc();
  issue(coordinator, std::move(request), std::move(done), 0);
}

void KvClient::issue(NodeId coordinator, ClientRequest request,
                     ReplyCallback done, int attempt) {
  // Hot path: one shared allocation holds the retry state (request bytes +
  // completion callback) for all three closures below; a retransmit (same
  // rid, the coordinator's client table deduplicates) re-enters here
  // without re-copying the payload.
  issue(coordinator,
        std::make_shared<RetryState>(
            RetryState{std::move(request), std::move(done)}),
        attempt);
}

void KvClient::issue(NodeId coordinator, std::shared_ptr<RetryState> state,
                     int attempt) {
  if (attempt == 0) {
    state->started = clock_.now();
    if (obs::FlightRecorder::global().enabled()) {
      state->started_ns = obs::FlightRecorder::now_ns();
    }
    // Backpressure: egress toward the coordinator is past its watermark —
    // fail fast with kOverloaded instead of stacking a fresh request onto a
    // congested link. Retransmits (attempt > 0) still go: their op is
    // already paid for, and the transport sheds them first if it must.
    if (rpc_.overloaded(coordinator)) {
      fail(state, ErrorCode::kOverloaded);
      return;
    }
  }
  // Allocate the rpc id BEFORE shielding so even a shield-failure span (and
  // this attempt's retry/backoff spans) carry a usable correlation key.
  const std::uint64_t rpc_id = rpc_.allocate_rpc_id();
  state->last_rpc_id = rpc_id;
  auto wire = security_->shield(coordinator, ViewId{0},
                                as_view(state->request.serialize()));
  if (!wire) {
    // Shield failure is local and permanent (crashed enclave, missing
    // keys): no amount of retrying the same bytes can help.
    fail(state, ErrorCode::kAuthFailed);
    return;
  }

  const sim::Time started = clock_.now();
  pending_replies_[rpc_id] = [this, started, state](VerifiedEnvelope& env) {
    auto reply = ClientReply::parse(as_view(env.payload));
    if (!reply) {
      // Authenticated but malformed (a replica-side bug): the rpc was
      // already settled, so no timeout remains to retry — fail the op
      // rather than strand it forever.
      fail(state, ErrorCode::kInternal);
      return;
    }
    op_latency_us_.record((clock_.now() - started) / sim::kMicrosecond);
    if (reply.value().ok) {
      ops_completed_.inc();
    } else {
      ops_failed_.inc();
    }
    if (state->started_ns != 0) {
      // Whole-op span (first attempt -> verified reply); detail 0 = success.
      obs::FlightRecorder::global().record(
          obs::SpanKind::kClientOp, state->last_rpc_id, options_.id.value,
          state->started_ns, obs::FlightRecorder::now_ns(),
          reply.value().ok ? 0
                           : static_cast<std::uint64_t>(reply.value().error));
      state->started_ns = 0;
    }
    if (state->done) state->done(reply.value());
  };
  rpc_.send(
      coordinator, msg::kClientRequest, std::move(wire).take(),
      [this, rpc_id, coordinator, state, attempt](NodeId src, Bytes response) {
        // The rpc is finished either way: detach the reply handler first so
        // no rejection path below can strand it in pending_replies_.
        const auto it = pending_replies_.find(rpc_id);
        if (it == pending_replies_.end()) return;
        auto handler = std::move(it->second);
        pending_replies_.erase(it);
        auto env = security_->verify(src, as_view(response));
        if (!env || env.value().batch) {
          // Forged/replayed reply (or a mis-typed batch frame). The
          // transport settled the rpc, so the real reply can no longer
          // complete this attempt — retransmit like a timeout, or the op
          // would strand forever.
          schedule_retry(coordinator, state, attempt + 1,
                         ErrorCode::kAuthFailed);
          return;
        }
        handler(env.value());
      },
      options_.retry.attempt_timeout(attempt),
      [this, rpc_id, coordinator, state, attempt] {
        pending_replies_.erase(rpc_id);
        schedule_retry(coordinator, state, attempt + 1, ErrorCode::kTimeout);
      },
      rpc_id,
      attempt == 0 ? net::PacketPriority::kNormal
                   : net::PacketPriority::kRetransmit);
}

}  // namespace recipe
