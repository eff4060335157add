#include "recipe/node_base.h"

#include <algorithm>
#include <cassert>

#include "obs/flight_recorder.h"

namespace recipe {

ReplicaNode::ReplicaNode(sim::Clock& clock, net::Transport& network,
                         ReplicaOptions options)
    : clock_(clock),
      network_(network),
      options_(std::move(options)),
      rpc_(clock, network, options_.self, options_.stack,
           options_.rpc_config),
      batcher_(clock, options_.batch,
               [this](NodeId peer, Bytes body, std::size_t /*count*/) {
                 send_batch(peer, std::move(body));
               }),
      kv_(options_.kv_config),
      durability_(options_.self, options_.enclave, options_.secured,
                  options_.wal_storage, options_.wal, kv_, options_.metrics),
      trusted_clock_(clock),
      failure_detector_(trusted_clock_, options_.suspect_timeout,
                        options_.suspect_timeout / 4),
      phi_detector_(options_.phi) {
  RecipeSecurity* recipe_security = nullptr;
  if (options_.secured) {
    assert(options_.enclave != nullptr && "secured mode requires an enclave");
    RecipeSecurityConfig config;
    config.confidentiality = options_.confidentiality;
    config.working_set = [this] { return enclave_working_set(); };
    config.counter_vault = durability_.counter_vault();
    auto security = std::make_unique<RecipeSecurity>(
        *options_.enclave, options_.self, options_.cost_model,
        &network_.cpu(options_.self), config);
    recipe_security = security.get();
    security_ = std::move(security);
  } else {
    security_ = std::make_unique<NullSecurity>(options_.self);
  }

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    // Cell-backed handles for the hot sites instrumented in this file.
    rpc_requests_ = m.counter("recipe_rpc_requests_total");
    rpc_timeouts_ = m.counter("recipe_rpc_timeouts_total");
    apply_us_ = m.histogram("recipe_node_apply_us");
    // Read-callbacks over state the node already counts.
    auto counter = [&](const char* name, auto read) {
      metric_handles_.push_back(m.on_counter(name, {}, std::move(read)));
    };
    counter("recipe_node_committed_ops_total",
            [this] { return committed_ops(); });
    counter("recipe_node_fd_suspicions_total", [this] {
      return fd_suspicions_.load(std::memory_order_relaxed);
    });
    if (tee::Enclave* enclave = options_.enclave) {
      counter("recipe_tee_counter_advances_total",
              [enclave] { return enclave->rollback_counter(); });
    }
    counter("recipe_batch_messages_total",
            [this] { return batcher_.messages_batched(); });
    counter("recipe_batch_flushes_total",
            [this] { return batcher_.batches_flushed(); });
    counter("recipe_batch_flushes_by_size_total",
            [this] { return batcher_.flushes_by_size(); });
    counter("recipe_batch_flushes_by_timer_total",
            [this] { return batcher_.flushes_by_timer(); });
    metric_handles_.push_back(
        m.on_gauge("recipe_batch_buffered_bytes", {}, [this] {
          return static_cast<std::int64_t>(batcher_.buffered_bytes());
        }));
    if (recipe_security != nullptr) {
      // The callbacks capture the raw RecipeSecurity (stats accessors are
      // not on the SecurityPolicy seam); handles unregister before
      // security_ is destroyed (declaration order).
      auto* sec = recipe_security;
      counter("recipe_security_rejected_auth_total",
              [sec] { return sec->rejected_auth(); });
      counter("recipe_security_rejected_replay_total",
              [sec] { return sec->rejected_replay(); });
      counter("recipe_security_rejected_view_total",
              [sec] { return sec->rejected_view(); });
      counter("recipe_security_rejected_overflow_total",
              [sec] { return sec->rejected_overflow(); });
      counter("recipe_security_buffered_future_total",
              [sec] { return sec->buffered_future(); });
    }
  }

  // Batch carrier: ONE verify (MAC + replay slot) covers every sub-message.
  // Registered directly with the rpc layer (not via on()) so a batch frame
  // can never be dispatched as a protocol payload or vice versa.
  rpc_.register_handler(msg::kBatch, [this](rpc::RequestContext& ctx) {
    if (!running_) return;
    auto env = [&] {
      obs::Span span(obs::SpanKind::kVerify, ctx.rpc_id, options_.self.value);
      span.set_detail(ctx.payload.size());
      return security_->verify(ctx.src, as_view(ctx.payload));
    }();
    if (!env) return;  // drop: unauthenticated / replayed / malformed
    if (!env.value().batch) return;  // single frame re-typed as a batch
    dispatch_batch(env.value(), ctx);
    // Group commit aligned to the batch-flush boundary: ONE WAL commit
    // record covers every entry this batch applied.
    durability_.group_commit();
  });

  on(msg::kClientRequest, [this](VerifiedEnvelope& env,
                                 rpc::RequestContext& ctx) {
    handle_client_request(env, ctx);
  });
  on(msg::kHeartbeat, [this](VerifiedEnvelope& env, rpc::RequestContext&) {
    note_alive(env.sender);
    // A normal heartbeat from a peer we still hold as shadow is an implicit
    // promotion: shadows heartbeat with kShadowJoin instead, so this frame
    // (authenticated) proves the peer is active — it self-heals a lost
    // kPromote notice.
    if (shadow_peers_.erase(env.sender) > 0) on_peer_promoted(env.sender);
  });

  // Pacing probe: answer with an empty UNBATCHED response. The probe
  // measures the intrinsic round trip (network + verify + queueing) that
  // the flush delay is supposed to hide inside; letting it ride the batched
  // path would fold both ends' flush delays into the sample and the pacing
  // loop would chase its own tail up to the ceiling.
  on(msg::kPacingProbe, [this](VerifiedEnvelope& env,
                               rpc::RequestContext& ctx) {
    auto wire = security_->shield(env.sender, current_view(), BytesView{});
    if (wire) ctx.respond(std::move(wire).take());
  });

  // CAS notice: a node re-attested and rejoins as a FRESH replica — restart
  // its channel counters (paper §3.7 step 3). Authenticated like any peer
  // message: only the CAS (which holds the cluster root) can produce it.
  on(attest::msg::kFreshNode,
     [this](VerifiedEnvelope& env, rpc::RequestContext&) {
       if (env.sender != options_.cas_id) return;
       Reader r(as_view(env.payload));
       const auto fresh = r.id<NodeId>();
       if (!fresh || *fresh == options_.self) return;
       security_->reset_peer(*fresh);
       // Fresh grace period; the rejoiner's heartbeat cadence restarts, so
       // its accrued interval history restarts with it.
       phi_detector_.forget(*fresh);
       note_alive(*fresh);
       std::erase(suspected_already_, *fresh);
     });

  // Chunked state transfer to a recovering shadow replica (or a shard-group
  // joiner): serialize up to `max_entries` of (key, value, timestamp)
  // strictly after `cursor`, plus a done flag and the resume cursor. Values
  // are re-read through the integrity-checking path so a corrupted host can
  // never poison a joiner. A shadow never donates — its state is incomplete.
  on(msg::kStateFetch, [this](VerifiedEnvelope& env, rpc::RequestContext& ctx) {
    if (shadow_) return;
    Reader req(as_view(env.payload));
    auto has_cursor = req.boolean();
    auto cursor = req.str();
    auto max_entries = req.u32();
    if (!has_cursor || !cursor || !max_entries) return;  // malformed: drop
    const std::size_t limit =
        *max_entries > 0 ? *max_entries : options_.state_chunk_entries;
    Writer entries;
    std::uint32_t count = 0;
    std::string last_key;
    bool more = false;
    const auto emit = [&](std::string_view key, const kv::Timestamp&) {
      if (count == limit) {
        more = true;
        return false;
      }
      auto value = kv_.get(key);
      if (value.is_ok()) {
        entries.str(key);
        entries.bytes(as_view(value.value().value));
        entries.u64(value.value().timestamp.counter);
        entries.u64(value.value().timestamp.node);
        ++count;
      }
      last_key.assign(key);
      return true;
    };
    // An explicit has_cursor flag disambiguates "from the very first key"
    // from "strictly after the empty-string key" — without it an entry
    // stored under "" could never be streamed.
    if (*has_cursor) {
      kv_.scan_from(*cursor, emit);
    } else {
      kv_.scan(emit);
    }
    Writer w;
    w.u32(count);
    w.raw(as_view(entries.buffer()));
    w.boolean(!more);
    w.str(last_key);
    respond(ctx, env.sender, as_view(w.buffer()));
  });

  // Recovery notices (paper §3.7): authenticated like any peer message.
  on(msg::kShadowJoin, [this](VerifiedEnvelope& env, rpc::RequestContext&) {
    if (env.sender == options_.self) return;
    note_alive(env.sender);  // it is demonstrably alive
    std::erase(suspected_already_, env.sender);
    if (shadow_peers_.insert(env.sender).second) on_peer_shadow(env.sender);
  });
  on(msg::kPromote, [this](VerifiedEnvelope& env, rpc::RequestContext&) {
    note_alive(env.sender);
    std::erase(suspected_already_, env.sender);
    if (shadow_peers_.erase(env.sender) > 0) on_peer_promoted(env.sender);
  });
}

ReplicaNode::~ReplicaNode() {
  heartbeat_timer_.cancel();
  notice_timer_.cancel();
}

void ReplicaNode::note_alive(NodeId peer) {
  failure_detector_.heartbeat(peer);
  phi_detector_.heartbeat(peer, trusted_clock_.now());
}

void ReplicaNode::start() {
  running_ = true;
  // Grace period for every peer.
  for (NodeId peer : peers()) note_alive(peer);
  if (options_.heartbeat_period > 0) heartbeat_tick();
}

void ReplicaNode::stop() {
  running_ = false;
  heartbeat_timer_.cancel();
  notice_timer_.cancel();
  // Machine failure: buffered batches die with the node, nothing is flushed.
  batcher_.cancel_all();
  // Probes in flight died with the process; a rejoin starts unlatched.
  probe_inflight_.clear();
  probe_last_.clear();
  network_.crash(options_.self);
  if (options_.enclave != nullptr) options_.enclave->crash();
}

void ReplicaNode::wipe_state() {
  kv_.clear();
  client_table_.clear();
}

void ReplicaNode::start_as_shadow() {
  shadow_ = true;
  // Cold rejoin with a WAL: reopen under a fresh boot epoch. The hardware
  // counter advance BURNS any stale clean marker (a marker from an older
  // incarnation must never validate against a node that crashed since), and
  // new segment ids stay strictly above every id any incarnation used.
  durability_.reopen();
  network_.recover(options_.self);
  // The restarted enclave lost every channel: replay windows, strict-order
  // state, cached contexts. Receive-side state must start fresh with it.
  security_->reset_all();
  start();
  broadcast_notice(msg::kShadowJoin, 3);
}

void ReplicaNode::promote() {
  if (!shadow_) return;
  notice_timer_.cancel();  // a straggler kShadowJoin must not outlive this
  shadow_ = false;
  // Resume sequence-style bookkeeping from everything installed (streamed
  // chunks, restored snapshot, teed live writes): the max seq-timestamp in
  // the store is by construction the newest write this replica holds.
  synced_max_counter_ = 0;
  kv_.scan([this](std::string_view, const kv::Timestamp& ts) {
    if (ts.node == 0 && ts.counter > synced_max_counter_) {
      synced_max_counter_ = ts.counter;
    }
    return true;
  });
  broadcast_notice(msg::kPromote, 2);
  on_promoted();
}

void ReplicaNode::broadcast_notice(rpc::RequestType type, int attempts) {
  if (!running_) return;
  // A pending retry may fire after the state flipped: joins only while
  // shadow, promotes only while active.
  if (type == msg::kShadowJoin && !shadow_) return;
  if (type == msg::kPromote && shadow_) return;
  for (NodeId peer : peers()) {
    auto wire = security_->shield(peer, current_view(), BytesView{});
    if (wire) rpc_.send(peer, type, std::move(wire).take());
  }
  if (attempts > 1) {
    notice_timer_ = clock_.schedule(sim::kMillisecond, [this, type,
                                                        attempts] {
      broadcast_notice(type, attempts - 1);
    });
  }
}

std::vector<NodeId> ReplicaNode::peers() const {
  std::vector<NodeId> out;
  out.reserve(options_.membership.size());
  for (NodeId n : options_.membership) {
    if (n != options_.self) out.push_back(n);
  }
  return out;
}

std::uint64_t ReplicaNode::enclave_working_set() const {
  // Batches accumulate inside the enclave before their flush: they are part
  // of the modelled in-enclave message-buffer footprint (EPC pressure).
  return options_.enclave_runtime_bytes + options_.msg_buffer_bytes +
         batcher_.buffered_bytes() + kv_.enclave_bytes();
}

void ReplicaNode::on(rpc::RequestType type, EnvelopeHandler handler) {
  handlers_[type] = std::move(handler);
  rpc_.register_handler(type, [this, type](rpc::RequestContext& ctx) {
    if (!running_) return;  // a stopped node processes nothing
    auto env = [&] {
      obs::Span span(obs::SpanKind::kVerify, ctx.rpc_id, options_.self.value);
      span.set_detail(ctx.payload.size());
      return security_->verify(ctx.src, as_view(ctx.payload));
    }();
    if (!env) return;  // drop: unauthenticated / replayed / malformed
    if (env.value().batch) return;  // batch frames only enter via msg::kBatch
    dispatch_request(type, env.value(), ctx);
    // Unbatched frames form their own (singleton) commit group.
    durability_.group_commit();
  });
}

void ReplicaNode::dispatch_request(rpc::RequestType type, VerifiedEnvelope& env,
                                   rpc::RequestContext& ctx) {
  const auto it = handlers_.find(type);
  if (it == handlers_.end()) return;  // unknown (or nested-batch) type: drop
  const std::uint64_t prev_op = current_op_rpc_id_;
  current_op_rpc_id_ = ctx.rpc_id;
  it->second(env, ctx);
  current_op_rpc_id_ = prev_op;
}

void ReplicaNode::dispatch_batch(VerifiedEnvelope& env,
                                 rpc::RequestContext& ctx) {
  auto view = BatchView::parse(as_view(env.payload));
  if (!view) return;  // malformed body despite a valid MAC (Null mode only)
  for (const BatchItem& item : view.value()) {
    if (item.kind == BatchItem::kKindRequest) {
      VerifiedEnvelope sub = sub_envelope(env, item.payload);
      // The synthesized context lets handlers respond exactly as if the
      // sub-message had arrived as its own packet.
      rpc::RequestContext sub_ctx{ctx.rpc, ctx.src, item.type, item.rpc_id,
                                  Bytes{}};
      dispatch_request(item.type, sub, sub_ctx);
    } else if (item.kind == BatchItem::kKindResponse) {
      // settle() refuses rpcs that already timed out or completed, so a
      // straggler batch cannot double-complete a request.
      if (!rpc_.settle(item.rpc_id)) continue;
      const auto it = response_handlers_.find(item.rpc_id);
      if (it == response_handlers_.end()) continue;
      PendingResponse pending = std::move(it->second);
      response_handlers_.erase(it);
      feed_rtt(pending);
      VerifiedEnvelope sub = sub_envelope(env, item.payload);
      if (pending.handler) pending.handler(sub);
    }
    // Unknown kinds are skipped: forward compatibility inside a valid MAC.
  }
}

VerifiedEnvelope ReplicaNode::sub_envelope(const VerifiedEnvelope& batch_env,
                                           BytesView payload) const {
  VerifiedEnvelope sub;
  sub.sender = batch_env.sender;
  sub.view = batch_env.view;
  sub.cnt = batch_env.cnt;
  sub.payload.assign(payload.begin(), payload.end());
  return sub;
}

void ReplicaNode::feed_rtt(const PendingResponse& pending) {
  if (!batcher_.enabled() || pending.sent_at == 0) return;
  const sim::Time now = clock_.now();
  if (now > pending.sent_at) {
    batcher_.record_rtt(pending.peer, now - pending.sent_at);
  }
}

void ReplicaNode::maybe_probe_rtt(NodeId peer) {
  if (options_.batch.rtt_fraction <= 0.0) return;
  if (probe_inflight_.contains(peer)) return;
  const sim::Time now = clock_.now();
  const auto it = probe_last_.find(peer);
  if (it != probe_last_.end() &&
      now - it->second < options_.batch.rtt_probe_period) {
    return;
  }
  probe_last_[peer] = now;
  probe_inflight_.insert(peer);
  // The probe bypasses the batcher in BOTH directions (plain shielded frame
  // out, unbatched response back): the sample must be the round trip the
  // flush delay hides inside, not one inflated by the very delays it tunes.
  // It still shares the socket with batched traffic, so real congestion and
  // egress queueing show up in the signal. The timeout bounds the in-flight
  // latch when the peer is down.
  auto wire = security_->shield(peer, current_view(), BytesView{});
  if (!wire) {
    probe_inflight_.erase(peer);
    return;
  }
  rpc_.send(peer, msg::kPacingProbe, std::move(wire).take(),
            [this, peer, now](NodeId src, Bytes response) {
              probe_inflight_.erase(peer);
              if (!running_) return;
              auto env = security_->verify(src, as_view(response));
              if (!env || env.value().batch) return;  // forged/replayed: drop
              const sim::Time done = clock_.now();
              if (done > now) batcher_.record_rtt(peer, done - now);
            },
            10 * options_.batch.rtt_probe_period,
            [this, peer] { probe_inflight_.erase(peer); },
            // Advisory traffic: under egress overload the probe is the
            // FIRST thing shed (a stale RTT sample beats displacing
            // protocol progress), and the in-flight latch times out.
            /*rpc_id=*/std::nullopt, net::PacketPriority::kOptional);
}

void ReplicaNode::send_batch(NodeId peer, Bytes body) {
  // Each flush re-arms the link's RTT measurement first: the probe lands in
  // the batch AFTER this one (this body is already finalized).
  maybe_probe_rtt(peer);
  // Scatter shield: the batch body is encrypted/MACed where it already
  // lives and travels as head || body || tail through gather I/O — the
  // flushed frame is never re-copied into a contiguous buffer. Shipped
  // bytes are identical to shield_batch().
  obs::Span shield_span(obs::SpanKind::kShield, /*rpc_id=*/0, options_.self.value);
  shield_span.set_detail(body.size());
  auto parts = security_->shield_batch_parts(peer, current_view(), body);
  shield_span.finish();
  if (!parts) return;  // crashed enclave: the batch dies like any send
  std::vector<Bytes> segments;
  segments.reserve(3);
  segments.push_back(std::move(parts.value().head));
  segments.push_back(std::move(body));
  segments.push_back(std::move(parts.value().tail));
  // Fire-and-forget at the transport level; tracked sub-requests were
  // registered via expect_response() and time out individually.
  rpc_.send_gather(peer, msg::kBatch, std::move(segments));
}

void ReplicaNode::send_to(NodeId peer, rpc::RequestType type, BytesView payload,
                          ResponseHandler continuation,
                          std::optional<sim::Time> timeout,
                          rpc::TimeoutHandler on_timeout) {
  const bool tracked = continuation != nullptr || on_timeout != nullptr;
  const std::uint64_t rpc_id = rpc_.allocate_rpc_id();
  rpc_requests_.inc();

  rpc::Continuation wrapped;
  rpc::TimeoutHandler timeout_wrapped;
  if (tracked) {
    response_handlers_[rpc_id] =
        PendingResponse{std::move(continuation), peer, clock_.now()};
    // Unbatched wire path. (When the peer answers from inside a batch the
    // batch dispatcher completes the rpc instead and this never runs.)
    wrapped = [this, rpc_id](NodeId src, Bytes response) {
      const auto it = response_handlers_.find(rpc_id);
      if (it == response_handlers_.end()) return;
      PendingResponse pending = std::move(it->second);
      response_handlers_.erase(it);
      feed_rtt(pending);
      if (!running_) return;
      auto env = security_->verify(src, as_view(response));
      if (!env) return;  // forged/replayed response: drop
      // A batch frame is never a direct response.
      if (env.value().batch) return;
      if (pending.handler) pending.handler(env.value());
      // Response continuations apply writes too (quorum phase-2, state
      // chunks): the delivery is its own commit group.
      durability_.group_commit();
    };
    timeout_wrapped = [this, rpc_id, cb = std::move(on_timeout)] {
      response_handlers_.erase(rpc_id);
      rpc_timeouts_.inc();
      if (cb) cb();
    };
  }

  if (batcher_.enabled()) {
    if (tracked) {
      rpc_.expect_response(peer, rpc_id, std::move(wrapped), timeout,
                           std::move(timeout_wrapped));
    }
    batcher_.enqueue(peer, BatchItem::kKindRequest, type, rpc_id, payload);
    return;
  }

  auto wire = security_->shield(peer, current_view(), payload);
  if (!wire) {  // crashed enclave: cannot send (and nothing was registered)
    response_handlers_.erase(rpc_id);
    return;
  }
  rpc_.send(peer, type, std::move(wire).take(), std::move(wrapped), timeout,
            std::move(timeout_wrapped), rpc_id);
}

void ReplicaNode::broadcast(rpc::RequestType type, BytesView payload,
                            ResponseHandler continuation,
                            std::optional<sim::Time> timeout,
                            rpc::TimeoutHandler on_timeout) {
  for (NodeId peer : peers()) {
    send_to(peer, type, payload, continuation, timeout, on_timeout);
  }
}

void ReplicaNode::respond(rpc::RequestContext& ctx, NodeId peer,
                          BytesView payload) {
  if (batcher_.enabled()) {
    batcher_.enqueue(peer, BatchItem::kKindResponse, ctx.type, ctx.rpc_id,
                     payload);
    return;
  }
  auto wire = security_->shield(peer, current_view(), payload);
  if (!wire) return;
  ctx.respond(std::move(wire).take());
}

std::function<void(Bytes)> ReplicaNode::deferred_responder(
    const rpc::RequestContext& ctx) {
  const NodeId dst = ctx.src;
  const rpc::RequestType type = ctx.type;
  const std::uint64_t rpc_id = ctx.rpc_id;
  return [this, dst, type, rpc_id](Bytes payload) {
    if (batcher_.enabled()) {
      batcher_.enqueue(dst, BatchItem::kKindResponse, type, rpc_id,
                       as_view(payload));
      return;
    }
    auto wire = security_->shield(dst, current_view(), as_view(payload));
    if (!wire) return;
    rpc_.respond_to(dst, type, rpc_id, std::move(wire).take());
  };
}

bool ReplicaNode::kv_write(std::string_view key, BytesView value,
                           kv::Timestamp ts) {
  if (options_.cost_model != nullptr) {
    sim::Time cost = options_.cost_model->hash(value.size()) +
                     options_.cost_model->enclave_copy(value.size(),
                                                       enclave_working_set());
    if (kv_.confidential()) cost += options_.cost_model->encrypt(value.size());
    cpu().charge(cost);
  }
  // One timestamp pair feeds both the apply histogram and the flight
  // recorder; neither costs a clock read when observability is off.
  const bool timed = bool(apply_us_) || obs::FlightRecorder::global().enabled();
  const std::uint64_t t0 = timed ? obs::FlightRecorder::now_ns() : 0;
  const bool applied = kv_.write(key, value, ts);
  // Every APPLIED write is logged; the group boundary (one commit record per
  // dispatched message/batch) is drawn by Durability::group_commit().
  if (applied) durability_.log(key, value, ts);
  if (timed) {
    const std::uint64_t t1 = obs::FlightRecorder::now_ns();
    apply_us_.record((t1 - t0) / 1000);
    obs::FlightRecorder::global().record(obs::SpanKind::kApply,
                                         current_op_rpc_id_,
                                         options_.self.value, t0, t1,
                                         /*detail=*/applied ? 1 : 0);
  }
  return applied;
}

Result<kv::VersionedValue> ReplicaNode::kv_get(std::string_view key) {
  if (options_.cost_model != nullptr) {
    sim::Time cost = options_.cost_model->hash(256) +
                     options_.cost_model->enclave_copy(256,
                                                       enclave_working_set());
    if (kv_.confidential()) cost += options_.cost_model->encrypt(256);
    cpu().charge(cost);
  }
  return kv_.get(key);
}

void ReplicaNode::handle_client_request(VerifiedEnvelope& env,
                                        rpc::RequestContext& ctx) {
  auto parsed = ClientRequest::parse(as_view(env.payload));
  if (!parsed) return;
  const ClientRequest& request = parsed.value();

  // The authenticated channel binds the sender: a Byzantine client cannot
  // impersonate another client id when security is on.
  if (security_->secured() && request.client.value != env.sender.value) return;

  switch (client_table_.admit(request.client, request.rid)) {
    case ClientTable::Decision::kStale:
    case ClientTable::Decision::kInFlight:
      return;  // drop replays/duplicates
    case ClientTable::Decision::kCached: {
      const Bytes* cached =
          client_table_.cached_reply(request.client, request.rid);
      if (cached != nullptr) respond(ctx, env.sender, as_view(*cached));
      return;
    }
    case ClientTable::Decision::kExecute:
      break;
  }

  if (shadow_ || !is_coordinator()) {
    // Shadow replicas serve no clients until promoted; otherwise not the
    // coordinator for this protocol: refuse (the data-store routing layer
    // retries against the right node).
    ClientReply reply;
    reply.ok = false;
    respond(ctx, env.sender, as_view(reply.serialize()));
    return;
  }

  client_table_.begin(request.client, request.rid);
  auto responder = deferred_responder(ctx);
  const ClientId client = request.client;
  const RequestId rid = request.rid;
  submit(request, [this, responder = std::move(responder), client,
                   rid](const ClientReply& reply) {
    Bytes encoded = reply.serialize();
    client_table_.complete(client, rid, encoded);
    if (reply.ok) record_commit();
    responder(std::move(encoded));
  });
}

void ReplicaNode::sync_state_from(
    NodeId peer, std::function<void(Result<std::size_t>)> done) {
  request_state_chunk(peer, std::nullopt, std::make_shared<std::size_t>(0),
                      std::move(done));
}

void ReplicaNode::request_state_chunk(
    NodeId peer, const std::optional<std::string>& cursor,
    std::shared_ptr<std::size_t> installed,
    std::function<void(Result<std::size_t>)> done) {
  Writer req;
  req.boolean(cursor.has_value());
  req.str(cursor.value_or(std::string{}));
  req.u32(static_cast<std::uint32_t>(options_.state_chunk_entries));
  send_to(peer, msg::kStateFetch, as_view(req.buffer()),
          [this, peer, installed, done](VerifiedEnvelope& env) {
            Reader r(as_view(env.payload));
            auto count = r.u32();
            if (!count) {
              done(Status::error(ErrorCode::kInvalidArgument,
                                 "malformed state chunk"));
              return;
            }
            for (std::uint32_t i = 0; i < *count; ++i) {
              auto key = r.str();
              auto value = r.bytes();
              auto ts_counter = r.u64();
              auto ts_node = r.u64();
              if (!key || !value || !ts_counter || !ts_node) {
                done(Status::error(ErrorCode::kInvalidArgument,
                                   "truncated state chunk"));
                return;
              }
              // Last-writer-wins merge; only entries that advance local
              // state count, so a repeated pass over unchanged state
              // installs ZERO — the fixpoint condition catch_up_from()
              // converges on.
              const kv::Timestamp ts{*ts_counter, *ts_node};
              if (!kv_.would_advance(*key, ts)) continue;
              if (kv_write(*key, as_view(*value), ts)) ++*installed;
            }
            auto finished = r.boolean();
            auto next_cursor = r.str();
            if (!finished || !next_cursor) {
              done(Status::error(ErrorCode::kInvalidArgument,
                                 "malformed state chunk trailer"));
              return;
            }
            if (*finished) {
              done(*installed);
              return;
            }
            request_state_chunk(peer, *next_cursor, installed, done);
          },
          5 * sim::kSecond,
          [done] { done(Status::error(ErrorCode::kTimeout, "state chunk")); });
}

void ReplicaNode::catch_up_from(NodeId peer,
                                std::function<void(Result<std::size_t>)> done,
                                std::size_t max_passes) {
  run_catch_up_pass(peer, max_passes, 0, std::move(done));
}

void ReplicaNode::run_catch_up_pass(
    NodeId peer, std::size_t passes_left, std::size_t total,
    std::function<void(Result<std::size_t>)> done) {
  if (passes_left == 0) {
    // Cap hit under a constant write load: the teed live traffic covers
    // everything committed since the shadow join, so promoting is safe.
    done(total);
    return;
  }
  sync_state_from(peer, [this, peer, passes_left, total,
                         done](Result<std::size_t> pass) {
    if (!pass) {
      done(pass.status());
      return;
    }
    if (pass.value() == 0) {
      done(total);  // fixpoint: the stream has nothing newer than we hold
      return;
    }
    run_catch_up_pass(peer, passes_left - 1, total + pass.value(), done);
  });
}

Status ReplicaNode::shutdown_clean() {
  const Status sealed = durability_.shutdown_clean();
  stop();
  return sealed;
}

Result<kv::WalReplay> ReplicaNode::warm_restart() {
  auto replayed = durability_.warm_restart();
  if (!replayed) return replayed;
  // Resume ACTIVE. Peers never saw this node die: its send counters
  // continued past their strides (forward jumps ≤ K land inside every
  // replay window) and its receive windows are rebuilt empty, so no
  // fresh-node notice, peer reset, or shadow phase is needed.
  network_.recover(options_.self);
  security_->reset_all();
  shadow_ = false;
  start();
  return replayed;
}

bool ReplicaNode::suspected(NodeId peer) const {
  // The trusted lease is the safety floor: before it surely expired the
  // peer may still legitimately act on its lease, so it is never suspected
  // early no matter what phi says.
  if (!failure_detector_.suspected(peer)) return false;
  // Adaptive layer: under chaotic links a fixed timeout fires on ordinary
  // jitter; require the silence to also be anomalous against the peer's own
  // observed heartbeat history before surfacing suspicion.
  if (options_.phi_threshold > 0.0 &&
      !phi_detector_.suspected(peer, trusted_clock_.now(),
                               options_.phi_threshold)) {
    return false;
  }
  return true;
}

void ReplicaNode::heartbeat_tick() {
  if (!running_) return;
  // Heartbeats are shielded fire-and-forget messages. A shadow heartbeats
  // with kShadowJoin instead: the join/promote notices are fire-and-forget,
  // so the periodic re-assertion of the CURRENT state makes a lost notice
  // heal at the next tick (a peer that missed the join keeps learning it;
  // one that missed the promote learns it from the first plain heartbeat).
  const rpc::RequestType beat = shadow_ ? msg::kShadowJoin : msg::kHeartbeat;
  for (NodeId peer : peers()) {
    auto wire = security_->shield(peer, current_view(), BytesView{});
    if (wire) rpc_.send(peer, beat, std::move(wire).take());
  }
  // Surface newly suspected peers to the protocol.
  for (NodeId peer : peers()) {
    if (failure_detector_.suspected(peer) &&
        std::find(suspected_already_.begin(), suspected_already_.end(), peer) ==
            suspected_already_.end()) {
      suspected_already_.push_back(peer);
      fd_suspicions_.fetch_add(1, std::memory_order_relaxed);
      on_suspected(peer);
    }
  }
  heartbeat_timer_ = clock_.schedule(options_.heartbeat_period,
                                     [this] { heartbeat_tick(); });
}

}  // namespace recipe
