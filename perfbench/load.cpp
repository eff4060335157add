#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <optional>

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the rates are
// about a third of the closed-loop capacity measured on a 4-core VM.
constexpr Workload kWorkloads[] = {
    {"small-put", 1.00, 64, false, false, 30000.0},
    {"read-heavy", 0.05, 64, false, false, 30000.0},
    {"sealed-4k", 1.00, 4096, true, true, 400.0},
};

char filler(std::uint64_t seq, std::size_t i) {
  return static_cast<char>('a' + (seq * 131 + i * 7) % 26);
}

// Parses "k<key>#<seq>;" at the front of a value.
bool parse_head(BytesView value, std::uint32_t& key, std::uint64_t& seq,
                std::size_t& head_len) {
  std::size_t i = 0;
  auto number = [&](std::uint64_t& out) {
    const std::size_t start = i;
    out = 0;
    while (i < value.size() && value[i] >= '0' && value[i] <= '9' &&
           i - start < 19) {
      out = out * 10 + static_cast<std::uint64_t>(value[i] - '0');
      ++i;
    }
    return i > start;
  };
  std::uint64_t k = 0;
  if (i >= value.size() || value[i++] != 'k' || !number(k)) return false;
  if (i >= value.size() || value[i++] != '#' || !number(seq)) return false;
  if (i >= value.size() || value[i++] != ';') return false;
  key = static_cast<std::uint32_t>(k);
  head_len = i;
  return true;
}

// Bound on how long a drain may take after the phase ends: far beyond any
// healthy op (the client gives up after its own retry budget first).
constexpr auto kDrainBound = std::chrono::seconds(30);

// A completion that never arrives is a bug in the system under test. Its
// callback may still fire later into state this thread is about to free,
// so the run ends here, without a result.
[[noreturn]] void lost_completion(const char* phase) {
  std::fprintf(stderr, "error: %s did not drain within the bound\n", phase);
  std::fflush(stdout);
  std::_Exit(2);
}

// Keeps `pipeline` ops in flight, taking each from `next` until it returns
// nothing; `on_done(ok)` runs on the loop after each completion.
void pump(recipe::transport::TcpTransport& loop, Issuer& issuer,
          std::size_t pipeline, const char* phase,
          std::function<std::optional<Op>()> next,
          std::function<void(bool)> on_done) {
  struct State {
    std::function<std::optional<Op>()> next;
    std::function<void(bool)> on_done;
    std::function<void()> issue_one;
    std::size_t outstanding = 0;
    bool exhausted = false;
    bool finished = false;
    std::promise<void> drained;
    void finish_if_done() {
      if (exhausted && outstanding == 0 && !finished) {
        finished = true;
        drained.set_value();
      }
    }
  };
  State st;
  st.next = std::move(next);
  st.on_done = std::move(on_done);
  st.issue_one = [&st, &issuer] {
    if (st.exhausted) return;
    const std::optional<Op> op = st.next();
    if (!op) {
      st.exhausted = true;
      st.finish_if_done();
      return;
    }
    ++st.outstanding;
    issuer.issue(*op, [&st](bool ok) {
      --st.outstanding;
      st.on_done(ok);
      st.issue_one();
      st.finish_if_done();
    });
  };
  std::future<void> done = st.drained.get_future();
  loop.run_sync([&] {
    for (std::size_t i = 0; i < pipeline; ++i) st.issue_one();
  });
  if (done.wait_for(kDrainBound) != std::future_status::ready) {
    lost_completion(phase);
  }
  loop.run_sync([&] { st.issue_one = nullptr; });
}

std::uint64_t clock_now(recipe::transport::TcpTransport& loop) {
  return loop.clock().now();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string key_name(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04u", key);
  return buf;
}

OpStream::OpStream(const Workload& workload, std::uint64_t seed)
    : put_fraction_(workload.put_fraction),
      rng_(seed),
      zipf_(kKeys, kZipfTheta) {}

Op OpStream::next() {
  Op op;
  op.key = static_cast<std::uint32_t>(zipf_.next(rng_));
  op.put = put_fraction_ >= 1.0 || rng_.uniform() < put_fraction_;
  return op;
}

std::uint64_t Ledger::begin_put(std::uint32_t key, Bytes& value) {
  const std::uint64_t seq = ack_point_.size();
  ack_point_.push_back(kPending);
  char head[48];
  const int n = std::snprintf(head, sizeof(head), "k%u#%llu;", key,
                              static_cast<unsigned long long>(seq));
  value.resize(std::max(value_bytes_, static_cast<std::size_t>(n)));
  std::copy(head, head + n, value.begin());
  for (std::size_t i = static_cast<std::size_t>(n); i < value.size(); ++i) {
    value[i] = static_cast<std::uint8_t>(filler(seq, i));
  }
  return seq;
}

void Ledger::end_put(std::uint32_t key, std::uint64_t seq, bool ok) {
  if (!ok) {
    ack_point_[seq] = kAmbiguous;
    return;
  }
  ack_point_[seq] = ack_point_.size();
  if (newest_acked_[key] == kNone || newest_acked_[key] < seq) {
    newest_acked_[key] = seq;
  }
}

std::uint64_t Ledger::watermark(std::uint32_t key) const {
  return newest_acked_[key];
}

bool Ledger::read_ok(std::uint32_t key, BytesView value,
                     std::uint64_t watermark) const {
  std::uint32_t k = 0;
  std::uint64_t seq = 0;
  std::size_t head_len = 0;
  if (!parse_head(value, k, seq, head_len) || k != key ||
      seq >= ack_point_.size() || value.size() != std::max(value_bytes_,
                                                          head_len)) {
    return false;
  }
  for (std::size_t i = head_len; i < value.size(); ++i) {
    if (value[i] != static_cast<std::uint8_t>(filler(seq, i))) return false;
  }
  const std::uint64_t acked_at = ack_point_[seq];
  if (watermark == kNone || acked_at == kPending || acked_at == kAmbiguous) {
    return true;
  }
  // Stale: a put issued after this value was acknowledged had itself been
  // acknowledged before the read was issued.
  return watermark < acked_at;
}

void Tally::add(const Tally& other) {
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  mismatches += other.mismatches;
}

void Issuer::issue(const Op& op, std::function<void(bool ok)> done) {
  ++tally_.attempted;
  if (op.put) {
    Bytes value;
    const std::uint64_t seq = ledger_.begin_put(op.key, value);
    client_.put(head_, key_name(op.key), std::move(value),
                [this, op, seq, done = std::move(done)](
                    const recipe::ClientReply& reply) {
                  ledger_.end_put(op.key, seq, reply.ok);
                  if (reply.ok) {
                    ++tally_.completed;
                  } else {
                    ++tally_.failed;
                  }
                  done(reply.ok);
                });
    return;
  }
  const std::uint64_t watermark = ledger_.watermark(op.key);
  client_.get(tail_, key_name(op.key),
              [this, op, watermark, done = std::move(done)](
                  const recipe::ClientReply& reply) {
                if (!reply.ok) {
                  ++tally_.failed;
                  done(false);
                  return;
                }
                ++tally_.completed;
                const bool right =
                    reply.found &&
                    ledger_.read_ok(op.key, recipe::as_view(reply.value),
                                    watermark);
                if (!right) ++tally_.mismatches;
                done(right);
              });
}

Tally Issuer::take_tally() {
  Tally out = tally_;
  tally_ = Tally{};
  return out;
}

ClosedLoopResult run_closed_loop(recipe::transport::TcpTransport& loop,
                                 Issuer& issuer, OpStream& ops, double seconds,
                                 std::size_t pipeline) {
  // Completions are binned per interval so the caller can leave warm-up
  // intervals out.
  constexpr std::uint64_t kInterval = 250'000'000;  // ns
  const std::size_t intervals = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * 1e9 / kInterval));
  std::vector<std::uint64_t> bins(intervals, 0);
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  loop.run_sync([&] {
    start = clock_now(loop);
    end = start + intervals * kInterval;
  });
  pump(
      loop, issuer, pipeline, "closed loop",
      [&]() -> std::optional<Op> {
        if (clock_now(loop) >= end) return std::nullopt;
        return ops.next();
      },
      [&](bool) {
        const std::uint64_t now = clock_now(loop);
        if (now < end) ++bins[(now - start) / kInterval];
      });

  ClosedLoopResult result;
  loop.run_sync([&] { result.tally = issuer.take_tally(); });
  for (std::uint64_t b : bins) {
    result.interval_ops_per_sec.push_back(static_cast<double>(b) * 1e9 /
                                          kInterval);
  }
  return result;
}

OpenLoopResult run_open_loop(recipe::transport::TcpTransport& loop,
                             Issuer& issuer, OpStream& ops, double rate,
                             double seconds, std::uint64_t seed) {
  // Arrivals and ops are fixed before the first send, so generating them
  // costs nothing inside the measured phase.
  std::vector<std::uint64_t> arrival;  // ns after the phase start
  std::vector<Op> planned;
  recipe::Rng rng(seed);
  const double horizon = seconds * 1e9;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) * 1e9 / rate;
    if (t >= horizon) break;
    arrival.push_back(static_cast<std::uint64_t>(t));
    planned.push_back(ops.next());
  }

  OpenLoopResult result;
  result.latency_ns.reserve(arrival.size());
  result.late_ns.reserve(arrival.size());
  recipe::sim::Clock& clock = loop.clock();
  std::uint64_t start = 0;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool finished = false;
  std::promise<void> drained;
  auto finish_if_done = [&] {
    if (next == arrival.size() && outstanding == 0 && !finished) {
      finished = true;
      drained.set_value();
    }
  };
  // Issues every arrival that is due, then sleeps until the next one. A
  // late wakeup issues the backlog at once and records how late each op
  // went out; its latency still counts from the intended time.
  std::function<void()> fire = [&] {
    const std::uint64_t now = clock.now();
    while (next < arrival.size() && start + arrival[next] <= now) {
      const std::uint64_t intended = start + arrival[next];
      result.late_ns.push_back(now - intended);
      ++outstanding;
      const Op op = planned[next++];
      issuer.issue(op, [&, intended](bool) {
        result.latency_ns.push_back(clock.now() - intended);
        --outstanding;
        finish_if_done();
      });
    }
    if (next < arrival.size()) {
      clock.schedule_at(start + arrival[next], [&] { fire(); });
    }
    finish_if_done();
  };
  std::future<void> done = drained.get_future();
  loop.run_sync([&] {
    start = clock.now() + 1'000'000;  // first arrival 1 ms out
    fire();
  });
  if (done.wait_for(std::chrono::duration<double>(seconds) + kDrainBound) !=
      std::future_status::ready) {
    lost_completion("open loop");
  }
  loop.run_sync([&] { result.tally = issuer.take_tally(); });
  return result;
}

bool preload(recipe::transport::TcpTransport& loop, Issuer& issuer,
             std::size_t pipeline) {
  std::uint32_t key = 0;
  pump(
      loop, issuer, pipeline, "preload",
      [&]() -> std::optional<Op> {
        if (key == kKeys) return std::nullopt;
        return Op{true, key++};
      },
      [](bool) {});
  Tally tally;
  loop.run_sync([&] { tally = issuer.take_tally(); });
  return tally.failed == 0 && tally.completed == kKeys;
}

Tally read_back(recipe::transport::TcpTransport& loop, Issuer& issuer,
                std::size_t pipeline) {
  std::uint32_t key = 0;
  pump(
      loop, issuer, pipeline, "read-back",
      [&]() -> std::optional<Op> {
        if (key == kKeys) return std::nullopt;
        return Op{false, key++};
      },
      [](bool) {});
  Tally tally;
  loop.run_sync([&] { tally = issuer.take_tally(); });
  return tally;
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / values.size();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
