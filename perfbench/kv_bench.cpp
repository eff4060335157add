// kv_bench: the replicated KV store end to end over loopback TCP.
//
// A 3-replica chain-replication group (cluster::TcpCluster) runs shielded,
// with batching on and RTT pacing, which is the shipped fast path; one
// KvClient on the client transport's single loop drives it, so the process
// runs 3 replica loops + 1 client loop. Keys are zipfian over 1,024 keys and
// preloaded before timing.
//
//   kv_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir>
//
// --trace 0 measures the end-to-end metrics with the flight recorder off: a
// closed-loop phase (64 ops in flight) for capacity, an open-loop phase at a
// fixed Poisson rate for latency from each op's intended send time and CPU
// per op, and cold rejoins of the middle replica, on each of several
// freshly stood-up instances. --trace 1 warms up with a short closed loop,
// runs the open loop twice, untraced then traced, reads the counters and
// spans the program exports, and after tearing the cluster down times single
// layers at the workload's sizes. Both check every value read against a
// ledger of acknowledged puts. The last line of output is one JSON object.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/tcp_cluster.h"
#include "layers.h"
#include "load.h"
#include "obs/flight_recorder.h"

namespace {

using namespace perfbench;
using recipe::cluster::TcpCluster;
using recipe::cluster::TcpClusterOptions;
using obs::SpanKind;
namespace sim = recipe::sim;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.workdir.empty() &&
         args.seconds > 0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One stood-up group with its client, ledger and issuer.
struct Deployment {
  std::unique_ptr<TcpCluster> cluster;
  recipe::KvClient* client = nullptr;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<Issuer> issuer;

  recipe::transport::TcpTransport& loop() { return cluster->client_home(0); }
};

// Cluster construction, client attach and preload: everything up to the
// first timed op. Returns seconds, or a negative value when preload failed.
double stand_up(Deployment& d, const Workload& w, const std::string& wal_dir) {
  TcpClusterOptions options;
  options.protocol = "cr";
  options.replicas = 3;
  options.secured = true;
  options.confidentiality = w.confidentiality;
  options.batch.enabled = true;
  options.batch.max_count = 16;
  options.batch.max_delay = 50 * sim::kMicrosecond;
  options.batch.rtt_fraction = 0.5;
  options.durable_wal = w.durable_wal;
  options.wal_dir = wal_dir;

  const auto t0 = std::chrono::steady_clock::now();
  d.cluster = std::make_unique<TcpCluster>(options);
  d.client = &d.cluster->add_client(4000);
  d.ledger = std::make_unique<Ledger>(w.value_bytes);
  d.issuer = std::make_unique<Issuer>(*d.client, *d.ledger,
                                      d.cluster->write_coordinator(),
                                      d.cluster->read_replica());
  if (!preload(d.loop(), *d.issuer, kPipeline)) return -1;
  return seconds_since(t0);
}

void tear_down(Deployment& d) {
  d.issuer.reset();
  d.cluster.reset();
  d.ledger.reset();
  d.client = nullptr;
}

// On the 4-vCPU VM this was measured on, a busy process ran 2-3x slower for
// about a second after the machine had been idle. An unmeasured instance
// under closed-loop load absorbs that before anything is timed.
bool warm_up(const Workload& w, const std::string& wal_dir,
             std::uint64_t seed) {
  Deployment d;
  if (stand_up(d, w, wal_dir) < 0) return false;
  OpStream ops(w, seed);
  const Tally t =
      run_closed_loop(d.loop(), *d.issuer, ops, 1.0, kPipeline).tally;
  return t.failed == 0 && t.mismatches == 0;
}

// Replica i's view of every key (verified reads out of its own store).
std::vector<recipe::Bytes> store_contents(TcpCluster& cluster, std::size_t i) {
  std::vector<recipe::Bytes> out(kKeys);
  cluster.run_on(i, [&] {
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      auto got = cluster.node(i).kv().get(key_name(k));
      if (got) out[k] = std::move(got.value().value);
    }
  });
  return out;
}

struct Recovery {
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  Tally reads;                 // re-reads after every rejoin
  std::uint64_t divergent = 0; // keys where the rejoined replica != tail
  std::vector<std::string> errors;
};

// Restarts the middle replica: `warm_cycles` times a clean shutdown then a
// rejoin that must take the warm (local WAL replay) path, then
// `cold_cycles` times a crash then a rejoin that must take the cold
// (re-provision and stream from the head) path. Every key is read back
// through the client and compared between the rejoined replica and the
// tail after each rejoin.
Recovery run_recovery(Deployment& d, std::size_t warm_cycles,
                      std::size_t cold_cycles) {
  constexpr std::size_t kMiddle = 1;
  TcpCluster& cluster = *d.cluster;
  const recipe::NodeId donor = cluster.membership().front();
  Recovery r;
  auto check = [&] {
    r.reads.add(read_back(d.loop(), *d.issuer, kPipeline));
    const auto middle = store_contents(cluster, kMiddle);
    const auto tail = store_contents(cluster, cluster.size() - 1);
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      if (middle[k] != tail[k] || middle[k].empty()) ++r.divergent;
    }
  };
  auto rejoin = [&](bool expect_warm, std::vector<double>& times) {
    bool warm = !expect_warm;
    const auto t0 = std::chrono::steady_clock::now();
    const recipe::Status st =
        cluster.rejoin(kMiddle, donor, 30 * sim::kSecond, &warm);
    times.push_back(seconds_since(t0) * 1e3);
    if (!st.is_ok()) r.errors.push_back("rejoin failed: " + st.message());
    if (warm != expect_warm) {
      r.errors.push_back(expect_warm ? "clean shutdown rejoined cold"
                                     : "crash rejoined warm");
    }
    check();
  };
  for (std::size_t c = 0; c < warm_cycles; ++c) {
    const recipe::Status st = cluster.shutdown_clean(kMiddle);
    if (!st.is_ok()) r.errors.push_back("shutdown_clean: " + st.message());
    rejoin(true, r.warm_ms);
  }
  for (std::size_t c = 0; c < cold_cycles; ++c) {
    cluster.crash(kMiddle);
    rejoin(false, r.cold_ms);
  }
  return r;
}

// Registries of every replica and of the client transport, read together.
struct Scrapes {
  std::vector<Scrape> replica;
  Scrape client;
};

Scrapes scrape_all(TcpCluster& cluster) {
  Scrapes s;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    s.replica.push_back(Scrape::of(cluster.metrics(i)));
  }
  s.client = Scrape::of(cluster.client_metrics());
  return s;
}

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit,
              const std::string& note = {}) {
    std::printf("metric %-32s %14.4f %-6s%s%s\n", name.c_str(), value, unit,
                note.empty() ? "" : "  ", note.c_str());
    json_ += json_.empty() ? "" : ", ";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name.c_str(), value, unit);
    json_ += buf;
  }
  // Also on stderr, where a caller that keeps only the result line of
  // stdout still sees why the run is not correct.
  void fail(const std::string& why) {
    std::printf("check FAILED: %s\n", why.c_str());
    std::fprintf(stderr, "check FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  void finish(const Tally& total) {
    const std::uint64_t failed = total.failed + total.mismatches;
    std::printf("ops attempted=%llu completed=%llu failed=%llu mismatches=%llu "
                "failed_frac=%.6f\n",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.completed),
                static_cast<unsigned long long>(total.failed),
                static_cast<unsigned long long>(total.mismatches),
                total.attempted ? static_cast<double>(failed) / total.attempted
                                : 0.0);
    if (failed != 0) fail("operations failed or read wrong values");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    1, total.attempted)),
                static_cast<unsigned long long>(failed), json_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string json_;
  bool correct_ = true;
};

// Generator health, from how late each op went out. A stall of the client
// loop delays a burst of ops, whose latency still counts from the intended
// time. The generator fell behind, and the offered load was not the one
// configured, when the typical op went out late or 1% of them went out
// more than 100 ms late; that phase is then invalid. A stall of the whole
// guest (a shared host) does this too, without any fault of the program, so
// an invalid phase is measured again on the same inputs, up to
// kMaxRepeats times in a run, before the run is failed.
constexpr double kMaxLateP50Us = 1000;
constexpr double kMaxLateP99Us = 100000;
constexpr int kMaxRepeats = 4;

struct GenHealth {
  double late_p50_us = 0;
  double late_p99_us = 0;
  bool behind = false;
};

GenHealth generator_health(const char* phase,
                           const std::vector<std::uint64_t>& late_ns) {
  GenHealth h;
  h.late_p50_us = percentile(late_ns, 0.5) / 1e3;
  h.late_p99_us = percentile(late_ns, 0.99) / 1e3;
  h.behind = h.late_p50_us > kMaxLateP50Us || h.late_p99_us > kMaxLateP99Us;
  std::printf("gen %s issued=%zu late_p50=%.1fus late_p99=%.1fus%s\n", phase,
              late_ns.size(), h.late_p50_us, h.late_p99_us,
              h.behind ? "  (fell behind)" : "");
  return h;
}

// Counts one invalid phase; false once the run has used up its repeats.
bool may_repeat(const char* phase, int& repeats, Report& report) {
  if (repeats == kMaxRepeats) {
    report.fail(std::string("open-loop generator fell behind its schedule ") +
                std::to_string(kMaxRepeats + 1) + " times");
    return false;
  }
  ++repeats;
  std::fprintf(stderr, "note: %s: open-loop generator fell behind, phase "
               "measured again\n", phase);
  return true;
}

void print_latency(const char* phase, const OpenLoopResult& open) {
  std::printf("%s latency from intended send: p50=%.1fus p99=%.1fus "
              "(n=%zu)\n",
              phase, percentile(open.latency_ns, 0.5) / 1e3,
              percentile(open.latency_ns, 0.99) / 1e3, open.latency_ns.size());
}

// Frames the replicas' security layers rejected; any is a failure.
double check_security(TcpCluster& cluster, Report& report,
                      std::set<std::string>& missing) {
  static const char* kRejected[] = {
      "recipe_security_rejected_auth_total",
      "recipe_security_rejected_replay_total",
      "recipe_security_rejected_view_total",
      "recipe_security_rejected_overflow_total"};
  double total = 0;
  const Scrapes s = scrape_all(cluster);
  for (const Scrape& r : s.replica) {
    for (const char* name : kRejected) total += r.sum(name, missing);
  }
  if (total != 0) report.fail("security layer rejected frames");
  return total;
}

// --trace 0: end-to-end metrics. The run stands the group up several times
// and measures a slice of every phase on each instance: capacity differs by
// several percent between instances (where the loop threads land on the
// cores), so no single instance decides a metric.
void run_end_to_end(const Args& args, const Workload& w, Report& report) {
  constexpr int kInstances = 10;
  // The first interval of each closed loop is warm-up (connections, RTT
  // pacing) and is not counted.
  constexpr double kWarmupS = 0.25;
  const double closed_s =
      kWarmupS + std::max(0.25, 0.4 * args.seconds / kInstances);
  const double open_s = 0.6 * args.seconds / kInstances;
  // Per instance: set-up, closed-loop rate, open-loop p50 and CPU per op.
  std::vector<double> setups, rates, p50s, cpus, cold_ms, warm_ms;
  std::vector<std::uint64_t> latency_ns, late_ns;
  Tally total;
  if (!warm_up(w, args.workdir + "/wal/warm-up", args.seed)) {
    report.fail("warm-up failed");
  }
  OpStream closed_ops(w, args.seed);
  int repeats = 0;
  for (int i = 0; i < kInstances && report.correct(); ++i) {
    Deployment d;
    const HostCpu host0 = HostCpu::now();
    const std::string label = "instance " + std::to_string(i);
    const double setup = stand_up(
        d, w, args.workdir + "/wal/s" + std::to_string(i) + "." +
                  std::to_string(repeats));
    if (setup < 0) {
      report.fail("preload failed");
      break;
    }

    const ClosedLoopResult closed =
        run_closed_loop(d.loop(), *d.issuer, closed_ops, closed_s, kPipeline);
    total.add(closed.tally);
    const std::vector<double> measured(closed.interval_ops_per_sec.begin() + 1,
                                       closed.interval_ops_per_sec.end());

    // Open-loop inputs depend only on the seed and the instance, never on
    // how many ops the closed loop got through or on repeats.
    OpStream open_ops(w, args.seed * 1000 + 2 * i + 1);
    const double cpu0 = process_cpu_s();
    const OpenLoopResult open =
        run_open_loop(d.loop(), *d.issuer, open_ops, w.open_rate, open_s,
                      args.seed * 1000 + 2 * i + 2);
    const double cpu_s = process_cpu_s() - cpu0;
    total.add(open.tally);
    if (generator_health(label.c_str(), open.late_ns).behind) {
      // Nothing this instance measured is kept; its values are still
      // checked.
      total.add(read_back(d.loop(), *d.issuer, kPipeline));
      if (may_repeat(label.c_str(), repeats, report)) --i;
      continue;
    }
    setups.push_back(setup);
    rates.push_back(mean(measured));
    cpus.push_back(cpu_s * 1e6 /
                   std::max<std::uint64_t>(1, open.tally.completed));
    p50s.push_back(percentile(open.latency_ns, 0.5) / 1e3);
    latency_ns.insert(latency_ns.end(), open.latency_ns.begin(),
                      open.latency_ns.end());
    late_ns.insert(late_ns.end(), open.late_ns.begin(), open.late_ns.end());

    const Recovery rec = run_recovery(d, w.durable_wal ? 1 : 0, 2);
    for (const std::string& e : rec.errors) report.fail(e);
    if (rec.divergent != 0) report.fail("rejoined replica diverged from tail");
    total.add(rec.reads);
    cold_ms.insert(cold_ms.end(), rec.cold_ms.begin(), rec.cold_ms.end());
    warm_ms.insert(warm_ms.end(), rec.warm_ms.begin(), rec.warm_ms.end());

    total.add(read_back(d.loop(), *d.issuer, kPipeline));
    std::set<std::string> missing;
    check_security(*d.cluster, report, missing);
    for (const std::string& m : missing) report.fail("series absent: " + m);
    std::printf("instance %d: setup %.3f s, closed loop %.0f ops/s, open "
                "loop p50 %.1f us, %.1f CPU-us/op, cold rejoin %.2f ms, "
                "host steal %.2f%%\n",
                i, setup, rates.back(), p50s.back(), cpus.back(),
                rec.cold_ms.front(), HostCpu::now().steal_since(host0) * 100);
  }
  if (setups.size() != kInstances) {
    report.finish(total);
    return;
  }

  generator_health("all instances", late_ns);
  const double p99_us = percentile(latency_ns, 0.99) / 1e3;
  std::printf("open loop p99=%.1fus (n=%zu, %zu beyond it)\n", p99_us,
              latency_ns.size(), latency_ns.size() / 100);
  std::printf("rejoin cold_ms median %.2f over %zu", median(cold_ms),
              cold_ms.size());
  if (!warm_ms.empty()) {
    std::printf(", warm_ms median %.2f over %zu", median(warm_ms),
                warm_ms.size());
  }
  std::printf("\n");
  // Medians over instances: a disturbance that hits part of the run moves
  // a few instances, not the metric.
  const std::string over = "median of " + std::to_string(kInstances) +
                           " instances";
  report.metric("throughput_ops_s", median(rates), "ops/s",
                "closed loop, 64 in flight, " + over);
  report.metric("latency_p50_us", median(p50s), "us",
                "open loop at " +
                    std::to_string(static_cast<int>(w.open_rate)) +
                    " ops/s, " + over + ", n=" +
                    std::to_string(latency_ns.size()));
  report.metric("cpu_us_per_op", median(cpus), "us",
                "process CPU over the open loop, " + over);
  report.metric("rejoin_cold_ms", median(cold_ms), "ms",
                "median of " + std::to_string(cold_ms.size()));
  report.metric("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) + " set-ups");
  report.finish(total);
}

// --trace 1: per-layer metrics.
void run_traced(const Args& args, const Workload& w, Report& report) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  Deployment d;
  Tally total;
  if (!warm_up(w, args.workdir + "/wal/warm-up", args.seed) ||
      stand_up(d, w, args.workdir + "/wal/s0") < 0) {
    report.fail("warm-up or preload failed");
    report.finish(total);
    return;
  }
  OpStream closed_ops(w, args.seed);
  // A short closed loop first, as in --trace 0, so both open-loop phases
  // start from a warm group.
  total.add(run_closed_loop(d.loop(), *d.issuer, closed_ops, 0.2 * args.seconds,
                            kPipeline)
                .tally);
  const double half = 0.4 * args.seconds;

  TcpCluster& cluster = *d.cluster;
  OpenLoopResult plain, traced;
  double cpu_plain = 0, cpu_traced = 0, late_p99_us = 0;
  Scrapes before, after;
  recipe::Histogram client_latency;
  SpanWindow spans;
  for (int repeats = 0;;) {
    OpStream open_ops(w, args.seed * 1000 + 1);
    double cpu0 = process_cpu_s();
    plain = run_open_loop(d.loop(), *d.issuer, open_ops, w.open_rate, half,
                          args.seed * 1000 + 2);
    cpu_plain = (process_cpu_s() - cpu0) /
                std::max<std::uint64_t>(1, plain.tally.completed);
    total.add(plain.tally);
    print_latency("untraced open loop", plain);
    const bool plain_behind =
        generator_health("untraced", plain.late_ns).behind;

    // The traced phase: registries are read before and after it, the
    // client's own counters restart with it, and the recorder holds only
    // its spans.
    before = scrape_all(cluster);
    d.loop().run_sync([&] { d.client->reset_stats(); });
    recorder.clear();
    recorder.set_enabled(true);
    const std::uint64_t t_begin = obs::FlightRecorder::now_ns();
    cpu0 = process_cpu_s();
    traced = run_open_loop(d.loop(), *d.issuer, open_ops, w.open_rate, half,
                           args.seed * 1000 + 3);
    cpu_traced = (process_cpu_s() - cpu0) /
                 std::max<std::uint64_t>(1, traced.tally.completed);
    recorder.set_enabled(false);
    const std::uint64_t t_end = obs::FlightRecorder::now_ns();
    after = scrape_all(cluster);
    client_latency = d.client->latency_us();
    spans = span_window(recorder.snapshot(), t_begin, t_end);
    total.add(traced.tally);
    print_latency("traced open loop", traced);
    const GenHealth gen = generator_health("traced", traced.late_ns);
    late_p99_us = gen.late_p99_us;
    // Both phases are measured again when either fell behind: the
    // overhead ratio compares the two.
    if (!plain_behind && !gen.behind) break;
    if (!may_repeat("untraced and traced", repeats, report)) break;
  }

  const Recovery rec = run_recovery(d, w.durable_wal ? 3 : 0, 3);
  for (const std::string& e : rec.errors) report.fail(e);
  if (rec.divergent != 0) report.fail("rejoined replica diverged from tail");
  total.add(rec.reads);
  total.add(read_back(d.loop(), *d.issuer, kPipeline));

  std::set<std::string> missing;
  const double rejected = check_security(cluster, report, missing);
  // Registry-side medians of the same intervals the apply and WAL spans
  // time, printed next to them.
  const double apply_hist_p50 = static_cast<double>(
      cluster.metrics(0).histogram_value("recipe_node_apply_us").percentile(
          0.5));
  std::vector<double> commit_hist_p50;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    commit_hist_p50.push_back(static_cast<double>(
        cluster.metrics(i).histogram_value("recipe_wal_commit_us")
            .percentile(0.5)));
  }
  tear_down(d);

  const double ops_done =
      static_cast<double>(std::max<std::uint64_t>(1, traced.tally.completed));
  auto replicas_delta = [&](const std::string& name) {
    double v = 0;
    for (std::size_t i = 0; i < after.replica.size(); ++i) {
      v += after.replica[i].sum(name, missing) -
           before.replica[i].sum(name, missing);
    }
    return v;
  };
  auto all_delta = [&](const std::string& name) {
    return replicas_delta(name) + after.client.sum(name, missing) -
           before.client.sum(name, missing);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::printf("spans: the recorder keeps the last %zu events per thread, so "
              "span metrics cover the final %.3f s of the traced phase "
              "(%llu client ops)\n",
              obs::FlightRecorder::kRingSlots,
              (spans.end_ns - spans.begin_ns) / 1e9,
              static_cast<unsigned long long>(
                  spans.count(SpanKind::kClientOp)));

  const double retries =
      after.client.sum("recipe_client_retries_total", missing);
  report.metric("client.retries_per_kop", retries * 1e3 / ops_done, "1/kop");
  report.metric("rpc.timeouts_per_kop",
                replicas_delta("recipe_rpc_timeouts_total") * 1e3 / ops_done,
                "1/kop");
  report.metric("security.frames_per_op",
                replicas_delta("recipe_transport_packets_delivered_total") /
                    ops_done,
                "1/op", "frames verified by replicas");
  report.metric("security.verify_p50_us", spans.p50_us(SpanKind::kVerify), "us",
                "span, n=" + std::to_string(spans.count(SpanKind::kVerify)));
  report.metric("security.rejected_total", rejected, "count");
  const double flushes = replicas_delta("recipe_batch_flushes_total");
  report.metric("batch.msgs_per_flush",
                ratio(replicas_delta("recipe_batch_messages_total"), flushes),
                "1/flush");
  report.metric("batch.timer_flush_frac",
                ratio(replicas_delta("recipe_batch_flushes_by_timer_total"),
                      flushes),
                "ratio");
  report.metric("batch.queue_wait_p50_us",
                spans.p50_us(SpanKind::kBatchQueueWait), "us",
                "span, n=" +
                    std::to_string(spans.count(SpanKind::kBatchQueueWait)));
  report.metric("transport.packets_per_op",
                all_delta("recipe_transport_packets_sent_total") / ops_done,
                "1/op");
  report.metric("transport.bytes_per_op",
                all_delta("recipe_transport_bytes_sent_total") / ops_done,
                "B/op");
  report.metric("transport.writes_per_op",
                ratio(static_cast<double>(spans.count(SpanKind::kSocketWrite)),
                      static_cast<double>(spans.count(SpanKind::kClientOp))),
                "1/op", "span counts");
  report.metric("transport.socket_write_p50_us",
                spans.p50_us(SpanKind::kSocketWrite), "us",
                "span, n=" +
                    std::to_string(spans.count(SpanKind::kSocketWrite)));
  char note[96];
  std::snprintf(note, sizeof(note), "span; registry head p50 %.0f us",
                apply_hist_p50);
  report.metric("node.apply_p50_us", spans.p50_us(SpanKind::kApply), "us",
                note);
  report.metric("node.committed_per_op",
                replicas_delta("recipe_node_committed_ops_total") / ops_done,
                "1/op");
  // Replicas in chain order; the isolated WAL timing below commits as
  // many entries per record as the busiest of them did.
  static const char* kRole[] = {"head", "middle", "tail"};
  double max_entries_per_commit = 1;
  for (std::size_t i = 0; i < after.replica.size(); ++i) {
    auto delta = [&](const char* name) {
      return after.replica[i].sum(name, missing) -
             before.replica[i].sum(name, missing);
    };
    const double per_commit = ratio(delta("recipe_wal_entries_total"),
                                    delta("recipe_wal_group_commits_total"));
    max_entries_per_commit = std::max(max_entries_per_commit, per_commit);
    report.metric(std::string("wal.entries_per_commit.") + kRole[i],
                  per_commit, "1/commit");
  }
  std::snprintf(note, sizeof(note),
                "span; registry p50 head/middle/tail %.0f/%.0f/%.0f us",
                commit_hist_p50[0], commit_hist_p50[1], commit_hist_p50[2]);
  report.metric("wal.commit_p50_us", spans.p50_us(SpanKind::kWalGroupCommit),
                "us", note);
  report.metric("wal.compactions_per_kop",
                replicas_delta("recipe_wal_compactions_total") * 1e3 / ops_done,
                "1/kop");
  report.metric("rejoin_warm_ms", median(rec.warm_ms), "ms",
                rec.warm_ms.empty() ? "no WAL: warm rejoin bypassed"
                                    : "median of " +
                                          std::to_string(rec.warm_ms.size()));
  report.metric("gen.late_p99_us", late_p99_us, "us");
  report.metric("trace.overhead_ratio", ratio(cpu_traced, cpu_plain), "ratio",
                "traced / untraced CPU per op");
  report.metric("client.op_p99_us",
                static_cast<double>(client_latency.percentile(0.99)), "us",
                "client histogram, n=" +
                    std::to_string(client_latency.count()));
  for (const std::string& m : missing) report.fail("series absent: " + m);

  // Single layers in isolation, after the cluster is gone, at the sizes the
  // traced run measured; the in-situ span medians are above.
  const auto entries_per_commit =
      static_cast<std::size_t>(max_entries_per_commit + 0.5);
  const IsolatedTimings iso =
      time_layers(w.value_bytes, w.confidentiality, entries_per_commit,
                  args.workdir + "/wal/isolated");
  std::printf("isolated vs in situ: shield+verify %.2f us vs verify span "
              "%.2f us; wal append+commit (%zu entries) %.2f us vs commit "
              "span %.2f us\n",
              iso.shield_verify_us, spans.p50_us(SpanKind::kVerify),
              entries_per_commit, iso.wal_append_commit_us,
              spans.p50_us(SpanKind::kWalGroupCommit));
  report.metric("security.shield_verify_us", iso.shield_verify_us, "us",
                "isolated");
  report.metric("wal.append_commit_us", iso.wal_append_commit_us, "us",
                "isolated, " + std::to_string(entries_per_commit) +
                    " entries per commit");
  report.metric("wal.compaction_ms", iso.wal_compaction_ms, "ms",
                "isolated, seal_snapshot of 1024 keys");
  report.metric("kvstore.get_us", iso.kvstore_get_us, "us", "isolated");
  report.metric("kvstore.put_us", iso.kvstore_put_us, "us", "isolated");
  report.finish(total);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: kv_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir>\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(args.workdir + "/wal");
  std::filesystem::create_directories(args.workdir + "/wal");
  // The recorder defaults on; only the traced phase switches it back on.
  obs::FlightRecorder::global().set_enabled(false);

  std::printf("workload %s seed %llu seconds %.1f trace %d: %.0f%% puts, %zu B "
              "values%s%s, open loop %.0f ops/s\n",
              w->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, w->put_fraction * 100, w->value_bytes,
              w->confidentiality ? ", confidentiality" : "",
              w->durable_wal ? ", durable WAL" : "", w->open_rate);
  Report report;
  if (!print_environment(args.workdir + "/wal")) {
    report.fail("build is not optimised or has assertions on");
  }
  if (args.trace) {
    run_traced(args, *w, report);
  } else {
    run_end_to_end(args, *w, report);
  }
  std::filesystem::remove_all(args.workdir + "/wal");
  return 0;
}
