// Unified observability layer: registry aggregation (including the
// N-writers-vs-scraper exactness contract), flight-recorder rings, the
// admin endpoint's HTTP surface, and the TcpCluster end-to-end wiring
// (every subsystem's series present on a live replica's /metrics).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/tcp_cluster.h"
#include "obs/admin.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterCellsSumAtScrape) {
  MetricsRegistry registry;
  Counter a = registry.counter("ops_total");
  Counter b = registry.counter("ops_total");  // fresh cell, same series
  a.inc();
  a.inc(4);
  b.inc(10);
  EXPECT_EQ(a.value(), 5u);  // per-handle view
  EXPECT_EQ(registry.counter_value("ops_total"), 15u);
}

TEST(MetricsRegistryTest, LabelsSeparateSeries) {
  MetricsRegistry registry;
  registry.counter("x_total", "shard=\"0\"").inc(3);
  registry.counter("x_total", "shard=\"1\"").inc(7);
  EXPECT_EQ(registry.counter_value("x_total", "shard=\"0\""), 3u);
  EXPECT_EQ(registry.counter_value("x_total", "shard=\"1\""), 7u);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("x_total{shard=\"0\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("x_total{shard=\"1\"} 7"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, GaugeAndCallbackSeries) {
  MetricsRegistry registry;
  Gauge g = registry.gauge("depth");
  g.set(42);
  g.add(-2);
  EXPECT_EQ(registry.gauge_value("depth"), 40);

  std::atomic<std::uint64_t> backing{7};
  {
    CallbackHandle handle = registry.on_counter(
        "cb_total", {}, [&backing] { return backing.load(); });
    EXPECT_EQ(registry.counter_value("cb_total"), 7u);
    backing = 9;
    EXPECT_EQ(registry.counter_value("cb_total"), 9u);
  }
  // Handle destroyed: the callback is gone, the series reads 0.
  EXPECT_EQ(registry.counter_value("cb_total"), 0u);
}

TEST(MetricsRegistryTest, HistogramRendersSummarySeries) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("lat_us");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const recipe::Histogram merged = registry.histogram_value("lat_us");
  EXPECT_EQ(merged.count(), 100u);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("lat_us{quantile=\"0.5\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_sum"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_count 100"), std::string::npos) << text;
  // 3 quantiles + _sum + _count.
  EXPECT_EQ(registry.series_count(), 5u);
}

TEST(MetricsRegistryTest, DisabledRegistryVendsNoopHandles) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter c = registry.counter("never_total");
  Histogram h = registry.histogram("never_us");
  EXPECT_FALSE(static_cast<bool>(c));
  c.inc(100);
  h.record(5);
  EXPECT_EQ(registry.counter_value("never_total"), 0u);
  EXPECT_EQ(registry.series_count(), 0u);
  CallbackHandle handle =
      registry.on_counter("cb_total", {}, [] { return 1ull; });
  EXPECT_EQ(registry.counter_value("cb_total"), 0u);
}

TEST(MetricsRegistryTest, DetachedHandlesCountButNeverScrape) {
  Counter c = Counter::detached();
  Histogram h = Histogram::detached();
  c.inc(3);
  h.record(8);
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(h.value().count(), 1u);
}

// The exactness contract: N threads hammer one series through private
// cells while a scraper reads concurrently (TSan-clean by construction);
// after joining the writers, the scrape is EXACT — thread join gives the
// reader a happens-before edge over every relaxed increment.
TEST(MetricsRegistryTest, ConcurrentWritersExactAfterJoin) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;

  std::atomic<bool> stop_scraper{false};
  std::thread scraper([&] {
    // Concurrent scrapes must be torn-free per cell and never crash; the
    // running total is only monotone per-cell, so just exercise the path.
    while (!stop_scraper.load()) {
      (void)registry.counter_value("hammer_total");
      (void)registry.histogram_value("hammer_us").count();
      (void)registry.render_prometheus();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry] {
      Counter c = registry.counter("hammer_total");
      Histogram h = registry.histogram("hammer_us");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(i % 1024);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_scraper = true;
  scraper.join();

  EXPECT_EQ(registry.counter_value("hammer_total"), kThreads * kPerThread);
  const recipe::Histogram merged = registry.histogram_value("hammer_us");
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_EQ(merged.max(), 1023u);
}

TEST(FlightRecorderTest, RecordAndSnapshot) {
  FlightRecorder recorder;
  recorder.record(SpanKind::kVerify, 42, 7, 100, 250, 64);
  recorder.record(SpanKind::kApply, 42, 7, 50, 90, 1);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by t0.
  EXPECT_EQ(events[0].kind, SpanKind::kApply);
  EXPECT_EQ(events[1].kind, SpanKind::kVerify);
  EXPECT_EQ(events[1].rpc_id, 42u);
  EXPECT_EQ(events[1].detail, 64u);

  const std::string json = recorder.dump_json();
  EXPECT_NE(json.find("\"kind\":\"verify\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rpc_id\":42"), std::string::npos) << json;

  recorder.clear();
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorderTest, RingWrapsKeepsNewest) {
  FlightRecorder recorder;
  const std::size_t n = FlightRecorder::kRingSlots + 100;
  for (std::size_t i = 1; i <= n; ++i) {
    recorder.record(SpanKind::kShield, i, 0, i, i + 1, 0);
  }
  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(), FlightRecorder::kRingSlots);
  // The oldest 100 were overwritten: every surviving t0 is > 100.
  for (const auto& e : events) EXPECT_GT(e.t0_ns, 100u);
}

TEST(FlightRecorderTest, DisabledSpanRecordsNothing) {
  FlightRecorder& global = FlightRecorder::global();
  global.clear();
  global.set_enabled(false);
  {
    Span span(SpanKind::kVerify, 1, 2);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(global.snapshot().empty());
  global.set_enabled(true);
  {
    Span span(SpanKind::kVerify, 1, 2);
    EXPECT_TRUE(span.active());
    span.set_detail(9);
  }
  const auto events = global.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, 9u);
  EXPECT_GE(events[0].t1_ns, events[0].t0_ns);
  global.clear();
}

TEST(FlightRecorderTest, ConcurrentWritersOneRingEach) {
  FlightRecorder recorder;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;  // < kRingSlots: nothing drops
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record(SpanKind::kSocketWrite,
                        static_cast<std::uint64_t>(t) * kPerThread + i, t, i,
                        i + 1, 0);
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(recorder.snapshot().size(), kThreads * kPerThread);
}

// Minimal HTTP GET against a loopback port; returns the full response.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

TEST(AdminServerTest, ServesMetricsTraceAndHealth) {
  MetricsRegistry registry;
  registry.counter("admin_test_total").inc(21);
  FlightRecorder recorder;
  recorder.record(SpanKind::kWalGroupCommit, 5, 1, 10, 20, 3);

  AdminServer::Options options;
  options.port = 0;
  options.metrics = &registry;
  options.recorder = &recorder;
  options.name = "test-replica";
  AdminServer server(options);
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("admin_test_total 21"), std::string::npos) << metrics;

  const std::string trace = http_get(server.port(), "/trace");
  EXPECT_NE(trace.find("\"kind\":\"wal_group_commit\""), std::string::npos)
      << trace;

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("ok"), std::string::npos) << health;
  EXPECT_NE(health.find("test-replica"), std::string::npos) << health;

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
}

// End-to-end: a live TcpCluster replica serves >= 30 distinct series
// spanning transport, security, batcher, WAL, rpc and protocol — the PR's
// introspection acceptance bar — and committed-ops moves under load.
TEST(ObsClusterTest, AdminEndpointServesFullRegistry) {
  recipe::cluster::TcpClusterOptions options;
  options.protocol = "cr";
  options.replicas = 3;
  options.secured = true;
  options.batch.enabled = true;
  options.admin_port = 0;  // ephemeral per replica
  recipe::cluster::TcpCluster cluster(options);
  recipe::KvClient& client = cluster.add_client(3000);

  for (int i = 0; i < 20; ++i) {
    const auto reply =
        cluster.put(client, "obs" + std::to_string(i % 4), "v");
    ASSERT_TRUE(reply.ok);
  }

  ASSERT_GT(cluster.admin_port(0), 0);
  const std::string scrape = http_get(cluster.admin_port(0), "/metrics");
  // One representative series per subsystem.
  for (const char* name : {
           "recipe_transport_packets_sent_total",   // transport
           "recipe_security_rejected_auth_total",   // security
           "recipe_batch_messages_total",           // batcher
           "recipe_wal_group_commits_total",        // WAL
           "recipe_rpc_requests_total",             // rpc
           "recipe_node_committed_ops_total",       // protocol
           "recipe_node_apply_us_count",            // histogram exposition
       }) {
    EXPECT_NE(scrape.find(name), std::string::npos)
        << "missing " << name << " in:\n"
        << scrape;
  }
  EXPECT_GE(cluster.metrics(0).series_count(), 30u)
      << cluster.metrics(0).render_prometheus();

  // The coordinator committed the puts; client-side registry moved too.
  EXPECT_GT(cluster.metrics(0).counter_value("recipe_node_committed_ops_total"),
            0u);
  EXPECT_EQ(
      cluster.client_metrics().counter_value("recipe_client_ops_issued_total"),
      20u);
  EXPECT_EQ(cluster.client_metrics()
                .histogram_value("recipe_client_op_latency_us")
                .count(),
            20u);
}

// Hardware-counter use shows in /metrics: one WAL compaction advances
// recipe_tee_counter_advances_total by exactly one.
TEST(ObsClusterTest, CompactionAdvancesTeeCounterByOne) {
  recipe::cluster::TcpClusterOptions options;
  options.protocol = "cr";
  options.replicas = 3;
  options.secured = true;
  options.durable_wal = true;
  options.wal_dir = "wal_dumps/obs_tee_counter";
  options.wal.segment_bytes = 256;  // a compaction every few puts
  options.wal.compact_segments = 1;
  std::filesystem::remove_all(options.wal_dir);  // hermetic across runs
  recipe::cluster::TcpCluster cluster(options);
  recipe::KvClient& client = cluster.add_client(3200);

  // (counter advances, compactions) of replica i, read on its loop so that
  // no group commit is caught half-way.
  auto sample = [&](std::size_t i) {
    std::pair<std::uint64_t, std::uint64_t> out;
    cluster.run_on(i, [&] {
      const MetricsRegistry& m = cluster.metrics(i);
      out = {m.counter_value("recipe_tee_counter_advances_total"),
             m.counter_value("recipe_wal_compactions_total")};
    });
    return out;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> last;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    last.push_back(sample(i));
    EXPECT_GT(last[i].first, 0u) << "opening the WAL reserves a boot epoch";
  }

  std::uint64_t single_compactions = 0;
  for (int op = 0; op < 200 && single_compactions < 3; ++op) {
    ASSERT_TRUE(cluster.put(client, "k" + std::to_string(op % 4), "v").ok);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const auto now = sample(i);
      const std::uint64_t compactions = now.second - last[i].second;
      EXPECT_EQ(now.first - last[i].first, compactions)
          << "replica " << i << " after op " << op;
      if (compactions == 1) ++single_compactions;
      last[i] = now;
    }
  }
  EXPECT_GE(single_compactions, 3u);
}

// metrics=false is the bench's off-mode: disabled registries everywhere,
// but the data plane (and the KvClient's detached bookkeeping) still works.
TEST(ObsClusterTest, MetricsOffStillServesTraffic) {
  recipe::cluster::TcpClusterOptions options;
  options.protocol = "cr";
  options.replicas = 3;
  options.metrics = false;
  recipe::cluster::TcpCluster cluster(options);
  recipe::KvClient& client = cluster.add_client(3100);
  const auto reply = cluster.put(client, "off", "v");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(cluster.metrics(0).series_count(), 0u);
  bool issued_ok = false;
  cluster.client_home(0).run_sync(
      [&] { issued_ok = client.issued() == 1 && client.completed() == 1; });
  EXPECT_TRUE(issued_ok);
}

}  // namespace
}  // namespace obs
