#include "layers.h"

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "attest/bundle.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "kvstore/kvstore.h"
#include "kvstore/snapshot.h"
#include "kvstore/wal.h"
#include "load.h"
#include "recipe/security.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace perfbench {

using recipe::as_view;

Scrape Scrape::of(const obs::MetricsRegistry& registry) {
  Scrape out;
  std::istringstream text(registry.render_prometheus());
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      out.families_.insert(rest.substr(0, rest.find(' ')));
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    // Summary quantile lines are not additive across label sets.
    if (line.find("quantile=") != std::string::npos) continue;
    const std::size_t name_end = line.find_first_of("{ ");
    const std::size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) {
      continue;
    }
    out.totals_[line.substr(0, name_end)] +=
        std::stod(line.substr(value_at + 1));
  }
  return out;
}

double Scrape::sum(const std::string& name,
                   std::set<std::string>& missing) const {
  const auto it = totals_.find(name);
  if (it == totals_.end()) {
    // A registered family with no label set yet still exists; a name that
    // was never registered does not.
    if (families_.count(name) == 0) missing.insert(name);
    return 0;
  }
  return it->second;
}

std::uint64_t SpanWindow::count(obs::SpanKind kind) const {
  const auto it = durations.find(kind);
  return it == durations.end() ? 0 : it->second.size();
}

double SpanWindow::p50_us(obs::SpanKind kind) const {
  const auto it = durations.find(kind);
  if (it == durations.end()) return 0;
  return percentile(it->second, 0.5) / 1e3;
}

SpanWindow span_window(const std::vector<obs::FlightRecorder::Event>& events,
                       std::uint64_t phase_begin_ns,
                       std::uint64_t phase_end_ns) {
  // A ring that wrapped lost its oldest events. Every busy (kind, actor)
  // stream is complete only after its earliest surviving event, so the
  // window opens at the latest such start; quiet streams never wrapped.
  constexpr std::size_t kBusy = 100;
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::pair<std::size_t, std::uint64_t>>
      streams;  // (kind, actor) -> (events, earliest t0)
  for (const auto& e : events) {
    auto& s = streams[{static_cast<std::uint64_t>(e.kind), e.actor}];
    s.second = s.first == 0 ? e.t0_ns : std::min(s.second, e.t0_ns);
    ++s.first;
  }
  SpanWindow w;
  w.begin_ns = phase_begin_ns;
  w.end_ns = phase_end_ns;
  for (const auto& [key, s] : streams) {
    if (s.first >= kBusy) w.begin_ns = std::max(w.begin_ns, s.second);
  }
  for (const auto& e : events) {
    if (e.kind == obs::SpanKind::kNone || e.t0_ns < w.begin_ns ||
        e.t1_ns > w.end_ns || e.t1_ns < e.t0_ns) {
      continue;
    }
    w.durations[e.kind].push_back(e.t1_ns - e.t0_ns);
  }
  return w;
}

double percentile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * samples.size());
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[rank]);
}

namespace {

using Clock = std::chrono::steady_clock;

// Median over `rounds` of the mean time per call of `iters` calls, in
// microseconds.
template <typename Fn>
double time_us(std::size_t rounds, std::size_t iters, Fn&& fn) {
  std::vector<double> per_call;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    const std::chrono::duration<double, std::micro> dt = Clock::now() - t0;
    per_call.push_back(dt.count() / static_cast<double>(iters));
  }
  return median(per_call);
}

[[noreturn]] void layer_failed(const char* what) {
  std::fprintf(stderr, "error: isolated %s failed\n", what);
  std::_Exit(2);
}

recipe::Bytes filled(std::size_t n, std::uint64_t salt) {
  recipe::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>('a' + (salt * 131 + i * 7) % 26);
  }
  return out;
}

}  // namespace

IsolatedTimings time_layers(std::size_t value_bytes, bool confidentiality,
                            std::size_t entries_per_commit,
                            const std::string& wal_dir) {
  using namespace recipe;
  IsolatedTimings out;
  const Bytes payload = filled(value_bytes, 1);

  // Security: one shield on the sender and one verify on the receiver, as
  // every frame pays on the wire.
  {
    tee::TeePlatform platform{1};
    tee::Enclave a{platform, "code", 1};
    tee::Enclave b{platform, "code", 2};
    const crypto::SymmetricKey root{Bytes(32, 0x77)};
    if (!a.install_secret(attest::kClusterRootName, root).is_ok() ||
        !b.install_secret(attest::kClusterRootName, root).is_ok()) {
      layer_failed("security provisioning");
    }
    RecipeSecurityConfig config;
    config.confidentiality = confidentiality;
    RecipeSecurity sa(a, NodeId{1}, nullptr, nullptr, config);
    RecipeSecurity sb(b, NodeId{2}, nullptr, nullptr, config);
    out.shield_verify_us = time_us(7, 2000, [&](std::size_t) {
      auto wire = sa.shield(NodeId{2}, ViewId{1}, as_view(payload));
      if (!wire) layer_failed("shield");
      if (!sb.verify(NodeId{1}, as_view(wire.value()))) layer_failed("verify");
    });
  }

  // KvStore at the workload's key count and value size.
  kv::KvConfig kv_config;
  if (confidentiality) {
    kv_config.value_encryption_key = crypto::SymmetricKey{Bytes(32, 0x44)};
  }
  kv::KvStore store(kv_config);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    store.write(key_name(k), as_view(payload));
  }
  std::vector<std::string> keys;
  {
    Rng rng(7);
    ZipfianGenerator zipf(kKeys, kZipfTheta);
    for (std::size_t i = 0; i < 4096; ++i) {
      keys.push_back(key_name(static_cast<std::uint32_t>(zipf.next(rng))));
    }
  }
  out.kvstore_put_us = time_us(7, 4096, [&](std::size_t i) {
    if (!store.write(keys[i], as_view(payload))) layer_failed("kvstore put");
  });
  out.kvstore_get_us = time_us(7, 4096, [&](std::size_t i) {
    if (!store.get(keys[i])) layer_failed("kvstore get");
  });

  // One compaction seals the whole store.
  const crypto::SymmetricKey sealing{Bytes(32, 0x5E)};
  std::uint64_t version = 0;
  out.wal_compaction_ms =
      time_us(5, 1, [&](std::size_t) {
        const Bytes sealed = kv::seal_snapshot(store, sealing, ++version);
        if (sealed.empty()) layer_failed("seal_snapshot");
      }) /
      1e3;

  // Group commit over real files: `entries_per_commit` appends, one commit.
  {
    kv::FileWalStorage storage(wal_dir);
    kv::Wal wal(storage, sealing, /*boot_epoch=*/1);
    std::uint64_t ts = 0;
    out.wal_append_commit_us = time_us(5, 100, [&](std::size_t i) {
      for (std::size_t e = 0; e < entries_per_commit; ++e) {
        wal.append(keys[(i * entries_per_commit + e) % keys.size()],
                   as_view(payload), kv::Timestamp{++ts, 1});
      }
      if (!wal.commit()) layer_failed("wal commit");
    });
  }
  return out;
}

HostCpu HostCpu::now() {
  HostCpu out;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t ticks = 0;
    stat >> ticks;
    out.total += ticks;
    if (field == 7) out.steal = ticks;
  }
  return out;
}

double HostCpu::steal_since(const HostCpu& earlier) const {
  const std::uint64_t dt = total - earlier.total;
  return dt > 0 ? static_cast<double>(steal - earlier.steal) / dt : 0.0;
}

bool print_environment(const std::string& wal_dir) {
  std::string cpu = "unknown";
  {
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  utsname uts{};
  uname(&uts);
  // Filesystem magic numbers from statfs(2).
  static const std::map<unsigned long, const char*> kFilesystems = {
      {0xEF53, "ext4"},
      {0x01021994, "tmpfs"},
      {0x794C7630, "overlayfs"},
      {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},
  };
  std::string fs = "unknown";
  struct statfs st {};
  if (statfs(wal_dir.c_str(), &st) == 0) {
    const auto type = static_cast<unsigned long>(st.f_type);
    const auto it = kFilesystems.find(type);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%lx", type);
    fs = it != kFilesystems.end() ? it->second : hex;
  }
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  std::printf("env nproc=%ld cpu=\"%s\" kernel=%s %s build=%s%s wal_fs=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu.c_str(), uts.sysname,
              uts.release, optimized ? "optimized" : "UNOPTIMIZED",
              assertions ? "+ASSERTIONS" : "", fs.c_str());
  if (!optimized || assertions) {
    std::printf("env WARNING: this build's timings do not describe the "
                "shipped program\n");
  }
  return optimized && !assertions;
}

}  // namespace perfbench
