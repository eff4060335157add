// Per-layer side of the replicated-KV benchmark: reads of the counters the
// program already exports (metrics registries), summaries of the flight
// recorder's spans, isolated timings of single layers, and the environment
// stamp printed with every run.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace perfbench {

// One scrape of a registry, parsed from its Prometheus rendering so every
// series is read under its real label sets (a read with the wrong labels
// would return 0, not an error).
class Scrape {
 public:
  static Scrape of(const obs::MetricsRegistry& registry);

  // Sum over every label set of `name`. A name the registry never
  // registered is added to `missing` and reads 0, so the caller can fail
  // the run instead of reporting a silent zero.
  double sum(const std::string& name,
             std::set<std::string>& missing) const;

 private:
  std::map<std::string, double> totals_;  // name -> sum over label sets
  std::set<std::string> families_;        // names from "# TYPE" lines
};

// Durations (ns) and counts of the spans whose start falls in the window
// every busy recorder ring still covers. Each thread keeps only its last
// FlightRecorder::kRingSlots events, so the window is the tail of the traced
// phase: the span metrics describe its final ops.
struct SpanWindow {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::map<obs::SpanKind, std::vector<std::uint64_t>> durations;

  std::uint64_t count(obs::SpanKind kind) const;
  // Median duration in microseconds, 0 when the kind has no span.
  double p50_us(obs::SpanKind kind) const;
};

SpanWindow span_window(const std::vector<obs::FlightRecorder::Event>& events,
                       std::uint64_t phase_begin_ns,
                       std::uint64_t phase_end_ns);

// Timings of single layers outside the cluster, at a workload's sizes.
struct IsolatedTimings {
  double shield_verify_us = 0;  // RecipeSecurity shield + verify, one frame
  double wal_append_commit_us = 0;  // Wal::append x entries + commit
  double wal_compaction_ms = 0;     // seal_snapshot of the whole store
  double kvstore_get_us = 0;
  double kvstore_put_us = 0;
};

// `wal_dir` must be a fresh directory; `entries_per_commit` >= 1.
IsolatedTimings time_layers(std::size_t value_bytes, bool confidentiality,
                            std::size_t entries_per_commit,
                            const std::string& wal_dir);

// Prints nproc, CPU model, kernel, build flags and the filesystem under
// `wal_dir`; returns false for a build without optimisation or with
// assertions on (its timings do not describe the shipped program).
bool print_environment(const std::string& wal_dir);

// Host-wide CPU time from /proc/stat, in clock ticks: everything, and the
// part the hypervisor gave to other guests while this one wanted to run.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static HostCpu now();
  // Share of host CPU time stolen between `earlier` and this sample.
  double steal_since(const HostCpu& earlier) const;
};

// Exact percentile (nearest rank) of raw samples; 0 for none.
double percentile(std::vector<std::uint64_t> samples, double q);

}  // namespace perfbench
