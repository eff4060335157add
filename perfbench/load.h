// Load side of the replicated-KV benchmark: the workload table, the seeded
// op stream, the correctness ledger and the two load generators (a closed
// loop with a fixed number of ops in flight and an open loop at a fixed
// Poisson rate). Both run every callback on the client's home event loop, so
// the client, the ledger and the generator state are touched by one thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "recipe/client.h"
#include "transport/tcp_transport.h"

namespace perfbench {

using recipe::Bytes;
using recipe::BytesView;
using recipe::NodeId;

struct Workload {
  const char* name;
  double put_fraction;       // the rest are gets
  std::size_t value_bytes;
  bool confidentiality;      // ChaCha20 over values
  bool durable_wal;          // sealed group-commit WAL on files
  double open_rate;          // offered ops/s of the open-loop phase
};

// Null for an unknown name.
const Workload* find_workload(const std::string& name);

constexpr std::size_t kKeys = 1024;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kPipeline = 64;

std::string key_name(std::uint32_t key);

struct Op {
  bool put;
  std::uint32_t key;
};

// Zipfian keys and the workload's put/get mix, from a seed: the same seed
// gives the same op sequence.
class OpStream {
 public:
  OpStream(const Workload& workload, std::uint64_t seed);
  Op next();

 private:
  double put_fraction_;
  recipe::Rng rng_;
  recipe::ZipfianGenerator zipf_;
};

// Every put writes a value that names its key and a sequence number (the
// order puts were issued in), padded with filler derived from both. The
// ledger remembers when each put was acknowledged, so any read can be
// classified: a value is stale when another put to the key was issued after
// it was acknowledged and was itself acknowledged before the read was
// issued. Reads concurrent with puts may return either side.
class Ledger {
 public:
  explicit Ledger(std::size_t value_bytes) : value_bytes_(value_bytes) {}

  // Encodes the value of a new put to `key`; returns its sequence number.
  std::uint64_t begin_put(std::uint32_t key, Bytes& value);
  // `ok` false leaves the put ambiguous: it may or may not have applied.
  void end_put(std::uint32_t key, std::uint64_t seq, bool ok);
  // The key's newest acknowledged put, taken when a get is issued.
  std::uint64_t watermark(std::uint32_t key) const;
  // True when `value` is a well-formed value of `key` that a read issued at
  // `watermark` may return.
  bool read_ok(std::uint32_t key, BytesView value,
               std::uint64_t watermark) const;

 private:
  static constexpr std::uint64_t kPending = ~0ULL;
  static constexpr std::uint64_t kAmbiguous = ~0ULL - 1;
  static constexpr std::uint64_t kNone = ~0ULL;

  std::size_t value_bytes_;
  // Per put: how many puts had been issued when it was acknowledged.
  std::vector<std::uint64_t> ack_point_;
  std::vector<std::uint64_t> newest_acked_ =
      std::vector<std::uint64_t>(kKeys, kNone);
};

// Success, failure and correctness counts of one phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // acknowledged ok
  std::uint64_t failed = 0;     // failed or refused by the client
  std::uint64_t mismatches = 0; // reads that returned a wrong value
  void add(const Tally& other);
};

// Issues single ops through one KvClient: puts to the chain head, gets to
// the tail. Loop-thread only.
class Issuer {
 public:
  Issuer(recipe::KvClient& client, Ledger& ledger, NodeId head, NodeId tail)
      : client_(client), ledger_(ledger), head_(head), tail_(tail) {}

  // `done(ok)` runs on the loop once the op completed; `ok` is false for a
  // failed op and for a read that returned a wrong value.
  void issue(const Op& op, std::function<void(bool ok)> done);
  Tally take_tally();

 private:
  recipe::KvClient& client_;
  Ledger& ledger_;
  NodeId head_;
  NodeId tail_;
  Tally tally_;
};

struct ClosedLoopResult {
  // Completion rate of each 250 ms interval.
  std::vector<double> interval_ops_per_sec;
  Tally tally;
};

// Keeps `pipeline` ops in flight for `seconds`, then drains.
ClosedLoopResult run_closed_loop(recipe::transport::TcpTransport& loop,
                                 Issuer& issuer, OpStream& ops, double seconds,
                                 std::size_t pipeline);

struct OpenLoopResult {
  // Latency of each completed op from its intended send time, and how late
  // the generator issued each op, both in nanoseconds.
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> late_ns;
  Tally tally;
};

// Fires ops at precomputed Poisson arrival times (`rate` per second for
// `seconds`) through the loop's own timer queue; `seed` fixes the arrivals.
OpenLoopResult run_open_loop(recipe::transport::TcpTransport& loop,
                             Issuer& issuer, OpStream& ops, double rate,
                             double seconds, std::uint64_t seed);

// A load phase whose ops do not all complete within a generous bound ends
// the process with exit code 2 and no result: a lost completion is a bug,
// and its callback could otherwise fire into freed generator state.

// Writes every key once with `pipeline` puts in flight; false when any put
// failed.
bool preload(recipe::transport::TcpTransport& loop, Issuer& issuer,
             std::size_t pipeline);

// Reads every key back with `pipeline` gets in flight and checks each value
// against the ledger; the tally counts mismatches and missing keys.
Tally read_back(recipe::transport::TcpTransport& loop, Issuer& issuer,
                std::size_t pipeline);

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

}  // namespace perfbench
