// Shared pieces of the PAST benchmark program: run options, the metric
// report every workload fills, host timing helpers, and the tracing
// wrappers (a timing Transport, a timing StorageEnv, a collecting TraceSink)
// that the traced run installs through the library's public hooks.
//
// The benchmark drives the library only through public functions; nothing
// here reaches into private state.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/past/past_network.h"
#include "src/obs/trace.h"
#include "src/storage/storage_env.h"

namespace perfbench {

// Fault the self-check injects right before a workload's correctness checks;
// kNone in every measured run.
enum class Fault {
  kNone,
  kDropReplica,    // NodeStore::TestOnlyCorruptDropReplica on one replica
  kTamperContent,  // one byte of one expected file body is flipped
  kDropFsync,      // one node's fsyncs lie (FaultEnv::set_drop_fsync_at)
  kLostLookup,     // one extra lookup of a file that was never inserted
};

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Shrinks every workload to a few seconds in total (self-check only).
  bool small = false;
  Fault fault = Fault::kNone;
  // scale-churn: Phase A worker threads.
  size_t jobs = 2;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one workload run reports: metrics in print order, the op counts, and
// every correctness check that failed.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  // Records `what` as a failed check unless `ok`. Returns `ok`.
  bool Check(bool ok, const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Ops that fail on inputs independent of the seed because of a known
  // fault in the program; each is counted in `failed` too.
  std::vector<std::string> known_failures;
  // scale-churn determinism witnesses (empty for the other workloads).
  std::string state_fingerprint;
  std::string schedule_fingerprint;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// The end-to-end metrics, reported by untraced runs.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double insert_p50_us = 0.0;
  double insert_p99_us = 0.0;
  double lookup_p50_us = 0.0;
  double lookup_p99_us = 0.0;
};
// Adds the end-to-end metrics (and peak_rss_mb) in BENCHMARK.json order.
void AddEndToEnd(const EndToEnd& e, Report& report);

// The per-layer metrics, reported by traced runs. A layer the workload
// bypasses keeps its 0 (README.md lists which workload bypasses which).
struct Layers {
  double cert_issue_us = 0.0;
  double cert_verify_us = 0.0;
  double sha1_mb_per_s = 0.0;
  double route_us = 0.0;
  double hops_per_route = 0.0;
  double join_us = 0.0;
  double messages_per_insert = 0.0;
  double messages_per_lookup = 0.0;
  double dispatch_self_us = 0.0;
  double store_op_us = 0.0;
  double wal_append_us = 0.0;
  double wal_fsync_us = 0.0;
  double wal_syscalls_per_insert = 0.0;
  double wal_bytes_per_user_byte = 0.0;
  double space_per_live_byte = 0.0;
  double rejoin_ms = 0.0;
  double cache_hit_ratio = 0.0;
  double attempts_per_insert = 0.0;
  double op_residual_us = 0.0;
  double epoch_s = 0.0;
  double crash_us = 0.0;
  double sim_join_us = 0.0;
  double sweep_s = 0.0;
  double hops_per_op = 0.0;
  double bytes_per_node = 0.0;
  double arena_mb = 0.0;
};
// Adds every per-layer metric in BENCHMARK.json order.
void AddLayers(const Layers& l, Report& report);

// `count` per op, reading 0 when no op ran.
inline double PerOpBase(uint64_t ops) { return ops == 0 ? 1.0 : static_cast<double>(ops); }
inline double PerOp(uint64_t count, uint64_t ops) {
  return static_cast<double>(count) / PerOpBase(ops);
}

// One insert's time split over the layers the traced run measures (µs per
// insert). Whatever the measured insert time holds beyond their sum is the
// residual: the client's retry loop, the op engine, k-closest selection and
// bookkeeping.
struct InsertLayerSum {
  double crypto_us = 0.0;
  double hash_us = 0.0;  // content hashing (content-bearing inserts)
  double route_us = 0.0;
  double store_us = 0.0;
  double dispatch_us = 0.0;
  double total() const { return crypto_us + hash_us + route_us + store_us + dispatch_us; }
};
// Prints the split against `measured_us` and returns the residual.
double PrintInsertLayerSum(const InsertLayerSum& sum, double measured_us);

Report RunWebTrace(const RunOptions& options);
Report RunDurableFiles(const RunOptions& options);
Report RunScaleChurn(const RunOptions& options);

// --- timing helpers ---

inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `setup` `n` times, appending each call's duration to `times`; what a
// call builds is destroyed outside the timer.
template <class Setup>
void TimeSetups(int n, Setup setup, std::vector<double>& times) {
  for (int i = 0; i < n; ++i) {
    double start = Now();
    auto built = setup();
    times.push_back(Now() - start);
  }
}

// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();
// Current resident set size, in bytes.
uint64_t CurrentRssBytes();

// --- tracing wrappers (traced runs only) ---

// Sends and their self time, summed over every network a run traces.
struct DispatchTally {
  uint64_t sends = 0;
  double self_seconds = 0.0;
};

// Transport that forwards to an InlineTransport and times each Send with
// its delivery handler excluded: the handler runs the receiving node's
// protocol step (and any nested Sends), so what remains is the fabric's own
// dispatch cost. The tally outlives the transport (the network owns it).
class TimingTransport : public past::Transport {
 public:
  TimingTransport(past::TransportStats* stats, DispatchTally& tally)
      : Transport(stats), inner_(stats), tally_(tally) {}

  void Send(const past::Message& msg, DeliverFn on_deliver) override;

 private:
  past::InlineTransport inner_;
  DispatchTally& tally_;
};

// StorageEnv that forwards to `inner` and counts and times every call.
class TimingEnv : public past::StorageEnv {
 public:
  explicit TimingEnv(past::StorageEnv& inner) : inner_(inner) {}

  bool Append(const std::string& dir, const std::string& name, std::string_view data) override;
  bool Fsync(const std::string& dir, const std::string& name) override;
  bool Read(const std::string& dir, const std::string& name, std::string* out) override;
  std::vector<std::string> List(const std::string& dir) override;
  bool Rename(const std::string& dir, const std::string& from, const std::string& to) override;
  bool Remove(const std::string& dir, const std::string& name) override;

  struct Counters {
    uint64_t calls = 0;  // every env call (one "syscall" in the WAL's model)
    uint64_t appends = 0;
    uint64_t fsyncs = 0;
    uint64_t bytes_appended = 0;
    double append_seconds = 0.0;
    double fsync_seconds = 0.0;
  };
  const Counters& counters() const { return counters_; }
  void ResetCounters() { counters_ = Counters(); }

 private:
  past::StorageEnv& inner_;
  Counters counters_;
};

// TraceSink that keeps per-kind tallies of the records it receives.
class CollectingSink : public past::obs::TraceSink {
 public:
  void Record(const past::obs::OpTrace& event) override;

  struct Tally {
    uint64_t ops = 0;
    uint64_t hops = 0;
    uint64_t messages = 0;
  };
  const Tally& inserts() const { return inserts_; }
  const Tally& lookups() const { return lookups_; }

 private:
  Tally inserts_;
  Tally lookups_;
};

// Traced runs: routes `network`'s messages through a TimingTransport that
// feeds `tally`, and its op records into `sink`.
void InstallTracing(past::PastNetwork& network, DispatchTally& tally,
                    std::shared_ptr<CollectingSink> sink);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
