#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
  return ok;
}

void AddEndToEnd(const EndToEnd& e, Report& report) {
  report.Add("setup_s", "s", e.setup_s);
  report.Add("ops_per_s", "1/s", e.ops_per_s);
  report.Add("insert_p50_us", "us", e.insert_p50_us);
  report.Add("insert_p99_us", "us", e.insert_p99_us);
  report.Add("lookup_p50_us", "us", e.lookup_p50_us);
  report.Add("lookup_p99_us", "us", e.lookup_p99_us);
  report.Add("peak_rss_mb", "MB", PeakRssMb());
}

void AddLayers(const Layers& l, Report& report) {
  report.Add("crypto.cert_issue_us", "us", l.cert_issue_us);
  report.Add("crypto.cert_verify_us", "us", l.cert_verify_us);
  report.Add("crypto.sha1_mb_per_s", "MB/s", l.sha1_mb_per_s);
  report.Add("pastry.route_us", "us", l.route_us);
  report.Add("pastry.hops_per_route", "count", l.hops_per_route);
  report.Add("pastry.join_us", "us", l.join_us);
  report.Add("net.messages_per_insert", "count", l.messages_per_insert);
  report.Add("net.messages_per_lookup", "count", l.messages_per_lookup);
  report.Add("net.dispatch_self_us", "us", l.dispatch_self_us);
  report.Add("storage.store_op_us", "us", l.store_op_us);
  report.Add("storage.wal_append_us", "us", l.wal_append_us);
  report.Add("storage.wal_fsync_us", "us", l.wal_fsync_us);
  report.Add("storage.wal_syscalls_per_insert", "count", l.wal_syscalls_per_insert);
  report.Add("storage.wal_bytes_per_user_byte", "ratio", l.wal_bytes_per_user_byte);
  report.Add("storage.space_per_live_byte", "ratio", l.space_per_live_byte);
  report.Add("storage.rejoin_ms", "ms", l.rejoin_ms);
  report.Add("cache.hit_ratio", "ratio", l.cache_hit_ratio);
  report.Add("past.attempts_per_insert", "count", l.attempts_per_insert);
  report.Add("past.op_residual_us", "us", l.op_residual_us);
  report.Add("sim.epoch_s", "s", l.epoch_s);
  report.Add("sim.crash_us", "us", l.crash_us);
  report.Add("sim.join_us", "us", l.sim_join_us);
  report.Add("sim.sweep_s", "s", l.sweep_s);
  report.Add("sim.hops_per_op", "count", l.hops_per_op);
  report.Add("sim.bytes_per_node", "B", l.bytes_per_node);
  report.Add("common.arena_mb", "MB", l.arena_mb);
}

double PrintInsertLayerSum(const InsertLayerSum& sum, double measured_us) {
  double residual = measured_us - sum.total();
  std::printf(
      "insert layer sum (us/insert): crypto %.2f + hash %.2f + route %.2f + store %.2f + "
      "dispatch %.2f = %.2f of %.2f measured; residual %.2f (%.1f%%)\n",
      sum.crypto_us, sum.hash_us, sum.route_us, sum.store_us, sum.dispatch_us,
      sum.total(), measured_us, residual, measured_us > 0.0 ? 100.0 * residual / measured_us : 0.0);
  return residual;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// --- TimingTransport ---

void TimingTransport::Send(const past::Message& msg, DeliverFn on_deliver) {
  ++tally_.sends;
  double handler_seconds = 0.0;
  DeliverFn timed;
  if (on_deliver) {
    timed = [&handler_seconds, &on_deliver](const past::Delivery& delivery) {
      double start = Now();
      on_deliver(delivery);
      handler_seconds += Now() - start;
    };
  }
  double start = Now();
  inner_.Send(msg, std::move(timed));
  tally_.self_seconds += (Now() - start) - handler_seconds;
}

void InstallTracing(past::PastNetwork& network, DispatchTally& tally,
                    std::shared_ptr<CollectingSink> sink) {
  network.set_transport(std::make_unique<TimingTransport>(&network.overlay().stats(), tally));
  network.set_trace_sink(std::move(sink));
}

// --- TimingEnv ---

bool TimingEnv::Append(const std::string& dir, const std::string& name, std::string_view data) {
  ++counters_.calls;
  ++counters_.appends;
  counters_.bytes_appended += data.size();
  double start = Now();
  bool ok = inner_.Append(dir, name, data);
  counters_.append_seconds += Now() - start;
  return ok;
}

bool TimingEnv::Fsync(const std::string& dir, const std::string& name) {
  ++counters_.calls;
  ++counters_.fsyncs;
  double start = Now();
  bool ok = inner_.Fsync(dir, name);
  counters_.fsync_seconds += Now() - start;
  return ok;
}

bool TimingEnv::Read(const std::string& dir, const std::string& name, std::string* out) {
  ++counters_.calls;
  return inner_.Read(dir, name, out);
}

std::vector<std::string> TimingEnv::List(const std::string& dir) {
  ++counters_.calls;
  return inner_.List(dir);
}

bool TimingEnv::Rename(const std::string& dir, const std::string& from, const std::string& to) {
  ++counters_.calls;
  return inner_.Rename(dir, from, to);
}

bool TimingEnv::Remove(const std::string& dir, const std::string& name) {
  ++counters_.calls;
  return inner_.Remove(dir, name);
}

// --- CollectingSink ---

void CollectingSink::Record(const past::obs::OpTrace& event) {
  Tally* tally = nullptr;
  if (event.kind == past::obs::TraceOpKind::kInsert) {
    tally = &inserts_;
  } else if (event.kind == past::obs::TraceOpKind::kLookup) {
    tally = &lookups_;
  } else {
    return;
  }
  ++tally->ops;
  tally->hops += static_cast<uint64_t>(std::max(event.hops, 0));
  tally->messages += event.messages;
}

}  // namespace perfbench
