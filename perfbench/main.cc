// PAST benchmark program.
//
//   past_perfbench --workload <web-trace|durable-files|scale-churn>
//                  --seed N --seconds S --trace <0|1>
//   past_perfbench --selfcheck
//
// A workload run prints each metric as "name value unit", then the attempted
// and failed op counts, then (as the last line) one JSON object with the
// keys correct, attempted, failed and metrics. It exits 1 when a correctness
// check fails, 2 on bad arguments.
//
// --selfcheck shows that every correctness check can fail: it runs each
// workload small, clean and then with an injected fault, and requires the
// clean run to pass and the faulty one to fail; it also requires scale-churn
// at job count 2 to reproduce job count 1's state and schedule fingerprints.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: past_perfbench --workload <web-trace|durable-files|scale-churn> --seed N "
               "--seconds S --trace <0|1>\n"
               "       past_perfbench --selfcheck\n");
  return 2;
}

Report RunWorkload(const std::string& workload, const RunOptions& options) {
  Report report = workload == "web-trace"       ? RunWebTrace(options)
                  : workload == "durable-files" ? RunDurableFiles(options)
                                                : RunScaleChurn(options);
  // Every insert is stored, every lookup found and every reclaim completed,
  // apart from the known failures.
  const uint64_t unexpected = report.failed - report.known_failures.size();
  report.Check(unexpected == 0, std::to_string(unexpected) + " of " +
                                    std::to_string(report.attempted) + " ops failed");
  return report;
}

void PrintReport(const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu\nfailed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& f : report.known_failures) {
    std::printf("KNOWN FAILURE: %s\n", f.c_str());
  }
  for (const std::string& f : report.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// One self-check case: runs `workload` small with `fault` and compares the
// verdict with `expect_correct`.
bool SelfCheckCase(const std::string& workload, Fault fault, bool expect_correct,
                   const RunOptions& base) {
  RunOptions options = base;
  options.fault = fault;
  Report report = RunWorkload(workload, options);
  bool ok = report.correct() == expect_correct;
  const char* what = fault == Fault::kNone            ? "clean run"
                     : fault == Fault::kDropReplica  ? "dropped replica"
                     : fault == Fault::kTamperContent ? "tampered content"
                     : fault == Fault::kDropFsync    ? "lying fsync"
                                                     : "lost lookup";
  std::printf("%s %-14s %-17s checks %s", ok ? "PASS" : "FAIL", workload.c_str(), what,
              report.correct() ? "passed" : "failed");
  if (!report.failures().empty()) {
    std::printf(" (%zu, first: %s)", report.failures().size(), report.failures()[0].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
  return ok;
}

int SelfCheck(const RunOptions& base_in) {
  RunOptions base = base_in;
  base.small = true;
  base.seed = 7;
  bool ok = true;
  ok &= SelfCheckCase("web-trace", Fault::kNone, true, base);
  ok &= SelfCheckCase("web-trace", Fault::kDropReplica, false, base);
  ok &= SelfCheckCase("web-trace", Fault::kLostLookup, false, base);
  ok &= SelfCheckCase("durable-files", Fault::kNone, true, base);
  ok &= SelfCheckCase("durable-files", Fault::kDropReplica, false, base);
  ok &= SelfCheckCase("durable-files", Fault::kTamperContent, false, base);
  ok &= SelfCheckCase("durable-files", Fault::kDropFsync, false, base);
  ok &= SelfCheckCase("scale-churn", Fault::kNone, true, base);
  ok &= SelfCheckCase("scale-churn", Fault::kDropReplica, false, base);

  RunOptions serial = base;
  serial.jobs = 1;
  Report one = RunScaleChurn(serial);
  RunOptions sharded = base;
  sharded.jobs = 2;
  Report two = RunScaleChurn(sharded);
  bool same = !one.state_fingerprint.empty() &&
              one.state_fingerprint == two.state_fingerprint &&
              one.schedule_fingerprint == two.schedule_fingerprint;
  std::printf("%s scale-churn    jobs 2 == jobs 1  state %s / %s, schedule %s / %s\n",
              same ? "PASS" : "FAIL", two.state_fingerprint.c_str(),
              one.state_fingerprint.c_str(), two.schedule_fingerprint.c_str(),
              one.schedule_fingerprint.c_str());
  ok &= same;
  std::printf("selfcheck %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload;
  bool selfcheck = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      long seconds = std::strtol(value.c_str(), &end, 10);
      have_seconds = *end == '\0' && seconds >= 1 && seconds <= 600;
      options.seconds = static_cast<int>(seconds);
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (selfcheck) {
    return SelfCheck(options);
  }
  if ((workload != "web-trace" && workload != "durable-files" && workload != "scale-churn") ||
      !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  Report report = RunWorkload(workload, options);
  PrintReport(report);
  return report.correct() ? 0 : 1;
}
