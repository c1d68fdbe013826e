// The repository benchmark: runs one workload against a freshly started
// cluster, checks every answer against a brute-force oracle, and ends with
// one JSON line of metrics (end-to-end, or per-layer with --trace 1).
//
//   volap_perfbench --workload bulk_query|mixed_stream
//                   --seed N --seconds S --trace 0|1
//
// Exits 0 only when every output was correct.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common/clock.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

const std::uint64_t kProcessStart = volap::nowNanos();

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: volap_perfbench --workload "
               "bulk_query|mixed_stream --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* endp = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &endp, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &endp);
    } else if (key == "--trace") {
      args.trace = std::string(value) == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
    if (endp != nullptr && *endp != '\0')
      return usage(("bad number for " + key).c_str());
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!(args.seconds > 0 && args.seconds <= 600))
    return usage("--seconds must be in (0, 600]");

  void (*run)(const Args&, std::uint64_t, Report&) = nullptr;
  if (args.workload == "bulk_query") run = runBulkQuery;
  if (args.workload == "mixed_stream") run = runMixedStream;
  if (run == nullptr) return usage("unknown --workload");

  if (args.trace) SpanLog::instance().enable();
  Report report;
  try {
    run(args, kProcessStart, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) {
    report.note("end-to-end (traced): " + report.endToEndJson());
    const std::filesystem::path dir = ".bench_out";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = dir / ("spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json");
    if (!SpanLog::instance().write(path.string()))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  std::printf("%s\n", report.json(args.trace).c_str());
  return report.correct() ? 0 : 1;
}
