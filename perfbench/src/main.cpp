//===- perfbench/src/main.cpp - spicebench entry point --------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// spicebench --workload <scan_short|update_long|serve_mixed> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Runs one workload's closed request loop for the given seconds, checks
// every request against an oracle computed apart from the runtime, and
// prints as its last line one JSON object: correct, attempted, failed,
// and the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exits 1 when a request or a stats identity
// failed. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: spicebench --workload "
               "<scan_short|update_long|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

bool parse(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I];
    const char *Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      O.Workload = Val;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Val, &End, 10);
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
    } else if (Key == "--trace") {
      O.Trace = std::strcmp(Val, "1") == 0;
      if (!O.Trace && std::strcmp(Val, "0") != 0)
        return false;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0 &&
         O.Seconds <= 600;
}

/// Host calibration: throughput of \p Threads busy threads relative to
/// one. A host whose other tenants starve this process reads well below
/// \p Threads.
double busyCpus(unsigned Threads) {
  static std::atomic<uint64_t> Sink{0};
  const auto Spin = [] {
    uint64_t X = 0x9E3779B97F4A7C15ull;
    for (unsigned I = 0; I != 20'000'000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Sink.fetch_add(X, std::memory_order_relaxed);
  };
  int64_t T0 = nowNs();
  Spin();
  const double One = static_cast<double>(nowNs() - T0);
  T0 = nowNs();
  std::vector<std::thread> Busy;
  for (unsigned I = 0; I != Threads; ++I)
    Busy.emplace_back(Spin);
  for (std::thread &T : Busy)
    T.join();
  const double All = static_cast<double>(nowNs() - T0);
  return All > 0 ? static_cast<double>(Threads) * One / All : 0.0;
}

void printResult(const Outcome &Out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Out.Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  const char *Sep = "";
  for (const Metrics::Entry &E : Out.Values.entries()) {
    const double V = std::isfinite(E.Value) ? E.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", Sep,
                E.Name.c_str(), V, E.Unit);
    Sep = ", ";
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parse(Argc, Argv, O))
    return usage();
  Outcome (*Run)(const Options &, double) = nullptr;
  if (O.Workload == "scan_short")
    Run = runScanShort;
  else if (O.Workload == "update_long")
    Run = runUpdateLong;
  else if (O.Workload == "serve_mixed")
    Run = runServeMixed;
  else
    return usage();

  const unsigned CPUs = hostCpus();
  std::printf("spicebench: workload=%s seed=%llu seconds=%g trace=%d "
              "runtime_threads=%u cpus=%u\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, runtimeThreads(), CPUs);
  const double Busy = busyCpus(std::min(CPUs, 8u));
  pinClient();
  try {
    const Outcome Out = Run(O, Busy);
    printResult(Out);
    std::fflush(stdout);
    return Out.Correct ? 0 : 1;
  } catch (const std::exception &E) {
    std::fflush(stdout);
    std::fprintf(stderr, "spicebench: %s\n", E.what());
    return 1;
  }
}
