//===- perfbench/src/Harness.h - Timed phase and metrics --------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part every workload of spicebench shares: command-line options,
/// clocks, the account of one timed phase, the public runtime counters
/// read before and after it, and runWorkload(), which sets a workload up
/// several times, runs its closed request loop for the requested
/// seconds and turns what it saw into the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run).
///
/// A workload is a class template Env<Tracing> with
///
/// \code
///   Env(const Options &, SetupTimes &);  // build inputs, runtime, warm up
///   // One request of the closed loop; false when its check failed.
///   bool request(RunAccount &, LayerSamples &, bool SpiceFirst);
///   Counters counters();                 // public runtime counters
///   bool identitiesHold(std::string &Why) const;
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/Scheduler.h"
#include "core/SpecWriteBuffer.h"
#include "core/SpiceConfig.h"
#include "core/WorkerPool.h"
#include "jit/CodeCache.h"
#include "jit/JitLoop.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

namespace core = spice::core;
namespace jit = spice::jit;

/// Command line of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process (every thread) or of the caller.
inline double cpuSeconds(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         1e-9 * static_cast<double>(Ts.tv_nsec);
}
inline double processCpu() { return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double threadCpu() { return cpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// CPUs this process may run on.
unsigned hostCpus();

/// Threads of every runtime the benchmark builds, client included: two
/// (the client and one worker), or one on a single-CPU host.
unsigned runtimeThreads();

/// Pins the calling thread (the client) to the last CPU it may run on.
/// Left to the kernel, the client and the worker sometimes shared one
/// vCPU -- a request then cost one CPU and took about 28 us on
/// scan_short -- and sometimes ran on two -- one and a half CPUs, 34 to
/// 46 us -- and which of the two a run got changed from run to run.
void pinClient();

/// A runtime configuration with runtimeThreads() threads whose worker
/// i runs on the (i + 2)-th CPU from the last the process may run on,
/// apart from the client's.
core::RuntimeConfig runtimeConfig();

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> V, double P);

/// Seconds of each set-up phase of one Env construction.
struct SetupTimes {
  /// Inputs and their oracle twins.
  double InputsS = 0;
  /// SpiceRuntime, loops, JIT runners.
  double RuntimeS = 0;
  /// Warm-up requests until predictions are valid.
  double WarmupS = 0;
  /// The JIT invocation that compiled the loop (serve_mixed only).
  double PromoteUs = 0;

  double totalS() const { return InputsS + RuntimeS + WarmupS; }
};

/// Measures consecutive set-up phases.
class Lap {
public:
  double next() {
    const int64_t Now = nowNs();
    const double S = 1e-9 * static_cast<double>(Now - Last);
    Last = Now;
    return S;
  }

private:
  int64_t Last = nowNs();
};

/// Per-request values of the timed phase: every request's, or, past
/// kCapacity requests, a uniform reservoir sample of them. The storage
/// is allocated and touched before the timed phase, so the number of
/// requests a run completes does not change the resident set.
class Samples {
public:
  static constexpr size_t kCapacity = size_t{1} << 18;

  /// Allocates the sample storage; until then add() only counts.
  void keep() { Buf.assign(kCapacity, 0.0); }

  void add(double V) {
    if (!Buf.empty()) {
      if (N < kCapacity) {
        Buf[N] = V;
      } else if (const uint64_t J = Rng.nextBelow(N + 1); J < kCapacity) {
        Buf[J] = V;
      }
    }
    ++N;
  }

  uint64_t count() const { return N; }
  std::vector<double> sample() const {
    return {Buf.begin(), Buf.begin() + std::min<uint64_t>(N, Buf.size())};
  }

private:
  std::vector<double> Buf;
  uint64_t N = 0;
  spice::RandomEngine Rng{0x5a3b1e};
};

/// What the timed phase saw.
struct RunAccount {
  /// Spice side of each request, in microseconds.
  Samples Latency;
  /// Each request's sequential time over its Spice time.
  Samples Speedup;
  /// Each request's runtime CPU, in microseconds (see RequestClock).
  Samples CpuUs;
  /// Summed Spice-side and sequential-oracle wall time.
  double SpiceSec = 0;
  double SeqSec = 0;
  /// Iterations the timed oracles ran.
  uint64_t SeqIterations = 0;
  /// Client thread CPU inside the Spice windows.
  double ClientCpuInside = 0;
};

/// The Spice side of one request: from just before its first submit()
/// to just after its last get() returns.
class SpiceWindow {
public:
  SpiceWindow() : Cpu0(threadCpu()), Start(nowNs()) {}
  int64_t startNs() const { return Start; }
  /// Closes the window into \p A and returns its end time.
  int64_t close(RunAccount &A) {
    const int64_t End = nowNs();
    const double Cpu1 = threadCpu();
    const double Ns = static_cast<double>(End - Start);
    A.Latency.add(Ns * 1e-3);
    A.SpiceSec += Ns * 1e-9;
    A.ClientCpuInside += Cpu1 - Cpu0;
    return End;
  }

private:
  double Cpu0;
  int64_t Start;
};

/// Times a sequential oracle of \p Iterations iterations, from its
/// construction to the end of its scope, into the sequential side of \p A.
class OracleTimer {
public:
  OracleTimer(RunAccount &A, uint64_t Iterations)
      : A(A), Iterations(Iterations), Start(nowNs()) {}
  ~OracleTimer() {
    A.SeqSec += 1e-9 * static_cast<double>(nowNs() - Start);
    A.SeqIterations += Iterations;
  }
  OracleTimer(const OracleTimer &) = delete;
  OracleTimer &operator=(const OracleTimer &) = delete;

private:
  RunAccount &A;
  uint64_t Iterations;
  int64_t Start;
};

/// Samples of the traced run (empty in the untraced run).
struct LayerSamples {
  /// Wall time inside SpiceLoop::submit.
  std::vector<double> SubmitUs;
  /// From entering submit() to the first step() on any worker thread,
  /// and to the first step() of the last worker thread to start.
  std::vector<double> FirstLaneUs;
  std::vector<double> LastLaneUs;
  /// Spans of the driving thread's chunk 0 and of worker-run chunks.
  std::vector<double> Chunk0Us;
  std::vector<double> SpecChunkUs;
  /// From the last step() on any thread to get() returning.
  std::vector<double> ResolveTailUs;
  /// Wall time inside JitLoopRunner::submit plus Pending::get.
  std::vector<double> JitInvokeUs;
  /// Summed chunk spans and the iterations they cover.
  double SpanNs = 0;
  uint64_t SpanIterations = 0;
  /// Interpreter oracle time and invocations.
  double InterpSec = 0;
  uint64_t InterpInvocations = 0;
  /// Chunk executions beyond a span log's capacity.
  uint64_t DroppedSpans = 0;
};

/// The public counters of a workload's runtime and loops.
struct Counters {
  /// Summed over the workload's loops.
  core::SpiceStats Loops;
  core::SchedulerStats Sched;
  core::SessionPoolStats Sessions;
  /// Summed over the native loops.
  core::SpecBufferPoolStats Buffers;
  jit::JitTierStats Jit;
  jit::CodeCacheStats Cache;
};

/// Adds \p S's counters into \p Into.
void addStats(core::SpiceStats &Into, const core::SpiceStats &S);
void addBuffers(core::SpecBufferPoolStats &Into,
                const core::SpecBufferPoolStats &S);

/// The documented identities of one loop's counters (docs/stats.md):
/// LocalSteals + RemoteSteals == StolenChunks - MainHelpedChunks.
bool stealIdentityHolds(const core::SpiceStats &S, const char *Loop,
                        std::string &Why);
/// ImmediateGrants + DeferredGrants + DroppedDeadline == Submitted.
bool grantIdentityHolds(const core::SchedulerStats &S, std::string &Why);

/// Ordered name -> (value, unit) list; the result's "metrics" object.
class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    Entries.push_back({Name, Value, Unit});
  }

  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  const std::vector<Entry> &entries() const { return Entries; }

private:
  std::vector<Entry> Entries;
};

/// The outcome of one run, printed by main().
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Metrics Values;
};

/// Set-ups per run, setup_s being their median: at least
/// kMinSetups, and more until kMinSetupSec of set-up time has passed.
inline constexpr unsigned kMinSetups = 9;
inline constexpr double kMinSetupSec = 1.0;

/// Peak resident set of the process, in MiB.
double peakRssMiB();

/// Turns one timed phase into the run's metrics.
void summarize(const Options &O, const std::vector<SetupTimes> &Setups,
               const RunAccount &A, const LayerSamples &L,
               const Counters &Before, const Counters &After,
               double ProcessCpuS, double ClientCpuS, double BusyCpus,
               Outcome &Out);

/// Turns one request into its speedup and CPU samples. The speedup
/// pairs the request's sequential time with its Spice time, both taken
/// on the host as it was during that request; the medians over requests
/// leave out the few requests a stalled host delays by milliseconds.
class RequestClock {
public:
  explicit RequestClock(const RunAccount &A)
      : Spice0(A.SpiceSec), Seq0(A.SeqSec), Inside0(A.ClientCpuInside),
        Cpu0(processCpu()), Client0(threadCpu()) {}

  void close(RunAccount &A) const {
    const double Cpu = processCpu(), Client = threadCpu();
    const double SpiceSec = A.SpiceSec - Spice0;
    if (SpiceSec > 0)
      A.Speedup.add((A.SeqSec - Seq0) / SpiceSec);
    // Client CPU outside the Spice window (oracles, checks, churn) is
    // the benchmark's own; everything else the process burnt -- the
    // client inside the window, the workers whenever they ran or spun
    // -- is the runtime's.
    A.CpuUs.add(1e6 * ((Cpu - Cpu0) - ((Client - Client0) -
                                       (A.ClientCpuInside - Inside0))));
  }

private:
  double Spice0, Seq0, Inside0, Cpu0, Client0;
};

/// Sets \p Env up as often as kMinSetups and kMinSetupSec ask (keeping
/// the last), runs its closed request loop for O.Seconds, and checks the
/// counter identities.
template <template <bool> class Env, bool Tracing>
Outcome runWorkload(const Options &O, double BusyCpus) {
  std::vector<SetupTimes> Setups;
  std::unique_ptr<Env<Tracing>> E;
  double SetupSec = 0;
  while (Setups.size() < kMinSetups || SetupSec < kMinSetupSec) {
    E.reset(); // One set of inputs and one runtime alive at a time.
    SetupTimes T;
    E = std::make_unique<Env<Tracing>>(O, T);
    Setups.push_back(T);
    SetupSec += T.totalS();
  }

  Outcome Out;
  RunAccount A;
  A.Latency.keep();
  A.Speedup.keep();
  A.CpuUs.keep();
  LayerSamples L;
  const Counters Before = E->counters();
  const double Cpu0 = processCpu(), Client0 = threadCpu();
  const int64_t Start = nowNs();
  const int64_t Budget = static_cast<int64_t>(O.Seconds * 1e9);
  do {
    // Alternate which side of the request runs first, so neither the
    // oracle nor the runtime always finds the inputs warm in cache.
    const RequestClock Clock(A);
    if (!E->request(A, L, /*SpiceFirst=*/(Out.Attempted & 1) != 0))
      ++Out.Failed;
    ++Out.Attempted;
    Clock.close(A);
  } while (nowNs() - Start < Budget);
  const double ProcessCpuS = processCpu() - Cpu0;
  const double ClientCpuS = threadCpu() - Client0;
  const Counters After = E->counters();

  std::string Why;
  if (!E->identitiesHold(Why)) {
    std::printf("stats identity violated: %s\n", Why.c_str());
    Out.Correct = false;
  }
  if (Out.Failed != 0)
    Out.Correct = false;
  summarize(O, Setups, A, L, Before, After, ProcessCpuS, ClientCpuS,
            BusyCpus, Out);
  return Out;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
