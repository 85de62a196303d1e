//===- perfbench/src/Harness.cpp - Timed phase and metrics ----------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"
#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <map>

#include <sched.h>
#include <sys/resource.h>

using namespace spice;

namespace perfbench {

namespace {

/// The CPUs the process may run on, in order; read once, before
/// pinClient() narrows the client's own set.
const std::vector<int> &allowedCpus() {
  static const std::vector<int> CPUs = [] {
    std::vector<int> V;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          V.push_back(C);
    return V;
  }();
  return CPUs;
}

/// Pins the calling thread to the \p Slot-th allowed CPU counted from
/// the last: the first CPUs take most of the device interrupts.
void pinTo(size_t Slot) {
  const std::vector<int> &CPUs = allowedCpus();
  if (CPUs.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(CPUs[CPUs.size() - 1 - Slot % CPUs.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

} // namespace

unsigned hostCpus() {
  return static_cast<unsigned>(std::max<size_t>(1, allowedCpus().size()));
}

unsigned runtimeThreads() { return std::min(hostCpus(), 2u); }

void pinClient() { pinTo(0); }

core::RuntimeConfig runtimeConfig() {
  core::RuntimeConfig RC;
  RC.NumThreads = runtimeThreads();
  RC.WorkerStartHook = [](unsigned Worker) { pinTo(Worker + 1); };
  return RC;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  const size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  const double Hi = V[Mid];
  const double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return 0.5 * (Lo + Hi);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  const size_t I = static_cast<size_t>(std::max(1.0, Rank)) - 1;
  return V[std::min(I, V.size() - 1)];
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

namespace {

using core::SpiceStats;

/// Calls \p F with each SpiceStats counter the metrics and identities
/// read.
template <typename Fn> void forEachCount(Fn F) {
  F(&SpiceStats::Invocations);
  F(&SpiceStats::SequentialInvocations);
  F(&SpiceStats::MisspeculatedInvocations);
  F(&SpiceStats::TotalIterations);
  F(&SpiceStats::ConflictSquashes);
  F(&SpiceStats::RecoveryIterations);
  F(&SpiceStats::WastedIterations);
  F(&SpiceStats::StolenChunks);
  F(&SpiceStats::MainHelpedChunks);
  F(&SpiceStats::LocalSteals);
  F(&SpiceStats::RemoteSteals);
  F(&SpiceStats::GrantedLanes);
  F(&SpiceStats::ImbalanceSamples);
}

SpiceStats delta(const SpiceStats &After, const SpiceStats &Before) {
  SpiceStats D;
  forEachCount([&](uint64_t SpiceStats::*F) { D.*F = After.*F - Before.*F; });
  D.ImbalanceSum = After.ImbalanceSum - Before.ImbalanceSum;
  return D;
}

double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

} // namespace

void addStats(SpiceStats &Into, const SpiceStats &S) {
  forEachCount([&](uint64_t SpiceStats::*F) { Into.*F += S.*F; });
  Into.ImbalanceSum += S.ImbalanceSum;
}

void addBuffers(core::SpecBufferPoolStats &Into,
                const core::SpecBufferPoolStats &S) {
  Into.Buffers += S.Buffers;
  Into.TableSlots += S.TableSlots;
  Into.Rehashes += S.Rehashes;
  Into.HeapTables += S.HeapTables;
}

bool stealIdentityHolds(const SpiceStats &S, const char *Loop,
                        std::string &Why) {
  if (S.LocalSteals + S.RemoteSteals == S.StolenChunks - S.MainHelpedChunks)
    return true;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s: LocalSteals %llu + RemoteSteals %llu != StolenChunks "
                "%llu - MainHelpedChunks %llu",
                Loop, static_cast<unsigned long long>(S.LocalSteals),
                static_cast<unsigned long long>(S.RemoteSteals),
                static_cast<unsigned long long>(S.StolenChunks),
                static_cast<unsigned long long>(S.MainHelpedChunks));
  Why = Buf;
  return false;
}

bool grantIdentityHolds(const core::SchedulerStats &S, std::string &Why) {
  if (S.ImmediateGrants + S.DeferredGrants + S.DroppedDeadline == S.Submitted)
    return true;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "scheduler: ImmediateGrants %llu + DeferredGrants %llu + "
                "DroppedDeadline %llu != Submitted %llu",
                static_cast<unsigned long long>(S.ImmediateGrants),
                static_cast<unsigned long long>(S.DeferredGrants),
                static_cast<unsigned long long>(S.DroppedDeadline),
                static_cast<unsigned long long>(S.Submitted));
  Why = Buf;
  return false;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

unsigned threadTag() {
  static std::atomic<unsigned> Next{1};
  thread_local const unsigned Tag =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Tag;
}

void harvest(TraceLog &Log, int64_t SubmitNs, int64_t DoneNs,
             unsigned Client, LayerSamples &L) {
  L.DroppedSpans += Log.dropped();
  const ChunkSpan *Chunk0 = nullptr;
  int64_t LastStep = INT64_MIN;
  // First step of each worker thread that ran a chunk.
  std::map<unsigned, int64_t> LaneStarts;
  for (unsigned I = 0, E = Log.size(); I != E; ++I) {
    const ChunkSpan &S = Log[I];
    if (S.Calls == 0)
      continue; // Squashed, or met its successor's start, before a step.
    const double SpanNs = static_cast<double>(S.LastNs - S.FirstNs);
    L.SpanNs += SpanNs;
    L.SpanIterations += S.LastIdx;
    LastStep = std::max(LastStep, S.LastNs);
    if (S.Thread == Client) {
      if (!Chunk0)
        Chunk0 = &S; // The driving thread's first chunk.
      continue;
    }
    L.SpecChunkUs.push_back(SpanNs * 1e-3);
    auto [It, New] = LaneStarts.try_emplace(S.Thread, S.FirstNs);
    if (!New)
      It->second = std::min(It->second, S.FirstNs);
  }
  const auto Us = [](int64_t From, int64_t To) {
    return 1e-3 * static_cast<double>(To - From);
  };
  if (!LaneStarts.empty()) {
    int64_t First = INT64_MAX, Last = INT64_MIN;
    for (const auto &[Thread, Start] : LaneStarts) {
      First = std::min(First, Start);
      Last = std::max(Last, Start);
    }
    L.FirstLaneUs.push_back(Us(SubmitNs, First));
    L.LastLaneUs.push_back(Us(SubmitNs, Last));
    if (Chunk0)
      L.Chunk0Us.push_back(Us(Chunk0->FirstNs, Chunk0->LastNs));
  }
  if (LastStep != INT64_MIN)
    L.ResolveTailUs.push_back(Us(LastStep, DoneNs));
  Log.clear();
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

using workloads::BasisTree;
using workloads::Clause;
using workloads::TreeNode;

namespace {
constexpr int64_t kWeightRange = 1'000'000;
} // namespace

FixedClauseList::FixedClauseList(size_t N, uint64_t Seed)
    : Arena(N), Rng(Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  Clause *Prev = nullptr;
  for (size_t Slot : Order) {
    Clause &C = Arena[Slot];
    C.PickWeight = Rng.nextInRange(0, kWeightRange - 1);
    C.OnList = true;
    if (Prev)
      Prev->Next = &C;
    else
      Head = &C;
    Prev = &C;
  }
}

Clause *FixedClauseList::lightest() const {
  Clause *Best = nullptr;
  int64_t BestW = INT64_MAX;
  for (Clause *C = Head; C; C = C->Next) {
    if (C->PickWeight < BestW) {
      BestW = C->PickWeight;
      Best = C;
    }
  }
  return Best;
}

void FixedClauseList::churn(Clause *Min) {
  if (Head == Min) {
    Head = Min->Next;
  } else {
    Clause *Prev = Head;
    while (Prev->Next != Min)
      Prev = Prev->Next;
    Prev->Next = Min->Next;
  }
  Min->PickWeight = Rng.nextInRange(0, kWeightRange - 1);
  // Position 0 is the head; position K follows the K-th remaining clause.
  const uint64_t Pos = Rng.nextBelow(Arena.size());
  if (Pos == 0 || !Head) {
    Min->Next = Head;
    Head = Min;
    return;
  }
  Clause *Prev = Head;
  for (uint64_t I = 1; I != Pos && Prev->Next; ++I)
    Prev = Prev->Next;
  Min->Next = Prev->Next;
  Prev->Next = Min;
}

bool potentialsMatch(const BasisTree &A, const BasisTree &B) {
  if (A.root()->Potential != B.root()->Potential)
    return false;
  TreeNode *X = A.traversalStart(), *Y = B.traversalStart();
  for (; X && Y; X = BasisTree::advance(X), Y = BasisTree::advance(Y))
    if (X->Potential != Y->Potential)
      return false;
  return !X && !Y;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

namespace {

/// Prints the median and every tail percentile with at least ten
/// samples beyond it, with the sample count.
void printLatency(const char *Label, uint64_t Count,
                  const std::vector<double> &Us) {
  std::printf("%s: n=%llu", Label, static_cast<unsigned long long>(Count));
  if (Us.size() != Count)
    std::printf(" (percentiles of a uniform sample of %zu)", Us.size());
  std::printf(" p50=%.2fus", median(Us));
  const double Tails[] = {90.0, 99.0, 99.9};
  for (double P : Tails)
    if (static_cast<double>(Us.size()) * (100.0 - P) / 100.0 >= 10.0)
      std::printf(" p%g=%.2fus", P, percentile(Us, P));
  std::printf("\n");
}

/// Mean of the middle half of \p V.
double interquartileMean(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  double Sum = 0;
  for (size_t I = Lo; I != Hi; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Hi - Lo);
}

/// Median over the run's set-ups of one set-up phase.
double medianOf(const std::vector<SetupTimes> &Setups,
                double SetupTimes::*Phase) {
  std::vector<double> V;
  for (const SetupTimes &T : Setups)
    V.push_back(T.*Phase);
  return median(V);
}

double asDouble(uint64_t V) { return static_cast<double>(V); }

} // namespace

void summarize(const Options &O, const std::vector<SetupTimes> &Setups,
               const RunAccount &A, const LayerSamples &L,
               const Counters &Before, const Counters &After,
               double ProcessCpuS, double ClientCpuS, double BusyCpus,
               Outcome &Out) {
  const double N = asDouble(A.Latency.count());
  const std::vector<double> Latency = A.Latency.sample();
  const double LatencyP50 = median(Latency);
  std::vector<double> Totals;
  for (const SetupTimes &T : Setups)
    Totals.push_back(T.totalS());
  const double SetupS = median(Totals);
  // The runtime's CPU over the whole phase: see RequestClock::close.
  const double SpiceCpuS = ProcessCpuS - (ClientCpuS - A.ClientCpuInside);
  const double LatencyIqm = interquartileMean(Latency);
  const double Speedup = median(A.Speedup.sample());
  const double CpuUs = median(A.CpuUs.sample());

  printLatency(O.Trace ? "traced latency" : "latency", A.Latency.count(),
               Latency);
  std::printf("requests=%.0f failed=%.0f spice=%.3fs seq=%.3fs setup=%.4fs "
              "host.busy_cpus=%.2f\n",
              asDouble(Out.Attempted), asDouble(Out.Failed), A.SpiceSec,
              A.SeqSec, SetupS, BusyCpus);
  std::printf("whole phase: throughput=%.1f req/s speedup=%.4f "
              "cpu=%.2f us/req\n",
              ratio(N, A.SpiceSec), ratio(A.SeqSec, A.SpiceSec),
              ratio(SpiceCpuS * 1e6, N));

  Metrics &M = Out.Values;
  if (!O.Trace) {
    M.add("latency_p50_us", LatencyP50, "us");
    M.add("throughput_rps", ratio(1e6, LatencyIqm), "req/s");
    M.add("speedup_vs_seq", Speedup, "x");
    M.add("cpu_us_per_request", CpuUs, "us");
    M.add("peak_rss_mib", peakRssMiB(), "MiB");
    M.add("setup_s", SetupS, "s");
    return;
  }

  const SpiceStats D = delta(After.Loops, Before.Loops);
  const double Inv = asDouble(D.Invocations);
  const double Par = asDouble(D.Invocations - D.SequentialInvocations);
  const double Iters = asDouble(D.TotalIterations);
  const double Redone = asDouble(D.WastedIterations + D.RecoveryIterations);
  const core::SchedulerStats &S1 = After.Sched, &S0 = Before.Sched;
  const double Sub = asDouble(S1.Submitted - S0.Submitted);
  const double Queued = asDouble(S1.TotalQueuedMicros - S0.TotalQueuedMicros);
  const double Deferred = asDouble(S1.DeferredGrants - S0.DeferredGrants);
  const double Capped = asDouble(S1.CappedGrants - S0.CappedGrants);
  const core::SessionPoolStats &P1 = After.Sessions, &P0 = Before.Sessions;
  const double Hits = asDouble(P1.SessionPoolHits - P0.SessionPoolHits);
  const double Made = asDouble(P1.SessionsCreated - P0.SessionsCreated);
  const core::SpecBufferPoolStats &B = After.Buffers;
  const double Deopts = asDouble(After.Jit.Deopts - Before.Jit.Deopts);
  const double Interpreted = asDouble(After.Jit.InterpretedInvocations);
  const double Helped = asDouble(D.MainHelpedChunks);
  const double Lanes = asDouble(D.GrantedLanes);
  const double Stolen = asDouble(D.StolenChunks);
  const double SpanIters = asDouble(L.SpanIterations);
  const double Seq = asDouble(D.SequentialInvocations);
  const double Missed = asDouble(D.MisspeculatedInvocations);
  const double Conf = asDouble(D.ConflictSquashes);
  const double Rec = asDouble(D.RecoveryIterations);
  const double Imb = D.ImbalanceSum;
  const double ImbN = asDouble(D.ImbalanceSamples);
  const double InterpUs = L.InterpSec * 1e6;
  const double InterpN = asDouble(L.InterpInvocations);
  const double SeqNs = A.SeqSec * 1e9;
  const double SeqIters = asDouble(A.SeqIterations);

  M.add("scheduler.submit_us", median(L.SubmitUs), "us");
  M.add("scheduler.queued_us_per_request", ratio(Queued, Sub), "us");
  M.add("scheduler.deferred_grants_per_request", ratio(Deferred, Sub), "1/req");
  M.add("scheduler.capped_grants_per_request", ratio(Capped, Sub), "1/req");
  M.add("pool.first_lane_start_us", median(L.FirstLaneUs), "us");
  M.add("pool.last_lane_start_us", median(L.LastLaneUs), "us");
  M.add("pool.lanes_per_invocation", ratio(Lanes, Par), "lanes");
  M.add("pool.steals_per_invocation", ratio(Stolen, Inv), "1/inv");
  M.add("pool.main_helped_per_invocation", ratio(Helped, Inv), "1/inv");
  M.add("pool.session_reuse_fraction", ratio(Hits, Hits + Made), "fraction");
  M.add("loop.chunk0_us", median(L.Chunk0Us), "us");
  M.add("loop.spec_chunk_us", median(L.SpecChunkUs), "us");
  M.add("loop.ns_per_iteration", ratio(L.SpanNs, SpanIters), "ns");
  M.add("loop.resolve_tail_us", median(L.ResolveTailUs), "us");
  M.add("loop.useful_fraction", ratio(Iters, Iters + Redone), "fraction");
  M.add("loop.sequential_per_1k", ratio(1000.0 * Seq, Inv), "per_1k");
  M.add("loop.misspeculated_per_1k", ratio(1000.0 * Missed, Inv), "per_1k");
  M.add("loop.conflict_squashes_per_1k", ratio(1000.0 * Conf, Inv), "per_1k");
  M.add("loop.recovery_iterations_per_invocation", ratio(Rec, Inv), "iter/inv");
  M.add("loop.load_imbalance", ratio(Imb, ImbN), "ratio");
  M.add("specbuf.table_slots", asDouble(B.TableSlots), "slots");
  M.add("specbuf.rehashes", asDouble(B.Rehashes), "count");
  M.add("specbuf.heap_tables", asDouble(B.HeapTables), "count");
  M.add("jit.invoke_us", median(L.JitInvokeUs), "us");
  M.add("jit.promote_us", medianOf(Setups, &SetupTimes::PromoteUs), "us");
  M.add("jit.cache_hits", asDouble(After.Cache.Hits), "count");
  M.add("jit.cache_misses", asDouble(After.Cache.Misses), "count");
  M.add("jit.deopts", Deopts, "count");
  M.add("jit.interpreted_invocations", Interpreted, "count");
  M.add("vm.interp_us_per_invocation", ratio(InterpUs, InterpN), "us");
  M.add("workloads.seq_us_per_request", ratio(A.SeqSec * 1e6, N), "us");
  M.add("workloads.seq_ns_per_iteration", ratio(SeqNs, SeqIters), "ns");
  M.add("setup.inputs_s", medianOf(Setups, &SetupTimes::InputsS), "s");
  M.add("setup.runtime_s", medianOf(Setups, &SetupTimes::RuntimeS), "s");
  M.add("setup.warmup_s", medianOf(Setups, &SetupTimes::WarmupS), "s");
  M.add("trace.latency_p50_us", LatencyP50, "us");
  M.add("host.busy_cpus", BusyCpus, "cpus");
  if (L.DroppedSpans != 0)
    std::printf("trace: %.0f chunk spans past the log capacity dropped\n",
                asDouble(L.DroppedSpans));
}

} // namespace perfbench
