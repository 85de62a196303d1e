//===- perfbench/src/UpdateLong.cpp - Workload update_long ----------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// mcf's refresh_potential over a basis tree large enough that one
// invocation takes about a millisecond, with conflict detection on and
// simplex pivot churn between invocations. Every iteration reads its parent's
// potential and buffers a write, so chunk execution, read validation,
// ordered commit and recovery dominate; the fixed per-invocation cost is
// a small share of each request.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Mcf.h"

#include <optional>
#include <stdexcept>

using namespace spice;
using spice::workloads::BasisTree;
using spice::workloads::McfTraits;

namespace perfbench {
namespace {

// The tree (48 bytes a node) fits one core's L2, so the host's other
// tenants, sharing the last-level cache, move a request's time less.
constexpr size_t kNodes = 25'000;
constexpr unsigned kChunksPerThread = 2;
// Simplex pivot churn per request: arc-cost changes and one subtree
// relocation, which stales the live-in predictions.
constexpr unsigned kArcChanges = 4;
constexpr unsigned kRelocations = 1;
constexpr unsigned kMinWarmup = 16;
constexpr unsigned kMaxWarmup = 2000;

template <bool Tracing> class UpdateLong {
  using Traits = TraitsFor<McfTraits, Tracing>;

public:
  UpdateLong(const Options &O, SetupTimes &T) {
    Lap Clock;
    Live.emplace(kNodes, O.Seed);
    Twin.emplace(kNodes, O.Seed);
    T.InputsS = Clock.next();
    core::RuntimeConfig RC = runtimeConfig();
    RT.emplace(RC);
    core::LoopOptions LO;
    LO.ChunksPerThread = kChunksPerThread;
    LO.EnableConflictDetection = true;
    Loop.emplace(Tr, *RT, LO);
    T.RuntimeS = Clock.next();
    // Warm up until an invocation ran in parallel on predictions (a
    // 1-thread runtime never does).
    RunAccount A;
    LayerSamples L;
    for (unsigned I = 0;; ++I) {
      if (I == kMaxWarmup)
        throw std::runtime_error("update_long: no parallel invocation");
      const uint64_t Seq = Loop->lastStats().SequentialInvocations;
      if (!request(A, L, (I & 1) != 0))
        throw std::runtime_error("update_long: a warm-up request failed");
      const bool Parallel = Loop->lastStats().SequentialInvocations == Seq;
      if (I + 1 >= kMinWarmup && (Parallel || RC.NumThreads == 1))
        break;
    }
    T.WarmupS = Clock.next();
  }

  bool request(RunAccount &A, LayerSamples &L, bool SpiceFirst) {
    int64_t Want = 0, Got = 0;
    const auto Oracle = [&] {
      OracleTimer Timer(A, Nodes);
      Want = Twin->refreshPotentialReference();
    };
    const auto Spice = [&] {
      SpiceWindow W;
      auto F = Loop->submit(Live->traversalStart());
      const int64_t Submitted = nowNs();
      const auto R = F.get();
      const int64_t Done = W.close(A);
      Got = innerState(R).Checksum;
      if constexpr (Tracing) {
        L.SubmitUs.push_back(1e-3 *
                             static_cast<double>(Submitted - W.startNs()));
        harvest(Tr.Log, W.startNs(), Done, threadTag(), L);
      }
    };
    if (SpiceFirst) {
      Spice();
      Oracle();
    } else {
      Oracle();
      Spice();
    }
    // Compare every potential before the churn: mutate() recomputes the
    // potentials of the tree it runs on and would hide a wrong commit.
    const bool Ok = Got == Want && potentialsMatch(*Live, *Twin);
    Live->mutate(kArcChanges, kRelocations);
    Twin->mutate(kArcChanges, kRelocations);
    return Ok;
  }

  Counters counters() {
    Counters C;
    C.Loops = Loop->lastStats();
    C.Sched = RT->schedulerStats();
    C.Sessions = RT->pool().sessionPoolStats();
    C.Buffers = Loop->bufferPoolStats();
    return C;
  }

  bool identitiesHold(std::string &Why) const {
    return stealIdentityHolds(Loop->lastStats(), "mcf", Why) &&
           grantIdentityHolds(RT->schedulerStats(), Why);
  }

private:
  std::optional<BasisTree> Live; ///< The tree the runtime refreshes.
  std::optional<BasisTree> Twin; ///< Refreshed by the sequential oracle.
  const uint64_t Nodes = kNodes - 1; ///< Iterations of one refresh.
  std::optional<core::SpiceRuntime> RT;
  Traits Tr;
  std::optional<core::SpiceLoop<Traits>> Loop;
};

} // namespace

Outcome runUpdateLong(const Options &O, double BusyCpus) {
  return O.Trace ? runWorkload<UpdateLong, true>(O, BusyCpus)
                 : runWorkload<UpdateLong, false>(O, BusyCpus);
}

} // namespace perfbench
