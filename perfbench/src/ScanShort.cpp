//===- perfbench/src/ScanShort.cpp - Workload scan_short ------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// otter's clause-list min-scan, invoked back to back by one client: a
// read-only loop whose sequential work is smaller than the runtime's
// fixed cost per invocation, so admission, lane wake and join dominate
// and the speculative write buffers see no traffic.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Otter.h"

#include <optional>
#include <stdexcept>

using namespace spice;
using spice::workloads::Clause;
using spice::workloads::OtterTraits;

namespace perfbench {
namespace {

constexpr size_t kClauses = 3000;
constexpr unsigned kChunksPerThread = 1; // The paper's configuration.
constexpr unsigned kMinWarmup = 64;
constexpr unsigned kMaxWarmup = 20000;

template <bool Tracing> class ScanShort {
  using Traits = TraitsFor<OtterTraits, Tracing>;

public:
  ScanShort(const Options &O, SetupTimes &T) {
    Lap Clock;
    List.emplace(kClauses, O.Seed);
    T.InputsS = Clock.next();
    core::RuntimeConfig RC = runtimeConfig();
    RT.emplace(RC);
    core::LoopOptions LO;
    LO.ChunksPerThread = kChunksPerThread;
    Loop.emplace(Tr, *RT, LO);
    T.RuntimeS = Clock.next();
    // Warm up until every speculative chunk has a prediction.
    const size_t Rows = LO.numChunks(RC.NumThreads) - 1;
    RunAccount A;
    LayerSamples L;
    for (unsigned I = 0; I < kMinWarmup || Loop->predictions().size() < Rows;
         ++I) {
      if (I == kMaxWarmup)
        throw std::runtime_error("scan_short: predictions never became valid");
      if (!request(A, L, (I & 1) != 0))
        throw std::runtime_error("scan_short: a warm-up request failed");
    }
    T.WarmupS = Clock.next();
  }

  bool request(RunAccount &A, LayerSamples &L, bool SpiceFirst) {
    Clause *Want = nullptr, *Got = nullptr;
    int64_t GotWeight = 0;
    const auto Oracle = [&] {
      OracleTimer Timer(A, List->size());
      Want = List->lightest();
    };
    const auto Spice = [&] {
      SpiceWindow W;
      auto F = Loop->submit(List->head());
      const int64_t Submitted = nowNs();
      const auto R = F.get();
      const int64_t Done = W.close(A);
      Got = innerState(R).MinClause;
      GotWeight = innerState(R).MinWeight;
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
    const bool Ok = Got == Want && GotWeight == Want->PickWeight;
    List->churn(Want); // The oracle's answer: a failure cannot cascade.
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
    return stealIdentityHolds(Loop->lastStats(), "otter", Why) &&
           grantIdentityHolds(RT->schedulerStats(), Why);
  }

private:
  std::optional<FixedClauseList> List;
  std::optional<core::SpiceRuntime> RT;
  Traits Tr;
  std::optional<core::SpiceLoop<Traits>> Loop;
};

} // namespace

Outcome runScanShort(const Options &O, double BusyCpus) {
  return O.Trace ? runWorkload<ScanShort, true>(O, BusyCpus)
                 : runWorkload<ScanShort, false>(O, BusyCpus);
}

} // namespace perfbench
