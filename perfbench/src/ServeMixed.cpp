//===- perfbench/src/ServeMixed.cpp - Workload serve_mixed ----------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One client makes each request by submitting four loops to one
// FairShare runtime -- a short otter scan, a small mcf refresh, a packet
// trace whose shared flow counters cause conflicts, and the otter IR loop
// through the JIT tier -- holding all four futures, then resolving them
// in submission order. The only workload where requests queue at the
// Scheduler, where lanes are split between loops, and where the JIT tier
// and its code cache are on the path.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "ir/Module.h"
#include "jit/CodeCache.h"
#include "jit/JitLoop.h"
#include "vm/Interpreter.h"
#include "vm/Memory.h"
#include "workloads/IRWorkloads.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"
#include "workloads/Packets.h"

#include <optional>
#include <stdexcept>

using namespace spice;
using spice::workloads::BasisTree;
using spice::workloads::Clause;
using spice::workloads::McfTraits;
using spice::workloads::OtterTraits;
using spice::workloads::PacketPipeline;
using spice::workloads::PacketState;

namespace perfbench {
namespace {

// Sizes of the four loops of a request: the otter scan, the mcf refresh,
// the packet pipeline (flows, buckets, packets per trace) and the otter
// IR loop that runs through the JIT tier.
constexpr size_t kClauses = 3000;
constexpr size_t kNodes = 3000;
constexpr size_t kFlows = 512;
constexpr size_t kBuckets = 128;
constexpr size_t kPackets = 4096;
constexpr size_t kIrClauses = 3000;
// The paper's configuration. With ChunksPerThread 2 (four chunks per loop
// on two threads) every request was slower, and runs spread more, in
// paired runs on a shared 4-vCPU host.
constexpr unsigned kChunksPerThread = 1;
constexpr unsigned kArcChanges = 4;
constexpr unsigned kRelocations = 1;
/// VM words of each IR twin: the list, plus two words per request for
/// the clause inserted per removal (the VM heap never frees).
constexpr uint64_t kVmWords = 1u << 20;
constexpr unsigned kMinWarmup = 32;
constexpr unsigned kMaxWarmup = 2000;

/// One copy of the otter IR workload: module, inputs and VM memory.
struct IrTwin {
  ir::Module M;
  workloads::OtterIR W;
  ir::Function *F = nullptr;
  vm::Memory Mem{kVmWords};

  IrTwin(size_t N, uint64_t Seed) : W(N, Seed) {
    W.InsertsPerInvocation = 1; // One insertion per removed minimum.
    W.RandomRemovalsPerInvocation = 0;
    F = W.build(M);
    Mem.layoutGlobals(M);
    W.initData(Mem);
  }

  std::vector<int64_t> args() { return W.invocationArgs(Mem); }
  int64_t digest() const { return W.resultDigest(Mem); }
  void churn() {
    if (Mem.heapTop() + 64 > Mem.size())
      throw std::runtime_error("serve_mixed: the IR twins' VM heap is "
                               "exhausted; raise kVmWords");
    W.mutate(Mem);
  }
};

template <bool Tracing> class ServeMixed {
  using OtterT = TraitsFor<OtterTraits, Tracing>;
  using McfT = TraitsFor<McfTraits, Tracing>;

public:
  ServeMixed(const Options &O, SetupTimes &T) {
    Lap Clock;
    List.emplace(kClauses, O.Seed);
    Tree.emplace(kNodes, O.Seed + 1);
    TreeTwin.emplace(kNodes, O.Seed + 1);
    Pkts.emplace(kFlows, kBuckets, kPackets, O.Seed + 2);
    PktsTwin.emplace(kFlows, kBuckets, kPackets, O.Seed + 2);
    newTraces();
    Interp.emplace(kIrClauses, O.Seed + 3);
    JitPar.emplace(kIrClauses, O.Seed + 3);
    JitSeq.emplace(kIrClauses, O.Seed + 3);
    T.InputsS = Clock.next();

    core::RuntimeConfig RC = runtimeConfig();
    RC.Policy = core::LanePolicy::FairShare;
    RT.emplace(RC);
    core::LoopOptions LO;
    LO.ChunksPerThread = kChunksPerThread;
    OtterLoop.emplace(OtterTr, *RT, LO);
    core::LoopOptions McfLO = LO;
    McfLO.EnableConflictDetection = true;
    McfLoop.emplace(McfTr, *RT, McfLO);
    PktLoop.emplace(Pkts->makeLoop(*RT, LO));
    Cache.emplace();
    ParRun.emplace(*RT, *JitPar->F, JitPar->Mem, *Cache, LO);
    SeqRun.emplace(*RT, *JitSeq->F, JitSeq->Mem, *Cache, LO);
    if (!ParRun->supported() || !SeqRun->supported())
      throw std::runtime_error("serve_mixed: JIT refused: " + ParRun->whyNot());
    T.RuntimeS = Clock.next();

    // Warm up until both JIT runners are promoted (the default tier
    // interprets first, then compiles) and every loop has run parallel.
    RunAccount A;
    LayerSamples L;
    for (unsigned I = 0;; ++I) {
      if (I == kMaxWarmup)
        throw std::runtime_error("serve_mixed: warm-up did not converge");
      const bool WasJitted = ParRun->jitted();
      if (!request(A, L, (I & 1) != 0))
        throw std::runtime_error("serve_mixed: a warm-up request failed");
      if (!WasJitted && ParRun->jitted())
        T.PromoteUs = LastJitUs;
      if (I + 1 >= kMinWarmup && ParRun->jitted() && SeqRun->jitted())
        break;
    }
    T.WarmupS = Clock.next();
  }

  bool request(RunAccount &A, LayerSamples &L, bool SpiceFirst) {
    Clause *WantMin = nullptr;
    int64_t WantChecksum = 0, WantJit = 0, WantJitSeq = 0, WantDigest = 0;
    PacketState WantPkt;
    const auto Oracles = [&] {
      {
        OracleTimer Timer(A, List->size());
        WantMin = List->lightest();
      }
      {
        OracleTimer Timer(A, NodeIters);
        WantChecksum = TreeTwin->refreshPotentialReference();
      }
      {
        OracleTimer Timer(A, PktsTwin->traceLength());
        WantPkt = PktsTwin->processTraceReference();
      }
      {
        // The JIT loop's sequential side is its own JIT-sequential run.
        OracleTimer Timer(A, kIrClauses);
        WantJitSeq = SeqRun->invokeSequential(JitSeq->args());
      }
      const std::vector<int64_t> Args = Interp->args();
      const int64_t T0 = nowNs();
      WantJit = vm::runFunction(*Interp->F, Interp->Mem, Args).ReturnValue;
      L.InterpSec += 1e-9 * static_cast<double>(nowNs() - T0);
      ++L.InterpInvocations;
      WantDigest = Interp->digest();
    };

    typename OtterT::State GotMin{};
    typename McfT::State GotTree{};
    PacketState GotPkt;
    int64_t GotJit = 0;
    const auto Spice = [&] {
      const unsigned Client = threadTag();
      SpiceWindow W;
      auto FO = OtterLoop->submit(List->head());
      const int64_t T1 = nowNs();
      auto FM = McfLoop->submit(Tree->traversalStart());
      const int64_t T2 = nowNs();
      auto FP = PktLoop->submit(Pkts->traceBegin());
      const int64_t T3 = nowNs();
      auto PJ = ParRun->submit(JitPar->args());
      const int64_t T4 = nowNs();
      GotMin = FO.get();
      const int64_t DoneO = nowNs();
      GotTree = FM.get();
      const int64_t DoneM = nowNs();
      GotPkt = FP.get();
      const int64_t T5 = nowNs();
      GotJit = PJ.get();
      const int64_t Done = W.close(A);
      LastJitUs = 1e-3 * static_cast<double>((T4 - T3) + (Done - T5));
      if constexpr (Tracing) {
        const int64_t T0 = W.startNs();
        L.SubmitUs.push_back(1e-3 * static_cast<double>(T1 - T0));
        L.SubmitUs.push_back(1e-3 * static_cast<double>(T2 - T1));
        L.SubmitUs.push_back(1e-3 * static_cast<double>(T3 - T2));
        L.JitInvokeUs.push_back(LastJitUs);
        harvest(OtterTr.Log, T0, DoneO, Client, L);
        harvest(McfTr.Log, T1, DoneM, Client, L);
      }
    };

    if (SpiceFirst) {
      Spice();
      Oracles();
    } else {
      Oracles();
      Spice();
    }
    bool Ok = innerState(GotMin).MinClause == WantMin;
    Ok &= innerState(GotMin).MinWeight == WantMin->PickWeight;
    Ok &= innerState(GotTree).Checksum == WantChecksum;
    Ok &= potentialsMatch(*Tree, *TreeTwin);
    Ok &= GotPkt == WantPkt;
    Ok &= Pkts->table().countersEqual(PktsTwin->table());
    Ok &= GotJit == WantJit && WantJitSeq == WantJit;
    Ok &= JitPar->digest() == WantDigest && JitSeq->digest() == WantDigest;

    List->churn(WantMin);
    Tree->mutate(kArcChanges, kRelocations);
    TreeTwin->mutate(kArcChanges, kRelocations);
    newTraces();
    Interp->churn();
    JitPar->churn();
    JitSeq->churn();
    return Ok;
  }

  Counters counters() {
    Counters C;
    addStats(C.Loops, OtterLoop->lastStats());
    addStats(C.Loops, McfLoop->lastStats());
    addStats(C.Loops, PktLoop->lastStats());
    addStats(C.Loops, ParRun->loopStats());
    C.Sched = RT->schedulerStats();
    C.Sessions = RT->pool().sessionPoolStats();
    addBuffers(C.Buffers, OtterLoop->bufferPoolStats());
    addBuffers(C.Buffers, McfLoop->bufferPoolStats());
    addBuffers(C.Buffers, PktLoop->bufferPoolStats());
    C.Jit = ParRun->tierStats();
    C.Cache = Cache->stats();
    return C;
  }

  bool identitiesHold(std::string &Why) const {
    return stealIdentityHolds(OtterLoop->lastStats(), "otter", Why) &&
           stealIdentityHolds(McfLoop->lastStats(), "mcf", Why) &&
           stealIdentityHolds(PktLoop->lastStats(), "packets", Why) &&
           stealIdentityHolds(ParRun->loopStats(), "jit otter", Why) &&
           grantIdentityHolds(RT->schedulerStats(), Why);
  }

private:
  void newTraces() {
    Pkts->generateTrace(kPackets);
    PktsTwin->generateTrace(kPackets);
  }

  // Inputs and their oracle twins.
  std::optional<FixedClauseList> List;
  std::optional<BasisTree> Tree, TreeTwin;
  const uint64_t NodeIters = kNodes - 1;
  std::optional<PacketPipeline> Pkts, PktsTwin;
  std::optional<IrTwin> Interp, JitPar, JitSeq;
  // The runtime, then its loops: declared after it, destroyed before it.
  std::optional<core::SpiceRuntime> RT;
  OtterT OtterTr;
  McfT McfTr;
  std::optional<core::SpiceLoop<OtterT>> OtterLoop;
  std::optional<core::SpiceLoop<McfT>> McfLoop;
  std::optional<PacketPipeline::Loop> PktLoop;
  std::optional<jit::CodeCache> Cache;
  std::optional<jit::JitLoopRunner> ParRun, SeqRun;
  double LastJitUs = 0;
};

} // namespace

Outcome runServeMixed(const Options &O, double BusyCpus) {
  return O.Trace ? runWorkload<ServeMixed, true>(O, BusyCpus)
                 : runWorkload<ServeMixed, false>(O, BusyCpus);
}

} // namespace perfbench
