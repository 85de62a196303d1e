//===- tests/chunk_controller_test.cpp - Adaptive chunking tests ----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The ChunkController owns no clock and consumes plain counter deltas, so
// its k trajectory is a pure function of the sample trace. These tests
// replay hand-built traces and assert the exact decisions, then exercise
// the controller end-to-end inside SpiceLoop: registration validation,
// tuning()/lastStats() introspection, and two loops adapting concurrently
// on one runtime (the latter runs under TSan in CI).
//
//===----------------------------------------------------------------------===//

#include "core/ChunkController.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

// A parallel invocation whose per-sample score is Score: Iterations and
// WastedIterations are split so (It - Rec) / (It + Wasted) == Score with
// no load-imbalance penalty. Recovery controls the re-probe direction
// heuristic (RecFrac = Recovery / Iterations per epoch).
InvocationSample sampleWithScore(double Score, uint64_t Recovery = 0) {
  InvocationSample S;
  S.Iterations = 100 + Recovery;
  S.RecoveryIterations = Recovery;
  S.WastedIterations =
      static_cast<uint64_t>((S.Iterations - Recovery) / Score) - S.Iterations;
  return S;
}

// A CLEAN low-score sample: all the deficit is load imbalance, no wasted
// or re-executed work. Distinguishes the re-probe direction heuristic's
// "boundaries hurt" signals from a plain balance problem.
InvocationSample sampleWithImbalance(double Score) {
  InvocationSample S;
  S.Iterations = 100;
  S.LoadImbalance = 1.0 / Score;
  return S;
}

ChunkControllerConfig testConfig() {
  ChunkControllerConfig C;
  C.MinK = 1;
  C.MaxK = 8;
  C.EpochInvocations = 2; // Short epochs keep the replay trace readable.
  C.SettleEpochs = 0;     // Score every epoch; the settle-discard rule
                          // has its own dedicated test below.
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pure controller: score, ladder, replay determinism
//===----------------------------------------------------------------------===//

TEST(ChunkControllerScore, UsefulWorkFractionOverImbalance) {
  InvocationSample S;
  S.Iterations = 100;
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 1.0);

  S.WastedIterations = 100; // Half the executed work was discarded.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.5);

  S.RecoveryIterations = 50; // Half the committed work ran twice.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.25);

  S.LoadImbalance = 2.0; // Makespan twice the ideal halves the score.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.125);

  S.LoadImbalance = 0.5; // Below-1 imbalance (unavailable) is no penalty.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.25);

  InvocationSample Empty;
  EXPECT_DOUBLE_EQ(ChunkController::score(Empty), 0.0);
}

TEST(ChunkController, ReplayedTraceProducesExactKTrajectory) {
  // Epochs of two samples each. Per-epoch mean scores and the decision
  // the controller must make at each boundary:
  //   E1 0.50 baseline            -> first ladder step, k 1 -> 2
  //   E2 0.70 better (>8% band)   -> keep climbing,     k 2 -> 4
  //   E3 0.60 worse               -> step back, settle, k 4 -> 2 (steady)
  //   E4 0.72 within 30% drift    -> hold,              k = 2
  //   E5 0.30 drifted, recovery-heavy -> re-probe coarser, k 2 -> 1
  //   E6 0.50 better at MinK      -> ladder ends, settle steady at k = 1
  const std::vector<InvocationSample> Trace = {
      sampleWithScore(0.50), sampleWithScore(0.50), // E1
      sampleWithScore(0.70), sampleWithScore(0.70), // E2
      sampleWithScore(0.60), sampleWithScore(0.60), // E3
      sampleWithScore(0.72), sampleWithScore(0.72), // E4
      sampleWithScore(0.30, /*Recovery=*/40),       // E5: RecFrac ~ 0.29
      sampleWithScore(0.30, /*Recovery=*/40),
      sampleWithScore(0.50), sampleWithScore(0.50), // E6
  };
  const std::vector<unsigned> WantK = {1, 2, 2, 4, 4, 2, 2, 2, 2, 1, 1, 1};

  ChunkController C(testConfig());
  ASSERT_EQ(C.currentK(), 1u);
  std::vector<unsigned> GotK;
  for (const InvocationSample &S : Trace)
    GotK.push_back(C.onInvocation(S));
  EXPECT_EQ(GotK, WantK);

  const ChunkController::Snapshot Snap = C.snapshot();
  EXPECT_EQ(Snap.K, 1u);
  EXPECT_EQ(Snap.M, ChunkController::Mode::Steady);
  EXPECT_EQ(Snap.Decisions, 6u);
  EXPECT_EQ(Snap.Grows, 2u);
  EXPECT_EQ(Snap.Shrinks, 2u);
  EXPECT_EQ(Snap.Reprobes, 1u);
  EXPECT_DOUBLE_EQ(Snap.SteadyScore, 0.5);

  // Determinism: a second controller fed the identical trace takes the
  // identical trajectory.
  ChunkController C2(testConfig());
  std::vector<unsigned> GotK2;
  for (const InvocationSample &S : Trace)
    GotK2.push_back(C2.onInvocation(S));
  EXPECT_EQ(GotK2, GotK);
  EXPECT_EQ(C2.snapshot().Decisions, Snap.Decisions);
  EXPECT_EQ(C2.snapshot().Grows, Snap.Grows);
  EXPECT_EQ(C2.snapshot().Shrinks, Snap.Shrinks);
}

TEST(ChunkController, SequentialInvocationsCarryNoSignal) {
  ChunkController C(testConfig());
  InvocationSample Seq;
  Seq.Sequential = true;
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(C.onInvocation(Seq), 1u);
  // No epoch completed: still at the baseline, zero decisions.
  EXPECT_EQ(C.snapshot().EpochFill, 0u);
  EXPECT_EQ(C.snapshot().Decisions, 0u);

  // One parallel sample fills half an epoch; a sequential one in between
  // does not advance it.
  (void)C.onInvocation(sampleWithScore(0.5));
  (void)C.onInvocation(Seq);
  EXPECT_EQ(C.snapshot().EpochFill, 1u);
}

TEST(ChunkController, DegenerateRangeSettlesImmediately) {
  ChunkControllerConfig Cfg = testConfig();
  Cfg.MinK = Cfg.MaxK = 4;
  ChunkController C(Cfg);
  EXPECT_EQ(C.currentK(), 4u);
  (void)C.onInvocation(sampleWithScore(0.5));
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.5)), 4u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.snapshot().Grows, 0u);
  EXPECT_EQ(C.snapshot().Shrinks, 0u);
}

TEST(ChunkController, FlatProbeRevertsTheStep) {
  // A probe step that lands within the deadband is noise, not a win: the
  // controller must return to the rung it came from (settling in place
  // would let flat comparisons walk k away from a good setting).
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.50)); // E1 baseline -> k 2
  ASSERT_EQ(C.currentK(), 2u);
  unsigned K = 2;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithScore(0.51)); // E2 flat (+2%) -> revert
  EXPECT_EQ(K, 1u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_DOUBLE_EQ(C.snapshot().SteadyScore, 0.50)
      << "holds the baseline rung's score, not the flat probe's";
}

TEST(ChunkController, ImprovementNeverReopensProbing) {
  // Settle at k = 1, then improve far beyond the drift band: a k that
  // got BETTER is no evidence against itself, so the controller must
  // absorb the upside into the tracked score and hold.
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.50)); // E1 baseline -> k 2
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.40)); // E2 worse -> settle k 1
  ASSERT_EQ(C.currentK(), 1u);
  ASSERT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  unsigned K = 1;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithScore(0.95)); // Nearly doubled score.
  EXPECT_EQ(K, 1u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.snapshot().Reprobes, 0u);
  EXPECT_GT(C.snapshot().SteadyScore, 0.50) << "upside tracked, not probed";
}

TEST(ChunkController, ReprobeTowardFinerOnCleanDeterioration) {
  // Settle at k = 2, then deteriorate with CLEAN samples (the deficit is
  // pure load imbalance): boundaries are not hurting, so the re-probe
  // direction must be finer.
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.50)); // E1 baseline -> k 2
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.70)); // E2 better -> k 4
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.40)); // E3 worse -> settle k 2
  ASSERT_EQ(C.currentK(), 2u);
  ASSERT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  unsigned K = 2;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithImbalance(0.30)); // Clean deterioration.
  EXPECT_EQ(K, 4u) << "clean deterioration probes finer chunks";
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Probing);
  EXPECT_EQ(C.snapshot().Reprobes, 1u);
}

TEST(ChunkController, WasteHeavyDeteriorationHoldsAtMinK) {
  // Settle at MinK, then deteriorate with waste-heavy epochs (rare whole
  // -chunk squashes, the churning-list signature): the wanted direction
  // is coarser, which is unavailable at MinK -- the controller must hold
  // rather than probe the known-bad finer direction.
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.90)); // E1 baseline -> k 2
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.70)); // E2 worse -> settle k 1
  ASSERT_EQ(C.currentK(), 1u);
  ASSERT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  unsigned K = 1;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithScore(0.30)); // WasteFrac >> WasteHigh.
  EXPECT_EQ(K, 1u) << "coarser is unavailable at MinK: hold";
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.snapshot().Reprobes, 0u);
}

TEST(ChunkController, SettleEpochDiscardedAfterEachMove) {
  // Every k move recuts the plan, so the first epoch on the new rung is
  // transitional: with SettleEpochs = 1 (the default) it must be
  // observed but never drive a decision.
  ChunkControllerConfig Cfg = testConfig();
  Cfg.EpochInvocations = 1;
  Cfg.SettleEpochs = 1;
  ChunkController C(Cfg);

  EXPECT_EQ(C.onInvocation(sampleWithScore(0.50)), 2u); // E1 baseline -> k 2
  EXPECT_EQ(C.snapshot().Decisions, 1u);

  // E2 is the settle epoch: a terrible score right after the move is
  // transition churn, not evidence against k = 2.
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.10)), 2u);
  EXPECT_EQ(C.snapshot().Decisions, 1u) << "settle epoch is not scored";
  EXPECT_DOUBLE_EQ(C.snapshot().LastEpochScore, 0.10) << "but is observed";

  // E3 is the scored epoch: settled k = 2 beats the baseline, so the
  // climb continues -- and earns its own settle epoch.
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.70)), 4u);
  EXPECT_EQ(C.snapshot().Decisions, 2u);
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.10)), 4u); // E4: settling
  EXPECT_EQ(C.snapshot().Decisions, 2u);

  // E5 scored: worse than 0.70, so revert to k 2 -- the revert is a move
  // too, and E6 settles it before Steady epochs are scored again.
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.40)), 2u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.10)), 2u); // E6: settling
  EXPECT_EQ(C.snapshot().Decisions, 3u) << "settle epoch after revert";
  EXPECT_EQ(C.currentK(), 2u) << "0.10 would have broken the Steady hold "
                                 "had the settle epoch been scored";
}

//===----------------------------------------------------------------------===//
// Registration validation (fatal diagnostics)
//===----------------------------------------------------------------------===//

TEST(ChunkPolicyDeathTest, ZeroChunksPerThreadIsFatalAtRegistration) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(2);
        OtterTraits Traits;
        LoopOptions O;
        O.ChunksPerThread = 0;
        auto Loop = RT.makeLoop(Traits, O);
      },
      "ChunksPerThread is 0 at loop registration");
}

TEST(ChunkPolicyDeathTest, AdaptiveBoundsMustBeOrderedAndNonZero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(2);
        OtterTraits Traits;
        LoopOptions O;
        O.Chunking = ChunkPolicy::Adaptive(/*MinK=*/0, /*MaxK=*/8);
        auto Loop = RT.makeLoop(Traits, O);
      },
      "ChunkPolicy::Adaptive bounds are invalid");
  EXPECT_DEATH(
      {
        SpiceRuntime RT(2);
        OtterTraits Traits;
        LoopOptions O;
        O.Chunking = ChunkPolicy::Adaptive(/*MinK=*/4, /*MaxK=*/2);
        auto Loop = RT.makeLoop(Traits, O);
      },
      "ChunkPolicy::Adaptive bounds are invalid");
}

//===----------------------------------------------------------------------===//
// End-to-end: adaptive loops on a runtime
//===----------------------------------------------------------------------===//

TEST(AdaptiveChunking, TuningReportsControllerStateAndBounds) {
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Adaptive(/*MinK=*/1, /*MaxK=*/8);
  auto Loop = RT.makeLoop(Traits, O);

  LoopTuning T = Loop.tuning();
  EXPECT_TRUE(T.Adaptive);
  EXPECT_EQ(T.MinK, 1u);
  EXPECT_EQ(T.MaxK, 8u);
  EXPECT_EQ(T.ChunksPerThread, 1u) << "controller starts at MinK";
  EXPECT_EQ(T.PlannedChunks, 4u);

  ClauseList List(600, 17);
  for (int I = 0; I != 40; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
    List.mutate(Got.MinClause, 2);
  }
  T = Loop.tuning();
  EXPECT_GE(T.ChunksPerThread, T.MinK);
  EXPECT_LE(T.ChunksPerThread, T.MaxK);
  EXPECT_EQ(T.PlannedChunks, T.ChunksPerThread * 4u);
  EXPECT_GT(T.Controller.Decisions, 0u) << "40 invocations complete epochs";
  EXPECT_GT(T.LaneShare, 0.0);
}

TEST(AdaptiveChunking, StaticLoopTuningRestatesPinnedK) {
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  const LoopTuning T = Loop.tuning();
  EXPECT_FALSE(T.Adaptive);
  EXPECT_EQ(T.ChunksPerThread, 2u);
  EXPECT_EQ(T.MinK, 2u);
  EXPECT_EQ(T.MaxK, 2u);
  EXPECT_EQ(T.PlannedChunks, 8u);
  EXPECT_EQ(T.Controller.M, ChunkController::Mode::Steady);
  EXPECT_EQ(T.Controller.Decisions, 0u);
}

TEST(AdaptiveChunking, LastStatsIsAConsistentPostInvocationSnapshot) {
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Adaptive(1, 4);
  auto Loop = RT.makeLoop(Traits, O);
  ClauseList List(400, 23);
  uint64_t PrevInvocations = 0;
  for (int I = 0; I != 12; ++I) {
    (void)Loop.invoke(List.head());
    const SpiceStats S = Loop.lastStats();
    // Each snapshot is internally consistent and strictly newer than the
    // previous one -- cumulative counters never run backwards.
    EXPECT_EQ(S.Invocations, PrevInvocations + 1);
    EXPECT_GE(S.Invocations,
              S.SequentialInvocations + S.MisspeculatedInvocations);
    EXPECT_GE(S.TotalIterations, S.RecoveryIterations);
    PrevInvocations = S.Invocations;
  }
}

TEST(AdaptiveChunking, CorrectUnderHeavyChurnWhileAdapting) {
  // Aggressive churn forces squashes and recovery while the controller
  // moves k: adaptation must never compromise the sequential semantics.
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Adaptive(1, 8);
  auto Loop = RT.makeLoop(Traits, O);
  ClauseList List(300, 77);
  for (int I = 0; I != 60; ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << I;
    List.mutate(Got.MinClause, 30);
  }
}

TEST(AdaptiveChunking, TwoLoopsAdaptIndependentlyAndConcurrently) {
  // One runtime, two adaptive loops driven from two threads: a stable
  // otter list (clean signal, free to grow k) and an mcf walk with stale
  // potentials (conflict-heavy, recovery pushes k the other way). Runs
  // under TSan in CI: controller state, throughput feedback, and the
  // shared scheduler must not race.
  SpiceRuntime RT(4);
  OtterTraits OT;
  LoopOptions OtterOpts;
  OtterOpts.Chunking = ChunkPolicy::Adaptive(1, 8);
  auto OtterLoop = RT.makeLoop(OT, OtterOpts);

  McfTraits MT;
  LoopOptions McfOpts;
  McfOpts.Chunking = ChunkPolicy::Adaptive(1, 8);
  McfOpts.EnableConflictDetection = true;
  auto McfLoop = RT.makeLoop(MT, McfOpts);

  std::thread OtterThread([&] {
    ClauseList List(600, 31);
    for (int I = 0; I != 40; ++I) {
      OtterTraits::State Got = OtterLoop.invoke(List.head());
      ASSERT_EQ(Got.MinClause, List.findLightestReference());
    }
  });
  std::thread McfThread([&] {
    BasisTree TreeSpice(800, 37);
    BasisTree TreeRef(800, 37);
    for (int I = 0; I != 15; ++I) {
      int64_t Want = TreeRef.refreshPotentialReference();
      McfTraits::State Got = McfLoop.invoke(TreeSpice.traversalStart());
      ASSERT_EQ(Got.Checksum, Want);
      TreeSpice.mutate(/*Arcs=*/40, /*Relocations=*/0, /*PropagateNow=*/false);
      TreeRef.mutate(40, 0, false);
    }
  });
  OtterThread.join();
  McfThread.join();

  const LoopTuning A = OtterLoop.tuning();
  const LoopTuning B = McfLoop.tuning();
  EXPECT_GT(A.Controller.Decisions, 0u);
  EXPECT_GT(B.Controller.Decisions, 0u);
  EXPECT_GE(A.ChunksPerThread, 1u);
  EXPECT_LE(A.ChunksPerThread, 8u);
  EXPECT_GE(B.ChunksPerThread, 1u);
  EXPECT_LE(B.ChunksPerThread, 8u);
}
