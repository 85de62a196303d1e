//===- perfbench/src/Trace.h - Chunk spans from outside src/ ----*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracing of the traced run, built only on the runtime's public Traits
/// protocol: Traced<Inner> forwards every call to a workload's Traits
/// and timestamps, per chunk execution, the first step() and every
/// kSampleEvery-th step after it, plus the step that reports the loop
/// exit. SpiceLoop calls Traits::initialState() once at the start of
/// every chunk execution (chunk 0, speculative and recovery chunks,
/// sequential invocations) on the thread that runs it, so the state's
/// span pointer identifies one chunk execution and its thread.
///
/// A matched chunk ends without another step() call, so its span ends
/// at its last sample: spans are short by at most kSampleEvery - 1
/// iterations, and span / sampled-iterations stays exact.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Harness.h"

#include "core/SpecWriteBuffer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace perfbench {

/// Small per-thread tag (the client thread's is taken at run start).
unsigned threadTag();

/// One chunk execution.
struct ChunkSpan {
  unsigned Thread = 0;
  int64_t FirstNs = 0;  ///< First step() call.
  int64_t LastNs = 0;   ///< Last sampled step() call.
  uint64_t Calls = 0;   ///< step() calls so far.
  uint64_t LastIdx = 0; ///< Iterations completed before LastNs.
};

/// Fixed-capacity span log of one loop's in-flight invocation. Worker
/// threads open spans concurrently; the client reads and clears the log
/// after get() returns, when the invocation's lanes are joined.
class TraceLog {
public:
  static constexpr unsigned kCapacity = 1024;

  ChunkSpan *open() {
    const unsigned I = Used.fetch_add(1, std::memory_order_relaxed);
    ChunkSpan *S = I < kCapacity ? &Spans[I] : &overflowSpan();
    *S = ChunkSpan{};
    S->Thread = threadTag();
    return S;
  }

  unsigned size() const {
    return std::min(Used.load(std::memory_order_relaxed), kCapacity);
  }
  unsigned dropped() const {
    const unsigned U = Used.load(std::memory_order_relaxed);
    return U > kCapacity ? U - kCapacity : 0;
  }
  const ChunkSpan &operator[](unsigned I) const { return Spans[I]; }
  void clear() { Used.store(0, std::memory_order_relaxed); }

private:
  /// Per-thread sink for spans past the capacity (counted as dropped).
  static ChunkSpan &overflowSpan() {
    thread_local ChunkSpan Sink;
    return Sink;
  }

  std::array<ChunkSpan, kCapacity> Spans{};
  std::atomic<unsigned> Used{0};
};

/// Forwarding Traits wrapper that records chunk spans into Log.
template <typename Inner> struct Traced {
  static constexpr uint64_t kSampleEvery = 64;

  using LiveIn = typename Inner::LiveIn;
  struct State {
    typename Inner::State In;
    ChunkSpan *Span;
  };

  Inner Wrapped;
  TraceLog Log;

  State initialState() { return {Wrapped.initialState(), Log.open()}; }

  bool step(LiveIn &LI, State &S, spice::core::SpecSpace &Mem) {
    ChunkSpan &Sp = *S.Span;
    const uint64_t N = Sp.Calls++;
    if (N % kSampleEvery == 0)
      stamp(Sp, N);
    if (Wrapped.step(LI, S.In, Mem))
      return true;
    stamp(Sp, N); // The exit test: N iterations ran before it.
    return false;
  }

  void combine(State &Into, State &&Chunk) {
    Wrapped.combine(Into.In, std::move(Chunk.In));
  }

private:
  static void stamp(ChunkSpan &Sp, uint64_t N) {
    const int64_t T = nowNs();
    if (N == 0)
      Sp.FirstNs = T;
    Sp.LastNs = T;
    Sp.LastIdx = N;
  }
};

/// The loop Traits of a workload: plain, or wrapped when tracing.
template <typename Inner, bool Tracing>
using TraitsFor = std::conditional_t<Tracing, Traced<Inner>, Inner>;

/// The workload's own state inside a (possibly traced) loop result.
template <typename S> const auto &innerState(const S &St) {
  if constexpr (requires { St.Span; })
    return St.In;
  else
    return St;
}

/// Folds the spans of one finished invocation into \p L and clears the
/// log. \p SubmitNs is when the client entered submit(), \p DoneNs when
/// get() returned, \p Client the driving thread's tag.
void harvest(TraceLog &Log, int64_t SubmitNs, int64_t DoneNs,
             unsigned Client, LayerSamples &L);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
