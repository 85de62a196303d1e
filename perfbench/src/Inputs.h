//===- perfbench/src/Inputs.h - Inputs that do not drift --------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inputs shared by the workloads, chosen so a request does the same
/// amount of work however long a run lasts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "support/Random.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// otter's clause list over a fixed arena, at a constant length. Each
/// request unlinks the lightest clause and links the same clause back,
/// with a fresh weight, after a random predecessor: one insertion per
/// removal. workloads::ClauseList allocates a new clause for every
/// insertion, so its arena -- and the process's resident set -- would
/// grow with the number of requests a run completes. The list starts
/// in a random order over the arena, so the churn does not move the
/// list's memory locality as a run goes on.
class FixedClauseList {
public:
  FixedClauseList(size_t N, uint64_t Seed);

  spice::workloads::Clause *head() const { return Head; }
  size_t size() const { return Arena.size(); }

  /// The plain walk (workloads::ClauseList::findLightestReference on
  /// this list): the lightest clause, first on ties.
  spice::workloads::Clause *lightest() const;

  /// Unlinks \p Min and re-links it with a fresh weight after a random
  /// predecessor (or at the head).
  void churn(spice::workloads::Clause *Min);

private:
  std::vector<spice::workloads::Clause> Arena; ///< Never reallocated.
  spice::workloads::Clause *Head = nullptr;
  spice::RandomEngine Rng;
};

/// True when every node of \p A, walked in mcf's traversal order, holds
/// the potential of the same node of \p B (twins built from one seed and
/// mutated alike), and the two walks have the same length.
bool potentialsMatch(const spice::workloads::BasisTree &A,
                     const spice::workloads::BasisTree &B);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
