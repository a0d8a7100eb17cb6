#include "algos/spanning_forests.h"

#include <string>

#include "core/connectivity.h"
#include "util/check.h"

namespace gz {

EdgeList ForestDecomposition::CertificateEdges() const {
  EdgeList all;
  for (const EdgeList& forest : forests) {
    all.insert(all.end(), forest.begin(), forest.end());
  }
  return all;
}

int RoundsForForests(uint64_t num_nodes, int k) {
  GZ_CHECK(k >= 1);
  return k * NodeSketch::DefaultRounds(num_nodes);
}

int MaxForestsForRounds(uint64_t num_nodes, int rounds) {
  return rounds / NodeSketch::DefaultRounds(num_nodes);
}

namespace {

// Peels up to k forests. Phase i runs copy-on-write Boruvka over
// `*current` (never copied); the peel that follows toggles the forest
// out of `*writable`, which takes a copy of `input` first unless it
// already is `input` (the caller handed its sketches over). So a const
// input is copied at most once, and only if a later phase runs.
Result<ForestDecomposition> PeelForests(const std::vector<NodeSketch>& input,
                                        std::vector<NodeSketch>* writable,
                                        int k) {
  GZ_CHECK(!input.empty());
  // k arrives from CLIs and wire queries: validate, don't abort, and
  // never clamp (a clamped k would certify less than the caller asked
  // for while claiming otherwise).
  if (k < 1) {
    return Status::InvalidArgument("forest count k must be >= 1, got " +
                                   std::to_string(k));
  }
  const uint64_t num_nodes = input[0].params().num_nodes;
  const int total_rounds = input[0].rounds();
  if (k > MaxForestsForRounds(num_nodes, total_rounds)) {
    return Status::InvalidArgument(
        "snapshot has too few rounds for the requested k: k=" +
        std::to_string(k) + " wants >= " +
        std::to_string(RoundsForForests(num_nodes, k)) + " rounds, have " +
        std::to_string(total_rounds) + " (max k here: " +
        std::to_string(MaxForestsForRounds(num_nodes, total_rounds)) + ")");
  }
  const int rounds_per_phase = total_rounds / k;

  ForestDecomposition result;
  const std::vector<NodeSketch>* current = &input;
  for (int phase = 0; phase < k; ++phase) {
    // Boruvka only reads the remaining-graph sketches, so they stay a
    // faithful sketch of the remaining graph for the next phase.
    const ConnectivityResult cc = BoruvkaConnectivity(
        *current, phase * rounds_per_phase, rounds_per_phase);
    if (cc.failed) {
      result.failed = true;
      break;
    }
    if (cc.spanning_forest.empty()) break;  // No edges left to peel.
    result.forests.push_back(cc.spanning_forest);
    if (phase + 1 == k) break;  // Nothing reads a last peel.
    if (current != writable) {
      *writable = input;
      current = writable;
    }
    // Peel: toggle the forest's edges out of the remaining graph.
    for (const Edge& e : cc.spanning_forest) {
      const uint64_t idx = EdgeToIndex(e, num_nodes);
      (*writable)[e.u].Update(idx);
      (*writable)[e.v].Update(idx);
    }
  }
  return result;
}

}  // namespace

Result<ForestDecomposition> ExtractSpanningForests(
    const GraphSnapshot& snapshot, int k) {
  GZ_CHECK_MSG(snapshot.valid(), "decomposing an empty snapshot");
  std::vector<NodeSketch> peeled;
  return PeelForests(snapshot.sketches(), &peeled, k);
}

Result<ForestDecomposition> ExtractSpanningForests(GraphSnapshot&& snapshot,
                                                   int k) {
  GZ_CHECK_MSG(snapshot.valid(), "decomposing an empty snapshot");
  std::vector<NodeSketch> sketches = snapshot.ReleaseSketches();
  return PeelForests(sketches, &sketches, k);
}

Result<ForestDecomposition> ExtractSpanningForests(
    std::vector<NodeSketch>* sketches, int k) {
  GZ_CHECK(sketches != nullptr && !sketches->empty());
  return PeelForests(*sketches, sketches, k);
}

}  // namespace gz
