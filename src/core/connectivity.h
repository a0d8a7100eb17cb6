// Boruvka-over-sketches connectivity computation (paper Figure 9).
//
// Each round queries one fresh subsketch per current component for a cut
// edge, merges the endpoints' components in a DSU, and XOR-sums the
// merged components' sketches (linearity makes the sum a sketch of the
// merged component's cut vector). Rounds use independent subsketches
// because query answers feed back into later merges (adaptivity).
//
// The engine parallelizes each round's two heavy phases across a small
// thread pool — per-component cut sampling, and the XOR fold of merged
// components' sketches — while keeping the round barrier and a
// deterministic merge order, so the result is bitwise identical for any
// thread count.
#ifndef GZ_CORE_CONNECTIVITY_H_
#define GZ_CORE_CONNECTIVITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_snapshot.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

struct ConnectivityResult {
  // True when the sketches could not complete Boruvka within the round
  // budget (probability polynomially small; Section 6.3 observes zero
  // failures in practice).
  bool failed = false;
  EdgeList spanning_forest;
  // Component id (the DSU root) per node.
  std::vector<NodeId> component_of;
  // Number of connected components.
  size_t num_components = 0;
  // Boruvka rounds actually executed.
  int rounds_used = 0;

  // Point connectivity query against this result. Out-of-range node ids
  // are simply not connected to anything.
  bool Connected(NodeId u, NodeId v) const {
    if (u >= component_of.size() || v >= component_of.size()) return false;
    return component_of[u] == component_of[v];
  }
};

// The snapshot-facing query: computes the connected components and a
// spanning forest of the sketched graph. The snapshot is never copied:
// Boruvka samples its sketches directly, copy-on-write (see the const
// BoruvkaConnectivity below), and leaves it bitwise untouched, so it
// can be queried again, merged, or serialized afterwards.
//
// `num_threads`: 0 picks a small pool automatically (bounded by the
// hardware), 1 forces the sequential path, N uses N threads. Results
// are identical for every value.
ConnectivityResult Connectivity(const GraphSnapshot& snapshot,
                                int num_threads = 0);

// Rvalue form: consumes the snapshot's sketches and folds them in
// place, so querying a temporary (e.g. Connectivity(gz.Snapshot()))
// allocates nothing per component.
ConnectivityResult Connectivity(GraphSnapshot&& snapshot,
                                int num_threads = 0);

// Resolution of num_threads = 0 ("auto"): min(hardware_concurrency, 8),
// at least 1. Exposed so benchmarks can report the pool size.
int ResolveQueryThreads(int num_threads);

// Computes a spanning forest from the given node sketches.
// `sketches[i]` must be the node sketch of vertex i, all built with
// identical params.
//
// `first_round`/`num_rounds` restrict Boruvka to a window of sketch
// rounds (default: all of them) so that multi-phase algorithms — e.g.
// the spanning-forest decomposition in algos/ — can give each phase
// fresh, adaptivity-safe rounds. num_rounds < 0 means "through the
// last round". `num_threads` as in Connectivity().
//
// Pointer form: the caller hands the sketches over and they are folded
// in place (destroyed as graph state).
ConnectivityResult BoruvkaConnectivity(std::vector<NodeSketch>* sketches,
                                       int first_round = 0,
                                       int num_rounds = -1,
                                       int num_threads = 1);

// Const form, copy-on-write: the same engine and the same result,
// bitwise, but `sketches` is only read. Every node samples the
// caller's sketch until, as a component representative, it first
// absorbs another; then it gets a private sketch holding only the
// window's rounds after the current one, built as the XOR of the two
// inputs in one pass. A folded-away node's private sketch is freed at
// once, so the extra memory stays below one copy of the input.
ConnectivityResult BoruvkaConnectivity(const std::vector<NodeSketch>& sketches,
                                       int first_round = 0,
                                       int num_rounds = -1,
                                       int num_threads = 1);

// Groups nodes by component id. Helper for callers that want explicit
// component membership lists.
std::vector<std::vector<NodeId>> ComponentsFromLabels(
    const std::vector<NodeId>& component_of);

// Problem 1 of the paper asks for the spanning forest as an
// *insert-only edge stream*; this writes exactly that, reusing the
// binary stream-file format (every record an insertion).
Status WriteSpanningForestStream(const ConnectivityResult& result,
                                 uint64_t num_nodes,
                                 const std::string& path);

}  // namespace gz

#endif  // GZ_CORE_CONNECTIVITY_H_
