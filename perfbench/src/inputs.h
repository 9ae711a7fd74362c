#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// The benchmark's input generator. Everything the program under test
// receives — the bootstrap graph, the churn windows and the request
// seeds — is drawn here from the workload seed alone.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/generators.h"
#include "fastppr/graph/types.h"
#include "fastppr/util/random.h"

namespace perfbench {

constexpr std::size_t kNumNodes = 100'000;
constexpr std::size_t kNumEdges = 1'000'000;
/// Probability that a streamed event deletes a uniformly random live
/// edge instead of inserting the next pending one.
constexpr double kDeleteShare = 0.2;
constexpr std::size_t kWindowEvents = 1024;
/// Request seeds must reach this many rankable nodes over edges that
/// exist at every epoch (see Inputs::seeds).
constexpr std::size_t kMinReach = 20;

struct Inputs {
  std::size_t num_nodes = 0;
  std::vector<fastppr::Edge> prefix;         ///< bootstrap edges
  std::vector<fastppr::EdgeEvent> events;    ///< the churn stream
  /// Request seeds: nodes from which a personalized walk can rank at
  /// least kMinReach nodes that are never the seed's friends, through
  /// edges present at every epoch — so a k-result answer is possible
  /// whatever snapshot serves the request. Shuffled: Zipf ranks map
  /// onto this order, so popularity carries no id-order signal.
  std::vector<fastppr::NodeId> seeds;

  std::size_t num_windows() const {
    return (events.size() + kWindowEvents - 1) / kWindowEvents;
  }
  /// Window w (1-based) of the churn stream.
  std::span<const fastppr::EdgeEvent> Window(std::size_t w) const {
    const std::size_t lo = (w - 1) * kWindowEvents;
    const std::size_t hi = std::min(events.size(), lo + kWindowEvents);
    return {events.data() + lo, hi - lo};
  }
  fastppr::DiGraph PrefixGraph() const {
    fastppr::DiGraph g(num_nodes);
    for (const fastppr::Edge& e : prefix) g.AddEdge(e.src, e.dst);
    return g;
  }
};

inline uint64_t PairKey(const fastppr::Edge& e) {
  return (static_cast<uint64_t>(e.src) << 32) | e.dst;
}

/// Compressed adjacency rows of an edge list (out rows, or in rows when
/// `reverse`).
class Adjacency {
 public:
  Adjacency(std::size_t n, const std::vector<fastppr::Edge>& edges, bool reverse)
      : offset_(n + 1, 0), target_(edges.size()) {
    for (const auto& e : edges) ++offset_[(reverse ? e.dst : e.src) + 1];
    for (std::size_t v = 0; v < n; ++v) offset_[v + 1] += offset_[v];
    std::vector<std::size_t> fill(offset_.begin(), offset_.end() - 1);
    for (const auto& e : edges) {
      target_[fill[reverse ? e.dst : e.src]++] = reverse ? e.src : e.dst;
    }
  }
  std::span<const fastppr::NodeId> Row(fastppr::NodeId v) const {
    return {target_.data() + offset_[v], offset_[v + 1] - offset_[v]};
  }
  void SortRows() {
    for (std::size_t v = 0; v + 1 < offset_.size(); ++v) {
      std::sort(target_.begin() + offset_[v], target_.begin() + offset_[v + 1]);
    }
  }
  /// Requires SortRows().
  bool Contains(fastppr::NodeId v, fastppr::NodeId x) const {
    const auto row = Row(v);
    return std::binary_search(row.begin(), row.end(), x);
  }

 private:
  std::vector<std::size_t> offset_;
  std::vector<fastppr::NodeId> target_;
};

/// Chung-Lu directed graph (heavy-tailed in- and out-degree) in random
/// arrival order; the prefix is the bootstrap graph, the rest streams as
/// inserts interleaved with deletions of live edges. `prefix_fraction`
/// of the edges form the prefix; `salsa_reach` ranks SALSA authorities
/// (forward, backward, forward from the seed) instead of PageRank's
/// two-hop out-neighbourhood when choosing request seeds.
inline Inputs GenerateInputs(double prefix_fraction, bool salsa_reach, uint64_t seed) {
  using fastppr::Edge;
  using fastppr::EdgeEvent;
  fastppr::Rng rng(seed);
  fastppr::ChungLuOptions gen;
  gen.num_nodes = kNumNodes;
  gen.num_edges = kNumEdges;
  std::vector<Edge> edges = fastppr::ChungLuDirected(gen, &rng);
  rng.Shuffle(&edges);

  Inputs in;
  in.num_nodes = kNumNodes;
  const std::size_t cut =
      static_cast<std::size_t>(prefix_fraction * static_cast<double>(edges.size()));
  in.prefix.assign(edges.begin(), edges.begin() + cut);

  std::vector<Edge> live = in.prefix;
  std::unordered_set<uint64_t> deleted;  // (src, dst) pairs ever deleted
  in.events.reserve(static_cast<std::size_t>(
      static_cast<double>(edges.size() - cut) / (1.0 - kDeleteShare)) + 16);
  std::size_t next = cut;
  while (next < edges.size()) {
    if (!live.empty() && rng.Bernoulli(kDeleteShare)) {
      const std::size_t i = rng.UniformIndex(live.size());
      const Edge victim = live[i];
      live[i] = live.back();
      live.pop_back();
      deleted.insert(PairKey(victim));
      in.events.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, victim});
    } else {
      const Edge e = edges[next++];
      live.push_back(e);
      in.events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    }
  }

  // Stable edges: bootstrap edges never deleted, present at every epoch.
  std::vector<Edge> stable;
  for (const Edge& e : in.prefix) {
    if (deleted.count(PairKey(e)) == 0) stable.push_back(e);
  }
  const Adjacency out(kNumNodes, stable, false);
  const Adjacency in_adj(kNumNodes, stable, true);
  // Friends at any epoch: every out-neighbour the seed ever has.
  std::vector<Edge> ever = in.prefix;
  for (const EdgeEvent& ev : in.events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) ever.push_back(ev.edge);
  }
  Adjacency friends(kNumNodes, ever, false);
  friends.SortRows();

  std::vector<fastppr::NodeId> found;
  for (fastppr::NodeId s = 0; s < kNumNodes; ++s) {
    found.clear();
    // Adds x when rankable for s; true once kMinReach are found.
    auto add = [&](fastppr::NodeId x) {
      if (x == s || friends.Contains(s, x) ||
          std::find(found.begin(), found.end(), x) != found.end()) {
        return false;
      }
      found.push_back(x);
      return found.size() >= kMinReach;
    };
    auto reach = [&] {
      for (fastppr::NodeId w : out.Row(s)) {
        if (!salsa_reach) {
          for (fastppr::NodeId x : out.Row(w)) if (add(x)) return true;
          continue;
        }
        for (fastppr::NodeId u : in_adj.Row(w)) {
          if (u == s) continue;
          for (fastppr::NodeId x : out.Row(u)) if (add(x)) return true;
        }
      }
      return false;
    };
    if (reach()) in.seeds.push_back(s);
  }
  rng.Shuffle(&in.seeds);
  return in;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
