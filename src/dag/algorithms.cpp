#include "dag/algorithms.h"

#include <algorithm>
#include <numeric>

#include "dag/csr.h"
#include "util/bitmatrix.h"

namespace prio::dag {

std::optional<std::vector<NodeId>> topologicalOrder(const Digraph& g) {
  const std::size_t n = g.numNodes();
  const Csr& csr = g.csr();

  // Fast path: when every arc ascends (u < v), the identity permutation
  // IS the lexicographically smallest topological order. Proof sketch: by
  // induction, when it is node k's turn every node < k has executed, so
  // all of k's parents (ids < k) are done and k is ready, and every other
  // ready node has a larger id. One O(V) sweep, no bookkeeping.
  if (csr.edges_ascend) {
    std::vector<NodeId> order(n);
    for (NodeId u = 0; u < n; ++u) order[u] = u;
    return order;
  }

  // General path: Kahn over a ready-id bitmap. Extract-min scans the
  // bitmap from a cursor, 64 ids per word; a newly ready node below the
  // cursor pulls the cursor back. Each extraction yields the smallest
  // ready id — the same order the min-heap produced — without the heap's
  // O(log V) per operation or its allocation churn.
  std::vector<std::uint32_t> pending(n);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> ready(words, 0);
  std::size_t cursor = n;
  for (NodeId u = 0; u < n; ++u) {
    pending[u] = static_cast<std::uint32_t>(csr.inDegree(u));
    if (pending[u] == 0) {
      ready[u / 64] |= std::uint64_t{1} << (u % 64);
      if (u < cursor) cursor = u;
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    // Find the first set bit at or above `cursor`.
    std::size_t w = cursor / 64;
    std::uint64_t word =
        w < words ? ready[w] & (~std::uint64_t{0} << (cursor % 64)) : 0;
    while (word == 0) {
      if (++w >= words) break;
      word = ready[w];
    }
    if (w >= words) return std::nullopt;  // live nodes but none ready: cycle
    const NodeId u = static_cast<NodeId>(
        w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
    ready[w] &= ~(std::uint64_t{1} << (u % 64));
    order.push_back(u);
    cursor = u + 1;
    for (NodeId v : csr.children(u)) {
      if (--pending[v] == 0) {
        ready[v / 64] |= std::uint64_t{1} << (v % 64);
        if (v < cursor) cursor = v;
      }
    }
  }
  return order;
}

bool isAcyclic(const Digraph& g) { return topologicalOrder(g).has_value(); }

bool isTopologicalOrder(const Digraph& g, std::span<const NodeId> order) {
  const std::size_t n = g.numNodes();
  if (order.size() != n) return false;
  std::vector<std::size_t> position(n, n);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= n || position[order[i]] != n) return false;
    position[order[i]] = i;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.children(u)) {
      if (position[u] >= position[v]) return false;
    }
  }
  return true;
}

Digraph transitiveReduction(const Digraph& g) {
  auto order = topologicalOrder(g);
  PRIO_CHECK_MSG(order.has_value(), "transitiveReduction requires a dag");
  return transitiveReduction(g, *order);
}

Digraph transitiveReduction(const Digraph& g,
                            const obs::TraceContext& trace) {
  std::optional<std::vector<NodeId>> order;
  {
    obs::Span span(trace, "reduce.topo_order");
    order = topologicalOrder(g);
  }
  PRIO_CHECK_MSG(order.has_value(), "transitiveReduction requires a dag");
  obs::Span span(trace, "reduce.filter");
  return transitiveReduction(g, *order);
}

Digraph transitiveReduction(const Digraph& g,
                            std::span<const NodeId> topo_order) {
  const std::size_t n = g.numNodes();
  PRIO_CHECK_MSG(topo_order.size() == n,
                 "transitiveReduction: topo_order must cover every node");
  const Csr& csr = g.csr();

  // Arc u -> v is a shortcut iff v is reachable from another child of u,
  // which needs a second path into v: only joins can head a shortcut.
  // Column j of `reach` stands for the j-th join in id order.
  constexpr NodeId kNotJoin = ~NodeId{0};
  std::vector<NodeId> column(n, kNotJoin);
  NodeId joins = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (csr.inDegree(v) >= 2) column[v] = joins++;
  }
  std::vector<NodeId> position(n);
  for (NodeId i = 0; i < n; ++i) position[topo_order[i]] = i;

  // Row u holds the joins reachable from u by a path of length >= 1,
  // filled in reverse topological order so children's rows are complete.
  // u's arcs are visited in the topological order of their heads, so a
  // child that reaches v comes before v: v is a shortcut head iff its
  // column is already set when its arc is visited. A shortcut child adds
  // nothing to the row, so its OR is skipped.
  //
  // Rows longer than one tile are filled one column tile at a time: the
  // OR of a child row segment into a parent row segment then works on
  // 4 KiB pieces that stay cache-resident between the child's completion
  // and the parents' visits. An arc is judged in the tile holding its
  // head's column; until then it is OR-ed, which is harmless.
  util::BitMatrix reach(n, joins);
  std::vector<char> shortcut(csr.numEdges(), 0);  // by CSR arc index
  std::vector<std::uint32_t> arcs;
  const auto by_head_position = [&](std::uint32_t a, std::uint32_t b) {
    return position[csr.child_edges[a]] < position[csr.child_edges[b]];
  };
  constexpr std::size_t kTileWords = 512;  // 4 KiB row segments
  const std::size_t words = reach.wordsPerRow();
  for (std::size_t tile_begin = 0; tile_begin < words;
       tile_begin += kTileWords) {
    const std::size_t tile_end = std::min(words, tile_begin + kTileWords);
    const std::size_t col_begin = tile_begin * 64;
    const std::size_t col_end = tile_end * 64;
    for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
      const NodeId u = *it;
      arcs.resize(csr.outDegree(u));
      std::iota(arcs.begin(), arcs.end(), csr.child_offsets[u]);
      if (!std::is_sorted(arcs.begin(), arcs.end(), by_head_position)) {
        std::sort(arcs.begin(), arcs.end(), by_head_position);
      }
      for (const std::uint32_t arc : arcs) {
        if (shortcut[arc] != 0) continue;
        const NodeId v = csr.child_edges[arc];
        if (column[v] >= col_begin && column[v] < col_end) {
          if (reach.test(u, column[v])) {
            shortcut[arc] = 1;
            continue;
          }
          reach.set(u, column[v]);
        }
        reach.orRowRangeInto(u, v, tile_begin, tile_end);
      }
    }
  }

  // Bulk-build the result with the adjacency order addEdge() would give:
  // children in the input's order, parents in ascending id.
  std::vector<std::string> names(n);
  std::vector<std::vector<NodeId>> children(n);
  std::vector<std::vector<NodeId>> parents(n);
  std::size_t kept = 0;
  for (NodeId u = 0; u < n; ++u) {
    names[u] = g.name(u);
    for (std::uint32_t arc = csr.child_offsets[u];
         arc < csr.child_offsets[u + 1]; ++arc) {
      if (shortcut[arc] != 0) continue;
      const NodeId v = csr.child_edges[arc];
      children[u].push_back(v);
      parents[v].push_back(u);
      ++kept;
    }
  }
  return Digraph::fromAdjacency(std::move(names), std::move(children),
                                std::move(parents), kept);
}

ComponentLabels weaklyConnectedComponents(const Digraph& g) {
  const std::size_t n = g.numNodes();
  ComponentLabels out;
  out.label.assign(n, static_cast<std::size_t>(-1));
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (out.label[start] != static_cast<std::size_t>(-1)) continue;
    const std::size_t comp = out.count++;
    stack.assign(1, start);
    out.label[start] = comp;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      auto visit = [&](NodeId w) {
        if (out.label[w] == static_cast<std::size_t>(-1)) {
          out.label[w] = comp;
          stack.push_back(w);
        }
      };
      for (NodeId w : g.children(u)) visit(w);
      for (NodeId w : g.parents(u)) visit(w);
    }
  }
  return out;
}

namespace {
std::vector<NodeId> bfsFrontier(const Digraph& g, NodeId u, bool forward) {
  std::vector<char> visited(g.numNodes(), 0);
  std::vector<NodeId> out;
  std::vector<NodeId> stack{u};
  visited[u] = 1;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    const auto next = forward ? g.children(x) : g.parents(x);
    for (NodeId w : next) {
      if (!visited[w]) {
        visited[w] = 1;
        out.push_back(w);
        stack.push_back(w);
      }
    }
  }
  return out;
}
}  // namespace

std::vector<NodeId> descendants(const Digraph& g, NodeId u) {
  return bfsFrontier(g, u, /*forward=*/true);
}

std::vector<NodeId> ancestors(const Digraph& g, NodeId u) {
  return bfsFrontier(g, u, /*forward=*/false);
}

std::size_t longestPathNodes(const Digraph& g) {
  if (g.numNodes() == 0) return 0;
  const auto ranks = upwardRank(g);
  return *std::max_element(ranks.begin(), ranks.end());
}

std::vector<std::size_t> upwardRank(const Digraph& g) {
  auto order = topologicalOrder(g);
  PRIO_CHECK_MSG(order.has_value(), "upwardRank requires a dag");
  std::vector<std::size_t> rank(g.numNodes(), 1);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId u = *it;
    std::size_t best = 0;
    for (NodeId v : g.children(u)) best = std::max(best, rank[v]);
    rank[u] = best + 1;
  }
  return rank;
}

bool isBipartiteDag(const Digraph& g) {
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (g.inDegree(u) > 0 && g.outDegree(u) > 0) return false;
  }
  return true;
}

bool isConnected(const Digraph& g) {
  if (g.numNodes() == 0) return false;
  return weaklyConnectedComponents(g).count == 1;
}

}  // namespace prio::dag
