#include "theory/blocks.h"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "dag/algorithms.h"
#include "util/check.h"

namespace prio::theory {

namespace {

using dag::Digraph;
using dag::NodeId;

/// Appends the component's sinks to a non-sink order, sorted by the step
/// at which they become eligible (position of their latest parent in the
/// order), ties by id — a natural "completion order".
std::vector<NodeId> appendSinks(const Digraph& h,
                                std::vector<NodeId> nonsink_order) {
  std::vector<std::size_t> pos(h.numNodes(), 0);
  for (std::size_t i = 0; i < nonsink_order.size(); ++i) {
    pos[nonsink_order[i]] = i;
  }
  std::vector<NodeId> sinks;
  for (NodeId u = 0; u < h.numNodes(); ++u) {
    if (h.isSink(u)) sinks.push_back(u);
  }
  std::sort(sinks.begin(), sinks.end(), [&](NodeId x, NodeId y) {
    std::size_t px = 0, py = 0;
    for (NodeId p : h.parents(x)) px = std::max(px, pos[p]);
    for (NodeId p : h.parents(y)) py = std::max(py, pos[p]);
    return px != py ? px < py : x < y;
  });
  nonsink_order.insert(nonsink_order.end(), sinks.begin(), sinks.end());
  return nonsink_order;
}

/// The "sharing graph" over the sources of a bipartite component: an edge
/// between two sources for every sink they both feed.
struct SharingGraph {
  // For each unordered source pair, the sinks they share.
  std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> pair_sinks;
  // Unique-neighbor adjacency over sources.
  std::map<NodeId, std::vector<NodeId>> adj;

  static SharingGraph build(const Digraph& h,
                            const std::vector<NodeId>& sinks) {
    SharingGraph sg;
    for (NodeId t : sinks) {
      const auto ps = h.parents(t);
      if (ps.size() != 2) continue;
      const NodeId lo = std::min(ps[0], ps[1]);
      const NodeId hi = std::max(ps[0], ps[1]);
      auto& shared = sg.pair_sinks[{lo, hi}];
      if (shared.empty()) {
        sg.adj[lo].push_back(hi);
        sg.adj[hi].push_back(lo);
      }
      shared.push_back(t);
    }
    return sg;
  }

  [[nodiscard]] bool allPairsShareExactlyOne() const {
    return std::all_of(pair_sinks.begin(), pair_sinks.end(),
                       [](const auto& kv) { return kv.second.size() == 1; });
  }
};

struct Partition {
  std::vector<NodeId> sources;  // nodes with at least one child
  std::vector<NodeId> sinks;    // nodes with no children
};

Partition partition(const Digraph& h) {
  Partition p;
  for (NodeId u = 0; u < h.numNodes(); ++u) {
    (h.isSink(u) ? p.sinks : p.sources).push_back(u);
  }
  return p;
}

// Walks a path/cycle in the sharing graph starting at `start`, preferring
// the smaller-id unvisited neighbor. Returns nodes in walk order.
std::vector<NodeId> walkSharing(const SharingGraph& sg, NodeId start,
                                std::size_t expected) {
  std::vector<NodeId> order{start};
  std::vector<char> visited_flag;  // indexed lazily via map lookups
  std::map<NodeId, bool> visited;
  visited[start] = true;
  NodeId cur = start;
  while (order.size() < expected) {
    const auto it = sg.adj.find(cur);
    if (it == sg.adj.end()) break;
    std::optional<NodeId> next;
    for (NodeId nb : it->second) {
      if (!visited[nb] && (!next || nb < *next)) next = nb;
    }
    if (!next) break;
    visited[*next] = true;
    order.push_back(*next);
    cur = *next;
  }
  (void)visited_flag;
  return order;
}

// --- Family recognizers. Each assumes h is connected and bipartite with
// the given partition, and returns the IC-optimal *source* order. ---

std::optional<std::vector<NodeId>> tryClique(const Digraph& h,
                                             const Partition& p,
                                             std::size_t& q_out) {
  const std::size_t q = p.sources.size();
  if (q < 3) return std::nullopt;  // q == 2 is handled as M(1,2)
  if (p.sinks.size() != q * (q - 1) / 2) return std::nullopt;
  for (NodeId t : p.sinks) {
    if (h.inDegree(t) != 2) return std::nullopt;
  }
  for (NodeId s : p.sources) {
    if (h.outDegree(s) != q - 1) return std::nullopt;
  }
  const SharingGraph sg = SharingGraph::build(h, p.sinks);
  if (sg.pair_sinks.size() != q * (q - 1) / 2 ||
      !sg.allPairsShareExactlyOne()) {
    return std::nullopt;
  }
  q_out = q;
  return p.sources;  // any order is IC-optimal; use id order
}

std::optional<std::vector<NodeId>> tryW(const Digraph& h, const Partition& p,
                                        std::size_t& a_out,
                                        std::size_t& b_out) {
  const std::size_t a = p.sources.size();
  if (a == 0) return std::nullopt;
  const std::size_t b = h.outDegree(p.sources.front());
  for (NodeId s : p.sources) {
    if (h.outDegree(s) != b) return std::nullopt;
  }
  if (a == 1) {
    // Fan-out star W(1,b): all sinks must have the single source as their
    // only parent (guaranteed by bipartite connectivity).
    for (NodeId t : p.sinks) {
      if (h.inDegree(t) != 1) return std::nullopt;
    }
    a_out = a;
    b_out = b;
    return p.sources;
  }
  if (b < 2) return std::nullopt;
  for (NodeId t : p.sinks) {
    const auto d = h.inDegree(t);
    if (d != 1 && d != 2) return std::nullopt;
  }
  if (p.sinks.size() != a * b - (a - 1)) return std::nullopt;
  const SharingGraph sg = SharingGraph::build(h, p.sinks);
  if (!sg.allPairsShareExactlyOne()) return std::nullopt;
  if (sg.pair_sinks.size() != a - 1) return std::nullopt;
  // The sharing graph must be a simple path over all sources: max degree
  // 2, exactly two endpoints of degree 1, connected.
  std::vector<NodeId> endpoints;
  for (NodeId s : p.sources) {
    const auto it = sg.adj.find(s);
    const std::size_t deg = (it == sg.adj.end()) ? 0 : it->second.size();
    if (deg == 0 || deg > 2) return std::nullopt;
    if (deg == 1) endpoints.push_back(s);
  }
  if (endpoints.size() != 2) return std::nullopt;
  const NodeId start = std::min(endpoints[0], endpoints[1]);
  auto order = walkSharing(sg, start, a);
  if (order.size() != a) return std::nullopt;  // disconnected sharing graph
  a_out = a;
  b_out = b;
  return order;
}

std::optional<std::vector<NodeId>> tryM(const Digraph& h, const Partition& p,
                                        std::size_t& a_out,
                                        std::size_t& b_out) {
  // M(a,b) is W(a,b) reversed: recognize W on the reversed graph. Node ids
  // are preserved by Digraph::reversed(), so the W source order is the
  // path order of h's sinks.
  const Digraph rev = h.reversed();
  const Partition rp = partition(rev);
  std::size_t a = 0, b = 0;
  auto sink_path = tryW(rev, rp, a, b);
  if (!sink_path) return std::nullopt;
  // Complete sinks left-to-right along the path: for each sink in path
  // order, execute its not-yet-executed parents (id order within a group;
  // intra-group order does not affect the eligibility profile).
  std::vector<char> executed(h.numNodes(), 0);
  std::vector<NodeId> order;
  order.reserve(p.sources.size());
  for (NodeId t : *sink_path) {
    std::vector<NodeId> group(h.parents(t).begin(), h.parents(t).end());
    std::sort(group.begin(), group.end());
    for (NodeId s : group) {
      if (!executed[s]) {
        executed[s] = 1;
        order.push_back(s);
      }
    }
  }
  if (order.size() != p.sources.size()) return std::nullopt;
  a_out = a;
  b_out = b;
  return order;
}

std::optional<std::vector<NodeId>> tryCycle(const Digraph& h,
                                            const Partition& p,
                                            std::size_t& d_out) {
  const std::size_t d = p.sources.size();
  if (d < 2 || p.sinks.size() != d) return std::nullopt;
  for (NodeId s : p.sources) {
    if (h.outDegree(s) != 2) return std::nullopt;
  }
  for (NodeId t : p.sinks) {
    if (h.inDegree(t) != 2) return std::nullopt;
  }
  const SharingGraph sg = SharingGraph::build(h, p.sinks);
  if (d == 2) {
    // Two sources sharing both sinks (the 4-node cycle).
    if (sg.pair_sinks.size() != 1 ||
        sg.pair_sinks.begin()->second.size() != 2) {
      return std::nullopt;
    }
    d_out = d;
    return p.sources;
  }
  if (!sg.allPairsShareExactlyOne() || sg.pair_sinks.size() != d) {
    return std::nullopt;
  }
  for (NodeId s : p.sources) {
    const auto it = sg.adj.find(s);
    if (it == sg.adj.end() || it->second.size() != 2) return std::nullopt;
  }
  auto order = walkSharing(sg, p.sources.front(), d);
  if (order.size() != d) return std::nullopt;
  d_out = d;
  return order;
}

std::optional<std::vector<NodeId>> tryCompleteBipartite(
    const Digraph& h, const Partition& p, std::size_t& a_out,
    std::size_t& b_out) {
  const std::size_t a = p.sources.size();
  const std::size_t b = p.sinks.size();
  if (a < 2 || b < 2) return std::nullopt;  // stars are W(1,b)/M(1,b)
  if (h.numEdges() != a * b) return std::nullopt;
  for (NodeId s : p.sources) {
    if (h.outDegree(s) != b) return std::nullopt;
  }
  for (NodeId t : p.sinks) {
    if (h.inDegree(t) != a) return std::nullopt;
  }
  a_out = a;
  b_out = b;
  return p.sources;  // any order is IC-optimal; use id order
}

std::optional<std::vector<NodeId>> tryN(const Digraph& h, const Partition& p,
                                        std::size_t& d_out) {
  const std::size_t n = h.numNodes();
  if (n % 2 != 0 || p.sources.size() != p.sinks.size()) return std::nullopt;
  // The underlying undirected graph must be a simple path whose endpoints
  // are one source and one sink.
  NodeId source_end = 0, sink_end = 0;
  bool have_source_end = false, have_sink_end = false;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t deg = h.inDegree(u) + h.outDegree(u);
    if (deg > 2 || deg == 0) return std::nullopt;
    if (deg == 1) {
      if (h.isSink(u)) {
        if (have_sink_end) return std::nullopt;
        sink_end = u;
        have_sink_end = true;
      } else {
        if (have_source_end) return std::nullopt;
        source_end = u;
        have_source_end = true;
      }
    }
  }
  if (!have_source_end || !have_sink_end) return std::nullopt;
  // Walk the path from the sink endpoint, collecting sources in order.
  std::vector<char> visited(n, 0);
  std::vector<NodeId> source_order;
  NodeId cur = sink_end;
  visited[cur] = 1;
  for (std::size_t step = 1; step < n; ++step) {
    std::optional<NodeId> next;
    for (NodeId w : h.parents(cur)) {
      if (!visited[w]) next = w;
    }
    for (NodeId w : h.children(cur)) {
      if (!visited[w]) next = w;
    }
    if (!next) return std::nullopt;  // path shorter than n: disconnected
    cur = *next;
    visited[cur] = 1;
    if (!h.isSink(cur)) source_order.push_back(cur);
  }
  if (cur != source_end || source_order.size() != p.sources.size()) {
    return std::nullopt;
  }
  d_out = p.sources.size();
  return source_order;
}

}  // namespace

const char* blockKindName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kSingleton: return "singleton";
    case BlockKind::kW: return "W";
    case BlockKind::kM: return "M";
    case BlockKind::kN: return "N";
    case BlockKind::kCycle: return "Cycle";
    case BlockKind::kClique: return "Clique";
    case BlockKind::kCompleteBipartite: return "K";
    case BlockKind::kBipartiteGeneric: return "bipartite-generic";
    case BlockKind::kGeneric: return "generic";
  }
  return "unknown";
}

std::string BlockRecognition::describe() const {
  std::ostringstream os;
  os << blockKindName(kind);
  if (kind == BlockKind::kW || kind == BlockKind::kM ||
      kind == BlockKind::kCompleteBipartite) {
    os << '(' << a << ',' << b << ')';
  } else if (kind == BlockKind::kN || kind == BlockKind::kCycle ||
             kind == BlockKind::kClique) {
    os << '(' << a << ')';
  }
  return os.str();
}

BlockRecognition recognizeBlock(const dag::Digraph& h) {
  BlockRecognition out;
  if (h.numNodes() == 0) {
    out.kind = BlockKind::kGeneric;
    return out;
  }
  if (h.numNodes() == 1) {
    out.kind = BlockKind::kSingleton;
    out.schedule = {0};
    out.ic_optimal = true;
    return out;
  }
  if (!dag::isBipartiteDag(h) || !dag::isConnected(h)) {
    out.kind = BlockKind::kGeneric;
    out.schedule = outdegreeSchedule(h);
    return out;
  }
  const Partition p = partition(h);

  std::size_t a = 0, b = 0;
  if (auto order = tryW(h, p, a, b)) {
    out.kind = BlockKind::kW;
    out.a = a;
    out.b = b;
    out.schedule = appendSinks(h, std::move(*order));
    out.ic_optimal = true;
    return out;
  }
  if (auto order = tryM(h, p, a, b)) {
    out.kind = BlockKind::kM;
    out.a = a;
    out.b = b;
    out.schedule = appendSinks(h, std::move(*order));
    out.ic_optimal = true;
    return out;
  }
  if (auto order = tryClique(h, p, a)) {
    out.kind = BlockKind::kClique;
    out.a = a;
    out.schedule = appendSinks(h, std::move(*order));
    out.ic_optimal = true;
    return out;
  }
  if (auto order = tryCycle(h, p, a)) {
    out.kind = BlockKind::kCycle;
    out.a = a;
    out.schedule = appendSinks(h, std::move(*order));
    out.ic_optimal = true;
    return out;
  }
  if (auto order = tryCompleteBipartite(h, p, a, b)) {
    out.kind = BlockKind::kCompleteBipartite;
    out.a = a;
    out.b = b;
    out.schedule = appendSinks(h, std::move(*order));
    out.ic_optimal = true;
    return out;
  }
  if (auto order = tryN(h, p, a)) {
    out.kind = BlockKind::kN;
    out.a = a;
    out.schedule = appendSinks(h, std::move(*order));
    out.ic_optimal = true;
    return out;
  }
  out.kind = BlockKind::kBipartiteGeneric;
  out.schedule = outdegreeSchedule(h);
  return out;
}

std::vector<dag::NodeId> outdegreeSchedule(const dag::Digraph& h) {
  const std::size_t n = h.numNodes();
  std::vector<std::size_t> pending(n);
  // Max-heap on (outdegree, smaller id wins ties).
  auto cmp = [&](NodeId x, NodeId y) {
    const auto dx = h.outDegree(x), dy = h.outDegree(y);
    return dx != dy ? dx < dy : x > y;
  };
  std::priority_queue<NodeId, std::vector<NodeId>, decltype(cmp)> ready(cmp);
  for (NodeId u = 0; u < n; ++u) {
    pending[u] = h.inDegree(u);
    if (pending[u] == 0) ready.push(u);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (NodeId v : h.children(u)) {
      if (--pending[v] == 0) ready.push(v);
    }
  }
  PRIO_CHECK_MSG(order.size() == n, "outdegreeSchedule requires a dag");
  return order;
}

std::vector<dag::NodeId> greedyBipartiteSchedule(const dag::Digraph& h) {
  if (!dag::isBipartiteDag(h)) return outdegreeSchedule(h);
  const std::size_t n = h.numNodes();
  std::vector<std::size_t> missing(n);
  std::vector<char> executed(n, 0);
  std::vector<NodeId> sources;
  for (NodeId u = 0; u < n; ++u) {
    missing[u] = h.inDegree(u);
    if (!h.isSink(u)) sources.push_back(u);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<char> taken(n, 0);
  for (std::size_t step = 0; step < sources.size(); ++step) {
    NodeId best = 0;
    long best_gain = -1;
    for (NodeId s : sources) {
      if (taken[s]) continue;
      long gain = 0;
      for (NodeId t : h.children(s)) {
        if (missing[t] == 1) ++gain;
      }
      if (gain > best_gain ||
          (gain == best_gain &&
           (h.outDegree(s) > h.outDegree(best) ||
            (h.outDegree(s) == h.outDegree(best) && s < best)))) {
        best_gain = gain;
        best = s;
      }
    }
    taken[best] = 1;
    order.push_back(best);
    for (NodeId t : h.children(best)) --missing[t];
  }
  return appendSinks(h, std::move(order));
}

dag::Digraph makeW(std::size_t a, std::size_t b) {
  PRIO_CHECK_MSG(a >= 1 && b >= 1, "W(a,b) requires a,b >= 1");
  PRIO_CHECK_MSG(a == 1 || b >= 2, "W(a,b) with a > 1 requires b >= 2");
  dag::Digraph g;
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < a; ++i) {
    sources.push_back(g.addNode(std::string("s").append(std::to_string(i))));
  }
  std::size_t sink_counter = 0;
  NodeId last_sink = 0;
  for (std::size_t i = 0; i < a; ++i) {
    if (i > 0) g.addEdge(sources[i], last_sink);  // shared with previous
    const std::size_t fresh = (i == 0) ? b : b - 1;
    for (std::size_t j = 0; j < fresh; ++j) {
      last_sink = g.addNode(
          std::string("t").append(std::to_string(sink_counter++)));
      g.addEdge(sources[i], last_sink);
    }
  }
  return g;
}

dag::Digraph makeM(std::size_t a, std::size_t b) {
  return makeW(a, b).reversed();
}

dag::Digraph makeN(std::size_t d) {
  PRIO_CHECK_MSG(d >= 2, "N(d) requires d >= 2");
  dag::Digraph g;
  std::vector<NodeId> u, v;
  for (std::size_t i = 0; i < d; ++i) {
    u.push_back(g.addNode(std::string("u").append(std::to_string(i))));
  }
  for (std::size_t i = 0; i < d; ++i) {
    v.push_back(g.addNode(std::string("v").append(std::to_string(i))));
  }
  for (std::size_t i = 0; i < d; ++i) {
    g.addEdge(u[i], v[i]);
    if (i + 1 < d) g.addEdge(u[i + 1], v[i]);
  }
  return g;
}

dag::Digraph makeCycleDag(std::size_t d) {
  PRIO_CHECK_MSG(d >= 2, "Cycle(d) requires d >= 2");
  dag::Digraph g;
  std::vector<NodeId> u, v;
  for (std::size_t i = 0; i < d; ++i) {
    u.push_back(g.addNode(std::string("u").append(std::to_string(i))));
  }
  for (std::size_t i = 0; i < d; ++i) {
    v.push_back(g.addNode(std::string("v").append(std::to_string(i))));
  }
  for (std::size_t i = 0; i < d; ++i) {
    g.addEdge(u[i], v[i]);
    g.addEdge(u[i], v[(i + d - 1) % d]);
  }
  return g;
}

dag::Digraph makeCompleteBipartite(std::size_t a, std::size_t b) {
  PRIO_CHECK_MSG(a >= 1 && b >= 1, "K(a,b) requires a,b >= 1");
  dag::Digraph g;
  std::vector<NodeId> u, v;
  for (std::size_t i = 0; i < a; ++i) {
    u.push_back(g.addNode(std::string("s").append(std::to_string(i))));
  }
  for (std::size_t j = 0; j < b; ++j) {
    v.push_back(g.addNode(std::string("t").append(std::to_string(j))));
  }
  for (NodeId s : u) {
    for (NodeId t : v) g.addEdge(s, t);
  }
  return g;
}

dag::Digraph makeCliqueDag(std::size_t q) {
  PRIO_CHECK_MSG(q >= 2, "Clique(q) requires q >= 2");
  dag::Digraph g;
  std::vector<NodeId> u;
  for (std::size_t i = 0; i < q; ++i) {
    u.push_back(g.addNode(std::string("u").append(std::to_string(i))));
  }
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = i + 1; j < q; ++j) {
      std::string name = "t";
      name.append(std::to_string(i)).append("_").append(std::to_string(j));
      const NodeId t = g.addNode(std::move(name));
      g.addEdge(u[i], t);
      g.addEdge(u[j], t);
    }
  }
  return g;
}

}  // namespace prio::theory
