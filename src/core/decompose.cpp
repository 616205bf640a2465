#include "core/decompose.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "dag/algorithms.h"
#include "dag/csr.h"
#include "util/check.h"

namespace prio::core {

namespace {

using dag::Csr;
using dag::Digraph;
using dag::NodeId;

// Mutable remnant of G' during decomposition. A node is removed when it is
// scheduled by a component (it has a child inside the component) or when
// it is a sink of G' detached with its component. Children of a live node
// are always live (parents are removed no later than their children's
// other ancestors), so out-degrees never change; only live in-degrees do.
//
// The remnant records two event streams the caller drains after each
// detach: nodes that were removed, and nodes that newly became sources —
// both are the triggers for retrying parked fast-path seeds (see below).
class Remnant {
 public:
  explicit Remnant(const Csr& csr)
      : csr_(csr), alive_(csr.numNodes(), 1) {
    live_in_.reserve(csr.numNodes());
    for (NodeId u = 0; u < csr.numNodes(); ++u) {
      live_in_.push_back(csr.inDegree(u));
      if (live_in_[u] == 0) sources_.insert(u);
    }
    alive_count_ = csr.numNodes();
  }

  [[nodiscard]] bool alive(NodeId u) const { return alive_[u] != 0; }
  [[nodiscard]] bool isSource(NodeId u) const {
    return alive_[u] && live_in_[u] == 0;
  }
  [[nodiscard]] std::size_t aliveCount() const { return alive_count_; }
  [[nodiscard]] const std::set<NodeId>& sources() const { return sources_; }
  [[nodiscard]] std::size_t liveIn(NodeId u) const { return live_in_[u]; }

  void remove(NodeId u) {
    PRIO_CHECK(alive_[u]);
    alive_[u] = 0;
    sources_.erase(u);
    --alive_count_;
    removed_events_.push_back(u);
    for (NodeId v : csr_.children(u)) {
      if (!alive_[v]) continue;
      if (--live_in_[v] == 0) {
        sources_.insert(v);
        new_source_events_.push_back(v);
      }
    }
  }

  std::vector<NodeId> takeRemovedEvents() {
    return std::exchange(removed_events_, {});
  }
  std::vector<NodeId> takeNewSourceEvents() {
    return std::exchange(new_source_events_, {});
  }

 private:
  const Csr& csr_;
  std::vector<char> alive_;
  std::vector<std::size_t> live_in_;
  std::set<NodeId> sources_;
  std::vector<NodeId> removed_events_;
  std::vector<NodeId> new_source_events_;
  std::size_t alive_count_ = 0;
};

// Reusable per-decompose working memory. The component searches used to
// allocate fresh unordered_sets and worklists for every attempt of every
// round, which dominated decompose profiles on wide dags (AIRSN width
// sweeps); epoch-stamped marker arrays and recycled vectors make a failed
// attempt cost zero allocations. A node is "in the set" when its stamp
// equals the current epoch; bumping the epoch clears every set in O(1).
struct Scratch {
  explicit Scratch(std::size_t n)
      : source_mark(n, 0), sink_mark(n, 0), member_mark(n, 0) {}

  void nextEpoch() {
    // The stamp arrays start at 0, so epoch 0 must never be used.
    ++epoch;
    PRIO_CHECK_MSG(epoch != 0, "decompose scratch epoch wrapped");
  }

  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> source_mark;
  std::vector<std::uint32_t> sink_mark;
  std::vector<std::uint32_t> member_mark;
  std::vector<NodeId> queue;
  std::vector<NodeId> members;
  std::vector<NodeId> source_work;
  std::vector<NodeId> parent_work;
};

// §3.5 fast path: grow the maximal connected bipartite subdag seeded at
// source `s` whose source side consists only of remnant sources. Fails as
// soon as a candidate sink has a live non-source parent; that parent is
// reported as the blocker — the seed cannot succeed until the blocker is
// removed or becomes a source, so the caller parks the seed under it
// instead of retrying every round (this replaces a per-round rescan of
// all sources and is what keeps SDSS-scale decomposition fast).
//
// On success the grown member set is left in scratch.members, sorted.
// The insertion-order-sensitive state (LIFO queue, first-seen dedupe,
// blocker tie-breaks) matches the original unordered_set implementation
// exactly, so attempts are bit-identical to the pre-scratch code.
struct BipartiteAttempt {
  bool ok = false;
  NodeId blocker = 0;
};

BipartiteAttempt tryBipartiteComponent(const Csr& csr, const Remnant& remnant,
                                       NodeId s, Scratch& scratch) {
  scratch.nextEpoch();
  const std::uint32_t epoch = scratch.epoch;
  scratch.members.clear();
  scratch.queue.assign(1, s);
  scratch.source_mark[s] = epoch;
  scratch.members.push_back(s);
  while (!scratch.queue.empty()) {
    const NodeId src = scratch.queue.back();
    scratch.queue.pop_back();
    for (NodeId c : csr.children(src)) {
      if (scratch.sink_mark[c] == epoch) continue;
      bool blocked = false;
      NodeId blocker = 0;
      std::size_t blocker_live_in = 0;
      for (NodeId p : csr.parents(c)) {
        if (!remnant.alive(p)) continue;
        if (remnant.liveIn(p) != 0) {
          // Among this sink's blocking parents, park under the one likely
          // to clear last (most live ancestors, then highest id) — this
          // keeps retries per seed near one even at SDSS's 3401-parent
          // coadd join, instead of re-parking once per cleared parent.
          if (!blocked || remnant.liveIn(p) > blocker_live_in ||
              (remnant.liveIn(p) == blocker_live_in && p > blocker)) {
            blocker = p;
            blocker_live_in = remnant.liveIn(p);
          }
          blocked = true;
          continue;
        }
        if (!blocked && scratch.source_mark[p] != epoch) {
          scratch.source_mark[p] = epoch;
          scratch.members.push_back(p);
          scratch.queue.push_back(p);
        }
      }
      if (blocked) return BipartiteAttempt{false, blocker};
      scratch.sink_mark[c] = epoch;
      scratch.members.push_back(c);
    }
  }
  std::sort(scratch.members.begin(), scratch.members.end());
  return BipartiteAttempt{true, 0};
}

// The general C(s) of §3.1 step 2: the smallest subgraph containing s that
// contains every child of each member source and every parent of each
// member. Computed as a fixpoint with two worklists (recycled through
// scratch); the result is left in scratch.members, sorted, and true is
// returned. The search gives up and returns false as soon as the closure
// reaches `bound` members: the caller keeps only a strictly smaller
// closure than its best so far, so one that large can never be chosen.
bool generalClosure(const Csr& csr, const Remnant& remnant, NodeId s,
                    std::size_t bound, Scratch& scratch) {
  scratch.nextEpoch();
  const std::uint32_t epoch = scratch.epoch;
  scratch.members.clear();
  scratch.source_work.clear();
  scratch.parent_work.clear();
  scratch.member_mark[s] = epoch;
  scratch.members.push_back(s);
  scratch.source_work.push_back(s);
  scratch.parent_work.push_back(s);
  auto addMember = [&](NodeId u) {
    if (scratch.member_mark[u] == epoch) return;
    scratch.member_mark[u] = epoch;
    scratch.members.push_back(u);
    scratch.parent_work.push_back(u);
    if (remnant.liveIn(u) == 0) scratch.source_work.push_back(u);
  };
  while (!scratch.source_work.empty() || !scratch.parent_work.empty()) {
    if (scratch.members.size() >= bound) return false;
    if (!scratch.source_work.empty()) {
      const NodeId src = scratch.source_work.back();
      scratch.source_work.pop_back();
      for (NodeId c : csr.children(src)) addMember(c);
      continue;
    }
    const NodeId t = scratch.parent_work.back();
    scratch.parent_work.pop_back();
    for (NodeId p : csr.parents(t)) {
      if (remnant.alive(p)) addMember(p);
    }
  }
  if (scratch.members.size() >= bound) return false;
  std::sort(scratch.members.begin(), scratch.members.end());
  return true;
}

}  // namespace

Decomposition decompose(const dag::Digraph& g,
                        const DecomposeOptions& options) {
  if (options.topo_order != nullptr) {
    PRIO_CHECK_MSG(dag::isTopologicalOrder(g, *options.topo_order),
                   "decompose: topo_order is not a topological order of g");
  } else {
    PRIO_CHECK_MSG(dag::isAcyclic(g), "decompose requires a dag");
  }
  const Csr& csr = g.csr();

  Decomposition out;
  out.owner.assign(g.numNodes(), kGlobalSinkOwner);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (csr.outDegree(u) == 0) out.global_sinks.push_back(u);
  }

  Remnant remnant(csr);
  Scratch scratch(g.numNodes());

  // Fast-path seed management: candidate seeds in discovery order, plus
  // seeds parked under the blocker that must change before a retry can
  // succeed.
  std::deque<NodeId> seed_queue;
  std::unordered_map<NodeId, std::vector<NodeId>> parked;
  for (NodeId s : remnant.sources()) seed_queue.push_back(s);
  (void)remnant.takeNewSourceEvents();  // initial sources already queued

  const auto drainEvents = [&] {
    for (NodeId s : remnant.takeNewSourceEvents()) {
      seed_queue.push_back(s);
      if (const auto it = parked.find(s); it != parked.end()) {
        for (NodeId waiting : it->second) seed_queue.push_back(waiting);
        parked.erase(it);
      }
    }
    for (NodeId r : remnant.takeRemovedEvents()) {
      if (const auto it = parked.find(r); it != parked.end()) {
        for (NodeId waiting : it->second) seed_queue.push_back(waiting);
        parked.erase(it);
      }
    }
  };

  while (remnant.aliveCount() > 0) {
    if (options.cancel != nullptr) {
      options.cancel->throwIfCancelled("decompose");
    }
    PRIO_CHECK_MSG(!remnant.sources().empty(),
                   "remnant has live nodes but no sources (cycle?)");

    bool found = false;
    if (options.bipartite_fast_path) {
      while (!seed_queue.empty()) {
        if (options.cancel != nullptr) {
          options.cancel->throwIfCancelled("decompose");
        }
        const NodeId s = seed_queue.front();
        seed_queue.pop_front();
        if (!remnant.alive(s)) continue;  // stale entry
        const auto attempt = tryBipartiteComponent(csr, remnant, s, scratch);
        if (attempt.ok) {
          found = true;
          break;
        }
        parked[attempt.blocker].push_back(s);
      }
    }
    std::vector<NodeId> members;
    if (found) {
      members = scratch.members;  // copy: scratch is reused next round
    } else {
      // No bipartite component: run the general search over every source
      // and keep a containment-minimal (smallest) closure.
      ++out.general_searches;
      for (NodeId s : remnant.sources()) {
        if (options.cancel != nullptr) {
          options.cancel->throwIfCancelled("decompose");
        }
        const std::size_t bound =
            members.empty() ? remnant.aliveCount() + 1 : members.size();
        if (generalClosure(csr, remnant, s, bound, scratch)) {
          members = scratch.members;
        }
      }
      PRIO_CHECK(!members.empty());
    }

    // Build the component and detach it. The non-sink and bipartite flags
    // are computed straight from the remnant graph and the member set —
    // a member is a component non-sink iff one of its children is also a
    // member, and the component is a bipartite dag iff no member has both
    // a parent and a child inside — so the induced Digraph itself is only
    // materialized here when the caller wants it now (the schedule phase
    // builds deferred graphs in parallel).
    Component comp;
    comp.nodes = std::move(members);
    scratch.nextEpoch();
    scratch.queue.clear();  // may hold leftovers of a failed seed attempt
    for (NodeId u : comp.nodes) scratch.member_mark[u] = scratch.epoch;
    bool bipartite = true;
    for (NodeId u : comp.nodes) {
      bool has_child_inside = false;
      for (NodeId v : csr.children(u)) {
        if (scratch.member_mark[v] == scratch.epoch) {
          has_child_inside = true;
          break;
        }
      }
      if (has_child_inside) {
        bool has_parent_inside = false;
        for (NodeId p : csr.parents(u)) {
          if (scratch.member_mark[p] == scratch.epoch) {
            has_parent_inside = true;
            break;
          }
        }
        if (has_parent_inside) bipartite = false;
      }
      // Reuse the queue buffer to remember which members are non-sinks
      // (1 per member, in comp.nodes order) for the detach pass below.
      scratch.queue.push_back(has_child_inside ? 1 : 0);
    }
    comp.bipartite = bipartite;
    if (comp.bipartite) ++out.bipartite_components;
    if (!options.defer_component_graphs) {
      comp.graph = g.inducedSubgraph(comp.nodes);
    }
    const auto comp_index = static_cast<std::uint32_t>(out.components.size());

    for (std::size_t local = 0; local < comp.nodes.size(); ++local) {
      const NodeId u = comp.nodes[local];
      if (scratch.queue[local] != 0) {
        // Non-sink of the component: scheduled here, removed from remnant.
        ++comp.num_nonsinks;
        out.owner[u] = comp_index;
        remnant.remove(u);
      } else if (csr.outDegree(u) == 0) {
        // Sink of the component that is a sink of G': detached, scheduled
        // in the global tail (owner stays kGlobalSinkOwner).
        remnant.remove(u);
      }
      // Other component sinks stay live and become sources of later
      // components.
    }
    scratch.queue.clear();
    out.components.push_back(std::move(comp));
    drainEvents();
  }

  // Superdag: arc owner(u) -> owner(v) for every arc (u, v) of G' whose
  // endpoints are scheduled by different components.
  out.superdag.reserveNodes(out.components.size());
  for (std::size_t i = 0; i < out.components.size(); ++i) {
    out.superdag.addNode(std::string("C").append(std::to_string(i)));
  }
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (out.owner[u] == kGlobalSinkOwner) continue;
    for (NodeId v : csr.children(u)) {
      if (out.owner[v] == kGlobalSinkOwner) continue;
      if (out.owner[u] != out.owner[v]) {
        out.superdag.addEdge(out.owner[u], out.owner[v]);
      }
    }
  }
  PRIO_CHECK_MSG(dag::isAcyclic(out.superdag), "superdag must be acyclic");
  return out;
}

}  // namespace prio::core
