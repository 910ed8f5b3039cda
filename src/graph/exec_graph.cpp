#include "graph/exec_graph.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace aide::graph {

namespace {

std::string node_id_str(const ComponentKey& key) {
  std::ostringstream os;
  os << "n" << key.cls.value();
  if (key.object.valid()) os << "_" << key.object.value();
  return os.str();
}

std::string node_label(const ComponentKey& key,
                       const std::unordered_map<ComponentKey, std::string>*
                           names,
                       const NodeInfo& info) {
  std::ostringstream os;
  if (names != nullptr) {
    const auto it = names->find(key);
    if (it != names->end()) {
      os << it->second;
    } else {
      os << key;
    }
  } else {
    os << key;
  }
  os << "\\n" << info.mem_bytes / 1024 << "KB";
  return os.str();
}

}  // namespace

std::vector<ExecGraph::NodeIndex> ExecGraph::remove_components(
    const std::unordered_set<ComponentKey>& dead) {
  if (dead.empty()) return {};

  // Compact the node arrays, preserving relative order.
  std::vector<NodeIndex> remap(keys_.size(), npos);
  NodeIndex live = 0;
  for (NodeIndex i = 0; i < keys_.size(); ++i) {
    if (dead.contains(keys_[i])) continue;
    remap[i] = live;
    if (live != i) {
      keys_[live] = keys_[i];
      infos_[live] = infos_[i];
    }
    ++live;
  }
  if (live == keys_.size()) return {};  // nothing listed was actually present
  keys_.resize(live);
  infos_.resize(live);

  index_.clear();
  for (NodeIndex i = 0; i < live; ++i) index_[keys_[i]] = i;

  // Compact the edge arrays, dropping edges that touch a dead node.
  EdgeSlot live_edges = 0;
  for (EdgeSlot s = 0; s < edge_infos_.size(); ++s) {
    const auto [a, b] = edge_ends_[s];
    if (remap[a] == npos || remap[b] == npos) continue;
    edge_ends_[live_edges] = {remap[a], remap[b]};
    edge_infos_[live_edges] = edge_infos_[s];
    ++live_edges;
  }
  edge_ends_.resize(live_edges);
  edge_infos_.resize(live_edges);

  // Rebuild adjacency and the edge index from the surviving slots.
  adj_.assign(live, {});
  edge_index_.clear();
  for (EdgeSlot s = 0; s < live_edges; ++s) {
    const auto [a, b] = edge_ends_[s];
    edge_index_[pack_edge(a, b)] = s;
    adj_[a].push_back(AdjEntry{b, s});
    adj_[b].push_back(AdjEntry{a, s});
  }
  return remap;
}

std::string ExecGraph::to_dot(
    const std::unordered_map<ComponentKey, int>* placement,
    const std::unordered_map<ComponentKey, std::string>* names) const {
  // Sort nodes/edges for deterministic output.
  std::vector<NodeIndex> sorted_nodes(keys_.size());
  std::iota(sorted_nodes.begin(), sorted_nodes.end(), NodeIndex{0});
  std::sort(sorted_nodes.begin(), sorted_nodes.end(),
            [&](NodeIndex a, NodeIndex b) { return keys_[a] < keys_[b]; });

  std::vector<EdgeSlot> sorted_edges(edge_infos_.size());
  std::iota(sorted_edges.begin(), sorted_edges.end(), EdgeSlot{0});
  std::sort(sorted_edges.begin(), sorted_edges.end(),
            [&](EdgeSlot x, EdgeSlot y) {
              const EdgeKey a =
                  make_edge_key(keys_[edge_ends_[x].first],
                                keys_[edge_ends_[x].second]);
              const EdgeKey b =
                  make_edge_key(keys_[edge_ends_[y].first],
                                keys_[edge_ends_[y].second]);
              return std::tie(a.a, a.b) < std::tie(b.a, b.b);
            });

  std::ostringstream os;
  os << "graph exec {\n  node [shape=ellipse, fontsize=9];\n";
  for (const NodeIndex i : sorted_nodes) {
    const ComponentKey& key = keys_[i];
    const NodeInfo& info = infos_[i];
    os << "  " << node_id_str(key) << " [label=\""
       << node_label(key, names, info) << "\"";
    if (info.pinned) os << ", style=bold";
    if (placement != nullptr) {
      const auto it = placement->find(key);
      const int part = (it == placement->end()) ? 0 : it->second;
      os << ", color=" << (part == 0 ? "\"black\"" : "\"blue\"");
    }
    os << "];\n";
  }
  for (const EdgeSlot s : sorted_edges) {
    const EdgeKey ekey = make_edge_key(keys_[edge_ends_[s].first],
                                       keys_[edge_ends_[s].second]);
    const EdgeInfo& info = edge_infos_[s];
    bool remote = false;
    if (placement != nullptr) {
      const auto ia = placement->find(ekey.a);
      const auto ib = placement->find(ekey.b);
      const int pa = (ia == placement->end()) ? 0 : ia->second;
      const int pb = (ib == placement->end()) ? 0 : ib->second;
      remote = (pa != pb);
    }
    os << "  " << node_id_str(ekey.a) << " -- " << node_id_str(ekey.b)
       << " [label=\"" << info.interactions() << "/" << info.bytes << "B\"";
    if (remote) os << ", style=dashed, len=3.0";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace aide::graph
