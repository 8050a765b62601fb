#include <algorithm>
#include <string>

#include "decisive/base/error.hpp"
#include "decisive/oracles.hpp"

namespace decisive::oracle {

using Graph = ssam::ComponentGraph;

std::vector<std::vector<int>> enumerate_paths(const Graph& graph, size_t max_paths) {
  std::vector<char> goal(graph.size(), 0);
  for (const int output : graph.pred[Graph::kSink]) goal[static_cast<size_t>(output)] = 1;
  std::vector<std::vector<int>> paths;

  // Iterative backtracking DFS (explicit frame stack) so deep chains cannot
  // overflow the call stack even in the oracle.
  struct Frame {
    int vertex;
    size_t next = 0;  ///< index of the next successor to try
  };
  std::vector<char> visited(graph.size(), 0);
  for (const int input : graph.succ[Graph::kSource]) {
    std::vector<int> current;
    std::vector<Frame> stack;
    const auto push = [&](int vertex) {
      current.push_back(vertex);
      visited[static_cast<size_t>(vertex)] = 1;
      stack.push_back({vertex, 0});
    };
    const auto pop = [&] {
      visited[static_cast<size_t>(stack.back().vertex)] = 0;
      current.pop_back();
      stack.pop_back();
    };
    push(input);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next == 0 && goal[static_cast<size_t>(frame.vertex)]) {
        if (paths.size() >= max_paths) {
          throw AnalysisError("path enumeration exceeded " + std::to_string(max_paths) +
                              " paths; the component graph is too dense");
        }
        paths.push_back(current);
        pop();
        continue;
      }
      const auto successors = graph.succ[static_cast<size_t>(frame.vertex)];
      int next = -1;
      while (next < 0 && frame.next < successors.size()) {
        const int candidate = successors[frame.next++];
        if (candidate != Graph::kSink && !visited[static_cast<size_t>(candidate)]) {
          next = candidate;
        }
      }
      if (next >= 0) {
        push(next);
      } else {
        pop();
      }
    }
  }
  return paths;
}

bool on_all_paths(const Graph& graph, const std::vector<std::vector<int>>& paths,
                  ssam::ObjectId subcomponent) {
  if (paths.empty()) return false;
  return std::all_of(paths.begin(), paths.end(), [&](const std::vector<int>& path) {
    return std::any_of(path.begin(), path.end(), [&](int vertex) {
      const int owner = graph.owner[static_cast<size_t>(vertex)];
      return owner >= 0 && graph.subcomponents[static_cast<size_t>(owner)] == subcomponent;
    });
  });
}

}  // namespace decisive::oracle
