// Small statistics and span helpers shared by the benchmark and its tests.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace entk::perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One traced interval. `parent` indexes the enclosing span (-1 = root).
struct Span {
  int parent = -1;
  std::string kind;  ///< "run" | "pipeline" | "stage" | "unit" | "decision"
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children. Children may overlap each other
/// and may stick out of the parent; only the covered part inside counts.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace entk::perfbench
