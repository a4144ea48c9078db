#include "algorithms/dispatch.hpp"

#include "algorithms/method_table.hpp"

namespace crcw::algo {

using methods::profiled;
using methods::unknown;

// run_max/profile_max, run_bfs/profile_bfs and run_cc/profile_cc live next
// to their kernels (max.cpp, bfs.cpp, cc.cpp), each driven by that file's
// method table.

std::vector<std::string> max_methods() {
  return {"naive", "gatekeeper", "gatekeeper-skip", "caslt", "critical"};
}

std::vector<std::string> bfs_methods() {
  return {"naive", "gatekeeper", "gatekeeper-sparse", "gatekeeper-skip", "caslt",
          "critical"};
}

std::vector<std::string> cc_methods() {
  return {"gatekeeper", "gatekeeper-sparse", "gatekeeper-skip", "caslt", "critical",
          "min-hook"};
}

std::vector<std::string> dedup_methods() { return {"caslt", "chained", "sort"}; }

std::vector<std::string> semijoin_methods() { return {"caslt", "serial"}; }

std::vector<std::string> triangle_methods() { return {"caslt", "chained", "serial"}; }

DedupResult run_dedup(std::string_view method, std::span<const std::uint64_t> keys,
                      const DedupOptions& opts) {
  if (method == "caslt") return dedup_caslt(keys, opts);
  if (method == "chained") return dedup_chained(keys, opts);
  if (method == "sort") return dedup_sort(keys, opts);
  unknown("dedup", method);
}

std::vector<SemijoinMatch> run_semijoin(std::string_view method,
                                        std::span<const std::uint64_t> probe_keys,
                                        std::span<const std::uint64_t> build_keys,
                                        const SemijoinOptions& opts) {
  if (method == "caslt") return semijoin_caslt(probe_keys, build_keys, opts);
  if (method == "serial") return semijoin_serial(probe_keys, build_keys, opts);
  unknown("semijoin", method);
}

std::uint64_t run_triangles(std::string_view method, const graph::Csr& g,
                            const TriangleOptions& opts) {
  if (method == "caslt") return triangle_count_caslt(g, opts);
  if (method == "chained") return triangle_count_chained(g, opts);
  if (method == "serial") return triangle_count_serial(g, opts);
  unknown("triangles", method);
}

std::optional<obs::ContentionTotals> profile_dedup(std::string_view method,
                                                   std::span<const std::uint64_t> keys,
                                                   const DedupOptions& opts) {
  if (method != "caslt" && method != "chained") return std::nullopt;
  DedupOptions instrumented = opts;
  instrumented.telemetry = true;
  return profiled([&] { (void)run_dedup(method, keys, instrumented); });
}

std::optional<obs::ContentionTotals> profile_semijoin(
    std::string_view method, std::span<const std::uint64_t> probe_keys,
    std::span<const std::uint64_t> build_keys, const SemijoinOptions& opts) {
  if (method != "caslt") return std::nullopt;
  SemijoinOptions instrumented = opts;
  instrumented.telemetry = true;
  return profiled([&] { (void)semijoin_caslt(probe_keys, build_keys, instrumented); });
}

std::optional<obs::ContentionTotals> profile_triangles(std::string_view method,
                                                       const graph::Csr& g,
                                                       const TriangleOptions& opts) {
  if (method != "caslt" && method != "chained") return std::nullopt;
  TriangleOptions instrumented = opts;
  instrumented.telemetry = true;
  return profiled([&] { (void)run_triangles(method, g, instrumented); });
}

}  // namespace crcw::algo
