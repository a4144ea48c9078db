// pram-cc: the paper's Awerbuch–Shiloach connected components with CAS-LT
// arbitration on a seeded G(n, m) graph, no serve layer.
#include <memory>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "graph/reference.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

struct CcSizes {
  std::uint64_t vertices;
  std::uint64_t edges;
};

CcSizes cc_sizes(bool small) {
  if (small) return {1u << 12, 1u << 15};
  return {1u << 18, 2u << 20};
}

crcw::algo::CcResult solve(const crcw::graph::Csr& g) {
  crcw::algo::CcOptions opts;
  opts.threads = nproc();
  return crcw::algo::run_cc("caslt", g, opts);
}

class CcRun {
 public:
  CcRun(const Options& opt, ErrorSlot& errors) : errors_(errors) {
    const CcSizes sz = cc_sizes(opt.small);
    const std::uint64_t t0 = now_ns();
    graph_ = make_graph(opt.seed, sz.vertices, sz.edges);
    (void)solve(graph_);  // discarded warm-up
    setup_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
    edges_ = sz.edges;
  }

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  [[nodiscard]] const crcw::graph::Csr& graph() const noexcept { return graph_; }
  std::string final_check() { return {}; }

  /// Solves until the budget is spent (at least one solve); only solve
  /// time counts, each solve's labels are checked outside it.
  PhaseStats run_phase(const Budget& b) {
    if (reference_.empty()) reference_ = crcw::graph::connected_components(graph_);
    PhaseStats ph;
    const std::uint64_t start = now_ns();
    for (;;) {
      if (b.ops != 0 ? ph.attempted >= b.ops
                     : ph.attempted > 0 &&
                           static_cast<double>(now_ns() - start) * 1e-9 >= b.seconds) {
        break;
      }
      ++ph.attempted;
      const double cpu0 = cpu_time_us();
      const std::uint64_t t0 = now_ns();
      const crcw::algo::CcResult r = solve(graph_);
      const std::uint64_t t1 = now_ns();
      ph.cpu_us += cpu_time_us() - cpu0;
      ph.seconds += static_cast<double>(t1 - t0) * 1e-9;
      ph.latency_ns.record(t1 - t0);
      const std::vector<std::uint32_t> canon = crcw::graph::canonicalize_labels(r.label);
      const std::string err = check_labels(canon, reference_);
      if (!err.empty()) {
        errors_.set("pram-cc: " + err);
        break;
      }
      ++ph.completed;
      ph.work += static_cast<double>(edges_);
      heartbeat();
    }
    return ph;
  }

 private:
  ErrorSlot& errors_;
  crcw::graph::Csr graph_;
  std::vector<std::uint32_t> reference_;
  std::uint64_t edges_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace

RunStats run_pram_cc(const Options& opt) {
  return drive<CcRun>(opt, [](CcRun& r, const Budget& b, bool, RunStats&) {
    return r.run_phase(b);
  });
}

}  // namespace pb
