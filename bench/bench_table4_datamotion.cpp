// Table 4 / Figure 6 reproduction: data-motion needs of the four
// interactive-field fetch strategies.
//
// Paper's Table 4 (32-node CM-5E, 8^3 subgrids, ghost regions 4 deep):
//   method                      non-local fetched  local moves  CSHIFTs  rel time (K=12/72)
//   direct, unaliased           -                  -            2,631    40   64
//   linearized, unaliased       85,936             786,608      1,330    6.5  9.1
//   direct on aliased arrays    3,584              7,168        98       1.5  1.3
//   linearized aliased          4,352              6,144        28       1    1
// We run the same four strategies on the simulated VU machine and report
// per-VU counts, estimated time from the machine cost model, and measured
// wall time (the median of kReps fills), normalized to the best strategy.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/dp/halo.hpp"

using namespace hfmm;

namespace {

// Fills timed per strategy; one fill of the small default grid takes well
// under a millisecond, so a single timing is mostly scheduler noise.
constexpr int kReps = 7;

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::int32_t sub =
      static_cast<std::int32_t>(cli.get("subgrid", std::int64_t{8}));
  const std::int32_t vus_per_axis =
      static_cast<std::int32_t>(cli.get("vu", std::int64_t{2}));
  const std::int64_t k = cli.get("k", std::int64_t{12});
  const std::int32_t ghost =
      static_cast<std::int32_t>(cli.get("ghost", std::int64_t{4}));
  const bool sweep = cli.flag("sweep");
  bench::check_unused(cli);

  bench::print_header("bench_table4_datamotion",
                      "Table 4 / Figure 6 — interactive-field fetch "
                      "strategies (per-VU data motion)");

  const auto run_config = [&](std::int32_t s, std::int32_t v, std::size_t kk) {
    const dp::MachineConfig mc{v, v, v};
    const std::int32_t n = s * v;
    std::printf("grid %d^3 boxes, %d VUs (subgrid %d^3), K = %zu, ghost %d\n\n",
                n, v * v * v, s, kk, ghost);
    Table table({"method", "non-local boxes/VU", "local moves/VU", "CSHIFTs",
                 "messages", "est. rel time", "meas. rel time"});
    struct Res {
      dp::CommStats stats;
      double est = 0, wall = 0;
    };
    std::vector<std::pair<const char*, Res>> rows;
    for (const dp::HaloStrategy strat :
         {dp::HaloStrategy::kDirectCshift, dp::HaloStrategy::kLinearizedCshift,
          dp::HaloStrategy::kGhostSections, dp::HaloStrategy::kSubgridSnake}) {
      const dp::BlockLayout layout(n, mc);
      dp::DistGrid grid(layout, kk);
      // Nontrivial contents so the data motion is real.
      for (std::size_t i = 0; i < mc.total_vus(); ++i) {
        auto d = grid.vu_data(i);
        for (std::size_t j = 0; j < d.size(); ++j)
          d[j] = static_cast<double>(i + j);
      }
      // Every repeat moves the same data, so with the counters reset before
      // each fill they equal the first fill's; the wall time is the median
      // over repeats.
      dp::Machine machine(mc);
      dp::HaloGrid halo(layout, kk, ghost);
      Res r;
      std::vector<double> walls;
      for (int rep = 0; rep < kReps; ++rep) {
        machine.reset_stats();
        WallTimer t;
        fill_halo(machine, grid, halo, strat);
        walls.push_back(t.seconds());
      }
      r.stats = machine.stats();
      r.est = machine.estimated_comm_seconds();
      std::nth_element(walls.begin(), walls.begin() + kReps / 2, walls.end());
      r.wall = walls[kReps / 2];
      rows.push_back({dp::to_string(strat), r});
    }
    double best_est = 1e300, best_wall = 1e300;
    for (const auto& [name, r] : rows) {
      best_est = std::min(best_est, r.est);
      best_wall = std::min(best_wall, r.wall);
    }
    const double vus = static_cast<double>(mc.total_vus());
    const double box_bytes = static_cast<double>(kk) * sizeof(double);
    for (const auto& [name, r] : rows) {
      table.row(
          {name,
           Table::num(static_cast<double>(r.stats.off_vu_bytes) / vus /
                          box_bytes,
                      6),
           Table::num(static_cast<double>(r.stats.local_bytes) / vus /
                          box_bytes,
                      6),
           Table::num(r.stats.cshift_steps), Table::num(r.stats.messages),
           Table::num(r.est / best_est, 3), Table::num(r.wall / best_wall, 3)});
    }
    table.print(std::cout);
    std::printf("\n");
  };

  run_config(sub, vus_per_axis, static_cast<std::size_t>(k));
  if (sweep) {
    // Figure 6 flavor: how the trade-off shifts with subgrid size and K.
    for (const std::int32_t s : {4, 8}) run_config(s, 2, 12);
    run_config(8, 2, 72);
  }
  std::printf(
      "paper shape to verify: aliased-section and subgrid-snake fetches move\n"
      "orders of magnitude less data than whole-grid CSHIFT walks; the\n"
      "direct-per-offset CSHIFT method is worst by a wide margin.\n");
  return 0;
}
