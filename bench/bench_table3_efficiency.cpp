// Table 3 / Section 3.3.3 reproduction: arithmetic efficiency of the
// translation phases under BLAS-2 vs aggregated BLAS-3 application.
//
// The paper reports leaf-level arithmetic efficiencies on the CM-5E:
//   T1/T3 54% (K=12) .. 60% (K=72); T2 74% .. 85%; degraded to 60%/79% with
//   copying and 44%/74% with copying + masking. It also reports the
//   aggregation win for T1/T3 (58 -> 87 Mflops/s/PN at K = 12). We measure
//   the same ratios: per-phase flop rates as a fraction of the calibrated
//   peak, for gemv (unaggregated) and gemm (each gather block's pairs
//   copied into a slab and applied as one product), both on the
//   uniform-leaf active-set executor.

#include <iostream>

#include "bench_common.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{12000}));
  const int depth = static_cast<int>(cli.get("depth", std::int64_t{3}));
  bench::check_unused(cli);

  bench::print_header(
      "bench_table3_efficiency",
      "Table 3 — leaf-level arithmetic efficiencies; Section 3.3.3 "
      "aggregation of translations into BLAS-3");
  std::printf("N = %zu, depth %d; efficiency = phase flops / time / peak "
              "(peak %.2f Gflop/s)\n\n",
              n, depth, bench::peak_flops() / 1e9);

  const ParticleSet p = make_uniform(n, Box3{}, 31415);

  Table table({"K", "aggregation", "upward+downward (T1/T3)",
               "interactive (T2)", "total eff", "time (s)"});

  for (const bool k72 : {false, true}) {
    const anderson::Params params =
        k72 ? anderson::params_d14_k72() : anderson::params_d5_k12();
    for (const core::AggregationMode agg :
         {core::AggregationMode::kGemv, core::AggregationMode::kGemm}) {
      // One worker: the efficiency divides by the single-core peak.
      core::FmmConfig cfg;
      cfg.mode = core::ExecutionMode::kSequential;
      cfg.depth = depth;
      cfg.params = params;
      cfg.aggregation = agg;
      core::FmmSolver solver(cfg);
      (void)solver.translations();
      WallTimer t;
      const core::FmmResult r = solver.solve(p);
      const double total_time = t.seconds();
      const auto& phases = r.breakdown.phases();
      const auto phase_eff = [&](const char* a, const char* b) {
        std::uint64_t flops = 0;
        double secs = 0;
        for (const char* name : {a, b}) {
          if (name == nullptr || !phases.count(name)) continue;
          flops += phases.at(name).flops;
          secs += phases.at(name).seconds;
        }
        return bench::efficiency(flops, secs);
      };
      table.row({Table::num(std::uint64_t(params.k())), core::to_string(agg),
                 Table::percent(phase_eff("upward", "downward")),
                 Table::percent(phase_eff("interactive", nullptr)),
                 Table::percent(bench::efficiency(r.breakdown.total_flops(),
                                                  r.breakdown.total_seconds())),
                 Table::num(total_time, 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\npaper shape to verify: aggregated (gemm) beats gemv; the\n"
      "gap shrinks as K grows (K=72 matrices are already efficient at "
      "BLAS-2);\nT2 runs at higher efficiency than T1/T3 (larger "
      "aggregates).\n");
  return 0;
}
