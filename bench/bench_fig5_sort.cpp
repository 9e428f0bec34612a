// Figure 5 / Section 3.2 reproduction: the coordinate sort's locality.
//
// The paper's claim: sorting particles on keys built from the VU-address
// bits above the local-address bits of their box coordinates makes the
// block-partitioned 1-D particle arrays line up with the leaf boxes' VUs,
// so the 1-D -> 4-D reshape needs NO communication (vs a plain Morton/box
// sort, which scatters particles across VUs). The plain Morton order is the
// coordinate sort for a single VU, whose key is all local bits.

#include <iostream>

#include "bench_common.hpp"
#include "hfmm/dp/sort.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{200000}));
  const int depth = static_cast<int>(cli.get("depth", std::int64_t{4}));
  bench::check_unused(cli);

  bench::print_header("bench_fig5_sort",
                      "Figure 5 / Section 3.2 — coordinate sort locality");

  const tree::Hierarchy hier(Box3{}, depth);
  const ParticleSet p = make_uniform(n, Box3{}, 777);

  Table table({"VU grid", "sort", "home fraction", "reshape bytes off-VU",
               "sort time (s)"});
  const dp::BlockLayout one_vu(hier.boxes_per_side(depth), {1, 1, 1});
  for (const dp::MachineConfig mc :
       {dp::MachineConfig{2, 2, 2}, dp::MachineConfig{4, 2, 2},
        dp::MachineConfig{4, 4, 4}}) {
    const dp::BlockLayout layout(hier.boxes_per_side(depth), mc);
    {
      WallTimer t;
      const dp::BoxedParticles b = dp::coordinate_sort(p, hier, layout);
      const double secs = t.seconds();
      const dp::SortLocality loc = dp::measure_locality(b, hier, layout);
      table.row({std::to_string(mc.vu_x) + "x" + std::to_string(mc.vu_y) +
                     "x" + std::to_string(mc.vu_z),
                 "coordinate", Table::percent(loc.home_fraction),
                 Table::num(loc.off_vu_bytes), Table::num(secs, 3)});
    }
    {
      WallTimer t;
      const dp::BoxedParticles b = dp::coordinate_sort(p, hier, one_vu);
      const double secs = t.seconds();
      const dp::SortLocality loc = dp::measure_locality(b, hier, layout);
      table.row({std::to_string(mc.vu_x) + "x" + std::to_string(mc.vu_y) +
                     "x" + std::to_string(mc.vu_z),
                 "morton", Table::percent(loc.home_fraction),
                 Table::num(loc.off_vu_bytes), Table::num(secs, 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\npaper shape to verify: the coordinate sort's home fraction is at or\n"
      "near 100%% (zero reshape communication) on every VU grid; the naive\n"
      "Morton order scatters particles across VUs.\n");
  return 0;
}
