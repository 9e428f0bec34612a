// Per-step cost of the dynamic-stepping pipeline (DESIGN.md Section 14):
// leapfrog runs on two clustered scenarios — a Plummer collapse and a
// two-cluster merger — once with full per-step rebuilds and once with the
// incremental stepping path (HFMM_STEP_INCREMENTAL semantics: mover-only
// sort repair, persistent active sets, patched cost model, streamed force
// accumulation). Every step's sort/active seconds and the incremental
// counters (movers, plan_reuse, chunks_rebuilt) go to BENCH_dynamics.json;
// the console table reports per-mode means so the sort+plan reduction is
// visible at a glance.
//
// --smoke shrinks the run and validates the counters instead of timing:
// the incremental mode must actually repair (sort plan_reuse >= 1) and the
// full mode must never report reuse. CI runs this in the plain lane.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

struct StepRow {
  double seconds = 0.0;       // full evaluation wall time
  double sort_seconds = 0.0;  // coordinate sort (full or repair)
  double active_seconds = 0.0;
  std::uint64_t movers = 0;
  std::uint64_t plan_reuse = 0;  // sort repairs + active/cost reuses
  std::uint64_t chunks_rebuilt = 0;
};

struct ModeRun {
  double cold_seconds = 0.0;
  std::vector<StepRow> steps;
  std::uint64_t total(std::uint64_t StepRow::*f) const {
    std::uint64_t s = 0;
    for (const StepRow& r : steps) s += r.*f;
    return s;
  }
  double mean(double StepRow::*f) const {
    if (steps.empty()) return 0.0;
    double s = 0.0;
    for (const StepRow& r : steps) s += r.*f;
    return s / static_cast<double>(steps.size());
  }
};

StepRow capture(const PhaseBreakdown& b) {
  StepRow row;
  row.seconds = b.total_seconds();
  const auto& phases = b.phases();
  if (const auto it = phases.find("sort"); it != phases.end()) {
    row.sort_seconds = it->second.seconds;
    row.movers = it->second.movers;
    row.plan_reuse += it->second.plan_reuse;
  }
  if (const auto it = phases.find("active"); it != phases.end()) {
    row.active_seconds = it->second.seconds;
    row.plan_reuse += it->second.plan_reuse;
    row.chunks_rebuilt = it->second.chunks_rebuilt;
  }
  return row;
}

ParticleSet make_scenario(const std::string& name, std::size_t n,
                          std::uint64_t seed) {
  if (name == "plummer-collapse") return make_plummer(n, Box3{}, seed);
  return make_two_clusters(n, Box3{}, seed);  // "two-cluster-merger"
}

// One leapfrog run: cold initialize() then `steps` steps, each step's
// breakdown captured from the integrator.
ModeRun run_mode(const std::string& scenario, std::size_t n,
                 std::uint64_t steps, double dt, bool incremental) {
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.supernodes = true;
  cfg.step_incremental = incremental;
  // Plummer softening keeps unresolved close encounters from slingshotting
  // particles out of the pinned root cube mid-bench (same convention as
  // bench_breakdown's integrator loop); the measurement targets solver cost.
  cfg.kernel.softening = 1e-3;
  core::FmmSolver solver(cfg);
  (void)solver.translations();

  core::SimulationState state;
  state.particles = make_scenario(scenario, n, 1203);
  state.velocity.assign(n, Vec3{});  // cold start: gravity does the mixing

  core::LeapfrogIntegrator integ(solver, core::ForceLaw::kGravity, dt);
  ModeRun run;
  WallTimer t;
  integ.initialize(state);
  run.cold_seconds = t.seconds();
  for (std::uint64_t s = 0; s < steps; ++s) {
    integ.step(state);
    run.steps.push_back(capture(integ.last_breakdown()));
  }
  return run;
}

void write_steps(std::FILE* json, const ModeRun& run) {
  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    const StepRow& r = run.steps[i];
    std::fprintf(json,
                 "%s\n        { \"seconds\": %.6f, \"sort_seconds\": %.6f, "
                 "\"active_seconds\": %.6f, \"movers\": %llu, "
                 "\"plan_reuse\": %llu, \"chunks_rebuilt\": %llu }",
                 i == 0 ? "" : ",", r.seconds, r.sort_seconds,
                 r.active_seconds, static_cast<unsigned long long>(r.movers),
                 static_cast<unsigned long long>(r.plan_reuse),
                 static_cast<unsigned long long>(r.chunks_rebuilt));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_dynamics.json";
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  Cli cli(static_cast<int>(args.size()), args.data());
  const bool smoke = cli.flag("smoke");
  const std::size_t n = static_cast<std::size_t>(
      cli.get("n", std::int64_t{smoke ? 2000 : 20000}));
  const std::uint64_t steps = static_cast<std::uint64_t>(
      cli.get("steps", std::int64_t{smoke ? 6 : 20}));
  // Default dt keeps the per-step displacement realistic for an accurate
  // integration (~10 movers/step at n=20000): per-step cost is the subject,
  // and a timestep violent enough to relocate ~10% of the particles per
  // step would (correctly) push every step to the full-rebuild fallback.
  const double dt = cli.get("dt", smoke ? 1e-3 : 2e-4);
  bench::check_unused(cli);

  bench::print_header(
      "bench_dynamics",
      "Section 1/4 motivation — per-step cost of dynamic simulations "
      "(incremental re-sort + persistent plans vs full rebuilds)");

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_dynamics: cannot write %s\n", json_path);
  else
    std::fprintf(json,
                 "{\n  \"bench\": \"bench_dynamics\",\n  \"n\": %zu,\n"
                 "  \"steps\": %llu,\n  \"dt\": %.6g,\n  \"scenarios\": [",
                 n, static_cast<unsigned long long>(steps), dt);

  Table table({"scenario", "mode", "cold (s)", "step (s)", "sort (s)",
               "active (s)", "movers/step", "plan_reuse", "chunks_rebuilt"});
  bool ok = true;
  bool first_scenario = true;
  for (const char* scenario : {"plummer-collapse", "two-cluster-merger"}) {
    if (json != nullptr)
      std::fprintf(json, "%s\n    { \"name\": \"%s\", \"modes\": [",
                   first_scenario ? "" : ",", scenario);
    first_scenario = false;
    bool first_mode = true;
    for (const bool incremental : {false, true}) {
      const ModeRun run = run_mode(scenario, n, steps, dt, incremental);
      const char* mode = incremental ? "incremental" : "full";
      table.row({scenario, mode, Table::num(run.cold_seconds, 3),
                 Table::num(run.mean(&StepRow::seconds), 4),
                 Table::num(run.mean(&StepRow::sort_seconds), 4),
                 Table::num(run.mean(&StepRow::active_seconds), 4),
                 Table::num(run.mean(&StepRow::seconds) > 0
                                ? static_cast<double>(
                                      run.total(&StepRow::movers)) /
                                      static_cast<double>(steps)
                                : 0.0,
                            1),
                 Table::num(run.total(&StepRow::plan_reuse)),
                 Table::num(run.total(&StepRow::chunks_rebuilt))});
      if (json != nullptr) {
        std::fprintf(json,
                     "%s\n      { \"mode\": \"%s\", \"cold_seconds\": %.6f, "
                     "\"step_rows\": [",
                     first_mode ? "" : ",", mode, run.cold_seconds);
        write_steps(json, run);
        std::fprintf(json, "\n      ] }");
      }
      first_mode = false;
      // Counter contract (--smoke gate): the incremental mode must take the
      // repair path at least once; the full mode must never report reuse.
      const std::uint64_t reuse = run.total(&StepRow::plan_reuse);
      if (incremental && reuse == 0) {
        std::fprintf(stderr,
                     "bench_dynamics: %s incremental run never reused a "
                     "sort/plan (plan_reuse == 0)\n",
                     scenario);
        ok = false;
      }
      if (!incremental && reuse != 0) {
        std::fprintf(stderr,
                     "bench_dynamics: %s full-rebuild run reported "
                     "plan_reuse == %llu (expected 0)\n",
                     scenario, static_cast<unsigned long long>(reuse));
        ok = false;
      }
    }
    if (json != nullptr) std::fprintf(json, "\n    ] }");
  }
  table.print(std::cout);
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\ndynamics JSON written to %s\n", json_path);
  }
  std::printf(
      "\nexpected shape: incremental mode's per-step sort+active seconds "
      "drop\nversus the full mode while movers stays a small fraction of "
      "N.\n");
  if (smoke && !ok) return 1;
  return 0;
}
