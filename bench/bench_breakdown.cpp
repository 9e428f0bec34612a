// Section 4 headline reproduction: per-phase time breakdown, overall
// efficiency (paper: ~27% at D=5, ~35% at D=14 equivalents) and
// communication fraction (paper: 10-25% for large systems).
//
// Alongside the tables, the per-phase trajectory is written to
// BENCH_breakdown.json (override with --json=FILE; same machine-diffable
// shape as BENCH_kernels.json):
//   { "bench": "bench_breakdown",
//     "configs": [ { "label": "d5_k12", "n":.., "k":.., "depth":..,
//       "mode": "threads", "dist": "uniform", "hierarchy": "auto",
//       "sparse": false, "adaptive": false, "ncrit":.., "front_leaves":..,
//       "active_boxes":.., "workspace_bytes":..,
//       "occupancy": [..],
//       "total_seconds":.., "warm_seconds":.., "warm_allocs":..,
//       "total_gflop":..,
//       "phases": [ {"phase": "near", "seconds":.., "gflop":..,
//                    "imbalance":.., "boxes_active":.., "boxes_total":..,
//                    "pairs":..},
//                   ... ] },
//       ... ],
//     "integrator": { "n":.., "steps":.., "first_eval_seconds":..,
//       "warm_step_seconds":.. },
//     "ncrit_sweep": { "nproc":.., "rounds":.., "warm_per_round":..,
//       "rows": [
//       { "input": "plummer", "n":.., "mode": "sequential", "ncrit":..,
//         "pick":.., "model_seconds":.., "warm_seconds":..,
//         "warm_min_seconds":.., "warm_max_seconds":.., "active_seconds":..,
//         "far_seconds":.., "far_model_seconds":..,
//         "near_pairs":.., "front_leaves":.., "active_boxes":.. }, ... ],
//       "picks": [ { "input":.., "n":.., "mode":.., "pick":..,
//         "pick_seconds":.., "pick_rung_seconds":..,
//         "select_overhead_seconds":.., "best_ncrit":.., "best_seconds":..,
//         "pick_over_best":.. }, ... ] } }
// total_seconds is the COLD solve (plan + workspace built); warm_seconds is
// the best-of-3 warm solve on the reused plan/workspace.
//
// --dist {uniform,plummer,two-clusters} selects the particle distribution
// for the headline configs; pinned Plummer N=100k uniform-leaf rows at
// depth 4 and 5 and an adaptive row always run, so the active-set
// hierarchy's cold/warm cost, workspace footprint and the adaptive front's
// near-field pair count are diffable across runs.
//
// The ncrit sweep solves adaptive Plummer (N = 0.64n and n) and uniform
// (N = n and 2n) inputs — the hfmm_bench `plummer` config: K = 12, gradient
// on, no supernodes — once per forced ladder rung (8..128) and once with
// the cost-model pick (ncrit 0), sequential and threaded, and writes each
// row's warm median beside the model's time for that front, so the model's
// error and its pick against the best rung are both visible. far_seconds
// is the median time of the translation phases (upward, interactive,
// downward), far_model_seconds the model's translation term for the same
// front (active boxes times RefinementCostParams::box_ns).

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/tree/refinement.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

ParticleSet make_dist(const std::string& dist, std::size_t n,
                      std::uint64_t seed) {
  if (dist == "plummer") return make_plummer(n, Box3{}, seed);
  if (dist == "two-clusters") return make_two_clusters(n, Box3{}, seed);
  if (dist != "uniform") {
    std::fprintf(stderr, "unknown --dist %s (uniform|plummer|two-clusters)\n",
                 dist.c_str());
    std::exit(1);
  }
  return make_uniform(n, Box3{}, seed);
}

// Empty string keeps the environment default (HFMM_KERNEL), so
// `HFMM_KERNEL=vdw ./bench_breakdown` and `--kernel vdw` agree.
core::KernelType parse_kernel(const std::string& name) {
  if (name.empty()) return core::default_kernel_type();
  if (name == "laplace") return core::KernelType::kLaplace3d;
  if (name == "vdw") return core::KernelType::kVanDerWaals;
  std::fprintf(stderr, "unknown --kernel %s (laplace|vdw)\n", name.c_str());
  std::exit(1);
}

struct RunOpts {
  std::string dist = "uniform";
  int depth = -1;  // -1 = occupancy policy
  core::HierarchyMode hierarchy = core::HierarchyMode::kAuto;
  core::KernelType kernel = core::KernelType::kLaplace3d;
  bool vdw_periodic = false;
};

struct RunOutcome {
  double cold = 0.0;
  double warm = 0.0;
  std::size_t workspace_bytes = 0;
  std::uint64_t near_pairs = 0;
};

RunOutcome run(const char* label, const char* slug,
               const anderson::Params& params, std::size_t n, bool dp_mode,
               std::FILE* json, bool first, const RunOpts& opts = {}) {
  core::FmmConfig cfg;
  cfg.params = params;
  cfg.supernodes = true;
  cfg.depth = opts.depth;
  cfg.hierarchy = opts.hierarchy;
  if (dp_mode) {
    cfg.mode = core::ExecutionMode::kDataParallel;
    cfg.machine = {2, 2, 2};
  }
  ParticleSet p = make_dist(opts.dist, n, 4242);
  if (opts.kernel == core::KernelType::kVanDerWaals) {
    // Two-type Rmin/eps table at unit-box scale; the cuton/cutoff window
    // keeps the environment defaults (HFMM_VDW_CUTON / HFMM_VDW_CUTOFF).
    cfg.kernel.type = core::KernelType::kVanDerWaals;
    cfg.kernel.vdw_rmin = {0.02, 0.016};
    cfg.kernel.vdw_epsilon = {1.0, 0.5};
    cfg.kernel.vdw_periodic = opts.vdw_periodic;
    p.ensure_types();
    for (std::size_t i = 0; i < p.size(); ++i)
      p.set_type(i, static_cast<std::int32_t>(i % 2));
  }
  core::FmmSolver solver(cfg);
  (void)solver.translations();
  WallTimer t;
  const core::FmmResult r = solver.solve(p);
  const double total = t.seconds();

  // Warm solves reuse the plan and workspace; best-of-3 is the per-step
  // cost an integrator loop pays.
  double warm = 0.0;
  std::uint64_t warm_allocs = 0;
  std::vector<exec::StageTiming> warm_timeline;
  for (int rep = 0; rep < 3; ++rep) {
    t.reset();
    core::FmmResult w = solver.solve(p);
    const double s = t.seconds();
    if (rep == 0 || s < warm) {
      warm = s;
      warm_timeline = std::move(w.timeline);
    }
    warm_allocs = w.workspace_allocs;
  }

  std::printf("\n%s  (N = %zu, K = %zu, depth %d, %s, dist %s, kernel %s, "
              "%s hierarchy%s)\n",
              label, n, r.k, r.depth, dp_mode ? "data-parallel" : "threads",
              opts.dist.c_str(), core::to_string(r.kernel),
              core::to_string(cfg.hierarchy),
              r.sparse ? " [sparse active]" : "");
  Table table({"phase", "time (s)", "share", "Gflop", "efficiency"});
  for (const auto& [name, s] : r.breakdown.phases()) {
    if (name == "comm") continue;
    table.row({name, Table::num(s.seconds, 3),
               Table::percent(s.seconds / total),
               Table::num(static_cast<double>(s.flops) / 1e9, 3),
               Table::percent(bench::efficiency(s.flops, s.seconds))});
  }
  table.print(std::cout);
  std::printf("overall: %.3f s, %.2f Gflop, efficiency %.1f%%\n", total,
              static_cast<double>(r.breakdown.total_flops()) / 1e9,
              100.0 * bench::efficiency(r.breakdown.total_flops(), total));
  std::printf(
      "cold solve %.3f s -> warm solve %.3f s (%.2fx, plan+workspace "
      "reused, %llu warm heap growths)\n",
      total, warm, total / warm,
      static_cast<unsigned long long>(warm_allocs));
  std::printf("workspace: %.2f MB heap; active boxes %zu",
              static_cast<double>(r.workspace_bytes) / 1e6, r.active_boxes);
  if (r.adaptive)
    std::printf("; ncrit %d, %zu front leaves", r.ncrit, r.front_leaves);
  const std::uint64_t near_pairs =
      r.breakdown.phases().count("near")
          ? r.breakdown.phases().at("near").pairs
          : 0;
  if (near_pairs > 0)
    std::printf("; near pairs %llu",
                static_cast<unsigned long long>(near_pairs));
  if (!r.level_occupancy.empty()) {
    std::printf("; occupancy by level:");
    for (double o : r.level_occupancy) std::printf(" %.3f", o);
  }
  std::printf("\n");
  if (dp_mode) {
    const double comm = r.breakdown.phases().count("comm")
                            ? r.breakdown.phases().at("comm").seconds
                            : 0.0;
    const double per_vu = total / static_cast<double>(cfg.machine.total_vus());
    std::printf(
        "modeled communication: %.3f s (%.1f%% of per-VU execution), "
        "%.2f MB off-VU, %llu messages\n",
        comm, 100.0 * comm / (per_vu + comm),
        static_cast<double>(r.comm.off_vu_bytes) / 1e6,
        static_cast<unsigned long long>(r.comm.messages));
  }

  // Per-stage timeline of the best warm solve: the wall-clock interval of
  // every phase-graph stage, so far/near overlap is observable rather than
  // inferred from phase sums.
  std::printf("\nwarm-solve stage timeline (start/end in ms since solve "
              "start):\n");
  Table tl({"stage", "phase", "start (ms)", "end (ms)", "chunks", "workers"});
  for (const auto& st : warm_timeline)
    tl.row({st.stage, st.phase, Table::num(st.start_seconds * 1e3, 3),
            Table::num(st.end_seconds * 1e3, 3), Table::num(st.chunks),
            Table::num(st.workers)});
  tl.print(std::cout);

  if (json != nullptr) {
    std::fprintf(json,
                 "%s\n    { \"label\": \"%s\", \"n\": %zu, \"k\": %zu, "
                 "\"depth\": %d, \"mode\": \"%s\", \"kernel\": \"%s\",\n"
                 "      \"dist\": \"%s\", \"hierarchy\": \"%s\", "
                 "\"hierarchy_effective\": \"%s\", "
                 "\"sparse\": %s, \"adaptive\": %s, \"ncrit\": %d, "
                 "\"front_leaves\": %zu, \"active_boxes\": %zu, "
                 "\"workspace_bytes\": %zu,\n      \"occupancy\": [",
                 first ? "" : ",", slug, n, r.k, r.depth,
                 dp_mode ? "data_parallel" : "threads",
                 core::to_string(r.kernel), opts.dist.c_str(),
                 core::to_string(cfg.hierarchy),
                 core::to_string(r.hierarchy_effective),
                 r.sparse ? "true" : "false",
                 r.adaptive ? "true" : "false", r.ncrit, r.front_leaves,
                 r.active_boxes, r.workspace_bytes);
    for (std::size_t l = 0; l < r.level_occupancy.size(); ++l)
      std::fprintf(json, "%s%.6f", l == 0 ? "" : ", ", r.level_occupancy[l]);
    std::fprintf(json,
                 "],\n"
                 "      \"total_seconds\": %.6f, \"warm_seconds\": %.6f, "
                 "\"warm_allocs\": %llu, \"total_gflop\": %.3f,\n"
                 "      \"phases\": [",
                 total, warm, static_cast<unsigned long long>(warm_allocs),
                 static_cast<double>(r.breakdown.total_flops()) / 1e9);
    bool first_phase = true;
    for (const auto& [name, s] : r.breakdown.phases()) {
      std::fprintf(json,
                   "%s\n        { \"phase\": \"%s\", \"seconds\": %.6f, "
                   "\"gflop\": %.3f, \"imbalance\": %.4f, "
                   "\"boxes_active\": %llu, \"boxes_total\": %llu, "
                   "\"pairs\": %llu, "
                   "\"movers\": %llu, \"chunks_rebuilt\": %llu, "
                   "\"plan_reuse\": %llu }",
                   first_phase ? "" : ",", name.c_str(), s.seconds,
                   static_cast<double>(s.flops) / 1e9, s.cost_imbalance,
                   static_cast<unsigned long long>(s.boxes_active),
                   static_cast<unsigned long long>(s.boxes_total),
                   static_cast<unsigned long long>(s.pairs),
                   static_cast<unsigned long long>(s.movers),
                   static_cast<unsigned long long>(s.chunks_rebuilt),
                   static_cast<unsigned long long>(s.plan_reuse));
      first_phase = false;
    }
    std::fprintf(json, "\n      ],\n      \"timeline\": [");
    bool first_stage = true;
    for (const auto& st : warm_timeline) {
      std::fprintf(json,
                   "%s\n        { \"stage\": \"%s\", \"phase\": \"%s\", "
                   "\"start_seconds\": %.6f, \"end_seconds\": %.6f, "
                   "\"chunks\": %zu, \"workers\": %zu }",
                   first_stage ? "" : ",", st.stage.c_str(), st.phase.c_str(),
                   st.start_seconds, st.end_seconds, st.chunks, st.workers);
      first_stage = false;
    }
    std::fprintf(json, "\n      ] }");
  }
  return {total, warm, r.workspace_bytes, near_pairs};
}

// Each sweep row is solved in kSweepRounds rounds, one rung after another
// in every round, so a slow spell of a shared host lands on all rungs; a
// round builds a fresh solver (one cold solve) and times kSweepWarm warm
// solves. The row reports the median, min and max of the warm times.
constexpr int kSweepRounds = 3;
constexpr int kSweepWarm = 3;
constexpr int kSweepReps = kSweepRounds * kSweepWarm;

struct SweepRow {
  int ncrit = 0;  // forced rung, 0 = the cost-model pick
  int pick = 0;   // the ncrit the front was refined with
  double model = 0.0, warm = 0.0, warm_min = 0.0, warm_max = 0.0;
  double active = 0.0, far = 0.0;
  std::uint64_t near_pairs = 0;
  std::size_t leaves = 0, boxes = 0;
  std::vector<double> warm_samples, active_samples, far_samples;
};

void sweep_round(const ParticleSet& p, core::ExecutionMode mode,
                 SweepRow& row) {
  core::FmmConfig cfg;
  cfg.hierarchy = core::HierarchyMode::kAdaptive;
  cfg.with_gradient = true;
  cfg.supernodes = false;
  cfg.step_incremental = false;
  cfg.mode = mode;
  cfg.ncrit = row.ncrit;
  core::FmmSolver solver(cfg);
  (void)solver.solve(p);  // cold: plan and workspace
  for (int rep = 0; rep < kSweepWarm; ++rep) {
    WallTimer t;
    const core::FmmResult r = solver.solve(p);
    row.warm_samples.push_back(t.seconds());
    const auto& phases = r.breakdown.phases();
    row.active_samples.push_back(phases.at("active").seconds);
    row.far_samples.push_back(phases.at("upward").seconds +
                              phases.at("interactive").seconds +
                              phases.at("downward").seconds);
    row.pick = r.ncrit;
    row.model = r.modeled_seconds;
    row.near_pairs = r.breakdown.phases().at("near").pairs;
    row.leaves = r.front_leaves;
    row.boxes = r.active_boxes;
  }
}

void finish_row(SweepRow& row) {
  std::sort(row.warm_samples.begin(), row.warm_samples.end());
  std::sort(row.active_samples.begin(), row.active_samples.end());
  std::sort(row.far_samples.begin(), row.far_samples.end());
  row.warm = row.warm_samples[kSweepReps / 2];
  row.warm_min = row.warm_samples.front();
  row.warm_max = row.warm_samples.back();
  row.active = row.active_samples[kSweepReps / 2];
  row.far = row.far_samples[kSweepReps / 2];
}

void ncrit_sweep(std::size_t n, std::FILE* json) {
  std::printf("\n==== adaptive ncrit sweep: forced rungs vs the cost-model "
              "pick (K = 12, gradient, no supernodes) ====\n");
  struct Input {
    const char* name;
    std::size_t n;
  };
  const Input inputs[] = {{"plummer", n * 16 / 25},
                          {"plummer", n},
                          {"uniform", n},
                          {"uniform", 2 * n}};
  static constexpr int kRungs[] = {8, 16, 32, 64, 128, 0};
  // The model's translation term for the sweep's config.
  tree::RefinementCostParams cost;
  cost.k = core::FmmConfig{}.params.k();
  cost.supernodes = false;
  cost.gradient = true;
  if (json != nullptr)
    std::fprintf(json,
                 ",\n  \"ncrit_sweep\": { \"nproc\": %u, \"rounds\": %d, "
                 "\"warm_per_round\": %d, \"rows\": [",
                 std::thread::hardware_concurrency(), kSweepRounds,
                 kSweepWarm);
  std::string picks;
  bool first_row = true;
  for (const Input& in : inputs) {
    const ParticleSet p = make_dist(in.name, in.n, 1);
    for (const core::ExecutionMode mode :
         {core::ExecutionMode::kSequential, core::ExecutionMode::kThreads}) {
      const char* mode_name =
          mode == core::ExecutionMode::kSequential ? "sequential" : "threads";
      std::printf("\n%s N = %zu, %s\n", in.name, in.n, mode_name);
      Table table({"ncrit", "pick", "model (s)", "warm (s)", "warm/model",
                   "active (s)", "far (s)", "far/model", "near pairs",
                   "leaves", "boxes"});
      std::vector<SweepRow> rows(std::size(kRungs));
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i].ncrit = kRungs[i];
      for (int round = 0; round < kSweepRounds; ++round)
        for (SweepRow& r : rows) sweep_round(p, mode, r);
      for (SweepRow& r : rows) {
        finish_row(r);
        const int rung = r.ncrit;
        const double far_model =
            1e-9 * static_cast<double>(r.boxes) * cost.box_ns();
        table.row({rung == 0 ? std::string("model")
                             : Table::num(static_cast<std::uint64_t>(rung)),
                   Table::num(static_cast<std::uint64_t>(r.pick)),
                   Table::num(r.model, 3),
                   Table::num(r.warm, 3), Table::num(r.warm / r.model, 3),
                   Table::num(r.active, 3), Table::num(r.far, 3),
                   Table::num(r.far / far_model, 3), Table::num(r.near_pairs),
                   Table::num(r.leaves), Table::num(r.boxes)});
        if (json != nullptr) {
          std::fprintf(
              json,
              "%s\n      { \"input\": \"%s\", \"n\": %zu, \"mode\": "
              "\"%s\", \"ncrit\": %d, \"pick\": %d, "
              "\"model_seconds\": %.6f, \"warm_seconds\": %.6f, "
              "\"warm_min_seconds\": %.6f, \"warm_max_seconds\": %.6f, "
              "\"active_seconds\": %.6f, \"far_seconds\": %.6f, "
              "\"far_model_seconds\": %.6f, \"near_pairs\": %llu, "
              "\"front_leaves\": %zu, \"active_boxes\": %zu }",
              first_row ? "" : ",", in.name, in.n, mode_name, rung, r.pick,
              r.model, r.warm, r.warm_min, r.warm_max, r.active, r.far,
              far_model, static_cast<unsigned long long>(r.near_pairs),
              r.leaves, r.boxes);
          first_row = false;
        }
      }
      table.print(std::cout);
      // The pick row against the best forced rung (selection included),
      // and the forced row of the picked rung: its time shows the model's
      // ranking alone, its active phase the selection's overhead.
      const SweepRow& model = rows.back();
      const SweepRow* best = &rows.front();
      const SweepRow* picked = &rows.front();
      for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
        if (rows[i].warm < best->warm) best = &rows[i];
        if (rows[i].ncrit == model.pick) picked = &rows[i];
      }
      const double overhead = model.active - picked->active;
      std::printf("model pick %d: %.3f s (forced %.3f s, selection %.3f s), "
                  "best forced rung %d: %.3f s (pick/best %.3f)\n",
                  model.pick, model.warm, picked->warm, overhead, best->ncrit,
                  best->warm, model.warm / best->warm);
      std::fflush(stdout);
      char buf[400];
      std::snprintf(buf, sizeof buf,
                    "%s\n      { \"input\": \"%s\", \"n\": %zu, "
                    "\"mode\": \"%s\", \"pick\": %d, "
                    "\"pick_seconds\": %.6f, \"pick_rung_seconds\": %.6f, "
                    "\"select_overhead_seconds\": %.6f, "
                    "\"best_ncrit\": %d, \"best_seconds\": %.6f, "
                    "\"pick_over_best\": %.4f }",
                    picks.empty() ? "" : ",", in.name, in.n, mode_name,
                    model.pick, model.warm, picked->warm, overhead,
                    best->ncrit, best->warm, model.warm / best->warm);
      picks += buf;
    }
  }
  if (json != nullptr)
    std::fprintf(json, "\n    ],\n    \"picks\": [%s\n    ] }", picks.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_breakdown.json";
  // Peel off --json=... before the Cli parser sees the flags (same
  // convention as bench_kernels).
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  Cli cli(static_cast<int>(args.size()), args.data());
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{100000}));
  RunOpts opts;
  opts.dist = cli.get("dist", std::string("uniform"));
  opts.depth = static_cast<int>(cli.get("depth", std::int64_t{-1}));
  opts.kernel = parse_kernel(cli.get("kernel", std::string("")));
  bench::check_unused(cli);

  bench::print_header("bench_breakdown",
                      "Section 4 headlines — phase breakdown, overall "
                      "efficiency (~27%/~35%), comm fraction (10-25%)");
  std::printf("calibrated peak: %.2f Gflop/s\n", bench::peak_flops() / 1e9);

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_breakdown: cannot write %s\n", json_path);
  else
    std::fprintf(json, "{\n  \"bench\": \"bench_breakdown\",\n  \"configs\": [");

  run("D=5 / K=12 configuration", "d5_k12", anderson::params_d5_k12(), n,
      false, json, true, opts);
  run("K=72 configuration", "k72", anderson::params_d14_k72(), n / 4, false,
      json, false, opts);
  run("D=5 / K=12, simulated 8-VU machine", "d5_k12_dp",
      anderson::params_d5_k12(), n / 2, true, json, false, opts);

  // Pinned uniform-leaf rows on a clustered (Plummer) distribution, at
  // depth 4 (near-field dominated at N=100k) and depth 5 (translation
  // dominated). Every uniform-leaf request runs the one active-set
  // executor, so there is no dense row to set beside them.
  std::printf("\n==== clustered uniform-leaf/adaptive comparison (Plummer) "
              "====\n");
  for (const int depth : {4, 5}) {
    RunOpts d = opts;
    d.dist = "plummer";
    d.depth = depth;
    d.hierarchy = core::HierarchyMode::kSparse;
    char label[96], slug[64];
    std::snprintf(label, sizeof label, "Plummer depth-%d, sparse hierarchy",
                  depth);
    std::snprintf(slug, sizeof slug, "plummer_d%d_sparse", depth);
    run(label, slug, anderson::params_d5_k12(), n, false, json, false, d);
  }

  // Adaptive ncrit refinement against the best uniform-leaf sparse solve:
  // the §15 headline. Both pick their own depth (occupancy rule vs
  // refinement cap); the adaptive front must cut the near-field pair count
  // and the warm wall-clock on the clustered core.
  {
    RunOpts d = opts;
    d.dist = "plummer";
    d.depth = -1;
    d.hierarchy = core::HierarchyMode::kSparse;
    const RunOutcome sparse = run("Plummer, uniform-leaf sparse (auto depth)",
                                  "plummer_sparse_auto",
                                  anderson::params_d5_k12(), n, false, json,
                                  false, d);
    d.hierarchy = core::HierarchyMode::kAdaptive;
    const RunOutcome adaptive = run("Plummer, adaptive ncrit front",
                                    "plummer_adaptive",
                                    anderson::params_d5_k12(), n, false, json,
                                    false, d);
    std::printf(
        "\nplummer adaptive vs uniform sparse: warm %.3f s -> %.3f s "
        "(%.2fx), near pairs %llu -> %llu (%.2fx)\n",
        sparse.warm, adaptive.warm, sparse.warm / adaptive.warm,
        static_cast<unsigned long long>(sparse.near_pairs),
        static_cast<unsigned long long>(adaptive.near_pairs),
        static_cast<double>(sparse.near_pairs) /
            static_cast<double>(adaptive.near_pairs == 0
                                    ? 1
                                    : adaptive.near_pairs));
  }

  // Pinned Laplace/vdW pair at the same N: the short-range tier runs the
  // same tree + near-field machinery with the far-field stages as empty
  // DAG nodes, so the two rows are directly diffable phase by phase.
  std::printf("\n==== kernel comparison (Laplace vs van der Waals) ====\n");
  {
    RunOpts d = opts;
    d.dist = "uniform";
    d.kernel = core::KernelType::kLaplace3d;
    run("Laplace 3-D, uniform", "kernel_laplace", anderson::params_d5_k12(),
        n, false, json, false, d);
    d.kernel = core::KernelType::kVanDerWaals;
    run("van der Waals, uniform", "kernel_vdw", anderson::params_d5_k12(), n,
        false, json, false, d);
    d.vdw_periodic = true;
    run("van der Waals, uniform, periodic box", "kernel_vdw_periodic",
        anderson::params_d5_k12(), n, false, json, false, d);
  }

  // Timestep loop: after the first force evaluation builds the plan, every
  // leapfrog step pays only the warm-solve cost.
  {
    core::FmmConfig cfg;
    cfg.supernodes = true;
    cfg.with_gradient = true;
    // Plummer softening keeps close encounters from scattering particles
    // out of the box mid-bench; the measurement targets solver cost.
    cfg.kernel.softening = 1e-3;
    const std::size_t n_int = n / 4;
    core::FmmSolver solver(cfg);
    core::LeapfrogIntegrator integ(solver, core::ForceLaw::kGravity, 1e-6);
    core::SimulationState state;
    state.particles = make_uniform(n_int, Box3{}, 99);
    state.velocity.assign(n_int, Vec3{});
    WallTimer t;
    integ.initialize(state);
    const double first_eval = t.seconds();
    const std::uint64_t cold_allocs = integ.force_stats().workspace_allocs;
    const int steps = 5;
    t.reset();
    integ.run(state, steps);
    const double per_step = t.seconds() / steps;
    const core::ForceStats& fs = integ.force_stats();
    std::printf(
        "\nintegrator (N = %zu): first force evaluation %.3f s (cold, %llu "
        "heap growths), then %.3f s/step warm (%llu/%llu warm evaluations, "
        "%llu warm heap growths)\n",
        n_int, first_eval, static_cast<unsigned long long>(cold_allocs),
        per_step, static_cast<unsigned long long>(fs.warm_evaluations),
        static_cast<unsigned long long>(fs.evaluations),
        static_cast<unsigned long long>(fs.workspace_allocs - cold_allocs));
    if (json != nullptr) {
      std::fprintf(json,
                   "\n  ],\n  \"integrator\": { \"n\": %zu, \"steps\": %d, "
                   "\"first_eval_seconds\": %.6f, "
                   "\"warm_step_seconds\": %.6f }",
                   n_int, steps, first_eval, per_step);
    }
  }

  ncrit_sweep(n, json);
  if (json != nullptr) {
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("\nper-phase JSON written to %s\n", json_path);
  }
  return 0;
}
