// Prints FNV-1a hashes of solver outputs over a config sweep — the dense
// executor on uniform input, the sparse and adaptive executors on a
// clustered (Plummer) input, the adaptive executor on uniform input, the van der Waals kernel on the dense and
// sparse executors, incremental stepping, and the 2-D solver — each run
// sequentially and threaded.
//
// Two uses:
//   * Worker-count check (registered as a ctest): every threaded row must
//     hash exactly like its sequential row, since no chunk split depends on
//     the worker count. Exits 1 and names each row that differs. The
//     data-parallel rows (mode=2) are a different algorithm and are only
//     printed.
//   * Refactor check: build it against two revisions and diff the output
//     to see that a change keeps every result bitwise identical.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "hfmm/core/solver.hpp"
#include "hfmm/d2/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

static std::uint64_t fnv(const void* data, std::size_t bytes,
                         std::uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

static std::uint64_t hash_result(const core::FmmResult& r) {
  const std::uint64_t h = fnv(r.phi.data(), r.phi.size() * 8);
  return fnv(r.grad.data(), r.grad.size() * sizeof(Vec3), h);
}

static const char* mode_name(int mode) {
  return mode == 0 ? "seq" : "threads";
}

// Hashes of the sequential (mode 0) rows by label; the threaded (mode 1)
// row of the same label, printed after it, must match.
static std::map<std::string, std::string> seq_rows;
static int mismatches = 0;

static void check_row(const std::string& label, int mode,
                      const std::string& hashes) {
  if (mode == 0) {
    seq_rows[label] = hashes;
  } else if (mode == 1 && seq_rows.at(label) != hashes) {
    std::fprintf(stderr, "MISMATCH %s: seq%s threads%s\n", label.c_str(),
                 seq_rows.at(label).c_str(), hashes.c_str());
    ++mismatches;
  }
}

static std::string hex(const char* key, std::uint64_t h) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %s=%016llx", key,
                static_cast<unsigned long long>(h));
  return buf;
}

// Cold and warm solve of `p` on one solver.
static void print_cold_warm(const char* label, int mode,
                            const core::FmmConfig& cfg, const ParticleSet& p) {
  core::FmmSolver solver(cfg);
  std::string hashes = hex("cold", hash_result(solver.solve(p)));
  hashes += hex("warm", hash_result(solver.solve(p)));
  std::printf("%s %s%s\n", label, mode_name(mode), hashes.c_str());
  check_row(label, mode, hashes);
}

// Three incremental steps: every particle drifts a little toward the
// centre of its bounding box, so the pinned root cube stays valid and the
// sort is repaired from the movers.
static void print_incremental(const char* label, int mode,
                              const core::FmmConfig& cfg, ParticleSet p) {
  core::FmmConfig step_cfg = cfg;
  step_cfg.step_incremental = true;
  core::FmmSolver solver(step_cfg);
  std::string hashes;
  const Vec3 c = p.bounds().center();
  for (int step = 0; step < 3; ++step) {
    const core::FmmResult r = solver.solve(p);
    hashes += hex(("step" + std::to_string(step)).c_str(), hash_result(r));
    hashes += " repaired=" +
              std::to_string(r.breakdown.phases().at("sort").plan_reuse);
    for (std::size_t i = 0; i < p.size(); ++i) {
      const Vec3 x = p.position(i);
      const double f = 0.004 * static_cast<double>((i * 7 + step) % 5) / 4.0;
      p.set(i, x + f * (c - x), p.q()[i]);
    }
  }
  std::printf("%s %s%s\n", label, mode_name(mode), hashes.c_str());
  check_row(label, mode, hashes);
}

int main() {
  const ParticleSet p = make_uniform(3000, Box3{}, 17);
  for (int mode = 0; mode < 3; ++mode) {
    for (int agg = 0; agg < 3; ++agg) {
      for (int sn = 0; sn < 2; ++sn) {
        for (int sym = 0; sym < 2; ++sym) {
          core::FmmConfig cfg;
          cfg.depth = 3;
          cfg.mode = static_cast<core::ExecutionMode>(mode);
          cfg.aggregation = static_cast<core::AggregationMode>(agg);
          cfg.supernodes = sn != 0;
          cfg.near_symmetry = sym != 0;
          cfg.with_gradient = true;
          core::FmmSolver solver(cfg);
          std::string hashes = hex("cold", hash_result(solver.solve(p)));
          hashes += hex("warm", hash_result(solver.solve(p)));
          char label[64];
          std::snprintf(label, sizeof label, "agg=%d sn=%d sym=%d", agg, sn,
                        sym);
          std::printf("mode=%d %s%s\n", mode, label, hashes.c_str());
          check_row(label, mode, hashes);
        }
      }
    }
  }

  // The remaining sections run the shared-memory executors only.
  const ParticleSet plummer = make_plummer(4000, Box3{}, 29);
  ParticleSet vdw_uniform = make_uniform(3000, Box3{}, 31);
  ParticleSet vdw_plummer = make_plummer(3000, Box3{}, 37);
  for (std::size_t i = 0; i < vdw_uniform.size(); ++i) {
    vdw_uniform.set_type(i, static_cast<std::int32_t>(i % 2));
    vdw_plummer.set_type(i, static_cast<std::int32_t>(i % 2));
  }
  for (int mode = 0; mode < 2; ++mode) {
    core::FmmConfig base;
    base.mode = static_cast<core::ExecutionMode>(mode);
    base.with_gradient = true;

    // Explicit dense hierarchy on uniform input.
    for (int sn = 0; sn < 2; ++sn) {
      core::FmmConfig cfg = base;
      cfg.hierarchy = core::HierarchyMode::kDense;
      cfg.supernodes = sn != 0;
      print_cold_warm(sn ? "dense-uniform sn=1" : "dense-uniform sn=0", mode,
                      cfg, p);
    }
    // Sparse and adaptive executors on the clustered input.
    for (int sn = 0; sn < 2; ++sn) {
      for (int sym = 0; sym < 2; ++sym) {
        core::FmmConfig cfg = base;
        cfg.supernodes = sn != 0;
        cfg.near_symmetry = sym != 0;
        char label[64];
        cfg.hierarchy = core::HierarchyMode::kSparse;
        std::snprintf(label, sizeof label, "sparse-plummer sn=%d sym=%d", sn,
                      sym);
        print_cold_warm(label, mode, cfg, plummer);
        cfg.hierarchy = core::HierarchyMode::kAdaptive;
        std::snprintf(label, sizeof label, "adaptive-plummer sn=%d sym=%d",
                      sn, sym);
        print_cold_warm(label, mode, cfg, plummer);
      }
    }
    // Adaptive front of coarse leaves on uniform input: with ncrit=64 each
    // front leaf covers many leaves of the adaptive sort's deeper grid.
    {
      core::FmmConfig cfg = base;
      cfg.hierarchy = core::HierarchyMode::kAdaptive;
      cfg.ncrit = 64;
      print_cold_warm("adaptive-uniform ncrit=64", mode, cfg, p);
    }
    // Van der Waals kernel on the dense and sparse executors.
    {
      core::FmmConfig cfg = base;
      cfg.kernel.type = core::KernelType::kVanDerWaals;
      cfg.kernel.vdw_rmin = {0.11, 0.14};
      cfg.kernel.vdw_epsilon = {1.0, 0.55};
      cfg.kernel.vdw_cuton = 0.16;
      cfg.kernel.vdw_cutoff = 0.22;
      cfg.hierarchy = core::HierarchyMode::kDense;
      print_cold_warm("vdw-dense-uniform", mode, cfg, vdw_uniform);
      cfg.hierarchy = core::HierarchyMode::kSparse;
      print_cold_warm("vdw-sparse-plummer", mode, cfg, vdw_plummer);
      cfg.kernel.vdw_periodic = true;
      print_cold_warm("vdw-sparse-periodic", mode, cfg, vdw_uniform);
    }
    // Incremental stepping on each executor.
    {
      core::FmmConfig cfg = base;
      cfg.kernel.softening = 1e-3;
      cfg.hierarchy = core::HierarchyMode::kDense;
      print_incremental("step-dense-uniform", mode, cfg, p);
      cfg.hierarchy = core::HierarchyMode::kAuto;
      print_incremental("step-auto-uniform", mode, cfg, p);
      cfg.hierarchy = core::HierarchyMode::kSparse;
      print_incremental("step-sparse-plummer", mode, cfg, plummer);
      cfg.hierarchy = core::HierarchyMode::kAdaptive;
      print_incremental("step-adaptive-plummer", mode, cfg, plummer);
    }
  }

  {
    d2::ParticleSet2 p2 = d2::make_uniform2(2500, 23);
    for (int th = 0; th < 2; ++th) {
      for (int sn = 0; sn < 2; ++sn) {
        d2::Fmm2Config cfg;
        cfg.depth = 3;
        cfg.threads = th != 0;
        cfg.supernodes = sn != 0;
        cfg.with_gradient = true;
        d2::FmmSolver2 solver(cfg);
        const d2::Fmm2Result r = solver.solve(p2);
        std::uint64_t h = fnv(r.phi.data(), r.phi.size() * 8);
        h = fnv(r.grad.data(), r.grad.size() * sizeof(d2::Point2), h);
        std::printf("d2 threads=%d sn=%d%s\n", th, sn, hex("h", h).c_str());
        check_row("d2 sn=" + std::to_string(sn), th, hex("h", h));
      }
    }
  }
  if (mismatches > 0)
    std::fprintf(stderr, "%d threaded rows differ from their sequential row\n",
                 mismatches);
  return mismatches > 0 ? 1 : 0;
}
