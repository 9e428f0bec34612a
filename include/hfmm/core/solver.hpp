#pragma once
// FmmSolver — the public entry point of the library.
//
// Runs the five-step generic hierarchical method of the paper (Section 2.2):
//   1. P2M: leaf outer approximations from particles,
//   2. upward pass (T1),
//   3. downward pass (T2 over interactive fields + T3 from parents),
//   4. L2P: far-field potential at the particles,
//   5. near field: direct evaluation over the d-separation neighborhood,
// with Anderson's sphere elements and the paper's data-parallel execution
// techniques. See FmmConfig for the execution/aggregation choices.
//
// Typical use:
//   FmmConfig cfg;                      // D = 5, K = 12 defaults
//   cfg.with_gradient = true;
//   FmmSolver solver(cfg);
//   FmmResult r = solver.solve(particles);
//   // r.phi[i], r.grad[i] in the ORIGINAL particle order.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hfmm/anderson/translations.hpp"
#include "hfmm/core/config.hpp"
#include "hfmm/exec/graph.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/timer.hpp"

namespace hfmm::service {
class PlanCache;
}  // namespace hfmm::service

namespace hfmm::core {

/// Per-rank counters of a distributed solve (ExecutionMode::kDistributed,
/// DESIGN.md Section 18): measured fabric traffic, the local essential
/// tree the rank received, and the partition's modeled cost share.
struct DistRankStats {
  std::uint64_t bytes_sent = 0;   ///< payload bytes pushed to the fabric
  std::uint64_t bytes_recv = 0;   ///< payload bytes popped from the fabric
  std::uint64_t let_bodies = 0;   ///< ghost bodies received (near field)
  std::uint64_t let_cells = 0;    ///< far/local vectors received
  std::uint64_t cost = 0;         ///< partition cost-model share
  std::size_t owned_leaves = 0;   ///< active leaves owned
  std::size_t owned_bodies = 0;   ///< particles owned
};

struct FmmResult {
  std::vector<double> phi;   ///< potential per particle (original order)
  std::vector<Vec3> grad;    ///< field gradient (if config.with_gradient)
  PhaseBreakdown breakdown;  ///< per-phase time / flops / comm
  dp::CommStats comm;        ///< data-parallel mode communication counters
  int depth = 0;             ///< hierarchy depth used
  std::size_t k = 0;         ///< integration points per sphere
  /// The physics this solve evaluated (config.kernel.type). Short-range
  /// kernels keep the far-field phases in the breakdown/timeline as empty
  /// entries (zero boxes, zero pairs).
  KernelType kernel = KernelType::kLaplace3d;
  std::size_t leaf_boxes = 0;
  bool plan_reused = false;  ///< warm solve: no plan construction happened
  std::uint64_t workspace_allocs = 0;  ///< heap-growth events this solve
  /// True when the solve ran over active-box level sets with one uniform
  /// leaf level: every kDense, kSparse and kAuto request in the sequential,
  /// threaded and distributed modes, and in the data-parallel mode a solve
  /// whose multigrid moves were masked (kSparse, or kAuto below 0.9 leaf
  /// occupancy).
  bool sparse = false;
  /// True when the solve ran on the adaptive leaf-front executor
  /// (HierarchyMode::kAdaptive, DESIGN.md Section 15).
  bool adaptive = false;
  /// The hierarchy mode the caller configured, verbatim.
  HierarchyMode hierarchy_requested = HierarchyMode::kAuto;
  /// The hierarchy mode actually in effect for this solve. Differs from
  /// hierarchy_requested exactly when the solver degraded the request —
  /// today that is kAdaptive -> kAuto for short-range kernels, which have
  /// no adaptive leaf-front executor (see FmmSolver ctor).
  HierarchyMode hierarchy_effective = HierarchyMode::kAuto;
  /// The ncrit the adaptive front was refined with (config.ncrit, or the
  /// cost-model selection when config.ncrit == 0). 0 on non-adaptive solves.
  int ncrit = 0;
  /// The cost model's time for the adaptive front this solve ran
  /// (tree::RefinementCost::seconds) — set beside the measured breakdown so
  /// the model's error shows per solve. 0 on non-adaptive solves.
  double modeled_seconds = 0.0;
  /// Leaves of the adaptive front (== leaf_boxes on adaptive solves).
  std::size_t front_leaves = 0;
  /// Total active boxes over all levels (== total dense boxes when every
  /// box is active, or on a kDense data-parallel solve).
  std::size_t active_boxes = 0;
  /// Per-level active-box fraction, level_occupancy[l] in (0, 1]; filled
  /// whenever the active sets were derived (every shared-memory and
  /// distributed solve, and DP solves with hierarchy != kDense).
  std::vector<double> level_occupancy;
  /// Heap footprint (capacity) of the solve workspace after this solve.
  std::size_t workspace_bytes = 0;
  /// Per-stage execution timeline of the solve's phase graph (start/end
  /// seconds relative to the graph run, chunk split, worker count) — shows
  /// which stages overlapped in concurrent mode.
  std::vector<exec::StageTiming> timeline;
  /// Distributed execution (ExecutionMode::kDistributed): effective rank
  /// count (0 otherwise), the partition's (max / mean) cost-model rank
  /// imbalance, the LET plan's modeled exchange bytes (which the measured
  /// fabric traffic must match exactly — the pack loops realize the model),
  /// and per-rank counters.
  int dist_ranks = 0;
  double dist_cost_imbalance = 0.0;
  std::uint64_t dist_modeled_bytes = 0;
  std::vector<DistRankStats> dist;
};

/// Borrowed, SORTED-order view of a solve's per-particle outputs — the
/// streamed accumulation path for timestep loops. `phi[i]` / `grad[i]`
/// belong to the particle with original index `perm[i]`; `q[i]` is its
/// charge. The spans alias the solver's workspace: they stay valid until
/// the next solve() on the same solver and must not be written. When a
/// solve fills a view, FmmResult::phi / ::grad are left EMPTY (no
/// original-order scatter, no per-step result allocation). Data-parallel
/// mode does not stream; the view comes back empty (valid() == false) and
/// the result vectors are filled as usual.
struct SolveView {
  std::span<const double> phi;
  std::span<const Vec3> grad;  ///< empty unless config.with_gradient
  std::span<const std::uint32_t> perm;  ///< sorted index -> original index
  std::span<const double> q;            ///< charges in sorted order
  bool valid() const { return !phi.empty(); }
};

/// Depth the solver will use for `n` particles under `config` — the
/// automatic-depth rule (Section 2.3 occupancy balance, the adaptive
/// refinement cap, and the short-range cutoff-coverage cap), or the
/// explicit config.depth. Free function so the service's admission cost
/// model can price a request without instantiating a solver.
int depth_for(const FmmConfig& config, std::size_t n);

class FmmSolver {
 public:
  explicit FmmSolver(FmmConfig config);
  /// Service-client form: plans and translation data resolve through the
  /// shared `cache` instead of being built per solver, so N clients of the
  /// same workload pay for one plan build (DESIGN.md Section 17). A null
  /// cache behaves exactly like the single-argument constructor.
  FmmSolver(FmmConfig config, std::shared_ptr<service::PlanCache> cache);
  ~FmmSolver();
  FmmSolver(const FmmSolver&) = delete;
  FmmSolver& operator=(const FmmSolver&) = delete;

  /// Computes the potential (and optionally gradient) induced at every
  /// particle by all the others. Throws std::invalid_argument when a
  /// coordinate or charge is not finite.
  FmmResult solve(const ParticleSet& particles);

  /// Streamed variant: leaves the outputs in sorted order behind `view`
  /// instead of scattering them into FmmResult (see SolveView). Everything
  /// else about the solve — phases, counters, determinism — is identical.
  FmmResult solve(const ParticleSet& particles, SolveView& view);

  const FmmConfig& config() const { return config_; }

  /// The hierarchy mode the caller asked for, before any degradation;
  /// config().hierarchy is the mode in effect (see
  /// FmmResult::hierarchy_effective).
  HierarchyMode hierarchy_requested() const { return hierarchy_requested_; }

  /// The precomputed translation matrices (shared across solve() calls);
  /// built lazily on first use.
  const anderson::TranslationSet& translations();

  /// Depth that will be used for `n` particles under this configuration.
  int depth_for(std::size_t n) const;

  /// True when a solve for `n` particles would reuse the cached plan (i.e.
  /// a previous solve already built the plan for depth_for(n)).
  bool plan_ready(std::size_t n) const;

  /// Internal state (precomputed matrices); defined in solver_internal.hpp.
  struct Impl;

 private:
  FmmResult solve_impl_(const ParticleSet& particles, SolveView* view);
  FmmResult solve_dp_(const ParticleSet& particles,
                      const tree::Hierarchy& hier, FmmResult result);
  FmmResult solve_sparse_(const ParticleSet& particles,
                          const tree::Hierarchy& hier, FmmResult result,
                          SolveView* view, bool sort_repaired);
  FmmResult solve_adaptive_(const ParticleSet& particles,
                            const tree::Hierarchy& hier, FmmResult result,
                            SolveView* view, bool sort_repaired);
  FmmResult solve_dist_(const ParticleSet& particles,
                        const tree::Hierarchy& hier, FmmResult result,
                        SolveView* view, bool sort_repaired);
  FmmConfig config_;
  HierarchyMode hierarchy_requested_ = HierarchyMode::kAuto;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hfmm::core
