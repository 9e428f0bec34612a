#pragma once
// Configuration of the full O(N) solver.

#include "hfmm/anderson/params.hpp"
#include "hfmm/core/kernel_model.hpp"
#include "hfmm/dp/halo.hpp"
#include "hfmm/dp/machine.hpp"
#include "hfmm/dp/multigrid.hpp"

namespace hfmm::core {

/// How the identical algorithm is executed (DESIGN.md Section 6).
enum class ExecutionMode {
  kSequential,    ///< single thread — the oracle
  kThreads,       ///< shared-memory parallel over boxes
  kDataParallel,  ///< simulated CM-style VU machine with counted comm
  kDistributed,   ///< owner-computes in-process ranks with LET exchange (§18)
};

/// Leaf-run weighting of the distributed partitioner (DESIGN.md §18).
enum class DistPartitioner {
  kCost,    ///< cost-model split: near-field pairs + bodies per leaf
  kBodies,  ///< equal-bodies split (ORB-flavoured, along the same curve)
};

/// How translations are applied (paper Section 3.3.3):
enum class AggregationMode {
  kGemv,  ///< one matrix-vector product per box pair (BLAS-2)
  kGemm,  ///< box pairs gathered into matrix-matrix products (BLAS-3)
};

/// How the box hierarchy is enumerated (DESIGN.md Sections 13 and 15).
/// In the sequential, threaded and distributed modes kDense, kSparse and
/// kAuto all run the one uniform-leaf active-set executor; the names differ
/// only in the data-parallel mode, which masks the multigrid moves of
/// inactive sections for kSparse, and for kAuto below 0.9 leaf occupancy.
enum class HierarchyMode {
  kDense,     ///< one uniform leaf level (DP: unmasked dense grids)
  kSparse,    ///< one uniform leaf level (DP: masked moves)
  kAuto,      ///< one uniform leaf level (DP: masked below 0.9 occupancy)
  kAdaptive,  ///< per-box ncrit refinement: non-uniform leaf front (§15)
};

const char* to_string(ExecutionMode m);
const char* to_string(AggregationMode m);
const char* to_string(HierarchyMode m);
const char* to_string(DistPartitioner m);

/// Environment-backed defaults for FmmConfig's incremental-stepping knobs:
/// HFMM_STEP_INCREMENTAL=0|1 (default 0) and HFMM_STEP_MOVER_THRESHOLD
/// (default 0.10). Read once on first use.
bool default_step_incremental();
double default_step_mover_threshold();

/// Environment-backed defaults for the adaptive hierarchy (DESIGN.md §15):
/// HFMM_HIERARCHY=dense|sparse|auto|adaptive (default auto), HFMM_NCRIT
/// (default 0 = cost-model selection) and HFMM_ADAPTIVE_MAX_DEPTH
/// (default 7, the cap on the refinement front). Read once on first use.
HierarchyMode default_hierarchy_mode();
int default_ncrit();
int default_adaptive_max_depth();

/// Environment-backed defaults for the distributed executor (DESIGN.md §18):
/// HFMM_DIST_RANKS (default 4, in [1, 64]) and
/// HFMM_DIST_PARTITIONER=cost|bodies (default cost). Read once on first use.
int default_dist_ranks();
DistPartitioner default_dist_partitioner();

struct FmmConfig {
  anderson::Params params = anderson::params_d5_k12();
  int depth = -1;                    ///< hierarchy depth; -1 = automatic
  /// Occupancy target for the automatic depth rule (Section 2.3: leaf count
  /// proportional to N). 0 = derive from K: traversal work per box grows as
  /// K^2 while near-field work grows as occupancy^2, so the balancing
  /// occupancy scales with K (and drops when supernodes cut traversal 4.6x).
  double particles_per_leaf = 0.0;
  int separation = 2;                ///< d-separation near field (paper: 2)
  bool supernodes = false;           ///< Section 2.3 supernode optimization
  bool near_symmetry = true;         ///< Newton-3rd-law near field (Fig. 10)
  bool with_gradient = false;        ///< also compute field gradients
  /// The physics this solve evaluates (DESIGN.md §16): Laplace 3-D runs the
  /// full Anderson far-field chain, short-range kernels (van der Waals)
  /// reuse the tree/near-field machinery with the far phases as empty DAG
  /// nodes. Env default HFMM_KERNEL=laplace|vdw.
  KernelSpec kernel{};
  ExecutionMode mode = ExecutionMode::kThreads;
  AggregationMode aggregation = AggregationMode::kGemm;
  /// Hierarchy selection (see HierarchyMode): the uniform-leaf requests
  /// share one executor outside the data-parallel mode.
  /// kAdaptive (opt-in, env HFMM_HIERARCHY=adaptive) replaces the single
  /// global leaf level with a per-box ncrit-refined leaf front (DESIGN.md
  /// §15); in data-parallel mode it degrades to the kAuto behaviour.
  HierarchyMode hierarchy = default_hierarchy_mode();
  /// kAdaptive leaf-split threshold: a box splits while it holds more than
  /// ncrit bodies (up to the refinement depth cap). 0 = pick the value per
  /// solve by minimizing the modeled cost (near-field pair count plus
  /// translation count — tree::select_ncrit). Env override HFMM_NCRIT.
  int ncrit = default_ncrit();
  /// Depth cap for the adaptive refinement front when `depth` is -1 (an
  /// explicit depth overrides it). Env override HFMM_ADAPTIVE_MAX_DEPTH.
  int adaptive_max_depth = default_adaptive_max_depth();
  /// Incremental dynamic stepping (DESIGN.md Section 14): pin the hierarchy
  /// root cube across solves and, while the particle count / depth / cube
  /// stay valid, diff each solve's leaf assignment against the previous one
  /// — repairing the sorted order in place and revalidating the sparse
  /// active sets / cost model instead of rebuilding them. Results stay
  /// bit-identical to a full rebuild ON THE SAME (pinned) cube; they are
  /// NOT bitwise-comparable to a cold solve that derives a tight cube from
  /// the moved positions, so the feature is opt-in (default off; env
  /// override HFMM_STEP_INCREMENTAL=0|1). Ignored in data-parallel mode.
  bool step_incremental = default_step_incremental();
  /// Mover fraction above which an incremental step falls back to the full
  /// counting sort. In [0, 1]; env override HFMM_STEP_MOVER_THRESHOLD.
  double step_mover_threshold = default_step_mover_threshold();

  // Data-parallel execution knobs (ignored in the other modes).
  dp::MachineConfig machine{2, 2, 2};
  dp::HaloStrategy halo = dp::HaloStrategy::kGhostSections;
  dp::EmbedMethod embed = dp::EmbedMethod::kLocalCopy;

  // Distributed execution knobs (ExecutionMode::kDistributed, DESIGN.md
  // §18; ignored in the other modes). `dist_ranks` is the REQUESTED rank
  // count — the effective count is clamped so every rank owns at least one
  // active leaf, and FmmResult::dist_ranks reports what actually ran.
  int dist_ranks = default_dist_ranks();
  DistPartitioner dist_partitioner = default_dist_partitioner();

  void validate() const;
};

}  // namespace hfmm::core
