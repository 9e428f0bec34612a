#pragma once
// The shared-memory solve pipeline (DESIGN.md Section 12): the one builder
// of the phase graph that the uniform-leaf and adaptive executors run.
//
// Both executors run the paper's five-step method (Section 2.2) with the
// same graph shape: P2M, the T1 upward chain, per level T3 then T2 (the
// T3 -> T2 edge fixes the accumulation order into the local field), L2P,
// and the near field at lower priority beside the whole far chain, meeting
// it only at the accumulate stage. What differs per executor is data: the
// deepest far level, the level sets the translation stages iterate, the
// cost weights of the leaf and near stages, the chunk bodies, and the
// step-cache state it leaves. The near stage always splits by its cost
// weights into min(items, kNearChunks) chunks, so no split depends on the
// worker count. PipelineStages carries exactly that; run_pipeline owns the
// graph.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/exec/graph.hpp"
#include "solver_internal.hpp"

namespace hfmm::core::internal {

// One translation stage of level l over [lo, hi) of its level set's active
// indices (`chunk` is the stage's chunk index, a scratch-slot key).
using LevelBody = std::function<void(int l, std::size_t chunk, std::size_t lo,
                                     std::size_t hi, PhaseStats& stats)>;

struct PipelineStages {
  // Deepest level of the far-field chain: the hierarchy depth for the
  // uniform-leaf executor, the front's max_leaf_level for the adaptive one.
  int far_depth = 0;
  // The far chain's level sets: the level-l translation stages iterate the
  // active indices of act->levels[l], which also size the level stores and
  // are the boxes the phases report as visited.
  const tree::ActiveLevels* act = nullptr;
  // Cost weight of each P2M/L2P item; the leaf stages run over
  // [0, leaf_cost.size()) split by these weights.
  std::span<const std::uint64_t> leaf_cost;
  // Near-field cost of each near item (its pair count); the near stage
  // runs over [0, near_cost.size()) split by these weights. Items are leaves
  // in sorted-particle (Morton) order, so each chunk's write window is a
  // compact set of particle ranges.
  std::span<const std::uint64_t> near_cost;
  exec::PhaseGraph::ChunkBody p2m, l2p;
  LevelBody upward, downward, interactive;
  // Near field over leaf items [lo, hi) into the chunk's scratch slot (its
  // write window); a grown window counts as a workspace allocation.
  std::function<NearFieldResult(NearFieldScratch::Chunk& ch, std::size_t lo,
                                std::size_t hi)>
      near;
  // Step-cache validity this solve leaves behind (DESIGN.md Section 14):
  // whether ws.active and ws.leaf_cost/near_cost describe the new sort.
  bool active_valid = false;
  bool cost_valid = false;
};

// Builds the phase graph from `stages`, runs it (inline for kSequential,
// concurrently for kThreads), and finishes the solve: per-phase box counts,
// workspace counters, the SolveView or original-order outputs, and the
// step-cache update. `sort_repaired` names the (already run) sort stage.
void run_pipeline(const PipelineStages& stages, const FmmConfig& config,
                  const tree::Hierarchy& hier, SolveWorkspace& ws,
                  ThreadPool& pool, std::size_t n, bool sort_repaired,
                  SolveView* view, FmmResult& result);

// Adds the per-phase box counts of a solve: boxes visited against the
// dense box count of the phase's levels. Near visits `near_leaves` and,
// for far-field kernels, p2m/l2p visit `leaves` of the leaf level's boxes;
// upward iterates parents 1..far_depth-1, interactive 2..far_depth and
// downward 3..far_depth, visiting level_boxes(l) at level l.
void record_phase_boxes(const tree::Hierarchy& hier, int far_depth,
                        std::size_t leaves, std::size_t near_leaves,
                        const std::function<std::size_t(int)>& level_boxes,
                        bool far_capable, PhaseBreakdown& breakdown);

}  // namespace hfmm::core::internal
