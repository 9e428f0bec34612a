#include "pipeline.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace hfmm::core::internal {

void run_pipeline(const PipelineStages& stages, const FmmConfig& config,
                  const tree::Hierarchy& hier, SolveWorkspace& ws,
                  ThreadPool& pool, std::size_t n, bool sort_repaired,
                  SolveView* view, FmmResult& result) {
  const bool far_capable = config.kernel.far_field_capable();
  const int top = stages.far_depth;
  // The near stage splits its items by cost into a fixed number of chunks
  // (kNearChunks): the split, and with it the summation order, never
  // depends on the worker count.
  const std::size_t near_items = stages.near_cost.size();
  const std::size_t nf_chunks =
      std::max<std::size_t>(1, std::min(near_items, kNearChunks));

  using exec::NodeId;
  exec::PhaseGraph g;
  // P2M/L2P split [0, leaves) by equal ranges, or by cost weights.
  const auto add_leaf_stage = [&](const char* name,
                                  exec::PhaseGraph::ChunkBody body) {
    return stages.leaf_cost.empty()
               ? g.add(name, name, stages.leaves, 0, std::move(body))
               : g.add_weighted(name, name, stages.leaf_cost, 0,
                                std::move(body));
  };
  const auto add_level_stage = [&](const char* prefix, const char* phase,
                                   const LevelStage& stage, int l) {
    return g.add(prefix + std::to_string(l), phase, stage.range(l), 0,
                 [&stage, l](std::size_t c, std::size_t lo, std::size_t hi,
                             PhaseStats& st) { stage.body(l, c, lo, hi, st); });
  };

  // The executors run the coordinate sort before building the graph (the
  // executor choice needs its output); the stage stays as a no-op so the
  // timeline keeps the full pipeline shape.
  const NodeId sort = g.add_serial(sort_repaired ? "sort.incremental" : "sort",
                                   "sort", [](PhaseStats&) {});
  const NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
        if (far_capable) stages.prepare_levels();
      });
  const NodeId prep_out =
      g.add_serial("prepare:outputs", "workspace", [&](PhaseStats&) {
        ws.prepare_outputs(n, config.with_gradient);
        if (ws.near_scratch.chunks.size() < nf_chunks)
          ws.near_scratch.chunks.resize(nf_chunks);
        if (view == nullptr) {
          result.phi.assign(n, 0.0);
          if (config.with_gradient) result.grad.assign(n, Vec3{});
        }
      });

  // Tail of the far-field chain; accumulate waits on it. For short-range
  // kernels the chain collapses to empty serial nodes — one per far phase,
  // in the canonical order — so the breakdown and timeline keep a stable
  // phase set (zero boxes, zero pairs, ~zero time) across kernels.
  NodeId far_tail = 0;
  if (!far_capable) {
    NodeId prev = prep_levels;
    for (const char* ph :
         {"p2m", "upward", "interactive", "downward", "l2p"}) {
      const NodeId id = g.add_serial(ph, ph, [](PhaseStats&) {});
      g.depend(id, prev);
      prev = id;
    }
    g.depend(prev, sort);
    g.depend(prev, prep_out);
    far_tail = prev;
  } else {
    const NodeId p2m = add_leaf_stage("p2m", stages.p2m);
    g.depend(p2m, sort);
    g.depend(p2m, prep_levels);

    // Upward chain: up[l] completes far[l] (far[top] comes from P2M).
    std::vector<NodeId> up(top, p2m);
    NodeId chain = p2m;
    for (int l = top - 1; l >= 1; --l) {
      const NodeId id =
          add_level_stage("upward:L", "upward", stages.upward, l);
      g.depend(id, chain);
      up[l] = id;
      chain = id;
    }
    const auto far_ready = [&](int l) { return l == top ? p2m : up[l]; };

    // Downward/interactive: per level, T3 (l > 2) then T2, both writing
    // local[l] — the T3 -> T2 edge fixes the floating-point accumulation
    // order. A pad stage fills the shared padded grid before its level's
    // T2 and waits for the chain tail: the previous level's T2, which
    // releases the grid, or at l = 2 the end of the upward pass, whose
    // chunks share the dense per-chunk scratch slots with T2 and T3.
    const bool has_pad = static_cast<bool>(stages.pad.body);
    for (int l = 2; l <= top; ++l) {
      NodeId t3 = 0;
      const bool has_t3 = l > 2;
      if (has_t3) {
        t3 = add_level_stage("downward:L", "downward", stages.downward, l);
        g.depend(t3, chain);  // local[l-1] complete
      }
      NodeId apply = 0;
      if (has_pad) {
        const NodeId pad =
            add_level_stage("pad:L", "interactive", stages.pad, l);
        g.depend(pad, far_ready(l));
        g.depend(pad, chain);
        apply = add_level_stage("interactive:L", "interactive",
                                stages.interactive, l);
        g.depend(apply, pad);
      } else {
        apply = add_level_stage("interactive:L", "interactive",
                                stages.interactive, l);
        // Sources: far[l], plus far[l-1] for supernode parent-level entries.
        g.depend(apply, config.supernodes ? far_ready(l - 1) : far_ready(l));
      }
      if (has_t3) g.depend(apply, t3);
      chain = apply;
    }

    const NodeId l2p = add_leaf_stage("l2p", stages.l2p);
    g.depend(l2p, chain);
    g.depend(l2p, prep_out);
    far_tail = l2p;
  }

  // The near field is independent of the whole far-field chain: it runs at
  // lower priority so idle workers pick it up, and meets the far field only
  // at the accumulate stage.
  const NodeId near = g.add_weighted(
      "near", "near", stages.near_cost, nf_chunks,
      [&](std::size_t c, std::size_t lo, std::size_t hi, PhaseStats& st) {
        NearFieldScratch::Chunk& ch = ws.near_scratch.chunks[c];
        const std::size_t cap_before = ch.capacity_bytes();
        const NearFieldResult nf = stages.near(ch, lo, hi);
        if (ch.capacity_bytes() != cap_before)
          ws.allocs.fetch_add(1, std::memory_order_relaxed);
        st.flops += nf.flops;
        st.pairs += nf.pair_interactions;
      },
      /*priority=*/1);
  g.depend(near, sort);
  g.depend(near, prep_out);

  // Accumulate: add the near-field chunk windows (in chunk-index order, for
  // reproducibility) onto the far-field result and — unless a SolveView
  // streams the sorted buffers out directly — un-sort to the original
  // particle order.
  const NodeId acc = g.add(
      "accumulate", "accumulate", n, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        near_field_accumulate(ws.near_scratch, nf_chunks,
                              config.with_gradient, ws.phi_sorted,
                              ws.grad_sorted, lo, hi);
        if (view != nullptr) return;
        for (std::size_t i = lo; i < hi; ++i) {
          result.phi[ws.boxed.perm[i]] = ws.phi_sorted[i];
          if (config.with_gradient)
            result.grad[ws.boxed.perm[i]] = ws.grad_sorted[i];
        }
      });
  g.depend(acc, far_tail);
  g.depend(acc, near);

  g.run(pool,
        config.mode == ExecutionMode::kThreads ? exec::RunMode::kConcurrent
                                               : exec::RunMode::kInline,
        result.breakdown, &result.timeline);

  record_phase_boxes(hier, top, stages.leaves, near_items,
                     stages.level_boxes, far_capable, result.breakdown);
  result.breakdown["workspace"].allocs +=
      ws.allocs.load(std::memory_order_relaxed);
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.workspace_bytes = ws.workspace_bytes();
  publish_view(ws, config, n, view);
  if (config.step_incremental)
    ws.step.remember(n, hier, stages.active_valid, stages.cost_valid);
}

void record_phase_boxes(const tree::Hierarchy& hier, int far_depth,
                        std::size_t leaves, std::size_t near_leaves,
                        const std::function<std::size_t(int)>& level_boxes,
                        bool far_capable, PhaseBreakdown& breakdown) {
  const auto record_leaves = [&](const char* phase, std::size_t visited) {
    PhaseStats& st = breakdown[phase];
    st.boxes_active += visited;
    st.boxes_total += hier.boxes_at(hier.depth());
  };
  const auto record = [&](const char* phase, int lo_l, int hi_l) {
    PhaseStats& st = breakdown[phase];
    for (int l = lo_l; l <= hi_l; ++l) {
      st.boxes_active += level_boxes(l);
      st.boxes_total += hier.boxes_at(l);
    }
  };
  record_leaves("near", near_leaves);
  if (!far_capable) return;
  record_leaves("p2m", leaves);
  record_leaves("l2p", leaves);
  record("upward", 1, far_depth - 1);
  record("interactive", 2, far_depth);
  if (far_depth > 2) record("downward", 3, far_depth);
}

}  // namespace hfmm::core::internal
