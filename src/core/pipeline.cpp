#include "pipeline.hpp"

#include <algorithm>
#include <string>

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
  const auto level_boxes = [&stages](int l) {
    return stages.act->levels[l].count();
  };
  const auto add_level_stage = [&](const char* prefix, const char* phase,
                                   const LevelBody& body, int l) {
    return g.add(prefix + std::to_string(l), phase, level_boxes(l), 0,
                 [&body, l](std::size_t c, std::size_t lo, std::size_t hi,
                            PhaseStats& st) { body(l, c, lo, hi, st); });
  };

  // The coordinate sort runs before the graph is built (the executors
  // derive their active sets from it); the stage stays as a no-op so the
  // timeline keeps the full pipeline shape.
  const NodeId sort = g.add_serial(sort_repaired ? "sort.incremental" : "sort",
                                   "sort", [](PhaseStats&) {});
  const NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
        if (!far_capable) return;
        ws.prepare_levels(*stages.act, config.params.k());
        ws.arena.ensure(pool.size(), ws.allocs);
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
    const NodeId p2m =
        g.add_weighted("p2m", "p2m", stages.leaf_cost, 0, stages.p2m);
    g.depend(p2m, sort);
    g.depend(p2m, prep_levels);

    // Upward chain: upward:L completes far[l] (far[top] comes from P2M).
    NodeId chain = p2m;
    for (int l = top - 1; l >= 1; --l) {
      const NodeId id =
          add_level_stage("upward:L", "upward", stages.upward, l);
      g.depend(id, chain);
      chain = id;
    }

    // Downward/interactive: per level, T3 (l > 2) then T2, both writing
    // local[l] — the T3 -> T2 edge fixes the floating-point accumulation
    // order. The chain starts after the whole upward pass, so every far
    // level a T2 reads is complete, and no two translation stages use the
    // per-chunk gather slots (ws.arena) at once.
    for (int l = 2; l <= top; ++l) {
      if (l > 2) {
        const NodeId t3 =
            add_level_stage("downward:L", "downward", stages.downward, l);
        g.depend(t3, chain);  // local[l-1] complete
        chain = t3;
      }
      const NodeId apply = add_level_stage("interactive:L", "interactive",
                                           stages.interactive, l);
      g.depend(apply, chain);
      chain = apply;
    }

    const NodeId l2p =
        g.add_weighted("l2p", "l2p", stages.leaf_cost, 0, stages.l2p);
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

  record_phase_boxes(hier, top, stages.leaf_cost.size(), near_items,
                     level_boxes, far_capable, result.breakdown);
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
