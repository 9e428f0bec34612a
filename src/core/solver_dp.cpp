// Data-parallel execution of the FMM on the simulated CM-style machine
// (paper Section 3). The numerics are identical to the shared-memory path;
// what differs is the data layout (block-distributed grids, the flattened
// multigrid embedding) and that every inter-VU data motion goes through the
// counted dp primitives: coordinate sort, multigrid embed/extract, halo
// fetches for the interactive field, and neighbor reads in the near field.
//
// The drive loop is a PhaseGraph of serial stages run in kInline mode: the
// stage bodies fan out onto the thread pool themselves (through
// Machine::for_each_vu and the near-field orchestrator), so the graph must
// not also schedule them concurrently. Each stage records the off-VU byte
// delta it generates on the machine counters into its own phase.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/halo.hpp"
#include "hfmm/dp/multigrid.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "solver_internal.hpp"

namespace hfmm::core {

namespace {

using internal::AppMatrix;

// Leaf occupancy (fraction of non-empty leaf boxes) below which a kAuto
// request masks the multigrid moves of inactive sections.
constexpr double kSparseOccupancy = 0.9;

// Machine VU rank holding a box of a (possibly folded) level layout.
std::size_t machine_rank(const dp::Machine& m, const dp::BlockLayout& layout,
                         const tree::BoxCoord& c) {
  const std::int32_t vx = c.ix / layout.sub_x();
  const std::int32_t vy = c.iy / layout.sub_y();
  const std::int32_t vz = c.iz / layout.sub_z();
  return m.vu_rank(vx % m.config().vu_x, vy % m.config().vu_y,
                   vz % m.config().vu_z);
}

// Zeroes halo ghost cells whose (unwrapped) global coordinate falls outside
// the domain — the masking step that turns the periodic CSHIFT semantics
// into the FMM's open boundary (paper Table 3's "masking").
void mask_halo(dp::Machine& machine, dp::HaloGrid& halo) {
  const dp::BlockLayout& layout = halo.layout();
  const std::int32_t g = halo.ghost();
  const std::int32_t n = layout.boxes_per_side();
  machine.for_each_vu([&](std::size_t vu) {
    const tree::BoxCoord origin = layout.global_of({vu, 0, 0, 0});
    for (std::int32_t hz = 0; hz < halo.ext_z(); ++hz)
      for (std::int32_t hy = 0; hy < halo.ext_y(); ++hy)
        for (std::int32_t hx = 0; hx < halo.ext_x(); ++hx) {
          const std::int32_t gx = origin.ix + hx - g;
          const std::int32_t gy = origin.iy + hy - g;
          const std::int32_t gz = origin.iz + hz - g;
          if (gx < 0 || gx >= n || gy < 0 || gy >= n || gz < 0 || gz >= n) {
            auto cell = halo.at(vu, hx, hy, hz);
            std::fill(cell.begin(), cell.end(), 0.0);
          }
        }
  });
}

}  // namespace

FmmResult FmmSolver::solve_dp_(const ParticleSet& particles,
                               const tree::Hierarchy& hier, FmmResult result) {
  // solve() has already materialized the shared plan layers. Short-range
  // kernels have no translation data (null); every use below sits inside a
  // far_capable-gated stage.
  const internal::TranslationData* const trans = impl_->trans.get();
  const bool far_capable = config_.kernel.far_field_capable();
  const internal::FmmPlan& plan = *impl_->plan;
  internal::SolveWorkspace& ws = impl_->ws;
  const anderson::Params& params = config_.params;
  const std::size_t k = params.k();
  const std::size_t n = particles.size();
  const int h = hier.depth();
  const int d = config_.separation;

  // Fold the requested VU grid so it never exceeds the leaf box grid.
  const std::int32_t nside = hier.boxes_per_side(h);
  dp::MachineConfig mc{std::min(config_.machine.vu_x, nside),
                      std::min(config_.machine.vu_y, nside),
                      std::min(config_.machine.vu_z, nside)};
  dp::Machine machine(mc);
  const dp::BlockLayout leaf_layout(nside, mc);

  dp::BoxedParticles& boxed = ws.boxed;
  const ParticleSet& p = boxed.sorted;
  dp::MultigridArray mg_far(leaf_layout, h, k);
  dp::MultigridArray mg_local(leaf_layout, h, k);

  // Cross-stage state, owned by this frame — run() is synchronous, so stage
  // bodies can capture everything by reference.
  std::unique_ptr<dp::DistGrid> temp_child;    // upward chain carrier
  std::unique_ptr<dp::DistGrid> local_parent;  // downward chain carrier
  std::unique_ptr<dp::DistGrid> temp_far, temp_local;  // current level

  exec::PhaseGraph g;

  // --- Coordinate sort (Section 3.2). With >= 1 leaf box per VU the sorted
  // 1-D order is already VU-aligned; any residual misplacement is counted.
  const exec::NodeId sort =
      g.add_serial("sort", "sort", [&](PhaseStats& stats) {
        dp::coordinate_sort(particles, hier, leaf_layout, boxed,
                            &ws.sort_scratch);
        if (!far_capable) {
          // Short-range kernels read per-particle types in sorted order;
          // type-less inputs get the all-zeros single-type array.
          ws.boxed.sorted.ensure_types();
          impl_->near.types = ws.boxed.sorted.type().data();
        }
        const dp::SortLocality loc =
            dp::measure_locality(boxed, hier, leaf_layout);
        machine.stats().off_vu_bytes += loc.off_vu_bytes;
        stats.comm_bytes += loc.off_vu_bytes;
      });

  // --- Active-box level sets (hierarchy != kDense): the multigrid moves
  // take the per-level dense->active masks so inactive sections are neither
  // copied nor counted as communication. The embedded grids start zeroed
  // and inactive far fields are exactly zero, so the masked moves are
  // value-identical to the dense ones — only the comm counters change.
  bool use_mask = false;
  const exec::NodeId active_stage =
      g.add_serial("active", "active", [&](PhaseStats& stats) {
        if (config_.hierarchy == HierarchyMode::kDense) return;
        const std::size_t cap_before =
            ws.occupied.capacity() * sizeof(std::uint32_t) +
            ws.active.capacity_bytes();
        ws.occupied.clear();
        const std::size_t ranks = boxed.box_begin.size() - 1;
        for (std::size_t r = 0; r < ranks; ++r)
          if (boxed.box_begin[r + 1] > boxed.box_begin[r])
            ws.occupied.push_back(boxed.rank_to_flat[r]);
        tree::build_active_levels(hier, ws.occupied, ws.active);
        if (ws.occupied.capacity() * sizeof(std::uint32_t) +
                ws.active.capacity_bytes() !=
            cap_before)
          ws.allocs.fetch_add(1, std::memory_order_relaxed);
        const double occ = ws.active.occupancy(h);
        use_mask = config_.hierarchy == HierarchyMode::kSparse ||
                   occ < kSparseOccupancy;
        stats.boxes_active += ws.active.total_active();
        stats.boxes_total += ws.active.total_dense();
      });
  g.depend(active_stage, sort);
  const auto mask = [&](int level) -> std::span<const std::int32_t> {
    if (!use_mask) return {};
    return ws.active.levels[level].dense_to_active;
  };

  // --- P2M: particles are VU-aligned with their leaf boxes; no comm.
  const exec::NodeId p2m = g.add_serial("p2m", "p2m", [&](PhaseStats& stats) {
    if (!far_capable) return;  // empty far phase for short-range kernels
    const double a = params.outer_ratio * hier.side_at(h);
    dp::DistGrid& leaf = mg_far.leaf_layer();
    machine.for_each_vu([&](std::size_t vu) {
      for (std::int32_t lz = 0; lz < leaf_layout.sub_z(); ++lz)
        for (std::int32_t ly = 0; ly < leaf_layout.sub_y(); ++ly)
          for (std::int32_t lx = 0; lx < leaf_layout.sub_x(); ++lx) {
            const tree::BoxCoord c = leaf_layout.global_of({vu, lx, ly, lz});
            const std::uint64_t rank = leaf_layout.sort_key(c);
            const std::uint32_t b = boxed.box_begin[rank];
            const std::uint32_t e = boxed.box_begin[rank + 1];
            if (b == e) continue;
            anderson::p2m(params, a, hier.center(h, c),
                          p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                          p.z().subspan(b, e - b), p.q().subspan(b, e - b),
                          leaf.at(vu, lx, ly, lz));
          }
    });
    stats.flops += anderson::p2m_flops(k, n);
  });
  g.depend(p2m, sort);

  // --- Upward pass: T1 with multigrid embed/extract (Sections 3.1, 3.3.2).
  // Short-range kernels replace the whole far chain with empty serial nodes
  // (one per phase, canonical order) so the breakdown and timeline keep a
  // stable phase set across kernels.
  exec::NodeId chain = p2m;
  if (!far_capable) {
    for (const char* ph : {"upward", "interactive", "downward", "l2p"}) {
      const exec::NodeId id = g.add_serial(ph, ph, [](PhaseStats&) {});
      g.depend(id, chain);
      chain = id;
    }
    g.depend(chain, active_stage);
  } else {
  chain =
      g.add_serial("upward:extract", "upward", [&](PhaseStats& stats) {
        const dp::CommStats before = machine.stats();
        temp_child = std::make_unique<dp::DistGrid>(leaf_layout, k);
        dp::multigrid_extract(machine, mg_far, h, *temp_child, config_.embed,
                              mask(h));
        stats.comm_bytes += (machine.stats() - before).off_vu_bytes;
      });
  g.depend(chain, p2m);
  g.depend(chain, active_stage);
  for (int l = h - 1; l >= 1; --l) {
    const exec::NodeId up = g.add_serial(
        "upward:L" + std::to_string(l), "upward", [&, l](PhaseStats& stats) {
          const dp::CommStats before = machine.stats();
          const dp::BlockLayout parent_layout =
              dp::layout_for_level(leaf_layout, l);
          const dp::BlockLayout child_layout = temp_child->layout();
          auto temp_parent = std::make_unique<dp::DistGrid>(parent_layout, k);
          dp::Machine parent_machine(parent_layout.machine());
          parent_machine.for_each_vu([&](std::size_t vu) {
            for (std::int32_t lz = 0; lz < parent_layout.sub_z(); ++lz)
              for (std::int32_t ly = 0; ly < parent_layout.sub_y(); ++ly)
                for (std::int32_t lx = 0; lx < parent_layout.sub_x(); ++lx) {
                  const tree::BoxCoord pc =
                      parent_layout.global_of({vu, lx, ly, lz});
                  double* dst = temp_parent->at(vu, lx, ly, lz).data();
                  for (int o = 0; o < 8; ++o) {
                    const tree::BoxCoord cc = tree::Hierarchy::child_of(pc, o);
                    blas::gemv(trans->t1[o].t, k,
                               temp_child->at_global(cc).data(), dst, k, k,
                               true);
                  }
                }
          });
          // Parent-child comm: children living on a different VU than their
          // parent (only near the root, where levels fold onto fewer VUs).
          for (std::size_t f = 0; f < hier.boxes_at(l); ++f) {
            const tree::BoxCoord pc = hier.coord_of(l, f);
            const std::size_t pr = machine_rank(machine, parent_layout, pc);
            for (int o = 0; o < 8; ++o) {
              const tree::BoxCoord cc = tree::Hierarchy::child_of(pc, o);
              if (machine_rank(machine, child_layout, cc) != pr) {
                machine.stats().off_vu_bytes += k * sizeof(double);
                machine.stats().messages += 1;
              }
            }
          }
          stats.flops += 8ull * hier.boxes_at(l) * blas::gemv_flops(k, k);
          dp::multigrid_embed(machine, *temp_parent, l, mg_far, config_.embed,
                              mask(l));
          temp_child = std::move(temp_parent);
          stats.comm_bytes += (machine.stats() - before).off_vu_bytes;
        });
    g.depend(up, chain);
    chain = up;
  }

  // --- Downward pass: T2 via halo fetches, T3 from the parent level.
  for (int l = 2; l <= h; ++l) {
    const std::string ls = std::to_string(l);

    // Fetch the level's interactive field out of the flattened multigrid.
    const exec::NodeId fetch = g.add_serial(
        "fetch:L" + ls, "interactive", [&, l](PhaseStats& stats) {
          const dp::CommStats before = machine.stats();
          const dp::BlockLayout level_layout =
              dp::layout_for_level(leaf_layout, l);
          temp_far = std::make_unique<dp::DistGrid>(level_layout, k);
          dp::multigrid_extract(machine, mg_far, l, *temp_far, config_.embed,
                                mask(l));
          temp_local = std::make_unique<dp::DistGrid>(level_layout, k);
          stats.comm_bytes += (machine.stats() - before).off_vu_bytes;
        });
    g.depend(fetch, chain);
    chain = fetch;

    // T3 first (l > 2): parent local field into the children.
    if (l > 2) {
      const exec::NodeId t3 = g.add_serial(
          "downward:L" + ls, "downward", [&, l](PhaseStats& stats) {
            const dp::BlockLayout& level_layout = temp_far->layout();
            dp::Machine level_machine(level_layout.machine());
            level_machine.cost_model() = machine.cost_model();
            const dp::BlockLayout& pl = local_parent->layout();
            level_machine.for_each_vu([&](std::size_t vu) {
              for (std::int32_t lz = 0; lz < level_layout.sub_z(); ++lz)
                for (std::int32_t ly = 0; ly < level_layout.sub_y(); ++ly)
                  for (std::int32_t lx = 0; lx < level_layout.sub_x(); ++lx) {
                    const tree::BoxCoord c =
                        level_layout.global_of({vu, lx, ly, lz});
                    const int o = tree::Hierarchy::octant_of(c);
                    blas::gemv(
                        trans->t3[o].t, k,
                        local_parent->at_global(tree::Hierarchy::parent_of(c))
                            .data(),
                        temp_local->at(vu, lx, ly, lz).data(), k, k, true);
                  }
            });
            for (std::size_t f = 0; f < hier.boxes_at(l); ++f) {
              const tree::BoxCoord c = hier.coord_of(l, f);
              if (machine_rank(machine, level_layout, c) !=
                  machine_rank(machine, pl, tree::Hierarchy::parent_of(c))) {
                machine.stats().off_vu_bytes += k * sizeof(double);
                machine.stats().messages += 1;
              }
            }
            stats.flops += hier.boxes_at(l) * blas::gemv_flops(k, k);
          });
      g.depend(t3, chain);
      chain = t3;
    }

    // T2 over the interactive field.
    const exec::NodeId t2 = g.add_serial(
        "interactive:L" + ls, "interactive", [&, l](PhaseStats& stats) {
          const dp::CommStats before = machine.stats();
          const dp::BlockLayout& level_layout = temp_far->layout();
          dp::Machine level_machine(level_layout.machine());
          level_machine.cost_model() = machine.cost_model();
          const std::int32_t nl = level_layout.boxes_per_side();
          const std::int32_t ghost = 2 * d;
          const bool halo_ok = level_layout.sub_x() >= ghost &&
                               level_layout.sub_y() >= ghost &&
                               level_layout.sub_z() >= ghost;
          if (halo_ok) {
            dp::HaloGrid halo(level_layout, k, ghost);
            fill_halo(level_machine, *temp_far, halo, config_.halo);
            mask_halo(level_machine, halo);
            machine.stats() += level_machine.stats();
            level_machine.reset_stats();
            level_machine.for_each_vu([&](std::size_t vu) {
              for (std::int32_t lz = 0; lz < level_layout.sub_z(); ++lz)
                for (std::int32_t ly = 0; ly < level_layout.sub_y(); ++ly)
                  for (std::int32_t lx = 0; lx < level_layout.sub_x(); ++lx) {
                    const tree::BoxCoord c =
                        level_layout.global_of({vu, lx, ly, lz});
                    const int oct = tree::Hierarchy::octant_of(c);
                    double* dst = temp_local->at(vu, lx, ly, lz).data();
                    for (const auto& off : tree::interactive_offsets(oct, d)) {
                      const AppMatrix& m =
                          trans->t2[tree::offset_cube_index(off, d)];
                      blas::gemv(m.t, k,
                                 halo.at(vu, lx + ghost + off.dx,
                                         ly + ghost + off.dy,
                                         lz + ghost + off.dz)
                                     .data(),
                                 dst, k, k, true);
                    }
                  }
            });
          } else {
            // Small-level fallback: direct global reads with counted comm.
            level_machine.for_each_vu([&](std::size_t vu) {
              for (std::int32_t lz = 0; lz < level_layout.sub_z(); ++lz)
                for (std::int32_t ly = 0; ly < level_layout.sub_y(); ++ly)
                  for (std::int32_t lx = 0; lx < level_layout.sub_x(); ++lx) {
                    const tree::BoxCoord c =
                        level_layout.global_of({vu, lx, ly, lz});
                    const int oct = tree::Hierarchy::octant_of(c);
                    double* dst = temp_local->at(vu, lx, ly, lz).data();
                    for (const auto& off : tree::interactive_offsets(oct, d)) {
                      const tree::BoxCoord s{c.ix + off.dx, c.iy + off.dy,
                                             c.iz + off.dz};
                      if (s.ix < 0 || s.ix >= nl || s.iy < 0 || s.iy >= nl ||
                          s.iz < 0 || s.iz >= nl)
                        continue;
                      const AppMatrix& m =
                          trans->t2[tree::offset_cube_index(off, d)];
                      blas::gemv(m.t, k, temp_far->at_global(s).data(), dst, k,
                                 k, true);
                    }
                  }
            });
            for (std::size_t f = 0; f < hier.boxes_at(l); ++f) {
              const tree::BoxCoord c = hier.coord_of(l, f);
              const std::size_t cr = machine_rank(machine, level_layout, c);
              const int oct = tree::Hierarchy::octant_of(c);
              for (const auto& off : tree::interactive_offsets(oct, d)) {
                const tree::BoxCoord s{c.ix + off.dx, c.iy + off.dy,
                                       c.iz + off.dz};
                if (s.ix < 0 || s.ix >= nl || s.iy < 0 || s.iy >= nl ||
                    s.iz < 0 || s.iz >= nl)
                  continue;
                if (machine_rank(machine, level_layout, s) != cr) {
                  machine.stats().off_vu_bytes += k * sizeof(double);
                  machine.stats().messages += 1;
                }
              }
            }
          }
          machine.stats() += level_machine.stats();
          const std::size_t n_int = tree::interactive_offsets(0, d).size();
          stats.flops += hier.boxes_at(l) * n_int * blas::gemv_flops(k, k);
          stats.comm_bytes += (machine.stats() - before).off_vu_bytes;
        });
    g.depend(t2, chain);
    chain = t2;

    // Embed the level's local field back and hand it to the next level.
    const exec::NodeId embed = g.add_serial(
        "embed:L" + ls, "interactive", [&, l](PhaseStats& stats) {
          const dp::CommStats before = machine.stats();
          dp::multigrid_embed(machine, *temp_local, l, mg_local, config_.embed,
                              mask(l));
          local_parent = std::move(temp_local);
          stats.comm_bytes += (machine.stats() - before).off_vu_bytes;
        });
    g.depend(embed, chain);
    chain = embed;
  }
  }  // far_capable

  // --- Output buffers (sized from the sort, not the far chain).
  const exec::NodeId prep_out =
      g.add_serial("prepare:outputs", "workspace", [&](PhaseStats&) {
        ws.prepare_outputs(n, config_.with_gradient);
        result.phi.assign(n, 0.0);
        if (config_.with_gradient) result.grad.assign(n, Vec3{});
      });
  g.depend(prep_out, sort);

  // --- L2P: leaf local field at the particles (VU-aligned, no comm). The
  // short-range path already placed its empty "l2p" node in the chain.
  if (far_capable) {
  const exec::NodeId l2p = g.add_serial("l2p", "l2p", [&](PhaseStats& stats) {
    const double a = params.inner_ratio * hier.side_at(h);
    const dp::DistGrid& leaf = mg_local.leaf_layer();
    std::vector<double>& phi_sorted = ws.phi_sorted;
    std::vector<Vec3>& grad_sorted = ws.grad_sorted;
    machine.for_each_vu([&](std::size_t vu) {
      for (std::int32_t lz = 0; lz < leaf_layout.sub_z(); ++lz)
        for (std::int32_t ly = 0; ly < leaf_layout.sub_y(); ++ly)
          for (std::int32_t lx = 0; lx < leaf_layout.sub_x(); ++lx) {
            const tree::BoxCoord c = leaf_layout.global_of({vu, lx, ly, lz});
            const std::uint64_t rank = leaf_layout.sort_key(c);
            const std::uint32_t b = boxed.box_begin[rank];
            const std::uint32_t e = boxed.box_begin[rank + 1];
            if (b == e) continue;
            if (config_.with_gradient) {
              anderson::l2p_gradient(
                  params, a, hier.center(h, c), leaf.at(vu, lx, ly, lz),
                  p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                  p.z().subspan(b, e - b),
                  std::span<double>(phi_sorted).subspan(b, e - b),
                  std::span<Vec3>(grad_sorted).subspan(b, e - b));
            } else {
              anderson::l2p(params, a, hier.center(h, c),
                            leaf.at(vu, lx, ly, lz), p.x().subspan(b, e - b),
                            p.y().subspan(b, e - b), p.z().subspan(b, e - b),
                            std::span<double>(phi_sorted).subspan(b, e - b));
            }
          }
    });
    stats.flops += anderson::l2p_flops(k, n, params.truncation);
  });
  g.depend(l2p, chain);
  g.depend(l2p, prep_out);
  chain = l2p;
  }

  // --- Near field: physics via the shared kernel, communication counted as
  // the particle data of off-VU neighbor boxes (paper Section 3.4 fetches
  // them with 62 single-step CSHIFTs; we count equivalent bytes). The
  // orchestrator accumulates onto phi_sorted in place, so it runs after L2P.
  const exec::NodeId near = g.add_serial(
      "near", "near",
      [&](PhaseStats& stats) {
        const NearFieldResult nf = near_field(
            hier, boxed, plan.near_list(config_.near_symmetry),
            config_.near_symmetry, ws.phi_sorted, ws.grad_sorted, *impl_->pool,
            &ws.near_scratch, impl_->near);
        stats.flops += nf.flops;
        stats.pairs += nf.pair_interactions;
        const auto offsets = plan.near_list(config_.near_symmetry);
        const bool periodic = impl_->near.vdw.period > 0.0;
        std::uint64_t off_bytes = 0, msgs = 0;
        for (std::size_t f = 0; f < hier.boxes_at(h); ++f) {
          const tree::BoxCoord c = hier.coord_of(h, f);
          const dp::BoxHome home = leaf_layout.home_of(c);
          for (const auto& o : offsets) {
            if (o == tree::Offset{0, 0, 0}) continue;
            tree::BoxCoord s{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
            if (periodic) {
              s.ix = (s.ix + nside) % nside;
              s.iy = (s.iy + nside) % nside;
              s.iz = (s.iz + nside) % nside;
            } else if (!hier.in_bounds(h, s)) {
              continue;
            }
            if (leaf_layout.home_of(s).vu != home.vu) {
              const std::uint32_t rank =
                  boxed.flat_to_rank[hier.flat_index(h, s)];
              const std::uint32_t cnt =
                  boxed.box_begin[rank + 1] - boxed.box_begin[rank];
              off_bytes += cnt * 4 * sizeof(double);
              msgs += 1;
            }
          }
        }
        machine.stats().off_vu_bytes += off_bytes;
        machine.stats().messages += msgs;
        stats.comm_bytes += off_bytes;
      },
      /*priority=*/1);
  g.depend(near, chain);
  g.depend(near, prep_out);

  // --- Unsort into caller order.
  const exec::NodeId acc =
      g.add_serial("accumulate", "accumulate", [&](PhaseStats&) {
        for (std::size_t i = 0; i < n; ++i) {
          result.phi[boxed.perm[i]] = ws.phi_sorted[i];
          if (config_.with_gradient)
            result.grad[boxed.perm[i]] = ws.grad_sorted[i];
        }
      });
  g.depend(acc, near);

  g.run(*impl_->pool, exec::RunMode::kInline, result.breakdown,
        &result.timeline);

  // The DP compute loops are dense (the mask only skips multigrid moves of
  // inactive sections), so every phase visits every box of its levels.
  {
    const auto record = [&](const char* phase, int lo, int hi) {
      PhaseStats& st = result.breakdown[phase];
      for (int l = lo; l <= hi; ++l) {
        st.boxes_active += hier.boxes_at(l);
        st.boxes_total += hier.boxes_at(l);
      }
    };
    record("near", h, h);
    if (far_capable) {
      record("p2m", h, h);
      record("l2p", h, h);
      record("upward", 1, h - 1);
      record("interactive", 2, h);
      if (h > 2) record("downward", 3, h);
    }
  }

  result.comm = machine.stats();
  result.breakdown["comm"].comm_bytes = machine.stats().off_vu_bytes;
  result.breakdown["comm"].seconds = machine.estimated_comm_seconds();
  result.breakdown["workspace"].allocs +=
      ws.allocs.load(std::memory_order_relaxed);
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.sparse = use_mask;
  if (config_.hierarchy != HierarchyMode::kDense) {
    result.active_boxes = ws.active.total_active();
    result.level_occupancy.resize(h + 1);
    for (int l = 0; l <= h; ++l)
      result.level_occupancy[l] = ws.active.occupancy(l);
  } else {
    result.active_boxes = 0;
    for (int l = 0; l <= h; ++l) result.active_boxes += hier.boxes_at(l);
  }
  result.workspace_bytes = ws.workspace_bytes();
  return result;
}

}  // namespace hfmm::core
