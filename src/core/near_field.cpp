#include "hfmm/core/near_field.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "hfmm/baseline/direct.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/interaction_lists.hpp"

namespace hfmm::core {

namespace {

struct BoxRange {
  std::size_t begin = 0, end = 0;
  std::size_t count() const { return end - begin; }
};

BoxRange range_of(const dp::BoxedParticles& boxed, std::size_t flat) {
  const std::uint32_t rank = boxed.flat_to_rank[flat];
  return {boxed.box_begin[rank], boxed.box_begin[rank + 1]};
}

// Analytic per-pair flop cost of the switched-LJ kernel (r2, table lookup,
// x^12/x^6 powers, switch polynomial; gradient adds the c2 * d updates).
std::uint64_t vdw_pair_flops(bool with_gradient) {
  return with_gradient ? 34 : 24;
}

// Adds the sorted particle range [b, e) to a window's segment list, which
// stays ascending and disjoint: a range inside a segment changes nothing,
// one that overlaps or touches segments merges with them, any other is
// inserted in order. O(log S) per range in the S segments, plus the shift
// of an insertion; the chunk's leaves are spatially compact, so S stays
// small.
void add_to_window(std::vector<WindowSegment>& seg, std::uint32_t b,
                   std::uint32_t e) {
  if (b == e) return;
  // First segment ending at or after b: the only one that can contain,
  // overlap or touch [b, e) from the left.
  auto it = std::lower_bound(
      seg.begin(), seg.end(), b,
      [](const WindowSegment& s, std::uint32_t v) { return s.end < v; });
  if (it == seg.end() || it->begin > e) {
    seg.insert(it, WindowSegment{b, e, 0});
    return;
  }
  if (it->begin <= b && e <= it->end) return;
  it->begin = std::min(it->begin, b);
  it->end = std::max(it->end, e);
  auto next = std::next(it);
  while (next != seg.end() && next->begin <= it->end) {
    it->end = std::max(it->end, next->end);
    ++next;
  }
  seg.erase(std::next(it), next);
}

// Lays the collected segments out back to back and sizes and zeroes the
// window buffers to match.
void size_window(NearFieldScratch::Chunk& ch, bool with_gradient) {
  std::uint32_t at = 0;
  for (WindowSegment& r : ch.seg) {
    r.at = at;
    at += r.end - r.begin;
  }
  ch.phi.assign(at, 0.0);
  if (with_gradient) ch.grad.assign(at, Vec3{});
}

// Window offset of sorted particle `i`, which lies in some segment.
std::size_t window_at(const std::vector<WindowSegment>& seg, std::size_t i) {
  const auto it = std::upper_bound(
      seg.begin(), seg.end(), i,
      [](std::size_t v, const WindowSegment& s) { return v < s.begin; });
  return std::prev(it)->at + (i - std::prev(it)->begin);
}

// Range-range evaluations of one near-field chunk on the dispatched pkern
// backend, physics chosen once per chunk, written into the chunk's packed
// window (which must hold every range written here).
// Pair buffer of the symmetric kernel: one box pair's contributions, its
// targets then its sources, with SoA gradients. It holds data only inside
// one both_ways call, so it belongs to the calling thread, not to a chunk:
// a per-chunk buffer would keep kNearChunks copies of the largest pair
// alive at once. Like the blas packing scratch it lives outside the solve
// workspace and keeps the capacity of the largest pair its thread has met.
struct PairBuffer {
  std::vector<double> phi, gx, gy, gz;
};

PairBuffer& pair_buffer() {
  thread_local PairBuffer buf;
  return buf;
}

class ChunkPairs {
 public:
  ChunkPairs(const dp::BoxedParticles& boxed, const NearKernel& kern,
             bool with_gradient, NearFieldScratch::Chunk& ch)
      : x_(boxed.sorted.x().data()),
        y_(boxed.sorted.y().data()),
        z_(boxed.sorted.z().data()),
        q_(boxed.sorted.q().data()),
        kern_(kern),
        back_(pkern::active_kernel()),
        vdw_(kern.type == KernelType::kVanDerWaals),
        with_gradient_(with_gradient),
        ch_(ch) {}

  // Analytic flop count of `pairs` particle pairs (pairs x per-pair cost;
  // the symmetric form adds the reaction updates).
  std::uint64_t flops(std::uint64_t pairs, bool symmetric) const {
    const std::uint64_t per_pair =
        (vdw_ ? vdw_pair_flops(with_gradient_)
              : baseline::direct_pair_flops(with_gradient_)) +
        (symmetric ? 4 : 0);
    return pairs * per_pair;
  }

  // Targets tr (at window offset at) from sources sr, one direction.
  void one_way(const BoxRange& tr, std::size_t at, const BoxRange& sr) {
    Vec3* grad = with_gradient_ ? ch_.grad.data() + at : nullptr;
    if (vdw_)
      back_.p2p_vdw(x_, y_, z_, kern_.types, tr.begin, tr.end, sr.begin,
                    sr.end, ch_.phi.data() + at, grad, kern_.vdw);
    else
      back_.p2p(x_, y_, z_, q_, tr.begin, tr.end, sr.begin, sr.end,
                ch_.phi.data() + at, grad, kern_.soft2);
  }

  // Both directions of the box pair in one pass (the paper's Figure 10
  // trick): the kernel writes targets then sources into the pair buffer,
  // which is then added into the chunk's window (targets at offset at).
  void both_ways(const BoxRange& tr, std::size_t at, const BoxRange& sr) {
    const std::size_t tot = tr.count() + sr.count();
    pair_.phi.assign(tot, 0.0);
    if (with_gradient_) {
      pair_.gx.assign(tot, 0.0);
      pair_.gy.assign(tot, 0.0);
      pair_.gz.assign(tot, 0.0);
    }
    double* gx = with_gradient_ ? pair_.gx.data() : nullptr;
    if (vdw_)
      back_.p2p_vdw_symmetric(x_, y_, z_, kern_.types, tr.begin, tr.end,
                              sr.begin, sr.end, pair_.phi.data(), gx,
                              pair_.gy.data(), pair_.gz.data(), kern_.vdw);
    else
      back_.p2p_symmetric(x_, y_, z_, q_, tr.begin, tr.end, sr.begin, sr.end,
                          pair_.phi.data(), gx, pair_.gy.data(),
                          pair_.gz.data(), kern_.soft2);
    add_pair_buffer(tr.count(), 0, at);
    add_pair_buffer(sr.count(), tr.count(), window_at(ch_.seg, sr.begin));
  }

 private:
  // Adds pair-buffer entries [at, at + count) into window entries
  // [w, w + count).
  void add_pair_buffer(std::size_t count, std::size_t at, std::size_t w) {
    for (std::size_t i = 0; i < count; ++i)
      ch_.phi[w + i] += pair_.phi[at + i];
    if (!with_gradient_) return;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = at + i;
      ch_.grad[w + i] += Vec3{pair_.gx[s], pair_.gy[s], pair_.gz[s]};
    }
  }

  const double *x_, *y_, *z_, *q_;
  const NearKernel& kern_;
  const pkern::KernelBackend& back_;
  bool vdw_;
  bool with_gradient_;
  NearFieldScratch::Chunk& ch_;
  PairBuffer& pair_ = pair_buffer();
};

// Runs a chunk in two passes over the same walk. `walk(visit)` calls
// visit(tr, sr) for every range pair the chunk evaluates, with sr == tr for
// an intra-box pair. The first pass collects the written ranges into the
// window (targets, plus sources when symmetric); the second evaluates into
// it. Both passes are O(box pairs); no step touches all N particles.
template <typename Walk>
NearFieldResult run_chunk(const dp::BoxedParticles& boxed,
                          const NearKernel& kern, bool symmetric,
                          bool with_gradient, NearFieldScratch::Chunk& ch,
                          Walk walk) {
  ch.seg.clear();
  std::size_t last_target = SIZE_MAX;
  walk([&](const BoxRange& tr, const BoxRange& sr) {
    if (tr.begin != last_target) {
      add_to_window(ch.seg, static_cast<std::uint32_t>(tr.begin),
                    static_cast<std::uint32_t>(tr.end));
      last_target = tr.begin;
    }
    if (symmetric && sr.begin != tr.begin)
      add_to_window(ch.seg, static_cast<std::uint32_t>(sr.begin),
                    static_cast<std::uint32_t>(sr.end));
  });
  size_window(ch, with_gradient);

  ChunkPairs pairs(boxed, kern, with_gradient, ch);
  NearFieldResult res;
  last_target = SIZE_MAX;
  std::size_t at = 0;  // window offset of the current target range
  walk([&](const BoxRange& tr, const BoxRange& sr) {
    if (tr.begin != last_target) {
      at = window_at(ch.seg, tr.begin);
      last_target = tr.begin;
    }
    if (sr.begin == tr.begin) {
      pairs.one_way(tr, at, tr);
      res.pair_interactions += tr.count() * (tr.count() - 1);
    } else {
      if (symmetric)
        pairs.both_ways(tr, at, sr);
      else
        pairs.one_way(tr, at, sr);
      res.pair_interactions += tr.count() * sr.count();
    }
    ++res.box_interactions;
  });
  res.flops = pairs.flops(res.pair_interactions, symmetric);
  return res;
}

// Shared chunk body: evaluates `count` leaf boxes whose flat indices come
// from `flat_of(i)` — a contiguous range on the box-range path, a leaf list
// slice on the active path. The arithmetic is identical either way (the
// list form only skips boxes that contribute nothing).
template <typename FlatOf>
NearFieldResult evaluate_boxes(const tree::Hierarchy& hier,
                               const dp::BoxedParticles& boxed,
                               std::span<const tree::Offset> offsets,
                               bool symmetric, bool with_gradient,
                               NearFieldScratch::Chunk& ch,
                               const NearKernel& kern, std::size_t count,
                               FlatOf flat_of) {
  const int h = hier.depth();
  const std::int32_t n = hier.boxes_per_side(h);
  // Periodic vdW: neighbour offsets wrap around the grid instead of
  // falling off it (the pair kernel wraps the displacements to match), so
  // a wrapped partner can sit at the far end of the sorted particles.
  // KernelSpec::validate + the solver's depth policy guarantee n >= 8, so
  // the +/-2 offsets stay distinct after the wrap.
  const bool periodic =
      kern.type == KernelType::kVanDerWaals && kern.vdw.period > 0.0;
  const auto walk = [&](auto&& visit) {
    for (std::size_t bi = 0; bi < count; ++bi) {
      const std::size_t f = flat_of(bi);
      const BoxRange tr = range_of(boxed, f);
      if (tr.count() == 0) continue;
      // Intra-box interactions (always symmetric-safe: same box).
      if (tr.count() > 1) visit(tr, tr);
      const tree::BoxCoord c = hier.coord_of(h, f);
      for (const tree::Offset& o : offsets) {
        if (o == tree::Offset{0, 0, 0}) continue;
        tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
        if (periodic) {
          nb.ix = (nb.ix + n) % n;
          nb.iy = (nb.iy + n) % n;
          nb.iz = (nb.iz + n) % n;
        } else if (nb.ix < 0 || nb.ix >= n || nb.iy < 0 || nb.iy >= n ||
                   nb.iz < 0 || nb.iz >= n) {
          continue;
        }
        const BoxRange sr = range_of(boxed, hier.flat_index(h, nb));
        if (sr.count() != 0) visit(tr, sr);
      }
    }
  };
  return run_chunk(boxed, kern, symmetric, with_gradient, ch, walk);
}

}  // namespace

NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::size_t box_lo, std::size_t box_hi,
                                 const NearKernel& kern) {
  return evaluate_boxes(hier, boxed, offsets, symmetric, with_gradient, ch,
                        kern, box_hi - box_lo,
                        [box_lo](std::size_t i) { return box_lo + i; });
}

NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::span<const std::uint32_t> boxes,
                                 const NearKernel& kern) {
  return evaluate_boxes(hier, boxed, offsets, symmetric, with_gradient, ch,
                        kern, boxes.size(),
                        [boxes](std::size_t i) { return boxes[i]; });
}

NearFieldResult near_field_adaptive_chunk(
    const dp::BoxedParticles& boxed, const AdaptiveLeafPlan& plan,
    bool with_gradient, NearFieldScratch::Chunk& ch,
    std::span<const std::uint32_t> leaves, const NearKernel& kern) {
  const auto leaf = [&plan](std::size_t li) {
    return BoxRange{plan.leaf_bounds[2 * li], plan.leaf_bounds[2 * li + 1]};
  };
  const auto walk = [&](auto&& visit) {
    for (const std::uint32_t li : leaves) {
      const BoxRange tr = leaf(li);
      if (tr.count() == 0) continue;
      if (tr.count() > 1) visit(tr, tr);
      // Owned U-list adjacencies, both directions at once.
      for (std::uint32_t pi = plan.pair_begin[li];
           pi < plan.pair_begin[li + 1]; ++pi) {
        const BoxRange sr = leaf(plan.pair_leaf[pi]);
        if (sr.count() != 0) visit(tr, sr);
      }
    }
  };
  return run_chunk(boxed, kern, /*symmetric=*/true, with_gradient, ch, walk);
}

void near_field_accumulate(const NearFieldScratch& scr, std::size_t used,
                           bool with_gradient, std::span<double> phi,
                           std::span<Vec3> grad, std::size_t lo,
                           std::size_t hi) {
  for (std::size_t c = 0; c < used; ++c) {
    const NearFieldScratch::Chunk& ch = scr.chunks[c];
    // Segments are ascending and disjoint: start at the first one ending
    // after lo.
    auto it = std::upper_bound(
        ch.seg.begin(), ch.seg.end(), lo,
        [](std::size_t v, const WindowSegment& s) { return v < s.end; });
    for (; it != ch.seg.end() && it->begin < hi; ++it) {
      const std::size_t b = std::max<std::size_t>(lo, it->begin);
      const std::size_t e = std::min<std::size_t>(hi, it->end);
      const std::size_t w = it->at + (b - it->begin);
      for (std::size_t i = b; i < e; ++i) phi[i] += ch.phi[w + (i - b)];
      if (with_gradient)
        for (std::size_t i = b; i < e; ++i) grad[i] += ch.grad[w + (i - b)];
    }
  }
}

NearFieldResult near_field(const tree::Hierarchy& hier,
                           const dp::BoxedParticles& boxed,
                           std::span<const tree::Offset> offsets,
                           bool symmetric, std::span<double> phi,
                           std::span<Vec3> grad, ThreadPool& pool,
                           NearFieldScratch* scratch, const NearKernel& kern) {
  const std::size_t boxes = hier.boxes_at(hier.depth());
  const bool with_gradient = !grad.empty();
  const ParticleSet& p = boxed.sorted;

  // kNearChunks equal box ranges, whatever the pool size: the chunk split
  // fixes the summation order, and chunk-index order is box-range order by
  // construction. The windows live in caller-owned scratch (or a local
  // fallback) so repeated calls — an integrator's timestep loop — reuse the
  // capacity.
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(kNearChunks, boxes));
  const std::size_t step = (boxes + chunks - 1) / chunks;
  NearFieldScratch local;
  NearFieldScratch& scr = scratch != nullptr ? *scratch : local;
  if (scr.chunks.size() < chunks) scr.chunks.resize(chunks);
  std::vector<NearFieldResult> partial(chunks);

  pool.parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t lo = std::min(boxes, c * step);
    partial[c] = near_field_chunk(hier, boxed, offsets, symmetric,
                                  with_gradient, scr.chunks[c], lo,
                                  std::min(boxes, lo + step), kern);
  });

  // Reduce the chunk windows into the output, parallel over disjoint
  // particle ranges.
  pool.parallel_chunks(0, p.size(), [&](std::size_t lo, std::size_t hi) {
    near_field_accumulate(scr, chunks, with_gradient, phi, grad, lo, hi);
  });

  NearFieldResult total;
  for (std::size_t c = 0; c < chunks; ++c) {
    total.pair_interactions += partial[c].pair_interactions;
    total.box_interactions += partial[c].box_interactions;
    total.flops += partial[c].flops;
  }
  return total;
}

}  // namespace hfmm::core
