// Van der Waals (switched Lennard-Jones) kernel tests.
//
// Three layers, mirroring pkern_test.cpp for the backend fixtures:
//   * golden-value: every dispatchable backend's p2p_vdw /
//     p2p_vdw_symmetric against an independently written scalar reference
//     (CHARMM Rmin/eps convention, cuton/cutoff switching), including
//     boundary placements at the switching radii, mixed type tables, and
//     minimum-image pairs straddling the periodic box faces;
//   * bitwise: portable and AVX2 backends must agree to the last bit on
//     identical inputs (the contract that makes runtime dispatch
//     reproducible);
//   * end-to-end: FmmSolver with a short-range KernelSpec against an O(N^2)
//     brute force on >= 2 distributions plus a periodic minimum-image case,
//     empty far-field phases, warm-solve zero-alloc and seq == threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm {
namespace {

constexpr double kTol = 1e-12;

// Pair tables + derived constants from per-type Rmin/eps via the CHARMM
// combining rules (arithmetic-mean Rmin, geometric-mean eps). Deliberately
// re-derived here rather than reusing the solver's builder.
struct VdwTable {
  std::vector<double> rmin2, eps;
  pkern::VdwParams p{};

  VdwTable(std::vector<double> rmin, std::vector<double> epsv, double cuton,
           double cutoff, double period = 0.0) {
    const std::size_t nt = rmin.size();
    rmin2.resize(nt * nt);
    eps.resize(nt * nt);
    for (std::size_t i = 0; i < nt; ++i)
      for (std::size_t j = 0; j < nt; ++j) {
        const double rm = 0.5 * (rmin[i] + rmin[j]);
        rmin2[i * nt + j] = rm * rm;
        eps[i * nt + j] = std::sqrt(epsv[i] * epsv[j]);
      }
    p.rmin2 = rmin2.data();
    p.eps = eps.data();
    p.ntypes = nt;
    p.cuton2 = cuton * cuton;
    p.cutoff2 = cutoff * cutoff;
    p.cm3o = p.cutoff2 - 3.0 * p.cuton2;
    const double denom = p.cutoff2 - p.cuton2;
    p.inv_denom = 1.0 / (denom * denom * denom);
    p.inv_denom6 = 6.0 * p.inv_denom;
    p.period = period;
    p.inv_period = period > 0.0 ? 1.0 / period : 0.0;
  }
};

double min_image(double d, double period) {
  return period > 0.0 ? d - period * std::nearbyint(d / period) : d;
}

// Scalar reference for one pair: switched LJ energy and the gradient
// coefficient c2 = 2 dE/d(r^2) (grad_target += c2 * (target - source)).
// Returns false beyond the cutoff (exactly zero contribution).
bool ref_pair(double r2, double rm2, double e, const pkern::VdwParams& vp,
              double& energy, double& c2) {
  if (!(r2 < vp.cutoff2)) return false;
  const double x2 = rm2 / r2;
  const double x6 = x2 * x2 * x2;
  const double x12 = x6 * x6;
  energy = e * (x12 - 2.0 * x6);
  double g = -6.0 * e * (x12 - x6) / r2;
  if (r2 > vp.cuton2) {
    const double cmr = vp.cutoff2 - r2;
    const double s = cmr * cmr * (vp.cutoff2 + 2.0 * r2 - 3.0 * vp.cuton2) *
                     vp.inv_denom;
    const double ds = 6.0 * cmr * (vp.cuton2 - r2) * vp.inv_denom;
    g = g * s + energy * ds;
    energy *= s;
  }
  c2 = 2.0 * g;
  return true;
}

// Reference evaluation of targets [tb, te) against sources [sb, se),
// skipping self pairs; also accumulates magnitude scales for tolerances.
void ref_ranges(const ParticleSet& ps, const std::vector<std::int32_t>& type,
                const VdwTable& t, std::size_t tb, std::size_t te,
                std::size_t sb, std::size_t se, std::vector<double>& phi,
                std::vector<Vec3>& grad, std::vector<double>& scale) {
  const auto x = ps.x(), y = ps.y(), z = ps.z();
  for (std::size_t i = tb; i < te; ++i) {
    const std::size_t row = static_cast<std::size_t>(type[i]) * t.p.ntypes;
    for (std::size_t j = sb; j < se; ++j) {
      if (j == i) continue;
      const double dx = min_image(x[i] - x[j], t.p.period);
      const double dy = min_image(y[i] - y[j], t.p.period);
      const double dz = min_image(z[i] - z[j], t.p.period);
      const double r2 = dx * dx + dy * dy + dz * dz;
      double e, c2;
      if (!ref_pair(r2, t.rmin2[row + type[j]], t.eps[row + type[j]], t.p, e,
                    c2))
        continue;
      phi[i - tb] += e;
      grad[i - tb].x += c2 * dx;
      grad[i - tb].y += c2 * dy;
      grad[i - tb].z += c2 * dz;
      scale[i - tb] += std::abs(e) + std::abs(c2) *
                                         (std::abs(dx) + std::abs(dy) +
                                          std::abs(dz));
    }
  }
}

ParticleSet typed_uniform(std::size_t n, std::uint64_t seed,
                          std::vector<std::int32_t>& type,
                          std::size_t ntypes) {
  ParticleSet ps = make_uniform(n, Box3{}, seed);
  type.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    type[i] = static_cast<std::int32_t>(i % ntypes);
    ps.set_type(i, type[i]);
  }
  return ps;
}

class VdwBackendTest : public ::testing::TestWithParam<pkern::KernelKind> {
 protected:
  void SetUp() override {
    if (!pkern::kernel_supported(GetParam()))
      GTEST_SKIP() << "backend unsupported on this CPU";
  }
  const pkern::KernelBackend& kern() const {
    return pkern::kernel_backend(GetParam());
  }
};

void expect_vdw_matches_scalar(const pkern::KernelBackend& kern,
                               std::size_t nt, std::size_t ns,
                               bool with_grad, double period) {
  const VdwTable t({0.11, 0.14, 0.09}, {1.0, 0.55, 0.3}, 0.16, 0.22, period);
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(nt + ns, 91 + nt * 31 + ns, type, 3);
  std::vector<double> phi(nt, 0.0), ref_phi(nt, 0.0), scale(nt, 0.0);
  std::vector<Vec3> grad(nt), ref_grad(nt);
  ref_ranges(ps, type, t, 0, nt, nt, nt + ns, ref_phi, ref_grad, scale);
  kern.p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(), 0,
               nt, nt, nt + ns, phi.data(),
               with_grad ? grad.data() : nullptr, t.p);
  for (std::size_t i = 0; i < nt; ++i) {
    const double s = kTol * (scale[i] + 1.0);
    EXPECT_NEAR(phi[i], ref_phi[i], s) << "nt=" << nt << " ns=" << ns;
    if (with_grad) {
      EXPECT_NEAR(grad[i].x, ref_grad[i].x, s);
      EXPECT_NEAR(grad[i].y, ref_grad[i].y, s);
      EXPECT_NEAR(grad[i].z, ref_grad[i].z, s);
    }
  }
}

TEST_P(VdwBackendTest, P2pVdwMatchesScalarAcrossShapes) {
  for (const std::size_t nt : {1u, 3u, 4u, 7u, 64u})
    for (const std::size_t ns : {1u, 2u, 5u, 8u, 63u})
      for (const bool grad : {false, true})
        expect_vdw_matches_scalar(kern(), nt, ns, grad, 0.0);
}

TEST_P(VdwBackendTest, P2pVdwMinimumImageWrap) {
  for (const std::size_t nt : {2u, 5u, 33u})
    expect_vdw_matches_scalar(kern(), nt, 2 * nt + 3, true, 1.0);
}

// Pairs placed exactly at and around the switching radii: below cuton the
// raw LJ applies, between cuton and cutoff the switched value, at and
// beyond the cutoff the contribution must be EXACTLY +0.0.
TEST_P(VdwBackendTest, P2pVdwCutonCutoffBoundaries) {
  const double cuton = 0.16, cutoff = 0.22;
  const VdwTable t({0.1}, {1.0}, cuton, cutoff);
  const double rs[] = {0.05,   cuton - 1e-9, cuton, cuton + 1e-9,
                       0.19,   cutoff - 1e-9, cutoff, cutoff + 1e-9,
                       0.4};
  for (const double r : rs) {
    ParticleSet ps;
    ps.resize(2);
    ps.set(0, Vec3{0.3, 0.3, 0.3}, 0.0);
    ps.set(1, Vec3{0.3 + r, 0.3, 0.3}, 0.0);
    const std::vector<std::int32_t> type{0, 0};
    std::vector<double> phi(1, 0.0);
    std::vector<Vec3> grad(1);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   0, 1, 1, 2, phi.data(), grad.data(), t.p);
    double e = 0.0, c2 = 0.0;
    const bool in = ref_pair(r * r, t.rmin2[0], t.eps[0], t.p, e, c2);
    if (!in) {
      // Exactly zero, not just small: bit-pattern of +0.0.
      EXPECT_EQ(phi[0], 0.0) << "r=" << r;
      EXPECT_FALSE(std::signbit(phi[0]));
      EXPECT_EQ(grad[0].x, 0.0);
    } else {
      const double s = kTol * (std::abs(e) + std::abs(c2) * r + 1.0);
      EXPECT_NEAR(phi[0], e, s) << "r=" << r;
      EXPECT_NEAR(grad[0].x, c2 * (-r), s) << "r=" << r;
    }
  }
}

TEST_P(VdwBackendTest, P2pVdwIdenticalRangeSkipsSelfPair) {
  const VdwTable t({0.11, 0.14}, {1.0, 0.4}, 0.16, 0.22);
  for (const std::size_t n : {1u, 2u, 5u, 17u, 64u}) {
    std::vector<std::int32_t> type;
    const ParticleSet ps = typed_uniform(n, 77 + n, type, 2);
    std::vector<double> phi(n, 0.0), ref_phi(n, 0.0), scale(n, 0.0);
    std::vector<Vec3> grad(n), ref_grad(n);
    ref_ranges(ps, type, t, 0, n, 0, n, ref_phi, ref_grad, scale);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   0, n, 0, n, phi.data(), grad.data(), t.p);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * (scale[i] + 1.0));
      EXPECT_NEAR(grad[i].x, ref_grad[i].x, kTol * (scale[i] + 1.0));
    }
  }
}

TEST_P(VdwBackendTest, P2pVdwSymmetricMatchesPlain) {
  for (const std::size_t nt : {1u, 5u, 32u, 65u}) {
    const std::size_t ns = 2 * nt + 1;
    const VdwTable t({0.11, 0.14}, {1.0, 0.4}, 0.16, 0.22);
    std::vector<std::int32_t> type;
    const ParticleSet ps = typed_uniform(nt + ns, 555 + nt, type, 2);
    // Reference: two one-directional plain evaluations.
    std::vector<double> f_phi(nt, 0.0), r_phi(ns, 0.0);
    std::vector<Vec3> f_grad(nt), r_grad(ns);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   0, nt, nt, nt + ns, f_phi.data(), f_grad.data(), t.p);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   nt, nt + ns, 0, nt, r_phi.data(), r_grad.data(), t.p);
    std::vector<double> phi(nt + ns, 0.0), gx(nt + ns, 0.0),
        gy(nt + ns, 0.0), gz(nt + ns, 0.0);
    kern().p2p_vdw_symmetric(ps.x().data(), ps.y().data(), ps.z().data(),
                             type.data(), 0, nt, nt, nt + ns, phi.data(),
                             gx.data(), gy.data(), gz.data(), t.p);
    for (std::size_t i = 0; i < nt; ++i) {
      EXPECT_NEAR(phi[i], f_phi[i], kTol * (std::abs(f_phi[i]) + 1.0));
      EXPECT_NEAR(gx[i], f_grad[i].x, kTol * (f_grad[i].norm() + 1.0));
    }
    for (std::size_t j = 0; j < ns; ++j) {
      EXPECT_NEAR(phi[nt + j], r_phi[j], kTol * (std::abs(r_phi[j]) + 1.0));
      EXPECT_NEAR(gx[nt + j], r_grad[j].x, kTol * (r_grad[j].norm() + 1.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, VdwBackendTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2));

// --- Bitwise portable == AVX2 (the dispatch-reproducibility contract) ----

class VdwBitwiseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!pkern::kernel_supported(pkern::KernelKind::kAvx2))
      GTEST_SKIP() << "AVX2 unsupported on this CPU";
  }
};

TEST_F(VdwBitwiseTest, P2pVdwBitwiseAcrossBackends) {
  const auto& por = pkern::kernel_backend(pkern::KernelKind::kPortable);
  const auto& avx = pkern::kernel_backend(pkern::KernelKind::kAvx2);
  for (const double period : {0.0, 1.0}) {
    const VdwTable t({0.11, 0.14, 0.09}, {1.0, 0.55, 0.3}, 0.16, 0.22,
                     period);
    for (const std::size_t n : {1u, 3u, 4u, 7u, 35u, 64u, 129u}) {
      std::vector<std::int32_t> type;
      const ParticleSet ps = typed_uniform(n, 1000 + n, type, 3);
      std::vector<double> phi_a(n, 0.0), phi_b(n, 0.0);
      std::vector<Vec3> grad_a(n), grad_b(n);
      // Identical ranges: exercises the self-split lane phase reset too.
      por.p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                  0, n, 0, n, phi_a.data(), grad_a.data(), t.p);
      avx.p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                  0, n, 0, n, phi_b.data(), grad_b.data(), t.p);
      EXPECT_EQ(0, std::memcmp(phi_a.data(), phi_b.data(),
                               n * sizeof(double)))
          << "n=" << n << " period=" << period;
      EXPECT_EQ(0, std::memcmp(grad_a.data(), grad_b.data(),
                               n * sizeof(Vec3)));
    }
  }
}

TEST_F(VdwBitwiseTest, P2pVdwSymmetricBitwiseAcrossBackends) {
  const auto& por = pkern::kernel_backend(pkern::KernelKind::kPortable);
  const auto& avx = pkern::kernel_backend(pkern::KernelKind::kAvx2);
  for (const double period : {0.0, 1.0}) {
    const VdwTable t({0.11, 0.14}, {1.0, 0.4}, 0.16, 0.22, period);
    for (const std::size_t nt : {1u, 4u, 9u, 33u}) {
      const std::size_t ns = 2 * nt + 3;
      std::vector<std::int32_t> type;
      const ParticleSet ps = typed_uniform(nt + ns, 2000 + nt, type, 2);
      std::vector<double> pa(nt + ns, 0.0), pb(nt + ns, 0.0);
      std::vector<double> ax(nt + ns, 0.0), ay(nt + ns, 0.0),
          az(nt + ns, 0.0);
      std::vector<double> bx(nt + ns, 0.0), by(nt + ns, 0.0),
          bz(nt + ns, 0.0);
      por.p2p_vdw_symmetric(ps.x().data(), ps.y().data(), ps.z().data(),
                            type.data(), 0, nt, nt, nt + ns, pa.data(),
                            ax.data(), ay.data(), az.data(), t.p);
      avx.p2p_vdw_symmetric(ps.x().data(), ps.y().data(), ps.z().data(),
                            type.data(), 0, nt, nt, nt + ns, pb.data(),
                            bx.data(), by.data(), bz.data(), t.p);
      EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(),
                               (nt + ns) * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(ax.data(), bx.data(),
                               (nt + ns) * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(ay.data(), by.data(),
                               (nt + ns) * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(az.data(), bz.data(),
                               (nt + ns) * sizeof(double)));
    }
  }
}

// --- End-to-end: FmmSolver with a short-range KernelSpec -----------------

core::FmmConfig vdw_config(bool periodic) {
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.type = core::KernelType::kVanDerWaals;
  cfg.kernel.vdw_rmin = {0.11, 0.14};
  cfg.kernel.vdw_epsilon = {1.0, 0.55};
  cfg.kernel.vdw_cuton = 0.16;
  cfg.kernel.vdw_cutoff = 0.22;
  cfg.kernel.vdw_periodic = periodic;
  return cfg;
}

void expect_solve_matches_brute_force(const core::FmmConfig& cfg,
                                      const ParticleSet& ps,
                                      const std::vector<std::int32_t>& type) {
  const std::size_t n = ps.size();
  const VdwTable t(cfg.kernel.vdw_rmin, cfg.kernel.vdw_epsilon,
                   cfg.kernel.vdw_cuton, cfg.kernel.vdw_cutoff,
                   cfg.kernel.vdw_periodic
                       ? cfg.kernel.vdw_box.max_side()
                       : 0.0);
  std::vector<double> ref_phi(n, 0.0), scale(n, 0.0);
  std::vector<Vec3> ref_grad(n);
  ref_ranges(ps, type, t, 0, n, 0, n, ref_phi, ref_grad, scale);

  core::FmmSolver solver(cfg);
  const core::FmmResult r = solver.solve(ps);
  ASSERT_EQ(r.kernel, core::KernelType::kVanDerWaals);
  ASSERT_EQ(r.phi.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 1e-11 * (scale[i] + 1.0);
    EXPECT_NEAR(r.phi[i], ref_phi[i], s) << "i=" << i;
    EXPECT_NEAR(r.grad[i].x, ref_grad[i].x, s);
    EXPECT_NEAR(r.grad[i].y, ref_grad[i].y, s);
    EXPECT_NEAR(r.grad[i].z, ref_grad[i].z, s);
  }
}

TEST(VdwSolveTest, MatchesBruteForceUniform) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(400, 42, type, 2);
  expect_solve_matches_brute_force(vdw_config(false), ps, type);
}

TEST(VdwSolveTest, MatchesBruteForceClustered) {
  std::vector<std::int32_t> type;
  ParticleSet ps = make_plummer(350, Box3{}, 77);
  type.resize(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    type[i] = static_cast<std::int32_t>(i % 2);
    ps.set_type(i, type[i]);
  }
  expect_solve_matches_brute_force(vdw_config(false), ps, type);
}

TEST(VdwSolveTest, MatchesBruteForcePeriodicMinimumImage) {
  // Particles concentrated near the box faces so many pairs straddle the
  // periodic boundary and only match through the minimum image.
  std::vector<std::int32_t> type;
  ParticleSet ps = typed_uniform(300, 1234, type, 2);
  Xoshiro256 rng(99);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (i % 3 == 0) {
      // Push onto a thin shell near a random face.
      const double v = rng.uniform(0.0, 0.05);
      const double keep = rng.uniform(0.0, 1.0);
      const double x = (i % 2 == 0) ? v : 1.0 - v;
      Vec3 pos = ps.position(i);
      if (keep < 0.34)
        pos.x = x;
      else if (keep < 0.67)
        pos.y = x;
      else
        pos.z = x;
      ps.set(i, pos, ps.q()[i]);
    }
  }
  expect_solve_matches_brute_force(vdw_config(true), ps, type);
}

TEST(VdwSolveTest, FarFieldPhasesReportZeroWork) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(300, 5, type, 2);
  core::FmmSolver solver(vdw_config(false));
  const core::FmmResult r = solver.solve(ps);
  for (const char* ph : {"p2m", "upward", "interactive", "downward", "l2p"}) {
    const auto it = r.breakdown.phases().find(ph);
    ASSERT_NE(it, r.breakdown.phases().end()) << ph << " phase missing";
    EXPECT_EQ(it->second.boxes_active, 0u) << ph;
    EXPECT_EQ(it->second.pairs, 0u) << ph;
    EXPECT_EQ(it->second.flops, 0u) << ph;
  }
  const auto near = r.breakdown.phases().find("near");
  ASSERT_NE(near, r.breakdown.phases().end());
  EXPECT_GT(near->second.pairs, 0u);
}

TEST(VdwSolveTest, WarmSolvesAreZeroAllocAndBitwiseStable) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(500, 8, type, 2);
  core::FmmSolver solver(vdw_config(false));
  const core::FmmResult cold = solver.solve(ps);
  const core::FmmResult warm = solver.solve(ps);
  EXPECT_TRUE(warm.plan_reused);
  EXPECT_EQ(warm.workspace_allocs, 0u);
  ASSERT_EQ(cold.phi.size(), warm.phi.size());
  EXPECT_EQ(0, std::memcmp(cold.phi.data(), warm.phi.data(),
                           cold.phi.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(cold.grad.data(), warm.grad.data(),
                           cold.grad.size() * sizeof(Vec3)));
}

TEST(VdwSolveTest, SequentialAndThreadedBitwiseIdentical) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(600, 21, type, 2);
  core::FmmConfig seq = vdw_config(true);
  seq.mode = core::ExecutionMode::kSequential;
  core::FmmConfig thr = seq;
  thr.mode = core::ExecutionMode::kThreads;
  const core::FmmResult a = core::FmmSolver(seq).solve(ps);
  const core::FmmResult b = core::FmmSolver(thr).solve(ps);
  ASSERT_EQ(a.phi.size(), b.phi.size());
  EXPECT_EQ(0, std::memcmp(a.phi.data(), b.phi.data(),
                           a.phi.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(a.grad.data(), b.grad.data(),
                           a.grad.size() * sizeof(Vec3)));
}

TEST(VdwSolveTest, DenseAndSparseHierarchiesIdentical) {
  // Both requests run the one uniform-leaf executor; brute force is the
  // independent reference.
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(400, 31, type, 2);
  core::FmmConfig dense = vdw_config(false);
  dense.hierarchy = core::HierarchyMode::kDense;
  core::FmmConfig sparse = vdw_config(false);
  sparse.hierarchy = core::HierarchyMode::kSparse;
  expect_solve_matches_brute_force(dense, ps, type);
  const core::FmmResult a = core::FmmSolver(dense).solve(ps);
  const core::FmmResult b = core::FmmSolver(sparse).solve(ps);
  EXPECT_TRUE(a.sparse);
  EXPECT_TRUE(b.sparse);
  ASSERT_EQ(a.phi.size(), b.phi.size());
  EXPECT_EQ(0, std::memcmp(a.phi.data(), b.phi.data(),
                           a.phi.size() * sizeof(double)));
}

TEST(VdwSolveTest, AdaptiveHierarchyDegradesToAuto) {
  core::FmmConfig cfg = vdw_config(false);
  cfg.hierarchy = core::HierarchyMode::kAdaptive;
  core::FmmSolver solver(cfg);
  EXPECT_EQ(solver.config().hierarchy, core::HierarchyMode::kAuto);
  EXPECT_EQ(solver.hierarchy_requested(), core::HierarchyMode::kAdaptive);
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(200, 3, type, 2);
  const core::FmmResult r = solver.solve(ps);
  EXPECT_FALSE(r.adaptive);
  // The degradation is surfaced, not silent: the result records both the
  // request and the mode actually in effect.
  EXPECT_EQ(r.hierarchy_requested, core::HierarchyMode::kAdaptive);
  EXPECT_EQ(r.hierarchy_effective, core::HierarchyMode::kAuto);
}

// A far-field-capable kernel keeps the requested mode: requested ==
// effective on the Laplace path.
TEST(VdwSolveTest, LaplaceAdaptiveRequestStaysAdaptive) {
  core::FmmConfig cfg;
  cfg.hierarchy = core::HierarchyMode::kAdaptive;
  core::FmmSolver solver(cfg);
  EXPECT_EQ(solver.hierarchy_requested(), core::HierarchyMode::kAdaptive);
  const ParticleSet ps = make_uniform(200, Box3{}, 5);
  const core::FmmResult r = solver.solve(ps);
  EXPECT_EQ(r.hierarchy_requested, core::HierarchyMode::kAdaptive);
  EXPECT_EQ(r.hierarchy_effective, core::HierarchyMode::kAdaptive);
  EXPECT_TRUE(r.adaptive);
}

TEST(KernelSpecTest, ValidateRejectsBadSpecs) {
  core::FmmConfig cfg = vdw_config(false);
  cfg.kernel.vdw_cutoff = 0.3;  // > side / 4: U-list cannot cover it
  EXPECT_THROW(core::FmmSolver{cfg}, std::invalid_argument);
  core::FmmConfig cfg2 = vdw_config(false);
  cfg2.kernel.vdw_cuton = 0.25;  // cuton >= cutoff
  EXPECT_THROW(core::FmmSolver{cfg2}, std::invalid_argument);
  core::FmmConfig cfg3 = vdw_config(false);
  cfg3.kernel.vdw_epsilon = {1.0};  // table size mismatch
  EXPECT_THROW(core::FmmSolver{cfg3}, std::invalid_argument);
}

}  // namespace
}  // namespace hfmm
