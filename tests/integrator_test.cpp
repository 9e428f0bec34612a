// Tests for the leapfrog integrator: two-body orbits, energy conservation,
// momentum conservation, and time-reversibility of the symplectic scheme —
// plus the incremental dynamic-stepping pipeline (DESIGN.md Section 14):
// mover-only sort repair bit-identical to the full rebuild, threshold
// fallback, sparse plan patching, and long-run energy drift on the
// streamed path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "hfmm/core/integrator.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::core {
namespace {

FmmSolver& gravity_solver() {
  static FmmConfig cfg = [] {
    FmmConfig c;
    c.with_gradient = true;
    c.kernel.softening = 0.0;
    return c;
  }();
  static FmmSolver solver(cfg);
  return solver;
}

// Two equal masses on a circular orbit about their barycentre.
SimulationState circular_binary(double separation, double mass) {
  SimulationState s;
  s.particles.resize(2);
  s.particles.set(0, {0.5 - 0.5 * separation, 0.5, 0.5}, mass);
  s.particles.set(1, {0.5 + 0.5 * separation, 0.5, 0.5}, mass);
  // v^2 = G m_other^2 / (M r) for equal masses: each orbits at radius r/2
  // with a = G m / r^2 = v^2 / (r/2) => v = sqrt(G m / (2 r)).
  const double v = std::sqrt(mass / (2.0 * separation));
  s.velocity = {{0, v, 0}, {0, -v, 0}};
  return s;
}

TEST(IntegratorTest, RejectsBadConfig) {
  FmmConfig cfg;  // with_gradient defaults to false
  FmmSolver solver(cfg);
  EXPECT_THROW(LeapfrogIntegrator(solver, ForceLaw::kGravity, 0.01),
               std::invalid_argument);
  EXPECT_THROW(LeapfrogIntegrator(gravity_solver(), ForceLaw::kGravity, 0.0),
               std::invalid_argument);
}

TEST(IntegratorTest, CircularBinaryKeepsSeparation) {
  SimulationState s = circular_binary(0.2, 0.1);
  // Orbital period T = 2 pi r_orbit / v; resolve it with ~200 steps.
  const double v = std::sqrt(0.1 / 0.4);
  const double period = 2.0 * std::numbers::pi * 0.1 / v;
  LeapfrogIntegrator integ(gravity_solver(), ForceLaw::kGravity,
                           period / 200.0);
  integ.initialize(s);
  const double e0 = integ.energy(s).total();
  integ.run(s, 200);  // one full period
  const double sep =
      (s.particles.position(0) - s.particles.position(1)).norm();
  EXPECT_NEAR(sep, 0.2, 0.01);
  EXPECT_NEAR(integ.energy(s).total(), e0, 0.02 * std::abs(e0));  // FMM-accuracy bound
}

TEST(IntegratorTest, EnergyConservedForCluster) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.02;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(800, Box3{}, 11, /*mass=*/0.5);
  s.velocity.assign(800, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.002);
  integ.initialize(s);
  const double e0 = integ.energy(s).total();
  integ.run(s, 5);
  const double e1 = integ.energy(s).total();
  EXPECT_NEAR(e1, e0, 5e-3 * std::abs(e0));
  EXPECT_EQ(s.steps, 5u);
  EXPECT_NEAR(s.time, 0.01, 1e-12);
}

TEST(IntegratorTest, MomentumConserved) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.02;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(500, Box3{}, 13, 0.5);
  s.velocity.assign(500, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.002);
  integ.initialize(s);
  integ.run(s, 4);
  EXPECT_LT(integ.energy(s).momentum.norm(), 1e-6);
}

TEST(IntegratorTest, TimeReversible) {
  // Run forward n steps, flip velocities, run n steps: leapfrog returns to
  // the initial positions to integration accuracy.
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.05;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(200, Box3{}, 17, 0.2);
  s.velocity.assign(200, Vec3{});
  const ParticleSet initial = s.particles;
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.005);
  integ.initialize(s);
  integ.run(s, 5);
  for (Vec3& v : s.velocity) v = -v;
  integ.initialize(s);
  integ.run(s, 5);
  double worst = 0.0;
  for (std::size_t i = 0; i < 200; ++i)
    worst = std::max(worst,
                     (s.particles.position(i) - initial.position(i)).norm());
  EXPECT_LT(worst, 1e-4);
}

TEST(IntegratorTest, ElectrostaticRepulsion) {
  // Two like charges released from rest must fly apart.
  FmmConfig cfg;
  cfg.with_gradient = true;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles.resize(2);
  s.particles.set(0, {0.4, 0.5, 0.5}, 1.0);
  s.particles.set(1, {0.6, 0.5, 0.5}, 1.0);
  s.velocity.assign(2, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kElectrostatic, 0.001);
  integ.initialize(s);
  integ.run(s, 10);
  const double sep =
      (s.particles.position(0) - s.particles.position(1)).norm();
  EXPECT_GT(sep, 0.2);
  // And opposite charges attract.
  SimulationState a;
  a.particles.resize(2);
  a.particles.set(0, {0.4, 0.5, 0.5}, 1.0);
  a.particles.set(1, {0.6, 0.5, 0.5}, -1.0);
  a.velocity.assign(2, Vec3{});
  integ.initialize(a);
  integ.run(a, 10);
  EXPECT_LT((a.particles.position(0) - a.particles.position(1)).norm(), 0.2);
}

// ---------------------------------------------------------------------------
// Incremental dynamic stepping (DESIGN.md Section 14).
// ---------------------------------------------------------------------------

// Pins the particle-set bounds with two stationary corner sentinels so a
// cold solver derives the same root cube as the incremental solver's pinned
// one — making their outputs bitwise comparable.
ParticleSet pinned_uniform(std::size_t n, std::uint64_t seed) {
  ParticleSet p = make_uniform(n, Box3{}, seed);
  p.set(0, {0.0, 0.0, 0.0}, 1.0);
  p.set(1, {1.0, 1.0, 1.0}, 1.0);
  return p;
}

// Drifts interior particles [lo, hi) toward the box centre by `frac` of
// their distance — movers that cannot create new bounds extremes.
void drift_inward(ParticleSet& p, std::size_t lo, std::size_t hi,
                  double frac) {
  const Vec3 c{0.5, 0.5, 0.5};
  for (std::size_t i = lo; i < hi; ++i)
    p.set(i, p.position(i) + frac * (c - p.position(i)), p.charge(i));
}

void expect_bitwise_equal(const FmmResult& a, const FmmResult& b) {
  ASSERT_EQ(a.phi.size(), b.phi.size());
  ASSERT_EQ(a.grad.size(), b.grad.size());
  for (std::size_t i = 0; i < a.phi.size(); ++i) {
    ASSERT_EQ(a.phi[i], b.phi[i]) << "phi differs at " << i;
    if (!a.grad.empty()) {
      ASSERT_EQ(a.grad[i].x, b.grad[i].x) << "grad.x differs at " << i;
      ASSERT_EQ(a.grad[i].y, b.grad[i].y) << "grad.y differs at " << i;
      ASSERT_EQ(a.grad[i].z, b.grad[i].z) << "grad.z differs at " << i;
    }
  }
}

bool timeline_has_stage(const FmmResult& r, const char* stage) {
  for (const auto& st : r.timeline)
    if (st.stage == stage) return true;
  return false;
}

TEST(IncrementalStep, RepairedSortBitwiseMatchesFullRebuild) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.step_incremental = true;
  cfg.step_mover_threshold = 0.5;
  FmmSolver inc(cfg);

  ParticleSet p = pinned_uniform(3000, 21);
  (void)inc.solve(p);  // cold solve establishes the step cache
  drift_inward(p, 10, 100, 0.2);
  const FmmResult r = inc.solve(p);

  const PhaseStats& sort = r.breakdown.phases().at("sort");
  EXPECT_EQ(sort.plan_reuse, 1u);  // the sort was repaired, not rebuilt
  EXPECT_GT(sort.movers, 0u);
  EXPECT_LT(sort.movers, 100u);
  EXPECT_TRUE(timeline_has_stage(r, "sort.incremental"));

  // An independent cold solver on the drifted set (same cube thanks to the
  // pinned bounds) must produce identical bits.
  FmmConfig full_cfg;
  full_cfg.with_gradient = true;
  FmmSolver full(full_cfg);
  expect_bitwise_equal(r, full.solve(p));
}

TEST(IncrementalStep, FallsBackToFullSortAboveThreshold) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.step_incremental = true;
  cfg.step_mover_threshold = 0.0;  // any mover crosses the threshold
  FmmSolver inc(cfg);

  ParticleSet p = pinned_uniform(1500, 33);
  (void)inc.solve(p);
  drift_inward(p, 10, 60, 0.25);
  const FmmResult r = inc.solve(p);

  const PhaseStats& sort = r.breakdown.phases().at("sort");
  EXPECT_GT(sort.movers, 0u);      // the diff still ran and counted
  EXPECT_EQ(sort.plan_reuse, 0u);  // but the full counting sort rebuilt
  EXPECT_FALSE(timeline_has_stage(r, "sort.incremental"));
  EXPECT_TRUE(timeline_has_stage(r, "sort"));

  FmmConfig full_cfg;
  full_cfg.with_gradient = true;
  FmmSolver full(full_cfg);
  expect_bitwise_equal(r, full.solve(p));
}

// Sparse executor: a one-particle membership change must keep the active
// sets (plan_reuse) and patch only the handful of cost entries around the
// source and destination leaves — never the whole cost model.
TEST(IncrementalStep, SparsePatchesOnlyAffectedCostEntries) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.step_incremental = true;
  cfg.step_mover_threshold = 0.5;
  cfg.hierarchy = HierarchyMode::kSparse;
  cfg.depth = 3;
  FmmSolver inc(cfg);

  // Two tight occupied clusters plus the corner sentinels; everything else
  // of the 512-leaf grid stays empty.
  const std::size_t per = 60;
  ParticleSet p;
  p.resize(2 * per + 2);
  Xoshiro256 rng(77);
  for (std::size_t i = 0; i < per; ++i) {
    p.set(i, Vec3{0.19, 0.19, 0.19} +
                 Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
                      rng.uniform(-0.01, 0.01)},
          1.0);
    p.set(per + i, Vec3{0.81, 0.81, 0.81} +
                       Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
                            rng.uniform(-0.01, 0.01)},
          1.0);
  }
  p.set(2 * per, {0.0, 0.0, 0.0}, 1.0);
  p.set(2 * per + 1, {1.0, 1.0, 1.0}, 1.0);

  (void)inc.solve(p);
  // Move one particle from cluster A into cluster B's leaf: counts change
  // in two already-occupied boxes, no box flips empty <-> non-empty.
  p.set(3, {0.815, 0.815, 0.815}, p.charge(3));
  const FmmResult r = inc.solve(p);

  const PhaseStats& sort = r.breakdown.phases().at("sort");
  EXPECT_EQ(sort.movers, 1u);
  EXPECT_EQ(sort.plan_reuse, 1u);
  const PhaseStats& active = r.breakdown.phases().at("active");
  EXPECT_GE(active.plan_reuse, 1u);   // active sets reused
  EXPECT_GE(active.chunks_rebuilt, 1u);
  EXPECT_LE(active.chunks_rebuilt, 4u);  // only the occupied leaves, not 512
  FmmConfig full_cfg = cfg;
  full_cfg.step_incremental = false;
  FmmSolver full(full_cfg);
  expect_bitwise_equal(r, full.solve(p));

  // A zero-mover step reuses everything and patches nothing.
  const FmmResult r2 = inc.solve(p);
  EXPECT_EQ(r2.breakdown.phases().at("sort").movers, 0u);
  EXPECT_EQ(r2.breakdown.phases().at("sort").plan_reuse, 1u);
  EXPECT_EQ(r2.breakdown.phases().at("active").plan_reuse, 2u);
  EXPECT_EQ(r2.breakdown.phases().at("active").chunks_rebuilt, 0u);
  expect_bitwise_equal(r2, full.solve(p));
}

// Long-run guard for the streamed kick-drift-accumulate path: 100 leapfrog
// steps of a softened Plummer sphere with incremental stepping on must
// conserve energy to leapfrog accuracy and stream every evaluation.
TEST(IncrementalStep, HundredStepPlummerEnergyDrift) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.02;
  cfg.step_incremental = true;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(500, Box3{}, 23, /*mass=*/0.5);
  s.velocity.assign(500, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.001);
  integ.initialize(s);
  const double e0 = integ.energy(s).total();
  integ.run(s, 100);
  EXPECT_NEAR(integ.energy(s).total(), e0, 3e-2 * std::abs(e0));
  const ForceStats& fs = integ.force_stats();
  EXPECT_EQ(fs.evaluations, 101u);
  EXPECT_EQ(fs.streamed_evaluations, 101u);
  EXPECT_EQ(fs.saved_result_allocs, 202u);
  EXPECT_EQ(fs.warm_evaluations, 100u);
}

}  // namespace
}  // namespace hfmm::core
