// hfmm_bench — one run of one benchmark workload through the public API.
//
//   hfmm_bench --workload uniform|plummer|merger --seed N --seconds S
//              [--trace 0|1] [--spans FILE] [--setup-only 0|1]
//
// Writes one JSON object per line to stdout, flushed as it goes, so a run
// that aborts part-way still leaves every operation it finished on record:
//   host       the machine and the library backends, with a single-core
//              gemm peak measured in this run
//   setup      one set-up: FmmSolver construction + translations() + the
//              cold solve (merger: + LeapfrogIntegrator::initialize)
//   op         one checked operation: a solve (uniform, plummer) or a
//              leapfrog step (merger), its wall time and sampled errors
//   energy     merger: total energy before and after the timed steps, and
//              whether its drift stays within the potential's tolerance
//   end        peak resident memory; the run finished
// run.py turns these lines into the benchmark's metrics. With --trace 1 the
// run also records spans around every call into the library and writes them
// to --spans when it ends; every other threaded iteration is left untraced
// so the tracing overhead is measured in the same process.

#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hfmm/baseline/direct.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/blas/kernels.hpp"
#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/tree/refinement.hpp"
#include "hfmm/util/errors.hpp"
#include "hfmm/util/rng.hpp"
#include "hfmm/util/thread_pool.hpp"

using namespace hfmm;

namespace {

// Correctness gate. EXPERIMENTS.md Table 2 measures 3.7 digits (rms relative
// potential error 2.2e-4) for D=5/K=12; the gate allows one digit less for
// the potential, and a further digit for the gradient, which differentiates
// the same truncated expansions.
constexpr double kPhiTolerance = 2.2e-3;
constexpr double kGradTolerance = 2.2e-2;

// ---------------------------------------------------------------- output

std::string num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// One flat JSON object, built field by field.
class Json {
 public:
  Json& add(const std::string& key, double v) { return raw(key, num(v)); }
  Json& add(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& add(const std::string& key, int v) {
    return raw(key, std::to_string(v));
  }
  Json& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& add(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  Json& add(const std::string& key, const char* v) {
    return raw(key, quoted(v));
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void emit(const std::string& event, Json j) {
  std::printf("%s\n", Json().add("ev", event).raw("data", j.str()).str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// A recorded interval. Spans of one operation share its id `op`; `parent`
/// is the span that caused this one (0 for an operation's root span).
using Attrs = std::vector<std::pair<std::string, double>>;

struct Span {
  std::uint64_t id = 0, parent = 0, op = 0;
  std::string name, layer;
  double t0 = 0.0, t1 = 0.0;
  Attrs attrs;
};

/// In-memory span store; written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  std::uint64_t add(std::uint64_t parent, std::uint64_t op, std::string name,
                    std::string layer, double t0, double t1,
                    Attrs attrs = {}) {
    if (!on_) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.t0 = t0;
    s.t1 = t1;
    s.attrs = std::move(attrs);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Children of an operation span reconstructed from the solve's own
  /// report. Phase durations are exact; their placement is inferred: phases
  /// (or parts of phases) that ran before the phase graph are laid end to
  /// end from `start`, and the graph's stages follow at their recorded
  /// offsets. A graph phase becomes a span covering its stages, with one
  /// child span per stage, so the phase's self time is the time it waited
  /// between its own stages.
  void add_solve_children(std::uint64_t parent, std::uint64_t op, double start,
                          double end, const PhaseBreakdown& b,
                          const std::vector<exec::StageTiming>& timeline) {
    if (!on_) return;
    std::map<std::string, double> staged;
    std::map<std::string, std::pair<double, double>> envelope;
    for (const exec::StageTiming& st : timeline) {
      staged[st.phase] += st.end_seconds - st.start_seconds;
      auto [it, fresh] = envelope.try_emplace(
          st.phase, std::make_pair(st.start_seconds, st.end_seconds));
      if (!fresh) {
        it->second.first = std::min(it->second.first, st.start_seconds);
        it->second.second = std::max(it->second.second, st.end_seconds);
      }
    }
    const auto attrs_of = [](const PhaseStats& s) {
      return Attrs{
          {"seconds", s.seconds},
          {"flops", static_cast<double>(s.flops)},
          {"pairs", static_cast<double>(s.pairs)},
          {"movers", static_cast<double>(s.movers)},
          {"plan_reuse", static_cast<double>(s.plan_reuse)},
          {"chunks_rebuilt", static_cast<double>(s.chunks_rebuilt)},
          {"allocs", static_cast<double>(s.allocs)}};
    };
    const auto clip = [end](double t) { return std::min(t, end); };
    double cursor = start;
    for (const auto& [phase, stats] : b.phases()) {
      if (phase == "comm") continue;
      const double pre = stats.seconds - staged[phase];
      if (envelope.count(phase) != 0 || pre <= 0.0) continue;
      add(parent, op, phase, layer_of(phase), clip(cursor),
          clip(cursor + pre), attrs_of(stats));
      cursor += pre;
    }
    for (const auto& [phase, stats] : b.phases()) {
      const auto it = envelope.find(phase);
      if (it == envelope.end()) continue;
      const double pre = stats.seconds - staged[phase];
      if (pre > 1e-9) {  // a graph phase that also ran before the graph
        add(parent, op, phase + ":pre", layer_of(phase), clip(cursor),
            clip(cursor + pre));
        cursor += pre;
      }
    }
    const double graph0 = cursor;
    std::map<std::string, std::uint64_t> phase_span;
    for (const auto& [phase, stats] : b.phases()) {
      const auto it = envelope.find(phase);
      if (it == envelope.end()) continue;
      phase_span[phase] =
          add(parent, op, phase, layer_of(phase), clip(graph0 + it->second.first),
              clip(graph0 + it->second.second), attrs_of(stats));
    }
    for (const exec::StageTiming& st : timeline)
      add(phase_span[st.phase], op, st.stage, layer_of(st.phase),
          clip(graph0 + st.start_seconds), clip(graph0 + st.end_seconds),
          {{"chunks", static_cast<double>(st.chunks)},
           {"workers", static_cast<double>(st.workers)}});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json attrs;
      for (const auto& [k, v] : s.attrs) attrs.add(k, v);
      out << Json()
                 .add("id", s.id)
                 .add("parent", s.parent)
                 .add("op", s.op)
                 .add("name", s.name)
                 .add("layer", s.layer)
                 .add("t0", s.t0)
                 .add("t1", s.t1)
                 .raw("attrs", attrs.str())
                 .str()
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  /// The src/ module that does a solve phase's work.
  static std::string layer_of(const std::string& phase) {
    if (phase == "sort") return "dp";
    if (phase == "active") return "tree";
    if (phase == "near" || phase == "p2m" || phase == "l2p") return "pkern";
    if (phase == "upward" || phase == "interactive" || phase == "downward")
      return "blas";
    if (phase == "precompute") return "anderson";
    return "core";
  }

  bool on_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- host

/// The CPU's brand string from cpuid (x86-64), without reading any file.
std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u)
    return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

void emit_host() {
  emit("host",
       Json()
           .add("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)))
           .add("workers", static_cast<std::uint64_t>(ThreadPool::global().size()))
           .add("cpu", cpu_model())
           .add("l2_bytes", static_cast<int>(sysconf(_SC_LEVEL2_CACHE_SIZE)))
           .add("l3_bytes", static_cast<int>(sysconf(_SC_LEVEL3_CACHE_SIZE)))
           .add("blas_backend", blas::active_kernel().name)
           .add("pkern_backend", pkern::active_kernel().name)
           .add("peak_gflops_1core", blas::measure_peak_flops(96, 0.2) * 1e-9));
}

// ---------------------------------------------------------------- workloads

// Targets checked against direct summation. Every operation is gated on a
// sample. The error metrics come from a large sample, sized so that its
// reference costs kReferencePairs target-source pairs; on it they repeat
// across seeds to a few per cent. Merger steps are gated on a small sample
// each, as the reference moves with the particles, and the error metrics
// come from one solve of the initial state on the threaded leg's solver.
constexpr double kReferencePairs = 1.6e9;
constexpr std::size_t kStepTargets = 256;
constexpr std::size_t kSetupOnlyTargets = 512;

struct Workload {
  ParticleSet input;
  core::FmmConfig config;
  bool dynamic = false;  ///< timed per LeapfrogIntegrator::step
  double dt = 0.0;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  core::FmmConfig& c = w.config;
  c.params = anderson::params_d5_k12();
  c.with_gradient = true;
  c.step_incremental = false;
  c.ncrit = 0;
  if (name == "uniform") {
    w.input = make_uniform(200000, Box3{}, seed);
    c.hierarchy = core::HierarchyMode::kAuto;
  } else if (name == "plummer") {
    w.input = make_plummer(64000, Box3{}, seed);
    c.hierarchy = core::HierarchyMode::kAdaptive;
  } else if (name == "merger") {
    w.input = make_two_clusters(50000, Box3{}, seed);
    c.hierarchy = core::HierarchyMode::kAuto;
    c.supernodes = true;
    c.step_incremental = true;
    c.kernel.softening = 1e-3;
    w.dynamic = true;
    w.dt = 2e-4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// `count` distinct particle indices, drawn from `seed`, ascending.
std::vector<std::uint32_t> sample_targets(std::size_t n, std::size_t count,
                                          std::uint64_t seed) {
  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  Xoshiro256 rng(seed ^ 0x7a3c5e1d9b2f4681ULL);
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(all[i], all[i + rng.below(n - i)]);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

struct Reference {
  std::vector<double> phi;
  std::vector<Vec3> grad;
};

/// Direct summation at the sampled targets (self excluded).
Reference direct_at(const ParticleSet& p, const std::vector<std::uint32_t>& idx,
                    double softening) {
  Reference ref;
  ref.phi.assign(idx.size(), 0.0);
  ref.grad.assign(idx.size(), Vec3{});
  ThreadPool::global().parallel_for(0, idx.size(), [&](std::size_t s) {
    const std::size_t i = idx[s];
    baseline::direct_ranges(p, i, i + 1, 0, i, &ref.phi[s], &ref.grad[s],
                            softening);
    baseline::direct_ranges(p, i, i + 1, i + 1, p.size(), &ref.phi[s],
                            &ref.grad[s], softening);
  });
  return ref;
}

/// The checked outcome of one operation.
struct Check {
  bool finite = true;
  std::size_t targets = 0;
  double phi_err = NAN;
  double grad_err = NAN;
  bool ok() const {
    return finite && phi_err <= kPhiTolerance &&
           (std::isnan(grad_err) || grad_err <= kGradTolerance);
  }
};

bool finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

/// Non-finite values anywhere in the outputs, and the errors at the sampled
/// targets: for the potential the rms relative error of EXPERIMENTS.md
/// Table 2, for the gradient the rms of the per-target relative errors. The
/// Table 2 norm would divide by the rms field, which a few close pairs
/// dominate, so it changes by half from one seed to the next. `grad` may be
/// empty: merger steps expose only the potential.
Check check_outputs(std::span<const double> phi, std::span<const Vec3> grad,
                    const std::vector<std::uint32_t>& idx,
                    const Reference& ref) {
  Check c;
  c.targets = idx.size();
  for (const double v : phi) c.finite = c.finite && std::isfinite(v);
  for (const Vec3& g : grad) c.finite = c.finite && finite(g);
  std::vector<double> sp(idx.size());
  for (std::size_t s = 0; s < idx.size(); ++s) sp[s] = phi[idx[s]];
  c.phi_err = compare_fields(sp, ref.phi).rms_rel;
  if (!grad.empty()) {
    double sum = 0.0;
    for (std::size_t s = 0; s < idx.size(); ++s)
      sum += (grad[idx[s]] - ref.grad[s]).norm2() / ref.grad[s].norm2();
    c.grad_err = std::sqrt(sum / static_cast<double>(idx.size()));
  }
  return c;
}

void emit_op(const std::string& leg, std::uint64_t index, double seconds,
             const Check& c, const std::string& error, bool traced = false) {
  Json j;
  j.add("leg", leg).add("i", index).add("s", seconds).add("traced", traced);
  j.add("ok", error.empty() && c.ok()).add("finite", c.finite);
  j.add("targets", static_cast<std::uint64_t>(c.targets));
  j.add("phi_err", c.phi_err).add("grad_err", c.grad_err);
  if (!error.empty()) j.add("error", error);
  emit("op", j);
}

/// Root-span attributes of a warm solve: its leg and the solver's counters.
Attrs solve_attrs(const core::FmmResult& r, bool threads) {
  return {{"threads", threads ? 1.0 : 0.0},
          {"warm", 1.0},
          {"depth", static_cast<double>(r.depth)},
          {"workspace_mib", static_cast<double>(r.workspace_bytes) / 1048576.0},
          {"active_boxes", static_cast<double>(r.active_boxes)},
          {"front_leaves", static_cast<double>(r.front_leaves)},
          {"ncrit", static_cast<double>(r.ncrit)}};
}

// ---------------------------------------------------------------- runner

/// One execution mode: its solver and, on merger, its integrator and state.
struct Leg {
  std::string name;
  bool threads = false;
  std::unique_ptr<core::FmmSolver> solver;
  std::unique_ptr<core::LeapfrogIntegrator> integ;
  core::SimulationState state;
  double busy = 0.0;      ///< summed wall time of its timed operations
  std::uint64_t ops = 0;  ///< timed operations so far
  double e0 = 0.0;        ///< merger: total energy after initialize
};

class Runner {
 public:
  Runner(Workload w, std::uint64_t seed, double seconds, bool trace,
         bool setup_only)
      : w_(std::move(w)), seconds_(seconds), setup_only_(setup_only),
        tracer_(trace) {
    const std::size_t n = w_.input.size();
    const auto full = static_cast<std::size_t>(kReferencePairs / static_cast<double>(n));
    const std::size_t gate = setup_only   ? kSetupOnlyTargets
                             : w_.dynamic ? kStepTargets
                                          : full;
    gate_idx_ = sample_targets(n, gate, seed);
    full_idx_ = sample_targets(n, full, seed);
  }

  /// Set-up, then (unless set-up only) timed operations on a threaded and a
  /// sequential leg, interleaved so both sample the same stretch of machine
  /// state, until `seconds` have passed since the start.
  void run() {
    const double t_start = now();
    spin_up();
    Leg thr = set_up(core::ExecutionMode::kThreads, "threads");
    if (!setup_only_) {
      if (w_.dynamic) gradient_check(thr, full_idx_, "threads_check");
      Leg seq = set_up(core::ExecutionMode::kSequential, "seq");
      for (;;) {
        const bool over = now() - t_start >= seconds_;
        if (over && thr.ops >= kMinThreadedOps && seq.ops >= kMinSeqOps) break;
        Leg* leg = seq.busy < kSeqShare * (thr.busy + seq.busy) ? &seq : &thr;
        if (over) leg = thr.ops < kMinThreadedOps ? &thr : &seq;
        timed_op(*leg, !leg->threads || leg->ops % 2 == 0);
      }
      if (w_.dynamic) {
        const double e_end = thr.integ->energy(thr.state).total();
        const double drift = std::abs(e_end - thr.e0) / std::abs(thr.e0);
        emit("energy", Json()
                           .add("e0", thr.e0)
                           .add("e_end", e_end)
                           .add("drift", drift)
                           .add("steps", thr.ops)
                           .add("ok", std::isfinite(drift) && drift <= kPhiTolerance));
        gradient_check(thr, gate_idx_, "threads_final");
        gradient_check(seq, gate_idx_, "seq_final");
      }
    }
    if (tracer_.on()) isolated_calls(thr);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    emit("end", Json()
                    .add("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0)
                    .add("spans", static_cast<std::uint64_t>(tracer_.size())));
  }

  const Tracer& tracer() const { return tracer_; }

 private:
  /// Wakes every core before the timed set-up. It runs a small resident
  /// gemm on each pool worker and touches none of the solver's memory, so
  /// the set-up still pays what a user's first solve pays in a fresh
  /// process (page faults on new buffers, lazy plan construction).
  void spin_up() {
    ThreadPool& pool = ThreadPool::global();
    pool.parallel_for(0, pool.size(), [](std::size_t) {
      (void)blas::measure_peak_flops(96, 0.15);
    });
  }

  /// Builds a leg as a user would: solver construction, the translation
  /// precompute, then the first solve (merger: the integrator's initialize).
  Leg set_up(core::ExecutionMode mode, const std::string& name) {
    Leg leg;
    leg.name = name;
    leg.threads = mode == core::ExecutionMode::kThreads;
    core::FmmConfig config = w_.config;
    config.mode = mode;
    if (w_.dynamic) {
      leg.state.particles = w_.input;
      leg.state.velocity.assign(w_.input.size(), Vec3{});
    }
    const std::uint64_t op = next_op();
    Check c;
    std::string error;
    std::optional<core::FmmResult> r;
    const double t0 = now();
    double t1 = t0, t2 = t0;
    try {
      leg.solver = std::make_unique<core::FmmSolver>(config);
      t1 = now();
      (void)leg.solver->translations();
      t2 = now();
      if (w_.dynamic) {
        leg.integ = std::make_unique<core::LeapfrogIntegrator>(
            *leg.solver, core::ForceLaw::kGravity, w_.dt);
        leg.integ->initialize(leg.state);
      } else {
        r = leg.solver->solve(w_.input);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double t3 = now();
    const std::uint64_t root = tracer_.add(0, op, "core.setup", "core", t0, t3,
                                           {{"threads", leg.threads ? 1.0 : 0.0}});
    tracer_.add(root, op, "core.FmmSolver", "core", t0, t1);
    tracer_.add(root, op, "anderson.translations", "anderson", t1, t2);
    const std::uint64_t cold = tracer_.add(
        root, op, w_.dynamic ? "core.initialize" : "core.solve", "core", t2, t3);
    if (error.empty()) {
      if (w_.dynamic) {
        tracer_.add_solve_children(cold, op, t2, t3, leg.integ->last_breakdown(), {});
        c = check_state(leg);
        leg.e0 = leg.integ->energy(leg.state).total();
      } else {
        tracer_.add_solve_children(cold, op, t2, t3, r->breakdown, r->timeline);
        c = check_result(*r);
      }
    }
    emit("setup", Json()
                      .add("leg", name)
                      .add("s", t3 - t0)
                      .add("construct_s", t1 - t0)
                      .add("translations_s", t2 - t1)
                      .add("cold_s", t3 - t2));
    emit_op(name + "_cold", 0, t3 - t2, c, error);
    if (!error.empty()) throw std::runtime_error("set-up failed: " + error);
    return leg;
  }

  /// One timed warm solve (uniform, plummer) or leapfrog step (merger).
  /// A traced operation's time includes recording its spans.
  void timed_op(Leg& leg, bool traced) {
    traced = traced && tracer_.on();
    const std::uint64_t op = next_op();
    Check c;
    std::string error;
    const double t0 = now();
    double t1 = t0;
    try {
      if (w_.dynamic) {
        leg.integ->step(leg.state);
        t1 = now();
        if (traced) {
          const std::uint64_t root = tracer_.add(
              0, op, "core.step", "core", t0, t1,
              {{"threads", leg.threads ? 1.0 : 0.0}, {"warm", 1.0}});
          tracer_.add_solve_children(root, op, t0, t1, leg.integ->last_breakdown(), {});
          t1 = now();
        }
        c = check_state(leg);
        for (const Vec3& v : leg.state.velocity) c.finite = c.finite && finite(v);
      } else {
        const core::FmmResult r = leg.solver->solve(w_.input);
        t1 = now();
        if (traced) {
          const std::uint64_t root =
              tracer_.add(0, op, "core.solve", "core", t0, t1, solve_attrs(r, leg.threads));
          tracer_.add_solve_children(root, op, t0, t1, r.breakdown, r.timeline);
          t1 = now();
        }
        c = check_result(r);
      }
    } catch (const std::exception& e) {
      t1 = now();
      error = e.what();
    }
    leg.busy += t1 - t0;
    emit_op(leg.name, leg.ops++, t1 - t0, c, error, traced);
  }

  /// A static solve's outputs against the (once computed) reference.
  Check check_result(const core::FmmResult& r) {
    if (!gate_ref_) gate_ref_ = direct_at(w_.input, gate_idx_, softening());
    return check_outputs(r.phi, r.grad, gate_idx_, *gate_ref_);
  }

  /// A merger leg's potential after its latest force evaluation, against
  /// direct summation at the current positions.
  Check check_state(const Leg& leg) const {
    const Reference ref = direct_at(leg.state.particles, gate_idx_, softening());
    return check_outputs(leg.state.phi, {}, gate_idx_, ref);
  }

  /// The integrator keeps its accelerations private, so the gradient it
  /// consumes is checked by a solve of the leg's current state on the same
  /// solver (warm, untimed). A solve of unchanged positions leaves the
  /// incremental step state as it was.
  void gradient_check(Leg& leg, const std::vector<std::uint32_t>& idx,
                      const std::string& name) {
    Check c;
    std::string error;
    const std::uint64_t op = next_op();
    const double t0 = now();
    try {
      const core::FmmResult r = leg.solver->solve(leg.state.particles);
      const double t1 = now();
      const std::uint64_t root =
          tracer_.add(0, op, "core.solve", "core", t0, t1, solve_attrs(r, leg.threads));
      tracer_.add_solve_children(root, op, t0, t1, r.breakdown, r.timeline);
      const Reference ref = direct_at(leg.state.particles, idx, softening());
      c = check_outputs(r.phi, r.grad, idx, ref);
    } catch (const std::exception& e) {
      error = e.what();
    }
    emit_op(name, 0, now() - t0, c, error);
  }

  double softening() const { return w_.config.kernel.softening; }

  /// Spans around direct calls to each layer's public functions, on the
  /// workload's own data (trace runs only).
  void isolated_calls(const Leg& leg) {
    const ParticleSet& p = w_.dynamic ? leg.state.particles : w_.input;
    const core::FmmConfig& c = w_.config;
    const int depth = core::depth_for(c, p.size());
    const tree::Hierarchy hier(tree::cube_containing(p.bounds()), depth);
    const dp::BlockLayout layout(hier.boxes_per_side(depth), {1, 1, 1});
    dp::BoxedParticles boxed;
    dp::SortScratch scratch;
    repeat("dp.sort_iso", "dp", [&] {
      dp::coordinate_sort(p, hier, layout, boxed, &scratch);
    });

    std::vector<std::uint32_t> occupied;
    for (std::size_t r = 0; r + 1 < boxed.box_begin.size(); ++r)
      if (boxed.count_in_rank(r) > 0) occupied.push_back(boxed.rank_to_flat[r]);
    tree::ActiveLevels act, pruned;
    std::vector<std::vector<std::uint32_t>> counts;
    std::vector<std::vector<std::uint8_t>> pruned_leaf;
    tree::LeafFront front, scratch_front;
    std::vector<std::uint32_t> leaf_counts;
    const std::vector<tree::Offset> near = tree::near_field_offsets(c.separation);
    const std::vector<tree::Offset> near_half =
        tree::near_field_half_offsets(c.separation);
    tree::RefinementCostParams cost;
    cost.k = c.params.k();
    cost.supernodes = c.supernodes;
    static constexpr int kLadder[] = {8, 16, 32, 64, 128};
    repeat("tree.build_iso", "tree", [&] {
      tree::build_active_levels(hier, occupied, act);
      const tree::LevelActiveSet& fine = act.levels[static_cast<std::size_t>(depth)];
      leaf_counts.resize(fine.count());
      for (std::size_t a = 0; a < fine.count(); ++a)
        leaf_counts[a] = boxed.count_in_rank(boxed.flat_to_rank[fine.boxes[a]]);
      tree::build_subtree_counts(hier, act, leaf_counts, counts);
      const int ncrit = tree::select_ncrit(hier, act, counts, near, near_half, cost,
                                           kLadder, 2, scratch_front);
      tree::build_leaf_front(hier, act, counts, ncrit, 2, near, front);
      tree::build_front_levels(hier, act, front, pruned, pruned_leaf);
    });

    // P2P on leaf-sized blocks of the sorted particles: targets one leaf,
    // sources the next, at the mean occupancy of the occupied leaves.
    const std::size_t leaf = std::max<std::size_t>(
        1, p.size() / std::max<std::size_t>(1, occupied.size()));
    const std::size_t blocks = std::min<std::size_t>(64, p.size() / (2 * leaf));
    std::vector<double> phi(leaf);
    std::vector<Vec3> grad(leaf);
    const pkern::KernelBackend& kern = pkern::active_kernel();
    const ParticleSet& s = boxed.sorted;
    const double p2p_flops = static_cast<double>(blocks * leaf * leaf) *
                             static_cast<double>(baseline::direct_pair_flops(true));
    repeat("pkern.p2p_iso", "pkern", [&] {
      for (std::size_t b = 0; b < blocks; ++b)
        kern.p2p(s.x().data(), s.y().data(), s.z().data(), s.q().data(),
                 2 * b * leaf, (2 * b + 1) * leaf, (2 * b + 1) * leaf,
                 (2 * b + 2) * leaf, phi.data(), grad.data(), 0.0);
    }, p2p_flops);

    // The far chain's aggregated shape: rows of boxes times a K x K
    // translation matrix.
    const std::size_t k = c.params.k(), rows = 512;
    std::vector<double> a(rows * k, 1.0), t(k * k, 0.5), out(rows * k, 0.0);
    repeat("blas.gemm_iso", "blas", [&] {
      blas::gemm(a.data(), k, t.data(), k, out.data(), k, rows, k, k, true);
    }, static_cast<double>(blas::gemm_flops(rows, k, k)));
  }

  /// Times `body` for ~0.2 s in at least five spans. Calls are batched so
  /// each span covers at least 2 ms; a span records its call count.
  template <typename Body>
  void repeat(const std::string& name, const std::string& layer, Body&& body,
              double flops = 0.0) {
    double t0 = now();
    body();  // the first call also grows the buffers
    body();
    const double once = std::max(now() - t0, 1e-9) / 2.0;
    const int calls = std::max(1, static_cast<int>(std::ceil(2e-3 / once)));
    const double start = now();
    for (int i = 0; i < 5 || now() - start < 0.2; ++i) {
      t0 = now();
      for (int n = 0; n < calls; ++n) body();
      tracer_.add(0, next_op(), name, layer, t0, now(),
                  {{"calls", static_cast<double>(calls)}, {"flops", flops}});
    }
  }

  std::uint64_t next_op() { return ++op_counter_; }

  // Share of the timed window given to the sequential leg, and the fewest
  // operations per leg: with 21 threaded ones, the tail percentile (ten
  // samples beyond it) lies above the median.
  static constexpr double kSeqShare = 0.4;
  static constexpr std::uint64_t kMinThreadedOps = 21;
  static constexpr std::uint64_t kMinSeqOps = 3;

  Workload w_;
  double seconds_;
  bool setup_only_;
  Tracer tracer_;
  std::vector<std::uint32_t> gate_idx_, full_idx_;
  std::optional<Reference> gate_ref_;
  std::uint64_t op_counter_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--spans") a.spans = val;
    else if (key == "--setup-only") a.setup_only = val == "1";
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace && a.spans.empty())
    throw std::invalid_argument("--trace 1 needs --spans FILE");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    Workload w = make_workload(args.workload, args.seed);
    emit_host();
    Runner runner(std::move(w), args.seed, args.seconds, args.trace,
                  args.setup_only);
    runner.run();
    if (args.trace) runner.tracer().write(args.spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hfmm_bench: %s\n", e.what());
    return 2;
  }
  return 0;
}
