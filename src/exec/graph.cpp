#include "hfmm/exec/graph.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace hfmm::exec {

struct PhaseGraph::Node {
  std::string name;
  std::string phase;
  ChunkBody body;
  std::size_t range = 0;
  std::size_t max_chunks = 0;  // 0 = one chunk per worker
  int priority = 0;
  // Per-item costs of a weighted stage (empty = equal-count split). The
  // chunk bounds are derived from these at run(), once the worker count
  // resolves max_chunks == 0.
  std::vector<std::uint64_t> weights;
  std::vector<std::size_t> bounds;  // size chunks + 1 when weighted
  double cost_imbalance = 0.0;
  std::vector<NodeId> succ;
  std::size_t n_preds = 0;

  // Run state. `next_chunk` is only mutated under the scheduler mutex;
  // `unfinished` and `worker_mask` are decremented/merged lock-free on the
  // completion path (acq_rel orders a chunk's writes before its successors
  // observe the node as complete).
  std::size_t chunks = 0;
  std::size_t next_chunk = 0;
  std::atomic<std::size_t> unfinished{0};
  std::atomic<std::size_t> deps_remaining{0};
  std::atomic<std::uint64_t> worker_mask{0};
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

PhaseGraph::PhaseGraph() = default;
PhaseGraph::~PhaseGraph() = default;

NodeId PhaseGraph::add(std::string name, std::string phase, std::size_t range,
                       std::size_t max_chunks, ChunkBody body, int priority) {
  nodes_.push_back(std::make_unique<Node>());
  Node& n = *nodes_.back();
  n.name = std::move(name);
  n.phase = std::move(phase);
  n.body = std::move(body);
  n.range = range;
  n.max_chunks = max_chunks;
  n.priority = priority;
  return nodes_.size() - 1;
}

NodeId PhaseGraph::add_weighted(std::string name, std::string phase,
                                std::span<const std::uint64_t> weights,
                                std::size_t max_chunks, ChunkBody body,
                                int priority) {
  const NodeId id = add(std::move(name), std::move(phase), weights.size(),
                        max_chunks, std::move(body), priority);
  nodes_[id]->weights.assign(weights.begin(), weights.end());
  return id;
}

NodeId PhaseGraph::add_serial(std::string name, std::string phase,
                              std::function<void(PhaseStats&)> body,
                              int priority) {
  return add(std::move(name), std::move(phase), 1, 1,
             [body = std::move(body)](std::size_t, std::size_t, std::size_t,
                                      PhaseStats& stats) { body(stats); },
             priority);
}

void PhaseGraph::depend(NodeId node, NodeId pred) {
  if (node >= nodes_.size() || pred >= nodes_.size() || node == pred)
    throw std::invalid_argument("PhaseGraph::depend: bad node id");
  nodes_[pred]->succ.push_back(node);
  nodes_[node]->n_preds += 1;
}

namespace {

// Static split of [0, range) into `chunks` contiguous chunks — the same
// formula ThreadPool::parallel_chunks uses, so porting a phase onto the
// graph preserves its per-chunk work partition.
void chunk_bounds(std::size_t range, std::size_t chunks, std::size_t c,
                  std::size_t& lo, std::size_t& hi) {
  const std::size_t step = chunks == 0 ? range : (range + chunks - 1) / chunks;
  lo = std::min(range, c * step);
  hi = std::min(range, lo + step);
}

}  // namespace

std::vector<std::size_t> weighted_split(
    std::span<const std::uint64_t> weights, std::size_t max_chunks) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> bounds;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(max_chunks, n));
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  long double total = 0;
  for (const std::uint64_t w : weights) total += static_cast<long double>(w);
  const long double per = total / static_cast<long double>(chunks);
  std::size_t i = 0;
  long double acc = 0;
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    // Close the chunk at whichever end nearer its prefix target: the first
    // item that reaches the target, or the one before it. Every chunk keeps
    // at least one item, and leaves one per remaining chunk.
    const long double target = per * static_cast<long double>(c + 1);
    const std::size_t min_i = bounds.back() + 1;
    const std::size_t max_i = n - (chunks - 1 - c);
    while (i < max_i && (i < min_i || acc < target)) {
      acc += static_cast<long double>(weights[i]);
      ++i;
    }
    if (i > min_i && acc >= target) {
      const long double before = acc - static_cast<long double>(weights[i - 1]);
      if (target - before < acc - target) {
        acc = before;
        --i;
      }
    }
    bounds.push_back(i);
  }
  bounds.push_back(n);
  return bounds;
}

void PhaseGraph::finish(std::size_t workers,
                        std::vector<PhaseBreakdown>& worker_stats,
                        PhaseBreakdown& breakdown,
                        std::vector<StageTiming>* timeline) {
  // Single merge point: per-worker counters plus per-stage wall intervals.
  for (std::size_t w = 0; w < workers; ++w) breakdown += worker_stats[w];
  for (const auto& np : nodes_) {
    const Node& n = *np;
    breakdown[n.phase].seconds += n.end_seconds - n.start_seconds;
    if (n.cost_imbalance > breakdown[n.phase].cost_imbalance)
      breakdown[n.phase].cost_imbalance = n.cost_imbalance;
    if (timeline != nullptr) {
      StageTiming t;
      t.stage = n.name;
      t.phase = n.phase;
      t.start_seconds = n.start_seconds;
      t.end_seconds = n.end_seconds;
      t.chunks = n.chunks;
      t.cost_imbalance = n.cost_imbalance;
      std::uint64_t mask = n.worker_mask.load(std::memory_order_relaxed);
      while (mask != 0) {
        t.workers += mask & 1;
        mask >>= 1;
      }
      timeline->push_back(std::move(t));
    }
  }
}

void PhaseGraph::run(ThreadPool& pool, RunMode mode, PhaseBreakdown& breakdown,
                     std::vector<StageTiming>* timeline) {
  if (ran_)
    throw std::logic_error("PhaseGraph::run: graphs are single-use");
  ran_ = true;
  const std::size_t workers = pool.size();
  for (const auto& np : nodes_) {
    Node& n = *np;
    const std::size_t cap = n.max_chunks == 0 ? workers : n.max_chunks;
    n.chunks = std::max<std::size_t>(1, std::min(n.range, cap));
    if (!n.weights.empty()) {
      n.bounds = weighted_split(n.weights, cap);
      n.chunks = n.bounds.size() - 1;
      long double total = 0, max_cost = 0;
      for (std::size_t c = 0; c + 1 < n.bounds.size(); ++c) {
        long double cost = 0;
        for (std::size_t i = n.bounds[c]; i < n.bounds[c + 1]; ++i)
          cost += static_cast<long double>(n.weights[i]);
        total += cost;
        if (cost > max_cost) max_cost = cost;
      }
      n.cost_imbalance =
          total > 0 ? static_cast<double>(
                          max_cost * static_cast<long double>(n.chunks) /
                          total)
                    : 1.0;
    }
    n.unfinished.store(n.chunks, std::memory_order_relaxed);
    n.deps_remaining.store(n.n_preds, std::memory_order_relaxed);
  }
  if (mode == RunMode::kInline || workers == 1)
    run_inline(pool, breakdown, timeline);
  else
    run_concurrent(pool, breakdown, timeline);
}

void PhaseGraph::run_inline(ThreadPool& pool, PhaseBreakdown& breakdown,
                            std::vector<StageTiming>* timeline) {
  (void)pool;
  WallTimer epoch;
  std::vector<PhaseBreakdown> worker_stats(1);
  // Kahn topological order, lowest node id first — builders add stages in
  // pipeline order, so this reproduces the classic sequential drive loop.
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id)
    if (nodes_[id]->n_preds == 0) ready.push_back(id);
  std::size_t done = 0;
  while (!ready.empty()) {
    const auto it = std::min_element(ready.begin(), ready.end());
    const NodeId id = *it;
    ready.erase(it);
    Node& n = *nodes_[id];
    n.start_seconds = epoch.seconds();
    for (std::size_t c = 0; c < n.chunks; ++c) {
      std::size_t lo, hi;
      if (!n.bounds.empty()) {
        lo = n.bounds[c];
        hi = n.bounds[c + 1];
      } else {
        chunk_bounds(n.range, n.chunks, c, lo, hi);
      }
      n.body(c, lo, hi, worker_stats[0][n.phase]);
    }
    n.end_seconds = epoch.seconds();
    n.worker_mask.store(1, std::memory_order_relaxed);
    ++done;
    for (const NodeId s : n.succ)
      if (nodes_[s]->deps_remaining.fetch_sub(1, std::memory_order_relaxed) ==
          1)
        ready.push_back(s);
  }
  if (done != nodes_.size())
    throw std::logic_error("PhaseGraph::run: dependency cycle");
  finish(1, worker_stats, breakdown, timeline);
}

struct PhaseGraph::RunState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<NodeId> ready;  // claimable nodes (some chunks unclaimed)
  std::size_t completed = 0;
  bool aborted = false;
  std::exception_ptr error;
};

void PhaseGraph::run_concurrent(ThreadPool& pool, PhaseBreakdown& breakdown,
                                std::vector<StageTiming>* timeline) {
  {
    // Cycle pre-check: the inline runner detects a cycle as it goes, but the
    // concurrent worker loop would deadlock on one — verify up front.
    std::vector<std::size_t> deps(nodes_.size());
    std::vector<NodeId> order;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      deps[id] = nodes_[id]->n_preds;
      if (deps[id] == 0) order.push_back(id);
    }
    for (std::size_t i = 0; i < order.size(); ++i)
      for (const NodeId s : nodes_[order[i]]->succ)
        if (--deps[s] == 0) order.push_back(s);
    if (order.size() != nodes_.size())
      throw std::logic_error("PhaseGraph::run: dependency cycle");
  }
  const std::size_t workers = pool.size();
  std::vector<PhaseBreakdown> worker_stats(workers);
  RunState st;
  WallTimer epoch;
  for (NodeId id = 0; id < nodes_.size(); ++id)
    if (nodes_[id]->n_preds == 0) st.ready.push_back(id);
  const std::size_t total = nodes_.size();

  // Every pool worker runs the same loop: claim a chunk of the
  // best-priority ready node under the mutex, execute it unlocked, and on
  // a node's last chunk release its successors into the ready queue.
  pool.parallel_chunks(0, workers, [&](std::size_t me, std::size_t) {
    std::unique_lock lock(st.mutex);
    for (;;) {
      st.cv.wait(lock, [&] {
        return st.aborted || st.completed == total || !st.ready.empty();
      });
      if (st.aborted || st.completed == total) return;
      // Lowest priority value wins; ties go to the lowest node id so the
      // claim order is deterministic given identical queue contents.
      auto best = st.ready.begin();
      for (auto it = st.ready.begin() + 1; it != st.ready.end(); ++it)
        if (nodes_[*it]->priority < nodes_[*best]->priority ||
            (nodes_[*it]->priority == nodes_[*best]->priority && *it < *best))
          best = it;
      const NodeId id = *best;
      Node& n = *nodes_[id];
      const std::size_t c = n.next_chunk++;
      if (n.next_chunk == 1) n.start_seconds = epoch.seconds();
      if (n.next_chunk == n.chunks) st.ready.erase(best);
      lock.unlock();

      std::size_t lo, hi;
      if (!n.bounds.empty()) {
        lo = n.bounds[c];
        hi = n.bounds[c + 1];
      } else {
        chunk_bounds(n.range, n.chunks, c, lo, hi);
      }
      try {
        n.body(c, lo, hi, worker_stats[me][n.phase]);
      } catch (...) {
        lock.lock();
        if (!st.error) st.error = std::current_exception();
        st.aborted = true;
        st.cv.notify_all();
        return;
      }
      n.worker_mask.fetch_or(
          me < 64 ? (std::uint64_t{1} << me) : 0, std::memory_order_relaxed);

      bool node_done = false;
      if (n.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk: stamp the end, then release successors. The acq_rel
        // decrement chains every chunk's writes before the successors run.
        n.end_seconds = epoch.seconds();
        node_done = true;
        for (const NodeId s : n.succ) {
          if (nodes_[s]->deps_remaining.fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            lock.lock();
            st.ready.push_back(s);
            lock.unlock();
            st.cv.notify_all();
          }
        }
      }
      lock.lock();
      if (node_done && ++st.completed == total) st.cv.notify_all();
    }
  });

  if (st.error) std::rethrow_exception(st.error);
  if (st.completed != total)
    throw std::logic_error("PhaseGraph::run: dependency cycle");
  finish(workers, worker_stats, breakdown, timeline);
}

void run_graphs(std::span<PhaseGraph* const> graphs,
                std::span<PhaseBreakdown> breakdowns,
                std::vector<std::vector<StageTiming>>* timelines) {
  if (breakdowns.size() != graphs.size())
    throw std::invalid_argument("run_graphs: one breakdown per graph");
  if (timelines != nullptr && timelines->size() != graphs.size())
    throw std::invalid_argument("run_graphs: one timeline per graph");
  // Inline runs never touch the pool beyond size(); a single shared
  // one-thread pool keeps every unchunked stage at exactly one chunk on
  // every rank, matching the sequential reference's accumulation order.
  ThreadPool inline_pool(1);
  std::vector<std::exception_ptr> errors(graphs.size());
  std::vector<std::thread> threads;
  threads.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        graphs[i]->run(inline_pool, RunMode::kInline, breakdowns[i],
                       timelines != nullptr ? &(*timelines)[i] : nullptr);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace hfmm::exec
