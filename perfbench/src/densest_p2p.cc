// densest-p2p: the `community_density` path.
//
// Each repetition loads the binary graph and runs the four-phase weak
// densest pipeline (RunWeakDensest, gamma = 3, batch aggregation) in
// the engine on the shared-memory transport on one thread. Phase 1 sends
// 1-word broadcasts; phase 4 sends (2T+1)-word point-to-point messages
// through the engine's census and Exchange. The reference is Charikar's
// sequential greedy peel.
//
// One thread, because a round waits for its slowest worker: on a shared
// 4-vCPU host a 3-thread pool measured whichever neighbour held a core.
//
// How much p2p traffic phases 2-4 carry depends on the forest each graph
// grows, so one graph per seed would make the seed decide the cost: `gen`
// writes a pool of kPool graphs, repetition i runs graph i mod kPool,
// and the timings are medians over the pool.
#include <cmath>
#include <optional>

#include "bench.h"
#include "core/densest.h"
#include "graph/binio.h"
#include "graph/generators.h"
#include "seq/charikar.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int kPool = 45;  // odd, so traced (odd) repetitions see every graph
constexpr double kGamma = 3.0;
constexpr int kThreads = 1;
// community_density's planted family (communities of ~100 nodes,
// p_in = 0.25, about 2.4 expected cross-community neighbors), scaled up
// by adding communities.
constexpr kcore::graph::NodeId kCommunitySize = 100;
constexpr double kPin = 0.25;
constexpr double kCrossDegree = 2.4;

std::string InputPath(const Options& opts, int j) {
  return opts.dir + "/densest-p2p-" + std::to_string(j) + ".bin";
}

// graph::PlantedPartition's distribution (node v in community
// v mod communities; each intra-community pair an edge with probability
// p_in, each other pair with p_out), drawn in O(n + m) by skipping
// geometrically over the cross-community pairs instead of testing all
// n^2/2 pairs.
kcore::graph::Graph PlantedPartition(kcore::graph::NodeId n,
                                     kcore::graph::NodeId communities,
                                     double p_in, double p_out,
                                     kcore::util::Rng& rng) {
  kcore::graph::GraphBuilder b(n);
  const double log_q = std::log1p(-p_out);
  for (kcore::graph::NodeId i = 0; i < n; ++i) {
    // Next candidate j > i: a geometric skip over pairs (i, *).
    double j = i;
    while (true) {
      j += 1.0 + std::floor(std::log1p(-rng.NextDouble()) / log_q);
      if (j >= n) break;
      const auto v = static_cast<kcore::graph::NodeId>(j);
      if (v % communities != i % communities) b.AddEdge(i, v, 1.0);
    }
    for (kcore::graph::NodeId v = i + communities; v < n; v += communities) {
      if (rng.NextBool(p_in)) b.AddEdge(i, v, 1.0);
    }
  }
  return std::move(b).Build();
}

// rho(S) recomputed from the adjacency lists: each internal edge is met
// from both ends, a self-loop once.
double SubsetDensity(const kcore::graph::Graph& g,
                     const std::vector<kcore::graph::NodeId>& members,
                     std::vector<char>& mark) {
  for (const auto v : members) mark[v] = 1;
  double twice = 0.0;
  for (const auto v : members) {
    for (const auto& a : g.Neighbors(v)) {
      if (mark[a.to]) twice += a.to == v ? 2.0 * a.w : a.w;
    }
  }
  for (const auto v : members) mark[v] = 0;
  return members.empty() ? 0.0 : twice / 2.0 / D(members.size());
}

}  // namespace

bool GenDensestP2p(const Options& opts) {
  kcore::util::Rng rng(opts.seed);
  const kcore::graph::NodeId n = opts.small ? 1200 : 12000;
  for (int j = 0; j < kPool; ++j) {
    const auto g = PlantedPartition(n, n / kCommunitySize, kPin,
                                    kCrossDegree / n, rng);
    if (!kcore::graph::SaveBinary(g, InputPath(opts, j))) return false;
  }
  return true;
}

bool RunDensestP2p(const Options& opts, Tracer& tracer, Report& report) {
  std::size_t n = 0, m_min = ~std::size_t{0}, m_max = 0;
  for (int j = 0; j < kPool; ++j) {
    const auto info = kcore::graph::ReadBinaryInfo(InputPath(opts, j));
    if (!info) return false;
    n = info->num_nodes;
    m_min = std::min<std::size_t>(m_min, info->num_edges);
    m_max = std::max<std::size_t>(m_max, info->num_edges);
  }
  report.Describe("input: " + std::to_string(kPool) +
                  " planted-partition graphs n=" + std::to_string(n) +
                  " m=" + std::to_string(m_min) + ".." +
                  std::to_string(m_max) + ", " +
                  std::to_string(n / kCommunitySize) +
                  " communities; RunWeakDensest gamma=3, threads=" +
                  std::to_string(kThreads) + ", shared memory");

  Timings times;
  std::map<std::string, std::vector<double>> layer;
  // Per pool graph: its first result, which every later repetition on
  // it must reproduce bit for bit, and its count metrics.
  std::vector<std::optional<kcore::core::WeakDensestResult>> first(kPool);
  std::vector<Counts> counts(kPool);
  double ratio = 0.0;

  const auto rep = [&](int i, bool traced) {
    const std::string path = InputPath(opts, i % kPool);
    Scope rep_span(tracer, "bench.rep");
    const double t0 = Now();
    auto loaded = Traced(tracer, "graph.LoadBinary",
                         [&] { return kcore::graph::LoadBinary(path); });
    if (!loaded) {
      report.Op(false, "LoadBinary failed");
      return;
    }
    const kcore::graph::Graph& g = loaded->graph;
    const double t1 = Now();
    kcore::core::WeakDensestOptions dopts;
    dopts.gamma = kGamma;
    dopts.num_threads = kThreads;
    auto r = Traced(tracer, "core.RunWeakDensest",
                    [&] { return kcore::core::RunWeakDensest(g, dopts); });
    const double t2 = Now();
    const auto ch = Traced(tracer, "seq.CharikarDensest",
                           [&] { return kcore::seq::CharikarDensest(g); });
    const double t3 = Now();

    // Every returned subset's density, recomputed from the graph, is the
    // reported one; the best is a gamma-approximation (Theorem I.3), so
    // it is within gamma of Charikar's density, which is <= rho*.
    if (opts.corrupt && i == 1 && !r.subsets.empty()) {
      r.subsets[0].density += 1.0;
    }
    std::vector<char> mark(g.num_nodes(), 0);
    bool ok = !r.subsets.empty();
    double best = 0.0;
    for (const auto& s : r.subsets) {
      ok = ok && SubsetDensity(g, s.members, mark) == s.density;
      best = std::max(best, s.density);
    }
    ok = ok && best == r.best_density &&
         r.best_density * kGamma >= ch.density * (1.0 - 1e-12);
    auto& ref = first[i % kPool];
    if (!ref) {
      ref = r;
      ratio = std::max(ratio, ch.density / r.best_density);
    } else {
      ok = ok && r.selected == ref->selected &&
           r.leader_of == ref->leader_of &&
           r.best_density == ref->best_density;
    }
    report.Op(ok, "densest-p2p: subset density mismatch, gamma bound "
                  "violated, or result differs from the first repetition");
    const kcore::distsim::Totals& tot = r.totals;
    counts[i % kPool].Check(
        report, {{"core.phase1_rounds", D(r.rounds_phase1)},
                 {"core.phase2_rounds", D(r.rounds_phase2)},
                 {"core.phase3_rounds", D(r.rounds_phase3)},
                 {"core.phase4_rounds", D(r.rounds_phase4)},
                 {"core.max_payload_entries", D(tot.max_entries_per_message)},
                 {"distsim.rounds", D(tot.rounds)},
                 {"distsim.messages", D(tot.messages)},
                 {"distsim.entries", D(tot.entries)},
                 {"distsim.bcast_bytes_sent", D(tot.bcast_bytes_sent)},
                 {"distsim.bcast_bytes_per_neighbor",
                  D(tot.bcast_bytes_per_neighbor)}});

    if (i == 0) return;  // warm-up
    times.Add(traced, t1 - t0, t2 - t1, t3 - t2);
    if (!traced) return;
    layer["graph.load_s"].push_back(tracer.Total("graph.LoadBinary", i));
    layer["seq.charikar_s"].push_back(tracer.Total("seq.CharikarDensest", i));
  };
  const RssProbe rss = ProbeRss(rep);
  report.Op(rss.ok, "the one-pass memory probe failed");
  const int reps = RepLoop(opts, tracer, 4, rep) - 1;

  if (!opts.trace) {
    AddEndToEnd(report, times, ratio, rss.peak_mb);
  } else {
    Layers l;
    for (const auto& [name, xs] : layer) l.SetMedian(name, xs);
    // Counts of repetition 1's graph (the first traced repetition).
    for (const auto& [name, v] : counts[1 % kPool].values()) l.Set(name, v);
    l.AddTo(report, times);
  }
  NoteNoLatency(report);
  report.Describe("repetitions: 1 warm-up + " + std::to_string(reps) +
                  " warm");
  return true;
}

}  // namespace perfbench
