// coreness-ranks: the `kcore_tool coreness` path at 2 ranks with
// per-rank compute.
//
// Each repetition loads the binary graph, builds CompactElimination,
// and drives an Engine over the process transport itself (rank workers
// load their own slice from the file), so the benchmark can time Start,
// every Step and FetchRankState from outside, and see the transport's
// calls through a forwarding Transport. The reference is the exact
// sequential peel, seq::WeightedCoreness.
#include <cstring>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/compact.h"
#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/binio.h"
#include "graph/generators.h"
#include "seq/kcore.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using kcore::distsim::TransportKind;

constexpr double kEps = 0.5;
constexpr int kRanks = 2;

std::string InputPath(const Options& opts) {
  return opts.dir + "/coreness-ranks.bin";
}

// Forwards every call to the transport MakeTransport built, recording a
// span around each call the engine makes into the transport layer.
class TracedTransport final : public kcore::distsim::Transport {
 public:
  TracedTransport(std::unique_ptr<Transport> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  void Start(kcore::graph::NodeId n, int num_ranks,
             const std::uint64_t* rank_bounds) override {
    Scope s(tracer_, "distsim.Transport::Start");
    inner_->Start(n, num_ranks, rank_bounds);
  }
  kcore::distsim::WireVolume Exchange(
      const kcore::distsim::ExchangeContext& ctx) override {
    Scope s(tracer_, "distsim.Transport::Exchange");
    return inner_->Exchange(ctx);
  }
  bool SupportsRankCompute() const override {
    return inner_->SupportsRankCompute();
  }
  void PrepareRankCompute(
      const kcore::distsim::RankComputeSetup& setup) override {
    inner_->PrepareRankCompute(setup);
  }
  kcore::distsim::RankRoundResult RankStep(int round) override {
    Scope s(tracer_, "distsim.Transport::RankStep");
    return inner_->RankStep(round);
  }
  void CollectRankState(kcore::distsim::Protocol& p,
                        std::vector<kcore::distsim::Payload>& prev_bcast,
                        std::vector<char>& prev_has,
                        std::vector<char>& halted) override {
    Scope s(tracer_, "distsim.Transport::CollectRankState");
    inner_->CollectRankState(p, prev_bcast, prev_has, halted);
  }

 private:
  std::unique_ptr<Transport> inner_;
  Tracer& tracer_;
};

}  // namespace

bool GenCorenessRanks(const Options& opts) {
  kcore::util::Rng rng(opts.seed);
  const kcore::graph::NodeId n = opts.small ? 3000 : 60000;
  const auto g = kcore::graph::WithIntegerWeights(
      kcore::graph::BarabasiAlbert(n, 4, rng), 4, rng);
  return kcore::graph::SaveBinary(g, InputPath(opts));
}

bool RunCorenessRanks(const Options& opts, Tracer& tracer, Report& report) {
  const std::string path = InputPath(opts);
  const auto info = kcore::graph::ReadBinaryInfo(path);
  if (!info) return false;
  const auto n = static_cast<kcore::graph::NodeId>(info->num_nodes);
  const int T = kcore::core::RoundsForEpsilon(n, kEps);
  report.Describe("input: Barabasi-Albert n=" + std::to_string(n) +
                  " m=" + std::to_string(info->num_edges) +
                  " integer weights 1..4; " + std::to_string(kRanks) +
                  " ranks, per-rank compute, T=" + std::to_string(T) +
                  " rounds (eps=0.5)");

  Timings times;
  std::vector<double> round_ms;  // Engine::Step, traced repetitions
  std::map<std::string, std::vector<double>> layer;
  std::vector<double> first_b;
  double ratio = 0.0;
  Counts counts;

  const auto rep = [&](int i, bool traced) {
    Scope rep_span(tracer, "bench.rep");
    const double t0 = Now();
    auto loaded = Traced(tracer, "graph.LoadBinary",
                         [&] { return kcore::graph::LoadBinary(path); });
    if (!loaded) {
      report.Op(false, "LoadBinary failed");
      return;
    }
    const kcore::graph::Graph& g = loaded->graph;
    kcore::core::CompactOptions copts;
    copts.rounds = T;
    copts.transport = TransportKind::kProcess;
    copts.ranks = kRanks;
    copts.per_rank_compute = true;
    std::optional<kcore::core::CompactElimination> proto;
    Traced(tracer, "core.CompactElimination", [&] { proto.emplace(g, copts); });
    auto engine = std::make_unique<kcore::distsim::Engine>(g, 1);
    engine->SetTransport(std::make_unique<TracedTransport>(
        kcore::distsim::MakeTransport(TransportKind::kProcess), tracer));
    engine->SetRankCount(kRanks);
    engine->SetPerRankCompute(true);
    engine->SetGraphPath(path);
    Traced(tracer, "distsim.Engine::Start", [&] { engine->Start(*proto); });
    const double t1 = Now();
    for (int r = 0; r < T; ++r) {
      Traced(tracer, "distsim.Engine::Step", [&] { engine->Step(*proto); });
    }
    Traced(tracer, "distsim.Engine::FetchRankState",
           [&] { engine->FetchRankState(*proto); });
    const double t2 = Now();

    const kcore::distsim::Totals tot = engine->totals();
    std::size_t node_rounds = 0;
    for (const auto& st : engine->history()) node_rounds += st.active_nodes;
    counts.Check(report,
                 {{"distsim.rounds", D(tot.rounds)},
                  {"distsim.active_node_rounds", D(node_rounds)},
                  {"distsim.messages", D(tot.messages)},
                  {"distsim.entries", D(tot.entries)},
                  {"distsim.bcast_bytes_sent", D(tot.bcast_bytes_sent)},
                  {"distsim.bcast_bytes_per_neighbor",
                   D(tot.bcast_bytes_per_neighbor)}});
    // Shuts the rank workers down and reaps them.
    Traced(tracer, "distsim.Engine::~Engine", [&] { engine.reset(); });

    const double t3 = Now();
    const std::vector<double> c = Traced(
        tracer, "seq.WeightedCoreness",
        [&] { return kcore::seq::WeightedCoreness(g); });
    const double t4 = Now();

    // Lemma III.2 and Theorem I.1: c(v) <= b_v <= 2(1+eps) c(v).
    std::vector<double> b = proto->b();
    if (opts.corrupt && i == 1 && !b.empty()) b[0] = 4.0 * b[0] + 1.0;
    bool ok = b.size() == c.size();
    double max_ratio = 0.0;
    for (std::size_t v = 0; ok && v < b.size(); ++v) {
      if (c[v] <= 0.0) continue;
      const double q = b[v] / c[v];
      max_ratio = std::max(max_ratio, q);
      if (q < 1.0 || q > 2.0 * (1.0 + kEps)) ok = false;
    }
    if (first_b.empty()) {
      first_b = b;
      ratio = max_ratio;
    } else if (b.size() != first_b.size() ||
               std::memcmp(b.data(), first_b.data(),
                           b.size() * sizeof(double)) != 0) {
      ok = false;  // repetitions, traced or not, must agree bit for bit
    }
    report.Op(ok, "coreness-ranks: b_v outside [c(v), 2(1+eps)c(v)] or "
                  "differs from the first repetition");

    if (i == 0) return;  // warm-up
    times.Add(traced, t1 - t0, t2 - t1, t4 - t3);
    if (!traced) return;
    for (const double d : tracer.Durations("distsim.Engine::Step", i)) {
      round_ms.push_back(d * 1e3);
    }
    const double step = tracer.Total("distsim.Engine::Step", i);
    const double coord = tracer.Self("distsim.Engine::Step", i);
    layer["graph.load_s"].push_back(tracer.Total("graph.LoadBinary", i));
    layer["core.init_s"].push_back(
        tracer.Total("core.CompactElimination", i));
    layer["distsim.start_s"].push_back(
        tracer.Total("distsim.Engine::Start", i));
    layer["distsim.transport_start_s"].push_back(
        tracer.Total("distsim.Transport::Start", i));
    layer["distsim.step_s"].push_back(step);
    layer["distsim.rank_step_s"].push_back(step - coord);
    layer["distsim.coordinator_s"].push_back(coord);
    layer["distsim.fetch_s"].push_back(
        tracer.Total("distsim.Engine::FetchRankState", i));
    layer["seq.coreness_s"].push_back(
        tracer.Total("seq.WeightedCoreness", i));
  };
  const RssProbe rss = ProbeRss(rep);
  report.Op(rss.ok, "the one-pass memory probe failed");
  const int reps = RepLoop(opts, tracer, 4, rep) - 1;

  if (!opts.trace) {
    AddEndToEnd(report, times, ratio, rss.peak_mb);
  } else {
    Layers l;
    for (const auto& [name, xs] : layer) l.SetMedian(name, xs);
    l.Set("distsim.round_ms_p50", Pctl(round_ms, 0.5), round_ms.size());
    l.Set("distsim.round_ms_p90", Pctl(round_ms, 0.9), round_ms.size());
    l.Set("distsim.worker_rss_mb", rss.children_mb);
    for (const auto& [name, v] : counts.values()) l.Set(name, v);
    l.AddTo(report, times);
  }
  NoteNoLatency(report);
  report.Describe("repetitions: 1 warm-up + " + std::to_string(reps) +
                  " warm");
  return true;
}

}  // namespace perfbench
