// server-churn: the streaming coreness server under writes and reads.
//
// Each repetition seeds a fresh in-process CorenessServer from a
// power-law binary graph (the exact fixpoint is computed up front), then
// one closed-loop writer client streams a seeded sequence of update
// batches while one closed-loop reader client sends point queries until
// the writer is done. The churn is bench_dynamic's uniform mix and batch
// size: inserts between random endpoints, and deletes only of live
// inserted edges, so nothing is rejected. The reference is
// seq::WeightedCoreness of the final graph; the server's last snapshot
// must equal it bit for bit.
//
// Every round trip wakes a thread on another vCPU, and on a shared host
// such wakeups slow down far more than computation does in the host's
// slow phases. So the writer sends 20-update batches, and the reader
// thinks kReaderThink between queries instead of keeping two more vCPUs
// busy; both keep wakeups a small share of answer_s.
//
// Uniform churn on a power-law graph cascades now and then through a
// large shell, and a handful of such batches decide a stream's cost. So
// a run does not replay one stream: repetition i streams its own batches
// (seeded by the workload seed and i) into graph i mod kPool of a pool
// written by `gen`, and the timings are medians over those inputs.
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "bench.h"
#include "dynamic/client.h"
#include "dynamic/maintain.h"
#include "dynamic/server.h"
#include "graph/binio.h"
#include "graph/generators.h"
#include "seq/kcore.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using kcore::dynamic::EdgeUpdate;
using kcore::graph::NodeId;
using Stream = std::vector<std::vector<EdgeUpdate>>;

constexpr int kPool = 45;  // odd, so traced (odd) repetitions see every graph
constexpr double kDeleteShare = 0.4;
constexpr std::chrono::microseconds kReaderThink{250};

struct Sizes {
  NodeId n;
  int updates;  // per repetition
  int batch_size;
};

Sizes SizesFor(const Options& opts) {
  return opts.small ? Sizes{2000, 200, 20} : Sizes{10000, 1000, 20};
}

std::string InputPath(const Options& opts, int j) {
  return opts.dir + "/server-churn-" + std::to_string(j) + ".bin";
}

// Repetition `rep`'s update stream, a pure function of (seed, rep, n).
Stream MakeStream(const Options& opts, int rep, NodeId n) {
  const Sizes sz = SizesFor(opts);
  kcore::util::Rng rng = kcore::util::Rng(opts.seed).ForkKeyed(
      static_cast<std::uint64_t>(rep));
  std::vector<EdgeUpdate> live;
  Stream stream(static_cast<std::size_t>(sz.updates / sz.batch_size));
  for (auto& batch : stream) {
    for (int k = 0; k < sz.batch_size; ++k) {
      if (!live.empty() && rng.NextBool(kDeleteShare)) {
        const std::size_t idx = rng.NextBounded(live.size());
        EdgeUpdate op = live[idx];
        op.kind = EdgeUpdate::Kind::kDelete;
        live[idx] = live.back();
        live.pop_back();
        batch.push_back(op);
        continue;
      }
      const auto u = static_cast<NodeId>(rng.NextBounded(n));
      auto v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      const EdgeUpdate op{EdgeUpdate::Kind::kInsert, u, v, 1.0};
      live.push_back(op);
      batch.push_back(op);
    }
  }
  return stream;
}

// The seed graph with the stream applied: every seed edge plus every
// inserted edge that was not deleted again.
kcore::graph::Graph FinalGraph(const kcore::graph::Graph& g,
                               const Stream& stream) {
  std::vector<EdgeUpdate> live;
  for (const auto& batch : stream) {
    for (const EdgeUpdate& op : batch) {
      if (op.kind == EdgeUpdate::Kind::kInsert) {
        live.push_back(op);
        continue;
      }
      for (std::size_t i = live.size(); i-- > 0;) {
        if (live[i].u == op.u && live[i].v == op.v && live[i].w == op.w) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }
  kcore::graph::GraphBuilder b(g.num_nodes());
  for (const auto& e : g.edges()) b.AddEdge(e.u, e.v, e.w);
  for (const EdgeUpdate& op : live) b.AddEdge(op.u, op.v, op.w);
  return std::move(b).Build();
}

}  // namespace

bool GenServerChurn(const Options& opts) {
  kcore::util::Rng rng(opts.seed);
  for (int j = 0; j < kPool; ++j) {
    const auto g = kcore::graph::PowerLawConfiguration(SizesFor(opts).n, 2.3,
                                                       2, 60, rng);
    if (!kcore::graph::SaveBinary(g, InputPath(opts, j))) return false;
  }
  return true;
}

bool RunServerChurn(const Options& opts, Tracer& tracer, Report& report) {
  std::size_t m_min = ~std::size_t{0}, m_max = 0;
  NodeId n = 0;
  for (int j = 0; j < kPool; ++j) {
    const auto info = kcore::graph::ReadBinaryInfo(InputPath(opts, j));
    if (!info) return false;
    n = static_cast<NodeId>(info->num_nodes);
    m_min = std::min<std::size_t>(m_min, info->num_edges);
    m_max = std::max<std::size_t>(m_max, info->num_edges);
  }
  const Sizes sz = SizesFor(opts);
  report.Describe("input: " + std::to_string(kPool) +
                  " power-law configuration graphs n=" + std::to_string(n) +
                  " m=" + std::to_string(m_min) + ".." +
                  std::to_string(m_max) + "; per repetition " +
                  std::to_string(sz.updates / sz.batch_size) +
                  " batches of " + std::to_string(sz.batch_size) +
                  " uniform-churn updates, 1 writer + 1 reader client");

  Timings times;
  std::vector<double> queries_traced;
  std::deque<double> update_ms, query_ms;
  std::map<std::string, std::vector<double>> layer;
  std::map<std::string, double> counts;  // repetition 1's, when traced
  double ratio = 0.0;

  const auto rep = [&](int i, bool traced) {
    const std::string path = InputPath(opts, i % kPool);
    const Stream stream = MakeStream(opts, i, n);
    Scope rep_span(tracer, "bench.rep");
    const double t0 = Now();
    auto loaded = Traced(tracer, "graph.LoadBinary",
                         [&] { return kcore::graph::LoadBinary(path); });
    if (!loaded) {
      report.Op(false, "LoadBinary failed");
      return;
    }
    const kcore::graph::Graph& g = loaded->graph;
    kcore::dynamic::ServerOptions so;
    so.socket_path = opts.dir + "/server.sock";
    so.initial_nodes = n;
    so.allow_growth = false;
    const auto server = Traced(tracer, "dynamic.CorenessServer", [&] {
      return std::make_unique<kcore::dynamic::CorenessServer>(so, g);
    });
    kcore::dynamic::CorenessClient writer;
    kcore::dynamic::CorenessClient reader;
    const bool up = Traced(tracer, "dynamic.Start+Connect", [&] {
      return server->Start() &&
             writer.ConnectWithRetry(so.socket_path, 50, 20) &&
             reader.ConnectWithRetry(so.socket_path, 50, 20);
    });
    if (!up) {
      report.Op(false, "server start or client connect failed");
      server->Stop();
      return;
    }
    const double t1 = Now();

    // Writer and reader each run on their own thread (one trace track
    // per client thread); the reader stops once the writer's last ack
    // is in.
    std::atomic<bool> done{false};
    std::vector<double> rtt(stream.size(), 0.0);
    std::vector<char> ack_ok(stream.size(), 0);
    std::uint64_t recomputations = 0, changed = 0;
    double answer_begin = 0.0, answer_end = 0.0;
    std::thread writer_thread([&] {
      if (traced) tracer.NameThread("writer client, rep " + std::to_string(i));
      answer_begin = Now();
      // --corrupt drops repetition 1's last batch.
      const std::size_t batches = stream.size() - (opts.corrupt && i == 1);
      for (std::size_t k = 0; k < batches; ++k) {
        const double a = Now();
        const auto ack = Traced(tracer, "dynamic.ApplyUpdates",
                                [&] { return writer.ApplyUpdates(stream[k]); });
        rtt[k] = Now() - a;
        if (!ack) continue;
        ack_ok[k] = ack->applied == stream[k].size() && ack->rejected == 0;
        recomputations += ack->recomputations;
        changed += ack->changed;
      }
      answer_end = Now();
      done.store(true);
    });
    std::vector<double> qlat;
    std::vector<char> query_ok;
    qlat.reserve(1 << 14);
    query_ok.reserve(1 << 14);
    std::thread reader_thread([&] {
      if (traced) tracer.NameThread("reader client, rep " + std::to_string(i));
      kcore::util::Rng rng(opts.seed ^ 0x9e3779b9ULL);
      while (!done.load()) {
        const auto id = static_cast<NodeId>(rng.NextBounded(n));
        const double a = Now();
        const auto reply = Traced(tracer, "dynamic.QueryCoreness", [&] {
          return reader.QueryCoreness({&id, 1});
        });
        qlat.push_back(Now() - a);
        query_ok.push_back(reply && reply->values.size() == 1);
        std::this_thread::sleep_for(kReaderThink);
      }
    });
    writer_thread.join();
    reader_thread.join();
    const auto snap = server->snapshot();
    Traced(tracer, "dynamic.CorenessServer::Stop", [&] {
      writer.Close();
      reader.Close();
      server->Stop();
    });

    const kcore::graph::Graph final_graph = FinalGraph(g, stream);
    const double t3 = Now();
    const std::vector<double> reference =
        Traced(tracer, "seq.WeightedCoreness",
               [&] { return kcore::seq::WeightedCoreness(final_graph); });
    const double t4 = Now();

    // Every batch applied whole, every query answered, and the final
    // snapshot is the exact coreness of the final graph, bit for bit.
    for (const char ok : ack_ok) {
      report.Op(ok, "server-churn: a batch was not applied whole");
    }
    for (const char ok : query_ok) {
      report.Op(ok, "server-churn: a query failed");
    }
    report.Op(snap->coreness.size() == reference.size() &&
                  std::memcmp(snap->coreness.data(), reference.data(),
                              reference.size() * sizeof(double)) == 0 &&
                  snap->epoch == 1 + stream.size(),
              "server-churn: final snapshot differs from "
              "seq::WeightedCoreness of the final graph");
    const std::size_t nv = std::min(reference.size(), snap->coreness.size());
    for (std::size_t v = 0; v < nv; ++v) {
      if (reference[v] > 0.0) {
        ratio = std::max(ratio, snap->coreness[v] / reference[v]);
      }
    }

    if (traced) {
      // The same stream replayed straight through the maintenance
      // engine: the maintenance share of the round trips, and the
      // region sizes the acks do not carry.
      kcore::dynamic::DynamicCoreMaintenance m(g);
      std::size_t region = 0, rec = 0, chg = 0;
      Traced(tracer, "dynamic.DynamicCoreMaintenance", [&] {
        for (const auto& batch : stream) {
          for (const EdgeUpdate& op : batch) {
            const auto st = op.kind == EdgeUpdate::Kind::kInsert
                                ? m.InsertEdge(op.u, op.v, op.w)
                                : m.DeleteEdge(op.u, op.v, op.w);
            region += st.region;
            rec += st.recomputations;
            chg += st.changed;
          }
        }
      });
      report.Op(rec == recomputations && chg == changed &&
                    m.coreness() == reference,
                "server-churn: replayed maintenance disagrees with the "
                "server");
      if (i == 1) {
        counts = {{"dynamic.recomputations", D(recomputations)},
                  {"dynamic.changed", D(changed)},
                  {"dynamic.region", D(region)}};
      }
    }

    if (i == 0) return;  // warm-up
    times.Add(traced, t1 - t0, answer_end - answer_begin, t4 - t3);
    if (!traced) {
      for (const double x : rtt) update_ms.push_back(x * 1e3);
      for (const double x : qlat) query_ms.push_back(x * 1e3);
      return;
    }
    queries_traced.push_back(D(qlat.size()));
    const double apply = tracer.Total("dynamic.ApplyUpdates", i);
    const double maintain = tracer.Total("dynamic.DynamicCoreMaintenance", i);
    layer["graph.load_s"].push_back(tracer.Total("graph.LoadBinary", i));
    layer["dynamic.fixpoint_s"].push_back(
        tracer.Total("dynamic.CorenessServer", i));
    layer["dynamic.apply_rtt_s"].push_back(apply);
    layer["dynamic.maintain_s"].push_back(maintain);
    layer["dynamic.serve_s"].push_back(apply - maintain);
    layer["seq.coreness_s"].push_back(tracer.Total("seq.WeightedCoreness", i));
  };
  const RssProbe rss = ProbeRss(rep);
  report.Op(rss.ok, "the one-pass memory probe failed");
  const int reps = RepLoop(opts, tracer, 4, rep) - 1;

  const int w = static_cast<int>(times.answer.size());
  const std::vector<double> upd(update_ms.begin(), update_ms.end());
  const std::vector<double> qry(query_ms.begin(), query_ms.end());
  const std::vector<Metric> latency = {
      {"update_p50_ms", Pctl(upd, 0.5), "ms", upd.size(), w},
      {"update_p99_ms", Pctl(upd, 0.99), "ms", upd.size(), w},
      {"query_p50_ms", Pctl(qry, 0.5), "ms", qry.size(), w},
      {"query_p99_ms", Pctl(qry, 0.99), "ms", qry.size(), w},
  };
  if (!opts.trace) {
    AddEndToEnd(report, times, ratio, rss.peak_mb);
    for (const Metric& m : latency) report.Note(m);
  } else {
    Layers l;
    for (const auto& [name, xs] : layer) l.SetMedian(name, xs);
    l.SetMedian("dynamic.queries", queries_traced);
    for (const auto& [name, v] : counts) l.Set(name, v);
    // Client-visible latency, from the untraced repetitions.
    for (const Metric& m : latency) l.Set("dynamic." + m.name, m.value,
                                          m.samples);
    l.AddTo(report, times);
  }
  report.Describe("repetitions: 1 warm-up + " + std::to_string(reps) +
                  " warm");
  return true;
}

}  // namespace perfbench
