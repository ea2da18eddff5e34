#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "bench.h"
#include "util/stats.h"

namespace perfbench {

namespace {

// Shortest text that round-trips the double: every digit measured.
std::string Num(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace

double Median(std::vector<double> xs) { return Pctl(std::move(xs), 0.5); }

double Pctl(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : kcore::util::Percentile(xs, q);
}

double PeakRssMb(bool children_only) {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  const long kb = children_only ? kids.ru_maxrss
                                : std::max(self.ru_maxrss, kids.ru_maxrss);
  return static_cast<double>(kb) / 1024.0;
}

RssProbe ProbeRss(const std::function<void(int, bool)>& rep) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    rep(0, false);
    const double mb[2] = {PeakRssMb(), PeakRssMb(true)};
    const bool sent = ::write(fds[1], mb, sizeof(mb)) == sizeof(mb);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double mb[2] = {0.0, 0.0};
  const bool got = ::read(fds[0], mb, sizeof(mb)) == sizeof(mb);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return {mb[0], mb[1],
          got && WIFEXITED(status) && WEXITSTATUS(status) == 0};
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

int Report::Print() const {
  std::printf("== %s seed=%llu %s ==\n", opts_.workload.c_str(),
              static_cast<unsigned long long>(opts_.seed),
              opts_.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const std::string& line : header_) std::printf("  %s\n", line.c_str());
  std::printf("  %-30s %16s %-9s %9s %9s\n", "metric", "value", "unit",
              "samples", "warm_reps");
  const auto row = [](const Metric& m) {
    if (!m.applies) {
      std::printf("  %-30s %16s %-9s\n", m.name.c_str(), "n/a",
                  m.unit.c_str());
      return;
    }
    const std::string samples = m.samples ? std::to_string(m.samples) : "-";
    const std::string reps = m.reps ? std::to_string(m.reps) : "-";
    std::printf("  %-30s %16.6g %-9s %9s %9s\n", m.name.c_str(), m.value,
                m.unit.c_str(), samples.c_str(), reps.c_str());
  };
  for (const Metric& m : result_) row(m);
  for (const Metric& m : notes_) row(m);
  std::printf("  %-30s %16.6g %-9s  (failed %llu of %llu operations)\n",
              "error_rate",
              attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
              "fraction", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& f : failures_) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result_.size(); ++i) {
    const Metric& m = result_[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

void Timings::Add(bool traced, double setup_s, double answer_s,
                  double seq_s) {
  if (traced) {
    answer_traced.push_back(answer_s);
    return;
  }
  setup.push_back(setup_s);
  answer.push_back(answer_s);
  seq.push_back(seq_s);
}

void AddEndToEnd(Report& report, const Timings& t, double approx_ratio,
                 double peak_rss_mb) {
  const int w = static_cast<int>(t.answer.size());
  report.Add({"setup_s", Median(t.setup), "s", t.setup.size(), w});
  report.Add({"answer_s", Median(t.answer), "s", t.answer.size(), w});
  report.Add({"seq_s", Median(t.seq), "s", t.seq.size(), w});
  report.Add({"approx_ratio", approx_ratio, "ratio", 0, 0});
  report.Add({"peak_rss_mb", peak_rss_mb, "MB", 0, 0});
}

void NoteNoLatency(Report& report) {
  for (const char* name : {"update_p50_ms", "update_p99_ms", "query_p50_ms",
                           "query_p99_ms"}) {
    report.Note({name, 0.0, "ms", 0, 0, false});
  }
}

const std::vector<LayerMetric> kLayerMetrics = {
    {"graph.load_s", "s"},
    {"core.init_s", "s"},
    {"core.phase1_rounds", "count"},
    {"core.phase2_rounds", "count"},
    {"core.phase3_rounds", "count"},
    {"core.phase4_rounds", "count"},
    {"core.max_payload_entries", "count"},
    {"distsim.start_s", "s"},
    {"distsim.transport_start_s", "s"},
    {"distsim.step_s", "s"},
    {"distsim.round_ms_p50", "ms"},
    {"distsim.round_ms_p90", "ms"},
    {"distsim.rank_step_s", "s"},
    {"distsim.coordinator_s", "s"},
    {"distsim.fetch_s", "s"},
    {"distsim.worker_rss_mb", "MB"},
    {"distsim.rounds", "count"},
    {"distsim.active_node_rounds", "count"},
    {"distsim.messages", "count"},
    {"distsim.entries", "count"},
    {"distsim.bcast_bytes_sent", "bytes"},
    {"distsim.bcast_bytes_per_neighbor", "bytes"},
    {"seq.coreness_s", "s"},
    {"seq.charikar_s", "s"},
    {"dynamic.fixpoint_s", "s"},
    {"dynamic.maintain_s", "s"},
    {"dynamic.apply_rtt_s", "s"},
    {"dynamic.serve_s", "s"},
    {"dynamic.recomputations", "count"},
    {"dynamic.region", "count"},
    {"dynamic.changed", "count"},
    {"dynamic.queries", "count"},
    {"dynamic.update_p50_ms", "ms"},
    {"dynamic.update_p99_ms", "ms"},
    {"dynamic.query_p50_ms", "ms"},
    {"dynamic.query_p99_ms", "ms"},
    {"trace.overhead_s", "s"},
};

Layers::Layers() {
  for (const LayerMetric& m : kLayerMetrics) values_[m.name] = {0.0, 0};
}

void Layers::Set(const std::string& name, double value, std::size_t samples) {
  values_.at(name) = {value, samples};
}

void Layers::SetMedian(const std::string& name,
                       const std::vector<double>& xs) {
  Set(name, Median(xs), xs.size());
}

void Layers::AddTo(Report& report, const Timings& t) {
  Set("trace.overhead_s", Median(t.answer_traced) - Median(t.answer),
      t.answer_traced.size() + t.answer.size());
  const int traced_reps = static_cast<int>(t.answer_traced.size());
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto& [value, samples] = values_.at(lm.name);
    Metric m{lm.name, value, lm.unit, samples, 0, true};
    // Timings are medians over the traced repetitions; counts repeat.
    if (samples && m.unit != "count" && m.unit != "bytes") {
      m.reps = traced_reps;
    }
    report.Add(std::move(m));
  }
}

void Counts::Check(Report& report, const std::map<std::string, double>& c) {
  if (!have_) {
    first_ = c;
    have_ = true;
    return;
  }
  report.Op(c == first_, "count metrics differ between repetitions");
}

}  // namespace perfbench
