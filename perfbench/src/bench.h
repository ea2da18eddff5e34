// Shared pieces of the benchmark driver: options, the repetition loop,
// sample statistics, and the report every workload fills.
//
// A run measures one workload on inputs generated from one seed. The
// first repetition warms caches and lazy set-up and is discarded; every
// later ("warm") repetition is a full file -> answer pass, and each
// timing is the median over them. With tracing on, warm repetitions
// alternate between traced and untraced, so the traced per-layer
// numbers and the tracing overhead come from interleaved samples.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;     // work directory for inputs, sockets and traces
  bool small = false;  // self-test scale: tiny inputs, same code paths
  // Self-test of the output checks: repetition 1's answer is perturbed
  // before it is checked, so the run must fail.
  bool corrupt = false;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Counts are carried as doubles in the metric maps.
inline double D(std::size_t x) { return static_cast<double>(x); }

double Median(std::vector<double> xs);
// Linear-interpolated percentile, q in [0, 1].
double Pctl(std::vector<double> xs, double q);
// Largest peak resident set, in MB, of this process and of every child
// it has reaped (RUSAGE_CHILDREN reports the largest single child).
double PeakRssMb(bool children_only = false);

// Peak resident sets of one file -> answer pass in a fresh process.
struct RssProbe {
  double peak_mb = 0.0;      // the process and its children (rank workers)
  double children_mb = 0.0;  // its children alone
  bool ok = false;
};
// Forks, runs rep(0, false) once in the child and reports the child's
// peak resident sets. A long run's own peak grows with its repetition
// count (allocator arenas fill with freed blocks), so memory is taken
// from one pass, the cost a driver's user pays. Call it while the
// process is single-threaded.
RssProbe ProbeRss(const std::function<void(int, bool)>& rep);

// Calls rep(index, traced) until opts.seconds have elapsed, at least
// `min_reps` times after the warm-up. Index 0 is the warm-up.
template <typename Rep>
int RepLoop(const Options& opts, Tracer& tracer, int min_reps, Rep&& rep) {
  const double start = Now();
  int i = 0;
  for (; i <= min_reps || Now() - start < opts.seconds; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    tracer.SetEnabled(traced);
    tracer.SetRep(i);
    rep(i, traced);
    tracer.SetEnabled(false);
  }
  return i;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // samples behind a median or percentile
  int reps = 0;             // warm repetitions behind a timing
  bool applies = true;      // false: the metric has no meaning here
};

// Collects a run's metrics and prints them: a table for people, then
// the one-line JSON result as the last line of standard output.
class Report {
 public:
  explicit Report(const Options& opts) : opts_(opts) {}

  // A metric of the result line (the mode's BENCHMARK.json list).
  void Add(Metric m) { result_.push_back(std::move(m)); }
  // A metric shown only in the table.
  void Note(Metric m) { notes_.push_back(std::move(m)); }
  void Describe(const std::string& line) { header_.push_back(line); }
  // One client operation and whether its output check passed.
  void Op(bool ok, const std::string& what = "");

  // Prints everything; returns the process exit code (1 if any check
  // failed).
  int Print() const;

 private:
  const Options& opts_;
  std::vector<std::string> header_;
  std::vector<Metric> result_;
  std::vector<Metric> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
};

// One run's end-to-end timings, one sample per warm repetition.
struct Timings {
  std::vector<double> setup, answer, seq;  // untraced repetitions
  std::vector<double> answer_traced;       // traced repetitions
  void Add(bool traced, double setup_s, double answer_s, double seq_s);
};

// The untraced run's result line: BENCHMARK.json's end-to-end metrics.
void AddEndToEnd(Report& report, const Timings& t, double approx_ratio,
                 double peak_rss_mb);
// Table rows for the server-only latency metrics on an engine workload.
void NoteNoLatency(Report& report);

// The per-layer metrics every traced run reports, in order; a workload
// that does not reach a layer leaves its entries at zero.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

class Layers {
 public:
  Layers();
  void Set(const std::string& name, double value, std::size_t samples = 0);
  // Median over the traced repetitions.
  void SetMedian(const std::string& name, const std::vector<double>& xs);
  // Adds every per-layer metric, trace.overhead_s taken from `t`.
  void AddTo(Report& report, const Timings& t);

 private:
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

// Count metrics must repeat exactly from repetition to repetition on one
// input; the first repetition's counts are the reference for the rest.
class Counts {
 public:
  void Check(Report& report, const std::map<std::string, double>& counts);
  const std::map<std::string, double>& values() const { return first_; }

 private:
  bool have_ = false;
  std::map<std::string, double> first_;
};

bool RunCorenessRanks(const Options& opts, Tracer& tracer, Report& report);
bool RunDensestP2p(const Options& opts, Tracer& tracer, Report& report);
bool RunServerChurn(const Options& opts, Tracer& tracer, Report& report);

bool GenCorenessRanks(const Options& opts);
bool GenDensestP2p(const Options& opts);
bool GenServerChurn(const Options& opts);

}  // namespace perfbench
