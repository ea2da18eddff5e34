// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call into
// a library module (graph, core, distsim, seq, dynamic), kept in memory,
// and written out once at the end as Chrome Trace Event Format JSON —
// one track per recording thread, openable in Perfetto or
// chrome://tracing. When the tracer is disabled a Scope costs one branch.
//
// Each thread records into its own track, so recording takes no lock
// after the thread's first span; tracks are only read after every
// recording thread has been joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // "layer.Call"; the layer is the text before '.'
  int id = 0;             // unique within its track
  int parent = -1;        // enclosing span's id on the same track, or -1
  int rep = -1;           // repetition the span belongs to
  double begin_us = 0.0;  // since the tracer's epoch
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer();

  // Both settings are read by every recording thread.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Tags every span opened after this call (until the next call).
  void SetRep(int rep) { rep_.store(rep, std::memory_order_relaxed); }

  // Names the calling thread's track ("main", "writer", ...).
  void NameThread(const std::string& name);

  // Sum over `rep`'s spans named `name` of their duration and of their
  // self time (duration minus the time their direct children cover),
  // in seconds.
  double Total(const char* name, int rep) const;
  double Self(const char* name, int rep) const;
  // Durations in seconds of every span named `name` in `rep`.
  std::vector<double> Durations(const char* name, int rep) const;

  // Writes the spans of repetitions <= max_rep as B/E event pairs plus
  // process/thread name metadata. Returns false if the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path, int max_rep) const;

 private:
  friend class Scope;
  struct Track {
    int tid = 0;
    std::string name;
    std::vector<Span> spans;
    std::vector<int> open;  // stack of indices into spans
  };
  Track& CurrentTrack();
  // Index of the first span of `rep` (or of a later repetition) in t.
  static std::size_t RepBegin(const Track& t, int rep);
  double NowUs() const;

  std::atomic<bool> enabled_{false};
  std::atomic<int> rep_{-1};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;            // guards tracks_ growth only
  std::deque<Track> tracks_;  // stable addresses; one per thread
};

// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Track* track_ = nullptr;  // null when tracing is off
  Tracer* tracer_;
};

// Runs f() inside a span named `name`; returns what f returns.
template <typename F>
decltype(auto) Traced(Tracer& tracer, const char* name, F&& f) {
  Scope s(tracer, name);
  return f();
}

}  // namespace perfbench
