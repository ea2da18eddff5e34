#include "trace.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

// The calling thread's track in the one tracer it records into.
thread_local const Tracer* tls_owner = nullptr;
thread_local void* tls_track = nullptr;

// JSON string body for span and track names (plain ASCII by
// construction; quotes and control bytes are escaped anyway).
std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Category(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string("bench");
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Track& Tracer::CurrentTrack() {
  if (tls_owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    Track& t = tracks_.emplace_back();
    t.tid = static_cast<int>(tracks_.size());
    t.name = "thread-" + std::to_string(t.tid);
    tls_owner = this;
    tls_track = &t;
  }
  return *static_cast<Track*>(tls_track);
}

void Tracer::NameThread(const std::string& name) { CurrentTrack().name = name; }

std::size_t Tracer::RepBegin(const Track& t, int rep) {
  // Repetitions only advance, so each track's spans are grouped by rep
  // in ascending order; the newest repetition sits at the back.
  std::size_t i = t.spans.size();
  while (i > 0 && t.spans[i - 1].rep >= rep) --i;
  return i;
}

std::vector<double> Tracer::Durations(const char* name, int rep) const {
  std::vector<double> out;
  for (const Track& t : tracks_) {
    for (std::size_t i = RepBegin(t, rep); i < t.spans.size(); ++i) {
      const Span& sp = t.spans[i];
      if (sp.rep == rep && std::strcmp(sp.name, name) == 0) {
        out.push_back((sp.end_us - sp.begin_us) * 1e-6);
      }
    }
  }
  return out;
}

double Tracer::Total(const char* name, int rep) const {
  double s = 0.0;
  for (const double d : Durations(name, rep)) s += d;
  return s;
}

double Tracer::Self(const char* name, int rep) const {
  double s = 0.0;
  for (const Track& t : tracks_) {
    // Direct children of one span never overlap (one thread), so the
    // time they cover is the sum of their durations. Parents precede
    // their children, so a repetition's spans only parent each other.
    const std::size_t begin = RepBegin(t, rep);
    std::vector<double> child(t.spans.size() - begin, 0.0);
    for (std::size_t i = begin; i < t.spans.size(); ++i) {
      const Span& sp = t.spans[i];
      if (sp.parent >= static_cast<int>(begin)) {
        child[sp.parent - begin] += sp.end_us - sp.begin_us;
      }
    }
    for (std::size_t i = begin; i < t.spans.size(); ++i) {
      const Span& sp = t.spans[i];
      if (sp.rep == rep && std::strcmp(sp.name, name) == 0) {
        s += sp.end_us - sp.begin_us - child[i - begin];
      }
    }
  }
  return s * 1e-6;
}

bool Tracer::WriteChromeTrace(const std::string& path, int max_rep) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const int pid = static_cast<int>(::getpid());
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"kcore_perfbench\"}}",
               pid);
  for (const Track& t : tracks_) {
    if (t.spans.empty() || t.spans.front().rep > max_rep) continue;
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 pid, t.tid, Escape(t.name).c_str());
  }
  for (const Track& t : tracks_) {
    // Spans sit in opening order and nest properly, so closing every
    // open span that is not the next span's parent before opening it
    // yields balanced begin/end pairs in timestamp order.
    std::vector<int> stack;
    const auto close_top = [&] {
      const Span& top = t.spans[stack.back()];
      std::fprintf(f, ",\n{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
                   pid, t.tid, top.end_us);
      stack.pop_back();
    };
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& sp = t.spans[i];
      if (sp.rep > max_rep) break;
      while (!stack.empty() && stack.back() != sp.parent) close_top();
      std::fprintf(f,
                   ",\n{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                   "\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"id\":%d,"
                   "\"parent\":%d,\"rep\":%d}}",
                   pid, t.tid, sp.begin_us, Escape(sp.name).c_str(),
                   Category(sp.name).c_str(), sp.id, sp.parent, sp.rep);
      stack.push_back(static_cast<int>(i));
    }
    while (!stack.empty()) close_top();
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Scope::Scope(Tracer& tracer, const char* name) : tracer_(&tracer) {
  if (!tracer.enabled()) return;
  Tracer::Track& t = tracer.CurrentTrack();
  Span sp;
  sp.name = name;
  sp.id = static_cast<int>(t.spans.size());
  sp.parent = t.open.empty() ? -1 : t.open.back();
  sp.rep = tracer.rep_.load(std::memory_order_relaxed);
  sp.begin_us = tracer.NowUs();
  t.open.push_back(sp.id);
  t.spans.push_back(sp);
  track_ = &t;
}

Scope::~Scope() {
  if (!track_) return;
  const int id = track_->open.back();
  track_->open.pop_back();
  track_->spans[id].end_us = tracer_->NowUs();
}

}  // namespace perfbench
