// kcore_perfbench: the repository benchmark's measuring program.
//
//   kcore_perfbench gen --workload=W --seed=N --dir=D [--small=1]
//       writes W's input graph (graph/binio format) under D.
//   kcore_perfbench run --workload=W --seed=N --seconds=S --trace=0|1
//                       --dir=D [--trace-file=PATH] [--small=1]
//       measures W on that input for S seconds and prints a table plus,
//       as the last line, the one-line JSON result. --trace=1 reports the
//       per-layer metrics instead of the end-to-end ones and writes the
//       traced repetitions' spans to PATH as Chrome Trace Event JSON.
//       --corrupt=1 perturbs one answer before its check (self-test).
//
// Workloads: coreness-ranks, densest-p2p, server-churn (see README.md).
// Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input
// error (no result line).
#include <cstdio>
#include <string>

#include "bench.h"
#include "util/flags.h"

namespace {

struct Workload {
  const char* name;
  bool (*gen)(const perfbench::Options&);
  bool (*run)(const perfbench::Options&, perfbench::Tracer&,
              perfbench::Report&);
};

constexpr Workload kWorkloads[] = {
    {"coreness-ranks", perfbench::GenCorenessRanks,
     perfbench::RunCorenessRanks},
    {"densest-p2p", perfbench::GenDensestP2p, perfbench::RunDensestP2p},
    {"server-churn", perfbench::GenServerChurn, perfbench::RunServerChurn},
};

// The trace file holds the first this-many traced repetitions; every
// traced repetition feeds the per-layer medians.
constexpr int kTracedRepsWritten = 8;

int Usage() {
  std::fputs(
      "usage: kcore_perfbench gen --workload=W --seed=N --dir=D [--small=1]\n"
      "       kcore_perfbench run --workload=W --seed=N --seconds=S "
      "--trace=0|1 --dir=D [--trace-file=PATH] [--small=1]\n"
      "workloads: coreness-ranks densest-p2p server-churn\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kcore::util::Flags flags;
  if (!flags.Parse(argc, argv) || flags.positional().size() != 1) {
    return Usage();
  }
  const std::string cmd = flags.positional()[0];
  perfbench::Options opts;
  opts.workload = flags.GetString("workload");
  opts.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  opts.seconds = flags.GetDouble("seconds", 10.0);
  opts.trace = flags.GetInt("trace", 0) != 0;
  opts.dir = flags.GetString("dir");
  opts.small = flags.GetBool("small", false);
  opts.corrupt = flags.GetBool("corrupt", false);
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (opts.workload == k.name) w = &k;
  }
  if (!w || opts.dir.empty()) return Usage();

  if (cmd == "gen") {
    if (!w->gen(opts)) {
      std::fprintf(stderr, "kcore_perfbench: cannot write the %s input\n",
                   w->name);
      return 2;
    }
    return 0;
  }
  if (cmd != "run") return Usage();

  perfbench::Tracer tracer;
  tracer.NameThread("main");
  perfbench::Report report(opts);
  if (!w->run(opts, tracer, report)) {
    std::fprintf(stderr, "kcore_perfbench: cannot read the %s input in %s\n",
                 w->name, opts.dir.c_str());
    return 2;
  }
  if (opts.trace) {
    const std::string path =
        flags.GetString("trace-file", opts.dir + "/trace.json");
    if (!tracer.WriteChromeTrace(path, kTracedRepsWritten * 2)) {
      std::fprintf(stderr, "kcore_perfbench: cannot write %s\n",
                   path.c_str());
      return 2;
    }
    report.Describe("trace: " + path + " (the first " +
                    std::to_string(kTracedRepsWritten) +
                    " traced repetitions)");
  }
  return report.Print();
}
