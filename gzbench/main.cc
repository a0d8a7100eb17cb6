// gz_bench: runs one benchmark workload and prints its report as one
// JSON line on stdout. gzbench/run.py builds this binary, runs it in a
// private directory and turns the report into the benchmark's result.
//
//   gz_bench --workload ram-ingest --seed 1 --seconds 10 --trace 0
//            --tmp DIR [--trace-out FILE]
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "common.h"
#include "sketch/sketch_kernel.h"
#include "trace.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gz_bench --workload "
               "ram-ingest|disk-ingest|sharded-ingest|serve-watch\n"
               "                --seed N --seconds S --trace 0|1 --tmp DIR\n"
               "                [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gzb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--tmp") {
      opt.tmp_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, std::function<void(const gzb::Options&,
                                                 gzb::Report*)>>
      workloads = {{"ram-ingest", gzb::RunRamIngest},
                   {"disk-ingest", gzb::RunDiskIngest},
                   {"sharded-ingest", gzb::RunShardedIngest},
                   {"serve-watch", gzb::RunServeWatch}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end() || opt.tmp_dir.empty() || opt.seconds <= 0) {
    return Usage();
  }

  gzb::Report report;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  report.InfoNum("nproc", nproc);
  report.InfoStr("sketch_kernel",
                 gz::SketchKernelName(gz::ActiveSketchKernel()));
  report.InfoStr("workload", opt.workload);
  report.InfoNum("seed", static_cast<double>(opt.seed));
  report.InfoNum("seconds", opt.seconds);

  it->second(opt, &report);

  // The caller's wait for the workers: an API call's cost per update
  // beyond what the buffer it feeds costs alone.
  const double call_ns = report.Get("core.update_call_ns");
  const double insert_ns = opt.workload == "disk-ingest"
                               ? report.Get("buffer.tree_insert_ns")
                               : report.Get("buffer.insert_ns");
  if (opt.trace && call_ns > 0 && insert_ns > 0) {
    report.Metric("buffer.backpressure_ns", call_ns - insert_ns, "ns");
  }
  if (!opt.trace_out.empty() &&
      !gzb::GlobalTracer().WriteJsonLines(opt.trace_out)) {
    report.Attempt(false, "writing " + opt.trace_out);
  }
  report.Check(gzb::CountLiveChildren() == 0,
               "every child process was reaped before exit");
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
