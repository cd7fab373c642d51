//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads as fixed request lists, the seeded request order,
/// the circuit-in input files written at set-up, and the untraced request
/// path through the product's public entry points:
///
///   cost-report   driver::CompilationPipeline::run (as `spirec --report`)
///   compile-emit  driver::Service::handle + support::writeFileAtomic
///   circuit-in    support::readFile + driver::Service::handle +
///                 support::writeFileAtomic (as `spirec --batch`)
///
/// Every request pins VerifyEach=false, no governor limits and no
/// artifact cache.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "costmodel/CostModel.h"
#include "driver/Service.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind {
  Cost,      ///< Cost report without a circuit.
  Emit,      ///< Tower source to an MCX circuit file.
  Translate, ///< Circuit file re-emitted in the other format.
  Optimize,  ///< Circuit file through cliffordt-cancel, other format out.
};

struct Request {
  std::string Id; ///< Key into the expected-values file.
  Kind K = Kind::Cost;
  spire::driver::PipelineOptions Pipe;
  std::string Source;  ///< Tower source (Cost, Emit).
  std::string InPath;  ///< Circuit input file (Translate, Optimize).
  std::string OutPath; ///< Artifact destination (all but Cost).
};

/// What a request returned, before any check.
struct Outcome {
  bool OK = false;
  std::string Error;
  spire::costmodel::Cost Before, After; ///< Cost requests only.
};

/// A generated circuit-in input: its expected-values key and its file.
struct InputFile {
  std::string Id;
  std::string Path;
};

bool isWorkload(const std::string &Name);

/// The workload's request list in the order fixed by \p Seed (which also
/// fixes the output-format alternation), writing under \p WorkDir.
std::vector<Request> buildRequests(const std::string &Workload, uint64_t Seed,
                                   const std::string &WorkDir);

/// The small request that warms each set-up up; not measured.
Request warmupRequest(const std::string &Workload, const std::string &WorkDir);

/// Writes the circuit-in inputs (every program in both formats). Other
/// workloads have none. Returns false with \p Error on failure.
bool generateInputs(const std::string &Workload, const std::string &WorkDir,
                    std::vector<InputFile> &Written, std::string &Error);

/// Runs one request through the public entry points.
Outcome runRequest(const Request &R, spire::driver::Service &Svc);

/// Every request the expected-values file covers: all workloads, both
/// output formats wherever a seed can pick either.
std::vector<Request> allCheckedRequests(const std::string &WorkDir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
