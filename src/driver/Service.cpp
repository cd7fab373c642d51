#include "driver/Service.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ArtifactCache.h"

#include <new>

namespace spire::driver {

const char *toolVersion() { return "spirec-0.10"; }

std::string optionsFingerprint(const PipelineOptions &O) {
  std::string F;
  F.reserve(192);
  auto kv = [&F](const char *K, const std::string &V) {
    F += K;
    F += '=';
    F += V;
    F += ';';
  };
  auto kn = [&kv](const char *K, int64_t N) { kv(K, std::to_string(N)); };
  // Enum fields go in as stable integers: renaming an enumerator must
  // not silently invalidate the cache, reordering one must (the emitted
  // artifact changes with the meaning, and the format version guards
  // deliberate renumberings).
  kn("v", support::ArtifactCacheFormatVersion);
  kv("tool", toolVersion());
  kv("entry", O.Entry);
  kn("size", O.Size);
  kn("input", static_cast<int>(O.Input));
  kn("informat", static_cast<int>(O.InputFormat));
  kn("outformat", static_cast<int>(O.OutputFormat));
  kn("basis", O.Basis ? static_cast<int>(*O.Basis) : -1);
  kn("flatten", O.Spire.ConditionalFlattening);
  kn("narrow", O.Spire.ConditionalNarrowing);
  kn("withdo", O.Spire.FlattenWithDo);
  kn("wordbits", O.Target.WordBits);
  kn("heapcells", O.Target.HeapCells);
  kn("maxinst", O.MaxInlineInstances);
  kn("maxdepth", O.MaxInlineDepth);
  kn("stopafter", static_cast<int>(O.StopAfter));
  kn("emitlevel", static_cast<int>(O.EmitLevel));
  kn("copt", static_cast<int>(O.CircuitOpt));
  return F;
}

CacheKey cacheKeyFor(const PipelineOptions &Options,
                     std::string_view Source) {
  CacheKey Key;
  Key.Hi = support::hashBytes(optionsFingerprint(Options));
  Key.Lo = support::hashBytes(Source);
  return Key;
}

namespace {

std::string firstLine(const std::string &Text) {
  return Text.substr(0, Text.find('\n'));
}

} // namespace

ServiceResponse Service::handle(const ServiceRequest &Request) {
  obs::Span Sp("service/request");
  ++obs::Registry::global().counter("service.requests");
  ServiceResponse Resp;
  CompilationResult &R = Resp.Result;

  // Take over the caller's governor when one is installed; otherwise arm
  // a fresh budget, so one runaway request trips its own governor and
  // the next starts with full budgets again. It is armed before the
  // cache lookup because a hit is charged against the output cap, like
  // a compile's render. The catch wall keeps OOM and internal errors
  // inside this request.
  support::Governor Own(Request.Pipe.Limits);
  support::GovernorScope Scope(support::Governor::current() ? nullptr
                                                            : &Own);
  support::Governor *Gov = support::Governor::current();
  try {
    CacheKey Key;
    if (Cache) {
      Key = cacheKeyFor(Request.Pipe, Request.Source);
      if (std::optional<std::string> Hit = Cache->lookup(Key.Hi, Key.Lo)) {
        Resp.CacheHit = true;
        Resp.Artifact = std::move(*Hit);
        Sp.arg("cache_hit", 1);
        if (Gov)
          Gov->checkOutputBytes(static_cast<int64_t>(Resp.Artifact.size()));
      }
    }
    if (!Resp.CacheHit) {
      CompilationPipeline Pipeline(Request.Pipe);
      R = Pipeline.run(Request.Source);
      if (R.succeeded())
        Resp.Artifact = Pipeline.renderFinalCircuit(R);
    }
    // The writers stop growing the text when the output cap trips; never
    // serve (or cache) the truncated artifact.
    if (Gov && Gov->exceeded() && !R.LimitHit)
      R.LimitHit = Gov->limit();
    Resp.OK = R.succeeded() && !R.LimitHit;
    // Stored before the caller writes the artifact, so a crash during
    // that write still leaves the next run a warm entry. The cache
    // absorbs its own store failures.
    if (Resp.OK && !Resp.CacheHit && Cache && !Resp.Artifact.empty())
      Cache->store(Key.Hi, Key.Lo, Resp.Artifact);

    if (R.LimitHit) {
      // Empty when a stage checkpoint already reported the trip.
      support::DiagnosticEngine GovDiags;
      Gov->report(GovDiags);
      Resp.Error = firstLine(GovDiags.str());
      if (Resp.Error.empty())
        Resp.Error = std::string("resource limit: ") +
                     support::resourceLimitName(*R.LimitHit);
    } else if (!Resp.OK) {
      Resp.Error = firstLine(R.Diags.str());
      if (Resp.Error.empty())
        Resp.Error = "compilation failed";
    }
  } catch (const std::bad_alloc &) {
    Resp.OK = false;
    Resp.Error = "out of memory";
  } catch (const std::exception &E) {
    Resp.OK = false;
    Resp.Error = std::string("internal error: ") + E.what();
  }
  if (!Resp.OK)
    ++obs::Registry::global().counter("service.failures");
  Sp.arg("ok", Resp.OK ? 1 : 0);
  return Resp;
}

} // namespace spire::driver
