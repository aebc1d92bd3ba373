//===- perfbench.cpp - End-to-end and per-layer benchmark of PEC ----------===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
//
// One binary, four workloads (README.md says why each is there):
//
//   figure11           the 19 Figure 11 rules, in process, one job, a fresh
//                      ATP cache per pass (as `pec prove-suite --jobs 1`)
//   failing            wrong rules proved with diagnosis on (as `pec prove`)
//   serve_warm         a primed `pec serve` daemon and one closed-loop client
//   figure11_parallel  the figure11 pass at four jobs with one shared cache
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --pec PATH
//             [--plant CHECK] [--trace-out FILE]
//
// Run from the repository root. A run repeats whole passes over the
// workload's fixed, seeded list of operations for S seconds. The last line
// of stdout is one JSON object with `correct`, `attempted`, `failed` and
// `metrics`: the end-to-end metrics when untraced, the per-layer metrics
// when traced. Every time metric is read from the fastest passes of the
// run, which the host's slow phases cannot move (README.md).
//
// `--plant CHECK` corrupts one program output before the named check sees
// it; the self-test (run.py --selftest) uses it to show each check fails.
//
//===----------------------------------------------------------------------===//

#include "engine/Apply.h"
#include "interp/Interp.h"
#include "lang/Parser.h"
#include "pec/Pec.h"
#include "serve/Serve.h"
#include "solver/AtpCache.h"
#include "support/Escape.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pec;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up time is measured from here: static initialization runs before
/// main, so this is as close to the process's start as the program sees.
const Clock::time_point ProcessStart = Clock::now();

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double cpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return T.tv_sec * 1e3 + T.tv_usec / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The daemon of serve_warm, if one is running: `fail` must stop it.
pid_t DaemonPid = 0;

[[noreturn]] void fail(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: error: %s\n", Msg.c_str());
  if (DaemonPid > 0) {
    kill(DaemonPid, SIGKILL);
    waitpid(DaemonPid, nullptr, 0);
  }
  std::exit(2);
}

/// Peak resident memory of process \p Pid (VmHWM). Not getrusage: its
/// ru_maxrss keeps the parent's peak across fork and exec.
double peakRssMbOf(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  fail("cannot read the peak RSS of process " + std::to_string(Pid));
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    fail("cannot read " + Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// splitmix64: the only source of seeded choices.
struct Rng {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }
};

//===----------------------------------------------------------------------===//
// Tracing: spans around every call into a layer, held in memory
//===----------------------------------------------------------------------===//

struct SpanRec {
  const char *Name; ///< "<layer>.<call>"
  uint64_t Op;      ///< Shared by the spans of one operation.
  unsigned Tid;
  double BeginUs, EndUs;
};

class Tracer {
public:
  std::atomic<bool> On{false};

  void record(const char *Name, uint64_t Op, Clock::time_point B,
              Clock::time_point E) {
    unsigned Tid = threadIndex();
    std::lock_guard<std::mutex> Lock(M);
    Spans.push_back({Name, Op, Tid, msBetween(ProcessStart, B) * 1e3,
                     msBetween(ProcessStart, E) * 1e3});
  }
  size_t size() {
    std::lock_guard<std::mutex> Lock(M);
    return Spans.size();
  }

  /// Self time per span name over the spans recorded since \p From: a
  /// span's duration minus the part its child spans (same thread, nested
  /// interval) cover.
  std::map<std::string, double> selfMs(size_t From) {
    std::vector<SpanRec> S;
    {
      std::lock_guard<std::mutex> Lock(M);
      S.assign(Spans.begin() + From, Spans.end());
    }
    std::sort(S.begin(), S.end(), [](const SpanRec &A, const SpanRec &B) {
      if (A.Tid != B.Tid)
        return A.Tid < B.Tid;
      if (A.BeginUs != B.BeginUs)
        return A.BeginUs < B.BeginUs;
      return A.EndUs > B.EndUs;
    });
    std::vector<double> Self(S.size());
    std::vector<size_t> Stack;
    for (size_t I = 0; I < S.size(); ++I) {
      while (!Stack.empty() &&
             (S[Stack.back()].Tid != S[I].Tid ||
              S[Stack.back()].EndUs <= S[I].BeginUs))
        Stack.pop_back();
      Self[I] = S[I].EndUs - S[I].BeginUs;
      if (!Stack.empty())
        Self[Stack.back()] -= Self[I];
      Stack.push_back(I);
    }
    std::map<std::string, double> Out;
    for (size_t I = 0; I < S.size(); ++I)
      Out[S[I].Name] += Self[I] / 1e3;
    return Out;
  }

  /// Writes every span as a Chrome trace (`chrome://tracing`, Perfetto).
  void write(const std::string &Path) {
    std::lock_guard<std::mutex> Lock(M);
    std::ofstream Out(Path);
    Out << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      std::string Name = S.Name;
      char Buf[256];
      std::snprintf(Buf, sizeof Buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"op\":%llu}}",
                    I ? ",\n" : "", Name.c_str(),
                    Name.substr(0, Name.find('.')).c_str(), S.BeginUs,
                    S.EndUs - S.BeginUs, S.Tid,
                    static_cast<unsigned long long>(S.Op));
      Out << Buf;
    }
    Out << "]}\n";
    if (!Out)
      fail("cannot write trace " + Path);
  }

private:
  static unsigned threadIndex() {
    static std::atomic<unsigned> Next{0};
    thread_local unsigned Id = Next++;
    return Id;
  }

  std::mutex M;
  std::vector<SpanRec> Spans;
};

Tracer Trace;
/// The operation the current thread works on; its spans carry this id.
thread_local uint64_t CurrentOp = 0;

class Span {
public:
  explicit Span(const char *Name)
      : Name(Name), Begin(Trace.On ? Clock::now() : Clock::time_point()) {}
  ~Span() {
    if (Trace.On)
      Trace.record(Name, CurrentOp, Begin, Clock::now());
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  Clock::time_point Begin;
};

//===----------------------------------------------------------------------===//
// Inputs and known answers
//===----------------------------------------------------------------------===//

/// What the benchmark knows about a rule without asking the program.
struct Expectation {
  bool Proved = false;
  int UsesPermute = -1; ///< 1/0 from the paper's column; -1 when unknown.
  std::string Why;      ///< One line: why the rule is right or wrong.
};

/// Reads a tab-separated answer table: rule name, then columns.
std::map<std::string, std::vector<std::string>>
readTable(const std::string &Path) {
  std::map<std::string, std::vector<std::string>> Rows;
  std::istringstream In(readFile(Path));
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> Cols;
    std::istringstream L(Line);
    std::string Col;
    while (std::getline(L, Col, '\t'))
      Cols.push_back(Col);
    if (Cols.size() < 2 || !Rows.emplace(Cols[0], Cols).second)
      fail("malformed answer table " + Path + ": " + Line);
  }
  return Rows;
}

/// Paper table: every rule proved, permute column as transcribed.
std::map<std::string, Expectation> provedTable(const std::string &Path,
                                               size_t PermuteCol) {
  std::map<std::string, Expectation> Out;
  for (auto &[Name, Cols] : readTable(Path)) {
    if (Cols.size() <= PermuteCol)
      fail("answer table " + Path + " lacks a column for " + Name);
    Out[Name] = {true, Cols[PermuteCol] == "yes" ? 1 : 0, Cols[1]};
  }
  return Out;
}

std::vector<Rule> parseRulesTimed(const std::string &Text,
                                  const std::string &What) {
  Span S("lang.parse");
  Expected<RuleFile> File = parseRuleFile(Text);
  if (!File)
    fail("parse error in " + What + ": " + File.error().str());
  if (!File->Facts.empty())
    fail(What + ": user fact declarations are not expected");
  return File->Rules;
}

/// Splits a rule file into one source text per rule, so a serve request
/// can carry exactly one rule. A rule starts at a line beginning `rule `.
std::vector<std::string> splitRuleTexts(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  std::vector<size_t> Starts;
  while (Pos < Text.size()) {
    if (Text.compare(Pos, 5, "rule ") == 0)
      Starts.push_back(Pos);
    size_t Nl = Text.find('\n', Pos);
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  for (size_t I = 0; I < Starts.size(); ++I) {
    size_t End = I + 1 < Starts.size() ? Starts[I + 1] : Text.size();
    Out.push_back(Text.substr(Starts[I], End - Starts[I]));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Per-pass results and layer metrics
//===----------------------------------------------------------------------===//

using Metrics = std::map<std::string, double>;

struct PassResult {
  double WallMs = 0;
  double CpuMs = 0;
  std::vector<double> OpMs; ///< Indexed by operation position in the pass.
  unsigned Failed = 0;
  Metrics Layer; ///< Filled by traced passes only.
};

/// The metric names every traced run prints (BENCHMARK.json per_layer).
/// Layers that a workload does not reach report 0.
const char *const LayerMetricNames[] = {
    "lang.parse_ms",
    "pec.prove_ms",
    "pec.permute_ms",
    "pec.correlate_ms",
    "pec.check_ms",
    "pec.check_outside_atp_ms",
    "pec.strengthenings",
    "pec.path_pairs",
    "pec.pruned_path_pairs",
    "pec.relation_size",
    "atp.queries",
    "atp.ms",
    "atp.path-pruning.queries",
    "atp.path-pruning.ms",
    "atp.obligation.queries",
    "atp.obligation.ms",
    "atp.permute-condition.queries",
    "atp.permute-condition.ms",
    "atp.strengthening.queries",
    "atp.strengthening.ms",
    "atp.minimize.queries",
    "atp.minimize.ms",
    "sat.decisions",
    "sat.conflicts",
    "sat.propagations",
    "theory.checks",
    "theory.conflicts",
    "theory.propagations",
    "saturate.ms",
    "saturate.closed",
    "saturate.egraph_nodes",
    "cache.lookups",
    "cache.hits",
    "cache.hit_rate",
    "cache.bypassed",
    "serve.prove_ms",
    "serve.apply_ms",
    "serve.reply_bytes",
    "engine.applications",
    "engine.apply_ms",
    "interp.run_ms",
    "pool.cpu_ms",
    "pool.utilization",
    "trace.overhead",
};

const char *layerUnit(const std::string &Name) {
  if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_ms") == 0)
    return "ms";
  if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, ".ms") == 0)
    return "ms";
  if (Name == "cache.hit_rate" || Name == "pool.utilization" ||
      Name == "trace.overhead")
    return "ratio";
  if (Name == "serve.reply_bytes")
    return "bytes";
  return "count";
}

/// Adds the per-rule statistics PecResult and AtpStats already carry.
void addProofLayers(Metrics &M, const PecResult &R) {
  const AtpStats &A = R.Atp;
  M["pec.permute_ms"] += R.PermuteSeconds * 1e3;
  M["pec.correlate_ms"] += R.CorrelateSeconds * 1e3;
  M["pec.check_ms"] += R.CheckSeconds * 1e3;
  M["pec.strengthenings"] += R.Strengthenings;
  M["pec.path_pairs"] += R.PathPairs;
  M["pec.pruned_path_pairs"] += R.PrunedPathPairs;
  M["pec.relation_size"] += R.RelationSize;
  M["atp.queries"] += A.Queries;
  M["atp.ms"] += A.Microseconds / 1e3;
  for (size_t P = 1; P < telemetry::NumPurposes; ++P) {
    std::string Name =
        std::string("atp.") +
        telemetry::purposeName(static_cast<telemetry::Purpose>(P));
    M[Name + ".queries"] += A.ByPurpose[P].Queries;
    M[Name + ".ms"] += A.ByPurpose[P].Microseconds / 1e3;
  }
  // Check-phase time not spent in the prover: every purpose but the
  // permute conditions, which Permute issues before the check starts.
  size_t PermuteP = static_cast<size_t>(telemetry::Purpose::PermuteCondition);
  double CheckAtpMs =
      (A.Microseconds - A.ByPurpose[PermuteP].Microseconds) / 1e3;
  M["pec.check_outside_atp_ms"] +=
      std::max(0.0, R.CheckSeconds * 1e3 - CheckAtpMs);
  M["sat.decisions"] += A.SatDecisions;
  M["sat.conflicts"] += A.SatConflicts;
  M["sat.propagations"] += A.Propagations;
  M["theory.checks"] += A.TheoryChecks;
  M["theory.conflicts"] += A.TheoryConflicts;
  M["theory.propagations"] += A.TheoryPropagations;
  M["saturate.ms"] += A.SaturateRebuildMicros / 1e3;
  M["saturate.closed"] += A.SatClosed;
  M["saturate.egraph_nodes"] += A.EgraphNodes;
}

/// Folds the span self times of one pass into layer metrics.
void addSpanLayers(Metrics &M, const std::map<std::string, double> &Self) {
  static const std::pair<const char *, const char *> Map[] = {
      {"lang.parse", "lang.parse_ms"},
      {"pec.prove", "pec.prove_ms"},
      {"engine.apply", "engine.apply_ms"},
      {"interp.run", "interp.run_ms"},
  };
  for (auto [Span, Metric] : Map) {
    auto It = Self.find(Span);
    if (It != Self.end())
      M[Metric] += It->second;
  }
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Traced = false;
  std::string Pec;
  std::string Plant;
  std::string TraceOut;
};

void checkFailed(const char *Check, const std::string &What) {
  std::fprintf(stderr, "perfbench: CHECK FAILED [%s] %s\n", Check,
               What.c_str());
}

class Workload {
public:
  virtual ~Workload() = default;
  virtual size_t opsPerPass() const = 0;
  virtual PassResult pass(uint64_t Index, bool Traced) = 0;
  /// Checks that need the whole run, made after the timed passes; returns
  /// the number of operations they find wrong.
  virtual uint64_t finish() { return 0; }
  virtual double peakRssMb() { return peakRssMbOf(getpid()); }
};


/// figure11, failing and figure11_parallel: one operation is one
/// `proveRule` verdict, checked against the known answers (and, at more
/// than one job, against the one-job verdicts).
class ProveWorkload : public Workload {
public:
  ProveWorkload(std::vector<Rule> Rules,
                std::map<std::string, Expectation> Expect, unsigned Jobs,
                bool UseCache, const Options &Opts)
      : Rules(std::move(Rules)), Expect(std::move(Expect)), Jobs(Jobs),
        UseCache(UseCache), Opts(Opts) {
    for (const Rule &R : this->Rules)
      if (!this->Expect.count(R.Name))
        fail("no known answer for rule " + R.Name);
    if (this->Rules.size() != this->Expect.size())
      fail("an answer table names rules the inputs lack");
  }

  size_t opsPerPass() const override { return Rules.size(); }

  PassResult pass(uint64_t Index, bool Traced) override {
    PassResult P;
    std::vector<PecResult> Results(Rules.size());
    P.OpMs.resize(Rules.size());
    size_t SpanMark = Trace.size();
    AtpCacheStats CacheStats;
    double Cpu0 = cpuMs();
    auto T0 = Clock::now();
    runRules(Jobs, Results, P.OpMs, &CacheStats, (Index + 1) * 1000);
    auto T1 = Clock::now();
    P.CpuMs = cpuMs() - Cpu0;
    P.WallMs = msBetween(T0, T1);

    plant(Results);
    std::vector<Verdict> Verdicts;
    for (size_t I = 0; I < Rules.size(); ++I) {
      bool Ok = verdictOk(Rules[I].Name, Results[I]);
      P.Failed += Ok ? 0 : 1;
      Verdicts.push_back({Results[I].Proved, Results[I].UsedPermute,
                          Results[I].Kind, Ok});
    }
    if (Jobs > 1)
      PassVerdicts.push_back(std::move(Verdicts));

    if (Traced) {
      for (const PecResult &R : Results)
        addProofLayers(P.Layer, R);
      if (UseCache) {
        double Lookups = CacheStats.Hits + CacheStats.Misses;
        P.Layer["cache.lookups"] = Lookups;
        P.Layer["cache.hits"] = CacheStats.Hits;
        P.Layer["cache.hit_rate"] = Lookups ? CacheStats.Hits / Lookups : 0;
      }
      P.Layer["cache.bypassed"] =
          P.Layer["atp.queries"] - P.Layer["cache.lookups"];
      P.Layer["pool.cpu_ms"] = P.CpuMs;
      P.Layer["pool.utilization"] = P.CpuMs / (P.WallMs * Jobs);
      addSpanLayers(P.Layer, Trace.selfMs(SpanMark));
    }
    return P;
  }

  /// At more than one job: every pass's verdicts must equal the one-job
  /// verdicts, computed here so that they stay out of the set-up time.
  uint64_t finish() override {
    if (PassVerdicts.empty())
      return 0;
    std::vector<PecResult> Reference(Rules.size());
    std::vector<double> Ms(Rules.size());
    runRules(1, Reference, Ms, nullptr, 0);
    uint64_t Failed = 0;
    for (const std::vector<Verdict> &Pass : PassVerdicts)
      for (size_t I = 0; I < Rules.size(); ++I) {
        const Verdict &V = Pass[I];
        const PecResult &R = Reference[I];
        if (V.Proved == R.Proved && V.UsedPermute == R.UsedPermute &&
            V.Kind == R.Kind)
          continue;
        checkFailed("parallel-verdict",
                    Rules[I].Name + " at " + std::to_string(Jobs) +
                        " jobs differs from its one-job verdict");
        // An operation already counted failed against the answer table is
        // not counted twice.
        Failed += V.Ok ? 1 : 0;
      }
    return Failed;
  }

private:
  struct Verdict {
    bool Proved, UsedPermute;
    FailureKind Kind;
    bool Ok; ///< Agreed with the answer table.
  };

  void runRules(unsigned WithJobs, std::vector<PecResult> &Results,
                std::vector<double> &Ms, AtpCacheStats *CacheStats,
                uint64_t OpBase) {
    std::unique_ptr<AtpCache> Cache;
    if (UseCache)
      Cache = std::make_unique<AtpCache>();
    PecOptions Base;
    Base.Cache = Cache.get();
    auto ProveOne = [&](size_t I, const PecOptions &O) {
      CurrentOp = OpBase + I;
      auto T0 = Clock::now();
      {
        Span S("pec.prove");
        Results[I] = proveRule(Rules[I], O);
      }
      Ms[I] = msBetween(T0, Clock::now());
    };
    if (WithJobs > 1) {
      ThreadPool Pool(WithJobs);
      PecOptions O = Base;
      O.Pool = &Pool;
      TaskGroup Group(Pool);
      for (size_t I = 0; I < Rules.size(); ++I)
        Group.spawn([&ProveOne, &O, I] { ProveOne(I, O); });
      Group.wait();
    } else {
      for (size_t I = 0; I < Rules.size(); ++I)
        ProveOne(I, Base);
    }
    if (Cache && CacheStats)
      *CacheStats = Cache->stats();
  }

  /// --plant: report one verdict the way a broken prover would.
  void plant(std::vector<PecResult> &Results) {
    if (Results.empty())
      return;
    PecResult &R = Results.front();
    if (Opts.Plant == "figure11-proved" && Opts.Workload == "figure11")
      R.Proved = false;
    else if (Opts.Plant == "figure11-permute" && Opts.Workload == "figure11")
      R.UsedPermute = !R.UsedPermute;
    else if (Opts.Plant == "failing-rejected" && Opts.Workload == "failing")
      R.Proved = true;
    else if (Opts.Plant == "parallel-verdict" &&
             Opts.Workload == "figure11_parallel")
      R.Kind = FailureKind::NoCorrelation;
  }

  bool verdictOk(const std::string &Name, const PecResult &R) {
    const Expectation &E = Expect.at(Name);
    if (R.Proved != E.Proved) {
      if (E.Proved)
        checkFailed("figure11-proved",
                    Name + " was not proved: " + R.FailureReason);
      else
        checkFailed("failing-rejected",
                    Name + " was proved, but it is wrong: " + E.Why);
      return false;
    }
    if (E.UsesPermute >= 0 && R.UsedPermute != (E.UsesPermute == 1)) {
      checkFailed("figure11-permute",
                  Name + (E.UsesPermute ? " should" : " should not") +
                      " be proved through Permute (paper Figure 11)");
      return false;
    }
    return true;
  }

  std::vector<Rule> Rules;
  std::map<std::string, Expectation> Expect;
  unsigned Jobs;
  bool UseCache;
  const Options &Opts;
  /// Verdicts of every pass, kept at more than one job for finish().
  std::vector<std::vector<Verdict>> PassVerdicts;
};

//===----------------------------------------------------------------------===//
// serve_warm: generated apply programs and the daemon client
//===----------------------------------------------------------------------===//

/// One apply request's input: a rule, a program the benchmark generated so
/// that the rule fires on it, and what the interpreter check needs.
struct ApplyCase {
  std::string RuleName;
  std::string Program;
  std::vector<std::string> Scalars; ///< Every scalar the program reads.
  std::vector<std::string> Arrays;
  /// Loop indices the rule's proof requires dead after the fragment: the
  /// rewritten program may leave them with other values.
  std::vector<std::string> Ignore;
};

/// Program templates, one per rule, with placeholders $0..$9 for distinct
/// scalars, @0..@1 for distinct arrays and #0..#1 for small constants.
/// Each shape is one the engine establishes the rule's side condition on
/// syntactically (no analysis oracle), so the rule fires on every seed.
struct ApplyTemplate {
  const char *Rule;
  const char *Text;
  unsigned NumScalars, NumArrays;
  std::vector<unsigned> IgnoreScalars;
};

const ApplyTemplate ApplyTemplates[] = {
    {"copy_propagation", "$0 := $1; @0[$0] := $0 + #0;", 2, 1, {}},
    {"constant_propagation", "$0 := #0; $1 := $0 * $0 + $2;", 3, 0, {}},
    {"common_subexpression_elimination",
     "$0 := $1 + $2; $3 := #0; $4 := $1 + $2;", 5, 0, {}},
    {"loop_unrolling", "while ($0 < $1) { $2 := $2 + $0; $0++; }", 3, 0, {}},
    {"loop_peeling", "while ($0 < $1) { $2 := $2 * #0 + $0; $0++; }", 3, 0,
     {}},
    {"loop_fusion",
     "for ($0 := $2; $0 <= $3; $0++) { @0[$0] := @0[$0] + #0; } "
     "for ($1 := $2; $1 <= $3; $1++) { @1[$1] := @1[$1] * #1; }",
     4, 2, {0, 1}},
    {"dead_store_elimination", "$0 := $1 + #0; $0 := $2 * #1;", 3, 0, {}},
    {"redundant_load_elimination", "$0 := @0[$2 + #0]; $1 := @0[$2 + #0];",
     3, 1, {}},
    {"strength_reduction", "$0 := ($1 + $2) * 2;", 3, 0, {}},
    {"code_sinking", "$0 := $1 + $2; @0[#0] := #1;", 3, 1, {}},
};

ApplyCase generateApply(const ApplyTemplate &T, Rng &R) {
  static const char *const ScalarPool[] = {"p", "q", "r", "s", "t", "u",
                                           "v", "w", "x", "y", "z", "k"};
  static const char *const ArrayPool[] = {"a", "b", "g", "h", "m"};
  std::vector<std::string> S(std::begin(ScalarPool), std::end(ScalarPool));
  std::vector<std::string> A(std::begin(ArrayPool), std::end(ArrayPool));
  R.shuffle(S);
  R.shuffle(A);
  std::string C[2] = {std::to_string(R.range(1, 9)),
                      std::to_string(R.range(1, 9))};
  ApplyCase Out;
  Out.RuleName = T.Rule;
  for (const char *P = T.Text; *P; ++P) {
    unsigned N = P[1] - '0';
    if ((*P == '$' || *P == '@' || *P == '#') && P[1] >= '0' && P[1] <= '9') {
      Out.Program += *P == '$' ? S[N] : *P == '@' ? A[N] : C[N];
      ++P;
    } else {
      Out.Program += *P;
    }
  }
  Out.Scalars.assign(S.begin(), S.begin() + T.NumScalars);
  Out.Arrays.assign(A.begin(), A.begin() + T.NumArrays);
  for (unsigned I : T.IgnoreScalars)
    Out.Ignore.push_back(S[I]);
  return Out;
}

/// Runs the original and the returned program on seeded input stores and
/// compares their final states, apart from the ignored loop indices.
bool sameBehaviour(const ApplyCase &C, const StmtPtr &Original,
                   const std::string &Returned, uint64_t Seed,
                   std::string &Why) {
  Expected<StmtPtr> New = [&] {
    Span S("lang.parse");
    return parseProgram(Returned);
  }();
  if (!New) {
    Why = "returned program does not parse: " + New.error().str();
    return false;
  }
  Rng R{Seed};
  for (int Store = 0; Store < 4; ++Store) {
    State Init;
    for (const std::string &V : C.Scalars)
      Init.setScalar(Symbol::get(V), R.range(-3, 6));
    for (const std::string &A : C.Arrays)
      for (int64_t I = -4; I <= 20; ++I)
        Init.setArrayElem(Symbol::get(A), I, R.range(-9, 9));
    ExecResult R1, R2;
    {
      Span S("interp.run");
      R1 = run(Original, Init);
      R2 = run(*New, Init);
    }
    if (!R1.ok() || !R2.ok()) {
      Why = std::string("interpreter trap: ") + execStatusName(R1.Status) +
            " / " + execStatusName(R2.Status);
      return false;
    }
    for (const std::string &V : C.Ignore) {
      R1.Final.setScalar(Symbol::get(V), 0);
      R2.Final.setScalar(Symbol::get(V), 0);
    }
    if (!(R1.Final == R2.Final)) {
      Why = "final states differ: " + R1.Final.str() + " vs " +
            R2.Final.str();
      return false;
    }
  }
  return true;
}

/// A `pec serve` daemon owned by the benchmark: started in the
/// constructor, shut down and waited for in the destructor.
class Daemon {
public:
  Daemon(const std::string &Pec, const std::string &Dir) : Dir(Dir) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    Socket = Dir + "/s";
    std::string Log = Dir + "/daemon.log";
    std::string Exe = std::filesystem::absolute(Pec).string();
    pid_t Parent = getpid();
    pid_t Pid = fork();
    if (Pid < 0)
      fail("fork failed");
    if (Pid == 0) {
      // The daemon must not outlive the benchmark, even when the benchmark
      // is killed (run.py's timeout).
      if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != Parent)
        _exit(127);
      int Fd = open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        dup2(Fd, 1);
        dup2(Fd, 2);
        close(Fd);
      }
      // The daemon writes flight-recorder dumps to its working directory;
      // they go away with Dir.
      if (chdir(Dir.c_str()) != 0)
        _exit(127);
      execl(Exe.c_str(), Exe.c_str(), "serve", "--socket", "s", "--jobs", "1",
            "--cache-dir", "cache", static_cast<char *>(nullptr));
      _exit(127);
    }
    DaemonPid = Pid;
    // Wait until it answers, polling finely: the wait is set-up time.
    for (int I = 0; I < 30000; ++I) {
      std::string Reply;
      if (serve::clientRequest(Socket, "{\"verb\":\"ping\"}", Reply))
        return;
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        DaemonPid = 0;
        fail("pec serve exited before answering; see " + Log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fail("pec serve did not answer within 30 s");
  }

  ~Daemon() {
    std::string Reply;
    serve::clientRequest(Socket, "{\"verb\":\"shutdown\"}", Reply);
    for (int I = 0; I < 1000 && DaemonPid > 0; ++I) {
      if (waitpid(DaemonPid, nullptr, WNOHANG) == DaemonPid)
        DaemonPid = 0;
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (DaemonPid > 0) {
      kill(DaemonPid, SIGKILL);
      waitpid(DaemonPid, nullptr, 0);
      DaemonPid = 0;
    }
    std::error_code Ignored;
    std::filesystem::remove_all(Dir, Ignored);
  }

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  std::string request(const std::string &Json) {
    std::string Reply, Error;
    if (!serve::clientRequest(Socket, Json, Reply, &Error))
      fail("serve request failed: " + Error);
    return Reply;
  }

  /// CPU time of all the daemon's threads so far, read from outside
  /// (schedstat's first field, in nanoseconds).
  double cpuMs() const {
    double Ns = 0;
    std::error_code Ec;
    std::string Tasks = "/proc/" + std::to_string(DaemonPid) + "/task";
    for (const auto &E : std::filesystem::directory_iterator(Tasks, Ec)) {
      std::ifstream In(E.path() / "schedstat");
      double V = 0;
      if (In >> V)
        Ns += V;
    }
    return Ns / 1e6;
  }

  double peakRssMb() const { return peakRssMbOf(DaemonPid); }

private:
  std::string Dir, Socket;
};

double jsonNumber(const json::ValuePtr &V, const char *Key) {
  json::ValuePtr F = V ? V->get(Key) : nullptr;
  return F && F->isNumber() ? F->numberValue() : 0;
}

/// serve_warm: one operation is one request to a primed daemon. Every
/// distinct request is sent once during set-up (cold); each timed pass
/// sends all of them again in a seeded order (warm) and checks each warm
/// reply byte for byte against the cold one.
class ServeWorkload : public Workload {
public:
  ServeWorkload(const Options &Opts, Rng &R)
      : Opts(Opts),
        D(Opts.Pec, ".bench_build/perfbench-serve-" + std::to_string(getpid())) {
    std::map<std::string, Expectation> Expect =
        provedTable("perfbench/answers/figure11.tsv", 3);
    for (auto &[Name, E] : provedTable("perfbench/answers/extensions.tsv", 2))
      Expect[Name] = E;

    std::map<std::string, std::string> RuleText;
    for (const char *File : {"rules/figure11.rules", "rules/extensions.rules"})
      for (std::string &Text : splitRuleTexts(readFile(File))) {
        std::vector<Rule> One = parseRulesTimed(Text, File);
        if (One.size() != 1)
          fail(std::string("cannot split ") + File + " into single rules");
        RuleText[One[0].Name] = Text;
      }
    for (auto &[Name, E] : Expect) {
      if (!RuleText.count(Name))
        fail("no rule text for " + Name);
      Requests.push_back({"{\"verb\":\"prove\",\"rules\":\"" +
                              escapeJson(RuleText[Name]) + "\"}",
                          Name, RuleText[Name], E, -1});
    }
    for (int Round = 0; Round < 2; ++Round)
      for (const ApplyTemplate &T : ApplyTemplates) {
        ApplyCase C = generateApply(T, R);
        Expected<StmtPtr> P = [&] {
          Span S("lang.parse");
          return parseProgram(C.Program);
        }();
        if (!P || !RuleText.count(C.RuleName))
          fail("bad generated apply case for " + C.RuleName);
        Originals.push_back(*P);
        Requests.push_back({"{\"verb\":\"apply\",\"rules\":\"" +
                                escapeJson(RuleText[C.RuleName]) +
                                "\",\"program\":\"" + escapeJson(C.Program) +
                                "\",\"fixpoint\":false}",
                            C.RuleName, RuleText[C.RuleName],
                            Expect[C.RuleName],
                            static_cast<int>(Cases.size())});
        Cases.push_back(std::move(C));
      }
    // Prime: every distinct request once, cold. A wrong cold reply makes
    // its request fail in every pass.
    auto Cold0 = Clock::now();
    for (size_t I = 0; I < Requests.size(); ++I) {
      CurrentOp = I;
      Request &Q = Requests[I];
      {
        Span S("serve.request");
        Q.Cold = D.request(Q.Json);
      }
      Q.ColdOk = replyOk(Q, Q.Cold, I);
    }
    // Context for the README's cold-versus-warm comparison, not a metric.
    std::fprintf(stderr, "perfbench: serve_warm cold pass %.3f ms\n",
                 msBetween(Cold0, Clock::now()));
    PrimedRssMb = D.peakRssMb();
    // Traced runs prime the in-process replica the same way.
    if (Opts.Traced) {
      ReplicaPool = std::make_unique<ThreadPool>(1);
      for (const Request &Q : Requests)
        replicate(Q, nullptr);
    }
    Order.resize(Requests.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
  }

  size_t opsPerPass() const override { return Requests.size(); }

  PassResult pass(uint64_t Index, bool Traced) override {
    PassResult P;
    P.OpMs.resize(Order.size());
    std::vector<std::string> Replies(Order.size());
    json::ValuePtr Stats0 =
        Traced ? json::parse(D.request("{\"verb\":\"stats\"}")) : nullptr;
    size_t SpanMark = Trace.size();
    double Cpu0 = Traced ? D.cpuMs() : 0;
    auto T0 = Clock::now();
    for (size_t K = 0; K < Order.size(); ++K) {
      CurrentOp = (Index + 1) * 1000 + K;
      auto B = Clock::now();
      {
        Span S("serve.request");
        Replies[K] = D.request(Requests[Order[K]].Json);
      }
      P.OpMs[K] = msBetween(B, Clock::now());
    }
    P.WallMs = msBetween(T0, Clock::now());
    P.CpuMs = Traced ? D.cpuMs() - Cpu0 : 0;
    json::ValuePtr Stats1 =
        Traced ? json::parse(D.request("{\"verb\":\"stats\"}")) : nullptr;

    if (Opts.Plant == "serve-bytes" && !Replies.empty())
      Replies[0][Replies[0].size() / 2] ^= 1;
    std::vector<double> ProveMs, ApplyMs;
    double Bytes = 0;
    for (size_t K = 0; K < Order.size(); ++K) {
      const Request &Q = Requests[Order[K]];
      bool Ok = Q.ColdOk;
      if (Replies[K] != Q.Cold) {
        checkFailed("serve-bytes", "warm reply for " + Q.Name +
                                       " differs from the cold reply");
        Ok = false;
      } else if (Q.Case >= 0) {
        // Byte-identical to a checked cold reply, but the interpreter check
        // runs on every reply so a planted change shows here on its own.
        Ok &= applyOk(Q, Replies[K], (Index + 1) * 1000 + K);
      }
      P.Failed += Ok ? 0 : 1;
      (Q.Case >= 0 ? ApplyMs : ProveMs).push_back(P.OpMs[K]);
      Bytes += Replies[K].size();
    }

    if (Traced) {
      // The daemon's own counters: its cache, from the stats verb.
      Metrics &L = P.Layer;
      json::ValuePtr C0 = Stats0->get("cache"), C1 = Stats1->get("cache");
      double Hits = jsonNumber(C1, "hits") - jsonNumber(C0, "hits");
      double Misses = jsonNumber(C1, "misses") - jsonNumber(C0, "misses");
      L["cache.lookups"] = Hits + Misses;
      L["cache.hits"] = Hits;
      L["cache.hit_rate"] = Hits + Misses ? Hits / (Hits + Misses) : 0;
      L["serve.prove_ms"] = median(ProveMs);
      L["serve.apply_ms"] = median(ApplyMs);
      L["serve.reply_bytes"] = Bytes;
      L["pool.cpu_ms"] = P.CpuMs;
      L["pool.utilization"] = P.CpuMs / P.WallMs;
      // The splits inside a request, from the replica, after the timing.
      for (size_t K = 0; K < Order.size(); ++K) {
        CurrentOp = (Index + 1) * 1000 + K;
        replicate(Requests[Order[K]], &L);
      }
      L["cache.bypassed"] = L["atp.queries"] - L["cache.lookups"];
      addSpanLayers(L, Trace.selfMs(SpanMark));
    }
    return P;
  }

  /// The daemon's peak once primed: every request proved cold. Warm
  /// passes add only the memory it keeps per served connection.
  double peakRssMb() override { return PrimedRssMb; }

private:
  struct Request {
    std::string Json;
    std::string Name;     ///< The rule the request carries.
    std::string RuleText; ///< Its source, as the request carries it.
    Expectation Expect;
    int Case; ///< Index into Cases for apply requests, -1 for prove.
    std::string Cold;
    bool ColdOk = false;
  };

  bool replyOk(const Request &Q, const std::string &Reply, uint64_t Seed) {
    json::ValuePtr V = json::parse(Reply);
    json::ValuePtr Ok = V ? V->get("ok") : nullptr;
    if (!Ok || !Ok->isBool() || !Ok->boolValue()) {
      checkFailed("serve-reply", Q.Name + ": " + Reply);
      return false;
    }
    if (Q.Case >= 0) {
      if (jsonNumber(V, "applications") < 1) {
        checkFailed("apply-fired", Q.Name + " did not fire on " +
                                       Cases[Q.Case].Program);
        return false;
      }
      return applyOk(Q, Reply, Seed);
    }
    json::ValuePtr Rs = V->get("rules");
    json::ValuePtr R0 = Rs && Rs->isArray() && Rs->array().size() == 1
                            ? Rs->array()[0]
                            : nullptr;
    json::ValuePtr Proved = R0 ? R0->get("proved") : nullptr;
    json::ValuePtr Method = R0 ? R0->get("method") : nullptr;
    if (!Proved || !Proved->isBool() || Proved->boolValue() != Q.Expect.Proved) {
      checkFailed("figure11-proved", Q.Name + " was not proved by the daemon");
      return false;
    }
    if (!Method || !Method->isString() ||
        (Method->stringValue() == "permute") != (Q.Expect.UsesPermute == 1)) {
      checkFailed("figure11-permute",
                  Q.Name + ": wrong proof method from the daemon");
      return false;
    }
    return true;
  }

  bool applyOk(const Request &Q, const std::string &Reply, uint64_t Seed) {
    json::ValuePtr V = json::parse(Reply);
    json::ValuePtr Prog = V ? V->get("program") : nullptr;
    if (!Prog || !Prog->isString()) {
      checkFailed("apply-semantics", Q.Name + ": reply has no program");
      return false;
    }
    std::string Text = Prog->stringValue();
    if (Opts.Plant == "apply-semantics") {
      // One statement changed: the first `:=` now adds one more.
      size_t At = Text.find(';');
      if (At != std::string::npos)
        Text.insert(At, " + 1");
    }
    std::string Why;
    if (!sameBehaviour(Cases[Q.Case], Originals[Q.Case], Text,
                       Opts.Seed * 7919 + Seed, Why)) {
      checkFailed("apply-semantics", Q.Name + " on `" +
                                         Cases[Q.Case].Program + "`: " + Why);
      return false;
    }
    return true;
  }

  /// Traced runs only: does in process what the daemon does for \p Q
  /// (Serve.cpp's handleProve/handleApply: parse, prove against a warm
  /// shared cache on a one-thread pool, apply), with a span around each
  /// layer call, and adds the proof's statistics to \p M when given.
  void replicate(const Request &Q, Metrics *M) {
    Expected<RuleFile> File = [&] {
      Span S("lang.parse");
      return parseRuleFile(Q.RuleText);
    }();
    if (!File || File->Rules.size() != 1)
      fail("replica cannot parse " + Q.Name);
    PecOptions O;
    O.Cache = &ReplicaCache;
    O.Pool = ReplicaPool.get();
    PecResult R = [&] {
      Span S("pec.prove");
      return proveRule(File->Rules[0], O);
    }();
    if (M)
      addProofLayers(*M, R);
    if (Q.Case < 0)
      return;
    Expected<StmtPtr> Program = [&] {
      Span S("lang.parse");
      return parseProgram(Cases[Q.Case].Program);
    }();
    if (!Program)
      fail("replica cannot parse the program for " + Q.Name);
    EngineOptions EO;
    EO.RequiredDeadVars = R.RequiredDeadVars;
    bool Changed = false;
    {
      Span S("engine.apply");
      (void)applyRule(*Program, File->Rules[0], pickFirst, EO, Changed);
    }
    if (M)
      (*M)["engine.applications"] += Changed ? 1 : 0;
  }

  const Options &Opts;
  Daemon D;
  std::vector<Request> Requests;
  std::vector<ApplyCase> Cases;
  std::vector<StmtPtr> Originals;
  std::vector<size_t> Order;
  double PrimedRssMb = 0;
  /// The in-process replica of the daemon's cache and pool.
  AtpCache ReplicaCache;
  std::unique_ptr<ThreadPool> ReplicaPool;
};

//===----------------------------------------------------------------------===//
// Command line and main
//===----------------------------------------------------------------------===//

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      fail("missing value for " + A);
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10), HaveSeed = true;
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Traced = V == "1";
    else if (A == "--pec")
      O.Pec = V;
    else if (A == "--plant")
      O.Plant = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      fail("unknown option " + A);
  }
  if (O.Workload.empty() || !HaveSeed || O.Seconds <= 0)
    fail("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
         "--pec PATH");
  return O;
}

/// Restricts this process, and the processes it starts, to the last CPU
/// it may run on. Client and daemon then hand each request over on one
/// CPU: a wake-up on another vCPU of a shared host costs a varying delay
/// that made unpinned runs of serve_warm differ by a fifth.
void pinToOneCpu() {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof Allowed, &Allowed) != 0)
    fail("cannot read the CPU affinity");
  int Last = -1;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Last = C;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Last, &One);
  if (sched_setaffinity(0, sizeof One, &One) != 0)
    fail("cannot pin to CPU " + std::to_string(Last));
}

std::unique_ptr<Workload> makeWorkload(const Options &O, Rng &R) {
  if (O.Workload == "serve_warm") {
    if (O.Pec.empty())
      fail("serve_warm needs --pec PATH");
    pinToOneCpu();
    return std::make_unique<ServeWorkload>(O, R);
  }
  std::vector<Rule> Rules;
  std::map<std::string, Expectation> Expect;
  unsigned Jobs = 1;
  bool UseCache = true;
  if (O.Workload == "figure11" || O.Workload == "figure11_parallel") {
    Rules = parseRulesTimed(readFile("rules/figure11.rules"), "figure11");
    Expect = provedTable("perfbench/answers/figure11.tsv", 3);
    Jobs = O.Workload == "figure11" ? 1 : 4;
  } else if (O.Workload == "failing") {
    Rules = parseRulesTimed(readFile("perfbench/inputs/failing.rules"),
                            "failing");
    for (Rule &U : parseRulesTimed(readFile("rules/unsound.rules"), "unsound"))
      Rules.push_back(std::move(U));
    for (auto &[Name, Cols] : readTable("perfbench/answers/failing.tsv"))
      Expect[Name] = {false, -1, Cols.size() > 2 ? Cols[2] : ""};
    UseCache = false; // `pec prove` without --jobs runs uncached.
  } else {
    fail("unknown workload " + O.Workload);
  }
  R.shuffle(Rules);
  return std::make_unique<ProveWorkload>(std::move(Rules), std::move(Expect),
                                         Jobs, UseCache, O);
}

void printMetric(std::string &Out, const std::string &Name, double Value,
                 const char *Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof Buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                Out.empty() ? "" : ", ", Name.c_str(), Value, Unit);
  Out += Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  Trace.On = O.Traced;
  Rng R{O.Seed};
  std::unique_ptr<Workload> W = makeWorkload(O, R);
  double SetupS = msBetween(ProcessStart, Clock::now()) / 1e3;
  Metrics SetupLayer;
  if (O.Traced)
    addSpanLayers(SetupLayer, Trace.selfMs(0));

  // Whole passes until the next one would end past the deadline (at least
  // one; traced runs alternate untraced and traced passes, at least two).
  std::vector<PassResult> Passes;
  auto Start = Clock::now();
  double Fastest = 0;
  double PeakRssMb = 0;
  for (uint64_t I = 0;; ++I) {
    bool TracedPass = O.Traced && I % 2 == 1;
    Trace.On = TracedPass;
    Passes.push_back(W->pass(I, TracedPass));
    // Peak memory is read after the first pass: the daemon keeps memory
    // per served connection, so a later reading would grow with the
    // number of passes, and so with the speed of the host.
    if (I == 0)
      PeakRssMb = W->peakRssMb();
    double Wall = Passes.back().WallMs;
    Fastest = I == 0 ? Wall : std::min(Fastest, Wall);
    double Elapsed = msBetween(Start, Clock::now());
    bool Enough = !O.Traced || Passes.size() >= 2;
    if (Enough && Elapsed + Fastest > O.Seconds * 1e3)
      break;
  }
  Trace.On = false;

  uint64_t Failed = 0;
  std::vector<double> Walls, TracedWalls, UntracedWalls;
  for (size_t I = 0; I < Passes.size(); ++I) {
    Failed += Passes[I].Failed;
    Walls.push_back(Passes[I].WallMs);
    (O.Traced && I % 2 == 1 ? TracedWalls : UntracedWalls)
        .push_back(Passes[I].WallMs);
  }
  uint64_t Attempted = Passes.size() * W->opsPerPass();
  Failed += W->finish();

  std::string Out;
  if (!O.Traced) {
    // Per operation, its fastest time over the passes; then the median
    // over the operations.
    std::vector<double> OpMin(W->opsPerPass(), 1e300);
    for (const PassResult &P : Passes)
      for (size_t K = 0; K < P.OpMs.size(); ++K)
        OpMin[K] = std::min(OpMin[K], P.OpMs[K]);
    printMetric(Out, "setup_s", SetupS, "s");
    printMetric(Out, "pass_ms", Fastest, "ms");
    printMetric(Out, "op_p50_ms", median(OpMin), "ms");
    printMetric(Out, "peak_rss_mb", PeakRssMb, "MB");
  } else {
    std::map<std::string, std::vector<double>> Samples;
    for (size_t I = 1; I < Passes.size(); I += 2)
      for (const char *Name : LayerMetricNames)
        Samples[Name].push_back(Passes[I].Layer.count(Name)
                                    ? Passes[I].Layer.at(Name)
                                    : 0);
    for (const char *Name : LayerMetricNames) {
      double V = median(Samples[Name]);
      std::string N = Name;
      if (N == "lang.parse_ms")
        V += SetupLayer["lang.parse_ms"];
      if (N == "trace.overhead")
        V = *std::min_element(TracedWalls.begin(), TracedWalls.end()) /
            *std::min_element(UntracedWalls.begin(), UntracedWalls.end());
      printMetric(Out, N, V, layerUnit(N));
    }
    std::string Path = O.TraceOut.empty()
                           ? ".bench_build/perfbench-trace-" + O.Workload +
                                 "-" + std::to_string(O.Seed) + ".json"
                           : O.TraceOut;
    Trace.write(Path);
    std::fprintf(stderr, "perfbench: chrome trace written to %s\n",
                 Path.c_str());
  }
  W.reset(); // Stops the daemon before the result is printed.

  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu passes=%zu "
               "pass_min_ms=%.3f pass_median_ms=%.3f setup_s=%.4f\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               Passes.size(), Fastest, median(Walls), SetupS);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Out.c_str());
  return 0;
}
