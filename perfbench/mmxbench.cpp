/**
 * @file
 * The mmxdsp performance benchmark: three workloads that drive the
 * library's public API the way its users do, time every call from
 * outside, check every answer, and print one JSON result line.
 *
 *   paper_cold    cold paper reproduction at --scale=1: capture all 23
 *                 pairs into an empty trace directory, replay them with
 *                 runAll(), derive the Table 2/3 rows.
 *   design_sweep  design-space exploration at --scale=1: sweep every
 *                 in-memory trace over a fixed 24-machine grid.
 *   vprofd_mix    the vprofd read path at --scale=8: a seeded,
 *                 closed-loop query stream against a published store.
 *
 * With --trace=1 every call into a library layer is wrapped in a span
 * (name, start, end, parent, query id); the spans are written as JSON
 * and the per-layer metrics are computed from their self times.
 *
 * Usage (normally through perfbench/run.py, which builds this binary):
 *   mmxbench --workload=NAME [--seed=N] [--suite-seed=N] [--mix-seed=N]
 *            [--seconds=S] [--trace=0|1] [--scratch=DIR] [--spans=FILE]
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/paper_data.hh"
#include "harness/suite.hh"
#include "service/query_engine.hh"
#include "service/trace_store.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "trace/materialize.hh"

#ifndef MMXDSP_BUILD_TYPE
#define MMXDSP_BUILD_TYPE "unknown"
#endif

using namespace mmxdsp;
namespace fs = std::filesystem;

namespace {

/** Worker threads inside the library: one client, two workers. */
constexpr int kThreads = 2;
/** Set-up repetitions whose median is setup_s (where set-up is cheap). */
constexpr int kSetupRepeats = 5;
/** Suite constructions (about 13 ms each at paper scale) timed before
 *  each paper_cold round and after the last; setup_s is their median.
 *  The host's speed changes within seconds, so the samples are spread
 *  over the run rather than taken in one block. */
constexpr int kSuiteSetupRepeats = 40;
/** Warm reproductions whose median is reproduce_s: design_sweep runs
 *  half of them before the sweep rounds and half after, for the same
 *  reason; vprofd_mix runs them after its stream (see peak_rss_mb). */
constexpr int kReproduceRepeats = 10;
constexpr int kServeReproduceRepeats = 75;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * Host CPU time stolen from this virtual machine (the "steal" column of
 * /proc/stat), in seconds summed over all CPUs. Printed beside the
 * timings so a slow run can be told apart from a slow program.
 */
double
stolenSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    in >> cpu;
    for (uint64_t &x : v)
        in >> x;
    return cpu == "cpu" ? static_cast<double>(v[7])
                              / static_cast<double>(sysconf(_SC_CLK_TCK))
                        : 0.0;
}

uint64_t
dirBytes(const fs::path &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

std::vector<uint8_t>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

sim::MachineConfig
paperMachine(sim::ModelKind model)
{
    return sim::MachineConfig{model, sim::TimerConfig{}};
}

const sim::ModelKind kModels[] = {sim::ModelKind::P5, sim::ModelKind::P6,
                                  sim::ModelKind::P6P};

using Pair = std::pair<std::string, std::string>;

// ---------------------------------------------------------------------
// Spans

/** One timed call into a library layer. Names and tags are literals
 *  of this file, so they are written to JSON without escaping. */
struct SpanRec
{
    std::string name;   ///< "layer.call", e.g. "store.load"
    std::string tag;    ///< call detail: model, query class, ...
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t query = -1; ///< vprofd_mix query id
    double amount = 0;  ///< work done: instructions or bytes
};

/**
 * In-memory span recorder. Spans nest per thread; a span opened on a
 * worker thread names its parent explicitly. Disabled, every call is a
 * branch and nothing is recorded.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}
    bool on() const { return on_; }

    int64_t
    open(const char *name, int64_t parent)
    {
        if (!on_)
            return -1;
        if (parent < 0 && !stack().empty())
            parent = stack().back();
        std::lock_guard<std::mutex> lock(mu_);
        SpanRec rec;
        rec.name = name;
        rec.parent = parent;
        rec.start_ns = nowNs();
        spans_.push_back(std::move(rec));
        const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
        stack().push_back(id);
        return id;
    }

    void
    close(int64_t id)
    {
        if (id < 0)
            return;
        const int64_t end = nowNs();
        stack().pop_back();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id)].end_ns = end;
    }

    template <typename Fn>
    void
    edit(int64_t id, Fn &&fn)
    {
        if (id < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        fn(spans_[static_cast<size_t>(id)]);
    }

    const std::deque<SpanRec> &spans() const { return spans_; }

  private:
    static std::vector<int64_t> &
    stack()
    {
        thread_local std::vector<int64_t> s;
        return s;
    }

    bool on_;
    std::mutex mu_;
    std::deque<SpanRec> spans_;
};

/** RAII span; the attribute setters are no-ops when tracing is off. */
class Span
{
  public:
    Span(Tracer &t, const char *name, int64_t parent = -1)
        : t_(t), id_(t.open(name, parent))
    {
    }
    ~Span() { t_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t id() const { return id_; }
    void tag(const std::string &s)
    {
        t_.edit(id_, [&](SpanRec &r) { r.tag = s; });
    }
    void amount(double a)
    {
        t_.edit(id_, [&](SpanRec &r) { r.amount = a; });
    }
    void query(int64_t q)
    {
        t_.edit(id_, [&](SpanRec &r) { r.query = q; });
    }

  private:
    Tracer &t_;
    int64_t id_;
};

/** Self time (s) of every span: its length minus what children cover. */
std::vector<double>
selfTimes(const std::deque<SpanRec> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<size_t>(spans[i].parent)].push_back(i);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (size_t c : children[i])
            iv.emplace_back(std::max(lo, spans[c].start_ns),
                            std::min(hi, spans[c].end_ns));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_lo = 0, cur_hi = -1;
        for (const auto &[a, b] : iv) {
            if (b <= a)
                continue;
            if (a > cur_hi) {
                covered += std::max<int64_t>(0, cur_hi - cur_lo);
                cur_lo = a;
                cur_hi = b;
            } else {
                cur_hi = std::max(cur_hi, b);
            }
        }
        covered += std::max<int64_t>(0, cur_hi - cur_lo);
        self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
    }
    return self;
}

void
writeSpans(const std::deque<SpanRec> &spans, const std::string &path)
{
    if (path.empty())
        return;
    fs::create_directories(fs::path(path).parent_path());
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "mmxbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"tag\":\"%s\","
                     "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"query\":%lld,\"amount\":%.17g}%s\n",
                     i, s.name.c_str(), s.tag.c_str(),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.query), s.amount,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

// ---------------------------------------------------------------------
// Run report: operations per kind, checks, metrics

class Report
{
  public:
    /** Count one operation of @p kind (capture, replay, sweep, ...). */
    void
    op(const std::string &kind, bool ok, uint64_t n = 1)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ops_[kind].first += n;
        if (!ok)
            ops_[kind].second += n;
    }

    /** A correctness check: an operation of kind "check". */
    bool
    check(bool ok, const std::string &what)
    {
        op("check", ok);
        if (!ok) {
            std::lock_guard<std::mutex> lock(mu_);
            if (failures_.size() < 20)
                failures_.push_back(what);
        }
        return ok;
    }

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.emplace_back(name, std::make_pair(value, unit));
    }

    uint64_t
    attempted() const
    {
        uint64_t n = 0;
        for (const auto &[k, v] : ops_)
            n += v.first;
        return n;
    }
    uint64_t
    failed() const
    {
        uint64_t n = 0;
        for (const auto &[k, v] : ops_)
            n += v.second;
        return n;
    }
    /** At least one check ran and none failed. */
    bool
    correct() const
    {
        auto it = ops_.find("check");
        return it != ops_.end() && it->second.second == 0;
    }

    void
    print() const
    {
        for (const std::string &f : failures_)
            std::printf("check failed: %s\n", f.c_str());
        std::printf("{\"operations\": {");
        bool first = true;
        for (const auto &[k, v] : ops_) {
            std::printf("%s\"%s\": {\"attempted\": %llu, \"failed\": %llu}",
                        first ? "" : ", ", k.c_str(),
                        static_cast<unsigned long long>(v.first),
                        static_cast<unsigned long long>(v.second));
            first = false;
        }
        std::printf("}}\n");
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    correct() ? "true" : "false",
                    static_cast<unsigned long long>(attempted()),
                    static_cast<unsigned long long>(failed()));
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].first.c_str(),
                        metrics_[i].second.first, metrics_[i].second.second);
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    std::mutex mu_;
    std::map<std::string, std::pair<uint64_t, uint64_t>> ops_;
    std::vector<std::string> failures_;
    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        metrics_;
};

// ---------------------------------------------------------------------
// Profile checks shared by the workloads

bool
sameProfile(const profile::ProfileResult &a, const profile::ProfileResult &b)
{
    auto sameTimer = [](const sim::TimerStats &x, const sim::TimerStats &y) {
        return x.instructions == y.instructions && x.pairs == y.pairs
               && x.memPenaltyCycles == y.memPenaltyCycles
               && x.mispredictCycles == y.mispredictCycles
               && x.dependStallCycles == y.dependStallCycles
               && x.blockingExtraCycles == y.blockingExtraCycles
               && x.uopsIssued == y.uopsIssued
               && x.retireStallCycles == y.retireStallCycles
               && x.portStallCycles == y.portStallCycles;
    };
    auto sameCache = [](const mem::CacheStats &x, const mem::CacheStats &y) {
        return x.accesses == y.accesses && x.misses == y.misses
               && x.evictions == y.evictions && x.writebacks == y.writebacks;
    };
    auto sameBtb = [](const mem::BtbStats &x, const mem::BtbStats &y) {
        return x.branches == y.branches && x.mispredicts == y.mispredicts
               && x.missesInBtb == y.missesInBtb;
    };
    if (a.functions.size() != b.functions.size())
        return false;
    for (auto ia = a.functions.begin(), ib = b.functions.begin();
         ia != a.functions.end(); ++ia, ++ib) {
        if (ia->first != ib->first || ia->second.calls != ib->second.calls
            || ia->second.instructions != ib->second.instructions
            || ia->second.cycles != ib->second.cycles)
            return false;
    }
    return a.dynamicInstructions == b.dynamicInstructions
           && a.staticInstructions == b.staticInstructions
           && a.uops == b.uops && a.cycles == b.cycles
           && a.memoryReferences == b.memoryReferences
           && a.mmxInstructions == b.mmxInstructions
           && a.mmxByCategory == b.mmxByCategory
           && a.functionCalls == b.functionCalls
           && a.callRetCycles == b.callRetCycles
           && a.callOverheadCycles == b.callOverheadCycles
           && a.opCounts == b.opCounts && sameTimer(a.timer, b.timer)
           && sameCache(a.l1, b.l1) && sameCache(a.l2, b.l2)
           && sameBtb(a.btb, b.btb);
}

/**
 * Properties every profile must have: Σ opCounts equals the dynamic
 * instruction count, memory references never exceed it, and IPC stays
 * within the model's issue width (2 on the P5, 3 on the P6 family).
 */
void
checkProfileInvariants(Report &report, const std::string &what,
                       const profile::ProfileResult &p, sim::ModelKind model)
{
    uint64_t ops = 0;
    for (uint64_t n : p.opCounts)
        ops += n;
    const double width = model == sim::ModelKind::P5 ? 2.0 : 3.0;
    report.check(ops == p.dynamicInstructions,
                 what + ": sum of opCounts != dynamic instructions");
    report.check(p.memoryReferences <= p.dynamicInstructions,
                 what + ": memory references > dynamic instructions");
    report.check(p.dynamicInstructions > 0 && p.cycles > 0
                     && p.instructionsPerCycle() <= width,
                 what + ": IPC out of range");
}

bool
isScalarVersion(const std::string &version)
{
    return version == "c" || version == "c_blocked" || version == "fp";
}

/** Table 3 (paper order): base version vs the benchmark's mmx version. */
const Pair kTable3Rows[] = {
    {"fft", "c"},    {"fft", "fp"}, {"fir", "c"},   {"fir", "fp"},
    {"iir", "c"},    {"iir", "fp"}, {"matvec", "c"}, {"g722", "c"},
    {"image", "c"},  {"jpeg", "c"}, {"radar", "c"},
};

/**
 * Derive the Table 3 speed-ups from P5 profiles keyed "bench.version",
 * print them beside the paper's, and return mean |ln(measured/paper)|.
 */
double
paperSpeedupError(
    const std::map<std::string, profile::ProfileResult> &profiles,
    Report &report, const char *label)
{
    double sum = 0;
    int n = 0;
    std::printf("table3 speedup (%s) measured/paper:", label);
    for (const auto &[bench, version] : kTable3Rows) {
        const std::string base = bench + "." + version;
        auto ib = profiles.find(base), im = profiles.find(bench + ".mmx");
        const harness::PaperTable3Row *paper = harness::paperTable3For(base);
        if (!report.check(ib != profiles.end() && im != profiles.end()
                              && paper && im->second.cycles > 0,
                          "table3 row " + base + " missing"))
            continue;
        const double measured = static_cast<double>(ib->second.cycles)
                                / static_cast<double>(im->second.cycles);
        std::printf(" %s=%.3f/%.2f", base.c_str(), measured, paper->speedup);
        sum += std::fabs(std::log(measured / paper->speedup));
        ++n;
    }
    std::printf("\n");
    return n ? sum / n : 0.0;
}

/**
 * Table 2 rows (per pair): static instructions, micro-ops, dynamic
 * instructions, %memory references and %MMX. Every pair must have a
 * row with in-range values, and scalar versions must execute no MMX
 * instruction.
 */
void
deriveTable2(const std::map<std::string, profile::ProfileResult> &profiles,
             Report &report)
{
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string name = bench + "." + version;
        auto it = profiles.find(name);
        if (!report.check(it != profiles.end(), "table2 row " + name))
            continue;
        const profile::ProfileResult &p = it->second;
        report.check(p.staticInstructions > 0
                         && p.staticInstructions <= p.dynamicInstructions
                         && p.pctMemoryReferences() <= 100.0
                         && p.pctMmx() <= 100.0,
                     "table2 row " + name + " out of range");
        if (isScalarVersion(version))
            report.check(p.mmxInstructions == 0,
                         name + ": scalar version executed MMX");
    }
}

// ---------------------------------------------------------------------
// Options

struct Options
{
    std::string workload;
    uint64_t suite_seed = 42; ///< SuiteConfig::seed (paper default 42)
    uint64_t mix_seed = 42;   ///< vprofd_mix query stream
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".bench_build/scratch";
    std::string spans;
};

bool
parseU64(const char *s, uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || !*s || *end)
        return false;
    *out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options *o)
{
    bool seed_given = false, suite_given = false, mix_given = false;
    uint64_t seed = 42;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string key = a, val;
        if (auto eq = a.find('='); eq != std::string::npos) {
            key = a.substr(0, eq);
            val = a.substr(eq + 1);
        } else if (i + 1 < argc) {
            val = argv[++i];
        }
        uint64_t n = 0;
        if (key == "--workload")
            o->workload = val;
        else if (key == "--seed" && parseU64(val.c_str(), &n))
            seed = n, seed_given = true;
        else if (key == "--suite-seed" && parseU64(val.c_str(), &n))
            o->suite_seed = n, suite_given = true;
        else if (key == "--mix-seed" && parseU64(val.c_str(), &n))
            o->mix_seed = n, mix_given = true;
        else if (key == "--seconds" && parseU64(val.c_str(), &n) && n > 0)
            o->seconds = static_cast<double>(n);
        else if (key == "--trace" && (val == "0" || val == "1"))
            o->trace = val == "1";
        else if (key == "--scratch" && !val.empty())
            o->scratch = val;
        else if (key == "--spans")
            o->spans = val;
        else {
            std::fprintf(stderr, "mmxbench: bad argument '%s'\n", argv[i]);
            return false;
        }
    }
    if (seed_given) {
        if (!suite_given)
            o->suite_seed = seed;
        if (!mix_given)
            o->mix_seed = seed;
    }
    return true;
}

/** Everything a workload needs. */
struct Ctx
{
    Options opts;
    Tracer tracer;
    Report report;
    fs::path scratch; ///< fresh per-run directory, removed at exit
    int scale = 1;
    double start = 0;  ///< process start (for the wall-time footer)
    double stolen = 0; ///< stolenSeconds() at start
    std::map<std::string, double> phases; ///< wall seconds per phase

    explicit Ctx(const Options &o) : opts(o), tracer(o.trace) {}

    harness::SuiteConfig
    suiteConfig() const
    {
        harness::SuiteConfig cfg;
        cfg.seed = opts.suite_seed;
        cfg.scaleDown(scale);
        return cfg;
    }
};

/**
 * A phase of a run (setup, reproduce, round, check): a "run.<name>"
 * span when tracing, and always a wall-time total printed at the end.
 */
class Phase
{
  public:
    Phase(Ctx &ctx, const std::string &name)
        : ctx_(ctx), name_(name), span_(ctx.tracer, ("run." + name).c_str()),
          t0_(nowS())
    {
    }
    ~Phase() { ctx_.phases[name_] += nowS() - t0_; }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;
    int64_t id() const { return span_.id(); }

  private:
    Ctx &ctx_;
    std::string name_;
    Span span_;
    double t0_;
};

// ---------------------------------------------------------------------
// Per-layer metrics from spans

/** Span statistics by name (and optionally tag). */
struct LayerView
{
    const std::deque<SpanRec> &spans;
    std::vector<double> self;

    explicit LayerView(const std::deque<SpanRec> &s)
        : spans(s), self(selfTimes(s))
    {
    }

    template <typename Pred>
    std::vector<size_t>
    select(Pred pred) const
    {
        std::vector<size_t> out;
        for (size_t i = 0; i < spans.size(); ++i)
            if (pred(spans[i]))
                out.push_back(i);
        return out;
    }
    std::vector<size_t>
    named(const std::string &name, const std::string &tag = "") const
    {
        return select([&](const SpanRec &s) {
            return s.name == name && (tag.empty() || s.tag == tag);
        });
    }
    double
    selfSum(const std::vector<size_t> &ids) const
    {
        double t = 0;
        for (size_t i : ids)
            t += self[i];
        return t;
    }
    double
    amountSum(const std::vector<size_t> &ids) const
    {
        double a = 0;
        for (size_t i : ids)
            a += spans[i].amount;
        return a;
    }
    /** amount per self second, scaled (e.g. 1e-6 for M/s). */
    double
    rate(const std::vector<size_t> &ids, double scale) const
    {
        const double t = selfSum(ids);
        return t > 0 ? amountSum(ids) * scale / t : 0.0;
    }
    double
    selfP50(const std::vector<size_t> &ids, double scale) const
    {
        std::vector<double> v;
        for (size_t i : ids)
            v.push_back(self[i] * scale);
        return median(v);
    }
};

/** Engine counters for the ratio metrics (vprofd_mix only). */
struct EngineTotals
{
    uint64_t queries = 0, result_hits = 0, resident = 0, lookups = 0;
};

/**
 * Every per-layer metric, in a fixed order. A layer the workload does
 * not call reports 0 (no spans of that name).
 */
void
reportLayers(Ctx &ctx, int rounds, double sim_minstr,
             const EngineTotals &engine)
{
    LayerView v(ctx.tracer.spans());
    Report &r = ctx.report;
    const double per_round = rounds > 0 ? 1.0 / rounds : 0.0;

    auto capture = v.named("harness.traceFor");
    r.metric("harness.capture_s", v.selfSum(capture) * per_round, "s");
    r.metric("harness.capture_minstr_per_s", v.rate(capture, 1e-6),
             "Minstr/s");
    r.metric("harness.replay_s",
             v.selfSum(v.named("harness.runAll")) * per_round, "s");

    auto direct = v.named("trace.materializedFor");
    r.metric("trace.capture_direct_s", v.selfSum(direct), "s");
    r.metric("trace.capture_direct_minstr_per_s", v.rate(direct, 1e-6),
             "Minstr/s");
    r.metric("trace.serialize_mb_per_s",
             v.rate(v.named("trace.serializeV2"), 1e-6), "MB/s");
    r.metric("replay.p5_minstr_per_s",
             v.rate(v.named("trace.replayProfile", "p5"), 1e-6), "Minstr/s");
    r.metric("replay.p6_minstr_per_s",
             v.rate(v.named("trace.replayProfile", "p6"), 1e-6), "Minstr/s");
    r.metric("replay.p6p_minstr_per_s",
             v.rate(v.named("trace.replayProfile", "p6p"), 1e-6),
             "Minstr/s");

    r.metric("sweep.wide_call_ms_p50",
             v.selfP50(v.named("sweep.replaySweep", "wide"), 1e3), "ms");
    r.metric("sweep.fixed_ms",
             v.selfP50(v.named("sweep.replaySweep", "fixed"), 1e3), "ms");

    r.metric("store.publish_mb_per_s", v.rate(v.named("store.store"), 1e-6),
             "MB/s");
    auto loads = v.named("store.load");
    r.metric("store.load_ms_p50", v.selfP50(loads, 1e3), "ms");
    r.metric("store.load_mb_per_s", v.rate(loads, 1e-6), "MB/s");

    auto queries = v.select([](const SpanRec &s) {
        return s.name == "engine.query" || s.name == "engine.queryBatch";
    });
    auto ofClass = [&](const char *cls) {
        std::vector<size_t> out;
        for (size_t i : queries)
            if (v.spans[i].tag == cls)
                out.push_back(i);
        return out;
    };
    r.metric("engine.hit_us_p50", v.selfP50(ofClass("hit"), 1e6), "us");
    r.metric("engine.resident_miss_ms_p50",
             v.selfP50(ofClass("resident_miss"), 1e3), "ms");
    r.metric("engine.load_miss_ms_p50", v.selfP50(ofClass("load_miss"), 1e3),
             "ms");
    r.metric("engine.result_hit_ratio",
             engine.queries ? static_cast<double>(engine.result_hits)
                                  / static_cast<double>(engine.queries)
                            : 0.0,
             "ratio");
    r.metric("engine.trace_resident_ratio",
             engine.lookups ? static_cast<double>(engine.resident)
                                  / static_cast<double>(engine.lookups)
                            : 0.0,
             "ratio");
    r.metric("sim_minstr", sim_minstr, "Minstr");
}

/** The end-to-end metrics every workload reports (untraced runs). */
struct EndToEnd
{
    double reproduce_s = 0;
    std::vector<double> reproduce; ///< every reproduction timed
    double setup_s = 0;
    double sweep_minstr_per_s = 0;
    double queries_per_s = 0;
    std::vector<double> miss_ms; ///< latency samples of replaying answers
    /** Peak RSS once the timed phases end, before the untimed checks
     *  (and, in vprofd_mix, the warm reproduction) can raise it. */
    double peak_rss_mb = 0;
    double trace_store_mb = 0;
    double paper_speedup_err = 0;

    void
    emit(Report &r) const
    {
        r.metric("reproduce_s", reproduce_s, "s");
        r.metric("setup_s", setup_s, "s");
        r.metric("sweep_minstr_per_s", sweep_minstr_per_s, "Minstr/s");
        r.metric("queries_per_s", queries_per_s, "1/s");
        r.metric("miss_p50_ms", percentile(miss_ms, 50), "ms");
        r.metric("miss_p99_ms", percentile(miss_ms, 99), "ms");
        r.metric("peak_rss_mb", peak_rss_mb, "MB");
        r.metric("trace_store_mb", trace_store_mb, "MB");
        r.metric("paper_speedup_err", paper_speedup_err, "ln");
        std::printf("miss latency samples: %zu\n", miss_ms.size());
    }
};

// ---------------------------------------------------------------------
// paper_cold

/**
 * Cold paper reproduction, repeated in whole rounds. Each round builds
 * a fresh suite (set-up), then from an empty trace directory captures
 * every pair with traceFor() — the capture runAll() would do itself —
 * replays them all with runAll(), and derives the Table 2/3 rows. The
 * last round's streaming replays are checked against trace::materialize
 * of the same traces replayed by MaterializedTrace::replayProfile.
 */
void
runPaperCold(Ctx &ctx, EndToEnd &e2e, int *rounds_out, double *sim_minstr)
{
    Report &report = ctx.report;
    Tracer &tracer = ctx.tracer;
    const harness::SuiteConfig cfg = ctx.suiteConfig();
    const auto pairs = harness::BenchmarkSuite::allRuns();
    const sim::MachineConfig p5 = paperMachine(sim::ModelKind::P5);

    std::vector<double> setup, reproduce, store_mb;
    double measured = 0, instr_per_round = 0;
    int rounds = 0;
    const auto constructSuites = [&] {
        for (int i = 0; i < kSuiteSetupRepeats; ++i) {
            Phase s(ctx, "setup");
            const double t0 = nowS();
            {
                Span c(tracer, "harness.BenchmarkSuite");
                harness::BenchmarkSuite suite(cfg, harness::TraceOptions{});
            }
            setup.push_back(nowS() - t0);
        }
    };
    while (rounds == 0 || measured < ctx.opts.seconds) {
        constructSuites();
        const fs::path dir = ctx.scratch / ("paper_cold-" + std::to_string(rounds));
        fs::remove_all(dir);
        fs::create_directories(dir);

        std::unique_ptr<harness::BenchmarkSuite> suite;
        {
            Phase s(ctx, "setup");
            const double t0 = nowS();
            Span c(tracer, "harness.BenchmarkSuite");
            suite = std::make_unique<harness::BenchmarkSuite>(
                cfg, harness::TraceOptions{true, dir.string()}, p5);
            setup.push_back(nowS() - t0);
        }
        // Settle the disk (the last round's deleted corpus) before the
        // round that writes a new one is timed.
        sync();

        std::map<std::string, profile::ProfileResult> profiles;
        std::vector<std::shared_ptr<const trace::TraceReader>> readers;
        double instr = 0;
        {
            Phase round(ctx, "reproduce");
            const double t0 = nowS();
            for (const auto &[bench, version] : pairs) {
                Span s(tracer, "harness.traceFor");
                const double c0 = nowS();
                auto reader = suite->traceFor(bench, version);
                e2e.miss_ms.push_back((nowS() - c0) * 1e3);
                readers.push_back(reader);
                const bool ok = reader && reader->valid();
                report.op("capture", ok);
                if (ok) {
                    s.amount(static_cast<double>(reader->instrCount()));
                    instr += static_cast<double>(reader->instrCount());
                }
            }
            {
                Span s(tracer, "harness.runAll");
                suite->runAll(kThreads);
            }
            for (const auto &[bench, version] : pairs)
                profiles[bench + "." + version] =
                    suite->run(bench, version).profile;
            reproduce.push_back(nowS() - t0);
        }
        measured += reproduce.back();
        instr_per_round = instr;
        report.op("replay", true, pairs.size());

        for (const auto &[name, p] : profiles)
            checkProfileInvariants(report, "paper_cold " + name, p,
                                   sim::ModelKind::P5);
        deriveTable2(profiles, report);
        e2e.paper_speedup_err = paperSpeedupError(profiles, report, "p5");
        store_mb.push_back(static_cast<double>(dirBytes(dir)) / 1e6);

        ++rounds;
        if (measured >= ctx.opts.seconds) {
            e2e.peak_rss_mb = peakRssMb();
            // Identity: streaming v1 replay == materialize + replayProfile.
            Phase chk(ctx, "check");
            const int64_t parent = chk.id();
            parallelFor(pairs.size(), kThreads, [&](size_t i) {
                const auto &[bench, version] = pairs[i];
                if (!report.check(readers[i] && readers[i]->valid(),
                                  "paper_cold " + bench + "." + version
                                      + ": no trace"))
                    return;
                trace::MaterializedTrace mat;
                {
                    Span s(tracer, "trace.materialize", parent);
                    mat = trace::materialize(*readers[i]);
                }
                profile::ProfileResult p;
                {
                    Span s(tracer, "trace.replayProfile", parent);
                    s.tag("p5");
                    s.amount(static_cast<double>(mat.instrCount()));
                    p = mat.replayProfile(p5);
                }
                report.op("replay", true);
                report.check(sameProfile(p, profiles.at(bench + "." + version)),
                             "paper_cold " + bench + "." + version
                                 + ": runAll != materialized replayProfile");
            });
        }
        suite.reset();
        fs::remove_all(dir);
    }
    constructSuites();

    e2e.setup_s = median(setup);
    e2e.reproduce = reproduce;
    e2e.reproduce_s = median(reproduce);
    e2e.sweep_minstr_per_s = instr_per_round * 1e-6 / e2e.reproduce_s;
    e2e.queries_per_s = static_cast<double>(pairs.size()) / e2e.reproduce_s;
    e2e.trace_store_mb = median(store_mb);
    *rounds_out = rounds;
    *sim_minstr = instr_per_round * 1e-6;
}

// ---------------------------------------------------------------------
// design_sweep

/**
 * The fixed 24-machine grid: per model, the paper machine and five
 * more machines built from three L1/L2 geometries and two BTB
 * geometries that every model shares (so their memos are reused and
 * their cache/BTB statistics must agree across models), plus two
 * machines whose geometries belong to that model alone.
 */
std::vector<sim::MachineConfig>
sweepGrid()
{
    struct Geometry
    {
        mem::CacheConfig l1, l2;
    };
    const Geometry shared[] = {
        {{"L1D", 16 * 1024, 32, 4}, {"L2", 512 * 1024, 32, 4}}, // paper
        {{"L1D", 8 * 1024, 32, 2}, {"L2", 512 * 1024, 32, 4}},
        {{"L1D", 32 * 1024, 32, 8}, {"L2", 1024 * 1024, 64, 8}},
    };
    const std::pair<uint32_t, uint32_t> shared_btb[] = {{256, 4}, {64, 2}};
    const Geometry unique[] = {
        {{"L1D", 4 * 1024, 32, 1}, {"L2", 128 * 1024, 32, 2}},
        {{"L1D", 4 * 1024, 32, 2}, {"L2", 128 * 1024, 32, 4}},
        {{"L1D", 8 * 1024, 32, 1}, {"L2", 256 * 1024, 32, 2}},
        {{"L1D", 8 * 1024, 32, 4}, {"L2", 256 * 1024, 32, 4}},
        {{"L1D", 32 * 1024, 32, 2}, {"L2", 256 * 1024, 64, 8}},
        {{"L1D", 64 * 1024, 32, 4}, {"L2", 2048 * 1024, 64, 8}},
    };
    const uint32_t unique_btb[] = {16, 32, 64, 128, 256, 512}; // 1-way
    std::vector<sim::MachineConfig> grid;
    uint32_t model_index = 0;
    for (sim::ModelKind model : kModels) {
        for (const Geometry &g : shared) {
            for (const auto &[entries, ways] : shared_btb) {
                sim::MachineConfig m = paperMachine(model);
                m.timer.l1 = g.l1;
                m.timer.l2 = g.l2;
                m.timer.btb_entries = entries;
                m.timer.btb_ways = ways;
                grid.push_back(m);
            }
        }
        // Two machines per model whose L1, L2 and BTB geometries no
        // other machine in the grid uses.
        for (uint32_t k = 0; k < 2; ++k) {
            const Geometry &g = unique[model_index * 2 + k];
            sim::MachineConfig m = paperMachine(model);
            m.timer.l1 = g.l1;
            m.timer.l2 = g.l2;
            m.timer.btb_entries = unique_btb[model_index * 2 + k];
            m.timer.btb_ways = 1;
            grid.push_back(m);
        }
        ++model_index;
    }
    return grid;
}

bool
sameCacheGeometry(const mem::CacheConfig &a, const mem::CacheConfig &b)
{
    return a.size_bytes == b.size_bytes && a.line_bytes == b.line_bytes
           && a.ways == b.ways;
}

void
runDesignSweep(Ctx &ctx, EndToEnd &e2e, int *rounds_out, double *sim_minstr)
{
    Report &report = ctx.report;
    Tracer &tracer = ctx.tracer;
    const harness::SuiteConfig cfg = ctx.suiteConfig();
    const auto pairs = harness::BenchmarkSuite::allRuns();
    const auto grid = sweepGrid();
    const sim::MachineConfig p5 = paperMachine(sim::ModelKind::P5);

    // Set-up: capture every pair straight into memory (tracing off).
    std::vector<std::shared_ptr<const trace::MaterializedTrace>> mats;
    double instr = 0, resident = 0;
    {
        Phase s(ctx, "setup");
        const double t0 = nowS();
        harness::BenchmarkSuite suite(cfg, harness::TraceOptions{}, p5);
        for (const auto &[bench, version] : pairs) {
            Span c(tracer, "trace.materializedFor");
            auto mat = suite.materializedFor(bench, version);
            const bool ok = mat && mat->valid();
            report.op("capture", ok);
            if (!ok)
                return;
            c.amount(static_cast<double>(mat->instrCount()));
            instr += static_cast<double>(mat->instrCount());
            resident += static_cast<double>(mat->byteSize());
            mats.push_back(std::move(mat));
        }
        e2e.setup_s = nowS() - t0;
    }

    // Warm reproduction from memory: every pair on the P5 paper machine.
    // Largest traces first, so how the two workers split the pairs (and
    // with it the phase's length) does not depend on timing.
    std::vector<size_t> order(pairs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return mats[a]->instrCount() > mats[b]->instrCount();
    });
    std::map<std::string, profile::ProfileResult> tables;
    std::vector<double> reproduce;
    const auto warmReproduce = [&](int reps) {
        for (int rep = 0; rep < reps; ++rep) {
            std::vector<profile::ProfileResult> out(pairs.size());
            Phase s(ctx, "reproduce");
            const int64_t parent = s.id();
            const double t0 = nowS();
            parallelFor(order.size(), kThreads, [&](size_t k) {
                const size_t i = order[k];
                Span r(tracer, "trace.replayProfile", parent);
                r.tag("p5");
                r.amount(static_cast<double>(mats[i]->instrCount()));
                out[i] = mats[i]->replayProfile(p5);
            });
            reproduce.push_back(nowS() - t0);
            report.op("replay", true, pairs.size());
            const bool first = tables.empty();
            for (size_t i = 0; i < pairs.size(); ++i) {
                const std::string name = pairs[i].first + "." + pairs[i].second;
                if (first)
                    tables[name] = out[i];
                else
                    report.check(sameProfile(out[i], tables[name]),
                                 "design_sweep " + name
                                     + ": replay not repeatable");
            }
        }
    };
    warmReproduce(kReproduceRepeats / 2);
    deriveTable2(tables, report);
    e2e.paper_speedup_err = paperSpeedupError(tables, report, "p5");

    // Timed phase: whole rounds of one grid sweep per pair.
    std::vector<std::vector<profile::ProfileResult>> first(pairs.size());
    double sweep_s = 0;
    int rounds = 0;
    while (rounds == 0 || sweep_s < ctx.opts.seconds) {
        Phase s(ctx, "round");
        for (size_t i = 0; i < pairs.size(); ++i) {
            Span w(tracer, "sweep.replaySweep");
            w.tag("wide");
            w.amount(static_cast<double>(mats[i]->instrCount() * grid.size()));
            const double t0 = nowS();
            auto res = mats[i]->replaySweep(grid, kThreads);
            const double dt = nowS() - t0;
            sweep_s += dt;
            e2e.miss_ms.push_back(dt * 1e3);
            const bool ok = res.size() == grid.size();
            report.op("sweep", ok);
            if (rounds == 0)
                first[i] = std::move(res);
            else
                report.check(ok && sameProfile(res[0], first[i][0])
                                 && sameProfile(res.back(), first[i].back()),
                             "design_sweep: sweep not repeatable");
        }
        ++rounds;
    }
    e2e.peak_rss_mb = peakRssMb();
    warmReproduce(kReproduceRepeats - kReproduceRepeats / 2);
    e2e.reproduce = reproduce;
    e2e.reproduce_s = median(reproduce);
    const double lanes_instr = instr * static_cast<double>(grid.size());
    e2e.sweep_minstr_per_s = lanes_instr * rounds * 1e-6 / sweep_s;
    e2e.queries_per_s =
        static_cast<double>(pairs.size() * grid.size()) * rounds / sweep_s;
    e2e.trace_store_mb = resident / 1e6;

    // Checks (untimed): sampled lanes against the scalar reference, the
    // P5 paper lane against the warm replay, and shared geometries.
    std::vector<size_t> sample;
    for (size_t j = 0; j < grid.size(); ++j)
        if (j % 8 == 0) // each model's paper machine
            sample.push_back(j);
    Rng rng(ctx.opts.suite_seed ^ 0x5eedull);
    sample.push_back(1 + rng.nextBelow(static_cast<uint32_t>(grid.size() - 1)));
    std::vector<sim::MachineConfig> sampled;
    for (size_t j : sample)
        sampled.push_back(grid[j]);

    Phase chk(ctx, "check");
    for (size_t i = 0; i < pairs.size(); ++i) {
        const std::string name = pairs[i].first + "." + pairs[i].second;
        const auto &lanes = first[i];
        std::vector<profile::ProfileResult> ref;
        {
            Span r(tracer, "sweep.replaySweepScalar");
            r.amount(static_cast<double>(mats[i]->instrCount() * sampled.size()));
            ref = mats[i]->replaySweepScalar(sampled, kThreads);
        }
        report.op("replay", true, sampled.size());
        for (size_t k = 0; k < sample.size(); ++k)
            report.check(sameProfile(lanes[sample[k]], ref[k]),
                         "design_sweep " + name + ": lane "
                             + std::to_string(sample[k])
                             + " != replaySweepScalar");
        report.check(sameProfile(lanes[0], tables[name]),
                     "design_sweep " + name
                         + ": P5 paper lane != replayProfile");
        for (size_t a = 0; a < grid.size(); ++a) {
            checkProfileInvariants(report, "design_sweep " + name, lanes[a],
                                   grid[a].model);
            for (size_t b = a + 1; b < grid.size(); ++b) {
                const sim::TimerConfig &x = grid[a].timer, &y = grid[b].timer;
                if (sameCacheGeometry(x.l1, y.l1)
                    && sameCacheGeometry(x.l2, y.l2))
                    report.check(
                        lanes[a].l1.misses == lanes[b].l1.misses
                            && lanes[a].l1.accesses == lanes[b].l1.accesses
                            && lanes[a].l2.misses == lanes[b].l2.misses
                            && lanes[a].l2.accesses == lanes[b].l2.accesses,
                        "design_sweep " + name
                            + ": shared cache geometry, different stats");
                if (x.btb_entries == y.btb_entries && x.btb_ways == y.btb_ways)
                    report.check(lanes[a].btb.branches == lanes[b].btb.branches
                                     && lanes[a].btb.mispredicts
                                            == lanes[b].btb.mispredicts
                                     && lanes[a].btb.missesInBtb
                                            == lanes[b].btb.missesInBtb,
                                 "design_sweep " + name
                                     + ": shared BTB geometry, different stats");
            }
        }
    }
    *rounds_out = rounds;
    *sim_minstr = lanes_instr * 1e-6;
}

// ---------------------------------------------------------------------
// vprofd_mix

/** One client request: a single query or a small same-pair batch. */
struct Request
{
    std::vector<service::Query> queries;
    /** For a repeat (always one hot query): the request that first
     *  asked the same key; -1 when every query is new to the stream. */
    int64_t first = -1;
};

/**
 * Query-stream make-up, in requests per round: the 95% hot / 5% cold
 * split of bench/service_load.cpp's default mix, with a fifth of the
 * cold requests made small same-pair batches. Each kind's count is
 * exact, whatever the seed; the seed sets their order and content.
 */
constexpr uint32_t kMixRequests = 20000;
constexpr uint32_t kMixNew = 800;   ///< one query on a never-seen machine
constexpr uint32_t kMixBatch = 200; ///< 2-4 new machines on one pair

/**
 * A machine no other query asks about: a geometry drawn from a small
 * set (so memo geometries vary) made unique by its L2-miss penalty.
 */
sim::MachineConfig
newMachine(Rng &rng, uint32_t id)
{
    sim::MachineConfig m = paperMachine(kModels[rng.nextBelow(3)]);
    const uint32_t l1_kb[] = {4, 8, 16, 32};
    const uint32_t l2_kb[] = {256, 512, 1024};
    const uint32_t btb[] = {64, 128, 256, 512};
    m.timer.l1.size_bytes = l1_kb[rng.nextBelow(4)] * 1024;
    m.timer.l1.ways = 1u << rng.nextBelow(3);
    m.timer.l2.size_bytes = l2_kb[rng.nextBelow(3)] * 1024;
    m.timer.btb_entries = btb[rng.nextBelow(4)];
    m.timer.penalties.l2_miss = 8 + id;
    return m;
}

/** The hot set: every pair on each model's paper machine and on a
 *  small-L1 variant of it. */
std::vector<service::Query>
hotSet()
{
    std::vector<service::Query> hot;
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        for (sim::ModelKind model : kModels) {
            hot.push_back({bench, version, paperMachine(model)});
            sim::MachineConfig small = paperMachine(model);
            small.timer.l1.size_bytes = 8 * 1024;
            hot.push_back({bench, version, small});
        }
    }
    return hot;
}

/**
 * Pairs for new-machine requests, dealt from a shuffled deck of all 23
 * so every pair gets its share of misses whatever the seed; the order
 * within each deck is seeded.
 */
class PairDeck
{
  public:
    explicit PairDeck(Rng &rng)
        : rng_(rng), pairs_(harness::BenchmarkSuite::allRuns())
    {
    }
    const Pair &
    next()
    {
        if (at_ == 0)
            for (size_t i = pairs_.size() - 1; i > 0; --i)
                std::swap(pairs_[i], pairs_[rng_.nextBelow(
                                         static_cast<uint32_t>(i + 1))]);
        const Pair &p = pairs_[at_];
        at_ = (at_ + 1) % pairs_.size();
        return p;
    }

  private:
    Rng &rng_;
    std::vector<Pair> pairs_;
    size_t at_ = 0;
};

std::vector<Request>
makeStream(uint64_t seed)
{
    const auto hot = hotSet();
    Rng rng(seed);
    enum Kind : uint8_t { kHot, kNew, kBatch };
    std::vector<Kind> kinds(kMixRequests, kHot);
    std::fill_n(kinds.begin(), kMixNew, kNew);
    std::fill_n(kinds.begin() + kMixNew, kMixBatch, kBatch);
    for (size_t i = kinds.size() - 1; i > 0; --i)
        std::swap(kinds[i],
                  kinds[rng.nextBelow(static_cast<uint32_t>(i + 1))]);

    PairDeck single(rng), batched(rng);
    std::vector<Request> stream;
    std::map<size_t, int64_t> first_of_hot; // hot key -> first request
    uint32_t next_id = 0, batches = 0;
    for (const Kind kind : kinds) {
        Request req;
        if (kind == kNew) {
            const auto &[b, v] = single.next();
            req.queries.push_back({b, v, newMachine(rng, next_id++)});
        } else if (kind == kBatch) {
            // Sizes 2, 3, 4 in turn, so a round's lane count is exact.
            const auto &[b, v] = batched.next();
            const uint32_t n = 2 + batches++ % 3;
            for (uint32_t k = 0; k < n; ++k)
                req.queries.push_back({b, v, newMachine(rng, next_id++)});
        } else {
            const size_t h = rng.nextBelow(static_cast<uint32_t>(hot.size()));
            req.queries.push_back(hot[h]);
            auto [it, inserted] = first_of_hot.emplace(
                h, static_cast<int64_t>(stream.size()));
            if (!inserted)
                req.first = it->second;
        }
        stream.push_back(std::move(req));
    }
    return stream;
}

std::string
queryKey(const service::Query &q)
{
    return q.benchmark + "." + q.version + "#"
           + std::to_string(service::machineHash(q.machine));
}

void
runVprofdMix(Ctx &ctx, EndToEnd &e2e, int *rounds_out, double *sim_minstr,
             EngineTotals *totals)
{
    Report &report = ctx.report;
    Tracer &tracer = ctx.tracer;
    const harness::SuiteConfig cfg = ctx.suiteConfig();
    const auto pairs = harness::BenchmarkSuite::allRuns();
    const sim::MachineConfig p5 = paperMachine(sim::ModelKind::P5);

    // Set-up: publish the corpus through a capturing engine, several
    // times into fresh stores; the last store is served from. Each
    // publish runs in its own process, as a capturing vprofd would, so
    // peak_rss_mb is that of the serving process.
    fs::path root;
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        root = ctx.scratch / ("vprofd_store-" + std::to_string(rep));
        fs::remove_all(root);
        Phase s(ctx, "setup");
        Span q(tracer, "engine.publish");
        std::fflush(stdout);
        const double t0 = nowS();
        const pid_t pid = fork();
        if (pid == 0) {
            service::EngineOptions eo;
            eo.store.root = root.string();
            eo.suite = cfg;
            eo.threads = kThreads;
            service::QueryEngine engine(eo);
            bool ok = true;
            for (const auto &[bench, version] : pairs) {
                const service::QueryResult r =
                    engine.query({bench, version, p5});
                ok = ok && r.ok && r.trace_captured;
            }
            _exit(ok ? 0 : 1);
        }
        int status = 0;
        const bool ok = pid > 0 && waitpid(pid, &status, 0) == pid
                        && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        setup.push_back(nowS() - t0);
        report.op("capture", ok, pairs.size());
        if (rep + 1 < kSetupRepeats)
            fs::remove_all(root);
    }
    e2e.setup_s = median(setup);
    // Write the published corpus back before anything is timed, so the
    // disk's writeback of set-up output does not land in the stream.
    sync();

    service::StoreOptions store_opts;
    store_opts.root = root.string();
    const uint64_t corpus_bytes = service::TraceStore(store_opts).totalBytes();
    e2e.trace_store_mb = static_cast<double>(corpus_bytes) / 1e6;

    service::EngineOptions serve;
    serve.store = store_opts;
    serve.suite = cfg;
    serve.threads = kThreads;
    serve.allow_capture = false;
    serve.result_cache_entries = 1u << 16; // above any stream's key count
    serve.trace_cache_bytes = corpus_bytes / 3;

    // Timed phase: whole rounds of the seeded stream, each against a
    // fresh serving engine. Only the calls into the engine are timed;
    // the client's own bookkeeping (stats, repeat checks) is not. A
    // round keeps only the results of keys new to the stream, so the
    // process's peak RSS is the engine's, not the client's.
    const std::vector<Request> stream = makeStream(ctx.opts.mix_seed);
    uint64_t expected_repeats = 0, stream_queries = 0;
    for (const Request &req : stream) {
        stream_queries += req.queries.size();
        expected_repeats += req.first >= 0;
    }

    std::map<std::string, service::QueryResult> served; // first round
    std::map<std::string, uint64_t> replays_of;         // pair -> lanes
    double stream_s = 0;
    int rounds = 0;
    while (rounds == 0 || stream_s < ctx.opts.seconds) {
        service::QueryEngine engine(serve);
        std::vector<std::vector<service::QueryResult>> results(stream.size());
        Phase s(ctx, "round");
        for (size_t i = 0; i < stream.size(); ++i) {
            const Request &req = stream[i];
            const service::EngineStats before = engine.stats();
            const bool batch = req.queries.size() > 1;
            std::vector<service::QueryResult> out;
            double dt;
            {
                Span q(tracer, batch ? "engine.queryBatch" : "engine.query");
                q.query(static_cast<int64_t>(i));
                const double c0 = nowS();
                if (batch)
                    out = engine.queryBatch(req.queries);
                else
                    out.push_back(engine.query(req.queries[0]));
                dt = nowS() - c0;
                const service::EngineStats after = engine.stats();
                const uint64_t replays = after.replays - before.replays;
                if (tracer.on())
                    q.tag(replays == 0 ? "hit"
                          : after.store_loads > before.store_loads
                              ? "load_miss"
                              : "resident_miss");
                if (replays > 0) {
                    e2e.miss_ms.push_back(dt * 1e3);
                    replays_of[req.queries[0].benchmark + "."
                               + req.queries[0].version] += replays;
                }
            }
            stream_s += dt;
            if (req.first < 0) {
                results[i] = std::move(out);
                continue;
            }
            const service::QueryResult &r = out[0];
            const auto &firsts = results[static_cast<size_t>(req.first)];
            report.op("query", r.ok);
            report.check(r.ok && !firsts.empty() && firsts[0].ok
                             && sameProfile(r.profile, firsts[0].profile),
                         "vprofd_mix: repeat returned another profile");
        }

        const service::EngineStats st = engine.stats();
        totals->queries += st.queries;
        totals->result_hits += st.result_hits;
        totals->resident += st.trace_mem_hits;
        totals->lookups += st.trace_mem_hits + st.store_loads + st.captures;
        report.check(st.result_hits == expected_repeats,
                     "vprofd_mix: result hits " + std::to_string(st.result_hits)
                         + " != repeats " + std::to_string(expected_repeats));
        report.check(st.captures == 0, "vprofd_mix: serving engine captured");
        for (size_t i = 0; i < stream.size(); ++i) {
            for (size_t k = 0; k < results[i].size(); ++k) {
                const service::QueryResult &r = results[i][k];
                report.op("query", r.ok);
                if (!r.ok)
                    continue;
                auto [it, inserted] = served.emplace(
                    queryKey(stream[i].queries[k]), r);
                if (!inserted)
                    report.check(sameProfile(r.profile, it->second.profile),
                                 "vprofd_mix: rounds served other profiles");
            }
        }
        ++rounds;
    }
    e2e.peak_rss_mb = peakRssMb();
    e2e.queries_per_s =
        static_cast<double>(stream_queries) * rounds / stream_s;

    // Warm reproduction through a fresh serving engine that holds the
    // whole corpus: an untimed P6 batch loads every trace, then the P5
    // tables are timed, so they cost result-cache misses on resident
    // traces. Store loads are left to the stream's load misses; timing
    // them here made this median jump between runs by up to 1.8x.
    service::EngineOptions warm = serve;
    warm.trace_cache_bytes = 2 * corpus_bytes;
    std::map<std::string, profile::ProfileResult> tables;
    std::vector<double> reproduce;
    for (int rep = 0; rep < kServeReproduceRepeats; ++rep) {
        service::QueryEngine engine(warm);
        std::vector<service::Query> load, batch;
        for (const auto &[bench, version] : pairs) {
            load.push_back(
                {bench, version, paperMachine(sim::ModelKind::P6)});
            batch.push_back({bench, version, p5});
        }
        for (const service::QueryResult &r : engine.queryBatch(load))
            report.op("query", r.ok);
        Phase s(ctx, "reproduce");
        const double t0 = nowS();
        std::vector<service::QueryResult> out;
        {
            Span q(tracer, "engine.queryBatch");
            q.tag("reproduce");
            out = engine.queryBatch(batch);
        }
        reproduce.push_back(nowS() - t0);
        for (size_t i = 0; i < out.size(); ++i) {
            report.op("query", out[i].ok);
            const std::string name = pairs[i].first + "." + pairs[i].second;
            if (rep == 0)
                tables[name] = out[i].profile;
            else
                report.check(sameProfile(out[i].profile, tables[name]),
                             "vprofd_mix " + name + ": reproduction differs");
        }
    }
    e2e.reproduce = reproduce;
    e2e.reproduce_s = median(reproduce);
    e2e.paper_speedup_err = paperSpeedupError(tables, report, "p5, scale 8");

    double lane_instr = 0; // replayed lane-instructions over all rounds
    for (const auto &[name, n] : replays_of)
        lane_instr += static_cast<double>(n * tables[name].dynamicInstructions);
    e2e.sweep_minstr_per_s = lane_instr * 1e-6 / stream_s;

    // Checks (untimed), against the stored traces loaded independently.
    Phase chk(ctx, "check");
    service::TraceStore store(store_opts);
    service::StoreOptions copy_opts = store_opts;
    copy_opts.root = (ctx.scratch / "vprofd_store-copy").string();
    fs::remove_all(copy_opts.root);
    service::TraceStore copy(copy_opts);
    std::map<std::string, std::vector<const service::QueryResult *>> by_pair;
    for (const auto &[key, r] : served)
        by_pair[r.query.benchmark + "." + r.query.version].push_back(&r);
    for (const auto &[bench, version] : pairs) {
        const std::string name = bench + "." + version;
        std::shared_ptr<const trace::MaterializedTrace> mat;
        const uint64_t h = cfg.hash();
        const std::string path = store.path(bench, version, h);
        std::error_code ec;
        const double bytes = static_cast<double>(fs::file_size(path, ec));
        {
            Span l(tracer, "store.load");
            l.amount(bytes);
            mat = store.load(bench, version, h);
        }
        if (!report.check(mat && mat->valid(), name + ": store load failed"))
            continue;
        // The published image round-trips byte for byte.
        std::vector<uint8_t> image;
        {
            Span z(tracer, "trace.serializeV2");
            image = mat->serializeV2();
            z.amount(static_cast<double>(image.size()));
        }
        report.check(image == readFile(path),
                     name + ": serializeV2 differs from the stored file");
        bool stored = false;
        {
            Span p(tracer, "store.store");
            p.amount(static_cast<double>(image.size()));
            stored = copy.store(bench, version, h, *mat);
        }
        report.check(stored && readFile(copy.path(bench, version, h)) == image,
                     name + ": republished file differs");
        // Fixed cost of one sweep call: one machine, one lane.
        std::vector<profile::ProfileResult> one;
        {
            Span w(tracer, "sweep.replaySweep");
            w.tag("fixed");
            w.amount(static_cast<double>(mat->instrCount()));
            one = mat->replaySweep(std::vector<sim::MachineConfig>{p5}, 1);
        }
        report.op("sweep", one.size() == 1);
        report.check(one.size() == 1 && sameProfile(one[0], tables[name]),
                     name + ": one-machine sweep != served P5 profile");
        // Every distinct pair x machine served, bit-identical to an
        // independent replayProfile.
        for (const service::QueryResult *r : by_pair[name]) {
            profile::ProfileResult p;
            {
                Span rp(tracer, "trace.replayProfile");
                rp.tag(sim::modelName(r->query.machine.model));
                rp.amount(static_cast<double>(mat->instrCount()));
                p = mat->replayProfile(r->query.machine);
            }
            report.op("replay", true);
            report.check(sameProfile(p, r->profile),
                         name + ": served profile != replayProfile");
            checkProfileInvariants(report, name, p, r->query.machine.model);
        }
    }
    fs::remove_all(copy_opts.root);
    report.check(served.size() + expected_repeats == stream_queries,
                 "vprofd_mix: distinct keys + repeats != queries");
    std::printf("vprofd_mix stream: %llu queries, %llu repeats, %zu distinct, "
                "%zu miss samples, trace budget %.1f of %.1f MB\n",
                static_cast<unsigned long long>(stream_queries),
                static_cast<unsigned long long>(expected_repeats),
                served.size(), e2e.miss_ms.size(),
                static_cast<double>(serve.trace_cache_bytes) / 1e6,
                static_cast<double>(corpus_bytes) / 1e6);
    *rounds_out = rounds;
    *sim_minstr = lane_instr / rounds * 1e-6;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, &opts))
        return 2;
    const bool release = std::strcmp(MMXDSP_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
    const bool ndebug = false;
#else
    const bool ndebug = true;
#endif
    if (!release || !ndebug) {
        std::fprintf(stderr,
                     "mmxbench: built as %s; timings are only reported "
                     "from a Release build\n",
                     MMXDSP_BUILD_TYPE);
        return 3;
    }

    // Settle what earlier runs left for the disk to do before timing.
    sync();
    Ctx ctx(opts);
    ctx.start = nowS();
    ctx.stolen = stolenSeconds();
    if (opts.workload == "vprofd_mix")
        ctx.scale = 8;
    else if (opts.workload != "paper_cold" && opts.workload != "design_sweep") {
        std::fprintf(stderr, "mmxbench: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    ctx.scratch = fs::path(opts.scratch)
                  / (opts.workload + "-" + std::to_string(getpid()));
    fs::remove_all(ctx.scratch);
    fs::create_directories(ctx.scratch);

    const char *commit = std::getenv("MMXDSP_COMMIT");
    std::printf("{\"env\": {\"build_type\": \"%s\", \"nproc\": %ld, "
                "\"threads\": %d, \"scale\": %d, \"suite_seed\": %llu, "
                "\"mix_seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"workload\": \"%s\", \"commit\": \"%s\"}}\n",
                MMXDSP_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN), kThreads,
                ctx.scale, static_cast<unsigned long long>(opts.suite_seed),
                static_cast<unsigned long long>(opts.mix_seed), opts.seconds,
                opts.trace ? 1 : 0, opts.workload.c_str(),
                commit ? commit : "unknown");

    EndToEnd e2e;
    EngineTotals engine;
    int rounds = 0;
    double sim_minstr = 0;
    if (opts.workload == "paper_cold")
        runPaperCold(ctx, e2e, &rounds, &sim_minstr);
    else if (opts.workload == "design_sweep")
        runDesignSweep(ctx, e2e, &rounds, &sim_minstr);
    else
        runVprofdMix(ctx, e2e, &rounds, &sim_minstr, &engine);

    fs::remove_all(ctx.scratch);
    if (!e2e.reproduce.empty())
        std::printf("reproduce samples: %zu, min %.4f s, median %.4f s, "
                    "max %.4f s\n",
                    e2e.reproduce.size(),
                    *std::min_element(e2e.reproduce.begin(),
                                      e2e.reproduce.end()),
                    median(e2e.reproduce),
                    *std::max_element(e2e.reproduce.begin(),
                                      e2e.reproduce.end()));
    const double wall = nowS() - ctx.start;
    std::printf("rounds: %d, wall %.2f s, phases:", rounds, wall);
    for (const auto &[name, secs] : ctx.phases)
        std::printf(" %s %.2f s", name.c_str(), secs);
    std::printf(", host steal %.1f%% of CPU time\n",
                100.0 * (stolenSeconds() - ctx.stolen)
                    / (wall * static_cast<double>(
                                  sysconf(_SC_NPROCESSORS_ONLN))));
    if (opts.trace) {
        writeSpans(ctx.tracer.spans(), opts.spans);
        reportLayers(ctx, rounds, sim_minstr, engine);
    } else {
        e2e.emit(ctx.report);
    }
    ctx.report.print();
    return 0;
}
