/**
 * @file
 * Microbenchmark and regression gate for the MMX fast path:
 *
 *  - op layer: every mmx:: binop and shift timed through the scalar
 *    lane-loop golden reference and through the active dispatch path
 *    (host SSE2, or scalar on targets without it), reported as
 *    Mops/sec plus geomean speedup;
 *  - live capture: an MMX micro kernel captured into a TraceWriter
 *    three ways — the pre-change cost model (scalar semantics plus one
 *    virtual TraceSink::onInstr per instruction), the real runtime with
 *    the block buffer disabled (setEmitBatch(1)), and the real runtime
 *    with the default 512-event blocks.
 *
 * Verifies that the batched and per-instruction captures serialize to
 * byte-identical trace images, writes BENCH_mmx_ops.json, and (in
 * Release builds) exits nonzero unless batched live capture beats the
 * pre-change model by at least 1.5x and, where the host SIMD path is
 * active, the op-layer geomean beats scalar — so CI can run it as a
 * perf smoke test.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <source_location>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/event.hh"
#include "mmx/mmx_ops.hh"
#include "runtime/cpu.hh"
#include "sim/trace_sink.hh"
#include "support/rng.hh"
#include "support/table.hh"
#include "trace/format.hh"
#include "trace/writer.hh"

using namespace mmxdsp;
using mmx::MmxReg;

namespace {

constexpr int kRepetitions = 3;
constexpr uint64_t kOpIters = 1u << 20;
constexpr size_t kBufSize = 4096; // power of two
constexpr int kKernelIters = 1 << 17;

#if defined(MMXDSP_MMX_HAVE_HOST_SIMD)
constexpr const char *kActivePath = "host-sse2";
#else
constexpr const char *kActivePath = "scalar";
#endif

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <class F>
double
bestOf(F &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const double t0 = now();
        body();
        const double dt = now() - t0;
        if (!rep || dt < best)
            best = dt;
    }
    return best;
}

/** Defeats dead-code elimination of the timed op loops. */
volatile uint64_t g_sinkBits = 0;

struct OpRow
{
    const char *name;
    double scalarMops;
    double fastMops;
};

/** Time every binop and shift: scalar reference vs active dispatch. */
std::vector<OpRow>
benchOps(const std::vector<MmxReg> &a, const std::vector<MmxReg> &b)
{
    std::vector<OpRow> rows;
    const size_t mask = kBufSize - 1;
    const double iters = static_cast<double>(kOpIters);

#define MMXDSP_X(op_name, op_enum)                                           \
    {                                                                        \
        uint64_t acc = 0;                                                    \
        const double ts = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::scalar::op_name(a[i & mask], b[i & mask]).bits;  \
        });                                                                  \
        const double tf = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::op_name(a[i & mask], b[i & mask]).bits;          \
        });                                                                  \
        g_sinkBits = g_sinkBits + acc;                                       \
        rows.push_back({#op_name, iters / ts / 1e6, iters / tf / 1e6});      \
    }
    MMXDSP_MMX_BINOP_LIST(MMXDSP_X)
#undef MMXDSP_X

#define MMXDSP_X(op_name, op_enum)                                           \
    {                                                                        \
        uint64_t acc = 0;                                                    \
        const double ts = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::scalar::op_name(a[i & mask],                     \
                                            static_cast<unsigned>(i & 15))   \
                           .bits;                                            \
        });                                                                  \
        const double tf = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::op_name(a[i & mask],                             \
                                    static_cast<unsigned>(i & 15))           \
                           .bits;                                            \
        });                                                                  \
        g_sinkBits = g_sinkBits + acc;                                       \
        rows.push_back({#op_name, iters / ts / 1e6, iters / tf / 1e6});      \
    }
    MMXDSP_MMX_SHIFT_LIST(MMXDSP_X)
#undef MMXDSP_X

    return rows;
}

double
geomeanSpeedup(const std::vector<OpRow> &rows)
{
    double logSum = 0.0;
    for (const OpRow &r : rows)
        logSum += std::log(r.fastMops / r.scalarMops);
    return std::exp(logSum / static_cast<double>(rows.size()));
}

// ---------------- live-capture arms ----------------

/**
 * The measured MMX micro kernel, driven through the real runtime:
 * eight events per iteration (load, pmaddwd, paddsw, psraw, paddd,
 * packssdw, store, jcc) plus one coefficient load up front.
 */
void
cpuMicroKernel(runtime::Cpu &cpu, const int16_t *src, const int16_t *coef,
               int16_t *dst, int iters)
{
    using runtime::M64;
    M64 k = cpu.movqLoad(coef);
    for (int i = 0; i < iters; ++i) {
        const int off = (i & 255) * 4;
        M64 a = cpu.movqLoad(src + off);
        M64 m = cpu.pmaddwd(a, k);
        M64 s = cpu.paddsw(a, k);
        M64 t = cpu.psraw(s, 2);
        M64 u = cpu.paddd(m, m);
        M64 v = cpu.packssdw(u, t);
        cpu.movqStore(dst + off, v);
        cpu.jcc(i + 1 < iters);
    }
}

// The "legacy" arm freezes the pre-change capture path so the gate keeps
// measuring against it after the production code moves on. Per event the
// seed paid: a lane-loop scalar op, a source-location hash lookup in the
// process-global site table, an InstrEvent build, one virtual
// TraceSink::onInstr dispatch, and an encode whose seen-site tracking
// was a std::set insert. The three clones below replicate each of those
// costs verbatim (same key, same hash, same record layout).

/** Clone of the seed runtime's SiteTable lookup (same key and hash). */
class LegacySiteTable
{
  public:
    uint32_t
    idFor(const std::source_location &loc)
    {
        Key key{loc.file_name(), loc.line(), loc.column()};
        auto it = ids_.find(key);
        if (it != ids_.end())
            return it->second;
        const uint32_t id = next_++;
        ids_.emplace(key, id);
        return id;
    }

  private:
    struct Key
    {
        const char *file;
        uint32_t line;
        uint32_t column;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            size_t h = std::hash<const void *>()(k.file);
            h = h * 1315423911u + k.line;
            h = h * 1315423911u + k.column;
            return h;
        }
    };
    std::unordered_map<Key, uint32_t, KeyHash> ids_;
    uint32_t next_ = 0;
};

/** Clone of the seed TraceWriter's per-event encode (incl. the ordered
 *  std::set seen-site insert the optimized writer no longer does). */
class LegacyWriter final : public sim::TraceSink
{
  public:
    LegacyWriter() { body_.reserve(1 << 16); }

    void
    onInstr(const isa::InstrEvent &event) override
    {
        uint64_t mask = 0;
        if (isa::tagValid(event.src0))
            mask |= 1;
        if (isa::tagValid(event.src1))
            mask |= 2;
        if (isa::tagValid(event.dst))
            mask |= 4;

        const uint64_t packed = (static_cast<uint64_t>(event.op) << 6)
                                | (mask << 3)
                                | (static_cast<uint64_t>(event.mem) << 1)
                                | (event.taken ? 1 : 0);
        trace::putVarint(body_, trace::kRecInstrBase + packed);

        trace::putVarint(body_,
                         trace::zigzag(static_cast<int64_t>(event.site)
                                       - static_cast<int64_t>(prevSite_)));
        prevSite_ = event.site;

        if (event.mem != isa::MemMode::None) {
            trace::putVarint(body_, trace::zigzag(static_cast<int64_t>(
                                        event.addr - prevAddr_)));
            prevAddr_ = event.addr;
            trace::putVarint(body_, event.size);
        }

        if (mask & 1)
            body_.push_back(event.src0);
        if (mask & 2)
            body_.push_back(event.src1);
        if (mask & 4)
            body_.push_back(event.dst);

        sites_.insert(event.site);
        ++instrCount_;
    }

    uint64_t instrCount() const { return instrCount_; }

  private:
    std::vector<uint8_t> body_;
    uint64_t instrCount_ = 0;
    uint32_t prevSite_ = 0;
    uint64_t prevAddr_ = 0;
    std::set<uint32_t> sites_;
};

/** The micro kernel under the full pre-change cost model. */
void
legacyMicroKernel(sim::TraceSink *sink, LegacySiteTable &sites,
                  const int16_t *src, const int16_t *coef, int16_t *dst,
                  int iters)
{
    auto emit = [&](isa::Op op, isa::MemMode mem, const void *addr,
                    uint8_t size, bool taken,
                    std::source_location loc =
                        std::source_location::current()) {
        isa::InstrEvent e;
        e.op = op;
        e.mem = mem;
        e.addr = reinterpret_cast<uint64_t>(addr);
        e.size = size;
        e.site = sites.idFor(loc);
        e.src0 = isa::makeTag(isa::RegClass::Mmx, 1);
        e.src1 = isa::makeTag(isa::RegClass::Mmx, 2);
        e.dst = isa::makeTag(isa::RegClass::Mmx, 3);
        e.taken = taken;
        sink->onInstr(e);
    };

    namespace ref = mmx::scalar;
    MmxReg k = MmxReg::load(coef);
    emit(isa::Op::Movq, isa::MemMode::Load, coef, 8, false);
    for (int i = 0; i < iters; ++i) {
        const int off = (i & 255) * 4;
        MmxReg a = MmxReg::load(src + off);
        emit(isa::Op::Movq, isa::MemMode::Load, src + off, 8, false);
        MmxReg m = ref::pmaddwd(a, k);
        emit(isa::Op::Pmaddwd, isa::MemMode::None, nullptr, 0, false);
        MmxReg s = ref::paddsw(a, k);
        emit(isa::Op::Paddsw, isa::MemMode::None, nullptr, 0, false);
        MmxReg t = ref::psraw(s, 2);
        emit(isa::Op::Psraw, isa::MemMode::None, nullptr, 0, false);
        MmxReg u = ref::paddd(m, m);
        emit(isa::Op::Paddd, isa::MemMode::None, nullptr, 0, false);
        MmxReg v = ref::packssdw(u, t);
        emit(isa::Op::Packssdw, isa::MemMode::None, nullptr, 0, false);
        v.store(dst + off);
        emit(isa::Op::Movq, isa::MemMode::Store, dst + off, 8, false);
        emit(isa::Op::Jcc, isa::MemMode::None, nullptr, 0, i + 1 < iters);
    }
}

struct CaptureArm
{
    double seconds = 0.0;
    uint64_t events = 0;
    std::vector<uint8_t> image; ///< serialized trace from the last rep
};

/**
 * Capture the Cpu-driven kernel with the given emit block size. The
 * timed region is attach -> run -> detach: the per-event emit+encode
 * path this PR changes. finish()/serialize() (one-shot per capture,
 * identical before and after) run outside the clock but still feed the
 * byte-identity gate.
 */
CaptureArm
captureWithCpu(uint32_t batch, const int16_t *src, const int16_t *coef,
               int16_t *dst)
{
    CaptureArm arm;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        runtime::Cpu cpu; // fresh register round-robin state per rep
        cpu.setEmitBatch(batch);
        trace::TraceWriter writer("micro_mmx", "mmx", 1);
        cpu.attachSink(&writer);
        const double t0 = now();
        cpuMicroKernel(cpu, src, coef, dst, kKernelIters);
        cpu.attachSink(nullptr); // tail flush is part of the capture
        const double dt = now() - t0;
        if (!rep || dt < arm.seconds)
            arm.seconds = dt;
        writer.finish();
        arm.events = writer.instrCount();
        arm.image = writer.serialize();
    }
    return arm;
}

} // namespace

int
main()
{
    // -- part 1: op-layer throughput --
    Rng rng(0xb0a710ad);
    std::vector<MmxReg> a;
    std::vector<MmxReg> b;
    for (size_t i = 0; i < kBufSize; ++i) {
        a.push_back(MmxReg(rng.next()));
        b.push_back(MmxReg(rng.next()));
    }

    std::printf("mmx op throughput — scalar reference vs %s, %llu iters\n\n",
                kActivePath, static_cast<unsigned long long>(kOpIters));
    const std::vector<OpRow> rows = benchOps(a, b);
    Table opsTable({"op", "scalar Mops/s", "fast Mops/s", "speedup"});
    for (const OpRow &r : rows)
        opsTable.addRow({r.name, Table::fmtFixed(r.scalarMops, 1),
                         Table::fmtFixed(r.fastMops, 1),
                         Table::fmtRatio(r.fastMops / r.scalarMops)});
    opsTable.print();
    const double geomean = geomeanSpeedup(rows);
    std::printf("\ngeomean op speedup    %.2fx\n\n", geomean);

    // -- part 2: live-capture throughput --
    std::vector<int16_t> src(1024);
    std::vector<int16_t> coef(4);
    std::vector<int16_t> dst(1024);
    for (int16_t &v : src)
        v = static_cast<int16_t>(rng.next());
    for (int16_t &v : coef)
        v = static_cast<int16_t>(rng.next());

    CaptureArm legacy;
    LegacySiteTable legacySites; // process-global in the seed: lives on
    legacy.seconds = bestOf([&] {
        LegacyWriter writer;
        sim::TraceSink *sink = &writer; // force virtual dispatch
        legacyMicroKernel(sink, legacySites, src.data(), coef.data(),
                          dst.data(), kKernelIters);
        legacy.events = writer.instrCount();
    });

    CaptureArm perInstr =
        captureWithCpu(1, src.data(), coef.data(), dst.data());
    CaptureArm batched = captureWithCpu(runtime::Cpu::kEmitBatch, src.data(),
                                        coef.data(), dst.data());

    const bool identical = perInstr.image == batched.image;
    auto eps = [](double seconds, uint64_t events) {
        return static_cast<double>(events) / seconds;
    };
    const double speedupVsLegacy = legacy.seconds / batched.seconds;
    const double speedupVsPerInstr = perInstr.seconds / batched.seconds;

    std::printf("live capture — %llu events into a TraceWriter\n\n",
                static_cast<unsigned long long>(batched.events));
    Table capTable({"arm", "capture ms", "events/sec"});
    capTable.addRow({"legacy (scalar + per-instr emit)",
                     Table::fmtFixed(legacy.seconds * 1e3, 2),
                     Table::fmtCount(static_cast<int64_t>(
                         eps(legacy.seconds, legacy.events)))});
    capTable.addRow({"cpu, batch=1",
                     Table::fmtFixed(perInstr.seconds * 1e3, 2),
                     Table::fmtCount(static_cast<int64_t>(
                         eps(perInstr.seconds, perInstr.events)))});
    capTable.addRow({"cpu, batch=512",
                     Table::fmtFixed(batched.seconds * 1e3, 2),
                     Table::fmtCount(static_cast<int64_t>(
                         eps(batched.seconds, batched.events)))});
    capTable.print();
    std::printf("\ncapture speedup       %.2fx vs legacy, %.2fx vs batch=1\n",
                speedupVsLegacy, speedupVsPerInstr);
    std::printf("traces byte-identical %s\n", identical ? "yes" : "NO");

    std::FILE *json = std::fopen("BENCH_mmx_ops.json", "w");
    if (json) {
        std::fprintf(json,
                     "{\n"
                     "  \"active_path\": \"%s\",\n"
                     "  \"op_iters\": %llu,\n"
                     "  \"repetitions\": %d,\n"
                     "  \"ops\": [\n",
                     kActivePath, static_cast<unsigned long long>(kOpIters),
                     kRepetitions);
        for (size_t i = 0; i < rows.size(); ++i)
            std::fprintf(json,
                         "    {\"name\": \"%s\", \"scalar_mops\": %.1f, "
                         "\"fast_mops\": %.1f}%s\n",
                         rows[i].name, rows[i].scalarMops, rows[i].fastMops,
                         i + 1 < rows.size() ? "," : "");
        std::fprintf(
            json,
            "  ],\n"
            "  \"geomean_op_speedup\": %.3f,\n"
            "  \"live_capture\": {\n"
            "    \"events\": %llu,\n"
            "    \"legacy_seconds\": %.6f,\n"
            "    \"per_instr_seconds\": %.6f,\n"
            "    \"batched_seconds\": %.6f,\n"
            "    \"batched_events_per_sec\": %.0f,\n"
            "    \"speedup_vs_legacy\": %.3f,\n"
            "    \"speedup_vs_per_instr\": %.3f,\n"
            "    \"identical\": %s\n"
            "  }\n"
            "}\n",
            geomean, static_cast<unsigned long long>(batched.events),
            legacy.seconds, perInstr.seconds, batched.seconds,
            eps(batched.seconds, batched.events), speedupVsLegacy,
            speedupVsPerInstr, identical ? "true" : "false");
        std::fclose(json);
        std::fprintf(stderr, "wrote BENCH_mmx_ops.json\n");
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: batched capture diverged from "
                             "per-instruction capture\n");
        return 1;
    }
#if defined(NDEBUG)
#if defined(MMXDSP_MMX_HAVE_HOST_SIMD)
    if (geomean <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: %s op path not faster than scalar "
                     "(geomean %.2fx)\n",
                     kActivePath, geomean);
        return 1;
    }
#endif
    if (speedupVsLegacy < 1.5) {
        std::fprintf(stderr,
                     "FAIL: batched live capture below the 1.5x gate vs the "
                     "pre-change model (%.2fx)\n",
                     speedupVsLegacy);
        return 1;
    }
#else
    std::fprintf(stderr, "perf gates skipped (debug build)\n");
#endif
    return 0;
}
