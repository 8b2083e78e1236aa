/**
 * @file
 * Tests for MaterializeSink (direct-to-materialized capture): the
 * acceptance gate — for every benchmark pair the direct capture is
 * bit-identical to the varint reference path (TraceWriter encode →
 * TraceReader decode → build) in both replay results (P5 and P6) and
 * the serialized v2 image, so the capture-time streaming checksums are
 * provably the same FNV-1a values a full re-hash produces — plus
 * randomized-stream identity, truncation/corruption fuzz of
 * direct-captured images (mirroring test_format_v2.cc), and the
 * BenchmarkSuite wiring (direct capture publishes a v2 cache entry a
 * second process mmaps instead of re-executing).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "isa/event.hh"
#include "isa/op.hh"
#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "sim/timing_model.hh"
#include "support/rng.hh"
#include "trace/cache.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace mmxdsp {
namespace {

namespace fs = std::filesystem;

struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const char *name)
        : path(fs::temp_directory_path() / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

harness::SuiteConfig
tinyConfig()
{
    harness::SuiteConfig config;
    config.scaleDown(16);
    return config;
}

/** A random but encodable instruction event (same shape the v1 codec
 *  tests use). */
isa::InstrEvent
randomEvent(Rng &rng)
{
    isa::InstrEvent e;
    e.op = static_cast<isa::Op>(rng.nextBelow(isa::kNumOps));
    e.mem = static_cast<isa::MemMode>(rng.nextBelow(3));
    if (e.mem != isa::MemMode::None) {
        e.addr = rng.next() >> rng.nextBelow(40);
        e.size = static_cast<uint8_t>(1u << rng.nextBelow(4));
    }
    e.site = rng.nextBelow(2000);
    auto tag = [&]() -> isa::RegTag {
        if (rng.nextBelow(4) == 0)
            return isa::kNoReg;
        return isa::makeTag(static_cast<isa::RegClass>(rng.nextBelow(3)),
                            static_cast<uint8_t>(rng.nextBelow(8)));
    };
    e.src0 = tag();
    e.src1 = tag();
    e.dst = tag();
    e.taken = rng.nextBelow(2) != 0;
    return e;
}

/** Serialized v1 image of a random stream with function markers. */
std::vector<uint8_t>
randomV1Image(uint64_t seed, int target_events)
{
    Rng rng(seed);
    trace::TraceWriter writer("rand", "c", seed);
    int depth = 0;
    for (int i = 0; i < target_events; ++i) {
        const uint32_t roll = rng.nextBelow(20);
        if (roll == 0) {
            const char *names[] = {"alpha", "beta", "gamma", "delta"};
            writer.onEnterFunction(names[rng.nextBelow(4)]);
            ++depth;
        } else if (roll == 1 && depth > 0) {
            writer.onLeaveFunction();
            --depth;
        } else {
            writer.onInstr(randomEvent(rng));
        }
    }
    writer.finish();
    return writer.serialize();
}

void
expectSameProfile(const profile::ProfileResult &a,
                  const profile::ProfileResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynamicInstructions, b.dynamicInstructions);
    EXPECT_EQ(a.staticInstructions, b.staticInstructions);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.memoryReferences, b.memoryReferences);
    EXPECT_EQ(a.mmxInstructions, b.mmxInstructions);
    EXPECT_EQ(a.mmxByCategory, b.mmxByCategory);
    EXPECT_EQ(a.functionCalls, b.functionCalls);
    EXPECT_EQ(a.callRetCycles, b.callRetCycles);
    EXPECT_EQ(a.callOverheadCycles, b.callOverheadCycles);
    EXPECT_EQ(a.opCounts, b.opCounts);
    EXPECT_EQ(a.timer.pairs, b.timer.pairs);
    EXPECT_EQ(a.timer.uopsIssued, b.timer.uopsIssued);
    EXPECT_EQ(a.timer.retireStallCycles, b.timer.retireStallCycles);
    EXPECT_EQ(a.timer.memPenaltyCycles, b.timer.memPenaltyCycles);
    EXPECT_EQ(a.timer.mispredictCycles, b.timer.mispredictCycles);
    EXPECT_EQ(a.timer.dependStallCycles, b.timer.dependStallCycles);
    EXPECT_EQ(a.timer.blockingExtraCycles, b.timer.blockingExtraCycles);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l2.accesses, b.l2.accesses);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.btb.branches, b.btb.branches);
    EXPECT_EQ(a.btb.mispredicts, b.btb.mispredicts);
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (const auto &[name, st] : a.functions) {
        auto it = b.functions.find(name);
        ASSERT_NE(it, b.functions.end()) << name;
        EXPECT_EQ(st.calls, it->second.calls) << name;
        EXPECT_EQ(st.instructions, it->second.instructions) << name;
        EXPECT_EQ(st.cycles, it->second.cycles) << name;
    }
}

/** Feed @p reader's event stream into a MaterializeSink — the same
 *  stream a live capture delivers (replay is bit-identical to live) —
 *  and return the finished trace. @p cpu supplies site metadata. */
trace::MaterializedTrace
directCapture(const trace::TraceReader &reader, const runtime::Cpu *cpu)
{
    trace::MaterializeSink sink(reader.benchmark(), reader.version(),
                                reader.configHash());
    EXPECT_TRUE(reader.replayTo(sink));
    return sink.finish(cpu);
}

// ---------------- randomized-stream identity ----------------

TEST(MaterializeSink, RandomStreamsMatchVarintPathBitIdentically)
{
    // For a spread of random streams (batched and single-event
    // delivery, no site metadata): the direct capture must equal the
    // varint round trip in replay results and in serialized v2 bytes —
    // including the section checksums, which the sink computed
    // incrementally and the reference path by whole-array re-hash.
    for (uint64_t seed : {2u, 29u, 404u, 31337u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng sizeRng(seed);
        const int n = 500 + static_cast<int>(sizeRng.nextBelow(3000));
        trace::TraceReader reader;
        ASSERT_TRUE(reader.parse(randomV1Image(seed, n)));

        trace::MaterializedTrace fromV1;
        ASSERT_TRUE(fromV1.build(reader));
        const trace::MaterializedTrace direct =
            directCapture(reader, nullptr);

        EXPECT_EQ(direct.instrCount(), fromV1.instrCount());
        EXPECT_EQ(direct.functionNames(), fromV1.functionNames());
        for (const sim::ModelKind model :
             {sim::ModelKind::P5, sim::ModelKind::P6,
              sim::ModelKind::P6P}) {
            const sim::MachineConfig machine{model, sim::TimerConfig{}};
            expectSameProfile(direct.replayProfile(machine),
                              fromV1.replayProfile(machine),
                              std::string("model ")
                                  + sim::modelName(model));
        }
        ASSERT_TRUE(direct.serializeV2() == fromV1.serializeV2());
    }
}

// ---------------- the acceptance gate ----------------

TEST(MaterializeSink, EveryPairDirectCaptureMatchesVarintPathOnBothModels)
{
    // For every allRuns() registry pair: feeding the captured event stream
    // through a MaterializeSink (the direct cold path) must be
    // bit-identical to TraceWriter → TraceReader → build (the golden
    // varint path) — replay results under P5 and P6, AND the full v2
    // image including site metadata and every section checksum.
    harness::BenchmarkSuite suite(tinyConfig());
    // Site ids are process-global, so any Cpu resolves the suite's
    // metadata — the same lookups TraceWriter::finish performed.
    runtime::Cpu cpu;
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        auto reader = suite.traceFor(bench, version);
        trace::MaterializedTrace fromV1;
        ASSERT_TRUE(fromV1.build(*reader)) << bench << "." << version;
        const trace::MaterializedTrace direct =
            directCapture(*reader, &cpu);

        for (const sim::ModelKind model :
             {sim::ModelKind::P5, sim::ModelKind::P6,
              sim::ModelKind::P6P}) {
            const sim::MachineConfig machine{model, sim::TimerConfig{}};
            expectSameProfile(direct.replayProfile(machine),
                              fromV1.replayProfile(machine),
                              bench + "." + version + " on "
                                  + sim::modelName(model));
        }
        ASSERT_TRUE(direct.serializeV2() == fromV1.serializeV2())
            << bench << "." << version;
    }
}

// ---------------- streaming serializer integrity ----------------

TEST(MaterializeSink, DirectImagePassesFullValidationRehash)
{
    // loadV2Image re-hashes every section against the table, so a
    // successful load proves each incrementally-folded checksum equals
    // the whole-array FNV-1a of the final bytes.
    trace::TraceReader reader;
    ASSERT_TRUE(reader.parse(randomV1Image(11, 2500)));
    const trace::MaterializedTrace direct = directCapture(reader, nullptr);

    trace::MaterializedTrace loaded;
    ASSERT_TRUE(loaded.loadV2Image(direct.serializeV2()));
    expectSameProfile(loaded.replayProfile(), direct.replayProfile(),
                      "validated reload");
    // And a load-then-reserialize (which reuses the harvested
    // checksums) is still byte-stable.
    EXPECT_EQ(loaded.serializeV2(), direct.serializeV2());
}

TEST(MaterializeSink, DirectImageRejectsTruncation)
{
    trace::TraceReader reader;
    ASSERT_TRUE(reader.parse(randomV1Image(5, 600)));
    const std::vector<uint8_t> image =
        directCapture(reader, nullptr).serializeV2();
    for (size_t len : {0ul, 3ul, 16ul, 63ul, 64ul, 200ul,
                       image.size() / 2, image.size() - 1}) {
        std::vector<uint8_t> bad(image.begin(),
                                 image.begin()
                                     + static_cast<ptrdiff_t>(len));
        trace::MaterializedTrace mat;
        EXPECT_FALSE(mat.loadV2Image(std::move(bad))) << len;
    }
}

TEST(MaterializeSink, DirectImageFuzzedCorruptionNeverReplaysWrongNumbers)
{
    // Same contract as the build-path image: any single-byte corruption
    // of a direct-captured image is either refused or harmless (only
    // the uncheck-summed alignment padding is harmless).
    trace::TraceReader reader;
    ASSERT_TRUE(reader.parse(randomV1Image(13, 800)));
    const trace::MaterializedTrace direct = directCapture(reader, nullptr);
    const std::vector<uint8_t> image = direct.serializeV2();
    const profile::ProfileResult expect = direct.replayProfile();

    Rng rng(0xd1ec7u);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < 200; ++i) {
        std::vector<uint8_t> bad = image;
        const size_t pos = rng.nextBelow(
            static_cast<uint32_t>(bad.size()));
        const uint8_t bit = static_cast<uint8_t>(1u << rng.nextBelow(8));
        bad[pos] ^= bit;
        trace::MaterializedTrace mat;
        if (!mat.loadV2Image(std::move(bad))) {
            ++rejected;
            continue;
        }
        ++accepted;
        const profile::ProfileResult got = mat.replayProfile();
        ASSERT_EQ(got.cycles, expect.cycles) << "byte " << pos;
        ASSERT_EQ(got.dynamicInstructions, expect.dynamicInstructions);
    }
    EXPECT_GT(rejected, 150);
    (void)accepted;
}

// ---------------- suite wiring ----------------

TEST(MaterializeSink, SuiteColdCapturePublishesAndReloadsAcrossProcesses)
{
    // First suite: the cold materializedFor captures exactly once and
    // publishes to the trace cache; a second suite (same config + dir,
    // modelling a fresh process) must serve the identical trace from
    // disk without executing anything.
    ScratchDir scratch("mmxdsp_matsink_suite_test");
    const harness::SuiteConfig config = tinyConfig();
    const harness::TraceOptions opts{true, scratch.path.string()};

    harness::BenchmarkSuite first(config, opts);
    auto mat1 = first.materializedFor("fir", "mmx");
    EXPECT_EQ(first.traceActivity().captured, 1);
    EXPECT_EQ(first.traceActivity().disk_hits, 0);

    // The direct path publishes the materialized (v2) image and never
    // produces varint bytes at all.
    const trace::TraceCache cache(scratch.path.string());
    const uint64_t h = config.hash();
    EXPECT_TRUE(fs::exists(cache.pathV2("fir", "mmx", h)));
    EXPECT_FALSE(fs::exists(cache.path("fir", "mmx", h)));

    harness::BenchmarkSuite second(config, opts);
    auto mat2 = second.materializedFor("fir", "mmx");
    EXPECT_EQ(second.traceActivity().captured, 0);
    EXPECT_EQ(second.traceActivity().disk_hits, 1);
    EXPECT_EQ(mat2->instrCount(), mat1->instrCount());
    expectSameProfile(mat2->replayProfile(), mat1->replayProfile(),
                      "second process");

    // run() on the second suite serves the same stream (replayed, not
    // re-executed), so sweeps and runs stay consistent across the two.
    const harness::RunResult &run = second.run("fir", "mmx");
    EXPECT_TRUE(run.replayed);
    EXPECT_EQ(run.profile.cycles, mat2->replayProfile().cycles);
}

TEST(MaterializeSink, FinishWithoutCpuCarriesNoSiteMetadata)
{
    trace::TraceReader reader;
    ASSERT_TRUE(reader.parse(randomV1Image(3, 300)));
    const trace::MaterializedTrace direct = directCapture(reader, nullptr);
    // Unknown sites label as "site#N" — metadata was not embedded.
    EXPECT_EQ(direct.siteLabel(0).rfind("site#", 0), 0u);
}

} // namespace
} // namespace mmxdsp
