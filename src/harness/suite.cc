#include "suite.hh"

#include <algorithm>

#include "apps/g722/g722_app.hh"
#include "apps/image/image_app.hh"
#include "apps/jpeg/jpeg_encoder.hh"
#include "apps/radar/radar_app.hh"
#include "kernels/fft.hh"
#include "kernels/fir.hh"
#include "kernels/gemm.hh"
#include "kernels/iir.hh"
#include "kernels/matvec.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "trace/format.hh"
#include "trace/materialize_sink.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "workloads/image_data.hh"

namespace mmxdsp::harness {

void
SuiteConfig::scaleDown(int factor)
{
    if (factor <= 1)
        return;
    fir_samples = std::max(64, fir_samples / factor);
    iir_samples = std::max(64, iir_samples / factor);
    while (fft_size / factor < fft_size && fft_size > 64)
        fft_size /= 2;
    matvec_dim = std::max(32, matvec_dim / factor);
    // Odd floors on purpose: scaled suites keep exercising the gemm
    // kernels' non-multiple-of-4 and non-multiple-of-block tail paths.
    gemm_dim = std::max(27, gemm_dim / factor);
    gemm_block = std::max(10, gemm_block / factor);
    image_width = std::max(48, image_width / factor);
    image_height = std::max(48, image_height / factor);
    jpeg_width = std::max(32, jpeg_width / factor);
    jpeg_height = std::max(32, jpeg_height / factor);
    g722_samples = std::max(256, g722_samples / factor);
    radar_echoes = std::max(65, radar_echoes / factor);
}

uint64_t
SuiteConfig::hash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = trace::fnv1aMix(h, trace::kFormatVersion);
    h = trace::fnv1aMix(h, static_cast<uint64_t>(fir_samples));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(iir_samples));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(fft_size));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(matvec_dim));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(gemm_dim));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(gemm_block));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(image_width));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(image_height));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(jpeg_width));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(jpeg_height));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(jpeg_quality));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(g722_samples));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(radar_echoes));
    h = trace::fnv1aMix(h, seed);
    return h;
}

struct BenchmarkSuite::Impl
{
    kernels::FirBenchmark fir;
    kernels::IirBenchmark iir;
    kernels::FftBenchmark fft;
    kernels::MatvecBenchmark matvec;
    kernels::GemmBenchmark gemm;
    apps::jpeg::JpegBenchmark jpeg;
    apps::image::ImageBenchmark image;
    apps::g722::G722Benchmark g722;
    apps::radar::RadarBenchmark radar;
    runtime::Cpu cpu;
};

BenchmarkSuite::BenchmarkSuite(const SuiteConfig &config,
                               const TraceOptions &trace_options,
                               const sim::MachineConfig &machine)
    : config_(config),
      machine_(machine),
      traceCache_(
          trace::TraceCache::fromEnv(trace_options.dir, trace_options.enabled)),
      impl_(std::make_unique<Impl>())
{
    impl_->fir.setup(config.fir_samples, config.seed);
    impl_->iir.setup(config.iir_samples, config.seed + 1);
    impl_->fft.setup(config.fft_size, config.seed + 2);
    impl_->matvec.setup(config.matvec_dim, config.seed + 3);
    impl_->gemm.setup(config.gemm_dim, config.gemm_block, config.seed + 8);
    impl_->jpeg.setup(
        workloads::makeTestImage(config.jpeg_width, config.jpeg_height,
                                 config.seed + 4),
        config.jpeg_quality);
    impl_->image.setup(workloads::makeTestImage(
        config.image_width, config.image_height, config.seed + 5));
    impl_->g722.setup(config.g722_samples, config.seed + 6);
    workloads::RadarScenario scenario;
    scenario.num_echoes = config.radar_echoes;
    scenario.seed = config.seed + 7;
    impl_->radar.setup(scenario);
}

BenchmarkSuite::~BenchmarkSuite() = default;

void
BenchmarkSuite::executeLive(const std::string &benchmark,
                            const std::string &version, sim::TraceSink *sink)
{
    runtime::Cpu &cpu = impl_->cpu;
    cpu.attachSink(sink);

    bool ok = true;
    if (benchmark == "fir") {
        if (version == "c")
            impl_->fir.runC(cpu);
        else if (version == "fp")
            impl_->fir.runFp(cpu);
        else if (version == "mmx")
            impl_->fir.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "iir") {
        if (version == "c")
            impl_->iir.runC(cpu);
        else if (version == "fp")
            impl_->iir.runFp(cpu);
        else if (version == "mmx")
            impl_->iir.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "fft") {
        if (version == "c")
            impl_->fft.runC(cpu);
        else if (version == "fp")
            impl_->fft.runFp(cpu);
        else if (version == "mmx")
            impl_->fft.runMmx(cpu);
        else if (version == "mmx_v1")
            impl_->fft.runMmxV1(cpu);
        else
            ok = false;
    } else if (benchmark == "matvec") {
        if (version == "c")
            impl_->matvec.runC(cpu);
        else if (version == "mmx")
            impl_->matvec.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "gemm") {
        if (version == "c")
            impl_->gemm.runC(cpu);
        else if (version == "c_blocked")
            impl_->gemm.runCBlocked(cpu);
        else if (version == "mmx")
            impl_->gemm.runMmx(cpu);
        else if (version == "mmx_blocked")
            impl_->gemm.runMmxBlocked(cpu);
        else
            ok = false;
    } else if (benchmark == "jpeg") {
        if (version == "c")
            impl_->jpeg.runC(cpu);
        else if (version == "mmx")
            impl_->jpeg.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "image") {
        if (version == "c")
            impl_->image.runC(cpu);
        else if (version == "mmx")
            impl_->image.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "g722") {
        if (version == "c")
            impl_->g722.runC(cpu);
        else if (version == "mmx")
            impl_->g722.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "radar") {
        if (version == "c")
            impl_->radar.runC(cpu);
        else if (version == "mmx")
            impl_->radar.runMmx(cpu);
        else
            ok = false;
    } else {
        ok = false;
    }
    cpu.attachSink(nullptr);
    if (!ok)
        mmxdsp_fatal("unknown benchmark run %s.%s", benchmark.c_str(),
                     version.c_str());
}

std::shared_ptr<const trace::TraceReader>
BenchmarkSuite::ensureTrace(const std::string &benchmark,
                            const std::string &version)
{
    const std::string key = benchmark + "." + version;
    auto it = traces_.find(key);
    if (it != traces_.end())
        return it->second;

    const uint64_t h = config_.hash();
    auto reader = std::make_shared<trace::TraceReader>();
    if (traceCache_.load(benchmark, version, h, *reader)) {
        ++activity_.disk_hits;
    } else {
        // A materialized capture of this pair (direct-captured by
        // sweep()/materializedFor(), or published as a v2 image by an
        // earlier process) already holds the exact event stream:
        // re-encode it as v1 instead of executing the workload again —
        // a second run need not reproduce the address stream, and a
        // trace that disagrees with the materialized one would make
        // streaming and materialized replays diverge.
        std::vector<uint8_t> image;
        if (auto mit = materialized_.find(key); mit != materialized_.end())
            image = mit->second->serializeV1();
        else if (traceCache_.enabled()) {
            trace::MaterializedTrace mat;
            if (traceCache_.loadMaterialized(benchmark, version, h, mat)) {
                ++activity_.disk_hits;
                image = mat.serializeV1();
            }
        }
        if (image.empty()) {
            // Capture-only pass: no profiler attached, so the capture
            // costs functional execution plus encoding, not a
            // timing-model run.
            trace::TraceWriter writer(benchmark, version, h);
            executeLive(benchmark, version, &writer);
            writer.finish(&impl_->cpu);
            image = writer.serialize();
            ++activity_.captured;
        }
        traceCache_.store(benchmark, version, h, image);
        if (!reader->parse(std::move(image)))
            mmxdsp_panic("freshly captured trace failed to parse (%s)",
                         key.c_str());
    }
    auto [pos, inserted] =
        traces_.emplace(key, std::shared_ptr<const trace::TraceReader>(
                                 std::move(reader)));
    (void)inserted;
    return pos->second;
}

const RunResult &
BenchmarkSuite::run(const std::string &benchmark, const std::string &version)
{
    const std::string key = benchmark + "." + version;
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    RunResult result;
    result.benchmark = benchmark;
    result.version = version;

    const std::string tkey = benchmark + "." + version;

    // A direct-captured materialized trace (sweep()/materializedFor()
    // on this suite) carries the identical event stream — replay it
    // rather than executing again, so run() and sweep() stay
    // bit-consistent within one suite.
    if (!traces_.count(tkey)) {
        auto mit = materialized_.find(tkey);
        if (mit != materialized_.end()) {
            result.profile = mit->second->replayProfile(machine_);
            result.replayed = true;
            auto [pos, inserted] = cache_.emplace(key, std::move(result));
            (void)inserted;
            return pos->second;
        }
    }

    auto cached = traces_.find(tkey);
    if (cached == traces_.end() && traceCache_.enabled()) {
        // Try the on-disk cache before paying for an execution.
        const uint64_t h = config_.hash();
        auto reader = std::make_shared<trace::TraceReader>();
        if (traceCache_.load(benchmark, version, h, *reader)) {
            cached = traces_.emplace(tkey, std::move(reader)).first;
            ++activity_.disk_hits;
        } else {
            // No varint entry, but a previous process may have
            // published the materialized (v2) image: mmap it and
            // replay, which is cheaper than either decode or re-run.
            auto mat = std::make_shared<trace::MaterializedTrace>();
            if (traceCache_.loadMaterialized(benchmark, version, h,
                                             *mat)) {
                ++activity_.disk_hits;
                materialized_.emplace(tkey, mat);
                result.profile = mat->replayProfile(machine_);
                result.replayed = true;
                auto [pos, inserted] = cache_.emplace(key, std::move(result));
                (void)inserted;
                return pos->second;
            }
        }
    }

    if (cached != traces_.end()) {
        result.profile = trace::replayProfile(*cached->second, machine_);
        result.replayed = true;
    } else if (traceCache_.enabled()) {
        // Live run: profile and capture in one pass through a tee.
        const uint64_t h = config_.hash();
        profile::VProf prof(machine_);
        trace::TraceWriter writer(benchmark, version, h);
        sim::TeeSink tee(&prof, &writer);
        executeLive(benchmark, version, &tee);
        writer.finish(&impl_->cpu);
        std::vector<uint8_t> image = writer.serialize();
        traceCache_.store(benchmark, version, h, image);
        auto reader = std::make_shared<trace::TraceReader>();
        if (!reader->parse(std::move(image)))
            mmxdsp_panic("freshly captured trace failed to parse (%s)",
                         key.c_str());
        traces_.emplace(tkey, std::move(reader));
        result.profile = prof.result();
        ++activity_.captured;
    } else {
        profile::VProf prof(machine_);
        executeLive(benchmark, version, &prof);
        result.profile = prof.result();
    }

    auto [pos, inserted] = cache_.emplace(key, std::move(result));
    (void)inserted;
    return pos->second;
}

void
BenchmarkSuite::runAll(int n_threads)
{
    struct Job
    {
        std::string benchmark;
        std::string version;
        std::shared_ptr<const trace::TraceReader> reader;
        std::shared_ptr<const trace::MaterializedTrace> mat;
        profile::ProfileResult profile;
    };

    // Phase 1: gather every pair still to be measured. A pair that was
    // already direct-captured (sweep()/materializedFor()) replays from
    // its materialized buffers — same stream, no second execution.
    std::vector<Job> jobs;
    for (const auto &[benchmark, version] : allRuns()) {
        if (cache_.count(benchmark + "." + version))
            continue;
        Job job;
        job.benchmark = benchmark;
        job.version = version;
        auto it = traces_.find(benchmark + "." + version);
        if (it != traces_.end())
            job.reader = it->second;
        else if (auto mit = materialized_.find(benchmark + "." + version);
                 mit != materialized_.end())
            job.mat = mit->second;
        jobs.push_back(std::move(job));
    }

    // Phase 2 (parallel): the on-disk lookups — checksumming and
    // decoding a trace costs real time, and each load is independent.
    // A v1 entry decodes; failing that, a published v2 image mmaps.
    const uint64_t h = config_.hash();
    parallelFor(jobs.size(), n_threads, [&](size_t i) {
        if (jobs[i].reader || jobs[i].mat)
            return;
        auto reader = std::make_shared<trace::TraceReader>();
        if (traceCache_.load(jobs[i].benchmark, jobs[i].version, h,
                             *reader)) {
            jobs[i].reader = std::move(reader);
            return;
        }
        auto mat = std::make_shared<trace::MaterializedTrace>();
        if (traceCache_.loadMaterialized(jobs[i].benchmark,
                                         jobs[i].version, h, *mat))
            jobs[i].mat = std::move(mat);
    });
    for (Job &job : jobs) {
        if (job.reader) {
            auto [pos, inserted] = traces_.emplace(
                job.benchmark + "." + job.version, job.reader);
            if (inserted)
                ++activity_.disk_hits;
            job.reader = pos->second;
        } else if (job.mat) {
            auto [pos, inserted] = materialized_.emplace(
                job.benchmark + "." + job.version, job.mat);
            if (inserted)
                ++activity_.disk_hits;
            job.mat = pos->second;
        }
    }

    // Phase 3 (serial): capture whatever the disk didn't have. The
    // runtime executes single-threaded.
    for (Job &job : jobs) {
        if (!job.reader && !job.mat)
            job.reader = ensureTrace(job.benchmark, job.version);
    }

    // Phase 4 (parallel): each worker replays a trace through its own
    // profiler/timing model; the shared readers are immutable.
    parallelFor(jobs.size(), n_threads, [&](size_t i) {
        jobs[i].profile =
            jobs[i].mat
                ? jobs[i].mat->replayProfile(machine_)
                : trace::replayProfile(*jobs[i].reader, machine_);
    });

    for (Job &job : jobs) {
        RunResult result;
        result.benchmark = job.benchmark;
        result.version = job.version;
        result.profile = std::move(job.profile);
        result.replayed = true;
        cache_.emplace(job.benchmark + "." + job.version, std::move(result));
    }
}

std::shared_ptr<const trace::TraceReader>
BenchmarkSuite::traceFor(const std::string &benchmark,
                         const std::string &version)
{
    return ensureTrace(benchmark, version);
}

std::vector<profile::ProfileResult>
BenchmarkSuite::sweep(const std::string &benchmark,
                      const std::string &version,
                      const std::vector<sim::TimerConfig> &configs,
                      int threads)
{
    return materializedFor(benchmark, version)
        ->replaySweep(configs, threads);
}

std::vector<profile::ProfileResult>
BenchmarkSuite::sweep(const std::string &benchmark,
                      const std::string &version,
                      const std::vector<sim::MachineConfig> &machines,
                      int threads)
{
    return materializedFor(benchmark, version)
        ->replaySweep(machines, threads);
}

std::shared_ptr<const trace::MaterializedTrace>
BenchmarkSuite::materializedFor(const std::string &benchmark,
                                const std::string &version)
{
    const std::string key = benchmark + "." + version;
    auto it = materialized_.find(key);
    if (it != materialized_.end())
        return it->second;

    // The direct cold path: when no varint trace exists yet (neither in
    // memory nor on disk), capture straight into the SoA buffers via a
    // MaterializeSink — one pass, no varint encode or decode anywhere —
    // and publish the v2 image so the next process mmaps instead of
    // re-executing. An existing v1 entry (this process or disk) still
    // wins: it is already paid for. The varint path below stays the
    // golden reference for MaterializeSink (test_materialize_sink.cc).
    if (!traces_.count(key)) {
        const uint64_t h = config_.hash();
        {
            auto mat = std::make_shared<trace::MaterializedTrace>();
            if (traceCache_.loadMaterialized(benchmark, version, h, *mat)) {
                ++activity_.disk_hits;
                materialized_.emplace(key, mat);
                return mat;
            }
        }
        auto reader = std::make_shared<trace::TraceReader>();
        if (traceCache_.enabled()
            && traceCache_.load(benchmark, version, h, *reader)) {
            ++activity_.disk_hits;
            traces_.emplace(key, std::move(reader));
        } else {
            trace::MaterializeSink sink(benchmark, version, h);
            executeLive(benchmark, version, &sink);
            auto mat = std::make_shared<trace::MaterializedTrace>(
                sink.finish(&impl_->cpu));
            ++activity_.captured;
            traceCache_.storeMaterialized(benchmark, version, h, *mat);
            materialized_.emplace(key, mat);
            return mat;
        }
    }

    auto reader = ensureTrace(benchmark, version);
    auto mat = std::make_shared<trace::MaterializedTrace>(
        trace::materialize(*reader));
    materialized_.emplace(key, std::move(mat));
    return materialized_.at(key);
}

std::vector<std::pair<std::string, std::string>>
BenchmarkSuite::allRuns()
{
    return {
        {"fft", "c"},    {"fft", "fp"},  {"fft", "mmx"},
        {"fir", "c"},    {"fir", "fp"},  {"fir", "mmx"},
        {"iir", "c"},    {"iir", "fp"},  {"iir", "mmx"},
        {"matvec", "c"}, {"matvec", "mmx"},
        {"gemm", "c"},   {"gemm", "c_blocked"},
        {"gemm", "mmx"}, {"gemm", "mmx_blocked"},
        {"radar", "c"},  {"radar", "mmx"},
        {"g722", "c"},   {"g722", "mmx"},
        {"jpeg", "c"},   {"jpeg", "mmx"},
        {"image", "c"},  {"image", "mmx"},
    };
}

double
BenchmarkSuite::speedup(const std::string &benchmark)
{
    const RunResult &c = run(benchmark, "c");
    const RunResult &mmx = run(benchmark, "mmx");
    return static_cast<double>(c.profile.cycles)
           / static_cast<double>(mmx.profile.cycles);
}

std::vector<std::string>
BenchmarkSuite::benchmarksBySpeedup()
{
    std::vector<std::string> names{"jpeg", "g722", "radar", "fir",
                                   "fft",  "iir",  "image", "matvec"};
    std::sort(names.begin(), names.end(),
              [&](const std::string &a, const std::string &b) {
                  return speedup(a) < speedup(b);
              });
    return names;
}

} // namespace mmxdsp::harness
