/**
 * @file
 * The benchmark harness: owns one instance of every benchmark, runs any
 * (benchmark, version) pair under a fresh profiler with the paper's
 * workload parameters, and caches results so one bench binary can build
 * several tables from a single simulation pass.
 *
 * With tracing enabled the harness follows the paper's VTune
 * methodology — capture the instruction stream once, characterize it as
 * often as needed: live runs are captured through a trace::TraceWriter
 * and persisted in a content-addressed on-disk cache; subsequent runs
 * (or other bench binaries with the same workload config) replay the
 * trace through the profiler without re-executing benchmark code, with
 * bit-identical metrics. runAll() fans replay out over a worker pool,
 * and sweep() replays one trace under many timing configurations.
 */

#ifndef MMXDSP_HARNESS_SUITE_HH
#define MMXDSP_HARNESS_SUITE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "sim/pentium_timer.hh"
#include "sim/timing_model.hh"
#include "trace/cache.hh"
#include "trace/materialize.hh"
#include "trace/reader.hh"

namespace mmxdsp::harness {

/** Workload parameters (defaults follow the paper's Table 1). */
struct SuiteConfig
{
    int fir_samples = 4096;
    int iir_samples = 8192;
    int fft_size = 4096;     ///< "4096 point, in-place FFT"
    int matvec_dim = 512;    ///< "512 x 512 matrix ... vector of length 512"
    int gemm_dim = 128;      ///< blocked GEMM: C = A x B, dim x dim Q15
    int gemm_block = 32;     ///< GEMM jj/kk cache-block edge
    int image_width = 640;   ///< "480 x 640 RGB image"
    int image_height = 480;
    int jpeg_width = 224;    ///< ~118 kB RGB bitmap like the paper's input
    int jpeg_height = 168;
    int jpeg_quality = 75;
    int g722_samples = 3072; ///< "a 6 kB speech file"
    int radar_echoes = 1025; ///< 12 range gates, 64 16-pulse segments
    uint64_t seed = 42;
    /** Shrink every workload (for quick runs / examples). */
    void scaleDown(int factor);

    /**
     * Key of this workload for the trace cache: an FNV-1a hash over
     * every field above plus the trace format version, so any workload
     * or format change misses cleanly.
     */
    uint64_t hash() const;
};

/** How the suite uses the instruction-trace layer. */
struct TraceOptions
{
    /** Capture executions and replay cached traces. */
    bool enabled = false;
    /** On-disk cache directory (MMXDSP_TRACE_DIR overrides). */
    std::string dir = "traces";
};

/** One measured (benchmark, version) run. */
struct RunResult
{
    std::string benchmark;
    std::string version; ///< "c", "fp", "mmx", "mmx_v1"
    profile::ProfileResult profile;
    /** True when the metrics came from trace replay, not execution. */
    bool replayed = false;

    std::string name() const { return benchmark + "." + version; }
};

class BenchmarkSuite
{
  public:
    /**
     * @p machine selects the timing model every run()/runAll() profile
     * is computed on (default: P5 with default parameters). Captured
     * traces are model-independent, so suites with different machines
     * share the same trace cache entries.
     */
    explicit BenchmarkSuite(
        const SuiteConfig &config = SuiteConfig{},
        const TraceOptions &trace_options = TraceOptions{},
        const sim::MachineConfig &machine = sim::MachineConfig{});
    ~BenchmarkSuite();

    /**
     * Run (and cache) one benchmark version. Valid names:
     * fft/fir/iir/matvec/gemm/jpeg/image/g722/radar; versions "c" for
     * all, "fp" for fft/fir/iir, "mmx" for all, "mmx_v1" for fft, and
     * "c_blocked"/"mmx_blocked" for gemm. Fatal on unknown pairs.
     *
     * With tracing enabled, a disk-cached trace is replayed instead of
     * executing, and live executions are captured for next time.
     */
    const RunResult &run(const std::string &benchmark,
                         const std::string &version);

    /**
     * Produce every (benchmark, version) result. Missing traces are
     * captured first (serially — the runtime is single-threaded), then
     * all pending profiles are computed by replaying traces across
     * @p n_threads workers (0 = auto). Afterwards run() returns cached
     * results. Metrics are bit-identical to the serial path.
     */
    void runAll(int n_threads = 1);

    /**
     * The captured trace for one pair (capturing it on demand), usable
     * with trace::replayProfile / trace::replaySweep. Valid as long as
     * the suite lives.
     */
    std::shared_ptr<const trace::TraceReader>
    traceFor(const std::string &benchmark, const std::string &version);

    /**
     * The decode-once materialized form of one pair's trace, built (and
     * cached for the suite's lifetime) on demand. This is the buffer
     * sweep() replays from; repeated sweeps over the same pair never
     * re-decode the serialized trace.
     *
     * When neither an in-memory nor an on-disk trace exists, the cold
     * capture goes straight into the SoA buffers through a
     * trace::MaterializeSink (no varint encode/decode; the v2 image is
     * published to the trace cache with capture-time checksums). The
     * varint path (capture → v1 encode → decode → build) is the golden
     * reference it is checked against in-process.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    materializedFor(const std::string &benchmark,
                    const std::string &version);

    /**
     * Replay one benchmark's trace under every timing configuration in
     * @p configs (L1/L2 geometry, penalties, BTB size, ...), fanning out
     * over @p threads workers. One capture, many machine models: the
     * trace is decoded once into a MaterializedTrace shared by all
     * workers.
     */
    std::vector<profile::ProfileResult>
    sweep(const std::string &benchmark, const std::string &version,
          const std::vector<sim::TimerConfig> &configs, int threads = 0);

    /**
     * Cross-model sweep: each entry selects its own machine (P5 or P6)
     * and timer parameters, all replayed from the same captured trace.
     */
    std::vector<profile::ProfileResult>
    sweep(const std::string &benchmark, const std::string &version,
          const std::vector<sim::MachineConfig> &machines, int threads = 0);

    /** All (benchmark, version) pairs, kernels first (paper order). */
    static std::vector<std::pair<std::string, std::string>> allRuns();

    /** Benchmarks ordered by ascending measured C/MMX speedup. */
    std::vector<std::string> benchmarksBySpeedup();

    /** Measured C-version / MMX-version cycle ratio. */
    double speedup(const std::string &benchmark);

    const SuiteConfig &config() const { return config_; }
    /** The machine run()/runAll() results are computed on. */
    const sim::MachineConfig &machine() const { return machine_; }
    const trace::TraceCache &traceCache() const { return traceCache_; }

    /** How traces were obtained so far (for provenance footers). */
    struct TraceActivity
    {
        int captured = 0;  ///< pairs executed live this process
        int disk_hits = 0; ///< pairs loaded from the on-disk cache
    };
    const TraceActivity &traceActivity() const { return activity_; }

  private:
    struct Impl;

    /** Execute one pair on the live runtime with @p sink attached. */
    void executeLive(const std::string &benchmark,
                     const std::string &version, sim::TraceSink *sink);

    /**
     * Ensure an in-memory trace exists for the pair: from the run
     * cache's capture, the disk cache, or a fresh capture-only pass.
     */
    std::shared_ptr<const trace::TraceReader>
    ensureTrace(const std::string &benchmark, const std::string &version);

    SuiteConfig config_;
    sim::MachineConfig machine_;
    trace::TraceCache traceCache_;
    TraceActivity activity_;
    std::unique_ptr<Impl> impl_;
    std::map<std::string, RunResult> cache_;
    std::map<std::string, std::shared_ptr<const trace::TraceReader>> traces_;
    std::map<std::string, std::shared_ptr<const trace::MaterializedTrace>>
        materialized_;
};

} // namespace mmxdsp::harness

#endif // MMXDSP_HARNESS_SUITE_HH
