/**
 * @file
 * Trace replay bench: runs captured traces through the identical
 * fleet/bench/JSON machinery as the synthetic zoo (ExperimentRunner
 * speedups over the all-off baseline, per-workload rows).
 *
 * Usage:
 *     bench_trace_replay [trace files...]
 *
 * With no arguments the bench is self-contained: it captures short
 * traces from three representative zoo workloads (streaming,
 * pointer-chase, irregular) into ATHENA_TRACE_DIR (default /tmp),
 * one text and two binary, then replays them — exercising capture,
 * both formats, and replay end to end without external downloads.
 * Traces replay looped (traceLoops = 0) so the standard
 * fixed-instruction budgets apply regardless of capture length.
 *
 * Knobs:
 *  - ATHENA_SIM_INSTR / ATHENA_WARMUP_INSTR  run lengths
 *  - ATHENA_TRACE_DIR        where self-captured traces are written
 *  - ATHENA_CAPTURE_RECORDS  records per self-captured trace
 *                            (default 200000)
 *  - ATHENA_BENCH_JSON       output path
 *                            (default BENCH_trace_replay.json)
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "trace/trace_file.hh"
#include "trace/zoo.hh"

namespace
{

using namespace athena;


/** Capture @p records instructions of a zoo workload to a file. */
std::string
captureTrace(const WorkloadSpec &spec, std::uint64_t records,
             const std::string &dir, TraceFormat format)
{
    auto gen = makeWorkload(spec);
    std::vector<TraceRecord> recs(records);
    std::size_t got = gen->nextBatch(recs.data(), recs.size());
    recs.resize(got);
    std::string path =
        dir + "/" + spec.name +
        (format == TraceFormat::kBinary ? ".atrc.bin" : ".atrc.txt");
    writeTraceFile(path, recs, format);
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_env = std::getenv("ATHENA_BENCH_JSON");
    std::string json_path = json_env && *json_env
                                ? json_env
                                : "BENCH_trace_replay.json";
    const char *dir_env = std::getenv("ATHENA_TRACE_DIR");
    std::string trace_dir = dir_env && *dir_env ? dir_env : "/tmp";

    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i)
        paths.emplace_back(argv[i]);
    if (paths.empty()) {
        // Self-contained mode: capture representative archetypes.
        std::uint64_t records =
            envUnsigned("ATHENA_CAPTURE_RECORDS", 200000);
        auto workloads = evalWorkloads();
        const WorkloadSpec *chase = &workloads.front();
        const WorkloadSpec *irreg = &workloads.front();
        for (const WorkloadSpec &w : workloads) {
            if (chase == &workloads.front() &&
                w.name.find("mcf") != std::string::npos)
                chase = &w;
            if (w.name.find("omnetpp") != std::string::npos)
                irreg = &w;
        }
        std::cout << "capturing " << records
                  << "-record traces to " << trace_dir << "\n";
        paths.push_back(captureTrace(workloads.front(), records,
                                     trace_dir,
                                     TraceFormat::kText));
        paths.push_back(captureTrace(*chase, records, trace_dir,
                                     TraceFormat::kBinary));
        paths.push_back(captureTrace(*irreg, records, trace_dir,
                                     TraceFormat::kBinary));
    }

    // Replay specs: looped, so fixed-instruction budgets apply.
    // Named by full path — the runner's baseline cache is keyed by
    // workload name, so two different traces sharing a basename
    // (or a trace named like a zoo workload) must not collide.
    std::vector<WorkloadSpec> specs;
    for (const std::string &path : paths)
        specs.push_back(traceWorkloadSpec(path, path, 0));

    ExperimentRunner runner;
    SystemConfig naive =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    SystemConfig athena_cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);

    auto naive_rows = runner.speedups(naive, specs);
    auto athena_rows = runner.speedups(athena_cfg, specs);

    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    json << "{\n  \"benchmark\": \"bench_trace_replay\",\n"
         << "  \"sim_instructions\": " << runner.budget.simInstructions
         << ",\n  \"traces\": [\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &nr = naive_rows[i];
        const auto &ar = athena_rows[i];
        std::cout << specs[i].name << ": baseline "
                  << nr.baselineIpc << " ipc, naive "
                  << nr.speedup << "x, athena " << ar.speedup
                  << "x\n";
        json << "    {\"trace\": \"" << specs[i].name
             << "\", \"baseline_ipc\": " << nr.baselineIpc
             << ", \"naive_speedup\": " << nr.speedup
             << ", \"athena_speedup\": " << ar.speedup << "}"
             << (i + 1 < specs.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "-> " << json_path << "\n";
    return 0;
}
