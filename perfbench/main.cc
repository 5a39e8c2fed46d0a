/**
 * @file
 * perfbench: runs one workload for a fixed time and prints its
 * metrics as one JSON line (the last line of standard output).
 *
 *   perfbench --workload cold_zoo|hit_storm|mixed_fleet --seed N
 *             --seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]
 *
 * Normally started through run.py, which builds it first.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value != "0";
        else if (flag == "--git-sha")
            args.git_sha = value;
        else if (flag == "--out-dir")
            args.out_dir = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.seconds <= 0.0)
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        Result result;
        SpanRecorder spans;
        if (args.workload == "cold_zoo")
            runColdZoo(args, result, spans);
        else if (args.workload == "hit_storm")
            runHitStorm(args, result, spans);
        else if (args.workload == "mixed_fleet")
            runMixedFleet(args, result, spans);
        else
            throw std::invalid_argument("unknown workload '" + args.workload
                                        + "'");

        if (args.trace) {
            std::filesystem::create_directories(args.out_dir);
            std::string path = args.out_dir + "/spans-" + args.workload
                + "-" + std::to_string(args.seed) + ".jsonl";
            std::ofstream os(path);
            writeSpans(os, spans.spans());
            std::cout << "spans: " << spans.spans().size() << " written to "
                      << path << "\n";
        }
        std::cout << "requests: " << result.attempted << " sent, "
                  << result.attempted - result.failed << " answered, "
                  << result.failed << " failed\n";
        for (const std::string &problem : result.problems)
            std::cout << "CHECK FAILED: " << problem << "\n";
        std::cout << machineLine(machineShape(args.git_sha)) << "\n";
        std::cout << resultLine(result) << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
}
