// symfail_perfbench: runs one benchmark workload and prints its raw
// measurements as one JSON line.  run.py builds this binary, checks the
// rendered outputs against the golden digests and reports the metrics.
//
//   symfail_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--smoke] [--out-dir DIR] [--setup-only]
//
// --setup-only stops right before the first timed call, so run.py can
// time process start-up and input preparation on its own.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

std::string jsonString(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string jsonNumber(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    const auto value = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument{flag + ": not a number: " + text};
    return value;
}

perfbench::Options parseArgs(int argc, char** argv, bool& setupOnly) {
    perfbench::Options options;
    const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
    options.jobs = static_cast<int>(std::min(cores, 4U));
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        if (flag == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (flag == "--setup-only") {
            setupOnly = true;
            continue;
        }
        if (i + 1 >= args.size()) throw std::invalid_argument{flag + " needs a value"};
        const std::string& value = args[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            options.seconds = static_cast<double>(parseUnsigned(flag, value));
        } else if (flag == "--trace") {
            options.trace = parseUnsigned(flag, value) != 0;
        } else if (flag == "--out-dir") {
            options.outDir = value;
        } else {
            throw std::invalid_argument{"unknown flag " + flag};
        }
    }
    if (!perfbench::knownWorkload(options.workload)) {
        throw std::invalid_argument{"unknown workload '" + options.workload + "'"};
    }
    return options;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    bool setupOnly = false;
    try {
        options = parseArgs(argc, argv, setupOnly);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "symfail_perfbench: %s\n", e.what());
        return 2;
    }
    const auto prepared = perfbench::prepare(options);
    const std::int64_t firstCallNs = perfbench::nowNs();
    if (setupOnly) {
        std::printf("{\"first_call_ns\":%lld}\n", static_cast<long long>(firstCallNs));
        return 0;
    }

    perfbench::Tracer tracer{options.trace};
    const auto report = perfbench::run(options, prepared, tracer);

    namespace fs = std::filesystem;
    fs::create_directories(options.outDir);
    const std::string stem = options.workload + "-" + std::to_string(options.seed) +
                             (options.trace ? "-trace" : "");
    std::vector<std::string> outputPaths;
    for (std::size_t i = 0; i < report.outputs.size(); ++i) {
        const auto path =
            (fs::path{options.outDir} / (stem + "-" + std::to_string(i) + ".out")).string();
        std::ofstream{path, std::ios::binary} << report.outputs[i];
        outputPaths.push_back(path);
    }
    std::string spansPath;
    if (options.trace) {
        spansPath = (fs::path{options.outDir} / (stem + "-spans.json")).string();
        if (!tracer.write(spansPath)) {
            std::fprintf(stderr, "symfail_perfbench: cannot write %s\n", spansPath.c_str());
            return 1;
        }
    }

    std::string json = "{\"first_call_ns\":" + std::to_string(firstCallNs);
    json += ",\"jobs\":" + std::to_string(options.jobs);
    json += ",\"wall_s\":[";
    for (std::size_t i = 0; i < report.wallSeconds.size(); ++i) {
        json += (i == 0 ? "" : ",") + jsonNumber(report.wallSeconds[i]);
    }
    json += "],\"phone_hours\":" + jsonNumber(report.phoneHoursPerRep);
    json += ",\"peak_rss_bytes\":[";
    for (std::size_t i = 0; i < report.peakRssBytes.size(); ++i) {
        json += (i == 0 ? "" : ",") + jsonNumber(report.peakRssBytes[i]);
    }
    json += "]";
    json += ",\"attempted\":" + std::to_string(report.attempted);
    json += ",\"failed\":" + std::to_string(report.failed);
    json += ",\"errors\":[";
    for (std::size_t i = 0; i < report.errors.size(); ++i) {
        json += (i == 0 ? "" : ",") + jsonString(report.errors[i]);
    }
    json += "],\"outputs\":[";
    for (std::size_t i = 0; i < outputPaths.size(); ++i) {
        json += (i == 0 ? "" : ",") + jsonString(outputPaths[i]);
    }
    json += "],\"spans\":" + jsonString(spansPath);
    json += ",\"layers\":{";
    for (std::size_t i = 0; i < report.layers.size(); ++i) {
        json += (i == 0 ? "" : ",") + jsonString(report.layers[i].first) + ":" +
                jsonNumber(report.layers[i].second);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
