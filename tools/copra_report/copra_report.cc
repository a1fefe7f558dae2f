/**
 * @file
 * copra_report — run-manifest comparison and metrics documentation.
 *
 * Modes:
 *   copra_report diff <before.json> <after.json> [--threshold 0.05]
 *       Print a Markdown regression report comparing two run manifests
 *       (as written by any bench or CLI via --metrics-out).
 *
 *   copra_report --doc-registry [--check <file>]
 *       Print docs/METRICS.md regenerated from the live instrument
 *       registry; with --check, compare against <file> instead and exit
 *       non-zero on drift (the metrics_doc_drift ctest gate).
 *
 *   copra_report --summary <manifest.json>
 *       Print the non-zero instruments of a manifest as an aligned
 *       table.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <exception>
#include <string>

#include "obs/manifest.hpp"
#include "obs/report.hpp"

namespace {

using namespace copra;

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s diff <before.json> <after.json> [--threshold <frac>]\n"
        "  %s --doc-registry [--check <file>]\n"
        "  %s --summary <manifest.json>\n",
        prog, prog, prog);
    return 2;
}

int
runDiff(int argc, char **argv)
{
    obs::DiffOptions options;
    std::string before_path;
    std::string after_path;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            options.threshold = std::strtod(argv[++i], nullptr);
        } else if (before_path.empty()) {
            before_path = argv[i];
        } else if (after_path.empty()) {
            after_path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (before_path.empty() || after_path.empty())
        return usage(argv[0]);
    // Load in argument order so the error names the first bad file
    // (function-argument evaluation order is unspecified).
    obs::Json before = obs::loadManifest(before_path);
    obs::Json after = obs::loadManifest(after_path);
    std::string report = obs::diffManifests(before, after, options);
    std::fputs(report.c_str(), stdout);
    return 0;
}

int
runDocRegistry(int argc, char **argv)
{
    std::string check_path;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc)
            check_path = argv[++i];
        else
            return usage(argv[0]);
    }
    std::string doc = obs::renderRegistryDoc();
    if (check_path.empty()) {
        std::fputs(doc.c_str(), stdout);
        return 0;
    }
    std::ifstream in(check_path);
    if (!in) {
        std::fprintf(stderr, "copra_report: cannot open %s\n",
                     check_path.c_str());
        return 1;
    }
    std::ostringstream slurp;
    slurp << in.rdbuf();
    if (slurp.str() == doc) {
        std::printf("%s matches the instrument registry\n",
                    check_path.c_str());
        return 0;
    }
    std::fprintf(stderr,
                 "copra_report: %s has drifted from the instrument "
                 "registry.\nRegenerate it with:\n"
                 "  copra_report --doc-registry > %s\n",
                 check_path.c_str(), check_path.c_str());
    return 1;
}

int
runSummary(int argc, char **argv)
{
    if (argc != 3)
        return usage(argv[0]);
    obs::Json manifest = obs::loadManifest(argv[2]);
    std::printf("manifest %s (tool=%s git=%s)\n", argv[2],
                manifest.at("tool").asString().c_str(),
                manifest.at("git_sha").asString().c_str());
    for (const obs::Json &entry :
         manifest.at("instruments").items()) {
        const obs::Json *value = entry.find("value");
        if (value != nullptr) {
            if (value->asNumber() == 0.0)
                continue;
            std::printf("  %-34s %12.0f %s\n",
                        entry.at("key").asString().c_str(),
                        value->asNumber(),
                        entry.at("unit").asString().c_str());
        } else {
            double count = entry.at("count").asNumber();
            if (count == 0.0)
                continue;
            std::printf("  %-34s %12.0f samples  sum=%-12.6g "
                        "min=%-10.4g max=%-10.4g [%s]\n",
                        entry.at("key").asString().c_str(), count,
                        entry.at("sum").asNumber(),
                        entry.at("min").asNumber(),
                        entry.at("max").asNumber(),
                        entry.at("unit").asString().c_str());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    try {
        if (std::strcmp(argv[1], "diff") == 0)
            return runDiff(argc, argv);
        if (std::strcmp(argv[1], "--doc-registry") == 0)
            return runDocRegistry(argc, argv);
        if (std::strcmp(argv[1], "--summary") == 0)
            return runSummary(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "copra_report: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
