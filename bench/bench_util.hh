/**
 * @file
 * Shared output helpers for the figure/table benches: each bench
 * prints the machine it simulates, the paper's reported anchor
 * numbers, and the measured rows, in a fixed-width layout that is
 * easy to diff across runs.
 */

#ifndef LATR_BENCH_BENCH_UTIL_HH_
#define LATR_BENCH_BENCH_UTIL_HH_

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "sim/args.hh"
#include "topo/machine_config.hh"
#include "trace/chrome_trace.hh"
#include "trace/text_dump.hh"

namespace latr::bench
{

/** Print the bench banner: experiment id, description, machine. */
inline void
banner(const char *experiment, const char *description,
       const MachineConfig &config)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", experiment, description);
    std::printf("machine: %s (%u sockets x %u cores)\n",
                config.name.c_str(), config.sockets,
                config.coresPerSocket);
    std::printf("==============================================================\n");
}

/** Print the paper's expectation for this experiment. */
inline void
paperExpectation(const char *text)
{
    std::printf("paper:    %s\n", text);
}

/** Print the measured headline for this experiment. */
inline void
measuredHeadline(const char *fmt, ...)
{
    std::printf("measured: ");
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

inline void
rule()
{
    std::printf("--------------------------------------------------------------\n");
}

/** ns -> us for printing. */
inline double
us(double ns)
{
    return ns / 1000.0;
}

/**
 * The git commit the bench binary's tree was built from, or
 * "unknown" outside a work tree. Cached: the subprocess runs once
 * per bench process, not once per JSON document.
 */
inline const std::string &
gitSha()
{
    static const std::string sha = [] {
        std::string out = "unknown";
        if (std::FILE *p = ::popen(
                "git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
            char buf[64] = {0};
            if (std::fgets(buf, sizeof buf, p)) {
                std::size_t n = std::strcspn(buf, "\r\n");
                if (n > 0)
                    out.assign(buf, n);
            }
            ::pclose(p);
        }
        return out;
    }();
    return sha;
}

/** Exit 2 on an output file that cannot be written (@p what: kind). */
[[noreturn]] inline void
cannotWrite(const char *what, const std::string &path)
{
    std::fprintf(stderr, "%s: cannot write '%s'\n", what, path.c_str());
    std::exit(2);
}

/**
 * Machine-readable results, written next to the human-readable table
 * when the bench is invoked with `--json=FILE`. Every bench emits the
 * same shape — experiment id, description, named rows, and the
 * measured headline — so BENCH_*.json files can be tracked and
 * compared uniformly across runs and PRs:
 *
 *   {
 *     "experiment": "Figure 6",
 *     "description": "...",
 *     "headline": "...",
 *     "config": {"jobs": 4, "host_cpus": 4, ...},
 *     "rows": [ {"cores": 16, "linux_us": 7.9, ...}, ... ]
 *   }
 *
 * The config object records the host-side knobs the bench ran with
 * (parallel jobs, host CPUs) so a BENCH_*.json is self-describing:
 * two files can only be compared when their configs match. Every
 * document also records the git commit it was built from, and a
 * gated bench's document the baseline file it was gated against (see
 * baselineFile()) — the provenance that turns a stray BENCH_*.json
 * back into a reproducible data point.
 */
class JsonWriter
{
  public:
    JsonWriter(std::string experiment, std::string description)
        : experiment_(std::move(experiment)),
          description_(std::move(description))
    {
        config("git_sha", gitSha());
    }

    /**
     * Record the `--check-against=` baseline this run was gated
     * against ("none" when the bench ran ungated).
     */
    JsonWriter &
    baselineFile(const std::string &path)
    {
        return config("baseline_file",
                      path.empty() ? std::string("none") : path);
    }

    /** Start a new row; subsequent num()/str() calls fill it. */
    JsonWriter &
    row()
    {
        rows_.emplace_back();
        return *this;
    }

    JsonWriter &
    num(const char *key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        rows_.back().emplace_back(key, buf);
        return *this;
    }

    JsonWriter &
    num(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(value));
        rows_.back().emplace_back(key, buf);
        return *this;
    }

    JsonWriter &
    str(const char *key, const std::string &value)
    {
        rows_.back().emplace_back(key, quote(value));
        return *this;
    }

    /** Record one host-side knob in the document's config object. */
    JsonWriter &
    config(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(value));
        config_.emplace_back(key, buf);
        return *this;
    }

    JsonWriter &
    config(const char *key, const std::string &value)
    {
        config_.emplace_back(key, quote(value));
        return *this;
    }

    /** Record the measured headline (mirrors measuredHeadline()). */
    void
    headline(const char *fmt, ...)
    {
        char buf[512];
        va_list args;
        va_start(args, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, args);
        va_end(args);
        headline_ = buf;
    }

    /**
     * Write the document; no-op when @p path is empty. A file that
     * cannot be written exits 2: a requested result must not go
     * missing silently.
     */
    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            cannotWrite("json", path);
        std::fprintf(f, "{\n  \"experiment\": %s,\n",
                     quote(experiment_).c_str());
        std::fprintf(f, "  \"description\": %s,\n",
                     quote(description_).c_str());
        std::fprintf(f, "  \"headline\": %s,\n",
                     quote(headline_).c_str());
        if (!config_.empty()) {
            std::fprintf(f, "  \"config\": {");
            for (std::size_t i = 0; i < config_.size(); ++i)
                std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                             config_[i].first.c_str(),
                             config_[i].second.c_str());
            std::fprintf(f, "},\n");
        }
        std::fprintf(f, "  \"rows\": [");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s\n    {", i ? "," : "");
            const auto &row = rows_[i];
            for (std::size_t j = 0; j < row.size(); ++j)
                std::fprintf(f, "%s\"%s\": %s", j ? ", " : "",
                             row[j].first.c_str(),
                             row[j].second.c_str());
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n  ]\n}\n");
        const bool failed = std::ferror(f) != 0;
        if (std::fclose(f) != 0 || failed)
            cannotWrite("json", path);
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out += c;
        }
        out += '"';
        return out;
    }

    std::string experiment_;
    std::string description_;
    std::string headline_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::vector<std::pair<std::string, std::string>>>
        rows_;
};

/**
 * The `--check-against=FILE` and `--max-regression=X` options of a
 * gated bench (bench_engine's wall-clock gate). X is a fraction
 * (0.30) or a percentage (30).
 */
struct GateOptions
{
    /** Baseline BENCH_*.json to gate against; empty = ungated. */
    std::string baseline;
    double maxRegression = 0.30;

    void
    declare(Args &args)
    {
        args.text("--check-against", &baseline)
            .real("--max-regression", &maxRegression, 0, 100);
    }
};

/**
 * (scenario, value of @p key) for every row of the BENCH_*.json at
 * @p path, in file order. Empty when the file is unreadable or holds
 * no rows.
 */
inline std::vector<std::pair<std::string, double>>
baselineScenarios(const std::string &path, const char *key)
{
    std::vector<std::pair<std::string, double>> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string field = std::string("\"") + key + "\":";
    std::size_t at = 0;
    while ((at = text.find("\"scenario\": \"", at)) !=
           std::string::npos) {
        at += 13;
        const std::size_t end = text.find('"', at);
        if (end == std::string::npos)
            break;
        const std::string name = text.substr(at, end - at);
        const std::size_t value = text.find(field, end);
        if (value == std::string::npos)
            break;
        out.emplace_back(name, std::strtod(text.c_str() + value +
                                               field.size(),
                                           nullptr));
        at = end;
    }
    return out;
}

/**
 * Gate this run's @p measured (scenario, value) rows against the
 * baseline's @p key, where higher is better: every baseline scenario
 * that @p gated accepts (all of them when it is null) must be in the
 * run and stay above its floor, base * (1 - max regression). Prints
 * one line per gated scenario with @p line_format, which takes the
 * scenario, the measured value, the baseline value, the floor and
 * the verdict.
 *
 * @return 0 if every gate holds or the run is ungated, 1 on a
 *         regression, 2 when the baseline is unreadable or names a
 *         scenario the run lacks.
 */
inline int
checkBaseline(const char *bench, const GateOptions &opts,
              const char *key,
              const std::vector<std::pair<std::string, double>> &measured,
              const char *line_format,
              bool (*gated)(const std::string &) = nullptr)
{
    if (opts.baseline.empty())
        return 0;
    const auto baseline = baselineScenarios(opts.baseline, key);
    if (baseline.empty()) {
        std::fprintf(stderr,
                     "%s: cannot read any scenario rows from baseline "
                     "'%s'\n",
                     bench, opts.baseline.c_str());
        return 2;
    }
    const double max = opts.maxRegression > 1.0
                           ? opts.maxRegression / 100.0
                           : opts.maxRegression;
    bool failed = false;
    for (const auto &base : baseline) {
        if (gated && !gated(base.first))
            continue;
        const std::pair<std::string, double> *got = nullptr;
        for (const auto &row : measured)
            if (row.first == base.first)
                got = &row;
        if (!got) {
            // A baseline scenario this run never produced would
            // otherwise pass silently — the exact failure mode that
            // hides a renamed or dropped gate.
            std::fprintf(stderr,
                         "%s: baseline scenario '%s' missing from "
                         "this run (have:",
                         bench, base.first.c_str());
            for (const auto &row : measured)
                std::fprintf(stderr, " %s", row.first.c_str());
            std::fprintf(stderr, "); refresh the baseline\n");
            return 2;
        }
        const double floor = base.second * (1.0 - max);
        const bool ok = got->second >= floor;
        std::printf(line_format, base.first.c_str(), got->second,
                    base.second, floor, ok ? "ok" : "REGRESSION");
        failed = failed || !ok;
    }
    return failed ? 1 : 0;
}

/**
 * Tracing knobs shared by the benches (`--trace=FILE`,
 * `--trace-text=FILE`, `--trace-capacity=N`). Benches run many
 * machines; each picks one representative point to arm with
 * applyTrace()/finishTrace().
 */
struct TraceOptions
{
    std::string jsonPath;
    std::string textPath;
    std::size_t capacity = TraceRecorder::kDefaultCapacity;

    void
    declare(Args &args)
    {
        args.text("--trace", &jsonPath)
            .text("--trace-text", &textPath)
            .number("--trace-capacity", &capacity, 1, 1 << 24);
    }

    bool wanted() const
    {
        return !jsonPath.empty() || !textPath.empty();
    }
};

/** Arm @p machine's recorder per @p opts (no-op when not wanted). */
inline void
applyTrace(Machine &machine, const TraceOptions &opts)
{
    if (!opts.wanted())
        return;
    machine.trace().setCapacity(opts.capacity);
    machine.trace().setEnabled(true);
}

/**
 * Write the armed machine's trace to the requested files. A file that
 * cannot be written exits 2, as JsonWriter::write() does.
 */
inline void
finishTrace(Machine &machine, const TraceOptions &opts)
{
    if (!opts.jsonPath.empty()) {
        if (!writeChromeTraceFile(machine.trace(), &machine.topo(),
                                  opts.jsonPath))
            cannotWrite("trace", opts.jsonPath);
        std::fprintf(stderr, "trace: %llu records -> %s\n",
                     static_cast<unsigned long long>(
                         machine.trace().size()),
                     opts.jsonPath.c_str());
    }
    if (!opts.textPath.empty()) {
        TextDumpOptions text;
        std::FILE *f = opts.textPath == "-"
                           ? stdout
                           : std::fopen(opts.textPath.c_str(), "w");
        if (!f)
            cannotWrite("trace", opts.textPath);
        writeTextTimeline(machine.trace(), text, f);
        if (f != stdout && std::fclose(f) != 0)
            cannotWrite("trace", opts.textPath);
    }
}

/**
 * Host nanoseconds per call of @p call, the minimum over @p rounds
 * batches. Each round first runs @p prepare untimed, which returns the
 * batch size n, then times call(0) .. call(n - 1). The minimum keeps
 * the batch the host disturbed least.
 */
template <typename Prepare, typename Call>
double
minNsPerCall(unsigned rounds, Prepare prepare, Call call)
{
    double best = std::numeric_limits<double>::infinity();
    for (unsigned r = 0; r < rounds; ++r) {
        const unsigned n = prepare();
        const auto start = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < n; ++i)
            call(i);
        const std::chrono::duration<double, std::nano> took =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, took.count() / n);
    }
    return best;
}

} // namespace latr::bench

#endif // LATR_BENCH_BENCH_UTIL_HH_
