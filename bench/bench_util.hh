/**
 * @file
 * Shared output helpers for the figure/table benches: each bench
 * prints the machine it simulates, the paper's reported anchor
 * numbers, and the measured rows, in a fixed-width layout that is
 * easy to diff across runs.
 */

#ifndef LATR_BENCH_BENCH_UTIL_HH_
#define LATR_BENCH_BENCH_UTIL_HH_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hh"
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
 *     "config": {"jobs": 4, "no_fastpath": 0, ...},
 *     "rows": [ {"cores": 16, "linux_us": 7.9, ...}, ... ]
 *   }
 *
 * The config object records the host-side knobs the bench ran with
 * (parallel jobs, fast-path switches, host CPUs) so a
 * BENCH_*.json is self-describing: two files can only be compared
 * when their configs match. Every document also records the git
 * commit it was built from and the baseline file it was gated
 * against (see baselineFile()) — the two provenance fields that
 * turn a stray BENCH_*.json back into a reproducible data point.
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

    /** Write the document; no-op when @p path is empty. */
    bool
    write(const std::string &path) const
    {
        if (path.empty())
            return true;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "json: cannot write '%s'\n",
                         path.c_str());
            return false;
        }
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
        std::fclose(f);
        return true;
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

/** `--json=FILE` from the bench's argv ("" when absent). */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return argv[i] + 7;
    return "";
}

/**
 * Exit 2 with a one-line message if any argument is not in
 * @p accepted. An entry ending in '=' takes a value and matches by
 * prefix; any other entry is a switch and matches exactly. Benches
 * with a closed argument list call this before simulating, so a
 * stale or misspelt flag fails instead of running the defaults.
 */
inline void
rejectUnknownArgs(const char *bench, int argc, char **argv,
                  std::initializer_list<const char *> accepted)
{
    for (int i = 1; i < argc; ++i) {
        bool known = false;
        for (const char *a : accepted) {
            const std::size_t n = std::strlen(a);
            known = a[n - 1] == '=' ? std::strncmp(argv[i], a, n) == 0
                                    : std::strcmp(argv[i], a) == 0;
            if (known)
                break;
        }
        if (known)
            continue;
        std::string list;
        for (const char *a : accepted)
            list += std::string(" ") + a;
        std::fprintf(stderr, "%s: unknown argument '%s' (accepted:%s)\n",
                     bench, argv[i], list.c_str());
        std::exit(2);
    }
}


/**
 * Tracing knobs shared by the benches: parsed from the bench's argv
 * (`--trace=FILE`, `--trace-text=FILE`, `--trace-capacity=N`).
 * Benches run many machines; each picks one representative point to
 * arm with applyTrace()/finishTrace().
 */
struct TraceOptions
{
    std::string jsonPath;
    std::string textPath;
    std::size_t capacity = 0; // 0 = recorder default

    bool wanted() const
    {
        return !jsonPath.empty() || !textPath.empty();
    }
};

inline TraceOptions
traceOptionsFromArgs(int argc, char **argv)
{
    TraceOptions opts;
    auto value = [](const char *arg,
                    const char *key) -> const char * {
        const std::size_t n = std::strlen(key);
        if (std::strncmp(arg, key, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (const char *v = value(argv[i], "--trace"))
            opts.jsonPath = v;
        else if (const char *v = value(argv[i], "--trace-text"))
            opts.textPath = v;
        else if (const char *v = value(argv[i], "--trace-capacity"))
            opts.capacity =
                static_cast<std::size_t>(std::atoll(v));
    }
    return opts;
}

/** Arm @p machine's recorder per @p opts (no-op when not wanted). */
inline void
applyTrace(Machine &machine, const TraceOptions &opts)
{
    if (!opts.wanted())
        return;
    if (opts.capacity != 0)
        machine.trace().setCapacity(opts.capacity);
    machine.trace().setEnabled(true);
}

/** Write the armed machine's trace to the requested files. */
inline void
finishTrace(Machine &machine, const TraceOptions &opts)
{
    if (!opts.jsonPath.empty()) {
        if (writeChromeTraceFile(machine.trace(), &machine.topo(),
                                 opts.jsonPath))
            std::fprintf(stderr, "trace: %llu records -> %s\n",
                         static_cast<unsigned long long>(
                             machine.trace().size()),
                         opts.jsonPath.c_str());
        else
            std::fprintf(stderr, "trace: cannot write '%s'\n",
                         opts.jsonPath.c_str());
    }
    if (!opts.textPath.empty()) {
        TextDumpOptions text;
        std::FILE *f = opts.textPath == "-"
                           ? stdout
                           : std::fopen(opts.textPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "trace: cannot write '%s'\n",
                         opts.textPath.c_str());
            return;
        }
        writeTextTimeline(machine.trace(), text, f);
        if (f != stdout)
            std::fclose(f);
    }
}

} // namespace latr::bench

#endif // LATR_BENCH_BENCH_UTIL_HH_
