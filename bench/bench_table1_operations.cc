// Table 1: which virtual-address operations admit a lazy TLB
// shootdown. The classification is a property of the operation (can
// the PTE change be deferred without system-wide agreement?) and is
// what LatrPolicy implements: free and migration operations go lazy,
// permission/ownership/remap changes stay synchronous.

#include <cstdio>
#include <string>

#include "bench_runner.hh"
#include "bench_util.hh"
#include "machine/machine.hh"

using namespace latr;

namespace
{

struct OperationRow
{
    const char *classification;
    const char *operation;
    const char *description;
    bool lazyPossible;
};

const OperationRow kRows[] = {
    {"Free", "munmap()", "unmap address range", true},
    {"Free", "madvise()", "free memory range", true},
    {"Migration", "AutoNUMA", "NUMA page migration sampling", true},
    {"Migration", "Page swap", "swap page to disk", true},
    {"Migration", "Deduplication", "share similar pages", true},
    {"Migration", "Compaction", "physical page defrag", true},
    {"Permission", "mprotect()", "change page permission", false},
    {"Ownership", "CoW", "copy on write", false},
    {"Remap", "mremap()", "change physical address", false},
};

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string json_path;
    Args args;
    args.number("--jobs", &jobs, 0, 1024).text("--json", &json_path);
    args.parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Table 1",
                  "virtual-address operations and lazy feasibility",
                  config);
    bench::paperExpectation(
        "free + migration operations can be lazy; permission, "
        "ownership, and remap cannot");
    bench::rule();

    // One probe machine; routed through the runner so this binary
    // accepts the same --jobs flag as the sweep benches (and stays
    // byte-identical at any job count).
    bench::ParallelRunner<PolicyCapabilities> runner(jobs);
    runner.submit([&config] {
        Machine machine(config, PolicyKind::Latr);
        return machine.policy().capabilities();
    });
    const PolicyCapabilities caps = runner.run().front();

    bench::JsonWriter json(
        "Table 1", "virtual-address operations and lazy feasibility");
    json.config("jobs", std::uint64_t{runner.jobs()});
    std::printf("%-12s %-16s %-34s %s\n", "class", "operation",
                "description", "lazy?");
    bench::rule();
    bool consistent = true;
    for (const OperationRow &row : kRows) {
        std::printf("%-12s %-16s %-34s %s\n", row.classification,
                    row.operation, row.description,
                    row.lazyPossible ? "yes" : "no");
        json.row()
            .str("class", row.classification)
            .str("operation", row.operation)
            .str("lazy", row.lazyPossible ? "yes" : "no");
        // Cross-check the implementation's own claims.
        const bool is_free =
            std::string(row.classification) == "Free";
        const bool is_migration =
            std::string(row.classification) == "Migration";
        if (is_free && row.lazyPossible != caps.lazyFreeCapable)
            consistent = false;
        if (is_migration &&
            row.lazyPossible != caps.lazyMigrationCapable)
            consistent = false;
    }
    bench::rule();
    bench::measuredHeadline(
        "LatrPolicy capabilities agree with the table: %s",
        consistent ? "yes" : "NO (bug)");
    json.headline("LatrPolicy capabilities agree with the table: %s",
                  consistent ? "yes" : "NO (bug)");
    json.write(json_path);
    return consistent ? 0 : 1;
}
