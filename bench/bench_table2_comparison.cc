// Table 2: comparison of TLB-shootdown approaches. The four software
// approaches implemented in this repository report their own
// properties; the hardware rows of the paper's table are quoted as
// literature (they require silicon changes by definition).

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"

using namespace latr;

namespace
{

void
printRow(const char *name, const PolicyCapabilities &caps)
{
    auto yn = [](bool b) { return b ? "yes" : "-"; };
    std::printf("%-12s %-6s %-8s %-10s %-12s\n", name,
                yn(caps.asynchronous), yn(caps.nonIpiBased),
                yn(caps.noRemoteCoreInvolvement),
                yn(caps.noHardwareChanges));
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Table 2", "comparison of shootdown approaches",
                  config);
    bench::paperExpectation(
        "only LATR is asynchronous, non-IPI, without remote-core "
        "involvement, and needs no hardware changes");
    bench::rule();

    std::printf("%-12s %-6s %-8s %-10s %-12s\n", "approach", "async",
                "non-IPI", "no-remote", "no-hw-change");
    bench::rule();

    // Hardware proposals (from the paper's table; not implementable
    // in software, so quoted rather than measured).
    std::printf("%-12s %-6s %-8s %-10s %-12s\n", "DiDi", "-", "yes",
                "yes", "-");
    std::printf("%-12s %-6s %-8s %-10s %-12s\n", "UNITD", "-", "yes",
                "yes", "-");
    std::printf("%-12s %-6s %-8s %-10s %-12s\n", "HATRIC", "-", "yes",
                "yes", "-");

    // Software approaches: measured from the implementations.
    for (PolicyKind kind :
         {PolicyKind::Abis, PolicyKind::Barrelfish,
          PolicyKind::LinuxSync, PolicyKind::Latr}) {
        Machine machine(config, kind);
        printRow(machine.policy().name(),
                 machine.policy().capabilities());
    }

    bench::rule();
    Machine latr(config, PolicyKind::Latr);
    const PolicyCapabilities caps = latr.policy().capabilities();
    const bool all = caps.asynchronous && caps.nonIpiBased &&
                     caps.noRemoteCoreInvolvement &&
                     caps.noHardwareChanges;
    bench::measuredHeadline("LATR holds all four properties: %s",
                            all ? "yes" : "NO (bug)");
    return all ? 0 : 1;
}
