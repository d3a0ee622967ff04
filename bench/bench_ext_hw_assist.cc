// Extension experiment: the hardware assists the paper's section 7
// proposes for LATR —
//   (a) Intel CAT: allocate the LATR states in reserved LLC ways so
//       sweeps never displace application lines;
//   (b) a globally coherent scratchpad: states bypass the LLC
//       entirely and state save/sweep get cheaper.
// Both are modeled and compared against stock LATR on the Apache
// workload (throughput and application LLC miss ratio).

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/webserver.hh"

using namespace latr;

namespace
{

enum class Assist
{
    None,
    Cat,
    Scratchpad,
};

WebServerResult
runCase(Assist assist)
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    if (assist == Assist::Scratchpad) {
        // States live in the scratchpad: cheaper to write and sweep,
        // and invisible to the LLC.
        cfg.latrScratchpad = true;
        cfg.cost.latrStateSave = 60;
        cfg.cost.latrSweepFixed = 45;
        cfg.cost.latrSweepPerMatch = 12;
    }
    Machine machine(cfg, PolicyKind::Latr);
    if (assist == Assist::Cat) {
        for (NodeId n = 0; n < cfg.sockets; ++n)
            machine.llcOf(n).setLatrReservedWays(1);
    }
    WebServerConfig ws;
    ws.workers = 12;
    ws.processes = 1;
    WebServerWorkload server(machine, ws);
    return server.measure(60 * kMsec, 250 * kMsec);
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Extension: hardware assists for LATR",
                  "CAT-partitioned states and scratchpad states",
                  config);
    bench::paperExpectation(
        "section 7: CAT keeps the states out of the application's "
        "LLC share; a coherent scratchpad also removes state-access "
        "time from saves and sweeps");
    bench::rule();

    std::printf("%-14s | %12s | %14s\n", "variant", "req/s",
                "llc app miss");
    bench::rule();
    WebServerResult none = runCase(Assist::None);
    WebServerResult cat = runCase(Assist::Cat);
    WebServerResult pad = runCase(Assist::Scratchpad);
    std::printf("%-14s | %12.0f | %13.3f%%\n", "LATR", none.requestsPerSec,
                100.0 * none.llcAppMissRatio);
    std::printf("%-14s | %12.0f | %13.3f%%\n", "LATR+CAT",
                cat.requestsPerSec, 100.0 * cat.llcAppMissRatio);
    std::printf("%-14s | %12.0f | %13.3f%%\n", "LATR+scratch",
                pad.requestsPerSec, 100.0 * pad.llcAppMissRatio);
    bench::rule();
    bench::measuredHeadline(
        "assists change throughput by %+.2f%% (CAT) / %+.2f%% "
        "(scratchpad) — LATR's software-only footprint was already "
        "small, as table 4 argued",
        100.0 * (cat.requestsPerSec - none.requestsPerSec) /
            none.requestsPerSec,
        100.0 * (pad.requestsPerSec - none.requestsPerSec) /
            none.requestsPerSec);
    return 0;
}
