// Table 5: breakdown of LATR's operations vs. a Linux shootdown when
// running the Apache workload on 12 cores. Two views are reported:
//
//  (a) stdout: the *simulated* costs, measured inside the simulation
//      exactly as the paper measures its kernel (state save, state
//      sweep, and the per-munmap shootdown under each policy);
//  (b) --json=FILE: *host-measured* nanoseconds of the same three
//      paths through this library's real data structures, min of N
//      batches, with host_cpus — the reproduction's own table-5
//      analogue. Host time differs from run to run, so it stays out
//      of stdout, which is byte-identical.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/webserver.hh"

using namespace latr;

namespace
{

/** Timed batches per host row; the row keeps the fastest. */
constexpr unsigned kRounds = 200;

/** Simulated per-operation costs under the Apache workload. */
void
printSimulatedBreakdown()
{
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Table 5",
                  "breakdown of shootdown operations (Apache, 12 cores)",
                  config);
    bench::paperExpectation(
        "saving a LATR state 132.3 ns; one state sweep 158.0 ns; a "
        "single Linux shootdown 1594.2 ns (-81.8%)");
    bench::rule();

    auto shootdown_mean = [&](PolicyKind kind) {
        Machine machine(config, kind);
        WebServerConfig cfg;
        cfg.workers = 12;
        cfg.processes = 3;
        WebServerWorkload server(machine, cfg);
        server.measure(40 * kMsec, 150 * kMsec);
        return machine.stats()
            .distribution("munmap.shootdown_ns")
            .mean();
    };

    const CostModel &cost = config.cost;
    const double save_ns = static_cast<double>(cost.latrStateSave);
    const double sweep_ns = static_cast<double>(
        cost.latrSweepFixed + cost.latrSweepPerMatch);

    const double latr_sd = shootdown_mean(PolicyKind::Latr);
    const double linux_sd = shootdown_mean(PolicyKind::LinuxSync);

    std::printf("%-44s %10s\n", "operation (simulated)", "time");
    bench::rule();
    std::printf("%-44s %8.1f ns\n", "saving a LATR state", save_ns);
    std::printf("%-44s %8.1f ns\n",
                "performing single state sweep with LATR", sweep_ns);
    std::printf("%-44s %8.1f ns\n",
                "per-munmap coherence cost with LATR (Apache)",
                latr_sd);
    std::printf("%-44s %8.1f ns\n",
                "single TLB shootdown in Linux (Apache)", linux_sd);
    bench::rule();
    bench::measuredHeadline(
        "LATR reduces the per-shootdown critical-path cost by %.1f%%",
        100.0 * (linux_sd - latr_sd) / linux_sd);
}

/** One process with a task on each of @p machine's first @p n cores. */
std::vector<Task *>
spawnTasks(Machine &machine, unsigned n)
{
    Process *p = machine.kernel().createProcess("bench");
    std::vector<Task *> tasks;
    for (unsigned c = 0; c < n; ++c)
        tasks.push_back(
            machine.kernel().spawnTask(p, static_cast<CoreId>(c)));
    return tasks;
}

/** A fresh page, touched (made resident) on every core of @p tasks. */
Addr
residentPage(Kernel &kernel, const std::vector<Task *> &tasks)
{
    const Addr a =
        kernel.mmap(tasks[0], kPageSize, kProtRead | kProtWrite).addr;
    for (Task *t : tasks)
        kernel.touch(t, a, true);
    return a;
}

/**
 * Exit 1 unless @p counter rose by exactly @p want since it read
 * @p before: a timed loop that took another path than the one its row
 * names must not report a number.
 */
void
expectRise(Machine &machine, const char *counter, std::uint64_t before,
           std::uint64_t want)
{
    const std::uint64_t got =
        machine.stats().counterValue(counter) - before;
    if (got == want)
        return;
    std::fprintf(stderr,
                 "bench_table5_breakdown: %s rose by %llu over the "
                 "timed calls, expected %llu\n",
                 counter, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    std::exit(1);
}

/**
 * One madvise of a page resident on two cores: a LATR state save.
 * Each batch stays below the state ring and starts after the last
 * batch's states were reclaimed, so no call takes the ring-full IPI
 * fallback.
 */
double
hostStateSave()
{
    Machine machine(MachineConfig::commodity2S16C(), PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    const std::vector<Task *> tasks = spawnTasks(machine, 2);
    const unsigned batch = machine.config().latrStatesPerCore * 3 / 4;
    const Addr base =
        kernel.mmap(tasks[0], batch * kPageSize, kProtRead | kProtWrite)
            .addr;
    StatRegistry &stats = machine.stats();
    const std::uint64_t saved = stats.counterValue("latr.states_saved");
    const std::uint64_t ipis = stats.counterValue("latr.fallback_ipis");
    const double ns = bench::minNsPerCall(
        kRounds,
        [&] {
            machine.run(8 * kMsec); // reclaim the last batch
            for (unsigned i = 0; i < batch; ++i)
                for (Task *t : tasks)
                    kernel.touch(t, base + i * kPageSize, true);
            return batch;
        },
        [&](unsigned i) {
            kernel.madvise(tasks[0], base + i * kPageSize, kPageSize);
        });
    expectRise(machine, "latr.states_saved", saved, kRounds * batch);
    expectRise(machine, "latr.fallback_ipis", ipis, 0);
    return ns;
}

/**
 * One state sweep that matches kStates states. Each batch publishes
 * kStates fresh states addressed to every core but the initiator, then
 * sweeps each remote core once, so every timed sweep matches all of
 * them and none takes the elided no-match path.
 */
double
hostSweep()
{
    constexpr unsigned kStates = 8;
    Machine machine(MachineConfig::commodity2S16C(), PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    const unsigned cores = machine.topo().totalCores();
    const std::vector<Task *> tasks = spawnTasks(machine, cores);
    const std::uint64_t matches =
        machine.stats().counterValue("latr.sweep_matches");
    const double ns = bench::minNsPerCall(
        kRounds,
        [&] {
            machine.run(8 * kMsec); // reclaim the last batch
            for (unsigned s = 0; s < kStates; ++s)
                kernel.munmap(tasks[0], residentPage(kernel, tasks),
                              kPageSize);
            return cores - 1;
        },
        [&](unsigned i) {
            machine.policy().onSchedulerTick(static_cast<CoreId>(i + 1),
                                             machine.now());
        });
    expectRise(machine, "latr.sweep_matches", matches,
               std::uint64_t{kRounds} * (cores - 1) * kStates);
    return ns;
}

/**
 * One Linux munmap of a page resident on two cores: the synchronous
 * IPI shootdown end to end. Each batch maps and touches its pages
 * first, untimed.
 */
double
hostLinuxShootdown()
{
    constexpr unsigned kBatch = 16;
    Machine machine(MachineConfig::commodity2S16C(),
                    PolicyKind::LinuxSync);
    Kernel &kernel = machine.kernel();
    const std::vector<Task *> tasks = spawnTasks(machine, 2);
    std::vector<Addr> pages(kBatch);
    const std::uint64_t shootdowns =
        machine.stats().counterValue("coh.ipi_shootdowns");
    const double ns = bench::minNsPerCall(
        kRounds,
        [&] {
            machine.run(20 * kUsec); // let the last batch's ACKs land
            for (Addr &a : pages)
                a = residentPage(kernel, tasks);
            return kBatch;
        },
        [&](unsigned i) { kernel.munmap(tasks[0], pages[i], kPageSize); });
    expectRise(machine, "coh.ipi_shootdowns", shootdowns,
               kRounds * kBatch);
    return ns;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    Args args;
    args.text("--json", &json_path);
    args.parse(argc, argv);

    printSimulatedBreakdown();
    const struct
    {
        const char *operation;
        double paperNs;
        double hostNs;
    } rows[] = {{"latr_state_save", 132.3, hostStateSave()},
                {"latr_state_sweep", 158.0, hostSweep()},
                {"linux_shootdown", 1594.2, hostLinuxShootdown()}};

    bench::JsonWriter json("Table 5", "breakdown of shootdown "
                                      "operations, host-measured ns");
    json.config("host_cpus",
                std::uint64_t{std::thread::hardware_concurrency()})
        .config("rounds", std::uint64_t{kRounds});
    for (const auto &row : rows)
        json.row()
            .str("operation", row.operation)
            .num("paper_ns", row.paperNs)
            .num("host_ns", row.hostNs);
    json.headline("host: state save %.1f ns, 8-match sweep %.1f ns, "
                  "Linux munmap %.1f ns (min of %u batches)",
                  rows[0].hostNs, rows[1].hostNs, rows[2].hostNs,
                  kRounds);
    json.write(json_path);
    return 0;
}
