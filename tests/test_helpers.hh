/**
 * @file
 * Shared helpers for the test suite: small machine configurations
 * (full-size presets are slow to construct in the inner loop of
 * property tests) and convenience wrappers.
 */

#ifndef LATR_TESTS_TEST_HELPERS_HH_
#define LATR_TESTS_TEST_HELPERS_HH_

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzzer.hh"
#include "check/script.hh"
#include "machine/machine.hh"
#include "topo/machine_config.hh"

namespace latr::test
{

/** A small 2-socket machine for fast unit/property tests. */
inline MachineConfig
tinyConfig(unsigned sockets = 2, unsigned cores_per_socket = 4)
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    cfg.name = "tiny";
    cfg.sockets = sockets;
    cfg.coresPerSocket = cores_per_socket;
    cfg.framesPerNode = 16 * 1024; // 64 MiB per node
    cfg.llcBytesPerSocket = 1 * 1024 * 1024;
    return cfg;
}

/** Touch every page of [addr, addr+len). @return summed latency. */
inline Duration
touchRange(Kernel &kernel, Task *task, Addr addr, std::uint64_t len,
           bool write = true)
{
    Duration d = 0;
    const std::uint64_t pages = pagesSpanned(addr, len);
    for (std::uint64_t p = 0; p < pages; ++p)
        d += kernel.touch(task, addr + p * kPageSize, write).latency;
    return d;
}

/** Every policy, in PolicyKind order. */
inline const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::LinuxSync, PolicyKind::Latr, PolicyKind::Abis,
        PolicyKind::Barrelfish, PolicyKind::Predictive};
    return kinds;
}

/**
 * Expect @p machine's checker clean in both halves, the reuse
 * invariant and the staleness contract, with pending marks audited
 * now.
 */
inline void
expectNoViolations(Machine &machine)
{
    CoherenceChecker *checker = machine.checker();
    ASSERT_NE(checker, nullptr);
    checker->auditAt(machine.now());
    EXPECT_EQ(checker->violations(), 0u) << checker->firstViolation();
}

/**
 * Dump a failing randomized test's recorded op soup as a replayable
 * script, and — when it also fails under the conformance executor —
 * minimize it first. @return a human-readable line naming the dump
 * and how to replay it, for a gtest failure message.
 *
 * @param header optional extra `#` comment line for the dump (e.g.
 *        noting what the script cannot capture).
 */
inline std::string
dumpFailureRepro(const Script &script, const std::string &stem,
                 const std::string &header = "")
{
    std::string path = ::testing::TempDir() + stem + ".script";
    const std::string reason = checkScript(script, ExecOptions{});
    Script dump = script;
    if (!reason.empty()) {
        const std::string category = failureCategory(reason);
        dump = minimizeScript(
            script,
            [&](const Script &candidate) {
                return failureCategory(checkScript(candidate,
                                                   ExecOptions{})) ==
                       category;
            },
            /*max_evals=*/120);
        path = ::testing::TempDir() + stem + ".min.script";
    }
    std::ofstream out(path);
    if (!header.empty())
        out << "# " << header << "\n";
    out << serializeScript(dump);
    out.close();
    std::string msg = "repro script: " + path +
                      " (replay: latrsim_check --replay=" + path + ")";
    if (!reason.empty())
        msg += "; conformance executor also fails: " + reason;
    return msg;
}

} // namespace latr::test

#endif // LATR_TESTS_TEST_HELPERS_HH_
