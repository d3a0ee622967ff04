#include "workloads.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "check/fuzzer.hh"
#include "check/script.hh"
#include "machine/machine.hh"
#include "os/kernel.hh"
#include "serve/serve.hh"
#include "sim/rng.hh"
#include "workload/lazycache.hh"

namespace latrbench
{

namespace
{

using latr::Kernel;
using latr::Machine;
using latr::MachineConfig;
using latr::PolicyKind;
using Clock = std::chrono::steady_clock;

const char *
policyLabel(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LinuxSync:
        return "linux";
      case PolicyKind::Latr:
        return "latr";
      case PolicyKind::Abis:
        return "abis";
      case PolicyKind::Barrelfish:
        return "barrelfish";
      case PolicyKind::Predictive:
        return "pred";
    }
    return "unknown";
}

double
toUs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

/** SplitMix64 finaliser: decorrelates seed-derived input numbers. */
std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnvString(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** 1 - pred / LATR delivered IPIs over the round; 0 without LATR IPIs. */
double
ipiReduction(const Tally &tally)
{
    const double latrIpis = static_cast<double>(
        tally.policyCount(PolicyKind::Latr, "coh.remote_interrupts"));
    const double predIpis = static_cast<double>(tally.policyCount(
        PolicyKind::Predictive, "coh.remote_interrupts"));
    return latrIpis > 0 ? 1.0 - predIpis / latrIpis : 0.0;
}

void
require(bool ok, const std::string &what,
        std::vector<std::string> *problems)
{
    if (!ok)
        problems->push_back(what);
}

/** Count @p m's reuse-invariant violations as failed ops of @p round. */
void
addViolations(Round &round, Machine &m, const char *label)
{
    const std::uint64_t n = m.checker() ? m.checker()->violations() : 0;
    round.failed += n;
    if (n > 0 && round.firstFailure.empty())
        round.firstFailure = std::string(label) + ": " +
                             m.checker()->firstViolation();
}

/**
 * serve: the open-loop trace from generateServeTrace(), replayed by
 * runServeTrace() under Linux, LATR and Predictive on the 2-socket,
 * 16-core, non-PCID machine. Ops are requests; a request fails when it
 * is neither completed nor dropped by its tenant's churn.
 */
class ServeBench final : public Workload
{
  public:
    explicit ServeBench(std::uint64_t seed) { config_.seed = seed; }

    const char *name() const override { return "serve"; }

    std::string
    params() const override
    {
        char buf[320];
        std::snprintf(
            buf, sizeof buf,
            "\"machine\": \"commodity2S16C\", \"policies\": "
            "[\"linux\", \"latr\", \"pred\"], \"arrival_rate\": %.0f, "
            "\"duration_ms\": %llu, \"workers\": %u, \"tenants\": %u, "
            "\"users\": %llu, \"churn_interval_ms\": %llu",
            config_.arrivalRatePerSec,
            static_cast<unsigned long long>(config_.duration /
                                            latr::kMsec),
            config_.workers, config_.tenants,
            static_cast<unsigned long long>(config_.users),
            static_cast<unsigned long long>(config_.churnInterval /
                                            latr::kMsec));
        return buf;
    }

    Round
    run(std::uint64_t) override
    {
        static const PolicyKind kinds[] = {PolicyKind::LinuxSync,
                                           PolicyKind::Latr,
                                           PolicyKind::Predictive};
        Round round;
        const auto setupStart = Clock::now();
        latr::Latrace trace;
        {
            Span span(probe().span("serve.gen_s"), 1.0);
            trace = latr::generateServeTrace(config_);
        }
        std::vector<std::unique_ptr<Machine>> machines;
        for (PolicyKind kind : kinds)
            machines.push_back(std::make_unique<Machine>(
                MachineConfig::commodity2S16C(), kind));
        round.setupS = secondsSince(setupStart);

        std::vector<latr::ServeResult> results;
        const auto timedStart = Clock::now();
        for (std::size_t i = 0; i < machines.size(); ++i) {
            Span span(probe().span(std::string("serve.replay_s.") +
                                   policyLabel(kinds[i])),
                      1.0);
            results.push_back(latr::runServeTrace(*machines[i], trace));
        }
        round.timedS = secondsSince(timedStart);

        for (std::size_t i = 0; i < machines.size(); ++i) {
            const latr::ServeResult &r = results[i];
            const std::string label = policyLabel(kinds[i]);
            const std::uint64_t unserved =
                r.arrivals - r.completed - r.droppedChurn;
            round.ops += r.arrivals;
            round.failed += unserved;
            addViolations(round, *machines[i], policyLabel(kinds[i]));
            if (unserved > 0 && round.firstFailure.empty())
                round.firstFailure =
                    label + ": " + std::to_string(unserved) +
                    " requests never completed";
            round.digests.emplace_back("serve." + label, r.digest);
            round.values["serve.sim_p50_us." + label] = toUs(r.p50());
            round.values["serve.sim_p99_us." + label] = toUs(r.p99());
            round.values["serve.sim_p999_us." + label] = toUs(r.p999());
            if (kinds[i] == PolicyKind::Latr) {
                round.values["sim_p99_us"] = toUs(r.p99());
                round.values["serve.completed"] =
                    static_cast<double>(r.completed);
                round.values["serve.dropped_churn"] =
                    static_cast<double>(r.droppedChurn);
                round.values["serve.max_queue"] =
                    static_cast<double>(r.maxQueueDepth);
            }
        }
        return round;
    }

    void
    judge(Round &round, const Tally &tally,
          std::vector<std::string> *problems) const override
    {
        round.values["ipi_reduction"] = ipiReduction(tally);
        require(tally.count("tlb.flush_all") > 0,
                "serve: no tlb.flush_all records", problems);
        require(tally.count("sched.ctxswitch") > 0,
                "serve: no sched.ctxswitch records", problems);
        require(round.values["serve.sim_p99_us.latr"] <
                    round.values["serve.sim_p99_us.linux"],
                "serve: LATR p99 is not below Linux p99", problems);
    }

  private:
    latr::ServeConfig config_;
};

/**
 * lazycache: the MADV_FREE page cache under Linux and LATR on the
 * same machine as serve, over a 10 ms warmup and a 100 ms window.
 * Ops are cache reads plus writes.
 */
class LazyCacheBench final : public Workload
{
  public:
    explicit LazyCacheBench(std::uint64_t seed) { config_.seed = seed; }

    const char *name() const override { return "lazycache"; }

    std::string
    params() const override
    {
        char buf[320];
        std::snprintf(
            buf, sizeof buf,
            "\"machine\": \"commodity2S16C\", \"policies\": "
            "[\"linux\", \"latr\"], \"cache_pages\": %llu, "
            "\"hot_fraction\": %g, \"readers\": %u, \"writers\": %u, "
            "\"burst_pages\": %llu, \"warmup_ms\": %llu, "
            "\"window_ms\": %llu",
            static_cast<unsigned long long>(config_.cachePages),
            config_.hotFraction, config_.readers, config_.writers,
            static_cast<unsigned long long>(config_.burstPages),
            static_cast<unsigned long long>(kWarmup / latr::kMsec),
            static_cast<unsigned long long>(kWindow / latr::kMsec));
        return buf;
    }

    Round
    run(std::uint64_t) override
    {
        static const PolicyKind kinds[] = {PolicyKind::LinuxSync,
                                           PolicyKind::Latr};
        Round round;
        const auto setupStart = Clock::now();
        std::vector<std::unique_ptr<Machine>> machines;
        // Declared after the machines so it dies first: the caches'
        // actors are events in their machines' queues.
        std::vector<std::unique_ptr<latr::LazyCacheWorkload>> caches;
        for (PolicyKind kind : kinds) {
            machines.push_back(std::make_unique<Machine>(
                MachineConfig::commodity2S16C(), kind));
            caches.push_back(std::make_unique<latr::LazyCacheWorkload>(
                *machines.back(), config_));
            caches.back()->start();
        }
        round.setupS = secondsSince(setupStart);

        std::vector<latr::LazyCacheResult> results;
        const auto timedStart = Clock::now();
        for (auto &cache : caches)
            results.push_back(cache->measure(kWarmup, kWindow));
        round.timedS = secondsSince(timedStart);

        for (std::size_t i = 0; i < machines.size(); ++i) {
            const latr::LazyCacheResult &r = results[i];
            round.ops += caches[i]->reads() + caches[i]->writes();
            addViolations(round, *machines[i], policyLabel(kinds[i]));
            round.digests.emplace_back(
                std::string("lazycache.") + policyLabel(kinds[i]),
                r.digest);
            if (kinds[i] == PolicyKind::Latr) {
                round.values["hit_ratio"] = r.hitRatio;
                round.values["lazycache.reads"] =
                    static_cast<double>(r.reads);
                round.values["lazycache.refills"] =
                    static_cast<double>(r.refills);
                round.values["lazycache.discarded_pages"] =
                    static_cast<double>(r.discardedPages);
            }
        }
        return round;
    }

    void
    judge(Round &, const Tally &tally,
          std::vector<std::string> *problems) const override
    {
        require(tally.policyCount(PolicyKind::Latr,
                                  "latr.fallback_ipis") > 0,
                "lazycache: LATR ring never overflowed "
                "(latr.fallback_ipis == 0)",
                problems);
    }

  private:
    static constexpr latr::Duration kWarmup = 10 * latr::kMsec;
    static constexpr latr::Duration kWindow = 100 * latr::kMsec;

    latr::LazyCacheConfig config_;
};

/**
 * big_numa: the 8-socket/120-core machine with PCIDs under LATR, ABIS
 * and Predictive, shaped like bench_engine's big_machine. Twenty
 * publishers each own a private region that AutoNUMA samples, plus a
 * scratch mmap/touch/munmap churn; two global processes oversubscribe
 * the other 100 cores, and every eighth iteration a sync munmap from a
 * global task shoots down all of them. The harness makes every Kernel
 * call itself, so each class of call is timed. Ops are those calls.
 */
class BigNumaBench final : public Workload
{
  public:
    explicit BigNumaBench(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "big_numa"; }

    std::string
    params() const override
    {
        char buf[320];
        std::snprintf(
            buf, sizeof buf,
            "\"machine\": \"largeNuma8S120C\", \"pcid\": true, "
            "\"latr_states_per_core\": %u, \"policies\": "
            "[\"latr\", \"abis\", \"pred\"], \"publishers\": %u, "
            "\"iterations\": %u, \"region_pages\": %llu, "
            "\"samples_per_iter\": %u, \"wide_every\": %u",
            kStatesPerCore, kPublishers, kIterations,
            static_cast<unsigned long long>(kRegionPages),
            kSamplesPerIter, kWideEvery);
        return buf;
    }

    Round
    run(std::uint64_t) override
    {
        static const PolicyKind kinds[] = {
            PolicyKind::Latr, PolicyKind::Abis, PolicyKind::Predictive};
        Round round;
        const auto setupStart = Clock::now();
        const Plan plan = makePlan();
        std::vector<Setup> setups;
        for (PolicyKind kind : kinds)
            setups.push_back(build(kind));
        round.setupS = secondsSince(setupStart);

        const auto timedStart = Clock::now();
        for (Setup &s : setups)
            drive(s, plan, &round);
        round.timedS = secondsSince(timedStart);

        for (std::size_t i = 0; i < setups.size(); ++i) {
            Machine &m = *setups[i].machine;
            addViolations(round, m, policyLabel(kinds[i]));
            std::uint64_t h = fnvString(1469598103934665603ULL,
                                        m.stats().dump());
            h = fnvMix(h, m.now());
            h = fnvMix(h, m.queue().executed());
            round.digests.emplace_back(
                std::string("big_numa.") + policyLabel(kinds[i]), h);
        }
        return round;
    }

    void
    judge(Round &round, const Tally &tally,
          std::vector<std::string> *problems) const override
    {
        round.values["ipi_reduction"] = ipiReduction(tally);
        require(tally.policyCount(PolicyKind::Latr, "latr.sweeps") > 0,
                "big_numa: LATR never swept (latr.sweeps == 0)",
                problems);
        require(round.values["ipi_reduction"] > 0,
                "big_numa: Predictive saved no IPIs vs LATR "
                "(ipi_reduction <= 0)",
                problems);
    }

  private:
    static constexpr unsigned kPublishers = 20;
    static constexpr unsigned kIterations = 400;
    static constexpr std::uint64_t kRegionPages = 64;
    static constexpr unsigned kSamplesPerIter = 36;
    static constexpr unsigned kWideEvery = 8;
    static constexpr unsigned kStatesPerCore = 256;
    /** Cores 20..119, each running one task of each global process. */
    static constexpr unsigned kGlobalCores = 100;

    /** The seeded op loop, shared by every policy's machine. */
    struct Plan
    {
        /** Per (iteration, publisher): first sampled region page. */
        std::vector<std::uint8_t> sampleStart;
        /** Per (iteration, publisher): scratch pages, 1..3. */
        std::vector<std::uint8_t> scratchPages;
        /** Per wide iteration: the global task that unmaps. */
        std::vector<std::uint32_t> wideTask;
    };

    struct Setup
    {
        std::unique_ptr<Machine> machine;
        std::vector<latr::Task *> pubs;
        std::vector<latr::Addr> region;
        std::vector<latr::Task *> globalTasks;
    };

    Plan
    makePlan() const
    {
        latr::Rng rng(seed_);
        Plan plan;
        for (unsigned i = 0; i < kIterations * kPublishers; ++i) {
            plan.sampleStart.push_back(
                static_cast<std::uint8_t>(rng.nextBounded(kRegionPages)));
            plan.scratchPages.push_back(
                static_cast<std::uint8_t>(rng.nextRange(1, 3)));
        }
        for (unsigned i = 0; i < kIterations; i += kWideEvery)
            plan.wideTask.push_back(static_cast<std::uint32_t>(
                rng.nextBounded(kGlobalCores)));
        return plan;
    }

    static Setup
    build(PolicyKind kind)
    {
        MachineConfig config = MachineConfig::largeNuma8S120C();
        // Tagged TLBs keep the oversubscribed cores' residency across
        // context switches, so the global mm's mask stays wide.
        config.pcidEnabled = true;
        // Ring headroom: the scenario measures sweeps, not the
        // ring-full fallback (lazycache covers that).
        config.latrStatesPerCore = kStatesPerCore;
        Setup s;
        s.machine = std::make_unique<Machine>(config, kind);
        Kernel &kernel = s.machine->kernel();
        const unsigned cores = s.machine->topo().totalCores();
        for (unsigned p = 0; p < kPublishers; ++p) {
            latr::Process *proc =
                kernel.createProcess("p" + std::to_string(p));
            s.pubs.push_back(kernel.spawnTask(proc, p));
            latr::SyscallResult m =
                kernel.mmap(s.pubs[p], kRegionPages * latr::kPageSize,
                            latr::kProtRead | latr::kProtWrite);
            if (!m.ok)
                throw std::runtime_error("big_numa: region mmap failed");
            s.region.push_back(m.addr);
            for (std::uint64_t pg = 0; pg < kRegionPages; ++pg)
                if (kernel.touch(s.pubs[p], m.addr + pg * latr::kPageSize,
                                 true)
                        .faulted())
                    throw std::runtime_error(
                        "big_numa: region prefill faulted");
        }
        for (unsigned g = 0; g < 2; ++g) {
            latr::Process *global =
                kernel.createProcess("g" + std::to_string(g));
            for (latr::CoreId c = kPublishers; c < cores; ++c) {
                latr::Task *t = kernel.spawnTask(global, c);
                if (g == 0)
                    s.globalTasks.push_back(t);
            }
        }
        return s;
    }

    /** The timed op loop on one machine. */
    static void
    drive(Setup &s, const Plan &plan, Round *round)
    {
        Machine &machine = *s.machine;
        Kernel &kernel = machine.kernel();
        latr::Distribution *sampleNs = probe().span("numa.sample_ns");
        latr::Distribution *mmapNs = probe().span("os.mmap_ns");
        latr::Distribution *touchNs = probe().span("os.touch_ns");
        latr::Distribution *munmapNs = probe().span("os.munmap_ns");
        latr::Distribution *runS = probe().span("sim.run_s");
        const std::uint8_t rw = latr::kProtRead | latr::kProtWrite;

        auto fail = [&](const char *what) {
            ++round->failed;
            if (round->firstFailure.empty())
                round->firstFailure = std::string("big_numa: ") + what;
        };
        auto mapTouchUnmap = [&](latr::Task *t, std::uint64_t pages,
                                 std::span<latr::Task *const> touchers,
                                 bool sync) {
            latr::SyscallResult m;
            {
                Span span(mmapNs, 1e9);
                m = kernel.mmap(t, pages * latr::kPageSize, rw);
            }
            ++round->ops;
            if (!m.ok) {
                fail("mmap failed");
                return;
            }
            for (latr::Task *toucher : touchers) {
                bool faulted;
                {
                    Span span(touchNs, 1e9);
                    faulted = kernel.touch(toucher, m.addr, true).faulted();
                }
                ++round->ops;
                if (faulted)
                    fail("touch faulted");
            }
            bool unmapped;
            {
                Span span(munmapNs, 1e9);
                unmapped = kernel.munmap(t, m.addr,
                                         pages * latr::kPageSize, sync)
                               .ok;
            }
            ++round->ops;
            if (!unmapped)
                fail("munmap failed");
        };
        auto runFor = [&](latr::Duration d) {
            Span span(runS, 1.0);
            machine.run(d);
        };

        // Every eighth global task touches the wide mapping; the sync
        // munmap then IPIs every core the global mm is resident on.
        std::vector<latr::Task *> wideTouchers;
        for (std::size_t i = 0; i < s.globalTasks.size(); i += 8)
            wideTouchers.push_back(s.globalTasks[i]);

        runFor(2 * machine.config().cost.tickInterval);
        for (unsigned iter = 0; iter < kIterations; ++iter) {
            for (unsigned p = 0; p < kPublishers; ++p) {
                const std::size_t at = iter * kPublishers + p;
                const latr::Vpn base = s.region[p] / latr::kPageSize;
                for (unsigned k = 0; k < kSamplesPerIter; ++k) {
                    Span span(sampleNs, 1e9);
                    kernel.numaSample(
                        s.pubs[p],
                        base + (plan.sampleStart[at] + k) % kRegionPages);
                }
                round->ops += kSamplesPerIter;
                mapTouchUnmap(s.pubs[p], plan.scratchPages[at],
                              {&s.pubs[p], 1}, false);
            }
            if (iter % kWideEvery == 0) {
                latr::Task *t =
                    s.globalTasks[plan.wideTask[iter / kWideEvery] %
                                  s.globalTasks.size()];
                mapTouchUnmap(t, 4, wideTouchers, true);
            }
            runFor(200 * latr::kUsec);
        }
        runFor(6 * latr::kMsec);
    }

    std::uint64_t seed_;
};

/** Scripts in the fuzz pool; pool script i is poolScript(i). */
constexpr unsigned kPoolSize = 4096;

/**
 * Pool scripts whose clean check finds the policies disagreeing on
 * the final state (differential verdicts: model bugs in the library,
 * reproducible with verifyFuzzPool()). The fuzz workload never draws
 * them, so it fails only on a regression.
 */
constexpr unsigned kDivergentPool[] = {384, 3067};

/** Every eighth pool script runs on the 120-core machine. */
constexpr unsigned kLargeEvery = 8;

/** Pool script @p i; PCIDs follow its generator seed's parity. */
latr::Script
poolScript(unsigned i)
{
    const std::uint64_t seed = splitmix(i);
    latr::GenOptions gen;
    gen.large = i % kLargeEvery == kLargeEvery - 1;
    gen.pcid = (seed & 1) != 0;
    return latr::generateScript(seed, gen);
}

/**
 * fuzz: a differential campaign, generateScript() then checkScript()
 * under all five policies with both oracles. The seed draws eight
 * batches of sixteen pool scripts, two of them on the 120-core
 * machine and the rest on the 2x4 one; rounds cycle through the
 * batches, generating one (set-up) and checking it (timed). Machine
 * construction is inside the timed part, as users pay it on every
 * script. Ops are scripts; a non-clean script fails.
 */
class FuzzBench final : public Workload
{
  public:
    FuzzBench(std::uint64_t seed, bool inject_skip_latr_sweep)
    {
        exec_.injectSkipLatrSweep = inject_skip_latr_sweep;
        std::vector<unsigned> small, large;
        for (unsigned i = 0; i < kPoolSize; ++i)
            if (std::find(std::begin(kDivergentPool),
                          std::end(kDivergentPool),
                          i) == std::end(kDivergentPool))
                (i % kLargeEvery == kLargeEvery - 1 ? large : small)
                    .push_back(i);
        // Draw without replacement, keeping each batch's large share.
        latr::Rng rng(seed);
        auto draw = [&rng](std::vector<unsigned> &from) {
            std::swap(from.back(), from[rng.nextBounded(from.size())]);
            const unsigned i = from.back();
            from.pop_back();
            return i;
        };
        for (auto &batch : batches_)
            for (unsigned j = 0; j < kBatch; ++j)
                batch[j] = draw(j % kLargeEvery == kLargeEvery - 1 ? large
                                                                   : small);
    }

    const char *name() const override { return "fuzz"; }

    std::uint64_t inputs() const override { return kBatches; }

    std::string
    params() const override
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "\"pool_scripts\": %u, \"batches\": %u, "
                      "\"scripts_per_batch\": %u, \"large_every\": %u, "
                      "\"ops_per_script\": %u, \"policies\": 5, "
                      "\"inject_skip_latr_sweep\": %s",
                      kPoolSize, kBatches, kBatch, kLargeEvery,
                      latr::GenOptions{}.numOps,
                      exec_.injectSkipLatrSweep ? "true" : "false");
        return buf;
    }

    Round
    run(std::uint64_t input) override
    {
        Round round;
        const auto setupStart = Clock::now();
        std::vector<latr::Script> scripts;
        latr::Distribution *genMs = probe().span("check.gen_ms");
        for (unsigned i : batches_.at(input)) {
            Span span(genMs, 1e3);
            scripts.push_back(poolScript(i));
        }
        round.setupS = secondsSince(setupStart);

        latr::Distribution *scriptMs = probe().span("check.script_ms");
        const auto timedStart = Clock::now();
        for (const latr::Script &script : scripts) {
            std::string reason;
            {
                Span span(scriptMs, 1e3);
                reason = latr::checkScript(script, exec_);
            }
            ++round.ops;
            if (!reason.empty()) {
                ++round.failed;
                if (round.firstFailure.empty())
                    round.firstFailure =
                        "fuzz: script seed " +
                        std::to_string(script.seed) + ": " + reason;
            }
        }
        round.timedS = secondsSince(timedStart);
        return round;
    }

    void
    judge(Round &round, const Tally &tally,
          std::vector<std::string> *problems) const override
    {
        round.values["check.violations"] =
            static_cast<double>(tally.violations);
        const double expected = 5.0 * static_cast<double>(round.ops);
        require(round.values["machine.builds"] == expected,
                "fuzz: machines built != 5 x scripts", problems);
    }

  private:
    static constexpr unsigned kBatches = 8;
    static constexpr unsigned kBatch = 16;

    std::array<std::array<unsigned, kBatch>, kBatches> batches_{};
    latr::ExecOptions exec_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"serve", "lazycache",
                                                   "big_numa", "fuzz"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             bool inject_skip_latr_sweep)
{
    if (name == "serve")
        return std::make_unique<ServeBench>(seed);
    if (name == "lazycache")
        return std::make_unique<LazyCacheBench>(seed);
    if (name == "big_numa")
        return std::make_unique<BigNumaBench>(seed);
    if (name == "fuzz")
        return std::make_unique<FuzzBench>(seed, inject_skip_latr_sweep);
    return nullptr;
}

int
verifyFuzzPool()
{
    std::vector<unsigned> divergent;
    for (unsigned i = 0; i < kPoolSize; ++i) {
        const std::string reason = latr::checkScript(poolScript(i), {});
        if (reason.empty())
            continue;
        std::printf("pool script %u: %s\n", i, reason.c_str());
        divergent.push_back(i);
    }
    const bool listed =
        std::equal(divergent.begin(), divergent.end(),
                   std::begin(kDivergentPool), std::end(kDivergentPool));
    std::printf("%zu of %u pool scripts diverge; %s\n", divergent.size(),
                kPoolSize,
                listed ? "exactly the listed ones"
                       : "the list in workloads.cc is out of date");
    return listed ? 0 : 1;
}

} // namespace latrbench
