#include "machine/machine.hh"

namespace latr
{

Machine::Machine(MachineConfig config, PolicyKind policy_kind,
                 bool check_invariants)
    : config_(std::move(config)),
      topo_(config_.sockets, config_.coresPerSocket),
      frames_(config_.sockets, config_.framesPerNode),
      ipi_(queue_, topo_, config_.cost),
      sched_(queue_, topo_, config_),
      kernel_(queue_, topo_, config_, frames_, sched_, stats_)
{
    trace_.attachClock(&queue_);
    kernel_.setTracer(&trace_);
    sched_.setTracer(&trace_);
    ipi_.setTracer(&trace_);

    llcs_.reserve(config_.sockets);
    for (unsigned s = 0; s < config_.sockets; ++s) {
        llcs_.push_back(std::make_unique<LlcCache>(
            config_.llcBytesPerSocket, config_.llcWays,
            config_.llcLineBytes));
    }

    if (check_invariants) {
        checker_ = std::make_unique<CoherenceChecker>(queue_);
        frames_.addListener(checker_.get());
        for (CoreId c = 0; c < topo_.totalCores(); ++c)
            checker_->attach(c, sched_.tlbOf(c));
        kernel_.setChecker(checker_.get());
    }

    PolicyEnv env;
    env.queue = &queue_;
    env.topo = &topo_;
    env.config = &config_;
    env.frames = &frames_;
    env.ipi = &ipi_;
    env.cores = &sched_;
    env.stats = &stats_;
    env.trace = &trace_;
    for (auto &llc : llcs_)
        env.llcs.push_back(llc.get());
    policy_ = makePolicy(policy_kind, std::move(env));
    kernel_.setPolicy(policy_.get());
}

Machine::~Machine()
{
    // Stop ticks so pending recurring events do not fire into a
    // half-destroyed machine while the queue unwinds.
    sched_.stop();
}

void
Machine::run(Duration sim_time)
{
    sched_.start();
    queue_.run(queue_.now() + sim_time);
}

void
Machine::drain(Tick limit)
{
    sched_.stop();
    queue_.run(limit);
}

} // namespace latr
