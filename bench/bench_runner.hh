/**
 * @file
 * Parallel driver for the figure/table benches. Every bench point is
 * an independent (policy, config, seed) machine simulation, so the
 * sweep is embarrassingly parallel: submit each point as a job, run
 * the jobs across a std::thread pool, and read the results back in
 * submission order. Printing happens only after collection, on the
 * submitting thread, so the output is byte-identical whatever the
 * job count — `--jobs=1` is plain sequential execution.
 *
 * Machines share no mutable state (the only process-wide globals are
 * the log level, which runs read-only, and stdio, which jobs must not
 * touch), so jobs need no locking.
 */

#ifndef LATR_BENCH_BENCH_RUNNER_HH_
#define LATR_BENCH_BENCH_RUNNER_HH_

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

namespace latr::bench
{

/**
 * Collects closures returning R and runs them across a thread pool.
 * Results land in submission order regardless of completion order.
 */
template <typename R>
class ParallelRunner
{
  public:
    /**
     * @param jobs worker count (`--jobs=N`); 1 runs inline on the
     *        caller, 0 means one per hardware thread.
     */
    explicit ParallelRunner(unsigned jobs)
        : jobs_(jobs ? jobs
                     : std::max(1u, std::thread::hardware_concurrency()))
    {
    }

    /** The resolved worker count. */
    unsigned jobs() const { return jobs_; }

    /** Queue a job. @return its index into run()'s result vector. */
    std::size_t
    submit(std::function<R()> job)
    {
        pending_.push_back(std::move(job));
        return pending_.size() - 1;
    }

    /**
     * Run every submitted job and return their results in submission
     * order. Clears the pending list, so a runner can be reused for
     * a second wave.
     */
    std::vector<R>
    run()
    {
        std::vector<R> results(pending_.size());
        if (jobs_ == 1) {
            for (std::size_t i = 0; i < pending_.size(); ++i)
                results[i] = pending_[i]();
        } else {
            std::atomic<std::size_t> next{0};
            auto worker = [&]() {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= pending_.size())
                        return;
                    results[i] = pending_[i]();
                }
            };
            const unsigned n =
                static_cast<unsigned>(std::min<std::size_t>(
                    jobs_, pending_.size() ? pending_.size() : 1));
            std::vector<std::thread> pool;
            pool.reserve(n);
            for (unsigned t = 0; t < n; ++t)
                pool.emplace_back(worker);
            for (std::thread &t : pool)
                t.join();
        }
        pending_.clear();
        return results;
    }

  private:
    unsigned jobs_;
    std::vector<std::function<R()>> pending_;
};

} // namespace latr::bench

#endif // LATR_BENCH_BENCH_RUNNER_HH_
