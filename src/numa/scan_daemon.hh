/**
 * @file
 * The scan loop shared by the background memory-management daemons
 * (AutoNUMA, swap, KSM, compaction, khugepaged): a list of tracked
 * processes and one recurring event that runs the daemon's scan()
 * every period. A daemon derives from ScanDaemon and keeps only its
 * scan body, its batch bounds and its stats.
 */

#ifndef LATR_NUMA_SCAN_DAEMON_HH_
#define LATR_NUMA_SCAN_DAEMON_HH_

#include <vector>

#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace latr
{

/** A periodic scan over tracked processes. */
class ScanDaemon
{
  public:
    ScanDaemon(const ScanDaemon &) = delete;
    ScanDaemon &operator=(const ScanDaemon &) = delete;

    /** Consider @p process in every later scan. */
    void track(Process *process) { tracked_.push_back(process); }

    /** Schedule the first scan one period from now (idempotent). */
    void start();

    /** Cancel the pending scan (idempotent). */
    void stop();

  protected:
    /**
     * @param kernel the kernel.
     * @param period time from the end of one scan to the next.
     * @param name the scan event's name (traces, panic messages).
     */
    ScanDaemon(Kernel &kernel, Duration period, const char *name);

    ~ScanDaemon();

    /** One scan round; the next is scheduled after it returns. */
    virtual void scan() = 0;

    bool running() const { return running_; }

    /**
     * The task a daemon acts in for @p process (its first task; the
     * kernel's scans run in task context), or nullptr if it has none.
     */
    static Task *
    contextOf(Process *process)
    {
        return process->tasks().empty() ? nullptr
                                        : process->tasks().front();
    }

    /**
     * Call @p fn(vpn, pte) on the present pages of @p mm's VMAs in
     * address order until it returns false (its batch is full): the
     * walk then ends with that VMA, and @p fn is not called again.
     */
    template <typename Fn>
    static void
    forEachPresentPage(AddressSpace &mm, Fn &&fn)
    {
        bool more = true;
        for (const auto &kv : mm.vmas()) {
            const Vma &vma = kv.second;
            mm.pageTable().forEachPresent(
                pageOf(vma.start), pageOf(vma.end) - 1,
                [&](Vpn vpn, Pte &pte) {
                    if (more)
                        more = fn(vpn, pte);
                });
            if (!more)
                break;
        }
    }

    Kernel &kernel_;
    std::vector<Process *> tracked_;

  private:
    class ScanEvent : public Event
    {
      public:
        ScanEvent(ScanDaemon *daemon, const char *name)
            : daemon_(daemon), name_(name)
        {
        }
        void process() override { daemon_->runScan(); }
        const char *name() const override { return name_; }

      private:
        ScanDaemon *daemon_;
        const char *name_;
    };

    /** scan(), then the next scan one period later. */
    void runScan();

    Duration period_;
    ScanEvent event_;
    bool running_ = false;
};

} // namespace latr

#endif // LATR_NUMA_SCAN_DAEMON_HH_
