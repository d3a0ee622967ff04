#include "numa/scan_daemon.hh"

namespace latr
{

ScanDaemon::ScanDaemon(Kernel &kernel, Duration period, const char *name)
    : kernel_(kernel), period_(period), event_(this, name)
{
}

ScanDaemon::~ScanDaemon()
{
    stop();
}

void
ScanDaemon::start()
{
    if (running_)
        return;
    running_ = true;
    kernel_.queue().schedule(&event_, kernel_.now() + period_);
}

void
ScanDaemon::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (event_.scheduled())
        kernel_.queue().deschedule(&event_);
}

void
ScanDaemon::runScan()
{
    scan();
    if (running_)
        kernel_.queue().schedule(&event_, kernel_.now() + period_);
}

} // namespace latr
