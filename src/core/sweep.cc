#include "core/sweep.hh"

#include <cstdlib>

#include "common/log.hh"

namespace tcc {

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("TCC_JOBS")) {
        char *end = nullptr;
        const unsigned long n = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && n > 0)
            return static_cast<unsigned>(n);
        warn("ignoring malformed TCC_JOBS='%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : numJobs(jobs > 0 ? jobs : defaultJobs())
{
    if (numJobs <= 1) {
        numJobs = 1;
        return; // inline mode: no queue, no threads
    }
    threads.reserve(numJobs);
    for (unsigned i = 0; i < numJobs; ++i)
        threads.emplace_back([this]() { workerLoop(); });
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        shuttingDown = true;
    }
    cv.notify_all();
    for (auto &t : threads)
        t.join();
}

void
SweepRunner::submit(std::function<void()> fn)
{
    if (numJobs == 1) {
        // Degenerate case: behave exactly like the serial loop this
        // runner replaced, except that errors are still delivered
        // through wait() like in the parallel case.
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lk(mtx);
            if (!firstError)
                firstError = std::current_exception();
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mtx);
        ++pending;
        queue.push_back(std::move(fn));
    }
    cv.notify_one();
}

void
SweepRunner::wait()
{
    std::unique_lock<std::mutex> lk(mtx);
    // The submitting thread is one more consumer while it waits: it
    // takes jobs from the same front as the workers.
    while (pending > 0) {
        if (!queue.empty())
            runFront(lk);
        else
            cv.wait(lk);
    }
    const std::exception_ptr err = firstError;
    firstError = nullptr;
    lk.unlock();
    if (err)
        std::rethrow_exception(err);
}

void
SweepRunner::workerLoop()
{
    std::unique_lock<std::mutex> lk(mtx);
    for (;;) {
        if (!queue.empty())
            runFront(lk);
        else if (shuttingDown)
            return;
        else
            cv.wait(lk);
    }
}

void
SweepRunner::runFront(std::unique_lock<std::mutex> &lk)
{
    std::function<void()> job = std::move(queue.front());
    queue.pop_front();
    lk.unlock();
    std::exception_ptr err;
    try {
        job();
    } catch (...) {
        err = std::current_exception();
    }
    // Destroy the closure (and whatever it captured) before the batch
    // can be seen as finished.
    job = nullptr;
    lk.lock();
    if (err && !firstError)
        firstError = err;
    if (--pending == 0)
        cv.notify_all();
}

} // namespace tcc
