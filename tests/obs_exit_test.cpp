/**
 * @file
 * Exit-path test for nvfs::obs: the global pool's workers record
 * counters, then main returns.  The pool is created before the stat
 * registry, so static destruction reaches the pool (and its workers'
 * thread-local slab detaches) after the registry's own teardown
 * point.  The process must still exit cleanly; under ASan this
 * catches a detach on a destroyed registry.  A plain program rather
 * than a gtest so nothing runs after main but static destruction.
 */

#include <cstdio>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

using namespace nvfs;

int
main()
{
    util::ThreadPool &pool = util::ThreadPool::global();
    constexpr int kTasks = 64;
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([] {
            static const obs::Counter counter("test.obs_exit.tasks");
            counter.add();
        });
    }
    pool.wait();
#ifndef NVFS_NO_STATS
    const auto recorded = obs::snapshot().value("test.obs_exit.tasks");
    if (recorded != kTasks) {
        std::fprintf(stderr, "recorded %llu of %d task counts\n",
                     static_cast<unsigned long long>(recorded), kTasks);
        return 1;
    }
#endif
    std::printf("%u workers recorded %d task counts\n",
                pool.threadCount(), kTasks);
    return 0;
}
