/**
 * @file
 * Fixed bytes just past every heap block, so that a read past the end
 * of a block sees the same value on every run.
 *
 * The SIMD FlatMap::find probe can finish a group scan at exactly
 * capacity() and then read meta_[capacity()], one byte past the
 * metadata array.  With a plain allocator that byte is whatever the
 * previous owner of the heap chunk left there, which depends on thread
 * scheduling: the same seed then panics in one run, succeeds in the
 * next and crashes the process in a third, so a run's failure count
 * would not be reproducible.
 *
 * The runner replaces the global operator new with one that allocates
 * kHeapTailBytes spare bytes and zeroes them.  An over-read then sees
 * 0, the empty-slot marker, and ends the probe with a miss: every
 * lookup that reaches the boundary misses, on every run, and the cells
 * it breaks fail the same way each time.  Nothing is hidden: a lookup that
 * crosses the boundary fails more often than with heap garbage, not
 * less.  Array and nothrow forms reach these through the standard
 * library's defaults.  The run manifest records kHeapTailBytes.
 */

#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {

extern const std::size_t kHeapTailBytes;
const std::size_t kHeapTailBytes = 16;

} // namespace perfbench

void *
operator new(std::size_t size)
{
    void *p = std::malloc(size + perfbench::kHeapTailBytes);
    if (p == nullptr)
        throw std::bad_alloc();
    std::memset(static_cast<char *>(p) + size, 0,
                perfbench::kHeapTailBytes);
    return p;
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
