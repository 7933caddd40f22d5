/**
 * @file
 * Per-cell panic containment.  util::panic() aborts the process, which
 * would take every other cell of the run down with the one that hit an
 * internal invariant.  The runner is linked with
 * --wrap=<mangled nvfs::util::panic>, so calls into it land here
 * instead: the message is printed exactly as util::panic prints it,
 * then thrown, and the cell that raised it is counted as failed with
 * the panic text as its error.  The simulator state of that cell is
 * discarded with it; other cells own theirs.
 */

#include <cstdio>
#include <stdexcept>
#include <string>

extern "C" [[noreturn]] void
__wrap__ZN4nvfs4util5panicERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string &message)
{
    std::fprintf(stderr, "[nvfs:panic] %s\n", message.c_str());
    throw std::runtime_error("panic: " + message);
}
