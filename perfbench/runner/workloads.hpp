/**
 * @file
 * The benchmark's four workloads.  Each builds its inputs from the
 * seed in setup(), then runs one closed-loop batch of result cells per
 * pass() and reports every cell's integer simulated statistics, so the
 * runner can digest them and compare them against the goldens.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Fields = std::vector<std::pair<std::string, std::int64_t>>;

/** One result cell: a sweep cell, server run, explore or file. */
struct Cell
{
    std::string name;
    Fields fields;
    std::string error; ///< why the cell produced nothing (throw, panic)
    std::string wrong; ///< why its statistics fail an output check
};

struct PassOutput
{
    std::vector<Cell> cells;
    std::uint64_t events = 0; ///< simulated events delivered
    /** Host work counts read from the results, by layer metric. */
    std::map<std::string, double> counts;
};

struct Options
{
    std::uint64_t seed = 1;
    bool smoke = false; ///< tiny inputs, for the self-test
    std::string workdir; ///< working files (trace_files only)
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Scale, sample and day parameters, for the run manifest. */
    virtual std::map<std::string, std::string> params() const = 0;

    /** Build the inputs from the seed; repeatable. */
    virtual void setup() = 0;

    /** Run one batch of every cell (timed by the caller). */
    virtual PassOutput pass() = 0;

    /**
     * Seed-independent output checks across cells of one pass
     * (differential pairs, invariants).  Marks the offending cell.
     */
    virtual void check(PassOutput &out) const = 0;
};

/** nullptr for an unknown workload name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &options);

/** Names of every workload, in the order the self-test runs them. */
std::vector<std::string> workloadNames();

} // namespace perfbench
